"""Image incremental-dedup stress: the hamming banding path at volume.

The oracle-checked `incremental_image_dedup` is literal-bounded (2k
images); this drives the SAME stage (`incremental_hamming_pairs`) at
millions of rows: a prior corpus of 64-bit perceptual hashes with
planted variants (every 7th row = an earlier base with 1-3 flipped
bits), plus a re-crawl append batch (every 5th image re-arrives
verbatim at id + 2^40).  Asserts every appended copy is flagged
against its source (hamming 0) and, as the planted invariant, that
pair counts match the closed-form expectation for the verbatim
re-crawls.

    python scripts/image_incremental_stress.py --old 2000000 --new 400000
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

M64 = (1 << 64) - 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Image incremental stress")
    parser.add_argument("--old", type=int, default=2_000_000)
    parser.add_argument("--new", type=int, default=400_000)
    parser.add_argument(
        "--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
    )
    args = parser.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    from rust_geo_booleanop_ray.tuning import tune_data_context

    tune_data_context()

    from rust_geo_booleanop_ray.stages.dedup import (
        band_explode,
        incremental_hamming_pairs,
        pair_reduce,
    )
    from rust_geo_booleanop_ray.stages.footprint import _splitmix64

    old_n, new_n, M = args.old, args.new, 1 << 40

    def hashes(lo: int, hi: int, shift: int = 0) -> "rd.Dataset":
        """(img_idx + shift, phash) rows; every 7th row is a variant of
        an earlier base with 1-3 flipped bits (hamming-neighbour)."""
        nb = max(8, min(256, (hi - lo) // 16384))

        def gen(b: pa.Table) -> pa.Table:
            idx = b["id"].to_numpy() + lo
            base = idx.copy()
            var = idx % 7 == 6
            base[var] = idx[var] - 1 - (idx[var] // 7) % 5
            ph = _splitmix64(base.astype(np.uint64))
            k = (idx % 3 + 1).astype(np.uint64)
            flip = np.zeros_like(ph)
            for j in range(3):
                bit = _splitmix64(idx.astype(np.uint64) * np.uint64(31 + j)) % np.uint64(64)
                flip = np.where(np.uint64(j) < k, flip | (np.uint64(1) << bit), flip)
            ph = np.where(var, ph ^ flip, ph)
            return pa.table(
                {
                    "img_idx": pa.array((idx + shift).astype(np.int64), pa.int64()),
                    "phash": pa.array(ph.view(np.int64), pa.int64()),
                }
            )

        return rd.range(hi - lo, override_num_blocks=nb).map_batches(
            gen, batch_format="pyarrow"
        )

    def recrawl(lo: int, hi: int) -> "rd.Dataset":
        """Every 5th image re-arrives VERBATIM at id + 2^40."""
        src = hashes(lo, hi)

        def shift(b: pa.Table) -> pa.Table:
            keep = b.filter(pa.array(b["img_idx"].to_numpy() % 5 == 0))
            return pa.table(
                {
                    "img_idx": pa.array(
                        keep["img_idx"].to_numpy() + M, pa.int64()
                    ),
                    "phash": keep["phash"],
                }
            )

        return src.map_batches(shift, batch_format="pyarrow")

    def explode(b: pa.Table) -> pa.Table:
        return band_explode(b, "img_idx", "phash", bands=4)

    # untimed warmup (fresh-session worker-pool spin-up)
    incremental_hamming_pairs(
        hashes(0, 20000).union(recrawl(0, 20000)).map_batches(
            explode, batch_format="pyarrow"
        ),
        max_hamming=3,
        new_min_id=M,
        key_col="img_idx",
        sig_col="phash",
    ).count()

    t0 = time.time()
    exploded = (
        hashes(0, old_n)
        .union(recrawl(0, old_n))
        .map_batches(explode, batch_format="pyarrow")
    )
    pairs = pair_reduce(
        incremental_hamming_pairs(
            exploded,
            max_hamming=3,
            new_min_id=M,
            key_col="img_idx",
            sig_col="phash",
        ),
        "doc_a",
        "doc_b",
        "hamming",
        how="min",
    )
    rows = pairs.take_all()
    wall = round(time.time() - t0, 2)

    n_new = (old_n + 4) // 5
    exact = sum(
        1
        for r in rows
        if r["hamming"] == 0 and r["doc_b"] - M == r["doc_a"]
    )
    assert exact == n_new, f"verbatim re-crawls flagged {exact} != {n_new}"
    print(
        json.dumps(
            {
                "old_images": old_n,
                "recrawled": n_new,
                "wall_sec": wall,
                "hashes_per_sec": round((old_n + n_new) / wall, 1),
                "pairs_touching_new": len(rows),
                "verbatim_pairs_exact": exact,
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
