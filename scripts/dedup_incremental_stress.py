"""Incremental-dedup stress: the append-only pipeline shape at volume.

A prior run persisted its 128-bit content signatures (24 B/doc
parquet).  A new 100k-doc batch arrives: dedup it against old+new
WITHOUT re-reading or re-signing the 400k-doc prior corpus, and prove
the flags match a full-corpus re-run exactly.

    python scripts/dedup_incremental_stress.py --old 400000 --new 100000

``--minhash`` runs the NEAR-dup variant instead: the prior run
persisted (doc_id, sig[64]) MinHash signatures (~536 B/doc); the new
batch is shingled+signed and banded against the persisted signature
table (old docs never re-shingled), and the candidate pairs touching
the new batch must match a full-corpus re-run pair-for-pair
(est_jaccard included).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

VOCAB = [f"{(i * 2654435761) % (1 << 24):06x}" for i in range(4096)]
M64 = (1 << 64) - 1


def _mix(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Incremental dedup stress")
    parser.add_argument("--old", type=int, default=400_000)
    parser.add_argument("--new", type=int, default=100_000)
    parser.add_argument(
        "--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
    )
    parser.add_argument(
        "--minhash", action="store_true", help="near-dup (MinHash+LSH) variant"
    )
    parser.add_argument(
        "--tokens",
        type=int,
        default=24,
        help="tokens per doc (~7 chars each). 24 = toy; 160 ≈ a real "
        "1.1 KB crawl doc, where shingling dominates and the "
        "incremental path's savings show",
    )
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="dedup_incremental_stress_")
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str) -> int:
    n_tok = args.tokens

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
        content_hash_batch,
        incremental_exact_dedup,
    )

    # same deterministic corpus as dedup_stress.py: 15% exact dups of
    # an earlier unique doc — new-batch dup targets span old AND new
    def gen(batch: pa.Table) -> pa.Table:
        idx = batch["id"].to_numpy()
        texts = []
        for i in idx:
            i = int(i)
            kind = i % 20
            base = i
            if i >= 40:
                if kind < 3:
                    base = (_mix(i) % (i // 20)) * 20 + 4
                elif kind == 3:
                    base = (_mix(i * 3 + 1) % (i // 20)) * 20 + 4
            rng = (base * 2654435761) % (1 << 32)
            toks = [
                VOCAB[(rng // (k + 1) + base * (k + 3)) % len(VOCAB)]
                for k in range(n_tok)
            ]
            if kind == 3 and i >= 40:
                toks[5] = VOCAB[(i * 31) % len(VOCAB)]
            texts.append(" ".join(toks))
        return pa.table(
            {
                "doc_id": pa.array(idx.astype(np.int64), pa.int64()),
                "text": pa.array(texts, pa.string()),
            }
        )

    def corpus(lo: int, hi: int):
        nb = max(8, min(256, (hi - lo) // 4096))
        return (
            rd.range(hi - lo, override_num_blocks=nb)
            .map_batches(
                lambda b: gen(pa.table({"id": pa.array(b["id"].to_numpy() + lo)})),
                batch_format="pyarrow",
            )
        )

    old_n, new_n = args.old, args.new

    if args.minhash:
        from rust_geo_booleanop_ray.stages.dedup import (
            MinHasher,
            incremental_minhash_pairs,
            pair_reduce,
        )

        def band_pairs(new_sigs, prior_sigs):
            p = incremental_minhash_pairs(
                new_sigs, prior_sigs, threshold=0.5, new_min_id=old_n
            )
            return pair_reduce(p, "doc_a", "doc_b", "est_jaccard", how="max")

        sig_dir = os.path.join(work, "minhash_sigs")

        # untimed warmup: the first pipeline in a fresh Ray session
        # pays worker-pool spin-up (measured ~2-3x on this box); don't
        # bill it to whichever phase happens to run first
        band_pairs(
            corpus(0, 5000).map_batches(MinHasher(), batch_format="pyarrow"),
            corpus(5000, 10000).map_batches(MinHasher(), batch_format="pyarrow"),
        ).count()

        # ---- prior run: shingle+sign the old corpus ONCE and persist
        t0 = time.time()
        corpus(0, old_n).map_batches(MinHasher(), batch_format="pyarrow").write_parquet(
            sig_dir
        )
        prior_sec = round(time.time() - t0, 2)

        # ---- incremental: persisted sigs + sign ONLY the new batch
        t0 = time.time()
        new_sigs = corpus(old_n, old_n + new_n).map_batches(
            MinHasher(), batch_format="pyarrow"
        )
        inc_rows = band_pairs(new_sigs, rd.read_parquet(sig_dir)).take_all()
        inc_sec = round(time.time() - t0, 2)

        # ---- full re-run: shingle+sign old AND new from scratch
        t0 = time.time()
        full_rows = band_pairs(
            corpus(old_n, old_n + new_n).map_batches(
                MinHasher(), batch_format="pyarrow"
            ),
            corpus(0, old_n).map_batches(MinHasher(), batch_format="pyarrow"),
        ).take_all()
        full_sec = round(time.time() - t0, 2)

        inc_map = {(r["doc_a"], r["doc_b"]): r["est_jaccard"] for r in inc_rows}
        full_map = {(r["doc_a"], r["doc_b"]): r["est_jaccard"] for r in full_rows}
        assert inc_map == full_map, (
            f"incremental pairs diverge from full run: "
            f"{len(inc_map)} vs {len(full_map)}"
        )
        print(
            json.dumps(
                {
                    "mode": "minhash",
                    "old_docs": old_n,
                    "new_docs": new_n,
                    "prior_sign_sec": prior_sec,
                    "incremental_sec": inc_sec,
                    "full_rerun_sec": full_sec,
                    "speedup": round(full_sec / inc_sec, 2) if inc_sec else None,
                    "pairs_touching_new": len(inc_map),
                    "pairs_match_full_run": True,
                }
            )
        )
        ray.shutdown()
        return 0

    sig_dir = os.path.join(work, "dedup_sigs")

    # ---- prior run: sign the old corpus ONCE and persist (24 B/doc)
    t0 = time.time()
    corpus(0, old_n).map_batches(
        content_hash_batch, batch_format="pyarrow"
    ).write_parquet(sig_dir)
    prior_sec = round(time.time() - t0, 2)

    # ---- incremental: read persisted sigs + sign ONLY the new batch
    t0 = time.time()
    new_sigs = corpus(old_n, old_n + new_n).map_batches(
        content_hash_batch, batch_format="pyarrow"
    )
    inc = incremental_exact_dedup(new_sigs, rd.read_parquet(sig_dir))
    inc_rows = inc.take_all()
    inc_sec = round(time.time() - t0, 2)

    # ---- full re-run: sign old+new from scratch (what incremental saves)
    t0 = time.time()
    all_sigs = corpus(0, old_n + new_n).map_batches(
        content_hash_batch, batch_format="pyarrow"
    )
    empty = rd.from_arrow(
        pa.schema(
            [
                pa.field("doc_id", pa.int64()),
                pa.field("content_hash", pa.int64()),
                pa.field("content_hash_hi", pa.int64()),
            ]
        ).empty_table()
    )
    full = incremental_exact_dedup(all_sigs, empty)
    full_rows = [r for r in full.take_all() if r["doc_id"] >= old_n]
    full_sec = round(time.time() - t0, 2)

    inc_map = {r["doc_id"]: r["keeper"] for r in inc_rows}
    full_map = {r["doc_id"]: r["keeper"] for r in full_rows}
    assert inc_map == full_map, (
        f"incremental flags diverge from full run: "
        f"{len(inc_map)} vs {len(full_map)}"
    )

    print(
        json.dumps(
            {
                "old_docs": old_n,
                "new_docs": new_n,
                "prior_sign_sec": prior_sec,
                "incremental_sec": inc_sec,
                "full_rerun_sec": full_sec,
                "speedup": round(full_sec / inc_sec, 2) if inc_sec else None,
                "flagged_new": len(inc_map),
                "flags_match_full_run": True,
            }
        )
    )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
