"""Dedup-family stress run (the LLM-pipeline headline at ~25× bench
scale, mirroring the flagship's 1M-image stress row).

Generates a deterministic document corpus in-stream (never on the
driver), then times the two headline dedup paths end-to-end:

  exact    content-hash → hash-bucketed lexsort/reduceat merge
  neardup  MinHash sigs → 8-band LSH explode → BUCKETED candidate
           kernel (stages/dedup.py::banded_pairs_bucketed) →
           pair_reduce

``--legacy`` swaps the candidate stage back to the per-band-bucket
``groupby(band_id, band_hash).map_groups`` path (the pre-round-4
shape) so the scale delta of the bucketed kernel is measurable on the
same corpus.  Results are recorded in BASELINE.md.

    python scripts/dedup_stress.py --n-docs 125000
    python scripts/dedup_stress.py --n-docs 125000 --legacy
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

# diverse 6-hex tokens over a 4096-word vocabulary: two random docs
# share ~0.1 tokens, so baseline 5-gram Jaccard is ~0 and the pair
# set is dominated by the PLANTED dups (a shared-prefix vocab like
# tokNNN keeps baseline Jaccard ~0.15 and drowns the corpus in
# accidental candidates)
VOCAB = [f"{(i * 2654435761) % (1 << 24):06x}" for i in range(4096)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Dedup stress")
    parser.add_argument("--n-docs", type=int, default=125_000)
    parser.add_argument("--legacy", action="store_true")
    parser.add_argument("--num-cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))))
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="dedup_stress_")
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str) -> int:

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
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

    from rust_geo_booleanop_ray.stages.exchange import hash_exchange
    from rust_geo_booleanop_ray.tuning import tune_data_context

    tune_data_context()

    from rust_geo_booleanop_ray.stages.dedup import (
        LshCandidatePairs,
        MinHasher,
        content_hash_batch,
        exact_dedup_merge_bucket,
        exact_dedup_partial,
        lsh_band_explode,
        minhash_candidate_pairs,
        pair_reduce,
    )

    n = args.n_docs

    M64 = (1 << 64) - 1

    def mix(x: int) -> int:
        # splitmix64-style finalizer: dup-target choice must NOT share
        # factors with i (a bare (i*C) % (i//20) is 0 for every
        # i ≡ 0 mod 20 — one 6250-member clique, 19.6M pairs)
        x = (x + 0x9E3779B97F4A7C15) & M64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
        return x ^ (x >> 31)

    def gen(batch: pa.Table) -> pa.Table:
        # deterministic corpus: 15% exact dups of an earlier unique
        # doc, 5% near-dups (one token swapped), the rest unique
        # 24-token docs.  kind = i % 20: 0-2 exact dup, 3 near-dup,
        # 4-19 unique; dup targets always land on a kind-4 (unique)
        # index strictly below i.
        idx = batch["id"].to_numpy()
        texts = []
        for i in idx:
            i = int(i)
            kind = i % 20
            base = i
            if i >= 40:
                if kind < 3:
                    base = (mix(i) % (i // 20)) * 20 + 4
                elif kind == 3:
                    base = (mix(i * 3 + 1) % (i // 20)) * 20 + 4
            rng = (base * 2654435761) % (1 << 32)
            toks = [
                VOCAB[(rng // (k + 1) + base * (k + 3)) % len(VOCAB)]
                for k in range(24)
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

    blocks = max(16, min(256, n // 2048))

    # Materialize the corpus to parquet ONCE (untimed): the timed runs
    # then measure the ENGINE over a parquet read — like a real job —
    # instead of folding the per-doc Python generator's CPU cost into
    # the dedup numbers (it distorts small-CPU scaling measurements).
    corpus_dir = os.path.join(work, "corpus")
    rd.range(n, override_num_blocks=blocks).map_batches(
        gen, batch_format="pyarrow", batch_size=None
    ).write_parquet(corpus_dir)

    def corpus():
        return rd.read_parquet(
            corpus_dir, columns=["doc_id", "text"], override_num_blocks=blocks
        )

    # -------------------------------------------------- exact dedup
    t0 = time.time()
    partials = (
        corpus()
        .map_batches(content_hash_batch, batch_format="pyarrow")
        .map_batches(exact_dedup_partial, batch_format="pyarrow")
    )
    distinct = hash_exchange(partials, "content_hash", exact_dedup_merge_bucket).count()
    wall_exact = time.time() - t0

    # ------------------------------------------------ minhash neardup
    t0 = time.time()
    # task-parallel signature stage, 4096-row batches: with the
    # streaming whole-batch kernel this is ~1.9× the actor-pool-capped
    # form (36.7 s → 19.3 s standalone at 2M docs, 32 CPUs); the old
    # cap guidance predated the streaming kernel
    sigs = corpus().map_batches(
        MinHasher(), batch_format="pyarrow", batch_size=4096
    )
    exploded = sigs.map_batches(lsh_band_explode, batch_format="pyarrow")
    if args.legacy:
        pairs = exploded.groupby(["band_id", "band_hash"]).map_groups(
            LshCandidatePairs(threshold=0.5), batch_format="pyarrow"
        )
    else:
        pairs = minhash_candidate_pairs(exploded, threshold=0.5)
    n_pairs = pair_reduce(
        pairs, "doc_a", "doc_b", "est_jaccard", how="max"
    ).count()
    wall_neardup = time.time() - t0

    print(
        json.dumps(
            {
                "n_docs": n,
                "candidate_stage": "legacy_per_band_map_groups" if args.legacy else "bucketed_kernel",
                "distinct_docs": distinct,
                "near_dup_pairs": n_pairs,
                "wall_exact_sec": round(wall_exact, 2),
                "wall_neardup_sec": round(wall_neardup, 2),
                "neardup_docs_per_sec": round(n / wall_neardup, 1),
                "num_cpus": args.num_cpus,
            }
        )
    )
    if owns_ray:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
