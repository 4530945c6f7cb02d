"""LM-quality stress: the bigram-LM scoring + repetition-stats gates
at 200-1000x the catalog corpus.

Reuses the contamination-stress corpus recipe byte-for-byte (same
cache directory, diverse 6-hex tokens over a 4096-word vocabulary with
planted near-dup families and ~12% stopwords), so the bigram table has
both a heavy head (stopword pairs) and a long tail — the realistic
shape for the bucketed count kernel.  Times the catalog's OWN
q_lm_score / q_repetition_stats over a parquet read.

    python scripts/lm_quality_stress.py --n-docs 100000
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="LM quality stress")
    parser.add_argument("--n-docs", type=int, default=100_000)
    args = parser.parse_args(argv)
    work = tempfile.mkdtemp(prefix="lm_quality_stress_")
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str) -> int:

    import numpy as np
    import pyarrow as pa
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))),
            include_dashboard=False,
            logging_level="ERROR",
        )
    import ray.data as rd

    rd.DataContext.get_current().enable_progress_bars = False
    n = args.n_docs

    def mix(x: int) -> int:
        return ((x * 0x9E3779B97F4A7C15) ^ (x >> 7)) % (1 << 61)

    def gen(batch: pa.Table) -> pa.Table:
        idx = batch["id"].to_numpy()
        texts = []
        for i in map(int, idx):
            kind = i % 20
            base = i
            if i >= 40:
                if kind < 3:
                    base = (mix(i) % (i // 20)) * 20 + 4
                elif kind == 3:
                    base = (mix(i * 3 + 1) % (i // 20)) * 20 + 4
            rng = (base * 2654435761) % (1 << 32)
            STOP = ("the", "a", "of", "and", "to", "in", "is")
            toks = [
                STOP[(base + k) % 7]
                if k % 8 == 3
                else VOCAB[(rng // (k + 1) + base * (k + 3)) % len(VOCAB)]
                for k in range(24)
            ]
            if kind == 3 and i >= 40:
                toks[5] = VOCAB[(i * 31) % len(VOCAB)]
            texts.append(" ".join(toks))
        return pa.table(
            {
                "doc_id": pa.array(idx.astype(np.int64), pa.int64()),
                "source": pa.array(
                    [f"src{int(i) % 20}" for i in idx], pa.string()
                ),
                "text": pa.array(texts, pa.string()),
            }
        )

    blocks = max(16, min(256, n // 2048))
    corpus_dir = os.path.join(work, "corpus")
    rd.range(n, override_num_blocks=blocks).map_batches(
        gen, batch_format="pyarrow", batch_size=None
    ).write_parquet(os.path.join(corpus_dir, "documents.parquet"))

    from rust_geo_booleanop_ray.pipelines.queries import build_queries

    out = {"n_docs": n}
    t0 = time.time()
    lm = build_queries()["lm_score"](corpus_dir)
    n_rows = lm.count()
    dt = time.time() - t0
    out["lm_score"] = {
        "sec": round(dt, 2),
        "docs_scored": int(n_rows),
        "docs_per_sec": round(n_rows / dt, 1),
    }
    t0 = time.time()
    rep = build_queries()["repetition_stats"](corpus_dir)
    n_rows = rep.count()
    dt = time.time() - t0
    out["repetition_stats"] = {
        "sec": round(dt, 2),
        "docs_scored": int(n_rows),
        "docs_per_sec": round(n_rows / dt, 1),
    }
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
