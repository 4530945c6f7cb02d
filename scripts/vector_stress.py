"""Vector-pipeline stress: ANN + clustering at ~1000× the catalog's
embedding-table size (the 10^12-vector question asked at tractable
scale).

Generates a deterministic 64-d embedding table in-stream (splitmix64
→ uniform floats, never materialized on the driver), then times the
three vector paths end-to-end on the SAME table:

  brute    exact cosine top-10 for 5 queries (matmul per batch vs a
           broadcast query matrix) — the quadratic baseline
  pq       product quantization: encode every vector to 4 codes
           in-stage + ADC top-10 (stages/ann.py::pq_topk) — the
           compressed scale path (64 floats → 4 B/vector on the wire)
  kmeans   3 integer k-means iterations, k=8 (stages/linalg.py::
           kmeans_iterate — one (k, 1+d) ndarray aggregate per pass)

    python scripts/vector_stress.py --n-vectors 500000

Results are recorded in BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

DIM = 64


def synth_vec_batch(indices):
    import numpy as np
    import pyarrow as pa

    from rust_geo_booleanop_ray.stages.footprint import _splitmix64

    idx = indices.astype("uint64")
    cols = {"vec_id": pa.array(idx.astype("int64"))}
    base = idx[:, None] * np.uint64(DIM) + np.arange(DIM, dtype="uint64")[None, :]
    h = _splitmix64(base)
    vals = (h.astype("float64") / float(2**64) * 2.0 - 1.0).astype("float32")
    flat = pa.array(vals.ravel(), pa.float32())
    emb = pa.FixedSizeListArray.from_arrays(flat, DIM).cast(
        pa.list_(pa.float32())
    )
    return pa.table({"vec_id": cols["vec_id"], "embedding": emb})


def read_synth_vectors(n: int):
    import ray.data as rd

    ds = rd.range(n, override_num_blocks=max(8, min(256, n // 16384)))
    return ds.map_batches(
        lambda b: synth_vec_batch(b["id"].to_numpy()),
        batch_format="pyarrow",
        batch_size=None,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Vector stress")
    parser.add_argument("--n-vectors", type=int, default=500_000)
    args = parser.parse_args(argv)

    import numpy as np
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

    from rust_geo_booleanop_ray.tuning import tune_data_context

    tune_data_context()

    from rust_geo_booleanop_ray.stages.ann import (
        brute_force_topk,
        pq_fixed_codebooks,
        pq_topk,
    )
    from rust_geo_booleanop_ray.stages.linalg import (
        kmeans_iterate,
        quantize_embeddings,
    )

    n = args.n_vectors
    queries_t = synth_vec_batch(np.arange(5))
    qmat = (
        queries_t["embedding"]
        .combine_chunks()
        .flatten()
        .to_numpy(zero_copy_only=False)
        .reshape(5, DIM)
        .astype(np.float64)
    )
    queries = (np.arange(5), qmat)
    out = {"n_vectors": n, "dim": DIM}

    t0 = time.time()
    rows = brute_force_topk(read_synth_vectors(n), queries, 10).take_all()
    out["brute_sec"] = round(time.time() - t0, 2)
    out["brute_rows"] = len(rows)

    books = pq_fixed_codebooks(4, 16, DIM, seed=37)
    t0 = time.time()
    rows = pq_topk(read_synth_vectors(n), queries, 10, books).take_all()
    out["pq_sec"] = round(time.time() - t0, 2)
    out["pq_rows"] = len(rows)

    init = quantize_embeddings(queries_t["embedding"].combine_chunks())[:5]
    init = np.vstack([init, init + 50, init - 50][:3])[:8]
    # 8 deterministic seeds from the first 5 vectors + offsets
    while len(init) < 8:
        init = np.vstack([init, init[: 8 - len(init)] + 25])
    t0 = time.time()
    cent = kmeans_iterate(read_synth_vectors(n), "embedding", DIM, 8, init[:8], 3)
    out["kmeans_sec"] = round(time.time() - t0, 2)
    out["kmeans_centroid_l1"] = int(np.abs(cent).sum())

    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
