"""Window/stream-kernel stress: the user-bucketed lexsort kernels at
~50× the bench's event volume.

Writes a deterministic 5M-row events table (schema-identical to the
driver's) to a scratch dir, then times the catalog's OWN window
queries against it — same code path the oracle gate checks, no
stress-only forks:

  sessions       gap-based sessionization (lexsort + cumsum)
  running_total  cumulative window (segment-rebased cumsum)
  cum_distinct   cumulative-DISTINCT window (two lexsort passes)
  gap_fill       dense (user, hour) grid synthesis
  late_events    watermark lateness (segment-lifted cummax)
  stream_join    interval join (band-lifted searchsorted windows)

    python scripts/window_stress.py --n-events 5000000
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

EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def write_events(path: str, n: int, n_users: int) -> None:
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rust_geo_booleanop_ray.stages.footprint import _splitmix64

    os.makedirs(path, exist_ok=True)
    idx = np.arange(n, dtype=np.uint64)
    h1 = _splitmix64(idx)
    h2 = _splitmix64(idx + np.uint64(1 << 32))
    h3 = _splitmix64(idx + np.uint64(2 << 32))
    user = (h1 % np.uint64(n_users)).astype(np.int64)
    span_us = 30 * 24 * 3_600_000_000
    base = np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64)
    ts = base + (h2 % np.uint64(span_us)).astype(np.int64)
    etype = np.asarray(EVENT_TYPES, dtype=object)[
        (h3 % np.uint64(5)).astype(np.int64)
    ]
    value = (h3 >> np.uint64(11)).astype(np.float64) / float(2**53) * 100.0
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n, dtype=np.int64)),
            "ts": pa.array(ts.astype("datetime64[us]")),
            "user_id": pa.array(user),
            "event_type": pa.array(etype, pa.string()),
            "value": pa.array(value),
            "props": pa.array(
                np.char.add(
                    np.char.add(
                        '{"k": ',
                        (h1 % np.uint64(100)).astype(np.int64).astype("U3"),
                    ),
                    "}",
                ).astype(object),
                pa.string(),
            ),
        }
    )
    pq.write_table(t, f"{path}/events.parquet", row_group_size=1 << 18)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Window stress")
    parser.add_argument("--n-events", type=int, default=5_000_000)
    parser.add_argument("--n-users", type=int, default=100_000)
    parser.add_argument(
        "--out", default=None, help="keep the generated tables here (default: a temp dir, removed)"
    )
    args = parser.parse_args(argv)
    if args.out is not None:
        return _run(args, args.out)
    work = tempfile.mkdtemp(prefix="window_stress_")
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: str) -> int:

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

    t0 = time.time()
    write_events(work, args.n_events, args.n_users)
    gen_sec = round(time.time() - t0, 2)

    from rust_geo_booleanop_ray.pipelines.queries import build_queries

    qs = build_queries()
    out = {"n_events": args.n_events, "n_users": args.n_users, "gen_sec": gen_sec}
    for name in [
        "sessions",
        "running_total",
        "cum_distinct",
        "gap_fill",
        "late_events",
        "stream_join",
    ]:
        t0 = time.time()
        res = qs[name](work)
        n = res.count() if hasattr(res, "count") else len(res)
        out[name] = {"sec": round(time.time() - t0, 2), "rows": n}
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
