"""Local replica of the driver's correctness gate: run each queries()
entry and its oracle_sql() via DuckDB on the same sf_dir; compare
row count, schema (sorted column names) and an order-insensitive
value hash.  Usage: python tools/check_oracle.py [sf_dir] [names...]

The engine checked is the one in this script's own checkout: its root
goes first on this process's sys.path and on the Ray workers'
PYTHONPATH.  An unknown name, or a query without an oracle, fails the
run.
"""

from __future__ import annotations

import hashlib
import os
import sys

import duckdb
import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res):
    if isinstance(res, pd.DataFrame):
        return res
    try:
        import pyarrow as pa

        if isinstance(res, pa.Table):
            return res.to_pandas()
    except ImportError:
        pass
    return res.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    rows = sorted(df.itertuples(index=False, name=None))
    h = hashlib.sha256()
    for r in rows:
        h.update(repr(r).encode())
    return h.hexdigest()[:16]


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    sys.path.insert(0, REPO)
    import __ray_entry__ as e

    qs = e.queries()
    unknown = sorted(only - set(qs))
    if unknown:
        sys.exit(f"unknown query names: {unknown}")

    import ray

    pythonpath = os.pathsep.join(p for p in (REPO, os.environ.get("PYTHONPATH", "")) if p)
    ray.init(
        address="local",
        num_cpus=8,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    oracles = e.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            mine = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: ray side raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        try:
            theirs = con.execute(oracles[name]).df()
        except Exception as ex:
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        ok_rows = len(mine) == len(theirs)
        ok_schema = sorted(mine.columns) == sorted(theirs.columns)
        ok_hash = ok_schema and value_hash(mine) == value_hash(theirs)
        status = "PASS" if (ok_rows and ok_schema and ok_hash) else "FAIL"
        if status == "PASS":
            n_pass += 1
        else:
            n_fail += 1
        print(
            f"{status} {name}: rows {len(mine)}/{len(theirs)} schema_ok={ok_schema} hash_ok={ok_hash}"
        )
        if status == "FAIL" and ok_schema:
            m = mine[sorted(mine.columns)].copy()
            t = theirs[sorted(theirs.columns)].copy()
            print("  mine:", m.head(3).to_dict("records"))
            print("  orcl:", t.head(3).to_dict("records"))
    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
