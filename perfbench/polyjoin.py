"""`polyjoin`: `poly_join_big`, the big×big PBSM join of 20,000 part
rects × 1,000 supplier rects, through `explode_to_cells` →
`groupby(cell)` → `join_cells_within_group_dedup` →
`native_boolean_batch`.

The query reads only `part(p_partkey, p_size, p_brand)` and
`supplier(s_suppkey)`; set-up writes both tables with the shape of the
TPC-H-style sf0.1 tables (keys 0..n-1, `p_size` in 1..50 drawn from the
seed), and the DuckDB mirror of the query gives the expected rows; both
happen before Ray starts.  The warm-up run joins a tenth-size pair of
tables: it starts the workers and loads the engine in them at a fraction
of a full cold run's cost.
"""

from __future__ import annotations

import os
import time

from .common import table_digest

N_PART = 20_000
N_SUPPLIER = 1_000
SORT_KEYS = ["p_partkey", "s_suppkey"]


class PolyjoinWorkload:
    name = "polyjoin"
    uses_ray = True

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir
        self.expected: dict = {}  # sf dir -> (rows, digest)

    def begin(self) -> None:
        import numpy as np

        rng = np.random.default_rng(self.seed)
        self.sf_dir = self._tables("sf", N_PART, N_SUPPLIER, rng)
        self.warm_dir = self._tables("sf-warm", N_PART // 10, N_SUPPLIER // 10, rng)

    def setup(self) -> None:
        pass

    def _tables(self, name: str, n_part: int, n_supplier: int, rng) -> str:
        """Write part and supplier, and the DuckDB answer for them."""
        import duckdb
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from rust_geo_booleanop_ray.pipelines.queries import Q_POLY_JOIN_BIG_SQL

        sf_dir = os.path.join(self.work_dir, name)
        os.makedirs(sf_dir, exist_ok=True)
        part = pa.table(
            {
                "p_partkey": np.arange(n_part, dtype=np.int64),
                "p_brand": pa.array([f"Brand#{b}" for b in rng.integers(1, 26, n_part)]),
                "p_size": pa.array(rng.integers(1, 51, n_part), pa.int32()),
            }
        )
        supplier = pa.table({"s_suppkey": np.arange(n_supplier, dtype=np.int64)})
        pq.write_table(part, os.path.join(sf_dir, "part.parquet"))
        pq.write_table(supplier, os.path.join(sf_dir, "supplier.parquet"))
        con = duckdb.connect()
        try:
            for t in ("part", "supplier"):
                path = os.path.join(sf_dir, f"{t}.parquet")
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
            want = con.execute(Q_POLY_JOIN_BIG_SQL).fetch_arrow_table()
        finally:
            con.close()
        self.expected[sf_dir] = (want.num_rows, table_digest(_canonical(want), SORT_KEYS))
        return sf_dir

    def run(self, warm: bool = False) -> dict:
        import pyarrow as pa

        from rust_geo_booleanop_ray.pipelines.queries import q_poly_join_big

        sf_dir = self.warm_dir if warm else self.sf_dir
        t0 = time.perf_counter()
        ds = q_poly_join_big(sf_dir)
        first = None
        batches = []
        for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            if first is None:
                first = time.perf_counter() - t0
            batches.append(batch)
        out = pa.concat_tables(batches) if batches else None
        return {
            "rows": out.num_rows if out is not None else 0,
            "first_batch_s": first,
            "dataset": ds,
            "table": out,
            "sf_dir": sf_dir,
        }

    def check(self, res: dict) -> str | None:
        out = res["table"]
        rows, digest = self.expected[res["sf_dir"]]
        if out is None or out.num_rows != rows:
            got = 0 if out is None else out.num_rows
            return f"{got} pairs, DuckDB gives {rows}"
        if table_digest(_canonical(out), SORT_KEYS) != digest:
            return "pair digest differs from DuckDB"
        return None

    def cleanup(self, res: dict | None) -> None:
        pass

    def close(self) -> None:
        pass


def _canonical(table):
    import pyarrow as pa

    return pa.table({c: table[c].cast(pa.int64()) for c in ("p_partkey", "s_suppkey", "clip_area")})
