"""The driver-facing catalog keeps one physical plan per oracle."""

import collections
import importlib.util
import os

import pytest

from conftest import REPO, TESTDATA
from rust_geo_booleanop_ray.pipelines.queries import build_oracle_sql, build_queries


@pytest.fixture(scope="module")
def oracle():
    return build_oracle_sql()  # ~15 s: build it once per module


def test_one_plan_per_oracle(oracle):
    """Names that share an oracle SQL text resolve to one function, so
    no query name selects a physical plan.  The one exception reads a
    different input format: wkb_clip decodes WKB before the same clip."""
    queries = build_queries()
    assert set(queries) == set(oracle)
    by_sql = collections.defaultdict(list)
    for name, sql in oracle.items():
        by_sql[sql].append(name)
    aliased = [sorted(names) for names in by_sql.values() if len(names) > 1]
    assert aliased  # the alias names are still served
    for names in aliased:
        if names == ["poly_clip", "wkb_clip"]:
            continue
        plans = {queries[n] for n in names}
        assert len(plans) == 1, f"{names} run {sorted(p.__name__ for p in plans)}"


CELL_JOINS = [
    "pip_join",
    "spatial_antijoin",
    "zonal_stats",
    "poly_join_big",
    "areal_interp",
    "spatial_knn",
    "dist_join",
    "focal_sum",
    "cell_compact",
    "cell_uncompact",
]


@pytest.mark.parametrize("name", CELL_JOINS)
def test_cell_join_matches_oracle(ray_session, oracle, name):
    """The cell-layout queries (the PBSM joins, kNN, the distance join
    and the neighbour, parent and child cell queries) equal their
    DuckDB oracle at sf0.001, compared the way tools/check_oracle.py
    compares them: row count, sorted column names and the
    order-insensitive value hash."""
    import duckdb

    sf = os.path.join(TESTDATA, "sf0.001")
    spec = importlib.util.spec_from_file_location(
        "check_oracle", os.path.join(REPO, "tools", "check_oracle.py")
    )
    check_oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_oracle)

    mine = check_oracle.to_pandas(build_queries()[name](sf))
    con = duckdb.connect()
    for t in ("customer", "part", "supplier"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    theirs = con.execute(oracle[name]).df()
    assert len(theirs) > 0
    assert len(mine) == len(theirs)
    assert sorted(mine.columns) == sorted(theirs.columns)
    assert check_oracle.value_hash(mine) == check_oracle.value_hash(theirs)
