"""The query catalog keeps one physical plan per oracle, and one
registry: each catalog family module registers its queries in its
``QUERIES`` table, and ``pipelines.queries`` only merges the tables."""

import ast
import collections
import importlib
import importlib.util
import os
import pkgutil

import pytest

from conftest import REPO, TESTDATA
from rust_geo_booleanop_ray.pipelines.queries import REGISTRY, build_oracle_sql, build_queries


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


# the two-sided PBSM joins, which all run through spatial._cell_join
PBSM_JOINS = ["pip_join", "spatial_antijoin", "zonal_stats", "poly_join_big", "areal_interp"]


@pytest.mark.parametrize(
    "name,res",
    [pytest.param(name, None, id=name) for name in CELL_JOINS]
    + [
        pytest.param(name, res, id=f"{name}-res{res}")
        for res in (0, 2, 8)
        for name in PBSM_JOINS
    ],
)
def test_cell_join_matches_oracle(ray_session, oracle, monkeypatch, name, res):
    """The cell-layout queries (the PBSM joins, kNN, the distance join
    and the neighbour, parent and child cell queries) equal their
    DuckDB oracle at sf0.001, compared the way tools/check_oracle.py
    compares them: row count, sorted column names and the
    order-insensitive value hash.  Partitioning never changes an exact
    answer: the PBSM joins also match at cell resolutions 0, 2 and 8."""
    import duckdb

    from rust_geo_booleanop_ray.pipelines.catalog import spatial

    if res is not None:
        monkeypatch.setattr(spatial, "CELL_JOIN_RES", res)

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


def test_name_registered_twice_raises_at_import(monkeypatch):
    """A name in two family tables (or an alias that repeats a name)
    stops ``pipelines.queries`` from importing, naming it."""
    from rust_geo_booleanop_ray.pipelines.catalog import agg, spatial
    from rust_geo_booleanop_ray.pipelines.catalog._shared import Query, merge_queries

    queries = importlib.import_module(build_queries.__module__)  # to reload it
    try:
        monkeypatch.setitem(agg.QUERIES, "clip_area", spatial.QUERIES["clip_area"])
        with pytest.raises(ValueError, match="'clip_area'"):
            importlib.reload(queries)
        monkeypatch.undo()
        monkeypatch.setitem(agg.QUERIES, "pip_join_rtree", agg.QUERIES["pricing_summary"])
        with pytest.raises(ValueError, match="'pip_join_rtree'"):
            importlib.reload(queries)
    finally:
        monkeypatch.undo()
        importlib.reload(queries)
    assert queries.REGISTRY == REGISTRY
    with pytest.raises(ValueError, match="'a'"):
        merge_queries({"a": Query(len, "SELECT 1", aliases=("b", "a"))})


def test_every_oracle_is_sql_text(oracle):
    """Each registered name builds a non-empty SQL string, and oracle
    functions run only in ``build_oracle_sql()``: the tables hold the
    functions, not their output."""
    assert set(oracle) == set(REGISTRY)
    for name, sql in oracle.items():
        assert isinstance(sql, str) and sql.strip(), name
    for name, query in REGISTRY.items():
        assert isinstance(query.oracle, str) or callable(query.oracle), name


def test_aliases_run_their_primary(oracle):
    """An alias is declared on its primary's entry and serves the
    primary's plan and oracle."""
    queries = build_queries()
    aliases = {
        alias: name
        for name, query in REGISTRY.items()
        if name not in query.aliases
        for alias in query.aliases
    }
    assert aliases == {
        "pip_join_skew": "pip_join",
        "pip_join_rtree": "pip_join",
        "range_join_big": "range_join",
        "incremental_minhash_store": "incremental_minhash",
        "minhash_lean": "minhash_near_dup",
    }
    for alias, name in aliases.items():
        assert REGISTRY[alias] is REGISTRY[name]
        assert queries[alias] is queries[name]
        assert oracle[alias] == oracle[name]


def test_each_family_registers_what_it_defines():
    """Every entry sits in the table of the module that defines its
    plan, and the registry is exactly the union of the family modules'
    tables."""
    from rust_geo_booleanop_ray.pipelines import catalog

    names = []
    for info in pkgutil.iter_modules(catalog.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"{catalog.__name__}.{info.name}")
        for name, query in module.QUERIES.items():
            assert query.plan.__module__ == module.__name__, name
            names += [name, *query.aliases]
    assert sorted(names) == sorted(REGISTRY)


# the public names of pipelines/queries.py; perfbench/ is the one
# importer of anything else (q_poly_join_big and Q_POLY_JOIN_BIG_SQL)
_QUERIES_MODULE = "rust_geo_booleanop_ray.pipelines.queries"
_QUERIES_SURFACE = {"build_queries", "build_oracle_sql", "REGISTRY"}


def _python_files():
    for top in ("rust_geo_booleanop_ray", "tests", "scripts", "tools"):
        for root, _, files in os.walk(os.path.join(REPO, top)):
            yield from (os.path.join(root, f) for f in files if f.endswith(".py"))
    yield os.path.join(REPO, "bench.py")
    yield os.path.join(REPO, "__ray_entry__.py")


def _imported_module(path, node):
    """The absolute module an ``ImportFrom`` reads, relative ones resolved."""
    if not node.level:
        return node.module
    package = os.path.relpath(os.path.dirname(path), REPO).split(os.sep)
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def test_queries_module_exports_only_the_registry():
    """Nothing imports a query, constant or helper through
    ``pipelines.queries``: tests, scripts and tools import it from the
    catalog module that defines it."""
    offenders = []
    for path in _python_files():
        rel = os.path.relpath(path, REPO)
        with open(path) as fh:
            tree = ast.parse(fh.read(), rel)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = _imported_module(path, node)
                names = {a.name for a in node.names}
                if module == _QUERIES_MODULE:
                    bad = names - _QUERIES_SURFACE
                elif module == "rust_geo_booleanop_ray.pipelines":
                    bad = names & {"queries"}
                else:
                    bad = set()
            elif isinstance(node, ast.Import):
                bad = {a.name for a in node.names if a.name == _QUERIES_MODULE}
            else:
                continue
            offenders += [f"{rel}:{node.lineno} {name}" for name in sorted(bad)]
    assert offenders == []
