"""Driver-facing query catalog: Ray pipelines + DuckDB oracle SQL.

Each ``catalog/`` family module registers its queries in one
``QUERIES`` table next to their definitions (``catalog._shared.Query``:
plan, oracle, aliases); ``REGISTRY`` merges the tables and is the one
list of names that ``build_queries()``, ``build_oracle_sql()`` and
``bench.py`` read.

Every SQL-expressible query here is value-checked by the driver against
DuckDB at sf=0.01 (order-insensitive hash of sorted-by-name columns).
Cross-engine float determinism rules used throughout:

  - derived spatial coordinates are INTEGER-VALUED doubles (modular
    arithmetic on keys), so rect/clip areas and squared distances are
    exact in f64 in any summation order;
  - money flows as cents: ``CAST(floor(x*100 + 0.5) AS BIGINT)`` — the
    same double op sequence in numpy and DuckDB, then exact int sums;
  - timestamps bucket via integer microsecond floor-division;
  - ANN cosines are rounded to 4 dp (gap between neighbors ≫ fp error).

Geometry queries route through the REAL engine stages (Martinez clip,
cell-partitioned joins, kNN) — the SQL oracle computes the same answer
with closed-form rectangle arithmetic, which is exactly what makes the
engine's exact kernel checkable without a SQL spatial extension.
"""

from __future__ import annotations

from .catalog import agg, ann, dedup, graph, image, joins, spatial, text, windows
from .catalog._shared import merge_queries

# perfbench/polyjoin.py imports these two from here
from .catalog.spatial import Q_POLY_JOIN_BIG_SQL, q_poly_join_big  # noqa: F401

# every name, aliases included → its entry; a name registered twice raises here
REGISTRY = merge_queries(
    *(m.QUERIES for m in (spatial, agg, windows, joins, dedup, text, ann, image, graph))
)


def build_queries():
    """Name → plan ``fn(sf_dir)``; an alias runs its primary's plan."""
    return {name: query.plan for name, query in REGISTRY.items()}


def build_oracle_sql():
    """Name → DuckDB oracle SQL.  Oracle functions run here, once per
    entry, and never at import: their literals come from generator math
    that only the oracle comparison needs."""
    built = {}
    for name, query in REGISTRY.items():
        if name not in query.aliases:
            oracle = query.oracle
            sql = oracle if isinstance(oracle, str) else oracle()
            for n in (name, *query.aliases):
                built[n] = sql
    return built
