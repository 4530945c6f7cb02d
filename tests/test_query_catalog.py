"""The driver-facing catalog keeps one physical plan per oracle."""

import collections

from rust_geo_booleanop_ray.pipelines.queries import build_oracle_sql, build_queries


def test_one_plan_per_oracle():
    """Names that share an oracle SQL text resolve to one function, so
    no query name selects a physical plan.  The one exception reads a
    different input format: wkb_clip decodes WKB before the same clip."""
    queries = build_queries()
    oracle = build_oracle_sql()
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
