"""bench.py's command-line contract, checked without starting Ray."""

import pytest

import bench


def test_unknown_bench_only_entry_raises_before_ray(monkeypatch):
    """A ``GRAFT_BENCH_ONLY`` name outside ``bench_list()`` is an error
    that names it, raised before ``ray.init``; it never runs an empty
    suite and reports success."""
    import ray

    def no_ray(*a, **k):
        raise AssertionError("ray.init called")

    monkeypatch.setattr(ray, "init", no_ray)
    monkeypatch.setattr(bench, "ONLY", ["no_such_query"])
    with pytest.raises(ValueError, match="no_such_query"):
        bench.main()
    monkeypatch.setattr(bench, "ONLY", ["pip_join", "no_such_query", "also_missing"])
    with pytest.raises(ValueError, match=r"\['also_missing', 'no_such_query'\]"):
        bench.main()
    monkeypatch.setattr(bench, "ONLY", ["pip_join"])
    assert [n for n, _ in bench.bench_list()] == ["pip_join"]


def test_untimed_names_must_be_registered(monkeypatch):
    """An ``UNTIMED`` name the registry lacks is an error that names it,
    so a renamed or deleted query cannot silently rejoin the suite."""
    monkeypatch.setattr(bench, "UNTIMED", bench.UNTIMED | {"no_such_query"})
    with pytest.raises(ValueError, match="no_such_query"):
        bench.bench_list()


def test_suite_times_each_plan_once(monkeypatch):
    """The suite is the flagship, then every registered name except the
    aliases (they run their primary's plan) and ``UNTIMED``."""
    from rust_geo_booleanop_ray.pipelines.queries import REGISTRY

    monkeypatch.setattr(bench, "ONLY", [])
    names = [n for n, _ in bench.bench_list()]
    assert names[0] == "flagship_tiles"
    aliases = {a for query in REGISTRY.values() for a in query.aliases}
    assert not aliases & set(names)
    assert set(names[1:]) == set(REGISTRY) - aliases - bench.UNTIMED
    assert len(names) == len(set(names))
