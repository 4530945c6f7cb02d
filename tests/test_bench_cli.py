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
