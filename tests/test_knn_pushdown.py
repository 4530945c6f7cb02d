"""kNN and the distance-band join on the one cell-join layout: query
pushdown gives the same answers as the all-points run, empty-query
batches are handled, and with ``MAX_CONTAIN_MATRIX`` forced tiny a hot
cell's chunked matrices give the brute-force answer."""

import itertools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from rust_geo_booleanop_ray.stages import cells, dist_join, knn
from rust_geo_booleanop_ray.stages.knn import knn_pipeline, prepare_knn_rows


def _points_table(n=200, seed=3, query_ids=None):
    rng = np.random.default_rng(seed)
    ids = np.arange(n, dtype=np.int64)
    t = {
        "pid": pa.array(ids),
        "cx": pa.array(rng.uniform(5, 85, n)),
        "cy": pa.array(rng.uniform(5, 85, n)),
    }
    if query_ids is not None:
        t["is_query"] = pa.array(np.isin(ids, query_ids))
    return pa.table(t)


def _rows(ds):
    return sorted(
        ds.take_all(), key=lambda r: (r["query_id"], r["rank"])
    )


def test_pushdown_matches_full_run(ray_session):
    queries = np.array([3, 17, 42], dtype=np.int64)
    full = knn_pipeline(
        rd.from_arrow(_points_table()), k=4, res=3, id_col="pid"
    )
    full_rows = [r for r in _rows(full) if r["query_id"] in set(queries.tolist())]

    pushed = knn_pipeline(
        rd.from_arrow(_points_table(query_ids=queries)),
        k=4,
        res=3,
        id_col="pid",
        query_col="is_query",
    )
    assert _rows(pushed) == full_rows


def _home(t: pa.Table, res: int, x="cx", y="cy") -> pa.Table:
    xs, ys = t[x].to_numpy(), t[y].to_numpy()
    return cells.explode_to_cells(cells.side_table(cells.BUILD, t["pid"], xs, ys, xs, ys), res)


def test_empty_query_batch():
    t = _points_table(n=8, query_ids=np.array([], dtype=np.int64))
    out = prepare_knn_rows(_home(t, 3), t["is_query"])
    # 8 home rows, zero query replicas
    assert out.num_rows == 8
    assert set(out["side"].to_pylist()) == {cells.BUILD}


def _by_cell(rows: pa.Table, kernel) -> pa.Table:
    """The groupby(cell) stage, run locally: ``kernel`` once per cell."""
    return pa.concat_tables(
        [kernel(rows.filter(pc.equal(rows["cell"], c))) for c in np.unique(rows["cell"].to_numpy())]
    )


def _spy_chunks(monkeypatch, module, limit: int) -> list:
    """Patch ``MAX_CONTAIN_MATRIX`` to ``limit`` and record, for every
    matrix ``module`` asks ``row_chunks`` for, (its rows, the rows of
    one chunk, its columns)."""
    monkeypatch.setattr(cells, "MAX_CONTAIN_MATRIX", limit)
    sizes = []

    def spy(n_rows, n_cols):
        chunks = list(cells.row_chunks(n_rows, n_cols))
        sizes.extend((n_rows, len(range(n_rows)[c]), n_cols) for c in chunks)
        return iter(chunks)

    monkeypatch.setattr(module, "row_chunks", spy)
    return sizes


def _hot_points(n_hot=300, n_rest=60, seed=23):
    """Integer points (equal distances abound) with one hot res-1 cell."""
    rng = np.random.default_rng(seed)
    xs = np.r_[rng.integers(0, 40, n_hot), rng.integers(-180, 180, n_rest)].astype(np.float64)
    ys = np.r_[rng.integers(0, 20, n_hot), rng.integers(-90, 90, n_rest)].astype(np.float64)
    ids = rng.permutation(len(xs)).astype(np.int64) * 3 + 1
    return pa.table({"pid": ids, "cx": xs, "cy": ys})


def _brute_knn(t: pa.Table, k: int, queries) -> list:
    ids, xs, ys = (t[c].to_numpy() for c in ("pid", "cx", "cy"))
    out = []
    for q in queries:
        d = np.sqrt((xs[q] - xs) ** 2 + (ys[q] - ys) ** 2)
        order = [j for j in np.lexsort((ids, d)) if j != q][:k]
        out += [(int(ids[q]), r + 1, int(ids[j]), float(d[j])) for r, j in enumerate(order)]
    return sorted(out)


def test_knn_hot_cell_chunks_match_brute_force(monkeypatch):
    """At res 1 every 3×3 neighbourhood is the whole world, so the
    engine's kNN is the exact kNN.  With ``MAX_CONTAIN_MATRIX`` tiny,
    every within-cell matrix stays under it, each (query, neighbor)
    candidate comes from exactly one cell, and the answer equals brute
    force, with and without a query column."""
    t = _hot_points()
    k = 4
    sizes = _spy_chunks(monkeypatch, knn, 1000)
    for queries in (None, np.arange(0, t.num_rows, 7)):
        mask = None if queries is None else pa.array(np.isin(np.arange(t.num_rows), queries))
        rows = prepare_knn_rows(_home(t, 1), mask)
        assert rows.num_rows == t.num_rows + 4 * (t.num_rows if queries is None else len(queries))
        cands = _by_cell(rows, knn.KnnWithinCell(k))
        pairs = list(zip(cands["query_id"].to_pylist(), cands["neighbor_id"].to_pylist()))
        assert len(pairs) == len(set(pairs)), "a candidate came from two cells"
        got = knn.TopKMerge(k)(cands)
        got = sorted(zip(*(got[c].to_pylist() for c in ("query_id", "rank", "neighbor_id", "dist"))))
        want = _brute_knn(t, k, range(t.num_rows) if queries is None else queries)
        assert got == want
    assert any(n * c > 1000 for n, _, c in sizes), "no cell needed chunking"
    assert all(r * c <= 1000 or r == 1 for _, r, c in sizes)


def test_dist_join_hot_cell_chunks_match_brute_force(monkeypatch):
    """A hot res-5 cell with ``MAX_CONTAIN_MATRIX`` tiny: every distance
    matrix stays under it, a point ships one row per distinct
    neighbour cell (at most 9), and the pairs equal brute force."""
    rng = np.random.default_rng(29)
    xs = np.r_[rng.integers(0, 11, 300), rng.integers(0, 40, 100)].astype(np.float64)
    ys = np.r_[rng.integers(0, 5, 300), rng.integers(0, 20, 100)].astype(np.float64)
    ids = rng.permutation(400).astype(np.int64)
    t = pa.table({"pid": ids, "px": xs, "py": ys})
    sizes = _spy_chunks(monkeypatch, dist_join, 500)
    home = _home(t, 5, "px", "py")
    rows = dist_join.prepare_dist_rows(home)
    assert rows.num_rows == len(cells.cell_neighbors(home["cell"].to_numpy().view(np.uint64))[0])
    assert pc.sum(pc.equal(rows["side"], cells.BUILD)).as_py() == 400
    out = _by_cell(rows, dist_join.DistPairsWithinCell(5.0))
    got = sorted(zip(*(out[c].to_pylist() for c in ("id_a", "id_b", "d2"))))
    want = sorted(
        (int(min(ids[a], ids[b])), int(max(ids[a], ids[b])), int((xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2))
        for a, b in itertools.combinations(range(400), 2)
        if (xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2 <= 25.0
    )
    assert got == want
    assert any(n * c > 500 for n, _, c in sizes), "no cell needed chunking"
    assert all(r * c <= 500 or r == 1 for _, r, c in sizes)


def test_dist_join_exactly_once_across_cells(ray_session):
    """Pairs straddling cell boundaries are emitted exactly once, and
    the pair set matches brute force."""
    from rust_geo_booleanop_ray.stages.dist_join import dist_join_pipeline

    rng = np.random.RandomState(5)
    # integer lattice spanning many res-5 cells incl. boundary-hugging
    # points (res-5 edges: 11.25 x, 5.625 y -> x=11,12 / y=5,6 straddle)
    xs = rng.randint(0, 60, 400).astype(np.float64)
    ys = rng.randint(0, 40, 400).astype(np.float64)
    ids = np.arange(400, dtype=np.int64)
    t = pa.table({"pid": pa.array(ids), "px": pa.array(xs), "py": pa.array(ys)})
    out = dist_join_pipeline(
        rd.from_arrow(t).repartition(7), eps=5.0, res=5,
        id_col="pid", x_col="px", y_col="py",
    ).take_all()
    got = sorted((r["id_a"], r["id_b"], r["d2"]) for r in out)
    assert len(got) == len(set((a, b) for a, b, _ in got)), "duplicate pairs"
    want = sorted(
        (int(a), int(b), int((xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2))
        for a, b in itertools.combinations(range(400), 2)
        if (xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2 <= 25.0
    )
    assert got == want


def test_dist_join_rejects_oversized_eps():
    import pytest

    from rust_geo_booleanop_ray.stages.dist_join import check_eps_fits

    with pytest.raises(ValueError):
        check_eps_fits(6, 5.0)  # res-6 y edge is 2.8125 < eps
    check_eps_fits(5, 5.0)
