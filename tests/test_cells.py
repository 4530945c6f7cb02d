"""Cell index, cover/explode, hot-cell split, PIP, R-tree unit tests."""

import numpy as np
import pyarrow as pa

from rust_geo_booleanop_ray.functions.pip import pip_bbox, points_in_multipolygon
from rust_geo_booleanop_ray.functions.rtree import STRtree
from rust_geo_booleanop_ray.stages.cells import (
    MAX_RES,
    WORLD,
    cell_bounds,
    cell_bounds_array,
    cell_encode,
    cell_parent,
    cell_polygon,
    cell_res,
    cell_xy,
    cover_bbox,
    explode_to_cells,
    split_hot_cells,
)


def test_cell_roundtrip():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-180, 180, 500)
    ys = rng.uniform(-90, 90, 500)
    for res in (0, 1, 5, 9, 14):
        cells = cell_encode(xs, ys, res)
        assert (cell_res(cells) == res).all()
        ix, iy = cell_xy(cells)
        assert (ix < (1 << res)).all() and (iy < (1 << res)).all()
        for i in (0, 100, 499):
            x0, y0, x1, y1 = cell_bounds(int(cells[i]))
            assert x0 <= xs[i] <= x1 and y0 <= ys[i] <= y1


def test_cell_parent_contains():
    xs = np.array([12.34, -170.0, 179.9])
    ys = np.array([45.6, -89.0, 89.9])
    child = cell_encode(xs, ys, 10)
    parent = cell_parent(child, 3)
    assert (cell_res(parent) == 7).all()
    direct = cell_encode(xs, ys, 7)
    assert (parent == direct).all()


def test_cover_bbox_explode():
    # bbox spanning exactly 2x2 cells at res 2 (cell size 90x45)
    minx = np.array([10.0])
    miny = np.array([10.0])
    maxx = np.array([100.0])
    maxy = np.array([50.0])
    row_idx, cells = cover_bbox(minx, miny, maxx, maxy, 2)
    assert len(cells) == 4
    assert (row_idx == 0).all()
    assert len(set(cells.tolist())) == 4


def test_split_hot_cells():
    t = pa.table(
        {
            "id": pa.array([1, 2, 3], pa.int64()),
            "minx": pa.array([1.0, 1.0, 100.0]),
            "miny": pa.array([1.0, 1.0, 50.0]),
            "maxx": pa.array([2.0, 40.0, 101.0]),
            "maxy": pa.array([2.0, 40.0, 51.0]),
        }
    )
    e = explode_to_cells(t, 3)
    hot = int(cell_encode(np.array([1.5]), np.array([1.5]), 3)[0])
    out = split_hot_cells(e, {hot})
    cells = out["cell"].to_numpy().view(np.uint64)
    # no row keyed to the hot cell anymore; replacements are at res 4
    assert hot not in set(cells.tolist())
    assert (cell_res(cells[cells >> np.uint64(58) == 4]) == 4).all()
    # untouched rows keep res 3
    assert (cell_res(cells) >= 3).all()
    # row 3 (far away) still present at res 3
    ids = out["id"].to_numpy()
    assert 3 in ids


def test_pip():
    mp = [
        [
            [(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)],
            [(1.0, 1.0), (1.0, 3.0), (3.0, 3.0), (3.0, 1.0), (1.0, 1.0)],
        ]
    ]
    px = np.array([2.0, 0.5, 3.5, 5.0, 2.0])
    py = np.array([2.0, 0.5, 0.5, 2.0, 3.5])
    got = points_in_multipolygon(px, py, mp)
    # center is inside the hole -> outside; corners region inside; x=5 outside
    assert got.tolist() == [False, True, True, False, True]
    assert pip_bbox(px, py, 0, 0, 4, 4).tolist() == [True, True, True, False, True]


def test_cell_polygon_matches_bounds():
    c = int(cell_encode(np.array([10.0]), np.array([20.0]), 4)[0])
    poly = cell_polygon(c)
    x0, y0, x1, y1 = cell_bounds(c)
    assert poly[0][0][0] == (x0, y0)
    assert poly[0][0][2] == (x1, y1)


def _scalar_cell_bounds(cell: int):
    """The per-cell formula cell_bounds_array must reproduce exactly."""
    res = int(cell >> 58)
    ix, iy = cell_xy(np.array([cell], dtype=np.uint64))
    minx, miny, maxx, maxy = WORLD
    wx = (maxx - minx) / (2**res)
    wy = (maxy - miny) / (2**res)
    x0 = minx + float(ix[0]) * wx
    y0 = miny + float(iy[0]) * wy
    return (x0, y0, x0 + wx, y0 + wy)


def test_cell_bounds_array_matches_scalar_formula():
    rng = np.random.default_rng(17)
    for res in range(MAX_RES + 1):
        xs = np.r_[rng.uniform(-180, 180, 60), -180.0, 180.0, 0.0, 1e-12]
        ys = np.r_[rng.uniform(-90, 90, 60), -90.0, 90.0, 0.0, 1e-12]
        cells = cell_encode(xs, ys, res)
        arrays = cell_bounds_array(cells)
        # int64 ids (the tile_id column type) decode the same
        assert all(np.array_equal(a, b) for a, b in zip(arrays, cell_bounds_array(cells.view(np.int64))))
        for i, c in enumerate(cells):
            want = _scalar_cell_bounds(int(c))
            assert tuple(float(a[i]) for a in arrays) == want
            assert cell_bounds(int(c)) == want


def test_rtree_randomized():
    rng = np.random.default_rng(11)
    n = 700
    x = rng.uniform(-10, 10, n)
    y = rng.uniform(-10, 10, n)
    t = STRtree(x, y, x + 1, y + 1, leaf_size=8)
    for _ in range(50):
        qx, qy = rng.uniform(-10, 10, 2)
        got = set(t.query(qx, qy, qx + 3, qy + 3).tolist())
        brute = set(
            np.flatnonzero(
                ~((x > qx + 3) | (x + 1 < qx) | (y > qy + 3) | (y + 1 < qy))
            ).tolist()
        )
        assert got == brute


def test_rtree_query_many_matches_per_row():
    """query_many ≡ per-row query + np.sort, for boxes, points and
    empty/degenerate cases."""
    rng = np.random.default_rng(7)
    n = 400
    x = rng.uniform(-10, 10, n)
    y = rng.uniform(-10, 10, n)
    t = STRtree(x, y, x + rng.uniform(0.1, 2, n), y + rng.uniform(0.1, 2, n), leaf_size=8)
    nq = 120
    qx = rng.uniform(-12, 12, nq)
    qy = rng.uniform(-12, 12, nq)
    w = rng.uniform(0, 3, nq)
    w[::5] = 0.0  # degenerate point queries mixed in
    rows, cands = t.query_many(qx, qy, qx + w, qy + w)
    exp_rows, exp_cands = [], []
    for i in range(nq):
        c = np.sort(t.query(qx[i], qy[i], qx[i] + w[i], qy[i] + w[i]))
        exp_rows.extend([i] * len(c))
        exp_cands.extend(c.tolist())
    assert rows.tolist() == exp_rows
    assert cands.tolist() == exp_cands

    # empty tree and empty query batch
    empty = STRtree(np.empty(0), np.empty(0), np.empty(0), np.empty(0))
    r, c = empty.query_many(qx, qy, qx, qy)
    assert len(r) == 0 and len(c) == 0
    r, c = t.query_many(np.empty(0), np.empty(0), np.empty(0), np.empty(0))
    assert len(r) == 0 and len(c) == 0


def test_cover_bbox_and_explode_empty_input():
    # an upstream filter can hand the explode a zero-row batch; the
    # replicate step must return empty, not crash on shape broadcast
    e = np.empty(0)
    row_idx, cells = cover_bbox(e, e, e, e, 6)
    assert len(row_idx) == 0 and len(cells) == 0
    t = pa.table(
        {
            "id": pa.array([], pa.int64()),
            "minx": pa.array([], pa.float64()),
            "miny": pa.array([], pa.float64()),
            "maxx": pa.array([], pa.float64()),
            "maxy": pa.array([], pa.float64()),
        }
    )
    out = explode_to_cells(t, 6)
    assert out.num_rows == 0 and "cell" in out.column_names
