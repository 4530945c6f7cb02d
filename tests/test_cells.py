"""Cell index, cover/explode, PIP unit tests."""

import numpy as np
import pyarrow as pa

from rust_geo_booleanop_ray.functions.pip import pip_bbox, points_in_multipolygon
from rust_geo_booleanop_ray.stages.cells import (
    MAX_RES,
    WORLD,
    cell_bounds,
    cell_bounds_array,
    cell_children,
    cell_encode,
    cell_neighbors,
    cell_parent,
    cell_polygon,
    cell_res,
    cell_xy,
    cover_bbox,
    explode_to_cells,
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


def _edge_and_random_cells(res: int, rng) -> np.ndarray:
    """Cells at every world corner and edge midpoint, plus random ones."""
    minx, miny, maxx, maxy = WORLD
    xs = np.r_[minx, maxx, minx, maxx, 0.0, 0.0, minx, maxx, rng.uniform(minx, maxx, 60)]
    ys = np.r_[miny, miny, maxy, maxy, miny, maxy, 0.0, 0.0, rng.uniform(miny, maxy, 60)]
    return cell_encode(xs, ys, res)


def test_cell_neighbors_offset_and_drop():
    """``cell_neighbors`` is the 3×3 neighbourhood with out-of-grid
    offsets dropped: each neighbour is the cell holding the centre of
    the cell one step away, world-edge cells included."""
    rng = np.random.default_rng(11)
    for res in (0, 1, 3, 4, 5, 12):
        cells = _edge_and_random_cells(res, rng)
        row_idx, nbrs = cell_neighbors(cells)
        assert (np.diff(row_idx) >= 0).all()
        x0, y0, x1, y1 = cell_bounds_array(cells)
        wx, wy = x1 - x0, y1 - y0
        for i, c in enumerate(cells):
            want = set()
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    cx = (x0[i] + x1[i]) / 2 + dx * wx[i]
                    cy = (y0[i] + y1[i]) / 2 + dy * wy[i]
                    if WORLD[0] < cx < WORLD[2] and WORLD[1] < cy < WORLD[3]:
                        want.add(int(cell_encode(np.array([cx]), np.array([cy]), res)[0]))
            got = nbrs[row_idx == i].tolist()
            assert len(got) == len(set(got)), "a neighbour repeats"
            assert set(got) == want and int(c) in want
    row_idx, nbrs = cell_neighbors(np.empty(0, np.uint64))
    assert len(row_idx) == len(nbrs) == 0


def test_cell_children_of_parent_contain_cell():
    rng = np.random.default_rng(5)
    cells = _edge_and_random_cells(7, rng)
    for steps in (0, 1, 2, 3):
        parents = cell_parent(cells, steps) if steps else cells
        row_idx, kids = cell_children(parents, 7)
        assert (np.bincount(row_idx, minlength=len(parents)) == 4**steps).all()
        assert (cell_res(kids) == 7).all()
        for i, c in enumerate(cells):
            mine = kids[row_idx == i]
            assert c in mine and len(set(mine.tolist())) == len(mine)
            if steps:
                assert (cell_parent(mine, steps) == parents[i]).all()


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
