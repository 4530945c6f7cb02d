"""Hierarchical spatial cell index (H3/S2-style, pure function, no deps).

Cells are a quadtree over the world box [-180,180]×[-90,90]: at
resolution r the world is a 2^r × 2^r grid; a cell id packs
``(r << 58) | morton(ix, iy)`` into uint64 (morton = bit-interleave, so
a parent id is ``child >> 2`` at r-1 — same containment arithmetic as
S2/H3 cell tokens).  All encoders are vectorized numpy; this is the ONE
partitioning key reused across every wide stage (groupby, join,
tiling, kNN), per the single-key design rule.

``cover_bbox`` replicates a geometry to every cell its bbox overlaps
(PBSM replicate-to-cells).

Two-sided cell joins (PBSM: pip, antijoin, zonal stats, poly join,
areal interpolation) share one side layout, built by ``side_table``
and exploded by ``explode_to_cells``: ``side`` int8 (``PROBE`` = 0 for
points and probe polygons, ``BUILD`` = 1 for rects and build
polygons), one int64 ``id``, the bbox ``minx miny maxx maxy`` and, for
polygon joins only, ``geom``.  A point is a degenerate bbox, so it
lands in exactly the cell ``cell_encode`` gives it.  ``split_sides``
takes one cell group apart again.  Hot cells are not re-split: the
within-cell kernels bound their memory by chunking instead
(``contain_chunks`` and ``MAX_CONTAIN_MATRIX``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WORLD = (-180.0, -90.0, 180.0, 90.0)
MAX_RES = 28  # 2*28 = 56 morton bits + 6 resolution bits

# side tags of a two-sided cell join (the int8 ``side`` column)
PROBE, BUILD = 0, 1

# bound on one dense candidate matrix inside a cell group: a hot cell
# must never allocate an unbounded bool matrix, so within-cell kernels
# evaluate their products in chunks of at most this many elements.
# Hot cells are not re-partitioned, so this is what bounds their memory.
MAX_CONTAIN_MATRIX = 1 << 22


def _part1by1(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def _unpart1by1(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.uint64) & np.uint64(0x5555555555555555)
    v = (v | (v >> np.uint64(1))) & np.uint64(0x3333333333333333)
    v = (v | (v >> np.uint64(2))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> np.uint64(4))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v >> np.uint64(8))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v >> np.uint64(16))) & np.uint64(0xFFFFFFFF)
    return v


def _grid_index(xs, ys, res: int):
    minx, miny, maxx, maxy = WORLD
    n = np.uint64(1) << np.uint64(res)
    nf = float(2**res)
    fx = np.clip((np.asarray(xs, dtype=np.float64) - minx) / (maxx - minx), 0.0, None)
    fy = np.clip((np.asarray(ys, dtype=np.float64) - miny) / (maxy - miny), 0.0, None)
    ix = np.minimum((fx * nf).astype(np.uint64), n - np.uint64(1))
    iy = np.minimum((fy * nf).astype(np.uint64), n - np.uint64(1))
    return ix, iy


def cell_encode(xs, ys, res: int) -> np.ndarray:
    """Point(s) → uint64 cell id at resolution res.  Vectorized."""
    ix, iy = _grid_index(xs, ys, res)
    morton = _part1by1(ix) | (_part1by1(iy) << np.uint64(1))
    return (np.uint64(res) << np.uint64(58)) | morton


def cell_res(cells) -> np.ndarray:
    return (np.asarray(cells, dtype=np.uint64) >> np.uint64(58)).astype(np.int64)


def cell_xy(cells):
    c = np.asarray(cells, dtype=np.uint64)
    morton = c & ((np.uint64(1) << np.uint64(58)) - np.uint64(1))
    return _unpart1by1(morton), _unpart1by1(morton >> np.uint64(1))


def cell_parent(cells, steps: int = 1) -> np.ndarray:
    c = np.asarray(cells, dtype=np.uint64)
    res = cell_res(c)
    new_res = res - steps
    if (new_res < 0).any():
        raise ValueError("cell_parent below resolution 0")
    morton = c & ((np.uint64(1) << np.uint64(58)) - np.uint64(1))
    return (new_res.astype(np.uint64) << np.uint64(58)) | (
        morton >> np.uint64(2 * steps)
    )


def cell_bounds_array(cells):
    """Cell ids → (minx, miny, maxx, maxy) float64 arrays.  Vectorized.

    Each element goes through the same float operations in the same
    order, so ``cell_bounds`` (which calls this) and any per-cell
    rebuild of the formula agree bit for bit."""
    c = np.asarray(cells).astype(np.uint64)
    res = (c >> np.uint64(58)).astype(np.int64)
    ix, iy = cell_xy(c)
    minx, miny, maxx, maxy = WORLD
    side = np.ldexp(1.0, res)  # 2**res, exact
    wx = (maxx - minx) / side
    wy = (maxy - miny) / side
    x0 = minx + ix.astype(np.float64) * wx
    y0 = miny + iy.astype(np.float64) * wy
    return x0, y0, x0 + wx, y0 + wy


def cell_bounds(cell: int):
    """One cell id → (minx, miny, maxx, maxy)."""
    return tuple(float(b[0]) for b in cell_bounds_array([cell]))


def cell_polygon(cell: int):
    """Cell id → closed-rect multipolygon (for exact clipping)."""
    x0, y0, x1, y1 = cell_bounds(cell)
    return [[[(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]]]


def cover_bbox(minx, miny, maxx, maxy, res: int):
    """Vectorized bbox → covering-cells explode.

    Input: per-row bbox arrays.  Output: (row_idx, cells) — int64 row
    indices (repeated per covered cell) and uint64 cell ids.  This is
    the PBSM replicate-to-cells step; callers explode their batch with
    ``table.take(row_idx)`` + append the cell column.
    """
    ix0, iy0 = _grid_index(minx, miny, res)
    ix1, iy1 = _grid_index(maxx, maxy, res)
    nx = (ix1 - ix0 + np.uint64(1)).astype(np.int64)
    ny = (iy1 - iy0 + np.uint64(1)).astype(np.int64)
    counts = nx * ny
    total = int(counts.sum())
    if total == 0:
        # empty batch (e.g. a filter upstream removed every row):
        # the starts/counts repeat below can't broadcast 1-vs-0 shapes
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    row_idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    # per-replica local offset (0..count-1) without Python loops
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    lx = local % np.repeat(nx, counts)
    ly = local // np.repeat(nx, counts)
    ix = np.repeat(ix0, counts) + lx.astype(np.uint64)
    iy = np.repeat(iy0, counts) + ly.astype(np.uint64)
    morton = _part1by1(ix) | (_part1by1(iy) << np.uint64(1))
    cells = (np.uint64(res) << np.uint64(58)) | morton
    return row_idx, cells


def explode_to_cells(batch: pa.Table, res: int, cell_col: str = "cell") -> pa.Table:
    """Batch transform: replicate each row to every cell its
    ``minx miny maxx maxy`` bbox covers."""
    row_idx, cells = cover_bbox(
        batch["minx"].to_numpy(),
        batch["miny"].to_numpy(),
        batch["maxx"].to_numpy(),
        batch["maxy"].to_numpy(),
        res,
    )
    out = batch.take(pa.array(row_idx))
    return out.append_column(cell_col, pa.array(cells.view(np.int64), pa.int64()))


def side_table(side: int, ids, minx, miny, maxx, maxy, geom=None) -> pa.Table:
    """One side of a two-sided cell join, ready for ``explode_to_cells``:
    ``side`` (``PROBE`` or ``BUILD``), int64 ``id``, bbox, and ``geom``
    when given.  Pass a point as ``minx = maxx = x``, ``miny = maxy = y``."""
    cols = {
        "side": pa.array(np.full(len(ids), side, np.int8)),
        "id": pa.array(ids, pa.int64()),
        "minx": pa.array(minx, pa.float64()),
        "miny": pa.array(miny, pa.float64()),
        "maxx": pa.array(maxx, pa.float64()),
        "maxy": pa.array(maxy, pa.float64()),
    }
    if geom is not None:
        cols["geom"] = geom
    return pa.table(cols)


def split_sides(group: pa.Table):
    """One cell group of a two-sided join → (probe rows, build rows)."""
    is_build = pc.equal(group["side"], BUILD)
    return group.filter(pc.invert(is_build)), group.filter(is_build)


def contain_chunks(points: pa.Table, rects: pa.Table):
    """Yield ``(lo, inside)`` over chunks of ``rects``: ``inside[i, j]``
    says point j lies in rect ``lo + i``, bounds included.  Points are
    degenerate bboxes (their ``minx``/``miny``); each matrix holds at
    most ``MAX_CONTAIN_MATRIX`` elements, or one rect row."""
    px = points["minx"].to_numpy()
    py = points["miny"].to_numpy()
    rminx = rects["minx"].to_numpy()
    rminy = rects["miny"].to_numpy()
    rmaxx = rects["maxx"].to_numpy()
    rmaxy = rects["maxy"].to_numpy()
    chunk = max(1, MAX_CONTAIN_MATRIX // max(1, len(px)))
    for lo in range(0, len(rminx), chunk):
        hi = lo + chunk
        yield lo, (
            (px[None, :] >= rminx[lo:hi, None])
            & (px[None, :] <= rmaxx[lo:hi, None])
            & (py[None, :] >= rminy[lo:hi, None])
            & (py[None, :] <= rmaxy[lo:hi, None])
        )
