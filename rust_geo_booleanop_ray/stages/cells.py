"""Hierarchical spatial cell index (H3/S2-style, pure function, no deps).

Cells are a quadtree over the world box [-180,180]×[-90,90]: at
resolution r the world is a 2^r × 2^r grid; a cell id packs
``(r << 58) | morton(ix, iy)`` into uint64 (morton = bit-interleave, so
a parent id is ``child >> 2`` at r-1 — same containment arithmetic as
S2/H3 cell tokens).  All encoders are vectorized numpy; this is the ONE
partitioning key reused across every wide stage (groupby, join,
tiling, kNN), per the single-key design rule.

Skew: ``cover_bbox`` replicates a geometry to every cell its bbox
overlaps (PBSM replicate-to-cells); hot cells (count above threshold)
are split to finer resolution via ``split_hot_cells``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

WORLD = (-180.0, -90.0, 180.0, 90.0)
MAX_RES = 28  # 2*28 = 56 morton bits + 6 resolution bits


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


def explode_to_cells(batch: pa.Table, res: int, bbox_cols=("minx", "miny", "maxx", "maxy"), cell_col: str = "cell") -> pa.Table:
    """Batch transform: replicate each row to every covering cell."""
    row_idx, cells = cover_bbox(
        batch[bbox_cols[0]].to_numpy(),
        batch[bbox_cols[1]].to_numpy(),
        batch[bbox_cols[2]].to_numpy(),
        batch[bbox_cols[3]].to_numpy(),
        res,
    )
    out = batch.take(pa.array(row_idx))
    return out.append_column(cell_col, pa.array(cells.view(np.int64), pa.int64()))


def split_hot_cells(batch: pa.Table, hot_cells: set, steps: int = 1, cell_col: str = "cell", bbox_cols=("minx", "miny", "maxx", "maxy")) -> pa.Table:
    """Re-key rows in hot cells to finer resolution (skew splitting).

    Rows whose cell is in ``hot_cells`` are re-exploded at res+steps,
    clipped to the hot cell's extent so replicas stay inside it; other
    rows pass through.  ``hot_cells`` is a small broadcast set (ray.put
    once, read per actor).
    """
    cells = batch[cell_col].to_numpy().view(np.uint64)
    if not hot_cells:
        return batch
    hot_arr = np.frombuffer(
        np.array(sorted(hot_cells), dtype=np.uint64).tobytes(), dtype=np.uint64
    )
    is_hot = np.isin(cells, hot_arr)
    if not is_hot.any():
        return batch
    cold = batch.filter(pa.array(~is_hot))
    hot = batch.filter(pa.array(is_hot))
    hot_cell_ids = cells[is_hot]
    res = int(cell_res(hot_cell_ids[:1])[0])
    # clamp bboxes into the parent cell so re-explode stays within it
    bx0 = np.empty(hot.num_rows)
    by0 = np.empty(hot.num_rows)
    bx1 = np.empty(hot.num_rows)
    by1 = np.empty(hot.num_rows)
    for j in range(hot.num_rows):  # hot rows are few by definition
        cx0, cy0, cx1, cy1 = cell_bounds(int(hot_cell_ids[j]))
        bx0[j] = max(hot[bbox_cols[0]][j].as_py(), cx0)
        by0[j] = max(hot[bbox_cols[1]][j].as_py(), cy0)
        bx1[j] = min(hot[bbox_cols[2]][j].as_py(), cx1)
        by1[j] = min(hot[bbox_cols[3]][j].as_py(), cy1)
    row_idx, new_cells = cover_bbox(bx0, by0, bx1, by1, res + steps)
    # a clamped bbox edge lying exactly on the parent boundary makes the
    # inclusive cover leak one child column/row into the neighboring
    # coarse cell — keep only true children of each row's hot parent,
    # otherwise replicas duplicate across the boundary
    keep = cell_parent(new_cells, steps) == hot_cell_ids[row_idx]
    row_idx = row_idx[keep]
    new_cells = new_cells[keep]
    hot_out = hot.drop_columns([cell_col]).take(pa.array(row_idx))
    hot_out = hot_out.append_column(
        cell_col, pa.array(new_cells.view(np.int64), pa.int64())
    )
    cold_cols = cold.column_names
    return pa.concat_tables([cold, hot_out.select(cold_cols)])
