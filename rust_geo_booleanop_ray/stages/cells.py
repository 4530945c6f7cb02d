"""Hierarchical spatial cell index (H3/S2-style, pure function, no deps).

Cells are a quadtree over the world box [-180,180]×[-90,90]: at
resolution r the world is a 2^r × 2^r grid; a cell id packs
``(r << 58) | morton(ix, iy)`` into uint64 (morton = bit-interleave, so
a parent id is ``child >> 2`` at r-1 — same containment arithmetic as
S2/H3 cell tokens).  All encoders are vectorized numpy; this is the ONE
partitioning key reused across every wide stage (groupby, join,
tiling, kNN), per the single-key design rule.

``cover_bbox`` replicates a geometry to every cell its bbox overlaps
(PBSM replicate-to-cells); ``cell_neighbors``, ``cell_parent`` and
``cell_children`` walk the grid and the hierarchy.  This module is the
only code that computes cell ids: callers go through these functions,
never through the Morton helpers or the id bit layout.

Cell joins (PBSM: pip, antijoin, zonal stats, poly join, areal
interpolation, kNN and the distance-band join) share one side layout,
built by ``side_table`` and exploded by ``explode_to_cells``: ``side``
int8 (``PROBE`` = 0 for points and probe polygons, ``BUILD`` = 1 for
rects and build polygons), one int64 ``id``, the bbox ``minx miny maxx
maxy`` and, for polygon joins only, ``geom``.  A point is a degenerate
bbox, so it lands in exactly the cell ``cell_encode`` gives it;
``probe_replicas`` copies it into neighbour cells.  ``split_sides``
takes one cell group apart again, and ``contain_chunks`` is the one
within-cell bbox-overlap kernel of the point and polygon joins.  Hot
cells are not re-split: the within-cell kernels bound their memory by
chunking instead (``row_chunks`` under ``MAX_CONTAIN_MATRIX``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

WORLD = (-180.0, -90.0, 180.0, 90.0)
MAX_RES = 28  # 2*28 = 56 morton bits + 6 resolution bits
_RES_SHIFT = np.uint64(58)
_MORTON_MASK = (np.uint64(1) << _RES_SHIFT) - np.uint64(1)

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


def _cell_id(ix, iy, res) -> np.ndarray:
    """Grid indices at resolution(s) ``res`` → uint64 cell ids."""
    morton = _part1by1(ix) | (_part1by1(iy) << np.uint64(1))
    return (np.asarray(res).astype(np.uint64) << _RES_SHIFT) | morton


def cell_encode(xs, ys, res: int) -> np.ndarray:
    """Point(s) → uint64 cell id at resolution res.  Vectorized."""
    ix, iy = _grid_index(xs, ys, res)
    return _cell_id(ix, iy, res)


def cell_res(cells) -> np.ndarray:
    return (np.asarray(cells, dtype=np.uint64) >> _RES_SHIFT).astype(np.int64)


def cell_xy(cells):
    morton = np.asarray(cells, dtype=np.uint64) & _MORTON_MASK
    return _unpart1by1(morton), _unpart1by1(morton >> np.uint64(1))


def cell_parent(cells, steps: int = 1) -> np.ndarray:
    c = np.asarray(cells, dtype=np.uint64)
    new_res = cell_res(c) - steps
    if (new_res < 0).any():
        raise ValueError("cell_parent below resolution 0")
    return (new_res.astype(np.uint64) << _RES_SHIFT) | (
        (c & _MORTON_MASK) >> np.uint64(2 * steps)
    )


def cell_children(cells, res: int):
    """Cell ids → (row_idx, children): every descendant of each cell at
    resolution ``res`` (a cell already at ``res`` is its own child), in
    input order, each cell's children in Morton order."""
    c = np.asarray(cells, dtype=np.uint64)
    depth = res - cell_res(c)
    if (depth < 0).any():
        raise ValueError("cell_children above the cell's resolution")
    counts = np.left_shift(1, 2 * depth)
    row_idx = np.repeat(np.arange(len(c), dtype=np.int64), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    local = np.arange(len(row_idx), dtype=np.int64) - starts
    morton = ((c & _MORTON_MASK) << (2 * depth).astype(np.uint64))[row_idx]
    return row_idx, (np.uint64(res) << _RES_SHIFT) | morton | local.astype(np.uint64)


# the 3×3 neighbourhood offsets, row-major in (dx, dy)
_DX = np.repeat(np.array([-1, 0, 1], dtype=np.int64), 3)
_DY = np.tile(np.array([-1, 0, 1], dtype=np.int64), 3)


def cell_neighbors(cells):
    """Cell ids → (row_idx, neighbours): each cell's 3×3 neighbourhood,
    itself included, cut at the grid edge so each neighbour appears
    once; in input order."""
    c = np.asarray(cells, dtype=np.uint64)
    res = cell_res(c)
    ix, iy = cell_xy(c)
    jx = ix.astype(np.int64)[:, None] + _DX
    jy = iy.astype(np.int64)[:, None] + _DY
    side = np.left_shift(1, res)[:, None]
    row_idx, k = np.nonzero((jx >= 0) & (jx < side) & (jy >= 0) & (jy < side))
    return row_idx.astype(np.int64), _cell_id(
        jx[row_idx, k].astype(np.uint64), jy[row_idx, k].astype(np.uint64), res[row_idx]
    )


def cell_bounds_array(cells):
    """Cell ids → (minx, miny, maxx, maxy) float64 arrays.  Vectorized.

    Each element goes through the same float operations in the same
    order, so ``cell_bounds`` (which calls this) and any per-cell
    rebuild of the formula agree bit for bit."""
    c = np.asarray(cells).astype(np.uint64)
    res = cell_res(c)
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


def cell_holds(cell: int, xs, ys) -> np.ndarray:
    """Mask of the points that lie in ``cell``: ``cell_encode(xs, ys,
    res) == cell`` at the cell's resolution, by comparing grid indices
    instead of building each point's cell id."""
    cell = np.uint64(cell)
    ix, iy = _grid_index(xs, ys, int(cell_res(cell)))
    cx, cy = cell_xy(cell)
    return (ix == cx) & (iy == cy)


def _check_bboxes(minx, miny, maxx, maxy) -> None:
    """Raise ``ValueError`` naming the first row whose bbox has a
    non-finite bound, ``minx > maxx`` or ``miny > maxy``."""
    finite = np.isfinite(minx) & np.isfinite(miny) & np.isfinite(maxx) & np.isfinite(maxy)
    rules = {"a non-finite bound": ~finite, "minx > maxx": minx > maxx, "miny > maxy": miny > maxy}
    bad = np.logical_or.reduce(list(rules.values()))
    if bad.any():
        i = int(np.argmax(bad))
        rule = next(name for name, mask in rules.items() if mask[i])
        raise ValueError(
            f"bbox row {i} has {rule}: "
            f"({minx[i]!r}, {miny[i]!r}, {maxx[i]!r}, {maxy[i]!r})"
        )


def cover_bbox(minx, miny, maxx, maxy, res: int):
    """Vectorized bbox → covering-cells explode.

    Input: per-row bbox arrays.  Output: (row_idx, cells) — int64 row
    indices (repeated per covered cell) and uint64 cell ids.  This is
    the PBSM replicate-to-cells step; callers explode their batch with
    ``table.take(row_idx)`` + append the cell column.  A row whose bbox
    has a non-finite bound, ``minx > maxx`` or ``miny > maxy`` raises
    ``ValueError`` naming the first such row and its rule.
    """
    minx, miny, maxx, maxy = (np.asarray(v, dtype=np.float64) for v in (minx, miny, maxx, maxy))
    _check_bboxes(minx, miny, maxx, maxy)
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
    return row_idx, _cell_id(ix, iy, res)


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

    def column(values, type_):
        # pa.array reads a ChunkedArray (a table column) value by value,
        # ~2000x slower than converting its joined buffer
        if isinstance(values, pa.ChunkedArray):
            values = values.combine_chunks()
        return pa.array(values, type_)

    cols = {
        "side": pa.array(np.full(len(ids), side, np.int8)),
        "id": column(ids, pa.int64()),
        "minx": column(minx, pa.float64()),
        "miny": column(miny, pa.float64()),
        "maxx": column(maxx, pa.float64()),
        "maxy": column(maxy, pa.float64()),
    }
    if geom is not None:
        cols["geom"] = geom
    return pa.table(cols)


def probe_replicas(rows: pa.Table, row_idx, cells) -> pa.Table:
    """Exploded rows → ``rows.take(row_idx)`` as ``PROBE`` rows moved to
    ``cells``: a point's replicas in its neighbour cells
    (``cell_neighbors``)."""
    out = rows.take(pa.array(row_idx, pa.int64()))
    out = out.set_column(
        out.schema.get_field_index("side"), "side", pa.array(np.full(len(row_idx), PROBE, np.int8))
    )
    cell = pa.array(np.asarray(cells, np.uint64).view(np.int64), pa.int64())
    return out.set_column(out.schema.get_field_index("cell"), "cell", cell)


def split_sides(group: pa.Table):
    """One cell group of a two-sided join → (probe rows, build rows)."""
    is_build = pc.equal(group["side"], BUILD)
    return group.filter(pc.invert(is_build)), group.filter(is_build)


def row_chunks(n_rows: int, n_cols: int):
    """Slices over the rows of an ``n_rows × n_cols`` matrix, each
    holding at most ``MAX_CONTAIN_MATRIX`` elements, or one row."""
    step = max(1, MAX_CONTAIN_MATRIX // max(1, n_cols))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def contain_chunks(cols: pa.Table, rows: pa.Table):
    """Yield ``(lo, overlap)`` over chunks of ``rows``: ``overlap[i, j]``
    says the bbox of row ``lo + i`` meets the bbox of ``cols[j]``,
    bounds included (closed boxes, so shared edges and corners meet; a
    NaN bound meets nothing).  Both tables carry ``minx miny maxx
    maxy``.  A point is a degenerate bbox, so with points as ``cols``
    and rects as ``rows`` this is point-in-rect, bounds included; with
    polygons on both sides it is the candidate filter of the polygon
    join (``overlap_pairs``).  Each matrix is one ``row_chunks``
    slice."""
    cminx = cols["minx"].to_numpy()
    cminy = cols["miny"].to_numpy()
    cmaxx = cols["maxx"].to_numpy()
    cmaxy = cols["maxy"].to_numpy()
    rminx = rows["minx"].to_numpy()
    rminy = rows["miny"].to_numpy()
    rmaxx = rows["maxx"].to_numpy()
    rmaxy = rows["maxy"].to_numpy()
    for chunk in row_chunks(len(rminx), len(cminx)):
        yield chunk.start, (
            (rminx[chunk, None] <= cmaxx[None, :])
            & (rmaxx[chunk, None] >= cminx[None, :])
            & (rminy[chunk, None] <= cmaxy[None, :])
            & (rmaxy[chunk, None] >= cminy[None, :])
        )


def overlap_pairs(cols: pa.Table, rows: pa.Table):
    """Every ``(row, col)`` pair whose bboxes meet (``contain_chunks``),
    as two int64 index arrays in row-major order."""
    ri, ci = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for lo, overlap in contain_chunks(cols, rows):
        r, c = np.nonzero(overlap)
        ri.append(r + lo)
        ci.append(c)
    return np.concatenate(ri), np.concatenate(ci)
