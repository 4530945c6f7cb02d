"""Tile materialization: raster ⇄ vector.

Tiles are cells at a fixed resolution (one id space for partitioning,
join keys and tile naming).  ``RasterizePartial`` turns a batch of
clipped pieces into one coverage-count raster per tile with a single
even-odd scanline pass over the Arrow offset buffers
(``rasterize_counts``: the native library's pass when it loads, else
the numpy pass, with the same counts bit for bit);
``merge_rasters`` sums any number of tiles' partial rasters with one
sort and one ``reduceat``; ``raster_rects`` extracts maximal
horizontal-run rectangles back into vector space (raster→vector) in one
numpy pass.  Together they give the raster↔vector round trip of the
north star.

Used as (pipelines/flagship.py): clips.map_batches(RasterizePartial(px))
→ groupby(part) → merge_rasters → vectorize_tiles_batch, all in one
call per partition.  The groupby is the one shuffle, keyed by the
tiles' parent cells in the same cell-id space as everything else, and
it moves fixed-size count rasters rather than geometry.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import native
from ..sources.arrow_geom import arrow_mp_offsets, flat_to_arrow
from .cells import cell_bounds_array

PARTIAL_SCHEMA = pa.schema(
    [
        ("tile_id", pa.int64()),
        ("px", pa.int32()),
        ("raster", pa.binary()),
        ("n_pieces", pa.int64()),
    ]
)


def pixel_centres(tile_ids, px: int):
    """Per-tile pixel-centre coordinates: ``(xs, ys)``, each (T, px).

    Same float ops as one tile's ``x0 + (arange(px) + 0.5) * (x1 - x0)
    / px``, so the grid matches a per-tile build bit for bit.  Both
    rows are non-decreasing, which ``rasterize_counts`` relies on."""
    x0, y0, x1, y1 = cell_bounds_array(tile_ids)
    k = np.arange(px) + 0.5
    xs = x0[:, None] + k * (x1 - x0)[:, None] / px
    ys = y0[:, None] + k * (y1 - y0)[:, None] / px
    return xs, ys


def _count_below(tab: np.ndarray, row: np.ndarray, v: np.ndarray) -> np.ndarray:
    """For each i, how many entries of the non-decreasing row
    ``tab[row[i]]`` are ``< v[i]`` (0 when ``v[i]`` is NaN).  Vectorized
    bisection: ``n.bit_length()`` steps cover the n + 1 possible
    answers."""
    n = tab.shape[1]
    flat = tab.ravel()
    base = row * n
    lo = np.zeros(len(v), dtype=np.intp)
    hi = np.full(len(v), n, dtype=np.intp)
    for _ in range(n.bit_length()):
        mid = (lo + hi) >> 1
        # mid == n only once lo == hi == n (converged): keep it there
        below = (mid < n) & (flat[base + np.minimum(mid, n - 1)] < v)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def rasterize_counts(clip, xs: np.ndarray, ys: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Even-odd coverage counts of a multipolygon column on pixel grids.

    Row ``i`` of ``clip`` is tested at the pixel centres
    ``xs[grid[i]] × ys[grid[i]]`` and its mask is added to raster
    ``grid[i]``; returns ``(len(xs), ny, nx)`` uint32 counts.  Every
    pixel decision equals ``functions.pip.points_in_multipolygon`` on
    the same grid: the same edges (a closed ring drops its repeated
    last vertex, an open one gets the closing edge), the same crossing
    test and the same ``xint`` float expression.  ``clip`` must hold no
    null rows; empty rings and multipolygons add nothing.

    The one place that chooses the pass, as ``boolean_batch`` chooses
    the kernel: the native library's (``native.native_rasterize_counts``)
    when it loads, else the numpy pass (``GEO_NATIVE=0`` or no
    compiler).  Both give the same counts, bit for bit.  Before either
    reads a pixel, ``ValueError`` names the first row whose grid index
    lies outside ``[0, len(xs))``, and rejects ``xs``/``ys`` that are
    not 2-D with one row per grid, or a ``grid`` whose length is not
    the column's."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    if xs.ndim != 2 or ys.ndim != 2 or len(xs) != len(ys):
        raise ValueError(
            f"rasterize_counts: xs {xs.shape} and ys {ys.shape} are not one pixel row each per grid"
        )
    grid = np.asarray(grid, dtype=np.intp)
    if grid.shape != (len(clip),):
        raise ValueError(f"rasterize_counts: {grid.shape} grid indices for {len(clip)} rows")
    bad = np.flatnonzero((grid < 0) | (grid >= len(xs)))
    if len(bad):
        row = int(bad[0])
        raise ValueError(
            f"rasterize_counts: row {row} has grid index {grid[row]} outside [0, {len(xs)})"
        )
    # looked up on the module at call time, like native_boolean_batch
    counts = native.native_rasterize_counts(clip, xs, ys, grid)
    return _numpy_counts(clip, xs, ys, grid) if counts is None else counts


def _numpy_counts(clip, xs: np.ndarray, ys: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """``rasterize_counts``' numpy pass, on checked grid indices.

    One pass for the whole column, no per-row Python:
      1. every ring edge ``(v[k], v[k-1])`` from the offset buffers;
      2. the pixel rows each edge crosses, ``(y1 > py) != (y2 > py)`` —
         a row range, because ``ys`` is sorted;
      3. per (edge, row), the columns left of the crossing,
         ``gx < xint`` — a prefix ``[0, c)``, because ``xs`` is sorted;
      4. per (clip row, pixel row) the prefixes XOR into the even-odd
         parity: sorted by ``c``, the j-th largest enters with sign
         ``(-1)**j``, and the signed prefixes sum to 1 exactly on the
         inside pixels;
      5. the signed prefixes of all clips go into one difference array
         per raster, and a running sum along the columns gives counts.
    Temporaries are O(edges + crossings + len(xs)·ny·nx), never
    O(rows·ny·nx).
    """
    ny, nx = ys.shape[1], xs.shape[1]
    coords, ring_off, poly_off, mp_off = arrow_mp_offsets(clip)

    # 1. edges.  A ring with nv vertices has m = nv - closed edges: for
    # i in [0, m), later vertex v[i] and earlier vertex v[i-1 mod m].
    rings_per_row = poly_off[mp_off[1:]] - poly_off[mp_off[:-1]]
    ring_row = np.repeat(np.arange(len(rings_per_row)), rings_per_row)
    ring = np.arange(poly_off[mp_off[0]], poly_off[mp_off[-1]])
    start = ring_off[ring].astype(np.intp)
    nv = ring_off[ring + 1] - start
    closed = np.zeros(len(ring), dtype=bool)
    some = nv > 0
    closed[some] = (coords[start[some]] == coords[start[some] + nv[some] - 1]).all(axis=1)
    m = nv - closed
    edge_ring = np.repeat(np.arange(len(ring)), m)
    i = np.arange(len(edge_ring)) - np.repeat(np.cumsum(m) - m, m)
    later = start[edge_ring] + i
    earlier = np.where(i == 0, later + m[edge_ring] - 1, later - 1)
    x1, y1 = coords[later, 0], coords[later, 1]
    x2, y2 = coords[earlier, 0], coords[earlier, 1]
    edge_row = ring_row[edge_ring]
    edge_grid = grid[edge_row]

    # 2. crossed rows [lo, hi) of each edge → (edge, row) pairs
    a = _count_below(ys, edge_grid, y1)
    b = _count_below(ys, edge_grid, y2)
    lo = np.minimum(a, b)
    span = np.maximum(a, b) - lo
    pe = np.repeat(np.arange(len(span)), span)
    prow = lo[pe] + np.arange(len(pe)) - np.repeat(np.cumsum(span) - span, span)
    pgrid = edge_grid[pe]

    # 3. crossing abscissa, in functions.pip.points_in_ring's op order
    py = ys[pgrid, prow]
    X1, Y1 = x1[pe], y1[pe]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        xint = (x2[pe] - X1) * (py - Y1) / (y2[pe] - Y1) + X1
    c = _count_below(xs, pgrid, xint)

    # 4. sort by (clip row, pixel row, c); the sign alternates from the
    # largest c down within each (clip row, pixel row) group
    key = (edge_row[pe] * ny + prow) * (nx + 1) + c
    key.sort()
    group = key // (nx + 1)
    c = key - group * (nx + 1)
    last = np.flatnonzero(np.diff(group, append=-1))  # group ends
    from_top = np.repeat(last, np.diff(np.r_[-1, last])) - np.arange(len(key))
    sign = 1.0 - 2.0 * (from_top & 1)

    # 5. +sign at column 0, -sign at column c, per (raster, pixel row)
    out_row = grid[group // ny] * ny + group % ny
    size = len(xs) * ny * (nx + 1)
    diff = np.bincount(out_row * (nx + 1), sign, size) - np.bincount(
        out_row * (nx + 1) + c, sign, size
    )
    counts = np.cumsum(diff.reshape(len(xs), ny, nx + 1)[:, :, :nx], axis=2)
    return counts.astype(np.uint32)


class RasterizePartial:
    """map_batches kernel: clip rows → per-(batch, tile) PARTIAL count
    rasters.  The heavy geometry work happens here, before the shuffle;
    the shuffle then moves only fixed-size bitmaps
    (2·px² bytes) instead of geometry lists, and ``merge_rasters`` sums
    them.  Count rasters are additive and order-independent, so
    partial + merge is exactly equivalent to whole-group rasterization
    (the pre-aggregate-before-shuffle pattern).

    A null ``tile_id`` or ``clip`` raises ``ValueError`` naming the row;
    an empty ring or multipolygon adds no coverage but counts in
    ``n_pieces``."""

    def __init__(self, px: int = 32):
        self.px = px
        self.__name__ = type(self).__name__

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = self.px
        tile_col, clip = batch["tile_id"], batch["clip"]
        for name, col in (("tile_id", tile_col), ("clip", clip)):
            if col.null_count:
                row = int(np.flatnonzero(pc.is_null(col).to_numpy(zero_copy_only=False))[0])
                raise ValueError(
                    f"RasterizePartial: row {row} (tile_id {tile_col[row].as_py()}) "
                    f"has a null {name}"
                )
        tids, tile_of_row = np.unique(tile_col.to_numpy(), return_inverse=True)
        xs, ys = pixel_centres(tids, px)
        counts = rasterize_counts(clip, xs, ys, tile_of_row)
        # uint32 accumulator; saturate to the uint16 wire
        wire = np.minimum(counts, 65535).astype(np.uint16).reshape(len(tids), px * px)
        return pa.table(
            [
                pa.array(tids, pa.int64()),
                pa.array(np.full(len(tids), px, dtype=np.int32)),
                _raster_column(wire),
                pa.array(np.bincount(tile_of_row, minlength=len(tids)), pa.int64()),
            ],
            schema=PARTIAL_SCHEMA,
        )


def _raster_buffers(arr, nbytes) -> np.ndarray:
    """A binary column's rows, ``nbytes[i]`` (= 2·px²) bytes each, as one
    flat uint16 array; ``ValueError`` on a row of any other length."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[arr.offset : arr.offset + len(arr) + 1]
    bad = np.flatnonzero(np.diff(offs) != nbytes)
    if len(bad):
        raise ValueError(f"raster row {bad[0]} holds {np.diff(offs)[bad[0]]} bytes, expected 2·px²")
    if not len(arr):
        return np.empty(0, np.uint16)
    return np.frombuffer(arr.buffers()[2], dtype=np.uint8)[offs[0] : offs[-1]].view(np.uint16)


def _raster_column(wire: np.ndarray) -> pa.Array:
    """``(T, px²)`` uint16 rasters → a binary column over one buffer (the
    int32 offsets raise rather than wrap past 2 GiB)."""
    offsets = pa.array(np.arange(len(wire) + 1, dtype=np.int64) * (2 * wire.shape[1]), pa.int32())
    return pa.Array.from_buffers(pa.binary(), len(wire), [None, offsets.buffers()[1], pa.py_buffer(wire)])


def merge_rasters(group: pa.Table) -> pa.Table:
    """Sum ``RasterizePartial`` outputs per tile: any number of tiles
    in, one row per tile out, sorted by ``tile_id`` — one stable sort
    and one ``np.add.reduceat``.  Accumulation is uint32, so summing
    many uint16 partials cannot wrap (a pixel wrapping to 0 mod 65536
    would undercount ``coverage_fraction``); the merged wire saturates
    at the uint16 max.  A group's rows must share one ``px``."""
    pxs = np.unique(group["px"].to_numpy())
    if len(pxs) > 1:
        raise ValueError(f"merge_rasters: one group holds rasters of px {pxs.tolist()}")
    px = int(pxs[0])
    tids = group["tile_id"].to_numpy()
    order = np.argsort(tids, kind="stable")
    tids = tids[order]
    starts = np.flatnonzero(np.r_[True, tids[1:] != tids[:-1]])
    partials = _raster_buffers(group["raster"], 2 * px * px).reshape(len(tids), px * px)
    counts = np.add.reduceat(partials[order], starts, axis=0, dtype=np.uint32)
    return pa.table(
        {
            "tile_id": pa.array(tids[starts], pa.int64()),
            "px": pa.array(np.full(len(starts), px, dtype=np.int32)),
            "raster": _raster_column(np.minimum(counts, 65535).astype(np.uint16)),
            "n_pieces": pa.array(np.add.reduceat(group["n_pieces"].to_numpy()[order], starts), pa.int64()),
            "coverage_fraction": pa.array((counts > 0).sum(axis=1) / (px * px), pa.float64()),
        }
    )


def raster_rects(tile_ids, px, raster) -> pa.ListArray:
    """Coverage rasters → one multipolygon of axis-aligned rects per
    tile (raster→vector) in one numpy pass; ``px`` may vary per tile.

    Maximal horizontal runs of covered pixels come from the mask's diff,
    cut at row ends; identical ``(tile, start, end)`` runs on consecutive
    rows chain into one rect.  A tile's rects are ordered by (start row,
    start column); corners are ``x0 + col * ((x1 - x0) / px)``."""
    px = np.asarray(px, dtype=np.int64)
    m = np.r_[False, _raster_buffers(raster, 2 * px * px) > 0, False]
    row_start = np.cumsum(np.repeat(px, px)) - np.repeat(px, px)  # tile-major pixel rows
    cut = np.zeros(len(m) - 1, dtype=bool)
    cut[row_start] = cut[-1] = True
    begin = np.flatnonzero(m[1:] & (~m[:-1] | cut))
    end = np.flatnonzero(m[:-1] & (~m[1:] | cut))  # exclusive
    row = np.searchsorted(row_start, begin, side="right") - 1
    tile = np.repeat(np.arange(len(px)), px)[row]
    c0, c1 = begin - row_start[row], end - row_start[row] - 1
    # sorted by (tile, start, end, row), a chain breaks where the run
    # changes or a row is skipped (global rows: consecutive ⇒ same tile)
    o = np.lexsort((row, c1, c0, tile))
    tile, row, c0, c1 = tile[o], row[o], c0[o], c1[o]
    head = np.r_[True, (np.diff(tile) != 0) | (np.diff(c0) != 0) | (np.diff(c1) != 0) | (np.diff(row) != 1)]
    first = np.flatnonzero(head[: len(o)])
    last = np.r_[first[1:], len(o)][: len(first)] - 1
    t, c0, c1 = tile[first], c0[first], c1[first]
    r0, r1 = row[first] - (np.cumsum(px) - px)[t], row[last] - (np.cumsum(px) - px)[t]
    o = np.lexsort((c0, r0, t))
    t, r0, r1, c0, c1 = t[o], r0[o], r1[o], c0[o], c1[o]
    x0, y0, x1, y1 = cell_bounds_array(np.asarray(tile_ids))
    wx, wy = ((x1 - x0) / px)[t], ((y1 - y0) / px)[t]
    rx0, rx1, ry0, ry1 = x0[t] + c0 * wx, x0[t] + (c1 + 1) * wx, y0[t] + r0 * wy, y0[t] + (r1 + 1) * wy
    xy = np.stack([[rx0, rx1, rx1, rx0, rx0], [ry0, ry0, ry1, ry1, ry0]], axis=-1).transpose(1, 0, 2)
    ones = np.ones(len(t), dtype=np.int64)
    return flat_to_arrow(xy.reshape(-1, 2), 5 * ones, ones, np.bincount(t, minlength=len(px)))


def vectorize_tiles_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: merged raster rows → vector multipolygon rows."""
    geom = raster_rects(batch["tile_id"].to_numpy(), batch["px"].to_numpy(), batch["raster"])
    return pa.table({"tile_id": batch["tile_id"], "geom": geom, "coverage_fraction": batch["coverage_fraction"]})
