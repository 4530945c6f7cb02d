"""Tile materialization: raster ⇄ vector.

Tiles are cells at a fixed resolution (one id space for partitioning,
join keys and tile naming).  ``RasterizePartial`` turns a batch of
clipped pieces into one coverage-count raster per tile with a single
vectorized even-odd scanline pass over the Arrow offset buffers;
``merge_rasters`` sums a tile's partial rasters after the shuffle;
``raster_to_rects`` extracts maximal horizontal-run rectangles back into
vector space (raster→vector).  Together they give the raster↔vector
round trip of the north star.

Used as: clips.map_batches(RasterizePartial(px))
.groupby("tile_id").map_groups(merge_rasters) — the groupby is the one
shuffle, keyed by the same cell-id space as everything else, and it
moves fixed-size count rasters rather than geometry.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.arrow_geom import arrow_mp_offsets, mps_to_arrow
from .cells import cell_bounds, cell_bounds_array

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
    grid = np.asarray(grid, dtype=np.intp)

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


class RasterizeTile:
    """Per-tile coverage raster from one tile's clipped geometries
    (map_groups fn): ``merge_rasters`` over ``RasterizePartial``."""

    def __init__(self, px: int = 32):
        self.px = px
        self.__name__ = type(self).__name__

    def __call__(self, group: pa.Table) -> pa.Table:
        return merge_rasters(RasterizePartial(self.px)(group))


class RasterizePartial:
    """map_batches kernel: clip rows → per-(batch, tile) PARTIAL count
    rasters.  The heavy geometry work happens here, before the shuffle;
    the ``groupby(tile_id)`` then moves only fixed-size bitmaps
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
        wire = np.minimum(counts, 65535).astype(np.uint16)
        # one px*px uint16 raster per tile, back to back in one buffer
        # (the int32 cast raises rather than wrap past 2 GiB)
        offsets = pa.array(np.arange(len(tids) + 1, dtype=np.int64) * (2 * px * px), pa.int32())
        raster = pa.Array.from_buffers(
            pa.binary(), len(tids), [None, offsets.buffers()[1], pa.py_buffer(wire)]
        )
        return pa.table(
            [
                pa.array(tids, pa.int64()),
                pa.array(np.full(len(tids), px, dtype=np.int32)),
                raster,
                pa.array(np.bincount(tile_of_row, minlength=len(tids)), pa.int64()),
            ],
            schema=PARTIAL_SCHEMA,
        )


def merge_rasters(group: pa.Table) -> pa.Table:
    """map_groups merge of RasterizePartial outputs for one tile."""
    tile_id = int(group["tile_id"][0].as_py())
    px = int(group["px"][0].as_py())
    # uint32 accumulation: summing many uint16 partials must not wrap
    # (a pixel wrapping to 0 mod 65536 would silently undercount
    # coverage_fraction); the merged wire saturates at the uint16 max.
    # All partials of a tile are px*px uint16, so the whole group sums
    # in ONE zero-copy reshape — no per-raster Python loop
    arr = group["raster"]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset : arr.offset + n + 1
    ]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    seg = data[offs[0] : offs[-1]]
    counts = (
        seg.view(np.uint16).reshape(n, px * px).sum(axis=0, dtype=np.uint32)
        if seg.size
        else np.zeros(px * px, dtype=np.uint32)
    )
    covered = int((counts > 0).sum())
    wire = np.minimum(counts, 65535).astype(np.uint16)
    return pa.table(
        {
            "tile_id": pa.array([tile_id], pa.int64()),
            "px": pa.array([px], pa.int32()),
            "raster": pa.array([wire.tobytes()], pa.binary()),
            "n_pieces": pa.array([int(group["n_pieces"].to_numpy().sum())], pa.int64()),
            "coverage_fraction": pa.array([covered / (px * px)], pa.float64()),
        }
    )


def raster_to_rects(raster: bytes, px: int, tile_id: int):
    """Coverage raster → vector multipolygon of axis-aligned rectangles.

    Greedy row-wise run-length extraction of the covered mask: each
    maximal horizontal run of covered pixels in a row becomes one rect;
    vertically adjacent identical runs are merged.  Deterministic.
    """
    counts = np.frombuffer(raster, dtype=np.uint16).reshape(px, px)
    mask = counts > 0
    x0, y0, x1, y1 = cell_bounds(tile_id)
    wx = (x1 - x0) / px
    wy = (y1 - y0) / px

    # collect runs per row: (row, start_col, end_col)
    active: dict = {}  # (start_col, end_col) -> start_row
    polys = []

    def flush(start_col, end_col, start_row, end_row):
        rx0 = x0 + start_col * wx
        rx1 = x0 + (end_col + 1) * wx
        ry0 = y0 + start_row * wy
        ry1 = y0 + (end_row + 1) * wy
        polys.append([[(rx0, ry0), (rx1, ry0), (rx1, ry1), (rx0, ry1), (rx0, ry0)]])

    for row in range(px):
        runs = set()
        col = 0
        while col < px:
            if mask[row, col]:
                start = col
                while col < px and mask[row, col]:
                    col += 1
                runs.add((start, col - 1))
            else:
                col += 1
        # close runs that ended
        for key in list(active):
            if key not in runs:
                flush(key[0], key[1], active.pop(key), row - 1)
        for key in runs:
            if key not in active:
                active[key] = row
    for key, start_row in active.items():
        flush(key[0], key[1], start_row, px - 1)

    polys.sort(key=lambda p: (p[0][0][1], p[0][0][0]))
    return polys


def vectorize_tiles_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: raster rows → vector multipolygon rows."""
    mps = [
        raster_to_rects(
            batch["raster"][i].as_py(),
            int(batch["px"][i].as_py()),
            int(batch["tile_id"][i].as_py()),
        )
        for i in range(batch.num_rows)
    ]
    return pa.table(
        {
            "tile_id": batch["tile_id"],
            "geom": mps_to_arrow(mps),
            "coverage_fraction": batch["coverage_fraction"],
        }
    )
