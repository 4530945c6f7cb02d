"""Arrow ⇄ Python geometry codec.

Geometry columns use the geoarrow-style nested-list layout:

    multipolygon: list<polygon: list<ring: list<vertex: fixed_size_list<double, 2>>>>

which is zero-copy sliceable into numpy (flat (N,2) coord buffer + three
offset arrays).  The kernel consumes plain tuple rings; these helpers
convert per-row at batch boundaries and compute vectorized per-row
bboxes straight from the offsets (the batch-level analogue of the
reference's bbox accumulation, fill_queue.rs:77-80).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

COORD_T = pa.list_(pa.float64(), 2)
RING_T = pa.list_(COORD_T)
POLYGON_T = pa.list_(RING_T)
MULTIPOLYGON_T = pa.list_(POLYGON_T)


def mps_to_arrow(mps) -> pa.ListArray:
    """List of multipolygons (nested python lists/tuples) → Arrow array."""
    return pa.array(
        [
            [[[list(pt) for pt in ring] for ring in poly] for poly in mp]
            if mp is not None
            else None
            for mp in mps
        ],
        type=MULTIPOLYGON_T,
    )


def arrow_to_mps(arr: pa.Array):
    """Arrow multipolygon array → list of multipolygons with tuple points.

    Uses the flat coordinate buffer + offsets (no per-value Arrow calls).
    Coordinates come out as Python floats: the reference kernel's sweep
    runs ~1.7× faster on them than on ``numpy.float64`` scalars, with
    the same bits.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    # offsets at each nesting level
    mp_off = arr.offsets.to_numpy(zero_copy_only=False)
    poly_arr = arr.values  # list<ring>
    poly_off = poly_arr.offsets.to_numpy(zero_copy_only=False)
    ring_arr = poly_arr.values  # list<coord>
    ring_off = ring_arr.offsets.to_numpy(zero_copy_only=False)
    coord_arr = ring_arr.values  # fixed_size_list<double,2>
    flat = coord_arr.values.to_numpy(zero_copy_only=False)
    xs = flat[0::2].tolist()
    ys = flat[1::2].tolist()

    valid = None
    if arr.null_count:
        valid = arr.is_valid().to_numpy(zero_copy_only=False)

    out = []
    for i in range(len(arr)):
        if valid is not None and not valid[i]:
            out.append(None)
            continue
        mp = []
        for p in range(mp_off[i], mp_off[i + 1]):
            poly = []
            for r in range(poly_off[p], poly_off[p + 1]):
                lo, hi = ring_off[r], ring_off[r + 1]
                poly.append(list(zip(xs[lo:hi], ys[lo:hi])))
            mp.append(poly)
        out.append(mp)
    return out


def arrow_mp_offsets(arr: pa.Array):
    """The raw offset chains + flat coord buffer of a multipolygon
    column (the zero-copy view the native batch kernel consumes).

    Returns (coords (N,2) float64, ring_off i32, poly_off i32, mp_off
    i32) — indices are GLOBAL into each child buffer, valid for sliced
    arrays."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    mp_off = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int32, copy=False)
    poly_arr = arr.values
    poly_off = poly_arr.offsets.to_numpy(zero_copy_only=False).astype(np.int32, copy=False)
    ring_arr = poly_arr.values
    ring_off = ring_arr.offsets.to_numpy(zero_copy_only=False).astype(np.int32, copy=False)
    coords = np.ascontiguousarray(
        ring_arr.values.values.to_numpy(zero_copy_only=False).reshape(-1, 2)
    )
    return coords, ring_off, poly_off, mp_off


def flat_to_arrow(xy, ring_sizes, poly_ring_counts, mp_poly_counts) -> pa.ListArray:
    """Flat buffers → multipolygon Arrow array, fully vectorized
    (offsets by cumsum; no per-row Python)."""
    values = pa.array(np.ascontiguousarray(xy, dtype=np.float64).ravel())
    coords = pa.FixedSizeListArray.from_arrays(values, 2)
    ring_off = np.zeros(len(ring_sizes) + 1, dtype=np.int32)
    np.cumsum(ring_sizes, out=ring_off[1:])
    rings = pa.ListArray.from_arrays(pa.array(ring_off, pa.int32()), coords)
    poly_off = np.zeros(len(poly_ring_counts) + 1, dtype=np.int32)
    np.cumsum(poly_ring_counts, out=poly_off[1:])
    polys = pa.ListArray.from_arrays(pa.array(poly_off, pa.int32()), rings)
    mp_off = np.zeros(len(mp_poly_counts) + 1, dtype=np.int32)
    np.cumsum(mp_poly_counts, out=mp_off[1:])
    return pa.ListArray.from_arrays(pa.array(mp_off, pa.int32()), polys)


def rects_to_arrow(minx, miny, maxx, maxy) -> pa.ListArray:
    """Vectorized axis-aligned rects → multipolygon column (one closed
    CCW 5-point ring per rect, offsets built directly — no per-row
    Python)."""
    n = len(minx)
    xs = np.stack([minx, maxx, maxx, minx, minx], axis=1)
    ys = np.stack([miny, miny, maxy, maxy, miny], axis=1)
    coords = np.empty((n * 5, 2))
    coords[:, 0] = xs.ravel()
    coords[:, 1] = ys.ravel()
    coord_arr = pa.FixedSizeListArray.from_arrays(pa.array(coords.ravel()), 2)
    ring = pa.ListArray.from_arrays(
        pa.array(np.arange(n + 1, dtype=np.int32) * 5), coord_arr
    )
    one = pa.array(np.arange(n + 1, dtype=np.int32))
    return pa.ListArray.from_arrays(one, pa.ListArray.from_arrays(one, ring))


def mp_bounds(mp):
    """bbox of one multipolygon: (minx, miny, maxx, maxy)."""
    minx = miny = np.inf
    maxx = maxy = -np.inf
    for poly in mp:
        for ring in poly:
            for x, y in ring:
                if x < minx:
                    minx = x
                if y < miny:
                    miny = y
                if x > maxx:
                    maxx = x
                if y > maxy:
                    maxy = y
    return (minx, miny, maxx, maxy)


def arrow_mp_bounds(arr: pa.Array):
    """Vectorized per-row bboxes of a multipolygon column.

    Returns dict of 4 float64 numpy arrays (minx, miny, maxx, maxy);
    empty/null rows get +inf/-inf bounds (disjoint from everything, the
    same convention as the reference's initial bbox accumulator).
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    mp_off = arr.offsets.to_numpy(zero_copy_only=False)
    poly_arr = arr.values
    poly_off = poly_arr.offsets.to_numpy(zero_copy_only=False)
    ring_arr = poly_arr.values
    ring_off = ring_arr.offsets.to_numpy(zero_copy_only=False)
    flat = ring_arr.values.values.to_numpy(zero_copy_only=False)
    coords = flat.reshape(-1, 2)

    # Per-row coordinate ranges: row i covers coords[start_i:end_i] where
    # start/end chase the offset chain (all levels are monotonic).
    row_start = ring_off[poly_off[mp_off[:n]]]
    row_end = ring_off[poly_off[mp_off[1 : n + 1]]]

    minx = np.full(n, np.inf)
    miny = np.full(n, np.inf)
    maxx = np.full(n, -np.inf)
    maxy = np.full(n, -np.inf)
    nonempty = row_end > row_start
    if nonempty.any():
        idx = np.flatnonzero(nonempty)
        starts = row_start[idx]
        ends = row_end[idx]
        # reduceat reduces [starts[j], starts[j+1]) and the tail to the
        # array end — exact iff rows are contiguous in the flat buffer.
        if (starts[1:] == ends[:-1]).all():
            xs = coords[: ends[-1], 0]
            ys = coords[: ends[-1], 1]
            minx[idx] = np.minimum.reduceat(xs, starts)
            miny[idx] = np.minimum.reduceat(ys, starts)
            maxx[idx] = np.maximum.reduceat(xs, starts)
            maxy[idx] = np.maximum.reduceat(ys, starts)
        else:  # non-contiguous child buffer (hand-built offsets): per-row
            for j, i in enumerate(idx):
                seg = coords[starts[j] : ends[j]]
                minx[i] = seg[:, 0].min()
                miny[i] = seg[:, 1].min()
                maxx[i] = seg[:, 0].max()
                maxy[i] = seg[:, 1].max()
    return {"minx": minx, "miny": miny, "maxx": maxx, "maxy": maxy}


def arrow_mp_areas(arr: pa.Array) -> np.ndarray:
    """Vectorized per-row structural areas of a multipolygon column.

    Same definition as ``shoelace_area`` (|exterior| − Σ|holes| per
    polygon, winding-independent) computed from the flat coordinate
    buffer with reduceat — the per-ring and per-row summation orders
    match the scalar loop, so results are bit-for-bit identical.
    Empty rows get 0.0.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    coords, ring_off, poly_off, mp_off = arrow_mp_offsets(arr)
    out = np.zeros(n, dtype=np.float64)
    if len(coords) == 0:
        return out
    x = coords[:, 0]
    y = coords[:, 1]
    # consecutive-pair cross terms over the whole buffer (the pair
    # straddling a ring boundary is skipped by the length mask below)
    cross = np.empty(len(x), dtype=np.float64)
    cross[:-1] = x[:-1] * y[1:] - x[1:] * y[:-1]
    cross[-1] = 0.0
    starts = ring_off[:-1].astype(np.int64)
    ends = ring_off[1:].astype(np.int64)
    if len(starts) == 0:
        return out
    # left-to-right accumulation WITHIN each ring, vectorized ACROSS
    # rings: k-th cross term of every ring added per iteration.  This
    # is bit-for-bit the scalar shoelace loop — reduceat/np.sum use
    # pairwise summation, which rounds differently, and subtracting the
    # boundary term back out after a whole-buffer reduceat made a row's
    # area depend on its NEIGHBORS in the buffer.  Iterations = longest
    # ring in the batch (5 for quads, tens for clip pieces).
    lens = ends - starts
    ring_sums = np.zeros(len(starts), dtype=np.float64)
    for k in range(int(lens.max()) - 1):
        m = k < lens - 1
        ring_sums[m] += cross[starts[m] + k]
    ring_abs = np.abs(ring_sums) / 2.0
    # first ring of each polygon adds, holes subtract
    sign = np.full(len(starts), -1.0)
    first_ring = poly_off[:-1].astype(np.int64)
    sign[first_ring[first_ring < len(sign)]] = 1.0
    vals = ring_abs * sign
    mp_ring_start = poly_off[mp_off[:-1]].astype(np.int64)
    mp_ring_end = poly_off[mp_off[1:]].astype(np.int64)
    nonempty = mp_ring_end > mp_ring_start
    idx = np.flatnonzero(nonempty)
    if len(idx):
        # rows between selected starts contribute no rings, so the
        # reduceat segments are exactly each row's ring range; a sliced
        # array may carry trailing rings beyond the last row — cap the
        # final segment with a sentinel start
        sel = mp_ring_start[idx]
        bound = mp_ring_end[idx[-1]]
        if bound < len(vals):
            out[idx] = np.add.reduceat(vals, np.append(sel, bound))[:-1]
        else:
            out[idx] = np.add.reduceat(vals, sel)
    return out


def shoelace_area(mp) -> float:
    """Structural area of a multipolygon: |exterior| − Σ|holes| per
    polygon, summed.  Winding-INDEPENDENT on purpose: the Martinez
    output convention (ours and the reference's goldens alike) emits
    hole rings with the same winding as exteriors, so holes must be
    subtracted by ring position, not by sign.  Used for metrics and
    oracle cross-checks, not for predicates."""
    total = 0.0
    for poly in mp:
        for ri, ring in enumerate(poly):
            a = 0.0
            for i in range(len(ring) - 1):
                x1, y1 = ring[i]
                x2, y2 = ring[i + 1]
                a += x1 * y2 - x2 * y1
            a = abs(a) / 2.0
            total += a if ri == 0 else -a
    return total


# ----------------------------------------------------------------- WKB
# The escape hatch promised by SURVEY §1.4: real-world footprints
# arrive as WKB columns in GeoParquet; these two codecs bridge that
# wire format to the engine's nested-list layout (and back) so any
# Martinez / join / tiling stage can consume a WKB parquet unchanged.
# Supports 2-D Polygon (type 3) and MultiPolygon (type 6), both byte
# orders, and EWKB SRID headers on ingest; encodes canonical
# little-endian ISO WKB MultiPolygon.  Reference geometry model:
# lib/src/boolean/mod.rs:33, fill_queue.rs:25-28.

_WKB_POLYGON = 3
_WKB_MULTIPOLYGON = 6
_EWKB_SRID_FLAG = 0x20000000
_EWKB_Z_FLAG = 0x80000000
_EWKB_M_FLAG = 0x40000000


def _parse_wkb_polygon_body(buf: memoryview, cur: int, dt) -> tuple[list, int]:
    """Parse numRings + rings at ``cur`` (after the polygon header).
    Returns (list of (n_points, coord_ndarray), new cursor)."""
    (n_rings,) = np.frombuffer(buf, dtype=dt["u4"], count=1, offset=cur)
    cur += 4
    rings = []
    for _ in range(int(n_rings)):
        (n_pts,) = np.frombuffer(buf, dtype=dt["u4"], count=1, offset=cur)
        cur += 4
        n_pts = int(n_pts)
        xy = np.frombuffer(buf, dtype=dt["f8"], count=2 * n_pts, offset=cur)
        cur += 16 * n_pts
        rings.append((n_pts, xy.astype(np.float64, copy=False).reshape(n_pts, 2)))
    return rings, cur


def _wkb_header(buf: memoryview, cur: int) -> tuple[int, int, dict]:
    """Byte-order byte + geometry type (+EWKB flags).  Returns
    (base geometry type, cursor after any SRID, dtype table)."""
    bo = buf[cur]
    cur += 1
    if bo == 1:
        dt = {"u4": "<u4", "f8": "<f8"}
    elif bo == 0:
        dt = {"u4": ">u4", "f8": ">f8"}
    else:
        raise ValueError(f"WKB: bad byte-order byte {bo}")
    (gtype,) = np.frombuffer(buf, dtype=dt["u4"], count=1, offset=cur)
    gtype = int(gtype)
    cur += 4
    if gtype & (_EWKB_Z_FLAG | _EWKB_M_FLAG):
        raise ValueError("WKB: Z/M dimensions not supported")
    if gtype & _EWKB_SRID_FLAG:
        cur += 4  # skip SRID
        gtype &= ~_EWKB_SRID_FLAG
    # ISO 1000-offset codes (1003 = PolygonZ etc.) carry dimensions
    if gtype >= 1000:
        raise ValueError(f"WKB: only 2-D geometries supported, got type {gtype}")
    return gtype, cur, dt


def wkb_to_mp_arrow(arr) -> pa.ListArray:
    """WKB binary column → nested-list multipolygon column.

    Per-row grammar walk (O(rows + rings) Python steps); coordinates
    move as bulk ``np.frombuffer`` slices, never per-vertex Python.
    Polygons are normalized to single-polygon multipolygons — the same
    normalization the boolean kernel applies everywhere."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        raise ValueError("wkb_to_mp_arrow: null WKB values; filter first")
    xy_parts: list[np.ndarray] = []
    ring_sizes: list[int] = []
    poly_ring_counts: list[int] = []
    mp_poly_counts: list[int] = []
    for v in arr:
        buf = memoryview(v.as_py())
        gtype, cur, dt = _wkb_header(buf, 0)
        if gtype == _WKB_POLYGON:
            rings, cur = _parse_wkb_polygon_body(buf, cur, dt)
            mp_poly_counts.append(1)
            poly_ring_counts.append(len(rings))
            for n_pts, xy in rings:
                ring_sizes.append(n_pts)
                xy_parts.append(xy)
        elif gtype == _WKB_MULTIPOLYGON:
            (n_polys,) = np.frombuffer(buf, dtype=dt["u4"], count=1, offset=cur)
            cur += 4
            mp_poly_counts.append(int(n_polys))
            for _ in range(int(n_polys)):
                pg, cur, pdt = _wkb_header(buf, cur)
                if pg != _WKB_POLYGON:
                    raise ValueError(f"WKB: MultiPolygon child has type {pg}")
                rings, cur = _parse_wkb_polygon_body(buf, cur, pdt)
                poly_ring_counts.append(len(rings))
                for n_pts, xy in rings:
                    ring_sizes.append(n_pts)
                    xy_parts.append(xy)
        else:
            raise ValueError(f"WKB: unsupported geometry type {gtype}")
    xy = (
        np.concatenate(xy_parts)
        if xy_parts
        else np.empty((0, 2), dtype=np.float64)
    )
    return flat_to_arrow(
        xy,
        np.asarray(ring_sizes, dtype=np.int64),
        np.asarray(poly_ring_counts, dtype=np.int64),
        np.asarray(mp_poly_counts, dtype=np.int64),
    )


def mp_arrow_to_wkb(arr) -> pa.BinaryArray:
    """Nested-list multipolygon column → little-endian ISO WKB
    MultiPolygon bytes (the GeoParquet wire encoding).

    One exact-size output buffer computed from the offset chains, then
    headers and bulk coordinate copies written in place — O(rings)
    Python steps, no per-vertex work."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        raise ValueError("mp_arrow_to_wkb: null geometries; filter first")
    coords, ring_off, poly_off, mp_off = arrow_mp_offsets(arr)
    n = len(arr)
    out = []
    for i in range(n):
        p_lo, p_hi = mp_off[i], mp_off[i + 1]
        buf = bytearray()
        buf += b"\x01" + np.uint32(_WKB_MULTIPOLYGON).tobytes()
        buf += np.uint32(p_hi - p_lo).tobytes()
        for p in range(p_lo, p_hi):
            r_lo, r_hi = poly_off[p], poly_off[p + 1]
            buf += b"\x01" + np.uint32(_WKB_POLYGON).tobytes()
            buf += np.uint32(r_hi - r_lo).tobytes()
            for r in range(r_lo, r_hi):
                c_lo, c_hi = ring_off[r], ring_off[r + 1]
                buf += np.uint32(c_hi - c_lo).tobytes()
                buf += coords[c_lo:c_hi].astype("<f8", copy=False).tobytes()
        out.append(bytes(buf))
    return pa.array(out, pa.binary())
