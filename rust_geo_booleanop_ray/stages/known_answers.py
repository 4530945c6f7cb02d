"""Known answers: `intersection` rows whose kernel output has a closed
form, answered without the sweep.

``boolean_batch`` (stages/boolean_batch.py) is the only caller.  After
it strips null rows it calls ``known_answers``, which sorts the rows
into classes in one vectorized pass over the Arrow offset and
coordinate buffers.  Only ``KERNEL`` rows reach the native or the
Python kernel, so ``GEO_NATIVE=0`` sees the same classes.  This lifts
the reference's bbox gate (lib/src/boolean/mod.rs:106-109) from
"disjoint → empty" to an exact answer for one row shape:

* ``RECT`` — both operands are one polygon with one closed, CCW,
  axis-aligned 5-point ring of positive extent and no hole.  The kernel
  clamps every crossing into the bbox shared by the two segments
  (segment_intersection.rs), which for a horizontal and a vertical edge
  is one point, so its answer is exact: the empty multipolygon when the
  rects share no interior, else the CCW rect ``[(ix0,iy0), (ix1,iy0),
  (ix1,iy1), (ix0,iy1), (ix0,iy0)]`` of their overlap.

Each answer is bit-identical to both kernels (tests/
test_known_answers.py compares uint64 views).  A pair with a
non-finite or ``-0.0`` coordinate, a non-zero magnitude outside
[``COORD_MIN``, ``COORD_MAX``], or a largest magnitude more than
``SPREAD_MAX`` times its smallest non-zero magnitude, extent or overlap
stays a ``KERNEL`` row.  There the kernel mixes signed zeros, inserts
spurious collinear vertices, raises or runs on, and a known answer must
never replace any of those.  Every other row and every other op goes
to the kernel unchanged.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.arrow_geom import arrow_mp_offsets, flat_to_arrow

KERNEL, RECT = 0, 1

# The kernel's highest-degree product (sqr_kross) is 4th degree in
# coordinate differences.  With every non-zero |coordinate| in
# [2^-200, 2^200] and differences down to one ULP, those products stay
# finite and normal: (2^201)^4 < 2^1024 and (2^-252)^4 > 2^-1022.
COORD_MIN = 2.0**-200
COORD_MAX = 2.0**200
# Largest |coordinate| over the smallest non-zero |coordinate|, extent
# or overlap of one pair.  Rect pairs first differ from the kernel at
# spreads near 2^54: mixing 1 with 1e20 or 1e-20 fails, 1e8 does not.
SPREAD_MAX = 2.0**26
_NEG_ZERO = np.float64(-0.0).view(np.int64)


def known_answers(subject: pa.Array, clipping: pa.Array, op):
    """(class per row, answers) for two null-free multipolygon arrays
    and an op name or one op name per row.

    ``answers`` is a multipolygon array with one result per
    non-``KERNEL`` row, in row order; None when there is none."""
    cls = np.zeros(len(subject), np.int8)
    if isinstance(op, str):
        rows = np.arange(len(subject)) if op == "intersection" else np.empty(0, np.int64)
    else:
        mask = pc.fill_null(pc.equal(op, "intersection"), False)
        rows = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
    if not len(rows):
        return cls, None

    c_xy, c_start, c_size = _single_rings(clipping)
    rows = rows[c_size[rows] == 5]
    ok, c_box = _rects(c_xy, c_start[rows])
    rows, c_box = rows[ok], c_box[:, ok]
    if not len(rows):
        return cls, None

    s_xy, s_start, s_size = _single_rings(subject)
    five = s_size[rows] == 5
    rows, c_box = rows[five], c_box[:, five]
    ok, s_box = _rects(s_xy, s_start[rows])
    rows, s_box, c_box = rows[ok], s_box[:, ok], c_box[:, ok]
    lo, hi = np.maximum(s_box[:2], c_box[:2]), np.minimum(s_box[2:], c_box[2:])
    # a positive overlap a few ULPs wide makes the kernel nudge in a
    # collinear vertex, so it counts as an extent
    overlap = np.where(hi > lo, hi - lo, np.inf)
    extent = np.minimum.reduce(
        [s_box[2:] - s_box[:2], c_box[2:] - c_box[:2], overlap], axis=(0, 1)
    )
    ok = _in_range(np.concatenate([s_box, c_box]), extent)
    if not ok.any():
        return cls, None
    cls[rows[ok]] = RECT
    return cls, _answers(lo[:, ok], hi[:, ok])


def _single_rings(arr):
    """(coords, start, size) of each row's ring: ``size`` is 0 where the
    row is not exactly one polygon with one ring."""
    xy, ring_off, poly_off, mp_off = arrow_mp_offsets(arr)
    start = np.zeros(len(arr), np.int64)
    size = np.zeros(len(arr), np.int64)
    rows = np.flatnonzero(np.diff(mp_off) == 1)
    p = mp_off[rows]
    one = poly_off[p + 1] - poly_off[p] == 1
    rows, r = rows[one], poly_off[p[one]]
    start[rows] = ring_off[r]
    size[rows] = ring_off[r + 1] - ring_off[r]
    return xy, start, size


def _rects(xy, start):
    """For the 5-point rings at ``start``: the mask of closed, CCW,
    axis-aligned rects of positive extent with no -0.0 vertex, and their
    (minx, miny, maxx, maxy) as four rows."""
    at = start + np.arange(5)[:, None]  # (vertex, ring)
    x, y = xy[:, 0][at], xy[:, 1][at]
    # 0.0 - -0.0 == 0, so an edge from 0.0 to -0.0 still looks straight,
    # and the bbox may keep either zero
    neg_zero = (x.view(np.int64) == _NEG_ZERO) | (y.view(np.int64) == _NEG_ZERO)
    with np.errstate(invalid="ignore"):
        dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]
    horizontal, vertical = dy == 0, dx == 0
    ok = (
        ~neg_zero.any(0)
        & (x[4] == x[0])
        & (y[4] == y[0])
        # every edge is horizontal or vertical, not both, and they alternate
        & np.logical_and.reduce(horizontal != vertical)
        & np.logical_and.reduce(horizontal[1:] != horizontal[:-1])
        # the first turn is a left turn
        & (np.sign(dx[0]) * np.sign(dy[1]) - np.sign(dy[0]) * np.sign(dx[1]) > 0)
    )
    x, y = x[:4], y[:4]
    return ok, np.stack([x.min(0), y.min(0), x.max(0), y.max(0)])


def _in_range(coords, extent):
    """Per column of ``coords`` (one column per pair): the coordinates
    are finite, the non-zero magnitudes lie in [COORD_MIN, COORD_MAX],
    and the largest is at most SPREAD_MAX times the smallest non-zero
    one or ``extent``."""
    a = np.abs(coords)
    big = a.max(0)  # NaN or inf when any coordinate is
    small = np.minimum(np.where(a > 0, a, np.inf).min(0), extent)
    with np.errstate(invalid="ignore", over="ignore"):
        return (
            np.isfinite(big)
            & (big <= COORD_MAX)
            & (small >= COORD_MIN)
            & (big <= SPREAD_MAX * small)
        )


def _answers(lo, hi):
    """The ``RECT`` rows' results in row order: the overlap rect of
    corners ``lo``, ``hi`` (one column per row), or the empty
    multipolygon where they share no interior."""
    full = (lo[0] < hi[0]) & (lo[1] < hi[1])
    (x0, y0), (x1, y1) = lo[:, full], hi[:, full]
    rects = np.stack([x0, y0, x1, y0, x1, y1, x0, y1, x0, y0], axis=1).reshape(-1, 2)
    n = int(full.sum())
    return flat_to_arrow(rects, np.full(n, 5), np.ones(n, np.int64), full.astype(np.int64))
