"""Segment × segment intersection, float-for-float port.

Mirrors reference lib/src/boolean/segment_intersection.rs:15-180 exactly
(operation order preserved so intersection coordinates are bit-identical
in IEEE f64): bbox-of-overlap gate, parametric solve with endpoint snap
branches, overlap classification, and clamping of results into the
overlap bbox.

Returns (kind, p1, p2) with kind in {"none", "point", "overlap"}.
"""

from __future__ import annotations

import math

INTER_NONE = 0
INTER_POINT = 1
INTER_OVERLAP = 2


def _get_intersection_bounding_box(a1, a2, b1, b2):
    # reference segment_intersection.rs:16-42
    if a1[0] < a2[0]:
        a_start_x, a_end_x = a1[0], a2[0]
    else:
        a_start_x, a_end_x = a2[0], a1[0]
    if a1[1] < a2[1]:
        a_start_y, a_end_y = a1[1], a2[1]
    else:
        a_start_y, a_end_y = a2[1], a1[1]
    if b1[0] < b2[0]:
        b_start_x, b_end_x = b1[0], b2[0]
    else:
        b_start_x, b_end_x = b2[0], b1[0]
    if b1[1] < b2[1]:
        b_start_y, b_end_y = b1[1], b2[1]
    else:
        b_start_y, b_end_y = b2[1], b1[1]
    interval_start_x = a_start_x if a_start_x > b_start_x else b_start_x
    interval_start_y = a_start_y if a_start_y > b_start_y else b_start_y
    interval_end_x = a_end_x if a_end_x < b_end_x else b_end_x
    interval_end_y = a_end_y if a_end_y < b_end_y else b_end_y
    if interval_start_x <= interval_end_x and interval_start_y <= interval_end_y:
        return (interval_start_x, interval_start_y, interval_end_x, interval_end_y)
    return None


def _constrain_to_bounding_box(p, bb):
    # reference segment_intersection.rs:44-65
    minx, miny, maxx, maxy = bb
    x = p[0]
    y = p[1]
    if x < minx:
        x = minx
    elif x > maxx:
        x = maxx
    if y < miny:
        y = miny
    elif y > maxy:
        y = maxy
    return (x, y)


def _mid_point(p, s, d):
    # reference segment_intersection.rs:156-164
    return (p[0] + s * d[0], p[1] + s * d[1])


def _over_zero(n):
    """IEEE-754 ``n / +0.0``."""
    return math.nan if n == 0.0 or n != n else math.copysign(math.inf, n)


def _intersection_impl(a1, a2, b1, b2):
    # reference segment_intersection.rs:86-154
    va = (a2[0] - a1[0], a2[1] - a1[1])
    vb = (b2[0] - b1[0], b2[1] - b1[1])
    e = (b1[0] - a1[0], b1[1] - a1[1])
    kross = va[0] * vb[1] - va[1] * vb[0]
    sqr_kross = kross * kross
    sqr_len_a = va[0] * va[0] + va[1] * va[1]

    if sqr_kross > 0.0:
        s = (e[0] * vb[1] - e[1] * vb[0]) / kross
        if s < 0.0 or s > 1.0:
            return (INTER_NONE, None, None)
        t = (e[0] * va[1] - e[1] * va[0]) / kross
        if t < 0.0 or t > 1.0:
            return (INTER_NONE, None, None)
        if s == 0.0 or s == 1.0:
            return (INTER_POINT, _mid_point(a1, s, va), None)
        if t == 0.0 or t == 1.0:
            return (INTER_POINT, _mid_point(b1, t, vb), None)
        return (INTER_POINT, _mid_point(a1, s, va), None)

    kross = e[0] * va[1] - e[1] * va[0]
    sqr_kross = kross * kross
    if sqr_kross > 0.0:
        return (INTER_NONE, None, None)

    try:
        sa = (va[0] * e[0] + va[1] * e[1]) / sqr_len_a
        sb = sa + (va[0] * vb[0] + va[1] * vb[1]) / sqr_len_a
    except ZeroDivisionError:
        # sqr_len_a underflowed to 0 (a sub-1e-154 segment): the
        # reference's f64 division gives ±inf or NaN where Python raises
        sa = _over_zero(va[0] * e[0] + va[1] * e[1])
        sb = sa + _over_zero(va[0] * vb[0] + va[1] * vb[1])
    smin = sa if sa < sb else sb
    smax = sa if sa > sb else sb

    if smin <= 1.0 and smax >= 0.0:
        if smin == 1.0:
            return (INTER_POINT, _mid_point(a1, smin, va), None)
        if smax == 0.0:
            return (INTER_POINT, _mid_point(a1, smax, va), None)
        return (
            INTER_OVERLAP,
            _mid_point(a1, smin if smin > 0.0 else 0.0, va),
            _mid_point(a1, smax if smax < 1.0 else 1.0, va),
        )

    return (INTER_NONE, None, None)


def segment_intersection(a1, a2, b1, b2):
    """Reference segment_intersection.rs:67-84."""
    bb = _get_intersection_bounding_box(a1, a2, b1, b2)
    if bb is None:
        return (INTER_NONE, None, None)
    kind, p1, p2 = _intersection_impl(a1, a2, b1, b2)
    if kind == INTER_NONE:
        return (INTER_NONE, None, None)
    if kind == INTER_POINT:
        return (INTER_POINT, _constrain_to_bounding_box(p1, bb), None)
    return (
        INTER_OVERLAP,
        _constrain_to_bounding_box(p1, bb),
        _constrain_to_bounding_box(p2, bb),
    )
