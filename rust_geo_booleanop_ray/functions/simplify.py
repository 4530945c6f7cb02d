"""Visvalingam–Whyatt polygon simplification on integer lattices.

Pure-numpy kernel used both by the engine stage and the generator-side
expected-values oracle (the codec pattern: the oracle replays the same
input-data math, never engine output).  All vertex coordinates are
integers and areas are kept DOUBLED (2×shoelace), so every comparison
is exact int64 arithmetic — engine and DuckDB literals agree
bit-for-bit.

Reference scope note: the reference repo (21re/rust-geo-booleanop) has
no simplification op; this is an engine addition for the tile-
rendering path (simplify before rasterize/serve), following the same
exactness discipline as its boolean kernel.
"""

from __future__ import annotations

import numpy as np


def ring_area2(xs: np.ndarray, ys: np.ndarray) -> int:
    """Doubled signed shoelace area of a closed ring given WITHOUT the
    repeated last vertex — exact int64."""
    x = xs.astype(np.int64)
    y = ys.astype(np.int64)
    return int((x * np.roll(y, -1) - np.roll(x, -1) * y).sum())


def visvalingam(xs: np.ndarray, ys: np.ndarray, min_area2: int) -> np.ndarray:
    """Simplify an open vertex chain (first/last vertices pinned):
    repeatedly drop the interior vertex whose neighbor-triangle
    DOUBLED area is smallest (tie → lowest index) while that minimum
    is < ``min_area2``.  Returns the kept-vertex index mask.

    O(n²) recompute-min loop — unambiguous and exact; chains here are
    tens of vertices (the per-feature kernel inside map_batches, like
    the Martinez sweep itself).
    """
    n = len(xs)
    x = xs.astype(np.int64)
    y = ys.astype(np.int64)
    alive = np.ones(n, dtype=bool)
    while alive.sum() > 2:
        idx = np.flatnonzero(alive)
        xi, yi = x[idx], y[idx]
        # effective DOUBLED areas of the interior vertices
        areas = np.abs(
            (xi[1:-1] - xi[:-2]) * (yi[2:] - yi[:-2])
            - (xi[2:] - xi[:-2]) * (yi[1:-1] - yi[:-2])
        )
        if len(areas) == 0:
            break
        k = int(np.argmin(areas))  # first min = lowest index tie-break
        if int(areas[k]) >= min_area2:
            break
        alive[idx[k + 1]] = False
    return alive


def skyline_chain(i: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic integer 'skyline' vertex chain for shape ``i``:
    a staircase from (0,0) to (m,0) whose step heights come from
    splitmix64 — simple (x-monotone) by construction, collinear runs
    included so simplification has real work to do."""
    from ..stages.footprint import _splitmix64

    m = 24 + (i % 9) * 4
    j = np.arange(m, dtype=np.uint64)
    h = (_splitmix64(np.uint64(i) * np.uint64(1_000_003) + j) % np.uint64(12)).astype(
        np.int64
    )
    xs = np.empty(2 * m + 2, dtype=np.int64)
    ys = np.empty(2 * m + 2, dtype=np.int64)
    xs[0], ys[0] = 0, 0
    xs[1:-1:2] = np.arange(m)
    ys[1:-1:2] = h
    xs[2:-1:2] = np.arange(1, m + 1)
    ys[2:-1:2] = h
    xs[-1], ys[-1] = m, 0
    return xs, ys


def simplify_stats(i: int, min_area2: int) -> tuple[int, int, int, int]:
    """(n_before, n_after, area2_before, area2_after) for shape ``i``
    simplified at ``min_area2`` — the pure per-feature kernel shared
    by the engine stage and the expected-values oracle."""
    xs, ys = skyline_chain(i)
    keep = visvalingam(xs, ys, min_area2)
    # closed ring = chain + implicit (m,0)→(0,0) base edge
    a_before = abs(ring_area2(xs, ys))
    a_after = abs(ring_area2(xs[keep], ys[keep]))
    return len(xs), int(keep.sum()), a_before, a_after


# |coordinate| bound of ring_self_intersections: an orientation is a
# difference of two products of coordinate differences, at most
# 8·M² < 2^63 for every |coordinate| < M = 2^30
ORIENT_COORD_LIMIT = 2**30


def ring_self_intersections(xs: np.ndarray, ys: np.ndarray) -> int:
    """Count of NON-ADJACENT edge pairs of the closed ring that touch
    or cross — 0 ⇔ the ring is simple (the ST_IsValid core test).
    Exact int64 orientation predicates over every non-adjacent pair at
    once (features are small; at scale the per-feature sweep replaces
    this, same predicates).  Raises ``ValueError`` for a coordinate
    whose products could overflow int64."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    if len(xs) and max(np.abs(xs).max(), np.abs(ys).max()) >= ORIENT_COORD_LIMIT:
        raise ValueError(f"ring coordinate beyond ±{ORIENT_COORD_LIMIT} overflows int64 orientations")
    n = len(xs)
    x, y = xs.astype(np.int64), ys.astype(np.int64)
    i, j = np.triu_indices(n, 2)
    keep = ~((i == 0) & (j == n - 1))  # adjacent edges share a vertex by design
    i, j = i[keep], j[keep]
    nxt = (np.arange(n) + 1) % n
    a, b, c, d = (np.stack([x[k], y[k]]) for k in (i, nxt[i], j, nxt[j]))

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        return np.sign(v)

    def on_segment(p, q, r, o):
        """r lies on segment pq, given o = orient(p, q, r)."""
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        return (o == 0) & (lo <= r).all(0) & (r <= hi).all(0)

    o1, o2, o3, o4 = orient(a, b, c), orient(a, b, d), orient(c, d, a), orient(c, d, b)
    touch = (
        ((o1 != o2) & (o3 != o4))
        | on_segment(a, b, c, o1)
        | on_segment(a, b, d, o2)
        | on_segment(c, d, a, o3)
        | on_segment(c, d, b, o4)
    )
    return int(touch.sum())
