"""`functions/simplify.py::ring_self_intersections`, the vectorized int64
orientation test, against the per-pair Python-int loop it replaced, on
seeded lattice rings (bowties, collinear touches, repeated vertices)
and the `geom_validate` corpus; coordinates whose orientation products
could overflow int64 raise instead of wrapping."""

import numpy as np
import pytest

from rust_geo_booleanop_ray.functions.simplify import (
    ORIENT_COORD_LIMIT,
    ring_self_intersections,
)
from rust_geo_booleanop_ray.pipelines.catalog.spatial import VALID_N, _validate_ring


def _orient(ax, ay, bx, by, cx, cy):
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return 0 if v == 0 else (1 if v > 0 else -1)


def _on_segment(ax, ay, bx, by, px, py):
    return (
        min(ax, bx) <= px <= max(ax, bx)
        and min(ay, by) <= py <= max(ay, by)
        and _orient(ax, ay, bx, by, px, py) == 0
    )


def _segments_intersect(a, b, c, d):
    o1, o2 = _orient(*a, *b, *c), _orient(*a, *b, *d)
    o3, o4 = _orient(*c, *d, *a), _orient(*c, *d, *b)
    return (
        (o1 != o2 and o3 != o4)
        or (o1 == 0 and _on_segment(*a, *b, *c))
        or (o2 == 0 and _on_segment(*a, *b, *d))
        or (o3 == 0 and _on_segment(*c, *d, *a))
        or (o4 == 0 and _on_segment(*c, *d, *b))
    )


def _loop_count(xs, ys):
    """The per-pair loop over Python ints: non-adjacent edge pairs of
    the closed ring that touch or cross."""
    n = len(xs)
    pts = [(int(xs[i]), int(ys[i])) for i in range(n)]
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    return sum(
        _segments_intersect(*edges[i], *edges[j])
        for i in range(n)
        for j in range(i + 2, n)
        if not (i == 0 and j == n - 1)
    )


def test_matches_the_loop_on_seeded_lattice_rings():
    """Rings of 0-10 vertices on a 7×7 lattice: bowties, collinear
    overlaps and touches and repeated vertices are common."""
    rng = np.random.default_rng(5)
    counts = []
    for _ in range(3_000):
        n = int(rng.integers(0, 11))
        xs, ys = rng.integers(-3, 4, n), rng.integers(-3, 4, n)
        counts.append(ring_self_intersections(xs, ys))
        assert counts[-1] == _loop_count(xs, ys), (xs.tolist(), ys.tolist())
    assert min(counts) == 0 and max(counts) > 10


def test_bowtie_and_collinear_touch():
    assert ring_self_intersections(np.array([0, 4, 4, 0]), np.array([0, 4, 0, 4])) == 1
    # a square whose top edge runs back along itself: collinear touches
    xs, ys = np.array([0, 4, 4, 2, 4, 0]), np.array([0, 0, 4, 4, 4, 4])
    assert ring_self_intersections(xs, ys) == _loop_count(xs, ys) > 0
    assert ring_self_intersections(np.array([0, 4, 4, 0]), np.array([0, 0, 4, 4])) == 0


def test_matches_the_loop_on_the_validate_corpus():
    rings = [_validate_ring(i) for i in range(0, VALID_N, 7)]
    got = [ring_self_intersections(xs, ys) for xs, ys in rings]
    assert got == [_loop_count(xs, ys) for xs, ys in rings]
    assert 0 in got and any(got)


def test_large_coordinates_raise():
    big = ORIENT_COORD_LIMIT
    xs, ys = np.array([0, big - 1, big - 1, 0]), np.array([0, 0, big - 1, big - 1])
    assert ring_self_intersections(xs, ys) == _loop_count(xs, ys) == 0
    xs, ys = np.array([0, big, 0, big]), np.array([0, big, big, 0])
    with pytest.raises(ValueError, match="overflow"):
        ring_self_intersections(xs, ys)
    with pytest.raises(ValueError, match="overflow"):
        ring_self_intersections(-xs, ys)
