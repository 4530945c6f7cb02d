"""The one kernel dispatch point, `boolean_batch`: the native batch
kernel and the reference Python kernel (GEO_NATIVE=0) give bit-identical
output on degenerate inputs, null rows map to null results on both
kernels, and op names translate in one vectorized lookup."""

import numpy as np
import pyarrow as pa
import pytest
from kernel_cases import assert_bit_identical

from rust_geo_booleanop_ray import native
from rust_geo_booleanop_ray.geom.boolean_op import boolean_op_python
from rust_geo_booleanop_ray.sources.arrow_geom import arrow_to_mps, mps_to_arrow
from rust_geo_booleanop_ray.stages.boolean_batch import BooleanOpBatch, boolean_batch

OPS = ("intersection", "difference", "union", "xor")

A = [[[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]]
B = [[[(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0), (2.0, 2.0)]]]


def _ring(pts, close=True):
    pts = [(float(x), float(y)) for x, y in pts]
    return pts + pts[:1] if close and pts else pts


def _lattice(rng):
    """Polygon on a 5×5 integer lattice: collinear overlapping edges,
    shared vertices and self-intersections are common."""
    return [[_ring(rng.integers(0, 5, size=(rng.integers(3, 7), 2)))]]


def _lattice_rect(rng):
    x0, y0 = rng.integers(0, 4, 2)
    x1, y1 = x0 + rng.integers(1, 3), y0 + rng.integers(1, 3)
    return [[_ring([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])]]


def _holed(rng):
    o = rng.integers(0, 2, 2)
    outer = _ring([(o[0], o[1]), (o[0] + 4, o[1]), (o[0] + 4, o[1] + 4), (o[0], o[1] + 4)])
    hole = _ring([(o[0] + 1, o[1] + 1), (o[0] + 1, o[1] + 3), (o[0] + 3, o[1] + 3), (o[0] + 3, o[1] + 1)])
    return [[outer, hole]]


def _open(rng):
    """An open ring: the closing edge is absent."""
    return [[_ring(rng.uniform(0, 4, size=(rng.integers(3, 6), 2)), close=False)]]


def _two_polys(rng):
    return _lattice_rect(rng) + _lattice(rng)


def _degenerate(rng):
    """Empty multipolygon, or rings of 0, 1 or 2 vertices."""
    return [
        [],
        [[[]]],
        [[[(1.0, 1.0)]]],
        [[[(0.0, 0.0), (3.0, 3.0)]]],
        [[_ring([(0, 0), (3, 0), (3, 3)]), []]],
    ][rng.integers(0, 5)]


_KINDS = [_lattice, _lattice_rect, _holed, _open, _two_polys, _degenerate]


def _ulp_neighbour(mp, rng):
    """The same rings with every coordinate moved 0 or ±1 ULP."""
    out = []
    for poly in mp:
        rings = []
        for ring in poly:
            xy = np.asarray(ring, dtype=np.float64).reshape(-1, 2)
            step = rng.integers(-1, 2, size=xy.shape)
            moved = np.where(step == 0, xy, np.nextafter(xy, np.where(step < 0, -np.inf, np.inf)))
            rings.append([(float(x), float(y)) for x, y in moved])
        out.append(rings)
    return out


def _pairs(seed=20261017, n=300):
    rng = np.random.default_rng(seed)
    subs, clips = [], []
    for i in range(n):
        s = _KINDS[rng.integers(0, len(_KINDS))](rng)
        if i % 4 == 0:
            c = _ulp_neighbour(s, rng)
        else:
            c = _KINDS[rng.integers(0, len(_KINDS))](rng)
        subs.append(s)
        clips.append(c)
    return subs, clips


def _run(batch):
    out = BooleanOpBatch(op_column="op", on_error="null")(batch)
    return out["result"].combine_chunks(), out["result_error"].to_pylist()


@pytest.mark.skipif(not native.native_available(), reason="native kernel not built")
def test_native_matches_reference_kernel_bit_for_bit(monkeypatch):
    """Every pair gives the same bits on both kernels, or fails on both
    for the same reason (where the reference panics or never ends)."""
    subs, clips = _pairs()
    n = len(subs)
    batch = pa.table(
        {
            "subject": mps_to_arrow(subs * len(OPS)),
            "clipping": mps_to_arrow(clips * len(OPS)),
            "op": pa.array([op for op in OPS for _ in range(n)]),
        }
    )
    got, got_err = _run(batch)
    monkeypatch.setenv("GEO_NATIVE", "0")
    ref, ref_err = _run(batch)
    assert_bit_identical(got, ref)
    for g, r in zip(got_err, ref_err):
        assert (g is None) == (r is None)
        if r is not None:  # "RuntimeError: <reason>" on both kernels
            assert r.split(": ", 1)[1] in g

    # a scalar op gives the same rows as the per-row op list
    monkeypatch.delenv("GEO_NATIVE")
    ok = np.array([e is None for e in got_err])
    for k, op in enumerate(OPS):
        rows = pa.array(k * n + np.flatnonzero(ok[k * n : (k + 1) * n]))
        assert_bit_identical(
            boolean_batch(batch["subject"].take(rows), batch["clipping"].take(rows), op),
            got.take(rows),
        )


@pytest.mark.parametrize("geo_native", ["1", "0"])
def test_null_rows_give_null_results(monkeypatch, geo_native):
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    kernel_rows = []
    real = native.native_boolean_batch

    def spy(subject, clipping, ops):
        kernel_rows.append(len(subject))
        return real(subject, clipping, ops)

    monkeypatch.setattr(native, "native_boolean_batch", spy)
    subj = mps_to_arrow([A, None, A, A, None])
    clip = mps_to_arrow([B, B, None, B, None])
    ops = ["intersection", "union", "xor", "union", "difference"]

    res = boolean_batch(subj, clip, pa.array(ops))
    # the two valid rows reach the kernel in one call; under
    # GEO_NATIVE=1 the rect ∩ rect one takes the native known-answer gate
    assert kernel_rows == [2]
    assert arrow_to_mps(res) == [
        boolean_op_python(A, B, "intersection"),
        None,
        None,
        boolean_op_python(A, B, "union"),
        None,
    ]

    res = boolean_batch(mps_to_arrow([None, None]), mps_to_arrow([A, B]), "union")
    assert res.to_pylist() == [None, None]


@pytest.mark.parametrize("geo_native", ["1", "0"])
def test_unknown_op_raises_naming_it(monkeypatch, geo_native):
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    subj, clip = mps_to_arrow([A, A]), mps_to_arrow([B, B])
    with pytest.raises(ValueError, match="not_an_op"):
        boolean_batch(subj, clip, ["intersection", "not_an_op"])
    with pytest.raises(ValueError, match="bogus"):
        boolean_batch(subj, clip, "bogus")


@pytest.mark.parametrize("geo_native", ["1", "0"])
def test_corner_touching_bboxes_can_intersect(monkeypatch, geo_native):
    """A gate that skips `intersection` when the two bboxes share no
    interior is unsound on invalid input: these bboxes touch only at
    (1, 1), yet the self-intersecting clipping ring gives a non-empty
    result on both kernels."""
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    holed = [[
        _ring([(1, 1), (5, 1), (5, 5), (1, 5)]),
        _ring([(2, 2), (2, 4), (4, 4), (4, 2)]),
    ]]
    crossing = [[_ring([(1, 0), (0, 1), (-2, -2), (1, -3), (0, 1), (-2, -2)])]]
    res = boolean_batch(mps_to_arrow([holed]), mps_to_arrow([crossing]), "intersection")
    assert arrow_to_mps(res) == [[[[(1.0, 5.0), (1.0, 5.0)]]]]
