"""Known answers (the gate of native/martinez.c's `martinez_batch`): the
`intersection` pairs the native kernel answers without its sweep carry
the bits of the ungated Python reference kernel (geom/boolean_op.py).

Every case runs the pairs through `native_boolean_batch` and compares
a sample of at most ``PY_ROWS`` rows with the reference kernel, bit for
bit; `boolean_batch` under the parametrized ``GEO_NATIVE`` gives the
same bits.  Classes (swept, RECT, CONTAINED) come from
`native.martinez`.  Near-misses, pairs outside the coordinate bounds
and every other op are swept, and pairs the kernel fails on still fail
the same way.  Bits are compared as uint64 views (kernel_cases.bits),
never with ``pa.Array.equals``, which treats -0.0 as 0.0."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from kernel_cases import assert_bit_identical, bits
from test_boolean_dispatch import _pairs

from rust_geo_booleanop_ray import native
from rust_geo_booleanop_ray.geom.boolean_op import boolean_op_python
from rust_geo_booleanop_ray.pipelines.catalog.spatial import (
    _part_rect_batch,
    _supplier_rect_batch,
)
from rust_geo_booleanop_ray.sources.arrow_geom import arrow_to_mps, flat_to_arrow, mps_to_arrow
from rust_geo_booleanop_ray.sources.images import _SIZES
from rust_geo_booleanop_ray.stages.boolean_batch import BooleanOpBatch, boolean_batch
from rust_geo_booleanop_ray.stages.cells import cell_bounds_array, cover_bbox, overlap_pairs
from rust_geo_booleanop_ray.stages.footprint import derive_footprints
from rust_geo_booleanop_ray.stages.join_clip import TileJoinClip

pytestmark = pytest.mark.skipif(not native.native_available(), reason="native kernel not built")

KERNELS = pytest.mark.parametrize("geo_native", ["1", "0"])
# the Python kernel takes ~0.1-1 ms a pair: it checks a sample
PY_ROWS = 300
SWEPT, RECT, CONTAINED = range(len(native.GATE_CLASSES))
COORD_MIN, COORD_MAX, SPREAD_MAX = native.COORD_MIN, native.COORD_MAX, native.SPREAD_MAX

NO_OUTPUT_CONTOUR = "previous result event has no output contour"


def _rings(rings):
    """One closed ring per row → multipolygon array."""
    sizes = np.array([len(r) for r in rings], np.int64)
    one = np.ones(len(rings), np.int64)
    return flat_to_arrow(np.concatenate(rings), sizes, one, one)


def _rect(x0, y0, x1, y1, start=0, cw=False):
    pts = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    if cw:
        pts = pts[::-1]
    pts = pts[start:] + pts[:start]
    return np.array(pts + pts[:1], dtype=np.float64)


def _take(op, rows):
    return op if isinstance(op, str) else op.take(rows)


def _reference(s, c, op):
    """The ungated Python reference kernel, row by row."""
    ops = [op] * len(s) if isinstance(op, str) else op.to_pylist()
    return mps_to_arrow(
        [boolean_op_python(a, b, o) for a, b, o in zip(arrow_to_mps(s), arrow_to_mps(c), ops)]
    )


def _sample(n):
    """At most PY_ROWS row indices, spread over ``n`` rows."""
    return pa.array(np.unique(np.linspace(0, n - 1, min(n, PY_ROWS)).astype(np.int64)))


def _check(monkeypatch, geo_native, s, c, op="intersection"):
    """native_boolean_batch ≡ the Python reference kernel, bit for bit,
    on a sample of the rows; boolean_batch under ``geo_native`` gives
    the same bits (the Python kernel on the sample).  Returns the class
    of every row."""
    monkeypatch.delenv("GEO_NATIVE", raising=False)
    got, cls = native.martinez(s, c, op)
    assert_bit_identical(native.native_boolean_batch(s, c, op), got)
    rows = _sample(len(s))
    s_, c_, op_ = s.take(rows), c.take(rows), _take(op, rows)
    assert_bit_identical(got.take(rows), _reference(s_, c_, op_))
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    if geo_native == "1":
        assert_bit_identical(boolean_batch(s, c, op), got)
    else:
        assert_bit_identical(boolean_batch(s_, c_, op_), got.take(rows))
    return cls


def _counted(s, c, op="intersection"):
    """(result, how many pairs of each class native_boolean_batch added
    to gate_counts)."""
    before = native.gate_counts()
    res = native.native_boolean_batch(s, c, op)
    after = native.gate_counts()
    return res, {k: after[k] - before[k] for k in native.GATE_CLASSES}


def _rect_pairs(rng, values, n):
    """Rect pairs whose x and y bounds are drawn from ``values``, each
    ring starting at a random corner."""
    subs, clips = [], []
    while len(subs) < n:
        xs, ys = rng.choice(values, 4), rng.choice(values, 4)
        if xs[0] == xs[1] or xs[2] == xs[3] or ys[0] == ys[1] or ys[2] == ys[3]:
            continue
        for ring, (a, b) in ((subs, (0, 2)), (clips, (2, 4))):
            x, y = np.sort(xs[a:b]), np.sort(ys[a:b])
            ring.append(_rect(x[0], y[0], x[1], y[1], start=rng.integers(4)))
    return _rings(subs), _rings(clips)


def _with_ulp_neighbours(v):
    return np.unique(np.concatenate([v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]))


def _polyjoin_pairs(seed):
    """The polyjoin benchmark's part × supplier rects for ``seed`` (20,000
    parts, sizes drawn after brands) paired by bbox-overlap candidates
    (``cells.overlap_pairs``), and each pair's overlap rect as (lo, hi)
    corners."""
    rng = np.random.default_rng(seed)
    n = 20_000
    rng.integers(1, 26, n)  # brands
    part = _part_rect_batch(
        pa.table(
            {
                "p_partkey": np.arange(n, dtype=np.int64),
                "p_size": rng.integers(1, 51, n).astype(np.int32),
            }
        )
    )
    sup = _supplier_rect_batch(pa.table({"s_suppkey": np.arange(1_000, dtype=np.int64)}))
    bounds = ("minx", "miny", "maxx", "maxy")
    row, build = overlap_pairs(sup, part)
    s = part["footprint"].combine_chunks().take(pa.array(row))
    c = sup["geom"].combine_chunks().take(pa.array(build))
    pb = np.stack([part[k].to_numpy()[row] for k in bounds])
    sb = np.stack([sup[k].to_numpy()[build] for k in bounds])
    return s, c, np.maximum(pb[:2], sb[:2]), np.minimum(pb[2:], sb[2:])


def _overlap_rects(lo, hi):
    """The closed form of rect ∩ rect: the CCW overlap rect from its
    least corner, or the empty multipolygon."""
    full = (lo[0] < hi[0]) & (lo[1] < hi[1])
    (x0, y0), (x1, y1) = lo[:, full], hi[:, full]
    xy = np.stack([x0, y0, x1, y0, x1, y1, x0, y1, x0, y0], axis=1).reshape(-1, 2)
    n = int(full.sum())
    return flat_to_arrow(xy, np.full(n, 5), np.ones(n, np.int64), full.astype(np.int64))


@KERNELS
def test_polyjoin_pairs(monkeypatch, geo_native):
    """The seed-131 polyjoin pairs: every one is a RECT pair, counted as
    such by gate_counts, its result the closed-form overlap rect (all
    rows natively, a sample through the Python kernel), empty where the
    rects only touch."""
    s, c, lo, hi = _polyjoin_pairs(131)
    assert len(s) > 500_000
    want = _overlap_rects(lo, hi)
    res, counts = _counted(s, c)
    assert counts == {"swept": 0, "rect": len(s), "contained": 0}
    assert_bit_identical(res, want)
    empty = pc.list_value_length(res).to_numpy() == 0
    assert 0.1 < empty.mean() < 0.5

    rows = _sample(len(s))
    s, c, want = s.take(rows), c.take(rows), want.take(rows)
    assert (_check(monkeypatch, geo_native, s, c) == RECT).all()
    assert_bit_identical(boolean_batch(s, c, "intersection"), want)


@KERNELS
@pytest.mark.parametrize("scale", [2.0**-40, 1e-6, 1.0, 1e6, 2.0**150])
def test_ulp_and_shared_edge_fuzz(monkeypatch, geo_native, scale):
    """Edges shared, 1 ULP apart or free, at several magnitudes."""
    rng = np.random.default_rng(7)
    subs, clips = [], []
    for _ in range(60):
        s, c = _rect_pairs(rng, _with_ulp_neighbours(rng.uniform(-1, 1, 3) * scale), 50)
        subs.append(s)
        clips.append(c)
    s, c = pa.concat_arrays(subs), pa.concat_arrays(clips)
    cls = _check(monkeypatch, geo_native, s, c)
    assert (cls == RECT).mean() > 0.2
    # the Python kernel's sample holds both classes
    assert set(cls[_sample(len(s)).to_numpy()]) == {SWEPT, RECT}


@KERNELS
def test_touching_pairs_are_empty(monkeypatch, geo_native):
    """Rects sharing only an edge or a corner intersect in nothing."""
    rng = np.random.default_rng(3)
    subs, clips = [], []
    for _ in range(400):
        x0, y0, x1, y1 = np.sort(rng.uniform(-5, 5, 4)).reshape(2, 2).T.ravel()
        w, h = rng.uniform(0.1, 3, 2)
        u0, u1 = np.sort(rng.uniform(x0 - 3, x1 + 3, 2))
        v0, v1 = np.sort(rng.uniform(y0 - 3, y1 + 3, 2))
        clip = [
            (x1, v0, x1 + w, v1),  # along an edge
            (x0 - w, v0, x0, v1),
            (u0, y1, u1, y1 + h),
            (u0, y0 - h, u1, y0),
            (x1, y1, x1 + w, y1 + h),  # at a corner
            (x0 - w, y0 - h, x0, y0),
        ][rng.integers(6)]
        subs.append(_rect(x0, y0, x1, y1, start=rng.integers(4)))
        clips.append(_rect(*clip, start=rng.integers(4)))
    s, c = _rings(subs), _rings(clips)
    assert (pc.list_value_length(native.native_boolean_batch(s, c, "intersection")).to_numpy() == 0).all()
    assert (_check(monkeypatch, geo_native, s, c) == RECT).all()


def _negate_zeros(arr):
    xy = bits(arr)[0].view(np.float64).copy()
    xy[xy == 0] = -0.0
    sizes = np.diff(bits(arr)[1])
    return flat_to_arrow(xy, sizes, np.ones(len(arr)), np.ones(len(arr)))


@KERNELS
def test_signed_zero_ties(monkeypatch, geo_native):
    """Small-integer ties with +0.0 are RECT pairs; a -0.0 anywhere in
    the pair sends it to the sweep, whose output then mixes signed
    zeros."""
    rng = np.random.default_rng(11)
    s, c = _rect_pairs(rng, np.arange(-2.0, 3.0), 1_500)
    assert (_check(monkeypatch, geo_native, s, c) == RECT).all()

    has_zero = np.array(
        [(np.asarray(a.as_py()) == 0).any() or (np.asarray(b.as_py()) == 0).any() for a, b in zip(s, c)]
    )
    s, c = _negate_zeros(s), _negate_zeros(c)
    cls = _check(monkeypatch, geo_native, s, c)
    assert (cls[has_zero] == SWEPT).all() and (cls[~has_zero] == RECT).all()


@KERNELS
def test_rect_mixing_signed_zeros_goes_to_the_kernel(monkeypatch, geo_native):
    """A rect whose zero coordinates mix 0.0 and -0.0 still has straight
    edges (0.0 - -0.0 == 0), and its bbox may show +0.0: at every start
    corner, with the -0.0 at any one zero coordinate of the subject or
    of the clipping, closing vertex included, the pair is swept."""
    subs, clips = [], []
    for start in range(4):
        for role in (0, 1):
            pair = [_rect(0, 0, 1, 1, start), _rect(0, 0, 2, 2, start)]
            for v in range(5):
                for axis in (0, 1):
                    if pair[role][v, axis] != 0:
                        continue
                    mixed = pair[role].copy()
                    mixed[v, axis] = -0.0
                    if v == 0:
                        mixed[4] = mixed[0]
                    subs.append(mixed if role == 0 else pair[0])
                    clips.append(mixed if role == 1 else pair[1])
    s, c = _rings(subs), _rings(clips)
    assert len(s) == 40
    assert (_check(monkeypatch, geo_native, s, c) == SWEPT).all()


def _spread_pair(big):
    """Smallest non-zero magnitude, extent and overlap 1; largest ``big``."""
    return _rings([_rect(0.0, 0.0, 1.0, big)]), _rings([_rect(0.0, 0.0, 2.0, 1.0)])


def _scaled(pair, k):
    s, c = pair
    return tuple(
        flat_to_arrow(bits(a)[0].view(np.float64) * k, [5], [1], [1])
        for a in (s, c)
    )


@KERNELS
def test_magnitude_bounds(monkeypatch, geo_native):
    """A pair at SPREAD_MAX, COORD_MAX or COORD_MIN exactly is a RECT
    pair with the kernel's bits; one ULP past each bound is swept."""
    past = np.nextafter(SPREAD_MAX, np.inf)
    assert _check(monkeypatch, geo_native, *_spread_pair(SPREAD_MAX)).tolist() == [RECT]
    assert _check(monkeypatch, geo_native, *_spread_pair(past)).tolist() == [SWEPT]

    # largest magnitude 2: scaled to COORD_MAX, and one ULP past it
    unit = (_rings([_rect(0.0, 0.0, 1.0, 2.0)]), _rings([_rect(1.0, 1.0, 2.0, 2.0)]))
    top = _scaled(unit, COORD_MAX / 2)
    assert _check(monkeypatch, geo_native, *top).tolist() == [RECT]
    assert _check(monkeypatch, geo_native, *_scaled(top, past / SPREAD_MAX)).tolist() == [SWEPT]
    # smallest magnitude and extent 1: scaled to COORD_MIN, one ULP below
    assert _check(monkeypatch, geo_native, *_scaled(unit, COORD_MIN)).tolist() == [RECT]
    below = np.nextafter(COORD_MIN, 0.0)
    assert _check(monkeypatch, geo_native, *_scaled(unit, below)).tolist() == [SWEPT]


def test_bounds_mirror_martinez_c():
    assert (COORD_MIN, COORD_MAX, SPREAD_MAX) == (2.0**-200, 2.0**200, 2.0**26)


@KERNELS
def test_kernel_past_the_spread_bound_is_not_the_closed_form(monkeypatch, geo_native):
    """Why the spread bound exists: mixing 1 with 1e20, the kernel adds
    a collinear vertex at (0, -1) to the overlap rect."""
    s, c = _rings([_rect(-1e20, -1.0, 2.0, 1.0)]), _rings([_rect(-1.0, -1.0, 1.0, 1.0)])
    assert _check(monkeypatch, geo_native, s, c).tolist() == [SWEPT]
    assert boolean_batch(s, c, "intersection").to_pylist() == [
        [[[[-1.0, -1.0], [0.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]]]]
    ]


@KERNELS
def test_overlap_a_few_ulps_wide_goes_to_the_kernel(monkeypatch, geo_native):
    """An overlap two ULPs wide counts as an extent against the spread
    bound: there the kernel nudges a collinear vertex into the rect."""
    x0, x1 = -0.3297699076995742, -0.3297699076995741
    s = _rings([_rect(-0.8400905336196427, -0.8400905336196427, x1, -0.3297699076995741, start=3)])
    c = _rings([_rect(x0, -0.8400905336196427, 0.8644531840952338, 0.8644531840952338, start=1)])
    assert _check(monkeypatch, geo_native, s, c).tolist() == [SWEPT]
    ring = boolean_batch(s, c, "intersection").to_pylist()[0][0][0]
    assert len(ring) == 6 and ring[1] == [np.nextafter(x0, 0.0), -0.8400905336196427]


# rect pairs on which both kernels fail: magnitudes 1 and 1e-300 mixed,
# and ULP-adjacent edges at 1e-161 (products underflow)
FAILING_RECT_PAIRS = [
    (_rect(0.0, -1.0, 1e-300, 1e-300, start=3), _rect(-1e-300, 0.0, 2.0, 1.0, start=2)),
    (
        np.array([
            [2.5928009277918165e-161, 8.167932118816811e-161],
            [2.5928009277918157e-161, 8.167932118816811e-161],
            [2.5928009277918157e-161, 2.592800927791816e-161],
            [2.5928009277918165e-161, 2.592800927791816e-161],
            [2.5928009277918165e-161, 8.167932118816811e-161],
        ]),
        np.array([
            [8.16793211881681e-161, 6.745574173721961e-161],
            [2.5928009277918157e-161, 6.745574173721961e-161],
            [2.5928009277918157e-161, 2.592800927791816e-161],
            [8.16793211881681e-161, 2.592800927791816e-161],
            [8.16793211881681e-161, 6.745574173721961e-161],
        ]),
    ),
]


@KERNELS
@pytest.mark.parametrize("pair", range(len(FAILING_RECT_PAIRS)))
def test_kernel_failures_still_raise(monkeypatch, geo_native, pair):
    """A rect pair the kernel fails on is swept: it still raises, also
    between RECT neighbours, and under on_error="null" it alone becomes
    null with the kernel's error while its neighbours keep their
    answers."""
    bad_s, bad_c = FAILING_RECT_PAIRS[pair]
    good_s, good_c = _rect(0.0, 0.0, 4.0, 4.0), _rect(2.0, 2.0, 6.0, 6.0)
    s, c = _rings([good_s, bad_s, good_s]), _rings([good_c, bad_c, good_c])
    good = pa.array([0, 2])
    assert native.martinez(s.take(good), c.take(good), "intersection")[1].tolist() == [RECT, RECT]
    with pytest.raises(RuntimeError, match=NO_OUTPUT_CONTOUR):
        native.martinez(s, c, "intersection")

    monkeypatch.setenv("GEO_NATIVE", geo_native)
    with pytest.raises(RuntimeError, match=NO_OUTPUT_CONTOUR):
        boolean_batch(s, c, "intersection")
    out = BooleanOpBatch("intersection", on_error="null")(pa.table({"subject": s, "clipping": c}))
    assert out["result"].is_valid().to_pylist() == [True, False, True]
    assert NO_OUTPUT_CONTOUR in out["result_error"][1].as_py()
    assert_bit_identical(
        out["result"].combine_chunks().take(good),
        _reference(s.take(good), c.take(good), "intersection"),
    )


def _footprints(first, n):
    idx = first + np.arange(n)
    return derive_footprints(
        pa.table(
            {
                "image_id": pa.array([f"img-{i:08d}" for i in idx]),
                "w": _SIZES[idx % len(_SIZES)],
                "h": _SIZES[(idx // 3) % len(_SIZES)],
            }
        )
    )


@KERNELS
def test_flagship_contained_footprints(monkeypatch, geo_native):
    """The tiles workload's seed-131 footprints (40,000 images) at
    tile_res 5: exactly the clips whose footprint bbox lies strictly
    inside the tile are CONTAINED pairs, counted as such by
    gate_counts, and TileJoinClip's clips carry the reference kernel's
    bits.  A contained footprint's result is not the ring as stored:
    the kernel starts it at its least vertex."""
    f = _footprints(131 * 40_000, 40_000)
    row, tiles = cover_bbox(*(f[k].to_numpy() for k in ("minx", "miny", "maxx", "maxy")), 5)
    tx0, ty0, tx1, ty1 = cell_bounds_array(tiles)
    b = [f[k].to_numpy()[row] for k in ("minx", "miny", "maxx", "maxy")]
    inside = (b[0] > tx0) & (b[1] > ty0) & (b[2] < tx1) & (b[3] < ty1)
    s = f["footprint"].combine_chunks().take(pa.array(row))
    c = _rings([_rect(*r) for r in zip(tx0, ty0, tx1, ty1)])
    assert inside.sum() > 0.4 * len(row)

    got, cls = native.martinez(s, c, "intersection")
    assert (cls == np.where(inside, CONTAINED, SWEPT)).all()
    counts = _counted(s, c)[1]
    assert counts == {"swept": int((~inside).sum()), "rect": 0, "contained": int(inside.sum())}
    rows = pa.array(np.flatnonzero(inside))
    stored, clipped = bits(s.take(rows))[0], bits(got.take(rows))[0]
    assert len(stored) == len(clipped) and (stored != clipped).any()

    # a sample of each class through the Python kernel
    few = np.concatenate([np.flatnonzero(inside)[:150], np.flatnonzero(~inside)[:150]])
    assert (_check(monkeypatch, geo_native, s.take(few), c.take(few)) == cls[few]).all()
    f = f.take(pa.array(np.unique(row[few])))
    picked = np.isin(row, row[few])
    want = got.filter(pa.array(picked))
    want = want.filter(pc.greater(pc.list_value_length(want), 0))
    assert_bit_identical(TileJoinClip(5)(f)["clip"].combine_chunks(), want)


def _convex(rng, k, scale):
    """A CCW convex k-gon on a random ellipse, its bbox about ``scale``
    wide, at an offset of a few ``scale``s."""
    t = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
    a, b, rot = 1.0, rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0 * np.pi)
    x, y = a * np.cos(t), b * np.sin(t)
    pts = np.column_stack([x * np.cos(rot) - y * np.sin(rot), x * np.sin(rot) + y * np.cos(rot)])
    return (pts + rng.uniform(-3.0, 3.0, 2)) * scale


@KERNELS
@pytest.mark.parametrize("scale", [2.0**-100, 1e-9, 1.0, 1e3, 1e12, 2.0**120])
def test_contained_convex_polygons(monkeypatch, geo_native, scale):
    """Convex 3- to 12-gons strictly inside a rect are CONTAINED pairs
    with the reference kernel's bits; a third of them sit one ULP inside
    the rect's edges, where the gap is an extent past the spread bound
    and the pair is swept."""
    rng = np.random.default_rng(int(np.log2(scale)) + 1000)
    subs, clips, tight = [], [], []
    for i in range(PY_ROWS):
        pts = _convex(rng, 3 + i % 10, scale)
        lo, hi = pts.min(0), pts.max(0)
        if i % 3 == 0:
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        else:
            lo, hi = lo - rng.uniform(0.01, 2.0, 2) * scale, hi + rng.uniform(0.01, 2.0, 2) * scale
        subs.append(np.concatenate([pts, pts[:1]]))
        clips.append(_rect(*lo, *hi, start=rng.integers(4)))
        tight.append(i % 3 == 0)
    cls = _check(monkeypatch, geo_native, _rings(subs), _rings(clips))
    tight = np.array(tight)
    assert (cls[~tight] == CONTAINED).all() and (cls[tight] == SWEPT).all()


def _closed(pts):
    pts = [(float(x), float(y)) for x, y in pts]
    return pts + pts[:1]


SQUARE = [[_closed([(0, 0), (8, 0), (8, 8), (0, 8)])]]
PENTAGON = [(4, 1), (7, 3), (6, 7), (2, 7), (1, 3)]
NEAR_MISSES = {
    "non-axis-aligned clipping": ([[_closed([(1, 1), (5, 1), (5, 5), (1, 5)])]],
                                  [[_closed([(4, 0), (8, 4), (4, 8), (0, 4)])]]),
    "non-axis-aligned subject across the clip": ([[_closed([(4, -2), (10, 4), (4, 10), (-2, 4)])]], SQUARE),
    "rect with a repeated vertex": ([[_closed([(2, 2), (10, 2), (10, 2), (10, 10), (2, 10)])]], SQUARE),
    "CW rect": ([[_closed([(2, 2), (2, 10), (10, 10), (10, 2)])]], SQUARE),
    "CW clipping rect": ([[_closed([(2, 2), (10, 2), (10, 10), (2, 10)])]],
                         [[_closed([(0, 0), (0, 8), (8, 8), (8, 0)])]]),
    "rect with a hole": ([[_closed([(2, 2), (10, 2), (10, 10), (2, 10)]),
                           _closed([(3, 3), (3, 4), (4, 4), (4, 3)])]], SQUARE),
    "multipolygon of two rects": ([[_closed([(1, 1), (3, 1), (3, 3), (1, 3)])],
                                   [_closed([(5, 5), (7, 5), (7, 7), (5, 7)])]], SQUARE),
    "open rect": ([[[(2.0, 2.0), (10.0, 2.0), (10.0, 10.0), (2.0, 10.0)]]], SQUARE),
    # a convex ring inside the square, but not a CONTAINED pair
    "contained: vertex on the rect boundary": ([[_closed([(4, 0), (7, 3), (6, 7), (2, 7), (1, 3)])]], SQUARE),
    "contained: collinear vertex": ([[_closed([(4, 1), (7, 3), (6, 7), (4, 7), (2, 7), (1, 3)])]], SQUARE),
    "contained: repeated vertex": ([[_closed([(4, 1), (7, 3), (7, 3), (6, 7), (2, 7), (1, 3)])]], SQUARE),
    "contained: CW ring": ([[_closed(PENTAGON[::-1])]], SQUARE),
    "contained: reflex vertex": ([[_closed([(4, 1), (7, 3), (6, 7), (4, 5), (2, 7), (1, 3)])]], SQUARE),
    "contained: doubly wound pentagram": ([[_closed([PENTAGON[i] for i in (0, 2, 4, 1, 3)])]], SQUARE),
    "contained: ring with a hole": ([[_closed(PENTAGON), _closed([(3, 3), (3, 4), (4, 4), (4, 3)])]], SQUARE),
    "contained: two polygons": ([[_closed(PENTAGON)], [_closed([(1, 5), (2, 5), (2, 6)])]], SQUARE),
    "contained: -0.0 vertex": ([[_closed([(0.5, 1), (1, -0.0), (1.5, 1)])]],
                               [[_closed([(-1, -1), (2, -1), (2, 2), (-1, 2)])]]),
    "contained: -0.0 closing vertex": ([[[(1.0, 0.0), (1.5, 1.0), (0.5, 1.0), (1.0, -0.0)]]],
                                       [[_closed([(-1, -1), (2, -1), (2, 2), (-1, 2)])]]),
    "contained: below COORD_MIN": ([[_closed([(4e-62, 1e-62), (7e-62, 3e-62), (6e-62, 7e-62)])]],
                                   [[_closed([(0, 0), (8e-62, 0), (8e-62, 8e-62), (0, 8e-62)])]]),
    "contained: above COORD_MAX": ([[_closed(np.array(PENTAGON) * 2.0**199)]],
                                   [[_closed(np.array([(0, 0), (8, 0), (8, 8), (0, 8)]) * 2.0**199)]]),
    "contained: spread past SPREAD_MAX": ([[_closed([(4, 1), (7, 3), (6, 7)])]],
                                          [[_closed([(0, 0), (1e9, 0), (1e9, 8), (0, 8)])]]),
    # the neighbours of a one-ULP edge meet in the kernel's float
    # crossing test: it splits the ring into two polygons there
    "contained: one-ULP edge": (
        [[_closed([(7390330431553137.0, 4729156982111889.0), (7390330431553138.0, 4729156982111889.0),
                   (2031883581885910.5, 1.028723168603691e16), (-3415857396899442.0, 8739035202127605.0)])]],
        [[_closed([(-5237481079001508.0, 2341688941094172.5), (1.797992660442645e16, 2341688941094172.5),
                   (1.797992660442645e16, 1.265170191786874e16), (-5237481079001508.0, 1.265170191786874e16)])]],
    ),
}
CONTAINED_PENTAGON = ([[_closed(PENTAGON)]], SQUARE)


@KERNELS
@pytest.mark.parametrize("name", NEAR_MISSES)
def test_near_misses_go_to_the_kernel(monkeypatch, geo_native, name):
    subject, clipping = NEAR_MISSES[name]
    s, c = mps_to_arrow([subject]), mps_to_arrow([clipping])
    assert _check(monkeypatch, geo_native, s, c).tolist() == [SWEPT]


@KERNELS
def test_contained_pentagon_starts_at_its_least_vertex(monkeypatch, geo_native):
    """The near-misses' control: the pentagon they bend is CONTAINED,
    its result the ring from (1, 3)."""
    s, c = (mps_to_arrow([g]) for g in CONTAINED_PENTAGON)
    assert _check(monkeypatch, geo_native, s, c).tolist() == [CONTAINED]
    ring = [tuple(p) for p in boolean_batch(s, c, "intersection").to_pylist()[0][0][0]]
    assert ring == _closed(PENTAGON[4:] + PENTAGON[:4])


@KERNELS
def test_other_ops_go_to_the_kernel(monkeypatch, geo_native):
    """Only `intersection` pairs have known answers: a scalar op other
    than it sweeps every pair, and a per-row op array sweeps its other
    rows, with results in row order."""
    rng = np.random.default_rng(2)
    s, c = _rect_pairs(rng, np.arange(0.0, 6.0), 40)
    inside = _rings([np.array(PENTAGON + PENTAGON[:1], np.float64)] * 40)
    square = mps_to_arrow([SQUARE] * 40)
    s, c = pa.concat_arrays([s, inside]), pa.concat_arrays([c, square])
    ops = pa.array(rng.choice(["intersection", "union", "difference", "xor"], len(s)))
    is_inter = ops.to_numpy(zero_copy_only=False) == "intersection"
    assert _counted(s, c, ops)[1] == {
        "swept": int((~is_inter).sum()),
        "rect": int(is_inter[:40].sum()),
        "contained": int(is_inter[40:].sum()),
    }

    for op in ("union", "difference", "xor"):
        assert (_check(monkeypatch, geo_native, s, c, op) == SWEPT).all()
    known = np.where(np.arange(len(s)) < 40, RECT, CONTAINED)
    assert (_check(monkeypatch, geo_native, s, c, ops) == np.where(is_inter, known, SWEPT)).all()


@KERNELS
def test_differential_pairs(monkeypatch, geo_native):
    """The dispatch test's degenerate pairs: the pairs with a known
    answer carry the reference kernel's bits."""
    subs, clips = _pairs()
    s, c = mps_to_arrow(subs), mps_to_arrow(clips)
    cls = []
    for i in range(len(s)):  # alone, as some of them fail the sweep
        try:
            cls.append(native.martinez(s.slice(i, 1), c.slice(i, 1), "intersection")[1][0])
        except RuntimeError:
            cls.append(SWEPT)
    rows = pa.array(np.flatnonzero(np.array(cls) != SWEPT))
    assert len(rows) > 5
    _check(monkeypatch, geo_native, s.take(rows), c.take(rows))
