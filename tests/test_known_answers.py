"""Known answers (stages/known_answers.py): the rect ∩ rect rows that
`boolean_batch` answers without the sweep carry the kernel's bits, on
the native and on the Python kernel.
Near-misses, pairs outside the coordinate bounds and every other op go
to the kernel, and rows the kernel fails on still fail the same way.
Bits are compared as uint64 views (kernel_cases.bits), never with
``pa.Array.equals``, which treats -0.0 as 0.0."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from kernel_cases import assert_bit_identical, bits
from test_boolean_dispatch import _pairs

from rust_geo_booleanop_ray import native
from rust_geo_booleanop_ray.functions.rtree import STRtree
from rust_geo_booleanop_ray.pipelines.catalog.spatial import (
    _part_rect_batch,
    _supplier_rect_batch,
)
from rust_geo_booleanop_ray.sources.arrow_geom import flat_to_arrow, mps_to_arrow
from rust_geo_booleanop_ray.sources.images import _SIZES
from rust_geo_booleanop_ray.stages import boolean_batch as dispatch
from rust_geo_booleanop_ray.stages.boolean_batch import BooleanOpBatch, boolean_batch
from rust_geo_booleanop_ray.stages.cells import cell_bounds_array, cover_bbox
from rust_geo_booleanop_ray.stages.footprint import derive_footprints
from rust_geo_booleanop_ray.stages.join_clip import TileJoinClip
from rust_geo_booleanop_ray.stages.known_answers import (
    COORD_MAX,
    COORD_MIN,
    KERNEL,
    RECT,
    SPREAD_MAX,
    known_answers,
)

KERNELS = pytest.mark.parametrize("geo_native", ["1", "0"])
# the Python kernel takes ~0.1-1 ms a pair: it checks a sample
PY_ROWS = 300

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


def _check(monkeypatch, geo_native, s, c, op="intersection"):
    """boolean_batch ≡ the kernel it dispatches to, bit for bit (the
    Python kernel on a sample of the rows); the class of every row."""
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    cls = known_answers(s, c, op)[0]
    if geo_native == "0" and len(s) > PY_ROWS:
        rows = pa.array(np.linspace(0, len(s) - 1, PY_ROWS).astype(np.int64))
        s, c = s.take(rows), c.take(rows)
        op = op if isinstance(op, str) else op.take(rows)
    assert_bit_identical(boolean_batch(s, c, op), dispatch._kernel(s, c, op))
    return cls


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


@KERNELS
def test_polyjoin_pairs(monkeypatch, geo_native):
    """The poly_join_big pairs: STR-tree candidates of part × supplier
    rects, every one a RECT row, empty where they only touch."""
    rng = np.random.default_rng(131)
    n = 2_000
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
    tree = STRtree(*(sup[k].to_numpy() for k in bounds))
    row, build = tree.query_many(*(part[k].to_numpy() for k in bounds))
    s = part["footprint"].combine_chunks().take(pa.array(row))
    c = sup["geom"].combine_chunks().take(pa.array(build))
    assert len(s) > 50_000
    assert (_check(monkeypatch, geo_native, s, c) == RECT).all()
    res = boolean_batch(s, c, "intersection")
    empty = pc.list_value_length(res).to_numpy() == 0
    assert 0.1 < empty.mean() < 0.5


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
    assert (_check(monkeypatch, geo_native, s, c) == RECT).all()
    assert (pc.list_value_length(boolean_batch(s, c, "intersection")).to_numpy() == 0).all()


@KERNELS
def test_signed_zero_ties(monkeypatch, geo_native):
    """Small-integer ties with +0.0 are RECT rows; a -0.0 anywhere in
    the pair sends it to the kernel, whose output then mixes signed
    zeros."""
    rng = np.random.default_rng(11)
    s, c = _rect_pairs(rng, np.arange(-2.0, 3.0), 1_500)
    assert (_check(monkeypatch, geo_native, s, c) == RECT).all()

    def negate_zeros(arr):
        xy = bits(arr)[0].view(np.float64).copy()
        xy[xy == 0] = -0.0
        return flat_to_arrow(xy, np.full(len(arr), 5), np.ones(len(arr)), np.ones(len(arr)))

    has_zero = np.array(
        [(np.asarray(a.as_py()) == 0).any() or (np.asarray(b.as_py()) == 0).any() for a, b in zip(s, c)]
    )
    s, c = negate_zeros(s), negate_zeros(c)
    cls = _check(monkeypatch, geo_native, s, c)
    assert (cls[has_zero] == KERNEL).all() and (cls[~has_zero] == RECT).all()


@KERNELS
def test_rect_mixing_signed_zeros_goes_to_the_kernel(monkeypatch, geo_native):
    """A rect whose zero coordinates mix 0.0 and -0.0 still has straight
    edges (0.0 - -0.0 == 0), and its bbox may show +0.0: at every start
    corner, with the -0.0 at any one zero coordinate of the subject or
    of the clipping, the row goes to the kernel."""
    subs, clips = [], []
    for start in range(4):
        for role in (0, 1):
            pair = [_rect(0, 0, 1, 1, start), _rect(0, 0, 2, 2, start)]
            for v in range(4):
                for axis in (0, 1):
                    if pair[role][v, axis] != 0:
                        continue
                    mixed = pair[role].copy()
                    mixed[v, axis] = -0.0
                    mixed[4] = mixed[0]
                    subs.append(mixed if role == 0 else pair[0])
                    clips.append(mixed if role == 1 else pair[1])
    s, c = _rings(subs), _rings(clips)
    assert len(s) == 32
    assert (_check(monkeypatch, geo_native, s, c) == KERNEL).all()


def _spread_pair(big):
    """Smallest non-zero magnitude, extent and overlap 1; largest ``big``."""
    return _rings([_rect(0.0, 0.0, 1.0, big)]), _rings([_rect(0.0, 0.0, 2.0, 1.0)])


def _scaled(pair, k):
    s, c = pair
    return tuple(
        flat_to_arrow(bits(a)[0].view(np.float64) * k, [5], [1], [1]) for a in (s, c)
    )


@KERNELS
def test_magnitude_bounds(monkeypatch, geo_native):
    """A pair at SPREAD_MAX, COORD_MAX or COORD_MIN exactly is a RECT
    row with the kernel's bits; one ULP past each bound goes to the
    kernel."""
    past = np.nextafter(SPREAD_MAX, np.inf)
    assert _check(monkeypatch, geo_native, *_spread_pair(SPREAD_MAX)).tolist() == [RECT]
    assert _check(monkeypatch, geo_native, *_spread_pair(past)).tolist() == [KERNEL]

    # largest magnitude 2: scaled to COORD_MAX, and one ULP past it
    unit = (_rings([_rect(0.0, 0.0, 1.0, 2.0)]), _rings([_rect(1.0, 1.0, 2.0, 2.0)]))
    top = _scaled(unit, COORD_MAX / 2)
    assert _check(monkeypatch, geo_native, *top).tolist() == [RECT]
    assert _check(monkeypatch, geo_native, *_scaled(top, past / SPREAD_MAX)).tolist() == [KERNEL]
    # smallest magnitude and extent 1: scaled to COORD_MIN, one ULP below
    assert _check(monkeypatch, geo_native, *_scaled(unit, COORD_MIN)).tolist() == [RECT]
    below = np.nextafter(COORD_MIN, 0.0)
    assert _check(monkeypatch, geo_native, *_scaled(unit, below)).tolist() == [KERNEL]


@KERNELS
def test_kernel_past_the_spread_bound_is_not_the_closed_form(monkeypatch, geo_native):
    """Why the spread bound exists: mixing 1 with 1e20, the kernel adds
    a collinear vertex at (0, -1) to the overlap rect."""
    s, c = _rings([_rect(-1e20, -1.0, 2.0, 1.0)]), _rings([_rect(-1.0, -1.0, 1.0, 1.0)])
    assert _check(monkeypatch, geo_native, s, c).tolist() == [KERNEL]
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
    assert _check(monkeypatch, geo_native, s, c).tolist() == [KERNEL]
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
    """A rect pair the kernel fails on is a KERNEL row: it still raises,
    and under on_error="null" it alone becomes null with the kernel's
    error while its RECT neighbours keep their answers."""
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    bad_s, bad_c = FAILING_RECT_PAIRS[pair]
    good_s, good_c = _rect(0.0, 0.0, 4.0, 4.0), _rect(2.0, 2.0, 6.0, 6.0)
    s, c = _rings([good_s, bad_s, good_s]), _rings([good_c, bad_c, good_c])
    assert known_answers(s, c, "intersection")[0].tolist() == [RECT, KERNEL, RECT]
    with pytest.raises(RuntimeError, match=NO_OUTPUT_CONTOUR):
        boolean_batch(s, c, "intersection")

    out = BooleanOpBatch("intersection", on_error="null")(pa.table({"subject": s, "clipping": c}))
    assert out["result"].is_valid().to_pylist() == [True, False, True]
    assert NO_OUTPUT_CONTOUR in out["result_error"][1].as_py()
    good = pa.array([0, 2])
    assert_bit_identical(
        out["result"].combine_chunks().take(good),
        dispatch._kernel(s.take(good), c.take(good), "intersection"),
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
    """The tiles workload's seed-131 footprints at tile_res 5, many with
    their bbox strictly inside their tile: TileJoinClip's clips equal
    the kernel's bits.  For a contained footprint that is not the ring
    as stored; the kernel starts it at its least vertex."""
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    f = _footprints(131 * 40_000, 4_000 if geo_native == "1" else 150)
    row, tiles = cover_bbox(*(f[k].to_numpy() for k in ("minx", "miny", "maxx", "maxy")), 5)
    tx0, ty0, tx1, ty1 = cell_bounds_array(tiles)
    b = [f[k].to_numpy()[row] for k in ("minx", "miny", "maxx", "maxy")]
    inside = (b[0] > tx0) & (b[1] > ty0) & (b[2] < tx1) & (b[3] < ty1)
    s = f["footprint"].combine_chunks().take(pa.array(row))
    c = _rings([_rect(*r) for r in zip(tx0, ty0, tx1, ty1)])
    assert inside.sum() > 0.4 * len(row)

    want = dispatch._kernel(s, c, "intersection")
    rows = pa.array(np.flatnonzero(inside))
    stored, clipped = bits(s.take(rows))[0], bits(want.take(rows))[0]
    assert len(stored) == len(clipped) and (stored != clipped).any()
    want = want.filter(pc.greater(pc.list_value_length(want), 0))
    assert_bit_identical(TileJoinClip(5)(f)["clip"].combine_chunks(), want)


def _closed(pts):
    pts = [(float(x), float(y)) for x, y in pts]
    return pts + pts[:1]


SQUARE = [[_closed([(0, 0), (8, 0), (8, 8), (0, 8)])]]
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
}


@KERNELS
@pytest.mark.parametrize("name", NEAR_MISSES)
def test_near_misses_go_to_the_kernel(monkeypatch, geo_native, name):
    subject, clipping = NEAR_MISSES[name]
    s, c = mps_to_arrow([subject]), mps_to_arrow([clipping])
    assert _check(monkeypatch, geo_native, s, c).tolist() == [KERNEL]


@KERNELS
def test_other_ops_go_to_the_kernel(monkeypatch, geo_native):
    """Only `intersection` rows have known answers: a scalar op other
    than it sends every row to the kernel, and a per-row op array sends
    its other rows there, with results in row order."""
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    rng = np.random.default_rng(2)
    s, c = _rect_pairs(rng, np.arange(0.0, 6.0), 40)
    for op in ("union", "difference", "xor"):
        assert (_check(monkeypatch, geo_native, s, c, op) == KERNEL).all()

    ops = pa.array(rng.choice(["intersection", "union", "difference", "xor"], len(s)))
    is_inter = (ops.to_numpy(zero_copy_only=False) == "intersection")
    assert (_check(monkeypatch, geo_native, s, c, ops) == np.where(is_inter, RECT, KERNEL)).all()

    kernel_rows = []
    real = native.native_boolean_batch

    def spy(subject, clipping, op):
        kernel_rows.append(len(subject))
        return real(subject, clipping, op)

    monkeypatch.setattr(native, "native_boolean_batch", spy)
    boolean_batch(s, c, ops)
    assert kernel_rows == [int((~is_inter).sum())]
    kernel_rows.clear()
    boolean_batch(s, c, "intersection")  # every row known: no kernel call
    assert kernel_rows == []


@KERNELS
def test_differential_pairs(monkeypatch, geo_native):
    """The dispatch test's degenerate pairs: the rows with a known
    answer carry the kernel's bits."""
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    subs, clips = _pairs()
    s, c = mps_to_arrow(subs), mps_to_arrow(clips)
    cls, known = known_answers(s, c, "intersection")
    rows = pa.array(np.flatnonzero(cls != KERNEL))
    assert len(rows) > 5
    assert_bit_identical(known, dispatch._kernel(s.take(rows), c.take(rows), "intersection"))
