"""Inputs shared by the native-kernel tests: the golden corpus as
(subject, clipping, op) rows, the two pairs on which both kernels fail,
generators of pairs that exercise the batch workspace (many events,
many contours and holes), and the bit-for-bit comparison of two result
arrays."""

import glob

import numpy as np

from rust_geo_booleanop_ray.sources.arrow_geom import arrow_mp_offsets
from rust_geo_booleanop_ray.sources.fixture_pairs import DEFAULT_FIXTURE_DIR
from rust_geo_booleanop_ray.sources.geojson_fixtures import OP_TAGS, load_fixture

# the 1-ULP intersection nudge creeps along a segment: the sweep exceeds
# its event budget (martinez_batch code 3) on every op
CREEP_PAIR = (
    [[[(1.631593921491635, 0.009263835498179773), (0.8120888624884572, 0.61535978313238),
       (2.353341806150154, 0.324833063620924), (1.4516784655153403, 1.8679156559395569),
       (1.4889457873400578, 0.1491721633609986)]]],
    [[[(1.6315939214916353, 0.009263835498179775), (0.8120888624884571, 0.61535978313238),
       (2.3533418061501545, 0.324833063620924), (1.4516784655153405, 1.8679156559395567),
       (1.488945787340058, 0.1491721633609986)]]],
)

# `difference`: a result event's predecessor has no output contour yet
# (martinez_batch code 2, where the reference panics)
CONNECT_FAIL_PAIR = (
    [[[(2.0, 0.0), (4.0, 0.0), (4.0, 1.0), (2.0, 1.0), (2.0, 0.0)]]],
    [[[(2.0000000000000004, 0.0), (3.9999999999999996, 0.0), (4.000000000000001, 0.9999999999999999),
       (1.9999999999999998, 1.0000000000000002), (2.0, 5e-324)]]],
)


def golden_rows():
    """Every fixture × expected op of the corpus: subjects, clippings,
    op names and expected results."""
    subs, clips, ops, expected = [], [], [], []
    for p in sorted(glob.glob(DEFAULT_FIXTURE_DIR + "/*.geojson")):
        case = load_fixture(p)
        for exp in case.expected:
            op, swap = OP_TAGS[exp.op_tag]
            s, c = (case.clipping, case.subject) if swap else (case.subject, case.clipping)
            subs.append(s)
            clips.append(c)
            ops.append(op)
            expected.append(exp.result)
    return subs, clips, ops, expected


def _closed(xy):
    pts = [(float(x), float(y)) for x, y in xy]
    return pts + pts[:1]


def circle(cx, cy, r, n):
    """An n-gon: 2n sweep events before any intersection."""
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    return [[_closed(np.column_stack([cx + r * np.cos(t), cy + r * np.sin(t)]))]]


def rect(x0, y0, x1, y1):
    return [[_closed([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])]]


def holed_grid(k):
    """A square with a k × k grid of square holes."""
    size = 3.0 * k + 1.0
    rings = [_closed([(0, 0), (size, 0), (size, size), (0, size)])]
    for i in range(k):
        for j in range(k):
            x, y = 3.0 * i + 1.0, 3.0 * j + 1.0
            rings.append(_closed([(x, y), (x, y + 2), (x + 2, y + 2), (x + 2, y)]))
    return [rings]


def bits(arr):
    """A multipolygon array's coordinates as uint64 (so -0.0 != 0.0,
    unlike ``pa.Array.equals``) and its offsets, rebased to the slice."""
    xy, ring_off, poly_off, mp_off = arrow_mp_offsets(arr)
    poly_off = poly_off[mp_off[0] : mp_off[-1] + 1]
    ring_off = ring_off[poly_off[0] : poly_off[-1] + 1]
    xy = xy[ring_off[0] : ring_off[-1]]
    return [xy.view(np.uint64), ring_off - ring_off[0], poly_off - poly_off[0], mp_off - mp_off[0]]


def assert_bit_identical(a, b):
    assert a.type == b.type and len(a) == len(b)
    assert a.is_valid().equals(b.is_valid())
    for x, y in zip(bits(a), bits(b)):
        np.testing.assert_array_equal(x, y)
