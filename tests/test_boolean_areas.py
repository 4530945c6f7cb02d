"""`boolean_areas`, the area-only dispatch of the cell join and
`clip_area`: on both kernels its areas are bit for bit
``abs(arrow_mp_areas(boolean_batch(...)))`` (uint64 views) and its
non-empty mask is ``list_value_length > 0``, over the golden corpus, the
seeded pairs of `test_boolean_dispatch` under all four ops, results with
holes and with many rings (numpy's reduce order) and null rows.  The
native area mode counts its pairs in `gate_counts()`, and operands read
through repeated and shuffled dictionary rows (the gate's per-row
records) give the bits and classes of plain operands."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from kernel_cases import circle, golden_rows, holed_grid, rect
from test_boolean_dispatch import OPS, A, B, _pairs

from rust_geo_booleanop_ray import native
from rust_geo_booleanop_ray.sources.arrow_geom import arrow_mp_areas, mps_to_arrow
from rust_geo_booleanop_ray.stages.boolean_batch import (
    BooleanOpBatch,
    boolean_areas,
    boolean_batch,
)

pytestmark = pytest.mark.skipif(not native.native_available(), reason="native kernel not built")

KERNELS = pytest.mark.parametrize("geo_native", ["1", "0"])


def _bits(a):
    return np.ascontiguousarray(a, np.float64).view(np.uint64)


def _circles(centres, r, n=7):
    """One multipolygon of n-gon circles: inexact ring areas, so the
    order they are summed in shows in the bits."""
    return [circle(x, y, r, n)[0] for x, y in centres]


def _holed_by_circles(k):
    """A square with a k × k grid of n-gon holes: 1 + k² rings."""
    size = 3.0 * k + 1.0
    outer = rect(0.0, 0.0, size, size)[0][0]
    holes = [circle(3.0 * i + 2.0, 3.0 * j + 2.0, 0.9, 6)[0][0][::-1]
             for i in range(k) for j in range(k)]
    return [[outer, *holes]]


def _many_ring_rows():
    """Pairs whose results have holes, 3 rings or more, and more than
    the 8 and 129 values where numpy's pairwise sum changes shape."""
    grid = [(3.0 * i, 0.5 * i) for i in range(40)]
    return [
        (holed_grid(6), rect(0.5, 0.5, 18.0, 18.5), "intersection"),
        (holed_grid(3), rect(0.5, 0.5, 6.0, 6.5), "xor"),
        (_holed_by_circles(3), rect(0.3, 0.7, 9.9, 9.1), "intersection"),
        (_holed_by_circles(12), rect(0.3, 0.7, 36.7, 36.3), "intersection"),
        (_circles(grid[:3], 1.1), rect(2.5, -1.0, 4.0, 1.0), "union"),
        (_circles(grid[:9], 1.3), rect(0.1, 0.1, 0.7, 0.9), "difference"),
        (_circles(grid[:20], 1.2), _circles(grid[20:22], 0.7), "xor"),
        # bboxes apart: the trivial result copies both sides
        (_circles(grid[:17], 1.1), _circles([(500.0, 500.0), (503.0, 500.0)], 1.0), "union"),
    ]


def _rows():
    """(subjects, clippings, ops): goldens, seeded pairs under all four
    ops and many-ring pairs, without the pairs both kernels fail on."""
    subs, clips, ops, _ = golden_rows()
    s, c = _pairs()
    rows = list(zip(subs, clips, ops))
    rows += [(a, b, op) for op in OPS for a, b in zip(s, c)]
    rows += _many_ring_rows()
    table = pa.table(
        {
            "subject": mps_to_arrow([r[0] for r in rows]),
            "clipping": mps_to_arrow([r[1] for r in rows]),
            "op": pa.array([r[2] for r in rows]),
        }
    )
    errors = BooleanOpBatch(op_column="op", on_error="null")(table)["result_error"]
    ok = pa.array(np.flatnonzero(errors.is_null().to_numpy(zero_copy_only=False)))
    assert len(ok) < table.num_rows
    return table["subject"].take(ok), table["clipping"].take(ok), table["op"].take(ok)


@KERNELS
def test_areas_are_the_ring_results_areas(monkeypatch, geo_native):
    subj, clip, ops = _rows()
    res = boolean_batch(subj, clip, ops)  # native: the same bits as Python's
    want = np.abs(arrow_mp_areas(res))
    rings = pc.list_value_length(res).to_numpy(zero_copy_only=False)
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    area, non_empty = boolean_areas(subj, clip, ops)
    np.testing.assert_array_equal(_bits(area), _bits(want))
    np.testing.assert_array_equal(non_empty, rings > 0)
    assert non_empty.sum() < len(non_empty)
    # the many-ring rows are kept and their results have 3 rings or more
    tail = res.slice(len(res) - len(_many_ring_rows()))
    ring_counts = pc.list_value_length(pc.list_flatten(tail)).to_numpy()
    assert ring_counts.max() > 129


@KERNELS
def test_null_rows_give_no_area(monkeypatch, geo_native):
    monkeypatch.setenv("GEO_NATIVE", geo_native)
    kernel_rows = []
    real = native.native_boolean_areas

    def spy(subject, clipping, ops):
        kernel_rows.append(len(subject))
        return real(subject, clipping, ops)

    monkeypatch.setattr(native, "native_boolean_areas", spy)
    subj = mps_to_arrow([A, None, A, A, None])
    clip = mps_to_arrow([B, B, None, B, None])
    ops = pa.array(["intersection", "union", "xor", "union", "difference"])

    area, non_empty = boolean_areas(subj, clip, ops)
    # the two valid rows reach the kernel in one call
    assert kernel_rows == [2]
    np.testing.assert_array_equal(area, [4.0, 0.0, 0.0, 28.0, 0.0])
    np.testing.assert_array_equal(non_empty, [True, False, False, True, False])

    area, non_empty = boolean_areas(mps_to_arrow([None, None]), mps_to_arrow([A, B]), "union")
    assert area.tolist() == [0.0, 0.0] and non_empty.tolist() == [False, False]


def test_gate_counts_count_area_pairs():
    subj = mps_to_arrow([A, A, circle(2, 2, 1, 8), A])
    clip = mps_to_arrow([B, rect(10, 10, 11, 11), rect(0, 0, 4, 4), B])
    ops = pa.array(["intersection", "intersection", "intersection", "union"])
    before = native.gate_counts()
    area, non_empty = native.native_boolean_areas(subj, clip, ops)
    after = native.gate_counts()
    assert {k: after[k] - before[k] for k in native.GATE_CLASSES} == {
        "swept": 1, "rect": 2, "contained": 1
    }
    assert non_empty.tolist() == [True, False, True, True]


def _shapes():
    """Operand rows of every shape the gate reads: rects (one starting
    at another corner, one clockwise), convex rings, multi-ring and
    multi-polygon rows."""
    ccw = rect(1.0, 1.0, 3.0, 2.5)[0][0]
    return [
        rect(0.0, 0.0, 4.0, 4.0),
        rect(2.0, 1.0, 6.0, 5.0),
        [[ccw[1:] + ccw[1:2]]],
        [[ccw[::-1]]],
        circle(2.0, 2.0, 1.0, 9),
        circle(5.0, 3.0, 0.5, 5),
        holed_grid(1),
        rect(0.0, 0.0, 1.0, 1.0) + rect(2.0, 2.0, 3.0, 3.0),
        [],
    ]


def test_dictionary_rows_give_plain_bits_and_classes():
    """Each row is classified once per call; repeated and shuffled
    indices, a row meeting many pairs, give the bits and classes of the
    same pairs as plain operands, in ring and in area mode."""
    from kernel_cases import assert_bit_identical

    geoms = mps_to_arrow(_shapes())
    rng = np.random.default_rng(7)
    n = len(geoms)
    s_rows = np.concatenate([np.repeat(np.arange(n), n), rng.integers(0, n, 300)])
    c_rows = np.concatenate([np.tile(np.arange(n), n), rng.integers(0, n, 300)])
    ops = pa.array(rng.choice(OPS, len(s_rows), p=[0.7, 0.1, 0.1, 0.1]))
    subj = pa.DictionaryArray.from_arrays(pa.array(s_rows), geoms)
    clip = pa.DictionaryArray.from_arrays(pa.array(c_rows), geoms)

    want, want_classes = native.martinez(subj.dictionary_decode(), clip.dictionary_decode(), ops)
    assert set(want_classes) == {0, 1, 2}
    got, classes = native.martinez(subj, clip, ops)
    assert_bit_identical(got, want)
    np.testing.assert_array_equal(classes, want_classes)

    for s, c in ((subj, clip), (subj.dictionary_decode(), clip.dictionary_decode())):
        area, polys, classes = native.martinez(s, c, ops, areas=True)
        np.testing.assert_array_equal(_bits(area), _bits(arrow_mp_areas(want)))
        np.testing.assert_array_equal(polys, pc.list_value_length(want).to_numpy())
        np.testing.assert_array_equal(classes, want_classes)
