"""Native batch kernel: whole-corpus golden equality through the
Arrow-offsets batch entry point, trivial-path semantics, the
BooleanOpBatch stage routing, per-pair isolation of the batch
workspace, and the library's build path."""

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pytest
from kernel_cases import (
    CONNECT_FAIL_PAIR,
    CREEP_PAIR,
    circle,
    golden_rows,
    holed_grid,
    rect,
)

from rust_geo_booleanop_ray import native
from rust_geo_booleanop_ray.native import (
    native_available,
    native_boolean_batch,
)
from rust_geo_booleanop_ray.sources.arrow_geom import arrow_to_mps, mps_to_arrow
from rust_geo_booleanop_ray.stages.boolean_batch import BooleanOpBatch

pytestmark = pytest.mark.skipif(
    not native_available(), reason="native kernel not built"
)


def test_batch_corpus_bit_for_bit():
    subs, clips, ops, expected = golden_rows()
    res = native_boolean_batch(mps_to_arrow(subs), mps_to_arrow(clips), ops)
    mps = arrow_to_mps(res)
    assert len(mps) == len(expected)
    for i, (m, e) in enumerate(zip(mps, expected)):
        assert m == e, f"pair {i} deviates"


def test_batch_trivial_paths():
    A = [[[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]]]
    B = [[[(5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0), (5.0, 5.0)]]]
    sa = mps_to_arrow([A] * 4)
    ca = mps_to_arrow([B] * 4)
    res = arrow_to_mps(
        native_boolean_batch(sa, ca, ["intersection", "union", "difference", "xor"])
    )
    assert res == [[], A + B, A, A + B]


def test_stage_routes_through_batch():
    A = [[[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]]
    B = [[[(2.0, 2.0), (6.0, 2.0), (6.0, 6.0), (2.0, 6.0), (2.0, 2.0)]]]
    batch = pa.table(
        {"subject": mps_to_arrow([A] * 3), "clipping": mps_to_arrow([B] * 3)}
    )
    out = BooleanOpBatch("intersection")(batch)
    mps = arrow_to_mps(out["result"])
    assert mps == [[[[(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0), (2.0, 2.0)]]]] * 3


def test_batch_empty_inputs_match_python():
    """Empty multipolygon operands take the bbox-disjoint trivial path
    in both kernels with identical results."""
    from rust_geo_booleanop_ray.geom.boolean_op import boolean_op_python

    A = [[[(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (0.0, 0.0)]]]
    E = []
    for s, c in [(A, E), (E, A), (E, E)]:
        for op in ("intersection", "union", "difference", "xor"):
            got = arrow_to_mps(
                native_boolean_batch(mps_to_arrow([s]), mps_to_arrow([c]), [op])
            )[0]
            assert got == boolean_op_python(s, c, op)


def _bits(mp):
    return [[np.asarray(ring, np.float64).view(np.uint64).tolist() for ring in poly] for poly in mp]


def _alone(s, c, op):
    return arrow_to_mps(native_boolean_batch(mps_to_arrow([s]), mps_to_arrow([c]), op))[0]


def test_batch_workspace_does_not_leak_between_pairs():
    """The batch call reuses one workspace across its pairs.  Each row
    is bit-identical to the same pair run alone: after a pair with
    many contours and holes, after one that needs a second event-pool
    chunk (> 4,096 events), and before smaller pairs."""
    small = (rect(0, 0, 4, 4), rect(2, 2, 6, 6))
    holed = (holed_grid(6), rect(0.5, 0.5, 18.0, 18.5))
    big = (circle(0, 0, 10, 1200), circle(3, 1, 10, 1100))
    rows = [
        (*small, "intersection"),
        (*holed, "intersection"),
        (*small, "union"),
        (*holed, "xor"),
        (*small, "xor"),
        (*big, "xor"),
        (*small, "difference"),
        (*holed, "difference"),
        (rect(1, 1, 2, 2), rect(1.5, 0, 3, 1.5), "intersection"),
        (*big, "intersection"),
        (*small, "intersection"),
    ]
    subs, clips, ops = map(list, zip(*rows))
    got = arrow_to_mps(native_boolean_batch(mps_to_arrow(subs), mps_to_arrow(clips), ops))
    assert len(got) == len(rows)
    assert len(got[3]) == 31 and len(got[1][0]) == 31  # many contours, many holes
    for i, (s, c, op) in enumerate(rows):
        assert _bits(got[i]) == _bits(_alone(s, c, op)), f"row {i} ({op}) differs from the pair alone"


@pytest.mark.parametrize(
    "pair, op, reason",
    [
        (CONNECT_FAIL_PAIR, "difference", "previous result event has no output contour"),
        (CREEP_PAIR, "intersection", "sweep exceeded its event budget"),
    ],
)
def test_failing_pair_mid_batch_raises_as_alone(pair, op, reason):
    with pytest.raises(RuntimeError, match=reason):
        _alone(*pair, op)
    small = (rect(0, 0, 4, 4), rect(2, 2, 6, 6), "union")
    holed = (holed_grid(6), rect(0.5, 0.5, 18.0, 18.5), "intersection")
    subs, clips, ops = map(list, zip(small, holed, (*pair, op), small))
    with pytest.raises(RuntimeError, match=reason):
        native_boolean_batch(mps_to_arrow(subs), mps_to_arrow(clips), ops)


def test_library_path_names_source_and_flags():
    """A change to the source or to the flags builds a new library
    instead of loading a stale one."""
    src = b"int f(void) { return 0; }\n"
    o2 = tuple("-O2" if f == "-O3" else f for f in native.FLAGS)
    assert native.lib_path(src) == native.lib_path(src, native.FLAGS)
    assert native.lib_path(src, o2) != native.lib_path(src)
    assert native.lib_path(src + b"\n") != native.lib_path(src)
    with open(native._SRC, "rb") as f:
        assert native._build() == native.lib_path(f.read())


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_build_prunes_builds_of_other_hashes(tmp_path, monkeypatch):
    """Once the current library is PRUNE_AFTER_S old, a build or a load
    removes the libraries of other hashes; the current one, builds in
    flight and files that cannot be removed stay, and none of it fails
    the build.  A younger current library leaves them all in place."""
    src = tmp_path / "martinez.c"
    src.write_bytes(b"int f(void) { return 0; }\n")
    monkeypatch.setattr(native, "_HERE", str(tmp_path))
    monkeypatch.setattr(native, "_SRC", str(src))
    stale = tmp_path / "_martinez.000000000000.so"
    in_flight = tmp_path / "_martinez.111111111111.so.4242.tmp"
    stuck = tmp_path / "_martinez.222222222222.so"  # a directory: os.remove fails
    other = tmp_path / "notes.txt"
    for f in (stale, in_flight, other):
        f.write_bytes(b"x")
    stuck.mkdir()
    every = {"martinez.c", stale.name, in_flight.name, stuck.name, other.name}

    path = native._build()  # builds; the new library is too young to prune
    assert path == native.lib_path(src.read_bytes())
    assert {p.name for p in tmp_path.iterdir()} == every | {os.path.basename(path)}

    old = time.time() - native.PRUNE_AFTER_S - 60
    os.utime(path, (old, old))
    assert native._build() == path  # loads the existing build, then prunes
    names = {p.name for p in tmp_path.iterdir()}
    assert names == every - {stale.name} | {os.path.basename(path)}

    stale.write_bytes(b"x")
    assert native._build() == path
    assert not stale.exists() and os.path.isfile(path)


def _dictionary_case(null_indices=True):
    """Dictionary operands over the golden pairs: each side's geometry
    column shuffled and holding one null, pairs read through shuffled,
    repeated and first/last indices, rows whose valid index points at
    the null geometry and, with ``null_indices``, null indices."""
    subs, clips, ops, _ = golden_rows()
    n = len(subs)
    rng = np.random.default_rng(23)
    pair = np.concatenate([[0, n - 1], rng.permutation(n), rng.integers(0, n, 40)])
    cols = {}
    for name, geoms in (("subject", subs), ("clipping", clips)):
        order = rng.permutation(n)
        values = mps_to_arrow([geoms[k] for k in order] + [None])
        rows = np.argsort(order)[pair]
        rows[rng.integers(0, len(rows), 5)] = n  # the null geometry
        null_index = np.zeros(len(rows), bool)
        null_index[rng.integers(0, len(rows), 5)] = null_indices
        cols[name] = pa.DictionaryArray.from_arrays(pa.array(rows, mask=null_index), values)
    return cols["subject"], cols["clipping"], pa.array(ops).take(pa.array(pair))


@pytest.mark.parametrize("null_indices", [True, False])
@pytest.mark.parametrize("geo_native", ["1", "0"])
def test_dictionary_operands_match_decoded(monkeypatch, geo_native, null_indices):
    """``boolean_batch`` over dictionary operands gives the bits of the
    same call over their ``dictionary_decode()``d columns, on both
    kernels: a null index and a valid index to a null geometry both
    give a null result."""
    from kernel_cases import assert_bit_identical

    from rust_geo_booleanop_ray.stages.boolean_batch import boolean_batch

    monkeypatch.setenv("GEO_NATIVE", geo_native)
    subj, clip, ops = _dictionary_case(null_indices)
    # is_valid of a dictionary column sees its indices only
    assert (subj.null_count > 0) == null_indices
    assert subj.null_count < subj.dictionary_decode().null_count
    got = boolean_batch(subj, clip, ops)
    want = boolean_batch(subj.dictionary_decode(), clip.dictionary_decode(), ops)
    assert_bit_identical(got, want)
    null = np.logical_or(
        subj.dictionary_decode().is_null().to_numpy(zero_copy_only=False),
        clip.dictionary_decode().is_null().to_numpy(zero_copy_only=False),
    )
    assert (got.is_null().to_numpy(zero_copy_only=False) == null).all()
    assert null.sum() < len(null)


def test_martinez_reads_dictionary_rows():
    """``native.martinez`` on dictionary operands without nulls: the
    same results and classes as on the decoded columns; a mix of one
    dictionary and one plain operand too."""
    from kernel_cases import assert_bit_identical

    case = _dictionary_case()
    subj, clip, ops = case
    ok = pa.array(
        np.flatnonzero(
            subj.dictionary_decode().is_valid().to_numpy(zero_copy_only=False)
            & clip.dictionary_decode().is_valid().to_numpy(zero_copy_only=False)
        )
    )
    subj, clip, ops = subj.take(ok), clip.take(ok), ops.take(ok)
    want, want_classes = native.martinez(subj.dictionary_decode(), clip.dictionary_decode(), ops)
    for s, c in ((subj, clip), (subj, clip.dictionary_decode()), (subj.dictionary_decode(), clip)):
        got, classes = native.martinez(s, c, ops)
        assert_bit_identical(got, want)
        assert (classes == want_classes).all()
    # a null index or a null geometry never reaches C
    for case in (case, _dictionary_case(null_indices=False)):
        with pytest.raises(ValueError, match="null geometry"):
            native.martinez(*case)


@pytest.mark.parametrize("bad", [-1, 3, 2**40])
def test_out_of_range_index_raises(monkeypatch, bad):
    """An index outside the dictionary raises before C reads memory,
    also from a column built with ``safe=False``; ``boolean_batch``
    raises on both kernels."""
    from rust_geo_booleanop_ray.stages.boolean_batch import boolean_batch

    geoms = mps_to_arrow([rect(0, 0, 2, 2), rect(1, 1, 3, 3), rect(5, 5, 6, 6)])
    good = pa.DictionaryArray.from_arrays(pa.array([0, 1, 2]), geoms)
    bad_rows = pa.DictionaryArray.from_arrays(pa.array([0, bad, 1]), geoms, safe=False)
    with pytest.raises(ValueError, match="outside"):
        native.martinez(bad_rows, good, "intersection")
    with pytest.raises(ValueError, match="outside"):
        native.martinez(good, bad_rows, "intersection")
    for geo_native in ("1", "0"):
        monkeypatch.setenv("GEO_NATIVE", geo_native)
        with pytest.raises((ValueError, IndexError)):
            boolean_batch(bad_rows, good, "intersection")
