"""The native kernel under AddressSanitizer, UndefinedBehaviorSanitizer
and LeakSanitizer.

`martinez.c` and a small driver (`kernel_asan_driver.c`) are built with
`-fsanitize=address,undefined` into a temp dir.  The driver runs
`martinez_batch` over batches written here: the golden corpus, the
seeded degenerate pairs of `test_boolean_dispatch` under all four ops,
pairs that grow the batch workspace, pairs the known-answer gate
answers (RECT, CONTAINED) and its near-misses, the same pairs read
through shuffled, repeated and first/last row indices (dictionary
operands), and two batches with a failing pair in the middle (event
budget, code 3; `connect_edges`, code 2).  The driver runs every batch
twice, with its rings and in area mode: the areas equal
`arrow_mp_areas` of the rings, bit for bit, and the failing batches
fail with the same codes, without a leak.
Any sanitizer report fails the test, a leak at exit included: the
splay node `splay_remove` drops under an inconsistent comparator (the
creeping pair) must come back with the node pool."""

import os
import shutil
import subprocess

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from kernel_cases import (
    CONNECT_FAIL_PAIR,
    CREEP_PAIR,
    assert_bit_identical,
    circle,
    golden_rows,
    holed_grid,
    rect,
)
from test_boolean_dispatch import OPS, _pairs, _run
from test_known_answers import CONTAINED_PENTAGON, NEAR_MISSES

from rust_geo_booleanop_ray import native
from rust_geo_booleanop_ray.sources.arrow_geom import (
    arrow_mp_areas,
    arrow_mp_offsets,
    flat_to_arrow,
    mps_to_arrow,
)

CC = shutil.which("cc")
pytestmark = pytest.mark.skipif(CC is None, reason="no C compiler")

DRIVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel_asan_driver.c")
SANITIZE = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-fno-omit-frame-pointer"]


def _write_array(f, a, dtype):
    a = np.ascontiguousarray(a, dtype).ravel()
    f.write(np.int64(a.size).tobytes())
    f.write(a.tobytes())


def _write_batch(f, table):
    """One batch; a dictionary operand goes in as its geometry column
    and its row indices."""
    f.write(np.int64(table.num_rows).tobytes())
    rows = []
    for col in ("subject", "clipping"):
        arr = table[col].combine_chunks()
        if pa.types.is_dictionary(arr.type):
            rows.append(arr.indices.to_numpy().astype(np.int64))
            arr = arr.dictionary
        else:
            rows.append(None)
        xy, ring_off, poly_off, mp_off = arrow_mp_offsets(arr)
        _write_array(f, xy, np.float64)
        for off in (ring_off, poly_off, mp_off):
            _write_array(f, off, np.int32)
    for r in rows:
        if r is None:
            f.write(np.int64(-1).tobytes())
        else:
            _write_array(f, r, np.int64)
    f.write(native._op_codes(table["op"].combine_chunks(), table.num_rows).tobytes())


def _indexed_table(table, seed=5):
    """``table``'s pairs as dictionary operands: each side's geometry in
    its own shuffled order, read through row indices that visit the
    first and last pair, every pair in shuffled order and random
    repeats.  Returns the table and the original pair of each row."""
    rng = np.random.default_rng(seed)
    n = table.num_rows
    pair = np.concatenate([[0, n - 1], rng.permutation(n), rng.integers(0, n, 50), [n - 1, 0]])
    cols = {}
    for col in ("subject", "clipping"):
        order = rng.permutation(n)  # the geometry column holds pair order[k] at row k
        rows = np.argsort(order)[pair]
        cols[col] = pa.DictionaryArray.from_arrays(
            pa.array(rows), table[col].combine_chunks().take(pa.array(order))
        )
    cols["op"] = table["op"].combine_chunks().take(pa.array(pair))
    return pa.table(cols), pair


def _read_results(path, batches):
    """Per batch: (return code, (result array, gate classes) or None),
    then the same of its area-mode run, with (areas, polygons per
    pair, gate classes)."""
    out = []
    with open(path, "rb") as f:

        def code():
            return int(np.frombuffer(f.read(8), np.int64)[0])

        for table, _ in batches:
            rc, rings = code(), None
            if rc == 0:
                nv, nr, npolys, n = np.frombuffer(f.read(32), np.int64)
                xy = np.frombuffer(f.read(16 * nv), np.float64).reshape(-1, 2)
                sizes, prc, ppc = (np.frombuffer(f.read(8 * k), np.int64) for k in (nr, npolys, n))
                classes = np.frombuffer(f.read(n), np.int8)
                rings = (flat_to_arrow(xy, sizes, prc, ppc), classes)
            area_rc, areas = code(), None
            if area_rc == 0:
                n = table.num_rows
                areas = (
                    np.frombuffer(f.read(8 * n), np.float64),
                    np.frombuffer(f.read(8 * n), np.int64),
                    np.frombuffer(f.read(n), np.int8),
                )
            out.append((rc, rings, area_rc, areas))
        assert f.read() == b""
    return out


def _table(rows):
    subs, clips, ops = map(list, zip(*rows))
    return pa.table(
        {"subject": mps_to_arrow(subs), "clipping": mps_to_arrow(clips), "op": pa.array(ops)}
    )


@pytest.fixture(scope="module")
def driver(tmp_path_factory):
    exe = str(tmp_path_factory.mktemp("asan") / "kernel_asan_driver")
    cmd = [CC, *SANITIZE, "-g", "-O1", "-ffp-contract=off", "-fno-unsafe-math-optimizations",
           native._SRC, DRIVER, "-o", exe, "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return exe


def test_kernel_is_sanitizer_clean(driver, tmp_path):
    g_subs, g_clips, g_ops, _ = golden_rows()
    subs, clips = _pairs()
    rows = list(zip(g_subs, g_clips, g_ops))
    rows += [(s, c, op) for op in OPS for s, c in zip(subs, clips)]
    rows += [
        (holed_grid(6), rect(0.5, 0.5, 18.0, 18.5), "xor"),
        (circle(0, 0, 10, 1200), circle(3, 1, 10, 1100), "xor"),
        (rect(0, 0, 4, 4), rect(2, 2, 6, 6), "intersection"),
    ]
    # the known-answer gate: RECT and CONTAINED pairs, and near-misses
    rows += [
        (rect(0, 0, 4, 4), rect(4, 0, 6, 6), "intersection"),
        (rect(0, 0, 4, 4), rect(1, 1, 3, 3), "intersection"),
        (rect(0, 0, 4, 4), rect(5, 5, 6, 6), "intersection"),
        (circle(0.5, 0.25, 10, 12), rect(-11, -11, 12, 12), "intersection"),
        (*CONTAINED_PENTAGON, "intersection"),
        (*CONTAINED_PENTAGON, "union"),
    ]
    rows += [(s, c, "intersection") for s, c in NEAR_MISSES.values()]
    # the pairs both kernels fail are left out of the clean batch
    want, err = _run(_table(rows))
    ok = [i for i, e in enumerate(err) if e is None]
    assert len(ok) < len(rows)
    clean = [rows[i] for i in ok]
    indexed, pair = _indexed_table(_table(clean))
    assert (indexed["subject"].combine_chunks().indices.to_numpy()
            != indexed["clipping"].combine_chunks().indices.to_numpy()).any()
    batches = [
        (_table(clean), 0),
        (indexed, 0),
        (_table(clean[:40] + [(*CREEP_PAIR, "intersection")] + clean[40:80]), 3),
        (_table(clean[:40] + [(*CONNECT_FAIL_PAIR, "difference")] + clean[40:80]), 2),
    ]

    src, dst = str(tmp_path / "in.bin"), str(tmp_path / "out.bin")
    with open(src, "wb") as f:
        f.write(np.int64(len(batches)).tobytes())
        for table, _ in batches:
            _write_batch(f, table)
    env = dict(
        os.environ,
        ASAN_OPTIONS="detect_leaks=1:halt_on_error=1",
        UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1",
    )
    proc = subprocess.run([driver, src, dst], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0 and "Sanitizer" not in proc.stderr, proc.stderr
    assert "runtime error" not in proc.stderr, proc.stderr

    results = _read_results(dst, batches)
    assert [r[0] for r in results] == [r[2] for r in results] == [rc for _, rc in batches]
    # area mode: the areas of the ring results, the same polygon counts
    # and classes
    for _, (res, classes), _, (areas, polys, area_classes) in results[:2]:
        np.testing.assert_array_equal(areas.view(np.uint64), arrow_mp_areas(res).view(np.uint64))
        np.testing.assert_array_equal(polys, pc.list_value_length(res).to_numpy())
        assert (area_classes == classes).all()
    # the sanitized -O1 build gives the same bits and classes as the
    # engine's kernel
    res, classes = results[0][1]
    assert_bit_identical(res, want.take(pa.array(ok)))
    table = batches[0][0]
    engine = native.martinez(table["subject"], table["clipping"], table["op"])[1]
    assert (classes == engine).all() and set(classes) == {0, 1, 2}
    # the indexed batch reads each pair's rows: the pair's bits and class
    res, classes = results[1][1]
    assert_bit_identical(res, want.take(pa.array(ok)).take(pa.array(pair)))
    assert (classes == engine[pair]).all()
