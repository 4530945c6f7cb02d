"""The native kernel under AddressSanitizer, UndefinedBehaviorSanitizer
and LeakSanitizer.

`martinez.c` and a small driver (`kernel_asan_driver.c`) are built with
`-fsanitize=address,undefined` into a temp dir.  The driver runs
`martinez_batch` over batches written here: the golden corpus, the
seeded degenerate pairs of `test_boolean_dispatch` under all four ops,
pairs that grow the batch workspace, pairs the known-answer gate
answers (RECT, CONTAINED) and its near-misses, and two batches with a failing
pair in the middle (event budget, code 3; `connect_edges`, code 2).
Any sanitizer report fails the test, a leak at exit included: the
splay node `splay_remove` drops under an inconsistent comparator (the
creeping pair) must come back with the node pool."""

import os
import shutil
import subprocess

import numpy as np
import pyarrow as pa
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
from rust_geo_booleanop_ray.sources.arrow_geom import arrow_mp_offsets, flat_to_arrow, mps_to_arrow

CC = shutil.which("cc")
pytestmark = pytest.mark.skipif(CC is None, reason="no C compiler")

DRIVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernel_asan_driver.c")
SANITIZE = ["-fsanitize=address,undefined", "-fno-sanitize-recover=all", "-fno-omit-frame-pointer"]


def _write_array(f, a, dtype):
    a = np.ascontiguousarray(a, dtype).ravel()
    f.write(np.int64(a.size).tobytes())
    f.write(a.tobytes())


def _write_batch(f, table):
    f.write(np.int64(table.num_rows).tobytes())
    for col in ("subject", "clipping"):
        xy, ring_off, poly_off, mp_off = arrow_mp_offsets(table[col].combine_chunks())
        _write_array(f, xy, np.float64)
        for off in (ring_off, poly_off, mp_off):
            _write_array(f, off, np.int32)
    f.write(native._op_codes(table["op"].combine_chunks(), table.num_rows).tobytes())


def _read_results(path, n_batches):
    """(return code, (result array, gate classes) or None) per batch."""
    out = []
    with open(path, "rb") as f:
        for _ in range(n_batches):
            rc = int(np.frombuffer(f.read(8), np.int64)[0])
            if rc != 0:
                out.append((rc, None))
                continue
            nv, nr, npolys, n = np.frombuffer(f.read(32), np.int64)
            xy = np.frombuffer(f.read(16 * nv), np.float64).reshape(-1, 2)
            sizes, prc, ppc = (np.frombuffer(f.read(8 * k), np.int64) for k in (nr, npolys, n))
            classes = np.frombuffer(f.read(n), np.int8)
            out.append((rc, (flat_to_arrow(xy, sizes, prc, ppc), classes)))
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
    batches = [
        (_table(clean), 0),
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

    results = _read_results(dst, len(batches))
    assert [rc for rc, _ in results] == [rc for _, rc in batches]
    # the sanitized -O1 build gives the same bits and classes as the
    # engine's kernel
    res, classes = results[0][1]
    assert_bit_identical(res, want.take(pa.array(ok)))
    table = batches[0][0]
    engine = native.martinez(table["subject"], table["clipping"], table["op"])[1]
    assert (classes == engine).all() and set(classes) == {0, 1, 2}
