"""Optional native (C) Martinez kernel, loaded via ctypes.

Built on first import with the system compiler if available.  The
library has one entry point, ``martinez_batch``: a whole batch of pairs
through the Arrow offset buffers, each operand read in row order or
through the row indices of an Arrow dictionary column, with one
reusable workspace per call (no allocation per pair).  It returns the
result rings, or, given an area output (``martinez(..., areas=True)``,
``native_boolean_areas``), only each pair's structural area and polygon
count: it keeps no ring, and the areas are bit for bit
``sources.arrow_geom.arrow_mp_areas`` of the rings, numpy's reduce
order included.  ``stages.boolean_batch.boolean_batch`` and
``boolean_areas`` are the one place that chooses between it and the
pure-Python reference kernel, which runs when the build fails or
``GEO_NATIVE=0``.  Parity
with the Python kernel is enforced by the conformance corpus
(tests/test_conformance.py runs both) and a seeded differential test
(tests/test_boolean_dispatch.py) — the C code is an
operation-for-operation port compiled at -O3 with -ffp-contract=off and
-fno-unsafe-math-optimizations so IEEE double arithmetic matches
CPython bit-for-bit.  No -march=native: the library must run on every
node that shares the file.

Before its sweep, ``martinez_batch`` answers the `intersection` pairs
whose result has a closed form (rect ∩ rect, and a convex ring
strictly inside a rect) and reports a class per pair: ``martinez``
returns it next to the result, and ``native_boolean_batch`` and
``native_boolean_areas`` add it to this process's ``gate_counts()``.
The gate classifies each operand row once per call (one polygon of one
ring or not, rect or not, the rect's bbox), in a record per row of the
geometry column, so a rect that meets many pairs is read once.  The
Python kernel has no such gate: it is the ungated reference every
known answer is tested against (tests/test_known_answers.py), so under
``GEO_NATIVE=0`` those pairs are swept, with the same bits.  ``COORD_MIN``, ``COORD_MAX`` and
``SPREAD_MAX``, the gate's bounds, are read from martinez.c.

The library file is named after a hash of the source and the flags, so
a change to either builds a new one instead of loading a stale build.
The builds of other hashes are removed once the current build is
``PRUNE_AFTER_S`` old, so that on a filesystem that every node shares,
workers still running the code of a superseded build keep their mapped
file while a change rolls out.  A process that outlives that grace and
still maps an old build may fault when it is removed.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import re
import subprocess
import sys
import time

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_HERE, "martinez.c")
FLAGS = (
    "-O3", "-fPIC", "-shared",
    "-ffp-contract=off", "-fno-unsafe-math-optimizations",
)

# how long a superseded build outlives the current one
PRUNE_AFTER_S = 3600.0


def _c_constant(name: str) -> float:
    """A ``#define NAME <hex float>`` of martinez.c."""
    with open(_SRC) as f:
        return float.fromhex(re.search(rf"^#define {name} (\S+)$", f.read(), re.M).group(1))


# the known-answer gate's bounds, defined in martinez.c
COORD_MIN, COORD_MAX, SPREAD_MAX = map(_c_constant, ("COORD_MIN", "COORD_MAX", "SPREAD_MAX"))
# martinez_batch's class per pair (martinez.c GATE_*)
GATE_CLASSES = ("swept", "rect", "contained")
_gate_counts = np.zeros(len(GATE_CLASSES), np.int64)

_lib = None


def lib_path(source: bytes, flags=FLAGS) -> str:
    """Where the library built from ``source`` with ``flags`` lives."""
    digest = hashlib.sha256(source + "\0".join(flags).encode()).hexdigest()[:12]
    return os.path.join(_HERE, f"_martinez.{digest}.so")


def _build() -> str | None:
    """Path of the built library, building it if it is missing."""
    try:
        with open(_SRC, "rb") as f:
            path = lib_path(f.read())
        if not os.path.isfile(path):
            # build to a unique temp path + atomic rename: many Ray
            # workers may import (and build) concurrently
            tmp = f"{path}.{os.getpid()}.tmp"
            cmd = ["cc", *FLAGS, _SRC, "-o", tmp, "-lm"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                print(f"native kernel build failed:\n{proc.stderr}", file=sys.stderr)
                return None
            os.replace(tmp, path)
    except Exception as exc:  # no compiler, read-only fs, ...
        print(f"native kernel unavailable: {exc}", file=sys.stderr)
        return None
    _prune(path)
    return path


def _prune(keep: str) -> None:
    """Remove the libraries built from another source or other flags,
    once ``keep`` is ``PRUNE_AFTER_S`` old.  Builds in flight (``.tmp``)
    stay, and so does any file that cannot be removed."""
    try:
        if time.time() - os.path.getmtime(keep) < PRUNE_AFTER_S:
            return
    except OSError:
        return
    for old in glob.glob(os.path.join(_HERE, "_martinez.*.so")):
        if old != keep:
            try:
                os.remove(old)
            except OSError:
                pass


def _load():
    global _lib
    if os.environ.get("GEO_NATIVE", "1") == "0":
        return None
    if _lib is not None:
        return _lib
    path = _build()
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    i64p = ctypes.POINTER(ctypes.c_int64)
    i32p = ctypes.POINTER(ctypes.c_int32)
    dp = ctypes.POINTER(ctypes.c_double)
    lib.martinez_batch.restype = ctypes.c_int
    lib.martinez_batch.argtypes = [
        dp, i32p, i32p, i32p,
        dp, i32p, i32p, i32p,
        i64p, i64p,
        ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, i32p,
        ctypes.POINTER(dp), ctypes.POINTER(i64p), ctypes.POINTER(i64p),
        ctypes.POINTER(i64p),
        i64p, i64p, i64p,
        ctypes.POINTER(ctypes.c_int8), dp,
    ]
    lib.martinez_free_batch.restype = None
    lib.martinez_free_batch.argtypes = [dp, i64p, i64p, i64p]
    _lib = lib
    return lib


def native_available() -> bool:
    return _load() is not None


# index = the C kernel's op code (martinez.c OP_*)
_OP_NAMES = ("intersection", "difference", "union", "xor")

# martinez_batch return codes; both kernels fail the same pairs
_ERRORS = {
    2: "previous result event has no output contour",
    3: "sweep exceeded its event budget",
}


def _op_codes(ops, n: int):
    """Op name (scalar) or names (one per row) → int32 op codes, by one
    vectorized lookup."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(ops, str):
        if ops not in _OP_NAMES:
            raise ValueError(f"unknown operation: {ops!r}")
        return np.full(n, _OP_NAMES.index(ops), dtype=np.int32)
    if not isinstance(ops, (pa.Array, pa.ChunkedArray)):
        ops = pa.array(ops, pa.string())
    if len(ops) != n:
        raise ValueError(f"{len(ops)} operations for {n} pairs")
    codes = pc.index_in(ops, value_set=pa.array(_OP_NAMES))
    if codes.null_count:
        bad = ops.filter(codes.is_null())[0].as_py()
        raise ValueError(f"unknown operation: {bad!r}")
    return codes.to_numpy(zero_copy_only=False).astype(np.int32)


def native_boolean_op(subject, clipping, operation):
    """Same contract as geom.boolean_op: one pair through
    ``native_boolean_batch``.  Returns None only when the native
    library is unavailable."""
    from ..sources.arrow_geom import arrow_to_mps, mps_to_arrow

    res = native_boolean_batch(mps_to_arrow([subject]), mps_to_arrow([clipping]), operation)
    return None if res is None else arrow_to_mps(res)[0]


def native_boolean_batch(subject_arr, clipping_arr, ops):
    """Whole-batch boolean ops on two Arrow multipolygon columns (plain
    or dictionary, see ``martinez``) → Arrow multipolygon array, one row
    per pair: ``martinez``'s result, its classes added
    to this process's ``gate_counts``.  Returns None only when the
    native library is unavailable."""
    out = martinez(subject_arr, clipping_arr, ops)
    if out is None:
        return None
    res, classes = out
    _count(classes)
    return res


def native_boolean_areas(subject_arr, clipping_arr, ops):
    """``native_boolean_batch`` reduced to what an area join reads:
    (structural area of each pair's result, bit-identical to
    ``arrow_mp_areas`` of the ring result; whether the result has a
    polygon), from ``martinez(..., areas=True)``, which builds no ring.
    Its classes are added to this process's ``gate_counts``.  Returns
    None only when the native library is unavailable."""
    out = martinez(subject_arr, clipping_arr, ops, areas=True)
    if out is None:
        return None
    areas, polys, classes = out
    _count(classes)
    return areas, polys > 0


def _count(classes) -> None:
    _gate_counts[:] += np.bincount(classes, minlength=len(GATE_CLASSES))


def gate_counts() -> dict:
    """Pairs this process sent through ``native_boolean_batch`` and
    ``native_boolean_areas``, by ``GATE_CLASSES`` name."""
    return dict(zip(GATE_CLASSES, _gate_counts.tolist()))


def _operand(arr):
    """One operand column of ``martinez`` → (the multipolygon column its
    pairs read, int64 row per pair or None for pair i's own row).  A
    dictionary column's rows must lie inside its dictionary: C reads
    them unchecked."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:  # of a dictionary column: its null indices
        raise ValueError("null geometry rows reach the native kernel")
    if not pa.types.is_dictionary(arr.type):
        return arr, None
    values = arr.dictionary
    rows = np.ascontiguousarray(arr.indices.to_numpy(zero_copy_only=False), np.int64)
    if len(rows) and (rows.min() < 0 or rows.max() >= len(values)):
        raise ValueError(f"dictionary index outside [0, {len(values)})")
    if values.null_count and not values.is_valid().to_numpy(zero_copy_only=False)[rows].all():
        raise ValueError("null geometry rows reach the native kernel")
    return values, rows


def martinez(subject_arr, clipping_arr, ops, areas: bool = False):
    """(result, classes) of ``martinez_batch`` over two Arrow
    multipolygon columns; with ``areas``, (area, polygons, classes)
    instead: each pair's structural area (``arrow_mp_areas`` of its
    result, bit for bit) and polygon count, from a call that keeps no
    ring.

    ``ops`` is one op name for every row, or one name per row (a list
    or an Arrow string array); an unknown name raises ``ValueError``.
    An operand may be a dictionary column
    (``pa.DictionaryArray.from_arrays(rows, geometries)``): pair i then
    reads row ``rows[i]`` of the geometry column, gathered inside C
    instead of copied, so a join passes its candidate pairs as row
    indices.  Every index must lie in ``[0, len(geometries))``, else
    ``ValueError``, however the column was built.
    Consumes the columns' offset chains directly (zero marshal-in) and
    returns the result as an Arrow multipolygon array (offsets built by
    cumsum — zero per-row Python) and an int8 class per pair (an index
    into ``GATE_CLASSES``: swept, or answered by the known-answer gate).
    No pair may read a null geometry, directly or through its index;
    ``boolean_batch`` strips those pairs before calling here.  Returns
    None only when the native library is unavailable."""
    lib = _load()
    if lib is None:
        return None

    from ..sources.arrow_geom import arrow_mp_offsets, flat_to_arrow

    n = len(subject_arr)
    if len(clipping_arr) != n:
        raise ValueError(f"{n} subjects but {len(clipping_arr)} clippings")
    subject_arr, s_rows = _operand(subject_arr)
    clipping_arr, c_rows = _operand(clipping_arr)
    op_codes = _op_codes(ops, n)
    s_xy, s_ro, s_po, s_mo = arrow_mp_offsets(subject_arr)
    c_xy, c_ro, c_po, c_mo = arrow_mp_offsets(clipping_arr)

    dp = ctypes.POINTER(ctypes.c_double)
    i32p = ctypes.POINTER(ctypes.c_int32)
    i64p = ctypes.POINTER(ctypes.c_int64)

    out_xy = dp()
    out_rs = i64p()
    out_prc = i64p()
    out_ppc = i64p()
    n_v = ctypes.c_int64()
    n_r = ctypes.c_int64()
    n_p = ctypes.c_int64()
    classes = np.zeros(max(n, 1), np.int8)
    area = np.zeros(max(n, 1)) if areas else None

    rc = lib.martinez_batch(
        s_xy.ctypes.data_as(dp), s_ro.ctypes.data_as(i32p),
        s_po.ctypes.data_as(i32p), s_mo.ctypes.data_as(i32p),
        c_xy.ctypes.data_as(dp), c_ro.ctypes.data_as(i32p),
        c_po.ctypes.data_as(i32p), c_mo.ctypes.data_as(i32p),
        None if s_rows is None else s_rows.ctypes.data_as(i64p),
        None if c_rows is None else c_rows.ctypes.data_as(i64p),
        ctypes.c_int64(len(subject_arr)), ctypes.c_int64(len(clipping_arr)),
        ctypes.c_int64(n), op_codes.ctypes.data_as(i32p),
        ctypes.byref(out_xy), ctypes.byref(out_rs), ctypes.byref(out_prc),
        ctypes.byref(out_ppc),
        ctypes.byref(n_v), ctypes.byref(n_r), ctypes.byref(n_p),
        classes.ctypes.data_as(ctypes.POINTER(ctypes.c_int8)),
        None if area is None else area.ctypes.data_as(dp),
    )
    if rc != 0:
        raise RuntimeError(f"martinez_batch failed: {_ERRORS.get(rc, rc)}")

    try:
        ppc = np.ctypeslib.as_array(out_ppc, shape=(n,)).copy() if n else np.empty(0, np.int64)
        if areas:
            return area[:n], ppc, classes[:n]
        nv, nr, npolys = n_v.value, n_r.value, n_p.value
        xy = (
            np.ctypeslib.as_array(out_xy, shape=(nv, 2)).copy()
            if nv
            else np.empty((0, 2))
        )
        sizes = (
            np.ctypeslib.as_array(out_rs, shape=(nr,)).copy()
            if nr
            else np.empty(0, np.int64)
        )
        prc = (
            np.ctypeslib.as_array(out_prc, shape=(npolys,)).copy()
            if npolys
            else np.empty(0, np.int64)
        )
        return flat_to_arrow(xy, sizes, prc, ppc), classes[:n]
    finally:
        lib.martinez_free_batch(out_xy, out_rs, out_prc, out_ppc)
