"""Boolean ops as stateless Ray Data batch kernels.

The reference's unit of work is one polygon pair per call
(lib/src/boolean/mod.rs:88); here the unit is an Arrow batch of pairs —
rows are independent, so parallelism is across rows/batches and the
sweep stays sequential per row.

``boolean_batch`` is the one place that chooses the kernel: the native
batch entry point when the C library is available, else the pure-Python
reference kernel row by row (``GEO_NATIVE=0`` or no compiler).  Both
produce the same bits; every stage that clips calls it, or, when it
reads only each result's area, ``boolean_areas``: the same choice, the
native kernel returning areas without building rings.  The native
kernel answers the `intersection` pairs whose result has a closed form
(rect ∩ rect, a convex ring inside a rect) without its sweep
(native/martinez.c, the known-answer gate); the Python kernel sweeps
them, with the same bits.

Usage:
    ds.map_batches(BooleanOpBatch("intersection"), batch_format="pyarrow")
    ds.map_batches(BooleanOpBatch(op_column="op"), batch_format="pyarrow")
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import native
from ..geom import OPERATIONS
from ..geom.boolean_op import boolean_op_python
from ..sources.arrow_geom import MULTIPOLYGON_T, arrow_mp_areas, arrow_to_mps, mps_to_arrow


def boolean_batch(subject, clipping, op):
    """Row-wise ``subject <op> clipping`` over two Arrow multipolygon
    columns → Arrow multipolygon array.

    ``op`` is one op name for every row, or one name per row (a list or
    an Arrow string array).  An operand may be a dictionary column
    (``pa.DictionaryArray.from_arrays(rows, geometries)``): row i then
    reads geometry ``rows[i]``, so a join passes its candidate pairs as
    row indices and the native kernel gathers them without a copy.  A
    null in either operand, a null index or a valid index to a null
    geometry, gives a null result; the kernel runs on the other rows
    only."""
    subject, clipping, op, valid = _valid_pairs(subject, clipping, op)
    res = _kernel(subject, clipping, op)
    if valid is None:
        return res
    # scatter back: a null index takes a null result
    return res.take(pa.array(np.cumsum(valid) - 1, mask=~valid))


def boolean_areas(subject, clipping, op):
    """``boolean_batch`` reduced to what an area join reads: (absolute
    structural area of each row's result, whether it has a polygon),
    two numpy arrays, bit for bit ``abs(arrow_mp_areas(res))`` and
    ``list_value_length(res) > 0`` of ``res = boolean_batch(...)``.  The
    native kernel returns the areas without building the result rings;
    the Python kernel builds them and sums them here.  Same operands
    and null contract as ``boolean_batch``: a row with a null operand
    has area 0.0 and is never non-empty, and the kernel runs on the
    other rows only."""
    subject, clipping, op, valid = _valid_pairs(subject, clipping, op)
    # looked up on the module at call time, like native_boolean_batch
    out = native.native_boolean_areas(subject, clipping, op)
    if out is None:
        res = _python_kernel(subject, clipping, op)
        out = arrow_mp_areas(res), pc.list_value_length(res).to_numpy(zero_copy_only=False) > 0
    area, non_empty = np.abs(out[0]), out[1]
    if valid is None:
        return area, non_empty
    all_area, all_non_empty = np.zeros(len(valid)), np.zeros(len(valid), bool)
    all_area[valid], all_non_empty[valid] = area, non_empty
    return all_area, all_non_empty


def _valid_pairs(subject, clipping, op):
    """The kernel's operands: the rows of ``subject``, ``clipping`` and
    ``op`` without a null operand, and the row validity mask (None when
    every row is valid)."""
    if isinstance(subject, pa.ChunkedArray):
        subject = subject.combine_chunks()
    if isinstance(clipping, pa.ChunkedArray):
        clipping = clipping.combine_chunks()
    if isinstance(op, pa.ChunkedArray):
        op = op.combine_chunks()
    elif not isinstance(op, (str, pa.Array)):
        op = pa.array(op, pa.string())
    if not (_has_nulls(subject) or _has_nulls(clipping)):
        return subject, clipping, op, None
    valid = np.logical_and(_valid(subject), _valid(clipping))
    rows = pa.array(np.flatnonzero(valid))
    op = op if isinstance(op, str) else op.take(rows)
    return subject.take(rows), clipping.take(rows), op, valid


def _has_nulls(col) -> bool:
    if pa.types.is_dictionary(col.type):
        return bool(col.null_count or col.dictionary.null_count)
    return bool(col.null_count)


def _valid(col) -> np.ndarray:
    """Row validity.  ``is_valid`` of a dictionary column sees only its
    indices; its row is valid when the geometry it reads is too."""
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    if pa.types.is_dictionary(col.type) and col.dictionary.null_count:
        rows = col.indices.fill_null(0).to_numpy(zero_copy_only=False)
        valid &= col.dictionary.is_valid().to_numpy(zero_copy_only=False)[rows]
    return valid


def _decoded(col):
    return col.dictionary_decode() if pa.types.is_dictionary(col.type) else col


def _kernel(subject, clipping, op):
    # looked up on the module at call time: the benchmark's tracer
    # patches native.native_boolean_batch
    res = native.native_boolean_batch(subject, clipping, op)
    return _python_kernel(subject, clipping, op) if res is None else res


def _python_kernel(subject, clipping, op):
    ops = [op] * len(subject) if isinstance(op, str) else op.to_pylist()
    return mps_to_arrow(
        [
            boolean_op_python(s, c, o)
            for s, c, o in zip(
                arrow_to_mps(_decoded(subject)), arrow_to_mps(_decoded(clipping)), ops
            )
        ]
    )


class BooleanOpBatch:
    """Callable batch kernel: subject × clipping → result multipolygon.

    Stateless — safe as a plain map_batches function (Ray task pool).
    ``operation`` fixes one op for the whole stage; ``op_column`` reads a
    per-row op tag instead.
    """

    def __init__(
        self,
        operation: str | None = None,
        op_column: str | None = None,
        subject_col: str = "subject",
        clipping_col: str = "clipping",
        result_col: str = "result",
        on_error: str = "raise",
    ):
        if (operation is None) == (op_column is None):
            raise ValueError("exactly one of operation / op_column required")
        if operation is not None and operation not in OPERATIONS:
            raise ValueError(f"unknown operation: {operation!r}")
        if on_error not in ("raise", "null"):
            raise ValueError(on_error)
        # on_error='null': poison-pill isolation — a degenerate geometry
        # yields a null result + error string instead of failing the
        # whole task/partition (at 100 TB one bad row must not kill a
        # block; Ray would otherwise retry the task against the same
        # deterministic failure).
        self.on_error = on_error
        self.operation = operation
        self.op_column = op_column
        self.subject_col = subject_col
        self.clipping_col = clipping_col
        self.result_col = result_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        subj = batch[self.subject_col]
        clip = batch[self.clipping_col]
        ops = self.operation if self.op_column is None else batch[self.op_column]
        field = pa.field(self.result_col, MULTIPOLYGON_T)
        if self.on_error == "raise":
            return batch.append_column(field, boolean_batch(subj, clip, ops))

        errors = [None] * batch.num_rows
        try:
            res = boolean_batch(subj, clip, ops)
        except Exception:  # noqa: BLE001 — isolate the failing rows below
            # the batch failed: rerun it row by row so only the rows
            # that raise get a null result and an error string
            parts = []
            for i in range(batch.num_rows):
                row_op = ops if isinstance(ops, str) else ops.slice(i, 1)
                try:
                    parts.append(boolean_batch(subj.slice(i, 1), clip.slice(i, 1), row_op))
                except Exception as exc:  # noqa: BLE001 — poison-pill isolation
                    parts.append(pa.nulls(1, MULTIPOLYGON_T))
                    errors[i] = f"{type(exc).__name__}: {exc}"
            res = pa.concat_arrays(parts)
        return batch.append_column(field, res).append_column(
            pa.field(self.result_col + "_error", pa.string()),
            pa.array(errors, pa.string()),
        )
