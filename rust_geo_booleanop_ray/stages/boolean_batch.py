"""Boolean ops as stateless Ray Data batch kernels.

The reference's unit of work is one polygon pair per call
(lib/src/boolean/mod.rs:88); here the unit is an Arrow batch of pairs —
rows are independent, so parallelism is across rows/batches and the
sweep stays sequential per row.

``boolean_batch`` is the one place that chooses the kernel: the native
batch entry point when the C library is available, else the pure-Python
reference kernel row by row (``GEO_NATIVE=0`` or no compiler).  Both
produce the same bits; every stage that clips calls it.  The native
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

from .. import native
from ..geom import OPERATIONS
from ..geom.boolean_op import boolean_op_python
from ..sources.arrow_geom import MULTIPOLYGON_T, arrow_to_mps, mps_to_arrow


def boolean_batch(subject, clipping, op):
    """Row-wise ``subject <op> clipping`` over two Arrow multipolygon
    columns → Arrow multipolygon array.

    ``op`` is one op name for every row, or one name per row (a list or
    an Arrow string array).  A null in either operand gives a null
    result; the kernel runs on the other rows only."""
    if isinstance(subject, pa.ChunkedArray):
        subject = subject.combine_chunks()
    if isinstance(clipping, pa.ChunkedArray):
        clipping = clipping.combine_chunks()
    if isinstance(op, pa.ChunkedArray):
        op = op.combine_chunks()
    elif not isinstance(op, (str, pa.Array)):
        op = pa.array(op, pa.string())
    if not (subject.null_count or clipping.null_count):
        return _kernel(subject, clipping, op)

    valid = np.logical_and(
        subject.is_valid().to_numpy(zero_copy_only=False),
        clipping.is_valid().to_numpy(zero_copy_only=False),
    )
    rows = pa.array(np.flatnonzero(valid))
    res = _kernel(
        subject.take(rows), clipping.take(rows), op if isinstance(op, str) else op.take(rows)
    )
    # scatter back: a null index takes a null result
    return res.take(pa.array(np.cumsum(valid) - 1, mask=~valid))


def _kernel(subject, clipping, op):
    # looked up on the module at call time: the benchmark's tracer
    # patches native.native_boolean_batch
    res = native.native_boolean_batch(subject, clipping, op)
    if res is not None:
        return res
    ops = [op] * len(subject) if isinstance(op, str) else op.to_pylist()
    return mps_to_arrow(
        [
            boolean_op_python(s, c, o)
            for s, c, o in zip(arrow_to_mps(subject), arrow_to_mps(clipping), ops)
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
