"""The one hash exchange: co-locate every row of a key in one bucket and
run one vectorized kernel per bucket.

Keys whose cardinality is ~rows (users, documents, pairs, band keys,
graph nodes) must never reach ``groupby(key)`` directly: Ray's generic
aggregate and per-key ``map_groups`` both pay a Python call per distinct
key (~170 CPU-s per ~1M keys measured).  ``hash_exchange`` shuffles by
``bucket_of(key)`` instead, so the kernel runs ``n_buckets`` times and
sees every row of each of its keys in one call.  The bucket is
partitioning only: no output column and no oracle depends on it.

A kernel whose job is a per-key sum, count, min or max calls Arrow's
hash aggregate, ``pa.TableGroupBy(group, keys, use_threads=False)
.aggregate([...])``, and selects its ``<col>_<agg>`` columns by name.
``use_threads=False``: the kernel already runs in a Ray task that holds
one CPU, and Arrow's thread pool cost ~10 ms per 64-bucket exchange of
small groups without speeding up a 1M-row one.  A float sum stays in
numpy unless its query is shown bit-identical (Arrow sums in another
order).  A lexsort and run starts are for results that depend on row
order: windows, pair fan-outs, argmax tie-breaks, bitwise folds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .footprint import _splitmix64

N_BUCKETS = 64


def bucket_of(table: pa.Table, key, n_buckets: int = N_BUCKETS) -> np.ndarray:
    """int64 bucket per row: ``h = splitmix64(h ^ col)`` folded over the
    key column(s) from ``h = 0``, then ``h % n_buckets``.  Rows with
    equal keys get equal buckets in every block and every process.
    Raises ``TypeError`` on a non-integer key column and ``ValueError``
    on a null key, naming the column."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for name in [key] if isinstance(key, str) else key:
        col = table[name]
        if not pa.types.is_integer(col.type):
            raise TypeError(f"exchange key {name!r} must be an integer column, got {col.type}")
        if col.null_count:
            raise ValueError(f"exchange key {name!r} contains nulls; filter or fill_null first")
        h = _splitmix64(h ^ col.to_numpy().astype(np.int64).view(np.uint64))
    return (h % np.uint64(n_buckets)).astype(np.int64)


def hash_exchange(ds, key, kernel, n_buckets: int = N_BUCKETS):
    """Append ``bucket = bucket_of(key)``, run one sort shuffle on it and
    call ``kernel(group)`` (pyarrow in, pyarrow out) once per bucket;
    the group keeps its ``bucket`` column.

    A kernel returns a typed table for every group, empty ones
    included.  Ray's sort still emits a schema-less empty block for each
    partition no row reaches, and never calls the kernel on it, so
    such blocks pass through without a schema."""

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("bucket", pa.array(bucket_of(batch, key, n_buckets)))

    return (
        ds.map_batches(tag, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(kernel, batch_format="pyarrow")
    )
