"""Exact COUNT(DISTINCT) under hot grouping keys.

The hazard: ``groupby(group_col)`` with a low-cardinality key (e.g.
5 event types over 100 TB of events) lands each key's ENTIRE row set
on one task — the canonical skew stall.  Partitioning by the *distinct*
column instead fixes the shape without approximation: every row of a
value meets in one ``hash_exchange`` bucket, so each bucket counts its
(group, value) pairs exactly and no value is counted in two buckets.

Plan, one real exchange:
1. per-batch combiner: unique (group, distinct) pairs — shrinks each
   block to its local distinct set before any shuffle;
2. ``hash_exchange(distinct_col)`` → one ``np.unique`` over (group,
   value) per bucket → one (group, count) row per group in the bucket;
3. ``groupby(group).aggregate(Sum)`` over ≤ n_buckets rows per group —
   negligible.

Compare ``stages/sketch.py::hll`` for the approximate path when the
distinct sets themselves are too big to co-locate per bucket.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import hash_exchange


def salted_distinct_count(ds, group_col: str, distinct_col: str):
    """Exact per-group distinct count of an integer column, skew-proof.

    Returns a Dataset with columns ``(group_col, n_distinct)``.
    """

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, distinct_col])
        return pa.TableGroupBy(t, [group_col, distinct_col]).aggregate([])

    def count_bucket(group: pa.Table) -> pa.Table:
        codes = pc.dictionary_encode(
            group[group_col].combine_chunks(), null_encoding="encode"
        )
        pairs = np.unique(
            np.stack(
                [
                    codes.indices.to_numpy().astype(np.int64),
                    group[distinct_col].to_numpy().astype(np.int64),
                ],
                axis=1,
            ),
            axis=0,
        )
        gi, n = np.unique(pairs[:, 0], return_counts=True)
        return pa.table(
            {
                group_col: codes.dictionary.take(pa.array(gi)),
                "n_distinct": pa.array(n, pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        hash_exchange(
            ds.map_batches(partial, batch_format="pyarrow"),
            distinct_col,
            count_bucket,
        )
        .groupby(group_col)
        .aggregate(Sum("n_distinct", alias_name="n_distinct"))
    )
