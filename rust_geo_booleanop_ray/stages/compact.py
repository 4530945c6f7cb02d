"""Log compaction / latest-record-per-key (SCD upsert resolution).

The reference has no notion of mutable keys (SURVEY.md §2.4); this is
the engine addition every CDC / event-log pipeline at scale needs:
given an append-only log where keys repeat, keep only the newest
version of each key.

Scale shape: a per-batch combiner first reduces every block to AT MOST
one row per key (vectorized lexsort, no Python per-row work), so the
single key-hash-BUCKETED exchange moves ≤ one row per (block, key) —
for a 100-TB log with a bounded key universe that is orders of
magnitude less than shuffling the raw rows.  The bucketed merge then
applies the same reduction (one lexsort resolves every key in the
bucket — never a Python call per distinct key), and because all
survivors of a key share a bucket, the bucket-local maximum IS the
global maximum.

Determinism: the winner is the lexicographic maximum over
``order_cols`` (e.g. ``("ts_us", "event_id")``) — callers should make
the tuple unique per key (append a unique id) so ties cannot make the
result depend on block boundaries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import hash_exchange


def last_per_key(t: pa.Table, key: str, order_cols) -> pa.Table:
    """Keep the row with the lexicographically greatest ``order_cols``
    per distinct ``key`` (vectorized; stable for tied tuples: the
    later row in table order wins, so make the tuple unique)."""
    if t.num_rows == 0:
        return t
    k = t[key].to_numpy(zero_copy_only=False)
    # np.lexsort: LAST key is the primary sort key → pass the least
    # significant order column first, the partition key last
    sort_keys = tuple(
        t[c].to_numpy(zero_copy_only=False) for c in reversed(list(order_cols))
    ) + (k,)
    order = np.lexsort(sort_keys)
    ks = k[order]
    run_end = np.nonzero(ks[1:] != ks[:-1])[0]
    idx = order[np.concatenate((run_end, [len(ks) - 1]))]
    return t.take(pa.array(idx))


def latest_by_key(ds, key: str, order_cols, out_cols=None):
    """Compact a Dataset to one row per ``key``: the lexicographic
    maximum of ``order_cols`` wins.  ``out_cols`` projects the result
    (default: all columns).  One shuffle, ≤ one row per (block, key)
    on the wire."""
    # the partial sorts on order_cols, so they must survive the
    # projection even when out_cols omits them (kept-through columns
    # are dropped only from the FINAL select below)
    cols = (
        None
        if out_cols is None
        else [key]
        + [c for c in order_cols if c != key]
        + [c for c in out_cols if c != key and c not in order_cols]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if cols is not None:
            batch = batch.select(cols)
        return last_per_key(batch, key, order_cols)

    def merge(group: pa.Table) -> pa.Table:
        # keys are rows-cardinality (users/content ids): one lexsort
        # resolves every key in the bucket, never one call per key
        return last_per_key(group.drop_columns(["bucket"]), key, order_cols)

    out = hash_exchange(ds.map_batches(partial, batch_format="pyarrow"), key, merge)
    if out_cols is not None:
        final = [key] + [c for c in out_cols if c != key]
        out = out.map_batches(
            lambda b: b.select(final), batch_format="pyarrow"
        )
    return out
