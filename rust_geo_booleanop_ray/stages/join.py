"""Relational join operators expressed Ray-Data-first.

The reference has no joins (SURVEY.md §2.4); these are the engine
additions a large-scale pipeline needs.  Two physical strategies:

- ``broadcast_join``: small side is ``ray.put`` ONCE and looked up
  inside every ``map_batches`` task — no shuffle, the right choice
  whenever one side fits in a worker heap (dimension tables, tile
  polygons, query matrices).

- ``shuffle_hash_join``: both sides are tagged, unioned and
  hash-partitioned by the key via ``exchange.hash_exchange``; each
  bucket emits the local product.  One all-to-all exchange total (the
  union shuffles once, not once per side).  This is the scale path for
  big⋈big; key skew is the operator's documented hazard — pre-aggregate
  the probe side first (as q_revenue_by_nation does) or salt hot keys.

Range (interval) joins are not here: ``q_range_join`` in
pipelines/catalog/joins.py is a temporal PBSM (events to their home
hour bucket, intervals replicated to every bucket they span, one
shuffle), with no broadcast interval index.

Ray ≥2.46 ships an experimental ``Dataset.join`` (hash shuffle via
aggregator actors); measured head-to-head on a 600k⋈150k int join at 32
CPUs it runs ~1.5× slower than this union+sort+Acero plan (6.9 s vs
4.5 s — actor-pool startup dominates), so the engine keeps its own
operator and revisits when the built-in stabilizes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import N_BUCKETS, hash_exchange


def broadcast_join(ds, small_table: pa.Table, key: str, value_cols, batch_format="pyarrow"):
    """Attach columns of ``small_table`` to every row of ``ds`` matching
    on ``key`` (inner join; unmatched rows are dropped).

    ``small_table`` is shipped to the object store once; each task reads
    it zero-copy.  At 100 TB this is the ONLY sane plan when the small
    side is ≤ a few GB — never shuffle the big side for a dimension
    lookup."""
    import ray

    small_ref = ray.put(small_table)

    def attach(batch: pa.Table) -> pa.Table:
        small = ray.get(small_ref)
        skeys = small[key].to_numpy()
        if len(skeys) == 0:
            # empty build side → empty inner join (searchsorted below
            # would index order[-1] into an empty array)
            out = batch.slice(0, 0)
            for col in value_cols:
                out = out.append_column(col, small[col].slice(0, 0))
            return out
        bkeys = batch[key].to_numpy()
        order = np.argsort(skeys, kind="stable")
        pos = np.searchsorted(skeys[order], bkeys)
        pos = np.clip(pos, 0, len(skeys) - 1)
        idx = order[pos]
        hit = skeys[idx] == bkeys
        batch = batch.filter(pa.array(hit))
        idx = idx[hit]
        for col in value_cols:
            batch = batch.append_column(col, small[col].take(pa.array(idx)))
        return batch

    return ds.map_batches(attach, batch_format=batch_format)


_SIDE_COL = "__join_side"


def shuffle_hash_join(
    left,
    right,
    key: str,
    left_cols,
    right_cols,
    n_buckets: int = N_BUCKETS,
    distinct: str | None = None,
    *,
    left_schema: pa.Schema,
    right_schema: pa.Schema,
    how: str = "inner",
):
    """Equi-join of two Datasets on ``key``.

    ``how='inner'`` (default) emits the matched product;
    ``how='semi'`` / ``how='anti'`` emit the LEFT rows with ≥1 / no
    right-side match (projected to ``[key] + left_cols`` — the filter
    joins a pipeline needs for "has orders" / "not yet processed"
    predicates); ``how='left'`` is the left OUTER join — matched
    product plus unmatched left rows with null right columns;
    ``how='full'`` is the full OUTER join — additionally keeps
    unmatched RIGHT rows with null left columns (the key column is
    coalesced across sides, as in SQL ``COALESCE(l.key, r.key)``).
    Same single-shuffle physical plan for all five: all rows of a key
    land in one bucket, so the bucket-local Acero verdict IS the
    global verdict.

    Physical plan: project each side to (key, side-tag, own columns ⊕
    typed-null columns of the other side) so the union is
    schema-aligned, then ONE ``hash_exchange`` on the key and a
    vectorized Arrow (Acero) hash join per bucket.  Bucketing — not per-key grouping — is what scales: the
    shuffle moves each row once and the local join is C++, instead of
    one Python group call per distinct key.  Returns columns
    ``[key] + left_cols + right_cols``.

    ``distinct='left'|'right'`` keeps the first row per key on that side
    before joining.  All rows of a key land in one bucket, so
    bucket-local dedup IS global dedup — a semi-join without paying a
    separate distinct shuffle.

    ``left_schema``/``right_schema`` (required): the sides' arrow
    schemas, declared by the caller.  They type the null padding and
    the key check when the plan is built; inferring them with
    ``Dataset.schema()`` would run part of each side's plan once more."""

    if how not in ("inner", "semi", "anti", "left", "full"):
        raise ValueError(f"how must be inner|semi|anti|left|full, got {how!r}")
    all_cols = list(left_cols) + list(right_cols)
    out_cols = list(left_cols) if how in ("semi", "anti") else all_cols

    # The two tagged sides must be schema-aligned for union(), so the
    # null padding columns need each side's REAL arrow types, taken
    # from the declared schemas.
    types = {}
    for c in left_cols:
        types[c] = left_schema.field(c).type
    for c in right_cols:
        types[c] = right_schema.field(c).type
    key_type = left_schema.field(key).type
    # bucket_of also rejects it, but only once the plan runs
    if not pa.types.is_integer(key_type):
        raise TypeError(
            f"shuffle_hash_join key {key!r} must be an integer column, got {key_type}"
        )

    def tag_typed(side_cols, tag_value):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {key: batch[key]}
            for c in all_cols:
                cols[c] = batch[c] if c in side_cols else pa.nulls(n, types[c])
            cols[_SIDE_COL] = pa.array(np.full(n, tag_value, dtype=np.int8))
            return pa.table(cols)

        return fn

    lt = left.map_batches(tag_typed(set(left_cols), 0), batch_format="pyarrow")
    rt = right.map_batches(tag_typed(set(right_cols), 1), batch_format="pyarrow")

    empty_fields = [pa.field(key, key_type)] + [pa.field(c, types[c]) for c in out_cols]

    def _first_per_key(t: pa.Table) -> pa.Table:
        keys = t[key].to_numpy(zero_copy_only=False)
        _, idx = np.unique(keys, return_index=True)
        return t.take(pa.array(np.sort(idx)))

    def join_bucket(group: pa.Table) -> pa.Table:
        side = group[_SIDE_COL].to_numpy()
        lmask = side == 0
        l = group.filter(pa.array(lmask)).select([key] + list(left_cols))
        r = group.filter(pa.array(~lmask)).select([key] + list(right_cols))
        if l.num_rows == 0:
            if how == "full":
                # left side empty: every right row survives with
                # typed-null left columns
                for c in left_cols:
                    r = r.append_column(c, pa.nulls(r.num_rows, types[c]))
                return r.select([key] + out_cols)
            return pa.schema(empty_fields).empty_table()
        if r.num_rows == 0:
            # empty build side: anti/left/full keep every left row
            # (outer modes pad the right columns with typed nulls),
            # inner/semi none
            if how == "anti":
                return l.select([key] + out_cols)
            if how in ("left", "full"):
                for c in right_cols:
                    l = l.append_column(c, pa.nulls(l.num_rows, types[c]))
                return l.select([key] + out_cols)
            return pa.schema(empty_fields).empty_table()
        if distinct == "left":
            l = _first_per_key(l)
        elif distinct == "right":
            r = _first_per_key(r)
        acero_type = {
            "inner": "inner",
            "semi": "left semi",
            "anti": "left anti",
            "left": "left outer",
            "full": "full outer",
        }[how]
        joined = l.join(r.select([key]) if how in ("semi", "anti") else r,
                        keys=key, join_type=acero_type)
        # Acero may reorder columns; project to the declared layout
        return joined.select([key] + out_cols)

    return hash_exchange(lt.union(rt), key, join_bucket, n_buckets)


# ------------------------------------------------------------ bloom filter

_BLOOM_C2 = np.uint64(0x9E3779B97F4A7C15)


def _bloom_hashes(keys: np.ndarray, n_bits: int, n_hashes: int) -> np.ndarray:
    """(len(keys), n_hashes) bit indices via double hashing
    h1 + i*h2 — splitmix64 streams, deterministic across processes."""
    from .footprint import _splitmix64

    k = keys.astype(np.uint64, copy=False)
    h1 = _splitmix64(k)
    h2 = _splitmix64(k ^ _BLOOM_C2) | np.uint64(1)  # odd → full period
    i = np.arange(n_hashes, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(n_bits)).astype(
        np.int64
    )


def build_bloom(ds, key: str, n_bits: int = 1 << 23, n_hashes: int = 4) -> np.ndarray:
    """Distributed bloom-filter build over ``ds[key]`` (integer keys):
    each block folds its keys into a local bitmap; Ray's aggregate
    tree-reduce ORs the bitmaps.  The driver receives ONE
    ``n_bits/64``-word uint64 array (1 MiB at the default 2^23 bits)
    regardless of input size."""
    from ray.data.aggregate import AggregateFn

    n_words = n_bits >> 6

    def accumulate_block(words, block) -> np.ndarray:
        t = pa.table(block) if not isinstance(block, pa.Table) else block
        keys = t[key].to_numpy(zero_copy_only=False)
        idx = _bloom_hashes(keys, n_bits, n_hashes).ravel()
        w = words.copy()
        np.bitwise_or.at(w, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64))
        return w

    agg = AggregateFn(
        init=lambda _: np.zeros(n_words, dtype=np.uint64),
        accumulate_block=accumulate_block,
        merge=lambda a, b: np.bitwise_or(a, b),
        name="bloom",
    )
    out = ds.aggregate(agg)
    return out["bloom"]


def bloom_might_contain(words: np.ndarray, keys: np.ndarray, n_hashes: int = 4) -> np.ndarray:
    """Vectorized membership probe; False is definite, True is maybe."""
    n_bits = len(words) << 6
    idx = _bloom_hashes(keys, n_bits, n_hashes)
    bits = (words[idx >> 6] >> (idx & 63).astype(np.uint64)) & np.uint64(1)
    return bits.all(axis=1).astype(bool)


def bloom_prefilter(ds, words_ref, key: str, n_hashes: int = 4):
    """Drop rows whose ``key`` definitely isn't in the bloom filter —
    the cheap pre-shuffle guard for semi/inner joins: at 100 TB the
    probe side sheds its non-matching rows BEFORE the exchange, for
    one broadcast bitmap (``ray.put`` once) instead of a shuffle.
    Safe only where false positives are tolerable downstream (they
    are for semi/inner — Acero still decides exactly)."""
    import ray

    def fil(batch: pa.Table) -> pa.Table:
        words = ray.get(words_ref) if hasattr(words_ref, "hex") else words_ref
        keys = batch[key].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(bloom_might_contain(words, keys, n_hashes)))

    return ds.map_batches(fil, batch_format="pyarrow")
