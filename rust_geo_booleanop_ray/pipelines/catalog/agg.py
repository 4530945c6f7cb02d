"""Batch aggregation queries: TPC-H-ish reports, sampling, sketches, linalg."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ...stages.exchange import hash_exchange
from ._shared import (
    GRAM_DIM,
    KMEANS_ITERS,
    KMEANS_K,
    Query,
    _EPOCH_2024_US,
    _cents,
    _read,
    triu_pairs_in_runs,
)


# ------------------------------------------------------------------ batch/agg


def q_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped pricing summary, cents-exact (partial aggregation
    inside map_batches, then a tiny groupby merge)."""
    from ray.data.aggregate import Count, Sum

    cutoff = np.datetime64("1998-09-02T00:00:00.000000")

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch["l_shipdate"].to_numpy()
        mask = ship <= cutoff
        keep = pa.array(mask)
        qty = batch["l_quantity"].to_numpy()[mask]
        price = batch["l_extendedprice"].to_numpy()[mask]
        disc = batch["l_discount"].to_numpy()[mask]
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"].filter(keep),
                "l_linestatus": batch["l_linestatus"].filter(keep),
                "q": pa.array(_cents(qty)),
                "base": pa.array(_cents(price)),
                "disc": pa.array(_cents(price * (1.0 - disc))),
            }
        )
        agg = pa.TableGroupBy(t, ["l_returnflag", "l_linestatus"]).aggregate(
            [("q", "sum"), ("base", "sum"), ("disc", "sum"), ("q", "count")]
        )
        return agg.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty_c", "sum_base_c", "sum_disc_c", "n_rows"]
        )

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_quantity", "l_extendedprice", "l_discount", "l_returnflag", "l_linestatus", "l_shipdate"],
    )
    ds = ds.map_batches(partial, batch_format="pyarrow")
    return ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty_c", alias_name="sum_qty_c"),
        Sum("sum_base_c", alias_name="sum_base_c"),
        Sum("sum_disc_c", alias_name="sum_disc_c"),
        Sum("n_rows", alias_name="n_rows"),
    )


Q_PRICING_SQL = """
    SELECT l_returnflag, l_linestatus,
           CAST(SUM(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty_c,
           CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_c,
           CAST(SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_c,
           CAST(COUNT(*) AS BIGINT) AS n_rows
    FROM lineitem
    WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
    GROUP BY l_returnflag, l_linestatus
"""


def q_top_customers(sf_dir: str):
    """Top-10 customers by order spend: per-block partial sums → ONE
    key-bucketed shuffle with a vectorized merge + per-bucket top-10
    guard → bounded final sort; names joined via broadcast lookup."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": batch["o_custkey"],
                "spend_c": pa.array(_cents(batch["o_totalprice"].to_numpy())),
            }
        )
        agg = pa.TableGroupBy(t, "o_custkey").aggregate([("spend_c", "sum")])
        return agg.rename_columns(["o_custkey", "spend_c"])

    def merge_topk_bucket(group: pa.Table) -> pa.Table:
        # a key's partials all share a bucket, so these totals are
        # global and each bucket only forwards its own top-10
        agg = pa.TableGroupBy(group, "o_custkey", use_threads=False).aggregate(
            [("spend_c", "sum")]
        )
        uk = agg["o_custkey"].to_numpy()
        tot = agg["spend_c_sum"].to_numpy()
        top = np.lexsort((uk, -tot))[:10]
        return pa.table(
            {
                "o_custkey": pa.array(uk[top], pa.int64()),
                "spend_c": pa.array(tot[top], pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    spend = hash_exchange(
        orders.map_batches(partial, batch_format="pyarrow"), "o_custkey", merge_topk_bucket
    )
    top = spend.sort(["spend_c", "o_custkey"], descending=[True, False]).limit(10)

    import pyarrow.parquet as pq

    from ...stages.join import broadcast_join

    # dimension lookup via the standard broadcast-join operator (Arrow
    # table ray.put once + searchsorted attach) — no driver-side dict
    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"])
    top = top.map_batches(
        lambda b: b.rename_columns(["c_custkey", "spend_c"]), batch_format="pyarrow"
    )
    joined = broadcast_join(top, cust, "c_custkey", ["c_name"])
    return joined.select_columns(["c_custkey", "c_name", "spend_c"])


Q_TOP_CUSTOMERS_SQL = """
    SELECT c.c_custkey, c.c_name, s.spend_c
    FROM (
      SELECT o_custkey, CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS spend_c
      FROM orders GROUP BY o_custkey
      ORDER BY spend_c DESC, o_custkey LIMIT 10
    ) s JOIN customer c ON c.c_custkey = s.o_custkey
"""


def q_price_histogram(sf_dir: str):
    """Fixed-width histogram of order totals (60 × 10k bins): the
    per-batch combiner bincounts locally so the single exchange moves
    ≤ 60 rows per block — the distributed-histogram shape that feeds
    equi-width binning, outlier fences and data-profiling at 100 TB.
    Empty bins are absent in both engines (GROUP BY semantics)."""
    from ray.data.aggregate import Sum

    BIN_W = 10_000.0

    def partial(batch: pa.Table) -> pa.Table:
        bins = np.floor(
            batch["o_totalprice"].to_numpy() / BIN_W
        ).astype(np.int64)
        uniq, counts = np.unique(bins, return_counts=True)
        return pa.table(
            {
                "bin": pa.array(uniq, pa.int64()),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    ds = _read(sf_dir, "orders", ["o_totalprice"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n"))
    )


Q_PRICE_HISTOGRAM_SQL = """
    SELECT CAST(floor(o_totalprice / 10000.0) AS BIGINT) AS bin,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM orders GROUP BY bin
"""


def q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type — a 5-value grouping
    key over the whole log, i.e. the canonical hot-key aggregate.
    Kept skew-proof AND exact by exchanging on the user, not the type:
    ``hash_exchange(user_id)`` puts every row of a user in one bucket,
    each bucket counts its distinct (type, user) pairs, and a trivial
    Sum folds the buckets.  Contrast `hll_distinct`, the approximate
    path when even a bucket's distinct set is too large."""
    from ...stages.distinct import salted_distinct_count

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    return salted_distinct_count(ds, "event_type", "user_id")


Q_DISTINCT_USERS_SQL = """
    SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_distinct
    FROM events GROUP BY event_type
"""


def q_mode_event(sf_dir: str):
    """Exact mode (most frequent event_type) per user with a
    deterministic lexicographic tie-break.  Per-batch partial counts
    shrink the exchange to one row per (user, type) per batch — the
    counts monoid — then ONE user-bucketed shuffle merges the counts
    and argmaxes every user in one lexsort per bucket."""

    def partial(batch: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(
            batch.select(["user_id", "event_type"]), ["user_id", "event_type"]
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": agg["user_id"],
                "event_type": agg["event_type"],
                "n": agg["count_all"].cast(pa.int64()),
            }
        )

    def pick_bucket(group: pa.Table) -> pa.Table:
        # merge the (user, type) partials, then argmax per user
        agg = pa.TableGroupBy(group, ["user_id", "event_type"], use_threads=False).aggregate(
            [("n", "sum")]
        )
        uu = agg["user_id"].to_numpy()
        tt = agg["event_type"].to_numpy(zero_copy_only=False)
        tot = agg["n_sum"].to_numpy()
        # winner per user by (count desc, type asc): lexsort then first
        o2 = np.lexsort((tt, -tot, uu))
        first = np.concatenate(([True], uu[o2][1:] != uu[o2][:-1]))
        sel = o2[first]
        return pa.table(
            {
                "user_id": pa.array(uu[sel], pa.int64()),
                "mode_event": pa.array(tt[sel], pa.string()),
                "mode_count": pa.array(tot[sel].astype(np.int64)),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return hash_exchange(ds.map_batches(partial, batch_format="pyarrow"), "user_id", pick_bucket)


Q_MODE_EVENT_SQL = """
    WITH c AS (
      SELECT user_id, event_type, COUNT(*) AS n
      FROM events GROUP BY user_id, event_type
    )
    SELECT user_id, event_type AS mode_event,
           CAST(n AS BIGINT) AS mode_count
    FROM c
    QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY n DESC, event_type) = 1
"""


def q_hash_sample(sf_dir: str):
    """Deterministic ~5% hash sample of orders (Knuth multiplicative
    hash on the key — reproducible across engines and runs, unlike
    random_sample), aggregated per order status.  The sampling op a
    training-data pipeline needs for repeatable subset selection."""
    from ray.data.aggregate import Count, Sum

    def sample(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy().astype(np.uint64)
        # reduce mod 2^32 BEFORE multiplying: (2^32-1)*2654435761 < 2^64
        # so the uint64 product is exact, matching the SQL side's
        # arbitrary-precision arithmetic at any key magnitude (an
        # unreduced key > ~6.9e9 would wrap here but not in DuckDB)
        h = ((keys % np.uint64(4294967296)) * np.uint64(2654435761)) % np.uint64(
            4294967296
        )
        keep = (h % np.uint64(100)) < 5
        kept = batch.filter(pa.array(keep))
        return pa.table(
            {
                "o_orderstatus": kept["o_orderstatus"],
                "price_c": pa.array(_cents(kept["o_totalprice"].to_numpy())),
            }
        )

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])
    return (
        ds.map_batches(sample, batch_format="pyarrow")
        .groupby("o_orderstatus")
        .aggregate(Count(alias_name="n"), Sum("price_c", alias_name="sum_price_c"))
    )


Q_HASH_SAMPLE_SQL = """
    SELECT o_orderstatus,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_price_c
    FROM orders
    WHERE (((o_orderkey % 4294967296) * 2654435761) % 4294967296) % 100 < 5
    GROUP BY o_orderstatus
"""


BOTTOMK_K = 200


def q_bottomk_sample(sf_dir: str):
    """Fixed-size uniform sample WITHOUT replacement via bottom-k of
    splitmix64 priorities — the mergeable distributed sampling
    primitive (hash_sample gives a fixed RATE; training-data curation
    usually wants a fixed COUNT).  Each block keeps its local bottom-k
    (the partial is trivially mergeable: bottom-k of bottom-ks is the
    global bottom-k), one final merge on a single block.  Deterministic
    across engines and block layouts."""
    from ...stages.footprint import _splitmix64

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy().astype(np.uint64)
        pri = _splitmix64(keys)
        k = min(BOTTOMK_K, len(pri))
        idx = np.argsort(pri, kind="stable")[:k]
        return pa.table(
            {
                "o_orderkey": batch["o_orderkey"].take(pa.array(idx)),
                "pri": pa.array(pri[idx].view(np.int64), pa.int64()),
            }
        )

    def final(batch: pa.Table) -> pa.Table:
        pri = batch["pri"].to_numpy().view(np.uint64)
        idx = np.argsort(pri, kind="stable")[: min(BOTTOMK_K, len(pri))]
        return batch.take(pa.array(idx))

    ds = _read(sf_dir, "orders", ["o_orderkey"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        # batch_size=None: the global cut is only correct over the
        # whole merged block as ONE batch
        .map_batches(final, batch_format="pyarrow", batch_size=None)
    )


def _build_bottomk_sql() -> str:
    ctes = _splitmix64_ctes("orders", "o_orderkey", "o_orderkey")
    return f"""
    WITH {ctes}
    SELECT o_orderkey,
           CAST(h - CASE WHEN h >= 9223372036854775808::HUGEINT
                    THEN 18446744073709551616::HUGEINT ELSE 0::HUGEINT END
                AS BIGINT) AS pri
    FROM hsh ORDER BY h LIMIT {BOTTOMK_K}
"""


GROUPED_SAMPLE_K = 7


def q_grouped_sample(sf_dir: str):
    """Per-STRATUM fixed-k deterministic sample: the k lowest
    splitmix64 priorities per order priority class — the balanced
    eval-set draw (equal representation per stratum regardless of
    stratum size; `stratified_sample` keeps a fixed RATE instead).
    Mergeable like bottomk_sample: each block keeps its local per-group
    bottom-k (one lexsort, no per-group Python — group count is
    bounded by the 5 priority classes), the final single-block pass
    applies the same kernel globally.  Ties break (priority, key),
    mirrored by the SQL window."""
    from ...stages.footprint import _splitmix64

    def bottomk_per_group(batch: pa.Table) -> pa.Table:
        grp = batch["o_orderpriority"]
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        codes = grp.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        keys = batch["o_orderkey"].to_numpy()
        if "pri" in batch.column_names:
            pri = batch["pri"].to_numpy().view(np.uint64)
        else:
            pri = _splitmix64(keys.astype(np.uint64))
        order = np.lexsort((keys, pri, codes))
        codes_s = codes[order]
        new_grp = np.concatenate(([True], codes_s[1:] != codes_s[:-1]))
        starts = np.flatnonzero(new_grp)
        pos = np.arange(len(order)) - starts[np.cumsum(new_grp) - 1]
        take = order[pos < GROUPED_SAMPLE_K]
        out = pa.table(
            {
                "o_orderpriority": grp.take(pa.array(take)),
                "o_orderkey": batch["o_orderkey"].take(pa.array(take)),
                "pri": pa.array(pri[take].view(np.int64), pa.int64()),
            }
        )
        return out

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    return (
        ds.map_batches(bottomk_per_group, batch_format="pyarrow")
        .repartition(1)
        # global cut must see the whole merged block as ONE batch
        .map_batches(bottomk_per_group, batch_format="pyarrow", batch_size=None)
    )


def _build_grouped_sample_sql() -> str:
    ctes = _splitmix64_ctes("orders", "o_orderkey", "o_orderkey, o_orderpriority")
    return f"""
    WITH {ctes},
    r AS (
      SELECT o_orderpriority, o_orderkey, h,
             row_number() OVER (PARTITION BY o_orderpriority
                                ORDER BY h, o_orderkey) AS rnk
      FROM hsh
    )
    SELECT o_orderpriority, o_orderkey,
           CAST(h - CASE WHEN h >= 9223372036854775808::HUGEINT
                    THEN 18446744073709551616::HUGEINT ELSE 0::HUGEINT END
                AS BIGINT) AS pri
    FROM r WHERE rnk <= {GROUPED_SAMPLE_K}
"""


def q_revenue_by_nation(sf_dir: str):
    """Revenue per nation (TPC-H Q5 shape): lineitem ⋈ orders is the
    big⋈big shuffle join — revenue is pre-aggregated per orderkey INSIDE
    map_batches before the shuffle so the exchange moves one row per
    order, not one per lineitem; customer→nation is a broadcast lookup."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from ...stages.join import broadcast_join, shuffle_hash_join

    def rev_partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "l_orderkey": batch["l_orderkey"],
                "rev_c": pa.array(
                    _cents(
                        batch["l_extendedprice"].to_numpy()
                        * (1.0 - batch["l_discount"].to_numpy())
                    )
                ),
            }
        )
        agg = pa.TableGroupBy(t, "l_orderkey").aggregate([("rev_c", "sum")])
        return agg.rename_columns(["l_orderkey", "rev_c"])

    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])
    # batch-local partial only — no per-orderkey shuffle aggregate; the
    # join's bucket shuffle co-locates the partials and the final
    # 25-group aggregate sums them (one less all-to-all)
    rev = lineitem.map_batches(rev_partial, batch_format="pyarrow")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda b: b.rename_columns(["l_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )
    joined = shuffle_hash_join(
        rev,
        orders,
        key="l_orderkey",
        left_cols=["rev_c"],
        right_cols=["o_custkey"],
        left_schema=pa.schema([("l_orderkey", pa.int64()), ("rev_c", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
    )

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    cust = cust.rename_columns(["o_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nation = nation.rename_columns(["c_nationkey", "n_name"])

    with_nation = broadcast_join(joined, cust, "o_custkey", ["c_nationkey"])
    with_name = broadcast_join(with_nation, nation, "c_nationkey", ["n_name"])
    return with_name.groupby("n_name").aggregate(Sum("rev_c", alias_name="revenue_c"))


Q_REVENUE_BY_NATION_SQL = """
    SELECT n.n_name,
           CAST(SUM(l.rev_c) AS BIGINT) AS revenue_c
    FROM (
      SELECT l_orderkey,
             SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5) AS BIGINT)) AS rev_c
      FROM lineitem GROUP BY l_orderkey
    ) l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    JOIN nation n ON n.n_nationkey = c.c_nationkey
    GROUP BY n.n_name
"""


def q_order_priority(sf_dir: str):
    """Order-priority counts for orders having a heavy lineitem
    (TPC-H Q4 shape): the EXISTS side is distinct-reduced per batch,
    then one shuffle joins it to orders (semi-join)."""
    from ray.data.aggregate import Count, Sum

    from ...stages.join import shuffle_hash_join

    def keys_partial(batch: pa.Table) -> pa.Table:
        keys = batch["l_orderkey"].to_numpy()[batch["l_quantity"].to_numpy() > 45.0]
        uniq = np.unique(keys)
        return pa.table(
            {
                "o_orderkey": pa.array(uniq, pa.int64()),
                "dup": pa.array(np.ones(len(uniq), dtype=np.int64)),
            }
        )

    # batch-local unique only; global dedup happens inside the join's
    # buckets (distinct='right'), saving a separate distinct shuffle
    heavy = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        keys_partial, batch_format="pyarrow"
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = shuffle_hash_join(
        orders,
        heavy,
        key="o_orderkey",
        left_cols=["o_orderpriority"],
        right_cols=["dup"],
        distinct="right",
        left_schema=pa.schema([("o_orderkey", pa.int64()), ("o_orderpriority", pa.string())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()), ("dup", pa.int64())]),
    )
    return (
        joined.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_orders"))
        .select_columns(["o_orderpriority", "n_orders"])
    )


Q_ORDER_PRIORITY_SQL = """
    SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
    FROM orders
    WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem WHERE l_quantity > 45)
    GROUP BY o_orderpriority
"""


def _skyline_2d(price_c: np.ndarray, day: np.ndarray) -> np.ndarray:
    """Indices of the maximize-both Pareto frontier, tie-aware: a row
    survives iff no other row is ≥ in both dimensions and > in one
    (exact duplicates all survive).  O(n log n) vectorized: sort by
    (price desc, day desc); within each equal-price group only the
    max-day rows can survive, and they do iff that day beats every
    higher-price group's best day."""
    order = np.lexsort((-day, -price_c))
    p = price_c[order]
    d = day[order]
    grp_start = np.concatenate(([True], p[1:] != p[:-1]))
    grp_id = np.cumsum(grp_start) - 1
    dmax_group = d[grp_start][grp_id]
    run = np.maximum.accumulate(d[grp_start])
    best_before = np.concatenate(([np.iinfo(np.int64).min], run[:-1]))[grp_id]
    survive = (d == dmax_group) & (dmax_group > best_before)
    return order[survive]


def q_skyline(sf_dir: str):
    """Distributed 2-D skyline: URGENT orders on the (price, recency)
    Pareto frontier — "no other order is both pricier and newer".
    Skyline-of-skylines is the global skyline (domination is
    transitive across blocks), so each block reduces to its local
    frontier first and ONE tiny final pass merges the survivors —
    never an all-pairs comparison on the engine side.  Integer cents
    and epoch days keep the comparisons and the hash exact."""
    import ray.data as rd

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["o_orderpriority"], "1-URGENT")
        k = b.filter(keep)
        day = (
            k["o_orderdate"].to_numpy().astype("datetime64[D]").astype(np.int64)
        )
        return pa.table(
            {
                "o_orderkey": k["o_orderkey"],
                "price_c": pa.array(_cents(k["o_totalprice"].to_numpy())),
                "day": pa.array(day, pa.int64()),
            }
        )

    def local_skyline(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        idx = _skyline_2d(b["price_c"].to_numpy(), b["day"].to_numpy())
        return b.take(pa.array(np.sort(idx)))

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice", "o_orderdate"])
    partial = ds.map_batches(prep, batch_format="pyarrow").map_batches(
        local_skyline, batch_format="pyarrow"
    )
    # batch_size=None pinned explicitly: the final merge is only
    # correct if the whole repartition(1) block arrives as ONE batch
    # (a bounded default would compute the frontier per-chunk and leak
    # false survivors silently)
    return partial.repartition(1).map_batches(
        local_skyline, batch_format="pyarrow", batch_size=None
    )


Q_SKYLINE_SQL = """
    WITH o AS (
      SELECT o_orderkey,
             CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_c,
             CAST(epoch_us(o_orderdate) // 86400000000 AS BIGINT) AS day
      FROM orders WHERE o_orderpriority = '1-URGENT'
    )
    SELECT q.o_orderkey, q.price_c, q.day FROM o q
    WHERE NOT EXISTS (
      SELECT 1 FROM o p
      WHERE p.price_c >= q.price_c AND p.day >= q.day
        AND (p.price_c > q.price_c OR p.day > q.day))
"""


HQ_BIN_W = 2500.0  # cents-free: o_totalprice in dollars, 256 bins to 640k


def q_quantile_sketch(sf_dir: str):
    """Approximate per-group quantiles with BOUNDED state: a fixed
    256-bin histogram sketch per order priority — ≤ groups×256 rows
    per block into one Sum exchange regardless of row count, the
    t-digest-shaped alternative to q_group_quantiles' exact value
    histogram (whose state grows with distinct values).  The estimate
    (bin lower edge at integer rank ceil(q·n)) is deterministic
    integer arithmetic, so the oracle mirrors the SKETCH exactly —
    the approximation is in the quantile definition, not the run."""
    from ray.data.aggregate import Sum

    from ...stages.sketch import hq_finalize_group, hq_partial

    def partial(b: pa.Table) -> pa.Table:
        return hq_partial(
            b, "o_orderpriority", b["o_totalprice"].to_numpy(), HQ_BIN_W
        )

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])
    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["o_orderpriority", "bin"])
        .aggregate(Sum("n", alias_name="n"))
    )
    return merged.groupby("o_orderpriority").map_groups(
        lambda g: hq_finalize_group(g, "o_orderpriority", HQ_BIN_W),
        batch_format="pyarrow",
    )


Q_QUANTILE_SKETCH_SQL = f"""
    WITH b AS (
      SELECT o_orderpriority,
             least(CAST(floor(o_totalprice / {HQ_BIN_W!r}) AS BIGINT), 255) AS bin
      FROM orders
    ),
    h AS (SELECT o_orderpriority, bin, CAST(COUNT(*) AS BIGINT) AS n
          FROM b GROUP BY 1, 2),
    c AS (
      SELECT o_orderpriority, bin, n,
             SUM(n) OVER (PARTITION BY o_orderpriority ORDER BY bin
                          ROWS UNBOUNDED PRECEDING) AS cum,
             SUM(n) OVER (PARTITION BY o_orderpriority) AS n_tot
      FROM h
    )
    SELECT o_orderpriority,
           CAST(MIN(CASE WHEN cum >= (1 * n_tot + 1) // 2
                         THEN bin * {int(HQ_BIN_W)} END) AS BIGINT) AS p50_lo,
           CAST(MIN(CASE WHEN cum >= (9 * n_tot + 9) // 10
                         THEN bin * {int(HQ_BIN_W)} END) AS BIGINT) AS p90_lo,
           CAST(MIN(n_tot) AS BIGINT) AS n_tot
    FROM c GROUP BY o_orderpriority
"""


COOC_TOP = 30


def q_basket_pairs(sf_dir: str):
    """Market-basket co-occurrence: the top part pairs appearing in
    the same order — the classic recommendation/association pre-pass.
    Baskets are co-located by hash BUCKET (64 buckets, not one Python
    group call per order — at sf0.1 that was 150k calls and 12× the
    runtime); the per-bucket kernel dedupes (order, part) rows with
    one lexsort and fans out every basket's ordered pairs in ≤
    max_basket² vectorized passes.  A per-bucket combiner pre-counts
    pairs (packed into ONE int64 key), a second PAIR-bucketed shuffle
    merges the counts (totals are global — a pair's instances all
    share a bucket) and forwards only each bucket's top-k into the
    bounded final sort."""

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ok = group["l_orderkey"].to_numpy()
        pk = group["l_partkey"].to_numpy()
        order = np.lexsort((pk, ok))
        ok, pk = ok[order], pk[order]
        keep = np.concatenate(
            ([True], (ok[1:] != ok[:-1]) | (pk[1:] != pk[:-1]))
        )
        ok, pk = ok[keep], pk[keep]
        # shared O(max_basket)-pass fan-out (scale-shape rule: never
        # the nested O(max_basket²) offset loop — hot baskets stall it)
        a_arr, b_arr = triu_pairs_in_runs(ok, pk)
        if len(a_arr) == 0:
            return pa.schema(
                [pa.field("pair_key", pa.int64()), pa.field("n", pa.int64())]
            ).empty_table()
        # pack the pair into ONE int64 (partkeys < 2^31): Ray's sort
        # aggregate over a single int column is far faster than the
        # two-column key path, which dominated this query's wall time
        key = (a_arr.astype(np.uint64) << np.uint64(32)) | b_arr.astype(
            np.uint64
        )
        t = pa.table({"pair_key": pa.array(key.view(np.int64))})
        agg = pa.TableGroupBy(t, "pair_key").aggregate([([], "count_all")])
        return agg.rename_columns(["pair_key", "n"])

    def merge_topk(group: pa.Table) -> pa.Table:
        # every instance of a pair lands in this bucket, so these are
        # GLOBAL totals; each bucket then only forwards its top-k
        agg = pa.TableGroupBy(group, "pair_key", use_threads=False).aggregate([("n", "sum")])
        ukey = agg["pair_key"].to_numpy()
        totals = agg["n_sum"].to_numpy()
        # top-k by (n desc, key asc): key's major half is pa_
        top = np.lexsort((ukey, -totals))[:COOC_TOP]
        k = ukey[top].view(np.uint64)
        return pa.table(
            {
                "pa_": pa.array((k >> np.uint64(32)).astype(np.int64)),
                "pb_": pa.array((k & np.uint64(0xFFFFFFFF)).astype(np.int64)),
                "n": pa.array(totals[top].astype(np.int64)),
            }
        )

    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return (
        hash_exchange(hash_exchange(ds, "l_orderkey", bucket_pairs), "pair_key", merge_topk)
        .sort(["n", "pa_", "pb_"], descending=[True, False, False])
        .limit(COOC_TOP)
    )


Q_BASKET_PAIRS_SQL = f"""
    WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
    p AS (
      SELECT a.l_partkey AS pa_, b.l_partkey AS pb_,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM li a JOIN li b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
      GROUP BY 1, 2
    )
    SELECT pa_, pb_, n FROM p
    ORDER BY n DESC, pa_, pb_ LIMIT {COOC_TOP}
"""


def q_group_regression(sf_dir: str):
    """Per-group least-squares trend (value vs time) from exact
    integer moments: each block folds to (n, Σx, Σy, Σxy, Σx²) per
    event type — the five-scalar state that makes distributed
    regression a pure Sum-shuffle.  The slope is reported as the
    exact integer fraction (n·Σxy − Σx·Σy) / (n·Σx² − Σx²-bar):
    no division ever happens, so the result is hash-exact.  x = hours
    since the 2024 epoch (small ints keep every moment in int64)."""
    from ray.data.aggregate import Sum

    def moments(b: pa.Table) -> pa.Table:
        ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        x = (ts - _EPOCH_2024_US) // 3_600_000_000
        y = _cents(b["value"].to_numpy())
        t = pa.table(
            {
                "event_type": b["event_type"],
                "n": pa.array(np.ones(len(x), dtype=np.int64)),
                "sx": pa.array(x),
                "sy": pa.array(y),
                "sxy": pa.array(x * y),
                "sxx": pa.array(x * x),
            }
        )
        agg = pa.TableGroupBy(t, "event_type").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"), ("sxy", "sum"), ("sxx", "sum")]
        )
        return agg.rename_columns(["event_type", "n", "sx", "sy", "sxy", "sxx"])

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    merged = (
        ds.map_batches(moments, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
        )
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy()
        sx = b["sx"].to_numpy()
        sy = b["sy"].to_numpy()
        sxy = b["sxy"].to_numpy()
        sxx = b["sxx"].to_numpy()
        return pa.table(
            {
                "event_type": b["event_type"],
                "n": pa.array(n),
                "slope_num": pa.array(n * sxy - sx * sy),
                "slope_den": pa.array(n * sxx - sx * sx),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


Q_GROUP_REGRESSION_SQL = f"""
    WITH m AS (
      SELECT event_type,
             CAST(COUNT(*) AS BIGINT) AS n,
             CAST(SUM(x) AS BIGINT) AS sx,
             CAST(SUM(y) AS BIGINT) AS sy,
             CAST(SUM(x * y) AS BIGINT) AS sxy,
             CAST(SUM(x * x) AS BIGINT) AS sxx
      FROM (
        SELECT event_type,
               (epoch_us(ts) - {_EPOCH_2024_US}) // 3600000000 AS x,
               CAST(floor(value * 100 + 0.5) AS BIGINT) AS y
        FROM events
      )
      GROUP BY event_type
    )
    SELECT event_type, n,
           CAST(n * sxy - sx * sy AS BIGINT) AS slope_num,
           CAST(n * sxx - sx * sx AS BIGINT) AS slope_den
    FROM m
"""


def q_revenue_share(sf_dir: str):
    """Percent-of-total (ratio-to-report): each event type's share of
    total event value in basis points.  The grand total is NOT a
    second pass over the data — it folds from the same 5-row
    aggregate the per-type sums come from (a bounded result the
    driver may hold), and integer basis points keep it hash-exact."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "event_type": b["event_type"],
                "value_c": pa.array(_cents(b["value"].to_numpy())),
            }
        )
        agg = pa.TableGroupBy(t, "event_type").aggregate([("value_c", "sum")])
        return agg.rename_columns(["event_type", "value_c"])

    ds = _read(sf_dir, "events", ["event_type", "value"])
    per_type = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("value_c", alias_name="value_c"))
    )
    t = pa.Table.from_pylist(per_type.take_all())  # ≤ n_event_types rows
    total = int(np.sum(t["value_c"].to_numpy()))
    share = (10_000 * t["value_c"].to_numpy()) // total
    return rd.from_arrow(
        pa.table(
            {
                "event_type": t["event_type"],
                "value_c": t["value_c"],
                "share_bp": pa.array(share.astype(np.int64)),
            }
        )
    )


Q_REVENUE_SHARE_SQL = """
    WITH t AS (
      SELECT event_type,
             CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
               AS value_c
      FROM events GROUP BY event_type
    )
    SELECT event_type, value_c,
           CAST((10000 * value_c) // (SELECT SUM(value_c) FROM t) AS BIGINT)
             AS share_bp
    FROM t
"""


def q_grouped_topk(sf_dir: str):
    """Top-3 orders per priority class by price: per-batch top-k
    combiner (stages/topk.py — at most k rows per group per batch enter
    the shuffle), groupby(group) re-rank finalizer.  Deterministic via
    the unique o_orderkey tie-break."""
    from ...stages.topk import grouped_topk_batch

    K = 3

    def partial(batch: pa.Table) -> pa.Table:
        price_c = _cents(batch["o_totalprice"].to_numpy())
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "o_orderkey": batch["o_orderkey"],
                "price_c": pa.array(price_c),
            }
        )
        kept, _ = grouped_topk_batch(
            t, "o_orderpriority", price_c, batch["o_orderkey"].to_numpy(), K
        )
        return kept

    def final(group: pa.Table) -> pa.Table:
        kept, rank = grouped_topk_batch(
            group,
            "o_orderpriority",
            group["price_c"].to_numpy(),
            group["o_orderkey"].to_numpy(),
            K,
        )
        return kept.append_column("rank", pa.array(rank))

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(final, batch_format="pyarrow")
    )


Q_GROUPED_TOPK_SQL = """
    WITH o AS (
      SELECT o_orderpriority, o_orderkey,
             CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_c
      FROM orders
    ),
    r AS (
      SELECT *, ROW_NUMBER() OVER (
               PARTITION BY o_orderpriority
               ORDER BY price_c DESC, o_orderkey) AS rank
      FROM o
    )
    SELECT o_orderpriority, o_orderkey, price_c, CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= 3
"""


def _mulmod64_sql(x: str, c: int) -> str:
    """(x * c) mod 2^64 in DuckDB HUGEINT without INT128 overflow: the
    constant is split into 32-bit halves so every intermediate stays
    under 2^97."""
    c0, c1 = c & 0xFFFFFFFF, c >> 32
    return (
        f"(({x}) * {c0}::HUGEINT"
        f" + ((({x}) * {c1}::HUGEINT) % 4294967296) * 4294967296)"
        " % 18446744073709551616::HUGEINT"
    )


def _splitmix64_ctes(
    src: str, key_expr: str, carry_cols: str, suffix: str = ""
) -> str:
    """CTE chain computing h = splitmix64(key_expr) over ``src`` —
    mirrors stages/footprint.py::_splitmix64 step for step (>>k as
    //2^k on non-negative HUGEINTs).  ``carry_cols``: comma-joined
    columns to carry through.  The final CTE is named ``hsh{suffix}``
    with columns (carry_cols..., h); pass a distinct ``suffix`` per
    chain when one query needs several independent hashes (e.g. the
    count-min sketch's D rows)."""
    H = "18446744073709551616::HUGEINT"
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    s = suffix
    return f"""x1{s} AS (
      SELECT {carry_cols}, (({key_expr})::HUGEINT + {C1}) % {H} AS x FROM {src}
    ),
    z1{s} AS (SELECT {carry_cols}, {_mulmod64_sql("xor(x, x // 1073741824)", C2)} AS z FROM x1{s}),
    z2{s} AS (SELECT {carry_cols}, {_mulmod64_sql("xor(z, z // 134217728)", C3)} AS z FROM z1{s}),
    hsh{s} AS (SELECT {carry_cols}, xor(z, z // 2147483648) AS h FROM z2{s})"""


KMV_K = 256


def q_kmv_overlap(sf_dir: str):
    """KMV / bottom-k theta-sketch SET OPERATIONS: estimated distinct
    clickers, purchasers, their union and Jaccard overlap — the
    audience-overlap question sketches exist for, answered from two
    256-value sketches instead of two full user sets.  Per-block
    combiner keeps each side's bottom-k distinct hashes; ONE tiny
    groupby(side) merge; the driver receives ≤ 2k hashes (bounded
    regardless of input size) and finishes with integer arithmetic —
    the oracle mirrors the sketch itself, splitmix64 in HUGEINT."""
    from ...stages.footprint import _splitmix64

    def partial(b: pa.Table) -> pa.Table:
        keep = pc.is_in(b["event_type"], value_set=pa.array(["click", "purchase"]))
        k = b.filter(keep)
        side = pc.equal(k["event_type"], "click").to_numpy(zero_copy_only=False)
        u = k["user_id"].to_numpy().astype(np.uint64)
        h = _splitmix64(u)
        out_s, out_h = [], []
        for s in (0, 1):
            hs = np.unique(h[side == bool(s)])[:KMV_K]
            out_s.append(np.full(len(hs), s, dtype=np.int64))
            out_h.append(hs.view(np.int64))
        return pa.table(
            {
                "side": pa.array(np.concatenate(out_s)),
                "h": pa.array(np.concatenate(out_h)),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        hs = np.unique(group["h"].to_numpy().view(np.uint64))[:KMV_K]
        return pa.table(
            {
                "side": group["side"].slice(0, 1),
                "h": pa.array([hs.view(np.int64).tolist()], pa.list_(pa.int64())),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("side")
        .map_groups(merge, batch_format="pyarrow")
    )
    # driver-side finish over ≤ 2k UNSIGNED hash values (python ints)
    mask = (1 << 64) - 1
    rows = {
        r["side"]: {v & mask for v in r["h"]} for r in merged.take_all()
    }
    a = rows.get(1, set())  # clickers
    b = rows.get(0, set())  # purchasers

    def est(sk: set) -> int:
        if len(sk) < KMV_K:
            return len(sk)
        return (KMV_K - 1) * (1 << 64) // max(sk)

    union_sk = set(sorted(a | b)[:KMV_K])
    overlap = sum(1 for x in union_sk if x in a and x in b)
    return pa.table(
        {
            "est_click": pa.array([est(a)], pa.int64()),
            "est_purchase": pa.array([est(b)], pa.int64()),
            "est_union": pa.array([est(union_sk)], pa.int64()),
            "jaccard_pct": pa.array(
                [100 * overlap // max(1, len(union_sk))], pa.int64()
            ),
        }
    )


def _build_kmv_sql() -> str:
    """SQL mirror of the KMV sketch arithmetic (splitmix64 in HUGEINT,
    unsigned ordering, bottom-k cuts, small-sketch exact fallback)."""
    return f"""
    WITH src AS (
      SELECT DISTINCT user_id, event_type FROM events
      WHERE event_type IN ('click', 'purchase')
    ),
    {_splitmix64_ctes("src", "user_id", "event_type")},
    a AS (SELECT DISTINCT h FROM hsh WHERE event_type = 'click'
          ORDER BY h LIMIT {KMV_K}),
    b AS (SELECT DISTINCT h FROM hsh WHERE event_type = 'purchase'
          ORDER BY h LIMIT {KMV_K}),
    u AS (SELECT h FROM (SELECT h FROM a UNION SELECT h FROM b)
          ORDER BY h LIMIT {KMV_K}),
    stats AS (
      SELECT
        (SELECT COUNT(*) FROM a) AS na,
        (SELECT MAX(h) FROM a) AS ka,
        (SELECT COUNT(*) FROM b) AS nb,
        (SELECT MAX(h) FROM b) AS kb,
        (SELECT COUNT(*) FROM u) AS nu,
        (SELECT MAX(h) FROM u) AS ku,
        (SELECT COUNT(*) FROM u
         WHERE h IN (SELECT h FROM a) AND h IN (SELECT h FROM b)) AS ov
    )
    SELECT
      CAST(CASE WHEN na < {KMV_K} THEN na
           ELSE ({KMV_K - 1}::HUGEINT * 18446744073709551616::HUGEINT) // ka
           END AS BIGINT) AS est_click,
      CAST(CASE WHEN nb < {KMV_K} THEN nb
           ELSE ({KMV_K - 1}::HUGEINT * 18446744073709551616::HUGEINT) // kb
           END AS BIGINT) AS est_purchase,
      CAST(CASE WHEN nu < {KMV_K} THEN nu
           ELSE ({KMV_K - 1}::HUGEINT * 18446744073709551616::HUGEINT) // ku
           END AS BIGINT) AS est_union,
      CAST(100 * ov // greatest(1, nu) AS BIGINT) AS jaccard_pct
    FROM stats
"""


def q_hll_distinct(sf_dir: str):
    """Approximate COUNT(DISTINCT user_id) per event_type via the
    mergeable 64-register sketch (stages/sketch.py).  The shuffle moves
    one 64-byte register vector per (batch, group); partials merge by
    elementwise max.  All reported quantities are exact integers, so
    the oracle mirrors the sketch itself — not the true count."""
    from ...stages.sketch import hll_finalize_group, hll_partial

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    return (
        ds.map_batches(
            lambda b: hll_partial(b, "user_id", "event_type"),
            batch_format="pyarrow",
        )
        .groupby("event_type")
        .map_groups(
            lambda g: hll_finalize_group(g, "event_type"), batch_format="pyarrow"
        )
    )


def _build_hll_sql() -> str:
    """SQL mirror of the sketch: splitmix64 in HUGEINT (mod-2^64 steps,
    >> as //), trailing-zero rho via the (w & -w) bit trick, register
    max per (group, bucket), zero-filled 64-bucket grid, then the exact
    integer estimate with alpha = 709/1000 and 2^59 scaling.

    The 64x64-bit multiplies would overflow INT128, so each constant is
    split into 32-bit halves: x*C mod 2^64 = (x*c0 + ((x*c1 mod 2^32)
    << 32)) mod 2^64 — every intermediate stays under 2^97."""
    return f"""
    WITH {_splitmix64_ctes("events", "user_id", "event_type")},
    br AS (
      SELECT event_type,
             CAST(h % 64 AS BIGINT) AS bucket,
             CAST(h // 64 AS BIGINT) AS w
      FROM hsh
    ),
    rho AS (
      SELECT event_type, bucket,
             CASE WHEN w = 0 THEN 59
                  ELSE bit_count((w & -w) - 1) + 1 END AS rho
      FROM br
    ),
    regs AS (
      SELECT event_type, bucket, MAX(rho) AS r
      FROM rho GROUP BY event_type, bucket
    ),
    grid AS (
      SELECT g.event_type, b.bucket
      FROM (SELECT DISTINCT event_type FROM events) g,
           (SELECT unnest(range(64)) AS bucket) b
    ),
    filled AS (
      SELECT grid.event_type, COALESCE(regs.r, 0) AS r
      FROM grid LEFT JOIN regs
        ON grid.event_type = regs.event_type AND grid.bucket = regs.bucket
    ),
    agg AS (
      SELECT event_type,
             SUM(CASE WHEN r = 0 THEN 1 ELSE 0 END) AS n_zero,
             SUM(r) AS reg_sum,
             SUM(((CAST(1 AS BIGINT) << (59 - r)))::HUGEINT) AS d
      FROM filled GROUP BY event_type
    )
    SELECT event_type,
           CAST(n_zero AS BIGINT) AS n_zero,
           CAST(reg_sum AS BIGINT) AS reg_sum,
           CAST(LEAST((709::HUGEINT * 4096 * 576460752303423488)
                        // (1000::HUGEINT * d),
                      4611686018427387904::HUGEINT) AS BIGINT) AS est_distinct
    FROM agg
"""


Q_HLL_DISTINCT_SQL = _build_hll_sql()


def q_cms_counts(sf_dir: str):
    """Count-min sketch point-frequency estimates (stages/sketch.py).

    Per-block D×W count grids tree-reduce by SUM through Ray's
    aggregate, so the driver receives one 32 KiB array regardless of
    input size; the fixed probe set (user_id 0..149) is then answered
    from the sketch alone.  Estimates are exact integers and the
    sketch is order-independent, so the oracle mirrors the sketch
    itself (not the true counts) — the same contract as hll_distinct."""
    from ...stages.sketch import build_cms, cms_estimate

    ds = _read(sf_dir, "events", ["user_id"])
    sk = build_cms(ds, "user_id")
    probes = np.arange(150, dtype=np.uint64)
    est = cms_estimate(sk, probes)
    return pa.table(
        {
            "user_id": pa.array(probes.astype(np.int64), pa.int64()),
            "est_count": pa.array(est, pa.int64()),
        }
    )


def _build_cms_sql() -> str:
    """SQL mirror of the count-min sketch: for each of the D=4 hash
    rows, bucket = splitmix64(key XOR row_i_salt) mod 1024; per-bucket
    COUNT(*) over events gives that row's counter; a probe key's
    estimate is the MIN over rows of its bucket's counter (0 when the
    bucket was never touched)."""
    from ...stages.sketch import CMS_D, CMS_SEED, CMS_W

    parts = ["probe AS (SELECT unnest(range(150)) AS k)"]
    est_joins, est_cols = [], []
    for i in range(CMS_D):
        salt = (i * CMS_SEED) & 0xFFFFFFFFFFFFFFFF
        parts.append(
            _splitmix64_ctes(
                "events",
                f"xor(CAST(user_id AS HUGEINT), {salt}::HUGEINT)",
                "user_id",
                suffix=f"e{i}",
            )
        )
        parts.append(
            f"""cnt{i} AS (
      SELECT CAST(h % {CMS_W} AS BIGINT) AS b,
             CAST(COUNT(*) AS BIGINT) AS c
      FROM hshe{i} GROUP BY 1
    )"""
        )
        parts.append(
            _splitmix64_ctes(
                "probe",
                f"xor(CAST(k AS HUGEINT), {salt}::HUGEINT)",
                "k",
                suffix=f"p{i}",
            )
        )
        parts.append(
            f"""pe{i} AS (
      SELECT k, COALESCE(cnt{i}.c, 0) AS e
      FROM (SELECT k, CAST(h % {CMS_W} AS BIGINT) AS b FROM hshp{i}) pb
      LEFT JOIN cnt{i} USING (b)
    )"""
        )
        est_joins.append(f"JOIN pe{i} USING (k)" if i else f"pe{i}")
        est_cols.append(f"pe{i}.e")
    ctes = ",\n    ".join(parts)
    return f"""
    WITH {ctes}
    SELECT CAST(k AS BIGINT) AS user_id,
           CAST(LEAST({", ".join(est_cols)}) AS BIGINT) AS est_count
    FROM {" ".join(est_joins)}
"""


Q_CMS_COUNTS_SQL = _build_cms_sql()


def q_gram_matrix(sf_dir: str):
    """Distributed Gram / covariance matrix over the embedding column
    (stages/linalg.py): per-block (64, 64) int64 partial products
    tree-reduce by SUM, one 32 KiB grid to the driver regardless of
    row count — the PCA/whitening pre-pass shape.  Emitted as the
    2,080-row upper triangle; fixed-point quantization makes every
    entry integer-exact."""
    from ...stages.linalg import build_gram

    ds = _read(sf_dir, "embeddings", ["embedding"])
    g = build_gram(ds, "embedding", GRAM_DIM)
    iu, ju = np.triu_indices(GRAM_DIM)
    return pa.table(
        {
            "i": pa.array(iu.astype(np.int64), pa.int64()),
            "j": pa.array(ju.astype(np.int64), pa.int64()),
            "gram": pa.array(g[iu, ju], pa.int64()),
        }
    )


Q_GRAM_MATRIX_SQL = f"""
    WITH q AS (
      SELECT list_transform(
               embedding,
               x -> CAST(floor(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)
             ) AS qv
      FROM embeddings
    ),
    idx AS (SELECT unnest(range(1, {GRAM_DIM + 1})) AS a)
    SELECT CAST(i.a - 1 AS BIGINT) AS i,
           CAST(j.a - 1 AS BIGINT) AS j,
           CAST(SUM(q.qv[i.a] * q.qv[j.a]) AS BIGINT) AS gram
    FROM q, idx i, idx j
    WHERE j.a >= i.a
    GROUP BY 1, 2
"""


def q_dim_stats(sf_dir: str):
    """Per-dimension embedding profile (sum/min/max in quantized
    int64): the normalization-constant / clip-range / dead-dimension
    pass before training.  Fixed-size aggregate state like the Gram
    matrix — each block folds to 3·d int64, the tree-reduce combines,
    the driver pull is 1.5 KiB at d=64 regardless of row count."""
    from ...stages.linalg import build_dim_stats

    ds = _read(sf_dir, "embeddings", ["embedding"])
    st = build_dim_stats(ds, "embedding", GRAM_DIM)
    return pa.table(
        {
            "dim": pa.array(np.arange(GRAM_DIM, dtype=np.int64), pa.int64()),
            "sum_q": pa.array(st["sum"], pa.int64()),
            "min_q": pa.array(st["min"], pa.int64()),
            "max_q": pa.array(st["max"], pa.int64()),
        }
    )


Q_DIM_STATS_SQL = f"""
    WITH q AS (
      SELECT list_transform(
               embedding,
               x -> CAST(floor(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)
             ) AS qv
      FROM embeddings
    ),
    idx AS (SELECT unnest(range(1, {GRAM_DIM + 1})) AS a)
    SELECT CAST(i.a - 1 AS BIGINT) AS dim,
           CAST(SUM(q.qv[i.a]) AS BIGINT) AS sum_q,
           CAST(MIN(q.qv[i.a]) AS BIGINT) AS min_q,
           CAST(MAX(q.qv[i.a]) AS BIGINT) AS max_q
    FROM q, idx i
    GROUP BY 1
"""


def q_cube_sales(sf_dir: str):
    """CUBE / full grouping-sets aggregate: all FOUR levels —
    (flag, status), (flag), (status), grand total — from ONE scan and
    ONE shuffle.  Same multi-level-partials shape as rollup_sales
    (coarser levels derive from each block's finest partial, sentinel
    'ALL' for cubed-away keys); the exchange carries ≤
    (|flags|+1)·(|statuses|+1) rows per block."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        qty = np.floor(batch["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        price_c = _cents(batch["l_extendedprice"].to_numpy())
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": pa.array(qty),
                "price_c": pa.array(price_c),
                "n": pa.array(np.ones(len(qty), dtype=np.int64)),
            }
        )

        def agg(tbl: pa.Table, keys: list[str]) -> pa.Table:
            g = pa.TableGroupBy(tbl, keys).aggregate(
                [("qty", "sum"), ("price_c", "sum"), ("n", "sum")]
            )
            cols = {k: g[k] for k in keys}
            for rolled in ("l_returnflag", "l_linestatus"):
                if rolled not in keys:
                    cols[rolled] = pa.array(["ALL"] * g.num_rows)
            cols["n"] = g["n_sum"]
            cols["sum_qty"] = g["qty_sum"]
            cols["sum_price_c"] = g["price_c_sum"]
            names = ["l_returnflag", "l_linestatus", "n", "sum_qty", "sum_price_c"]
            return pa.table({k: cols[k] for k in names})

        finest = agg(t, ["l_returnflag", "l_linestatus"])
        mid = pa.table(
            {
                "l_returnflag": finest["l_returnflag"],
                "l_linestatus": finest["l_linestatus"],
                "qty": finest["sum_qty"],
                "price_c": finest["sum_price_c"],
                "n": finest["n"],
            }
        )
        return pa.concat_tables(
            [
                finest,
                agg(mid, ["l_returnflag"]),
                agg(mid, ["l_linestatus"]),
                agg(mid, []),
            ]
        )

    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_price_c", alias_name="sum_price_c"),
        )
    )


Q_CUBE_SALES_SQL = """
    SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
           COALESCE(l_linestatus, 'ALL') AS l_linestatus,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS sum_price_c
    FROM lineitem
    GROUP BY CUBE (l_returnflag, l_linestatus)
"""


def q_rollup_sales(sf_dir: str):
    """ROLLUP / grouping-sets aggregate: lineitem quantity + revenue
    totals at three levels — (returnflag, linestatus), (returnflag),
    grand total — in ONE shuffle.  Each batch pre-aggregates the
    finest level locally, derives the coarser levels from those
    partials (sentinel 'ALL' for rolled-up keys), and ships ≤
    |flags|·|statuses|+|flags|+1 rows; a single
    groupby(flag, status).Sum finishes every level at once."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        qty = np.floor(batch["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        price_c = _cents(batch["l_extendedprice"].to_numpy())
        t = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "qty": pa.array(qty),
                "price_c": pa.array(price_c),
                "n": pa.array(np.ones(len(qty), dtype=np.int64)),
            }
        )

        def agg(tbl: pa.Table, keys: list[str]) -> pa.Table:
            g = pa.TableGroupBy(tbl, keys).aggregate(
                [("qty", "sum"), ("price_c", "sum"), ("n", "sum")]
            )
            cols = {k: g[k] for k in keys}
            for rolled in ("l_returnflag", "l_linestatus"):
                if rolled not in keys:
                    cols[rolled] = pa.array(["ALL"] * g.num_rows)
            cols["n"] = g["n_sum"]
            cols["sum_qty"] = g["qty_sum"]
            cols["sum_price_c"] = g["price_c_sum"]
            names = ["l_returnflag", "l_linestatus", "n", "sum_qty", "sum_price_c"]
            return pa.table({k: cols[k] for k in names})

        finest = agg(t, ["l_returnflag", "l_linestatus"])
        # coarser levels derive from the finest partial, not the raw rows
        mid = pa.table(
            {
                "l_returnflag": finest["l_returnflag"],
                "l_linestatus": finest["l_linestatus"],
                "qty": finest["sum_qty"],
                "price_c": finest["sum_price_c"],
                "n": finest["n"],
            }
        )
        return pa.concat_tables(
            [finest, agg(mid, ["l_returnflag"]), agg(mid, [])]
        )

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_price_c", alias_name="sum_price_c"),
        )
    )


Q_ROLLUP_SALES_SQL = """
    SELECT COALESCE(l_returnflag, 'ALL') AS l_returnflag,
           COALESCE(l_linestatus, 'ALL') AS l_linestatus,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS sum_price_c
    FROM lineitem
    GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def q_quartile_label(sf_dir: str):
    """Quantile binning / NTILE-by-value: global exact quartile cut
    points of l_quantity (rank arithmetic over a tiny value
    histogram), broadcast back over the stream to label every row,
    then counts per (returnflag, quartile) — the two-phase
    "small exact aggregate → broadcast → big labeling pass" pattern
    feature binning uses.  The cut points are ≤ 50 ints on the
    driver; the labeling pass is one vectorized compare per row."""
    from ray.data.aggregate import Sum

    def hist_partial(b: pa.Table) -> pa.Table:
        qty = np.floor(b["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        uq, cnt = np.unique(qty, return_counts=True)
        return pa.table(
            {"q": pa.array(uq), "n": pa.array(cnt.astype(np.int64))}
        )

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])
    hist = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("q")
        .aggregate(Sum("n", alias_name="n"))
    )
    rows = sorted((r["q"], r["n"]) for r in hist.take_all())  # ≤ ~50 rows
    vals = np.array([r[0] for r in rows], dtype=np.int64)
    cum = np.cumsum(np.array([r[1] for r in rows], dtype=np.int64))
    tot = int(cum[-1])
    c25 = int(vals[np.searchsorted(cum, (tot + 3) // 4)])
    c50 = int(vals[np.searchsorted(cum, (tot + 1) // 2)])
    c75 = int(vals[np.searchsorted(cum, (3 * tot + 3) // 4)])

    def label(b: pa.Table) -> pa.Table:
        qty = np.floor(b["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        quart = 1 + (qty > c25).astype(np.int64) + (qty > c50) + (qty > c75)
        t = pa.table(
            {
                "l_returnflag": b["l_returnflag"],
                "quartile": pa.array(quart),
                "n": pa.array(np.ones(len(qty), dtype=np.int64)),
            }
        )
        agg = pa.TableGroupBy(t, ["l_returnflag", "quartile"]).aggregate(
            [("n", "sum")]
        )
        return agg.rename_columns(["l_returnflag", "quartile", "n"])

    return (
        ds.map_batches(label, batch_format="pyarrow")
        .groupby(["l_returnflag", "quartile"])
        .aggregate(Sum("n", alias_name="n"))
    )


Q_QUARTILE_LABEL_SQL = """
    WITH v AS (
      SELECT l_returnflag,
             CAST(floor(l_quantity + 0.5) AS BIGINT) AS q
      FROM lineitem
    ),
    h AS (SELECT q, CAST(COUNT(*) AS BIGINT) AS n FROM v GROUP BY q),
    c AS (
      SELECT q,
             SUM(n) OVER (ORDER BY q ROWS UNBOUNDED PRECEDING) AS cum,
             (SELECT SUM(n) FROM h) AS tot
      FROM h
    ),
    cuts AS (
      SELECT MIN(CASE WHEN cum >= (tot + 3) // 4 THEN q END) AS c25,
             MIN(CASE WHEN cum >= (tot + 1) // 2 THEN q END) AS c50,
             MIN(CASE WHEN cum >= (3 * tot + 3) // 4 THEN q END) AS c75
      FROM c
    )
    SELECT l_returnflag,
           CAST(1 + (q > c25)::BIGINT + (q > c50)::BIGINT
                  + (q > c75)::BIGINT AS BIGINT) AS quartile,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM v, cuts
    GROUP BY 1, 2
"""


def q_group_quantiles(sf_dir: str):
    """Exact distributed quantiles (p50/p90 of l_quantity per return
    flag) via value-histogram compression: each batch emits (group,
    value, count) partials — the exchange carries at most (batches ×
    groups × distinct-values) rows, independent of row count — and the
    per-group finalizer merges histograms and reads the quantile off
    the cumulative counts.  Rank semantics are explicit integers
    (ceil(q·n) = (q_num·n + q_den − 1) // q_den) so the SQL mirror is
    arithmetic, not a builtin."""

    def partial(batch: pa.Table) -> pa.Table:
        qty = np.floor(batch["l_quantity"].to_numpy() + 0.5).astype(np.int64)
        t = pa.table({"l_returnflag": batch["l_returnflag"], "qty": pa.array(qty)})
        agg = pa.TableGroupBy(t, ["l_returnflag", "qty"]).aggregate([("qty", "count")])
        return pa.table(
            {
                "l_returnflag": agg["l_returnflag"],
                "qty": agg["qty"],
                "n": agg["qty_count"].cast(pa.int64()),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        qty = group["qty"].to_numpy()
        n = group["n"].to_numpy()
        order = np.argsort(qty, kind="stable")
        qty, n = qty[order], n[order]
        # collapse duplicate values across partials
        uq, inv = np.unique(qty, return_inverse=True)
        counts = np.zeros(len(uq), dtype=np.int64)
        np.add.at(counts, inv, n)
        cum = np.cumsum(counts)
        total = int(cum[-1])
        r50 = (total + 1) // 2
        r90 = (9 * total + 9) // 10
        p50 = int(uq[np.searchsorted(cum, r50)])
        p90 = int(uq[np.searchsorted(cum, r90)])
        return pa.table(
            {
                "l_returnflag": group["l_returnflag"][:1],
                "n": pa.array([total], pa.int64()),
                "p50_qty": pa.array([p50], pa.int64()),
                "p90_qty": pa.array([p90], pa.int64()),
            }
        )

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("l_returnflag")
        .map_groups(final, batch_format="pyarrow")
    )


Q_GROUP_QUANTILES_SQL = """
    WITH v AS (
      SELECT l_returnflag, CAST(floor(l_quantity + 0.5) AS BIGINT) AS q
      FROM lineitem
    ),
    r AS (
      SELECT l_returnflag, q,
             ROW_NUMBER() OVER (PARTITION BY l_returnflag ORDER BY q) AS rn,
             COUNT(*) OVER (PARTITION BY l_returnflag) AS n
      FROM v
    )
    SELECT l_returnflag,
           CAST(MAX(n) AS BIGINT) AS n,
           CAST(MAX(CASE WHEN rn = (n + 1) // 2 THEN q END) AS BIGINT) AS p50_qty,
           CAST(MAX(CASE WHEN rn = (9 * n + 9) // 10 THEN q END) AS BIGINT) AS p90_qty
    FROM r GROUP BY l_returnflag
"""


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sampling: the k rows with the SMALLEST
    splitmix64(key) hash per stratum (bottom-k / KMV sampling).  Unlike
    a percentage filter (hash_sample) this yields an EXACT per-group
    sample size regardless of group skew, and the bottom-k set is a
    monoid — the bottom-k of a union is the bottom-k of concatenated
    per-part bottom-ks — so each batch ships at most k rows per stratum
    into the shuffle and a billion-row stratum still costs k rows per
    batch.  The hash rank also makes samples NESTED: the k'=10 sample
    is a prefix of the k=20 sample, the property coordinated sampling
    at 100 TB relies on."""
    from ...stages.footprint import _splitmix64
    from ...stages.topk import grouped_topk_batch

    K = 20

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch["o_orderkey"].to_numpy()
        h = _splitmix64(keys.astype(np.uint64))
        t = pa.table(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "o_orderkey": batch["o_orderkey"],
                "price_c": pa.array(_cents(batch["o_totalprice"].to_numpy())),
                "h": pa.array(h.view(np.int64)),
            }
        )
        kept, _ = grouped_topk_batch(t, "o_orderpriority", h, keys, K, smallest=True)
        return kept

    def final(group: pa.Table) -> pa.Table:
        h = group["h"].to_numpy().view(np.uint64)
        kept, rank = grouped_topk_batch(
            group, "o_orderpriority", h, group["o_orderkey"].to_numpy(), K,
            smallest=True,
        )
        return kept.append_column("rank", pa.array(rank))

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .map_groups(final, batch_format="pyarrow")
    )


def _build_stratified_sample_sql() -> str:
    return f"""
    WITH o AS (
      SELECT o_orderpriority, o_orderkey,
             CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_c
      FROM orders
    ),
    {_splitmix64_ctes("o", "o_orderkey", "o_orderpriority, o_orderkey, price_c")},
    r AS (
      SELECT *, ROW_NUMBER() OVER (
               PARTITION BY o_orderpriority ORDER BY h, o_orderkey) AS rank
      FROM hsh
    )
    SELECT o_orderpriority, o_orderkey, price_c,
           CAST(h - CASE WHEN h >= 9223372036854775808::HUGEINT
                    THEN 18446744073709551616::HUGEINT ELSE 0::HUGEINT END
                AS BIGINT) AS h,
           CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= 20
"""


Q_STRATIFIED_SAMPLE_SQL = _build_stratified_sample_sql()


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def q_pivot_events(sf_dir: str):
    """Pivot the events log into a per-user wide feature matrix: one
    row per user with count + value-cents columns per event type
    (stages/pivot.py).  The classic user-feature table a training
    pipeline materializes; lowers to conditional-column partial
    aggregation — one vectorized pass per batch — and because users
    are a rows-cardinality key the partials merge through the
    user-hash ``bucketed_wide_sum``."""
    from ...stages.pivot import (
        bucketed_wide_sum,
        make_pivot_partial,
        pivot_column_names,
    )

    names = pivot_column_names(EVENT_TYPES)
    partial = make_pivot_partial(
        "user_id", "event_type", EVENT_TYPES,
        lambda b: _cents(b["value"].to_numpy()),
    )
    ds = _read(sf_dir, "events", ["user_id", "event_type", "value"])
    return bucketed_wide_sum(
        ds.map_batches(partial, batch_format="pyarrow"), "user_id", names
    )


def _build_pivot_events_sql() -> str:
    cols = []
    for c in EVENT_TYPES:
        cols.append(
            f"CAST(SUM(CASE WHEN event_type = '{c}' THEN 1 ELSE 0 END)"
            f" AS BIGINT) AS n_{c}"
        )
        cols.append(
            f"CAST(SUM(CASE WHEN event_type = '{c}' THEN"
            f" CAST(floor(value * 100 + 0.5) AS BIGINT) ELSE 0 END)"
            f" AS BIGINT) AS v_{c}_c"
        )
    return (
        "SELECT user_id, " + ", ".join(cols) + " FROM events GROUP BY user_id"
    )


Q_PIVOT_EVENTS_SQL = _build_pivot_events_sql()


def q_promo_revenue(sf_dir: str):
    """Promotion-revenue share (TPC-H Q14 shape): 1997 lineitems ⋈
    part on partkey; output is promo cents and total cents (integer —
    the ratio is the caller's one division).  The year filter prunes
    at the READ via an Arrow dataset filter; part ships only
    (partkey, is_promo) into a bucket-shuffled hash join; the final
    aggregate is a 2-column global Sum."""
    from ray.data.aggregate import Sum

    from ...stages.join import shuffle_hash_join

    def li_prep(b: pa.Table) -> pa.Table:
        ts = b["l_shipdate"].to_numpy().astype("datetime64[us]")
        keep = (ts >= np.datetime64("1997-01-01")) & (ts < np.datetime64("1998-01-01"))
        rev = _cents(
            b["l_extendedprice"].to_numpy()[keep]
            * (1.0 - b["l_discount"].to_numpy()[keep])
        )
        return pa.table(
            {
                "l_partkey": pa.array(b["l_partkey"].to_numpy()[keep]),
                "rev_c": pa.array(rev),
            }
        )

    def part_prep(b: pa.Table) -> pa.Table:
        promo = pc.starts_with(b["p_type"], "PROMO")
        return pa.table(
            {
                "l_partkey": b["p_partkey"],
                "is_promo": pc.cast(promo, pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"])
    li = li.map_batches(li_prep, batch_format="pyarrow")
    part = _read(sf_dir, "part", ["p_partkey", "p_type"]).map_batches(
        part_prep, batch_format="pyarrow"
    )
    joined = shuffle_hash_join(
        li,
        part,
        key="l_partkey",
        left_cols=["rev_c"],
        right_cols=["is_promo"],
        left_schema=pa.schema([("l_partkey", pa.int64()), ("rev_c", pa.int64())]),
        right_schema=pa.schema([("l_partkey", pa.int64()), ("is_promo", pa.int64())]),
    )

    def split_rev(b: pa.Table) -> pa.Table:
        rev = b["rev_c"].to_numpy()
        promo = b["is_promo"].to_numpy()
        return pa.table(
            {
                "promo_rev_c": pa.array([int(rev[promo == 1].sum())], pa.int64()),
                "total_rev_c": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    agg = joined.map_batches(split_rev, batch_format="pyarrow").aggregate(
        Sum("promo_rev_c", alias_name="promo_rev_c"),
        Sum("total_rev_c", alias_name="total_rev_c"),
    )
    # Dataset.aggregate returns a plain dict for global aggregates
    return pa.table({k: pa.array([v], pa.int64()) for k, v in agg.items()})


Q_PROMO_REVENUE_SQL = """
    SELECT CAST(SUM(CASE WHEN p.p_type LIKE 'PROMO%' THEN
                  CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5) AS BIGINT)
                  ELSE 0 END) AS BIGINT) AS promo_rev_c,
           CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS total_rev_c
    FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
    WHERE l.l_shipdate >= TIMESTAMP '1997-01-01'
      AND l.l_shipdate <  TIMESTAMP '1998-01-01'
"""


def q_returned_items(sf_dir: str):
    """Top-20 customers by RETURNED revenue (TPC-H Q10 shape): the
    returnflag filter sheds ~2/3 of lineitem in the first batch pass;
    revenue partials pre-aggregate per orderkey before the orderkey
    join; custkey is rows-cardinality so the per-customer merge is
    hash-BUCKETED (top_customers shape: bucket totals + per-bucket
    top-20 guard), the global sort sees ≤ 64×20 rows, and name/nation
    attach by broadcast."""
    import pyarrow.parquet as pq

    from ...stages.join import broadcast_join, shuffle_hash_join

    def rev_partial(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["l_returnflag"], "R").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_orderkey": pa.array(b["l_orderkey"].to_numpy()[keep]),
                "rev_c": pa.array(
                    _cents(
                        b["l_extendedprice"].to_numpy()[keep]
                        * (1.0 - b["l_discount"].to_numpy()[keep])
                    )
                ),
            }
        )
        agg = pa.TableGroupBy(t, "l_orderkey").aggregate([("rev_c", "sum")])
        return agg.rename_columns(["l_orderkey", "rev_c"])

    def bucket_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"o_custkey": b["o_custkey"], "rev_c": b["rev_c"]})
        agg = pa.TableGroupBy(t, "o_custkey").aggregate([("rev_c", "sum")])
        return agg.rename_columns(["o_custkey", "rev_c"])

    def merge_topk(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "o_custkey", use_threads=False).aggregate([("rev_c", "sum")])
        uk = agg["o_custkey"].to_numpy()
        tot = agg["rev_c_sum"].to_numpy()
        top = np.lexsort((uk, -tot))[:20]
        return pa.table(
            {
                "c_custkey": pa.array(uk[top], pa.int64()),
                "revenue_c": pa.array(tot[top], pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"])
    rev = li.map_batches(rev_partial, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        lambda b: b.rename_columns(["l_orderkey", "o_custkey"]), batch_format="pyarrow"
    )
    joined = shuffle_hash_join(
        rev,
        orders,
        key="l_orderkey",
        left_cols=["rev_c"],
        right_cols=["o_custkey"],
        left_schema=pa.schema([("l_orderkey", pa.int64()), ("rev_c", pa.int64())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
    )
    per_cust = hash_exchange(
        joined.map_batches(bucket_partial, batch_format="pyarrow"), "o_custkey", merge_topk
    )
    top = per_cust.sort(["revenue_c", "c_custkey"], descending=[True, False]).limit(20)

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey"]
    )
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    nation = nation.rename_columns(["c_nationkey", "n_name"])
    out = broadcast_join(top, cust, "c_custkey", ["c_name", "c_nationkey"])
    out = broadcast_join(out, nation, "c_nationkey", ["n_name"])
    return out.select_columns(["c_custkey", "c_name", "n_name", "revenue_c"])


Q_RETURNED_ITEMS_SQL = """
    WITH rev AS (
      SELECT o.o_custkey AS c_custkey,
             SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5) AS BIGINT)) AS revenue_c
      FROM lineitem l
      JOIN orders o ON o.o_orderkey = l.l_orderkey
      WHERE l.l_returnflag = 'R'
      GROUP BY o.o_custkey
    )
    SELECT r.c_custkey, c.c_name, n.n_name, CAST(r.revenue_c AS BIGINT) AS revenue_c
    FROM rev r
    JOIN customer c ON c.c_custkey = r.c_custkey
    JOIN nation n ON n.n_nationkey = c.c_nationkey
    ORDER BY r.revenue_c DESC, r.c_custkey
    LIMIT 20
"""


PCA_ITERS = 6
PCA_SCALE = 1 << 20


def q_pca_power(sf_dir: str):
    """Top principal direction by integer power iteration (the PCA
    pre-pass for whitening/compression): the DISTRIBUTED part is the
    Gram tree-reduce (one 32 KiB (d,d) int64 grid to the driver
    regardless of row count — stages/linalg.py::build_gram); the
    driver then runs PCA_ITERS exact integer iterations v ← normalize
    (G·v), where normalize is sign-preserving truncating scaling to
    2^20 (floor on magnitudes — DuckDB's `//` truncates toward zero,
    so magnitudes-only division keeps both engines identical).  Python
    big-ints make the driver loop overflow-proof; the oracle unrolls
    the same six iterations as chained CTEs in HUGEINT."""
    from ...stages.linalg import build_gram

    ds = _read(sf_dir, "embeddings", ["embedding"])
    g = build_gram(ds, "embedding", GRAM_DIM)
    G = [[int(x) for x in row] for row in g]
    v = [PCA_SCALE] + [0] * (GRAM_DIM - 1)
    for _ in range(PCA_ITERS):
        w = [sum(G[i][j] * v[j] for j in range(GRAM_DIM)) for i in range(GRAM_DIM)]
        mx = max(max(abs(x) for x in w), 1)
        v = [
            -((-x * PCA_SCALE) // mx) if x < 0 else (x * PCA_SCALE) // mx
            for x in w
        ]
    return pa.table(
        {
            "dim": pa.array(np.arange(GRAM_DIM, dtype=np.int64)),
            "v": pa.array(np.array(v, dtype=np.int64)),
        }
    )


def _build_pca_power_sql() -> str:
    S = PCA_SCALE
    ctes = [
        f"""q AS (
      SELECT list_transform(
               embedding,
               x -> CAST(floor(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)
             ) AS qv
      FROM embeddings
    ),
    idx AS (SELECT unnest(range(1, {GRAM_DIM + 1})) AS a),
    g AS (
      SELECT i.a AS i, j.a AS j,
             CAST(SUM(q.qv[i.a] * q.qv[j.a]) AS HUGEINT) AS g
      FROM q, idx i, idx j GROUP BY 1, 2
    ),
    v0 AS (SELECT a AS d, CAST(CASE WHEN a = 1 THEN {S} ELSE 0 END AS HUGEINT) AS v FROM idx)"""
    ]
    for t in range(1, PCA_ITERS + 1):
        ctes.append(
            f"""w{t} AS (
      SELECT g.i AS d, SUM(g.g * v{t - 1}.v) AS w
      FROM g JOIN v{t - 1} ON v{t - 1}.d = g.j GROUP BY 1
    ),
    n{t} AS (SELECT GREATEST(MAX(ABS(w)), 1) AS mx FROM w{t}),
    v{t} AS (
      SELECT d,
             CASE WHEN w < 0 THEN -(((-w) * {S}) // mx)
                  ELSE (w * {S}) // mx END AS v
      FROM w{t}, n{t}
    )"""
        )
    return (
        "\n    WITH "
        + ",\n    ".join(ctes)
        + f"""
    SELECT CAST(d - 1 AS BIGINT) AS dim, CAST(v AS BIGINT) AS v
    FROM v{PCA_ITERS}
"""
    )


SKEW_BUCKETS = 1024


def q_skew_report(sf_dir: str):
    """Pre-shuffle skew diagnosis: hash the join key into 1024
    buckets, count per bucket, and fold the distribution into one
    summary row (nonempty buckets, max/min bucket load, total rows) —
    the report you read BEFORE deciding salting/splitting for a 100-TB
    exchange.  Two tiny exchanges: per-block bucket counts → Sum, then
    a single-row fold."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        k = b["o_custkey"].to_numpy().astype(np.uint64)
        h = ((k % np.uint64(2**32)) * np.uint64(2654435761)) % np.uint64(2**32)
        bucket = (h % np.uint64(SKEW_BUCKETS)).astype(np.int64)
        cnt = np.bincount(bucket, minlength=SKEW_BUCKETS).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table({"skew_bucket": pa.array(nz), "n": pa.array(cnt[nz])})

    def fold(b: pa.Table) -> pa.Table:
        n = b["n"].to_numpy()
        return pa.table(
            {
                "nonempty_buckets": pa.array([len(n)], pa.int64()),
                "max_bucket": pa.array([int(n.max())], pa.int64()),
                "min_bucket": pa.array([int(n.min())], pa.int64()),
                "total_rows": pa.array([int(n.sum())], pa.int64()),
            }
        )

    ds = _read(sf_dir, "orders", ["o_custkey"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("skew_bucket")
        .aggregate(Sum("n", alias_name="n"))
        .repartition(1)
        .map_batches(fold, batch_format="pyarrow", batch_size=None)
    )


Q_SKEW_REPORT_SQL = f"""
    WITH b AS (
      SELECT (((o_custkey % 4294967296) * 2654435761) % 4294967296) % {SKEW_BUCKETS} AS bucket,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM orders GROUP BY 1
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS nonempty_buckets,
           CAST(MAX(n) AS BIGINT) AS max_bucket,
           CAST(MIN(n) AS BIGINT) AS min_bucket,
           CAST(SUM(n) AS BIGINT) AS total_rows
    FROM b
"""


PR_RANGE_SHIFT = 14  # price ranges of 2^14 cents (~$164)


def q_percent_rank(sf_dir: str):
    """Percent-rank normalization (integer basis points): each order's
    price rank within its priority, pr_bp = (rank−1)·10⁴ // (n−1) with
    RANK ties (count of strictly smaller + 1).  TWO-PASS distributed
    rank — a whole enum partition is rows-cardinality DATA, so it is
    never sorted on one worker: pass 1 folds per-(priority, price
    range) counts into a bounded aggregate whose per-priority prefix
    sums broadcast back as a flat OFFSET TABLE; pass 2 hash-buckets
    the (priority, range) cells — ONE lexsort per bucket ranks every
    cell at once (tie-run starts give the strictly-smaller counts),
    so neither the range-cell count (~value domain) nor the row count
    ever meets per-key Python dispatch."""
    from ray.data.aggregate import Sum

    from ...stages.pivot import bucketed_wide_sum

    PRIOS = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]

    def range_counts(b: pa.Table) -> pa.Table:
        v = _cents(b["o_totalprice"].to_numpy())
        code = pc.index_in(
            b["o_orderpriority"], value_set=pa.array(PRIOS)
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {
                "cell": pa.array(code * (1 << 40) + (v >> PR_RANGE_SHIFT)),
                "n": pa.array(np.ones(len(v), dtype=np.int64)),
            }
        )
        agg = pa.TableGroupBy(t, "cell").aggregate([("n", "sum")])
        return agg.rename_columns(["cell", "n"])

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority", "o_totalprice"])
    # ≤ priorities × price-domain/2^14 rows — bounded
    counts = ds.map_batches(range_counts, batch_format="pyarrow")
    hist = bucketed_wide_sum(counts, "cell", ["n"]).take_all()
    cells = np.array([int(r["cell"]) for r in hist], dtype=np.int64)
    ns = np.array([int(r["n"]) for r in hist], dtype=np.int64)
    order = np.argsort(cells)
    cells, ns = cells[order], ns[order]
    codes = cells >> 40
    # exclusive prefix sum per priority = each cell's rank offset
    offs = np.cumsum(ns) - ns
    base = np.zeros(len(PRIOS), dtype=np.int64)
    tot = np.zeros(len(PRIOS), dtype=np.int64)
    for p in range(len(PRIOS)):
        m = codes == p
        if m.any():
            base[p] = offs[m][0]
            tot[p] = ns[m].sum()
    cell_off = offs - base[codes]

    import ray

    lut_ref = ray.put((cells, cell_off, tot))

    def tag(b: pa.Table) -> pa.Table:
        v = _cents(b["o_totalprice"].to_numpy())
        code = pc.index_in(
            b["o_orderpriority"], value_set=pa.array(PRIOS)
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        cell = code * (1 << 40) + (v >> PR_RANGE_SHIFT)
        return pa.table(
            {
                "o_orderkey": b["o_orderkey"],
                "o_orderpriority": b["o_orderpriority"],
                "price_c": pa.array(v, pa.int64()),
                "cell": pa.array(cell),
            }
        )

    def rank_bucket(group: pa.Table) -> pa.Table:
        cells_s, cell_off_s, tot_s = ray.get(lut_ref)
        cell = group["cell"].to_numpy()
        v = group["price_c"].to_numpy()
        sidx = np.lexsort((v, cell))
        cell_s, v_s = cell[sidx], v[sidx]
        new_cell = np.concatenate(([True], cell_s[1:] != cell_s[:-1]))
        new_tie = new_cell | np.concatenate(([True], v_s[1:] != v_s[:-1]))
        idx = np.arange(len(v_s))
        run_start = idx[new_cell][np.cumsum(new_cell) - 1]
        tie_start = idx[new_tie][np.cumsum(new_tie) - 1]
        local = tie_start - run_start
        off = cell_off_s[np.searchsorted(cells_s, cell_s)]
        code = cell_s >> 40
        n = tot_s[code]
        pr_s = (off + local) * 10000 // np.maximum(n - 1, 1)
        pr = np.empty_like(pr_s)
        pr[sidx] = pr_s
        return pa.table(
            {
                "o_orderkey": group["o_orderkey"],
                "o_orderpriority": group["o_orderpriority"],
                "price_c": pa.array(v, pa.int64()),
                "pr_bp": pa.array(pr.astype(np.int64)),
            }
        )

    return hash_exchange(ds.map_batches(tag, batch_format="pyarrow"), "cell", rank_bucket)


Q_PERCENT_RANK_SQL = """
    SELECT o_orderkey, o_orderpriority,
           CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_c,
           CAST((RANK() OVER (PARTITION BY o_orderpriority
                              ORDER BY CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) - 1)
                * 10000
                // GREATEST(COUNT(*) OVER (PARTITION BY o_orderpriority) - 1, 1)
                AS BIGINT) AS pr_bp
    FROM orders
"""


def q_kmeans_labels(sf_dir: str):
    """Distributed k-means over the embedding table (the clustering
    pass behind SemDeDup-style curation and IVF training): 3 exact
    INTEGER iterations — each a streamed assignment pass folding to a
    k×(1+d) partial and one Sum tree-reduce; centroid updates are
    sign-preserving truncating division so the oracle replays every
    op (stages/linalg.py::kmeans_iterate).  Init = the first k
    quantized vectors; output = per-cluster size + centroid L1 norm."""
    import pyarrow.parquet as pq

    from ...stages.linalg import (
        kmeans_assign_summary,
        kmeans_iterate,
        quantize_embeddings,
    )

    seed_t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", KMEANS_K)],
    ).sort_by("vec_id")
    init = quantize_embeddings(seed_t["embedding"].combine_chunks())
    ds = _read(sf_dir, "embeddings", ["embedding"])
    cent = kmeans_iterate(ds, "embedding", GRAM_DIM, KMEANS_K, init, KMEANS_ITERS)
    return kmeans_assign_summary(ds, "embedding", cent)


def _kmeans_ctes() -> str:
    """Shared CTE chain: quantize → init → ITERS unrolled iterations →
    final assignment ``af(vec_id, c)`` with centroids ``c{ITERS}``."""
    K, D, ITERS = KMEANS_K, GRAM_DIM, KMEANS_ITERS
    dist = (
        "list_sum(list_transform(range(1, %d), i -> "
        "(q.qv[i] - c.cv[i]) * (q.qv[i] - c.cv[i])))" % (D + 1)
    )
    ctes = [
        f"""q AS (
      SELECT vec_id, list_transform(
               embedding, x -> CAST(floor(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)
             ) AS qv
      FROM embeddings
    ),
    dims AS (SELECT unnest(range(1, {D + 1})) AS d),
    c0 AS (
      SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT) AS c, qv AS cv
      FROM q WHERE vec_id < {K}
    )"""
    ]
    for t in range(1, ITERS + 1):
        prev = f"c{t - 1}"
        ctes.append(
            f"""a{t} AS (
      SELECT vec_id, qv, c FROM (
        SELECT q.vec_id, q.qv, c.c,
               row_number() OVER (PARTITION BY q.vec_id
                                  ORDER BY {dist}, c.c) AS rn
        FROM q, {prev} c
      ) WHERE rn = 1
    ),
    u{t} AS (
      SELECT a.c, d.d, SUM(a.qv[d.d]) AS s, COUNT(*) AS n
      FROM a{t} a, dims d GROUP BY 1, 2
    ),
    m{t} AS (
      SELECT c, list(CASE WHEN s < 0 THEN -((-s) // n) ELSE s // n END
                     ORDER BY d) AS cv
      FROM u{t} GROUP BY c
    ),
    c{t} AS (
      SELECT p.c, COALESCE(m.cv, p.cv) AS cv
      FROM {prev} p LEFT JOIN m{t} m ON m.c = p.c
    )"""
        )
    dist_f = (
        "list_sum(list_transform(range(1, %d), i -> "
        "(q.qv[i] - c.cv[i]) * (q.qv[i] - c.cv[i])))" % (D + 1)
    )
    return (
        ",\n    ".join(ctes)
        + f""",
    af AS (
      SELECT vec_id, qv, c FROM (
        SELECT q.vec_id, q.qv, c.c,
               row_number() OVER (PARTITION BY q.vec_id
                                  ORDER BY {dist_f}, c.c) AS rn
        FROM q, c{ITERS} c
      ) WHERE rn = 1
    )"""
    )


def _build_kmeans_sql() -> str:
    return f"""
    WITH {_kmeans_ctes()}
    SELECT af.c AS cluster,
           CAST(COUNT(*) AS BIGINT) AS n_members,
           CAST(list_sum(list_transform(cf.cv, x -> abs(x))) AS BIGINT) AS c_norm1
    FROM af JOIN c{KMEANS_ITERS} cf ON cf.c = af.c
    GROUP BY af.c, cf.cv
"""


QUERIES = {
    "pricing_summary": Query(q_pricing_summary, Q_PRICING_SQL),
    "top_customers": Query(q_top_customers, Q_TOP_CUSTOMERS_SQL),
    "mode_event": Query(q_mode_event, Q_MODE_EVENT_SQL),
    "distinct_users": Query(q_distinct_users, Q_DISTINCT_USERS_SQL),
    "price_histogram": Query(q_price_histogram, Q_PRICE_HISTOGRAM_SQL),
    "hash_sample": Query(q_hash_sample, Q_HASH_SAMPLE_SQL),
    "bottomk_sample": Query(q_bottomk_sample, _build_bottomk_sql),
    "grouped_sample": Query(q_grouped_sample, _build_grouped_sample_sql),
    "revenue_by_nation": Query(q_revenue_by_nation, Q_REVENUE_BY_NATION_SQL),
    "order_priority": Query(q_order_priority, Q_ORDER_PRIORITY_SQL),
    "revenue_share": Query(q_revenue_share, Q_REVENUE_SHARE_SQL),
    "group_regression": Query(q_group_regression, Q_GROUP_REGRESSION_SQL),
    "basket_pairs": Query(q_basket_pairs, Q_BASKET_PAIRS_SQL),
    "quantile_sketch": Query(q_quantile_sketch, Q_QUANTILE_SKETCH_SQL),
    "skyline": Query(q_skyline, Q_SKYLINE_SQL),
    "grouped_topk": Query(q_grouped_topk, Q_GROUPED_TOPK_SQL),
    "hll_distinct": Query(q_hll_distinct, Q_HLL_DISTINCT_SQL),
    "kmv_overlap": Query(q_kmv_overlap, _build_kmv_sql),
    "cms_counts": Query(q_cms_counts, Q_CMS_COUNTS_SQL),
    "gram_matrix": Query(q_gram_matrix, Q_GRAM_MATRIX_SQL),
    "dim_stats": Query(q_dim_stats, Q_DIM_STATS_SQL),
    "rollup_sales": Query(q_rollup_sales, Q_ROLLUP_SALES_SQL),
    "cube_sales": Query(q_cube_sales, Q_CUBE_SALES_SQL),
    "group_quantiles": Query(q_group_quantiles, Q_GROUP_QUANTILES_SQL),
    "quartile_label": Query(q_quartile_label, Q_QUARTILE_LABEL_SQL),
    "stratified_sample": Query(q_stratified_sample, Q_STRATIFIED_SAMPLE_SQL),
    "pivot_events": Query(q_pivot_events, Q_PIVOT_EVENTS_SQL),
    "promo_revenue": Query(q_promo_revenue, Q_PROMO_REVENUE_SQL),
    "returned_items": Query(q_returned_items, Q_RETURNED_ITEMS_SQL),
    "pca_power": Query(q_pca_power, _build_pca_power_sql),
    "skew_report": Query(q_skew_report, Q_SKEW_REPORT_SQL),
    "percent_rank": Query(q_percent_rank, Q_PERCENT_RANK_SQL),
    "kmeans_labels": Query(q_kmeans_labels, _build_kmeans_sql),
}
