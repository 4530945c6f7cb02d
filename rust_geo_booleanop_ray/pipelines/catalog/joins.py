"""Relational join queries: as-of, range, outer/semi/anti, stream, bloom."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ...stages.cells import row_chunks
from ...stages.exchange import hash_exchange
from ._shared import Query, _EPOCH_2024_US, _cents, _read


def q_asof_join(sf_dir: str):
    """As-of join (custom operator Ray Data lacks): each 'click' event
    is matched to the latest 'view' event of the same user at or
    before its timestamp.  Non-click/view rows are shed BEFORE the
    exchange; users are co-located by hash BUCKET (not one Python
    group call per user), and the per-bucket kernel resolves every
    click in one lexsort + forward-fill pass: rows sort by (user, ts,
    view-before-click, event_id), a running maximum of view indices
    gives each click its latest prior view, and a segment-start bound
    rejects fills that leaked from the previous user.  Value-exact vs
    DuckDB ASOF JOIN."""

    def prep(b: pa.Table) -> pa.Table:
        keep = pc.is_in(
            b["event_type"], value_set=pa.array(["click", "view"])
        )
        k = b.filter(keep)
        ts = k["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table(
            {
                "user_id": k["user_id"],
                "t": pa.array(ts, pa.int64()),
                "event_id": k["event_id"],
                "is_click": pa.array(
                    pc.equal(k["event_type"], "click").to_numpy(
                        zero_copy_only=False
                    )
                ),
                "value": k["value"],
            }
        )

    def asof_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        ts = group["t"].to_numpy()
        eid = group["event_id"].to_numpy()
        val = group["value"].to_numpy()
        is_click = group["is_click"].to_numpy(zero_copy_only=False)
        # views sort before clicks at the same (user, ts) so a click's
        # forward fill sees same-timestamp views (ASOF <= semantics);
        # among equal-ts views the LAST (max event_id) wins, matching
        # searchsorted side='right' - 1
        order = np.lexsort((eid, is_click.astype(np.int64), ts, u))
        u, ts, eid, val, is_click = (
            u[order],
            ts[order],
            eid[order],
            val[order],
            is_click[order],
        )
        n = len(u)
        seg = np.concatenate(([True], u[1:] != u[:-1]))
        seg_pos = np.flatnonzero(seg)
        seg_id = np.cumsum(seg) - 1
        idx = np.arange(n, dtype=np.int64)
        lastview = np.maximum.accumulate(np.where(~is_click, idx, -1))
        cr = np.flatnonzero(is_click)
        lv = lastview[cr]
        valid = lv >= seg_pos[seg_id[cr]]
        cr, lv = cr[valid], lv[valid]
        return pa.table(
            {
                "click_id": pa.array(eid[cr], pa.int64()),
                "view_id": pa.array(eid[lv], pa.int64()),
                "lag_us": pa.array(ts[cr] - ts[lv], pa.int64()),
                "view_value_c": pa.array(_cents(val[lv])),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
    return hash_exchange(ds.map_batches(prep, batch_format="pyarrow"), "user_id", asof_bucket)


Q_ASOF_JOIN_SQL = """
    WITH c AS (SELECT user_id, event_id, epoch_us(ts) AS t FROM events WHERE event_type = 'click'),
         v AS (SELECT user_id, event_id, epoch_us(ts) AS t,
                      CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c,
                      row_number() OVER (PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS rn
               FROM events WHERE event_type = 'view')
    SELECT c.event_id AS click_id,
           w.event_id AS view_id,
           CAST(c.t - w.t AS BIGINT) AS lag_us,
           w.value_c AS view_value_c
    FROM c
    JOIN LATERAL (
      SELECT v.event_id, v.t, v.value_c
      FROM v WHERE v.user_id = c.user_id AND v.t <= c.t
      ORDER BY v.t DESC, v.rn DESC LIMIT 1
    ) w ON TRUE
"""


def q_range_join(sf_dir: str):
    """Range (interval) join — a custom operator Ray Data lacks:
    events are matched into deterministic supplier maintenance windows
    (integer-microsecond bounds derived from s_suppkey, both
    inclusive); per-window event counts + cents-exact value sums.
    BOTH sides stream as Datasets (no ray.put of the interval table).
    Temporal PBSM: each event lands in its single home hour-bucket,
    each interval replicates to every bucket it spans, ONE
    groupby(hour) co-locates them, and the per-bucket kernel does a
    chunked vectorized containment — each pair emits exactly once
    because the event's home bucket is unique.  The one plan of the
    range_join oracle: the ``range_join_big`` name runs it too."""
    B_US = 3_600_000_000  # 1-hour buckets

    def interval_rows(batch: pa.Table) -> pa.Table:
        sk = batch["s_suppkey"].to_numpy()
        start = _EPOCH_2024_US + ((sk * 7919) % 720) * 3_600_000_000
        end = start + (1 + sk % 6) * 3_600_000_000
        # replicate each interval to every bucket it spans (vectorized
        # repeat over per-row bucket counts)
        b0 = start // B_US
        nb = end // B_US - b0 + 1
        total = int(nb.sum())
        rep = np.repeat(np.arange(len(sk), dtype=np.int64), nb)
        csum = np.concatenate(([0], np.cumsum(nb)[:-1]))
        local = np.arange(total, dtype=np.int64) - np.repeat(csum, nb)
        return pa.table(
            {
                "hour": pa.array(b0[rep] + local, pa.int64()),
                "ts_us": pa.array(np.zeros(total, dtype=np.int64)),
                "value_c": pa.array(np.zeros(total, dtype=np.int64)),
                "interval_id": pa.array(sk[rep], pa.int64()),
                "start_us": pa.array(start[rep], pa.int64()),
                "end_us": pa.array(end[rep], pa.int64()),
                "side": pa.array(np.ones(total, dtype=np.int8)),
            }
        )

    def point_rows(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        n = len(ts)
        return pa.table(
            {
                "hour": pa.array(ts // B_US, pa.int64()),
                "ts_us": pa.array(ts, pa.int64()),
                "value_c": pa.array(_cents(batch["value"].to_numpy())),
                "interval_id": pa.array(np.zeros(n, dtype=np.int64)),
                "start_us": pa.array(np.zeros(n, dtype=np.int64)),
                "end_us": pa.array(np.zeros(n, dtype=np.int64)),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
            }
        )

    def join_bucket(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy()
        pts = group.filter(pa.array(side == 0))
        ivs = group.filter(pa.array(side == 1))
        empty = pa.schema(
            [pa.field("s_suppkey", pa.int64()), pa.field("value_c", pa.int64())]
        ).empty_table()
        if pts.num_rows == 0 or ivs.num_rows == 0:
            return empty
        ts = pts["ts_us"].to_numpy()
        vc = pts["value_c"].to_numpy()
        iid = ivs["interval_id"].to_numpy()
        s = ivs["start_us"].to_numpy()
        e = ivs["end_us"].to_numpy()
        out = []
        for rows in row_chunks(len(iid), len(ts)):
            inside = (ts[None, :] >= s[rows, None]) & (ts[None, :] <= e[rows, None])
            ii, pp = np.nonzero(inside)
            out.append(
                pa.table(
                    {
                        "s_suppkey": pa.array(iid[rows.start + ii], pa.int64()),
                        "value_c": pa.array(vc[pp], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(out) if out else empty

    points = _read(sf_dir, "events", ["ts", "value"]).map_batches(
        point_rows, batch_format="pyarrow"
    )
    intervals = _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        interval_rows, batch_format="pyarrow"
    )
    pairs = (
        points.union(intervals)
        .groupby("hour")
        .map_groups(join_bucket, batch_format="pyarrow")
    )
    return _suppkey_count_sum(pairs)


def _suppkey_count_sum(pairs_ds):
    """(s_suppkey, value_c) rows → exact per-supplier (n_events,
    sum_value_c): per-block TableGroupBy partial, then the shared
    ``bucketed_wide_sum`` merge (suppliers are rows-cardinality at
    scale)."""
    from ...stages.pivot import bucketed_wide_sum

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"s_suppkey": b["s_suppkey"], "value_c": b["value_c"]})
        agg = pa.TableGroupBy(t, "s_suppkey").aggregate(
            [("value_c", "count"), ("value_c", "sum")]
        )
        return pa.table(
            {
                "s_suppkey": agg["s_suppkey"],
                "n_events": agg["value_c_count"].cast(pa.int64()),
                "sum_value_c": agg["value_c_sum"].cast(pa.int64()),
            }
        )

    return bucketed_wide_sum(
        pairs_ds.map_batches(partial, batch_format="pyarrow"),
        "s_suppkey",
        ["n_events", "sum_value_c"],
    )


Q_RANGE_JOIN_SQL = f"""
    WITH w AS (
      SELECT s_suppkey,
             {_EPOCH_2024_US} + ((s_suppkey * 7919) % 720) * 3600000000 AS start_us,
             {_EPOCH_2024_US} + ((s_suppkey * 7919) % 720) * 3600000000
               + (1 + s_suppkey % 6) * 3600000000 AS end_us
      FROM supplier
    ),
    e AS (SELECT epoch_us(ts) AS t,
                 CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
          FROM events)
    SELECT s_suppkey,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(value_c) AS BIGINT) AS sum_value_c
    FROM w JOIN e ON e.t >= w.start_us AND e.t <= w.end_us
    GROUP BY s_suppkey
"""


def q_table_diff(sf_dir: str):
    """Dataset reconciliation / symmetric difference: customer keys
    with URGENT orders vs keys with high-value orders, reporting
    which side each exclusive key is missing from — the integrity
    check you run between two snapshots or two pipelines' outputs.
    Per-batch combiner emits each block's DISTINCT keys with a side
    bitmask (1=a, 2=b); one key-BUCKETED shuffle ORs the masks with a
    vectorized reduceat (key cardinality is ~rows — never one Python
    group call per key) and keeps the single-sided keys.  The exchange
    moves ≤ one row per (block, side, key) — never the raw rows."""

    def tag(col_filter, mask):
        def fn(b: pa.Table) -> pa.Table:
            keys = np.unique(col_filter(b).to_numpy(zero_copy_only=False))
            return pa.table(
                {
                    "c_custkey": pa.array(keys, pa.int64()),
                    "mask": pa.array(np.full(len(keys), mask, dtype=np.int64)),
                }
            )

        return fn

    a = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        tag(
            lambda b: b.filter(pc.equal(b["o_orderpriority"], "1-URGENT"))["o_custkey"],
            1,
        ),
        batch_format="pyarrow",
    )
    b = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        tag(lambda b: b.filter(pc.greater(b["o_totalprice"], 300000.0))["o_custkey"], 2),
        batch_format="pyarrow",
    )

    def resolve_bucket(group: pa.Table) -> pa.Table:
        k = group["c_custkey"].to_numpy()
        m = group["mask"].to_numpy()
        order = np.argsort(k, kind="stable")
        k, m = k[order], m[order]
        starts = np.concatenate(([0], np.flatnonzero(k[1:] != k[:-1]) + 1))
        ored = np.bitwise_or.reduceat(m, starts)
        uk = k[starts]
        one_sided = ored != 3
        uk, ored = uk[one_sided], ored[one_sided]
        return pa.table(
            {
                "c_custkey": pa.array(uk, pa.int64()),
                "side": pa.array(
                    np.where(ored == 1, "a_only", "b_only"), pa.string()
                ),
            }
        )

    return hash_exchange(a.union(b), "c_custkey", resolve_bucket)


Q_TABLE_DIFF_SQL = """
    WITH a AS (SELECT DISTINCT o_custkey AS k FROM orders
               WHERE o_orderpriority = '1-URGENT'),
         b AS (SELECT DISTINCT o_custkey AS k FROM orders
               WHERE o_totalprice > 300000.0)
    SELECT k AS c_custkey, 'a_only' AS side FROM a
    WHERE k NOT IN (SELECT k FROM b)
    UNION ALL
    SELECT k AS c_custkey, 'b_only' AS side FROM b
    WHERE k NOT IN (SELECT k FROM a)
"""


def q_anti_join(sf_dir: str):
    """Equi ANTI-join: customers with no URGENT order (the relational
    cousin of the spatial anti-join).  Same one-shuffle bucketed plan
    as the inner shuffle_hash_join — all rows of a key land in one
    bucket, so the bucket-local Acero left-anti verdict is the global
    verdict; the build side is filtered at the read and ships only its
    key column into the exchange."""
    from ...stages.join import shuffle_hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def urgent_keys(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["o_orderpriority"], "1-URGENT")
        return pa.table({"c_custkey": b.filter(keep)["o_custkey"]})

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        urgent_keys, batch_format="pyarrow"
    )
    return shuffle_hash_join(
        cust,
        orders,
        "c_custkey",
        ["c_name"],
        [],
        how="anti",
        left_schema=pa.schema(
            [pa.field("c_custkey", pa.int64()), pa.field("c_name", pa.string())]
        ),
        right_schema=pa.schema([pa.field("c_custkey", pa.int64())]),
    )


Q_ANTI_JOIN_SQL = """
    SELECT c_custkey, c_name FROM customer c
    WHERE NOT EXISTS (
      SELECT 1 FROM orders o
      WHERE o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT')
"""


def q_semi_join(sf_dir: str):
    """Equi SEMI-join with a bloom pre-filter: customers having ≥1
    high-value order.  The build side's keys are folded into ONE
    broadcast bitmap (distributed OR tree-reduce, 1 MiB on the driver
    regardless of build size); the probe side sheds definite
    non-matches BEFORE the shuffle — at 100 TB that's the difference
    between exchanging every customer row and only plausible matches.
    False positives are resolved exactly by the bucket-local Acero
    semi join, so the result is still exact."""
    import ray

    from ...stages.join import bloom_prefilter, build_bloom, shuffle_hash_join

    def hi_keys(b: pa.Table) -> pa.Table:
        keep = pc.greater(b["o_totalprice"], 450000.0)
        return pa.table({"c_custkey": b.filter(keep)["o_custkey"]})

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        hi_keys, batch_format="pyarrow"
    )
    words = build_bloom(orders, "c_custkey")
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    cust = bloom_prefilter(cust, ray.put(words), "c_custkey")
    return shuffle_hash_join(
        cust,
        orders,
        "c_custkey",
        ["c_name"],
        [],
        how="semi",
        left_schema=pa.schema(
            [pa.field("c_custkey", pa.int64()), pa.field("c_name", pa.string())]
        ),
        right_schema=pa.schema([pa.field("c_custkey", pa.int64())]),
    )


Q_SEMI_JOIN_SQL = """
    SELECT c_custkey, c_name FROM customer c
    WHERE EXISTS (
      SELECT 1 FROM orders o
      WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 450000.0)
"""


def q_left_join(sf_dir: str):
    """Left OUTER equi-join: every customer, with their URGENT orders
    attached and typed-null order columns where none exist — the join
    shape that preserves the driving table (feature enrichment where
    missing is meaningful).  Same one-shuffle bucketed plan; the
    bucket-local Acero left-outer verdict is global because all rows
    of a key share a bucket."""
    from ...stages.join import shuffle_hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])

    def urgent(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["o_orderpriority"], "1-URGENT")
        kept = b.filter(keep)
        return pa.table(
            {
                "c_custkey": kept["o_custkey"],
                "o_orderkey": kept["o_orderkey"],
                "price_c": pa.array(_cents(kept["o_totalprice"].to_numpy())),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderpriority", "o_totalprice"]
    ).map_batches(urgent, batch_format="pyarrow")
    return shuffle_hash_join(
        cust,
        orders,
        "c_custkey",
        ["c_name"],
        ["o_orderkey", "price_c"],
        how="left",
        left_schema=pa.schema(
            [pa.field("c_custkey", pa.int64()), pa.field("c_name", pa.string())]
        ),
        right_schema=pa.schema(
            [
                pa.field("c_custkey", pa.int64()),
                pa.field("o_orderkey", pa.int64()),
                pa.field("price_c", pa.int64()),
            ]
        ),
    )


Q_LEFT_JOIN_SQL = """
    SELECT c.c_custkey, c.c_name, o.o_orderkey,
           CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT) AS price_c
    FROM customer c
    LEFT JOIN orders o
      ON o.o_custkey = c.c_custkey AND o.o_orderpriority = '1-URGENT'
"""


def q_full_join(sf_dir: str):
    """Full OUTER equi-join: a customer SUBSET (custkeys whose low two
    bits are zero, ~every fourth —
    a stand-in for a partially-loaded dimension) against URGENT
    orders.  Keeps matched products, subset customers with no urgent
    order (null order columns) AND urgent orders whose customer is
    outside the subset (null name) — the reconciliation join you run
    when neither side is authoritative.  Same one-shuffle bucketed
    plan as the other four modes; the bucket-local Acero full-outer
    verdict is global because all rows of a key share a bucket, and
    the key column is coalesced across sides per SQL semantics."""
    from ...stages.join import shuffle_hash_join

    def subset(b: pa.Table) -> pa.Table:
        keep = pc.equal(pc.bit_wise_and(b["c_custkey"], 3), 0)
        return b.filter(keep).select(["c_custkey", "c_name"])

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"]).map_batches(
        subset, batch_format="pyarrow"
    )

    def urgent(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["o_orderpriority"], "1-URGENT")
        kept = b.filter(keep)
        return pa.table(
            {
                "c_custkey": kept["o_custkey"],
                "o_orderkey": kept["o_orderkey"],
                "price_c": pa.array(_cents(kept["o_totalprice"].to_numpy())),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderpriority", "o_totalprice"]
    ).map_batches(urgent, batch_format="pyarrow")
    return shuffle_hash_join(
        cust,
        orders,
        "c_custkey",
        ["c_name"],
        ["o_orderkey", "price_c"],
        how="full",
        left_schema=pa.schema(
            [pa.field("c_custkey", pa.int64()), pa.field("c_name", pa.string())]
        ),
        right_schema=pa.schema(
            [
                pa.field("c_custkey", pa.int64()),
                pa.field("o_orderkey", pa.int64()),
                pa.field("price_c", pa.int64()),
            ]
        ),
    )


Q_FULL_JOIN_SQL = """
    SELECT COALESCE(c.c_custkey, o.o_custkey) AS c_custkey, c.c_name,
           o.o_orderkey,
           CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT) AS price_c
    FROM (SELECT c_custkey, c_name FROM customer
          WHERE (c_custkey & 3) = 0) c
    FULL JOIN (SELECT * FROM orders WHERE o_orderpriority = '1-URGENT') o
      ON o.o_custkey = c.c_custkey
"""


STREAM_JOIN_WINDOW_US = 3_600_000_000  # 1 h


def q_stream_join(sf_dir: str):
    """Stream-stream windowed join (the Flink/Beam interval join):
    every (click, purchase) pair of the SAME user with the purchase
    in [click, click+1h].  Distinct from asof (nearest single match)
    and range_join (static interval table): both sides are streams.
    User-bucketed; inside a bucket clicks and purchases sort once and
    TWO searchsorted calls bound each click's purchase slice — pair
    emission is the output size, not a nested scan.  Irrelevant event
    types shed before the exchange."""

    def prep(b: pa.Table) -> pa.Table:
        et = b["event_type"].to_numpy(zero_copy_only=False)
        keep = (et == "click") | (et == "purchase")
        u = b["user_id"].to_numpy()[keep]
        ts = (
            b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)[keep]
        )
        return pa.table(
            {
                "user_id": pa.array(u.astype(np.int64)),
                "event_id": pa.array(b["event_id"].to_numpy()[keep]),
                "t": pa.array(ts),
                "is_click": pa.array((et[keep] == "click").astype(np.int64)),
            }
        )

    def join_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        eid = group["event_id"].to_numpy()
        t = group["t"].to_numpy()
        click = group["is_click"].to_numpy().astype(bool)
        BIG = np.int64(1) << np.int64(50)
        # lift each user's timeline onto a disjoint band: ONE pair of
        # searchsorted calls then resolves every user's windows at once
        uu, uidx = np.unique(u, return_inverse=True)
        lift = uidx.astype(np.int64) * BIG
        ct = np.sort(t[click] + lift[click])
        c_eid_order = np.argsort(t[click] + lift[click], kind="stable")
        c_eid = eid[click][c_eid_order]
        c_t = (t[click] + lift[click])[c_eid_order]
        p_order = np.argsort(t[~click] + lift[~click], kind="stable")
        p_t = (t[~click] + lift[~click])[p_order]
        p_eid = eid[~click][p_order]
        lo = np.searchsorted(p_t, c_t, side="left")
        # side="left": the window is half-open [t, t+W) like the SQL
        hi = np.searchsorted(p_t, c_t + STREAM_JOIN_WINDOW_US, side="left")
        # same-band guard: window never crosses the BIG band gap
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return pa.table(
                {
                    "click_id": pa.array([], pa.int64()),
                    "purchase_id": pa.array([], pa.int64()),
                    "gap_us": pa.array([], pa.int64()),
                }
            )
        seg = np.repeat(np.arange(len(c_t)), counts)
        offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pidx = lo[seg] + (np.arange(total) - offs[seg])
        return pa.table(
            {
                "click_id": pa.array(c_eid[seg], pa.int64()),
                "purchase_id": pa.array(p_eid[pidx], pa.int64()),
                "gap_us": pa.array((p_t[pidx] - c_t[seg]).astype(np.int64)),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
    return hash_exchange(ds.map_batches(prep, batch_format="pyarrow"), "user_id", join_bucket)


Q_STREAM_JOIN_SQL = f"""
    SELECT c.event_id AS click_id,
           p.event_id AS purchase_id,
           CAST(epoch_us(p.ts) - epoch_us(c.ts) AS BIGINT) AS gap_us
    FROM events c
    JOIN events p
      ON p.user_id = c.user_id
     AND p.event_type = 'purchase'
     AND c.event_type = 'click'
     AND epoch_us(p.ts) >= epoch_us(c.ts)
     AND epoch_us(p.ts) < epoch_us(c.ts) + {STREAM_JOIN_WINDOW_US}
"""


BLOOM_BITS = 1 << 16
BLOOM_HASHES = 3


def _bloom_positions(keys: np.ndarray) -> np.ndarray:
    """(n, BLOOM_HASHES) bit positions from splitmix64 chains."""
    from ...stages.footprint import _splitmix64

    k = keys.astype(np.uint64)
    pos = np.empty((len(k), BLOOM_HASHES), dtype=np.int64)
    h = k
    for j in range(BLOOM_HASHES):
        h = _splitmix64(h)
        pos[:, j] = (h % np.uint64(BLOOM_BITS)).astype(np.int64)
    return pos


def q_bloom_join(sf_dir: str):
    """Bloom-filter join shed — THE canonical 100-TB join
    optimization, as a first-class operator: the build side (parts of
    one brand) folds its keys into a 64-Kbit bloom via a MERGEABLE
    bitwise-OR aggregate (8 KiB fixed state per block, same contract
    as the sketches); the bloom broadcasts once and the probe side
    (lineitem) sheds non-members BEFORE the join shuffle.  False
    positives survive the shed but die in the exact hash join, so the
    result equals the plain join — the oracle doesn't even see the
    bloom.  Output: revenue cents per partkey for the brand's parts."""
    import ray
    from ray.data.aggregate import AggregateFn

    from ...stages.join import shuffle_hash_join
    from ...stages.pivot import bucketed_wide_sum

    brand = "Brand#13"

    def build_filter(b: pa.Table) -> pa.Table:
        keep = pc.equal(b["p_brand"], brand).to_numpy(zero_copy_only=False)
        return pa.table({"l_partkey": pa.array(b["p_partkey"].to_numpy()[keep])})

    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        build_filter, batch_format="pyarrow"
    )

    def accumulate_block(state: np.ndarray, block) -> np.ndarray:
        t = pa.table(block) if not isinstance(block, pa.Table) else block
        pos = _bloom_positions(t["l_partkey"].to_numpy())
        out = state.copy()
        np.bitwise_or.at(
            out, pos.ravel() >> 3, (1 << (pos.ravel() & 7)).astype(np.uint8)
        )
        return out

    bloom = part.aggregate(
        AggregateFn(
            init=lambda _: np.zeros(BLOOM_BITS // 8, dtype=np.uint8),
            accumulate_block=accumulate_block,
            merge=lambda a, b: a | b,
            name="bloom",
        )
    )["bloom"]
    bloom_ref = ray.put(bloom)

    def probe_shed(b: pa.Table) -> pa.Table:
        bits = ray.get(bloom_ref)
        keys = b["l_partkey"].to_numpy()
        pos = _bloom_positions(keys)
        hit = np.ones(len(keys), dtype=bool)
        for j in range(BLOOM_HASHES):
            hit &= (bits[pos[:, j] >> 3] & (1 << (pos[:, j] & 7))) != 0
        rev = _cents(
            b["l_extendedprice"].to_numpy()[hit]
            * (1.0 - b["l_discount"].to_numpy()[hit])
        )
        t = pa.table(
            {
                "l_partkey": pa.array(keys[hit]),
                "rev_c": pa.array(rev),
            }
        )
        agg = pa.TableGroupBy(t, "l_partkey").aggregate([("rev_c", "sum")])
        return agg.rename_columns(["l_partkey", "rev_c"])

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])
    probe = li.map_batches(probe_shed, batch_format="pyarrow")
    # exact join kills bloom false positives
    joined = shuffle_hash_join(
        probe,
        part,
        key="l_partkey",
        left_cols=["rev_c"],
        right_cols=[],
        left_schema=pa.schema([("l_partkey", pa.int64()), ("rev_c", pa.int64())]),
        right_schema=pa.schema([("l_partkey", pa.int64())]),
    )
    return bucketed_wide_sum(joined, "l_partkey", ["rev_c"])


Q_BLOOM_JOIN_SQL = """
    SELECT l.l_partkey, CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5) AS BIGINT)) AS BIGINT) AS rev_c
    FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
    WHERE p.p_brand = 'Brand#13'
    GROUP BY l.l_partkey
"""


QUERIES = {
    "asof_join": Query(q_asof_join, Q_ASOF_JOIN_SQL),
    "range_join": Query(q_range_join, Q_RANGE_JOIN_SQL, aliases=("range_join_big",)),
    "table_diff": Query(q_table_diff, Q_TABLE_DIFF_SQL),
    "anti_join": Query(q_anti_join, Q_ANTI_JOIN_SQL),
    "semi_join": Query(q_semi_join, Q_SEMI_JOIN_SQL),
    "left_join": Query(q_left_join, Q_LEFT_JOIN_SQL),
    "full_join": Query(q_full_join, Q_FULL_JOIN_SQL),
    "stream_join": Query(q_stream_join, Q_STREAM_JOIN_SQL),
    "bloom_join": Query(q_bloom_join, Q_BLOOM_JOIN_SQL),
}
