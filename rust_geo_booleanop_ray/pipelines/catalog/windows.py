"""Event-time window queries: sessions, funnels, gaps, running stats."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ...stages.exchange import hash_exchange
from ._shared import Query, _cents, _read


def _events(sf_dir: str, cols):
    """The events table projected to ``cols``, where ``t`` is ``ts`` as
    int64 microseconds and ``value_c`` is ``value`` in integer cents."""
    src = {"t": "ts", "value_c": "value"}

    def project(b: pa.Table) -> pa.Table:
        out = {}
        for c in cols:
            if c == "t":
                ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
                out[c] = pa.array(ts, pa.int64())
            elif c == "value_c":
                out[c] = pa.array(_cents(b["value"].to_numpy()), pa.int64())
            else:
                out[c] = b[c]
        return pa.table(out)

    ds = _read(sf_dir, "events", [src.get(c, c) for c in cols])
    return ds.map_batches(project, batch_format="pyarrow")


def q_events_window(sf_dir: str):
    """Tumbling 1-hour window per event_type (streaming-shaped table;
    integer microsecond bucketing)."""
    from ray.data.aggregate import Sum

    def bucket(batch: pa.Table) -> pa.Table:
        # Arrow-native partial aggregation — no pandas round-trip.
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        t = pa.table(
            {
                "event_type": batch["event_type"],
                "window_id": pa.array(ts // 3_600_000_000, pa.int64()),
                "value_c": pa.array(_cents(batch["value"].to_numpy()), pa.int64()),
            }
        )
        agg = pa.TableGroupBy(t, ["event_type", "window_id"]).aggregate(
            [("value_c", "count"), ("value_c", "sum")]
        )
        return pa.table(
            {
                "event_type": agg["event_type"],
                "window_id": agg["window_id"],
                "n": agg["value_c_count"].cast(pa.int64()),
                "sum_value_c": agg["value_c_sum"].cast(pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    return ds.map_batches(bucket, batch_format="pyarrow").groupby(
        ["event_type", "window_id"]
    ).aggregate(Sum("n", alias_name="n"), Sum("sum_value_c", alias_name="sum_value_c"))


Q_EVENTS_WINDOW_SQL = """
    SELECT event_type,
           epoch_us(ts) // 3600000000 AS window_id,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_c
    FROM events GROUP BY event_type, window_id
"""


def q_sliding_window(sf_dir: str):
    """SLIDING 2-hour window, 1-hour hop, per event_type: each event
    fans out to exactly len/hop = 2 window replicas in the partial
    (window_id = hop bucket of the window START), then the same
    pre-aggregated two-key groupby as the tumbling case — the overlap
    multiplies the partial rows by len/hop, never the exchanged data
    volume beyond that constant."""
    from ray.data.aggregate import Sum

    HOP = 3_600_000_000
    NSUB = 2  # window length = NSUB * HOP

    def bucket(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        hop_id = ts // HOP
        n = len(ts)
        # event in hop-bucket b belongs to windows starting at b-1 and b
        win = np.concatenate([hop_id - 1, hop_id])
        etype = pa.concat_arrays(
            [batch["event_type"].combine_chunks()] * NSUB
        )
        val = np.tile(_cents(batch["value"].to_numpy()), NSUB)
        t = pa.table(
            {
                "event_type": etype,
                "window_id": pa.array(win, pa.int64()),
                "value_c": pa.array(val, pa.int64()),
            }
        )
        agg = pa.TableGroupBy(t, ["event_type", "window_id"]).aggregate(
            [("value_c", "count"), ("value_c", "sum")]
        )
        return pa.table(
            {
                "event_type": agg["event_type"],
                "window_id": agg["window_id"],
                "n": agg["value_c_count"].cast(pa.int64()),
                "sum_value_c": agg["value_c_sum"].cast(pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    return (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "window_id"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_value_c", alias_name="sum_value_c"))
    )


Q_SLIDING_WINDOW_SQL = """
    WITH f AS (
      SELECT event_type,
             unnest([epoch_us(ts) // 3600000000 - 1,
                     epoch_us(ts) // 3600000000]) AS window_id,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
      FROM events
    )
    SELECT event_type, window_id,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(value_c) AS BIGINT) AS sum_value_c
    FROM f GROUP BY event_type, window_id
"""


def q_sessions(sf_dir: str):
    """Gap-based sessionization (30-min inactivity timeout) per user —
    the streaming-window op the reference lacks.  Users are co-located
    by hash BUCKET (64 buckets, not one Python group call per user —
    user cardinality is ~rows at 100 TB, the per-key anti-pattern);
    the per-bucket kernel sessionizes EVERY user in one lexsort pass:
    a session starts at a user change or a >30-min gap, so one cumsum
    labels all sessions and reduceat-style masks pull the bounds."""
    GAP_US = 30 * 60 * 1_000_000

    def sessionize_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        ts = group["t"].to_numpy()
        order = np.lexsort((ts, u))
        u, ts = u[order], ts[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap = np.concatenate(([True], (ts[1:] - ts[:-1]) > GAP_US))
        start = new_user | gap
        sidx = np.cumsum(start) - 1
        counts = np.bincount(sidx)
        ends = np.flatnonzero(np.concatenate((start[1:], [True])))
        return pa.table(
            {
                "user_id": pa.array(u[start], pa.int64()),
                "session_start_us": pa.array(ts[start], pa.int64()),
                "session_end_us": pa.array(ts[ends], pa.int64()),
                "n_events": pa.array(counts.astype(np.int64)),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "t"]), "user_id", sessionize_bucket)


Q_SESSIONS_SQL = """
    WITH e AS (
      SELECT user_id, epoch_us(ts) AS t,
             CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                    OVER (PARTITION BY user_id ORDER BY epoch_us(ts))
                  > 1800000000 OR lag(epoch_us(ts))
                    OVER (PARTITION BY user_id ORDER BY epoch_us(ts)) IS NULL
             THEN 1 ELSE 0 END AS is_start
      FROM events
    ),
    s AS (
      SELECT user_id, t,
             SUM(is_start) OVER (PARTITION BY user_id ORDER BY t
                                 ROWS UNBOUNDED PRECEDING) AS session_no
      FROM e
    )
    SELECT user_id,
           CAST(MIN(t) AS BIGINT) AS session_start_us,
           CAST(MAX(t) AS BIGINT) AS session_end_us,
           CAST(COUNT(*) AS BIGINT) AS n_events
    FROM s GROUP BY user_id, session_no
"""


def q_transitions(sf_dir: str):
    """Markov transition matrix: counts of consecutive event-type
    pairs within each user's (ts, event_id)-ordered stream — the
    behavioral-model / next-event-prediction statistic.  Users are
    co-located by hash bucket; ONE lexsort per bucket pairs every
    consecutive row (segment boundaries masked out), a block-local
    pa.TableGroupBy pre-counts the ≤ |types|² pairs, and a tiny
    Sum-shuffle finishes."""
    from ray.data.aggregate import Sum

    def pairs(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        ts = group["t"].to_numpy()
        eid = group["event_id"].to_numpy()
        types = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u, types = u[order], types[order]
        same_user = u[1:] == u[:-1]
        t = pa.table(
            {
                "from_type": pa.array(types[:-1][same_user], pa.string()),
                "to_type": pa.array(types[1:][same_user], pa.string()),
            }
        )
        agg = pa.TableGroupBy(t, ["from_type", "to_type"]).aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns(["from_type", "to_type", "n"])

    events = _events(sf_dir, ["user_id", "t", "event_id", "event_type"])
    return (
        hash_exchange(events, "user_id", pairs)
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n"))
    )


Q_TRANSITIONS_SQL = """
    WITH s AS (
      SELECT user_id, event_type,
             LAG(event_type) OVER (PARTITION BY user_id
                                   ORDER BY epoch_us(ts), event_id) AS prev_type
      FROM events
    )
    SELECT prev_type AS from_type, event_type AS to_type,
           CAST(COUNT(*) AS BIGINT) AS n
    FROM s WHERE prev_type IS NOT NULL
    GROUP BY 1, 2
"""


def q_funnel(sf_dir: str):
    """Ordered-sequence funnel: users who did view → click → purchase
    in timestamp order, with the stage reached (1–3) — the conversion
    query every product-analytics pipeline runs.  One user-hash
    BUCKETED exchange co-locates events; the per-bucket kernel walks the sorted
    sequence greedily (earliest next-stage event at a strictly later
    (ts, event_id)) — greedy-earliest is optimal for subsequence
    matching, and event_id uniqueness makes the walk deterministic."""
    STAGES = ("view", "click", "purchase")
    _INF = np.iinfo(np.int64).max

    def funnel_bucket(group: pa.Table) -> pa.Table:
        # every user in the bucket walked at once: sort (user, ts, id);
        # r1 = first view index per user segment, r2 = first click
        # index AFTER r1, r3 = first purchase after r2 — each a masked
        # minimum.reduceat, no per-user Python.  Greedy-earliest is
        # optimal for subsequence matching.
        u = group["user_id"].to_numpy()
        ts = group["t"].to_numpy()
        eid = group["event_id"].to_numpy()
        types = group["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, u))
        u, types = u[order], types[order]
        seg = np.concatenate(([True], u[1:] != u[:-1]))
        seg_pos = np.flatnonzero(seg)
        seg_id = np.cumsum(seg) - 1
        idx = np.arange(len(u), dtype=np.int64)
        prev = np.full(len(seg_pos), -1, dtype=np.int64)  # r0: before start
        stage = np.zeros(len(seg_pos), dtype=np.int64)
        for s_i, name in enumerate(STAGES):
            cand = np.where((types == name) & (idx > prev[seg_id]), idx, _INF)
            r = np.minimum.reduceat(cand, seg_pos)
            hit = r < _INF
            stage += hit.astype(np.int64) * (stage == s_i)
            prev = np.where(hit & (stage > s_i), r, _INF)
        return pa.table(
            {
                "user_id": pa.array(u[seg_pos], pa.int64()),
                "stage": pa.array(stage),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "t", "event_id", "event_type"]), "user_id", funnel_bucket)


Q_FUNNEL_SQL = """
    WITH e AS (
      SELECT user_id, event_type,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY epoch_us(ts), event_id) AS rn
      FROM events
    ),
    v AS (SELECT user_id, MIN(rn) AS r1 FROM e
          WHERE event_type = 'view' GROUP BY user_id),
    c AS (SELECT e.user_id, MIN(rn) AS r2 FROM e JOIN v USING (user_id)
          WHERE event_type = 'click' AND rn > r1 GROUP BY e.user_id),
    p AS (SELECT e.user_id, MIN(rn) AS r3 FROM e JOIN c USING (user_id)
          WHERE event_type = 'purchase' AND rn > r2 GROUP BY e.user_id)
    SELECT u.user_id,
           CAST(CASE WHEN p.user_id IS NOT NULL THEN 3
                     WHEN c.user_id IS NOT NULL THEN 2
                     WHEN v.user_id IS NOT NULL THEN 1
                     ELSE 0 END AS BIGINT) AS stage
    FROM (SELECT DISTINCT user_id FROM events) u
    LEFT JOIN v ON v.user_id = u.user_id
    LEFT JOIN c ON c.user_id = u.user_id
    LEFT JOIN p ON p.user_id = u.user_id
"""


def q_user_journey(sf_dir: str):
    """Ordered per-key string aggregation (collect_list → join): each
    user's event-type sequence in (ts, event_id) order — the session
    replay / journey feature.  Users are co-located by hash BUCKET
    (not one Python group call per user); the per-bucket kernel
    lexsorts once, slices every user's run into a ListArray straight
    from the segment offsets, and joins with the vectorized Arrow
    binary_join kernel.  event_id is unique, so the order — and the
    hash — cannot depend on block boundaries."""

    def journey_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        ts = group["t"].to_numpy()
        eid = group["event_id"].to_numpy()
        order = np.lexsort((eid, ts, u))
        u = u[order]
        et = group["event_type"].combine_chunks() if isinstance(
            group["event_type"], pa.ChunkedArray
        ) else group["event_type"]
        types_sorted = et.take(pa.array(order))
        seg_pos = np.flatnonzero(np.concatenate(([True], u[1:] != u[:-1])))
        offsets = np.concatenate((seg_pos, [len(u)])).astype(np.int32)
        runs = pa.ListArray.from_arrays(pa.array(offsets), types_sorted)
        return pa.table(
            {
                "user_id": pa.array(u[seg_pos], pa.int64()),
                "journey": pc.binary_join(runs, ","),
                "n_events": pa.array(np.diff(offsets).astype(np.int64)),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "t", "event_id", "event_type"]), "user_id", journey_bucket)


Q_USER_JOURNEY_SQL = """
    SELECT user_id,
           string_agg(event_type, ',' ORDER BY epoch_us(ts), event_id) AS journey,
           CAST(COUNT(*) AS BIGINT) AS n_events
    FROM events GROUP BY user_id
"""


def q_latest_by_key(sf_dir: str):
    """Log compaction / SCD upsert: the newest event per user — the
    operator that turns an append-only CDC log into current state.
    Per-batch combiner reduces every block to ≤ one row per user
    BEFORE the single groupby(user_id) exchange (vectorized lexsort,
    no per-row Python), so the shuffle moves ≤ one row per (block,
    key) regardless of log length.  Winner = lexicographic max of
    (ts_us, event_id); event_id is unique, so the result cannot
    depend on block boundaries."""
    from ...stages.compact import latest_by_key

    def prep(b: pa.Table) -> pa.Table:
        ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table(
            {
                "user_id": b["user_id"],
                "ts_us": pa.array(ts, pa.int64()),
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "value_c": pa.array(_cents(b["value"].to_numpy())),
            }
        )

    ds = _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"]
    ).map_batches(prep, batch_format="pyarrow")
    return latest_by_key(ds, "user_id", ("ts_us", "event_id"))


Q_LATEST_BY_KEY_SQL = """
    SELECT user_id, epoch_us(ts) AS ts_us, event_id, event_type,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
    FROM events
    QUALIFY ROW_NUMBER() OVER (
        PARTITION BY user_id
        ORDER BY epoch_us(ts) DESC, event_id DESC) = 1
"""


def q_interval_union(sf_dir: str):
    """Interval union / coverage per key: each event opens a 10-minute
    interval; overlaps merge (gaps-and-islands) and the result is the
    island count and total covered microseconds per user.  Users are
    co-located by hash BUCKET (not one Python group call per user —
    user cardinality is ~rows at scale); because every interval has
    the SAME length, island starts are exactly user changes or
    start-gaps > IVL, so ONE lexsort pass handles every user in the
    bucket and reduceat folds the per-user outputs.  Integer-us
    arithmetic keeps it hash-exact."""
    IVL_US = 600_000_000  # 10-minute interval per event

    def union_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        s = group["t"].to_numpy()
        order = np.lexsort((s, u))
        u, s = u[order], s[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        start = new_user | np.concatenate(([True], (s[1:] - s[:-1]) > IVL_US))
        ends = np.flatnonzero(np.concatenate((start[1:], [True])))
        covered = (s[ends] + IVL_US) - s[start]
        iu = u[start]
        ustart = np.concatenate(([True], iu[1:] != iu[:-1]))
        upos = np.flatnonzero(ustart)
        return pa.table(
            {
                "user_id": pa.array(iu[upos], pa.int64()),
                "n_intervals": pa.array(
                    np.add.reduceat(np.ones(len(iu), dtype=np.int64), upos)
                ),
                "covered_us": pa.array(np.add.reduceat(covered, upos)),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "t"]), "user_id", union_bucket)


Q_INTERVAL_UNION_SQL = """
    WITH iv AS (
      SELECT user_id, epoch_us(ts) AS s, epoch_us(ts) + 600000000 AS e
      FROM events
    ),
    ord AS (
      SELECT user_id, s, e,
             MAX(e) OVER (PARTITION BY user_id ORDER BY s, e
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
               AS prev_max
      FROM iv
    ),
    isl AS (
      SELECT user_id, s, e,
             SUM(CASE WHEN prev_max IS NULL OR s > prev_max THEN 1 ELSE 0 END)
               OVER (PARTITION BY user_id ORDER BY s, e
                     ROWS UNBOUNDED PRECEDING) AS island
      FROM ord
    ),
    g AS (
      SELECT user_id, island, MIN(s) AS s0, MAX(e) AS e1
      FROM isl GROUP BY user_id, island
    )
    SELECT user_id,
           CAST(COUNT(*) AS BIGINT) AS n_intervals,
           CAST(SUM(e1 - s0) AS BIGINT) AS covered_us
    FROM g GROUP BY user_id
"""


def q_retention(sf_dir: str):
    """Cohort retention: users grouped by first-activity week, counted
    as retained in each later week they act — the (cohort, offset)
    matrix every growth dashboard is built on.  Plan: block-local
    distinct (user, week) pairs, ONE user-BUCKETED shuffle (not one
    Python group call per user) whose kernel dedupes and derives
    every user's cohort + offsets in a single lexsort pass, then a
    small (cohort, offset) count (pairs are already distinct)."""
    from ray.data.aggregate import Sum

    WEEK_US = 7 * 24 * 3600 * 1_000_000

    def weeks(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "user_id": b["user_id"],
                "week": pa.array(b["t"].to_numpy() // WEEK_US, pa.int64()),
            }
        )
        # block-local distinct (user, week) pairs
        return pa.TableGroupBy(t, ["user_id", "week"]).aggregate([])

    def cohort_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        w = group["week"].to_numpy()
        order = np.lexsort((w, u))
        u, w = u[order], w[order]
        # global dedupe of (user, week) — block-local distincts overlap
        keep = np.concatenate(([True], (u[1:] != u[:-1]) | (w[1:] != w[:-1])))
        u, w = u[keep], w[keep]
        seg = np.concatenate(([True], u[1:] != u[:-1]))
        cohort = w[np.flatnonzero(seg)][np.cumsum(seg) - 1]
        return pa.table(
            {
                "cohort_week": pa.array(cohort, pa.int64()),
                "offset_w": pa.array(w - cohort, pa.int64()),
            }
        )

    weekly = _events(sf_dir, ["user_id", "t"]).map_batches(weeks, batch_format="pyarrow")
    pairs = hash_exchange(weekly, "user_id", cohort_bucket)

    def count_partial(b: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(b, ["cohort_week", "offset_w"]).aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns(["cohort_week", "offset_w", "n_users"])

    return (
        pairs.map_batches(count_partial, batch_format="pyarrow")
        .groupby(["cohort_week", "offset_w"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


Q_RETENTION_SQL = """
    WITH a AS (
      SELECT DISTINCT user_id, epoch_us(ts) // 604800000000 AS week
      FROM events
    ),
    c AS (SELECT user_id, MIN(week) AS cohort_week FROM a GROUP BY user_id)
    SELECT c.cohort_week, a.week - c.cohort_week AS offset_w,
           CAST(COUNT(*) AS BIGINT) AS n_users
    FROM a JOIN c USING (user_id)
    GROUP BY 1, 2
"""


def q_running_total(sf_dir: str):
    """Cumulative per-key window: running spend per user ordered by
    (ts, event_id) — SUM OVER ROWS UNBOUNDED PRECEDING, the classic
    ordered window op the reference lacks.  user_id cardinality is
    ~rows at 100 TB, so the kernel is user-hash BUCKETED (64 buckets,
    the sessionize shape): one lexsort per bucket orders EVERY user's
    history at once and a segment-rebased cumsum (cumsum minus each
    segment's starting offset) computes all running totals in one
    vectorized pass — never one Python group call per user."""

    def running_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        t = group["t"].to_numpy()
        eid = group["event_id"].to_numpy()
        v = group["value_c"].to_numpy()
        order = np.lexsort((eid, t, u))
        u, eid, v = u[order], eid[order], v[order]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        cs = np.cumsum(v)
        seg = np.cumsum(new_user) - 1
        base = (cs - v)[new_user]  # running sum before each segment
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "event_id": pa.array(eid, pa.int64()),
                "running_c": pa.array(cs - base[seg], pa.int64()),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "event_id", "t", "value_c"]), "user_id", running_bucket)


Q_RUNNING_TOTAL_SQL = """
    SELECT user_id, event_id,
           CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_c
    FROM events
"""


def q_event_gaps(sf_dir: str):
    """LAG window: per-user inter-event gap in microseconds (first
    event: −1 sentinel) and the previous event's id.  Same bucketed
    shape as running_total — user-hash buckets, ONE lexsort per bucket
    over every user's history, vectorized shift with the user-boundary
    rows masked to the sentinel.  No per-distinct-user Python call."""

    def gaps_bucket(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        t = group["t"].to_numpy()
        eid = group["event_id"].to_numpy()
        order = np.lexsort((eid, t, u))
        u, t, eid = u[order], t[order], eid[order]
        n = len(t)
        gap = np.empty(n, dtype=np.int64)
        prev = np.empty(n, dtype=np.int64)
        gap[0], prev[0] = -1, -1
        gap[1:] = t[1:] - t[:-1]
        prev[1:] = eid[:-1]
        new_user = np.concatenate(([True], u[1:] != u[:-1]))
        gap[new_user] = -1
        prev[new_user] = -1
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "event_id": pa.array(eid, pa.int64()),
                "prev_event_id": pa.array(prev, pa.int64()),
                "gap_us": pa.array(gap, pa.int64()),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "event_id", "t"]), "user_id", gaps_bucket)


Q_EVENT_GAPS_SQL = """
    SELECT user_id, event_id,
           CAST(COALESCE(LAG(event_id) OVER w, -1) AS BIGINT) AS prev_event_id,
           CAST(COALESCE(
                epoch_us(ts) - LAG(epoch_us(ts)) OVER w, -1) AS BIGINT) AS gap_us
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
"""


def q_cum_distinct(sf_dir: str):
    """Cumulative-distinct window: per event, how many DISTINCT event
    types its user has produced up to and including it (ordered ts,
    event_id).  The rows-cardinality user key is hash-BUCKETED; the
    per-bucket kernel makes two vectorized passes — one lexsort on
    (user, type, ts, id) marks first-seen rows, a second lexsort on
    (user, ts, id) turns the marks into a segment-rebased cumsum.  No
    per-distinct-user Python call (CLAUDE.md scale rule)."""

    def cumdist(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        t = group["t"].to_numpy()
        eid = group["event_id"].to_numpy()
        code = group["event_type"].dictionary_encode().combine_chunks().indices.to_numpy()
        # pass 1: first occurrence of each (user, type) in (ts, id) order
        o1 = np.lexsort((eid, t, code, u))
        u1, c1 = u[o1], code[o1]
        first_sorted = np.concatenate(
            ([True], (u1[1:] != u1[:-1]) | (c1[1:] != c1[:-1]))
        )
        first = np.empty(len(u), dtype=np.int64)
        first[o1] = first_sorted
        # pass 2: running sum of first-seen flags per user history
        o2 = np.lexsort((eid, t, u))
        u2, f2 = u[o2], first[o2]
        new_user = np.concatenate(([True], u2[1:] != u2[:-1]))
        cs = np.cumsum(f2)
        seg = np.cumsum(new_user) - 1
        base = (cs - f2)[new_user]
        return pa.table(
            {
                "user_id": pa.array(u2, pa.int64()),
                "event_id": pa.array(eid[o2], pa.int64()),
                "n_types": pa.array(cs - base[seg], pa.int64()),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "event_id", "t", "event_type"]), "user_id", cumdist)


Q_CUM_DISTINCT_SQL = """
    WITH r AS (
      SELECT user_id, event_id, ts,
             CASE WHEN ROW_NUMBER() OVER (
                    PARTITION BY user_id, event_type ORDER BY ts, event_id) = 1
                  THEN 1 ELSE 0 END AS first_seen
      FROM events
    )
    SELECT user_id, event_id,
           CAST(SUM(first_seen) OVER (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS UNBOUNDED PRECEDING) AS BIGINT) AS n_types
    FROM r
"""


def q_gap_fill(sf_dir: str):
    """Time-series densification / gap filling: one row per (user,
    hour) over each user's active span, zeros where the log is silent
    — the resample step before windowed feature extraction.  Users
    are rows-cardinality, so the kernel is user-hash BUCKETED; inside
    a bucket the fill is ONE vectorized pass: per-user span extents
    via reduceat, repeat/arange row synthesis, scatter-add of the
    observed counts (no per-user Python, no row loop)."""
    US_PER_HOUR = 3_600_000_000

    def fill(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        h = group["t"].to_numpy() // US_PER_HOUR
        order = np.lexsort((h, u))
        u, h = u[order], h[order]
        new_u = np.concatenate(([True], u[1:] != u[:-1]))
        starts = np.flatnonzero(new_u)
        ends = np.concatenate((starts[1:], [len(u)]))
        hmin = h[starts]
        hmax = h[ends - 1]  # h sorted within user
        spans = hmax - hmin + 1
        offsets = np.concatenate(([0], np.cumsum(spans)[:-1]))
        total = int(spans.sum())
        seg = np.repeat(np.arange(len(starts)), spans)
        out_u = u[starts][seg]
        out_h = hmin[seg] + (np.arange(total) - offsets[seg])
        # scatter-add observed events into their synthesized slot
        ev_seg = np.cumsum(new_u) - 1
        pos = offsets[ev_seg] + (h - hmin[ev_seg])
        n = np.zeros(total, dtype=np.int64)
        np.add.at(n, pos, 1)
        return pa.table(
            {
                "user_id": pa.array(out_u, pa.int64()),
                "hour": pa.array(out_h, pa.int64()),
                "n": pa.array(n),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "t"]), "user_id", fill)


Q_GAP_FILL_SQL = """
    WITH e AS (
      SELECT user_id, epoch_us(ts) // 3600000000 AS hour FROM events
    ),
    span AS (
      SELECT user_id, MIN(hour) AS h0, MAX(hour) AS h1 FROM e GROUP BY user_id
    ),
    grid AS (
      SELECT user_id, unnest(range(h0, h1 + 1)) AS hour FROM span
    ),
    cnt AS (
      SELECT user_id, hour, CAST(COUNT(*) AS BIGINT) AS n FROM e GROUP BY 1, 2
    )
    SELECT g.user_id, CAST(g.hour AS BIGINT) AS hour,
           CAST(COALESCE(c.n, 0) AS BIGINT) AS n
    FROM grid g LEFT JOIN cnt c ON c.user_id = g.user_id AND c.hour = g.hour
"""


def q_period_over_period(sf_dir: str):
    """Period-over-period analytics: weekly order revenue per priority
    with the previous week's value and the delta (the WoW dashboard
    op).  The heavy pass is one partial-aggregated Sum exchange
    (≤ priorities×weeks rows); the LAG runs per priority group — 5
    groups, each one vectorized sort+shift (key cardinality is the
    ENUM, not rows, so groupby is the right tool here)."""
    from ray.data.aggregate import Sum

    US_PER_WEEK = 7 * 24 * 3_600_000_000

    def partial(b: pa.Table) -> pa.Table:
        ts = b["o_orderdate"].to_numpy().astype("datetime64[us]").astype(np.int64)
        t = pa.table(
            {
                "o_orderpriority": b["o_orderpriority"],
                "week": pa.array(ts // US_PER_WEEK, pa.int64()),
                "rev_c": pa.array(_cents(b["o_totalprice"].to_numpy())),
            }
        )
        agg = pa.TableGroupBy(t, ["o_orderpriority", "week"]).aggregate(
            [("rev_c", "sum")]
        )
        return agg.rename_columns(["o_orderpriority", "week", "rev_c"])

    def lag(group: pa.Table) -> pa.Table:
        w = group["week"].to_numpy()
        r = group["rev_c"].to_numpy()
        order = np.argsort(w)
        w, r = w[order], r[order]
        prev = np.empty_like(r)
        prev[0] = -1
        prev[1:] = r[:-1]
        # LAG over observed weeks (not the dense calendar): -1 sentinel
        return pa.table(
            {
                "o_orderpriority": group["o_orderpriority"].take(
                    pa.array(order.astype(np.int64))
                ),
                "week": pa.array(w, pa.int64()),
                "rev_c": pa.array(r, pa.int64()),
                "prev_rev_c": pa.array(prev, pa.int64()),
            }
        )

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["o_orderpriority", "week"])
        .aggregate(Sum("rev_c", alias_name="rev_c"))
        .groupby("o_orderpriority")
        .map_groups(lag, batch_format="pyarrow")
    )


Q_PERIOD_OVER_PERIOD_SQL = """
    WITH w AS (
      SELECT o_orderpriority,
             epoch_us(o_orderdate) // 604800000000 AS week,
             CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS rev_c
      FROM orders GROUP BY 1, 2
    )
    SELECT o_orderpriority, CAST(week AS BIGINT) AS week, rev_c,
           CAST(COALESCE(LAG(rev_c) OVER (
                PARTITION BY o_orderpriority ORDER BY week), -1) AS BIGINT) AS prev_rev_c
    FROM w
"""


def q_late_events(sf_dir: str):
    """Event-time lateness profile (the watermark diagnosis of a
    streaming ingest): per user, events are replayed in ARRIVAL order
    (event_id); lateness = running max of event time minus this
    event's time.  One bucketed lexsort + segment-rebased cummax per
    user bucket (the running_total shape with maximum.accumulate);
    output per user: late-event count and max lateness µs."""

    def lateness(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        eid = group["event_id"].to_numpy()
        t = group["t"].to_numpy()
        order = np.lexsort((eid, u))
        u, t = u[order], t[order]
        new_u = np.concatenate(([True], u[1:] != u[:-1]))
        # segment-rebased running max: lift each user's segment onto
        # its own disjoint band so one global maximum.accumulate can't
        # carry a previous user's watermark across the boundary
        seg = np.cumsum(new_u) - 1
        BIG = np.int64(1) << np.int64(50)
        lifted = t + seg * BIG
        run = np.maximum.accumulate(lifted) - seg * BIG
        late = run - t
        n_late = np.zeros(len(t), dtype=np.int64)
        n_late[late > 0] = 1
        starts = np.flatnonzero(new_u)
        tot_late = np.add.reduceat(n_late, starts)
        max_late = np.maximum.reduceat(late, starts)
        return pa.table(
            {
                "user_id": pa.array(u[starts], pa.int64()),
                "n_late": pa.array(tot_late),
                "max_late_us": pa.array(max_late.astype(np.int64)),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "event_id", "t"]), "user_id", lateness)


Q_LATE_EVENTS_SQL = """
    WITH r AS (
      SELECT user_id,
             MAX(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY event_id
                                     ROWS UNBOUNDED PRECEDING)
             - epoch_us(ts) AS late
      FROM events
    )
    SELECT user_id,
           CAST(SUM(CASE WHEN late > 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
           CAST(MAX(late) AS BIGINT) AS max_late_us
    FROM r GROUP BY user_id
"""


def q_cdc_state(sf_dir: str):
    """CDC / MERGE-with-tombstones: replay the append-only event log
    into current per-user state — the newest event wins (lexmax of
    (ts, event_id) via the bucketed compaction kernel), and a newest
    event of type 'error' is a TOMBSTONE that deletes the key (the
    Delta/Hudi MERGE semantic).  One bucketed exchange; the delete
    filter runs on the ≤1-row-per-key result, never the log."""
    from ...stages.compact import latest_by_key

    def prep(b: pa.Table) -> pa.Table:
        ts = b["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        return pa.table(
            {
                "user_id": b["user_id"],
                "ts_us": pa.array(ts, pa.int64()),
                "event_id": b["event_id"],
                "event_type": b["event_type"],
                "value_c": pa.array(_cents(b["value"].to_numpy()), pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type", "value"])
    latest = latest_by_key(
        ds.map_batches(prep, batch_format="pyarrow"),
        "user_id",
        ("ts_us", "event_id"),
    )

    def drop_tombstones(b: pa.Table) -> pa.Table:
        keep = pc.not_equal(b["event_type"], "error")
        return b.filter(keep).select(["user_id", "ts_us", "event_id", "value_c"])

    return latest.map_batches(drop_tombstones, batch_format="pyarrow")


Q_CDC_STATE_SQL = """
    SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us, event_id,
           CAST(floor(value * 100 + 0.5) AS BIGINT) AS value_c
    FROM events
    QUALIFY ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY ts DESC, event_id DESC) = 1
    AND event_type <> 'error'
"""


MOVING_K = 4  # window = this row + 3 preceding


def q_moving_window(sf_dir: str):
    """Bounded moving window (ROWS 3 PRECEDING): per event, the sum of
    the user's last 4 event values in (ts, event_id) order — the
    moving-aggregate feature extractor.  Same bucketed shape as
    running_total; the bounded window is one extra vectorized gather:
    m[i] = cumsum[i] − cumsum[j−1] with j = max(segment start, i−3)."""

    def moving(group: pa.Table) -> pa.Table:
        u = group["user_id"].to_numpy()
        t = group["t"].to_numpy()
        eid = group["event_id"].to_numpy()
        v = group["value_c"].to_numpy()
        order = np.lexsort((eid, t, u))
        u, eid, v = u[order], eid[order], v[order]
        new_u = np.concatenate(([True], u[1:] != u[:-1]))
        seg = np.cumsum(new_u) - 1
        starts = np.flatnonzero(new_u)
        cs = np.cumsum(v)
        idx = np.arange(len(v))
        j = np.maximum(starts[seg], idx - (MOVING_K - 1))
        # exclusive prefix at j: cs[j-1], with segment-start handled by
        # subtracting the value sum BEFORE the segment
        prev = np.where(j > 0, cs[np.maximum(j - 1, 0)], 0)
        ms = cs - prev
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "event_id": pa.array(eid, pa.int64()),
                "moving_c": pa.array(ms.astype(np.int64)),
            }
        )

    return hash_exchange(_events(sf_dir, ["user_id", "event_id", "t", "value_c"]), "user_id", moving)


Q_MOVING_WINDOW_SQL = f"""
    SELECT user_id, event_id,
           CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER (
                PARTITION BY user_id ORDER BY ts, event_id
                ROWS {MOVING_K - 1} PRECEDING) AS BIGINT) AS moving_c
    FROM events
"""


QUERIES = {
    "events_window": Query(q_events_window, Q_EVENTS_WINDOW_SQL),
    "sliding_window": Query(q_sliding_window, Q_SLIDING_WINDOW_SQL),
    "sessions": Query(q_sessions, Q_SESSIONS_SQL),
    "interval_union": Query(q_interval_union, Q_INTERVAL_UNION_SQL),
    "latest_by_key": Query(q_latest_by_key, Q_LATEST_BY_KEY_SQL),
    "user_journey": Query(q_user_journey, Q_USER_JOURNEY_SQL),
    "funnel": Query(q_funnel, Q_FUNNEL_SQL),
    "transitions": Query(q_transitions, Q_TRANSITIONS_SQL),
    "retention": Query(q_retention, Q_RETENTION_SQL),
    "running_total": Query(q_running_total, Q_RUNNING_TOTAL_SQL),
    "event_gaps": Query(q_event_gaps, Q_EVENT_GAPS_SQL),
    "cum_distinct": Query(q_cum_distinct, Q_CUM_DISTINCT_SQL),
    "gap_fill": Query(q_gap_fill, Q_GAP_FILL_SQL),
    "period_over_period": Query(q_period_over_period, Q_PERIOD_OVER_PERIOD_SQL),
    "late_events": Query(q_late_events, Q_LATE_EVENTS_SQL),
    "cdc_state": Query(q_cdc_state, Q_CDC_STATE_SQL),
    "moving_window": Query(q_moving_window, Q_MOVING_WINDOW_SQL),
}
