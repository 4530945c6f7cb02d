"""Graph queries: pagerank, BFS, triangles, degree histogram."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ...stages.exchange import hash_exchange
from ._shared import Query, _dedup_edge_union, _read, triu_pairs_in_runs


PR_BASE = 150_000  # (1-d)·10^6 with d=0.85, in integer micro-units
PR_ROUNDS = 2


def _sym_edges(sf_dir: str):
    """The symmetric similarity graph as (src, dst): the consecutive-doc
    chains of dedup_components (both relations), deduped by packed pair
    key as the SQL mirrors' UNION does, then emitted both ways."""

    def pack(b: pa.Table) -> pa.Table:
        key = (b["doc_a"].to_numpy().astype(np.uint64) << np.uint64(32)) | b[
            "doc_b"
        ].to_numpy().astype(np.uint64)
        return pa.table({"edge_key": pa.array(key.view(np.int64))})

    def uniq_sym(group: pa.Table) -> pa.Table:
        key = np.unique(group["edge_key"].to_numpy()).view(np.uint64)
        a = (key >> np.uint64(32)).astype(np.int64)
        c = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pa.table(
            {
                "src": pa.array(np.concatenate((a, c))),
                "dst": pa.array(np.concatenate((c, a))),
            }
        )

    packed = _dedup_edge_union(sf_dir).map_batches(pack, batch_format="pyarrow")
    return hash_exchange(packed, "edge_key", uniq_sym).materialize()


def q_pagerank(sf_dir: str):
    """Integer PageRank (2 rounds, d=0.85) over the symmetric
    document-similarity graph — the iterative weighted-propagation
    primitive, made hash-exact by doing EVERYTHING in integer
    micro-units: score₀ = 10⁶, each round score(u) = 150000 +
    Σ_in floor(floor(score_v / deg_v) · 17 / 20).  Per round: one
    bucketed shuffle joins scores to out-edges, one node-bucketed
    exchange sums the contributions — the same exchange shape as
    connected_components, scores never touch the driver."""
    from ...stages.join import shuffle_hash_join

    # PageRank is multiplicity-sensitive (degrees!), so the edge set is
    # deduped before symmetrizing
    edges = _sym_edges(sf_dir)
    import ray.data as rd

    # per-round bucket/task count scales with the graph (see
    # connected_components): each bucket is a task per round
    nb = int(min(64, max(2, edges.count() // 65536)))
    edges = rd.from_arrow_refs(edges.repartition(nb).materialize().to_arrow_refs())

    def degrees(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "src", use_threads=False).aggregate([([], "count_all")])
        return agg.select(["src", "count_all"]).rename_columns(["src", "deg"])

    deg = hash_exchange(edges, "src", degrees, nb).materialize()

    i64 = pa.int64()
    scores = deg.map_batches(
        lambda b: pa.table(
            {"src": b["src"], "score": pa.array(np.full(b.num_rows, 1_000_000, dtype=np.int64))}
        ),
        batch_format="pyarrow",
    ).materialize()

    edge_schema = pa.schema([("src", i64), ("dst", i64)])
    sd_schema = pa.schema([("src", i64), ("score", i64), ("deg", i64)])

    for _ in range(PR_ROUNDS):
        sd = shuffle_hash_join(
            scores,
            deg,
            "src",
            ["score"],
            ["deg"],
            n_buckets=nb,
            left_schema=pa.schema([("src", i64), ("score", i64)]),
            right_schema=pa.schema([("src", i64), ("deg", i64)]),
        )
        flowed = shuffle_hash_join(
            rd.from_arrow_refs(edges.to_arrow_refs()),
            sd,
            "src",
            ["dst"],
            ["score", "deg"],
            n_buckets=nb,
            left_schema=edge_schema,
            right_schema=sd_schema,
        )

        def contrib(b: pa.Table) -> pa.Table:
            sc = b["score"].to_numpy()
            dg = b["deg"].to_numpy()
            c = ((sc // dg) * 17) // 20
            return pa.table({"node": b["dst"], "c": pa.array(c.astype(np.int64))})

        def fold(group: pa.Table) -> pa.Table:
            agg = pa.TableGroupBy(group, "node", use_threads=False).aggregate([("c", "sum")])
            return pa.table({"src": agg["node"], "score": pc.add(agg["c_sum"], PR_BASE)})

        contribs = flowed.map_batches(contrib, batch_format="pyarrow")
        scores = hash_exchange(contribs, "node", fold, nb).materialize()
        scores = rd.from_arrow_refs(scores.to_arrow_refs())

    return scores.map_batches(
        lambda b: pa.table({"doc_id": b["src"], "score": b["score"]}),
        batch_format="pyarrow",
    )


def _build_pagerank_sql() -> str:
    # two unrolled integer rounds over the same symmetric edge set the
    # components oracle derives
    return f"""
    WITH s AS (
      SELECT doc_id, lang, source, n_chars,
             len(string_split(text, ' ')) AS n_tokens
      FROM documents
    ),
    e1 AS (
      SELECT lag(doc_id) OVER (PARTITION BY lang, n_tokens ORDER BY doc_id) AS a,
             doc_id AS b
      FROM s
    ),
    e2 AS (
      SELECT lag(doc_id) OVER (PARTITION BY source, n_chars % 10 ORDER BY doc_id) AS a,
             doc_id AS b
      FROM s
    ),
    edges AS (
      SELECT a, b FROM e1 WHERE a IS NOT NULL
      UNION
      SELECT a, b FROM e2 WHERE a IS NOT NULL
    ),
    sym AS (SELECT a AS src, b AS dst FROM edges UNION ALL SELECT b, a FROM edges),
    deg AS (SELECT src, CAST(COUNT(*) AS BIGINT) AS deg FROM sym GROUP BY src),
    s0 AS (SELECT src, CAST(1000000 AS BIGINT) AS score FROM deg),
    s1 AS (
      SELECT sym.dst AS src,
             {PR_BASE} + CAST(SUM(((s0.score // deg.deg) * 17) // 20) AS BIGINT)
               AS score
      FROM sym JOIN s0 ON s0.src = sym.src JOIN deg ON deg.src = sym.src
      GROUP BY sym.dst
    ),
    s2 AS (
      SELECT sym.dst AS src,
             {PR_BASE} + CAST(SUM(((s1.score // deg.deg) * 17) // 20) AS BIGINT)
               AS score
      FROM sym JOIN s1 ON s1.src = sym.src JOIN deg ON deg.src = sym.src
      GROUP BY sym.dst
    )
    SELECT src AS doc_id, score FROM s2
"""


Q_PAGERANK_SQL = _build_pagerank_sql()


BFS_ROUNDS = 4


def q_bfs_depth(sf_dir: str):
    """Multi-source BFS: hop distance (≤ 4) from the seed set
    (doc_id % 50 == 0) over the deduped symmetric similarity graph —
    the blast-radius / influence-frontier primitive.  Min-plus label
    propagation with the components' exchange shape: per round, one
    bucketed join flows dist+1 along out-edges and one node-bucketed
    vectorized min folds; only reached nodes materialize.  Exact by
    construction (4 full rounds ≡ 4-hop closure) and mirrored by a
    depth-bounded recursive CTE."""
    import ray.data as rd

    from ...stages.join import shuffle_hash_join

    edges = _sym_edges(sf_dir)
    # per-round bucket/task count scales with the graph (as
    # connected_components does): every bucket is a task per round, so
    # a tiny graph at 64 buckets pays ~200 near-empty tasks per round
    nb = int(min(64, max(2, edges.count() // 65536)))
    edges = rd.from_arrow_refs(edges.repartition(nb).materialize().to_arrow_refs())

    def min_fold(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "src", use_threads=False).aggregate([("dist", "min")])
        return agg.select(["src", "dist_min"]).rename_columns(["src", "dist"])

    def seed_rows(b: pa.Table) -> pa.Table:
        s = np.unique(b["src"].to_numpy())
        s = s[s % 50 == 0]
        return pa.table(
            {
                "src": pa.array(s, pa.int64()),
                "dist": pa.array(np.zeros(len(s), dtype=np.int64)),
            }
        )

    seeds = edges.map_batches(seed_rows, batch_format="pyarrow")
    labels = hash_exchange(seeds, "src", min_fold, nb).materialize()
    labels = rd.from_arrow_refs(labels.to_arrow_refs())

    i64 = pa.int64()
    for _ in range(BFS_ROUNDS):
        flowed = shuffle_hash_join(
            rd.from_arrow_refs(edges.to_arrow_refs()),
            labels,
            "src",
            ["dst"],
            ["dist"],
            n_buckets=nb,
            left_schema=pa.schema([("src", i64), ("dst", i64)]),
            right_schema=pa.schema([("src", i64), ("dist", i64)]),
        ).map_batches(
            lambda b: pa.table(
                {
                    "src": b["dst"],
                    "dist": pa.array(
                        b["dist"].to_numpy(zero_copy_only=False) + 1, pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        labels = hash_exchange(labels.union(flowed), "src", min_fold, nb).materialize()
        labels = rd.from_arrow_refs(labels.to_arrow_refs())

    return labels.map_batches(
        lambda b: pa.table({"doc_id": b["src"], "dist": b["dist"]}),
        batch_format="pyarrow",
    )


Q_BFS_DEPTH_SQL = f"""
    WITH RECURSIVE s AS (
      SELECT doc_id, lang, source, n_chars,
             len(string_split(text, ' ')) AS n_tokens
      FROM documents
    ),
    e1 AS (
      SELECT lag(doc_id) OVER (PARTITION BY lang, n_tokens ORDER BY doc_id) AS a,
             doc_id AS b
      FROM s
    ),
    e2 AS (
      SELECT lag(doc_id) OVER (PARTITION BY source, n_chars % 10 ORDER BY doc_id) AS a,
             doc_id AS b
      FROM s
    ),
    edges AS (
      SELECT a, b FROM e1 WHERE a IS NOT NULL
      UNION
      SELECT a, b FROM e2 WHERE a IS NOT NULL
    ),
    sym AS (SELECT a AS src, b AS dst FROM edges UNION ALL SELECT b, a FROM edges),
    r(node, d) AS (
      SELECT DISTINCT src, 0 FROM sym WHERE src % 50 = 0
      UNION
      SELECT sym.dst, r.d + 1 FROM r JOIN sym ON sym.src = r.node
      WHERE r.d < {BFS_ROUNDS}
    )
    SELECT node AS doc_id, CAST(MIN(d) AS BIGINT) AS dist
    FROM r GROUP BY node
"""


def q_triangles(sf_dir: str):
    """Distributed triangle counting on the co-purchase graph (parts
    linked when bought in the same order) — the clustering-structure
    primitive of graph analytics.  Node-ordering orientation counts
    each triangle exactly once at its lowest vertex: edges orient
    low→high, hub-bucketed wedge fan-out emits (v, w) pairs of higher
    neighbors (one vectorized pass per neighbor offset), a broadcast
    BLOOM bitmap over the edge keys sheds the ~96% of wedges that
    cannot close BEFORE the exchange (per-bucket sentinel rows carry
    the true wedge totals, so the shed loses no information), and ONE
    tagged union + key-bucketed membership pass confirms closure
    exactly.  The raw edge list is never pulled to the driver — only
    the 2 MiB bitmap."""
    import ray
    from ray.data.aggregate import Sum

    from ...stages.join import bloom_might_contain, build_bloom

    _triu_pairs = triu_pairs_in_runs  # module-level shared kernel

    def order_edges(group: pa.Table) -> pa.Table:
        # distinct sorted parts per order → oriented edges (a < b)
        ok = group["l_orderkey"].to_numpy()
        pk = group["l_partkey"].to_numpy()
        order = np.lexsort((pk, ok))
        ok, pk = ok[order], pk[order]
        keep = np.concatenate(([True], (ok[1:] != ok[:-1]) | (pk[1:] != pk[:-1])))
        ok, pk = ok[keep], pk[keep]
        a, b = _triu_pairs(ok, pk)
        # dedupe edges within the bucket (same pair from many orders)
        key = (a.astype(np.uint64) << np.uint64(32)) | b.astype(np.uint64)
        return pa.table({"edge_key": pa.array(np.unique(key).view(np.int64))})

    # edge list, globally deduped by key bucket (an edge may surface
    # from orders in different buckets)
    items = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges = hash_exchange(
        hash_exchange(items, "l_orderkey", order_edges),
        "edge_key",
        lambda g: pa.table({"edge_key": pa.array(np.unique(g["edge_key"].to_numpy()))}),
    )

    def hub_rows(b: pa.Table) -> pa.Table:
        k = b["edge_key"].to_numpy().view(np.uint64)
        return pa.table(
            {
                "hub": pa.array((k >> np.uint64(32)).astype(np.int64)),
                "nbr": pa.array((k & np.uint64(0xFFFFFFFF)).astype(np.int64)),
            }
        )

    bloom_ref = ray.put(build_bloom(edges, "edge_key", n_bits=1 << 24))

    def wedges(group: pa.Table) -> pa.Table:
        hub = group["hub"].to_numpy()
        nbr = group["nbr"].to_numpy()
        order = np.lexsort((nbr, hub))
        v, w = _triu_pairs(hub[order], nbr[order])
        key = (v.astype(np.uint64) << np.uint64(32)) | w.astype(np.uint64)
        key, cnt = np.unique(key, return_counts=True)
        total = int(cnt.sum())
        # shed definite non-edges before the exchange; the sentinel
        # row (edge_key = -1, never a packed key) carries the bucket's
        # TRUE wedge total so the shed loses no information
        keep = bloom_might_contain(ray.get(bloom_ref), key)
        key, cnt = key[keep], cnt[keep]
        n = len(key)
        return pa.table(
            {
                "edge_key": pa.array(
                    np.concatenate((key.view(np.int64), [-1]))
                ),
                "n_wedge": pa.array(
                    np.concatenate((cnt.astype(np.int64), [0]))
                ),
                "is_edge": pa.array(np.zeros(n + 1, dtype=np.int64)),
                "wedge_total": pa.array(
                    np.concatenate((np.zeros(n, dtype=np.int64), [total]))
                ),
            }
        )

    wedge_ds = hash_exchange(edges.map_batches(hub_rows, batch_format="pyarrow"), "hub", wedges)

    def edge_side(b: pa.Table) -> pa.Table:
        n = b.num_rows
        return pa.table(
            {
                "edge_key": b["edge_key"],
                "n_wedge": pa.array(np.zeros(n, dtype=np.int64)),
                "is_edge": pa.array(np.ones(n, dtype=np.int64)),
                "wedge_total": pa.array(np.zeros(n, dtype=np.int64)),
            }
        )

    def close_count(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "edge_key", use_threads=False).aggregate(
            [("n_wedge", "sum"), ("is_edge", "max")]
        )
        wedge_n = agg["n_wedge_sum"].to_numpy()
        has_edge = agg["is_edge_max"].to_numpy() > 0
        return pa.table(
            {
                "n_wedges": pa.array(
                    [int(group["wedge_total"].to_numpy().sum())], pa.int64()
                ),
                "n_triangles": pa.array(
                    [int(wedge_n[has_edge].sum())], pa.int64()
                ),
            }
        )

    both = wedge_ds.union(edges.map_batches(edge_side, batch_format="pyarrow"))
    totals = (
        hash_exchange(both, "edge_key", close_count)
        .aggregate(
            Sum("n_wedges", alias_name="n_wedges"),
            Sum("n_triangles", alias_name="n_triangles"),
        )
    )  # global aggregate → one dict row on the driver (two scalars)
    return pa.table(
        {
            "n_wedges": pa.array([int(totals["n_wedges"])], pa.int64()),
            "n_triangles": pa.array([int(totals["n_triangles"])], pa.int64()),
        }
    )


Q_TRIANGLES_SQL = """
    WITH li AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
    e AS (
      SELECT DISTINCT a.l_partkey AS u, b.l_partkey AS v
      FROM li a JOIN li b
        ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
    ),
    w AS (
      SELECT e1.v AS x, e2.v AS y
      FROM e e1 JOIN e e2 ON e1.u = e2.u AND e1.v < e2.v
    )
    SELECT CAST(COUNT(*) AS BIGINT) AS n_wedges,
           CAST(SUM(CASE WHEN EXISTS (
             SELECT 1 FROM e WHERE e.u = w.x AND e.v = w.y)
             THEN 1 ELSE 0 END) AS BIGINT) AS n_triangles
    FROM w
"""


def q_degree_hist(sf_dir: str):
    """Count-of-counts / degree distribution (orders per customer →
    histogram of customer order-counts): the two-level aggregate
    whose FIRST level is rows-cardinality — per-block partial counts
    merge in custkey-hash buckets, and each bucket folds
    its exact per-customer totals STRAIGHT into histogram partials
    (count, n_customers) before the second, tiny Sum exchange — the
    full per-customer table never leaves the buckets."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "o_custkey": b["o_custkey"],
                "n": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            }
        )
        agg = pa.TableGroupBy(t, "o_custkey").aggregate([("n", "sum")])
        return agg.rename_columns(["o_custkey", "n"])

    def hist_bucket(group: pa.Table) -> pa.Table:
        tot = pa.TableGroupBy(group, "o_custkey", use_threads=False).aggregate([("n", "sum")])
        hist = pa.TableGroupBy(tot, "n_sum", use_threads=False).aggregate([([], "count_all")])
        return hist.select(["n_sum", "count_all"]).rename_columns(["n_orders", "n_customers"])

    ds = _read(sf_dir, "orders", ["o_custkey"])
    return (
        hash_exchange(ds.map_batches(partial, batch_format="pyarrow"), "o_custkey", hist_bucket)
        .groupby("n_orders")
        .aggregate(Sum("n_customers", alias_name="n_customers"))
    )


Q_DEGREE_HIST_SQL = """
    WITH d AS (
      SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n_orders
      FROM orders GROUP BY o_custkey
    )
    SELECT n_orders, CAST(COUNT(*) AS BIGINT) AS n_customers
    FROM d GROUP BY n_orders
"""


QUERIES = {
    "triangles": Query(q_triangles, Q_TRIANGLES_SQL),
    "pagerank": Query(q_pagerank, Q_PAGERANK_SQL),
    "bfs_depth": Query(q_bfs_depth, Q_BFS_DEPTH_SQL),
    "degree_hist": Query(q_degree_hist, Q_DEGREE_HIST_SQL),
}
