"""Approximate-nearest-neighbor queries: brute/IVF/LSH/PQ, mutual-NN."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._shared import GRAM_DIM, Query, _read

ANN_K = 10


def q_ann_topk(sf_dir: str):
    """Brute-force cosine top-10 for query vectors (vec_id < 5)."""
    from ...stages.ann import brute_force_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = brute_force_topk(ds, _ann_queries(sf_dir), ANN_K)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": batch["query_id"],
                "vec_id": batch["vec_id"],
                "cosine_r": pa.array(np.round(batch["cosine"].to_numpy(), 4)),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


Q_ANN_TOPK_SQL = f"""
    WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 5)
    SELECT query_id, vec_id, cosine_r FROM (
      SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
             round(CAST(list_cosine_similarity(e.embedding, q.embedding) AS DOUBLE), 4) AS cosine_r,
             row_number() OVER (
               PARTITION BY q.vec_id
               ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
             ) AS rnk
      FROM embeddings e, q
    ) WHERE rnk <= {ANN_K}
"""


def q_ann_filtered(sf_dir: str):
    """Metadata-filtered vector search (pre-filter semantics): exact
    cosine top-10 restricted to corpus vectors with label = 3 — the
    "search within a tenant / category" query every vector store
    serves.  The predicate is applied INSIDE the scan stage, before
    any distance work or exchange, so the matmul and the per-batch
    partial top-k only ever see qualifying rows; recall is exact by
    construction (no post-filter k-starvation)."""
    from ...stages.ann import brute_force_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["label"], 3)).select(["vec_id", "embedding"])

    out = brute_force_topk(
        ds.map_batches(keep, batch_format="pyarrow"), _ann_queries(sf_dir), ANN_K
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": batch["query_id"],
                "vec_id": batch["vec_id"],
                "cosine_r": pa.array(np.round(batch["cosine"].to_numpy(), 4)),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


Q_ANN_FILTERED_SQL = f"""
    WITH q AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id < 5)
    SELECT query_id, vec_id, cosine_r FROM (
      SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
             round(CAST(list_cosine_similarity(e.embedding, q.embedding) AS DOUBLE), 4) AS cosine_r,
             row_number() OVER (
               PARTITION BY q.vec_id
               ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
             ) AS rnk
      FROM (SELECT * FROM embeddings WHERE label = 3) e, q
    ) WHERE rnk <= {ANN_K}
"""


# ---------------------------------------------------------- non-SQL (rows-only)


def _ann_queries(sf_dir: str):
    import pyarrow.parquet as pq

    # predicate pushdown: only row groups containing the query ids are
    # read — never the whole embedding column (wrong at 100 TB)
    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", 5)],
    )
    q_ids = qt["vec_id"].to_numpy()
    emb = qt["embedding"].combine_chunks()
    qmat = (
        emb.values.to_numpy(zero_copy_only=False)
        .reshape(len(qt), -1)
        .astype(np.float64)
    )
    return q_ids, qmat


def q_ann_ivf(sf_dir: str):
    """IVF ANN (the scale path): vectors bucketed into inverted lists
    inside map_batches, queries probe their nprobe nearest lists.  The
    catalog query runs with FIXED deterministic centroids (Rademacher
    ±1 rows — equal norms, so assignment is argmax of signed
    coordinate sums), which makes assignment + probing + ranking
    value-exact vs the SQL mirror.  k-means training stays a separate
    tested function (train_ivf_centroids + recall test)."""
    from ...stages.ann import ivf_fixed_centroids, ivf_topk

    centroids = ivf_fixed_centroids(IVF_CENTROIDS, 64, seed=IVF_SEED)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ivf_topk(ds, _ann_queries(sf_dir), ANN_K, centroids, nprobe=IVF_NPROBE)
    return out.select_columns(["query_id", "vec_id", "rank"])


IVF_CENTROIDS = 16
IVF_NPROBE = 4
IVF_SEED = 29


def _build_ann_ivf_sql() -> str:
    """SQL mirror of the fixed-centroid IVF pipeline: the ±1 centroid
    rows inline as signed coordinate sums; assignment is first-argmax
    (list_position of list_max — numpy argmax semantics); each query
    probes its nprobe top centroids; exact cosine ranks within the
    probed lists."""
    from ...stages.ann import ivf_fixed_centroids

    cent = ivf_fixed_centroids(IVF_CENTROIDS, 64, seed=IVF_SEED)
    dot_exprs = ",\n        ".join(
        "("
        + " ".join(
            ("+" if cent[c, d] > 0 else "-") + f" embedding[{d + 1}]"
            for d in range(cent.shape[1])
        ).lstrip("+ ")
        + ")"
        for c in range(cent.shape[0])
    )
    return f"""
    WITH e AS (
      SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings
    ),
    d AS (
      SELECT vec_id, embedding, [
        {dot_exprs}
      ] AS dots FROM e
    ),
    asg AS (
      SELECT vec_id, embedding,
             CAST(list_position(dots, list_max(dots)) - 1 AS BIGINT) AS centroid
      FROM d
    ),
    q AS (SELECT vec_id AS qid, embedding AS qe, dots AS qdots FROM d WHERE vec_id < 5),
    qc AS (
      SELECT qid, qe, c - 1 AS centroid,
             row_number() OVER (PARTITION BY qid ORDER BY qdots[c] DESC, c) AS crnk
      FROM q, UNNEST(generate_series(1, {IVF_CENTROIDS})) AS t(c)
    ),
    probe AS (SELECT qid, qe, centroid FROM qc WHERE crnk <= {IVF_NPROBE}),
    cand AS (
      SELECT p.qid AS query_id, a.vec_id,
             list_cosine_similarity(a.embedding, p.qe) AS cos
      FROM asg a JOIN probe p ON a.centroid = p.centroid
    )
    SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rank FROM (
      SELECT query_id, vec_id,
             row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, vec_id) AS rnk
      FROM cand
    ) WHERE rnk <= {ANN_K}
"""


Q_ANN_IVF_SQL = _build_ann_ivf_sql()


def q_ann_lsh(sf_dir: str):
    """Sign-LSH bucketed ANN (alternative scale path).  The planes are
    deterministic Rademacher ±1 matrices, so the oracle reproduces the
    exact bucketing (sign expressions inlined as literals) and the
    same candidate set → value-exact ranks."""
    from ...stages.ann import lsh_bucketed_topk

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = lsh_bucketed_topk(ds, _ann_queries(sf_dir), ANN_K, n_bits=4)
    return out.select_columns(["query_id", "vec_id", "rank"])


def _sign_bucket_expr(n_bits: int, seed: int, dim: int = 64) -> str:
    """SQL expression computing the sign-LSH bucket of ``embedding``
    with the SAME deterministic Rademacher planes as the engine.
    Signs are inlined (the sign of Σ ±e_d equals the engine's
    unit-vector projection sign — normalization is a positive
    scale)."""
    from ...stages.dedup import rademacher_planes

    planes = rademacher_planes(dim, n_bits, seed)
    bits = []
    for b in range(n_bits):
        terms = " + ".join(
            ("" if planes[d, b] > 0 else "-") + f"embedding[{d + 1}]"
            for d in range(dim)
        )
        bits.append(f"(CASE WHEN ({terms}) > 0 THEN {1 << b} ELSE 0 END)")
    return " + ".join(bits)


def _build_ann_lsh_sql() -> str:
    bucket = _sign_bucket_expr(n_bits=4, seed=13)
    return f"""
    WITH e AS (
      SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings
    ),
    eb AS (SELECT vec_id, embedding, {bucket} AS bucket FROM e),
    q AS (SELECT vec_id AS qid, embedding AS qe, bucket AS qb FROM eb WHERE vec_id < 5),
    cand AS (
      SELECT q.qid AS query_id, eb.vec_id,
             list_cosine_similarity(eb.embedding, q.qe) AS cos
      FROM eb JOIN q ON eb.bucket = q.qb
    )
    SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rank FROM (
      SELECT query_id, vec_id,
             row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, vec_id) AS rnk
      FROM cand
    ) WHERE rnk <= {ANN_K}
"""


Q_ANN_LSH_SQL = _build_ann_lsh_sql()


def q_mutual_nn(sf_dir: str):
    """Reciprocal-nearest-neighbor ("best buddy") pairs within sign-LSH
    buckets: each vector's nearest neighbor by EXACT integer squared-L2
    over fixed-point quantized embeddings; a pair survives iff each is
    the other's nearest.  The mutual-NN criterion is the standard
    high-precision near-dup verifier (one-sided NN over-pairs hubs).
    Integer distances (floor(x·1000+0.5) quantization, the Gram/dim
    stats convention) make the RANKING itself exact across engines —
    a float cosine rank could flip on a one-ulp difference.  Buckets
    are the bounded 256-ary sign-LSH partition (never an all-pairs
    scan); ties break on (d2, vec_id), mirrored in the SQL window."""
    from ...stages.dedup import EmbeddingLshBucket
    from ...stages.linalg import quantize_embeddings

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    bucketed = ds.map_batches(
        EmbeddingLshBucket(n_bits=8), batch_format="pyarrow"
    )

    def mutual_in_bucket(group: pa.Table) -> pa.Table:
        empty = pa.schema(
            [
                pa.field("vec_a", pa.int64()),
                pa.field("vec_b", pa.int64()),
                pa.field("d2", pa.int64()),
            ]
        ).empty_table()
        if group.num_rows < 2:
            return empty
        ids = group["vec_id"].to_numpy()
        q = quantize_embeddings(group["embedding"])
        uniq, pos = np.unique(ids, return_index=True)
        q = q[pos]
        n = len(uniq)
        if n < 2:
            return empty
        # rows sorted by vec_id (np.unique), so the FIRST minimum in a
        # row is the smallest-vec_id tie — the SQL (d2, vec_id) order
        sq = (q * q).sum(axis=1)
        big = np.iinfo(np.int64).max
        nn = np.empty(n, dtype=np.int64)
        nnd = np.empty(n, dtype=np.int64)
        chunk = max(1, (1 << 22) // n)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            d2 = sq[lo:hi, None] + sq[None, :] - 2 * (q[lo:hi] @ q.T)
            d2[np.arange(lo, hi) - lo, np.arange(lo, hi)] = big  # no self
            nn[lo:hi] = d2.argmin(axis=1)
            nnd[lo:hi] = d2[np.arange(hi - lo), nn[lo:hi]]
        i = np.arange(n)
        mutual = (nn[nn] == i) & (i < nn)
        if not mutual.any():
            return empty
        return pa.table(
            {
                "vec_a": pa.array(uniq[mutual], pa.int64()),
                "vec_b": pa.array(uniq[nn[mutual]], pa.int64()),
                "d2": pa.array(nnd[mutual], pa.int64()),
            }
        )

    # an exact-key exchange: the kernel ranks within one sign-LSH
    # bucket (256 values) per call
    return bucketed.map_batches(_lsh_bucket, batch_format="pyarrow").groupby(
        "lsh_bucket"
    ).map_groups(mutual_in_bucket, batch_format="pyarrow")


def _lsh_bucket(b: pa.Table) -> pa.Table:
    """``EmbeddingLshBucket`` rows with the sign-LSH key renamed, so it
    is not mistaken for (or shadowed by) an exchange's hash bucket."""
    return b.rename_columns(["lsh_bucket" if c == "bucket" else c for c in b.column_names])


def _build_mutual_nn_sql() -> str:
    bucket = _sign_bucket_expr(n_bits=8, seed=13)
    d2 = " + ".join(
        f"(a.q[{d}]-b.q[{d}])*(a.q[{d}]-b.q[{d}])" for d in range(1, GRAM_DIM + 1)
    )
    return f"""
    WITH e AS (
      SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings
    ),
    eb AS (
      SELECT vec_id, {bucket} AS bucket,
             list_transform(embedding,
                            x -> CAST(floor(x * 1000 + 0.5) AS BIGINT)) AS q
      FROM e
    ),
    pairs AS (
      SELECT a.vec_id AS src, b.vec_id AS dst, {d2} AS d2
      FROM eb a JOIN eb b ON a.bucket = b.bucket AND a.vec_id <> b.vec_id
    ),
    r AS (
      SELECT src, dst, d2,
             row_number() OVER (PARTITION BY src ORDER BY d2, dst) AS rnk
      FROM pairs
    ),
    nn AS (SELECT src, dst, d2 FROM r WHERE rnk = 1)
    SELECT x.src AS vec_a, x.dst AS vec_b, CAST(x.d2 AS BIGINT) AS d2
    FROM nn x JOIN nn y ON x.dst = y.src AND y.dst = x.src AND x.src < y.src
"""


PQ_M = 4
PQ_K = 16
PQ_SEED = 37


def q_ann_pq(sf_dir: str):
    """Product-quantization ANN (the 10^12-vector scale path): vectors
    compress to PQ_M centroid codes inside map_batches — 64 floats →
    4 bytes per row on the wire at scale — and queries rank by ADC
    lookup-table sums.  Runs with FIXED deterministic ±1 codebooks
    (stages/ann.py::pq_fixed_codebooks) so assignment + ADC ranking
    are value-exact vs the SQL mirror; per-subspace k-means training
    (pq_train) stays a separately recall-tested function."""
    from ...stages.ann import pq_fixed_codebooks, pq_topk

    books = pq_fixed_codebooks(PQ_M, PQ_K, 64, seed=PQ_SEED)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = pq_topk(ds, _ann_queries(sf_dir), ANN_K, books)
    return out.select_columns(["query_id", "vec_id", "rank"])


def _build_ann_pq_sql(k: int = ANN_K) -> str:
    """SQL mirror of fixed-codebook PQ: per-subspace signed-sum lists
    for assignment (first-argmax via list_position of list_max), the
    query's own lists as the ADC lookup table, score = Σ_s
    qd_s[code_s], exact rank by (score DESC, vec_id).  ``k`` lets the
    rerank mirror reuse the same CTE with a wider shortlist."""
    from ...stages.ann import pq_fixed_codebooks

    books = pq_fixed_codebooks(PQ_M, PQ_K, 64, seed=PQ_SEED)
    m, K, sub = books.shape

    def dots_list(s: int) -> str:
        exprs = []
        for c in range(K):
            terms = " ".join(
                ("+" if books[s, c, d] > 0 else "-") + f" embedding[{s * sub + d + 1}]"
                for d in range(sub)
            ).lstrip("+ ")
            exprs.append("(" + terms + ")")
        return "[\n        " + ",\n        ".join(exprs) + "\n      ]"

    dots_cols = ",\n      ".join(
        f"{dots_list(s)} AS dots{s}" for s in range(m)
    )
    code_cols = ", ".join(
        f"CAST(list_position(dots{s}, list_max(dots{s})) AS INT) AS c{s}"
        for s in range(m)
    )
    score = " + ".join(f"q.qd{s}[a.c{s}]" for s in range(m))
    qd_cols = ", ".join(f"dots{s} AS qd{s}" for s in range(m))
    return f"""
    WITH e AS (
      SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings
    ),
    d AS (
      SELECT vec_id,
      {dots_cols}
      FROM e
    ),
    asg AS (SELECT vec_id, {code_cols} FROM d),
    q AS (SELECT vec_id AS qid, {qd_cols} FROM d WHERE vec_id < 5),
    cand AS (
      SELECT q.qid AS query_id, a.vec_id, {score} AS score
      FROM asg a, q
    )
    SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rank FROM (
      SELECT query_id, vec_id,
             row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id) AS rnk
      FROM cand
    ) WHERE rnk <= {k}
"""


# ------------------------------------------------------------ recall eval

ANN_RECALL_METHODS = ("ivf", "lsh", "pq")


def q_ann_recall(sf_dir: str):
    """ANN index-quality evaluation: recall@k of every approximate
    index in the catalog (IVF, sign-LSH, PQ) against the exact
    brute-force top-k ground truth — the eval harness that decides
    which index a 10^12-vector deployment ships.  Each of the four
    rankings is the SAME pipeline its own catalog query runs (and each
    is independently hash-exact vs its mirror), so the composition
    inherits their exactness.

    Scale shape: every per-query top-k list is k-bounded REGARDLESS of
    corpus size, so the hit-count combine is a bounded driver pull
    (n_queries × k rows per method — the tfidf-vocabulary convention),
    never a shuffle.  The four index scans stream independently.
    recall_bp = hits × 10000 // k (integer, exact)."""
    from ...stages.ann import (
        brute_force_topk,
        ivf_fixed_centroids,
        ivf_topk,
        lsh_bucketed_topk,
        pq_fixed_codebooks,
        pq_topk,
    )

    qs = _ann_queries(sf_dir)
    q_ids = qs[0]

    def ids_by_query(rows) -> dict:
        out: dict = {}
        for r in rows:
            out.setdefault(int(r["query_id"]), set()).add(int(r["vec_id"]))
        return out

    truth = ids_by_query(
        brute_force_topk(
            _read(sf_dir, "embeddings", ["vec_id", "embedding"]), qs, ANN_K
        )
        .select_columns(["query_id", "vec_id"])
        .take_all()
    )
    approx = {
        "ivf": ids_by_query(
            ivf_topk(
                _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                qs,
                ANN_K,
                ivf_fixed_centroids(IVF_CENTROIDS, 64, seed=IVF_SEED),
                nprobe=IVF_NPROBE,
            )
            .select_columns(["query_id", "vec_id"])
            .take_all()
        ),
        "lsh": ids_by_query(
            lsh_bucketed_topk(
                _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                qs,
                ANN_K,
                n_bits=4,
            )
            .select_columns(["query_id", "vec_id"])
            .take_all()
        ),
        "pq": ids_by_query(
            pq_topk(
                _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
                qs,
                ANN_K,
                pq_fixed_codebooks(PQ_M, PQ_K, 64, seed=PQ_SEED),
            )
            .select_columns(["query_id", "vec_id"])
            .take_all()
        ),
    }
    methods, qids, hits = [], [], []
    for m in ANN_RECALL_METHODS:
        for qid in q_ids:
            h = len(approx[m].get(int(qid), set()) & truth.get(int(qid), set()))
            methods.append(m)
            qids.append(int(qid))
            hits.append(h)
    hits_np = np.asarray(hits, dtype=np.int64)
    return pa.table(
        {
            "method": pa.array(methods, pa.string()),
            "query_id": pa.array(qids, pa.int64()),
            "hits": pa.array(hits_np, pa.int64()),
            "recall_bp": pa.array(hits_np * 10000 // ANN_K, pa.int64()),
        }
    )


def _build_ann_recall_sql() -> str:
    """Composes the (already individually hash-exact) brute/IVF/LSH/PQ
    mirrors as CTE subqueries and counts per-query overlaps; a method ×
    query grid left-join keeps zero-hit rows."""
    return f"""
    WITH truth AS (SELECT query_id, vec_id FROM ({Q_ANN_TOPK_SQL})),
    ivf AS (SELECT query_id, vec_id FROM ({Q_ANN_IVF_SQL})),
    lsh AS (SELECT query_id, vec_id FROM ({Q_ANN_LSH_SQL})),
    pq AS (SELECT query_id, vec_id FROM ({_build_ann_pq_sql()})),
    hits AS (
      SELECT 'ivf' AS method, a.query_id, COUNT(*) AS h
      FROM ivf a JOIN truth t ON a.query_id = t.query_id AND a.vec_id = t.vec_id
      GROUP BY a.query_id
      UNION ALL
      SELECT 'lsh' AS method, a.query_id, COUNT(*) AS h
      FROM lsh a JOIN truth t ON a.query_id = t.query_id AND a.vec_id = t.vec_id
      GROUP BY a.query_id
      UNION ALL
      SELECT 'pq' AS method, a.query_id, COUNT(*) AS h
      FROM pq a JOIN truth t ON a.query_id = t.query_id AND a.vec_id = t.vec_id
      GROUP BY a.query_id
    ),
    grid AS (
      SELECT m.method, q.vec_id AS query_id
      FROM (SELECT unnest(['ivf', 'lsh', 'pq']) AS method) m,
           (SELECT vec_id FROM embeddings WHERE vec_id < 5) q
    )
    SELECT g.method, g.query_id,
           CAST(COALESCE(h.h, 0) AS BIGINT) AS hits,
           CAST((COALESCE(h.h, 0) * 10000) // {ANN_K} AS BIGINT) AS recall_bp
    FROM grid g LEFT JOIN hits h
      ON g.method = h.method AND g.query_id = h.query_id
"""


# ---------------------------------------------------------- two-stage rerank

RERANK_SHORTLIST = 50


def q_ann_rerank(sf_dir: str):
    """Two-stage retrieval — the production ANN serving pattern: a
    cheap PQ/ADC first stage retrieves a SHORTLIST (50 per query,
    4-byte codes on the wire at 10^12 scale), then an exact cosine
    second stage rescores ONLY the shortlisted vectors and emits the
    final top-k.  Recall ≈ PQ recall@shortlist but ranking quality is
    exact — the standard accuracy/cost trade.

    Scale shape: the shortlist is k-bounded per query regardless of
    corpus size (nq × 50 ids — the bounded-pull convention), broadcast
    into a streaming rerank pass that selects members via sorted-array
    searchsorted before any distance work.  Both stages stream; no
    all-pairs work anywhere."""
    from ...stages.ann import (
        ShortlistRerank,
        TopKPerQuery,
        pq_fixed_codebooks,
        pq_topk,
    )

    qs = _ann_queries(sf_dir)
    books = pq_fixed_codebooks(PQ_M, PQ_K, 64, seed=PQ_SEED)
    shortlist_rows = (
        pq_topk(
            _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
            qs,
            RERANK_SHORTLIST,
            books,
        )
        .select_columns(["query_id", "vec_id"])
        .take_all()
    )
    shortlists: dict = {}
    for r in shortlist_rows:
        shortlists.setdefault(int(r["query_id"]), []).append(int(r["vec_id"]))
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    scored = ds.map_batches(
        ShortlistRerank(qs, shortlists), batch_format="pyarrow"
    )
    out = scored.groupby("query_id").map_groups(
        TopKPerQuery(ANN_K), batch_format="pyarrow"
    )
    return out.select_columns(["query_id", "vec_id", "rank"])


def _build_ann_rerank_sql() -> str:
    """PQ shortlist CTE (same mirror, k=RERANK_SHORTLIST) joined back
    to exact embeddings; exact cosine rank within the shortlist."""
    return f"""
    WITH sl AS (SELECT query_id, vec_id FROM ({_build_ann_pq_sql(RERANK_SHORTLIST)})),
    e AS (
      SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings
    ),
    q AS (SELECT vec_id AS qid, embedding AS qe FROM e WHERE vec_id < 5),
    cand AS (
      SELECT sl.query_id, sl.vec_id,
             list_cosine_similarity(e.embedding, q.qe) AS cos
      FROM sl JOIN e ON e.vec_id = sl.vec_id
              JOIN q ON q.qid = sl.query_id
    )
    SELECT query_id, vec_id, CAST(rnk AS BIGINT) AS rank FROM (
      SELECT query_id, vec_id,
             row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, vec_id) AS rnk
      FROM cand
    ) WHERE rnk <= {ANN_K}
"""


QUERIES = {
    "ann_topk": Query(q_ann_topk, Q_ANN_TOPK_SQL),
    "ann_filtered": Query(q_ann_filtered, Q_ANN_FILTERED_SQL),
    "ann_ivf": Query(q_ann_ivf, Q_ANN_IVF_SQL),
    "ann_lsh": Query(q_ann_lsh, Q_ANN_LSH_SQL),
    "mutual_nn": Query(q_mutual_nn, _build_mutual_nn_sql),
    "ann_pq": Query(q_ann_pq, _build_ann_pq_sql),
    "ann_recall": Query(q_ann_recall, _build_ann_recall_sql),
    "ann_rerank": Query(q_ann_rerank, _build_ann_rerank_sql),
}
