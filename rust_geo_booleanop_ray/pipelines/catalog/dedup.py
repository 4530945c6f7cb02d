"""Deduplication queries: exact, MinHash/SimHash LSH, n-gram, semantic."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ...stages.exchange import hash_exchange
from ._shared import GRAM_DIM, KMEANS_ITERS, KMEANS_K, Query, _dedup_edge_union, _read
from .agg import _kmeans_ctes
from .ann import _lsh_bucket, _sign_bucket_expr


def q_dedup_exact(sf_dir: str):
    """Exact dedup groups: representative (min doc_id) + group size:
    per-batch partials merged through ``hash_exchange`` on the content
    hash (hash cardinality is ~rows)."""
    from ...stages.dedup import (
        content_hash_batch,
        exact_dedup_merge_bucket,
        exact_dedup_partial,
    )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(content_hash_batch, batch_format="pyarrow")
    partials = hashed.map_batches(exact_dedup_partial, batch_format="pyarrow")
    merged = hash_exchange(partials, "content_hash", exact_dedup_merge_bucket)
    return merged.select_columns(["doc_id", "n"])


Q_DEDUP_EXACT_SQL = """
    SELECT MIN(doc_id) AS doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM documents GROUP BY text
"""


INCR_ID_OFFSET = 1 << 40  # append-batch id space, disjoint from priors


def q_incremental_dedup(sf_dir: str, prior_sigs=None):
    """Incremental dedup against a PERSISTED signature table (the
    append-only 100-TB pipeline shape: a prior run saved 24 B/doc of
    (doc_id, content_hash lo/hi); the new batch dedups against
    old+new WITHOUT re-reading or re-signing the old corpus).  The
    append batch models a re-crawl: every doc_id % 7 == 0 document
    arrives again as id + 2^40, and every doc_id % 13 == 0 document a
    second time as id + 2^41 (so docs ≡ 0 mod 91 also collide
    new-vs-new).  ``prior_sigs`` defaults to signing the full corpus
    inline, standing in for the ``read_parquet`` of the persisted
    table that scripts/dedup_incremental_stress.py exercises for
    real.  Flags = (new doc, keeper): the doc duplicates keeper, the
    smallest prior or smaller-id new partner.  Engine:
    stages/dedup.py::incremental_exact_dedup — one bucketed shuffle
    over signature rows, one lexsort/run kernel per bucket."""
    from ...stages.dedup import content_hash_batch, incremental_exact_dedup

    M = INCR_ID_OFFSET

    def new_split(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy()
        a = b.filter(pa.array(d % 7 == 0))
        c = b.filter(pa.array(d % 13 == 0))
        t = pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate(
                        [a["doc_id"].to_numpy() + M, c["doc_id"].to_numpy() + 2 * M]
                    ),
                    pa.int64(),
                ),
                "text": pa.concat_arrays(
                    [a["text"].combine_chunks(), c["text"].combine_chunks()]
                ),
            }
        )
        return content_hash_batch(t)

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    new_sigs = docs.map_batches(new_split, batch_format="pyarrow")
    if prior_sigs is None:
        prior_sigs = docs.map_batches(content_hash_batch, batch_format="pyarrow")
    return incremental_exact_dedup(new_sigs, prior_sigs)


Q_INCREMENTAL_DEDUP_SQL = f"""
    WITH nw AS (
      SELECT doc_id + {INCR_ID_OFFSET} AS doc_id, text
      FROM documents WHERE doc_id % 7 = 0
      UNION ALL
      SELECT doc_id + {2 * INCR_ID_OFFSET} AS doc_id, text
      FROM documents WHERE doc_id % 13 = 0
    ),
    cand AS (
      SELECT n.doc_id AS doc_id, b.doc_id AS b
      FROM nw n JOIN documents b ON b.text = n.text
      UNION ALL
      SELECT n.doc_id, b.doc_id
      FROM nw n JOIN nw b ON b.text = n.text AND b.doc_id < n.doc_id
    )
    SELECT doc_id, CAST(MIN(b) AS BIGINT) AS keeper FROM cand GROUP BY doc_id
"""


def q_normalized_dedup(sf_dir: str):
    """Canonicalize-then-dedup: trim / lowercase / collapse space runs
    (the text canonicalization every training-data pipeline runs before
    exact dedup, so trivial whitespace/case variants collapse), then
    the bucketed exact-dedup merge — representative (min doc_id),
    group size and normalized length per distinct normalized text.
    Normalization is vectorized Arrow kernels (utf8_trim/lower +
    RE2 replace); the merge shuffle is hash-bucketed, never grouped by
    the ~rows-cardinality text hash itself."""
    from ...stages.dedup import content_hash_batch

    def norm(batch: pa.Table) -> pa.Table:
        t = pc.replace_substring_regex(
            pc.utf8_lower(pc.utf8_trim(batch["text"], " ")),
            pattern=" +",
            replacement=" ",
        )
        return pa.table({"doc_id": batch["doc_id"], "text": t})

    def partial(batch: pa.Table) -> pa.Table:
        hashed = content_hash_batch(batch)
        n_chars = pc.utf8_length(batch["text"])
        agg = pa.TableGroupBy(
            pa.table(
                {
                    "content_hash": hashed["content_hash"],
                    "content_hash_hi": hashed["content_hash_hi"],
                    "doc_id": batch["doc_id"],
                    "n_chars": n_chars,
                }
            ),
            ["content_hash", "content_hash_hi"],
        ).aggregate([("doc_id", "min"), ("doc_id", "count"), ("n_chars", "min")])
        return pa.table(
            {
                "content_hash": agg["content_hash"],
                "content_hash_hi": agg["content_hash_hi"],
                "doc_id": agg["doc_id_min"].cast(pa.int64()),
                "n": agg["doc_id_count"].cast(pa.int64()),
                "n_chars": agg["n_chars_min"].cast(pa.int64()),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        keys = ["content_hash", "content_hash_hi"]
        agg = pa.TableGroupBy(group, keys, use_threads=False).aggregate(
            [("doc_id", "min"), ("n", "sum"), ("n_chars", "min")]
        )
        return agg.select(["doc_id_min", "n_sum", "n_chars_min"]).rename_columns(
            ["doc_id", "n", "n_chars"]
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    partials = ds.map_batches(norm, batch_format="pyarrow").map_batches(
        partial, batch_format="pyarrow"
    )
    return hash_exchange(partials, "content_hash", merge)


Q_NORMALIZED_DEDUP_SQL = """
    WITH nrm AS (
      SELECT doc_id,
             regexp_replace(lower(trim(text, ' ')), ' +', ' ', 'g') AS t
      FROM documents
    )
    SELECT MIN(doc_id) AS doc_id,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(length(t) AS BIGINT) AS n_chars
    FROM nrm GROUP BY t
"""


def q_dedup_components(sf_dir: str):
    """Connected components over a deterministic document-similarity
    graph: docs are chained (consecutive doc_id) within (lang,
    n_tokens) groups and within (source, n_chars % 10) groups — two
    cross-cutting relations whose union forms multi-hop components.
    Engine: distributed min-label propagation + pointer jumping
    (stages/dedup.connected_components — labels never touch the
    driver); oracle: DuckDB recursive CTE."""
    from ...stages.dedup import connected_components

    comps = connected_components(_dedup_edge_union(sf_dir))
    return comps.map_batches(
        lambda b: pa.table({"doc_id": b["node"], "component": b["component"]}),
        batch_format="pyarrow",
    )


Q_DEDUP_COMPONENTS_SQL = """
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
    sym AS (SELECT a AS node, b AS peer FROM edges UNION SELECT b, a FROM edges),
    reach(node, label) AS (
      SELECT node, node FROM (SELECT DISTINCT node FROM sym)
      UNION
      SELECT sym.node, reach.label FROM sym JOIN reach ON reach.node = sym.peer
    )
    SELECT node AS doc_id, CAST(MIN(label) AS BIGINT) AS component
    FROM reach GROUP BY node
"""


def q_dedup_apply(sf_dir: str):
    """Apply the dedup decision end-to-end: the SURVIVING corpus after
    collapsing each similarity component to its canonical (min doc_id)
    member — components (distributed label propagation) → per-block
    dropped-key extraction → one anti-join shuffle against the corpus.
    This is the step that actually shrinks the training set; the
    component labels never touch the driver at any point."""
    from ...stages.join import shuffle_hash_join

    comps = q_dedup_components(sf_dir)

    def dropped_keys(b: pa.Table) -> pa.Table:
        d = b.filter(pc.not_equal(b["doc_id"], b["component"]))
        return pa.table({"doc_id": d["doc_id"]})

    dropped = comps.map_batches(dropped_keys, batch_format="pyarrow")
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return shuffle_hash_join(
        docs,
        dropped,
        "doc_id",
        ["lang", "n_chars"],
        [],
        how="anti",
        left_schema=pa.schema(
            [
                pa.field("doc_id", pa.int64()),
                pa.field("lang", pa.string()),
                pa.field("n_chars", pa.int64()),
            ]
        ),
        right_schema=pa.schema([pa.field("doc_id", pa.int64())]),
    )


Q_DEDUP_APPLY_SQL = f"""
    SELECT d.doc_id, d.lang, d.n_chars FROM documents d
    WHERE NOT EXISTS (
      SELECT 1 FROM ({Q_DEDUP_COMPONENTS_SQL}) c
      WHERE c.doc_id = d.doc_id AND c.component <> c.doc_id)
"""


def q_safe_split(sf_dir: str):
    """Leakage-safe train/test split: each document is assigned by the
    deterministic hash of its similarity COMPONENT (falling back to
    its own id when it has no near-dups), so near-duplicate documents
    can never straddle the split — the eval-contamination guard every
    LLM data pipeline needs.  Components come from the distributed
    label propagation; one left-join shuffle attaches them; the split
    itself is a pure per-row hash (no extra exchange)."""
    from ...stages.join import shuffle_hash_join

    comps = q_dedup_components(sf_dir)
    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    joined = shuffle_hash_join(
        docs,
        comps,
        "doc_id",
        ["lang"],
        ["component"],
        how="left",
        left_schema=pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("lang", pa.string())]
        ),
        right_schema=pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("component", pa.int64())]
        ),
    )

    def assign(b: pa.Table) -> pa.Table:
        gkey = pc.coalesce(b["component"], b["doc_id"]).to_numpy().astype(np.uint64)
        h = ((gkey % np.uint64(4294967296)) * np.uint64(2654435761)) % np.uint64(
            4294967296
        )
        train = (h % np.uint64(10)) < 8
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "lang": b["lang"],
                "split": pa.array(np.where(train, "train", "test"), pa.string()),
            }
        )

    return joined.map_batches(assign, batch_format="pyarrow")


Q_SAFE_SPLIT_SQL = f"""
    WITH comp AS ({Q_DEDUP_COMPONENTS_SQL}),
    j AS (
      SELECT d.doc_id, d.lang, COALESCE(c.component, d.doc_id) AS gkey
      FROM documents d LEFT JOIN comp c USING (doc_id)
    )
    SELECT doc_id, lang,
           CASE WHEN (((gkey % 4294967296) * 2654435761) % 4294967296) % 10 < 8
                THEN 'train' ELSE 'test' END AS split
    FROM j
"""


def q_dedup_keep_best(sf_dir: str):
    """Cluster-representative selection by QUALITY — the curation
    policy real training-data builds use instead of keep-min-id: per
    similarity component, retain the member with the best quality
    score (stopword ratio in ppm, integer-exact), ties to the smallest
    doc_id.  Output per component: keeper, best_score, n_members.

    Scale shape: components from the distributed label propagation,
    per-doc scores vectorized in-batch, ONE bucketed hash join
    attaches scores to labels, and the per-component argmax is the
    component-bucketed (``hash_exchange``) lexsort/run-boundary kernel —
    component cardinality is ~rows, never a generic per-key
    aggregate."""
    from ...stages.join import shuffle_hash_join
    from ...stages.text import text_stats_batch

    comps = q_dedup_components(sf_dir)

    def score_rows(b: pa.Table) -> pa.Table:
        s = text_stats_batch(b)
        tok = s["n_tokens"].to_numpy()
        stop = s["n_stopwords"].to_numpy()
        return pa.table(
            {
                "doc_id": s["doc_id"],
                "score": pa.array(
                    stop * np.int64(1_000_000) // np.maximum(tok, 1), pa.int64()
                ),
            }
        )

    scores = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score_rows, batch_format="pyarrow"
    )
    j = shuffle_hash_join(
        comps,
        scores,
        "doc_id",
        ["component"],
        ["score"],
        left_schema=pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("component", pa.int64())]
        ),
        right_schema=pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("score", pa.int64())]
        ),
    )

    out_schema = pa.schema(
        [
            pa.field("component", pa.int64()),
            pa.field("keeper", pa.int64()),
            pa.field("best_score", pa.int64()),
            pa.field("n_members", pa.int64()),
        ]
    )

    def best_kernel(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        comp = group["component"].to_numpy()
        did = group["doc_id"].to_numpy()
        sc = group["score"].to_numpy()
        order = np.lexsort((did, -sc, comp))
        c, d, s = comp[order], did[order], sc[order]
        st = np.concatenate(([0], np.flatnonzero(c[1:] != c[:-1]) + 1))
        return pa.table(
            {
                "component": pa.array(c[st], pa.int64()),
                "keeper": pa.array(d[st], pa.int64()),
                "best_score": pa.array(s[st], pa.int64()),
                "n_members": pa.array(
                    np.diff(np.concatenate((st, [len(c)]))).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return hash_exchange(j, "component", best_kernel)


def q_keep_best_apply(sf_dir: str):
    """Apply the keep-best curation policy end-to-end: the SURVIVING
    corpus after collapsing each similarity component to its
    best-quality member (q_dedup_keep_best's policy — score ppm,
    ties to min doc_id).  Same physical plan as q_dedup_apply with the
    policy swapped: scores join the component labels through one
    bucketed hash join, the per-component kernel emits the DROPPED
    member ids directly (everything but the argmax row), and one
    anti-join shuffle prunes the corpus.  Nothing on the driver."""
    from ...stages.join import shuffle_hash_join
    from ...stages.text import text_stats_batch

    comps = q_dedup_components(sf_dir)

    def score_rows(b: pa.Table) -> pa.Table:
        s = text_stats_batch(b)
        tok = s["n_tokens"].to_numpy()
        stop = s["n_stopwords"].to_numpy()
        return pa.table(
            {
                "doc_id": s["doc_id"],
                "score": pa.array(
                    stop * np.int64(1_000_000) // np.maximum(tok, 1), pa.int64()
                ),
            }
        )

    scores = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score_rows, batch_format="pyarrow"
    )
    j = shuffle_hash_join(
        comps,
        scores,
        "doc_id",
        ["component"],
        ["score"],
        left_schema=pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("component", pa.int64())]
        ),
        right_schema=pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("score", pa.int64())]
        ),
    )

    drop_schema = pa.schema([pa.field("doc_id", pa.int64())])

    def dropped_kernel(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return drop_schema.empty_table()
        comp = group["component"].to_numpy()
        did = group["doc_id"].to_numpy()
        sc = group["score"].to_numpy()
        order = np.lexsort((did, -sc, comp))
        c, d = comp[order], did[order]
        st = np.zeros(len(c), dtype=bool)
        st[0] = True
        st[1:] = c[1:] != c[:-1]
        return pa.table({"doc_id": pa.array(d[~st], pa.int64())})

    dropped = hash_exchange(j, "component", dropped_kernel)
    docs = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return shuffle_hash_join(
        docs,
        dropped,
        "doc_id",
        ["lang", "n_chars"],
        [],
        how="anti",
        left_schema=pa.schema(
            [
                pa.field("doc_id", pa.int64()),
                pa.field("lang", pa.string()),
                pa.field("n_chars", pa.int64()),
            ]
        ),
        right_schema=drop_schema,
    )


def _build_keep_best_apply_sql() -> str:
    from .spatial import STOPWORDS_SQL

    return f"""
    WITH comp AS ({Q_DEDUP_COMPONENTS_SQL}),
    q AS (
      SELECT doc_id,
             (len(list_filter(string_split(text, ' '),
                              x -> x IN {STOPWORDS_SQL})) * 1000000)
               // GREATEST(len(string_split(text, ' ')), 1) AS score
      FROM documents
    ),
    j AS (SELECT c.component, c.doc_id, q.score
          FROM comp c JOIN q USING (doc_id)),
    g AS (SELECT component, MAX(score) AS best_score FROM j
          GROUP BY component),
    best AS (
      SELECT g.component, MIN(j.doc_id) AS keeper
      FROM g JOIN j ON j.component = g.component AND j.score = g.best_score
      GROUP BY g.component
    )
    SELECT d.doc_id, d.lang, d.n_chars FROM documents d
    WHERE NOT EXISTS (
      SELECT 1 FROM comp c JOIN best b ON b.component = c.component
      WHERE c.doc_id = d.doc_id AND c.doc_id <> b.keeper)
"""


def _build_keep_best_sql() -> str:
    from .spatial import STOPWORDS_SQL

    return f"""
    WITH comp AS ({Q_DEDUP_COMPONENTS_SQL}),
    q AS (
      SELECT doc_id,
             (len(list_filter(string_split(text, ' '),
                              x -> x IN {STOPWORDS_SQL})) * 1000000)
               // GREATEST(len(string_split(text, ' ')), 1) AS score
      FROM documents
    ),
    j AS (SELECT c.component, c.doc_id, q.score
          FROM comp c JOIN q USING (doc_id)),
    g AS (SELECT component, MAX(score) AS best_score,
                 CAST(COUNT(*) AS BIGINT) AS n_members
          FROM j GROUP BY component)
    SELECT g.component, CAST(MIN(j.doc_id) AS BIGINT) AS keeper,
           g.best_score, g.n_members
    FROM g JOIN j ON j.component = g.component AND j.score = g.best_score
    GROUP BY g.component, g.best_score, g.n_members
"""


def _build_minhash_sql(
    threshold: float = 0.5,
    docs_sql: str = "SELECT doc_id, text AS t FROM documents",
    final_sql: str | None = None,
) -> str:
    """Full SQL mirror of the MinHash+LSH pipeline: code-point shingle
    hashes (5-wide polynomial windows), the 64 splitmix64-derived
    permutations inlined as literals with the engine's exact
    wrap-mod-2^64-then-mod-p arithmetic, 8×8 banded blocking via
    list_reduce band hashes, and the k/64 signature-equality estimator
    (dyadic — hash-exact across engines).  ``docs_sql`` / ``final_sql``
    let the incremental variant reuse the same pipeline over an
    appended corpus with a different pair rollup."""
    from ...stages.dedup import minhash_coeffs

    a, b = minhash_coeffs(64, 7)
    H = "18446744073709551616::HUGEINT"
    P = "2305843009213693951::HUGEINT"
    BF = 1099511628211
    Bp = [pow(BF, k, 1 << 64) for k in range(5)]
    win = " + ".join(
        f"unicode(t[i+{j}:i+{j}])::HUGEINT * {Bp[4 - j]}::HUGEINT" for j in range(5)
    )
    sig_exprs = ",\n        ".join(
        f"list_min(list_transform(sh, h -> ((({int(a[k])}::HUGEINT * h) % {H} "
        f"+ {int(b[k])}::HUGEINT) % {H}) % {P}))"
        for k in range(64)
    )
    band_exprs = ",\n        ".join(
        f"list_reduce(list_prepend(0::HUGEINT, sig[{8 * j + 1}:{8 * j + 8}]), "
        f"(acc, x) -> (acc * {BF}::HUGEINT + x) % {H})"
        for j in range(8)
    )
    if final_sql is None:
        final_sql = f"""SELECT doc_a, doc_b, MAX(est) AS est_jaccard
    FROM pairs WHERE est >= {threshold} GROUP BY doc_a, doc_b"""
    return f"""
    WITH d AS ({docs_sql}),
    s AS (
      SELECT doc_id,
        CASE WHEN length(t) <= 5
          THEN [list_reduce(list_prepend(0::HUGEINT,
                 [unicode(t[i:i])::HUGEINT FOR i IN range(1, length(t)+1)]),
                 (acc, x) -> (acc * {BF}::HUGEINT + x) % {H})]
          ELSE list_distinct([ (({win}) % {H}) FOR i IN range(1, length(t) - 3) ])
        END AS sh
      FROM d
    ),
    sg AS (
      SELECT doc_id, [
        {sig_exprs}
      ] AS sig FROM s
    ),
    bands AS (
      SELECT doc_id, sig, unnest(range(8)) AS band,
             unnest([
        {band_exprs}
             ]) AS band_hash
      FROM sg
    ),
    pairs AS (
      SELECT x.doc_id AS doc_a, y.doc_id AS doc_b,
             len([k FOR k IN range(1, 65) IF x.sig[k] = y.sig[k]]) / 64.0 AS est
      FROM bands x JOIN bands y
        ON x.band = y.band AND x.band_hash = y.band_hash AND x.doc_id < y.doc_id
    )
    {final_sql}
"""


Q_MINHASH_SQL = _build_minhash_sql()


def q_minhash_near_dup(sf_dir: str):
    """MinHash+LSH near-dup candidate pairs over documents (est_jaccard
    ≥ 0.5); value-exact vs the full SQL pipeline mirror.  The candidate
    stage is the BUCKETED kernel (hash(band key) % 64 shuffle + one
    lexsort/run-boundary pass per bucket) — never one Python group call
    per distinct band bucket (cardinality ~8×docs at scale).  The one
    plan of the minhash oracle: the ``minhash_lean`` name runs it too."""
    from ...stages.dedup import MinHasher, lsh_band_explode, minhash_candidate_pairs

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    sigs = ds.map_batches(MinHasher(), batch_format="pyarrow")
    exploded = sigs.map_batches(lsh_band_explode, batch_format="pyarrow")
    pairs = minhash_candidate_pairs(exploded, threshold=0.5)
    from ...stages.dedup import pair_reduce

    return pair_reduce(pairs, "doc_a", "doc_b", "est_jaccard", how="max")


def _build_simhash_pairs_sql() -> str:
    """SQL mirror of the full simhash pipeline: per-token polynomial
    hash over code points (list_reduce) + murmur finalizer (split
    32×64 multiply keeps the HUGEINT products under 2^127), per-doc ±1
    bit vote, 4×16-bit band blocking, bit_count(xor) hamming ≤ 3.
    Assumes no band bucket exceeds the engine's quadratic-guard cap
    (200) — true for the synthetic corpus; the cap exists for
    adversarial skew at scale."""
    H = "18446744073709551616::HUGEINT"
    B = "1099511628211::HUGEINT"
    C = "18397679294719823053::HUGEINT"
    S33 = "8589934592::HUGEINT"
    S32 = "4294967296::HUGEINT"
    pw = ", ".join(f"{1 << k}::HUGEINT" for k in range(64))
    bandpw = ", ".join(f"{1 << (16 * k)}::HUGEINT" for k in range(4))
    return f"""
    WITH toks AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS tok FROM documents
    ),
    h0 AS (
      SELECT doc_id,
        list_reduce(
          list_prepend(0::HUGEINT, [unicode(tok[i:i])::HUGEINT FOR i IN range(1, length(tok)+1)]),
          (a, x) -> (a * {B} + x) % {H}) AS h
      FROM toks
    ),
    m1 AS (SELECT doc_id, xor(h, h // {S33}) AS h FROM h0),
    m2 AS (SELECT doc_id,
             ((((h // {S32}) * {C}) % {H}) * {S32} + (h % {S32}) * {C}) % {H} AS h
           FROM m1),
    hf AS (SELECT doc_id, xor(h, h // {S33}) AS h FROM m2),
    bp AS (SELECT unnest(range(64)) AS bit, unnest([{pw}]) AS p),
    bits AS (
      SELECT doc_id, bit,
             SUM(CASE WHEN (h // p) % 2 = 1 THEN 1 ELSE -1 END) AS acc
      FROM hf, bp GROUP BY doc_id, bit
    ),
    sim AS (
      SELECT bits.doc_id,
             SUM(CASE WHEN acc > 0 THEN p ELSE 0::HUGEINT END) AS simu
      FROM bits JOIN bp USING (bit) GROUP BY bits.doc_id
    ),
    s64 AS (
      SELECT doc_id, simu,
             CAST(simu - CASE WHEN simu >= 9223372036854775808::HUGEINT
                         THEN {H} ELSE 0::HUGEINT END AS BIGINT) AS sim64
      FROM sim
    ),
    bands AS (
      SELECT doc_id, sim64, b.range AS band,
             (simu // unnest_p.bpw) % 65536::HUGEINT AS band_val
      FROM s64, range(4) b,
           (SELECT unnest(range(4)) AS band2, unnest([{bandpw}]) AS bpw) unnest_p
      WHERE b.range = unnest_p.band2
    ),
    pairs AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             bit_count(xor(a.sim64, b.sim64)) AS ham
      FROM bands a JOIN bands b
        ON a.band = b.band AND a.band_val = b.band_val AND a.doc_id < b.doc_id
    )
    SELECT doc_a, doc_b, CAST(MIN(ham) AS BIGINT) AS hamming
    FROM pairs WHERE ham <= 3 GROUP BY doc_a, doc_b
"""


Q_SIMHASH_PAIRS_SQL = _build_simhash_pairs_sql()


def q_simhash_pairs(sf_dir: str):
    """SimHash hamming≤3 near-dup pairs (band blocking); value-exact
    vs the full SQL mirror (Q_SIMHASH_PAIRS_SQL).  Candidate stage is
    the bucketed kernel — one vectorized lexsort/popcount pass per
    shuffle bucket, never per distinct band value."""
    from ...stages.dedup import SimHasher, hamming_candidate_pairs, simhash_band_explode

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(SimHasher(), batch_format="pyarrow")
    exploded = hashed.map_batches(simhash_band_explode, batch_format="pyarrow")
    pairs = hamming_candidate_pairs(exploded, max_hamming=3)
    from ...stages.dedup import pair_reduce

    return pair_reduce(pairs, "doc_a", "doc_b", "hamming", how="min")


def q_fingerprints(sf_dir: str):
    """Rolling-hash document fingerprints (deterministic ints); the
    oracle reproduces the min-over-windows polynomial hash with
    arbitrary-precision HUGEINT arithmetic — value-exact."""
    from ...stages.text import fingerprint_batch

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        fingerprint_batch, batch_format="pyarrow"
    )


def _build_fingerprints_sql() -> str:
    from ...stages.text import _FP_BASE, _FP_WINDOW

    B = int(_FP_BASE)
    H = 1 << 64
    powers = [pow(B, k, H) for k in range(_FP_WINDOW)]
    terms = " + ".join(
        f"unicode(t[i+{j}:i+{j}]) * {powers[_FP_WINDOW - 1 - j]}::HUGEINT"
        for j in range(_FP_WINDOW)
    )
    return f"""
    WITH c AS (
      SELECT doc_id,
             CASE WHEN length(text) < {_FP_WINDOW}
                  THEN text || repeat(' ', {_FP_WINDOW} - length(text))
                  ELSE text END AS t
      FROM documents
    ),
    w AS (
      SELECT doc_id,
             list_min([ (({terms}) % 18446744073709551616::HUGEINT)
                        FOR i IN range(1, length(t) - {_FP_WINDOW - 2}) ]) AS hv
      FROM c
    )
    SELECT doc_id,
           CAST(hv - CASE WHEN hv >= 9223372036854775808::HUGEINT
                     THEN 18446744073709551616::HUGEINT ELSE 0::HUGEINT END
                AS BIGINT) AS fingerprint
    FROM w
"""


Q_FINGERPRINTS_SQL = _build_fingerprints_sql()


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-dup pairs via sign-LSH buckets.

    Threshold 0.35 suits the synthetic random-vector table (true
    near-dups don't exist there; this exercises the bucketing +
    verify machinery and keeps the output schema non-empty).  The
    deterministic Rademacher planes make the whole pipeline
    SQL-mirrorable; cosines are rounded to 4 dp for cross-engine
    value equality (gap ≫ fp error)."""
    from ...stages.dedup import EmbeddingLshBucket, EmbeddingNearDupPairs
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    bucketed = ds.map_batches(EmbeddingLshBucket(n_bits=8), batch_format="pyarrow")
    # an exact-key exchange: the kernel compares one sign-LSH bucket
    # (256 values) per call
    pairs = bucketed.map_batches(_lsh_bucket, batch_format="pyarrow").groupby(
        "lsh_bucket"
    ).map_groups(EmbeddingNearDupPairs(threshold=0.35), batch_format="pyarrow")
    from ...stages.dedup import pair_reduce

    agg = pair_reduce(pairs, "vec_a", "vec_b", "cosine", how="max")
    return agg.map_batches(
        lambda b: pa.table(
            {
                "vec_a": b["vec_a"],
                "vec_b": b["vec_b"],
                "cosine_r": pa.array(np.round(b["cosine"].to_numpy(), 4)),
            }
        ),
        batch_format="pyarrow",
    )


def _build_embedding_near_dup_sql() -> str:
    bucket = _sign_bucket_expr(n_bits=8, seed=13)
    return f"""
    WITH e AS (
      SELECT vec_id, CAST(embedding AS DOUBLE[]) AS embedding FROM embeddings
    ),
    eb AS (SELECT vec_id, embedding, {bucket} AS bucket FROM e),
    pairs AS (
      SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
             list_cosine_similarity(a.embedding, b.embedding) AS cos
      FROM eb a JOIN eb b ON a.bucket = b.bucket AND a.vec_id < b.vec_id
    )
    SELECT vec_a, vec_b, round(MAX(cos), 4) AS cosine_r
    FROM pairs WHERE cos >= 0.35 GROUP BY vec_a, vec_b
"""


Q_EMBEDDING_NEAR_DUP_SQL = _build_embedding_near_dup_sql()


Q_NGRAM_DEDUP_SQL = f"""
    WITH cand AS ({_build_minhash_sql(threshold=0.3)}),
    tx AS (
      SELECT doc_id,
             list_distinct([ text[i:i+4] FOR i IN range(1, greatest(2, length(text) - 3)) ]) AS sh
      FROM documents
    ),
    v AS (
      SELECT doc_a, doc_b,
             CAST(floor(100.0 * len(list_intersect(a.sh, b.sh))
                        / len(list_distinct(list_concat(a.sh, b.sh))) + 0.5) AS BIGINT) AS jaccard_pct
      FROM cand JOIN tx a ON a.doc_id = cand.doc_a
                JOIN tx b ON b.doc_id = cand.doc_b
    )
    SELECT doc_a, doc_b, jaccard_pct FROM v WHERE jaccard_pct >= 50
"""


def q_ngram_dedup(sf_dir: str):
    """N-gram Jaccard near-dup pairs: MinHash LSH proposes candidates
    (deterministic — the oracle reproduces the exact candidate set),
    the exact 5-gram Jaccard verifies ≥ 0.5 (integer percent,
    half-up) — value-exact vs the SQL mirror.

    Fully distributed, nothing on the driver: the candidate stage is
    the bucketed LSH kernel, duplicate pairs merge via ``pair_reduce``
    (one packed-int64 bucket shuffle), and the verify join never pulls
    texts to the driver — each pair explodes to (doc_id, pair_key,
    slot), ONE bucketed hash join attaches the corpus text to each
    slot, and a pair_key-bucketed regroup evaluates the exact Jaccard
    inside the bucket workers.  Two shuffles total, each O(candidates),
    regardless of corpus size."""
    from ...stages.dedup import (
        MinHasher,
        lsh_band_explode,
        minhash_candidate_pairs,
        ngram_jaccard_pct,
        pair_reduce,
    )
    from ...stages.join import shuffle_hash_join

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    sigs = ds.map_batches(MinHasher(), batch_format="pyarrow")
    exploded = sigs.map_batches(lsh_band_explode, batch_format="pyarrow")
    cand = minhash_candidate_pairs(exploded, threshold=0.3)
    cand = pair_reduce(cand, "doc_a", "doc_b", "est_jaccard", how="max")

    def explode_pairs(b: pa.Table) -> pa.Table:
        a = b["doc_a"].to_numpy().astype(np.uint64)
        bb = b["doc_b"].to_numpy().astype(np.uint64)
        key = ((a << np.uint64(32)) | bb).view(np.int64)
        n = len(a)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([a, bb]).astype(np.int64), pa.int64()
                ),
                "pair_key": pa.array(np.concatenate([key, key]), pa.int64()),
                "slot": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int64), np.ones(n, np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )

    pair_docs = cand.map_batches(explode_pairs, batch_format="pyarrow")
    joined = shuffle_hash_join(
        pair_docs,
        _read(sf_dir, "documents", ["doc_id", "text"]),
        "doc_id",
        ["pair_key", "slot"],
        ["text"],
        left_schema=pa.schema(
            [
                pa.field("doc_id", pa.int64()),
                pa.field("pair_key", pa.int64()),
                pa.field("slot", pa.int64()),
            ]
        ),
        right_schema=pa.schema(
            [pa.field("doc_id", pa.int64()), pa.field("text", pa.string())]
        ),
    )

    def verify_bucket(group: pa.Table) -> pa.Table:
        k = group["pair_key"].to_numpy()
        slot = group["slot"].to_numpy()
        order = np.lexsort((slot, k))
        k = k[order]
        texts = group["text"].take(pa.array(order)).to_pylist()
        starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        # every pair_key carries exactly its two slots (both docs exist
        # in the corpus); the exact shingle-set Jaccard is inherent
        # per-pair work, run here inside the bucket worker — bounded by
        # candidates/bucket, never on the driver
        jac = np.empty(len(starts), dtype=np.int64)
        for i, s in enumerate(starts):
            jac[i] = ngram_jaccard_pct(texts[s], texts[s + 1])
        uk = k[starts].view(np.uint64)
        out = pa.table(
            {
                "doc_a": pa.array(
                    (uk >> np.uint64(32)).astype(np.int64), pa.int64()
                ),
                "doc_b": pa.array(
                    (uk & np.uint64(0xFFFFFFFF)).astype(np.int64), pa.int64()
                ),
                "jaccard_pct": pa.array(jac, pa.int64()),
            }
        )
        return out.filter(pc.greater_equal(out["jaccard_pct"], 50))

    return hash_exchange(joined, "pair_key", verify_bucket)


CAPD_N = 2000


def q_caption_dedup(sf_dir: str):
    """Cross-modal caption dedup: normalize the IMAGE table's caption
    (strip the per-image ' #N' suffix with one vectorized RE2 pass),
    then keep one canonical image per normalized caption — the
    duplicate-caption collapse a vision-language corpus runs before
    training.  Per-batch partial (count + min keeper per caption)
    pre-aggregates before the caption-hash ``hash_exchange`` merge
    (normalized captions are rows-cardinality at 10^12 images)."""
    from ...sources.images import read_synth_image_meta

    def partial(b: pa.Table) -> pa.Table:
        norm = pc.replace_substring_regex(b["caption"], r" #\d+$", "")
        t = pa.table(
            {
                "caption": norm,
                "n_images": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                "keeper": b["image_id"],
            }
        )
        agg = pa.TableGroupBy(t, "caption").aggregate(
            [("n_images", "sum"), ("keeper", "min")]
        )
        agg = agg.rename_columns(["caption", "n_images", "keeper"])
        # deterministic across workers (Python hash() is per-process salted)
        import zlib

        h = np.array(
            [zlib.crc32(c.encode()) for c in agg["caption"].to_pylist()],
            dtype=np.int64,
        )
        return agg.append_column("caption_crc", pa.array(h))

    def merge(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "caption", use_threads=False).aggregate(
            [("n_images", "sum"), ("keeper", "min")]
        )
        return agg.select(["caption", "n_images_sum", "keeper_min"]).rename_columns(
            ["caption", "n_images", "keeper"]
        )

    ds = read_synth_image_meta(CAPD_N)
    return hash_exchange(ds.map_batches(partial, batch_format="pyarrow"), "caption_crc", merge)


def _build_caption_dedup_sql(n: int = CAPD_N) -> str:
    from ...sources.images import CAPTION_EXTRAS, CAPTION_PLACES, CAPTION_SUBJECTS

    def lst(words) -> str:
        return "[" + ", ".join(f"'{w}'" for w in words) + "]"

    return f"""
    WITH idx AS (SELECT unnest(range({n})) AS i),
    cap AS (
      SELECT list_extract({lst(CAPTION_SUBJECTS)}, CAST(i % 5 AS INT) + 1) || ' ' ||
             list_extract({lst(CAPTION_PLACES)}, CAST((i // 5) % 7 AS INT) + 1) || ' ' ||
             list_extract({lst(CAPTION_EXTRAS)}, CAST((i // 35) % 5 AS INT) + 1) AS caption,
             printf('img-%08d', CAST(i AS INT)) AS image_id
      FROM idx
    )
    SELECT caption,
           CAST(COUNT(*) AS BIGINT) AS n_images,
           MIN(image_id) AS keeper
    FROM cap GROUP BY caption
"""


def q_contamination(sf_dir: str):
    """Train/eval contamination detection (the decontamination pass an
    LLM pipeline runs before training): eval docs (doc_id % 50 == 0)
    are flagged when they share ANY 8-code-point window hash with a
    train doc; output is each eval doc's count of contaminating train
    docs.  Shape: per-doc distinct window hashes (stages/text.py::
    window_hashes_batch) → ONE hash-bucketed shuffle joins eval×train
    within buckets → ONE eval-bucketed shuffle dedups (eval, train)
    pairs and counts — all kernels lexsort/unique, no per-key
    Python.  At 10^12 docs the window set is winnowed; exactness here
    keeps the oracle bit-true."""
    from ...stages.text import window_hashes_batch

    return _contamination_pipeline(sf_dir, window_hashes_batch)


def q_contamination_winnow(sf_dir: str):
    """The SCALE variant of contamination: winnowed fingerprints
    (stages/text.py::winnowed_hashes_batch — per-16-window minima,
    Schleimer et al.) cut the hash exchange ~16× while keeping the
    guarantee that any shared run of ≥ 23 code points still collides.
    Same distributed shape, and still value-exact: winnowing is
    deterministic, so the oracle replays the window-of-windows argmin
    in SQL (list slicing + list_position-of-min, ties-first like
    numpy argmin)."""
    from ...stages.text import winnowed_hashes_batch

    return _contamination_pipeline(sf_dir, winnowed_hashes_batch)


def _contamination_pipeline(sf_dir: str, hash_batch):
    def prep(b: pa.Table) -> pa.Table:
        w = hash_batch(b)
        d = w["doc_id"].to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(d),
                "hv": pa.array(w["hv"].to_numpy()),
                "is_eval": pa.array((d % 50 == 0).astype(np.int64)),
            }
        )

    def join_bucket(group: pa.Table) -> pa.Table:
        h = group["hv"].to_numpy()
        d = group["doc_id"].to_numpy()
        ev = group["is_eval"].to_numpy().astype(bool)
        order = np.lexsort((d, h))
        h, d, ev = h[order], d[order], ev[order]
        starts = np.concatenate(([0], np.flatnonzero(h[1:] != h[:-1]) + 1))
        ends = np.concatenate((starts[1:], [len(h)]))
        # shed pure runs first: only hash runs containing BOTH sides
        # fan out (the loop is over mixed runs whose total body work
        # IS the output size — not a per-distinct-key dispatch)
        e_cnt = np.add.reduceat(ev.astype(np.int64), starts)
        n_cnt = ends - starts
        mixed = np.flatnonzero((e_cnt > 0) & (e_cnt < n_cnt))
        out_e, out_t = [], []
        for k in mixed:
            s, e = starts[k], ends[k]
            evs = d[s:e][ev[s:e]]
            trs = d[s:e][~ev[s:e]]
            out_e.append(np.repeat(evs, len(trs)))
            out_t.append(np.tile(trs, len(evs)))
        if not out_e:
            return pa.table(
                {"eval_doc": pa.array([], pa.int64()), "train_doc": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "eval_doc": pa.array(np.concatenate(out_e)),
                "train_doc": pa.array(np.concatenate(out_t)),
            }
        )

    def count_bucket(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "eval_doc", use_threads=False).aggregate(
            [("train_doc", "count_distinct")]
        )
        return agg.select(["eval_doc", "train_doc_count_distinct"]).rename_columns(
            ["eval_doc", "n_train"]
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = hash_exchange(ds.map_batches(prep, batch_format="pyarrow"), "hv", join_bucket)
    return hash_exchange(pairs, "eval_doc", count_bucket)


def _build_contamination_sql() -> str:
    from ...stages.text import _FP_BASE, _FP_WINDOW

    B = int(_FP_BASE)
    H = 1 << 64
    powers = [pow(B, k, H) for k in range(_FP_WINDOW)]
    terms = " + ".join(
        f"unicode(t[i+{j}:i+{j}]) * {powers[_FP_WINDOW - 1 - j]}::HUGEINT"
        for j in range(_FP_WINDOW)
    )
    return f"""
    WITH c AS (
      SELECT doc_id,
             CASE WHEN length(text) < {_FP_WINDOW}
                  THEN text || repeat(' ', {_FP_WINDOW} - length(text))
                  ELSE text END AS t
      FROM documents
    ),
    w AS (
      SELECT doc_id,
             unnest([ (({terms}) % 18446744073709551616::HUGEINT)
                      FOR i IN range(1, length(t) - {_FP_WINDOW - 2}) ]) AS hv
      FROM c
    ),
    d AS (SELECT DISTINCT doc_id, hv FROM w),
    ev AS (SELECT * FROM d WHERE doc_id % 50 = 0),
    tr AS (SELECT * FROM d WHERE doc_id % 50 <> 0),
    hits AS (
      SELECT DISTINCT ev.doc_id AS eval_doc, tr.doc_id AS train_doc
      FROM ev JOIN tr ON ev.hv = tr.hv
    )
    SELECT eval_doc, CAST(COUNT(*) AS BIGINT) AS n_train
    FROM hits GROUP BY eval_doc
"""


def q_substring_dedup(sf_dir: str):
    """Substring-level EXACT dedup (the Lee-et-al. "long repeated run"
    modality, the third dedup granularity next to whole-doc exact and
    near-dup): a doc is flagged when it shares an exact run of
    ≥ SUBSTR_RUN_LEN code points with a SMALLER-id doc; output is
    (doc_id, keeper) where keeper is the smallest such partner — the
    canonical-min drop decision.

    Shape: per-doc distinct L-window rolling hashes (stages/text.py::
    long_window_hashes_batch — shared run ≥ L ⟺ shared L-window hash)
    → ONE hash-bucketed shuffle; within each hv run the fan-out is
    LINEAR (every non-min doc pairs with the run min — never the
    quadratic pair product) → ONE doc-bucketed min merge.  At 10^12
    docs the winnowed fingerprints pre-filter candidates (see the
    kernel docstring); exhaustive windows here keep the oracle exact."""
    from ...stages.text import long_window_hashes_batch

    def flag_bucket(group: pa.Table) -> pa.Table:
        h = group["hv"].to_numpy()
        d = group["doc_id"].to_numpy()
        order = np.lexsort((d, h))
        h, d = h[order], d[order]
        starts = np.concatenate(([0], np.flatnonzero(h[1:] != h[:-1]) + 1))
        ends = np.concatenate((starts[1:], [len(h)]))
        # docs are sorted within each hv run: d[start] is the run min,
        # every later doc pairs with it — O(run length) fan-out
        run_min = np.repeat(d[starts], ends - starts)
        keep = d != run_min
        if not keep.any():
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "keeper": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "doc_id": pa.array(d[keep], pa.int64()),
                "keeper": pa.array(run_min[keep], pa.int64()),
            }
        )

    def min_bucket(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "doc_id", use_threads=False).aggregate([("keeper", "min")])
        return agg.select(["doc_id", "keeper_min"]).rename_columns(["doc_id", "keeper"])

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    windows = ds.map_batches(long_window_hashes_batch, batch_format="pyarrow")
    return hash_exchange(hash_exchange(windows, "hv", flag_bucket), "doc_id", min_bucket)


def _build_substring_dedup_sql() -> str:
    """SQL mirror of q_substring_dedup: the same L-term polynomial
    expansion as the contamination oracle, self-joined a.doc > b.doc,
    keeper = MIN(b.doc).  Note MIN over partners equals the engine's
    min-over-run-minima: in any shared hv run the run min IS the
    smallest partner."""
    from ...stages.text import _FP_BASE, SUBSTR_RUN_LEN

    L = SUBSTR_RUN_LEN
    B = int(_FP_BASE)
    H = 1 << 64
    powers = [pow(B, k, H) for k in range(L)]
    terms = " + ".join(
        f"unicode(t[i+{j}:i+{j}]) * {powers[L - 1 - j]}::HUGEINT" for j in range(L)
    )
    return f"""
    WITH c AS (
      SELECT doc_id,
             CASE WHEN length(text) < {L}
                  THEN text || repeat(' ', {L} - length(text))
                  ELSE text END AS t
      FROM documents
    ),
    w AS (
      SELECT doc_id,
             unnest([ (({terms}) % 18446744073709551616::HUGEINT)
                      FOR i IN range(1, length(t) - {L - 2}) ]) AS hv
      FROM c
    ),
    d AS (SELECT DISTINCT doc_id, hv FROM w)
    SELECT a.doc_id AS doc_id, CAST(MIN(b.doc_id) AS BIGINT) AS keeper
    FROM d a JOIN d b ON a.hv = b.hv AND a.doc_id > b.doc_id
    GROUP BY a.doc_id
"""


Q_SUBSTRING_DEDUP_SQL = _build_substring_dedup_sql()


def q_semantic_dedup(sf_dir: str):
    """SemDeDup-shaped semantic dedup: cluster the embedding space
    with the integer k-means (3 streamed iterations), then find each
    cluster's CLOSEST pair by exact quantized L2² — the candidate the
    curation pass would drop first.  Pairwise work never crosses
    clusters (the SemDeDup trick that makes 10^12-vector dedup
    tractable: O(Σ n_c²) ≪ O(n²)); within a cluster the pair matrix
    is chunked numpy.  k is bounded, so groupby(cluster) is a
    small exchange."""
    import pyarrow.parquet as pq

    from ...stages.linalg import kmeans_iterate, quantize_embeddings

    seed_t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", KMEANS_K)],
    ).sort_by("vec_id")
    init = quantize_embeddings(seed_t["embedding"].combine_chunks())
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    cent = kmeans_iterate(ds, "embedding", GRAM_DIM, KMEANS_K, init, KMEANS_ITERS)

    import ray

    cent_ref = ray.put(cent)

    def assign(b: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        q = quantize_embeddings(b["embedding"])
        d2 = (
            (q * q).sum(axis=1, keepdims=True)
            - 2 * (q @ c.T)
            + (c * c).sum(axis=1)[None, :]
        )
        t = pa.table(
            {
                "vec_id": b["vec_id"],
                "cluster": pa.array(np.argmin(d2, axis=1).astype(np.int64)),
            }
        )
        for dd in range(q.shape[1]):
            t = t.append_column(f"q{dd}", pa.array(q[:, dd]))
        return t

    def closest_pair(group: pa.Table) -> pa.Table:
        ids = group["vec_id"].to_numpy()
        q = np.column_stack(
            [group[f"q{dd}"].to_numpy() for dd in range(GRAM_DIM)]
        )
        n = len(ids)
        if n < 2:
            return pa.table(
                {
                    "cluster": pa.array([], pa.int64()),
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "d2": pa.array([], pa.int64()),
                }
            )
        order = np.argsort(ids)
        ids, q = ids[order], q[order]
        sq = (q * q).sum(axis=1)
        best = (np.iinfo(np.int64).max, -1, -1)
        CH = 512
        for s in range(0, n, CH):
            e = min(s + CH, n)
            d2 = sq[s:e, None] - 2 * (q[s:e] @ q.T) + sq[None, :]
            ii, jj = np.meshgrid(np.arange(s, e), np.arange(n), indexing="ij")
            mask = ii < jj
            if not mask.any():
                continue
            dd = d2[mask]
            k = int(np.lexsort((jj[mask], ii[mask], dd))[0])
            cand = (int(dd[k]), int(ids[ii[mask][k]]), int(ids[jj[mask][k]]))
            if cand < best:
                best = cand
        return pa.table(
            {
                "cluster": pa.array([int(group["cluster"][0].as_py())], pa.int64()),
                "doc_a": pa.array([best[1]], pa.int64()),
                "doc_b": pa.array([best[2]], pa.int64()),
                "d2": pa.array([best[0]], pa.int64()),
            }
        )

    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(closest_pair, batch_format="pyarrow")
    )


def _build_semantic_dedup_sql() -> str:
    D = GRAM_DIM
    dist = (
        "list_sum(list_transform(range(1, %d), i -> "
        "(a.qv[i] - b.qv[i]) * (a.qv[i] - b.qv[i])))" % (D + 1)
    )
    return f"""
    WITH {_kmeans_ctes()},
    pairs AS (
      SELECT a.c AS cluster, a.vec_id AS doc_a, b.vec_id AS doc_b,
             {dist} AS d2
      FROM af a JOIN af b ON a.c = b.c AND a.vec_id < b.vec_id
    )
    SELECT cluster, doc_a, doc_b, CAST(d2 AS BIGINT) AS d2 FROM (
      SELECT *, row_number() OVER (PARTITION BY cluster
                                   ORDER BY d2, doc_a, doc_b) AS rn
      FROM pairs
    ) WHERE rn = 1
"""


def _build_contamination_winnow_sql() -> str:
    from ...stages.text import _FP_BASE, _FP_WINDOW, WINNOW_W

    B = int(_FP_BASE)
    H = 1 << 64
    W = WINNOW_W
    powers = [pow(B, k, H) for k in range(_FP_WINDOW)]
    terms = " + ".join(
        f"unicode(t[i+{j}:i+{j}]) * {powers[_FP_WINDOW - 1 - j]}::HUGEINT"
        for j in range(_FP_WINDOW)
    )
    return f"""
    WITH c AS (
      SELECT doc_id,
             CASE WHEN length(text) < {_FP_WINDOW}
                  THEN text || repeat(' ', {_FP_WINDOW} - length(text))
                  ELSE text END AS t
      FROM documents
    ),
    hl AS (
      SELECT doc_id,
             [ (({terms}) % 18446744073709551616::HUGEINT)
               FOR i IN range(1, length(t) - {_FP_WINDOW - 2}) ] AS hs
      FROM c
    ),
    ks AS (
      SELECT doc_id, hs,
             CASE WHEN len(hs) <= {W}
                  THEN [list_position(hs, list_min(hs))]
                  ELSE list_distinct([ p + list_position(hs[p:p+{W - 1}],
                                       list_min(hs[p:p+{W - 1}])) - 1
                                       FOR p IN range(1, len(hs) - {W - 2}) ])
             END AS keeps
      FROM hl
    ),
    w AS (
      SELECT doc_id,
             unnest(list_distinct(list_transform(keeps, k -> hs[k]))) AS hv
      FROM ks
    ),
    d AS (SELECT DISTINCT doc_id, hv FROM w),
    ev AS (SELECT * FROM d WHERE doc_id % 50 = 0),
    tr AS (SELECT * FROM d WHERE doc_id % 50 <> 0),
    hits AS (
      SELECT DISTINCT ev.doc_id AS eval_doc, tr.doc_id AS train_doc
      FROM ev JOIN tr ON ev.hv = tr.hv
    )
    SELECT eval_doc, CAST(COUNT(*) AS BIGINT) AS n_train
    FROM hits GROUP BY eval_doc
"""


def _incr_split_texts_fn(M: int):
    """The deterministic re-crawl append batch: every doc_id % 7 doc
    re-arrives at id + M, every % 13 doc at id + 2M (verbatim text)."""

    def new_split_texts(b: pa.Table) -> pa.Table:
        d = b["doc_id"].to_numpy()
        a = b.filter(pa.array(d % 7 == 0))
        c = b.filter(pa.array(d % 13 == 0))
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate(
                        [a["doc_id"].to_numpy() + M, c["doc_id"].to_numpy() + 2 * M]
                    ),
                    pa.int64(),
                ),
                "text": pa.concat_arrays(
                    [a["text"].combine_chunks(), c["text"].combine_chunks()]
                ),
            }
        )

    return new_split_texts


def q_incremental_minhash(sf_dir: str, prior_sigs=None):
    """Incremental NEAR-dup dedup against persisted MinHash signatures
    — the append-only companion to q_incremental_dedup's exact path: a
    prior run saved (doc_id, sig[64]) per doc; the new crawl batch is
    shingled+signed, and candidates come from banding over prior+new
    signature rows WITHOUT re-reading or re-shingling the old corpus.
    Same re-crawl append model as the exact variant (doc_id % 7 → id +
    2^40, % 13 → id + 2^41).  Output per flagged new doc: keeper = the
    smallest prior/smaller-new near-dup partner (est_jaccard ≥ 0.5),
    n_dups = distinct such partners.

    Scale shape: band exchange + pair verify are the proven bucketed
    kernels (old×old pairs never pay the 64-wide verify — the flag
    rides the payload); the keeper rollup is one more ``hash_exchange``
    merge on the new doc.  ``prior_sigs`` defaults to
    signing the corpus inline, standing in for the persisted-parquet
    read that scripts/dedup_incremental_stress.py exercises.  The one
    plan of this oracle: the ``incremental_minhash_store`` name runs it
    too.  It keeps no state between runs."""
    from ...stages.dedup import (
        MinHasher,
        incremental_minhash_pairs,
        pair_reduce,
    )

    M = INCR_ID_OFFSET
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    new_sigs = docs.map_batches(
        _incr_split_texts_fn(M), batch_format="pyarrow"
    ).map_batches(MinHasher(), batch_format="pyarrow")
    if prior_sigs is None:
        prior_sigs = docs.map_batches(MinHasher(), batch_format="pyarrow")
    pairs = incremental_minhash_pairs(
        new_sigs, prior_sigs, threshold=0.5, new_min_id=M
    )
    pairs = pair_reduce(pairs, "doc_a", "doc_b", "est_jaccard", how="max")
    return _incr_keeper_rollup(pairs)


def _incr_keeper_rollup(pairs):
    """Per new doc (doc_b): min partner + distinct-partner count, one
    ``hash_exchange`` merge on doc_b (pairs arrive distinct from
    ``pair_reduce``, so the row count is the partner count)."""

    def keeper_kernel(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "doc_b", use_threads=False).aggregate(
            [("doc_a", "min"), ("doc_a", "count")]
        )
        return agg.select(["doc_b", "doc_a_min", "doc_a_count"]).rename_columns(
            ["doc_id", "keeper", "n_dups"]
        )

    return hash_exchange(pairs, "doc_b", keeper_kernel)


def _build_incremental_minhash_sql() -> str:
    """The full minhash mirror over the appended corpus, restricted to
    pairs whose GREATER id is new (new ids occupy the disjoint ≥ 2^40
    space, and the mirror's pairs are ordered doc_a < doc_b), rolled up
    to (new doc, min partner, distinct partners)."""
    M = INCR_ID_OFFSET
    docs_sql = f"""SELECT doc_id, text AS t FROM documents
      UNION ALL
      SELECT doc_id + {M} AS doc_id, text AS t
      FROM documents WHERE doc_id % 7 = 0
      UNION ALL
      SELECT doc_id + {2 * M} AS doc_id, text AS t
      FROM documents WHERE doc_id % 13 = 0"""
    final_sql = f"""SELECT doc_b AS doc_id, CAST(MIN(doc_a) AS BIGINT) AS keeper,
           CAST(COUNT(DISTINCT doc_a) AS BIGINT) AS n_dups
    FROM pairs WHERE est >= 0.5 AND doc_b >= {M}
    GROUP BY doc_b"""
    return _build_minhash_sql(docs_sql=docs_sql, final_sql=final_sql)


QUERIES = {
    "dedup_exact": Query(q_dedup_exact, Q_DEDUP_EXACT_SQL),
    "incremental_dedup": Query(q_incremental_dedup, Q_INCREMENTAL_DEDUP_SQL),
    "incremental_minhash": Query(
        q_incremental_minhash,
        _build_incremental_minhash_sql,
        aliases=("incremental_minhash_store",),
    ),
    "dedup_keep_best": Query(q_dedup_keep_best, _build_keep_best_sql),
    "keep_best_apply": Query(q_keep_best_apply, _build_keep_best_apply_sql),
    "normalized_dedup": Query(q_normalized_dedup, Q_NORMALIZED_DEDUP_SQL),
    "dedup_components": Query(q_dedup_components, Q_DEDUP_COMPONENTS_SQL),
    "dedup_apply": Query(q_dedup_apply, Q_DEDUP_APPLY_SQL),
    "safe_split": Query(q_safe_split, Q_SAFE_SPLIT_SQL),
    "minhash_near_dup": Query(
        q_minhash_near_dup, Q_MINHASH_SQL, aliases=("minhash_lean",)
    ),
    "simhash_pairs": Query(q_simhash_pairs, Q_SIMHASH_PAIRS_SQL),
    "fingerprints": Query(q_fingerprints, Q_FINGERPRINTS_SQL),
    "embedding_near_dup": Query(q_embedding_near_dup, Q_EMBEDDING_NEAR_DUP_SQL),
    "ngram_dedup": Query(q_ngram_dedup, Q_NGRAM_DEDUP_SQL),
    "caption_dedup": Query(q_caption_dedup, _build_caption_dedup_sql),
    "contamination": Query(q_contamination, _build_contamination_sql),
    "substring_dedup": Query(q_substring_dedup, Q_SUBSTRING_DEDUP_SQL),
    "semantic_dedup": Query(q_semantic_dedup, _build_semantic_dedup_sql),
    "contamination_winnow": Query(
        q_contamination_winnow, _build_contamination_winnow_sql
    ),
}
