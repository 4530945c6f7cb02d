"""Text-analysis queries: quality, lang-id, TF-IDF/BM25, BPE, curation."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ...stages.exchange import hash_exchange
from ._shared import Query, _cents, _read
from .spatial import STOPWORDS_SQL


def q_text_stats(sf_dir: str):
    """Per-language corpus stats (token / char / stopword sums)."""
    from ray.data.aggregate import Sum

    from ...stages.text import text_stats_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    stats = ds.map_batches(text_stats_batch, batch_format="pyarrow")
    return stats.groupby("lang").aggregate(
        Sum("n_chars", alias_name="sum_chars"),
        Sum("n_tokens", alias_name="sum_tokens"),
        Sum("n_stopwords", alias_name="sum_stopwords"),
    )


Q_TEXT_STATS_SQL = f"""
    SELECT lang,
           CAST(SUM(length(text)) AS BIGINT) AS sum_chars,
           CAST(SUM(len(string_split(text, ' '))) AS BIGINT) AS sum_tokens,
           CAST(SUM(len(list_filter(string_split(text, ' '), x -> x IN {STOPWORDS_SQL}))) AS BIGINT) AS sum_stopwords
    FROM documents GROUP BY lang
"""


def q_regex_tokens(sf_dir: str):
    """BPE-ish regex token counting per language: letter/digit/punct
    runs via one vectorized RE2 pass per batch (both Arrow and DuckDB
    use RE2 with identical semantics for this lookahead-free
    pattern)."""
    from ray.data.aggregate import Max, Sum

    from ...stages.text import regex_token_count_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    counts = ds.map_batches(regex_token_count_batch, batch_format="pyarrow")
    return counts.groupby("lang").aggregate(
        Sum("bpe_tokens", alias_name="sum_bpe_tokens"),
        Max("bpe_tokens", alias_name="max_bpe_tokens"),
    )


Q_REGEX_TOKENS_SQL = r"""
    SELECT lang,
           CAST(SUM(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+'))) AS BIGINT) AS sum_bpe_tokens,
           CAST(MAX(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+'))) AS BIGINT) AS max_bpe_tokens
    FROM documents GROUP BY lang
"""


CAPQ_N = 2000


def q_caption_stats(sf_dir: str):
    """Cross-modal caption analysis: the text kernels (char counting,
    whitespace tokenization) run over the IMAGE table's caption
    column, grouped by caption subject — the text-quality profile of
    a vision-language corpus.  Per-batch combiner pre-aggregates per
    subject (≤ 5 rows per block into the Sum exchange).  Value-exact:
    the oracle reconstructs every caption from the generator's index
    arithmetic and word lists in SQL — no literals of engine output."""
    from ray.data.aggregate import Sum

    from ...sources.images import CAPTION_SUBJECTS, read_synth_image_meta
    from ...stages.footprint import image_index

    def partial(b: pa.Table) -> pa.Table:
        n_chars = pc.utf8_length(b["caption"]).to_numpy().astype(np.int64)
        n_tokens = (
            pc.list_value_length(pc.split_pattern(b["caption"], " "))
            .to_numpy()
            .astype(np.int64)
        )
        idx = image_index(b).astype(np.int64)
        subj_idx = idx % 5
        t = pa.table(
            {
                "subject": pa.array(
                    np.asarray(CAPTION_SUBJECTS, dtype=object)[subj_idx], pa.string()
                ),
                "n_caps": pa.array(np.ones(len(idx), dtype=np.int64)),
                "sum_chars": pa.array(n_chars),
                "sum_tokens": pa.array(n_tokens),
            }
        )
        agg = pa.TableGroupBy(t, "subject").aggregate(
            [("n_caps", "sum"), ("sum_chars", "sum"), ("sum_tokens", "sum")]
        )
        return agg.rename_columns(["subject", "n_caps", "sum_chars", "sum_tokens"])

    ds = read_synth_image_meta(CAPQ_N)
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("subject")
        .aggregate(
            Sum("n_caps", alias_name="n_caps"),
            Sum("sum_chars", alias_name="sum_chars"),
            Sum("sum_tokens", alias_name="sum_tokens"),
        )
    )


def _build_caption_stats_sql(n: int = CAPQ_N) -> str:
    from ...sources.images import CAPTION_EXTRAS, CAPTION_PLACES, CAPTION_SUBJECTS

    def lst(words) -> str:
        return "[" + ", ".join(f"'{w}'" for w in words) + "]"

    return f"""
    WITH idx AS (SELECT unnest(range({n})) AS i),
    cap AS (
      SELECT list_extract({lst(CAPTION_SUBJECTS)}, CAST(i % 5 AS INT) + 1) AS subject,
             list_extract({lst(CAPTION_SUBJECTS)}, CAST(i % 5 AS INT) + 1) || ' ' ||
             list_extract({lst(CAPTION_PLACES)}, CAST((i // 5) % 7 AS INT) + 1) || ' ' ||
             list_extract({lst(CAPTION_EXTRAS)}, CAST((i // 35) % 5 AS INT) + 1) ||
             ' #' || CAST(i AS VARCHAR) AS caption
      FROM idx
    )
    SELECT subject,
           CAST(COUNT(*) AS BIGINT) AS n_caps,
           CAST(SUM(length(caption)) AS BIGINT) AS sum_chars,
           CAST(SUM(len(string_split(caption, ' '))) AS BIGINT) AS sum_tokens
    FROM cap GROUP BY subject
"""


Q_CAPTION_STATS_SQL = _build_caption_stats_sql()


def q_quality_filter(sf_dir: str):
    """Quality gate over documents with integer-exact bands (so the
    DuckDB oracle matches value-for-value): keep docs with 5 ≤ tokens
    ≤ 200 and ≥ 4% stopwords; report per-language kept count + chars."""
    from ray.data.aggregate import Count, Sum

    from ...stages.text import text_stats_batch

    def gate(batch: pa.Table) -> pa.Table:
        stats = text_stats_batch(batch)
        n_tok = stats["n_tokens"].to_numpy()
        n_stop = stats["n_stopwords"].to_numpy()
        keep = (n_tok >= 5) & (n_tok <= 200) & (n_stop * 25 >= n_tok)
        return stats.filter(pa.array(keep))

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    kept = ds.map_batches(gate, batch_format="pyarrow")
    return kept.groupby("lang").aggregate(
        Count(alias_name="n_kept"),
        Sum("n_chars", alias_name="sum_chars"),
    )


Q_QUALITY_FILTER_SQL = f"""
    WITH s AS (
      SELECT lang,
             length(text) AS n_chars,
             len(string_split(text, ' ')) AS n_tokens,
             len(list_filter(string_split(text, ' '), x -> x IN {STOPWORDS_SQL})) AS n_stop
      FROM documents
    )
    SELECT lang,
           CAST(COUNT(*) AS BIGINT) AS n_kept,
           CAST(SUM(n_chars) AS BIGINT) AS sum_chars
    FROM s
    WHERE n_tokens >= 5 AND n_tokens <= 200 AND n_stop * 25 >= n_tokens
    GROUP BY lang
"""


def q_lang_id(sf_dir: str):
    """Heuristic language ID scored against the table's own labels:
    per (true lang, predicted lang) confusion counts.  Model state
    (marker sets) lives in the LangId instance; the marker
    heuristic is mirrored in SQL (list_filter counts + the same
    first-strictly-greater tie-break) — value-exact."""
    from ray.data.aggregate import Count

    from ...stages.text import LangId

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    pred = ds.map_batches(LangId(), batch_format="pyarrow")
    return (
        pred.groupby(["lang", "lang_pred"])
        .aggregate(Count(alias_name="n"))
        .select_columns(["lang", "lang_pred", "n"])
    )


def _build_lang_id_sql() -> str:
    """SQL mirror of stages/text.LangId: per-language marker counts via
    list_filter; the prediction is the FIRST language (in marker-dict
    order en, de, fr, es, zh) whose score beats every later one and is
    > 0 — identical to the Python loop's strictly-greater update."""
    from ...stages.text import _LANG_MARKERS

    langs = list(_LANG_MARKERS)
    score_cols = []
    for lang in langs:
        members = ",".join(f"'{m}'" for m in sorted(_LANG_MARKERS[lang]))
        score_cols.append(
            f"len(list_filter(toks, x -> x IN ({members}))) AS s_{lang}"
        )
    cases = []
    for i, lang in enumerate(langs):
        conds = [f"s_{lang} > 0"] + [
            f"s_{lang} >= s_{other}" for other in langs[i + 1 :]
        ]
        cases.append(f"WHEN {' AND '.join(conds)} THEN '{lang}'")
    # earlier languages win ties because the Python loop only replaces
    # the best on a STRICTLY greater score — so lang i beats i+1.. on
    # >=, and has already lost to 0..i-1 when their WHEN fired first
    return f"""
    WITH t AS (SELECT lang, string_split(lower(text), ' ') AS toks FROM documents),
    sc AS (SELECT lang, {", ".join(score_cols)} FROM t),
    p AS (
      SELECT lang,
             CASE {" ".join(cases)} ELSE 'und' END AS lang_pred
      FROM sc
    )
    SELECT lang, lang_pred, CAST(COUNT(*) AS BIGINT) AS n
    FROM p GROUP BY lang, lang_pred
"""


Q_LANG_ID_SQL = _build_lang_id_sql()


COOC_WORD_TOP = 30
COOC_VOCAB = 100


def q_word_pairs(sf_dir: str):
    """Word co-occurrence (skip-gram statistics): the top pairs of
    TOP-100-VOCABULARY words appearing in the same document — the
    counting pass behind PMI / embedding training.  Phase 1 derives
    the vocabulary exactly (vocab_topk's aggregate, deterministic
    tie-break) and BROADCASTS the ≤100-word id map; phase 2 is the
    basket shape: doc-bucketed dedupe of (doc, word-id) pairs,
    offset-vectorized pair fan-out, pair-bucketed merge forwarding
    only per-bucket top-k into the bounded final sort."""
    import ray
    from ray.data.aggregate import Sum

    def term_rows(b: pa.Table) -> pa.Table:
        words = pc.split_pattern_regex(pc.utf8_lower(b["text"]), "[^a-z]+")
        n_per = pc.list_value_length(words).to_numpy().astype(np.int64)
        flat = words.combine_chunks().flatten() if isinstance(
            words, pa.ChunkedArray
        ) else words.flatten()
        doc = np.repeat(b["doc_id"].to_numpy(), n_per)
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(doc[keep], pa.int64()),
                "term": flat.filter(pa.array(keep)),
            }
        )

    # phase 1: exact top-100 vocabulary (same machinery as vocab_topk)
    def term_counts(b: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(b.select(["term"]), "term").aggregate(
            [([], "count_all")]
        )
        return agg.rename_columns(["term", "n"])

    terms = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        term_rows, batch_format="pyarrow"
    )
    vocab_rows = (
        terms.map_batches(term_counts, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "term"], descending=[True, False])
        .limit(COOC_VOCAB)
        .take_all()
    )  # ≤ 100 rows on the driver, then broadcast
    vocab = [r["term"] for r in vocab_rows]
    vocab_ref = ray.put({w: i for i, w in enumerate(vocab)})

    def word_ids(b: pa.Table) -> pa.Table:
        vmap = ray.get(vocab_ref)
        ids = np.array(
            [vmap.get(t, -1) for t in b["term"].to_pylist()], dtype=np.int64
        )
        keep = ids >= 0
        return pa.table(
            {"doc_id": pa.array(b["doc_id"].to_numpy()[keep]), "wid": pa.array(ids[keep])}
        )

    def _triu(group_keys, values):
        starts = np.concatenate(
            ([0], np.flatnonzero(group_keys[1:] != group_keys[:-1]) + 1)
        )
        lens = np.diff(np.concatenate((starts, [len(group_keys)])))
        out_a, out_b = [], []
        kmax = int(lens.max()) if len(lens) else 0
        for a in range(kmax - 1):
            m = lens > a + 1
            if not m.any():
                break
            nb = lens[m] - a - 1
            bstart = starts[m] + a + 1
            total = int(nb.sum())
            csum = np.concatenate(([0], np.cumsum(nb)[:-1]))
            idx = (
                np.arange(total, dtype=np.int64)
                - np.repeat(csum, nb)
                + np.repeat(bstart, nb)
            )
            out_b.append(values[idx])
            out_a.append(np.repeat(values[starts[m] + a], nb))
        if not out_a:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(out_a), np.concatenate(out_b)

    def doc_pairs(group: pa.Table) -> pa.Table:
        doc = group["doc_id"].to_numpy()
        wid = group["wid"].to_numpy()
        order = np.lexsort((wid, doc))
        doc, wid = doc[order], wid[order]
        keep = np.concatenate(
            ([True], (doc[1:] != doc[:-1]) | (wid[1:] != wid[:-1]))
        )
        doc, wid = doc[keep], wid[keep]
        a, b_ = _triu(doc, wid)
        key = a * COOC_VOCAB + b_
        key, cnt = np.unique(key, return_counts=True)
        return pa.table({"pair_key": pa.array(key), "n": pa.array(cnt.astype(np.int64))})

    def merge_topk(group: pa.Table) -> pa.Table:
        vmap = ray.get(vocab_ref)
        inv = list(vmap)  # insertion order == id order
        agg = pa.TableGroupBy(group, "pair_key", use_threads=False).aggregate([("n", "sum")])
        uk = agg["pair_key"].to_numpy()
        tot = agg["n_sum"].to_numpy()
        # decode to LEXICOGRAPHIC (word_a < word_b) pair order and cut
        # top-k with the same tie-break the final global sort uses —
        # an id-order cut could drop a boundary tie the lexicographic
        # order keeps
        pairs = [
            tuple(sorted((inv[v // COOC_VOCAB], inv[v % COOC_VOCAB])))
            for v in uk
        ]
        wa = np.array([p_[0] for p_ in pairs], dtype=object)
        wb = np.array([p_[1] for p_ in pairs], dtype=object)
        top = np.lexsort((wb, wa, -tot))[:COOC_WORD_TOP]
        return pa.table(
            {
                "word_a": pa.array(wa[top], pa.string()),
                "word_b": pa.array(wb[top], pa.string()),
                "n": pa.array(tot[top].astype(np.int64)),
            }
        )

    doc_words = terms.map_batches(word_ids, batch_format="pyarrow")
    return (
        hash_exchange(hash_exchange(doc_words, "doc_id", doc_pairs), "pair_key", merge_topk)
        .sort(["n", "word_a", "word_b"], descending=[True, False, False])
        .limit(COOC_WORD_TOP)
    )


Q_WORD_PAIRS_SQL = f"""
    WITH t AS (
      SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z]+')) AS term
      FROM documents
    ),
    tt AS (SELECT doc_id, term FROM t WHERE term <> ''),
    vocab AS (
      SELECT term, CAST(COUNT(*) AS BIGINT) AS n
      FROM tt GROUP BY term ORDER BY n DESC, term LIMIT {COOC_VOCAB}
    ),
    dv AS (SELECT DISTINCT tt.doc_id, tt.term FROM tt JOIN vocab USING (term)),
    p AS (
      SELECT a.term AS word_a, b.term AS word_b, CAST(COUNT(*) AS BIGINT) AS n
      FROM dv a JOIN dv b
        ON a.doc_id = b.doc_id AND a.term < b.term
      GROUP BY 1, 2
    )
    SELECT word_a, word_b, n FROM p
    ORDER BY n DESC, word_a, word_b LIMIT {COOC_WORD_TOP}
"""


def q_vocab_topk(sf_dir: str):
    """Vocabulary building: top-50 corpus terms by total occurrences —
    the canonical map-reduce word count.  One vectorized RE2 pass per
    batch (lower → split), per-batch value_counts combiner, ONE
    groupby(term) shuffle of (term, n) partials, then the small global
    top-k sort.  Ties broken by term so the cut at rank 50 is
    deterministic."""
    from ray.data.aggregate import Sum

    def term_counts(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), "[^a-z]+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table(
            {"term": vc.field("values"), "n": vc.field("counts").cast(pa.int64())}
        )

    ds = _read(sf_dir, "documents", ["text"])
    counts = (
        ds.map_batches(term_counts, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
    )
    return counts.sort(["n", "term"], descending=[True, False]).limit(50)


Q_VOCAB_TOPK_SQL = """
    WITH t AS (
      SELECT unnest(string_split_regex(lower(text), '[^a-z]+')) AS term
      FROM documents
    )
    SELECT term, CAST(COUNT(*) AS BIGINT) AS n
    FROM t WHERE term <> ''
    GROUP BY term ORDER BY n DESC, term LIMIT 50
"""


def q_tfidf_topterms(sf_dir: str):
    """TF-IDF feature extraction: each document's top-3 terms from the
    top-100-by-df corpus vocabulary, scored tf × idf with integer
    arithmetic (idf_scaled = (N·10⁶) // df) so the oracle mirrors it
    exactly.  Two passes over the corpus — the unavoidable shape: a
    global df aggregate (term,n partials only on the wire), then a
    broadcast of the 100-term vocabulary into a shuffle-free scoring
    pass (a doc's terms are derived in-batch, so per-batch top-k is
    final).  The driver pulls exactly V=100 vocabulary rows — bounded
    regardless of corpus size."""
    from ray.data.aggregate import Sum

    from ...stages.text import (
        TFIDF_SCALE,
        df_partial_from_tf,
        doc_term_tf_batch,
        make_tfidf_scorer,
    )

    V, K = 100, 3
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = _read(sf_dir, "documents", ["doc_id"]).count()
    df = (
        docs.map_batches(
            lambda b: df_partial_from_tf(doc_term_tf_batch(b)),
            batch_format="pyarrow",
        )
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
    )
    vocab = df.sort(["df", "term"], descending=[True, False]).limit(V).take_all()
    terms = np.array([r["term"] for r in vocab])
    idf = np.array(
        [(n_docs * TFIDF_SCALE) // r["df"] for r in vocab], dtype=np.int64
    )
    order = np.argsort(terms)
    scorer = make_tfidf_scorer(terms[order], idf[order], K)
    return docs.map_batches(scorer, batch_format="pyarrow")


Q_TFIDF_SQL = """
    WITH tok AS (
      SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z]+')) AS term
      FROM documents
    ),
    t AS (
      SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
      FROM tok WHERE term <> '' GROUP BY doc_id, term
    ),
    df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM t GROUP BY term),
    v AS (
      SELECT term, ((SELECT COUNT(*) FROM documents) * 1000000) // df AS idf_s
      FROM df ORDER BY df DESC, term LIMIT 100
    ),
    s AS (
      SELECT t.doc_id, t.term, t.tf, t.tf * v.idf_s AS score
      FROM t JOIN v ON t.term = v.term
    ),
    r AS (
      SELECT *, ROW_NUMBER() OVER (
               PARTITION BY doc_id ORDER BY score DESC, term) AS rank
      FROM s
    )
    SELECT doc_id, term, tf, CAST(score AS BIGINT) AS score,
           CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= 3
"""


TOKEN_SHARD_BUDGET = 4096


def q_token_shards(sf_dir: str):
    """Token-budget shard packing (LLM training-data step): documents
    are packed into fixed-token-budget shards contiguously in doc_id
    order per source — shard = exclusive-prefix-sum(tokens) //
    BUDGET.  Source cardinality is small (tens), so co-locating one
    source per group is NOT the forbidden rows-cardinality pattern;
    within a group ONE argsort + cumsum assigns every shard.  At
    100 TB the per-source scan becomes a two-pass distributed prefix
    sum (per-block partials, then block-offset broadcast) — same
    math, documented here as the scale path."""

    def tok_count(b: pa.Table) -> pa.Table:
        toks = (
            pc.list_value_length(pc.split_pattern(b["text"], " "))
            .to_numpy()
            .astype(np.int64)
        )
        return pa.table(
            {"doc_id": b["doc_id"], "source": b["source"], "tok": pa.array(toks)}
        )

    def pack(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy()
        t = group["tok"].to_numpy()
        order = np.argsort(d, kind="stable")
        d, t = d[order], t[order]
        ex = np.cumsum(t) - t  # exclusive prefix sum
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "source": pa.array(group["source"].to_numpy(zero_copy_only=False)[order], pa.string()),
                "tok": pa.array(t, pa.int64()),
                "shard": pa.array(ex // TOKEN_SHARD_BUDGET, pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])
    return (
        ds.map_batches(tok_count, batch_format="pyarrow")
        .groupby("source")
        .map_groups(pack, batch_format="pyarrow")
    )


Q_TOKEN_SHARDS_SQL = f"""
    SELECT doc_id, source, tok,
           CAST(COALESCE(SUM(tok) OVER (
                PARTITION BY source ORDER BY doc_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                // {TOKEN_SHARD_BUDGET} AS BIGINT) AS shard
    FROM (
      SELECT doc_id, source,
             CAST(len(string_split(text, ' ')) AS BIGINT) AS tok
      FROM documents
    )
"""


def q_data_mixture(sf_dir: str):
    """Deterministic source-mixture resampling (the data-mixing step
    of an LLM pipeline): each source gets a target sampling rate in
    basis points derived from its numeric suffix; a doc survives iff
    knuth_hash(doc_id) % 10000 < rate.  Hash-gated keep/drop is a
    stateless vectorized filter — no shuffle until the tiny per-source
    count aggregate.  Resampling 100 TB this way is one streaming
    pass with a ≤ #sources-row result."""
    from ray.data.aggregate import Sum

    def mix(b: pa.Table) -> pa.Table:
        doc = b["doc_id"].to_numpy().astype(np.uint64)
        src = b["source"].to_numpy(zero_copy_only=False)
        srcnum = np.array([int(s[3:]) for s in src], dtype=np.int64)
        rate_bp = 300 + 700 * (srcnum % 10)
        h = ((doc % np.uint64(2**32)) * np.uint64(2654435761)) % np.uint64(2**32)
        keep = (h % np.uint64(10000)).astype(np.int64) < rate_bp
        t = pa.table(
            {
                "source": pa.array(src[keep], pa.string()),
                "n_kept": pa.array(np.ones(int(keep.sum()), dtype=np.int64)),
                "sum_chars": pa.array(b["n_chars"].to_numpy()[keep]),
            }
        )
        agg = pa.TableGroupBy(t, "source").aggregate(
            [("n_kept", "sum"), ("sum_chars", "sum")]
        )
        return agg.rename_columns(["source", "n_kept", "sum_chars"])

    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    return (
        ds.map_batches(mix, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_kept", alias_name="n_kept"), Sum("sum_chars", alias_name="sum_chars"))
    )


Q_DATA_MIXTURE_SQL = """
    SELECT source,
           CAST(COUNT(*) AS BIGINT) AS n_kept,
           CAST(SUM(n_chars) AS BIGINT) AS sum_chars
    FROM documents
    WHERE (((doc_id % 4294967296) * 2654435761) % 4294967296) % 10000
          < 300 + 700 * (CAST(substr(source, 4) AS BIGINT) % 10)
    GROUP BY source
"""


def q_bm25_topterms(sf_dir: str):
    """BM25 feature extraction (integer-exact variant, k1=6/5 b=3/4):
    each document's top-3 vocabulary terms with length-normalized
    saturation — same two-pass shape as TF-IDF (global df aggregate →
    broadcast V=100 vocab into shuffle-free in-batch scoring) plus two
    corpus scalars (doc count, Σ doc length) folded from per-batch
    partials.  Denominator-cleared integer arithmetic makes every
    score mirror exactly (stages/text.py::make_bm25_scorer)."""
    from ray.data.aggregate import Sum

    from ...stages.text import (
        TFIDF_SCALE,
        df_partial_from_tf,
        doc_term_tf_batch,
        make_bm25_scorer,
    )

    V, K = 100, 3
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def len_partial(b: pa.Table) -> pa.Table:
        # one pass yields BOTH corpus scalars (doc count + Σ tokens)
        tf = doc_term_tf_batch(b)
        return pa.table(
            {
                "tok": pa.array([int(tf["tf"].to_numpy().sum())], pa.int64()),
                "nd": pa.array([b.num_rows], pa.int64()),
            }
        )

    scalars = docs.map_batches(len_partial, batch_format="pyarrow").aggregate(
        Sum("tok", alias_name="tok"), Sum("nd", alias_name="nd")
    )
    total_tokens = int(scalars["tok"])
    n_docs = int(scalars["nd"])
    df = (
        docs.map_batches(
            lambda b: df_partial_from_tf(doc_term_tf_batch(b)),
            batch_format="pyarrow",
        )
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
    )
    vocab = df.sort(["df", "term"], descending=[True, False]).limit(V).take_all()
    terms = np.array([r["term"] for r in vocab])
    idf = np.array(
        [(n_docs * TFIDF_SCALE) // r["df"] for r in vocab], dtype=np.int64
    )
    order = np.argsort(terms)
    scorer = make_bm25_scorer(terms[order], idf[order], K, n_docs, total_tokens)
    return docs.map_batches(scorer, batch_format="pyarrow")


Q_BM25_SQL = """
    WITH tok AS (
      SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z]+')) AS term
      FROM documents
    ),
    t AS (
      SELECT doc_id, term, CAST(COUNT(*) AS BIGINT) AS tf
      FROM tok WHERE term <> '' GROUP BY doc_id, term
    ),
    dl AS (SELECT doc_id, CAST(SUM(tf) AS BIGINT) AS doc_len FROM t GROUP BY doc_id),
    corpus AS (
      SELECT (SELECT COUNT(*) FROM documents) AS n,
             (SELECT SUM(doc_len) FROM dl) AS tt
    ),
    df AS (SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM t GROUP BY term),
    v AS (
      SELECT term, ((SELECT COUNT(*) FROM documents) * 1000000) // df AS idf_s
      FROM df ORDER BY df DESC, term LIMIT 100
    ),
    s AS (
      SELECT t.doc_id, t.term, t.tf, dl.doc_len,
             (44 * v.idf_s * t.tf * c.tt)
             // (20 * c.tt * t.tf + 6 * c.tt + 18 * dl.doc_len * c.n) AS score
      FROM t
      JOIN v ON t.term = v.term
      JOIN dl ON dl.doc_id = t.doc_id
      CROSS JOIN corpus c
    ),
    r AS (
      SELECT *, ROW_NUMBER() OVER (
               PARTITION BY doc_id ORDER BY score DESC, term) AS rank
      FROM s
    )
    SELECT doc_id, term, tf, doc_len, CAST(score AS BIGINT) AS score,
           CAST(rank AS BIGINT) AS rank
    FROM r WHERE rank <= 3
"""


def q_props_extract(sf_dir: str):
    """Semi-structured field extraction (the log-parsing step): pull
    the integer ``k`` out of the JSON-ish ``props`` string with ONE
    vectorized RE2 pass per batch (pyarrow extract_regex — never a
    per-row json.loads), decade-bucket it, and aggregate count +
    value-cents per (event_type, k_bucket).  Per-batch combiner
    pre-aggregates, so the exchange moves ≤ types×buckets rows per
    block."""
    from ray.data.aggregate import Sum

    def extract(b: pa.Table) -> pa.Table:
        m = pc.extract_regex(b["props"], r'"k": (?P<k>\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        t = pa.table(
            {
                "event_type": b["event_type"],
                "k_bucket": pa.array((k // 10).astype(np.int64)),
                "n": pa.array(np.ones(len(k), dtype=np.int64)),
                "sum_value_c": pa.array(_cents(b["value"].to_numpy())),
            }
        )
        agg = pa.TableGroupBy(t, ["event_type", "k_bucket"]).aggregate(
            [("n", "sum"), ("sum_value_c", "sum")]
        )
        return agg.rename_columns(["event_type", "k_bucket", "n", "sum_value_c"])

    ds = _read(sf_dir, "events", ["event_type", "props", "value"])
    return (
        ds.map_batches(extract, batch_format="pyarrow")
        .groupby(["event_type", "k_bucket"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_value_c", alias_name="sum_value_c"))
    )


Q_PROPS_EXTRACT_SQL = """
    SELECT event_type,
           CAST(CAST(regexp_extract(props, '"k": (\\d+)', 1) AS BIGINT) // 10 AS BIGINT) AS k_bucket,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_c
    FROM events
    GROUP BY 1, 2
"""


def _winnow_hash_ctes(src: str, prefix: str) -> str:
    """CTE fragment: ``{prefix}w(doc_id, hv)`` = DISTINCT winnowed
    window hashes of the docs in CTE ``src`` (must expose doc_id,
    text) — the SQL twin of stages/text.py::winnowed_hashes_batch."""
    from ...stages.text import _FP_BASE, _FP_WINDOW, WINNOW_W

    B = int(_FP_BASE)
    H = 1 << 64
    W = WINNOW_W
    powers = [pow(B, k, H) for k in range(_FP_WINDOW)]
    terms = " + ".join(
        f"unicode(t[i+{j}:i+{j}]) * {powers[_FP_WINDOW - 1 - j]}::HUGEINT"
        for j in range(_FP_WINDOW)
    )
    return f"""{prefix}c AS (
      SELECT doc_id,
             CASE WHEN length(text) < {_FP_WINDOW}
                  THEN text || repeat(' ', {_FP_WINDOW} - length(text))
                  ELSE text END AS t
      FROM {src}
    ),
    {prefix}hl AS (
      SELECT doc_id,
             [ (({terms}) % 18446744073709551616::HUGEINT)
               FOR i IN range(1, length(t) - {_FP_WINDOW - 2}) ] AS hs
      FROM {prefix}c
    ),
    {prefix}ks AS (
      SELECT doc_id, hs,
             CASE WHEN len(hs) <= {W}
                  THEN [list_position(hs, list_min(hs))]
                  ELSE list_distinct([ p + list_position(hs[p:p+{W - 1}],
                                       list_min(hs[p:p+{W - 1}])) - 1
                                       FOR p IN range(1, len(hs) - {W - 2}) ])
             END AS keeps
      FROM {prefix}hl
    ),
    {prefix}w AS (
      SELECT DISTINCT doc_id,
             unnest(list_distinct(list_transform(keeps, k -> hs[k]))) AS hv
      FROM {prefix}ks
    )"""


CURATION_CONTAM_MIN = 10
# broadcast fast path only while the eval split stays benchmark-sized;
# past this the decontamination gate switches to the bucketed-join plan
CURATION_EVAL_BROADCAST_MAX_DOCS = 200_000


def q_corpus_curation(sf_dir: str, scale_path: bool | None = None):
    """END-TO-END corpus curation — the composed LLM-training-data
    pipeline, stages chained the way a real job runs them, one result
    the oracle checks across ALL of them at once:

      1. drop the eval split (doc_id % 50 == 0) from training;
      2. quality gate (integer-exact: 5 ≤ tokens ≤ 200, stopword
         ratio ≥ 4%) — sheds before anything expensive;
      3. DECONTAMINATION: drop survivors sharing ≥ CURATION_CONTAM_MIN
         winnowed fingerprints with any eval doc.  Two physical plans,
         same answer: a size-guarded BROADCAST fast path for fixed
         benchmark evals (eval hashes computed DISTRIBUTED, pulled as
         one sorted int64 array, probed with np.isin — no per-row
         Python), and the corpus-fraction SCALE path (eval hashes stay
         a Dataset; one bucketed semi-join + doc-bucketed count + one
         anti-join — nothing eval-sized ever on the driver, the
         q_contamination shape);
      4. exact dedup among survivors (128-bit content hash, keeper =
         min doc_id, hash-bucketed lexsort merge);
      5. per-source corpus report (bounded groupby).

    Every stage reuses the already-oracle-checked kernels; the
    composition is what this query pins.  ``scale_path=None`` picks by
    eval-split size (parquet metadata count, no execution)."""
    import ray

    from ...stages.dedup import content_hash_batch
    from ...stages.join import shuffle_hash_join
    from ...stages.text import _STOPWORDS, winnowed_hashes_batch

    # eval fingerprints computed DISTRIBUTED (never a driver-side read
    # of the corpus): filter to the eval split inside map_batches, one
    # winnowed-hash kernel call per block
    def eval_hashes(b: pa.Table) -> pa.Table:
        t = b.filter(pa.array(b["doc_id"].to_numpy() % 50 == 0))
        wh = winnowed_hashes_batch(t)
        return pa.table({"hv": wh["hv"]})

    ev_ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        eval_hashes, batch_format="pyarrow"
    )

    if scale_path is None:
        # metadata-only row count: eval split is 2% of docs
        n_docs = _read(sf_dir, "documents", ["doc_id"]).count()
        scale_path = (n_docs // 50) > CURATION_EVAL_BROADCAST_MAX_DOCS

    def quality_gate(b: pa.Table) -> pa.Table:
        doc = b["doc_id"].to_numpy()
        keep_train = doc % 50 != 0
        toks = pc.list_value_length(pc.split_pattern(b["text"], " ")).to_numpy()
        # stopword count via is_in over the flattened tokens
        tl = pc.split_pattern(b["text"], " ")
        flat = pc.list_flatten(tl)
        parent = pc.list_parent_indices(tl)
        stop_hits = pc.is_in(flat, value_set=pa.array(list(_STOPWORDS))).to_numpy(
            zero_copy_only=False
        )
        n_stop = np.zeros(b.num_rows, dtype=np.int64)
        np.add.at(n_stop, parent.to_numpy(), stop_hits.astype(np.int64))
        quality = (toks >= 5) & (toks <= 200) & (n_stop * 25 >= toks)
        return b.filter(pa.array(keep_train & quality))

    def finish(kept: pa.Table) -> pa.Table:
        hashed = content_hash_batch(kept)
        toks_kept = (
            pc.list_value_length(pc.split_pattern(kept["text"], " "))
            .to_numpy()
            .astype(np.int64)
        )
        return pa.table(
            {
                "doc_id": kept["doc_id"],
                "source": kept["source"],
                "tok": pa.array(toks_kept),
                "h_lo": hashed["content_hash"],
                "h_hi": hashed["content_hash_hi"],
            }
        )

    def dedup_merge(group: pa.Table) -> pa.Table:
        d = group["doc_id"].to_numpy()
        lo = group["h_lo"].to_numpy()
        hi = group["h_hi"].to_numpy()
        order = np.lexsort((d, hi, lo))
        lo, hi, d = lo[order], hi[order], d[order]
        first = np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
        take = pa.array(order[np.flatnonzero(first)].astype(np.int64))
        out = group.take(take)
        return out.select(["doc_id", "source", "tok"])

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "source", "text"])

    if not scale_path:
        # ---- broadcast fast path: eval hashes → ONE sorted int64
        # array on the driver (bounded by the guard above), vectorized
        # np.isin probes — no per-row Python membership anywhere
        parts = [t["hv"].to_numpy() for t in ray.get(ev_ds.to_arrow_refs())]
        ev = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.int64)
        ev_ref = ray.put(ev)

        def gate(b: pa.Table) -> pa.Table:
            evs = ray.get(ev_ref)
            kept = quality_gate(b)
            if kept.num_rows:
                wh = winnowed_hashes_batch(kept)
                wd = wh["doc_id"].to_numpy()
                whv = wh["hv"].to_numpy()
                hit = np.isin(whv, evs)
                # strong-overlap rule: a doc is contaminated when ≥
                # CURATION_CONTAM_MIN of its DISTINCT winnowed hashes
                # appear in the eval set (one shared n-gram is
                # background noise in a shared-vocabulary corpus)
                du, dc = np.unique(wd[hit], return_counts=True)
                dirty = du[dc >= CURATION_CONTAM_MIN]
                clean = ~np.isin(kept["doc_id"].to_numpy(), dirty)
                kept = kept.filter(pa.array(clean))
            return finish(kept)

        staged = ds.map_batches(gate, batch_format="pyarrow")
    else:
        # ---- corpus-fraction scale path: eval hashes stay a Dataset.
        # gated train hashes semi-join the eval set on hv (one bucketed
        # exchange), per-doc hit counts merge in ONE doc-bucketed
        # lexsort kernel, dirty ids anti-join the survivor stream —
        # nothing proportional to the eval split touches the driver.
        gated = ds.map_batches(quality_gate, batch_format="pyarrow")

        def train_hashes(b: pa.Table) -> pa.Table:
            return winnowed_hashes_batch(b)

        hits = shuffle_hash_join(
            gated.map_batches(train_hashes, batch_format="pyarrow"),
            ev_ds,
            "hv",
            ["doc_id"],
            [],
            how="semi",
            left_schema=pa.schema(
                [pa.field("doc_id", pa.int64()), pa.field("hv", pa.int64())]
            ),
            right_schema=pa.schema([pa.field("hv", pa.int64())]),
        )

        def dirty_in_bucket(group: pa.Table) -> pa.Table:
            d = np.sort(group["doc_id"].to_numpy())
            first = np.concatenate(([True], d[1:] != d[:-1]))
            starts = np.flatnonzero(first)
            counts = np.diff(np.append(starts, len(d)))
            dirty = d[starts[counts >= CURATION_CONTAM_MIN]]
            return pa.table({"doc_id": pa.array(dirty, pa.int64())})

        dirty_ds = hash_exchange(hits, "doc_id", dirty_in_bucket)

        clean = shuffle_hash_join(
            gated,
            dirty_ds,
            "doc_id",
            ["source", "text"],
            [],
            how="anti",
            left_schema=pa.schema(
                [
                    pa.field("doc_id", pa.int64()),
                    pa.field("source", pa.string()),
                    pa.field("text", pa.string()),
                ]
            ),
            right_schema=pa.schema([pa.field("doc_id", pa.int64())]),
        )
        staged = clean.map_batches(finish, batch_format="pyarrow")

    survivors = hash_exchange(staged, "h_lo", dedup_merge)

    def src_partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "source": b["source"],
                "n_docs": pa.array(np.ones(b.num_rows, dtype=np.int64)),
                "sum_tokens": b["tok"],
            }
        )
        agg = pa.TableGroupBy(t, "source").aggregate(
            [("n_docs", "sum"), ("sum_tokens", "sum")]
        )
        return agg.rename_columns(["source", "n_docs", "sum_tokens"])

    return (
        survivors.map_batches(src_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("sum_tokens", alias_name="sum_tokens"))
    )


def _build_corpus_curation_sql() -> str:
    CURATION = CURATION_CONTAM_MIN
    return f"""
    WITH ev0 AS (SELECT doc_id, text FROM documents WHERE doc_id % 50 = 0),
    {_winnow_hash_ctes("ev0", "e_")},
    q AS (
      SELECT doc_id, source, text,
             len(string_split(text, ' ')) AS tok,
             len(list_filter(string_split(text, ' '), x -> x IN {STOPWORDS_SQL})) AS n_stop
      FROM documents WHERE doc_id % 50 <> 0
    ),
    qk AS (
      SELECT * FROM q
      WHERE tok >= 5 AND tok <= 200 AND n_stop * 25 >= tok
    ),
    {_winnow_hash_ctes("qk", "t_")},
    dirty AS (
      SELECT t_w.doc_id, COUNT(*) AS n_shared
      FROM t_w JOIN (SELECT DISTINCT hv FROM e_w) e ON t_w.hv = e.hv
      GROUP BY t_w.doc_id
    ),
    clean AS (
      SELECT qk.* FROM qk
      LEFT JOIN dirty ON dirty.doc_id = qk.doc_id
      WHERE COALESCE(dirty.n_shared, 0) < {CURATION}
    ),
    ded AS (
      SELECT * FROM clean
      QUALIFY ROW_NUMBER() OVER (PARTITION BY text ORDER BY doc_id) = 1
    )
    SELECT source,
           CAST(COUNT(*) AS BIGINT) AS n_docs,
           CAST(SUM(tok) AS BIGINT) AS sum_tokens
    FROM ded GROUP BY source
"""


BPE_ROUNDS = 3
BPE_SEP = "·"


def q_bpe_merges(sf_dir: str):
    """BPE tokenizer training (the canonical LLM preprocessing step),
    3 merge rounds over the corpus: per round, count every adjacent
    symbol pair (per-batch Counter partials → ONE bounded groupby —
    pair cardinality tracks the vocabulary, not rows), pick the global
    top pair (count DESC, pair lexicographic), broadcast it, and merge
    it corpus-wide with ONE vectorized literal replace per batch
    (pyarrow replace_substring — left-to-right non-overlapping,
    exactly DuckDB's replace()).  State lives in the separator-joined
    symbol string; the oracle unrolls the same three rounds as CTEs.
    Output: one row per round (merged pair + its count)."""
    from ray.data.aggregate import Sum

    SEP = BPE_SEP

    def to_symbols(b: pa.Table) -> pa.Table:
        joined = [SEP.join(t) for t in b["text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"], "sym": pa.array(joined, pa.string())})

    def pair_counts(b: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for s in b["sym"].to_pylist():
            toks = s.split(SEP)
            c.update(zip(toks, toks[1:]))
        if not c:
            return pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        a, bb, n = zip(*((k[0], k[1], v) for k, v in c.items()))
        return pa.table(
            {"a": pa.array(list(a), pa.string()), "b": pa.array(list(bb), pa.string()),
             "n": pa.array(list(n), pa.int64())}
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        to_symbols, batch_format="pyarrow"
    )
    merges = []
    for _ in range(BPE_ROUNDS):
        counts = (
            ds.map_batches(pair_counts, batch_format="pyarrow")
            .groupby(["a", "b"])
            .aggregate(Sum("n", alias_name="n"))
            .take_all()  # bounded: pairs over the current vocabulary
        )
        top = min(counts, key=lambda r: (-r["n"], r["a"], r["b"]))
        merges.append((top["a"], top["b"], int(top["n"])))
        pat, rep = top["a"] + SEP + top["b"], top["a"] + top["b"]

        def apply_merge(b: pa.Table, _p=pat, _r=rep) -> pa.Table:
            return pa.table(
                {
                    "doc_id": b["doc_id"],
                    "sym": pc.replace_substring(b["sym"], pattern=_p, replacement=_r),
                }
            )

        ds = ds.map_batches(apply_merge, batch_format="pyarrow")
    return pa.table(
        {
            "round": pa.array(np.arange(1, BPE_ROUNDS + 1, dtype=np.int64)),
            "sym_a": pa.array([m[0] for m in merges], pa.string()),
            "sym_b": pa.array([m[1] for m in merges], pa.string()),
            "pair_count": pa.array([m[2] for m in merges], pa.int64()),
        }
    )


def _build_bpe_sql() -> str:
    S = BPE_SEP
    ctes = [
        f"""s0 AS (
      SELECT doc_id,
             rtrim(regexp_replace(text, '(.)', '\\1{S}', 'g'), '{S}') AS sym
      FROM documents
    )"""
    ]
    for t in range(1, BPE_ROUNDS + 1):
        prev = f"s{t - 1}"
        ctes.append(
            f"""p{t} AS (
      SELECT pr[1] AS a, pr[2] AS b, COUNT(*) AS n FROM (
        SELECT unnest(list_zip(l[1:-2], l[2:-1])) AS pr
        FROM (SELECT string_split(sym, '{S}') AS l FROM {prev})
      ) WHERE pr[2] IS NOT NULL GROUP BY 1, 2
    ),
    t{t} AS (SELECT a, b, n FROM p{t} ORDER BY n DESC, a, b LIMIT 1),
    s{t} AS (
      SELECT s.doc_id,
             replace(s.sym, t.a || '{S}' || t.b, t.a || t.b) AS sym
      FROM {prev} s CROSS JOIN t{t} t
    )"""
        )
    rounds_sql = " UNION ALL ".join(
        f"SELECT CAST({t} AS BIGINT) AS round, a AS sym_a, b AS sym_b, CAST(n AS BIGINT) AS pair_count FROM t{t}"
        for t in range(1, BPE_ROUNDS + 1)
    )
    return "\n    WITH " + ",\n    ".join(ctes) + "\n    " + rounds_sql + "\n"


def q_bpe_tokenize(sf_dir: str):
    """BPE tokenization APPLY (the trainer's other half): run the 3
    learned merges over the corpus and emit each document's BPE token
    count — the sequence-length profile a trainer packs batches by.
    Same state representation as q_bpe_merges; counting is one split
    per doc, vectorized via list_value_length."""
    from ray.data.aggregate import Sum

    SEP = BPE_SEP

    def to_symbols(b: pa.Table) -> pa.Table:
        joined = [SEP.join(t) for t in b["text"].to_pylist()]
        return pa.table({"doc_id": b["doc_id"], "sym": pa.array(joined, pa.string())})

    def pair_counts(b: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for s in b["sym"].to_pylist():
            toks = s.split(SEP)
            c.update(zip(toks, toks[1:]))
        if not c:
            return pa.table(
                {"a": pa.array([], pa.string()), "b": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        a, bb, n = zip(*((k[0], k[1], v) for k, v in c.items()))
        return pa.table(
            {"a": pa.array(list(a), pa.string()), "b": pa.array(list(bb), pa.string()),
             "n": pa.array(list(n), pa.int64())}
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        to_symbols, batch_format="pyarrow"
    )
    for _ in range(BPE_ROUNDS):
        counts = (
            ds.map_batches(pair_counts, batch_format="pyarrow")
            .groupby(["a", "b"])
            .aggregate(Sum("n", alias_name="n"))
            .take_all()
        )
        top = min(counts, key=lambda r: (-r["n"], r["a"], r["b"]))
        pat, rep = top["a"] + SEP + top["b"], top["a"] + top["b"]

        def apply_merge(b: pa.Table, _p=pat, _r=rep) -> pa.Table:
            return pa.table(
                {
                    "doc_id": b["doc_id"],
                    "sym": pc.replace_substring(b["sym"], pattern=_p, replacement=_r),
                }
            )

        ds = ds.map_batches(apply_merge, batch_format="pyarrow")

    def count_tokens(b: pa.Table) -> pa.Table:
        n = pc.list_value_length(pc.split_pattern(b["sym"], SEP))
        return pa.table(
            {"doc_id": b["doc_id"], "n_bpe_tokens": pc.cast(n, pa.int64())}
        )

    return ds.map_batches(count_tokens, batch_format="pyarrow")


def _build_bpe_tokenize_sql() -> str:
    # reuse the trainer's CTE chain; count symbols of the final state
    chain = _build_bpe_sql()
    # strip the trailing UNION ALL select and keep the WITH chain
    head = chain.split("\n    SELECT CAST(1 AS BIGINT)")[0]
    return (
        head
        + f"""
    SELECT doc_id,
           CAST(len(string_split(sym, '{BPE_SEP}')) AS BIGINT) AS n_bpe_tokens
    FROM s{BPE_ROUNDS}
"""
    )


# ------------------------------------------------------------ bigram LM score

LM_SCALE = 1_000_000


def q_lm_score(sf_dir: str):
    """Bigram language-model quality scoring — the CCNet/KenLM-shaped
    filter every pretraining build runs: score each document by how
    "typical" its word sequences are under a model trained on the
    corpus itself.  The score is the mean corpus frequency of the
    doc's adjacent-token bigrams in parts-per-million (integer floor,
    positive operands — exact in both engines); perplexity's log is
    deliberately avoided so the oracle is arithmetic-exact.

    Scale shape (the rules the repo profiles mandate): bigram types
    and doc ids are both ~rows-cardinality, so NEITHER is ever a
    groupby key.  Two bounded exchanges:
      1. one row per bigram occurrence, hash-exchanged on the bigram
         (ha, hb) — every occurrence of a bigram lands in one bucket, so
         ONE lexsort/run-length kernel per bucket yields each
         occurrence's global count (the LM lookup is free: counts and
         occurrences are co-located by construction, no join), then a
         second in-kernel lexsort emits per-(bucket, doc) partial
         sums — wire out ∝ docs × buckets-touched, not occurrences;
      2. partials hash-exchanged on doc_id and summed per doc.
    At 10^12 docs the occurrence exchange is the same volume as the
    contamination window exchange (∝ total tokens); score sums stay
    < 2^63 for corpora up to ~10^6 mean bigram frequency × 10^9-token
    docs — far past any real corpus."""
    from ...stages.text import token_bigram_rows

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    rows = ds.map_batches(token_bigram_rows, batch_format="pyarrow")

    partial_schema = pa.schema(
        [
            pa.field("doc_id", pa.int64()),
            pa.field("s", pa.int64()),
            pa.field("n", pa.int64()),
        ]
    )

    def bucket_partials(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return partial_schema.empty_table()
        ha = group["ha"].to_numpy()
        hb = group["hb"].to_numpy()
        order = np.lexsort((hb, ha))
        a = ha[order]
        b = hb[order]
        d = group["doc_id"].to_numpy()[order]
        starts = np.concatenate(
            ([0], np.flatnonzero((a[1:] != a[:-1]) | (b[1:] != b[:-1])) + 1)
        )
        rl = np.diff(np.concatenate((starts, [len(a)])))
        w = np.repeat(rl, rl)  # each occurrence's global bigram count
        o2 = np.argsort(d, kind="stable")
        d2 = d[o2]
        w2 = w[o2]
        ds_ = np.concatenate(([0], np.flatnonzero(d2[1:] != d2[:-1]) + 1))
        return pa.table(
            {
                "doc_id": pa.array(d2[ds_], pa.int64()),
                "s": pa.array(np.add.reduceat(w2, ds_).astype(np.int64), pa.int64()),
                "n": pa.array(
                    np.diff(np.concatenate((ds_, [len(d2)]))).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    partials = hash_exchange(rows, ["ha", "hb"], bucket_partials)

    def merge_doc(group: pa.Table) -> pa.Table:
        agg = pa.TableGroupBy(group, "doc_id", use_threads=False).aggregate(
            [("s", "sum"), ("n", "sum")]
        )
        S = agg["s_sum"].to_numpy()
        N = agg["n_sum"].to_numpy()
        return pa.table(
            {
                "doc_id": agg["doc_id"],
                "n_bigrams": agg["n_sum"],
                "score_ppm": pa.array((S * LM_SCALE) // N, pa.int64()),
            }
        )

    return hash_exchange(partials, "doc_id", merge_doc)


Q_LM_SCORE_SQL = f"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(string_split_regex(lower(text), '[^a-z]+'),
                         x -> x <> '') AS w
      FROM documents
    ),
    bg AS (
      SELECT doc_id,
             unnest(list_transform(generate_series(1, len(w) - 1),
                                   i -> w[i] || ' ' || w[i + 1])) AS bigram
      FROM toks
    ),
    cnt AS (SELECT bigram, CAST(COUNT(*) AS BIGINT) AS n FROM bg GROUP BY bigram),
    per AS (
      SELECT bg.doc_id, CAST(COUNT(*) AS BIGINT) AS n_bigrams,
             CAST(SUM(cnt.n) AS BIGINT) AS s
      FROM bg JOIN cnt USING (bigram) GROUP BY bg.doc_id
    )
    SELECT doc_id, n_bigrams,
           CAST((s * {LM_SCALE}) // n_bigrams AS BIGINT) AS score_ppm
    FROM per
"""


# ------------------------------------------------------- repetition stats


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition signals per document: total word count,
    distinct-word count and the top word's share in basis points — the
    "fraction of the doc that is one repeated token" rule real quality
    gates apply before training.  Embarrassingly parallel: one
    vectorized pass per batch, NO shuffle at any scale.  Word identity
    uses Arrow dictionary_encode (exact, per-batch — repetition is a
    WITHIN-doc property, so no cross-batch identity is needed), then
    one lexsort over (doc, code) gives run lengths per word per doc."""

    out_schema = pa.schema(
        [
            pa.field("doc_id", pa.int64()),
            pa.field("n_words", pa.int64()),
            pa.field("n_distinct", pa.int64()),
            pa.field("top_frac_bp", pa.int64()),
        ]
    )

    def rep_stats(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), "[^a-z]+")
        flat = pc.list_flatten(toks)
        par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "")
        par = par[keep.to_numpy(zero_copy_only=False)]
        flat = flat.filter(keep)
        if len(par) == 0:
            return out_schema.empty_table()
        enc = pc.dictionary_encode(flat)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((codes, par))
        p = par[order]
        c = codes[order]
        rs = np.concatenate(
            ([0], np.flatnonzero((p[1:] != p[:-1]) | (c[1:] != c[:-1])) + 1)
        )
        rl = np.diff(np.concatenate((rs, [len(p)])))
        run_doc = p[rs]
        dstart = np.concatenate(
            ([0], np.flatnonzero(run_doc[1:] != run_doc[:-1]) + 1)
        )
        n_words = np.add.reduceat(rl, dstart)
        n_distinct = np.diff(np.concatenate((dstart, [len(rl)])))
        max_n = np.maximum.reduceat(rl, dstart)
        doc_ids = batch["doc_id"].to_numpy()[run_doc[dstart]]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids.astype(np.int64), pa.int64()),
                "n_words": pa.array(n_words.astype(np.int64), pa.int64()),
                "n_distinct": pa.array(n_distinct.astype(np.int64), pa.int64()),
                "top_frac_bp": pa.array(
                    (max_n * 10000 // n_words).astype(np.int64), pa.int64()
                ),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(rep_stats, batch_format="pyarrow")


Q_REPETITION_STATS_SQL = """
    WITH tok AS (
      SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z]+')) AS term
      FROM documents
    ),
    c AS (
      SELECT doc_id, term, COUNT(*) AS n
      FROM tok WHERE term <> '' GROUP BY doc_id, term
    )
    SELECT doc_id, CAST(SUM(n) AS BIGINT) AS n_words,
           CAST(COUNT(*) AS BIGINT) AS n_distinct,
           CAST((MAX(n) * 10000) // SUM(n) AS BIGINT) AS top_frac_bp
    FROM c GROUP BY doc_id
"""


QUERIES = {
    "text_stats": Query(q_text_stats, Q_TEXT_STATS_SQL),
    "regex_tokens": Query(q_regex_tokens, Q_REGEX_TOKENS_SQL),
    "quality_filter": Query(q_quality_filter, Q_QUALITY_FILTER_SQL),
    "lm_score": Query(q_lm_score, Q_LM_SCORE_SQL),
    "repetition_stats": Query(q_repetition_stats, Q_REPETITION_STATS_SQL),
    "caption_stats": Query(q_caption_stats, Q_CAPTION_STATS_SQL),
    "lang_id": Query(q_lang_id, Q_LANG_ID_SQL),
    "vocab_topk": Query(q_vocab_topk, Q_VOCAB_TOPK_SQL),
    "word_pairs": Query(q_word_pairs, Q_WORD_PAIRS_SQL),
    "tfidf_topterms": Query(q_tfidf_topterms, Q_TFIDF_SQL),
    "token_shards": Query(q_token_shards, Q_TOKEN_SHARDS_SQL),
    "data_mixture": Query(q_data_mixture, Q_DATA_MIXTURE_SQL),
    "bm25_topterms": Query(q_bm25_topterms, Q_BM25_SQL),
    "props_extract": Query(q_props_extract, Q_PROPS_EXTRACT_SQL),
    "corpus_curation": Query(q_corpus_curation, _build_corpus_curation_sql),
    "bpe_merges": Query(q_bpe_merges, _build_bpe_sql),
    "bpe_tokenize": Query(q_bpe_tokenize, _build_bpe_tokenize_sql),
}
