"""Text analysis stages over document tables.

Definitions are chosen to be SQL-mirrorable so the DuckDB oracle can
check them value-for-value:
  - tokens      = text split on single spaces (len(string_split(text,' ')))
  - n_chars     = character count (length(text))
  - stop ratio  = fraction of tokens in a fixed stopword set
  - fingerprint = min 64-bit rolling hash over 8-char windows (not SQL;
                  rows-only check)

Language ID is an n-gram/stopword heuristic scored against the table's
own ``lang`` labels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# tiny per-language marker sets (heuristic language ID)
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "value", "row"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "pour"},
    "es": {"el", "la", "los", "las", "es", "un", "una", "por"},
    "zh": {"的", "是", "了", "在", "和"},
}

_STOPWORDS = ("the", "a", "of", "and", "to", "in", "is")


def text_stats_batch(batch: pa.Table) -> pa.Table:
    """Vectorized per-doc stats (pyarrow compute kernels)."""
    text = batch["text"]
    tokens = pc.split_pattern(text, " ")
    n_tokens = pc.list_value_length(tokens)
    n_chars = pc.utf8_length(text)

    # stopword count: per-token membership via flattening (vectorized)
    flat = pc.list_flatten(tokens)
    is_stop = pc.is_in(flat, value_set=pa.array(list(_STOPWORDS)))
    offsets = np.concatenate(
        ([0], np.cumsum(n_tokens.to_numpy(zero_copy_only=False)))
    )
    stop_np = is_stop.to_numpy(zero_copy_only=False).astype(np.int64)
    stops = np.add.reduceat(stop_np, offsets[:-1]) if len(flat) else np.zeros(0)
    stops = np.where(
        offsets[1:] > offsets[:-1], stops, 0
    )  # reduceat quirk on empty segments

    out = batch.select([c for c in ("doc_id", "lang", "source") if c in batch.column_names])
    out = out.append_column("n_chars", pc.cast(n_chars, pa.int64()))
    out = out.append_column("n_tokens", pc.cast(n_tokens, pa.int64()))
    out = out.append_column("n_stopwords", pa.array(stops.astype(np.int64)))
    ratio = stops / np.maximum(1, n_tokens.to_numpy(zero_copy_only=False))
    out = out.append_column("stop_ratio", pa.array(ratio))
    return out


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """Quality heuristics: length band + stopword band + mean token len."""
    stats = text_stats_batch(batch)
    n_chars = stats["n_chars"].to_numpy()
    n_tokens = stats["n_tokens"].to_numpy()
    ratio = stats["stop_ratio"].to_numpy()
    mean_tok = n_chars / np.maximum(1, n_tokens)
    score = (
        np.clip(n_chars / 500.0, 0, 1) * 0.4
        + np.clip(1.0 - np.abs(ratio - 0.08) * 5.0, 0, 1) * 0.3
        + np.clip(1.0 - np.abs(mean_tok - 5.0) / 5.0, 0, 1) * 0.3
    )
    return stats.append_column("quality", pa.array(score))


# BPE-ish tokenizer pattern: letter runs, digit runs, punctuation runs
# (lookahead-free so Arrow's and DuckDB's RE2 agree exactly)
BPE_PATTERN = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"


def regex_token_count_batch(batch: pa.Table, pattern: str = BPE_PATTERN) -> pa.Table:
    """Vectorized BPE-ish token counting: one RE2 pass per batch
    (pc.count_substring_regex — no Python per row)."""
    counts = pc.count_substring_regex(batch["text"], pattern)
    out = batch.select(
        [c for c in ("doc_id", "lang", "source") if c in batch.column_names]
    )
    return out.append_column("bpe_tokens", pc.cast(counts, pa.int64()))


class LangId:
    """Stateless stage: heuristic language ID.

    Marker value-sets are materialized once in __init__;
    scoring is fully vectorized (split → flatten → is_in per language
    → reduceat per doc → first-strictly-greater argmax, the same
    tie-break the SQL oracle mirrors)."""

    def __init__(self):
        self.langs = list(_LANG_MARKERS)
        self.marker_arrays = {
            lang: pa.array(sorted(marks)) for lang, marks in _LANG_MARKERS.items()
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(pc.utf8_lower(batch["text"]), " ")
        n_tokens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks)
        offsets = np.concatenate(([0], np.cumsum(n_tokens)))
        n = batch.num_rows
        scores = np.zeros((len(self.langs), n), dtype=np.int64)
        for li, lang in enumerate(self.langs):
            hit = pc.is_in(flat, value_set=self.marker_arrays[lang])
            hit_np = hit.to_numpy(zero_copy_only=False).astype(np.int64)
            if len(flat):
                s = np.add.reduceat(hit_np, offsets[:-1])
                scores[li] = np.where(offsets[1:] > offsets[:-1], s, 0)
        # argmax returns the FIRST max index — exactly the Python/SQL
        # first-strictly-greater tie-break; all-zero scores → 'und'
        first_max = scores.argmax(axis=0)
        pred = np.where(
            scores.max(axis=0) > 0,
            np.asarray(self.langs, dtype=object)[first_max],
            "und",
        )
        out = batch.select(
            [c for c in ("doc_id", "lang") if c in batch.column_names]
        )
        return out.append_column("lang_pred", pa.array(pred.tolist(), pa.string()))


_FP_WINDOW = 8
_FP_BASE = np.uint64(1099511628211)


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Rolling-hash document fingerprint: min 64-bit polynomial hash
    over all 8-CODE-POINT windows (Rabin–Karp / winnowing-lite;
    short texts are space-padded).  Code points — not utf-8 bytes — so
    the DuckDB oracle can mirror it exactly with unicode()/character
    slicing (Q_FINGERPRINTS_SQL).  Deterministic, wrap-mod-2^64."""
    texts = batch["text"].to_pylist()
    fps = np.empty(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        if len(t) < _FP_WINDOW:
            t = t + " " * (_FP_WINDOW - len(t))
        # utf-32 view = vectorized code-point array
        data = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
        n = len(data) - _FP_WINDOW + 1
        h = np.zeros(n, dtype=np.uint64)
        for j in range(_FP_WINDOW):
            h = h * _FP_BASE + data[j : j + n]
        fps[i] = np.int64(h.min().astype(np.int64))
    out = batch.select([c for c in ("doc_id",) if c in batch.column_names])
    return out.append_column("fingerprint", pa.array(fps, pa.int64()))


# ------------------------------------------------------------- tf-idf

TFIDF_SCALE = 1_000_000


def doc_term_tf_batch(batch: pa.Table) -> pa.Table:
    """Per-(doc, term) term frequencies for a batch — one vectorized
    RE2 pass (lower → split), parent-index fanout, one local Arrow
    groupby.  A document's text lives in one row, so the (doc, term)
    partials this emits are globally distinct across batches."""
    toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), "[^a-z]+")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    doc = batch["doc_id"].take(parent)
    t = pa.table({"doc_id": doc, "term": flat}).filter(pc.not_equal(flat, ""))
    g = pa.TableGroupBy(t, ["doc_id", "term"]).aggregate([("term", "count")])
    return pa.table(
        {
            "doc_id": g["doc_id"],
            "term": g["term"],
            "tf": g["term_count"].cast(pa.int64()),
        }
    )


def df_partial_from_tf(tf: pa.Table) -> pa.Table:
    """Document-frequency partial: each (doc, term) row counts once.
    Feed into groupby(term).Sum — the exchange moves (term, n) pairs,
    never raw tokens."""
    vc = tf["term"].combine_chunks().value_counts()
    return pa.table(
        {"term": vc.field("values"), "df": vc.field("counts").cast(pa.int64())}
    )


def make_tfidf_scorer(vocab_terms, idf_scaled, k: int):
    """Per-batch TF-IDF scorer against a broadcast top-V vocabulary.

    ``vocab_terms`` must be lexicographically sorted (np unicode array)
    with parallel int64 ``idf_scaled = (N_docs * TFIDF_SCALE) // df``
    — integer-exact, so the oracle can mirror the arithmetic.  Emits
    each document's top-``k`` vocabulary terms by ``score = tf *
    idf_scaled`` (ties: lexicographically first term wins).  All of a
    document's terms are derived in-batch, so the per-batch top-k IS
    final — scoring needs no shuffle; only the df pass exchanges."""
    from .topk import topk_select

    vocab_terms = np.asarray(vocab_terms)
    idf_scaled = np.asarray(idf_scaled, dtype=np.int64)

    def score(batch: pa.Table) -> pa.Table:
        tf = doc_term_tf_batch(batch)
        terms = tf["term"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(vocab_terms, terms)
        pos = np.clip(pos, 0, max(len(vocab_terms) - 1, 0))
        hit = (
            vocab_terms[pos] == terms
            if len(vocab_terms)
            else np.zeros(len(terms), dtype=bool)
        )
        tf = tf.filter(pa.array(hit))
        pos = pos[hit]
        tfv = tf["tf"].to_numpy()
        scores = tfv * idf_scaled[pos]
        doc_codes = np.asarray(
            tf["doc_id"].combine_chunks().dictionary_encode().indices
        )
        # lexicographic int tie: index into the sorted vocab
        keep, rank = topk_select(doc_codes, scores, pos.astype(np.int64), k)
        out = tf.take(pa.array(keep))
        return pa.table(
            {
                "doc_id": out["doc_id"],
                "term": out["term"],
                "tf": out["tf"],
                "score": pa.array(scores[keep]),
                "rank": pa.array(rank),
            }
        )

    return score


def make_bm25_scorer(
    vocab_terms, idf_scaled, k: int, n_docs: int, total_tokens: int
):
    """Per-batch BM25 scorer against a broadcast top-V vocabulary —
    the length-normalized upgrade of make_tfidf_scorer, kept
    INTEGER-exact so the oracle mirrors every op: with k1 = 6/5 and
    b = 3/4, clearing denominators gives

        score = (44·idf_s·tf·T) // (20·T·tf + 6·T + 18·len_d·N)

    where T = Σ doc lengths, N = corpus doc count, len_d = this
    document's token count (derived in-batch — a doc's text lives in
    one row).  All positive int64, `//` = DuckDB's truncating `//`.
    Scoring itself needs no shuffle; only the df pass exchanges."""
    from .topk import topk_select

    vocab_terms = np.asarray(vocab_terms)
    idf_scaled = np.asarray(idf_scaled, dtype=np.int64)
    N = np.int64(n_docs)
    T = np.int64(total_tokens)

    def score(batch: pa.Table) -> pa.Table:
        tf = doc_term_tf_batch(batch)
        doc_codes_all = np.asarray(
            tf["doc_id"].combine_chunks().dictionary_encode().indices
        )
        tfv_all = tf["tf"].to_numpy()
        # doc length = Σ tf over ALL the doc's terms (vocab or not)
        n_in_batch = int(doc_codes_all.max()) + 1 if len(doc_codes_all) else 0
        doc_len = np.zeros(n_in_batch, dtype=np.int64)
        np.add.at(doc_len, doc_codes_all, tfv_all)

        terms = tf["term"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(vocab_terms, terms)
        pos = np.clip(pos, 0, max(len(vocab_terms) - 1, 0))
        hit = (
            vocab_terms[pos] == terms
            if len(vocab_terms)
            else np.zeros(len(terms), dtype=bool)
        )
        tf = tf.filter(pa.array(hit))
        pos = pos[hit]
        tfv = tfv_all[hit]
        codes = doc_codes_all[hit]
        lens = doc_len[codes]
        num = np.int64(44) * idf_scaled[pos] * tfv * T
        den = np.int64(20) * T * tfv + np.int64(6) * T + np.int64(18) * lens * N
        scores = num // den
        keep, rank = topk_select(codes, scores, pos.astype(np.int64), k)
        out = tf.take(pa.array(keep))
        return pa.table(
            {
                "doc_id": out["doc_id"],
                "term": out["term"],
                "tf": out["tf"],
                "doc_len": pa.array(lens[keep]),
                "score": pa.array(scores[keep]),
                "rank": pa.array(rank),
            }
        )

    return score


def window_hashes_batch(batch: pa.Table) -> pa.Table:
    """ALL distinct 8-code-point rolling-hash window values per doc
    (the n-gram set behind contamination / decontamination checks) —
    same polynomial hash as fingerprint_batch, every window kept
    instead of the min.  At 10^12 docs a winnowing sample (keep
    per-position-window minima) bounds the fanout; the full set here
    keeps the oracle exact."""
    texts = batch["text"].to_pylist()
    ids = batch["doc_id"].to_numpy()
    out_doc, out_h = [], []
    for i, t in enumerate(texts):
        if len(t) < _FP_WINDOW:
            t = t + " " * (_FP_WINDOW - len(t))
        data = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
        n = len(data) - _FP_WINDOW + 1
        h = np.zeros(n, dtype=np.uint64)
        for j in range(_FP_WINDOW):
            h = h * _FP_BASE + data[j : j + n]
        hv = np.unique(h.astype(np.int64))
        out_doc.append(np.full(len(hv), ids[i], dtype=np.int64))
        out_h.append(hv)
    return pa.table(
        {
            "doc_id": pa.array(
                np.concatenate(out_doc) if out_doc else np.empty(0, np.int64),
                pa.int64(),
            ),
            "hv": pa.array(
                np.concatenate(out_h) if out_h else np.empty(0, np.int64),
                pa.int64(),
            ),
        }
    )


WINNOW_W = 16


def winnowed_hashes_batch(batch: pa.Table, w: int = WINNOW_W) -> pa.Table:
    """Winnowing (Schleimer et al.): keep, from every window of ``w``
    consecutive 8-gram hashes, the MINIMUM (first on ties) — the
    deterministic ~1/w sample that still guarantees any shared
    substring of length ≥ 8 + w − 1 code points yields a shared
    fingerprint.  This is the 10^12-doc contamination exchange:
    wire volume drops ~w× and the guarantee survives.  The unsigned
    comparison order matches the SQL mirror (hashes compared as
    HUGEINT)."""
    texts = batch["text"].to_pylist()
    ids = batch["doc_id"].to_numpy()
    out_doc, out_h = [], []
    for i, t in enumerate(texts):
        if len(t) < _FP_WINDOW:
            t = t + " " * (_FP_WINDOW - len(t))
        data = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
        n = len(data) - _FP_WINDOW + 1
        h = np.zeros(n, dtype=np.uint64)
        for j in range(_FP_WINDOW):
            h = h * _FP_BASE + data[j : j + n]
        if n <= w:
            keep = np.array([h.argmin()])
        else:
            m = n - w + 1
            idx = np.arange(m)[:, None] + np.arange(w)[None, :]
            wins = h[idx]
            keep = np.unique(idx[np.arange(m), wins.argmin(axis=1)])
        hv = np.unique(h[keep].astype(np.int64))
        out_doc.append(np.full(len(hv), ids[i], dtype=np.int64))
        out_h.append(hv)
    return pa.table(
        {
            "doc_id": pa.array(
                np.concatenate(out_doc) if out_doc else np.empty(0, np.int64),
                pa.int64(),
            ),
            "hv": pa.array(
                np.concatenate(out_h) if out_h else np.empty(0, np.int64),
                pa.int64(),
            ),
        }
    )


SUBSTR_RUN_LEN = 40  # code points — the "long exact repeat" threshold


def long_window_hashes_batch(batch: pa.Table, L: int = SUBSTR_RUN_LEN) -> pa.Table:
    """ALL distinct L-code-point rolling-hash window values per doc —
    the substring-level exact-dedup signal (Lee et al.'s "repeated
    ≥k-token run" modality): two docs share an exact run of ≥ L code
    points iff they share an L-window hash (64-bit collisions aside,
    the same assumption every hash-dedup op here makes).  Same
    polynomial as the 8-gram fingerprints, just a longer window, so
    the SQL mirror reuses the proven term expansion.  Short docs are
    space-padded to one window (exact-content matching for them).

    At 10^12 docs the candidate stage runs over winnowed fingerprints
    first (winnowed_hashes_batch: any shared run ≥ 23 code points
    collides) and only candidate docs pay the full L-window pass; the
    exhaustive set here keeps the oracle exact at test scale."""
    texts = batch["text"].to_pylist()
    ids = batch["doc_id"].to_numpy()
    out_doc, out_h = [], []
    for i, t in enumerate(texts):
        if len(t) < L:
            t = t + " " * (L - len(t))
        data = np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
        n = len(data) - L + 1
        h = np.zeros(n, dtype=np.uint64)
        for j in range(L):
            h = h * _FP_BASE + data[j : j + n]
        hv = np.unique(h.astype(np.int64))
        out_doc.append(np.full(len(hv), ids[i], dtype=np.int64))
        out_h.append(hv)
    return pa.table(
        {
            "doc_id": pa.array(
                np.concatenate(out_doc) if out_doc else np.empty(0, np.int64),
                pa.int64(),
            ),
            "hv": pa.array(
                np.concatenate(out_h) if out_h else np.empty(0, np.int64),
                pa.int64(),
            ),
        }
    )


# ------------------------------------------------------------ bigram LM


def ascii_token_hashes(arr: pa.Array) -> np.ndarray:
    """Vectorized FNV-1a 64-bit hash of each token in a StringArray.

    Tokens come from ``split_pattern_regex(lower(text), '[^a-z]+')`` so
    they are pure ASCII — bytes ARE code points (the repo's hashing
    convention holds trivially).  Works straight off the Arrow offset +
    data buffers, no per-token Python: tokens are sorted by length once,
    and pass ``p`` hashes byte ``p`` of only the prefix of tokens still
    longer than ``p``, so the work is O(total token bytes) even when one
    token is thousands of bytes long.  The hash is engine-internal only (the oracle groups by the
    actual bigram strings), so only collision-freeness matters:
    distinct-token space even at web scale (~10^7–10^8 types) is far
    below the 64-bit birthday bound.  A collision is not silent: it
    merges the two tokens' bigrams, so the per-occurrence counts the LM
    score sums no longer match the oracle's exact-string counts
    (tests/test_text_hash_collision.py plants one)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    if n == 0:
        return np.empty(0, np.uint64)
    odtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    buf_off = np.frombuffer(arr.buffers()[1], dtype=odtype)
    off = buf_off[arr.offset : arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    lens = off[1:] - off[:-1]
    order = np.argsort(-lens, kind="stable")
    starts, neg_lens = off[:-1][order], -lens[order]
    hs = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for p in range(-int(neg_lens[0])):
            k = int(np.searchsorted(neg_lens, -p))  # tokens longer than p
            hs[:k] = (hs[:k] ^ data[starts[:k] + p].astype(np.uint64)) * prime
    h = np.empty(n, dtype=np.uint64)
    h[order] = hs
    return h


def token_bigram_rows(batch: pa.Table) -> pa.Table:
    """One row per adjacent-token bigram OCCURRENCE: (doc_id, ha, hb).
    ha/hb are the two token hashes (the bigram's identity is the exact
    pair — no extra collision beyond token-hash collisions), so a
    ``hash_exchange`` on (ha, hb) sends every occurrence of a bigram to
    one bucket and the per-bucket kernel sees its FULL corpus count
    locally.  Wire volume ∝ total token count — the same exchange the
    contamination queries pay."""
    toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), "[^a-z]+")
    flat = pc.list_flatten(toks)
    par = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    keep = pc.not_equal(flat, "")
    kmask = keep.to_numpy(zero_copy_only=False)
    par = par[kmask]
    flat = flat.filter(keep)
    h = ascii_token_hashes(flat)
    if len(par) >= 2:
        adj = par[:-1] == par[1:]
    else:
        adj = np.empty(0, bool)
    ha = h[:-1][adj] if len(h) else np.empty(0, np.uint64)
    hb = h[1:][adj] if len(h) else np.empty(0, np.uint64)
    docs = (
        batch["doc_id"].to_numpy()[par[:-1][adj]]
        if len(par)
        else np.empty(0, np.int64)
    )
    return pa.table(
        {
            "doc_id": pa.array(docs.astype(np.int64), pa.int64()),
            "ha": pa.array(ha.view(np.int64), pa.int64()),
            "hb": pa.array(hb.view(np.int64), pa.int64()),
        }
    )
