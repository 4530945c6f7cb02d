"""Round-5 continuation: ANN recall eval, bigram-LM scoring,
repetition stats — local invariants (the value-exact DuckDB gate
covers the distributed paths)."""

import numpy as np
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def _write_docs(tmp_path, texts: dict):
    import pyarrow.parquet as pq

    tbl = pa.table(
        {
            "doc_id": pa.array(sorted(texts), pa.int64()),
            "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
        }
    )
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(tbl, str(d / "documents.parquet"))
    return str(d)


def test_lm_score_planted_corpus(ray_session, tmp_path):
    """Hand-computed mean bigram frequency on a tiny planted corpus:
    'the cat' appears 3x corpus-wide, all other bigrams once."""
    from rust_geo_booleanop_ray.pipelines.queries import q_lm_score

    d = _write_docs(
        tmp_path,
        {
            1: "the cat sat on the cat",
            2: "Cat! the cat",
            3: "x",  # single token: no bigrams, no output row
        },
    )
    out = {r["doc_id"]: r for r in q_lm_score(d).take_all()}
    assert set(out) == {1, 2}
    # doc 1 bigrams: [the cat, cat sat, sat on, on the, the cat]
    # counts:        [3,       1,       1,      1,      3      ] -> s=9, n=5
    assert out[1]["n_bigrams"] == 5
    assert out[1]["score_ppm"] == 9 * 1_000_000 // 5
    # doc 2 bigrams: [cat the, the cat] -> s = 1 + 3 = 4, n = 2
    assert out[2]["n_bigrams"] == 2
    assert out[2]["score_ppm"] == 2_000_000


def test_lm_score_repeated_boilerplate_scores_higher(ray_session, tmp_path):
    """The filter semantics: a doc made of corpus-common bigrams must
    outscore a doc of corpus-unique bigrams."""
    from rust_geo_booleanop_ray.pipelines.queries import q_lm_score

    common = "data processing at scale"
    texts = {i: common for i in range(10)}
    texts[10] = common  # the "typical" doc
    texts[11] = "zq wv xj kp bn md"  # all-unique bigrams
    d = _write_docs(tmp_path, texts)
    out = {r["doc_id"]: r["score_ppm"] for r in q_lm_score(d).take_all()}
    assert out[10] == 11 * 1_000_000  # every bigram appears 11x
    assert out[11] == 1_000_000  # every bigram appears once
    assert out[10] > out[11]


def test_repetition_stats_planted(ray_session, tmp_path):
    """Top-word share and distinct counts on planted docs; a doc with
    no alphabetic tokens emits no row."""
    from rust_geo_booleanop_ray.pipelines.queries import q_repetition_stats

    d = _write_docs(
        tmp_path,
        {
            1: "spam spam spam spam eggs",  # 5 words, 2 distinct, top 4/5
            2: "all words here are unique",  # 5 words, 5 distinct, top 1/5
            3: "12345 !!!",  # no [a-z] tokens at all
        },
    )
    out = {r["doc_id"]: r for r in q_repetition_stats(d).take_all()}
    assert set(out) == {1, 2}
    assert out[1]["n_words"] == 5
    assert out[1]["n_distinct"] == 2
    assert out[1]["top_frac_bp"] == 4 * 10000 // 5
    assert out[2]["n_words"] == 5
    assert out[2]["n_distinct"] == 5
    assert out[2]["top_frac_bp"] == 10000 // 5


def test_ann_recall_consistent_with_catalog_rankings(ray_session):
    """ann_recall's hit counts must equal the overlap of the catalog's
    own ann_ivf / ann_lsh / ann_pq results with ann_topk ground truth,
    and recall_bp stays in [0, 10000]."""
    from rust_geo_booleanop_ray.pipelines.queries import (
        ANN_K,
        q_ann_ivf,
        q_ann_lsh,
        q_ann_pq,
        q_ann_recall,
        q_ann_topk,
    )

    def sets(ds):
        out = {}
        for r in ds.take_all():
            out.setdefault(int(r["query_id"]), set()).add(int(r["vec_id"]))
        return out

    truth = sets(q_ann_topk(SF))
    per_method = {
        "ivf": sets(q_ann_ivf(SF)),
        "lsh": sets(q_ann_lsh(SF)),
        "pq": sets(q_ann_pq(SF)),
    }
    got = q_ann_recall(SF)
    assert got.num_rows == 3 * len(truth)
    for m, qid, hits, bp in zip(
        got["method"].to_pylist(),
        got["query_id"].to_pylist(),
        got["hits"].to_pylist(),
        got["recall_bp"].to_pylist(),
    ):
        expect = len(per_method[m].get(qid, set()) & truth[qid])
        assert hits == expect, (m, qid)
        assert bp == hits * 10000 // ANN_K
        assert 0 <= bp <= 10000


def test_token_bigram_rows_bucket_is_pair_function(ray_session):
    """Every occurrence of the same bigram must land in the same
    bucket (the per-bucket count kernel depends on it), across
    different docs and batches."""
    from rust_geo_booleanop_ray.stages.text import token_bigram_rows

    b1 = pa.table(
        {
            "doc_id": pa.array([1], pa.int64()),
            "text": ["the cat sat on the cat"],
        }
    )
    b2 = pa.table(
        {"doc_id": pa.array([2], pa.int64()), "text": ["and THE cat again"]}
    )
    t1 = token_bigram_rows(b1)
    t2 = token_bigram_rows(b2)
    key = {}
    for t in (t1, t2):
        for ha, hb, bk in zip(
            t["ha"].to_pylist(), t["hb"].to_pylist(), t["bucket"].to_pylist()
        ):
            assert key.setdefault((ha, hb), bk) == bk
    # "the cat" occurs in both batches -> identical (ha, hb) appears twice
    pairs1 = set(zip(t1["ha"].to_pylist(), t1["hb"].to_pylist()))
    pairs2 = set(zip(t2["ha"].to_pylist(), t2["hb"].to_pylist()))
    assert pairs1 & pairs2
    # empty batch keeps the int64 schema (ADVICE r4 lesson)
    e = token_bigram_rows(b1.slice(0, 0))
    assert e.schema.field("ha").type == pa.int64()
    assert e.num_rows == 0


def test_areal_interp_brute_force(ray_session):
    """Engine areal interpolation equals a direct numpy recompute of
    rect-pair intersections (Martinez clip of axis-aligned rects IS
    the closed-form overlap)."""
    import pyarrow.parquet as pq

    from rust_geo_booleanop_ray.pipelines.queries import (
        AREAL_SCALE,
        q_areal_interp,
    )

    part = pq.read_table(
        f"{SF}/part.parquet", columns=["p_partkey", "p_size", "p_retailprice"]
    )
    supp = pq.read_table(f"{SF}/supplier.parquet", columns=["s_suppkey"])
    pk = part["p_partkey"].to_numpy()
    size = part["p_size"].to_numpy().astype(np.int64)
    v = np.floor(part["p_retailprice"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    hw = 1 + (size % 5)
    hh = 1 + ((size * 3) % 7)
    pminx, pmaxx = pk % 97 - hw, pk % 97 + hw
    pminy, pmaxy = (pk * 31) % 89 - hh, (pk * 31) % 89 + hh
    sa = 4 * hw * hh
    sk = supp["s_suppkey"].to_numpy().astype(np.int64)
    shw = 2 + (sk % 6)
    shh = 2 + ((sk * 3) % 5)
    sminx, smaxx = (sk * 7) % 97 - shw, (sk * 7) % 97 + shw
    sminy, smaxy = (sk * 11) % 89 - shh, (sk * 11) % 89 + shh
    expect = {}
    for j in range(len(sk)):
        w = np.minimum(pmaxx, smaxx[j]) - np.maximum(pminx, sminx[j])
        h = np.minimum(pmaxy, smaxy[j]) - np.maximum(pminy, sminy[j])
        m = (w > 0) & (h > 0)
        if m.any():
            ia = (w[m] * h[m]).astype(np.int64)
            expect[int(sk[j])] = (
                int(m.sum()),
                int(((v[m] * ia * AREAL_SCALE) // sa[m]).sum()),
            )
    got = {
        r["s_suppkey"]: (r["n_src"], r["interp_c"])
        for r in q_areal_interp(SF).take_all()
    }
    assert got == expect


def test_ann_rerank_is_exact_within_shortlist(ray_session):
    """Rerank output must be exactly the brute-force cosine ranking
    restricted to the PQ shortlist (and therefore a subset of it)."""
    import pyarrow.parquet as pq

    from rust_geo_booleanop_ray.pipelines.queries import (
        ANN_K,
        PQ_K,
        PQ_M,
        PQ_SEED,
        RERANK_SHORTLIST,
        q_ann_rerank,
    )
    from rust_geo_booleanop_ray.stages.ann import (
        pq_fixed_codebooks,
        pq_topk,
    )
    from rust_geo_booleanop_ray.pipelines.catalog.ann import _ann_queries
    import ray.data as rd

    got = {}
    for r in q_ann_rerank(SF).take_all():
        got.setdefault(r["query_id"], []).append((r["rank"], r["vec_id"]))

    qs = _ann_queries(SF)
    books = pq_fixed_codebooks(PQ_M, PQ_K, 64, seed=PQ_SEED)
    sl = {}
    for r in (
        pq_topk(
            rd.read_parquet(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"]),
            qs,
            RERANK_SHORTLIST,
            books,
        ).take_all()
    ):
        sl.setdefault(r["query_id"], set()).add(r["vec_id"])

    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy()
    mat = (
        emb["embedding"].combine_chunks().values.to_numpy(zero_copy_only=False)
        .reshape(len(ids), -1)
        .astype(np.float64)
    )
    unit = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    qids, qmat = qs
    qunit = qmat / np.maximum(np.linalg.norm(qmat, axis=1, keepdims=True), 1e-12)
    for qi, qid in enumerate(qids):
        member = np.isin(ids, list(sl[int(qid)]))
        cos = unit[member] @ qunit[qi]
        mids = ids[member]
        order = np.lexsort((mids, -cos))[:ANN_K]
        expect = [(rk + 1, int(mids[o])) for rk, o in enumerate(order)]
        assert sorted(got[int(qid)]) == expect
        assert {v for _, v in got[int(qid)]} <= sl[int(qid)]


def test_pair_reduce_64bit_ids(ray_session):
    """Regression: pair_reduce used to pack (a<<32)|b into one int64,
    silently corrupting the incremental append id space (new docs at
    >= 2^40).  Pairs must survive full-64-bit ids verbatim."""
    import ray

    from rust_geo_booleanop_ray.stages.dedup import pair_reduce

    M = 1 << 40
    tbl = pa.table(
        {
            "doc_a": pa.array([3, 3, 7, 2**33 + 5], pa.int64()),
            "doc_b": pa.array([M + 1, M + 1, 2 * M + 4, 2**40 + 9], pa.int64()),
            "v": pa.array([0.25, 0.75, 0.5, 1.0], pa.float64()),
        }
    )
    out = sorted(
        (r["doc_a"], r["doc_b"], r["v"])
        for r in pair_reduce(
            ray.data.from_arrow(tbl), "doc_a", "doc_b", "v", how="max"
        ).take_all()
    )
    assert out == [
        (3, M + 1, 0.75),
        (7, 2 * M + 4, 0.5),
        (2**33 + 5, 2**40 + 9, 1.0),
    ]


def test_incremental_minhash_flags_every_appended_copy(ray_session):
    """Each appended doc is a verbatim re-crawl of its source, so est=1
    and its keeper must be <= the source id; the %7 set lands at
    id+2^40, the %13 set at id+2^41."""
    from rust_geo_booleanop_ray.pipelines.catalog.dedup import (
        INCR_ID_OFFSET,
        q_incremental_minhash,
    )

    M = INCR_ID_OFFSET
    rows = {r["doc_id"]: r for r in q_incremental_minhash(SF).take_all()}
    import pyarrow.parquet as pq

    src = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])[
        "doc_id"
    ].to_numpy()
    expect_ids = {int(d) + M for d in src if d % 7 == 0} | {
        int(d) + 2 * M for d in src if d % 13 == 0
    }
    assert set(rows) == expect_ids
    for did, r in rows.items():
        base = did - (M if did < 2 * M else 2 * M)
        assert r["keeper"] <= base
        assert r["n_dups"] >= 1


def _write_full_docs(tmp_path, rows):
    import pyarrow.parquet as pq

    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
            "lang": pa.array([r[2] for r in rows], pa.string()),
            "source": pa.array([r[3] for r in rows], pa.string()),
            "n_chars": pa.array([len(r[1]) for r in rows], pa.int64()),
        }
    )
    d = tmp_path / "planted"
    d.mkdir()
    pq.write_table(tbl, str(d / "documents.parquet"))
    return str(d)


def test_keep_best_planted(ray_session, tmp_path):
    """Four chained docs (same lang + token count → one component);
    doc 3 has the best stopword-ppm score, so it is the keeper and the
    sole survivor of its component; the off-chain doc (different token
    count, unique n_chars%10 band) survives untouched."""
    from rust_geo_booleanop_ray.pipelines.catalog.dedup import (
        q_dedup_keep_best,
        q_keep_best_apply,
    )

    rows = [
        (1, "the x y z", "en", "s0"),       # 1/4 stopwords
        (2, "the a x y", "en", "s0"),       # 2/4
        (3, "the a of in", "en", "s0"),     # 4/4  <- best
        (4, "the a of x", "en", "s0"),      # 3/4
        (10, "zz qq", "de", "s9"),          # singleton (2 tokens)
    ]
    d = _write_full_docs(tmp_path, rows)
    best = {r["component"]: r for r in q_dedup_keep_best(d).take_all()}
    assert 1 in best
    assert best[1]["keeper"] == 3
    assert best[1]["best_score"] == 1_000_000
    assert best[1]["n_members"] == 4
    kept = sorted(r["doc_id"] for r in q_keep_best_apply(d).take_all())
    assert kept == [3, 10]


def test_incremental_store_missing_partitions(ray_session, tmp_path):
    """A band store may lack partitions for buckets only NEW docs hash
    to (and an empty/first-run store has none at all): the store plan
    must degrade to new-only banding, which with new_min_id=0 equals a
    plain full run over the batch."""
    import ray

    from rust_geo_booleanop_ray.stages.dedup import (
        MinHasher,
        incremental_minhash_pairs,
        incremental_minhash_pairs_store,
        pair_reduce,
    )

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["alpha beta gamma delta"] * 2 + ["zz yy xx ww vv", "unrelated"],
                pa.string(),
            ),
        }
    )
    sigs = lambda: ray.data.from_arrow(docs).map_batches(  # noqa: E731
        MinHasher(), batch_format="pyarrow"
    )
    got = sorted(
        (r["doc_a"], r["doc_b"], r["est_jaccard"])
        for r in pair_reduce(
            incremental_minhash_pairs_store(
                sigs(), str(tmp_path / "no_store"), threshold=0.5, new_min_id=0
            ),
            "doc_a",
            "doc_b",
            "est_jaccard",
            how="max",
        ).take_all()
    )
    empty = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], pa.int64())}).add_column(
            1, "sig", pa.array([], pa.list_(pa.int64()))
        )
    )
    want = sorted(
        (r["doc_a"], r["doc_b"], r["est_jaccard"])
        for r in pair_reduce(
            incremental_minhash_pairs(sigs(), empty, threshold=0.5, new_min_id=0),
            "doc_a",
            "doc_b",
            "est_jaccard",
            how="max",
        ).take_all()
    )
    assert got == want
    assert got and got[0][:2] == (1, 2) and got[0][2] == 1.0


def test_incremental_minhash_store_runs_do_not_share_a_store(ray_session, monkeypatch, tmp_path):
    """Two invocations write separate band stores, so one run can never
    read or delete the other's; both match the oracle.  The corpus is
    the first 40 documents: the SQL MinHash oracle costs ~0.15 s a doc."""
    import duckdb
    import pyarrow.parquet as pq

    from rust_geo_booleanop_ray.pipelines.catalog.dedup import (
        _build_incremental_minhash_sql,
        q_incremental_minhash_store,
    )
    from rust_geo_booleanop_ray.stages import dedup as stages_dedup

    stores = []
    write = stages_dedup.write_band_store

    def recording_write(sigs_ds, store_dir, *args, **kwargs):
        stores.append(store_dir)
        return write(sigs_ds, store_dir, *args, **kwargs)

    sf = tmp_path / "sf"
    sf.mkdir()
    docs = pq.read_table(f"{SF}/documents.parquet").slice(0, 40)
    pq.write_table(docs, str(sf / "documents.parquet"))

    monkeypatch.setattr(stages_dedup, "write_band_store", recording_write)
    first = q_incremental_minhash_store(str(sf))
    second = q_incremental_minhash_store(str(sf))
    assert len(stores) == 2 and stores[0] != stores[1]

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    cols = ["doc_id", "keeper", "n_dups"]
    want = sorted(con.execute(_build_incremental_minhash_sql()).df()[cols].itertuples(index=False, name=None))
    assert want
    for ds in (first, second):
        got = sorted(ds.to_pandas()[cols].itertuples(index=False, name=None))
        assert got == want


def test_short_text_shingle_hash_wraps_without_warning():
    """Texts of at most k code points hash as one polynomial over all
    their code points, wrapping mod 2^64 on purpose: no overflow warning,
    and the same values as exact integer arithmetic."""
    import warnings

    from rust_geo_booleanop_ray.stages.dedup import MinHasher

    mh = MinHasher(shingle_k=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {t: mh.shingle_hashes(t).tolist() for t in ("héllo", "abc", "")}
    assert got == {
        "héllo": [16250758113772433866],
        "abc": [92895538425936242],
        "": [0],
    }
    for text, (h,) in got.items():
        ref = 0
        for ch in text:
            ref = (ref * 1099511628211 + ord(ch)) % 2**64
        assert h == ref
