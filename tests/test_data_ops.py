"""Text analysis, dedup family, ANN — local batch-level tests over the
driver-generated documents/embeddings tables."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rust_geo_booleanop_ray.stages.ann import BruteForceTopK, TopKPerQuery
from rust_geo_booleanop_ray.stages.dedup import (
    EmbeddingLshBucket,
    EmbeddingNearDupPairs,
    LshCandidatePairs,
    MinHasher,
    SimHasher,
    SimhashPairs,
    content_hash_batch,
    exact_dedup_merge,
    exact_dedup_partial,
    lsh_band_explode,
    ngram_jaccard,
    simhash_band_explode,
)
from rust_geo_booleanop_ray.stages.text import (
    LangId,
    fingerprint_batch,
    quality_score_batch,
    text_stats_batch,
)

DOCS = "/root/testdata/sf0.001/documents.parquet"
EMB = "/root/testdata/sf0.001/embeddings.parquet"


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(DOCS)


@pytest.fixture(scope="module")
def emb():
    return pq.read_table(EMB)


def test_text_stats_match_python(docs):
    out = text_stats_batch(docs)
    texts = docs["text"].to_pylist()
    for i in (0, 7, 100):
        assert out["n_tokens"][i].as_py() == len(texts[i].split(" "))
        assert out["n_chars"][i].as_py() == len(texts[i])
        stops = sum(
            1 for t in texts[i].split(" ") if t in ("the", "a", "of", "and", "to", "in", "is")
        )
        assert out["n_stopwords"][i].as_py() == stops


def test_quality_and_langid(docs):
    q = quality_score_batch(docs)
    assert (np.asarray(q["quality"].to_numpy()) >= 0).all()
    assert (np.asarray(q["quality"].to_numpy()) <= 1).all()
    lid = LangId()(docs)
    # predictions come from the known label set
    assert set(lid["lang_pred"].to_pylist()) <= {"en", "de", "fr", "es", "zh", "und"}


def test_fingerprint_deterministic(docs):
    a = fingerprint_batch(docs.slice(0, 50))
    b = fingerprint_batch(docs.slice(0, 50))
    assert a.equals(b)
    # identical texts → identical fingerprints
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": pa.array(["same text here"] * 2)})
    f = fingerprint_batch(t)
    assert f["fingerprint"][0].as_py() == f["fingerprint"][1].as_py()


def test_exact_dedup_partial_merge():
    t = pa.table(
        {
            "doc_id": pa.array([5, 3, 9, 7], pa.int64()),
            "text": pa.array(["aa", "bb", "aa", "aa"]),
        }
    )
    hashed = content_hash_batch(t)
    assert hashed["content_hash"][0].as_py() == hashed["content_hash"][2].as_py()
    part = exact_dedup_partial(hashed)
    assert part.num_rows == 2
    merged = exact_dedup_merge(part.filter(pa.array([r == part["content_hash"][0].as_py() for r in part["content_hash"].to_pylist()])))
    by_hash = {r["content_hash"]: r for r in part.to_pylist()}
    aa_hash = hashed["content_hash"][0].as_py()
    assert by_hash[aa_hash]["doc_id"] == 5 and by_hash[aa_hash]["n"] == 3


def test_minhash_estimates_jaccard():
    mh = MinHasher(n_perm=128, seed=5)
    a = "the quick brown fox jumps over the lazy dog again and again"
    b = "the quick brown fox jumps over the lazy cat again and again"
    c = "completely different content with no overlap whatsoever here"
    sa, sb, sc = mh.signature(a), mh.signature(b), mh.signature(c)
    est_ab = (sa == sb).mean()
    true_ab = ngram_jaccard(a, b)
    assert abs(est_ab - true_ab) < 0.15
    assert (sa == sc).mean() < 0.2


def test_lsh_pipeline_finds_near_dups():
    texts = [
        "alpha beta gamma delta epsilon zeta eta theta iota kappa",
        "alpha beta gamma delta epsilon zeta eta theta iota kappaX",  # near-dup of 0
        "one two three four five six seven eight nine ten eleven",
        "unrelated words entirely disjoint vocabulary sample block",
    ]
    t = pa.table({"doc_id": pa.array([0, 1, 2, 3], pa.int64()), "text": pa.array(texts)})
    sigs = MinHasher(n_perm=64, seed=5)(t)
    exploded = lsh_band_explode(sigs, bands=8)
    # group by (band_id, band_hash) manually
    pairs = set()
    df = exploded.to_pandas()
    for _, g in df.groupby(["band_id", "band_hash"]):
        out = LshCandidatePairs(threshold=0.5)(pa.Table.from_pandas(g, preserve_index=False))
        for r in out.to_pylist():
            pairs.add((r["doc_a"], r["doc_b"]))
    assert (0, 1) in pairs
    assert (2, 3) not in pairs


def test_simhash_blocking():
    texts = [
        "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12",
        "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w13",  # one word changed
        "zz yy xx ww vv uu tt ss rr qq pp oo",
    ]
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()), "text": pa.array(texts)})
    sh = SimHasher()(t)
    h0 = np.uint64(sh["simhash"][0].as_py())
    h1 = np.uint64(sh["simhash"][1].as_py())
    ham = bin(int(h0 ^ h1)).count("1")
    exploded = simhash_band_explode(sh, bands=4)
    df = exploded.to_pandas()
    pairs = set()
    for _, g in df.groupby(["band_id", "band_val"]):
        out = SimhashPairs(max_hamming=max(3, ham))(pa.Table.from_pandas(g, preserve_index=False))
        for r in out.to_pylist():
            pairs.add((r["doc_a"], r["doc_b"]))
    assert (0, 1) in pairs


def test_embedding_near_dup(emb):
    # duplicate a vector with tiny noise → must pair up
    base = emb.slice(0, 20)
    import pyarrow.compute as pc

    vecs = base["embedding"].combine_chunks()
    flat = vecs.values.to_numpy(zero_copy_only=False).reshape(20, -1).copy()
    flat[1] = flat[0] * 1.001  # near-identical direction
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(20), pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(flat.astype(np.float32).ravel()), flat.shape[1]
            ),
        }
    )
    bucketed = EmbeddingLshBucket(dim=flat.shape[1], n_bits=4)(t)
    df = bucketed.to_pandas()
    found = set()
    for _, g in df.groupby("bucket"):
        sub = t.take(pa.array(g.index.to_numpy())).append_column("bucket", pa.array(g["bucket"].to_numpy()))
        out = EmbeddingNearDupPairs(threshold=0.999)(sub)
        for r in out.to_pylist():
            found.add((r["vec_a"], r["vec_b"]))
    assert (0, 1) in found


def test_brute_force_topk(emb):
    vecs = emb["embedding"].combine_chunks()
    mat = vecs.values.to_numpy(zero_copy_only=False).reshape(len(emb), -1).astype(np.float64)
    ids = emb["vec_id"].to_numpy()
    queries = (ids[:3], mat[:3])
    stage = BruteForceTopK(queries, k=5)
    cands = stage(emb)
    merged = TopKPerQuery(5)(cands.filter(pa.compute.equal(cands["query_id"], ids[0])))
    # ground truth
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = unit[0] @ unit.T
    order = np.lexsort((ids, -sims))[:5]
    assert merged["vec_id"].to_pylist() == ids[order].tolist()
    assert merged["rank"].to_pylist() == [1, 2, 3, 4, 5]


def test_ivf_ann_recall(ray_session):
    """IVF ANN finds the exact self-match and achieves nontrivial
    recall vs the brute-force ground truth (random vectors are the
    worst case for IVF — recall here is a floor, not a target)."""
    import numpy as np
    import ray.data as rd

    from rust_geo_booleanop_ray.pipelines.catalog.ann import _ann_queries
    from rust_geo_booleanop_ray.stages.ann import (
        brute_force_topk,
        ivf_topk,
        train_ivf_centroids,
    )

    sf = "/root/testdata/sf0.001"
    ds = rd.read_parquet(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    queries = _ann_queries(sf)

    import pyarrow.parquet as pq

    emb = pq.read_table(f"{sf}/embeddings.parquet", columns=["embedding"])[
        "embedding"
    ].combine_chunks()
    smat = emb.values.to_numpy(zero_copy_only=False).reshape(len(emb), -1)
    centroids = train_ivf_centroids(smat.astype(np.float64), n_centroids=8)

    truth = brute_force_topk(ds, queries, 10).take_all()
    approx = ivf_topk(ds, queries, 10, centroids, nprobe=3).take_all()

    t_by_q = {}
    for r in truth:
        t_by_q.setdefault(r["query_id"], set()).add(r["vec_id"])
    a_by_q = {}
    for r in approx:
        a_by_q.setdefault(r["query_id"], set()).add(r["vec_id"])

    recalls = []
    for q, tset in t_by_q.items():
        aset = a_by_q.get(q, set())
        recalls.append(len(aset & tset) / len(tset))
    # self-match (cosine 1.0) must always be found: the query's own
    # vector lives in the probed centroid by construction
    for q in t_by_q:
        assert q in a_by_q and q in a_by_q[q]
    assert np.mean(recalls) >= 0.2, np.mean(recalls)


def test_connected_components_matches_union_find(ray_session):
    """Distributed label propagation + pointer jumping == a local
    union-find on a random graph with chains, cliques and singleton
    bridge structure."""
    import ray.data as rd

    from rust_geo_booleanop_ray.stages.dedup import connected_components

    rng = np.random.Generator(np.random.PCG64(5))
    nodes = np.arange(100, 200)
    edges = []
    # long chain (exercises pointer jumping), a clique, random pairs
    for i in range(100, 130):
        edges.append((i, i + 1))
    for i in range(150, 155):
        for j in range(i + 1, 155):
            edges.append((i, j))
    for _ in range(25):
        a, b = rng.choice(nodes, 2, replace=False)
        edges.append((int(a), int(b)))

    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    expected = {}
    for a, b in edges:
        for x in (a, b):
            expected[x] = find(x)
    # canonicalize: representative = min of each component
    comp_min = {}
    for x, r in expected.items():
        comp_min[r] = min(comp_min.get(r, x), x)
    expected = {x: comp_min[find(x)] for x in expected}

    pairs = rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([a for a, _ in edges], pa.int64()),
                "doc_b": pa.array([b for _, b in edges], pa.int64()),
            }
        )
    )
    got = {
        r["node"]: r["component"]
        for r in connected_components(pairs).take_all()
    }
    assert got == expected


def test_contain_join_group_chunks_hot_cell(monkeypatch):
    """One hot cell must never allocate an unbounded pts×rects matrix:
    with ``cells.MAX_CONTAIN_MATRIX`` forced tiny, ``contain_chunks``
    yields many small matrices, and each of the three point-in-rect
    kernels (pip, antijoin, zonal stats) gives the same table as with
    one matrix, and as a brute-force loop."""
    from rust_geo_booleanop_ray.pipelines.catalog import spatial as S
    from rust_geo_booleanop_ray.stages import cells

    rng = np.random.Generator(np.random.PCG64(17))
    n_pts, n_rects = 400, 300
    px, py = rng.integers(0, 100, n_pts), rng.integers(0, 100, n_pts)
    # integer rects: many points sit exactly on a rect edge (bounds count)
    cx, cy = rng.integers(0, 100, n_rects), rng.integers(0, 100, n_rects)
    hw, hh = rng.integers(1, 8, n_rects), rng.integers(1, 8, n_rects)
    pt_ids = np.arange(n_pts, dtype=np.int64) * 7 + 3
    rect_ids = np.arange(n_rects, dtype=np.int64) + 10_000
    group = pa.concat_tables(
        [
            cells.side_table(cells.PROBE, pt_ids, px, py, px, py),
            cells.side_table(cells.BUILD, rect_ids, cx - hw, cy - hh, cx + hw, cy + hh),
        ]
    )
    inside = (
        (px[None, :] >= (cx - hw)[:, None])
        & (px[None, :] <= (cx + hw)[:, None])
        & (py[None, :] >= (cy - hh)[:, None])
        & (py[None, :] <= (cy + hh)[:, None])
    )
    ri, pi = np.nonzero(inside)
    brute_pip = sorted(zip(rect_ids[ri].tolist(), pt_ids[pi].tolist()))
    brute_anti = sorted(pt_ids[~inside.any(axis=0)].tolist())
    metric = pt_ids % 1000
    hit = inside.any(axis=1)
    brute_zonal = sorted(
        zip(rect_ids[hit].tolist(), inside.sum(axis=1)[hit].tolist(), (inside @ metric)[hit].tolist())
    )
    assert brute_pip and brute_anti and brute_zonal

    def outputs():
        return {
            "pip": sorted(zip(*(S._pip_group(group)[c].to_pylist() for c in ("p_partkey", "c_custkey")))),
            "anti": sorted(S._antijoin_group(group)["c_custkey"].to_pylist()),
            "zonal": sorted(
                zip(*(S._zonal_group(group)[c].to_pylist() for c in ("p_partkey", "n_points", "sum_metric")))
            ),
        }

    pts, rects = cells.split_sides(group)
    assert len(list(cells.contain_chunks(pts, rects))) == 1
    full = outputs()
    monkeypatch.setattr(cells, "MAX_CONTAIN_MATRIX", 1000)  # 2 rects a chunk
    chunks = list(cells.contain_chunks(pts, rects))
    assert len(chunks) == 150 and all(m.size <= 1000 for _, m in chunks)
    chunked = outputs()
    assert full == chunked == {"pip": brute_pip, "anti": brute_anti, "zonal": brute_zonal}


def test_utf8_codepoints_vectorized_decoder():
    """1-4 byte sequences decode to the same code points as Python."""
    from rust_geo_booleanop_ray.functions.unicode import utf8_codepoints

    s = "aé中𝄞 zz-ß漢🎉x"
    data = np.frombuffer(s.encode("utf-8"), dtype=np.uint8)
    cps, prefix = utf8_codepoints(data)
    assert cps.tolist() == [ord(c) for c in s]
    # byte-segment → code-point-segment mapping
    head = "aé中"
    nb = len(head.encode("utf-8"))
    assert prefix[nb] == len(head)
    # empty buffer
    cps0, p0 = utf8_codepoints(np.empty(0, dtype=np.uint8))
    assert len(cps0) == 0 and p0.tolist() == [0]


def test_deterministic_hash_parameters():
    """Rademacher planes and minhash coefficients are pure functions of
    (seed, shape) — stable across processes for the SQL oracles."""
    from rust_geo_booleanop_ray.stages.dedup import (
        minhash_coeffs,
        rademacher_planes,
    )

    p1 = rademacher_planes(64, 8, seed=13)
    p2 = rademacher_planes(64, 8, seed=13)
    assert (p1 == p2).all()
    assert set(np.unique(p1)) == {-1.0, 1.0}
    # roughly balanced signs
    assert 0.3 < (p1 > 0).mean() < 0.7
    a1, b1 = minhash_coeffs(64, 7)
    a2, b2 = minhash_coeffs(64, 7)
    assert (a1 == a2).all() and (b1 == b2).all()
    assert (a1 >= 1).all() and (a1 < (1 << 61) - 1).all()
    assert len(set(a1.tolist())) == 64  # all distinct


def test_regex_token_count_matches_python_re():
    import re

    from rust_geo_booleanop_ray.stages.text import (
        BPE_PATTERN,
        regex_token_count_batch,
    )

    texts = ["Hello, world! 42 times... café 中文 naïve-test", "a1b2 c-3", "", "   ", "x"]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()), "text": pa.array(texts)})
    out = regex_token_count_batch(t)
    assert out["bpe_tokens"].to_pylist() == [
        len(re.findall(BPE_PATTERN, s)) for s in texts
    ]


def test_tfidf_scorer_matches_bruteforce():
    """doc_term_tf + df partials + the broadcast scorer reproduce a
    plain Python tf-idf top-k on a small corpus."""
    import re
    from collections import Counter

    from rust_geo_booleanop_ray.stages.text import (
        TFIDF_SCALE,
        df_partial_from_tf,
        doc_term_tf_batch,
        make_tfidf_scorer,
    )

    texts = [
        "the cat sat on the mat",
        "the dog ate the cat food",
        "mat and dog and cat",
        "quantum flux capacitor energy",
        "energy flux of the dog",
    ]
    batch = pa.table({"doc_id": [f"d{i}" for i in range(5)], "text": texts})
    # brute force
    toks = [
        [w for w in re.split(r"[^a-z]+", t.lower()) if w] for t in texts
    ]
    df = Counter()
    for ws in toks:
        df.update(set(ws))
    vocab = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))[:100]
    idf = {t: (5 * TFIDF_SCALE) // d for t, d in vocab}
    want = {}
    for i, ws in enumerate(toks):
        tf = Counter(ws)
        scored = sorted(
            ((tf[t] * idf[t], t) for t in tf if t in idf),
            key=lambda sv: (-sv[0], sv[1]),
        )[:3]
        want[f"d{i}"] = [(t, s) for s, t in scored]

    # engine path
    tf_tab = doc_term_tf_batch(batch)
    dfp = df_partial_from_tf(tf_tab)
    assert dict(zip(dfp["term"].to_pylist(), dfp["df"].to_pylist())) == dict(df)
    terms = np.array(sorted(idf))
    idfv = np.array([idf[t] for t in terms], dtype=np.int64)
    out = make_tfidf_scorer(terms, idfv, 3)(batch)
    got = {}
    for row in out.to_pylist():
        got.setdefault(row["doc_id"], []).append((row["term"], row["score"]))
    assert got == want


def test_latest_by_key_matches_bruteforce(ray_session):
    import ray.data as rd

    from rust_geo_booleanop_ray.stages.compact import last_per_key, latest_by_key

    rng = np.random.RandomState(41)
    n = 500
    t = pa.table(
        {
            "k": pa.array(rng.randint(0, 60, n).astype(np.int64)),
            "ts": pa.array(rng.randint(0, 50, n).astype(np.int64)),  # many ties
            "uid": pa.array(np.arange(n, dtype=np.int64)),
            "payload": pa.array(rng.randint(0, 10**6, n).astype(np.int64)),
        }
    )
    # brute force: max (ts, uid) per key
    want = {}
    for k, ts, uid, p in zip(*(t[c].to_pylist() for c in t.column_names)):
        if k not in want or (ts, uid) > want[k][:2]:
            want[k] = (ts, uid, p)
    # single-table kernel
    out = last_per_key(t, "k", ("ts", "uid"))
    got = {
        r["k"]: (r["ts"], r["uid"], r["payload"]) for r in out.to_pylist()
    }
    assert got == want
    # distributed: answer must not depend on block boundaries
    ds = rd.from_arrow(t).repartition(7)
    rows = latest_by_key(ds, "k", ("ts", "uid")).take_all()
    got_ds = {r["k"]: (r["ts"], r["uid"], r["payload"]) for r in rows}
    assert got_ds == want
    # out_cols OMITTING the order columns must still work (the partial
    # sorts on them internally) and must project the final result
    ds2 = rd.from_arrow(t).repartition(7)
    rows2 = latest_by_key(ds2, "k", ("ts", "uid"), out_cols=["payload"]).take_all()
    assert rows2 and set(rows2[0].keys()) == {"k", "payload"}
    assert {r["k"]: r["payload"] for r in rows2} == {
        k: v[2] for k, v in want.items()
    }


def test_salted_distinct_count_exact(ray_session):
    import ray.data as rd

    from rust_geo_booleanop_ray.stages.distinct import salted_distinct_count

    rng = np.random.RandomState(47)
    n = 3000
    t = pa.table(
        {
            "g": pa.array(rng.choice(["a", "b", "c"], n)),
            "u": pa.array(rng.randint(0, 200, n).astype(np.int64)),
        }
    )
    want = {}
    for g, u in zip(t["g"].to_pylist(), t["u"].to_pylist()):
        want.setdefault(g, set()).add(u)
    want = {g: len(s) for g, s in want.items()}
    rows = salted_distinct_count(rd.from_arrow(t).repartition(5), "g", "u").take_all()
    assert {r["g"]: r["n_distinct"] for r in rows} == want


def test_skyline_2d_matches_bruteforce_with_ties():
    from rust_geo_booleanop_ray.pipelines.catalog.agg import _skyline_2d

    rng = np.random.RandomState(53)
    # small value ranges force plenty of exact ties in both dims
    p = rng.randint(0, 12, 400).astype(np.int64)
    d = rng.randint(0, 12, 400).astype(np.int64)
    keep = set(_skyline_2d(p, d).tolist())
    for i in range(400):
        dominated = any(
            (p[j] >= p[i] and d[j] >= d[i] and (p[j] > p[i] or d[j] > d[i]))
            for j in range(400)
        )
        assert (i in keep) == (not dominated), i
    # skyline-of-skylines merge property on a random split
    a = _skyline_2d(p[:150], d[:150])
    b = _skyline_2d(p[150:], d[150:]) + 150
    sub = np.concatenate([a, b])
    merged = sub[_skyline_2d(p[sub], d[sub])]
    assert set(merged.tolist()) == keep


def test_exact_dedup_bucketed_merge_matches_per_group():
    from rust_geo_booleanop_ray.stages.dedup import exact_dedup_merge_bucket
    from rust_geo_booleanop_ray.stages.exchange import bucket_of

    rng = np.random.RandomState(59)
    texts = [f"doc-{i % 37}" for i in range(300)]  # 37 distinct contents
    t = pa.table(
        {
            "doc_id": pa.array(rng.permutation(300).astype(np.int64)),
            "text": pa.array(texts),
        }
    )
    hashed = content_hash_batch(t)
    # two partial blocks merged through the bucketed kernel
    p1 = exact_dedup_partial(hashed.slice(0, 150))
    p2 = exact_dedup_partial(hashed.slice(150))
    both = pa.concat_tables([p1, p2])
    both = both.append_column("bucket", pa.array(bucket_of(both, "content_hash")))
    out_parts = []
    for bkt in set(both["bucket"].to_pylist()):
        g = both.filter(pa.array(np.asarray(both["bucket"].to_pylist()) == bkt))
        out_parts.append(exact_dedup_merge_bucket(g))
    out = pa.concat_tables(out_parts)
    got = {r["content_hash"]: (r["doc_id"], r["n"]) for r in out.to_pylist()}
    # brute force
    want = {}
    hs = hashed["content_hash"].to_pylist()
    ds_ = hashed["doc_id"].to_pylist()
    for h, d in zip(hs, ds_):
        lo, n = want.get(h, (d, 0))
        want[h] = (min(lo, d), n + 1)
    assert got == want


def test_overlap_matrix_matches_str_tree(monkeypatch):
    """``overlap_pairs`` (``contain_chunks``' matrices) over two bbox
    sets gives exactly ``STRtree.query_many``'s (row, candidate) pairs,
    in the same order, with one matrix and in tiny chunks: integer boxes that share edges
    and corners, and degenerate ones, overlap when their closed boxes
    meet."""
    from rust_geo_booleanop_ray.functions.rtree import STRtree
    from rust_geo_booleanop_ray.stages import cells

    rng = np.random.Generator(np.random.PCG64(29))

    def boxes(n, side):
        x, y = rng.integers(0, 40, n), rng.integers(0, 40, n)
        w, h = rng.integers(0, 6, n), rng.integers(0, 6, n)  # 0: a segment or a point
        return cells.side_table(side, np.arange(n), x, y, x + w, y + h)

    probe, build = boxes(500, cells.PROBE), boxes(300, cells.BUILD)
    bounds = ("minx", "miny", "maxx", "maxy")
    tree = STRtree(*(build[c].to_numpy() for c in bounds))
    want = tree.query_many(*(probe[c].to_numpy() for c in bounds))
    # shared edges and corners are among the pairs
    touch = (
        (probe["maxx"].to_numpy()[want[0]] == build["minx"].to_numpy()[want[1]])
        | (probe["maxy"].to_numpy()[want[0]] == build["miny"].to_numpy()[want[1]])
    )
    assert len(want[0]) > 1000 and touch.sum() > 100

    for limit in (cells.MAX_CONTAIN_MATRIX, 1000):
        monkeypatch.setattr(cells, "MAX_CONTAIN_MATRIX", limit)
        assert len(list(cells.contain_chunks(build, probe))) == (1 if limit > 10**5 else 167)
        got = cells.overlap_pairs(build, probe)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
