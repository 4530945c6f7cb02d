"""Unit tests for the grouped top-k combiner and the HLL sketch stage."""

import numpy as np
import pyarrow as pa

from rust_geo_booleanop_ray.stages.sketch import (
    HLL_M,
    hll_finalize_group,
    hll_partial,
)
from rust_geo_booleanop_ray.stages.topk import grouped_topk_batch, topk_select


def test_topk_select_matches_brute_force():
    rng = np.random.RandomState(7)
    g = rng.randint(0, 5, 200)
    v = rng.randint(0, 50, 200).astype(np.int64)
    tie = np.arange(200, dtype=np.int64)
    rng.shuffle(tie)
    idx, rank = topk_select(g, v, tie, 3)
    # brute force per group
    for grp in range(5):
        rows = [(int(v[i]), int(tie[i]), i) for i in np.flatnonzero(g == grp)]
        rows.sort(key=lambda r: (-r[0], r[1]))
        want = [r[2] for r in rows[:3]]
        got = [int(i) for i, gg in zip(idx, g[idx]) if gg == grp]
        assert got == want
        got_ranks = [int(r) for i, r in zip(idx, rank) if g[i] == grp]
        assert got_ranks == list(range(1, len(want) + 1))


def test_topk_combiner_is_exact():
    """top-k of per-part top-ks == global top-k (the monoid property
    the shuffle relies on)."""
    rng = np.random.RandomState(3)
    t = pa.table(
        {
            "g": pa.array(rng.choice(["a", "b", "c"], 500).tolist()),
            "v": pa.array(rng.randint(0, 30, 500).astype(np.int64)),
            "tie": pa.array(np.random.RandomState(4).permutation(500).astype(np.int64)),
        }
    )
    whole, rank_whole = grouped_topk_batch(
        t, "g", t["v"].to_numpy(), t["tie"].to_numpy(), 4
    )
    parts = [t.slice(0, 130), t.slice(130, 170), t.slice(300)]
    partials = []
    for p in parts:
        kept, _ = grouped_topk_batch(p, "g", p["v"].to_numpy(), p["tie"].to_numpy(), 4)
        partials.append(kept)
    merged = pa.concat_tables(partials)
    re_kept, rank_re = grouped_topk_batch(
        merged, "g", merged["v"].to_numpy(), merged["tie"].to_numpy(), 4
    )
    key = lambda tbl: sorted(
        zip(
            tbl["g"].to_pylist(), tbl["v"].to_pylist(), tbl["tie"].to_pylist()
        )
    )
    assert key(re_kept) == key(whole)


def _finalize(partials, group_col="g"):
    merged = pa.concat_tables(partials)
    return hll_finalize_group(merged, group_col)


def test_hll_estimate_accuracy_and_merge():
    """Sketch estimate lands within the expected HLL error band
    (~1.04/sqrt(64) ≈ 13% rse) and merging partials == one-shot."""
    n = 20000
    keys = np.arange(n, dtype=np.int64)
    t = pa.table({"k": pa.array(keys), "g": pa.array(["x"] * n)})
    one_shot = _finalize([hll_partial(t, "k", "g")])
    split = _finalize(
        [hll_partial(t.slice(0, 7000), "k", "g"),
         hll_partial(t.slice(7000, 9000), "k", "g"),
         hll_partial(t.slice(16000), "k", "g")]
    )
    assert one_shot.to_pydict() == split.to_pydict()
    est = one_shot["est_distinct"][0].as_py()
    assert abs(est - n) / n < 0.35  # 64 registers -> sigma ~13%
    # duplicates must not move the sketch at all
    dup = pa.concat_tables([t, t, t.slice(0, 5000)])
    dup_res = _finalize([hll_partial(dup, "k", "g")])
    assert dup_res.to_pydict() == one_shot.to_pydict()


def test_hll_register_width():
    t = pa.table({"k": pa.array([1, 2, 3], pa.int64()), "g": pa.array(["a"] * 3)})
    part = hll_partial(t, "k", "g")
    assert part["hll_regs"].type == pa.list_(pa.uint8(), HLL_M)
    assert part.num_rows == 1


def test_topk_smallest_uint64_hash_ranks():
    """smallest=True keeps the k smallest values without negation —
    exercised with uint64 hashes above 2**63 where negation would be
    undefined; brute-force per group."""
    rng = np.random.RandomState(11)
    g = rng.randint(0, 4, 300)
    v = rng.randint(0, 2**63 - 1, 300, dtype=np.int64).view(np.uint64) + np.uint64(
        2**63
    )
    tie = np.arange(300, dtype=np.int64)
    idx, rank = topk_select(g, v, tie, 5, smallest=True)
    for grp in range(4):
        rows = [(int(v[i]), int(tie[i]), i) for i in np.flatnonzero(g == grp)]
        rows.sort(key=lambda r: (r[0], r[1]))
        want = [r[2] for r in rows[:5]]
        got = [int(i) for i, gg in zip(idx, g[idx]) if gg == grp]
        assert got == want


def test_bottom_k_sample_is_nested_and_mergeable():
    """The stratified-sample invariants: bottom-k of concatenated
    per-part bottom-ks == global bottom-k (monoid), and the k'=3
    sample is a prefix of the k=6 sample (nesting)."""
    rng = np.random.RandomState(13)
    t = pa.table(
        {
            "g": pa.array(rng.choice(["x", "y"], 400).tolist()),
            "key": pa.array(np.arange(400, dtype=np.int64)),
        }
    )
    h = np.random.RandomState(14).permutation(400).astype(np.uint64) * np.uint64(
        2**54
    )
    whole, _ = grouped_topk_batch(t, "g", h, t["key"].to_numpy(), 6, smallest=True)
    parts = [(t.slice(0, 150), h[:150]), (t.slice(150), h[150:])]
    partials = []
    for p, hp in parts:
        kept, _ = grouped_topk_batch(p, "g", hp, p["key"].to_numpy(), 6, smallest=True)
        partials.append(kept)
    merged = pa.concat_tables(partials)
    hm = np.array(
        [int(h[k]) for k in merged["key"].to_pylist()], dtype=np.uint64
    )
    re_kept, _ = grouped_topk_batch(
        merged, "g", hm, merged["key"].to_numpy(), 6, smallest=True
    )
    key = lambda tbl: sorted(zip(tbl["g"].to_pylist(), tbl["key"].to_pylist()))
    assert key(re_kept) == key(whole)
    # nesting: k=3 selection is a prefix (subset) of the k=6 one
    small, _ = grouped_topk_batch(t, "g", h, t["key"].to_numpy(), 3, smallest=True)
    assert set(key(small)) <= set(key(whole))


def test_cms_merge_and_upper_bound():
    """Count-min invariants: split-and-sum partials == one-shot grid
    (the tree-reduce monoid), and every estimate upper-bounds the true
    frequency with equality for most keys at this load factor."""
    from rust_geo_booleanop_ray.stages.sketch import (
        CMS_D,
        CMS_W,
        cms_bucket,
        cms_estimate,
    )

    rng = np.random.RandomState(17)
    keys = rng.zipf(1.3, 5000).astype(np.int64) % 400

    def grid(ks):
        s = np.zeros((CMS_D, CMS_W), dtype=np.int64)
        vals, counts = np.unique(ks, return_counts=True)
        for i in range(CMS_D):
            np.add.at(s[i], cms_bucket(vals, i), counts)
        return s

    one = grid(keys)
    split = grid(keys[:1200]) + grid(keys[1200:3100]) + grid(keys[3100:])
    assert np.array_equal(one, split)

    probes = np.arange(400, dtype=np.uint64)
    est = cms_estimate(one, probes)
    true = np.bincount(keys, minlength=400)
    assert (est >= true).all()
    # at 400 distinct keys over 4x1024 buckets, collisions are rare
    assert (est == true).mean() > 0.95


def test_gram_partials_merge_and_quantize_half_up():
    """Gram-matrix invariants: per-slab partial products sum to the
    one-shot product (the tree-reduce monoid), and quantization is
    half-up at 3 decimals including negatives (mirrors the SQL's
    floor(x*1000 + 0.5))."""
    from rust_geo_booleanop_ray.stages.linalg import quantize_embeddings

    col = pa.array(
        [[0.0015, -0.0015], [0.25, -0.9999]], pa.list_(pa.float32())
    )
    q = quantize_embeddings(col)
    # float32 storage shifts 0.0015 slightly; assert against the same
    # half-up expression applied to the float64-widened stored values
    stored = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    want = np.floor(stored * 1000.0 + 0.5).astype(np.int64).reshape(2, 2)
    assert np.array_equal(q, want)
    assert q[0, 0] > 0 and q[0, 1] <= 0  # half-up: floor(-1.0) = -1

    rng = np.random.RandomState(23)
    m = rng.uniform(-0.6, 0.6, (300, 8)).astype(np.float32)
    arr = pa.array(m.tolist(), pa.list_(pa.float32()))
    full = quantize_embeddings(arr)
    one = full.T @ full
    split = sum(
        (lambda s: s.T @ s)(quantize_embeddings(pa.array(part.tolist(), pa.list_(pa.float32()))))
        for part in (m[:100], m[100:180], m[180:])
    )
    assert np.array_equal(one, split)
    assert np.array_equal(one, one.T)


def test_dim_stats_matches_bruteforce(ray_session):
    """build_dim_stats over a multi-block Dataset equals the one-shot
    numpy profile (sum/min/max per dimension over quantized values)."""
    import ray.data as rd

    from rust_geo_booleanop_ray.stages.linalg import (
        build_dim_stats,
        quantize_embeddings,
    )

    rng = np.random.RandomState(29)
    m = rng.uniform(-0.9, 0.9, (400, 8)).astype(np.float32)
    arr = pa.array(m.tolist(), pa.list_(pa.float32()))
    q = quantize_embeddings(arr)
    ds = rd.from_arrow(pa.table({"embedding": arr})).repartition(6)
    st = build_dim_stats(ds, "embedding", 8)
    assert np.array_equal(st["sum"], q.sum(axis=0))
    assert np.array_equal(st["min"], q.min(axis=0))
    assert np.array_equal(st["max"], q.max(axis=0))


def test_pivot_partial_matches_long_aggregation():
    """make_pivot_partial over split batches + a plain sum merge equals
    the long-form groupby(g, cat) aggregation."""
    from rust_geo_booleanop_ray.stages.pivot import (
        make_pivot_partial,
        pivot_column_names,
    )

    rng = np.random.RandomState(21)
    cats = ("a", "b", "c")
    g = rng.randint(0, 7, 500)
    cat = rng.choice(cats, 500)
    val = rng.randint(-50, 200, 500).astype(np.int64)
    t = pa.table(
        {
            "grp": pa.array(g),
            "cat": pa.array(cat.tolist()),
            "val": pa.array(val),
        }
    )
    partial = make_pivot_partial("grp", "cat", cats, lambda b: b["val"].to_numpy())
    parts = [partial(t.slice(0, 170)), partial(t.slice(170, 200)), partial(t.slice(370))]
    merged = pa.concat_tables(parts)
    names = pivot_column_names(cats)
    agg = pa.TableGroupBy(merged, "grp").aggregate([(n, "sum") for n in names])
    got = {}
    for row in agg.to_pylist():
        got[row["grp"]] = {n: row[f"{n}_sum"] for n in names}
    for grp in np.unique(g):
        for ci, c in enumerate(cats):
            m = (g == grp) & (cat == c)
            assert got[int(grp)][f"n_{c}"] == int(m.sum())
            assert got[int(grp)][f"v_{c}_c"] == int(val[m].sum())


def test_kmv_estimator_accuracy(ray_session):
    """Above the sketch size the KMV estimate must land near the true
    distinct count (standard error ~1/sqrt(k) ≈ 6% at k=256); below it
    the estimate is exactly the distinct count."""
    from rust_geo_booleanop_ray.pipelines.catalog.agg import q_kmv_overlap  # noqa: F401
    from rust_geo_booleanop_ray.stages.footprint import _splitmix64

    K = 256
    n_true = 20_000
    h = np.sort(_splitmix64(np.arange(n_true, dtype=np.uint64)))
    kth = int(h[K - 1])
    est = (K - 1) * (1 << 64) // kth
    assert abs(est - n_true) / n_true < 0.25
