"""Bucketed LSH candidate kernel ≡ the per-group reference classes.

`banded_pairs_bucketed` replaces `groupby(band_cols).map_groups(...)`
(one Python call per distinct band bucket — the forbidden
rows-cardinality pattern) with a hash-bucket shuffle + one vectorized
lexsort/run-boundary kernel per bucket.  The exchange semantics are
identical, so the verified pair set (and per-pair values, after the
pair_reduce merge) must match the per-group classes exactly.
"""

import numpy as np
import pyarrow as pa
import pytest

from rust_geo_booleanop_ray.stages.dedup import (
    LshCandidatePairs,
    MinHasher,
    SimhashPairs,
    band_explode,
    hamming_candidate_pairs,
    lsh_band_explode,
    minhash_candidate_pairs,
    pair_reduce,
)


def _pairs_dict(table: pa.Table, a, b, v):
    return {
        (r[a], r[b]): r[v] for r in table.to_pylist()
    }


def _reference_pairs(exploded: pa.Table, band_cols, group_fn, a, b, v, how):
    """Per-group reference: python groupby over the band cols, the old
    map_groups class per group, min/max merge of duplicate pairs."""
    df = exploded.to_pandas()
    out = {}
    for _, g in df.groupby(list(band_cols)):
        res = group_fn(pa.Table.from_pandas(g, preserve_index=False))
        for r in res.to_pylist():
            key = (r[a], r[b])
            if key in out:
                out[key] = (min if how == "min" else max)(out[key], r[v])
            else:
                out[key] = r[v]
    return out


def _rand_docs(n=120, seed=3):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(40)]
    texts = []
    for i in range(n):
        toks = list(rng.choice(vocab, size=12))
        texts.append(" ".join(toks))
    # planted near-dups: copies with one token changed
    for i in range(0, n, 10):
        t = texts[i].split(" ")
        t[-1] = "zz"
        texts[i + 1] = " ".join(t)
    return pa.table(
        {"doc_id": pa.array(np.arange(n), pa.int64()), "text": pa.array(texts)}
    )


def test_minhash_bucketed_matches_per_group(ray_session):
    import ray.data as rd

    docs = _rand_docs()
    sigs = MinHasher(n_perm=64, seed=5)(docs)
    exploded = lsh_band_explode(sigs, bands=8)

    want = _reference_pairs(
        exploded,
        ("band_id", "band_hash"),
        LshCandidatePairs(threshold=0.4),
        "doc_a",
        "doc_b",
        "est_jaccard",
        how="max",
    )
    # split into several blocks so the bucket shuffle actually moves rows
    ds = rd.from_arrow(exploded).repartition(5)
    got_t = pa.Table.from_pylist(
        pair_reduce(
            minhash_candidate_pairs(ds, threshold=0.4),
            "doc_a",
            "doc_b",
            "est_jaccard",
            how="max",
        ).take_all()
    )
    got = _pairs_dict(got_t, "doc_a", "doc_b", "est_jaccard")
    assert got == want
    assert len(want) > 0  # the planted dups must surface


def test_hamming_bucketed_matches_per_group(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(11)
    n = 200
    sigs = rng.integers(0, 1 << 63, size=n, dtype=np.int64)
    # planted close pairs: flip ≤2 bits of the previous signature
    for i in range(0, n, 8):
        flip = np.int64(1 << int(rng.integers(0, 64))) if i % 16 else np.int64(0)
        sigs[i + 1] = sigs[i] ^ flip
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "simhash": pa.array(sigs, pa.int64()),
        }
    )
    exploded = band_explode(t, "doc_id", "simhash", bands=4)

    want = _reference_pairs(
        exploded,
        ("band_id", "band_val"),
        SimhashPairs(max_hamming=3),
        "doc_a",
        "doc_b",
        "hamming",
        how="min",
    )
    ds = rd.from_arrow(exploded).repartition(5)
    got_t = pa.Table.from_pylist(
        pair_reduce(
            hamming_candidate_pairs(ds, max_hamming=3),
            "doc_a",
            "doc_b",
            "hamming",
            how="min",
        ).take_all()
    )
    got = _pairs_dict(got_t, "doc_a", "doc_b", "hamming")
    assert got == want
    assert len(want) > 0


def test_bucketed_kernel_duplicate_ids_tolerated(ray_session):
    """A doc appearing twice in one band bucket (defensive contract the
    old np.unique path honored) must not self-pair."""
    import ray.data as rd

    t = pa.table(
        {
            "band_id": pa.array([0, 0, 0], pa.int64()),
            "band_val": pa.array([7, 7, 7], pa.int64()),
            "doc_id": pa.array([1, 1, 2], pa.int64()),
            "simhash": pa.array([5, 5, 5], pa.int64()),
        }
    )
    out = pa.Table.from_pylist(
        hamming_candidate_pairs(rd.from_arrow(t), max_hamming=3).take_all()
    )
    assert sorted((r["doc_a"], r["doc_b"]) for r in out.to_pylist()) == [(1, 2)]


def test_minhasher_batch_kernel_matches_per_doc():
    """The whole-batch MinHasher kernel must be bit-identical to the
    per-doc signature() path (the oracle inlines that exact
    arithmetic): unicode texts, short docs (< k), empty strings,
    duplicates, k-length docs."""
    rng = np.random.default_rng(5)
    vocab = ["alpha", "beta", "gamma", "δέλτα", "中文词", "x", "épsilon"]
    texts = []
    for i in range(300):
        n_tok = int(rng.integers(0, 9))
        texts.append(" ".join(rng.choice(vocab, size=n_tok)) if n_tok else "")
    texts += ["", "ab", "abcde", "abcdef", texts[5], "中文词中文"]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    mh = MinHasher()
    out = mh(t)
    got = out["sig"].combine_chunks().values.to_numpy().reshape(len(texts), -1)
    for i, txt in enumerate(texts):
        want = mh.signature(txt)
        assert (got[i] == want).all(), f"doc {i} ({txt!r}) signature mismatch"
