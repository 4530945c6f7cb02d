"""Image near-dup corpus, DecodePhash stage, and the banded pipeline.

Mirrors the reference's test strategy for the dedup family (SURVEY §5):
deterministic source, stage parity vs a scalar recompute, and the full
pipeline vs an independent brute-force reference.
"""

import numpy as np
import pyarrow as pa

from rust_geo_booleanop_ray.sources.images import (
    _VAR_MOD,
    _base_pixels,
    _neardup_pixels,
    _phash64,
    _variant_base,
    expected_neardup_phashes,
    synth_neardup_batch,
)
from rust_geo_booleanop_ray.stages.image_ops import DecodePhash, decode_image


def test_neardup_source_deterministic_and_sliceable():
    a = synth_neardup_batch(np.arange(60))
    b = synth_neardup_batch(np.arange(60))
    assert a.equals(b)
    c = synth_neardup_batch(np.arange(20, 40))
    assert c.equals(a.slice(20, 20))


def test_variant_rows_derive_from_valid_bases():
    for i in range(_VAR_MOD - 1, 400, _VAR_MOD):
        b = _variant_base(i)
        assert 0 <= b < i
        assert b % _VAR_MOD != _VAR_MOD - 1  # base is never itself a variant
        # variant keeps the base's dims and differs in at most 3 pixels
        vp, bp = _neardup_pixels(i), _base_pixels(b)
        assert vp.shape == bp.shape
        diff = (vp != bp).any(axis=2).sum()
        assert 1 <= diff <= 3


def test_non_variant_rows_match_primary_pixel_math():
    for i in [0, 1, 5, 7, 33, 100]:
        assert i % _VAR_MOD != _VAR_MOD - 1
        assert np.array_equal(_neardup_pixels(i), _base_pixels(i))


def test_expected_phashes_match_decode_path():
    """The oracle helper (generator-side pixel math) agrees with the
    engine's decode recompute on every row, including the PNG-encoded
    slice — the same parity that makes the driver comparison pin the
    codec."""
    t = synth_neardup_batch(np.arange(120))
    expected = expected_neardup_phashes(120)
    assert t["phash"].to_pylist() == expected["phash"].to_pylist()
    stage = DecodePhash()
    out = stage(t)
    assert out["phash"].to_pylist() == expected["phash"].to_pylist()
    assert out["img_idx"].to_pylist() == list(range(120))
    # at least one row actually exercised the PNG codec
    assert "png" in set(t["fmt"].to_pylist())


def test_expected_phashes_checksum_sensitive():
    """Perturbing one pixel of one row changes that row's phash input
    distribution detectably often — the oracle literal is a real pin,
    not a constant.  (A single-cell brightness change flips the cell's
    threshold bit unless it was already far above the mean.)"""
    flips = 0
    for i in range(20):
        px = _neardup_pixels(i)
        mod = px.copy()
        mod[0, 0] = 255 - mod[0, 0]
        if _phash64(mod) != _phash64(px):
            flips += 1
    assert flips >= 10


def _brute_force_banded_pairs(phashes: np.ndarray, max_hamming: int):
    """Independent scalar reference: all-pairs popcount, keep pairs
    within max_hamming that share >=1 of the 4 16-bit bands (the
    blocking semantics the pipeline implements)."""
    out = set()
    n = len(phashes)
    u = phashes.view(np.uint64)
    for a in range(n):
        for b in range(a + 1, n):
            x = int(u[a] ^ u[b])
            ham = bin(x).count("1")
            if ham > max_hamming:
                continue
            shares = any(
                (x >> (16 * k)) & 0xFFFF == 0 for k in range(4)
            )
            if shares:
                out.add((a, b, ham))
    return out


def test_pipeline_matches_brute_force(ray_session):
    from ray.data.aggregate import Min

    from rust_geo_booleanop_ray.pipelines.catalog.image import _phash_band_explode
    from rust_geo_booleanop_ray.sources.images import read_synth_neardup_images
    from rust_geo_booleanop_ray.stages.dedup import SimhashPairs

    N, MAXH = 300, 6
    ds = read_synth_neardup_images(N)
    hashed = ds.map_batches(
        DecodePhash(), batch_format="pyarrow", batch_size=64
    )
    pairs = (
        hashed.map_batches(_phash_band_explode, batch_format="pyarrow")
        .groupby(["band_id", "band_val"])
        .map_groups(
            SimhashPairs(
                max_hamming=MAXH,
                key_col="img_idx",
                sig_col="phash",
                out_cols=("img_a", "img_b"),
            ),
            batch_format="pyarrow",
        )
        .groupby(["img_a", "img_b"])
        .aggregate(Min("hamming", alias_name="hamming"))
    )
    got = {
        (r["img_a"], r["img_b"], r["hamming"]) for r in pairs.take_all()
    }
    ph = expected_neardup_phashes(N)["phash"].to_numpy()
    want = _brute_force_banded_pairs(ph, MAXH)
    assert got == want
    assert len(want) > 10  # planted variants make the check non-vacuous


def test_thumb_features_match_decode_path():
    """Generator-side feature helper == decode-path recompute on every
    row (incl. the PNG slice), and features are within the documented
    integer range."""
    from rust_geo_booleanop_ray.sources.images import (
        expected_thumb_features,
        synth_image_batch,
        thumb_features,
    )

    t = synth_image_batch(np.arange(80))
    expected = expected_thumb_features(80)
    for j in range(t.num_rows):
        px = decode_image(
            t["bytes"][j].as_py(),
            t["w"][j].as_py(),
            t["h"][j].as_py(),
            t["fmt"][j].as_py(),
        )
        f = thumb_features(px)
        want = [expected[f"f{d}"][j].as_py() for d in range(16)]
        assert f.tolist() == want
        assert f.min() >= 0 and f.max() <= 765


def test_image_sim_matches_brute_force(ray_session):
    """Engine top-k == a scalar numpy reference over the full corpus
    (exact integer distances, (dist, img_idx) tie-break)."""
    from rust_geo_booleanop_ray.sources.images import (
        expected_thumb_features,
        read_synth_images,
    )
    from rust_geo_booleanop_ray.stages.image_ops import (
        ImageSimMerge,
        ImageSimPartial,
    )

    N, K = 400, 4
    qpos = [0, 97, 222]
    feats_t = expected_thumb_features(N)
    feats = np.stack(
        [feats_t[f"f{d}"].to_numpy() for d in range(16)], axis=1
    )
    qmat = feats[qpos]
    ref = {}
    for qi, q in zip(qpos, qmat):
        d = ((feats - q) ** 2).sum(axis=1)
        order = np.lexsort((np.arange(N), d))[:K]
        ref.update(
            {
                (qi, int(i)): (int(d[i]), r + 1)
                for r, i in enumerate(order)
            }
        )

    out = (
        read_synth_images(N)
        .map_batches(
            ImageSimPartial((np.array(qpos, dtype=np.int64), qmat), K),
            batch_format="pyarrow",
            batch_size=64,
        )
        .groupby("query_idx")
        .map_groups(ImageSimMerge(K), batch_format="pyarrow")
    )
    got = {
        (r["query_idx"], r["img_idx"]): (r["dist"], r["rank"])
        for r in out.take_all()
    }
    assert got == ref
    for qi in qpos:  # self-match at distance 0, rank 1
        assert got[(qi, qi)] == (0, 1)


def test_band_blocking_complete_under_pigeonhole():
    """Every hamming<=3 pair MUST share a band (4 bands, pigeonhole) —
    the blocking loses nothing inside its guarantee radius."""
    ph = expected_neardup_phashes(200)["phash"].to_numpy()
    u = ph.view(np.uint64)
    for a in range(len(u)):
        for b in range(a + 1, len(u)):
            x = int(u[a] ^ u[b])
            if bin(x).count("1") <= 3:
                assert any((x >> (16 * k)) & 0xFFFF == 0 for k in range(4))
