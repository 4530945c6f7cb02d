"""Image/video/audio queries: codecs, features, near-dup, curation."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ._shared import Query, _values_oracle_sql


def q_image_features(sf_dir: str):
    """Synthetic image table → real decode (PNG rows inflate through
    the pure-numpy codec) → integer-exact per-image features.
    Value-exact: the oracle inlines GENERATOR-side expected values
    (phash + position-weighted pixel checksum computed from the input
    pixel math, never through the codec) as literals; the engine
    recomputes the same features through the encode→decode round trip,
    so driver equality pins the codec bit-for-bit on every row."""
    from ...sources.images import read_synth_images
    from ...stages.image_ops import DecodeFeatures

    ds = read_synth_images(2000)
    feats = ds.map_batches(
        DecodeFeatures(), batch_format="pyarrow", batch_size=256
    )

    def check(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "image_id": batch["image_id"],
                "phash": batch["phash_decoded"],
                "pix_checksum": batch["pix_checksum"],
            }
        )

    return feats.map_batches(check, batch_format="pyarrow")


def _build_image_features_sql() -> str:
    from ...sources.images import expected_decode_features

    return _values_oracle_sql(
        expected_decode_features(2000).rename_columns(
            ["image_id", "phash", "pix_checksum"]
        )
    )


def q_image_quality(sf_dir: str):
    """Image quality scoring + filter (stages/image_ops.py::
    DecodeQuality): real PNG/raw decode → integer-exact brightness /
    contrast / edge-energy signals → in-stage shed of below-mid-gray
    images, so rejected payloads never leave the map stage.  The image
    analogue of the text quality filter.  Value-exact: the oracle
    inlines GENERATOR-side stats for the passing rows (pixel math,
    never the codec), so driver equality pins decode + scoring + the
    filter decision on every row."""
    from ...sources.images import read_synth_images
    from ...stages.image_ops import DecodeQuality

    ds = read_synth_images(2000)
    return ds.map_batches(
        DecodeQuality(), batch_format="pyarrow", batch_size=256
    )


def _build_image_quality_sql() -> str:
    from ...sources.images import expected_quality_stats

    return _values_oracle_sql(expected_quality_stats(2000))


PYRAMID_N = 1200


def q_image_pyramid(sf_dir: str):
    """Thumbnail / resolution-ladder pyramid: real decode → two exact
    2× box-downsample levels per image → integer checksums.  The
    preprocessing ladder a tile server or multi-resolution trainer
    runs over every stored image; payloads drop inside the decode
    stage, so the exchange only ever sees 40-byte rows.  Value-exact:
    the oracle inlines generator-side per-level checksums (pixel
    math, never the codec), pinning decode + the downsample kernel
    bit-for-bit per (image, level)."""
    from ...sources.images import read_synth_images
    from ...stages.image_ops import DecodePyramid

    ds = read_synth_images(PYRAMID_N)
    return ds.map_batches(
        DecodePyramid(levels=2), batch_format="pyarrow", batch_size=256
    )


def _build_image_pyramid_sql() -> str:
    from ...sources.images import expected_pyramid

    return _values_oracle_sql(expected_pyramid(PYRAMID_N, levels=2))


AUG_N = 1200


def q_image_augment(sf_dir: str):
    """Training-augmentation fan-out: real decode → deterministic
    flip/rot90 variants → integer checksums, two rows per image.  The
    preprocessing stage a vision trainer runs per epoch; payloads drop
    inside the decode stage.  Value-exact: generator-side per-variant
    checksums (pixel math, never the codec) pin decode + each
    rearrangement bit-for-bit."""
    from ...sources.images import read_synth_images
    from ...stages.image_ops import DecodeAugment

    ds = read_synth_images(AUG_N)
    return ds.map_batches(
        DecodeAugment(), batch_format="pyarrow", batch_size=256
    )


def _build_image_augment_sql() -> str:
    from ...sources.images import expected_augmented

    return _values_oracle_sql(expected_augmented(AUG_N))


PIXHIST_N = 1500


def q_pixel_histogram(sf_dir: str):
    """Corpus-wide pixel-intensity histogram (16 bins, bin = byte>>4):
    the exposure/contrast profile a vision-data pipeline computes
    before normalization.  Real decode per image (PNG rows inflate
    through the codec); each batch folds its images into ONE 16-bin
    partial (np.bincount over all channel bytes), so the exchange
    carries 16 rows per block regardless of image count.  Value-exact:
    the oracle inlines the generator-side total histogram (pixel math,
    never the codec), pinning decode + binning over every byte of the
    corpus."""
    from ray.data.aggregate import Sum

    from ...sources.images import read_synth_images
    from ...stages.image_ops import decoded_pixels

    def partial(b: pa.Table) -> pa.Table:
        hist = np.zeros(16, dtype=np.int64)
        for px in decoded_pixels(b):
            hist += np.bincount(px.ravel() >> 4, minlength=16)
        return pa.table(
            {
                "bin": pa.array(np.arange(16, dtype=np.int64)),
                "n": pa.array(hist),
            }
        )

    ds = read_synth_images(PIXHIST_N)
    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=256)
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n"))
    )


def _build_pixel_histogram_sql(n_images: int = PIXHIST_N) -> str:
    from ...sources.images import _base_pixels

    hist = np.zeros(16, dtype=np.int64)
    for i in range(n_images):
        hist += np.bincount(_base_pixels(i).ravel() >> 4, minlength=16)
    rows = ",\n      ".join(
        f"(CAST({b} AS BIGINT), CAST({int(n)} AS BIGINT))"
        for b, n in enumerate(hist)
    )
    return f"""
    SELECT * FROM (VALUES
      {rows}
    ) AS expected(bin, n)
"""


JPEG_RT_N = 600


def q_jpeg_roundtrip(sf_dir: str):
    """The LOSSY codec path: mixed-format corpus (raw / png / baseline
    JPEG at JPEG_QUALITY, real pure-numpy DCT+Huffman codec) → stateless
    decode → per-row reconstruction invariant (psnr centi-dB vs the
    re-synthesized original, decoded-pixel checksum, PSNR≥40dB
    verdict — BASELINE.json input_hint).  Value-exact: the oracle
    inlines driver-side literals computed by the SAME generator +
    codec math (sources/images.py::roundtrip_metrics), so driver
    equality pins the distributed decode of genuinely lossy bytes."""
    from ...sources.images import read_synth_lossy_images
    from ...stages.image_ops import DecodeRoundtrip

    ds = read_synth_lossy_images(JPEG_RT_N)
    return ds.map_batches(
        DecodeRoundtrip(), batch_format="pyarrow", batch_size=128
    )


def _build_jpeg_roundtrip_sql() -> str:
    from ...sources.images import expected_roundtrip

    return _values_oracle_sql(expected_roundtrip(JPEG_RT_N))


JPEG_SWEEP_N = 200
JPEG_SWEEP_QUALITIES = (60, 80, 95)


def q_jpeg_quality_sweep(sf_dir: str):
    """Rate–distortion sweep: every image encoded at three JPEG
    qualities INSIDE the map stage (the distributed transcode a
    storage-budget pass runs), emitting (quality, payload bytes, PSNR
    centi-dB) per variant — 3 rows of 32 bytes per image leave the
    stage, never pixels.  Exercises the pure-numpy ENCODER (DCT,
    quantization, Huffman, byte stuffing) distributed, where
    jpeg_roundtrip exercises the decoder.  Value-exact: oracle inlines
    driver-side literals from the identical generator+codec math."""
    import ray.data as rd

    from ...sources.images import lossy_base_pixels
    from ...stages.image_ops import psnr

    def sweep(batch: pa.Table) -> pa.Table:
        from ...functions.jpeg import decode_jpeg, encode_jpeg

        idx = batch["id"].to_numpy()
        out_id, out_q, out_b, out_cb = [], [], [], []
        for i in idx:
            i = int(i)
            px = lossy_base_pixels(i)
            for q in JPEG_SWEEP_QUALITIES:
                data = encode_jpeg(px, quality=q)
                p = psnr(px, decode_jpeg(data))
                out_id.append(i)
                out_q.append(q)
                out_b.append(len(data))
                out_cb.append(
                    99999 if np.isinf(p) else int(np.floor(p * 100.0 + 0.5))
                )
        return pa.table(
            {
                "img_idx": pa.array(out_id, pa.int64()),
                "quality": pa.array(out_q, pa.int64()),
                "n_bytes": pa.array(out_b, pa.int64()),
                "psnr_cb": pa.array(out_cb, pa.int64()),
            }
        )

    ds = rd.range(JPEG_SWEEP_N)
    return ds.map_batches(sweep, batch_format="pyarrow", batch_size=32)


def _build_jpeg_sweep_sql() -> str:
    from ...functions.jpeg import decode_jpeg, encode_jpeg
    from ...sources.images import lossy_base_pixels
    from ...stages.image_ops import psnr

    ids, qs, bs, cbs = [], [], [], []
    for i in range(JPEG_SWEEP_N):
        px = lossy_base_pixels(i)
        for q in JPEG_SWEEP_QUALITIES:
            data = encode_jpeg(px, quality=q)
            p = psnr(px, decode_jpeg(data))
            ids.append(i)
            qs.append(q)
            bs.append(len(data))
            cbs.append(99999 if np.isinf(p) else int(np.floor(p * 100.0 + 0.5)))
    return _values_oracle_sql(
        pa.table(
            {
                "img_idx": pa.array(ids, pa.int64()),
                "quality": pa.array(qs, pa.int64()),
                "n_bytes": pa.array(bs, pa.int64()),
                "psnr_cb": pa.array(cbs, pa.int64()),
            }
        )
    )


IMAGE_NEARDUP_N = 2000
IMAGE_NEARDUP_MAX_HAMMING = 6


def _phash_band_explode(batch: pa.Table) -> pa.Table:
    from ...stages.dedup import band_explode

    return band_explode(batch, "img_idx", "phash", bands=4)


def q_image_near_dup(sf_dir: str):
    """Perceptual-hash near-duplicate IMAGE pairs over a corpus with
    planted variants: real decode (PNG rows inflate through the codec)
    → in-engine 64-bit average-hash → 4×16-bit band blocking (pigeonhole:
    hamming<4 guarantees a shared band; wider-hamming variants are
    caught because the perturbation touches whole hash-grid cells, so
    flipped bits cluster) → exact popcount verify within buckets.

    Scale shape is identical to the SimHash text path: after the lean
    DecodePhash stage every row is 16 bytes, the explode is 4×, and the
    only shuffle is the bucketed groupby — never an all-pairs scan over
    the image table.  Value-exact: the oracle inlines GENERATOR-side
    phashes (pixel math, never the codec) and mirrors the banding +
    bit_count(xor) verify in SQL, so driver equality pins the decode
    path AND the pairing pipeline."""
    from ...sources.images import read_synth_neardup_images
    from ...stages.dedup import hamming_candidate_pairs
    from ...stages.image_ops import DecodePhash

    ds = read_synth_neardup_images(IMAGE_NEARDUP_N)
    hashed = ds.map_batches(
        DecodePhash(), batch_format="pyarrow", batch_size=256
    )
    exploded = hashed.map_batches(_phash_band_explode, batch_format="pyarrow")
    pairs = hamming_candidate_pairs(
        exploded,
        max_hamming=IMAGE_NEARDUP_MAX_HAMMING,
        key_col="img_idx",
        sig_col="phash",
        out_cols=("img_a", "img_b"),
    )
    from ...stages.dedup import pair_reduce

    return pair_reduce(pairs, "img_a", "img_b", "hamming", how="min")


IMAGE_SIM_N = 1500
IMAGE_SIM_K = 5
IMAGE_SIM_QUERIES = (0, 251, 502, 753, 1004, 1255)


def q_image_sim(sf_dir: str):
    """Similarity search over the IMAGE table: decode → 16-d integer
    thumbnail vector → exact squared-L2 top-k against a broadcast
    query matrix (shipped inside the stage instance), fused
    into a single stage that emits only Q×k candidate rows per
    batch — the merge groupby moves kilobytes regardless of corpus
    size.  Integer features keep every distance exact, so the oracle
    (generator-side feature literals + a windowed ROW_NUMBER top-k)
    is value-exact and driver equality pins the decode path, the
    feature math and the distributed top-k merge."""
    from ...sources.images import expected_thumb_features, read_synth_images
    from ...stages.image_ops import ImageSimMerge, ImageSimPartial

    feats = expected_thumb_features(IMAGE_SIM_N)
    qpos = list(IMAGE_SIM_QUERIES)
    qmat = np.stack(
        [
            np.array([feats[f"f{d}"][i].as_py() for d in range(16)], dtype=np.int64)
            for i in qpos
        ]
    )

    ds = read_synth_images(IMAGE_SIM_N)
    cands = ds.map_batches(
        ImageSimPartial((np.array(qpos, dtype=np.int64), qmat), IMAGE_SIM_K),
        batch_format="pyarrow",
        batch_size=256,
    )
    return cands.groupby("query_idx").map_groups(
        ImageSimMerge(IMAGE_SIM_K), batch_format="pyarrow"
    )


def _build_image_sim_sql() -> str:
    """SQL mirror: feature literals (generator pixel math), integer
    squared-L2 cross join against the query rows, ROW_NUMBER top-k
    with the same (dist, img_idx) tie-break."""
    from ...sources.images import expected_thumb_features

    values = _values_oracle_sql(expected_thumb_features(IMAGE_SIM_N))
    qlist = ", ".join(str(i) for i in IMAGE_SIM_QUERIES)
    dist = " + ".join(
        f"(q.f{d} - f.f{d}) * (q.f{d} - f.f{d})" for d in range(16)
    )
    return f"""
    WITH f AS ({values}),
    q AS (SELECT * FROM f WHERE img_idx IN ({qlist})),
    d AS (
      SELECT q.img_idx AS query_idx, f.img_idx AS img_idx,
             {dist} AS dist
      FROM q CROSS JOIN f
    ),
    r AS (
      SELECT query_idx, img_idx, dist,
             ROW_NUMBER() OVER (
               PARTITION BY query_idx ORDER BY dist, img_idx
             ) AS rnk
      FROM d
    )
    SELECT query_idx, img_idx, CAST(dist AS BIGINT) AS dist,
           CAST(rnk AS BIGINT) AS rank
    FROM r WHERE rnk <= {IMAGE_SIM_K}
"""


def _build_image_near_dup_sql(
    ph_sql: str | None = None, final_sql: str | None = None
) -> str:
    """SQL mirror of the pHash near-dup pipeline over generator-side
    phash literals: unsigned reinterpretation, 4×16-bit band extraction,
    band-equality self-join, bit_count(xor) hamming, min per pair.
    ``ph_sql`` / ``final_sql`` let the incremental variant reuse the
    pipeline over an appended corpus with a keeper rollup."""
    from ...sources.images import expected_neardup_phashes

    values = _values_oracle_sql(expected_neardup_phashes(IMAGE_NEARDUP_N))
    if ph_sql is None:
        ph_sql = values
    else:
        ph_sql = ph_sql.format(values=values)
    if final_sql is None:
        final_sql = f"""SELECT img_a, img_b, CAST(MIN(ham) AS BIGINT) AS hamming
    FROM pairs WHERE ham <= {IMAGE_NEARDUP_MAX_HAMMING}
    GROUP BY img_a, img_b"""
    bandpw = ", ".join(f"{1 << (16 * k)}::HUGEINT" for k in range(4))
    return f"""
    WITH ph AS ({ph_sql}),
    u AS (
      SELECT img_idx, phash,
             CASE WHEN phash < 0
                  THEN phash + 18446744073709551616::HUGEINT
                  ELSE phash::HUGEINT END AS phu
      FROM ph
    ),
    bands AS (
      SELECT img_idx, phash, p.band AS band_id,
             (phu // p.bpw) % 65536::HUGEINT AS band_val
      FROM u, (SELECT unnest(range(4)) AS band, unnest([{bandpw}]) AS bpw) p
    ),
    pairs AS (
      SELECT a.img_idx AS img_a, b.img_idx AS img_b,
             bit_count(xor(a.phash, b.phash)) AS ham
      FROM bands a JOIN bands b
        ON a.band_id = b.band_id AND a.band_val = b.band_val
       AND a.img_idx < b.img_idx
    )
    {final_sql}
"""


def q_incremental_image_dedup(sf_dir: str):
    """Incremental IMAGE near-dup against persisted perceptual hashes
    — the image-axis twin of incremental_minhash: a prior run keeps
    (img_idx, phash) at 16 B/image; a re-crawl append batch (every
    img_idx % 5 image re-arrives VERBATIM at img_idx + 2^40) is the
    only thing DECODED — prior images never touch the codec again.
    Banding runs over prior ∪ new hash rows, old×old pairs skip the
    popcount verify via the payload flag, and the keeper rollup per
    new image (min partner, distinct partners) is the shared bucketed
    lexsort kernel.  At 10^12 images the persisted hash table is ~16
    TB vs ~100 TB of pixels — the append run's input is hash-table +
    append-sized.  Value-exact: the oracle duplicates the generator-
    side phash literals into the append id space and mirrors banding,
    bit_count(xor) and the rollup."""
    from ..catalog.dedup import INCR_ID_OFFSET, _incr_keeper_rollup
    from ...sources.images import read_synth_neardup_images
    from ...stages.dedup import incremental_hamming_pairs, pair_reduce
    from ...stages.image_ops import DecodePhash

    M = INCR_ID_OFFSET
    prior = read_synth_neardup_images(IMAGE_NEARDUP_N)

    def recrawl(b: pa.Table) -> pa.Table:
        keep = b.filter(pa.array(b["img_idx"].to_numpy() % 5 == 0))
        return keep.set_column(
            keep.column_names.index("img_idx"),
            "img_idx",
            pa.array(keep["img_idx"].to_numpy() + M, pa.int64()),
        )

    new_hashes = prior.map_batches(recrawl, batch_format="pyarrow").map_batches(
        DecodePhash(), batch_format="pyarrow", batch_size=256
    )
    # the persisted prior hash table (stand-in: computed inline; the
    # scripts exercise the parquet read path for the text twin)
    prior_hashes = prior.map_batches(
        DecodePhash(), batch_format="pyarrow", batch_size=256
    )
    exploded = prior_hashes.union(new_hashes).map_batches(
        _phash_band_explode, batch_format="pyarrow"
    )
    pairs = incremental_hamming_pairs(
        exploded,
        max_hamming=IMAGE_NEARDUP_MAX_HAMMING,
        new_min_id=M,
        key_col="img_idx",
        sig_col="phash",
        out_cols=("doc_a", "doc_b"),
    )
    pairs = pair_reduce(pairs, "doc_a", "doc_b", "hamming", how="min")
    return _incr_keeper_rollup(pairs).map_batches(
        lambda b: b.rename_columns(["img_id", "keeper", "n_dups"]),
        batch_format="pyarrow",
    )


def _build_incremental_image_sql() -> str:
    from ..catalog.dedup import INCR_ID_OFFSET

    M = INCR_ID_OFFSET
    ph_sql = f"""SELECT img_idx, phash FROM ({{values}})
      UNION ALL
      SELECT img_idx + {M} AS img_idx, phash
      FROM ({{values}}) WHERE img_idx % 5 = 0"""
    final_sql = f"""SELECT img_b AS img_id, CAST(MIN(img_a) AS BIGINT) AS keeper,
           CAST(COUNT(DISTINCT img_a) AS BIGINT) AS n_dups
    FROM pairs WHERE ham <= {IMAGE_NEARDUP_MAX_HAMMING} AND img_b >= {M}
    GROUP BY img_b"""
    return _build_image_near_dup_sql(ph_sql=ph_sql, final_sql=final_sql)


def q_image_dedup_components(sf_dir: str):
    """Connected components over the IMAGE near-dup graph: the pHash
    banded pipeline's verified pairs (real decode → 64-bit hash →
    bucketed band candidates) feed the same distributed min-label
    propagation + pointer jumping the document path uses — variant
    chains (A~B, B~C) collapse into one cluster whose canonical member
    is the min img_idx.  The image-axis twin of dedup_components:
    labels never touch the driver; the oracle rebuilds the identical
    graph from generator-side phash literals and closes it with a
    recursive CTE."""
    from ...stages.dedup import connected_components

    pairs = q_image_near_dup(sf_dir)
    comps = connected_components(pairs, a_col="img_a", b_col="img_b")
    return comps.map_batches(
        lambda b: pa.table({"img_idx": b["node"], "component": b["component"]}),
        batch_format="pyarrow",
    )


def _build_image_dedup_components_sql() -> str:
    return f"""
    WITH RECURSIVE pr AS ({_build_image_near_dup_sql()}),
    sym AS (
      SELECT img_a AS node, img_b AS peer FROM pr
      UNION
      SELECT img_b, img_a FROM pr
    ),
    reach(node, label) AS (
      SELECT node, node FROM (SELECT DISTINCT node FROM sym)
      UNION
      SELECT sym.node, reach.label FROM sym JOIN reach ON reach.node = sym.peer
    )
    SELECT node AS img_idx, CAST(MIN(label) AS BIGINT) AS component
    FROM reach GROUP BY node
"""


def q_image_keep_best(sf_dir: str):
    """Cluster-representative selection on the IMAGE axis: per
    near-dup component keep the SHARPEST member (max integer edge
    energy, ties to min img_idx) — the real curation policy when a
    variant chain mixes originals and re-encoded/brightness-shifted
    copies.  Image twin of dedup_keep_best: components from the
    distributed label propagation over pHash pairs, per-image quality
    from ONE decode (DecodeQuality with the dark-filter off — scoring,
    not gating), ONE bucketed hash join, and the per-component argmax
    is the component-bucketed (``hash_exchange``) lexsort kernel.
    Output: (component, keeper, best_edge, n_members)."""
    from ...sources.images import read_synth_neardup_images
    from ...stages.exchange import hash_exchange
    from ...stages.image_ops import DecodeQuality
    from ...stages.join import shuffle_hash_join

    comps = q_image_dedup_components(sf_dir)
    scores = (
        read_synth_neardup_images(IMAGE_NEARDUP_N)
        .map_batches(
            DecodeQuality(filter_dark=False, keep_cols=("img_idx",)),
            batch_format="pyarrow",
            batch_size=256,
        )
        .map_batches(
            lambda b: pa.table(
                {"img_idx": b["img_idx"], "score": b["edge_energy"]}
            ),
            batch_format="pyarrow",
        )
    )
    j = shuffle_hash_join(
        comps,
        scores,
        "img_idx",
        ["component"],
        ["score"],
        left_schema=pa.schema(
            [pa.field("img_idx", pa.int64()), pa.field("component", pa.int64())]
        ),
        right_schema=pa.schema(
            [pa.field("img_idx", pa.int64()), pa.field("score", pa.int64())]
        ),
    )

    out_schema = pa.schema(
        [
            pa.field("component", pa.int64()),
            pa.field("keeper", pa.int64()),
            pa.field("best_edge", pa.int64()),
            pa.field("n_members", pa.int64()),
        ]
    )

    def best_kernel(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        comp = group["component"].to_numpy()
        idx = group["img_idx"].to_numpy()
        sc = group["score"].to_numpy()
        order = np.lexsort((idx, -sc, comp))
        c, d, s = comp[order], idx[order], sc[order]
        st = np.concatenate(([0], np.flatnonzero(c[1:] != c[:-1]) + 1))
        return pa.table(
            {
                "component": pa.array(c[st], pa.int64()),
                "keeper": pa.array(d[st], pa.int64()),
                "best_edge": pa.array(s[st], pa.int64()),
                "n_members": pa.array(
                    np.diff(np.concatenate((st, [len(c)]))).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return hash_exchange(j, "component", best_kernel)


def _build_image_keep_best_sql() -> str:
    from ...sources.images import expected_neardup_quality

    values = _values_oracle_sql(expected_neardup_quality(IMAGE_NEARDUP_N))
    return f"""
    WITH comp AS ({_build_image_dedup_components_sql()}),
    q AS ({values}),
    j AS (SELECT c.component, c.img_idx, q.edge_energy AS score
          FROM comp c JOIN q USING (img_idx)),
    g AS (SELECT component, MAX(score) AS best_edge,
                 CAST(COUNT(*) AS BIGINT) AS n_members
          FROM j GROUP BY component)
    SELECT g.component, CAST(MIN(j.img_idx) AS BIGINT) AS keeper,
           g.best_edge, g.n_members
    FROM g JOIN j ON j.component = g.component AND j.score = g.best_edge
    GROUP BY g.component, g.best_edge, g.n_members
"""


def q_image_safe_split(sf_dir: str):
    """Leakage-safe train/test split on the IMAGE axis: every image is
    assigned by the hash of its near-dup COMPONENT (its own index when
    it has no variants), so visually-duplicate images never straddle
    the split — the image twin of safe_split, the eval-contamination
    guard a multimodal training pipeline needs.  One left-join shuffle
    attaches the component labels; the split is a pure per-row hash."""
    import ray.data as rd

    from ...stages.join import shuffle_hash_join

    comps = q_image_dedup_components(sf_dir)
    ids = rd.range(IMAGE_NEARDUP_N).map_batches(
        lambda b: pa.table({"img_idx": b["id"].cast(pa.int64())}),
        batch_format="pyarrow",
    )
    joined = shuffle_hash_join(
        ids,
        comps,
        "img_idx",
        [],
        ["component"],
        how="left",
        left_schema=pa.schema([pa.field("img_idx", pa.int64())]),
        right_schema=pa.schema(
            [pa.field("img_idx", pa.int64()), pa.field("component", pa.int64())]
        ),
    )

    def assign(b: pa.Table) -> pa.Table:
        gkey = pc.coalesce(b["component"], b["img_idx"]).to_numpy().astype(np.uint64)
        h = ((gkey % np.uint64(4294967296)) * np.uint64(2654435761)) % np.uint64(
            4294967296
        )
        train = (h % np.uint64(10)) < 8
        return pa.table(
            {
                "img_idx": b["img_idx"],
                "split": pa.array(
                    np.where(train, "train", "test").tolist(), pa.string()
                ),
            }
        )

    return joined.map_batches(assign, batch_format="pyarrow")


def _build_image_safe_split_sql() -> str:
    return f"""
    WITH comp AS ({_build_image_dedup_components_sql()}),
    ids AS (SELECT unnest(range({IMAGE_NEARDUP_N})) AS img_idx),
    j AS (
      SELECT ids.img_idx, COALESCE(c.component, ids.img_idx) AS gkey
      FROM ids LEFT JOIN comp c ON c.img_idx = ids.img_idx
    )
    SELECT CAST(img_idx AS BIGINT) AS img_idx,
           CASE WHEN (((gkey % 4294967296) * 2654435761) % 4294967296) % 10 < 8
                THEN 'train' ELSE 'test' END AS split
    FROM j
"""


def q_scene_stats(sf_dir: str):
    """Video motion profiling / scene-change signal: per-video Σ and
    max of absolute inter-frame differences through the REAL frame
    decode (raw and length-prefixed-PNG payloads) — the curation
    signal that separates static clips from pans and cuts.  One row
    out per video; payloads drop inside the decode stage.  Value-exact
    via generator-side expected motion integers (pixel math, never
    the codec)."""
    from ...sources.videos import read_synth_videos
    from ...stages.video_ops import SceneStats

    ds = read_synth_videos(500)
    return ds.map_batches(SceneStats(), batch_format="pyarrow", batch_size=64)


def _build_scene_stats_sql() -> str:
    from ...sources.videos import expected_scene_stats

    return _values_oracle_sql(expected_scene_stats(500))


def q_video_frames(sf_dir: str):
    """Video frame sampling: every 2nd frame of each synthetic clip →
    (video_id, frame_idx, frame_phash, frame_checksum) rows.  Raw and
    PNG-compressed frame payloads both decode for real.  Value-exact:
    expected-values oracle from the generator's frame pixel math (see
    q_image_features) — equality pins the length-prefixed PNG frame
    codec on every sampled frame."""
    from ...sources.videos import read_synth_videos
    from ...stages.video_ops import FrameSample

    ds = read_synth_videos(500)
    out = ds.map_batches(FrameSample(stride=2), batch_format="pyarrow", batch_size=64)
    return out.select_columns(
        ["video_id", "frame_idx", "frame_phash", "frame_checksum"]
    )


def _build_video_frames_sql() -> str:
    from ...sources.videos import expected_frame_features

    return _values_oracle_sql(expected_frame_features(500, stride=2))


def q_audio_features(sf_dir: str):
    """PCM16 audio decode → integer-exact clip features (peak,
    absolute sum, zero crossings).  Value-exact: expected-values
    oracle from the generator's wave math (see q_image_features)."""
    from ...sources.videos import read_synth_audio
    from ...stages.video_ops import AudioFeatures

    ds = read_synth_audio(1000)
    return ds.map_batches(AudioFeatures(), batch_format="pyarrow", batch_size=128)


def _build_audio_features_sql() -> str:
    from ...sources.videos import expected_audio_features

    return _values_oracle_sql(expected_audio_features(1000))


# ------------------------------------------------------------------ catalog


# ------------------------------------------------- round-4b additions


ASPECT_N = 2000
# diffusion-style training buckets: each aspect class maps to a fixed
# target latent shape (the SDXL bucketing trick); classes are decided
# with INTEGER cross-multiplication so engine and oracle agree exactly
ASPECT_TARGETS = {
    "square": (512, 512),
    "wide": (576, 448),
    "ultrawide": (640, 384),
    "tall": (448, 576),
    "ultratall": (384, 640),
}


def q_aspect_bucket(sf_dir: str):
    """Aspect-ratio bucketing for image-model training (the SDXL /
    diffusion bucketing step): every image is assigned an aspect class
    by integer ratio tests (w==h square; 2w>=3h ultrawide; ...) and a
    resolution tier by pixel count, then counted per (class, tier,
    target shape).  Payload is shed in the FIRST map_batches — only
    (w, h) reach the aggregate; class cardinality is ≤ 15 so the final
    groupby is a tiny exchange.  At 10^12 images this is one streaming
    metadata pass."""
    from ray.data.aggregate import Sum

    from ...sources.images import read_synth_image_meta

    classes = np.asarray(list(ASPECT_TARGETS), dtype=object)
    tgt_w = {k: v[0] for k, v in ASPECT_TARGETS.items()}
    tgt_h = {k: v[1] for k, v in ASPECT_TARGETS.items()}

    def partial(b: pa.Table) -> pa.Table:
        w = b["w"].to_numpy().astype(np.int64)
        h = b["h"].to_numpy().astype(np.int64)
        cls_idx = np.where(
            w == h,
            0,
            np.where(
                w > h,
                np.where(2 * w >= 3 * h, 2, 1),
                np.where(2 * h >= 3 * w, 4, 3),
            ),
        )
        aspect = classes[cls_idx]
        t = pa.table(
            {
                "aspect": pa.array(aspect, pa.string()),
                "n": pa.array(np.ones(len(w), dtype=np.int64)),
                "sum_pixels": pa.array(w * h),
            }
        )
        agg = pa.TableGroupBy(t, "aspect").aggregate(
            [("n", "sum"), ("sum_pixels", "sum")]
        )
        return agg.rename_columns(["aspect", "n", "sum_pixels"])

    def attach_targets(b: pa.Table) -> pa.Table:
        a = b["aspect"].to_pylist()
        return b.append_column(
            "bucket_w", pa.array([tgt_w[x] for x in a], pa.int64())
        ).append_column("bucket_h", pa.array([tgt_h[x] for x in a], pa.int64()))

    ds = read_synth_image_meta(ASPECT_N)
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("aspect")
        .aggregate(Sum("n", alias_name="n"), Sum("sum_pixels", alias_name="sum_pixels"))
        .map_batches(attach_targets, batch_format="pyarrow")
    )


def _build_aspect_bucket_sql(n: int = ASPECT_N) -> str:
    tgt_w = "CASE aspect " + " ".join(
        f"WHEN '{k}' THEN {v[0]}" for k, v in ASPECT_TARGETS.items()
    ) + " END"
    tgt_h = "CASE aspect " + " ".join(
        f"WHEN '{k}' THEN {v[1]}" for k, v in ASPECT_TARGETS.items()
    ) + " END"
    return f"""
    WITH idx AS (SELECT unnest(range({n})) AS i),
    m AS (
      SELECT CAST(list_extract([8,12,16,24,32], CAST(i % 5 AS INT) + 1) AS BIGINT) AS w,
             CAST(list_extract([8,12,16,24,32], CAST((i // 3) % 5 AS INT) + 1) AS BIGINT) AS h
      FROM idx
    ),
    c AS (
      SELECT w, h,
             CASE WHEN w = h THEN 'square'
                  WHEN w > h AND 2*w >= 3*h THEN 'ultrawide'
                  WHEN w > h THEN 'wide'
                  WHEN 2*h >= 3*w THEN 'ultratall'
                  ELSE 'tall' END AS aspect
      FROM m
    )
    SELECT aspect,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(SUM(w * h) AS BIGINT) AS sum_pixels,
           {tgt_w} AS bucket_w,
           {tgt_h} AS bucket_h
    FROM c GROUP BY aspect
"""


PATCH_N = 1200


def q_patch_stats(sf_dir: str):
    """ViT patchification profile: real decode → p×p patch grid →
    integer per-image stats (stages/image_ops.py::DecodePatches).
    The expected-values oracle pins decode + the patch reshape kernel
    per image; at scale the patch tensors feed the trainer from the
    same worker and only these stats ever reach an exchange."""
    from ...sources.images import read_synth_images
    from ...stages.image_ops import DecodePatches

    return read_synth_images(PATCH_N).map_batches(
        DecodePatches(p=4), batch_format="pyarrow"
    )


def _build_patch_stats_sql() -> str:
    from ...sources.images import expected_patch_stats

    return _values_oracle_sql(expected_patch_stats(PATCH_N))


DUPF_N = 600


def q_dup_frames(sf_dir: str):
    """Static-frame pruning on the video axis: real frame decode →
    exact duplicate-transition profile per clip (stages/video_ops.py::
    DupFrames) over a corpus with PLANTED held frames.  The oracle
    recomputes the hold schedule from the generator's hash math —
    pinning decode + the diff kernel without touching pixels."""
    from ...sources.videos import read_synth_holdframe_videos
    from ...stages.video_ops import DupFrames

    return read_synth_holdframe_videos(DUPF_N).map_batches(
        DupFrames(), batch_format="pyarrow", batch_size=64
    )


def _build_dup_frames_sql() -> str:
    from ...sources.videos import expected_dup_frames

    return _values_oracle_sql(expected_dup_frames(DUPF_N))


LETTERBOX_N = 1500


def q_letterbox(sf_dir: str):
    """Letterbox / padding-artifact detection: real decode → symmetric
    constant-bar height per image over a corpus with PLANTED black
    bars (stages/image_ops.py::DetectLetterbox).  The oracle replays
    the detector over the generator's own pixels — the detector, not
    the plant schedule, defines truth (a clean random interior could
    legitimately have a uniform edge row)."""
    from ...sources.images import read_synth_letterbox_images
    from ...stages.image_ops import DetectLetterbox

    return read_synth_letterbox_images(LETTERBOX_N).map_batches(
        DetectLetterbox(), batch_format="pyarrow"
    )


def _build_letterbox_sql() -> str:
    from ...sources.images import expected_letterbox

    return _values_oracle_sql(expected_letterbox(LETTERBOX_N))


CHAN_N = 1500


def q_channel_stats(sf_dir: str):
    """Per-channel corpus normalization constants (the mean/std every
    image trainer bakes into its input transform): real decode →
    per-block (3,) count/sum/sumsq partials → one 9-int Sum exchange
    regardless of corpus size.  Integer moments; the float mean/std
    is the caller's division.  Expected-values oracle pins decode +
    the reduction over every pixel byte."""
    from ray.data.aggregate import Sum

    from ...sources.images import read_synth_images
    from ...stages.image_ops import decoded_pixels

    def partial(batch: pa.Table) -> pa.Table:
        cnt = np.zeros(3, dtype=np.int64)
        s = np.zeros(3, dtype=np.int64)
        ss = np.zeros(3, dtype=np.int64)
        for px in decoded_pixels(batch):
            px = px.astype(np.int64)
            cnt += px.shape[0] * px.shape[1]
            s += px.sum(axis=(0, 1))
            ss += (px * px).sum(axis=(0, 1))
        return pa.table(
            {
                "channel": pa.array(np.arange(3, dtype=np.int64)),
                "n_px": pa.array(cnt),
                "sum_v": pa.array(s),
                "sum_sq": pa.array(ss),
            }
        )

    return (
        read_synth_images(CHAN_N)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("channel")
        .aggregate(
            Sum("n_px", alias_name="n_px"),
            Sum("sum_v", alias_name="sum_v"),
            Sum("sum_sq", alias_name="sum_sq"),
        )
    )


def _build_channel_stats_sql() -> str:
    from ...sources.images import expected_channel_stats

    return _values_oracle_sql(expected_channel_stats(CHAN_N))


def q_image_curation(sf_dir: str, n_images: int | None = None):
    """END-TO-END image curation — the image-axis twin of
    corpus_curation, stages chained the way a dataset build runs them:

      1. ONE real decode per image produces BOTH curation signals
         (quality brightness ints + 64-bit pHash) — never two decode
         passes;
      2. quality gate (integer mid-gray rule, image_quality_keep);
      3. near-dup dedup among survivors: banded pHash candidates →
         exact popcount verify → drop the larger id of every verified
         pair (canonical-min keeper, the variant collapse);
      4. aspect-bucket report of the curated set (bounded groupby).

    The drop set is applied as a DISTRIBUTED anti-join (the
    q_dedup_apply shape): pairs → per-block dropped-key extraction →
    ONE shuffle_hash_join(how='anti') against the survivor stream —
    the dropped ids never materialize on the driver, so the collapse
    scales with the corpus's variant count instead of pinning a Python
    set in every worker.  The oracle replays every stage from
    generator-side pixel-math literals, so one driver row-hash pins
    decode + gate + pairing + bucketing TOGETHER."""
    from ray.data.aggregate import Sum

    from ...sources.images import (
        image_quality_keep,
        quality_stats,
        read_synth_neardup_images,
    )
    from ...stages.dedup import hamming_candidate_pairs
    from ...stages.image_ops import decoded_pixels

    def decode_profile(b: pa.Table) -> pa.Table:
        from ...sources.images import _phash64

        keep_rows, ph = [], []
        for i, px in enumerate(decoded_pixels(b)):
            bright, _, _ = quality_stats(px)
            if image_quality_keep(bright, px.size):
                keep_rows.append(i)
                ph.append(np.int64(_phash64(px)))
        take = pa.array(np.array(keep_rows, dtype=np.int64))
        kept = b.select(["img_idx", "w", "h"]).take(take)
        return kept.append_column("phash", pa.array(np.array(ph, dtype=np.int64)))

    n_img = n_images or IMAGE_NEARDUP_N
    ds = read_synth_neardup_images(n_img)
    profiled = ds.map_batches(decode_profile, batch_format="pyarrow", batch_size=256)
    if n_img >= 100_000:
        # decode ONCE at volume: profiled is consumed by both the pair
        # branch and the anti-join left side; after decode_profile the
        # stream is 4 int columns (~32 B/row — payloads shed in-stage),
        # so pinning it in the object store is cheap wherever decode
        # dominates, and it halves the pipeline's decode work.  Coalesce
        # to the downstream bucket count first: the sort shuffle behind
        # every groupby pays a per-block × per-partition scheduling
        # cost, so hundreds of ~2k-row decode output blocks would
        # dominate the exchange (measured 9.3 s → 0.7 s at 1M images).
        # Below the cutoff the materialize barrier costs more than the
        # duplicate decode it saves — stay fully streaming there.
        profiled = profiled.repartition(64).materialize()

    exploded = profiled.map_batches(_phash_band_explode, batch_format="pyarrow")
    pairs = hamming_candidate_pairs(
        exploded,
        max_hamming=IMAGE_NEARDUP_MAX_HAMMING,
        key_col="img_idx",
        sig_col="phash",
        out_cols=("img_a", "img_b"),
    )
    # canonical-min keeper: the larger element of every verified pair
    # drops — per-block dropped-key rows, then ONE anti-join shuffle
    # against the survivor stream (no driver materialization)
    from ...stages.join import shuffle_hash_join

    def dropped_keys(b: pa.Table) -> pa.Table:
        u = pc.unique(b["img_b"])
        return pa.table({"img_idx": u.cast(pa.int64())})

    dropped = pairs.map_batches(dropped_keys, batch_format="pyarrow")
    survivors = shuffle_hash_join(
        profiled,
        dropped,
        "img_idx",
        ["w", "h"],
        [],
        how="anti",
        left_schema=pa.schema(
            [
                pa.field("img_idx", pa.int64()),
                pa.field("w", pa.int32()),
                pa.field("h", pa.int32()),
            ]
        ),
        right_schema=pa.schema([pa.field("img_idx", pa.int64())]),
    )

    classes = np.asarray(list(ASPECT_TARGETS), dtype=object)

    def survive_bucket(b: pa.Table) -> pa.Table:
        w = b["w"].to_numpy().astype(np.int64)
        h = b["h"].to_numpy().astype(np.int64)
        cls_idx = np.where(
            w == h,
            0,
            np.where(
                w > h,
                np.where(2 * w >= 3 * h, 2, 1),
                np.where(2 * h >= 3 * w, 4, 3),
            ),
        )
        t = pa.table(
            {
                "aspect": pa.array(classes[cls_idx], pa.string()),
                "n": pa.array(np.ones(len(w), dtype=np.int64)),
            }
        )
        agg = pa.TableGroupBy(t, "aspect").aggregate([("n", "sum")])
        return agg.rename_columns(["aspect", "n"])

    return (
        survivors.map_batches(survive_bucket, batch_format="pyarrow")
        .groupby("aspect")
        .aggregate(Sum("n", alias_name="n"))
    )


def _build_image_curation_sql() -> str:
    from ...sources.images import expected_curation_profile

    values = _values_oracle_sql(expected_curation_profile(IMAGE_NEARDUP_N))
    bandpw = ", ".join(f"{1 << (16 * k)}::HUGEINT" for k in range(4))
    return f"""
    WITH prof AS ({values}),
    qk AS (SELECT * FROM prof WHERE 2 * bright >= 255 * n_sub),
    u AS (
      SELECT img_idx, phash,
             CASE WHEN phash < 0
                  THEN phash + 18446744073709551616::HUGEINT
                  ELSE phash::HUGEINT END AS phu
      FROM qk
    ),
    bands AS (
      SELECT img_idx, phash, p.band AS band_id,
             (phu // p.bpw) % 65536::HUGEINT AS band_val
      FROM u, (SELECT unnest(range(4)) AS band, unnest([{bandpw}]) AS bpw) p
    ),
    dropped AS (
      SELECT DISTINCT b.img_idx AS img_b
      FROM bands a JOIN bands b
        ON a.band_id = b.band_id AND a.band_val = b.band_val
       AND a.img_idx < b.img_idx
      WHERE bit_count(xor(a.phash, b.phash)) <= {IMAGE_NEARDUP_MAX_HAMMING}
    ),
    surv AS (
      SELECT qk.* FROM qk
      WHERE qk.img_idx NOT IN (SELECT img_b FROM dropped)
    ),
    c AS (
      SELECT CASE WHEN w = h THEN 'square'
                  WHEN w > h AND 2*w >= 3*h THEN 'ultrawide'
                  WHEN w > h THEN 'wide'
                  WHEN 2*h >= 3*w THEN 'ultratall'
                  ELSE 'tall' END AS aspect
      FROM surv
    )
    SELECT aspect, CAST(COUNT(*) AS BIGINT) AS n FROM c GROUP BY aspect
"""


QUERIES = {
    "image_features": Query(q_image_features, _build_image_features_sql),
    "image_quality": Query(q_image_quality, _build_image_quality_sql),
    "image_pyramid": Query(q_image_pyramid, _build_image_pyramid_sql),
    "pixel_histogram": Query(q_pixel_histogram, _build_pixel_histogram_sql),
    "image_augment": Query(q_image_augment, _build_image_augment_sql),
    "image_near_dup": Query(q_image_near_dup, _build_image_near_dup_sql),
    "incremental_image_dedup": Query(
        q_incremental_image_dedup, _build_incremental_image_sql
    ),
    "image_keep_best": Query(q_image_keep_best, _build_image_keep_best_sql),
    "image_dedup_components": Query(
        q_image_dedup_components, _build_image_dedup_components_sql
    ),
    "image_sim_topk": Query(q_image_sim, _build_image_sim_sql),
    "jpeg_roundtrip": Query(q_jpeg_roundtrip, _build_jpeg_roundtrip_sql),
    "jpeg_quality_sweep": Query(q_jpeg_quality_sweep, _build_jpeg_sweep_sql),
    "video_frames": Query(q_video_frames, _build_video_frames_sql),
    "scene_stats": Query(q_scene_stats, _build_scene_stats_sql),
    "audio_features": Query(q_audio_features, _build_audio_features_sql),
    "image_safe_split": Query(q_image_safe_split, _build_image_safe_split_sql),
    "aspect_bucket": Query(q_aspect_bucket, _build_aspect_bucket_sql),
    "patch_stats": Query(q_patch_stats, _build_patch_stats_sql),
    "dup_frames": Query(q_dup_frames, _build_dup_frames_sql),
    "letterbox": Query(q_letterbox, _build_letterbox_sql),
    "channel_stats": Query(q_channel_stats, _build_channel_stats_sql),
    "image_curation": Query(q_image_curation, _build_image_curation_sql),
}
