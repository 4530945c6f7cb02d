"""Deterministic Lance-shaped image+caption table (BASELINE.json input_hint).

Schema: (image_id: string, bytes: binary, w: int32, h: int32,
fmt: string, caption: string, phash: int64).

At 10^12-image scale this table would be read with
``ray.data.read_parquet/read_lance`` from object storage; in this
sandbox the source is a deterministic generator (seeded, pure function
of the row index) exposed both as a streaming Ray datasource
(``read_synth_images`` — generation happens inside map_batches tasks,
never materialized on the driver) and as a parquet writer for
fixed-input benchmarks.

Payloads are raw RGB byte planes (``fmt="raw"``) generated from a
per-row PCG64 stream; a slice of rows is tagged ``fmt="png"`` and
carries a REAL PNG-compressed payload (functions/png.py — pure
numpy/zlib codec), so the decode stage exercises a genuine compressed
round trip with the per-row decoded-pixel invariant.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

CAPTION_SUBJECTS = (
    "a satellite view",
    "an aerial photo",
    "a drone capture",
    "a map tile",
    "a scanned chart",
)
CAPTION_PLACES = (
    "of coastal wetlands",
    "of an urban grid",
    "of farmland parcels",
    "of a mountain ridge",
    "of river meanders",
    "of desert dunes",
    "of a forest canopy",
)
CAPTION_EXTRAS = (
    "at dawn",
    "after rainfall",
    "in false color",
    "with cloud cover",
    "at high zoom",
)

# Image dims are small so a row stays a few KiB; at real scale rows are
# MBs and the same pipeline shrinks batch_size instead (memory-aware).
_SIZES = np.array([8, 12, 16, 24, 32], dtype=np.int32)


def _phash64(pixels: np.ndarray) -> np.int64:
    """Deterministic 64-bit average-hash of an (h, w, 3) uint8 image:
    grayscale → 8×8 downsample → bit = cell > mean."""
    h, w = pixels.shape[:2]
    ys = (np.arange(8) * h // 8).astype(np.int64)
    xs = (np.arange(8) * w // 8).astype(np.int64)
    # sample the 8×8 grid FIRST, then grayscale — identical values
    # (per-pixel channel mean commutes with sampling), ~h·w/64 less work
    cells = pixels[np.ix_(ys, xs)].astype(np.float64).mean(axis=2)
    bits = (cells > cells.mean()).astype(np.uint64).ravel()
    val = (bits << np.arange(64, dtype=np.uint64)).sum(dtype=np.uint64)
    return np.int64(val.astype(np.int64))


def _base_pixels(i: int, seed: int = 42) -> np.ndarray:
    """The generator's pixel math for global index ``i`` (pure)."""
    w = int(_SIZES[i % len(_SIZES)])
    h = int(_SIZES[(i // 3) % len(_SIZES)])
    rng = np.random.Generator(np.random.PCG64(seed * 1_000_003 + i))
    return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)


def synth_image_batch(indices: np.ndarray, seed: int = 42) -> pa.Table:
    """Generate rows for the given global indices (pure function)."""
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indices)
    ws = _SIZES[indices % len(_SIZES)]
    hs = _SIZES[(indices // 3) % len(_SIZES)]
    fmts = np.where(indices % 11 == 0, "png", "raw")

    from ..functions.png import encode_png

    ids, payloads, captions, phashes = [], [], [], []
    for j in range(n):
        i = int(indices[j])
        rng = np.random.Generator(np.random.PCG64(seed * 1_000_003 + i))
        w, h = int(ws[j]), int(hs[j])
        pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        ids.append(f"img-{i:08d}")
        payloads.append(
            encode_png(pixels) if fmts[j] == "png" else pixels.tobytes()
        )
        captions.append(
            f"{CAPTION_SUBJECTS[i % 5]} {CAPTION_PLACES[(i // 5) % 7]} "
            f"{CAPTION_EXTRAS[(i // 35) % 5]} #{i}"
        )
        phashes.append(_phash64(pixels))

    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts.tolist(), pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(phashes, pa.int64()),
        }
    )


def read_synth_images(n_images: int, seed: int = 42):
    """Streaming Ray Data source: rd.range → per-batch generation in tasks.

    The driver never holds the table; blocks are produced under
    backpressure exactly like a parquet read would be, and sized to the
    cluster by ``tuning.tune_data_context()``.
    """
    import ray.data as rd

    ds = rd.range(n_images)

    def gen(batch: pa.Table) -> pa.Table:
        return synth_image_batch(batch["id"].to_numpy(), seed=seed)

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=None)


def read_image_table(path: str, columns=None):
    """Read a materialized image table: Lance when the lance package is
    present, parquet otherwise (identical schema — parquet is the
    sandbox stand-in for the Lance table named in BASELINE.json)."""
    import ray.data as rd

    try:
        import lance  # noqa: F401

        if path.endswith(".lance"):
            return rd.read_lance(path, columns=columns)
    except ImportError:
        pass
    return rd.read_parquet(path, columns=columns)


def write_synth_images(path: str, n_images: int, seed: int = 42, rows_per_file: int = 100_000):
    """Materialize the synthetic table as partitioned parquet (bench input)."""
    import ray.data as rd

    read_synth_images(n_images, seed=seed).write_parquet(
        path, min_rows_per_file=min(rows_per_file, n_images)
    )


def pix_checksum(pixels: np.ndarray) -> np.int64:
    """Position-weighted integer checksum over every pixel byte:
    Σ byte[k]·(k+1) — order-sensitive (catches swapped/shifted bytes a
    plain sum would miss), exact in int64 for any sane image size."""
    flat = pixels.ravel().astype(np.int64)
    return np.int64((flat * (np.arange(len(flat), dtype=np.int64) + 1)).sum())


def box_downsample2(pixels: np.ndarray) -> np.ndarray:
    """Exact 2× box downsample of an (h, w, 3) uint8 image: crop to
    even dims, each output pixel = floor mean of its 2×2 block —
    integer arithmetic only, so engine and expected-values oracle
    agree bit-for-bit."""
    h, w = pixels.shape[:2]
    h2, w2 = h // 2, w // 2
    p = pixels[: h2 * 2, : w2 * 2].astype(np.int64)
    return (p.reshape(h2, 2, w2, 2, 3).sum(axis=(1, 3)) // 4).astype(np.uint8)


def expected_pyramid(n_images: int, levels: int = 2, seed: int = 42) -> pa.Table:
    """Generator-side expected (image_id, level, lw, lh, checksum) for
    each pyramid level 1..levels — computed from the generator's pixel
    math, never through the codec, so driver equality pins decode +
    the downsample kernel."""
    ids, lvls, lws, lhs, checks = [], [], [], [], []
    for i in range(n_images):
        px = _base_pixels(i, seed)
        for lvl in range(1, levels + 1):
            px = box_downsample2(px)
            ids.append(f"img-{i:08d}")
            lvls.append(lvl)
            lhs.append(px.shape[0])
            lws.append(px.shape[1])
            checks.append(int(pix_checksum(px)))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "level": pa.array(lvls, pa.int64()),
            "lw": pa.array(lws, pa.int64()),
            "lh": pa.array(lhs, pa.int64()),
            "checksum": pa.array(checks, pa.int64()),
        }
    )


AUG_VARIANTS = ("flip_h", "rot90")


def augment_pixels(pixels: np.ndarray, variant: str) -> np.ndarray:
    """Deterministic training augmentations (pure pixel rearrangements
    — bytes preserved, order changed, so the position-weighted
    checksum pins them exactly)."""
    if variant == "flip_h":
        return pixels[:, ::-1]
    if variant == "rot90":
        return np.rot90(pixels)
    raise ValueError(variant)


def expected_augmented(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side expected (image_id, variant, lw, lh, checksum)
    per augmentation — pixel math, never the codec."""
    ids, variants, lws, lhs, checks = [], [], [], [], []
    for i in range(n_images):
        px = _base_pixels(i, seed)
        for v in AUG_VARIANTS:
            a = augment_pixels(px, v)
            ids.append(f"img-{i:08d}")
            variants.append(v)
            lhs.append(a.shape[0])
            lws.append(a.shape[1])
            checks.append(int(pix_checksum(a)))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "variant": pa.array(variants, pa.string()),
            "lw": pa.array(lws, pa.int64()),
            "lh": pa.array(lhs, pa.int64()),
            "checksum": pa.array(checks, pa.int64()),
        }
    )


def quality_stats(pixels: np.ndarray) -> tuple[int, int, int]:
    """Integer-exact image-quality signals for an (h, w, 3) uint8 image:
    brightness (Σ bytes), contrast proxy (Σ bytes²) and edge energy
    (Σ |horizontal diffs| + Σ |vertical diffs| per channel).  All
    int64-exact, so a generator-side expected-values oracle can pin
    the decode + scoring path bit-for-bit."""
    p = pixels.astype(np.int64)
    bright = int(p.sum())
    ssq = int((p * p).sum())
    edge = int(np.abs(np.diff(p, axis=0)).sum() + np.abs(np.diff(p, axis=1)).sum())
    return bright, ssq, edge


def image_quality_keep(bright_sum: int, n_subpixels: int) -> bool:
    """The quality-filter predicate, shared by the engine stage and the
    expected-values oracle: keep images at or above mid-gray mean
    brightness (2·Σ bytes ≥ 255·n) — integer arithmetic only."""
    return 2 * bright_sum >= 255 * n_subpixels


def expected_quality_stats(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side expected (image_id, bright_sum, contrast_ssq,
    edge_energy) for the rows PASSING the quality filter — computed
    from the generator's pixel math, never through the codec, so
    driver equality pins decode + scoring + the filter decision."""
    ids, brights, ssqs, edges = [], [], [], []
    for i in range(n_images):
        pixels = _base_pixels(i, seed)
        bright, ssq, edge = quality_stats(pixels)
        if image_quality_keep(bright, pixels.size):
            ids.append(f"img-{i:08d}")
            brights.append(bright)
            ssqs.append(ssq)
            edges.append(edge)
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bright_sum": pa.array(brights, pa.int64()),
            "contrast_ssq": pa.array(ssqs, pa.int64()),
            "edge_energy": pa.array(edges, pa.int64()),
        }
    )


# ------------------------------------------------------- near-dup corpus
#
# A corpus WITH near-duplicates by construction: every 7th row
# (idx % 7 == 6) is a VARIANT of an earlier base row — the base's
# pixels with 1–3 of the 8×8 average-hash grid cells brightened, so
# the variant's phash lands within a small hamming distance of the
# base's.  Everything is a pure function of the row index (seeded),
# exactly like the primary table, so the same rows generate
# identically inside any map_batches task.

_VAR_MOD = 7  # idx % 7 == 6 → variant row
_VAR_DELTA = 48  # per-cell brightness nudge (clipped add)


def _variant_base(i: int) -> int:
    """Base index for variant row ``i`` — always a non-variant row
    (offsets 1..5 never cross a mod-7 boundary onto another variant)."""
    return i - 1 - (i // _VAR_MOD) % 5


def _variant_pixels(i: int, seed: int = 42) -> np.ndarray:
    """Variant row pixels: base pixels with k = 1 + (i//7) % 3 sampled
    hash-grid cells nudged by +48 (clipped) on all channels."""
    px = _base_pixels(_variant_base(i), seed).copy()
    h, w = px.shape[:2]
    ys = (np.arange(8) * h // 8).astype(np.int64)
    xs = (np.arange(8) * w // 8).astype(np.int64)
    k = 1 + (i // _VAR_MOD) % 3
    for t in range(k):
        r = (i // _VAR_MOD + t) % 8
        c = (i * 3 + t) % 8
        cell = px[ys[r], xs[c]].astype(np.int16) + _VAR_DELTA
        px[ys[r], xs[c]] = np.clip(cell, 0, 255).astype(np.uint8)
    return px


def _neardup_pixels(i: int, seed: int = 42) -> np.ndarray:
    if i % _VAR_MOD == _VAR_MOD - 1 and i >= _VAR_MOD - 1:
        return _variant_pixels(i, seed)
    return _base_pixels(i, seed)


def synth_neardup_batch(indices: np.ndarray, seed: int = 42) -> pa.Table:
    """Near-dup corpus rows for the given global indices (pure).

    Schema: (img_idx int64, image_id string, bytes binary, w int32,
    h int32, fmt string, phash int64) — ``phash`` is the generator-side
    hash of the (possibly perturbed) pixels; the engine recomputes it
    through the decode path.
    """
    from ..functions.png import encode_png

    indices = np.asarray(indices, dtype=np.int64)
    ids, payloads, ws, hs, fmts, phashes = [], [], [], [], [], []
    for i in indices:
        i = int(i)
        px = _neardup_pixels(i, seed)
        fmt = "png" if i % 11 == 0 else "raw"
        ids.append(f"img-{i:08d}")
        payloads.append(encode_png(px) if fmt == "png" else px.tobytes())
        hs.append(px.shape[0])
        ws.append(px.shape[1])
        fmts.append(fmt)
        phashes.append(_phash64(px))
    return pa.table(
        {
            "img_idx": pa.array(indices, pa.int64()),
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "phash": pa.array(phashes, pa.int64()),
        }
    )


def read_synth_neardup_images(n_images: int, seed: int = 42):
    """Streaming near-dup corpus source (same shape as
    ``read_synth_images``: generation happens inside map_batches
    tasks under backpressure, never on the driver)."""
    import ray.data as rd

    ds = rd.range(n_images)

    def gen(batch: pa.Table) -> pa.Table:
        return synth_neardup_batch(batch["id"].to_numpy(), seed=seed)

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=None)


def expected_neardup_quality(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side (img_idx, edge_energy) for EVERY near-dup corpus
    row (no filter) — the sharpness signal the keep-best policy ranks
    on, computed from the pixel math directly so the oracle pins the
    decode + scoring path."""
    idxs = list(range(n_images))
    return pa.table(
        {
            "img_idx": pa.array(idxs, pa.int64()),
            "edge_energy": pa.array(
                [quality_stats(_neardup_pixels(i, seed))[2] for i in idxs],
                pa.int64(),
            ),
        }
    )


def expected_neardup_phashes(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side (img_idx, phash) for the near-dup corpus —
    computed from the pixel math directly, never through the codec.
    Inlined as oracle literals: the engine recomputes phash through
    the decode path (PNG rows inflate through functions/png.py), so
    driver equality re-pins the codec AND the pairing pipeline."""
    idxs = list(range(n_images))
    return pa.table(
        {
            "img_idx": pa.array(idxs, pa.int64()),
            "phash": pa.array(
                [_phash64(_neardup_pixels(i, seed)) for i in idxs], pa.int64()
            ),
        }
    )


# --------------------------------------------------- similarity features

_THUMB_GRID = 4  # 4×4 sampled cells → 16-d integer vector


def thumb_features(pixels: np.ndarray) -> np.ndarray:
    """16-d integer feature vector: channel-SUM (not mean — stays
    integer-exact) at a 4×4 sampled grid.  Range [0, 765] per cell, so
    squared-L2 distances fit comfortably in int64 and the DuckDB
    oracle reproduces them exactly."""
    h, w = pixels.shape[:2]
    ys = (np.arange(_THUMB_GRID) * h // _THUMB_GRID).astype(np.int64)
    xs = (np.arange(_THUMB_GRID) * w // _THUMB_GRID).astype(np.int64)
    return pixels[np.ix_(ys, xs)].astype(np.int64).sum(axis=2).ravel()


def expected_thumb_features(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side (img_idx, f0..f15) for the primary image table —
    pixel math directly, never through the codec (oracle literals)."""
    feats = np.stack([thumb_features(_base_pixels(i, seed)) for i in range(n_images)])
    cols = {"img_idx": pa.array(np.arange(n_images, dtype=np.int64), pa.int64())}
    for d in range(feats.shape[1]):
        cols[f"f{d}"] = pa.array(feats[:, d], pa.int64())
    return pa.table(cols)


def expected_decode_features(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side expected (image_id, phash, pix_checksum) for the
    first ``n_images`` rows — computed from the GENERATOR's pixel math
    directly, never through the codec.  Inlined as oracle literals: the
    engine recomputes the same features through the encode→PNG-decode
    round trip, so driver equality pins the codec bit-for-bit."""
    ids, phashes, checks = [], [], []
    for i in range(n_images):
        rng = np.random.Generator(np.random.PCG64(seed * 1_000_003 + i))
        w = int(_SIZES[i % len(_SIZES)])
        h = int(_SIZES[(i // 3) % len(_SIZES)])
        pixels = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        ids.append(f"img-{i:08d}")
        phashes.append(_phash64(pixels))
        checks.append(pix_checksum(pixels))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "phash": pa.array(phashes, pa.int64()),
            "pix_checksum": pa.array(checks, pa.int64()),
        }
    )


# ----------------------------------------------------- lossy (jpeg) corpus

# quality 94: every jpeg row in the corpus reconstructs above the
# input_hint's 40 dB bar (measured min 41.7 dB over 600 rows) while
# staying genuinely lossy (finite PSNR on ~all rows; noise content
# still degrades hard — see tests/test_jpeg.py)
JPEG_QUALITY = 94
_LOSSY_SIZES = np.array([16, 20, 24, 32, 40], dtype=np.int32)


def lossy_base_pixels(i: int) -> np.ndarray:
    """Deterministic smooth content (sinusoid + gradient channels) for
    the lossy corpus.  Photographic-like low-frequency energy, so
    baseline JPEG at JPEG_QUALITY round-trips above the input_hint's
    PSNR ≥ 40 dB bar — unlike the noise corpus, which is
    incompressible by design.  Pure function of the index (no RNG), so
    the engine can re-synthesize the ORIGINAL pixels from image_id to
    measure the true reconstruction error."""
    w = int(_LOSSY_SIZES[i % len(_LOSSY_SIZES)])
    h = int(_LOSSY_SIZES[(i // 5) % len(_LOSSY_SIZES)])
    yy, xx = np.mgrid[0:h, 0:w]
    xx = xx.astype(np.float64)
    yy = yy.astype(np.float64)
    fx = 1.0 + (i % 3)
    fy = 1.0 + ((i // 3) % 3)
    ph = (i % 17) * 0.37
    r = 127.5 + 127.5 * np.sin(2.0 * np.pi * fx * xx / w + ph)
    g = 127.5 + 127.5 * np.cos(2.0 * np.pi * fy * yy / h - ph)
    b = (xx + 2.0 * yy) * 255.0 / (w + 2.0 * h - 3.0)
    px = np.stack([r, g, b], axis=-1)
    return np.clip(np.floor(px + 0.5), 0, 255).astype(np.uint8)


def _lossy_fmt(i: int) -> str:
    """Mixed-format tagging: half the rows are lossy jpeg, the rest
    exercise the lossless codecs through the same pipeline."""
    if i % 4 == 0:
        return "raw"
    if i % 4 == 1:
        return "png"
    return "jpeg"


def synth_lossy_batch(indices: np.ndarray) -> pa.Table:
    """Rows of the mixed-format corpus (pure function of the index).
    jpeg payloads go through the REAL baseline encoder
    (functions/jpeg.py) at JPEG_QUALITY — genuinely lossy bytes."""
    from ..functions.jpeg import encode_jpeg
    from ..functions.png import encode_png

    indices = np.asarray(indices, dtype=np.int64)
    ids, payloads, fmts, ws, hs, captions, phashes = [], [], [], [], [], [], []
    for j in range(len(indices)):
        i = int(indices[j])
        px = lossy_base_pixels(i)
        fmt = _lossy_fmt(i)
        if fmt == "jpeg":
            payload = encode_jpeg(px, quality=JPEG_QUALITY)
        elif fmt == "png":
            payload = encode_png(px)
        else:
            payload = px.tobytes()
        ids.append(f"jpg-{i:08d}")
        payloads.append(payload)
        fmts.append(fmt)
        hs.append(px.shape[0])
        ws.append(px.shape[1])
        captions.append(
            f"{CAPTION_SUBJECTS[i % 5]} {CAPTION_PLACES[(i // 5) % 7]} "
            f"{CAPTION_EXTRAS[(i // 35) % 5]} #{i}"
        )
        phashes.append(_phash64(px))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(np.asarray(ws, dtype=np.int32), pa.int32()),
            "h": pa.array(np.asarray(hs, dtype=np.int32), pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(captions, pa.string()),
            "phash": pa.array(phashes, pa.int64()),
        }
    )


def read_synth_lossy_images(n_images: int):
    """Streaming Ray Data source for the mixed-format lossy corpus."""
    import ray.data as rd

    ds = rd.range(n_images)

    def gen(batch: pa.Table) -> pa.Table:
        return synth_lossy_batch(batch["id"].to_numpy())

    return ds.map_batches(gen, batch_format="pyarrow", batch_size=None)


def roundtrip_metrics(i: int) -> tuple[str, int, int, int]:
    """(fmt, psnr_cb, pix_checksum, pass_40db) for corpus row ``i`` —
    the encode→decode→compare math shared VERBATIM by the engine stage
    (distributed, payload from the table) and the oracle literal
    builder (driver-side), so driver equality pins the lossy decode
    path end-to-end.  psnr_cb is PSNR in integer centi-dB (half-up;
    capped at 99999 for bit-exact lossless round trips)."""
    from ..functions.jpeg import decode_jpeg, encode_jpeg
    from ..stages.image_ops import psnr

    px = lossy_base_pixels(i)
    fmt = _lossy_fmt(i)
    if fmt == "jpeg":
        decoded = decode_jpeg(encode_jpeg(px, quality=JPEG_QUALITY))
    else:
        decoded = px  # png/raw decode bit-exactly
    p = psnr(px, decoded)
    psnr_cb = 99999 if np.isinf(p) else int(np.floor(p * 100.0 + 0.5))
    return fmt, psnr_cb, int(pix_checksum(decoded)), int(psnr_cb >= 4000)


def expected_roundtrip(n_images: int) -> pa.Table:
    """Oracle literals for the jpeg_roundtrip query: per-row PSNR
    (centi-dB), decoded-pixel checksum, the ≥40 dB verdict AND the
    caption (input_hint: caption equality per row), computed
    driver-side from the generator's pixel math + the same codec."""
    ids, fmts, caps, cbs, checks, passes = [], [], [], [], [], []
    for i in range(n_images):
        fmt, cb, ck, ok = roundtrip_metrics(i)
        ids.append(f"jpg-{i:08d}")
        fmts.append(fmt)
        caps.append(
            f"{CAPTION_SUBJECTS[i % 5]} {CAPTION_PLACES[(i // 5) % 7]} "
            f"{CAPTION_EXTRAS[(i // 35) % 5]} #{i}"
        )
        cbs.append(cb)
        checks.append(ck)
        passes.append(ok)
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(caps, pa.string()),
            "psnr_cb": pa.array(cbs, pa.int64()),
            "pix_checksum": pa.array(checks, pa.int64()),
            "pass_40db": pa.array(passes, pa.int64()),
        }
    )


def patch_grid_stats(pixels: np.ndarray, p: int = 4) -> tuple[int, int, int, int]:
    """ViT-style patchification stats of an (h, w, 3) uint8 image:
    split into p×p patches (generator dims are all multiples of 4),
    per-patch integer byte sums, then (n_patches, max_patch_sum,
    argmax_idx row-major first-max, contrast = max−min).  Integer
    arithmetic only — exact for engine and expected-values oracle."""
    h, w = pixels.shape[:2]
    gh, gw = h // p, w // p
    sums = (
        pixels[: gh * p, : gw * p]
        .astype(np.int64)
        .reshape(gh, p, gw, p, 3)
        .sum(axis=(1, 3, 4))
    ).ravel()
    return (
        int(gh * gw),
        int(sums.max()),
        int(np.argmax(sums)),
        int(sums.max() - sums.min()),
    )


def expected_patch_stats(n_images: int, seed: int = 42, p: int = 4) -> pa.Table:
    """Generator-side expected patch stats (input math, never engine
    output) for the patch_stats expected-values oracle."""
    ids, npatch, mx, am, ct = [], [], [], [], []
    for i in range(n_images):
        stats = patch_grid_stats(_base_pixels(i, seed), p)
        ids.append(f"img-{i:08d}")
        npatch.append(stats[0])
        mx.append(stats[1])
        am.append(stats[2])
        ct.append(stats[3])
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "n_patches": pa.array(npatch, pa.int64()),
            "max_patch_sum": pa.array(mx, pa.int64()),
            "argmax_patch": pa.array(am, pa.int64()),
            "patch_contrast": pa.array(ct, pa.int64()),
        }
    )


def _letterbox_pixels(i: int, seed: int = 42) -> tuple[np.ndarray, int]:
    """Pixels for the letterbox corpus: base image with PLANTED
    constant black bars of height ``bar`` at top and bottom when
    splitmix64(i·977) % 4 == 0 (bar = 1 + hash % (h//4)); returns
    (pixels, bar) with bar = 0 for clean images."""
    from ..stages.footprint import _splitmix64

    px = _base_pixels(i, seed).copy()
    h = px.shape[0]
    s = int(_splitmix64(np.uint64(i * 977)))
    if s % 4 == 0:
        bar = 1 + (s >> 8) % (h // 4)
        px[:bar] = 0
        px[h - bar :] = 0
        return px, bar
    return px, 0


def synth_letterbox_batch(indices: np.ndarray, seed: int = 42) -> pa.Table:
    from ..functions.png import encode_png

    indices = np.asarray(indices, dtype=np.int64)
    ids, payloads, ws, hs, fmts = [], [], [], [], []
    for i in map(int, indices):
        px, _ = _letterbox_pixels(i, seed)
        ids.append(f"img-{i:08d}")
        ws.append(px.shape[1])
        hs.append(px.shape[0])
        if i % 11 == 0:
            payloads.append(encode_png(px))
            fmts.append("png")
        else:
            payloads.append(px.tobytes())
            fmts.append("raw")
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(np.array(ws, dtype=np.int32)),
            "h": pa.array(np.array(hs, dtype=np.int32)),
            "fmt": pa.array(fmts, pa.string()),
        }
    )


def read_synth_letterbox_images(n_images: int, seed: int = 42):
    import ray.data as rd

    ds = rd.range(n_images)
    return ds.map_batches(
        lambda b: synth_letterbox_batch(b["id"].to_numpy(), seed=seed),
        batch_format="pyarrow",
        batch_size=None,
    )


def measure_letterbox(pixels: np.ndarray) -> int:
    """Detected symmetric constant-bar height: the largest k such that
    the top k and bottom k rows are each single-valued (max == min
    per row) — integer-exact, bounded by h//2."""
    h = pixels.shape[0]
    p = pixels.reshape(h, -1)
    rmin = p.min(axis=1).astype(np.int64)
    rmax = p.max(axis=1).astype(np.int64)
    const = rmin == rmax
    k = 0
    while k < h // 2 and const[k] and const[h - 1 - k]:
        k += 1
    return k


def expected_letterbox(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side expected letterbox report: detector math over
    the generator's own pixels (random interiors can in principle
    contain constant rows, so the DETECTOR — not the plant schedule —
    is the oracle definition; in this corpus they coincide except
    where a clean image happens to have a uniform edge row)."""
    ids, bars = [], []
    for i in range(n_images):
        px, _ = _letterbox_pixels(i, seed)
        ids.append(f"img-{i:08d}")
        bars.append(measure_letterbox(px))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bar_px": pa.array(bars, pa.int64()),
        }
    )


def expected_channel_stats(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side expected per-channel corpus moments (count, sum,
    sum of squares — the trainer-normalization constants), recomputed
    from the generator's pixel math."""
    cnt = np.zeros(3, dtype=np.int64)
    s = np.zeros(3, dtype=np.int64)
    ss = np.zeros(3, dtype=np.int64)
    for i in range(n_images):
        px = _base_pixels(i, seed).astype(np.int64)
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


def synth_image_meta_batch(indices: np.ndarray) -> pa.Table:
    """Metadata-only rows (image_id, w, h, fmt, caption) — NO pixel or
    codec work.  The pruned-read analogue for the synthetic source: a
    metadata/caption pass over a real Lance table would read only
    these columns, so the generator must not pay for payloads either."""
    indices = np.asarray(indices, dtype=np.int64)
    ws = _SIZES[indices % len(_SIZES)]
    hs = _SIZES[(indices // 3) % len(_SIZES)]
    fmts = np.where(indices % 11 == 0, "png", "raw")
    ids = [f"img-{int(i):08d}" for i in indices]
    captions = [
        f"{CAPTION_SUBJECTS[int(i) % 5]} {CAPTION_PLACES[(int(i) // 5) % 7]} "
        f"{CAPTION_EXTRAS[(int(i) // 35) % 5]} #{int(i)}"
        for i in indices
    ]
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts.tolist(), pa.string()),
            "caption": pa.array(captions, pa.string()),
        }
    )


def read_synth_image_meta(n_images: int):
    import ray.data as rd

    ds = rd.range(n_images)
    return ds.map_batches(
        lambda b: synth_image_meta_batch(b["id"].to_numpy()),
        batch_format="pyarrow",
        batch_size=None,
    )


def expected_curation_profile(n_images: int, seed: int = 42) -> pa.Table:
    """Generator-side (img_idx, phash, bright, n_sub, w, h) for the
    near-dup corpus — the literal table the composed image-curation
    oracle filters, pairs and buckets in SQL (pixel math only, never
    the codec)."""
    idxs = list(range(n_images))
    ph, br, ns, ws, hs = [], [], [], [], []
    for i in idxs:
        px = _neardup_pixels(i, seed)
        b, _, _ = quality_stats(px)
        ph.append(_phash64(px))
        br.append(b)
        ns.append(px.shape[0] * px.shape[1] * 3)
        hs.append(px.shape[0])
        ws.append(px.shape[1])
    return pa.table(
        {
            "img_idx": pa.array(idxs, pa.int64()),
            "phash": pa.array(ph, pa.int64()),
            "bright": pa.array(br, pa.int64()),
            "n_sub": pa.array(ns, pa.int64()),
            "w": pa.array(ws, pa.int64()),
            "h": pa.array(hs, pa.int64()),
        }
    )
