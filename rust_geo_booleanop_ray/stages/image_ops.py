"""Image decode / feature / resize stages (stateless map_batches UDFs).

Multimodal columns are opaque ``binary`` payloads with typed metadata
(w, h, fmt).  ``fmt="raw"`` decodes via numpy frombuffer; ``fmt="png"``
decodes for REAL through the pure-numpy PNG codec (functions/png.py —
zlib inflate + per-scanline None/Sub/Up/Average/Paeth reconstruction;
no external image library); ``fmt="jpeg"`` decodes through the
pure-numpy baseline JPEG codec (functions/jpeg.py — Huffman + DCT, the
real LOSSY path).  Formats without a codec raise
``ImageCodecNotAvailable``.

Per-row invariant vs the reference behavior (BASELINE.json input_hint):
decoded-pixel allclose (exact for the lossless raw/png paths; PSNR ≥
40 dB for lossy codecs) + caption equality — see ``psnr`` and
tests/test_image_pipeline.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


class ImageCodecNotAvailable(NotImplementedError):
    pass


def _decode_raw(payload: bytes, w: int, h: int) -> np.ndarray:
    return np.frombuffer(payload, dtype=np.uint8, count=w * h * 3).reshape(h, w, 3)


def decode_image(payload: bytes, w: int, h: int, fmt: str) -> np.ndarray:
    """Decode one payload → (h, w, 3) uint8 pixels."""
    if fmt == "raw":
        return _decode_raw(payload, w, h)
    if fmt == "png":
        from ..functions.png import decode_png

        px = decode_png(payload)
        if px.shape[0] != h or px.shape[1] != w:
            raise ValueError(
                f"PNG dims {px.shape[1]}x{px.shape[0]} disagree with metadata {w}x{h}"
            )
        if px.shape[2] == 3:
            return px
        if px.shape[2] == 1:  # grayscale → replicate channels
            return np.repeat(px, 3, axis=2)
        if px.shape[2] == 2:  # gray+alpha → replicate luma, drop alpha
            return np.repeat(px[:, :, :1], 3, axis=2)
        return px[:, :, :3]  # RGBA → drop alpha
    if fmt == "jpeg":
        from ..functions.jpeg import decode_jpeg

        px = decode_jpeg(payload)
        if px.shape[0] != h or px.shape[1] != w:
            raise ValueError(
                f"JPEG dims {px.shape[1]}x{px.shape[0]} disagree with metadata {w}x{h}"
            )
        return px
    raise ImageCodecNotAvailable(f"no codec for fmt={fmt!r} in this environment")


def decoded_pixels(batch: pa.Table):
    """Yield each row's decoded (h, w, 3) uint8 pixels, in row order,
    from the batch's ``bytes``, ``w``, ``h`` and ``fmt`` columns."""
    ws = batch["w"].to_numpy()
    hs = batch["h"].to_numpy()
    rows = zip(batch["bytes"].to_pylist(), ws, hs, batch["fmt"].to_pylist())
    for payload, w, h, fmt in rows:
        yield decode_image(payload, int(w), int(h), fmt)


def resize_nearest(pixels: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Nearest-neighbor resize, pure numpy (real, not stubbed)."""
    h, w = pixels.shape[:2]
    ys = (np.arange(out_h) * h // out_h).astype(np.int64)
    xs = (np.arange(out_w) * w // out_w).astype(np.int64)
    return pixels[np.ix_(ys, xs)]


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (inf for identical)."""
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)


class DecodePhash:
    """Decode payload → 64-bit perceptual hash only (stateless
    map_batches UDF: pass an instance).

    The lean front half of the image near-dup pipeline — no thumbs,
    checksums or channel stats, so a dedup pass over a petabyte image
    table pays for exactly one decode + one 8×8 downsample per row.
    Emits (img_idx, phash) — everything downstream (band blocking,
    hamming verify) runs on 16 bytes/row."""

    def __init__(self):
        from ..sources.images import _phash64

        self._phash64 = _phash64

    def __call__(self, batch: pa.Table) -> pa.Table:
        phash = np.empty(batch.num_rows, dtype=np.int64)
        for i, px in enumerate(decoded_pixels(batch)):
            phash[i] = self._phash64(px)
        return pa.table(
            {
                "img_idx": batch["img_idx"],
                "phash": pa.array(phash, pa.int64()),
            }
        )


class ImageSimPartial:
    """Fused stage for image similarity search: decode → 16-d
    integer thumb vector → squared-L2 distances against the BROADCAST
    query matrix → per-batch partial top-k.

    ``queries`` is the tuple (query_idxs: int64[Q], matrix:
    int64[Q, 16]); the instance carries it to each task, never per
    batch.  Emitting only Q×k candidate rows per batch means the merge
    groupby moves kilobytes regardless of corpus size — the
    brute-force-baseline scale shape from stages/ann.py applied to the
    image axis."""

    def __init__(self, queries, k: int):
        self.query_idxs, self.qmat = queries
        self.qmat = np.asarray(self.qmat, dtype=np.int64)
        self.k = k
        from ..sources.images import thumb_features

        self._thumb = thumb_features

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        feats = np.empty((batch.num_rows, self.qmat.shape[1]), dtype=np.int64)
        for i, px in enumerate(decoded_pixels(batch)):
            feats[i] = self._thumb(px)
        ids = pc_.cast(
            pc_.utf8_slice_codeunits(batch["image_id"], 4, 12), pa.int64()
        ).to_numpy()
        # (Q, n) integer squared-L2 — exact, mirrored by the oracle
        diff = self.qmat[:, None, :] - feats[None, :, :]
        dists = (diff * diff).sum(axis=2)
        k = min(self.k, dists.shape[1])
        out_q, out_i, out_d = [], [], []
        for r in range(dists.shape[0]):
            part = np.lexsort((ids, dists[r]))[:k]  # tie-break (dist, idx)
            out_q.append(np.full(k, self.query_idxs[r], dtype=np.int64))
            out_i.append(ids[part])
            out_d.append(dists[r, part])
        return pa.table(
            {
                "query_idx": pa.array(np.concatenate(out_q), pa.int64()),
                "img_idx": pa.array(np.concatenate(out_i), pa.int64()),
                "dist": pa.array(np.concatenate(out_d), pa.int64()),
            }
        )


class ImageSimMerge:
    """map_groups on query_idx: merge partial candidates → global
    top-k with rank.  Deterministic tie-break (dist, img_idx)."""

    def __init__(self, k: int):
        self.k = k
        self.__name__ = type(self).__name__

    def __call__(self, group: pa.Table) -> pa.Table:
        idx = group["img_idx"].to_numpy()
        dist = group["dist"].to_numpy()
        order = np.lexsort((idx, dist))[: self.k]
        out = group.take(pa.array(order.astype(np.int64)))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64))
        )


class DecodeRoundtrip:
    """Stateless stage: decode a (possibly LOSSY) payload, re-
    synthesize the generator's original pixels from image_id, and emit
    the per-row reconstruction invariant (BASELINE.json input_hint):
    PSNR in integer centi-dB (99999 = bit-exact), the decoded-pixel
    checksum, and the PSNR ≥ 40 dB verdict.  jpeg rows exercise the
    real baseline DCT+Huffman codec (functions/jpeg.py); png/raw rows
    must come back bit-exact.  Payloads drop in-stage — 5 small
    columns leave the stage."""

    def __init__(self):
        from ..sources.images import lossy_base_pixels, pix_checksum

        self._orig = lossy_base_pixels
        self._checksum = pix_checksum

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc_

        idxs = pc_.cast(
            pc_.utf8_slice_codeunits(batch["image_id"], 4, 12), pa.int64()
        ).to_numpy()
        n = batch.num_rows
        cbs = np.empty(n, dtype=np.int64)
        checks = np.empty(n, dtype=np.int64)
        passes = np.empty(n, dtype=np.int64)
        for i, decoded in enumerate(decoded_pixels(batch)):
            orig = self._orig(int(idxs[i]))
            p = psnr(orig, decoded)
            cb = 99999 if np.isinf(p) else int(np.floor(p * 100.0 + 0.5))
            cbs[i] = cb
            checks[i] = self._checksum(decoded)
            passes[i] = int(cb >= 4000)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "fmt": batch["fmt"],
                # caption travels with the row through the decode stage
                # and is oracle-compared verbatim — the input_hint's
                # "caption equality per row" half of the invariant
                "caption": batch["caption"],
                "psnr_cb": pa.array(cbs, pa.int64()),
                "pix_checksum": pa.array(checks, pa.int64()),
                "pass_40db": pa.array(passes, pa.int64()),
            }
        )


class DecodeQuality:
    """Stateless stage: decode payload → integer-exact quality signals
    (brightness / contrast / edge energy) → in-stage filter keeping
    only images at or above mid-gray mean brightness.

    The image analogue of the text quality filter (text.py): score in
    the map stage, shed rejected rows BEFORE any downstream exchange so
    filtered payloads never hit the object store again.  Use as
    map_batches(DecodeQuality(), batch_format="pyarrow", batch_size=B
    small — rows carry binary payloads).

    ``keep_cols``: extra input columns carried through to the output
    (e.g. footprint bbox columns for a downstream spatial stage) — the
    payload itself is always dropped."""

    def __init__(self, keep_cols=(), filter_dark: bool = True):
        self.keep_cols = tuple(keep_cols)
        self.filter_dark = filter_dark
        from ..sources.images import image_quality_keep, quality_stats

        self._stats = quality_stats
        self._keep = image_quality_keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        bright = np.empty(n, dtype=np.int64)
        ssq = np.empty(n, dtype=np.int64)
        edge = np.empty(n, dtype=np.int64)
        keep = np.zeros(n, dtype=bool)
        for i, px in enumerate(decoded_pixels(batch)):
            bright[i], ssq[i], edge[i] = self._stats(px)
            keep[i] = (not self.filter_dark) or self._keep(
                int(bright[i]), px.size
            )
        out = pa.table(
            {
                "image_id": batch["image_id"],
                "bright_sum": pa.array(bright, pa.int64()),
                "contrast_ssq": pa.array(ssq, pa.int64()),
                "edge_energy": pa.array(edge, pa.int64()),
            }
        )
        for c in self.keep_cols:
            out = out.append_column(c, batch[c])
        return out.filter(pa.array(keep))


class DecodePyramid:
    """Stateless stage: decode payload → 2× box-downsample pyramid
    (thumbnail ladder).  Emits ``levels`` rows per image with the
    level dims and a position-weighted integer checksum — the
    tile-server / training-resolution-ladder preprocessing step.
    Integer-exact arithmetic throughout so a generator-side
    expected-values oracle pins decode + the downsample kernel.
    Payloads drop in-stage; only (id, level, dims, checksum) reach
    any downstream exchange."""

    def __init__(self, levels: int = 2):
        self.levels = levels
        from ..sources.images import box_downsample2, pix_checksum

        self._down = box_downsample2
        self._checksum = pix_checksum

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        out_id, out_lvl, out_w, out_h, out_ck = [], [], [], [], []
        for image_id, px in zip(ids, decoded_pixels(batch)):
            for lvl in range(1, self.levels + 1):
                px = self._down(px)
                out_id.append(image_id)
                out_lvl.append(lvl)
                out_h.append(px.shape[0])
                out_w.append(px.shape[1])
                out_ck.append(int(self._checksum(px)))
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "level": pa.array(out_lvl, pa.int64()),
                "lw": pa.array(out_w, pa.int64()),
                "lh": pa.array(out_h, pa.int64()),
                "checksum": pa.array(out_ck, pa.int64()),
            }
        )


class DecodeAugment:
    """Stateless stage: decode payload → deterministic augmentation
    variants (horizontal flip, 90° rotation) → integer checksums —
    the training-augmentation fan-out, pinned per (image, variant) by
    a generator-side expected-values oracle.  Payloads drop in-stage;
    at a real deployment the variant pixels would re-encode to the
    output sink here (same task, no extra exchange)."""

    def __init__(self):
        from ..sources.images import AUG_VARIANTS, augment_pixels, pix_checksum

        self._variants = AUG_VARIANTS
        self._aug = augment_pixels
        self._checksum = pix_checksum

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        out_id, out_v, out_w, out_h, out_ck = [], [], [], [], []
        for image_id, px in zip(ids, decoded_pixels(batch)):
            for v in self._variants:
                a = self._aug(px, v)
                out_id.append(image_id)
                out_v.append(v)
                out_h.append(a.shape[0])
                out_w.append(a.shape[1])
                out_ck.append(int(self._checksum(a)))
        return pa.table(
            {
                "image_id": pa.array(out_id, pa.string()),
                "variant": pa.array(out_v, pa.string()),
                "lw": pa.array(out_w, pa.int64()),
                "lh": pa.array(out_h, pa.int64()),
                "checksum": pa.array(out_ck, pa.int64()),
            }
        )


class DecodeFeatures:
    """Stateless stage: decode payload → per-image features.

    Emits mean RGB, luma std, recomputed phash and a thumbnail payload.
    Use as map_batches(DecodeFeatures(), batch_format="pyarrow",
    batch_size=B) — batch_size small because rows carry binary
    payloads (memory-aware batching).
    """

    def __init__(self, thumb: int = 8):
        self.thumb = thumb
        # one-time setup spot (codec init in a real deployment)
        from ..sources.images import _phash64

        self._phash64 = _phash64

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources.images import pix_checksum

        n = batch.num_rows
        mean_r = np.empty(n)
        mean_g = np.empty(n)
        mean_b = np.empty(n)
        luma_std = np.empty(n)
        phash = np.empty(n, dtype=np.int64)
        checks = np.empty(n, dtype=np.int64)
        thumbs = []
        for i, px in enumerate(decoded_pixels(batch)):
            mean_r[i], mean_g[i], mean_b[i] = px.reshape(-1, 3).mean(axis=0)
            luma_std[i] = px.astype(np.float64).mean(axis=2).std()
            phash[i] = self._phash64(px)
            checks[i] = pix_checksum(px)
            thumbs.append(resize_nearest(px, self.thumb, self.thumb).tobytes())

        out = batch.select(["image_id", "caption", "phash"])
        out = out.append_column("mean_r", pa.array(mean_r))
        out = out.append_column("mean_g", pa.array(mean_g))
        out = out.append_column("mean_b", pa.array(mean_b))
        out = out.append_column("luma_std", pa.array(luma_std))
        out = out.append_column("phash_decoded", pa.array(phash, pa.int64()))
        out = out.append_column("pix_checksum", pa.array(checks, pa.int64()))
        out = out.append_column("thumb", pa.array(thumbs, pa.binary()))
        return out


class DecodePatches:
    """Instance-callable stage (task UDF): decode payload → p×p ViT
    patch grid → per-image patch stats (count, max patch byte-sum,
    first-argmax index, max−min contrast).  The patch tensor itself
    never leaves the task — at a real deployment the (n_patches,
    p·p·3) tensor feeds the trainer from the same worker; here the
    stats pin decode + the patch reshape kernel via a generator-side
    expected-values oracle.  One numpy reshape-sum per image, ints
    throughout."""

    def __init__(self, p: int = 4):
        self.p = p
        from ..sources.images import patch_grid_stats

        self._stats = patch_grid_stats

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        rows = [self._stats(px, self.p) for px in decoded_pixels(batch)]
        n, mx, am, ct = zip(*rows) if rows else ((), (), (), ())
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "n_patches": pa.array(list(n), pa.int64()),
                "max_patch_sum": pa.array(list(mx), pa.int64()),
                "argmax_patch": pa.array(list(am), pa.int64()),
                "patch_contrast": pa.array(list(ct), pa.int64()),
            }
        )


class DetectLetterbox:
    """Instance-callable stage (task UDF): decode payload → symmetric
    constant-bar height (letterboxing / padding artifact detection) —
    the wasted-pixel curation signal an image training pipeline crops
    or drops on.  Integer-exact row-uniformity test, one min/max
    reduction per image; payloads drop in-stage."""

    def __init__(self):
        from ..sources.images import measure_letterbox

        self._measure = measure_letterbox

    def __call__(self, batch: pa.Table) -> pa.Table:
        bars = [self._measure(px) for px in decoded_pixels(batch)]
        return pa.table(
            {
                "image_id": batch["image_id"],
                "bar_px": pa.array(bars, pa.int64()),
            }
        )
