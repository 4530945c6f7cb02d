"""Video frame-sampling and audio feature stages (stateless
map_batches UDFs over opaque binary payloads).

Real decodes throughout: raw RGB frame planes slice zero-copy,
``pngv`` payloads inflate through the pure-numpy PNG codec
(functions/png.py), PCM16 audio decodes via frombuffer.  Formats with
no codec in this environment raise ``ImageCodecNotAvailable`` — never
a fake decode.

Batch sizes stay small because rows carry multi-frame binary payloads
(memory-aware batching; at real scale rows are MBs and batch_size
shrinks further, the stage code is unchanged).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from ..sources.images import _phash64
from .image_ops import ImageCodecNotAvailable, resize_nearest


def decode_frames(payload: bytes, w: int, h: int, n_frames: int, fmt: str) -> np.ndarray:
    """Decode a video payload → (n_frames, h, w, 3) uint8."""
    if fmt == "rawv":
        return np.frombuffer(payload, dtype=np.uint8, count=n_frames * h * w * 3).reshape(
            n_frames, h, w, 3
        )
    if fmt == "pngv":
        from ..functions.png import decode_png

        frames = np.empty((n_frames, h, w, 3), dtype=np.uint8)
        pos = 0
        for f in range(n_frames):
            (ln,) = struct.unpack_from("<I", payload, pos)
            pos += 4
            frames[f] = decode_png(payload[pos : pos + ln])
            pos += ln
        return frames
    raise ImageCodecNotAvailable(f"no video codec for fmt={fmt!r}")


class FrameSample:
    """Stateless stage: sample every ``stride``-th frame, emit one row
    per sampled frame with a thumbnail + phash (the frame-level fanout
    a training pipeline feeds into image models)."""

    def __init__(self, stride: int = 2, thumb: int = 8):
        self.stride = stride
        self.thumb = thumb

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        nfs = batch["n_frames"].to_numpy()
        fmts = batch["fmt"].to_pylist()

        from ..sources.images import pix_checksum

        vids, fidx, phashes, checks, thumbs = [], [], [], [], []
        for i, payload in enumerate(payloads):
            frames = decode_frames(
                payload, int(ws[i]), int(hs[i]), int(nfs[i]), fmts[i]
            )
            vid = batch["video_id"][i].as_py()
            for f in range(0, frames.shape[0], self.stride):
                vids.append(vid)
                fidx.append(f)
                phashes.append(_phash64(frames[f]))
                checks.append(pix_checksum(frames[f]))
                thumbs.append(
                    resize_nearest(frames[f], self.thumb, self.thumb).tobytes()
                )
        return pa.table(
            {
                "video_id": pa.array(vids, pa.string()),
                "frame_idx": pa.array(fidx, pa.int64()),
                "frame_phash": pa.array(phashes, pa.int64()),
                "frame_checksum": pa.array(checks, pa.int64()),
                "thumb": pa.array(thumbs, pa.binary()),
            }
        )


class AudioFeatures:
    """Stateless stage: PCM decode → integer-exact clip features
    (peak/absolute-sum/zero-crossings are exact int arithmetic, so the
    outputs are cross-engine stable)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        n = len(payloads)
        peak = np.empty(n, dtype=np.int64)
        abs_sum = np.empty(n, dtype=np.int64)
        zero_crossings = np.empty(n, dtype=np.int64)
        for i, payload in enumerate(payloads):
            if fmts[i] != "pcm16":
                raise ImageCodecNotAvailable(f"no audio codec for fmt={fmts[i]!r}")
            pcm = np.frombuffer(payload, dtype="<i2").astype(np.int64)
            peak[i] = np.abs(pcm).max() if len(pcm) else 0
            abs_sum[i] = np.abs(pcm).sum()
            s = np.sign(pcm)
            zero_crossings[i] = int((s[1:] * s[:-1] < 0).sum())
        return pa.table(
            {
                "audio_id": batch["audio_id"],
                "peak": pa.array(peak, pa.int64()),
                "abs_sum": pa.array(abs_sum, pa.int64()),
                "zero_crossings": pa.array(zero_crossings, pa.int64()),
            }
        )


class SceneStats:
    """Stateless stage: decode frames → per-video motion profile
    (Σ / max of absolute inter-frame differences, integer-exact) —
    the scene-change / motion-energy signal a video curation pipeline
    filters on.  One row out per video; payloads drop in-stage."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        nfs = batch["n_frames"].to_numpy()
        fmts = batch["fmt"].to_pylist()
        nt, ms, mm = [], [], []
        for i, payload in enumerate(payloads):
            frames = decode_frames(
                payload, int(ws[i]), int(hs[i]), int(nfs[i]), fmts[i]
            ).astype(np.int64)
            d = np.abs(frames[1:] - frames[:-1]).sum(axis=(1, 2, 3))
            nt.append(len(d))
            ms.append(int(d.sum()))
            mm.append(int(d.max()))
        return pa.table(
            {
                "video_id": batch["video_id"],
                "n_transitions": pa.array(nt, pa.int64()),
                "motion_sum": pa.array(ms, pa.int64()),
                "max_motion": pa.array(mm, pa.int64()),
            }
        )


class DupFrames:
    """Instance-callable stage (task UDF): decode frames → exact
    duplicate-transition profile (count of bit-identical consecutive
    frames and the first such frame index, −1 if none) — the
    static-segment pruning signal a video curation pipeline drops
    wasted trainer frames with.  Integer-exact: dup ⇔ inter-frame
    abs-diff sum == 0."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy()
        hs = batch["h"].to_numpy()
        nfs = batch["n_frames"].to_numpy()
        fmts = batch["fmt"].to_pylist()
        nf, nd, fd = [], [], []
        for i, payload in enumerate(payloads):
            frames = decode_frames(
                payload, int(ws[i]), int(hs[i]), int(nfs[i]), fmts[i]
            ).astype(np.int64)
            d = np.abs(frames[1:] - frames[:-1]).sum(axis=(1, 2, 3))
            dup = d == 0
            nf.append(len(frames))
            nd.append(int(dup.sum()))
            fd.append(int(np.flatnonzero(dup)[0]) + 1 if dup.any() else -1)
        return pa.table(
            {
                "video_id": batch["video_id"],
                "n_frames": pa.array(nf, pa.int64()),
                "n_dup": pa.array(nd, pa.int64()),
                "first_dup": pa.array(fd, pa.int64()),
            }
        )
