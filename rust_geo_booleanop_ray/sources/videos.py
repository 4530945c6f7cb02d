"""Deterministic synthetic video + audio tables (multimodal columns).

Multimodal payloads are opaque ``binary`` columns with typed metadata;
decode happens in actor-pool stages (stages/video_ops.py).  Both
sources are pure functions of the row index, exposed as streaming Ray
datasources (generation inside map_batches tasks — the driver never
holds the table).

video schema: (video_id: string, bytes: binary, w: int32, h: int32,
n_frames: int32, fps: float64, fmt: string, caption: string)
  fmt="rawv"  — concatenated raw RGB frame planes (n_frames·h·w·3)
  fmt="pngv"  — concatenated length-prefixed PNG frames (real codec)

audio schema: (audio_id: string, bytes: binary, sample_rate: int32,
n_samples: int32, fmt: string)
  fmt="pcm16" — little-endian int16 PCM
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

_VID_SIZES = np.array([8, 12, 16], dtype=np.int32)


def _video_pixels(i: int, w: int, h: int, n_frames: int) -> np.ndarray:
    """(n_frames, h, w, 3) deterministic pixels: per-frame PCG stream
    plus a moving gradient so consecutive frames differ predictably."""
    rng = np.random.Generator(np.random.PCG64(977_003 * i + 11))
    base = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    frames = np.empty((n_frames, h, w, 3), dtype=np.uint8)
    for f in range(n_frames):
        shift = (np.arange(w, dtype=np.int32) + 7 * f) % 256
        frames[f] = (base.astype(np.int32) + shift[None, :, None]) % 256
    return frames


def synth_video_batch(indices: np.ndarray, seed: int = 42) -> pa.Table:
    from ..functions.png import encode_png

    indices = np.asarray(indices, dtype=np.int64)
    ids, payloads, ws, hs, nfs, fmts, caps = [], [], [], [], [], [], []
    for i in map(int, indices):
        w = int(_VID_SIZES[i % 3])
        h = int(_VID_SIZES[(i // 3) % 3])
        n_frames = 4 + (i % 5)
        frames = _video_pixels(i, w, h, n_frames)
        if i % 7 == 0:  # compressed path: length-prefixed PNG frames
            parts = []
            for f in range(n_frames):
                png = encode_png(frames[f])
                parts.append(struct.pack("<I", len(png)) + png)
            payloads.append(b"".join(parts))
            fmts.append("pngv")
        else:
            payloads.append(frames.tobytes())
            fmts.append("rawv")
        ids.append(f"vid-{i:08d}")
        ws.append(w)
        hs.append(h)
        nfs.append(n_frames)
        caps.append(f"clip {i} of a synthetic scene pan")
    return pa.table(
        {
            "video_id": pa.array(ids, pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "n_frames": pa.array(nfs, pa.int32()),
            "fps": pa.array([24.0] * len(ids), pa.float64()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(caps, pa.string()),
        }
    )


def read_synth_videos(n_videos: int, seed: int = 42):
    import ray.data as rd

    ds = rd.range(n_videos)
    return ds.map_batches(
        lambda b: synth_video_batch(b["id"].to_numpy(), seed=seed),
        batch_format="pyarrow",
        batch_size=None,
    )


def synth_audio_batch(indices: np.ndarray, seed: int = 42) -> pa.Table:
    """Deterministic PCM16 clips: two sine tones + noise, per-row
    frequencies derived from the index."""
    indices = np.asarray(indices, dtype=np.int64)
    ids, payloads, srs, ns = [], [], [], []
    for i in map(int, indices):
        sr = 8000
        n = 2048 + 512 * (i % 3)
        t = np.arange(n, dtype=np.float64) / sr
        f1 = 200.0 + (i % 17) * 50.0
        f2 = 800.0 + (i % 11) * 90.0
        rng = np.random.Generator(np.random.PCG64(seed * 7919 + i))
        wave = (
            0.5 * np.sin(2 * np.pi * f1 * t)
            + 0.3 * np.sin(2 * np.pi * f2 * t)
            + 0.05 * rng.standard_normal(n)
        )
        pcm = np.clip(wave * 32767.0, -32768, 32767).astype("<i2")
        ids.append(f"aud-{i:08d}")
        payloads.append(pcm.tobytes())
        srs.append(sr)
        ns.append(n)
    return pa.table(
        {
            "audio_id": pa.array(ids, pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "sample_rate": pa.array(srs, pa.int32()),
            "n_samples": pa.array(ns, pa.int32()),
            "fmt": pa.array(["pcm16"] * len(ids), pa.string()),
        }
    )


def read_synth_audio(n_clips: int, seed: int = 42):
    import ray.data as rd

    ds = rd.range(n_clips)
    return ds.map_batches(
        lambda b: synth_audio_batch(b["id"].to_numpy(), seed=seed),
        batch_format="pyarrow",
        batch_size=None,
    )


def expected_frame_features(n_videos: int, stride: int = 2) -> pa.Table:
    """Generator-side expected (video_id, frame_idx, frame_phash,
    frame_checksum) for every ``stride``-sampled frame — from
    _video_pixels directly, never through the frame codec (see
    images.expected_decode_features for the oracle pattern)."""
    from .images import _phash64, pix_checksum

    vids, fidx, phashes, checks = [], [], [], []
    for i in range(n_videos):
        w = int(_VID_SIZES[i % 3])
        h = int(_VID_SIZES[(i // 3) % 3])
        n_frames = 4 + (i % 5)
        frames = _video_pixels(i, w, h, n_frames)
        for f in range(0, n_frames, stride):
            vids.append(f"vid-{i:08d}")
            fidx.append(f)
            phashes.append(_phash64(frames[f]))
            checks.append(pix_checksum(frames[f]))
    return pa.table(
        {
            "video_id": pa.array(vids, pa.string()),
            "frame_idx": pa.array(fidx, pa.int64()),
            "frame_phash": pa.array(phashes, pa.int64()),
            "frame_checksum": pa.array(checks, pa.int64()),
        }
    )


def expected_audio_features(n_clips: int, seed: int = 42) -> pa.Table:
    """Generator-side expected (audio_id, peak, abs_sum, zero_crossings)
    — the PCM wave recomputed from the generator math, features applied
    with the same integer formulas as stages.video_ops.AudioFeatures."""
    ids, peaks, sums, zcs = [], [], [], []
    for i in range(n_clips):
        sr = 8000
        n = 2048 + 512 * (i % 3)
        t = np.arange(n, dtype=np.float64) / sr
        f1 = 200.0 + (i % 17) * 50.0
        f2 = 800.0 + (i % 11) * 90.0
        rng = np.random.Generator(np.random.PCG64(seed * 7919 + i))
        wave = (
            0.5 * np.sin(2 * np.pi * f1 * t)
            + 0.3 * np.sin(2 * np.pi * f2 * t)
            + 0.05 * rng.standard_normal(n)
        )
        pcm = np.clip(wave * 32767.0, -32768, 32767).astype("<i2").astype(np.int64)
        ids.append(f"aud-{i:08d}")
        peaks.append(int(np.abs(pcm).max()) if len(pcm) else 0)
        sums.append(int(np.abs(pcm).sum()))
        s = np.sign(pcm)
        zcs.append(int((s[1:] * s[:-1] < 0).sum()))
    return pa.table(
        {
            "audio_id": pa.array(ids, pa.string()),
            "peak": pa.array(peaks, pa.int64()),
            "abs_sum": pa.array(sums, pa.int64()),
            "zero_crossings": pa.array(zcs, pa.int64()),
        }
    )


def expected_scene_stats(n_videos: int) -> pa.Table:
    """Generator-side expected per-video motion profile — Σ and max of
    absolute inter-frame differences (integer-exact), recomputed from
    _video_pixels directly, never through the frame codec."""
    vids, nt, ms, mm = [], [], [], []
    for i in range(n_videos):
        w = int(_VID_SIZES[i % 3])
        h = int(_VID_SIZES[(i // 3) % 3])
        n_frames = 4 + (i % 5)
        frames = _video_pixels(i, w, h, n_frames).astype(np.int64)
        d = np.abs(frames[1:] - frames[:-1]).sum(axis=(1, 2, 3))
        vids.append(f"vid-{i:08d}")
        nt.append(n_frames - 1)
        ms.append(int(d.sum()))
        mm.append(int(d.max()))
    return pa.table(
        {
            "video_id": pa.array(vids, pa.string()),
            "n_transitions": pa.array(nt, pa.int64()),
            "motion_sum": pa.array(ms, pa.int64()),
            "max_motion": pa.array(mm, pa.int64()),
        }
    )


def _holdframe_pixels(i: int, w: int, h: int, n_frames: int) -> np.ndarray:
    """(n_frames, h, w, 3) pixels with PLANTED exact frame repeats:
    the gradient pan advances only when splitmix64(i·131 + f) % 3 != 0
    — held frames are bit-identical to their predecessor, the signal
    a static-segment pruner detects."""
    from ..stages.footprint import _splitmix64

    rng = np.random.Generator(np.random.PCG64(977_003 * i + 11))
    base = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    frames = np.empty((n_frames, h, w, 3), dtype=np.uint8)
    adv = 0
    for f in range(n_frames):
        if f > 0 and int(
            _splitmix64(np.uint64(i * 131 + f)) % np.uint64(3)
        ) == 0:
            frames[f] = frames[f - 1]
            continue
        if f > 0:
            adv += 1
        shift = (np.arange(w, dtype=np.int32) + 7 * adv) % 256
        frames[f] = (base.astype(np.int32) + shift[None, :, None]) % 256
    return frames


def synth_holdframe_batch(indices: np.ndarray) -> pa.Table:
    """Video rows (same schema as synth_video_batch) whose pixels come
    from _holdframe_pixels — raw planes with a PNG-frame slice."""
    from ..functions.png import encode_png

    indices = np.asarray(indices, dtype=np.int64)
    ids, payloads, ws, hs, nfs, fmts = [], [], [], [], [], []
    for i in map(int, indices):
        w = int(_VID_SIZES[i % 3])
        h = int(_VID_SIZES[(i // 3) % 3])
        n_frames = 6 + (i % 5)
        frames = _holdframe_pixels(i, w, h, n_frames)
        if i % 7 == 0:
            parts = []
            for f in range(n_frames):
                png = encode_png(frames[f])
                parts.append(struct.pack("<I", len(png)) + png)
            payloads.append(b"".join(parts))
            fmts.append("pngv")
        else:
            payloads.append(frames.tobytes())
            fmts.append("rawv")
        ids.append(f"vid-{i:08d}")
        ws.append(w)
        hs.append(h)
        nfs.append(n_frames)
    return pa.table(
        {
            "video_id": pa.array(ids, pa.string()),
            "bytes": pa.array(payloads, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "n_frames": pa.array(nfs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
        }
    )


def read_synth_holdframe_videos(n_videos: int):
    import ray.data as rd

    ds = rd.range(n_videos)
    return ds.map_batches(
        lambda b: synth_holdframe_batch(b["id"].to_numpy()),
        batch_format="pyarrow",
        batch_size=None,
    )


def expected_dup_frames(n_videos: int) -> pa.Table:
    """Generator-side expected static-frame profile: held transitions
    recomputed from the hold schedule itself (hash math, never pixels
    or the codec)."""
    from ..stages.footprint import _splitmix64

    vids, nf, nd, fd = [], [], [], []
    for i in range(n_videos):
        n_frames = 6 + (i % 5)
        held = [
            f
            for f in range(1, n_frames)
            if int(_splitmix64(np.uint64(i * 131 + f)) % np.uint64(3)) == 0
        ]
        vids.append(f"vid-{i:08d}")
        nf.append(n_frames)
        nd.append(len(held))
        fd.append(held[0] if held else -1)
    return pa.table(
        {
            "video_id": pa.array(vids, pa.string()),
            "n_frames": pa.array(nf, pa.int64()),
            "n_dup": pa.array(nd, pa.int64()),
            "first_dup": pa.array(fd, pa.int64()),
        }
    )
