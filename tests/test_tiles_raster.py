"""Batch scanline rasterizer (stages/tiles.py) against the per-point
even-odd reference ``functions.pip.points_in_multipolygon``.

Seeded generators cover holes, multipart geometries, open and closed
rings, horizontal edges, vertices exactly on pixel-centre rows and
columns, degenerate rings (0, 1, 2 vertices), empty multipolygons and
several tiles at different resolutions in one batch; hostile rows add
NaN, ±inf and ±1e308 vertices.  Each clip's mask is compared pixel by
pixel, and whole batches byte for byte against the per-clip loop the
kernel replaced.

``rasterize_counts`` has two passes, the native library's and the numpy
body (``GEO_NATIVE=0``): every case runs on both, and their counts must
be equal uint32 arrays and their ``RasterizePartial`` tables equal byte
for byte.  A spy test checks that the native pass is the one that runs
when the library loads."""

import shutil

import numpy as np
import pyarrow as pa
import pytest

from rust_geo_booleanop_ray import native
from rust_geo_booleanop_ray.functions.pip import points_in_multipolygon
from rust_geo_booleanop_ray.sources.arrow_geom import arrow_to_mps, mps_to_arrow, rects_to_arrow
from rust_geo_booleanop_ray.stages import tiles
from rust_geo_booleanop_ray.stages.cells import cell_bounds, cell_encode
from rust_geo_booleanop_ray.stages.tiles import (
    PARTIAL_SCHEMA,
    RasterizePartial,
    pixel_centres,
    rasterize_counts,
)

RESOLUTIONS = (0, 3, 5, 5, 9, 17, 28)


def _grid(tile_id: int, px: int):
    """Pixel centres of one tile, built the per-tile way."""
    x0, y0, x1, y1 = cell_bounds(tile_id)
    xs = x0 + (np.arange(px) + 0.5) * (x1 - x0) / px
    ys = y0 + (np.arange(px) + 0.5) * (y1 - y0) / px
    return xs, ys


def _reference_mask(mp, tile_id: int, px: int) -> np.ndarray:
    """``points_in_multipolygon`` on the tile's pixel centres; an empty
    ring adds nothing (the reference cannot take one)."""
    xs, ys = _grid(tile_id, px)
    gx, gy = np.meshgrid(xs, ys)
    mp = [[ring for ring in poly if len(ring)] for poly in mp]
    return points_in_multipolygon(gx.ravel(), gy.ravel(), mp).reshape(px, px)


def _old_rasterize_partial(batch: pa.Table, px: int) -> pa.Table:
    """The per-clip loop the scanline kernel replaced, kept as the
    reference for whole-batch byte equality."""
    tile_ids = batch["tile_id"].to_numpy()
    acc: dict = {}
    pieces: dict = {}
    for tid, mp in zip(tile_ids, arrow_to_mps(batch["clip"])):
        tid = int(tid)
        xs, ys = _grid(tid, px)
        gx, gy = np.meshgrid(xs, ys)
        counts = acc.get(tid)
        if counts is None:
            counts = np.zeros(px * px, dtype=np.uint32)
            acc[tid] = counts
            pieces[tid] = 0
        counts += points_in_multipolygon(gx.ravel(), gy.ravel(), mp).astype(np.uint32)
        pieces[tid] += 1
    tids = sorted(acc)
    return pa.table(
        {
            "tile_id": pa.array(tids, pa.int64()),
            "px": pa.array([px] * len(tids), pa.int32()),
            "raster": pa.array(
                [np.minimum(acc[t], 65535).astype(np.uint16).tobytes() for t in tids],
                pa.binary(),
            ),
            "n_pieces": pa.array([pieces[t] for t in tids], pa.int64()),
        }
    )


def _on_both_passes(monkeypatch, fn):
    """``fn()`` on the native pass, then on the numpy body."""
    got = fn()
    with monkeypatch.context() as m:
        m.setenv("GEO_NATIVE", "0")
        return got, fn()


def _counts(monkeypatch, clip, xs, ys, grid) -> np.ndarray:
    """``rasterize_counts`` on both passes: equal uint32 arrays."""
    got, want = _on_both_passes(monkeypatch, lambda: rasterize_counts(clip, xs, ys, grid))
    assert got.dtype == want.dtype == np.uint32
    assert np.array_equal(got, want)
    return got


def _partial(monkeypatch, px: int, batch: pa.Table) -> pa.Table:
    """``RasterizePartial(px)(batch)`` on both passes: equal tables."""
    got, want = _on_both_passes(monkeypatch, lambda: RasterizePartial(px)(batch))
    assert got.equals(want)
    return got


def _tiles(rng, n: int):
    """``n`` tile ids spread over RESOLUTIONS."""
    res = rng.choice(RESOLUTIONS, n)
    xs = rng.uniform(-180, 180, n)
    ys = rng.uniform(-90, 90, n)
    return [int(cell_encode(xs[i : i + 1], ys[i : i + 1], int(res[i]))[0]) for i in range(n)]


def _ring(rng, tile_id: int, px: int, cx: float, cy: float, scale: float):
    """A star-shaped ring around (cx, cy) in tile units; some vertices
    sit exactly on pixel-centre rows/columns, some runs are horizontal."""
    x0, y0, x1, y1 = cell_bounds(tile_id)
    xs, ys = _grid(tile_id, px)
    k = int(rng.integers(3, 12))
    ang = np.sort(rng.uniform(0, 2 * np.pi, k))
    rad = scale * rng.uniform(0.2, 1.0, k)
    pts = []
    for a, r in zip(ang, rad):
        x = x0 + (cx + r * np.cos(a)) * (x1 - x0)
        y = y0 + (cy + r * np.sin(a)) * (y1 - y0)
        if rng.random() < 0.3:
            x = float(xs[rng.integers(px)])
        if rng.random() < 0.3:
            y = float(ys[rng.integers(px)])
        if pts and rng.random() < 0.2:
            y = pts[-1][1]  # horizontal edge
        pts.append((float(x), float(y)))
    return pts


def _rect_ring(rng, tile_id: int, px: int):
    """Axis-aligned ring with corners on pixel centres or tile edges."""
    x0, y0, x1, y1 = cell_bounds(tile_id)
    xs, ys = _grid(tile_id, px)
    cand_x = np.r_[xs, x0, x1]
    cand_y = np.r_[ys, y0, y1]
    xa, xb = sorted(rng.choice(cand_x, 2, replace=False))
    ya, yb = sorted(rng.choice(cand_y, 2, replace=False))
    return [(xa, ya), (xb, ya), (xb, yb), (xa, yb)]


def _close(ring, rng):
    """Close the ring (repeat the first vertex) or leave it open."""
    return ring + [ring[0]] if ring and rng.random() < 0.6 else ring


def _random_mp(rng, tile_id: int, px: int, degenerate: bool):
    kind = rng.random()
    if kind < 0.05:
        return []
    mp = []
    for _ in range(int(rng.integers(1, 4)) if kind < 0.6 else 1):
        cx, cy = rng.uniform(-0.2, 1.2, 2)
        scale = rng.uniform(0.05, 0.9)
        outer = _rect_ring(rng, tile_id, px) if rng.random() < 0.3 else _ring(rng, tile_id, px, cx, cy, scale)
        poly = [_close(outer, rng)]
        if rng.random() < 0.4:  # hole (possibly poking out: even-odd still decides)
            poly.append(_close(_ring(rng, tile_id, px, cx, cy, scale * 0.5)[::-1], rng))
        if rng.random() < 0.3:  # 1- and 2-vertex rings
            poly.append(outer[: int(rng.integers(1, 3))])
        if degenerate and rng.random() < 0.3:
            poly.insert(int(rng.integers(len(poly) + 1)), [])
        mp.append(poly)
    if degenerate and rng.random() < 0.1:
        mp.append([])  # polygon with no rings
    return mp


def _batch(seed: int, px: int, n: int, degenerate: bool):
    rng = np.random.default_rng(seed)
    tiles = _tiles(rng, 6)
    tile_ids = [tiles[i] for i in rng.integers(0, len(tiles), n)]
    mps = [_random_mp(rng, t, px, degenerate) for t in tile_ids]
    return pa.table({"tile_id": pa.array(tile_ids, pa.int64()), "clip": mps_to_arrow(mps)}), mps


@pytest.mark.parametrize("px", [1, 2, 16, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_clip_matches_points_in_multipolygon(px, seed, monkeypatch):
    batch, mps = _batch(seed, px, 300, degenerate=True)
    _assert_each_clip_matches(monkeypatch, batch["tile_id"].to_numpy(), batch["clip"], mps, px)


def _assert_each_clip_matches(monkeypatch, tile_ids, clip, mps, px):
    """Each clip, on its own raster, equals the per-point reference."""
    tids, tile_of_row = np.unique(tile_ids, return_inverse=True)
    xs, ys = pixel_centres(tids, px)
    # one raster per clip: each clip on its own tile's grid
    masks = _counts(monkeypatch, clip, xs[tile_of_row], ys[tile_of_row], np.arange(len(mps)))
    assert masks.shape == (len(mps), px, px) and masks.dtype == np.uint32
    for i, mp in enumerate(mps):
        want = _reference_mask(mp, int(tile_ids[i]), px)
        assert np.array_equal(masks[i], want.astype(np.uint32)), (i, mp)


@pytest.mark.parametrize("px", [16, 32])
def test_batch_bytes_match_per_clip_loop(px, monkeypatch):
    batch, _ = _batch(7, px, 400, degenerate=False)
    want = _old_rasterize_partial(batch, px)
    got = _partial(monkeypatch, px, batch)
    assert got.schema == want.schema
    assert got.equals(want)
    # a zero-copy slice and a multi-chunk table read the same buffers
    part = batch.slice(37, 250)
    assert _partial(monkeypatch, px, part).equals(_old_rasterize_partial(part, px))
    chunked = pa.concat_tables([batch.slice(0, 123), batch.slice(123)])
    assert _partial(monkeypatch, px, chunked).equals(want)


def test_pixel_centres_match_per_tile_grid():
    rng = np.random.default_rng(5)
    # tiles with a corner at the origin expose the offset term unrounded
    at_origin = [int(cell_encode(np.array([1e-12]), np.array([1e-12]), r)[0]) for r in range(29)]
    tids = np.array(_tiles(rng, 20) + at_origin, dtype=np.int64)
    for px in (1, 7, 16, 32):
        xs, ys = pixel_centres(tids, px)
        for i, t in enumerate(tids):
            gx, gy = _grid(int(t), px)
            assert np.array_equal(xs[i], gx) and np.array_equal(ys[i], gy)


def test_counts_saturate_on_uint16_wire(monkeypatch):
    tile = int(cell_encode(np.array([1.0]), np.array([1.0]), 4)[0])
    x0, y0, x1, y1 = cell_bounds(tile)
    n = 65540
    clip = rects_to_arrow(np.full(n, x0), np.full(n, y0), np.full(n, x1), np.full(n, y1))
    out = _partial(monkeypatch, 4, pa.table({"tile_id": pa.array([tile] * n, pa.int64()), "clip": clip}))
    wire = np.frombuffer(out["raster"][0].as_py(), dtype=np.uint16)
    assert (wire == 65535).all()
    assert out["n_pieces"][0].as_py() == n


@pytest.mark.parametrize("col", ["clip", "tile_id"])
def test_null_row_raises_with_row_and_tile(col):
    tile = int(cell_encode(np.array([10.0]), np.array([10.0]), 5)[0])
    x0, y0, x1, y1 = cell_bounds(tile)
    square = [[[(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]]]
    clips = [square, square, square]
    tiles = [tile, tile + 1, tile]
    if col == "clip":
        clips[2] = None
    else:
        tiles[1] = None
    batch = pa.table({"tile_id": pa.array(tiles, pa.int64()), "clip": mps_to_arrow(clips)})
    row = 2 if col == "clip" else 1
    with pytest.raises(ValueError, match=rf"row {row} \(tile_id {tiles[row]}\) has a null {col}"):
        RasterizePartial(16)(batch)


def test_empty_rings_and_multipolygons_count_as_pieces(monkeypatch):
    tile = int(cell_encode(np.array([10.0]), np.array([10.0]), 5)[0])
    x0, y0, x1, y1 = cell_bounds(tile)
    square = [[[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]]]
    batch = pa.table(
        {
            "tile_id": pa.array([tile] * 4, pa.int64()),
            "clip": mps_to_arrow([[], [[[]]], [[[], []]], square]),
        }
    )
    out = _partial(monkeypatch, 8, batch)
    assert out["n_pieces"].to_pylist() == [4]
    wire = np.frombuffer(out["raster"][0].as_py(), dtype=np.uint16)
    assert (wire == 1).all()  # only the square covers
    only_empty = _partial(monkeypatch, 8, batch.slice(0, 3))
    assert only_empty["n_pieces"].to_pylist() == [3]
    assert not np.frombuffer(only_empty["raster"][0].as_py(), dtype=np.uint16).any()


def test_empty_batch_returns_empty_partials(monkeypatch):
    empty = pa.table({"tile_id": pa.array([], pa.int64()), "clip": mps_to_arrow([])})
    for batch in (empty, empty.slice(0, 0), pa.Table.from_batches([], empty.schema)):
        out = _partial(monkeypatch, 16, batch)
        assert out.num_rows == 0
        assert out.schema == PARTIAL_SCHEMA


def _hostile_batch(seed: int, px: int, n: int):
    """Seeded rows whose vertices include NaN, ±inf and ±1e308, next to
    finite ones in the same rings; some rings closed, some open."""
    rng = np.random.default_rng(seed)
    tiles_ = _tiles(rng, 4)
    specials = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308])
    tile_ids, mps = [], []
    for t in (tiles_[i] for i in rng.integers(0, len(tiles_), n)):
        mp = _random_mp(rng, t, px, degenerate=False)
        for poly in mp:
            for r, ring in enumerate(poly):
                ring = [list(v) for v in ring]
                for v in ring:
                    if rng.random() < 0.25:
                        v[int(rng.integers(2))] = float(rng.choice(specials))
                poly[r] = [tuple(v) for v in ring]
        tile_ids.append(t)
        mps.append(mp)
    return pa.table({"tile_id": pa.array(tile_ids, pa.int64()), "clip": mps_to_arrow(mps)}), mps


@pytest.mark.parametrize("px", [1, 2, 7, 16])
@pytest.mark.parametrize("seed", [3, 4])
def test_hostile_vertices_match_on_both_passes(px, seed, monkeypatch):
    """NaN, ±inf and ±1e308 vertices: the same float expression, the
    same counts as the reference, on both passes."""
    batch, mps = _hostile_batch(seed, px, 200)
    with np.errstate(over="ignore", invalid="ignore"):
        _assert_each_clip_matches(monkeypatch, batch["tile_id"].to_numpy(), batch["clip"], mps, px)
        assert _partial(monkeypatch, px, batch).equals(_old_rasterize_partial(batch, px))


@pytest.mark.parametrize("px", [1, 2, 5, 16])
def test_rings_on_pixel_centres(px, monkeypatch):
    """Rings whose every vertex is a pixel centre: every edge ends on a
    scanline and every crossing lands on a column."""
    rng = np.random.default_rng(px)
    tile_ids = _tiles(rng, 3)
    rows, mps = [], []
    for t in tile_ids:
        xs, ys = _grid(t, px)
        for _ in range(20):
            k = int(rng.integers(3, 9))
            ring = [(float(xs[rng.integers(px)]), float(ys[rng.integers(px)])) for _ in range(k)]
            rows.append(t)
            mps.append([[_close(ring, rng)]])
    batch = pa.table({"tile_id": pa.array(rows, pa.int64()), "clip": mps_to_arrow(mps)})
    _assert_each_clip_matches(monkeypatch, batch["tile_id"].to_numpy(), batch["clip"], mps, px)
    assert _partial(monkeypatch, px, batch).equals(_old_rasterize_partial(batch, px))


@pytest.mark.parametrize("bad", [-2, -1, 2])
def test_grid_index_outside_raises_before_any_pixel(bad, monkeypatch):
    """A grid index outside ``[0, len(xs))`` raises ``ValueError`` naming
    its row on both passes (the numpy pass once wrapped -2 to tile 0 and
    returned zeros), and so do disagreeing ``xs``/``ys`` shapes and a
    grid of the wrong length."""
    batch, _ = _batch(5, 8, 4, degenerate=False)
    xs, ys = pixel_centres(np.array(_tiles(np.random.default_rng(5), 2)), 8)
    clip = batch["clip"]
    cases = [
        (np.array([0, 1, bad, 0]), xs, ys, rf"row 2 has grid index {bad} outside \[0, 2\)"),
        (np.array([0, 1, 1, 0]), xs, ys[:1], "not one pixel row each per grid"),
        (np.array([0, 1, 1, 0]), xs[0], ys, "not one pixel row each per grid"),
        (np.array([0, 1, 1]), xs, ys, r"\(3,\) grid indices for 4 rows"),
    ]
    for grid, gx, gy, msg in cases:
        for env in ("1", "0"):
            with monkeypatch.context() as m:
                m.setenv("GEO_NATIVE", env)
                with pytest.raises(ValueError, match=msg):
                    rasterize_counts(clip, gx, gy, grid)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_rasterize_partial_runs_native_pass_when_loaded(monkeypatch):
    """With the library loaded ``RasterizePartial`` counts through the
    native entry and never the numpy body; under ``GEO_NATIVE=0`` through
    the numpy body.  A silent fallback (native entry returning None, then
    numpy) fails it."""
    calls = []
    real_native, real_numpy = native.native_rasterize_counts, tiles._numpy_counts

    def spy(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(native, "native_rasterize_counts", spy("native", real_native))
    monkeypatch.setattr(tiles, "_numpy_counts", spy("numpy", real_numpy))
    batch, _ = _batch(3, 16, 60, degenerate=False)
    want = _old_rasterize_partial(batch, 16)
    assert RasterizePartial(16)(batch).equals(want)
    assert calls == ["native"]
    calls.clear()
    monkeypatch.setenv("GEO_NATIVE", "0")
    assert RasterizePartial(16)(batch).equals(want)
    assert calls == ["native", "numpy"]  # the native entry declines: None
