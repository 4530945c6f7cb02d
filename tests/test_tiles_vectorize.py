"""The tile tail's batch kernels (stages/tiles.py) against per-tile
references: ``vectorize_tiles_batch`` against the per-pixel run-length
loop it replaced, ``merge_rasters`` on many shuffled tiles against one
merge per tile, and the flagship's one-exchange plan."""

import numpy as np
import pyarrow as pa
import pytest

from rust_geo_booleanop_ray.sources.arrow_geom import arrow_to_mps, mps_to_arrow
from rust_geo_booleanop_ray.stages.cells import cell_bounds, cell_encode
from rust_geo_booleanop_ray.stages.tiles import merge_rasters, raster_rects, vectorize_tiles_batch


def _old_raster_to_rects(raster: bytes, px: int, tile_id: int):
    """The per-pixel loop ``raster_rects`` replaced, kept as the
    reference: maximal horizontal runs, identical runs on consecutive
    rows merged, sorted by the rect's lower-left corner."""
    mask = np.frombuffer(raster, dtype=np.uint16).reshape(px, px) > 0
    x0, y0, x1, y1 = cell_bounds(tile_id)
    wx = (x1 - x0) / px
    wy = (y1 - y0) / px
    active: dict = {}  # (start_col, end_col) -> start_row
    polys = []

    def flush(start_col, end_col, start_row, end_row):
        rx0 = x0 + start_col * wx
        rx1 = x0 + (end_col + 1) * wx
        ry0 = y0 + start_row * wy
        ry1 = y0 + (end_row + 1) * wy
        polys.append([[(rx0, ry0), (rx1, ry0), (rx1, ry1), (rx0, ry1), (rx0, ry0)]])

    for row in range(px):
        runs = set()
        col = 0
        while col < px:
            if mask[row, col]:
                start = col
                while col < px and mask[row, col]:
                    col += 1
                runs.add((start, col - 1))
            else:
                col += 1
        for key in list(active):
            if key not in runs:
                flush(key[0], key[1], active.pop(key), row - 1)
        for key in runs:
            if key not in active:
                active[key] = row
    for key, start_row in active.items():
        flush(key[0], key[1], start_row, px - 1)
    polys.sort(key=lambda p: (p[0][0][1], p[0][0][0]))
    return polys


def _old_vectorize(batch: pa.Table) -> pa.Table:
    mps = [
        _old_raster_to_rects(batch["raster"][i].as_py(), int(batch["px"][i].as_py()), int(batch["tile_id"][i].as_py()))
        for i in range(batch.num_rows)
    ]
    return pa.table(
        {"tile_id": batch["tile_id"], "geom": mps_to_arrow(mps), "coverage_fraction": batch["coverage_fraction"]}
    )


def _tile_ids(rng, n: int):
    res = rng.choice([0, 3, 5, 9, 17, 28], n)
    xs, ys = rng.uniform(-180, 180, n), rng.uniform(-90, 90, n)
    return [int(cell_encode(xs[i : i + 1], ys[i : i + 1], int(res[i]))[0]) for i in range(n)]


def _shaped_masks(px: int):
    """All-empty, all-full, checkerboard, single-column and staircase."""
    r, c = np.indices((px, px))
    return [
        np.zeros((px, px), bool),
        np.ones((px, px), bool),
        (r + c) % 2 == 0,
        c == px // 2,
        c <= r,
    ]


def _raster_batch(masks, tile_ids, rng) -> pa.Table:
    rasters, pxs = [], []
    for m in masks:
        counts = m * rng.integers(1, 65536, m.shape)
        rasters.append(counts.astype(np.uint16).tobytes())
        pxs.append(m.shape[0])
    return pa.table(
        {
            "tile_id": pa.array(tile_ids, pa.int64()),
            "px": pa.array(pxs, pa.int32()),
            "raster": pa.array(rasters, pa.binary()),
            "n_pieces": pa.array(rng.integers(1, 9, len(masks)), pa.int64()),
            "coverage_fraction": pa.array([float(m.mean()) for m in masks], pa.float64()),
        }
    )


def _mixed_batch(seed: int) -> pa.Table:
    """Seeded random masks of several densities at px 1, 7, 16 and 32,
    plus every shaped mask at each px, all in one batch."""
    rng = np.random.default_rng(seed)
    masks = []
    for px in (1, 7, 16, 32):
        for density in (0.1, 0.5, 0.9):
            masks += [rng.random((px, px)) < density for _ in range(3)]
        masks += _shaped_masks(px)
    order = rng.permutation(len(masks))
    masks = [masks[i] for i in order]
    return _raster_batch(masks, _tile_ids(rng, len(masks)), rng)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorize_matches_per_pixel_loop(seed):
    batch = _mixed_batch(seed)
    want = _old_vectorize(batch)
    got = vectorize_tiles_batch(batch)
    assert got.schema == want.schema
    assert got.equals(want)
    # a zero-copy slice and a 2-chunk table read the same buffers
    part = batch.slice(11, 40)
    assert vectorize_tiles_batch(part).equals(_old_vectorize(part))
    chunked = pa.concat_tables([batch.slice(0, 29), batch.slice(29)])
    assert chunked["raster"].num_chunks == 2
    assert vectorize_tiles_batch(chunked).equals(want)


@pytest.mark.parametrize("px", [1, 7, 16, 32])
def test_shaped_masks_one_tile_each(px):
    rng = np.random.default_rng(px)
    for mask in _shaped_masks(px):
        tile = _tile_ids(rng, 1)[0]
        raster = _raster_batch([mask], [tile], rng)["raster"]
        got = arrow_to_mps(raster_rects([tile], [px], raster))[0]
        assert got == _old_raster_to_rects(raster[0].as_py(), px, tile)


def test_vectorize_rejects_wrong_raster_length():
    batch = _mixed_batch(3)
    bad = batch.set_column(2, "raster", pa.array([b"\x01\x00" * 3] * batch.num_rows, pa.binary()))
    with pytest.raises(ValueError, match="bytes"):
        vectorize_tiles_batch(bad)


def _partials(rng, tile_ids, px: int, per_tile: int, high: int = 4) -> pa.Table:
    """``per_tile`` partial rasters for each tile, rows shuffled."""
    tids = np.repeat(np.array(tile_ids, dtype=np.int64), per_tile)
    counts = rng.integers(0, high, (len(tids), px * px)) * (rng.random((len(tids), px * px)) < 0.4)
    order = rng.permutation(len(tids))
    return pa.table(
        {
            "tile_id": pa.array(tids[order], pa.int64()),
            "px": pa.array(np.full(len(tids), px, np.int32)),
            "raster": pa.array([r.astype(np.uint16).tobytes() for r in counts[order]], pa.binary()),
            "n_pieces": pa.array(rng.integers(1, 50, len(tids)), pa.int64()),
        }
    )


def _per_tile_merge(partials: pa.Table) -> pa.Table:
    """Reference: one ``merge_rasters`` call per tile group."""
    tids = partials["tile_id"].to_numpy()
    return pa.concat_tables(
        merge_rasters(partials.filter(pa.array(tids == t))) for t in np.unique(tids)
    ).combine_chunks()


@pytest.mark.parametrize("px", [1, 7, 16])
def test_merge_batch_matches_per_tile_merges(px):
    rng = np.random.default_rng(px)
    partials = _partials(rng, _tile_ids(rng, 30), px, per_tile=5)
    got = merge_rasters(partials)
    assert got.equals(_per_tile_merge(partials))
    tids = got["tile_id"].to_numpy()
    assert (np.diff(tids) > 0).all()  # one row per tile, sorted
    # each per-tile reference row sums its tile's partials directly
    for t, raster, pieces in zip(tids, got["raster"].to_pylist(), got["n_pieces"].to_pylist()):
        rows = partials.filter(pa.array(partials["tile_id"].to_numpy() == t))
        want = sum(np.frombuffer(r, np.uint16).astype(np.uint32) for r in rows["raster"].to_pylist())
        assert np.array_equal(np.frombuffer(raster, np.uint16), np.minimum(want, 65535))
        assert pieces == sum(rows["n_pieces"].to_pylist())
    # slices and chunked columns read the same buffers
    part = partials.slice(17, 80)
    assert merge_rasters(part).equals(_per_tile_merge(part))
    chunked = pa.concat_tables([partials.slice(0, 61), partials.slice(61)])
    assert merge_rasters(chunked).equals(got)


def test_merge_batch_saturates_per_tile():
    """Several tiles in one group, each summing past the uint16 max:
    every tile saturates at 65535 and none wraps."""
    rng = np.random.default_rng(9)
    tiles = _tile_ids(rng, 4)
    px = 4
    partials = _partials(rng, tiles, px, per_tile=3, high=2)
    big = np.full(px * px, 40000, dtype=np.uint16).tobytes()
    saturated = pa.table(
        {
            "tile_id": pa.array(tiles[:2] * 2, pa.int64()),
            "px": pa.array([px] * 4, pa.int32()),
            "raster": pa.array([big] * 4, pa.binary()),
            "n_pieces": pa.array([1] * 4, pa.int64()),
        }
    )
    group = pa.concat_tables([partials, saturated])
    out = merge_rasters(group)
    assert out.equals(_per_tile_merge(group))
    for t, raster, frac in zip(out["tile_id"].to_pylist(), out["raster"].to_pylist(), out["coverage_fraction"].to_pylist()):
        if t in tiles[:2]:
            assert (np.frombuffer(raster, np.uint16) == 65535).all() and frac == 1.0


def test_merge_rejects_mixed_px_and_wrong_length():
    rng = np.random.default_rng(4)
    tiles = _tile_ids(rng, 2)
    mixed = pa.concat_tables([_partials(rng, tiles, 4, 2), _partials(rng, tiles, 8, 2)])
    with pytest.raises(ValueError, match="px"):
        merge_rasters(mixed)
    short = _partials(rng, tiles, 4, 2)
    short = short.set_column(2, "raster", pa.array([b"\x00" * 30] * short.num_rows, pa.binary()))
    with pytest.raises(ValueError, match="bytes"):
        merge_rasters(short)


def _all_to_all_ops(ds) -> list:
    """Names of the all-to-all (exchange) operators in a Dataset's
    logical plan."""
    from ray.data._internal.logical.interfaces import LogicalOperator
    from ray.data._internal.logical.operators.all_to_all_operator import AbstractAllToAll

    found, stack = [], [ds._logical_plan.dag]
    while stack:
        op: LogicalOperator = stack.pop()
        if isinstance(op, AbstractAllToAll):
            found.append(op.name)
        stack.extend(op.input_dependencies)
    return found


def test_flagship_plans_one_exchange(tmp_path):
    """Both flagship pipelines plan exactly one all-to-all operator:
    the sort shuffle on the lineage partition."""
    from rust_geo_booleanop_ray.pipelines.flagship import tile_pipeline, tile_pipeline_resumable

    for ds in (
        tile_pipeline(n_images=64, tile_res=4, raster_px=8),
        tile_pipeline_resumable(str(tmp_path / "tiles"), n_images=64, tile_res=4, raster_px=8),
    ):
        assert len(_all_to_all_ops(ds)) == 1, _all_to_all_ops(ds)
