"""Flagship pipeline: images → footprints → tile join/clip → tiles.

The end-to-end north-star flow, every stage a Dataset transform:

  read images (streaming synth source or parquet)
    → derive_footprints           (stateless map_batches, vectorized)
    → TileJoinClip('exact')       (stateless map_batches; Martinez clip)
    → RasterizePartial + part     (map_batches; one scanline pass per
                                   batch, in C when the native library
                                   loads, else numpy, same counts;
                                   part = the tile's parent cell)
    → groupby(part)               (THE shuffle; moves fixed-size count
                                   rasters, never geometry)
    → merge_rasters               (one call per partition: one sort +
      → vectorize_tiles_batch      reduceat, then one raster→vector pass)

Every tile lies inside its partition, so the one exchange serves both
the per-tile merge and the resumable per-partition commit.  No
driver-side materialization: callers consume the returned Dataset
(write_parquet / iter_batches / aggregate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources.images import read_synth_images
from ..stages.cells import cell_parent
from ..stages.footprint import derive_footprints
from ..stages.join_clip import TileJoinClip
from ..stages.tiles import RasterizePartial, merge_rasters, vectorize_tiles_batch

PART_STEPS = 2  # a tile's lineage partition is its parent cell this many levels up


def footprints_dataset(n_images: int = 2000, seed: int = 42, images_ds=None):
    ds = images_ds if images_ds is not None else read_synth_images(n_images, seed=seed)
    return ds.map_batches(derive_footprints, batch_format="pyarrow", zero_copy_batch=True)


def _keyed_partials(n_images, tile_res, raster_px, seed, images_ds, skip_parts=()):
    """Images → partial count rasters (RasterizePartial), each row with
    the ``part`` its tile belongs to.  Clips of tiles in ``skip_parts``
    are dropped before the exact clip."""

    def add_part(batch: pa.Table) -> pa.Table:
        cells = batch["tile_id"].to_numpy().view("uint64")
        return batch.append_column("part", pa.array(cell_parent(cells, PART_STEPS).view("int64")))

    clip = TileJoinClip(tile_res, mode="exact").with_skip_parts(skip_parts, part_steps=PART_STEPS)
    return (
        footprints_dataset(n_images, seed, images_ds)
        .map_batches(clip, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(RasterizePartial(raster_px), batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(add_part, batch_format="pyarrow")
    )


def _tile_tail():
    """One partition's partials → its tiles (tile_id, geom,
    coverage_fraction).  ``merge_rasters`` and ``vectorize_tiles_batch``
    are bound here, when the plan is built, and reach the workers
    inside the closure."""
    merge, vectorize = merge_rasters, vectorize_tiles_batch

    def tail(group: pa.Table) -> pa.Table:
        return vectorize(merge(group))

    return tail


def tile_pipeline(n_images: int = 2000, tile_res: int = 5, raster_px: int = 32, seed: int = 42, images_ds=None):
    """Clips are pre-rasterized INSIDE map_batches (RasterizePartial), so
    the one shuffle moves fixed-size count bitmaps, not geometry lists,
    and each partition merges its tiles with one additive reduce."""
    partials = _keyed_partials(n_images, tile_res, raster_px, seed, images_ds)
    return partials.groupby("part").map_groups(_tile_tail(), batch_format="pyarrow")


def tile_pipeline_resumable(
    out_dir: str,
    n_images: int = 2000,
    tile_res: int = 5,
    raster_px: int = 32,
    seed: int = 42,
    images_ds=None,
):
    """Flagship with per-partition lineage checkpoints (north_rule:
    resumable mid-run).  Each partition task merges and vectorizes its
    tiles, then commits its directory atomically with a
    ``_lineage.json`` manifest; a re-run skips committed partitions
    BEFORE the exact clip.  Returns the metrics Dataset."""
    from ..state.lineage import completed_partitions, resumable_write

    config_hash = f"n={n_images},res={tile_res},px={raster_px},seed={seed}"
    # gen/footprint/cover still stream for committed partitions:
    # input-level skipping would need partition-aligned input files
    done = {np.uint64(p) for p in completed_partitions(out_dir, config_hash)}
    partials = _keyed_partials(n_images, tile_res, raster_px, seed, images_ds, done)
    tail = _tile_tail()

    def tiles_with_part(group: pa.Table) -> pa.Table:
        tiles = tail(group)
        return tiles.append_column("part", pa.repeat(group["part"][0], tiles.num_rows))

    return resumable_write(partials, out_dir, "part", config_hash, tail=tiles_with_part)
