"""Flagship pipeline: images → footprints → tile join/clip → tiles.

The end-to-end north-star flow, every stage a Dataset transform:

  read images (streaming synth source or parquet)
    → derive_footprints           (stateless map_batches, vectorized)
    → TileJoinClip('exact')       (stateless map_batches; Martinez clip)
    → RasterizePartial            (map_batches; one scanline pass per batch)
    → groupby(tile_id)            (THE shuffle, keyed on the cell space;
                                   moves fixed-size count rasters)
    → merge_rasters               (map_groups; sums a tile's partials)
    → vectorize_tiles_batch       (map_batches, raster→vector)

No driver-side materialization: callers consume the returned Dataset
(write_parquet / iter_batches / aggregate).
"""

from __future__ import annotations

from ..sources.images import read_synth_images
from ..stages.footprint import derive_footprints
from ..stages.join_clip import TileJoinClip
from ..stages.tiles import RasterizePartial, merge_rasters, vectorize_tiles_batch
from ..tuning import tune_data_context

tune_data_context()


def footprints_dataset(n_images: int = 2000, seed: int = 42, images_ds=None):
    ds = images_ds if images_ds is not None else read_synth_images(n_images, seed=seed)
    return ds.map_batches(derive_footprints, batch_format="pyarrow", zero_copy_batch=True)


def clip_dataset(n_images: int = 2000, tile_res: int = 5, seed: int = 42, images_ds=None):
    fp = footprints_dataset(n_images, seed, images_ds)
    return fp.map_batches(
        TileJoinClip(tile_res, mode="exact"),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def tile_pipeline(n_images: int = 2000, tile_res: int = 5, raster_px: int = 32, seed: int = 42, images_ds=None):
    """Clips are pre-rasterized INSIDE map_batches (RasterizePartial), so
    the groupby shuffle moves fixed-size count bitmaps, not geometry
    lists; per-tile merge is an additive reduce.  Equivalent output to
    grouping raw clips into ``stages.tiles.RasterizeTile``, at a
    fraction of the exchange volume."""
    clips = clip_dataset(n_images, tile_res, seed, images_ds)
    partials = clips.map_batches(
        RasterizePartial(raster_px), batch_format="pyarrow", zero_copy_batch=True
    )
    rasters = partials.groupby("tile_id").map_groups(
        merge_rasters, batch_format="pyarrow"
    )
    return rasters.map_batches(vectorize_tiles_batch, batch_format="pyarrow")


def tile_pipeline_resumable(
    out_dir: str,
    n_images: int = 2000,
    tile_res: int = 5,
    raster_px: int = 32,
    seed: int = 42,
    images_ds=None,
):
    """Flagship with per-partition lineage checkpoints (north_rule:
    resumable mid-run).  Tiles are bucketed into partitions by their
    coarse parent cell; each partition directory commits atomically with
    a ``_lineage.json`` manifest, and a re-run skips committed
    partitions BEFORE the shuffle.  Returns the metrics Dataset."""
    import numpy as np
    import pyarrow as pa

    from ..stages.cells import cell_parent
    from ..state.lineage import completed_partitions, resumable_write

    config_hash = f"n={n_images},res={tile_res},px={raster_px},seed={seed}"

    # push the done-partition filter into the clip stage: a resumed run
    # skips the exact clip + rasterize for committed partitions, not
    # just their writes (gen/footprint/cover still stream — input-level
    # skipping would need partition-aligned input files)
    done = {np.uint64(p) for p in completed_partitions(out_dir, config_hash)}
    fp = footprints_dataset(n_images, seed, images_ds)
    clips = fp.map_batches(
        TileJoinClip(tile_res, mode="exact").with_skip_parts(done, part_steps=2),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    partials = clips.map_batches(
        RasterizePartial(raster_px), batch_format="pyarrow", zero_copy_batch=True
    )
    tiles = partials.groupby("tile_id").map_groups(
        merge_rasters, batch_format="pyarrow"
    ).map_batches(vectorize_tiles_batch, batch_format="pyarrow")

    def add_part(batch: pa.Table) -> pa.Table:
        import numpy as np

        cells = batch["tile_id"].to_numpy().view("uint64")
        part = cell_parent(cells, steps=2).view("int64")
        return batch.append_column("part", pa.array(part))

    keyed = tiles.map_batches(add_part, batch_format="pyarrow")
    return resumable_write(keyed, out_dir, part_col="part", config_hash=config_hash)
