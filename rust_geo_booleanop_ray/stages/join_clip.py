"""Spatial join + clip stages.

Three join strategies, picked by data shape (ray_guide join patterns):

1. ``TileJoinClip`` — footprints × the regular tile grid.  Tiles are
   cells (stages/cells.py) at ``tile_res``; the cover is computed
   arithmetically (no index needed).  Every (footprint, tile) pair,
   also one whose bbox lies strictly inside its tile, is clipped
   exactly against the tile rect in one ``boolean_batch`` call; the
   native kernel answers a convex footprint strictly inside its tile
   without the sweep (its CONTAINED known answer, bit-identical to the
   sweep).  Stateless map_batches.
2. ``BroadcastPolyJoinClip`` — footprints × an *irregular* polygon set
   small enough to broadcast (``ray.put`` once).  Actor-pool stage: the
   STR-tree over the polygon bboxes is built ONCE per actor in
   __init__, batches stream through __call__.
3. ``join_cells_within_group`` — both sides large: both datasets in
   the one cell-join side layout (``cells.side_table``: int8 ``side``,
   int64 ``id``, bbox, ``geom``), exploded to cells, unioned,
   groupby(cell), joined inside each cell group with a local STR-tree
   on the build side.  Used via
   ``ds.groupby("cell").map_groups(join_cells_within_group_dedup,
   batch_format="pyarrow")``.

The first two emit (image_id, tile_id, clip, clip_area); the cell join
emits (probe_id, build_id, clip, clip_area), the two sides' int64 ids.
Deduplicate PBSM replicas downstream when geometries were replicated
to multiple cells, or use ``join_cells_within_group_dedup``.  Every
exact clip is one ``boolean_batch`` call per batch
(stages/boolean_batch.py), which picks the native or the reference
kernel.  The native kernel answers rect ∩ rect pairs (the cell join's
rect sides) by their closed form, before its sweep
(native/martinez.c's known-answer gate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.rtree import STRtree
from ..sources.arrow_geom import MULTIPOLYGON_T, arrow_mp_areas, rects_to_arrow
from .boolean_batch import boolean_batch
from .cells import cell_bounds_array, cover_bbox, split_sides

_CLIP_FIELDS = [pa.field("clip", MULTIPOLYGON_T), pa.field("clip_area", pa.float64())]
_EMPTY_JOIN_SCHEMA = pa.schema(
    [pa.field("image_id", pa.string()), pa.field("tile_id", pa.int64())] + _CLIP_FIELDS
)
_EMPTY_CELL_JOIN_SCHEMA = pa.schema(
    [pa.field("probe_id", pa.int64()), pa.field("build_id", pa.int64())] + _CLIP_FIELDS
)


class TileJoinClip:
    """Footprints × regular tile grid → clipped pieces.

    mode='assign': bbox-level tile assignment only (no exact geometry) —
    the cheap path whose output is SQL-checkable.
    mode='exact': Martinez clip footprint ∩ tile rect; rows whose exact
    intersection is empty are dropped (bbox cover is a superset).
    """

    def __init__(self, tile_res: int, mode: str = "exact"):
        if mode not in ("assign", "exact"):
            raise ValueError(mode)
        self.tile_res = tile_res
        self.mode = mode
        # resume pushdown: (image, tile) pairs whose output partition
        # (cell_parent(tile, part_steps)) is already committed are
        # dropped HERE, before the exact clip — so a resumed run skips
        # the expensive compute, not just the writes
        self.skip_parts = None
        self.part_steps = 2

    def with_skip_parts(self, skip_parts, part_steps: int = 2):
        self.skip_parts = (
            np.array(sorted(skip_parts), dtype=np.uint64) if skip_parts else None
        )
        self.part_steps = part_steps
        return self

    def __call__(self, batch: pa.Table) -> pa.Table:
        row_idx, tiles = cover_bbox(
            batch["minx"].to_numpy(),
            batch["miny"].to_numpy(),
            batch["maxx"].to_numpy(),
            batch["maxy"].to_numpy(),
            self.tile_res,
        )
        if self.skip_parts is not None and len(row_idx):
            from .cells import cell_parent

            parts = cell_parent(tiles, self.part_steps)
            keep_mask = ~np.isin(parts, self.skip_parts)
            row_idx = row_idx[keep_mask]
            tiles = tiles[keep_mask]
        image_ids = batch["image_id"].take(pa.array(row_idx))
        if self.mode == "assign":
            return pa.table(
                {"image_id": image_ids, "tile_id": pa.array(tiles.view(np.int64), pa.int64())}
            )

        tx0, ty0, tx1, ty1 = cell_bounds_array(tiles)
        return _clip_pairs(
            {"image_id": image_ids, "tile_id": pa.array(tiles.view(np.int64), pa.int64())},
            batch["footprint"].take(pa.array(row_idx)),
            rects_to_arrow(tx0, ty0, tx1, ty1),
            "intersection",
        )


def _non_empty(res: pa.Array) -> np.ndarray:
    """Mask of rows whose clip result has at least one polygon."""
    return pc.list_value_length(res).to_numpy(zero_copy_only=False) > 0


def _clip_pairs(ids: dict, subjects, clippings, op):
    """Aligned (subject, clipping) pairs → exact clip → the join table:
    the ``ids`` columns (name → array aligned with the pairs), ``clip``
    and ``clip_area``; pairs whose result is empty are dropped."""
    res = boolean_batch(subjects, clippings, op)
    keep = pa.array(_non_empty(res))
    res = res.filter(keep)
    return pa.table(
        {
            **{name: col.filter(keep) for name, col in ids.items()},
            "clip": res,
            "clip_area": pa.array(np.abs(arrow_mp_areas(res)), pa.float64()),
        }
    )


class BroadcastPolyJoinClip:
    """Actor-pool join against a broadcast irregular polygon table.

    ``polys`` is either a plain pyarrow Table or a ``ray.ObjectRef`` to
    one (ray.put once on the driver; each actor ray.gets it once).
    Expected columns: tile_id:int64, geom:multipolygon, minx..maxy.
    """

    def __init__(self, polys, op: str = "intersection"):
        try:
            import ray

            if isinstance(polys, ray.ObjectRef):
                polys = ray.get(polys)
        except ImportError:
            pass
        self.op = op
        self.tile_ids = polys["tile_id"].to_numpy()
        geom_col = polys["geom"]
        if isinstance(geom_col, pa.ChunkedArray):
            geom_col = geom_col.combine_chunks()
        self.geom_arr = geom_col.cast(MULTIPOLYGON_T)
        self.tree = STRtree(
            polys["minx"].to_numpy(),
            polys["miny"].to_numpy(),
            polys["maxx"].to_numpy(),
            polys["maxy"].to_numpy(),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        bminx = batch["minx"].to_numpy()
        bminy = batch["miny"].to_numpy()
        bmaxx = batch["maxx"].to_numpy()
        bmaxy = batch["maxy"].to_numpy()

        # candidate (subject row, clip polygon) pairs: ONE vectorized
        # descent for the whole batch — no per-row Python probe.
        cand_row, cand_poly = self.tree.query_many(bminx, bminy, bmaxx, bmaxy)
        if not len(cand_row):
            return _EMPTY_JOIN_SCHEMA.empty_table()

        return _clip_pairs(
            {
                "image_id": batch["image_id"].take(pa.array(cand_row)),
                "tile_id": pa.array(self.tile_ids[cand_poly], pa.int64()),
            },
            batch["footprint"].take(pa.array(cand_row)),
            self.geom_arr.take(pa.array(cand_poly)),
            self.op,
        )


def join_cells_within_group(group: pa.Table, pbsm_dedup: bool = False) -> pa.Table:
    """Large×large within-cell join for groupby(cell).map_groups.

    Input: one cell's rows from BOTH sides in the cell-join side layout
    (stages/cells.py::side_table with ``geom``).  Builds an STR-tree on
    the build side (small per cell), probes with the probe side, and
    emits (probe_id, build_id, clip, clip_area): the exact clip of each
    candidate pair, probe ``geom`` ∩ build ``geom``, empty ones dropped.
    An empty group or a group without candidates gives the same column
    types.

    ``pbsm_dedup=True`` applies PBSM reference-cell duplicate
    avoidance (Patel & DeWitt's partition-based spatial merge): a
    candidate pair is kept only in the cell containing the min corner
    of the two bboxes' intersection, so every pair is emitted by
    EXACTLY ONE of the cells both sides were replicated to — no
    second shuffle to dedup replicas, and replicated pairs pay the
    Martinez clip only once.  Requires the group to carry its ``cell``
    column (groupby key); the corner is mapped with the same
    clamped grid index used by ``cover_bbox``, so boundary corners
    resolve to the same cell the cover replicated to.
    """
    probe, build = split_sides(group)
    if build.num_rows == 0 or probe.num_rows == 0:
        return _EMPTY_CELL_JOIN_SCHEMA.empty_table()

    bminx = build["minx"].to_numpy()
    bminy = build["miny"].to_numpy()
    tree = STRtree(
        bminx,
        bminy,
        build["maxx"].to_numpy(),
        build["maxy"].to_numpy(),
    )
    pminx = probe["minx"].to_numpy()
    pminy = probe["miny"].to_numpy()
    pmaxx = probe["maxx"].to_numpy()
    pmaxy = probe["maxy"].to_numpy()

    cand_row, cand_build = tree.query_many(pminx, pminy, pmaxx, pmaxy)
    if not len(cand_row):
        return _EMPTY_CELL_JOIN_SCHEMA.empty_table()

    if pbsm_dedup:
        from .cells import cell_encode, cell_res

        gcell = np.uint64(group["cell"][0].as_py())
        res = int(cell_res(gcell))
        ref = cell_encode(
            np.maximum(pminx[cand_row], bminx[cand_build]),
            np.maximum(pminy[cand_row], bminy[cand_build]),
            res,
        )
        mine = ref == gcell
        cand_row = cand_row[mine]
        cand_build = cand_build[mine]
        if not len(cand_row):
            return _EMPTY_CELL_JOIN_SCHEMA.empty_table()

    cand_row = pa.array(cand_row)
    cand_build = pa.array(cand_build)
    return _clip_pairs(
        {"probe_id": probe["id"].take(cand_row), "build_id": build["id"].take(cand_build)},
        probe["geom"].take(cand_row),
        build["geom"].take(cand_build),
        "intersection",
    )


def join_cells_within_group_dedup(group: pa.Table) -> pa.Table:
    """map_groups entrypoint: within-cell join WITH PBSM reference-cell
    duplicate avoidance (see join_cells_within_group) — the shape to
    use after explode_to_cells, where pairs sharing several cells must
    be emitted exactly once without a second dedup shuffle."""
    return join_cells_within_group(group, pbsm_dedup=True)
