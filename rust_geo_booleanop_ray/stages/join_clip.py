"""Spatial join + clip stages.

Three join strategies, picked by data shape (ray_guide join patterns):

1. ``TileJoinClip`` — footprints × the regular tile grid.  Tiles are
   cells (stages/cells.py) at ``tile_res``; the cover is computed
   arithmetically (no index needed).  Every (footprint, tile) pair,
   also one whose bbox lies strictly inside its tile, is clipped
   exactly against the tile rect in one ``boolean_batch`` call; the
   native kernel answers a convex footprint strictly inside its tile
   without the sweep (its CONTAINED known answer, bit-identical to the
   sweep).  One rect is built per distinct tile of the batch.
   Stateless map_batches.  Emits (image_id, tile_id, clip, clip_area).
2. ``BroadcastPolyJoinClip`` — footprints × an *irregular* polygon set
   small enough to ship with the UDF instance itself.  Stateless
   map_batches: each batch's candidates are the (footprint, polygon)
   pairs whose bboxes meet (``cells.overlap_pairs``, the cell join's
   bbox-overlap matrix).  Emits (image_id, tile_id, clip, clip_area).
3. ``join_cells_within_group`` — both sides large: both datasets in
   the one cell-join side layout (``cells.side_table``: int8 ``side``,
   int64 ``id``, bbox, ``geom``), exploded to cells, unioned,
   groupby(cell), joined inside each cell group by the chunked
   bbox-overlap matrix (``cells.overlap_pairs``).  Used via
   ``ds.groupby("cell").map_groups(join_cells_within_group_dedup,
   batch_format="pyarrow")``.  Emits (probe_id, build_id, clip_area),
   the two sides' int64 ids and the clip's area: its consumers
   (``poly_join_big``, ``areal_interp``) read no clip geometry, so it
   clips through ``boolean_areas`` and the native kernel returns each
   pair's area without building the clip's rings.

Deduplicate PBSM replicas downstream when geometries were replicated
to multiple cells, or use ``join_cells_within_group_dedup``.  Every
exact clip is one ``boolean_batch`` call per batch, or one
``boolean_areas`` call in the cell join (stages/boolean_batch.py),
which picks the native or the reference kernel.  The candidate pairs
reach it as row indices: each operand is an Arrow dictionary column
(``pa.DictionaryArray.from_arrays(rows, geometries)``), which the
native kernel reads row by row without a copy of the pairs' geometry.
Empty clips are dropped; ``clip_area`` is the absolute structural area
of each kept clip.  The native kernel answers rect ∩ rect pairs (the
cell join's rect sides) by their closed form, before its sweep
(native/martinez.c's known-answer gate).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.arrow_geom import MULTIPOLYGON_T, arrow_mp_areas, rects_to_arrow
from .boolean_batch import boolean_areas, boolean_batch
from .cells import cell_bounds_array, cell_holds, cover_bbox, overlap_pairs, split_sides

_EMPTY_JOIN_SCHEMA = pa.schema(
    [
        pa.field("image_id", pa.string()),
        pa.field("tile_id", pa.int64()),
        pa.field("clip", MULTIPOLYGON_T),
        pa.field("clip_area", pa.float64()),
    ]
)
# what join_cells_within_group emits
CELL_JOIN_SCHEMA = pa.schema(
    [
        pa.field("probe_id", pa.int64()),
        pa.field("build_id", pa.int64()),
        pa.field("clip_area", pa.float64()),
    ]
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

        uniq, tile_row = np.unique(tiles, return_inverse=True)
        return _clip_pairs(
            {"image_id": image_ids, "tile_id": pa.array(tiles.view(np.int64), pa.int64())},
            _indexed(row_idx, batch["footprint"]),
            _indexed(tile_row, rects_to_arrow(*cell_bounds_array(uniq))),
            "intersection",
        )


def _non_empty(res: pa.Array) -> np.ndarray:
    """Mask of rows whose clip result has at least one polygon."""
    return pc.list_value_length(res).to_numpy(zero_copy_only=False) > 0


def _indexed(rows, geoms) -> pa.DictionaryArray:
    """Pair operand: row ``rows[i]`` of the geometry column ``geoms``,
    without a copy of the geometry."""
    if isinstance(geoms, pa.ChunkedArray):
        geoms = geoms.combine_chunks()
    return pa.DictionaryArray.from_arrays(pa.array(rows, pa.int64()), geoms)


def _clip_pairs(ids: dict, subjects, clippings, op, with_clip: bool = True):
    """Aligned (subject, clipping) pairs → exact clip → the join table:
    the ``ids`` columns (name → array aligned with the pairs), ``clip``
    when ``with_clip`` and ``clip_area``; pairs whose result is empty
    are dropped.  Without ``with_clip`` the kernel returns the areas
    (``boolean_areas``) and no clip ring is built."""
    if with_clip:
        res = boolean_batch(subjects, clippings, op)
        non_empty = _non_empty(res)
        area = np.abs(arrow_mp_areas(res))
    else:
        area, non_empty = boolean_areas(subjects, clippings, op)
    keep = pa.array(non_empty)
    cols = {name: col.filter(keep) for name, col in ids.items()}
    if with_clip:
        cols["clip"] = res.filter(keep)
    cols["clip_area"] = pa.array(area[non_empty], pa.float64())
    return pa.table(cols)


class BroadcastPolyJoinClip:
    """Join against a broadcast irregular polygon table (a stateless
    map_batches UDF: pass an instance, the table travels with it).

    ``polys`` columns: tile_id:int64, geom:multipolygon, minx..maxy.
    """

    def __init__(self, polys: pa.Table, op: str = "intersection"):
        self.op = op
        self.tile_ids = polys["tile_id"].to_numpy()
        geom_col = polys["geom"]
        if isinstance(geom_col, pa.ChunkedArray):
            geom_col = geom_col.combine_chunks()
        self.geom_arr = geom_col.cast(MULTIPOLYGON_T)
        self.bounds = polys.select(["minx", "miny", "maxx", "maxy"])

    def __call__(self, batch: pa.Table) -> pa.Table:
        # candidate (subject row, clip polygon) pairs, row-major; a NaN
        # bound meets nothing, as in the cell join
        cand_row, cand_poly = overlap_pairs(self.bounds, batch)
        if not len(cand_row):
            return _EMPTY_JOIN_SCHEMA.empty_table()

        return _clip_pairs(
            {
                "image_id": batch["image_id"].take(pa.array(cand_row)),
                "tile_id": pa.array(self.tile_ids[cand_poly], pa.int64()),
            },
            _indexed(cand_row, batch["footprint"]),
            _indexed(cand_poly, self.geom_arr),
            self.op,
        )


def join_cells_within_group(group: pa.Table, pbsm_dedup: bool = False) -> pa.Table:
    """Large×large within-cell join for groupby(cell).map_groups.

    Input: one cell's rows from BOTH sides in the cell-join side layout
    (stages/cells.py::side_table with ``geom``).  The candidate pairs
    are the (probe, build) rows whose bboxes meet (``overlap_pairs``,
    in probe-major order); each is clipped exactly, probe ``geom`` ∩
    build ``geom``, the two geometry columns passed to the kernel by
    the candidates' row indices.  Emits ``CELL_JOIN_SCHEMA``:
    (probe_id, build_id, clip_area), empty clips dropped.  An empty
    group or a group without candidates gives the same column types.

    ``pbsm_dedup=True`` applies PBSM reference-cell duplicate
    avoidance (Patel & DeWitt's partition-based spatial merge): a
    candidate pair is kept only in the cell containing the min corner
    of the two bboxes' intersection, so every pair is emitted by
    EXACTLY ONE of the cells both sides were replicated to — no
    second shuffle to dedup replicas, and replicated pairs pay the
    Martinez clip only once.  Requires the group to carry its ``cell``
    column (groupby key); ``cells.cell_holds`` maps the corner with the
    same clamped grid index used by ``cover_bbox``, so boundary corners
    resolve to the same cell the cover replicated to.
    """
    probe, build = split_sides(group)
    cand_row, cand_build = overlap_pairs(build, probe)

    if pbsm_dedup and len(cand_row):
        mine = cell_holds(
            group["cell"][0].as_py(),
            np.maximum(probe["minx"].to_numpy()[cand_row], build["minx"].to_numpy()[cand_build]),
            np.maximum(probe["miny"].to_numpy()[cand_row], build["miny"].to_numpy()[cand_build]),
        )
        cand_row = cand_row[mine]
        cand_build = cand_build[mine]
    if not len(cand_row):
        return CELL_JOIN_SCHEMA.empty_table()

    return _clip_pairs(
        {
            "probe_id": pa.array(probe["id"].to_numpy()[cand_row]),
            "build_id": pa.array(build["id"].to_numpy()[cand_build]),
        },
        _indexed(cand_row, probe["geom"]),
        _indexed(cand_build, build["geom"]),
        "intersection",
        with_clip=False,
    )


def join_cells_within_group_dedup(group: pa.Table) -> pa.Table:
    """map_groups entrypoint: within-cell join WITH PBSM reference-cell
    duplicate avoidance (see join_cells_within_group) — the shape to
    use after explode_to_cells, where pairs sharing several cells must
    be emitted exactly once without a second dedup shuffle."""
    return join_cells_within_group(group, pbsm_dedup=True)
