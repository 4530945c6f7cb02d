"""Spatial join + clip stages.

Three join strategies, picked by data shape (ray_guide join patterns):

1. ``TileJoinClip`` — footprints × the regular tile grid.  Tiles are
   cells (stages/cells.py) at ``tile_res``; the cover is computed
   arithmetically (no index needed), the clip is the exact Martinez
   kernel against the tile rect.  Stateless map_batches.
2. ``BroadcastPolyJoinClip`` — footprints × an *irregular* polygon set
   small enough to broadcast (``ray.put`` once).  Actor-pool stage: the
   STR-tree over the polygon bboxes is built ONCE per actor in
   __init__, batches stream through __call__.
3. ``join_cells_within_group`` — both sides large: tag + union both
   datasets, groupby(cell), join inside each cell group with a local
   STR-tree on the smaller side.  Used via
   ``ds.groupby("cell").map_groups(join_cells_within_group,
   batch_format="pyarrow")``.

All outputs carry (image_id, tile_id, cell, clip geometry, clip_area)
— deduplicate PBSM replicas downstream on (image_id, tile_id) when
geometries were replicated to multiple cells.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.convex_clip import clip_convex_ring_to_rect, is_single_convex_ring
from ..functions.rtree import STRtree
from ..geom import boolean_op
from ..sources.arrow_geom import (
    MULTIPOLYGON_T,
    arrow_mp_areas,
    arrow_to_mps,
    mps_to_arrow,
    rects_to_arrow,
    shoelace_area,
)
from .cells import cell_bounds, cell_bounds_array, cover_bbox

_EMPTY_JOIN_SCHEMA = pa.schema(
    [
        pa.field("image_id", pa.string()),
        pa.field("tile_id", pa.int64()),
        pa.field("clip", MULTIPOLYGON_T),
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
        tile_col = pa.array(tiles.view(np.int64), pa.int64())

        if self.mode == "assign":
            return pa.table({"image_id": image_ids, "tile_id": tile_col})

        bminx = batch["minx"].to_numpy()
        bminy = batch["miny"].to_numpy()
        bmaxx = batch["maxx"].to_numpy()
        bmaxy = batch["maxy"].to_numpy()

        # Native whole-batch path: ONE C call clips every candidate
        # (footprint, tile-rect) pair; only strictly-contained pairs
        # (intersection == footprint) bypass it.  Falls back to the
        # per-row convex/Martinez loop without a native kernel.
        from ..native import native_boolean_batch

        tx0, ty0, tx1, ty1 = cell_bounds_array(tiles)
        contained = (
            (bminx[row_idx] > tx0)
            & (bmaxx[row_idx] < tx1)
            & (bminy[row_idx] > ty0)
            & (bmaxy[row_idx] < ty1)
        )
        need = ~contained
        fp_all = batch["footprint"]
        if isinstance(fp_all, pa.ChunkedArray):
            fp_all = fp_all.combine_chunks()
        if need.any():
            subj = fp_all.take(pa.array(np.asarray(row_idx)[need]))
            clip_rects = rects_to_arrow(tx0[need], ty0[need], tx1[need], ty1[need])
            res = native_boolean_batch(subj, clip_rects, ["intersection"] * int(need.sum()))
        else:
            res = mps_to_arrow([])

        if res is not None:
            # fully vectorized assembly: contained rows pass the
            # footprint through; native results drop empty clips;
            # both merge back in candidate order
            import pyarrow.compute as pc

            cont_j = np.flatnonzero(contained)
            need_j = np.flatnonzero(need)
            if len(res):
                keep_need = pc.list_value_length(res).to_numpy(zero_copy_only=False) > 0
                res_kept = res.filter(pa.array(keep_need))
                kept_need_j = need_j[keep_need]
            else:
                res_kept = res
                kept_need_j = need_j[:0]
            cont_clips = fp_all.take(pa.array(row_idx[cont_j]))
            cont_areas = np.abs(arrow_mp_areas(cont_clips))
            need_areas = np.abs(arrow_mp_areas(res_kept))
            all_j = np.concatenate([cont_j, kept_need_j])
            order = np.argsort(all_j, kind="stable")
            keep_arr = pa.array(all_j[order])
            clips = pa.concat_arrays(
                [cont_clips.cast(MULTIPOLYGON_T), res_kept.cast(MULTIPOLYGON_T)]
            ).take(pa.array(order))
            areas = np.concatenate([cont_areas, need_areas])[order]
            return pa.table(
                {
                    "image_id": image_ids.take(keep_arr),
                    "tile_id": tile_col.take(keep_arr),
                    "clip": clips,
                    "clip_area": pa.array(areas, pa.float64()),
                }
            )

        # ---- pure-Python fallback (no native kernel) ----
        tile_bounds_cache: dict = {}
        mps = arrow_to_mps(batch["footprint"])
        is_convex = [is_single_convex_ring(mp) for mp in mps]
        clips, areas, keep = [], [], []
        for j in range(len(row_idx)):
            i = row_idx[j]
            fp = mps[i]
            t = int(tiles[j])
            tb = tile_bounds_cache.get(t)
            if tb is None:
                tb = tile_bounds_cache[t] = cell_bounds(t)
            tx0, ty0, tx1, ty1 = tb
            # Fast path 1: footprint bbox strictly inside the tile →
            # intersection is the footprint itself (no sweep needed).
            if bminx[i] > tx0 and bmaxx[i] < tx1 and bminy[i] > ty0 and bmaxy[i] < ty1:
                keep.append(j)
                clips.append(fp)
                areas.append(abs(shoelace_area(fp)))
                continue
            # Fast path 2: convex footprint × axis rect → Sutherland–
            # Hodgman (exact for convex; Martinez otherwise).
            if is_convex[i]:
                ring = clip_convex_ring_to_rect(fp[0][0], tx0, ty0, tx1, ty1)
                if ring is not None:
                    clipped = [[ring]]
                    keep.append(j)
                    clips.append(clipped)
                    areas.append(abs(shoelace_area(clipped)))
                continue
            clipped = boolean_op(fp, _tile_multipolygon(t), "intersection")
            if clipped:
                keep.append(j)
                clips.append(clipped)
                areas.append(abs(shoelace_area(clipped)))
        keep_arr = pa.array(np.asarray(keep, dtype=np.int64))
        return pa.table(
            {
                "image_id": image_ids.take(keep_arr),
                "tile_id": tile_col.take(keep_arr),
                "clip": mps_to_arrow(clips),
                "clip_area": pa.array(areas, pa.float64()),
            }
        )


def _tile_multipolygon(tile_id: int):
    x0, y0, x1, y1 = cell_bounds(tile_id)
    return [[[(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]]]


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
        self.geoms = None  # python-list view, built lazily on fallback
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

        fp_all = batch["footprint"]
        if isinstance(fp_all, pa.ChunkedArray):
            fp_all = fp_all.combine_chunks()

        # whole-batch native path: gather both sides, ONE C call per
        # batch (same shape as TileJoinClip), drop empty results
        from ..native import native_boolean_batch

        subj = fp_all.take(pa.array(cand_row))
        clip = self.geom_arr.take(pa.array(cand_poly))
        res = native_boolean_batch(subj, clip, [self.op] * len(cand_row))
        if res is not None:
            import pyarrow.compute as pc

            keep = pc.list_value_length(res).to_numpy(zero_copy_only=False) > 0
            res_kept = res.filter(pa.array(keep))
            keep_arr = pa.array(cand_row[keep])
            return pa.table(
                {
                    "image_id": batch["image_id"].take(keep_arr),
                    "tile_id": pa.array(self.tile_ids[cand_poly[keep]], pa.int64()),
                    "clip": res_kept,
                    "clip_area": pa.array(
                        np.abs(arrow_mp_areas(res_kept)), pa.float64()
                    ),
                }
            )

        # ---- pure-Python fallback (no native kernel) ----
        if self.geoms is None:
            self.geoms = arrow_to_mps(self.geom_arr)
        mps = arrow_to_mps(fp_all)
        image_ids = batch["image_id"].to_pylist()
        out_img, out_tile, out_clip, out_area = [], [], [], []
        for i, c in zip(cand_row, cand_poly):
            clipped = boolean_op(mps[i], self.geoms[c], self.op)
            if clipped:
                out_img.append(image_ids[i])
                out_tile.append(int(self.tile_ids[c]))
                out_clip.append(clipped)
                out_area.append(abs(shoelace_area(clipped)))
        if not out_img:
            return _EMPTY_JOIN_SCHEMA.empty_table()
        return pa.table(
            {
                "image_id": pa.array(out_img, pa.string()),
                "tile_id": pa.array(out_tile, pa.int64()),
                "clip": mps_to_arrow(out_clip),
                "clip_area": pa.array(out_area, pa.float64()),
            }
        )


def join_cells_within_group(group: pa.Table, pbsm_dedup: bool = False) -> pa.Table:
    """Large×large within-cell join for groupby(cell).map_groups.

    Input: one cell's rows from BOTH sides, tagged by ``side`` column
    ('probe' carries image_id+footprint, 'build' carries tile_id+geom).
    Builds an STR-tree on the build side (small per cell), probes with
    the probe side, emits exact clipped intersections.

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
    side = group["side"].to_pylist()
    is_build = np.array([s == "build" for s in side])
    build = group.filter(pa.array(is_build))
    probe = group.filter(pa.array(~is_build))
    if build.num_rows == 0 or probe.num_rows == 0:
        return _EMPTY_JOIN_SCHEMA.empty_table()

    bminx = build["minx"].to_numpy()
    bminy = build["miny"].to_numpy()
    tree = STRtree(
        bminx,
        bminy,
        build["maxx"].to_numpy(),
        build["maxy"].to_numpy(),
    )
    build_tiles = build["tile_id"].to_numpy()
    pminx = probe["minx"].to_numpy()
    pminy = probe["miny"].to_numpy()
    pmaxx = probe["maxx"].to_numpy()
    pmaxy = probe["maxy"].to_numpy()

    cand_row, cand_build = tree.query_many(pminx, pminy, pmaxx, pmaxy)
    if not len(cand_row):
        return _EMPTY_JOIN_SCHEMA.empty_table()

    if pbsm_dedup:
        from .cells import cell_encode

        gcell = np.uint64(group["cell"][0].as_py())
        res = int(gcell >> np.uint64(58))
        ref = cell_encode(
            np.maximum(pminx[cand_row], bminx[cand_build]),
            np.maximum(pminy[cand_row], bminy[cand_build]),
            res,
        )
        mine = ref == gcell
        cand_row = cand_row[mine]
        cand_build = cand_build[mine]
        if not len(cand_row):
            return _EMPTY_JOIN_SCHEMA.empty_table()

    fp_col = probe["footprint"]
    if isinstance(fp_col, pa.ChunkedArray):
        fp_col = fp_col.combine_chunks()
    geom_col = build["geom"]
    if isinstance(geom_col, pa.ChunkedArray):
        geom_col = geom_col.combine_chunks()

    # whole-batch native clip: one C call for every candidate pair
    from ..native import native_boolean_batch

    subj = fp_col.take(pa.array(cand_row))
    clip = geom_col.cast(MULTIPOLYGON_T).take(pa.array(cand_build))
    res = native_boolean_batch(subj, clip, ["intersection"] * len(cand_row))
    if res is not None:
        import pyarrow.compute as pc

        keep = pc.list_value_length(res).to_numpy(zero_copy_only=False) > 0
        res_kept = res.filter(pa.array(keep))
        keep_arr = pa.array(cand_row[keep])
        return pa.table(
            {
                "image_id": probe["image_id"].take(keep_arr),
                "tile_id": pa.array(build_tiles[cand_build[keep]], pa.int64()),
                "clip": res_kept,
                "clip_area": pa.array(np.abs(arrow_mp_areas(res_kept)), pa.float64()),
            }
        )

    # ---- pure-Python fallback (no native kernel) ----
    build_geoms = arrow_to_mps(geom_col)
    probe_geoms = arrow_to_mps(fp_col)
    image_ids = probe["image_id"].to_pylist()
    out_img, out_tile, out_clip, out_area = [], [], [], []
    for i, c in zip(cand_row, cand_build):
        clipped = boolean_op(probe_geoms[i], build_geoms[c], "intersection")
        if clipped:
            out_img.append(image_ids[i])
            out_tile.append(int(build_tiles[c]))
            out_clip.append(clipped)
            out_area.append(abs(shoelace_area(clipped)))
    if not out_img:
        return _EMPTY_JOIN_SCHEMA.empty_table()
    return pa.table(
        {
            "image_id": pa.array(out_img, pa.string()),
            "tile_id": pa.array(out_tile, pa.int64()),
            "clip": mps_to_arrow(out_clip),
            "clip_area": pa.array(out_area, pa.float64()),
        }
    )


def join_cells_within_group_dedup(group: pa.Table) -> pa.Table:
    """map_groups entrypoint: within-cell join WITH PBSM reference-cell
    duplicate avoidance (see join_cells_within_group) — the shape to
    use after explode_to_cells, where pairs sharing several cells must
    be emitted exactly once without a second dedup shuffle."""
    return join_cells_within_group(group, pbsm_dedup=True)
