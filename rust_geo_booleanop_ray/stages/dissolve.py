"""Dissolve: per-key cascaded union of many geometries.

The reference's unit of work is ONE polygon pair per call
(/root/reference/lib/src/boolean/mod.rs:88); dissolve is the engine
lift to union-of-many — GROUP BY key, union every geometry in the
group into one multipolygon (GIS "dissolve" / cascaded union).

Scale shape (100 TB): union is a commutative, associative monoid over
point sets, so it pre-aggregates like a sum — each map_batches task
tree-reduces its OWN rows per key first (``dissolve_partial``), and
only one already-unioned multipolygon per (batch, key) enters the
groupby shuffle.  The exchange therefore moves O(n_batches × keys)
geometries, never O(rows); the final ``map_groups`` unions the few
partials per key.  Tree reduction runs as rounds of WHOLE-BATCH native
Martinez calls across all keys at once (boolean_batch — zero per-row
Python), halving the live geometry count per round.

Determinism: the multipolygon VERTICES may depend on union order, but
the result SET does not — derived measures (area, rectilinear
perimeter) are order- and batch-composition-independent.  For
integer-coordinate rectilinear inputs every intermediate vertex is an
exact integer, so the measures are integer-exact (the oracle's unit-
cell enumeration hash-matches).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .boolean_batch import boolean_batch


def union_reduce_keyed(keys: np.ndarray, geoms: pa.Array):
    """Tree-reduce union per key.

    keys: 1-D numpy array (any dtype numpy can argsort); geoms: Arrow
    multipolygon ListArray, parallel to keys.  Returns (unique_keys,
    unioned_geoms) with one row per distinct key.  Each round pairs
    adjacent same-key rows and unions ALL pairs across ALL keys in one
    whole-batch native kernel call.
    """
    if isinstance(geoms, pa.ChunkedArray):
        geoms = geoms.combine_chunks()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    geoms = geoms.take(pa.array(order))

    while True:
        n = len(keys)
        if n <= 1:
            break
        change = np.r_[True, keys[1:] != keys[:-1]]
        starts = np.flatnonzero(change)
        run_len = np.diff(np.r_[starts, n])
        if (run_len == 1).all():
            break
        run_id = np.cumsum(change) - 1
        pos = np.arange(n) - starts[run_id]
        subj_m = (pos % 2 == 0) & (pos + 1 < run_len[run_id])
        clip_m = pos % 2 == 1
        left_m = (pos % 2 == 0) & ~subj_m

        merged = boolean_batch(
            geoms.take(pa.array(np.flatnonzero(subj_m))),
            geoms.take(pa.array(np.flatnonzero(clip_m))),
            "union",
        )
        keys = np.concatenate([keys[subj_m], keys[left_m]])
        geoms = pa.concat_arrays([merged, geoms.take(pa.array(np.flatnonzero(left_m)))])
        # keep runs contiguous for the next round
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        geoms = geoms.take(pa.array(order))

    return keys, geoms


def dissolve_partial(
    batch: pa.Table, key_col: str, geom_col: str, out_key: str | None = None
) -> pa.Table:
    """Per-batch combiner: union this batch's geometries per key.

    Emits one (key, geom) row per distinct key in the batch — the
    pre-aggregation that keeps the dissolve shuffle O(batches × keys).
    """
    out_key = out_key or key_col
    keys = np.asarray(batch[key_col].to_pylist())
    ukeys, ugeoms = union_reduce_keyed(keys, batch[geom_col])
    return pa.table({out_key: pa.array(ukeys.tolist()), geom_col: ugeoms})


def rectilinear_even_odd_area(mp) -> float:
    """Even-odd (set-semantic) area of a RECTILINEAR integer-coordinate
    multipolygon, robust to ring parenting.

    ``shoelace_area`` trusts ring POSITION (ring 0 exterior, rest
    holes).  Deeply-nested union output can emit an island ring inside
    a hole in the same polygon's ring list (reference contour-parenting
    convention — parity-load-bearing, so we don't "fix" connect_edges);
    position-based subtraction then undercounts by twice the island.
    Here each ring's sign comes from its actual NESTING DEPTH: a sample
    point strictly inside the ring (the up-right unit cell of its
    lexicographic-min vertex — interior for any simple rectilinear ring
    with integer vertices, and never on an axis-parallel integer edge)
    is ray-cast against every other ring; even depth ⇒ +|area|, odd ⇒
    −|area|.  Fully vectorized (one points×segments crossing matrix).
    """
    rings = [ring for poly in mp for ring in poly]
    if not rings:
        return 0.0
    # per-ring |shoelace| and sample point
    areas = np.empty(len(rings))
    px = np.empty(len(rings))
    py = np.empty(len(rings))
    segs = []
    ring_of_seg = []
    for i, ring in enumerate(rings):
        v = np.asarray(ring[:-1], dtype=np.float64)
        x, y = v[:, 0], v[:, 1]
        x2, y2 = np.roll(x, -1), np.roll(y, -1)
        areas[i] = abs(np.sum(x * y2 - x2 * y)) / 2.0
        j = np.lexsort((y, x))[0]
        px[i], py[i] = x[j] + 0.5, y[j] + 0.5
        segs.append(np.stack([x, y, x2, y2], axis=1))
        ring_of_seg.append(np.full(len(x), i, dtype=np.int64))
    s = np.concatenate(segs)
    rid = np.concatenate(ring_of_seg)
    order = np.argsort(rid, kind="stable")
    s, rid = s[order], rid[order]
    x1, y1, x2, y2 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
    # crossing matrix: point i × segment j (rectilinear ⇒ no divide-
    # by-zero on the straddle mask; guard anyway)
    straddle = (y1[None, :] > py[:, None]) != (y2[None, :] > py[:, None])
    dy = np.where(y2 - y1 == 0.0, 1.0, y2 - y1)
    xint = x1[None, :] + (py[:, None] - y1[None, :]) * ((x2 - x1) / dy)[None, :]
    cross = straddle & (xint > px[:, None])
    # crossings per (point, ring) → parity; depth excludes the own ring
    starts = np.flatnonzero(np.r_[True, rid[1:] != rid[:-1]])
    per_ring = np.add.reduceat(cross.astype(np.int64), starts, axis=1) % 2
    # rid is 0..R-1 in order, so column k of per_ring IS ring k; the
    # own-ring parity (always 1: the point is inside its ring) is
    # excluded from depth
    own = np.arange(len(rings))
    depth = per_ring.sum(axis=1) - per_ring[own, own]
    sign = np.where(depth % 2 == 0, 1.0, -1.0)
    return float(np.sum(sign * areas))


def manhattan_perimeter(mp) -> float:
    """Perimeter of a RECTILINEAR multipolygon: Σ |dx| + |dy| over all
    ring segments (exterior and hole rings alike — both are boundary).
    Equals the Euclidean perimeter when every segment is axis-parallel,
    and is integer-exact for integer vertices."""
    total = 0.0
    for poly in mp:
        for ring in poly:
            for i in range(len(ring) - 1):
                total += abs(ring[i + 1][0] - ring[i][0]) + abs(
                    ring[i + 1][1] - ring[i][1]
                )
    return total


def dissolve_stats_group(
    group: pa.Table, key_col: str, geom_col: str
) -> pa.Table:
    """Final reducer for one key group: union the partials, emit
    integer (key, union_area, union_perim)."""
    from ..sources.arrow_geom import arrow_to_mps

    keys = np.asarray(group[key_col].to_pylist())
    ukeys, ugeoms = union_reduce_keyed(keys, group[geom_col])
    areas, perims = [], []
    for mp in arrow_to_mps(ugeoms):
        areas.append(int(round(rectilinear_even_odd_area(mp))))
        perims.append(int(round(manhattan_perimeter(mp))))
    return pa.table(
        {
            key_col: pa.array(ukeys.tolist()),
            "union_area": pa.array(areas, pa.int64()),
            "union_perim": pa.array(perims, pa.int64()),
        }
    )
