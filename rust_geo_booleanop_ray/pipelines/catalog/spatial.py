"""Spatial queries: clip/tile/PIP joins, coverage, cells, validity."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ...sources.arrow_geom import rects_to_arrow as _rect_mp_array
from ...stages.boolean_batch import BooleanOpBatch
from ...stages.cells import (
    BUILD,
    PROBE,
    contain_chunks,
    overlap_pairs,
    side_table,
    split_sides,
)
from ...stages.exchange import hash_exchange
from ._shared import Query, _cents, _read, _values_oracle_sql


# ------------------------------------------------------------------ helpers

CLIP_WINDOW = (10.0, 10.0, 70.0, 60.0)
TILE = 8  # arithmetic tile size for the SQL-checkable tile queries
KNN_K = 5
KNN_RES = 4
CELL_JOIN_RES = 4  # the PBSM joins' cell resolution (_cell_join)

STOPWORDS_SQL = "('the','a','of','and','to','in','is')"


def _part_rect_bounds(batch: pa.Table) -> tuple:
    """part rows → (minx, miny, maxx, maxy) of their deterministic
    integer-valued rects."""
    pk = batch["p_partkey"].to_numpy()
    size = batch["p_size"].to_numpy().astype(np.int64)
    cx = (pk % 97).astype(np.float64)
    cy = ((pk * 31) % 89).astype(np.float64)
    hw = (1 + (size % 5)).astype(np.float64)
    hh = (1 + ((size * 3) % 7)).astype(np.float64)
    return cx - hw, cy - hh, cx + hw, cy + hh


def _part_rect_batch(batch: pa.Table) -> pa.Table:
    """part rows → their rects' bounds and ``footprint`` polygons."""
    minx, miny, maxx, maxy = _part_rect_bounds(batch)
    out = batch.append_column("minx", pa.array(minx))
    out = out.append_column("miny", pa.array(miny))
    out = out.append_column("maxx", pa.array(maxx))
    out = out.append_column("maxy", pa.array(maxy))
    return out.append_column("footprint", _rect_mp_array(minx, miny, maxx, maxy))


PART_RECT_SQL = """
    SELECT p_partkey, p_brand,
           CAST(p_partkey % 97 AS DOUBLE) - CAST(1 + (p_size % 5) AS DOUBLE) AS minx,
           CAST((p_partkey * 31) % 89 AS DOUBLE) - CAST(1 + ((p_size * 3) % 7) AS DOUBLE) AS miny,
           CAST(p_partkey % 97 AS DOUBLE) + CAST(1 + (p_size % 5) AS DOUBLE) AS maxx,
           CAST((p_partkey * 31) % 89 AS DOUBLE) + CAST(1 + ((p_size * 3) % 7) AS DOUBLE) AS maxy
    FROM part
"""


def _sql_gidx(expr: str, lo: float, span: float, n_side: int) -> str:
    """DuckDB mirror of ``stages/cells.py::_grid_index`` on one axis:
    offset, scale, clamp at 0, truncate, clamp at ``n_side - 1``."""
    return (
        f"least(CAST(floor(greatest((({expr}) - {lo!r}) / {span!r}, 0.0)"
        f" * {float(n_side)!r}) AS BIGINT), {n_side - 1})"
    )


def _sql_spread(v: str) -> str:
    """DuckDB Morton spread of a grid index of at most 4 bits
    (``stages/cells.py::_part1by1``)."""
    return f"(({v} & 1) | (({v} & 2) << 1) | (({v} & 4) << 2) | (({v} & 8) << 3))"


def _customer_point_batch(batch: pa.Table) -> pa.Table:
    ck = batch["c_custkey"].to_numpy()
    out = batch.append_column("px", pa.array((ck % 97).astype(np.float64)))
    return out.append_column("py", pa.array(((ck * 13) % 89).astype(np.float64)))


CUSTOMER_POINT_SQL = """
    SELECT c_custkey,
           CAST(c_custkey % 97 AS DOUBLE) AS px,
           CAST((c_custkey * 13) % 89 AS DOUBLE) AS py
    FROM customer
"""


# ------------------------------------------------------------------ spatial


def q_clip_area(sf_dir: str):
    """Martinez clip of part-rects against a fixed window, per-brand
    integer area sums.  The kernel runs inside map_batches; the oracle
    is rectangle-intersection arithmetic."""
    from ray.data.aggregate import Sum

    from ...stages.boolean_batch import boolean_areas

    def clip_batch(batch: pa.Table) -> pa.Table:
        window = _rect_mp_array(*(np.full(batch.num_rows, v) for v in CLIP_WINDOW))
        area, _ = boolean_areas(_rect_mp_array(*_part_rect_bounds(batch)), window, "intersection")
        return pa.table(
            {"p_brand": batch["p_brand"], "clip_area_i": pa.array(area.astype(np.int64))}
        )

    ds = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    ds = ds.map_batches(clip_batch, batch_format="pyarrow")
    return ds.groupby("p_brand").aggregate(Sum("clip_area_i", alias_name="clip_area"))


Q_CLIP_AREA_SQL = f"""
    WITH d AS ({PART_RECT_SQL})
    SELECT p_brand,
           CAST(SUM(
             greatest(0, least(maxx, 70.0) - greatest(minx, 10.0)) *
             greatest(0, least(maxy, 60.0) - greatest(miny, 10.0))
           ) AS BIGINT) AS clip_area
    FROM d GROUP BY p_brand
"""


def q_tile_assign(sf_dir: str):
    """Tile cover of each part rect (arithmetic tiling, closed-open)."""

    def assign(batch: pa.Table) -> pa.Table:
        minx, miny, maxx, maxy = _part_rect_bounds(batch)
        tx0 = np.floor(minx / TILE).astype(np.int64)
        ty0 = np.floor(miny / TILE).astype(np.int64)
        tx1 = np.floor(maxx / TILE).astype(np.int64)
        ty1 = np.floor(maxy / TILE).astype(np.int64)
        nx = tx1 - tx0 + 1
        ny = ty1 - ty0 + 1
        counts = nx * ny
        row_idx = np.repeat(np.arange(len(counts)), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        local = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)
        tx = np.repeat(tx0, counts) + local % np.repeat(nx, counts)
        ty = np.repeat(ty0, counts) + local // np.repeat(nx, counts)
        return pa.table(
            {
                "p_partkey": batch["p_partkey"].take(pa.array(row_idx)),
                "tx": pa.array(tx, pa.int64()),
                "ty": pa.array(ty, pa.int64()),
            }
        )

    return _read(sf_dir, "part", ["p_partkey", "p_size"]).map_batches(
        assign, batch_format="pyarrow"
    )


Q_TILE_ASSIGN_SQL = f"""
    WITH d AS ({PART_RECT_SQL}),
    b AS (
      SELECT p_partkey,
             CAST(floor(minx / {TILE}.0) AS BIGINT) AS tx0,
             CAST(floor(miny / {TILE}.0) AS BIGINT) AS ty0,
             CAST(floor(maxx / {TILE}.0) AS BIGINT) AS tx1,
             CAST(floor(maxy / {TILE}.0) AS BIGINT) AS ty1
      FROM d
    ),
    ex AS (SELECT p_partkey, unnest(range(tx0, tx1 + 1)) AS tx, ty0, ty1 FROM b)
    SELECT p_partkey, tx, unnest(range(ty0, ty1 + 1)) AS ty FROM ex
"""


def _customer_points(batch: pa.Table) -> pa.Table:
    """customer rows → the point side of a cell join: each point a
    degenerate bbox, id = c_custkey."""
    p = _customer_point_batch(batch)
    px, py = p["px"], p["py"]
    return side_table(PROBE, p["c_custkey"], px, py, px, py)


def _part_rects(batch: pa.Table, side: int = BUILD, geom: bool = False) -> pa.Table:
    """part rows → a rect side of a cell join, id = p_partkey; ``geom``
    adds the rect polygon (polygon joins only)."""
    bounds = _part_rect_bounds(batch)
    return side_table(
        side, batch["p_partkey"], *bounds, _rect_mp_array(*bounds) if geom else None
    )


_CUSTOMER_POINTS = ("customer", ["c_custkey"], _customer_points)
_PART_RECTS = ("part", ["p_partkey", "p_size"], _part_rects)


def _cell_join(sf_dir: str, probe, build, kernel):
    """The one two-sided PBSM cell join.  ``probe`` and ``build`` are
    (table, columns, batch → ``side_table``) triples; both sides are
    exploded to their ``CELL_JOIN_RES`` cells (read once, when the plan
    is built), ONE shuffle on ``cell`` co-locates them, and ``kernel``
    runs on each cell group.

    ``explode_to_cells`` is imported here, when the plan is built, so
    the map tasks carry the function bound at that moment: a wrapper
    installed before the plan is built (perfbench/trace.py's) reaches
    the workers."""
    from ...stages.cells import explode_to_cells

    res = CELL_JOIN_RES

    def side(table: str, columns, to_side):
        return _read(sf_dir, table, columns).map_batches(
            lambda b: explode_to_cells(to_side(b), res), batch_format="pyarrow"
        )

    return side(*probe).union(side(*build)).groupby("cell").map_groups(
        kernel, batch_format="pyarrow"
    )


def q_pip_join(sf_dir: str):
    """Cell-partitioned spatial join: customer points inside part rects.

    The engine path: both sides in the one cell-join layout (points →
    their home cell as degenerate bboxes, rects → covering cells),
    groupby(cell), exact containment within the group.  The one plan of
    the pip_join oracle: the ``pip_join_skew`` and ``pip_join_rtree``
    names run it too.  A hot cell's memory is bounded by
    ``cells.contain_chunks``, not by re-partitioning it."""
    # No PBSM replica dedup needed: a point lives in exactly ONE home
    # cell, so each (rect, point) pair is emitted exactly once — the
    # oracle cross-check pins this invariant.
    return _cell_join(sf_dir, _CUSTOMER_POINTS, _PART_RECTS, _pip_group)


def _pip_group(group: pa.Table) -> pa.Table:
    """groupby(cell) kernel of pip_join: every (rect, point) pair with
    the point inside the rect."""
    pts, rects = split_sides(group)
    ri, pi = overlap_pairs(pts, rects)
    return pa.table(
        {
            "p_partkey": rects["id"].take(pa.array(ri)),
            "c_custkey": pts["id"].take(pa.array(pi)),
        }
    )


Q_PIP_JOIN_SQL = f"""
    WITH r AS ({PART_RECT_SQL}), p AS ({CUSTOMER_POINT_SQL})
    SELECT r.p_partkey, p.c_custkey
    FROM r, p
    WHERE p.px >= r.minx AND p.px <= r.maxx AND p.py >= r.miny AND p.py <= r.maxy
"""


def q_nearest_facility(sf_dir: str):
    """Nearest-facility assignment (Voronoi labeling): every customer
    point is assigned to the closest of 25 facility sites, then
    per-facility demand is aggregated — the logistics/coverage
    counterpart of the spatial joins.  The facility table is tiny and
    BROADCAST (closure constants; never shuffled); each batch computes
    the full n×25 squared-distance matrix vectorized and argmins.
    Integer lattice coordinates make d² and the hash exact; ties
    break to the smallest facility id (argmin's first-hit order)."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    nat = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey"])
    fid = np.sort(nat["n_nationkey"].to_numpy().astype(np.int64))
    fx = (fid * 17) % 97
    fy = (fid * 41) % 89

    def assign(b: pa.Table) -> pa.Table:
        p = _customer_point_batch(b)
        px = p["px"].to_numpy().astype(np.int64)
        py = p["py"].to_numpy().astype(np.int64)
        d2 = (px[:, None] - fx[None, :]) ** 2 + (py[:, None] - fy[None, :]) ** 2
        best = np.argmin(d2, axis=1)
        t = pa.table(
            {
                "fid": pa.array(fid[best]),
                "d2": pa.array(d2[np.arange(len(px)), best]),
                "n": pa.array(np.ones(len(px), dtype=np.int64)),
            }
        )
        agg = pa.TableGroupBy(t, "fid").aggregate([("n", "sum"), ("d2", "sum")])
        return agg.rename_columns(["fid", "n_pts", "sum_d2"])

    ds = _read(sf_dir, "customer", ["c_custkey"])
    return (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("fid")
        .aggregate(Sum("n_pts", alias_name="n_pts"), Sum("sum_d2", alias_name="sum_d2"))
    )


Q_NEAREST_FACILITY_SQL = f"""
    WITH f AS (
      SELECT n_nationkey AS fid,
             CAST((n_nationkey * 17) % 97 AS BIGINT) AS fx,
             CAST((n_nationkey * 41) % 89 AS BIGINT) AS fy
      FROM nation
    ),
    p AS ({CUSTOMER_POINT_SQL}),
    d AS (
      SELECT p.c_custkey, f.fid,
             CAST((CAST(px AS BIGINT) - fx) * (CAST(px AS BIGINT) - fx)
                + (CAST(py AS BIGINT) - fy) * (CAST(py AS BIGINT) - fy)
               AS BIGINT) AS d2
      FROM p, f
    ),
    a AS (
      SELECT c_custkey, fid, d2,
             ROW_NUMBER() OVER (PARTITION BY c_custkey ORDER BY d2, fid) AS rn
      FROM d
    )
    SELECT fid, CAST(COUNT(*) AS BIGINT) AS n_pts,
           CAST(SUM(d2) AS BIGINT) AS sum_d2
    FROM a WHERE rn = 1 GROUP BY fid
"""


def q_spatial_knn(sf_dir: str):
    """k nearest customers for each query customer (c_custkey ≤ 20),
    via the cell-partitioned kNN operator (3×3 neighborhood at res 4 —
    cell edge 22.5° ≫ k-th neighbor distance at this density)."""
    import pyarrow.compute as pc

    from ...stages.knn import knn_pipeline

    def points(b: pa.Table) -> pa.Table:
        p = _customer_point_batch(b)
        return pa.table(
            {
                "c_custkey": p["c_custkey"],
                "cx": p["px"],
                "cy": p["py"],
                # query predicate pushed INTO the operator: replicas and
                # the per-query merge stay O(|queries|), not O(corpus)
                "is_query": pc.less_equal(p["c_custkey"], 20),
            }
        )

    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        points, batch_format="pyarrow"
    )
    return knn_pipeline(
        pts, k=KNN_K, res=KNN_RES, id_col="c_custkey", query_col="is_query"
    )


Q_SPATIAL_KNN_SQL = f"""
    WITH pts AS ({CUSTOMER_POINT_SQL}),
    q AS (SELECT * FROM pts WHERE c_custkey <= 20),
    d AS (
      SELECT q.c_custkey AS query_id, p.c_custkey AS neighbor_id,
             sqrt((q.px - p.px) * (q.px - p.px) + (q.py - p.py) * (q.py - p.py)) AS dist
      FROM q, pts p WHERE p.c_custkey <> q.c_custkey
    )
    SELECT query_id, neighbor_id, dist, CAST(rnk AS BIGINT) AS rank
    FROM (
      SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY dist, neighbor_id) AS rnk
      FROM d
    ) WHERE rnk <= {KNN_K}
"""


def q_martinez_fixtures(sf_dir: str):
    """The full reference fixture corpus through the Ray boolean stage.

    Emits (case_id, op_tag, n_polys, n_vertices, result_hash) per
    fixture×op, where result_hash fingerprints the ENGINE result's
    canonical compact-GeoJSON serialization.  The oracle inlines the
    same columns derived from the GOLDEN expected geometries
    (sources/fixture_pairs.py::golden_expected_table), so the driver's
    hash-exact comparison IS the bit-for-bit conformance gate over
    /root/reference/tests/fixtures/generic_test_cases — the flagship
    kernel verification, now driver-visible."""
    import ray.data as rd

    from ...sources.arrow_geom import arrow_to_mps
    from ...sources.fixture_pairs import fixture_pairs_table, mp_conformance_hash

    table = fixture_pairs_table()
    ds = rd.from_arrow(table)
    out = ds.map_batches(
        BooleanOpBatch(op_column="op"), batch_format="pyarrow", batch_size=16
    )

    def metrics(batch: pa.Table) -> pa.Table:
        mps = arrow_to_mps(batch["result"])
        return pa.table(
            {
                "case_id": batch["case_id"],
                "op_tag": batch["op_tag"],
                "n_polys": pa.array([len(m) for m in mps], pa.int64()),
                "n_vertices": pa.array(
                    [sum(len(r) for p in m for r in p) for m in mps], pa.int64()
                ),
                "result_hash": pa.array(
                    [mp_conformance_hash(m) for m in mps], pa.int64()
                ),
            }
        )

    return out.map_batches(metrics, batch_format="pyarrow")


def _build_martinez_fixtures_sql() -> str:
    """Golden-derived literals: the fixtures' EXPECTED geometries,
    canonically serialized and hashed (never engine output), which make
    the bit-for-bit conformance corpus an oracle-checked query."""
    from ...sources.fixture_pairs import golden_expected_table

    return _values_oracle_sql(golden_expected_table())


def _region_polys_table() -> pa.Table:
    """Deterministic irregular region set: mixed-resolution cells
    (coarse + fine) spread over the world — shared by the poly_clip
    queries and inlined (as exact double literals) into the DuckDB
    oracle."""
    from ...stages.cells import cell_encode, cell_polygon
    from ...sources.arrow_geom import mp_bounds, mps_to_arrow

    region_ids = [int(c) for c in cell_encode(
        np.linspace(-150, 150, 12), np.linspace(-70, 70, 12), 3
    )] + [int(c) for c in cell_encode(
        np.linspace(-120, 120, 12), np.linspace(60, -60, 12), 5
    )]
    region_ids = sorted(set(region_ids))
    geoms = [cell_polygon(c) for c in region_ids]
    bounds = [mp_bounds(g) for g in geoms]
    return pa.table(
        {
            "tile_id": pa.array(region_ids, pa.int64()),
            "geom": mps_to_arrow(geoms),
            "minx": pa.array([b[0] for b in bounds]),
            "miny": pa.array([b[1] for b in bounds]),
            "maxx": pa.array([b[2] for b in bounds]),
            "maxy": pa.array([b[3] for b in bounds]),
        }
    )


def q_poly_clip(sf_dir: str):
    """Part-derived axis rects × the irregular broadcast region set via
    the stateless broadcast clip stage (BroadcastPolyJoinClip,
    whole-batch native Martinez clip): per-region piece counts + integer
    clipped-area sums.  The oracle reproduces the region set as literal
    rect bounds (cell bounds are exact doubles) and uses closed-form
    rect∩rect arithmetic — value-exact."""
    from ray.data.aggregate import Count, Sum

    from ...stages.join_clip import BroadcastPolyJoinClip

    def subjects(batch: pa.Table) -> pa.Table:
        b = _part_rect_batch(batch)
        return pa.table(
            {
                "image_id": pc.cast(b["p_partkey"], pa.string()),
                "footprint": b["footprint"],
                "minx": b["minx"],
                "miny": b["miny"],
                "maxx": b["maxx"],
                "maxy": b["maxy"],
            }
        )

    fp = _read(sf_dir, "part", ["p_partkey", "p_size"]).map_batches(
        subjects, batch_format="pyarrow"
    )
    out = fp.map_batches(
        BroadcastPolyJoinClip(_region_polys_table()), batch_format="pyarrow"
    )

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "region_id": batch["tile_id"],
                "area_e6": pa.array(
                    np.round(batch["clip_area"].to_numpy() * 1e6).astype(np.int64)
                ),
            }
        )

    return (
        out.map_batches(to_int, batch_format="pyarrow")
        .groupby("region_id")
        .aggregate(Count(alias_name="n_pieces"), Sum("area_e6", alias_name="area_e6"))
    )


def _build_poly_clip_sql() -> str:
    t = _region_polys_table()
    rows = ",\n      ".join(
        f"({t['tile_id'][i].as_py()}, {t['minx'][i].as_py()!r}, {t['miny'][i].as_py()!r}, "
        f"{t['maxx'][i].as_py()!r}, {t['maxy'][i].as_py()!r})"
        for i in range(t.num_rows)
    )
    return f"""
    WITH d AS ({PART_RECT_SQL}),
    r(region_id, rx0, ry0, rx1, ry1) AS (VALUES
      {rows}
    )
    SELECT region_id,
           CAST(COUNT(*) AS BIGINT) AS n_pieces,
           CAST(SUM(CAST(round(
             (least(maxx, rx1) - greatest(minx, rx0)) *
             (least(maxy, ry1) - greatest(miny, ry0)) * 1000000
           ) AS BIGINT)) AS BIGINT) AS area_e6
    FROM d, r
    WHERE least(maxx, rx1) > greatest(minx, rx0)
      AND least(maxy, ry1) > greatest(miny, ry0)
    GROUP BY region_id
"""


Q_POLY_CLIP_SQL = _build_poly_clip_sql()


def q_wkb_clip(sf_dir: str):
    """WKB ingest escape hatch end-to-end (the SURVEY §1.4 promise):
    the same part-derived rect subjects arrive as a WIRE-FORMAT WKB
    binary column (little-endian ISO MultiPolygon — what GeoParquet
    carries), one decode stage (sources/arrow_geom.py::wkb_to_mp_arrow)
    rebuilds the nested-list geometry + vectorized bbox columns, and
    the stream flows through the SAME broadcast Martinez clip stage
    as poly_clip.  Oracle identical to poly_clip — driver equality
    through the wire format pins the codec both ways (the subjects are
    ENCODED with mp_arrow_to_wkb first, so a bug in either direction
    breaks the hash).  Reference geometry model: lib/src/boolean/
    mod.rs:33, fill_queue.rs:25-28."""
    from ray.data.aggregate import Count, Sum

    from ...sources.arrow_geom import (
        arrow_mp_bounds,
        mp_arrow_to_wkb,
        wkb_to_mp_arrow,
    )
    from ...stages.join_clip import BroadcastPolyJoinClip

    def to_wkb(batch: pa.Table) -> pa.Table:
        # the "reader": subjects serialized to the GeoParquet wire format
        b = _part_rect_batch(batch)
        return pa.table(
            {
                "image_id": pc.cast(b["p_partkey"], pa.string()),
                "wkb": mp_arrow_to_wkb(b["footprint"]),
            }
        )

    def decode_wkb(batch: pa.Table) -> pa.Table:
        mp = wkb_to_mp_arrow(batch["wkb"])
        bb = arrow_mp_bounds(mp)
        return pa.table(
            {
                "image_id": batch["image_id"],
                "footprint": mp,
                "minx": pa.array(bb["minx"]),
                "miny": pa.array(bb["miny"]),
                "maxx": pa.array(bb["maxx"]),
                "maxy": pa.array(bb["maxy"]),
            }
        )

    fp = (
        _read(sf_dir, "part", ["p_partkey", "p_size"])
        .map_batches(to_wkb, batch_format="pyarrow")
        .map_batches(decode_wkb, batch_format="pyarrow")
    )
    out = fp.map_batches(
        BroadcastPolyJoinClip(_region_polys_table()), batch_format="pyarrow"
    )

    def to_int(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "region_id": batch["tile_id"],
                "area_e6": pa.array(
                    np.round(batch["clip_area"].to_numpy() * 1e6).astype(np.int64)
                ),
            }
        )

    return (
        out.map_batches(to_int, batch_format="pyarrow")
        .groupby("region_id")
        .aggregate(Count(alias_name="n_pieces"), Sum("area_e6", alias_name="area_e6"))
    )


def q_poly_clip_quads(sf_dir: str):
    """Rotated image-footprint quads × the irregular region set through
    the stateless broadcast clip stage (BroadcastPolyJoinClip,
    whole-batch native Martinez clip) — per-region piece counts plus 16×16
    pixel-center coverage of the clipped pieces (the engine rasterizes
    the MARTINEZ OUTPUT polygons; RasterizePartial pre-aggregates
    before the one groupby shuffle).  Value-exact: the oracle inlines
    the deterministic quad parameters and region cell bounds as
    literals, decides positive-area overlap by the separating-axis
    test, and tests exact-dyadic pixel centers against each rotated
    rect directly (center ∈ quad∩region ⇔ center ∈ quad, since grid
    centers lie strictly inside their region) — the same
    discretization trick as Q_TILE_COVERAGE_SQL."""
    from ...pipelines.flagship import footprints_dataset
    from ...stages.join_clip import BroadcastPolyJoinClip
    from ...stages.tiles import RasterizePartial, merge_rasters

    fp = footprints_dataset(2000)
    out = fp.map_batches(
        BroadcastPolyJoinClip(_region_polys_table()), batch_format="pyarrow"
    )
    part = out.map_batches(RasterizePartial(px=16), batch_format="pyarrow")
    merged = hash_exchange(part, "tile_id", merge_rasters)

    def finalize(batch: pa.Table) -> pa.Table:
        # coverage_fraction is covered / 256, exact in float64
        covered = np.rint(batch["coverage_fraction"].to_numpy() * 256).astype(np.int64)
        return pa.table(
            {
                "region_id": batch["tile_id"],
                "n_pieces": batch["n_pieces"],
                "px_covered": pa.array(covered, pa.int64()),
            }
        )

    return merged.map_batches(finalize, batch_format="pyarrow")


def _build_poly_clip_quads_sql(n_images: int = 2000, px: int = 16) -> str:
    """SQL mirror of q_poly_clip_quads (see its docstring).  Quad
    literals come from footprint_params (generator math, not engine
    output); region bounds are the exact-dyadic cell bounds."""
    from ...stages.footprint import footprint_params

    t = _region_polys_table()
    rrows = ",\n      ".join(
        f"({t['tile_id'][i].as_py()}, {t['minx'][i].as_py()!r}::DOUBLE, "
        f"{t['miny'][i].as_py()!r}::DOUBLE, {t['maxx'][i].as_py()!r}::DOUBLE, "
        f"{t['maxy'][i].as_py()!r}::DOUBLE)"
        for i in range(t.num_rows)
    )
    cx, cy, ct, st, hw, hh = footprint_params(np.arange(n_images, dtype=np.int64))
    qrows = ",\n      ".join(
        f"({cx[i]!r}::DOUBLE, {cy[i]!r}::DOUBLE, {ct[i]!r}::DOUBLE, "
        f"{st[i]!r}::DOUBLE, {hw[i]!r}::DOUBLE, {hh[i]!r}::DOUBLE)"
        for i in range(n_images)
    )
    # pixel center: engine computes x0 + ((i + 0.5) * (x1 - x0)) / px —
    # mirror the op order (all quantities are exact dyadic doubles)
    cxp = f"(o.rx0 + px_.o * (o.rx1 - o.rx0) / {float(px)!r})"
    cyp = f"(o.ry0 + py_.o * (o.ry1 - o.ry0) / {float(px)!r})"
    return f"""
    WITH r(region_id, rx0, ry0, rx1, ry1) AS (VALUES
      {rrows}
    ),
    q(cx, cy, ct, st, hw, hh) AS (VALUES
      {qrows}
    ),
    qb AS (
      SELECT *, abs(ct) * hw + abs(st) * hh AS ex,
                abs(st) * hw + abs(ct) * hh AS ey
      FROM q
    ),
    ov AS (
      SELECT r.region_id, r.rx0, r.ry0, r.rx1, r.ry1,
             qb.cx, qb.cy, qb.ct, qb.st, qb.hw, qb.hh
      FROM qb, r
      WHERE cx - ex < rx1 AND cx + ex > rx0
        AND cy - ey < ry1 AND cy + ey > ry0
        AND least((rx0-cx)*ct + (ry0-cy)*st, (rx1-cx)*ct + (ry0-cy)*st,
                  (rx0-cx)*ct + (ry1-cy)*st, (rx1-cx)*ct + (ry1-cy)*st) < hw
        AND greatest((rx0-cx)*ct + (ry0-cy)*st, (rx1-cx)*ct + (ry0-cy)*st,
                     (rx0-cx)*ct + (ry1-cy)*st, (rx1-cx)*ct + (ry1-cy)*st) > -hw
        AND least(-(rx0-cx)*st + (ry0-cy)*ct, -(rx1-cx)*st + (ry0-cy)*ct,
                  -(rx0-cx)*st + (ry1-cy)*ct, -(rx1-cx)*st + (ry1-cy)*ct) < hh
        AND greatest(-(rx0-cx)*st + (ry0-cy)*ct, -(rx1-cx)*st + (ry0-cy)*ct,
                     -(rx0-cx)*st + (ry1-cy)*ct, -(rx1-cx)*st + (ry1-cy)*ct) > -hh
    ),
    pix AS (SELECT CAST(i AS DOUBLE) + 0.5 AS o, i
            FROM UNNEST(generate_series(0, {px - 1})) AS t(i)),
    hits AS (
      SELECT DISTINCT o.region_id, px_.i AS pi, py_.i AS pj
      FROM ov o, pix px_, pix py_
      WHERE abs(({cxp} - o.cx) * o.ct + ({cyp} - o.cy) * o.st) < o.hw
        AND abs(-({cxp} - o.cx) * o.st + ({cyp} - o.cy) * o.ct) < o.hh
    )
    SELECT p.region_id, p.n_pieces,
           COALESCE(h.px_covered, CAST(0 AS BIGINT)) AS px_covered
    FROM (SELECT region_id, CAST(COUNT(*) AS BIGINT) AS n_pieces
          FROM ov GROUP BY region_id) p
    LEFT JOIN (SELECT region_id, CAST(COUNT(*) AS BIGINT) AS px_covered
               FROM hits GROUP BY region_id) h
    USING (region_id)
"""


Q_POLY_CLIP_QUADS_SQL = _build_poly_clip_quads_sql()


def q_tile_coverage(sf_dir: str):
    """Flagship tiling pipeline summary (vector tiles + coverage):
    synth images → rotated quad footprints → bbox cover at res 4 →
    exact Martinez clip per tile → pixel-center rasterize (16×16) →
    per-tile coverage fraction.  Value-exact vs a SQL mirror that
    inlines the deterministic quad parameters as literals, reproduces
    the grid cover + Morton tile ids in integer arithmetic, decides
    positive-area quad∩tile overlap by the separating-axis test, and
    tests pixel centers (exact dyadic doubles) against each rotated
    rect directly — coverage counts are integers over 256, so the
    fraction is an exact dyadic double in both engines."""
    from ..flagship import tile_pipeline

    ds = tile_pipeline(n_images=1000, tile_res=4, raster_px=16)
    return ds.select_columns(["tile_id", "coverage_fraction"])


def _build_tile_coverage_sql(n_images: int = 1000, tile_res: int = 4, px: int = 16) -> str:
    """SQL mirror of q_tile_coverage (see its docstring).  The quad
    parameter literals come from footprint_params — the same
    deterministic generator math the engine runs, NOT engine output."""
    assert tile_res == 4, "_sql_spread is written for 4-bit indices"
    from ...stages.footprint import footprint_params

    cx, cy, ct, st, hw, hh = footprint_params(np.arange(n_images, dtype=np.int64))
    # ::DOUBLE on every literal — DuckDB otherwise types long decimal
    # literals in VALUES as DECIMAL(38,·) and overflows
    rows = ",\n      ".join(
        f"({cx[i]!r}::DOUBLE, {cy[i]!r}::DOUBLE, {ct[i]!r}::DOUBLE, "
        f"{st[i]!r}::DOUBLE, {hw[i]!r}::DOUBLE, {hh[i]!r}::DOUBLE)"
        for i in range(n_images)
    )
    n_side = 2**tile_res
    wx = 360.0 / n_side  # 22.5, exact dyadic
    wy = 180.0 / n_side  # 11.25, exact dyadic
    sx = wx / px  # 1.40625, exact dyadic
    sy = wy / px  # 0.703125, exact dyadic

    return f"""
    WITH q(cx, cy, ct, st, hw, hh) AS (VALUES
      {rows}
    ),
    qb AS (
      SELECT *, abs(ct) * hw + abs(st) * hh AS ex,
                abs(st) * hw + abs(ct) * hh AS ey
      FROM q
    ),
    g AS (
      SELECT *,
             {_sql_gidx("cx - ex", -180.0, 360.0, n_side)} AS ix0,
             {_sql_gidx("cx + ex", -180.0, 360.0, n_side)} AS ix1,
             {_sql_gidx("cy - ey", -90.0, 180.0, n_side)} AS iy0,
             {_sql_gidx("cy + ey", -90.0, 180.0, n_side)} AS iy1
      FROM qb
    ),
    pairs AS (
      SELECT g.*, tx.ix, ty.iy
      FROM g, UNNEST(generate_series(ix0, ix1)) AS tx(ix),
              UNNEST(generate_series(iy0, iy1)) AS ty(iy)
    ),
    tiles AS (
      SELECT *,
             (CAST({tile_res} AS BIGINT) << 58)
               | {_sql_spread("ix")} | ({_sql_spread("iy")} << 1) AS tile_id,
             -180.0 + CAST(ix AS DOUBLE) * {wx!r} AS tx0,
             -90.0 + CAST(iy AS DOUBLE) * {wy!r} AS ty0
      FROM pairs
    ),
    ov AS (
      SELECT * FROM (SELECT *, tx0 + {wx!r} AS tx1, ty0 + {wy!r} AS ty1 FROM tiles)
      WHERE cx - ex < tx1 AND cx + ex > tx0
        AND cy - ey < ty1 AND cy + ey > ty0
        AND least((tx0-cx)*ct + (ty0-cy)*st, (tx1-cx)*ct + (ty0-cy)*st,
                  (tx0-cx)*ct + (ty1-cy)*st, (tx1-cx)*ct + (ty1-cy)*st) < hw
        AND greatest((tx0-cx)*ct + (ty0-cy)*st, (tx1-cx)*ct + (ty0-cy)*st,
                     (tx0-cx)*ct + (ty1-cy)*st, (tx1-cx)*ct + (ty1-cy)*st) > -hw
        AND least(-(tx0-cx)*st + (ty0-cy)*ct, -(tx1-cx)*st + (ty0-cy)*ct,
                  -(tx0-cx)*st + (ty1-cy)*ct, -(tx1-cx)*st + (ty1-cy)*ct) < hh
        AND greatest(-(tx0-cx)*st + (ty0-cy)*ct, -(tx1-cx)*st + (ty0-cy)*ct,
                     -(tx0-cx)*st + (ty1-cy)*ct, -(tx1-cx)*st + (ty1-cy)*ct) > -hh
    ),
    pix AS (SELECT CAST(i AS DOUBLE) + 0.5 AS o, i FROM UNNEST(generate_series(0, {px - 1})) AS t(i)),
    hits AS (
      SELECT DISTINCT o.tile_id, px_.i AS pi, py_.i AS pj
      FROM ov o, pix px_, pix py_
      WHERE abs(((o.tx0 + px_.o * {sx!r}) - o.cx) * o.ct
              + ((o.ty0 + py_.o * {sy!r}) - o.cy) * o.st) < o.hw
        AND abs(-((o.tx0 + px_.o * {sx!r}) - o.cx) * o.st
              + ((o.ty0 + py_.o * {sy!r}) - o.cy) * o.ct) < o.hh
    )
    SELECT t.tile_id,
           COALESCE(h.covered, 0.0) / {float(px * px)!r} AS coverage_fraction
    FROM (SELECT DISTINCT tile_id FROM ov) t
    LEFT JOIN (
      SELECT tile_id, CAST(COUNT(*) AS DOUBLE) AS covered FROM hits GROUP BY tile_id
    ) h USING (tile_id)
"""


Q_TILE_COVERAGE_SQL = _build_tile_coverage_sql()


FPM_N = 1000


def q_footprint_metrics(sf_dir: str):
    """Per-feature geometry metrics: the exact shoelace area of every
    image's rotated quad footprint, computed by the engine's
    vectorized multipolygon-area kernel (arrow_mp_areas — reduceat
    layout with scalar-loop bit parity) straight off the Arrow
    geometry column.  Value-exact the hard way: the oracle inlines
    the quad parameters and replays the IDENTICAL float op sequence
    (corner derivation, per-edge cross terms, left-to-right ring sum,
    abs/2) in SQL — no rounding, the doubles must agree bit-for-bit."""
    from ...sources.arrow_geom import arrow_mp_areas
    from ...sources.images import read_synth_images
    from ...stages.footprint import derive_footprints, image_index

    ds = read_synth_images(FPM_N)
    ds = ds.map_batches(derive_footprints, batch_format="pyarrow")

    def metrics(b: pa.Table) -> pa.Table:
        idx = image_index(b).astype(np.int64)
        areas = arrow_mp_areas(b["footprint"])
        return pa.table(
            {
                "img_idx": pa.array(idx, pa.int64()),
                "area": pa.array(areas, pa.float64()),
            }
        )

    return ds.map_batches(metrics, batch_format="pyarrow")


def _build_footprint_metrics_sql(n_images: int = FPM_N) -> str:
    """SQL mirror of q_footprint_metrics: corners from the inlined
    quad params with the engine's exact float op order
    ((cx + dx·ct) − dy·st …), per-edge cross terms, left-to-right ring
    sum, abs/2.

    Literals are inlined as mantissa × 2^exponent (both exact in
    DOUBLE arithmetic): unlike the integer-output quad oracles, this
    one emits RAW doubles, and DuckDB's decimal→double parse is off
    by one ulp for ~10% of shortest-repr literals — enough to flip the
    hash even though every float op matches."""
    import math

    from ...stages.footprint import footprint_params

    def dlit(x: float) -> str:
        m, e = math.frexp(float(x))
        mi = int(m * (1 << 53))
        return f"(CAST({mi} AS DOUBLE) * pow(2.0, {e - 53}))"

    cx, cy, ct, st, hw, hh = footprint_params(np.arange(n_images, dtype=np.int64))
    rows = ",\n      ".join(
        f"(CAST({i} AS BIGINT), {dlit(cx[i])}, {dlit(cy[i])}, "
        f"{dlit(ct[i])}, {dlit(st[i])}, {dlit(hw[i])}, {dlit(hh[i])})"
        for i in range(n_images)
    )
    # corner k: dx, dy signs in ring order (CCW)
    signs = [(-1, -1), (1, -1), (1, 1), (-1, 1), (-1, -1)]
    xs, ys = [], []
    for sx_, sy_ in signs:
        dx = f"({'-' if sx_ < 0 else ''}hw)"
        dy = f"({'-' if sy_ < 0 else ''}hh)"
        xs.append(f"((cx + ({dx} * ct)) - ({dy} * st))")
        ys.append(f"((cy + ({dx} * st)) + ({dy} * ct))")
    cross = [
        f"(({xs[k]} * {ys[k + 1]}) - ({xs[k + 1]} * {ys[k]}))" for k in range(4)
    ]
    ring_sum = f"((({cross[0]} + {cross[1]}) + {cross[2]}) + {cross[3]})"
    return f"""
    WITH q(img_idx, cx, cy, ct, st, hw, hh) AS (VALUES
      {rows}
    )
    SELECT img_idx, abs({ring_sum}) / 2.0 AS area FROM q
"""


Q_FOOTPRINT_METRICS_SQL = _build_footprint_metrics_sql()


MOSAIC_N = 1500


def q_tile_mosaic(sf_dir: str):
    """Best-image-per-tile mosaic selection — the geospatial×image
    synthesis op: which of the overlapping scenes should render each
    map tile?  Pipeline: synth images → quad footprints → REAL decode
    + quality scoring with in-stage shed (rejected payloads never
    reach the exchange; the bbox columns ride through the decode
    stage) → bbox tile cover at res 4 → per-tile argmax of
    (bright_sum, img_idx) via the compaction combiner, so each block
    contributes ≤ one candidate row per tile to the single shuffle.
    Value-exact: the oracle inlines the generator-side quad params +
    quality stats as literals and mirrors the grid cover, Morton tile
    ids and the argmax (ROW_NUMBER) in SQL."""
    from ...sources.images import read_synth_images
    from ...stages.cells import explode_to_cells
    from ...stages.compact import latest_by_key
    from ...stages.footprint import derive_footprints, image_index
    from ...stages.image_ops import DecodeQuality

    ds = read_synth_images(MOSAIC_N)
    ds = ds.map_batches(derive_footprints, batch_format="pyarrow")
    ds = ds.map_batches(
        DecodeQuality(keep_cols=("minx", "miny", "maxx", "maxy")),
        batch_format="pyarrow",
        batch_size=256,
    )

    def assign(b: pa.Table) -> pa.Table:
        t = explode_to_cells(b, 4, cell_col="tile_id")
        idx = image_index(t).astype(np.int64)
        return pa.table(
            {
                "tile_id": t["tile_id"],
                "img_idx": pa.array(idx, pa.int64()),
                "bright_sum": t["bright_sum"],
            }
        )

    ds = ds.map_batches(assign, batch_format="pyarrow")
    return latest_by_key(ds, "tile_id", ("bright_sum", "img_idx"))


def _build_tile_mosaic_sql(n_images: int = MOSAIC_N, tile_res: int = 4) -> str:
    """SQL mirror of q_tile_mosaic: quad params + PASSING quality
    stats from the generator math (never engine output), the same
    integer grid-cover + Morton arithmetic as the tile_coverage
    oracle, then ROW_NUMBER argmax per tile."""
    assert tile_res == 4, "_sql_spread is written for 4-bit indices"
    from ...sources.images import expected_quality_stats
    from ...stages.footprint import footprint_params

    stats = expected_quality_stats(n_images)
    idxs = [int(s[4:]) for s in stats["image_id"].to_pylist()]
    bright = stats["bright_sum"].to_pylist()
    cx, cy, ct, st, hw, hh = footprint_params(np.arange(n_images, dtype=np.int64))
    rows = ",\n      ".join(
        f"(CAST({i} AS BIGINT), {cx[i]!r}::DOUBLE, {cy[i]!r}::DOUBLE, "
        f"{ct[i]!r}::DOUBLE, {st[i]!r}::DOUBLE, {hw[i]!r}::DOUBLE, "
        f"{hh[i]!r}::DOUBLE, CAST({b} AS BIGINT))"
        for i, b in zip(idxs, bright)
    )
    n_side = 2**tile_res

    return f"""
    WITH q(idx, cx, cy, ct, st, hw, hh, bright) AS (VALUES
      {rows}
    ),
    qb AS (
      SELECT *, abs(ct) * hw + abs(st) * hh AS ex,
                abs(st) * hw + abs(ct) * hh AS ey
      FROM q
    ),
    g AS (
      SELECT *,
             {_sql_gidx("cx - ex", -180.0, 360.0, n_side)} AS ix0,
             {_sql_gidx("cx + ex", -180.0, 360.0, n_side)} AS ix1,
             {_sql_gidx("cy - ey", -90.0, 180.0, n_side)} AS iy0,
             {_sql_gidx("cy + ey", -90.0, 180.0, n_side)} AS iy1
      FROM qb
    ),
    pairs AS (
      SELECT g.*, tx.ix, ty.iy
      FROM g, UNNEST(generate_series(ix0, ix1)) AS tx(ix),
              UNNEST(generate_series(iy0, iy1)) AS ty(iy)
    ),
    tiles AS (
      SELECT idx, bright,
             (CAST({tile_res} AS BIGINT) << 58)
               | {_sql_spread("ix")} | ({_sql_spread("iy")} << 1) AS tile_id
      FROM pairs
    )
    SELECT tile_id, idx AS img_idx, bright AS bright_sum
    FROM tiles
    QUALIFY ROW_NUMBER() OVER (
        PARTITION BY tile_id ORDER BY bright DESC, idx DESC) = 1
"""


COV_TILE_RES = 3
COV_PX = 16


def q_tile_coverage_rects(sf_dir: str):
    """Raster tile coverage over part-derived axis rects: exact tile
    clip (TileJoinClip) → partial rasters before the shuffle →
    groupby(tile) merge — the flagship's raster path with an
    SQL-checkable input.  Output is integer pixel counts; the oracle
    enumerates the 16×16 pixel-center grid per tile (centers never lie
    on rect edges — rect bounds are integers, centers never are)."""
    from ray.data.aggregate import Sum

    from ...stages.cells import cell_xy
    from ...stages.join_clip import TileJoinClip
    from ...stages.tiles import RasterizePartial, merge_rasters

    def subjects(batch: pa.Table) -> pa.Table:
        b = _part_rect_batch(batch)
        return pa.table(
            {
                "image_id": pc.cast(b["p_partkey"], pa.string()),
                "footprint": b["footprint"],
                "minx": b["minx"],
                "miny": b["miny"],
                "maxx": b["maxx"],
                "maxy": b["maxy"],
            }
        )

    ds = _read(sf_dir, "part", ["p_partkey", "p_size"]).map_batches(
        subjects, batch_format="pyarrow"
    )
    clipped = ds.map_batches(
        TileJoinClip(tile_res=COV_TILE_RES, mode="exact"), batch_format="pyarrow"
    )
    partials = clipped.map_batches(RasterizePartial(px=COV_PX), batch_format="pyarrow")
    merged = hash_exchange(partials, "tile_id", merge_rasters)

    def finish(batch: pa.Table) -> pa.Table:
        tiles = batch["tile_id"].to_numpy().view(np.uint64)
        tx, ty = cell_xy(tiles)
        covered = np.rint(batch["coverage_fraction"].to_numpy() * COV_PX**2).astype(np.int64)
        return pa.table(
            {
                "tx": pa.array(tx.astype(np.int64), pa.int64()),
                "ty": pa.array(ty.astype(np.int64), pa.int64()),
                "n_pieces": batch["n_pieces"],
                "covered_px": pa.array(covered, pa.int64()),
            }
        )

    return merged.map_batches(finish, batch_format="pyarrow")


Q_TILE_COVERAGE_RECTS_SQL = f"""
    WITH d AS ({PART_RECT_SQL}),
    b AS (
      SELECT minx, miny, maxx, maxy,
             CAST(greatest(0, least(7, floor((minx + 180) / 360 * 8))) AS BIGINT) AS tx0,
             CAST(greatest(0, least(7, floor((maxx + 180) / 360 * 8))) AS BIGINT) AS tx1,
             CAST(greatest(0, least(7, floor((miny + 90) / 180 * 8))) AS BIGINT) AS ty0,
             CAST(greatest(0, least(7, floor((maxy + 90) / 180 * 8))) AS BIGINT) AS ty1
      FROM d
    ),
    ex AS (SELECT minx, miny, maxx, maxy, unnest(range(tx0, tx1 + 1)) AS tx, ty0, ty1 FROM b),
    tiles AS (SELECT minx, miny, maxx, maxy, tx, unnest(range(ty0, ty1 + 1)) AS ty FROM ex),
    pieces AS (
      SELECT * FROM tiles
      WHERE least(maxx, -180 + (tx + 1) * 45.0) > greatest(minx, -180 + tx * 45.0)
        AND least(maxy, -90 + (ty + 1) * 22.5) > greatest(miny, -90 + ty * 22.5)
    ),
    np_ AS (SELECT tx, ty, CAST(COUNT(*) AS BIGINT) AS n_pieces FROM pieces GROUP BY tx, ty),
    cov AS (
      SELECT DISTINCT tx, ty, i.range AS i, j.range AS j
      FROM pieces, range({COV_PX}) i, range({COV_PX}) j
      WHERE (-180 + tx * 45.0 + (i.range + 0.5) * (45.0 / {COV_PX})) > minx
        AND (-180 + tx * 45.0 + (i.range + 0.5) * (45.0 / {COV_PX})) < maxx
        AND (-90 + ty * 22.5 + (j.range + 0.5) * (22.5 / {COV_PX})) > miny
        AND (-90 + ty * 22.5 + (j.range + 0.5) * (22.5 / {COV_PX})) < maxy
    ),
    cv AS (SELECT tx, ty, CAST(COUNT(*) AS BIGINT) AS covered_px FROM cov GROUP BY tx, ty)
    SELECT np_.tx, np_.ty, n_pieces, covered_px FROM np_ JOIN cv USING (tx, ty)
"""


# ------------------------------------------------------- big×big join

SUPPLIER_RECT_SQL = """
    SELECT s_suppkey,
           CAST((s_suppkey * 7) % 97 AS DOUBLE) - CAST(2 + (s_suppkey % 6) AS DOUBLE) AS minx,
           CAST((s_suppkey * 11) % 89 AS DOUBLE) - CAST(2 + ((s_suppkey * 3) % 5) AS DOUBLE) AS miny,
           CAST((s_suppkey * 7) % 97 AS DOUBLE) + CAST(2 + (s_suppkey % 6) AS DOUBLE) AS maxx,
           CAST((s_suppkey * 11) % 89 AS DOUBLE) + CAST(2 + ((s_suppkey * 3) % 5) AS DOUBLE) AS maxy
    FROM supplier
"""


def _supplier_rect_batch(batch: pa.Table) -> pa.Table:
    """supplier rows → deterministic integer-valued rects (+ geometry)."""
    sk = batch["s_suppkey"].to_numpy().astype(np.int64)
    cx = ((sk * 7) % 97).astype(np.float64)
    cy = ((sk * 11) % 89).astype(np.float64)
    hw = (2 + (sk % 6)).astype(np.float64)
    hh = (2 + ((sk * 3) % 5)).astype(np.float64)
    minx, miny, maxx, maxy = cx - hw, cy - hh, cx + hw, cy + hh
    out = batch.append_column("minx", pa.array(minx))
    out = out.append_column("miny", pa.array(miny))
    out = out.append_column("maxx", pa.array(maxx))
    out = out.append_column("maxy", pa.array(maxy))
    return out.append_column("geom", _rect_mp_array(minx, miny, maxx, maxy))


# poly_join_big's rows: the cell join's two ids under their keys' names
# and its clip area in whole units
POLY_JOIN_BIG_SCHEMA = pa.schema(
    [("p_partkey", pa.int64()), ("s_suppkey", pa.int64()), ("clip_area", pa.int64())]
)


def q_poly_join_big(sf_dir: str):
    """Big×big cell-partitioned spatial join + clip (PBSM): part rects
    × supplier rects where NEITHER side is broadcast — the 100-TB
    shape.  Both sides, in the one cell-join layout (int64 ids = the
    keys, one ``geom`` each), explode to their covering cells, ONE
    shuffle on the shared cell key co-locates them (``_cell_join``), and
    each cell group joins locally via bbox-overlap candidates + one
    ``boolean_batch`` call on their row indices
    (stages/join_clip.py::join_cells_within_group), which emits ids and
    clip areas, no clip geometry.  Every candidate
    is a rect ∩ rect pair, so the native kernel answers it with the
    closed-form overlap rect or the empty result before its sweep
    (native/martinez.c's known-answer gate, the lift of the bbox gate
    at lib/src/boolean/mod.rs:106-109), bit-identical to the sweep; the
    Python kernel (``GEO_NATIVE=0``) sweeps it.
    Geometries spanning several cells are replicated, so the same pair
    is FOUND in every shared cell: PBSM reference-cell duplicate
    avoidance (keep a pair only in the cell holding the min corner of
    the two bboxes' intersection) emits each pair from exactly one
    cell — no second shuffle to dedup replicas — pinning that
    replication changes partitioning, never the answer.  Rect subjects
    make the exact Martinez clip area closed-form for the oracle; only
    positive-area intersections are kept (edge-touching rects clip to
    an empty multipolygon)."""
    # imported while the plan is built: perfbench's tracer patches this name
    from ...stages.join_clip import join_cells_within_group_dedup

    joined = _cell_join(
        sf_dir,
        ("part", ["p_partkey", "p_size"], _part_polys),
        ("supplier", ["s_suppkey"], _supplier_polys),
        join_cells_within_group_dedup,
    )

    def finalize(batch: pa.Table) -> pa.Table:
        area = batch["clip_area"].to_numpy().astype(np.int64)
        out = pa.table(
            [batch["probe_id"], batch["build_id"], pa.array(area, pa.int64())],
            schema=POLY_JOIN_BIG_SCHEMA,
        )
        return out.filter(pc.greater_equal(out["clip_area"], 1))

    return joined.map_batches(finalize, batch_format="pyarrow")


def _part_polys(batch: pa.Table) -> pa.Table:
    return _part_rects(batch, PROBE, geom=True)


def _supplier_polys(batch: pa.Table) -> pa.Table:
    b = _supplier_rect_batch(batch)
    return side_table(
        BUILD, b["s_suppkey"], b["minx"], b["miny"], b["maxx"], b["maxy"], b["geom"]
    )


Q_POLY_JOIN_BIG_SQL = f"""
    WITH r AS ({PART_RECT_SQL}), s AS ({SUPPLIER_RECT_SQL})
    SELECT r.p_partkey, s.s_suppkey,
           CAST((least(r.maxx, s.maxx) - greatest(r.minx, s.minx)) *
                (least(r.maxy, s.maxy) - greatest(r.miny, s.miny)) AS BIGINT) AS clip_area
    FROM r, s
    WHERE least(r.maxx, s.maxx) > greatest(r.minx, s.minx)
      AND least(r.maxy, s.maxy) > greatest(r.miny, s.miny)
"""


def q_dissolve(sf_dir: str):
    """Dissolve (cascaded union per group): union all part rects of a
    brand into one multipolygon, report its exact area and perimeter.

    Union is an associative monoid, so it pre-aggregates like a sum:
    each batch tree-reduces its own rows per brand first
    (stages/dissolve.py::dissolve_partial — rounds of whole-batch
    native Martinez unions), then ONE groupby shuffle moves a single
    partial multipolygon per (batch, brand) and map_groups unions the
    partials.  Integer rect coordinates make every intermediate vertex
    exact, so area/perimeter are integer-exact and union-order-
    independent; the oracle enumerates unit cells (area = covered
    cells, perimeter = covered/uncovered boundary edges = 4N − 2·
    adjacent pairs).  Engine lift of the one-pair-per-call reference
    driver (/root/reference/lib/src/boolean/mod.rs:88) to union-of-many.
    """
    from ...stages.dissolve import dissolve_partial, dissolve_stats_group

    def partial(batch: pa.Table) -> pa.Table:
        batch = _part_rect_batch(batch)
        return dissolve_partial(batch, "p_brand", "footprint")

    def final(group: pa.Table) -> pa.Table:
        return dissolve_stats_group(group, "p_brand", "footprint")

    ds = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("p_brand")
        .map_groups(final, batch_format="pyarrow")
    )


Q_DISSOLVE_SQL = f"""
    WITH d AS ({PART_RECT_SQL}),
    wx AS (
      SELECT p_brand,
             CAST(miny AS BIGINT) AS miny, CAST(maxy AS BIGINT) AS maxy,
             unnest(generate_series(CAST(minx AS BIGINT), CAST(maxx AS BIGINT) - 1)) AS x
      FROM d
    ),
    cells AS (
      SELECT DISTINCT p_brand, x,
             unnest(generate_series(miny, maxy - 1)) AS y
      FROM wx
    ),
    n AS (SELECT p_brand, COUNT(*) AS area FROM cells GROUP BY p_brand),
    adj AS (
      SELECT c1.p_brand, COUNT(*) AS pairs
      FROM cells c1 JOIN cells c2
        ON c1.p_brand = c2.p_brand
       AND ((c2.x = c1.x + 1 AND c2.y = c1.y) OR
            (c2.x = c1.x AND c2.y = c1.y + 1))
      GROUP BY c1.p_brand
    )
    SELECT n.p_brand,
           CAST(n.area AS BIGINT) AS union_area,
           CAST(4 * n.area - 2 * COALESCE(adj.pairs, 0) AS BIGINT) AS union_perim
    FROM n LEFT JOIN adj ON n.p_brand = adj.p_brand
"""


CELL_ROLLUP_LEVELS = (2, 3, 4)


FOCAL_RES = 4


def q_focal_sum(sf_dir: str):
    """Focal / neighborhood statistics: each res-4 cell's customer
    count plus its 3×3 neighborhood total — the raster-smoothing
    (heatmap / kernel-density-lite) op.  Per-block partial counts per
    cell, then each (cell, n) partial FANS OUT to the 9 cells whose
    neighborhoods it contributes to (``cells.cell_neighbors``; the grid
    edge cuts the neighbourhood), so ONE groupby(cell) Sum yields both
    the self count and the focal total without a second join or
    shuffle."""
    from ray.data.aggregate import Sum

    from ...stages.cells import cell_encode, cell_neighbors

    def partial(b: pa.Table) -> pa.Table:
        p = _customer_point_batch(b)
        cells = cell_encode(p["px"].to_numpy(), p["py"].to_numpy(), FOCAL_RES)
        uniq, counts = np.unique(cells, return_counts=True)
        row, nbr = cell_neighbors(uniq)
        n = counts[row].astype(np.int64)
        return pa.table(
            {
                "cell": pa.array(nbr.view(np.int64), pa.int64()),
                "n_self": pa.array(np.where(nbr == uniq[row], n, 0)),
                "n_focal": pa.array(n),
            }
        )

    ds = _read(sf_dir, "customer", ["c_custkey"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cell")
        .aggregate(
            Sum("n_self", alias_name="n_self"),
            Sum("n_focal", alias_name="n_focal"),
        )
    )


def _build_focal_sum_sql() -> str:
    n_side = 2**FOCAL_RES

    return f"""
    WITH p AS ({CUSTOMER_POINT_SQL}),
    g AS (
      SELECT {_sql_gidx("px", -180.0, 360.0, n_side)} AS ix, {_sql_gidx("py", -90.0, 180.0, n_side)} AS iy
      FROM p
    ),
    h AS (SELECT ix, iy, CAST(COUNT(*) AS BIGINT) AS n FROM g GROUP BY ix, iy),
    d AS (SELECT unnest([-1, 0, 1]) AS o),
    f AS (
      SELECT h.ix + dx.o AS ix, h.iy + dy.o AS iy,
             CASE WHEN dx.o = 0 AND dy.o = 0 THEN n ELSE 0 END AS n_self,
             n AS n_focal
      FROM h, d dx, d dy
      WHERE h.ix + dx.o BETWEEN 0 AND {n_side - 1}
        AND h.iy + dy.o BETWEEN 0 AND {n_side - 1}
    )
    SELECT (CAST({FOCAL_RES} AS BIGINT) << 58)
             | {_sql_spread("ix")} | ({_sql_spread("iy")} << 1) AS cell,
           CAST(SUM(n_self) AS BIGINT) AS n_self,
           CAST(SUM(n_focal) AS BIGINT) AS n_focal
    FROM f GROUP BY 1
"""


Q_FOCAL_SUM_SQL = _build_focal_sum_sql()


def q_cell_rollup(sf_dir: str):
    """Multi-resolution spatial density rollup: customer-point counts
    per cell at res 2/3/4 in ONE pass — the tile-pyramid aggregation a
    map service precomputes.  The per-batch combiner emits every
    level's partial counts together (the spatial analogue of
    rollup_sales' multi-level partials), so all three pyramid levels
    share a single groupby(cell) exchange instead of one scan+shuffle
    per level; the exchange moves ≤ Σ distinct cells per block."""
    from ray.data.aggregate import Sum

    from ...stages.cells import cell_encode

    def partial(b: pa.Table) -> pa.Table:
        p = _customer_point_batch(b)
        px = p["px"].to_numpy()
        py = p["py"].to_numpy()
        cells = np.concatenate(
            [cell_encode(px, py, r).view(np.int64) for r in CELL_ROLLUP_LEVELS]
        )
        uniq, counts = np.unique(cells, return_counts=True)
        return pa.table(
            {
                "cell": pa.array(uniq, pa.int64()),
                "n": pa.array(counts.astype(np.int64)),
            }
        )

    ds = _read(sf_dir, "customer", ["c_custkey"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cell")
        .aggregate(Sum("n", alias_name="n"))
    )


def _build_cell_rollup_sql() -> str:
    """SQL mirror of q_cell_rollup: the engine's grid-index expression
    ((x-lo)/span, clamp, truncate) and 4-bit Morton spread per level,
    unioned, then COUNT per cell."""

    parts = []
    for r in CELL_ROLLUP_LEVELS:
        n_side = 2**r
        gx = _sql_gidx("px", -180.0, 360.0, n_side)
        gy = _sql_gidx("py", -90.0, 180.0, n_side)
        parts.append(
            f"SELECT (CAST({r} AS BIGINT) << 58) | {_sql_spread(gx)}"
            f" | ({_sql_spread(gy)} << 1) AS cell FROM pts"
        )
    union = "\n      UNION ALL\n      ".join(parts)
    return f"""
    WITH pts AS ({CUSTOMER_POINT_SQL}),
    c AS (
      {union}
    )
    SELECT cell, CAST(COUNT(*) AS BIGINT) AS n FROM c GROUP BY cell
"""


Q_CELL_ROLLUP_SQL = _build_cell_rollup_sql()


CELL_COMPACT_RES = 4  # compact occupied res-4 cells down to res 2


def q_cell_compact(sf_dir: str):
    """Hierarchical cell-set compaction (the H3 ``compact`` API): the
    DISTINCT cells occupied by customer points at res 4, with every
    complete sibling QUARTET replaced by its parent, applied level by
    level down to res 2 — the canonical way to store a coverage set in
    O(boundary) instead of O(area) cells.

    Scale shape: per-block distinct partials shrink the exchange to
    unique cells per block; the groupby(cell) count is over a
    RESOLUTION-BOUNDED key space (≤ 4^res cells — bounded by the grid,
    never by rows, so the generic aggregate is safe); the compaction
    kernel then runs on one block (the distinct-cell set is ≤ 4^res
    rows by construction — document-bounded, not data-bounded).
    Parent arithmetic is ``cells.cell_parent`` (``morton >> 2``),
    mirrored bit-for-bit in SQL."""
    from ...stages.cells import cell_encode, cell_parent, cell_res

    R = CELL_COMPACT_RES

    def partial(b: pa.Table) -> pa.Table:
        p = _customer_point_batch(b)
        cells = cell_encode(p["px"].to_numpy(), p["py"].to_numpy(), R)
        return pa.table({"cell": pa.array(np.unique(cells.view(np.int64)))})

    def compact(batch: pa.Table) -> pa.Table:
        cells = np.unique(batch["cell"].to_numpy().view(np.uint64))
        out = []
        cur = cells
        for _ in range(R - 2):  # res R down to res 2
            parents = cell_parent(cur)
            uniq_p, counts = np.unique(parents, return_counts=True)
            full = uniq_p[counts == 4]
            out.append(cur[~np.isin(parents, full)])
            cur = full
        out.append(cur)
        allc = np.concatenate(out)
        return pa.table(
            {
                "cell": pa.array(allc.view(np.int64), pa.int64()),
                "res": pa.array(cell_res(allc).astype(np.int64), pa.int64()),
            }
        )

    ds = _read(sf_dir, "customer", ["c_custkey"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("cell")
        .count()
        .select_columns(["cell"])
        .repartition(1)
        .map_batches(compact, batch_format="pyarrow", batch_size=None)
    )


def q_cell_uncompact(sf_dir: str):
    """Inverse of cell_compact (the H3 ``uncompact`` API): expand the
    compacted mixed-resolution cover back to uniform res-4 cells — a
    vectorized children fan-out (``cells.cell_children``).  Driver
    equality against the DISTINCT occupied res-4 cell set proves the
    compact→uncompact round trip is LOSSLESS, in the engine and in the
    oracle's independent arithmetic."""
    from ...stages.cells import cell_children

    def expand(batch: pa.Table) -> pa.Table:
        _, cells = cell_children(batch["cell"].to_numpy().view(np.uint64), CELL_COMPACT_RES)
        return pa.table({"cell": pa.array(cells.view(np.int64), pa.int64())})

    return q_cell_compact(sf_dir).map_batches(expand, batch_format="pyarrow")


def _build_cell_uncompact_sql() -> str:
    R = CELL_COMPACT_RES
    n_side = 2**R
    gx = _sql_gidx("px", -180.0, 360.0, n_side)
    gy = _sql_gidx("py", -90.0, 180.0, n_side)
    return f"""
    WITH pts AS ({CUSTOMER_POINT_SQL})
    SELECT DISTINCT (CAST({R} AS BIGINT) << 58)
           | {_sql_spread(gx)} | ({_sql_spread(gy)} << 1) AS cell
    FROM pts
"""


def _build_cell_compact_sql() -> str:
    R = CELL_COMPACT_RES
    n_side = 2**R
    gx = _sql_gidx("px", -180.0, 360.0, n_side)
    gy = _sql_gidx("py", -90.0, 180.0, n_side)
    return f"""
    WITH pts AS ({CUSTOMER_POINT_SQL}),
    c4 AS (SELECT DISTINCT {_sql_spread(gx)} | ({_sql_spread(gy)} << 1) AS m FROM pts),
    f3 AS (SELECT m >> 2 AS m FROM c4 GROUP BY m >> 2 HAVING COUNT(*) = 4),
    k4 AS (SELECT m FROM c4 WHERE m >> 2 NOT IN (SELECT m FROM f3)),
    f2 AS (SELECT m >> 2 AS m FROM f3 GROUP BY m >> 2 HAVING COUNT(*) = 4),
    k3 AS (SELECT m FROM f3 WHERE m >> 2 NOT IN (SELECT m FROM f2))
    SELECT (CAST({R} AS BIGINT) << 58) | m AS cell, CAST({R} AS BIGINT) AS res FROM k4
    UNION ALL
    SELECT (CAST({R - 1} AS BIGINT) << 58) | m, CAST({R - 1} AS BIGINT) FROM k3
    UNION ALL
    SELECT (CAST({R - 2} AS BIGINT) << 58) | m, CAST({R - 2} AS BIGINT) FROM f2
"""


def q_spatial_antijoin(sf_dir: str):
    """Spatial ANTI-join: customer points contained in NO part rect.
    Same one-shuffle PBSM layout as pip_join (points to their single
    home cell, rects replicated to covering cells), but the per-cell
    kernel emits the points with zero containing rects — each point is
    decided entirely within its home cell, so no second pass and no
    dedup.  The rect side is a keyed subset (p_partkey % 29 == 0) so
    the anti-set is non-trivial at every tested scale — full coverage
    would make the query vacuous."""
    rects = ("part", ["p_partkey", "p_size"], _antijoin_rects)
    return _cell_join(sf_dir, _CUSTOMER_POINTS, rects, _antijoin_group)


def _antijoin_rects(batch: pa.Table) -> pa.Table:
    return _part_rects(batch.filter(pa.array(batch["p_partkey"].to_numpy() % 29 == 0)))


def _antijoin_group(group: pa.Table) -> pa.Table:
    """groupby(cell) kernel of spatial_antijoin: the points of the cell
    that no rect contains."""
    pts, rects = split_sides(group)
    matched = np.zeros(pts.num_rows, dtype=bool)
    for _, inside in contain_chunks(pts, rects):
        matched |= inside.any(axis=0)
    return pa.table({"c_custkey": pts["id"].filter(pa.array(~matched))})


Q_SPATIAL_ANTIJOIN_SQL = f"""
    WITH r AS (
      SELECT * FROM ({PART_RECT_SQL}) WHERE p_partkey % 29 = 0
    ), p AS ({CUSTOMER_POINT_SQL})
    SELECT p.c_custkey FROM p
    WHERE NOT EXISTS (
      SELECT 1 FROM r
      WHERE p.px >= r.minx AND p.px <= r.maxx
        AND p.py >= r.miny AND p.py <= r.maxy)
"""


def q_dist_join(sf_dir: str):
    """Distance-band spatial self-join: customer point pairs within
    eps=5 (PBSM home-point rule, stages/dist_join.py — one shuffle,
    ≤9× replication, exactly-once without a dedup pass).  Coordinates
    are integer lattice points so d² is integer-exact."""
    from ...stages.dist_join import dist_join_pipeline

    # customer is read as c_custkey only, so this is (c_custkey, px, py)
    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        _customer_point_batch, batch_format="pyarrow"
    )
    return dist_join_pipeline(
        pts, eps=5.0, res=5, id_col="c_custkey", x_col="px", y_col="py"
    )


Q_DIST_JOIN_SQL = f"""
    WITH pts AS ({CUSTOMER_POINT_SQL})
    SELECT a.c_custkey AS id_a, b.c_custkey AS id_b,
           CAST((a.px - b.px) * (a.px - b.px)
              + (a.py - b.py) * (a.py - b.py) AS BIGINT) AS d2
    FROM pts a JOIN pts b
      ON a.c_custkey < b.c_custkey
     AND (a.px - b.px) * (a.px - b.px)
       + (a.py - b.py) * (a.py - b.py) <= 25.0
"""


def q_zonal_stats(sf_dir: str):
    """Zonal statistics: per-rect (zone) count and sum of a customer
    point metric — the spatial-aggregate pattern (join + aggregate in
    one pass).  The per-cell group kernel pre-aggregates matches per
    zone BEFORE the final zone exchange, so the second shuffle moves one
    partial row per (cell, zone), never the raw pairs; a point
    belongs to one home cell, so partials are disjoint and sum
    exactly.  Metric = c_custkey % 1000 (integer-exact)."""
    from ...stages.pivot import bucketed_wide_sum

    partials = _cell_join(sf_dir, _CUSTOMER_POINTS, _PART_RECTS, _zonal_group)
    return bucketed_wide_sum(partials, "p_partkey", ["n_points", "sum_metric"])


def _zonal_group(group: pa.Table) -> pa.Table:
    """groupby(cell) kernel of zonal_stats: per rect of the cell, the
    count and metric sum of the cell's points inside it (rects with no
    point dropped)."""
    pts, rects = split_sides(group)
    metric = pts["id"].to_numpy() % 1000
    counts = np.zeros(rects.num_rows, dtype=np.int64)
    sums = np.zeros(rects.num_rows, dtype=np.int64)
    for lo, inside in contain_chunks(pts, rects):
        counts[lo : lo + len(inside)] = inside.sum(axis=1)
        sums[lo : lo + len(inside)] = inside @ metric
    keep = counts > 0
    return pa.table(
        {
            "p_partkey": rects["id"].filter(pa.array(keep)),
            "n_points": pa.array(counts[keep]),
            "sum_metric": pa.array(sums[keep]),
        }
    )


Q_ZONAL_STATS_SQL = f"""
    WITH r AS ({PART_RECT_SQL}),
    p AS (
      SELECT c_custkey,
             CAST(c_custkey % 97 AS DOUBLE) AS px,
             CAST((c_custkey * 13) % 89 AS DOUBLE) AS py,
             c_custkey % 1000 AS metric
      FROM customer
    )
    SELECT r.p_partkey,
           CAST(COUNT(*) AS BIGINT) AS n_points,
           CAST(SUM(p.metric) AS BIGINT) AS sum_metric
    FROM r JOIN p
      ON p.px >= r.minx AND p.px <= r.maxx
     AND p.py >= r.miny AND p.py <= r.maxy
    GROUP BY r.p_partkey
"""


def q_buffer_dissolve(sf_dir: str):
    """Buffer-then-dissolve: inflate every part rect by an integer,
    size-dependent radius (a rectilinear Minkowski sum with a square —
    the GIS buffer op, exact for axis-aligned inputs), then cascaded-
    union per brand.  Same tree-reduce combiner scale shape as
    `dissolve`; the buffer itself is a pure vectorized column map."""
    from ...stages.dissolve import dissolve_partial, dissolve_stats_group

    def partial(batch: pa.Table) -> pa.Table:
        batch = _part_rect_batch(batch)
        r = (batch["p_partkey"].to_numpy() % 3 + 1).astype(np.float64)
        minx = batch["minx"].to_numpy() - r
        miny = batch["miny"].to_numpy() - r
        maxx = batch["maxx"].to_numpy() + r
        maxy = batch["maxy"].to_numpy() + r
        buffered = pa.table(
            {
                "p_brand": batch["p_brand"],
                "footprint": _rect_mp_array(minx, miny, maxx, maxy),
            }
        )
        return dissolve_partial(buffered, "p_brand", "footprint")

    def final(group: pa.Table) -> pa.Table:
        return dissolve_stats_group(group, "p_brand", "footprint")

    ds = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_size"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("p_brand")
        .map_groups(final, batch_format="pyarrow")
    )


Q_BUFFER_DISSOLVE_SQL = f"""
    WITH d0 AS ({PART_RECT_SQL}),
    d AS (
      SELECT p_brand,
             minx - CAST(p_partkey % 3 + 1 AS DOUBLE) AS minx,
             miny - CAST(p_partkey % 3 + 1 AS DOUBLE) AS miny,
             maxx + CAST(p_partkey % 3 + 1 AS DOUBLE) AS maxx,
             maxy + CAST(p_partkey % 3 + 1 AS DOUBLE) AS maxy
      FROM d0
    ),
    wx AS (
      SELECT p_brand,
             CAST(miny AS BIGINT) AS miny, CAST(maxy AS BIGINT) AS maxy,
             unnest(generate_series(CAST(minx AS BIGINT), CAST(maxx AS BIGINT) - 1)) AS x
      FROM d
    ),
    cells AS (
      SELECT DISTINCT p_brand, x,
             unnest(generate_series(miny, maxy - 1)) AS y
      FROM wx
    ),
    n AS (SELECT p_brand, COUNT(*) AS area FROM cells GROUP BY p_brand),
    adj AS (
      SELECT c1.p_brand, COUNT(*) AS pairs
      FROM cells c1 JOIN cells c2
        ON c1.p_brand = c2.p_brand
       AND ((c2.x = c1.x + 1 AND c2.y = c1.y) OR
            (c2.x = c1.x AND c2.y = c1.y + 1))
      GROUP BY c1.p_brand
    )
    SELECT n.p_brand,
           CAST(n.area AS BIGINT) AS union_area,
           CAST(4 * n.area - 2 * COALESCE(adj.pairs, 0) AS BIGINT) AS union_perim
    FROM n LEFT JOIN adj ON n.p_brand = adj.p_brand
"""


SIMP_N = 1500
SIMP_MIN_AREA2 = 4


def q_simplify_poly(sf_dir: str):
    """Polygon simplification for the tile-serving path (Visvalingam–
    Whyatt on integer lattices, functions/simplify.py): each skyline
    feature's chain loses its smallest-triangle vertices until every
    remaining triangle has doubled area ≥ 4.  All-integer arithmetic
    → the expected-values oracle pins the kernel per feature; one
    vectorized area pass per removal round, features independent so
    the stage is an embarrassingly parallel task UDF."""
    import ray.data as rd

    from ...functions.simplify import simplify_stats

    def stats(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy()
        rows = [simplify_stats(int(i), SIMP_MIN_AREA2) for i in ids]
        nb, na, ab, aa = zip(*rows) if rows else ((), (), (), ())
        return pa.table(
            {
                "shape_id": pa.array(ids, pa.int64()),
                "n_before": pa.array(list(nb), pa.int64()),
                "n_after": pa.array(list(na), pa.int64()),
                "area2_before": pa.array(list(ab), pa.int64()),
                "area2_after": pa.array(list(aa), pa.int64()),
            }
        )

    return rd.range(SIMP_N).map_batches(
        stats, batch_format="pyarrow"
    )


def _build_simplify_poly_sql() -> str:
    from ...functions.simplify import simplify_stats

    rows = []
    for i in range(SIMP_N):
        nb, na, ab, aa = simplify_stats(i, SIMP_MIN_AREA2)
        rows.append(
            f"(CAST({i} AS BIGINT), CAST({nb} AS BIGINT), CAST({na} AS BIGINT),"
            f" CAST({ab} AS BIGINT), CAST({aa} AS BIGINT))"
        )
    return (
        "\n    SELECT * FROM (VALUES\n      "
        + ",\n      ".join(rows)
        + "\n    ) AS expected(shape_id, n_before, n_after, area2_before, area2_after)\n"
    )


HULL_N = 4000
HULL_GROUPS = 37


def _hull_points(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (group, x, y) triples for the hull corpus."""
    from ...stages.footprint import _splitmix64

    i = idx.astype(np.uint64)
    g = (i % np.uint64(HULL_GROUPS)).astype(np.int64)
    x = (_splitmix64(i * np.uint64(3)) % np.uint64(1000)).astype(np.int64)
    y = (_splitmix64(i * np.uint64(3) + np.uint64(1)) % np.uint64(1000)).astype(
        np.int64
    )
    return g, x, y


def q_convex_hull(sf_dir: str):
    """Per-group convex hull (dissolve-to-footprint primitive): the
    associative hull combiner — hull(A∪B) = hull(hull(A)∪hull(B)) —
    lets each block shrink its groups to O(hull) points BEFORE the
    exchange, then one per-group merge reruns the same exact-integer
    monotone-chain kernel (functions/hull.py) over the partial
    unions.  Group count is bounded (regions/zones), so the final
    groupby is small; the partial-hull shed is what survives 100 TB."""

    import ray.data as rd

    from ...functions.hull import convex_hull, hull_area2

    def gen_partial(batch: pa.Table) -> pa.Table:
        g, x, y = _hull_points(batch["id"].to_numpy())
        order = np.argsort(g, kind="stable")
        g, x, y = g[order], x[order], y[order]
        starts = np.concatenate(([0], np.flatnonzero(g[1:] != g[:-1]) + 1))
        counts = np.diff(np.concatenate((starts, [len(g)])))
        out_g, out_x, out_y, out_n = [], [], [], []
        for s, c in zip(starts, counts):
            hx, hy = convex_hull(x[s : s + c], y[s : s + c])
            out_g.append(np.full(len(hx), g[s], dtype=np.int64))
            out_x.append(hx)
            out_y.append(hy)
            cnt = np.zeros(len(hx), dtype=np.int64)
            cnt[0] = c  # block's point count rides on ONE partial row
            out_n.append(cnt)
        return pa.table(
            {
                "grp": pa.array(np.concatenate(out_g)),
                "hx": pa.array(np.concatenate(out_x)),
                "hy": pa.array(np.concatenate(out_y)),
                "n_pts": pa.array(np.concatenate(out_n)),
            }
        )

    def merge(group: pa.Table) -> pa.Table:
        hx, hy = convex_hull(group["hx"].to_numpy(), group["hy"].to_numpy())
        return pa.table(
            {
                "grp": pa.array([int(group["grp"][0].as_py())], pa.int64()),
                "n_points": pa.array([int(group["n_pts"].to_numpy().sum())], pa.int64()),
                "hull_n": pa.array([len(hx)], pa.int64()),
                "hull_area2": pa.array([hull_area2(hx, hy)], pa.int64()),
            }
        )

    ds = rd.range(HULL_N)
    return (
        ds.map_batches(gen_partial, batch_format="pyarrow")
        .groupby("grp")
        .map_groups(merge, batch_format="pyarrow")
    )


def _build_convex_hull_sql() -> str:
    """Expected-values oracle from the shared exact kernel over the
    deterministic corpus (n_points double-counts partial-hull sharing
    is avoided: each input point contributes once per group)."""
    from ...functions.hull import convex_hull, hull_area2

    g, x, y = _hull_points(np.arange(HULL_N, dtype=np.int64))
    rows = []
    for grp in range(HULL_GROUPS):
        m = g == grp
        hx, hy = convex_hull(x[m], y[m])
        rows.append(
            f"(CAST({grp} AS BIGINT), CAST({int(m.sum())} AS BIGINT),"
            f" CAST({len(hx)} AS BIGINT), CAST({hull_area2(hx, hy)} AS BIGINT))"
        )
    return (
        "\n    SELECT * FROM (VALUES\n      "
        + ",\n      ".join(rows)
        + "\n    ) AS expected(grp, n_points, hull_n, hull_area2)\n"
    )


def _zorder_sql_expr(xcol: str, ycol: str, bits: int = 16) -> str:
    terms = []
    for b in range(bits):
        terms.append(f"((({xcol} >> {b}) & 1) << {2 * b})")
        terms.append(f"((({ycol} >> {b}) & 1) << {2 * b + 1})")
    return " | ".join(terms)


def q_zorder_layout(sf_dir: str):
    """Z-order (Morton) data layout + zone maps — the clustering pass
    a lakehouse runs so multi-column predicates skip files: each row's
    16-bit (partkey, suppkey) halves interleave into a 32-bit z-value
    (vectorized shift/or, the cells.py trick on key space instead of
    geometry), rows land in z-range partitions (z >> 14), and the query
    emits each partition's zone map (count + min/max of BOTH keys).
    The per-batch combiner pre-aggregates, so the exchange moves
    ≤ 256 rows per block; narrow min/max ranges per partition are
    exactly what makes the layout prunable."""
    from ray.data.aggregate import Max, Min, Sum

    def partial(b: pa.Table) -> pa.Table:
        x = (b["l_partkey"].to_numpy() & 0xFFFF).astype(np.uint64)
        y = (b["l_suppkey"].to_numpy() & 0xFFFF).astype(np.uint64)
        z = np.zeros(len(x), dtype=np.uint64)
        for bit in range(16):
            z |= ((x >> np.uint64(bit)) & np.uint64(1)) << np.uint64(2 * bit)
            z |= ((y >> np.uint64(bit)) & np.uint64(1)) << np.uint64(2 * bit + 1)
        t = pa.table(
            {
                "zpart": pa.array((z >> np.uint64(14)).astype(np.int64)),
                "n": pa.array(np.ones(len(x), dtype=np.int64)),
                "min_part": b["l_partkey"],
                "max_part": b["l_partkey"],
                "min_supp": b["l_suppkey"],
                "max_supp": b["l_suppkey"],
            }
        )
        agg = pa.TableGroupBy(t, "zpart").aggregate(
            [
                ("n", "sum"),
                ("min_part", "min"),
                ("max_part", "max"),
                ("min_supp", "min"),
                ("max_supp", "max"),
            ]
        )
        return agg.rename_columns(
            ["zpart", "n", "min_part", "max_part", "min_supp", "max_supp"]
        )

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("zpart")
        .aggregate(
            Sum("n", alias_name="n"),
            Min("min_part", alias_name="min_part"),
            Max("max_part", alias_name="max_part"),
            Min("min_supp", alias_name="min_supp"),
            Max("max_supp", alias_name="max_supp"),
        )
    )


Q_ZORDER_LAYOUT_SQL = f"""
    WITH z AS (
      SELECT l_partkey, l_suppkey,
             ({_zorder_sql_expr("(l_partkey & 65535)", "(l_suppkey & 65535)")}) >> 14 AS zpart
      FROM lineitem
    )
    SELECT CAST(zpart AS BIGINT) AS zpart,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(MIN(l_partkey) AS BIGINT) AS min_part,
           CAST(MAX(l_partkey) AS BIGINT) AS max_part,
           CAST(MIN(l_suppkey) AS BIGINT) AS min_supp,
           CAST(MAX(l_suppkey) AS BIGINT) AS max_supp
    FROM z GROUP BY zpart
"""


VALID_N = 1200


def _validate_ring(i: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shape corpus with PLANTED invalid geometries:
    every 5th index emits a bowtie (self-crossing quad, shifted by
    hash); otherwise the simple skyline ring."""
    from ...functions.simplify import skyline_chain
    from ...stages.footprint import _splitmix64

    if int(_splitmix64(np.uint64(i * 613)) % np.uint64(5)) == 0:
        dx = int(_splitmix64(np.uint64(i * 613 + 1)) % np.uint64(50))
        dy = int(_splitmix64(np.uint64(i * 613 + 2)) % np.uint64(50))
        xs = np.array([0, 4, 4, 0], dtype=np.int64) + dx
        ys = np.array([0, 4, 0, 4], dtype=np.int64) + dy
        return xs, ys
    xs, ys = skyline_chain(i)
    # clean class must be SIMPLE: lift the staircase off the base edge
    # (heights ≥ 1) and drop zero-length edges from equal-height runs
    ys = ys.copy()
    ys[1:-1] += 1
    keep = np.concatenate(
        ([True], (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1]))
    )
    return xs[keep], ys[keep]


def q_geom_validate(sf_dir: str):
    """Geometry validity audit (the ST_IsValid ingest gate every
    spatial pipeline runs before the expensive ops): per feature,
    count non-adjacent edge pairs that touch or cross — 0 ⇔ simple
    ring.  Exact integer orientation predicates (functions/
    simplify.py::ring_self_intersections), features independent →
    embarrassingly parallel task UDF; the corpus plants bowties so
    both verdicts occur."""
    import ray.data as rd

    from ...functions.simplify import ring_area2, ring_self_intersections

    def validate(batch: pa.Table) -> pa.Table:
        ids = batch["id"].to_numpy()
        rows = []
        for i in map(int, ids):
            xs, ys = _validate_ring(i)
            bad = ring_self_intersections(xs, ys)
            rows.append((i, bad, int(bad == 0), abs(ring_area2(xs, ys))))
        sid, nb, ok, a2 = zip(*rows) if rows else ((), (), (), ())
        return pa.table(
            {
                "shape_id": pa.array(list(sid), pa.int64()),
                "n_self_intersections": pa.array(list(nb), pa.int64()),
                "is_valid": pa.array(list(ok), pa.int64()),
                "area2": pa.array(list(a2), pa.int64()),
            }
        )

    return rd.range(VALID_N).map_batches(
        validate, batch_format="pyarrow"
    )


def _build_geom_validate_sql() -> str:
    from ...functions.simplify import ring_area2, ring_self_intersections

    rows = []
    for i in range(VALID_N):
        xs, ys = _validate_ring(i)
        bad = ring_self_intersections(xs, ys)
        rows.append(
            f"(CAST({i} AS BIGINT), CAST({bad} AS BIGINT),"
            f" CAST({int(bad == 0)} AS BIGINT), CAST({abs(ring_area2(xs, ys))} AS BIGINT))"
        )
    return (
        "\n    SELECT * FROM (VALUES\n      "
        + ",\n      ".join(rows)
        + "\n    ) AS expected(shape_id, n_self_intersections, is_valid, area2)\n"
    )


# -------------------------------------------------------- areal interpolation

AREAL_SCALE = 1_000_000


def q_areal_interp(sf_dir: str):
    """Areal interpolation (the classic GIS re-aggregation: census
    tracts → service areas): a value attached to SOURCE polygons (part
    rects carrying retail-price cents) is redistributed onto TARGET
    polygons (supplier rects) proportionally to the EXACT Martinez
    intersection area — contribution = v · area(src ∩ tgt) / area(src),
    kept integer-exact by per-pair floor division at ×10⁶ scale
    (mirrored op-for-op in the SQL).

    Scale shape end-to-end: the pair stream IS poly_join_big's (the
    same rows, ``clip_area`` renamed ``inter_area``: both sides exploded
    to cells, ONE shuffle, reference-cell duplicate avoidance,
    whole-batch exact clip); source attributes rejoin by key through ONE bucketed
    hash join (pair streams never carry payloads through the spatial
    shuffle); and the per-target rollup is block partials + the shared
    key-hash bucketed reduceat merge — suppliers are rows-cardinality
    at scale, never a generic per-key aggregate.  Nothing lands on the
    driver."""
    from ...stages.join import shuffle_hash_join
    from ...stages.pivot import bucketed_wide_sum

    pairs = q_poly_join_big(sf_dir).rename_columns({"clip_area": "inter_area"})
    pairs_schema = POLY_JOIN_BIG_SCHEMA.set(
        2, POLY_JOIN_BIG_SCHEMA.field("clip_area").with_name("inter_area")
    )
    attrs_schema = pa.schema(
        [("p_partkey", pa.int64()), ("v_cents", pa.int64()), ("src_area", pa.int64())]
    )

    # source attribute table: value (retail-price cents) + exact rect area
    def src_attrs(batch: pa.Table) -> pa.Table:
        size = batch["p_size"].to_numpy().astype(np.int64)
        hw = 1 + (size % 5)
        hh = 1 + ((size * 3) % 7)
        return pa.table(
            [
                batch["p_partkey"].cast(pa.int64()),
                pa.array(_cents(batch["p_retailprice"].to_numpy()), pa.int64()),
                pa.array(4 * hw * hh, pa.int64()),
            ],
            schema=attrs_schema,
        )

    attrs = _read(
        sf_dir, "part", ["p_partkey", "p_size", "p_retailprice"]
    ).map_batches(src_attrs, batch_format="pyarrow")

    # the declared schemas: asking the pair stream for its schema would
    # run the spatial join once more
    joined = shuffle_hash_join(
        pairs,
        attrs,
        "p_partkey",
        ["s_suppkey", "inter_area"],
        ["v_cents", "src_area"],
        left_schema=pairs_schema,
        right_schema=attrs_schema,
    )

    def contrib(b: pa.Table) -> pa.Table:
        v = b["v_cents"].to_numpy()
        ia = b["inter_area"].to_numpy()
        sa = b["src_area"].to_numpy()
        c = (v * ia * AREAL_SCALE) // sa
        t = pa.table(
            {
                "s_suppkey": b["s_suppkey"],
                "one": pa.array(np.ones(b.num_rows, np.int64), pa.int64()),
                "contrib": pa.array(c.astype(np.int64), pa.int64()),
            }
        )
        agg = pa.TableGroupBy(t, "s_suppkey").aggregate(
            [("one", "sum"), ("contrib", "sum")]
        )
        return pa.table(
            {
                "s_suppkey": agg["s_suppkey"],
                "n_src": agg["one_sum"].cast(pa.int64()),
                "interp_c": agg["contrib_sum"].cast(pa.int64()),
            }
        )

    return bucketed_wide_sum(
        joined.map_batches(contrib, batch_format="pyarrow"),
        "s_suppkey",
        ["n_src", "interp_c"],
    )


Q_AREAL_INTERP_SQL = f"""
    WITH r AS (
      SELECT pr.*, CAST(floor(p.p_retailprice * 100 + 0.5) AS BIGINT) AS v_cents
      FROM ({PART_RECT_SQL}) pr JOIN part p USING (p_partkey)
    ),
    s AS ({SUPPLIER_RECT_SQL}),
    pairs AS (
      SELECT r.p_partkey, s.s_suppkey, r.v_cents,
             CAST((least(r.maxx, s.maxx) - greatest(r.minx, s.minx)) *
                  (least(r.maxy, s.maxy) - greatest(r.miny, s.miny)) AS BIGINT) AS ia,
             CAST((r.maxx - r.minx) * (r.maxy - r.miny) AS BIGINT) AS sa
      FROM r, s
      WHERE least(r.maxx, s.maxx) > greatest(r.minx, s.minx)
        AND least(r.maxy, s.maxy) > greatest(r.miny, s.miny)
    )
    SELECT s_suppkey, CAST(COUNT(*) AS BIGINT) AS n_src,
           CAST(SUM((v_cents * ia * {AREAL_SCALE}) // sa) AS BIGINT) AS interp_c
    FROM pairs GROUP BY s_suppkey
"""


QUERIES = {
    "clip_area": Query(q_clip_area, Q_CLIP_AREA_SQL),
    "tile_assign": Query(q_tile_assign, Q_TILE_ASSIGN_SQL),
    "pip_join": Query(
        q_pip_join, Q_PIP_JOIN_SQL, aliases=("pip_join_skew", "pip_join_rtree")
    ),
    "poly_join_big": Query(q_poly_join_big, Q_POLY_JOIN_BIG_SQL),
    "areal_interp": Query(q_areal_interp, Q_AREAL_INTERP_SQL),
    "dissolve": Query(q_dissolve, Q_DISSOLVE_SQL),
    "spatial_knn": Query(q_spatial_knn, Q_SPATIAL_KNN_SQL),
    "nearest_facility": Query(q_nearest_facility, Q_NEAREST_FACILITY_SQL),
    "martinez_fixtures": Query(q_martinez_fixtures, _build_martinez_fixtures_sql),
    "tile_coverage": Query(q_tile_coverage, Q_TILE_COVERAGE_SQL),
    "tile_coverage_rects": Query(q_tile_coverage_rects, Q_TILE_COVERAGE_RECTS_SQL),
    "tile_mosaic": Query(q_tile_mosaic, _build_tile_mosaic_sql),
    "footprint_metrics": Query(q_footprint_metrics, Q_FOOTPRINT_METRICS_SQL),
    "poly_clip": Query(q_poly_clip, Q_POLY_CLIP_SQL),
    "wkb_clip": Query(q_wkb_clip, Q_POLY_CLIP_SQL),
    "poly_clip_quads": Query(q_poly_clip_quads, Q_POLY_CLIP_QUADS_SQL),
    "cell_rollup": Query(q_cell_rollup, Q_CELL_ROLLUP_SQL),
    "cell_compact": Query(q_cell_compact, _build_cell_compact_sql),
    "cell_uncompact": Query(q_cell_uncompact, _build_cell_uncompact_sql),
    "focal_sum": Query(q_focal_sum, Q_FOCAL_SUM_SQL),
    "spatial_antijoin": Query(q_spatial_antijoin, Q_SPATIAL_ANTIJOIN_SQL),
    "dist_join": Query(q_dist_join, Q_DIST_JOIN_SQL),
    "zonal_stats": Query(q_zonal_stats, Q_ZONAL_STATS_SQL),
    "buffer_dissolve": Query(q_buffer_dissolve, Q_BUFFER_DISSOLVE_SQL),
    "simplify_poly": Query(q_simplify_poly, _build_simplify_poly_sql),
    "convex_hull": Query(q_convex_hull, _build_convex_hull_sql),
    "zorder_layout": Query(q_zorder_layout, Q_ZORDER_LAYOUT_SQL),
    "geom_validate": Query(q_geom_validate, _build_geom_validate_sql),
}
