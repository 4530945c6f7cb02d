"""Spatial join + clip strategies: tile grid, broadcast poly, within-cell;
tiles raster/vector; lineage resume.  Local (no Ray) where possible."""

import numpy as np
import pyarrow as pa

from rust_geo_booleanop_ray.sources.arrow_geom import (
    arrow_to_mps,
    mp_bounds,
    mps_to_arrow,
    shoelace_area,
)
from rust_geo_booleanop_ray.sources.images import synth_image_batch
from rust_geo_booleanop_ray.stages.cells import (
    BUILD,
    PROBE,
    cell_bounds,
    cell_encode,
    cell_polygon,
    side_table,
)
from rust_geo_booleanop_ray.stages.footprint import derive_footprints
from rust_geo_booleanop_ray.stages.join_clip import (
    BroadcastPolyJoinClip,
    TileJoinClip,
    join_cells_within_group,
)
from rust_geo_booleanop_ray.stages.tiles import RasterizePartial, merge_rasters, raster_rects


def _footprints(n=80):
    return derive_footprints(synth_image_batch(np.arange(n)))


def test_tile_join_exact_area_conservation():
    """Clipped pieces of one footprint sum to the footprint area
    (tiles partition the plane)."""
    f = _footprints(60)
    out = TileJoinClip(tile_res=4, mode="exact")(f)
    assert out.num_rows >= f.num_rows  # at least one tile per footprint
    areas = {}
    for i in range(out.num_rows):
        img = out["image_id"][i].as_py()
        areas[img] = areas.get(img, 0.0) + out["clip_area"][i].as_py()
    mps = arrow_to_mps(f["footprint"])
    for i in range(f.num_rows):
        img = f["image_id"][i].as_py()
        expected = abs(shoelace_area(mps[i]))
        assert abs(areas[img] - expected) < 1e-9 * max(1.0, expected), img


def test_tile_join_assign_superset_of_exact():
    f = _footprints(40)
    assign = TileJoinClip(tile_res=4, mode="assign")(f)
    exact = TileJoinClip(tile_res=4, mode="exact")(f)
    a = set(zip(assign["image_id"].to_pylist(), assign["tile_id"].to_pylist()))
    e = set(zip(exact["image_id"].to_pylist(), exact["tile_id"].to_pylist()))
    assert e <= a


def test_clip_stays_inside_tile():
    f = _footprints(30)
    out = TileJoinClip(tile_res=4, mode="exact")(f)
    clips = arrow_to_mps(out["clip"])
    for i in range(out.num_rows):
        x0, y0, x1, y1 = cell_bounds(int(out["tile_id"][i].as_py()))
        bx0, by0, bx1, by1 = mp_bounds(clips[i])
        assert bx0 >= x0 - 1e-9 and bx1 <= x1 + 1e-9
        assert by0 >= y0 - 1e-9 and by1 <= y1 + 1e-9


def _poly_table(tile_ids):
    geoms = [cell_polygon(t) for t in tile_ids]
    bounds = [mp_bounds(g) for g in geoms]
    return pa.table(
        {
            "tile_id": pa.array(tile_ids, pa.int64()),
            "geom": mps_to_arrow(geoms),
            "minx": pa.array([b[0] for b in bounds]),
            "miny": pa.array([b[1] for b in bounds]),
            "maxx": pa.array([b[2] for b in bounds]),
            "maxy": pa.array([b[3] for b in bounds]),
        }
    )


def test_broadcast_join_matches_tile_join():
    """Broadcast join against the full res-4 tile set must equal
    TileJoinClip exact output."""
    f = _footprints(40)
    exact = TileJoinClip(tile_res=4, mode="exact")(f)
    tile_ids = sorted(set(exact["tile_id"].to_pylist()))
    stage = BroadcastPolyJoinClip(_poly_table(tile_ids))
    out = stage(f)
    got = set(zip(out["image_id"].to_pylist(), out["tile_id"].to_pylist()))
    exp = set(zip(exact["image_id"].to_pylist(), exact["tile_id"].to_pylist()))
    assert got == exp
    # areas match row-for-row
    ga = {(r["image_id"], r["tile_id"]): r["clip_area"] for r in out.to_pylist()}
    ea = {(r["image_id"], r["tile_id"]): r["clip_area"] for r in exact.to_pylist()}
    for k in ga:
        assert abs(ga[k] - ea[k]) < 1e-12


def _side(side, ids, t, geom_col):
    """One cell-join side from a table with a bbox and a geometry."""
    return side_table(side, ids, t["minx"], t["miny"], t["maxx"], t["maxy"], t[geom_col])


def _footprint_probe(f):
    """Footprints as the probe side: id = row index into ``f``."""
    return _side(PROBE, np.arange(f.num_rows), f, "footprint")


def _as_image_tile(out, f):
    """Cell-join output → (image_id, tile_id) pairs, probe ids mapped
    back to ``f``'s image ids."""
    image_ids = f["image_id"].to_pylist()
    return {
        (image_ids[p], b)
        for p, b in zip(out["probe_id"].to_pylist(), out["build_id"].to_pylist())
    }


def test_within_cell_group_join():
    f = _footprints(40)
    exact = TileJoinClip(tile_res=4, mode="exact")(f)
    tile_ids = sorted(set(exact["tile_id"].to_pylist()))
    build = _poly_table(tile_ids)
    # one mega-group (single cell) exercises the group-join path
    group = pa.concat_tables(
        [_footprint_probe(f), _side(BUILD, build["tile_id"], build, "geom")]
    )
    out = join_cells_within_group(group)
    got = _as_image_tile(out, f)
    exp = set(zip(exact["image_id"].to_pylist(), exact["tile_id"].to_pylist()))
    assert got == exp


def test_within_cell_group_join_empty_keeps_types():
    """A group with one side missing, or without candidate pairs, gives
    the column types of a non-empty group."""
    f = _footprints(40)
    polys = _region_polys()
    build = _side(BUILD, polys["tile_id"], polys, "geom")
    full = join_cells_within_group(pa.concat_tables([_footprint_probe(f), build]))
    assert full.num_rows > 0
    # the same rects with their bboxes moved far east: no candidates
    far = side_table(
        BUILD, polys["tile_id"], polys["minx"].to_numpy() + 1000.0, polys["miny"],
        polys["maxx"].to_numpy() + 1000.0, polys["maxy"], polys["geom"],
    )
    for group in (
        _footprint_probe(f),
        build,
        pa.concat_tables([_footprint_probe(f), far]),
    ):
        out = join_cells_within_group(group)
        assert out.num_rows == 0
        assert out.schema == full.schema


def test_rasterize_and_vectorize():
    # one tile fully covered by one clip = the tile rect itself
    tile = int(cell_encode(np.array([10.0]), np.array([10.0]), 4)[0])
    tile_poly = cell_polygon(tile)
    g = pa.table(
        {
            "tile_id": pa.array([tile], pa.int64()),
            "clip": mps_to_arrow([tile_poly]),
        }
    )
    r = merge_rasters(RasterizePartial(px=16)(g))
    assert r["coverage_fraction"][0].as_py() == 1.0
    rects = arrow_to_mps(raster_rects([tile], [16], r["raster"]))[0]
    assert len(rects) == 1
    x0, y0, x1, y1 = cell_bounds(tile)
    assert abs(shoelace_area(rects) - (x1 - x0) * (y1 - y0)) < 1e-9


def test_lineage_resume(tmp_path):
    from rust_geo_booleanop_ray.state.lineage import (
        PartitionCommitWriter,
        completed_partitions,
    )

    out = str(tmp_path / "out")
    w = PartitionCommitWriter(out, config_hash="cfg1")
    g1 = pa.table({"part": pa.array([3, 3], pa.int64()), "v": pa.array([1, 2])})
    m1 = w(g1)
    assert m1["skipped"][0].as_py() is False
    assert completed_partitions(out, "cfg1") == {3}
    # re-run skips
    m2 = w(g1)
    assert m2["skipped"][0].as_py() is True
    # different config rewrites
    w2 = PartitionCommitWriter(out, config_hash="cfg2")
    m3 = w2(g1)
    assert m3["skipped"][0].as_py() is False
    assert completed_partitions(out, "cfg2") == {3}
    assert completed_partitions(out, "cfg1") == set()


def test_merge_rasters_saturates_instead_of_wrapping():
    """Pixel counts past the uint16 max must saturate, not wrap to 0
    (a wrap would undercount coverage_fraction)."""
    from rust_geo_booleanop_ray.stages.tiles import merge_rasters

    tile_id = int(cell_encode(np.array([0.0]), np.array([0.0]), 3)[0])
    px = 4
    # two partials of 40000 per pixel: the uint16 sum would wrap to
    # 80000 % 65536 = 14464 (nonzero) — craft a pair that wraps to 0:
    # 32768 + 32768 = 65536 ≡ 0 (mod 2^16)
    half = np.full(px * px, 32768, dtype=np.uint16).tobytes()
    group = pa.table(
        {
            "tile_id": pa.array([tile_id, tile_id], pa.int64()),
            "px": pa.array([px, px], pa.int32()),
            "raster": pa.array([half, half], pa.binary()),
            "n_pieces": pa.array([32768, 32768], pa.int64()),
        }
    )
    out = merge_rasters(group)
    assert out["coverage_fraction"][0].as_py() == 1.0
    merged = np.frombuffer(out["raster"][0].as_py(), dtype=np.uint16)
    assert (merged == 65535).all()  # saturated, not wrapped


def _region_polys(res=3):
    ids = [int(c) for c in cell_encode(np.linspace(-150, 150, 8), np.linspace(-60, 60, 8), res)]
    ids = sorted(set(ids))
    from rust_geo_booleanop_ray.stages.cells import cell_polygon

    geoms = [cell_polygon(c) for c in ids]
    bounds = [mp_bounds(g) for g in geoms]
    return pa.table(
        {
            "tile_id": pa.array(ids, pa.int64()),
            "geom": mps_to_arrow(geoms),
            "minx": pa.array([b[0] for b in bounds]),
            "miny": pa.array([b[1] for b in bounds]),
            "maxx": pa.array([b[2] for b in bounds]),
            "maxy": pa.array([b[3] for b in bounds]),
        }
    )


def _rows_key(t, a="image_id", b="tile_id"):
    return sorted(
        (
            t[a][i].as_py(),
            t[b][i].as_py(),
            round(t["clip_area"][i].as_py(), 12),
        )
        for i in range(t.num_rows)
    )


def _with_nan_bbox(f):
    """``f`` plus a copy of its first row named ``"nan-bbox"`` whose
    ``minx`` is NaN (its geometry unchanged)."""
    extra = f.slice(0, 1)
    extra = extra.set_column(
        extra.schema.get_field_index("image_id"), "image_id", pa.array(["nan-bbox"])
    )
    extra = extra.set_column(extra.schema.get_field_index("minx"), "minx", pa.array([np.nan]))
    return pa.concat_tables([f, extra])


def test_broadcast_poly_native_matches_python_fallback(monkeypatch):
    """The whole-batch native clip path and the per-pair Python loop
    must produce identical join rows (pairs + areas).  A footprint whose
    bbox has a NaN bound gets no candidates, in the broadcast join as
    in the cell join, although its geometry meets regions."""
    f = _with_nan_bbox(_footprints(120))
    polys = _region_polys()
    native_out = BroadcastPolyJoinClip(polys)(f)

    monkeypatch.setenv("GEO_NATIVE", "0")
    py_out = BroadcastPolyJoinClip(polys)(f)
    monkeypatch.delenv("GEO_NATIVE")
    assert native_out.num_rows > 0
    assert _rows_key(native_out) == _rows_key(py_out)
    image_ids = native_out["image_id"].to_pylist()
    assert f["image_id"][0].as_py() in image_ids and "nan-bbox" not in image_ids

    nan_row = f.num_rows - 1
    group = pa.concat_tables([_side(BUILD, polys["tile_id"], polys, "geom"), _footprint_probe(f)])
    cell_out = join_cells_within_group(group)
    probe_ids = cell_out["probe_id"].to_pylist()
    assert 0 in probe_ids and nan_row not in probe_ids
    # clip geometries themselves agree
    assert sorted(map(str, arrow_to_mps(native_out["clip"]))) == sorted(
        map(str, arrow_to_mps(py_out["clip"]))
    )


def test_tile_join_native_matches_python_fallback(monkeypatch):
    """TileJoinClip gives the same table on the native kernel and on
    the reference kernel (GEO_NATIVE=0): pairs, clip geometries, areas."""
    f = _footprints(120)
    native_out = TileJoinClip(tile_res=4, mode="exact")(f)

    monkeypatch.setenv("GEO_NATIVE", "0")
    py_out = TileJoinClip(tile_res=4, mode="exact")(f)
    monkeypatch.delenv("GEO_NATIVE")
    assert native_out.num_rows > f.num_rows
    assert native_out.equals(py_out)


def test_join_cells_within_group_native_matches_python(monkeypatch):
    f = _footprints(60)
    polys = _region_polys()
    group = pa.concat_tables(
        [_side(BUILD, polys["tile_id"], polys, "geom"), _footprint_probe(f)]
    )
    native_out = join_cells_within_group(group)
    monkeypatch.setenv("GEO_NATIVE", "0")
    py_out = join_cells_within_group(group)
    monkeypatch.delenv("GEO_NATIVE")
    assert native_out.num_rows > 0
    assert _rows_key(native_out, "probe_id", "build_id") == _rows_key(
        py_out, "probe_id", "build_id"
    )


def test_pbsm_dedup_matches_emit_all_plus_dedup():
    """PBSM reference-cell duplicate avoidance: joining per cell with
    pbsm_dedup=True yields each (image, tile) pair EXACTLY once, and
    the pair set + areas equal emit-all-then-dedup across cells."""
    from rust_geo_booleanop_ray.stages.cells import explode_to_cells
    from rust_geo_booleanop_ray.stages.join_clip import (
        join_cells_within_group_dedup,
    )

    f = _footprints(120)  # includes a giant (idx 0) spanning many cells
    probe = _footprint_probe(f)
    # build side: offset copies of the same quads so bboxes straddle
    # cell boundaries differently from the probe side
    g = _footprints(90)
    build = _side(BUILD, np.arange(g.num_rows), g, "footprint")
    res = 4
    both = pa.concat_tables([explode_to_cells(probe, res), explode_to_cells(build, res)])
    cells = both["cell"].to_numpy()

    dedup_pairs = {}
    all_pairs = {}
    for c in np.unique(cells):
        grp = both.filter(pa.array(cells == c))
        out_d = join_cells_within_group_dedup(grp)
        for i in range(out_d.num_rows):
            key = (out_d["probe_id"][i].as_py(), out_d["build_id"][i].as_py())
            assert key not in dedup_pairs, f"pair {key} emitted twice"
            dedup_pairs[key] = out_d["clip_area"][i].as_py()
        out_a = join_cells_within_group(grp)
        for i in range(out_a.num_rows):
            key = (out_a["probe_id"][i].as_py(), out_a["build_id"][i].as_py())
            all_pairs[key] = out_a["clip_area"][i].as_py()

    assert set(dedup_pairs) == set(all_pairs)
    assert dedup_pairs and len(all_pairs) < sum(
        1 for _ in dedup_pairs
    ) or len(dedup_pairs) == len(all_pairs)
    for k, v in dedup_pairs.items():
        assert v == all_pairs[k], k


def test_cell_join_emits_ids_and_area():
    """The cell join emits (probe_id, build_id, clip_area) and no clip
    geometry, for a group with pairs and for empty groups alike."""
    from rust_geo_booleanop_ray.stages.join_clip import (
        CELL_JOIN_SCHEMA,
        join_cells_within_group_dedup,
    )

    f = _footprints(40)
    polys = _region_polys()
    probe, build = _footprint_probe(f), _side(BUILD, polys["tile_id"], polys, "geom")
    group = pa.concat_tables([probe, build])
    cell = pa.array(np.full(group.num_rows, cell_encode(np.array([0.0]), np.array([0.0]), 0)[0]))
    assert CELL_JOIN_SCHEMA.names == ["probe_id", "build_id", "clip_area"]
    outs = [
        join_cells_within_group(group),
        join_cells_within_group_dedup(group.append_column("cell", cell.view(pa.int64()))),
        join_cells_within_group(probe),
        join_cells_within_group(build),
        join_cells_within_group(group.slice(0, 0)),
    ]
    assert outs[0].num_rows > 0 and outs[0].equals(outs[1])
    for out in outs:
        assert out.schema == CELL_JOIN_SCHEMA


def _clip_materialized(ids, subjects, clippings, with_clip=True):
    """The join table from operand columns copied pair by pair (what the
    indexed operands replace)."""
    from rust_geo_booleanop_ray.sources.arrow_geom import arrow_mp_areas
    from rust_geo_booleanop_ray.stages.boolean_batch import boolean_batch

    res = boolean_batch(subjects, clippings, "intersection")
    keep = pa.array([len(r) > 0 for r in res.to_pylist()])
    res = res.filter(keep)
    cols = {name: col.filter(keep) for name, col in ids.items()}
    if with_clip:
        cols["clip"] = res
    cols["clip_area"] = pa.array(np.abs(arrow_mp_areas(res)))
    return pa.table(cols)


def test_indexed_joins_match_materialized_operands():
    """The three joins pass their pairs to the kernel as row indices;
    their tables equal the ones built from operand columns copied pair
    by pair (``take``) with one tile rect per pair, clip bits
    included."""
    from kernel_cases import assert_bit_identical

    from rust_geo_booleanop_ray.sources.arrow_geom import rects_to_arrow
    from rust_geo_booleanop_ray.stages.cells import (
        cell_bounds_array,
        cover_bbox,
        overlap_pairs,
        split_sides,
    )

    f = _footprints(120)
    bbox = [f[c].to_numpy() for c in ("minx", "miny", "maxx", "maxy")]

    row_idx, tiles = cover_bbox(*bbox, 4)
    want = _clip_materialized(
        {"image_id": f["image_id"].take(pa.array(row_idx)), "tile_id": pa.array(tiles.view(np.int64))},
        f["footprint"].take(pa.array(row_idx)),
        rects_to_arrow(*cell_bounds_array(tiles)),
    )
    got = TileJoinClip(tile_res=4, mode="exact")(f)
    assert got.num_rows > f.num_rows and got.equals(want)
    assert_bit_identical(got["clip"].combine_chunks(), want["clip"].combine_chunks())

    polys = _region_polys()
    row, poly = overlap_pairs(polys, f)
    want = _clip_materialized(
        {"image_id": f["image_id"].take(pa.array(row)), "tile_id": polys["tile_id"].take(pa.array(poly))},
        f["footprint"].take(pa.array(row)),
        polys["geom"].take(pa.array(poly)),
    )
    got = BroadcastPolyJoinClip(polys)(f)
    assert got.num_rows > 0 and got.equals(want)
    assert_bit_identical(got["clip"].combine_chunks(), want["clip"].combine_chunks())

    group = pa.concat_tables([_side(BUILD, polys["tile_id"], polys, "geom"), _footprint_probe(f)])
    probe, build = split_sides(group)
    row, cand = overlap_pairs(build, probe)
    want = _clip_materialized(
        {"probe_id": probe["id"].take(pa.array(row)), "build_id": build["id"].take(pa.array(cand))},
        probe["geom"].take(pa.array(row)),
        build["geom"].take(pa.array(cand)),
        with_clip=False,
    )
    got = join_cells_within_group(group)
    assert got.num_rows > 0 and got.equals(want)
