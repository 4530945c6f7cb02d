"""Round-5 additions: distributed curation plans, WKB codec,
substring dedup, incremental dedup."""

import numpy as np
import pyarrow as pa

SF = "/root/testdata/sf0.001"


def test_corpus_curation_paths_identical(ray_session):
    """The broadcast fast path and the corpus-fraction scale path
    (bucketed semi-join + anti-join) are two physical plans of the
    SAME query — outputs must match row-for-row."""
    from rust_geo_booleanop_ray.pipelines.catalog.text import q_corpus_curation

    fast = pa.Table.from_pylist(
        q_corpus_curation(SF, scale_path=False).take_all()
    ).sort_by("source")
    scale = pa.Table.from_pylist(
        q_corpus_curation(SF, scale_path=True).take_all()
    ).sort_by("source")
    assert fast.equals(scale)
    assert fast.num_rows > 0


def test_image_curation_no_driver_pairs(ray_session):
    """image_curation's variant collapse runs as a distributed
    anti-join; result unchanged vs an independent recompute of the
    drop logic from generator pixels at small N."""
    from rust_geo_booleanop_ray.pipelines.catalog.image import q_image_curation
    from rust_geo_booleanop_ray.sources.images import (
        _neardup_pixels,
        _phash64,
        image_quality_keep,
        quality_stats,
    )

    N = 300
    t = pa.Table.from_pylist(q_image_curation(SF, n_images=N).take_all())
    # independent recompute: quality gate, then canonical-min pHash
    # collapse (exact popcount over all survivor pairs at this tiny N)
    keep = []
    for i in range(N):
        px = _neardup_pixels(i)
        b, _, _ = quality_stats(px)
        if image_quality_keep(b, px.size):
            keep.append((i, np.uint64(_phash64(px))))
    dropped = set()
    for ai in range(len(keep)):
        for bi in range(ai + 1, len(keep)):
            ia, ha = keep[ai]
            ib, hb = keep[bi]
            if bin(int(ha ^ hb)).count("1") <= 6:
                # banded candidates: require ≥1 equal 16-bit band
                if any(
                    (int(ha) >> (16 * k)) & 0xFFFF == (int(hb) >> (16 * k)) & 0xFFFF
                    for k in range(4)
                ):
                    dropped.add(max(ia, ib))
    expected = len(keep) - len(dropped)
    assert sum(t["n"].to_pylist()) == expected


def test_wkb_roundtrip_nested_list():
    """WKB encode → decode is the identity on the nested-list codec,
    including holes, multi-part geometries, and empty rows."""
    from rust_geo_booleanop_ray.sources.arrow_geom import (
        arrow_to_mps,
        mp_arrow_to_wkb,
        mps_to_arrow,
        wkb_to_mp_arrow,
    )

    mps = [
        [[[(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 0.0)]]],
        [
            [
                [(0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0), (0.0, 0.0)],
                [(2.0, 2.0), (2.0, 4.0), (4.0, 4.0), (4.0, 2.0), (2.0, 2.0)],
            ],
            [[(20.0, 20.0), (22.0, 20.0), (21.0, 23.0), (20.0, 20.0)]],
        ],
        [],
        [[[(1.5, -2.25), (3.125, -2.25), (1.5, 7.75), (1.5, -2.25)]]],
    ]
    arr = mps_to_arrow(mps)
    back = wkb_to_mp_arrow(mp_arrow_to_wkb(arr))
    assert arrow_to_mps(back) == arrow_to_mps(arr)


def test_wkb_foreign_variants():
    """Ingest accepts big-endian blobs, bare Polygons (normalized to
    1-poly multipolygons) and EWKB SRID headers; rejects Z/M."""
    import struct

    import pytest

    from rust_geo_booleanop_ray.sources.arrow_geom import (
        arrow_to_mps,
        wkb_to_mp_arrow,
    )

    def poly_wkb(rings, endian="<", srid=None, gtype=3):
        bo = b"\x01" if endian == "<" else b"\x00"
        t = gtype | (0x20000000 if srid else 0)
        b = bo + struct.pack(endian + "I", t)
        if srid:
            b += struct.pack(endian + "I", srid)
        b += struct.pack(endian + "I", len(rings))
        for r in rings:
            b += struct.pack(endian + "I", len(r))
            for x, y in r:
                b += struct.pack(endian + "dd", x, y)
        return b

    ring = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)]
    dec = arrow_to_mps(
        wkb_to_mp_arrow(
            pa.array(
                [
                    poly_wkb([ring]),
                    poly_wkb([ring], endian=">"),
                    poly_wkb([ring], srid=4326),
                ],
                pa.binary(),
            )
        )
    )
    assert dec[0] == dec[1] == dec[2] == [[ring]]
    with pytest.raises(ValueError):
        wkb_to_mp_arrow(pa.array([poly_wkb([ring], gtype=1003)], pa.binary()))


def test_wkb_parquet_ingest(ray_session, tmp_path):
    """A WKB-column parquet round-trips through ray.data.read_parquet
    → decode stage → Martinez boolean op, matching the nested-list
    path exactly."""
    import ray.data as rd

    from rust_geo_booleanop_ray.geom.boolean_op import boolean_op
    from rust_geo_booleanop_ray.sources.arrow_geom import (
        arrow_mp_bounds,
        arrow_to_mps,
        mp_arrow_to_wkb,
        mps_to_arrow,
        wkb_to_mp_arrow,
    )

    subj = [[[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0), (0.0, 0.0)]]]
    mps = [
        [[[(float(i), 0.0), (float(i) + 2.0, 0.0), (float(i) + 2.0, 2.0), (float(i), 0.0)]]]
        for i in range(20)
    ]
    tbl = pa.table(
        {
            "gid": pa.array(list(range(20)), pa.int64()),
            "wkb": mp_arrow_to_wkb(mps_to_arrow(mps)),
        }
    )
    import pyarrow.parquet as pq

    path = str(tmp_path / "wkb.parquet")
    pq.write_table(tbl, path)

    def decode_and_clip(b: pa.Table) -> pa.Table:
        mp = wkb_to_mp_arrow(b["wkb"])
        bb = arrow_mp_bounds(mp)
        areas = []
        for m in arrow_to_mps(mp):
            clipped = boolean_op(m, subj, "intersection")
            s = 0.0
            for poly in clipped:
                for ri, ring in enumerate(poly):
                    a = 0.0
                    for k in range(len(ring) - 1):
                        a += ring[k][0] * ring[k + 1][1] - ring[k + 1][0] * ring[k][1]
                    s += abs(a) / 2.0 if ri == 0 else -abs(a) / 2.0
            areas.append(s)
        return pa.table(
            {
                "gid": b["gid"],
                "minx": pa.array(bb["minx"]),
                "clip_area": pa.array(areas, pa.float64()),
            }
        )

    out = (
        rd.read_parquet(path)
        .map_batches(decode_and_clip, batch_format="pyarrow")
        .to_pandas()
        .sort_values("gid")
    )
    assert len(out) == 20
    # triangle (i, i+2) clipped by [0,4]² — geometric expectation
    assert out.iloc[0]["clip_area"] == 2.0  # fully inside
    assert out.iloc[0]["minx"] == 0.0
    assert all(out.iloc[i]["clip_area"] == 0.0 for i in range(4, 20))


def test_substring_dedup_planted_repeat(ray_session, tmp_path):
    """Docs sharing a planted ≥40-char exact run are flagged against
    the smallest partner; unrelated docs are not."""
    import pyarrow.parquet as pq

    from rust_geo_booleanop_ray.pipelines.catalog.dedup import q_substring_dedup

    run = "x" + "q r s t u v w x y z " * 3  # 61 chars, shared verbatim
    texts = {
        0: "alpha beta gamma " + run + " tail zero",
        1: "completely different words with no long overlap here one",
        2: run + " other suffix",  # shares run with 0
        3: "short doc",
        4: "prefix words then " + run,  # shares run with 0 and 2
        5: "alpha beta gamma delta epsilon unrelated filler text okay",
    }
    tbl = pa.table(
        {
            "doc_id": pa.array(sorted(texts), pa.int64()),
            "text": pa.array([texts[k] for k in sorted(texts)], pa.string()),
        }
    )
    d = tmp_path / "corpus"
    d.mkdir()
    pq.write_table(tbl, str(d / "documents.parquet"))
    out = {
        r["doc_id"]: r["keeper"]
        for r in q_substring_dedup(str(d)).take_all()
    }
    assert out == {2: 0, 4: 0}


def test_incremental_dedup_equals_full_run(ray_session, tmp_path):
    """incremental(prior_sigs, new_sigs) flags on the new batch equal
    the full-corpus drop decision restricted to new docs — including
    new-vs-new dups and genuinely fresh docs."""
    import ray.data as rd

    from rust_geo_booleanop_ray.stages.dedup import (
        content_hash_batch,
        incremental_exact_dedup,
    )

    old_rows = [(i, f"old doc number {i % 37} body") for i in range(100)]
    new_rows = (
        [(1000 + i, f"old doc number {i % 37} body") for i in range(0, 30, 3)]  # re-crawls
        + [(2000, "brand new text a"), (2001, "brand new text a")]  # new-new dup
        + [(2002, "unique fresh text")]  # fresh
    )

    def mk(rows):
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string()),
                }
            )
        ).map_batches(content_hash_batch, batch_format="pyarrow")

    inc = {
        r["doc_id"]: r["keeper"]
        for r in incremental_exact_dedup(mk(new_rows), mk(old_rows)).take_all()
    }
    # full run = incremental against an empty prior over old+new
    full = {
        r["doc_id"]: r["keeper"]
        for r in incremental_exact_dedup(
            mk(old_rows + new_rows), mk([]).filter(lambda r: False)
        ).take_all()
    }
    full_new = {d: k for d, k in full.items() if d >= 1000}
    assert inc == full_new
    # spot semantics: re-crawl keeps the old canonical, new-new dup
    # keeps the smaller new id, fresh doc is unflagged
    assert inc[1000] == 0  # "old doc number 0 body" → oldest holder
    assert inc[2001] == 2000
    assert 2002 not in inc
    assert all(d >= 1000 for d in inc)
    assert len(inc) == len(new_rows) - 2  # all but first new-new + fresh
