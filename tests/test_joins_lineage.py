"""Join operators (broadcast + shuffle hash) and the per-partition
lineage/resume contract (north_rule: resumable from checkpoint with
per-partition lineage + metrics)."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from rust_geo_booleanop_ray.stages.join import broadcast_join, shuffle_hash_join
from rust_geo_booleanop_ray.state.lineage import (
    ENGINE_VERSION,
    PartitionCommitWriter,
    completed_partitions,
    resumable_write,
)


def _sorted_pylist(ds, keys):
    rows = ds.take_all()
    return sorted(rows, key=lambda r: tuple(r[k] for k in keys))


def test_broadcast_join_inner():
    big = rd.from_arrow(
        pa.table({"k": [1, 2, 3, 2, 9], "v": ["a", "b", "c", "d", "e"]})
    )
    small = pa.table({"k": [1, 2, 3], "name": ["one", "two", "three"]})
    out = _sorted_pylist(broadcast_join(big, small, "k", ["name"]), ["k", "v"])
    assert out == [
        {"k": 1, "v": "a", "name": "one"},
        {"k": 2, "v": "b", "name": "two"},
        {"k": 2, "v": "d", "name": "two"},
        {"k": 3, "v": "c", "name": "three"},
    ]


def test_shuffle_hash_join_matches_duckdb():
    import duckdb

    tl = pa.table({"k": [1, 1, 2, 3, 5], "lv": [10, 11, 20, 30, 50]})
    tr = pa.table({"k": [1, 2, 2, 4], "rv": [100, 200, 201, 400]})
    out = shuffle_hash_join(
        rd.from_arrow(tl), rd.from_arrow(tr), "k", ["lv"], ["rv"],
        left_schema=tl.schema, right_schema=tr.schema,
    )
    got = _sorted_pylist(out, ["k", "lv", "rv"])
    exp = duckdb.sql(
        "SELECT tl.k, lv, rv FROM tl JOIN tr USING (k) ORDER BY k, lv, rv"
    ).fetchall()
    assert [(r["k"], r["lv"], r["rv"]) for r in got] == exp


def test_resumable_write_skips_committed(tmp_path):
    out_dir = str(tmp_path / "out")
    t = pa.table({"part": [0, 0, 1, 1, 2], "x": [1, 2, 3, 4, 5]})

    m1 = resumable_write(rd.from_arrow(t), out_dir, config_hash="cfg1").take_all()
    assert sorted(r["part_key"] for r in m1) == [0, 1, 2]
    assert all(not r["skipped"] for r in m1)
    assert completed_partitions(out_dir, "cfg1") == {0, 1, 2}

    # simulate a lost partition: remove part=1's manifest
    os.remove(os.path.join(out_dir, "part=1", "_lineage.json"))
    assert completed_partitions(out_dir, "cfg1") == {0, 2}

    m2 = resumable_write(rd.from_arrow(t), out_dir, config_hash="cfg1").take_all()
    # only the lost partition is rewritten; finished ones were dropped
    # before the shuffle, so they don't even appear as skipped rows
    assert [(r["part_key"], r["skipped"]) for r in m2] == [(1, False)]

    # all data present and correct after resume
    files = sorted(glob.glob(os.path.join(out_dir, "part=*", "part.parquet")))
    total = pa.concat_tables([pq.read_table(f) for f in files])
    assert sorted(total["x"].to_pylist()) == [1, 2, 3, 4, 5]

    # a config change invalidates completion
    assert completed_partitions(out_dir, "cfg2") == set()
    m3 = resumable_write(rd.from_arrow(t), out_dir, config_hash="cfg2").take_all()
    assert sorted(r["part_key"] for r in m3) == [0, 1, 2]

    # lineage manifests carry metrics
    with open(os.path.join(out_dir, "part=0", "_lineage.json")) as f:
        meta = json.load(f)
    assert meta["rows"] == 2 and meta["config_hash"] == "cfg2"


def test_lineage_manifest_records_bytes_and_times(tmp_path):
    """Each manifest carries the committed file's size and the writer
    call's wall and CPU seconds next to its row count."""
    out_dir = str(tmp_path / "out")
    t = pa.table({"part": [0, 0, 1], "x": [1, 2, 3]})
    resumable_write(rd.from_arrow(t), out_dir, config_hash="cfg").take_all()
    for part, rows in ((0, 2), (1, 1)):
        part_dir = os.path.join(out_dir, f"part={part}")
        with open(os.path.join(part_dir, "_lineage.json")) as f:
            meta = json.load(f)
        assert meta["rows"] == rows
        assert meta["bytes"] == os.path.getsize(os.path.join(part_dir, "part.parquet")) > 0
        assert meta["wall_s"] > 0 and meta["cpu_s"] >= 0
        assert meta["engine_version"] == ENGINE_VERSION and meta["config_hash"] == "cfg"


def test_commit_writer_tail_runs_only_for_uncommitted(tmp_path):
    """``tail`` shapes the written rows (and the manifest's row count)
    and is not called for a partition that is already committed."""
    import pyarrow.compute as pc

    calls = []

    def tail(group):
        calls.append(group.num_rows)
        return group.filter(pc.greater(group["x"], 1))

    out_dir = str(tmp_path / "out")
    w = PartitionCommitWriter(out_dir, config_hash="cfg", tail=tail)
    g = pa.table({"part": [5, 5, 5], "x": [1, 2, 3]})
    assert w(g)["rows"].to_pylist() == [2]
    assert pq.read_table(os.path.join(out_dir, "part=5", "part.parquet"))["x"].to_pylist() == [2, 3]
    with open(os.path.join(out_dir, "part=5", "_lineage.json")) as f:
        assert json.load(f)["rows"] == 2
    assert w(g)["skipped"].to_pylist() == [True]
    assert calls == [3]


def test_broadcast_join_empty_small_side():
    """An empty build side yields an empty (schema-correct) result,
    not an IndexError from the searchsorted lookup."""
    big = rd.from_arrow(pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]}))
    small = pa.table({"k": pa.array([], pa.int64()), "name": pa.array([], pa.string())})
    out = broadcast_join(big, small, "k", ["name"])
    assert out.take_all() == []
    assert set(out.schema().names) == {"k", "v", "name"}


def test_shuffle_hash_join_rejects_non_integer_key():
    tl = pa.table({"k": ["a", "b"], "v": [1, 2]})
    tr = pa.table({"k": ["a", "b"], "w": [3, 4]})
    with pytest.raises(TypeError, match="integer"):
        shuffle_hash_join(
            rd.from_arrow(tl), rd.from_arrow(tr), key="k", left_cols=["v"], right_cols=["w"],
            left_schema=tl.schema, right_schema=tr.schema,
        )


def test_shuffle_hash_join_rejects_null_keys():
    tl = pa.table({"k": pa.array([1, None], pa.int64()), "v": [1, 2]})
    tr = pa.table({"k": pa.array([1, 2], pa.int64()), "w": [3, 4]})
    out = shuffle_hash_join(
        rd.from_arrow(tl), rd.from_arrow(tr), key="k", left_cols=["v"], right_cols=["w"],
        left_schema=tl.schema, right_schema=tr.schema,
    )
    with pytest.raises(Exception, match="null"):
        out.take_all()


def test_shuffle_hash_join_semi_anti_match_bruteforce():
    import numpy as np

    rng = np.random.RandomState(11)
    lk = rng.randint(0, 40, 120).astype(np.int64)
    rk = rng.randint(20, 60, 80).astype(np.int64)
    tl = pa.table({"k": pa.array(lk), "lv": pa.array(np.arange(120, dtype=np.int64))})
    tr = pa.table({"k": pa.array(rk), "rv": pa.array(np.arange(80, dtype=np.int64))})
    rset = set(rk.tolist())
    for how in ("semi", "anti"):
        out = shuffle_hash_join(
            rd.from_arrow(tl), rd.from_arrow(tr), "k", ["lv"], [], how=how,
            left_schema=tl.schema, right_schema=tr.schema,
        ).take_all()
        got = sorted((r["k"], r["lv"]) for r in out)
        if how == "semi":
            want = sorted((int(k), int(v)) for k, v in zip(lk, range(120)) if k in rset)
        else:
            want = sorted(
                (int(k), int(v)) for k, v in zip(lk, range(120)) if k not in rset
            )
        assert got == want, how


def test_shuffle_hash_join_left_outer_matches_bruteforce():
    import numpy as np

    rng = np.random.RandomState(19)
    lk = rng.randint(0, 40, 100).astype(np.int64)
    rk = rng.randint(20, 60, 60).astype(np.int64)
    tl = pa.table({"k": pa.array(lk), "lv": pa.array(np.arange(100, dtype=np.int64))})
    tr = pa.table({"k": pa.array(rk), "rv": pa.array(np.arange(60, dtype=np.int64))})
    out = shuffle_hash_join(
        rd.from_arrow(tl), rd.from_arrow(tr), "k", ["lv"], ["rv"], how="left",
        left_schema=tl.schema, right_schema=tr.schema,
    ).take_all()
    got = sorted(
        (r["k"], r["lv"], r["rv"] if r["rv"] is not None else -1) for r in out
    )
    want = []
    rmap = {}
    for k, v in zip(rk.tolist(), range(60)):
        rmap.setdefault(k, []).append(v)
    for k, v in zip(lk.tolist(), range(100)):
        if k in rmap:
            want.extend((k, v, rv) for rv in rmap[k])
        else:
            want.append((k, v, -1))
    assert got == sorted(want)


def test_shuffle_hash_join_full_outer_matches_bruteforce():
    import numpy as np

    rng = np.random.RandomState(23)
    lk = rng.randint(0, 40, 100).astype(np.int64)
    rk = rng.randint(20, 60, 60).astype(np.int64)
    tl = pa.table({"k": pa.array(lk), "lv": pa.array(np.arange(100, dtype=np.int64))})
    tr = pa.table({"k": pa.array(rk), "rv": pa.array(np.arange(60, dtype=np.int64))})
    out = shuffle_hash_join(
        rd.from_arrow(tl), rd.from_arrow(tr), "k", ["lv"], ["rv"], how="full",
        left_schema=tl.schema, right_schema=tr.schema,
    ).take_all()
    got = sorted(
        (
            r["k"],
            r["lv"] if r["lv"] is not None else -1,
            r["rv"] if r["rv"] is not None else -1,
        )
        for r in out
    )
    lmap, rmap = {}, {}
    for k, v in zip(lk.tolist(), range(100)):
        lmap.setdefault(k, []).append(v)
    for k, v in zip(rk.tolist(), range(60)):
        rmap.setdefault(k, []).append(v)
    want = []
    for k in set(lmap) | set(rmap):
        if k in lmap and k in rmap:
            want.extend((k, lv, rv) for lv in lmap[k] for rv in rmap[k])
        elif k in lmap:
            want.extend((k, lv, -1) for lv in lmap[k])
        else:
            want.extend((k, -1, rv) for rv in rmap[k])
    assert got == sorted(want)


def test_bloom_no_false_negatives_and_prefilter_keeps_matches(ray_session):
    import numpy as np

    from rust_geo_booleanop_ray.stages.join import (
        bloom_might_contain,
        bloom_prefilter,
        build_bloom,
    )

    member = np.arange(0, 5000, 3, dtype=np.int64)
    tr = pa.table({"k": pa.array(member)})
    words = build_bloom(rd.from_arrow(tr).repartition(5), "k", n_bits=1 << 16)
    # zero false negatives (the property the semi join relies on)
    assert bloom_might_contain(words, member).all()
    # non-members are mostly rejected
    non = np.arange(1, 5000, 3, dtype=np.int64)
    fp = bloom_might_contain(words, non).mean()
    assert fp < 0.05, fp
    # prefilter keeps every true match
    probe = pa.table({"k": pa.array(np.arange(0, 5000, dtype=np.int64))})
    kept = bloom_prefilter(rd.from_arrow(probe), words, "k").take_all()
    kept_keys = {r["k"] for r in kept}
    assert set(member.tolist()) <= kept_keys


def test_range_join_matches_bruteforce_at_edges(ray_session, tmp_path):
    """q_range_join (temporal PBSM) == brute-force containment on a tiny
    sf dir: events on both inclusive interval bounds, one µs outside
    them, on every hour-bucket edge an interval spans, and inside."""
    import math

    import numpy as np

    from rust_geo_booleanop_ray.pipelines.catalog._shared import _EPOCH_2024_US
    from rust_geo_booleanop_ray.pipelines.catalog.joins import q_range_join

    H = 3_600_000_000
    sk = np.arange(1, 13, dtype=np.int64)  # spans of 2..7 hour buckets
    start = _EPOCH_2024_US + ((sk * 7919) % 720) * H
    end = start + (1 + sk % 6) * H
    assert (start % H == 0).all()  # bounds sit on bucket edges
    ts = [_EPOCH_2024_US - 1]
    for s, e in zip(start.tolist(), end.tolist()):
        ts += [s - 1, s, s + 1, e - 1, e, e + 1, (s + e) // 2]
        ts += list(range(s + H, e, H))  # interior bucket edges
    ts = np.array(ts, dtype=np.int64)
    value = (np.arange(len(ts)) % 997) * 0.37 + 0.125
    pq.write_table(
        pa.table(
            {
                "ts": pa.array(ts.astype("datetime64[us]")),
                "value": pa.array(value),
            }
        ),
        str(tmp_path / "events.parquet"),
    )
    pq.write_table(pa.table({"s_suppkey": pa.array(sk)}), str(tmp_path / "supplier.parquet"))

    want = {}
    for k, s, e in zip(sk.tolist(), start.tolist(), end.tolist()):
        inside = [(t, v) for t, v in zip(ts.tolist(), value.tolist()) if s <= t <= e]
        want[k] = (len(inside), sum(math.floor(v * 100.0 + 0.5) for _, v in inside))
    got = {
        r["s_suppkey"]: (r["n_events"], r["sum_value_c"])
        for r in q_range_join(str(tmp_path)).take_all()
    }
    assert got == want
    # every interval spans ≥ 2 buckets and sees both of its bounds
    assert all(n >= 6 for n, _ in got.values())
