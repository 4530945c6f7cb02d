"""Round-4 operator additions: cell compaction, mutual-NN, bottom-k
sample, normalized dedup — local invariants (the value-exact DuckDB
gate covers the distributed paths)."""

import numpy as np
import pyarrow as pa


def _expand(cells: np.ndarray, target_res: int) -> set:
    """Expand mixed-res cell ids back to the target resolution."""
    out = set()
    for c in cells.astype(np.uint64):
        r = int(c >> np.uint64(58))
        m = int(c & np.uint64((1 << 58) - 1))
        frontier = [m]
        for _ in range(target_res - r):
            frontier = [(x << 2) | q for x in frontier for q in range(4)]
        out.update((target_res << 58) | x for x in frontier)
    return out


def test_cell_compact_preserves_coverage(ray_session):
    """Compaction must be lossless: expanding the compacted set back to
    res 4 reproduces exactly the occupied res-4 cells."""
    from rust_geo_booleanop_ray.pipelines.catalog._shared import _read
    from rust_geo_booleanop_ray.pipelines.catalog.spatial import (
        CELL_COMPACT_RES,
        _customer_point_batch,
        q_cell_compact,
    )
    from rust_geo_booleanop_ray.stages.cells import cell_encode

    sf = "/root/testdata/sf0.001"
    pts = _customer_point_batch(
        pa.Table.from_pylist(_read(sf, "customer", ["c_custkey"]).take_all())
    )
    occupied = set(
        (CELL_COMPACT_RES << 58) | int(m)
        for m in np.unique(
            cell_encode(
                pts["px"].to_numpy(), pts["py"].to_numpy(), CELL_COMPACT_RES
            )
            & np.uint64((1 << 58) - 1)
        )
    )
    compacted = pa.Table.from_pylist(q_cell_compact(sf).take_all())
    cells = compacted["cell"].to_numpy()
    # compaction shrinks (or keeps) the set and never double-covers
    assert len(cells) <= len(occupied)
    assert _expand(cells, CELL_COMPACT_RES) == occupied
    # no cell in the output is an ancestor of another output cell
    assert len(set(cells.tolist())) == len(cells)


def test_mutual_nn_is_symmetric_and_nearest(ray_session):
    from rust_geo_booleanop_ray.pipelines.catalog._shared import _read
    from rust_geo_booleanop_ray.pipelines.catalog.ann import q_mutual_nn
    from rust_geo_booleanop_ray.stages.dedup import EmbeddingLshBucket
    from rust_geo_booleanop_ray.stages.linalg import quantize_embeddings

    sf = "/root/testdata/sf0.001"
    out = pa.Table.from_pylist(q_mutual_nn(sf).take_all())
    assert out.num_rows > 0
    a = out["vec_a"].to_numpy()
    b = out["vec_b"].to_numpy()
    assert (a < b).all()
    # no vector appears in two mutual pairs (mutual-NN is a matching)
    both = np.concatenate([a, b])
    assert len(np.unique(both)) == len(both)

    # brute-force check within one bucket
    emb = pa.Table.from_pylist(
        _read(sf, "embeddings", ["vec_id", "embedding"]).take_all()
    )
    bucketed = EmbeddingLshBucket(n_bits=8)(emb)
    buckets = bucketed["bucket"].to_numpy()
    ids = bucketed["vec_id"].to_numpy()
    q = quantize_embeddings(bucketed["embedding"])
    got = {(int(x), int(y)) for x, y in zip(a, b)}
    target = buckets[0]
    sel = np.flatnonzero(buckets == target)
    order = np.argsort(ids[sel])
    sel = sel[order]
    if len(sel) >= 2:
        qs = q[sel]
        d2 = ((qs[:, None, :] - qs[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.iinfo(np.int64).max)
        nn = d2.argmin(axis=1)
        for i in range(len(sel)):
            j = nn[i]
            if nn[j] == i and i < j:
                assert (int(ids[sel[i]]), int(ids[sel[j]])) in got


def test_bottomk_sample_is_global_bottomk(ray_session):
    from rust_geo_booleanop_ray.pipelines.catalog._shared import _read
    from rust_geo_booleanop_ray.pipelines.catalog.agg import BOTTOMK_K, q_bottomk_sample
    from rust_geo_booleanop_ray.stages.footprint import _splitmix64

    sf = "/root/testdata/sf0.001"
    out = pa.Table.from_pylist(q_bottomk_sample(sf).take_all())
    keys = pa.Table.from_pylist(
        _read(sf, "orders", ["o_orderkey"]).take_all()
    )["o_orderkey"].to_numpy()
    pri = _splitmix64(keys.astype(np.uint64))
    want = set(
        keys[np.argsort(pri, kind="stable")[: min(BOTTOMK_K, len(keys))]].tolist()
    )
    assert set(out["o_orderkey"].to_pylist()) == want
    assert out.num_rows == min(BOTTOMK_K, len(keys))


def test_normalized_dedup_collapses_variants(ray_session):
    import ray.data as rd

    from rust_geo_booleanop_ray.pipelines.catalog.dedup import q_normalized_dedup

    # direct kernel check via a tiny in-memory table routed through the
    # same query body (monkey-patch the read with from_arrow, on the
    # module that DEFINES the query — the catalog family module — since
    # its body resolves _read in its own globals, not the façade's)
    import sys

    Q = sys.modules[q_normalized_dedup.__module__]

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["Hello  World", " hello world", "hello world", "other doc"]
            ),
        }
    )
    orig = Q._read
    try:
        Q._read = lambda sf, table, cols: rd.from_arrow(t.select(cols))
        out = pa.Table.from_pylist(q_normalized_dedup("unused").take_all())
    finally:
        Q._read = orig
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows[1]["n"] == 3  # all three variants collapse to doc 1
    assert rows[1]["n_chars"] == len("hello world")
    assert rows[4]["n"] == 1
