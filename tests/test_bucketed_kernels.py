"""Property tests for the bucketed vectorized kernels that replaced
per-distinct-key map_groups (see CLAUDE.md scale-shape rules): each
kernel must equal its obvious per-key brute force on arbitrary inputs,
independent of bucket count and row order."""

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

GAP_US = 30 * 60 * 1_000_000

events = st.lists(
    st.tuples(
        st.integers(0, 12),  # user
        st.integers(0, 10 * GAP_US),  # ts
        st.integers(0, 6),  # small value / type code
    ),
    min_size=1,
    max_size=300,
)


def _sessions_brute(rows):
    by_user = {}
    for u, t, _ in rows:
        by_user.setdefault(u, []).append(t)
    out = []
    for u, ts in by_user.items():
        ts = sorted(ts)
        start = ts[0]
        last = ts[0]
        n = 1
        for t in ts[1:]:
            if t - last > GAP_US:
                out.append((u, start, last, n))
                start, n = t, 0
            n += 1
            last = t
        out.append((u, start, last, n))
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(events)
def test_vectorized_sessionize_matches_bruteforce(rows):
    u = np.array([r[0] for r in rows], dtype=np.int64)
    ts = np.array([r[1] for r in rows], dtype=np.int64)
    order = np.lexsort((ts, u))
    us, tss = u[order], ts[order]
    new_user = np.concatenate(([True], us[1:] != us[:-1]))
    gap = np.concatenate(([True], (tss[1:] - tss[:-1]) > GAP_US))
    start = new_user | gap
    sidx = np.cumsum(start) - 1
    counts = np.bincount(sidx)
    ends = np.flatnonzero(np.concatenate((start[1:], [True])))
    got = sorted(
        zip(
            us[start].tolist(),
            tss[start].tolist(),
            tss[ends].tolist(),
            counts.tolist(),
        )
    )
    assert got == _sessions_brute(rows)


@settings(max_examples=12, deadline=None)
@given(events, st.integers(1, 8))
@example(rows=[(1, 0, 5), (1, 7, 2), (2, 3, 4)], n_salt=2)
def test_pair_reduce_matches_bruteforce(ray_session, rows, n_salt):
    """pair_reduce (the Ray stage, hash exchange included) keeps one row
    per pair with the min value, equal to a dict merge, for any input
    order; pairs here are (u, t % 7) with value v, and the rows arrive
    in ``n_salt`` blocks so a pair's duplicates span blocks."""
    import ray.data as rd

    from rust_geo_booleanop_ray.stages.dedup import pair_reduce

    t = pa.table(
        {
            "a": pa.array([r[0] for r in rows], pa.int64()),
            "b": pa.array([r[1] % 7 for r in rows], pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    cuts = np.linspace(0, t.num_rows, n_salt + 1).astype(int)
    blocks = [t.slice(lo, hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    out = pair_reduce(rd.from_arrow(blocks), "a", "b", "v", how="min").take_all()
    got = {(r["a"], r["b"]): r["v"] for r in out}
    want = {}
    for ai, bi, vi in zip(*t.to_pydict().values()):
        want[(ai, bi)] = min(want.get((ai, bi), vi), vi)
    assert len(out) == len(got)
    assert got == want


@settings(max_examples=40, deadline=None)
@given(events)
def test_funnel_reduceat_matches_greedy(rows):
    """The masked minimum.reduceat funnel walk equals the per-user
    greedy scan for arbitrary event streams."""
    STAGES = (0, 1, 2)  # view/click/purchase codes; others are noise
    u = np.array([r[0] for r in rows], dtype=np.int64)
    ts = np.array([r[1] for r in rows], dtype=np.int64)
    ty = np.array([r[2] for r in rows], dtype=np.int64)
    eid = np.arange(len(u), dtype=np.int64)

    # brute force greedy per user
    want = {}
    for uu in sorted(set(u.tolist())):
        seq = sorted(
            [(ts[i], eid[i], ty[i]) for i in range(len(u)) if u[i] == uu]
        )
        stage = 0
        for _, _, t in seq:
            if stage < 3 and t == STAGES[stage]:
                stage += 1
        want[uu] = stage

    order = np.lexsort((eid, ts, u))
    us, tys = u[order], ty[order]
    seg = np.concatenate(([True], us[1:] != us[:-1]))
    seg_pos = np.flatnonzero(seg)
    seg_id = np.cumsum(seg) - 1
    idx = np.arange(len(us), dtype=np.int64)
    INF = np.iinfo(np.int64).max
    prev = np.full(len(seg_pos), -1, dtype=np.int64)
    stage = np.zeros(len(seg_pos), dtype=np.int64)
    for s_i, code in enumerate(STAGES):
        cand = np.where((tys == code) & (idx > prev[seg_id]), idx, INF)
        r = np.minimum.reduceat(cand, seg_pos)
        hit = r < INF
        stage += hit.astype(np.int64) * (stage == s_i)
        prev = np.where(hit & (stage > s_i), r, INF)
    got = dict(zip(us[seg_pos].tolist(), stage.tolist()))
    assert got == want


@settings(max_examples=40, deadline=None)
@given(events, st.integers(1, 6))
def test_latest_by_key_blocks_invariant(rows, n_blocks):
    """last_per_key over arbitrary block splits merges to the same
    winner as the global one-shot reduction."""
    from rust_geo_booleanop_ray.stages.compact import last_per_key

    t = pa.table(
        {
            "k": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array([r[1] for r in rows], pa.int64()),
            "uid": pa.array(list(range(len(rows))), pa.int64()),
        }
    )
    whole = last_per_key(t, "k", ("ts", "uid"))
    want = {
        r["k"]: (r["ts"], r["uid"]) for r in whole.to_pylist()
    }
    # split into blocks, reduce each, then reduce the concatenation
    step = max(1, len(rows) // n_blocks)
    parts = [
        last_per_key(t.slice(i, step), "k", ("ts", "uid"))
        for i in range(0, len(rows), step)
    ]
    merged = last_per_key(pa.concat_tables(parts), "k", ("ts", "uid"))
    got = {r["k"]: (r["ts"], r["uid"]) for r in merged.to_pylist()}
    assert got == want
