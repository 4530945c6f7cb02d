"""Helpers, constants and kernels shared by 2+ catalog families.

Split out of pipelines/queries.py (round 5); behavior-identical.
"""
from __future__ import annotations

import numpy as np  # noqa: F401
import pyarrow as pa  # noqa: F401
import pyarrow.compute as pc  # noqa: F401

from ...sources.arrow_geom import shoelace_area  # noqa: F401
from ...sources.arrow_geom import rects_to_arrow as _rect_mp_array  # noqa: F401
from ...stages.boolean_batch import BooleanOpBatch  # noqa: F401



def _read(sf_dir: str, table: str, columns=None):
    """Column-pruned parquet read; ``tune_data_context()`` sizes it to
    the cluster (two blocks per CPU) even when the table is one file."""
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _cents(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


# bound on the dense pts×rects candidate matrix inside one cell group:
# one pathological hot cell must never allocate an unbounded bool
# matrix, so the product is evaluated in rect chunks of at most
# MAX_CONTAIN_MATRIX elements (skew splitting changes the partitioning
# upstream; this guard caps the worst case regardless)
MAX_CONTAIN_MATRIX = 1 << 22


# ------------------------------------------------------------------ documents


_EPOCH_2024_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in µs


def _dedup_edge_union(sf_dir: str):
    """The deterministic document-similarity edge set shared by
    dedup_components and pagerank: consecutive doc_id chains within
    (lang, n_tokens) groups and within (source, n_chars % 10) groups."""

    def chain(group: pa.Table) -> pa.Table:
        ids = np.sort(group["doc_id"].to_numpy())
        if len(ids) < 2:
            return pa.schema(
                [pa.field("doc_a", pa.int64()), pa.field("doc_b", pa.int64())]
            ).empty_table()
        return pa.table(
            {
                "doc_a": pa.array(ids[:-1], pa.int64()),
                "doc_b": pa.array(ids[1:], pa.int64()),
            }
        )

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang", "source", "n_chars"])

    def key1(batch: pa.Table) -> pa.Table:
        n_tokens = pc.list_value_length(pc.split_pattern(batch["text"], " "))
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "lang": batch["lang"],
                "n_tokens": pc.cast(n_tokens, pa.int64()),
            }
        )

    def key2(batch: pa.Table) -> pa.Table:
        mod = pc.cast(batch["n_chars"], pa.int64()).to_numpy() % 10
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "source": batch["source"],
                "chars_mod": pa.array(mod, pa.int64()),
            }
        )

    e1 = (
        ds.map_batches(key1, batch_format="pyarrow")
        .groupby(["lang", "n_tokens"])
        .map_groups(chain, batch_format="pyarrow")
    )
    e2 = (
        ds.map_batches(key2, batch_format="pyarrow")
        .groupby(["source", "chars_mod"])
        .map_groups(chain, batch_format="pyarrow")
    )
    return e1.union(e2)


def triu_pairs_in_runs(group_keys: np.ndarray, values: np.ndarray):
    """All ordered (v, w) pairs (v<w) within runs of equal group_keys
    over SORTED, DEDUPED input.  One vectorized pass per FIRST-element
    offset (O(max_degree) passes, O(total pairs) work) — the nested
    O(max_degree²) mask loop stalls on skewed hubs/baskets with
    thousands of members.  Shared by triangles, word_pairs-style
    fan-outs and basket_pairs (the repo scale-shape rule)."""
    starts = np.concatenate(
        ([0], np.flatnonzero(group_keys[1:] != group_keys[:-1]) + 1)
    )
    lens = np.diff(np.concatenate((starts, [len(group_keys)])))
    out_a, out_b = [], []
    kmax = int(lens.max()) if len(lens) else 0
    for a in range(kmax - 1):
        m = lens > a + 1
        if not m.any():
            break
        nb = lens[m] - a - 1  # partners per run for this offset
        bstart = starts[m] + a + 1
        total = int(nb.sum())
        csum = np.concatenate(([0], np.cumsum(nb)[:-1]))
        idx = (
            np.arange(total, dtype=np.int64)
            - np.repeat(csum, nb)
            + np.repeat(bstart, nb)
        )
        out_b.append(values[idx])
        out_a.append(np.repeat(values[starts[m] + a], nb))
    if not out_a:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_a), np.concatenate(out_b)


GRAM_DIM = 64  # embeddings table vector width (all scale factors)


KMEANS_K = 8
KMEANS_ITERS = 3
