"""Helpers, constants and kernels shared by 2+ catalog families, and
the registry entry every family's ``QUERIES`` table is made of."""
from __future__ import annotations

from collections.abc import Callable
from typing import Any, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


class Query(NamedTuple):
    """One registered query: ``plan(sf_dir)`` builds the Ray Dataset and
    ``oracle`` is its DuckDB SQL, or a zero-argument function returning
    it that only ``pipelines.queries.build_oracle_sql()`` calls (workers
    that import a family module for its ``map_batches`` closures never
    pay for building an oracle).  ``aliases`` are further names served
    by the same plan and oracle."""

    plan: Callable[[str], Any]
    oracle: str | Callable[[], str]
    aliases: tuple[str, ...] = ()


def merge_queries(*tables: dict[str, Query]) -> dict[str, Query]:
    """Merge the family ``QUERIES`` tables into one registry that maps
    every name, aliases included, to its entry; a name registered twice
    raises."""
    merged: dict[str, Query] = {}
    for table in tables:
        for name, query in table.items():
            for n in (name, *query.aliases):
                if n in merged:
                    raise ValueError(f"query name {n!r} is registered twice")
                merged[n] = query
    return merged


def _read(sf_dir: str, table: str, columns=None):
    """Column-pruned parquet read of ``<sf_dir>/<table>.parquet``, in
    blocks ``tuning.read_parquet`` sizes from the bytes of the columns
    read: one per MiB, at most two per cluster CPU."""
    from ...tuning import read_parquet

    return read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _cents(x: np.ndarray) -> np.ndarray:
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _values_oracle_sql(t: pa.Table) -> str:
    """Expected-values oracle: a VALUES table of generator-side
    literals (input-data math, never engine output), compared hash-exact
    against the engine's decode-derived results."""

    def lit(v):
        # explicit casts so DuckDB types every column like the engine
        # (bare small-int literals would come out INTEGER, not BIGINT)
        return f"'{v}'" if isinstance(v, str) else f"CAST({v!r} AS BIGINT)"

    cols = t.column_names
    rows = ",\n      ".join(
        "(" + ", ".join(lit(t[c][i].as_py()) for c in cols) + ")"
        for i in range(t.num_rows)
    )
    return f"""
    SELECT * FROM (VALUES
      {rows}
    ) AS expected({", ".join(cols)})
"""


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
