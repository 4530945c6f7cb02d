"""Pivot / wide aggregate: long (group, category, value) rows → one
wide row per group with per-category count and sum columns.

The category set must be FIXED and known-small (an enum column —
event types, priorities, languages).  The pivot then lowers to plain
conditional-column aggregation: for each category ``c`` the partial
emits ``n_c = sum(category == c)`` and ``v_c = sum(value where
category == c)``, so it is one vectorized pass per batch (numpy mask
multiply + one ``pa.TableGroupBy``) followed by a single
``groupby(group).aggregate(Sum...)`` exchange.  No per-group Python,
no per-row loop, and the shuffle moves at most
``groups × blocks`` pre-aggregated rows of ``2 × |categories| + 1``
int64 columns — a billion-row group still ships one partial row per
block.  Unbounded-cardinality pivots are a modeling error at 100 TB
(a million-column table), not an operator; callers pass the category
list explicitly.

Reference analogue: none — the reference engine has no tabular
aggregation layer; this is part of the Ray engine lift
(/root/reference/lib/src/boolean/mod.rs is geometry-only).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import hash_exchange


def pivot_column_names(categories: Sequence[str]) -> list[str]:
    """Wide-column names, count then sum per category, category order
    preserved: n_<c>, v_<c>_c."""
    out: list[str] = []
    for c in categories:
        slug = "".join(ch if ch.isalnum() else "_" for ch in c.lower())
        out.extend([f"n_{slug}", f"v_{slug}_c"])
    return out


def make_pivot_partial(
    group_col: str,
    pivot_col: str,
    categories: Sequence[str],
    value_fn: Callable[[pa.Table], np.ndarray],
) -> Callable[[pa.Table], pa.Table]:
    """Per-batch pivot combiner.  ``value_fn`` maps the batch to an
    int64 value array (e.g. cents).  Returns a partial table with one
    row per distinct group in the batch and the wide int64 columns
    from :func:`pivot_column_names` — feed it into
    ``groupby(group_col).aggregate(Sum(col) for col in names)``."""
    names = pivot_column_names(categories)

    def partial(batch: pa.Table) -> pa.Table:
        v = value_fn(batch)
        pv = batch[pivot_col]
        cols: dict[str, object] = {group_col: batch[group_col]}
        for c, (n_name, v_name) in zip(categories, zip(names[::2], names[1::2])):
            mask = pc.equal(pv, c).combine_chunks().to_numpy(zero_copy_only=False)
            mask = np.where(mask, np.int64(1), np.int64(0))
            cols[n_name] = pa.array(mask)
            cols[v_name] = pa.array(v * mask)
        t = pa.table(cols)
        g = pa.TableGroupBy(t, group_col).aggregate([(n, "sum") for n in names])
        # aggregate output names are <col>_sum with the key last; put
        # the key first and restore the plain wide names.
        return g.select([group_col] + [f"{n}_sum" for n in names]).rename_columns(
            [group_col] + names
        )

    return partial


def bucketed_wide_sum(ds, group_col: str, wide_cols: Sequence[str]):
    """Sum integer partials (pivot partials, per-key revenue, zone
    counts) per ``group_col`` through ``hash_exchange`` (group
    cardinality is ~rows at 100 TB — users).  Returns one exact row per
    distinct group."""
    return hash_exchange(
        ds, group_col, partial(wide_sum, group_col=group_col, wide_cols=list(wide_cols))
    )


def wide_sum(group: pa.Table, group_col: str, wide_cols: Sequence[str]) -> pa.Table:
    """``bucketed_wide_sum``'s kernel: one row per distinct
    ``group_col`` value with each integer wide column summed to int64;
    an empty group gives an empty table of the same schema."""
    agg = pa.TableGroupBy(group, group_col, use_threads=False).aggregate(
        [(c, "sum") for c in wide_cols]
    )
    return agg.select([group_col] + [f"{c}_sum" for c in wide_cols]).rename_columns(
        [group_col] + list(wide_cols)
    )
