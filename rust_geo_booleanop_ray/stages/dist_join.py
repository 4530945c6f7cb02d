"""Distance-band spatial self-join: all point pairs within ``eps``.

The classic PBSM (partition-based spatial merge) operator: replicate
each point into its 3×3 cell neighborhood at ``res``, groupby(cell),
and evaluate pairs cell-locally.  Exactly-once emission WITHOUT a
global dedup shuffle via the home-point rule: a pair (p, q) is emitted
only from the cell where the SMALLER-id endpoint is home.  Each pair's
endpoints are within one cell of each other (eps ≤ cell edge, the
documented partitioning assumption — asserted), so the smaller-id
point's home cell always contains the other endpoint as home or
replica; and the rule fires in exactly one (cell, orientation), so no
pair is duplicated or dropped.

Scale shape: one shuffle (the cell groupby), ≤ 9× replication on the
wire, chunked pairwise distance matrices inside each cell (at most
``cells.MAX_CONTAIN_MATRIX`` elements each: bounded memory regardless
of cell population).  A skewed cell is the operator
hazard: it costs one task more time, while its chunked matrices keep
the memory bounded.

Reference analogue: the engine lift of the bbox-overlap gate at
/root/reference/lib/src/boolean/mod.rs:106-109 applied to point
neighborhoods instead of polygon pairs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .cells import MAX_CONTAIN_MATRIX, WORLD, cell_encode
from .knn import _neighbor_cells


def check_eps_fits(res: int, eps: float) -> None:
    minx, miny, maxx, maxy = WORLD
    n = 1 << res
    edge = min((maxx - minx) / n, (maxy - miny) / n)
    if eps > edge:
        raise ValueError(
            f"dist_join eps={eps} exceeds cell edge {edge} at res={res}; "
            "pairs could span non-adjacent cells"
        )


def prepare_dist_rows(
    batch: pa.Table, res: int, id_col: str, x_col: str, y_col: str
) -> pa.Table:
    """map_batches kernel: every point → home row + replicas into its
    other neighbor cells (home flag distinguishes them)."""
    x = batch[x_col].to_numpy()
    y = batch[y_col].to_numpy()
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    home_cells = cell_encode(x, y, res)
    row_idx, cells = _neighbor_cells(x, y, res)
    home = cells == home_cells[row_idx]
    take = pa.array(row_idx)
    return pa.table(
        {
            "cell": pa.array(cells.view(np.int64), pa.int64()),
            "pid": ids.take(take),
            "x": pa.array(x[row_idx]),
            "y": pa.array(y[row_idx]),
            "home": pa.array(home),
        }
    )


class DistPairsWithinCell:
    """map_groups fn: emit (id_a, id_b, d2) for pairs within eps, where
    id_a < id_b and id_a is HOME in this cell (exactly-once rule)."""

    def __init__(self, eps: float):
        self.eps2 = float(eps) * float(eps)
        self.__name__ = type(self).__name__

    def __call__(self, group: pa.Table) -> pa.Table:
        out_schema = pa.schema(
            [
                pa.field("id_a", pa.int64()),
                pa.field("id_b", pa.int64()),
                pa.field("d2", pa.int64()),
            ]
        )
        home = group["home"].to_numpy(zero_copy_only=False)
        if not home.any():
            return out_schema.empty_table()
        pid = group["pid"].to_numpy()
        x = group["x"].to_numpy()
        y = group["y"].to_numpy()
        hx, hy, hid = x[home], y[home], pid[home]
        outs = []
        chunk = max(1, MAX_CONTAIN_MATRIX // max(1, len(pid)))
        for s in range(0, len(hid), chunk):
            cx, cy, cid = hx[s : s + chunk], hy[s : s + chunk], hid[s : s + chunk]
            d2 = (cx[:, None] - x[None, :]) ** 2 + (cy[:, None] - y[None, :]) ** 2
            hit = (d2 <= self.eps2) & (cid[:, None] < pid[None, :])
            ai, bj = np.nonzero(hit)
            if len(ai):
                outs.append(
                    pa.table(
                        {
                            "id_a": pa.array(cid[ai]),
                            "id_b": pa.array(pid[bj]),
                            "d2": pa.array(d2[ai, bj].astype(np.int64)),
                        }
                    )
                )
        if not outs:
            return out_schema.empty_table()
        # a replica of the same partner can sit in this cell alongside
        # its home row only if ids collide — pids are unique, and each
        # (partner pid) appears at most once per cell, so no dedup pass
        # is needed here.
        return pa.concat_tables(outs)


def dist_join_pipeline(points_ds, eps: float, res: int, id_col: str, x_col: str, y_col: str):
    check_eps_fits(res, eps)
    prepared = points_ds.map_batches(
        lambda b: prepare_dist_rows(b, res, id_col, x_col, y_col),
        batch_format="pyarrow",
    )
    return prepared.groupby("cell").map_groups(
        DistPairsWithinCell(eps), batch_format="pyarrow"
    )
