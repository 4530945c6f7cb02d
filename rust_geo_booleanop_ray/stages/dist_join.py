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

Rows use the one cell-join layout (``cells.side_table``): a point's
home row is ``BUILD`` and its replicas are ``PROBE``.

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

from .cells import BUILD, WORLD, cell_neighbors, probe_replicas, row_chunks, side_table

OUT_SCHEMA = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("d2", pa.int64())])


def check_eps_fits(res: int, eps: float) -> None:
    minx, miny, maxx, maxy = WORLD
    n = 1 << res
    edge = min((maxx - minx) / n, (maxy - miny) / n)
    if eps > edge:
        raise ValueError(
            f"dist_join eps={eps} exceeds cell edge {edge} at res={res}; "
            "pairs could span non-adjacent cells"
        )


def prepare_dist_rows(home: pa.Table) -> pa.Table:
    """map_batches kernel: ``home`` is a batch's points as ``BUILD`` rows
    exploded to their home cells; each point adds a ``PROBE`` replica in
    every other cell of its 3×3 neighbourhood."""
    home_cells = home["cell"].to_numpy().view(np.uint64)
    row_idx, cells = cell_neighbors(home_cells)
    away = cells != home_cells[row_idx]
    return pa.concat_tables([home, probe_replicas(home, row_idx[away], cells[away])])


class DistPairsWithinCell:
    """map_groups fn: emit (id_a, id_b, d2) for pairs within eps, where
    id_a < id_b and id_a is HOME (``BUILD``) in this cell (exactly-once
    rule).  Each distance matrix is one ``cells.row_chunks`` slice."""

    def __init__(self, eps: float):
        self.eps2 = float(eps) * float(eps)
        self.__name__ = type(self).__name__

    def __call__(self, group: pa.Table) -> pa.Table:
        home = group["side"].to_numpy() == BUILD
        x, y, pid = (group[c].to_numpy() for c in ("minx", "miny", "id"))
        hx, hy, hid = x[home], y[home], pid[home]
        # ids are unique and each point sits in a cell at most once (as
        # home or as replica), so no pair repeats and no dedup is needed
        outs = [OUT_SCHEMA.empty_table()]
        for rows in row_chunks(len(hid), len(pid)):
            cx, cy, cid = hx[rows], hy[rows], hid[rows]
            d2 = (cx[:, None] - x[None, :]) ** 2 + (cy[:, None] - y[None, :]) ** 2
            ai, bj = np.nonzero((d2 <= self.eps2) & (cid[:, None] < pid[None, :]))
            if len(ai):
                outs.append(
                    pa.table({"id_a": cid[ai], "id_b": pid[bj], "d2": d2[ai, bj].astype(np.int64)})
                )
        return pa.concat_tables(outs)


def dist_join_pipeline(points_ds, eps: float, res: int, id_col: str, x_col: str, y_col: str):
    check_eps_fits(res, eps)
    # bound when the plan is built, as in catalog/spatial.py::_cell_join
    from .cells import explode_to_cells

    def rows(b: pa.Table) -> pa.Table:
        x, y = b[x_col].to_numpy(), b[y_col].to_numpy()
        return prepare_dist_rows(explode_to_cells(side_table(BUILD, b[id_col], x, y, x, y), res))

    return points_ds.map_batches(rows, batch_format="pyarrow").groupby("cell").map_groups(
        DistPairsWithinCell(eps), batch_format="pyarrow"
    )
