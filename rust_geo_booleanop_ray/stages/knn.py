"""Cell-partitioned k-nearest-neighbor lookup over footprint centroids.

PARTITIONING ASSUMPTION (documented per the custom-operator rule): a
query's k nearest neighbors lie within its 3×3 cell neighborhood at
``res``.  That holds when cell edge ≥ the k-th neighbor distance —
pick ``res`` so the expected per-cell population ≫ k.  Points farther
than one cell away are not considered (bounded-radius kNN, the
standard PBSM trade).

Plan shape, on the one cell-join layout (``cells.side_table``):
  1. one map_batches: every point → a ``BUILD`` row in its home cell;
     every query point → a ``PROBE`` row in each cell of its home
     cell's 3×3 neighbourhood (``cells.cell_neighbors``).
  2. groupby(cell).map_groups(KnnWithinCell) → per-cell top-k
     candidates (query_id, neighbor_id, dist).
  3. hash_exchange(query_id, TopKMerge) → global top-k per query.
A data point has one home cell and a query's neighbour cells are
distinct, so each (query, neighbor) candidate comes from exactly one
cell and the merge needs no dedup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .cells import BUILD, cell_neighbors, probe_replicas, row_chunks, side_table
from .exchange import hash_exchange
from .topk import topk_select

CAND_SCHEMA = pa.schema(
    [("query_id", pa.int64()), ("neighbor_id", pa.int64()), ("dist", pa.float64())]
)


def prepare_knn_rows(home: pa.Table, is_query=None) -> pa.Table:
    """map_batches kernel: ``home`` is a batch's points as ``BUILD`` rows
    exploded to their home cells; the query points among them
    (``is_query``, a boolean column aligned with ``home``; every point
    when None) add their ``PROBE`` replicas.

    Restricting WHICH points are queries keeps the replica explosion
    and the final per-query merge proportional to the query set, not
    the corpus; every point remains a candidate neighbor."""
    queries = home if is_query is None else home.filter(is_query)
    row_idx, cells = cell_neighbors(queries["cell"].to_numpy().view(np.uint64))
    return pa.concat_tables([home, probe_replicas(queries, row_idx, cells)])


class KnnWithinCell:
    """map_groups fn: per-cell top-k candidates of each query replica
    among the cell's home points, self-matches excluded.  Each distance
    matrix is one ``cells.row_chunks`` slice; ties break by
    (dist, neighbor_id)."""

    def __init__(self, k: int):
        self.k = k
        self.__name__ = type(self).__name__

    def __call__(self, group: pa.Table) -> pa.Table:
        is_point = group["side"].to_numpy() == BUILD
        if is_point.all() or not is_point.any():
            return CAND_SCHEMA.empty_table()
        x, y, ids = (group[c].to_numpy() for c in ("minx", "miny", "id"))
        qx, qy, qid = x[~is_point], y[~is_point], ids[~is_point]
        px, py, pid = x[is_point], y[is_point], ids[is_point]
        k = min(self.k, len(pid))
        out = []
        for rows in row_chunks(len(qid), len(pid)):
            cid = qid[rows]
            dist = np.sqrt((qx[rows, None] - px) ** 2 + (qy[rows, None] - py) ** 2)
            dist[cid[:, None] == pid] = np.inf
            # every candidate up to each row's k-th distance, ties
            # included, then the exact (dist, neighbor_id) top-k
            kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
            q, p = np.nonzero((dist <= kth) & np.isfinite(dist))
            keep, _ = topk_select(q, dist[q, p], pid[p], k, smallest=True)
            q, p = q[keep], p[keep]
            out.append(pa.table({"query_id": cid[q], "neighbor_id": pid[p], "dist": dist[q, p]}, schema=CAND_SCHEMA))
        return pa.concat_tables(out)


class TopKMerge:
    """hash_exchange kernel: per-cell candidates → global top-k per
    query, ranked by (dist, neighbor_id)."""

    def __init__(self, k: int):
        self.k = k
        self.__name__ = type(self).__name__

    def __call__(self, group: pa.Table) -> pa.Table:
        qid = group["query_id"].to_numpy()
        nid = group["neighbor_id"].to_numpy()
        dist = group["dist"].to_numpy()
        keep, rank = topk_select(qid, dist, nid, self.k, smallest=True)
        return pa.table(
            {"query_id": qid[keep], "neighbor_id": nid[keep], "dist": dist[keep], "rank": rank}
        )


def knn_pipeline(points_ds, k: int, res: int, id_col: str = "image_id", query_col: str | None = None):
    """Assemble the kNN plan over a Dataset with (id, cx, cy)."""
    # bound when the plan is built, as in catalog/spatial.py::_cell_join
    from .cells import explode_to_cells

    def rows(b: pa.Table) -> pa.Table:
        x, y = b["cx"].to_numpy(), b["cy"].to_numpy()
        home = explode_to_cells(side_table(BUILD, b[id_col], x, y, x, y), res)
        return prepare_knn_rows(home, None if query_col is None else b[query_col])

    cands = points_ds.map_batches(rows, batch_format="pyarrow").groupby("cell").map_groups(
        KnnWithinCell(k), batch_format="pyarrow"
    )
    return hash_exchange(cands, "query_id", TopKMerge(k))
