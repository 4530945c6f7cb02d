"""Process-wide Ray Data execution tuning for this engine.

One idempotent entry point, ``tune_data_context()``, applied at import
of the ``pipelines`` package (pipelines/__init__.py) so every
surface that builds a Dataset — the driver's ``__ray_entry__``, bench.py,
tools/check_oracle.py, the stress scripts, and the test suite — runs with
the same execution profile; and ``read_parquet()``, the engine's one
parquet reader, which sizes each read's blocks (see "Block policy").

Why ``op_resource_reservation_enabled = False``: Ray Data ≥2.10 reserves
``op_resource_reservation_ratio`` (default 0.5) of the cluster's CPUs and
splits the reservation evenly across the plan's operators, so a 3-operator
pipeline guarantees each operator only ~1/6 of the cluster and lets them
compete for the rest.  That policy exists to keep a memory-hungry upstream
operator from starving downstream operators mid-stream.  This engine's
stages are compute-bound over small Arrow blocks (BASELINE.md: blocks are
~0.3 MB vs a 37 GiB object store), so the memory-starvation scenario the
reservation guards against cannot occur, while the CPU split is a measured
2× parallelism loss: on a 32-CPU box the flagship's fused map stage
(ReadRange→gen→footprints→TileJoinClip→RasterizePartial) ran 64 tasks
at an effective parallelism of ~12 of 32 CPUs (2.7 s wall) with the
reservation on, and ~30 of 32 (1.8 s wall) with it off.  That stage did
26 CPU-s of work then, most of it a per-clip rasterizer since replaced
by one scanline pass per batch (native C when the library loads, else
numpy), so it is cheaper today; the argument
rests only on its operators being CPU-bound over small blocks, which
still holds.  Greedy sharing (the pre-2.10 behavior) is the right
default for this workload shape.

At 100-TB scale the same logic holds per node: stages stream bounded
blocks through a large object store, and the streaming executor's
backpressure (target in-flight bytes) — which stays ON — is the mechanism
that bounds memory, not the CPU reservation split.

Block policy: this module is the one place the engine decides how many
blocks a source has; engine code never passes ``override_num_blocks`` or
a block count of its own.  Parquet sources go through ``read_parquet``,
which sizes them by their bytes: with B the uncompressed bytes of the
selected columns, summed from the parquet footers, a read gets
``min(2 × cluster CPUs, max(1, ceil(B / target_min_block_size)))``
blocks, ``target_min_block_size`` being Ray's own 1 MiB setting.  So a
sub-MiB table is one block, a table of a few MiB one block per MiB, and
a table of 2 × CPUs MiB or more two blocks per CPU; Ray still splits any
block that would pass ``target_max_block_size``.  ``rd.range`` and
``from_items`` sources, whose generated size is unknown, keep
``read_op_min_num_blocks = 1``: Ray's read planner
(``_autodetect_parallelism``) then gives them
``max(min(1, bytes / target_min_block_size), bytes / target_max_block_size,
2 × cluster CPUs)``, two blocks per CPU of the live cluster.

Why not more: Ray's default floor of 200 blocks, cut to one block per
MiB, split the 48 MB benchmark image table into 45 blocks, and a
hard-coded 32 split every catalog read.  Every fused map stage then ran
one task per block and every sort shuffle moved blocks² pieces, so Ray's
per-task cost (~25 ms of CPU each) outweighed the work: at 2 CPUs, 85%
of the flagship's CPU was outside the engine's own stages.  Two blocks
per CPU keeps every CPU busy on each map stage of a large table at any
cluster size; the sweep of {1, 2, 4, 8} blocks per CPU behind that, and
the per-task floor of an identity ``map_batches`` chain, are in
BASELINE.md ("Block policy sweep").

Why fewer for small tables: every block becomes one task in each
operator downstream.  At 2 Ray CPUs, polyjoin's 8 KB ``supplier`` read
and 240 KB ``part`` read each became 4 blocks, so its explode ran 8
tasks and its sort shuffle and ``map_groups`` join 8 partitions each,
and 0.95 of its ~1.5 CPU-s per run was Ray's own fixed cost
(``ray.unattributed_s``, traced at seed 2001).  At one block per side
Ray fuses each explode into its read, the shuffle and the join run 2
partitions, ``ray.unattributed_s`` falls to 0.36 s and polyjoin's CPU
per row by 46% (10 alternating pairs, 4-core box), with the same pairs
and the same exchanged rows.  The 48 MB tiles table keeps exactly its
plan (1 read task split into 4 blocks at 2 CPUs).  The price: a
shuffle's partitions follow its input blocks, so a join whose sub-MiB
sources explode into many MiB of rows runs in as many tasks as it has
source blocks, whatever the cluster size.
"""

from __future__ import annotations

import math

_APPLIED = False


def tune_data_context() -> None:
    """Apply the engine's DataContext execution profile (idempotent)."""
    global _APPLIED
    if _APPLIED:
        return
    try:
        from ray.data import DataContext
    except ImportError:  # pragma: no cover - ray always present in CI
        return
    ctx = DataContext.get_current()
    ctx.op_resource_reservation_enabled = False
    ctx.read_op_min_num_blocks = 1
    _APPLIED = True


def read_parquet(path: str, columns=None):
    """The engine's one parquet reader: ``ray.data.read_parquet`` of
    ``path`` (a file or a directory of files) with ``columns``, in
    ``min(2 × cluster CPUs, max(1, ceil(B / target_min_block_size)))``
    blocks, B the uncompressed bytes of those columns from the footers.
    Footers stop being read once B reaches the cap, so a dataset of many
    files reads only a few of them."""
    import pyarrow.dataset as pads
    import ray
    import ray.data as rd
    from ray._private.auto_init_hook import auto_init_ray
    from ray.data import DataContext

    auto_init_ray()  # as every ray.data read does, so the cluster has a size
    most = 2 * int(ray.cluster_resources().get("CPU", 1))
    per_block = DataContext.get_current().target_min_block_size
    cap = most * per_block
    # a nested column's chunks are its leaves, e.g. ``embedding.list.element``
    prefixes = None if columns is None else tuple(f"{c}." for c in columns)
    size = 0
    for fragment in pads.dataset(path, format="parquet").get_fragments():
        meta = fragment.metadata
        for i in range(meta.num_row_groups):
            row_group = meta.row_group(i)
            for j in range(row_group.num_columns):
                chunk = row_group.column(j)
                if prefixes is None or f"{chunk.path_in_schema}.".startswith(prefixes):
                    size += chunk.total_uncompressed_size
        if size >= cap:
            break
    blocks = min(most, max(1, math.ceil(size / per_block)))
    return rd.read_parquet(path, columns=columns, override_num_blocks=blocks)
