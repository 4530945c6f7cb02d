"""Process-wide Ray Data execution tuning for this engine.

One idempotent entry point, ``tune_data_context()``, applied at import
of the pipeline modules (pipelines.queries, pipelines.flagship) so every
surface that builds a Dataset — the driver's ``__ray_entry__``, bench.py,
tools/check_oracle.py, the stress scripts, and the test suite — runs with
the same execution profile.

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
by one scanline pass per batch, so it is cheaper today; the argument
rests only on its operators being CPU-bound over small blocks, which
still holds.  Greedy sharing (the pre-2.10 behavior) is the right
default for this workload shape.

At 100-TB scale the same logic holds per node: stages stream bounded
blocks through a large object store, and the streaming executor's
backpressure (target in-flight bytes) — which stays ON — is the mechanism
that bounds memory, not the CPU reservation split.
"""

from __future__ import annotations

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
    _APPLIED = True
