"""Benchmark entry point: one workload per process.

    python3 perfbench/run.py --workload {tiles,polyjoin,kernel} \\
        --seed N --seconds S --trace {0,1}

Set-up (inputs and expected outputs, Ray start, one untimed warm-up run)
is timed as ``setup_s``.  Then whole runs repeat for ``--seconds``; each
is checked against the expected output, and a run that raises, outlives
its limit or fails its check counts as failed.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` untraced and traced runs alternate and it carries the
per-layer metrics.  The line before it records the environment and the
per-run figures.  Metric names and units come from ``BENCHMARK.json``.

``BENCHMARK.json`` lists `tiles` and `polyjoin`.  `kernel` still runs
when named; its per-op times (``native.op_ms.*``) are also measured by a
traced pass over its eight ops after each traced `polyjoin` run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO_ROOT)

from perfbench import common, trace  # noqa: E402  (needs REPO_ROOT on the path)

PROCESS_BUDGET_S = 170.0  # a benchmark process must end within 180 s
SHUTDOWN_RESERVE_S = 15.0
RUN_LIMIT_S = 90.0  # a run that takes longer counts as hung


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["tiles", "polyjoin", "kernel"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class Harness:
    """Runs one workload: warm-up, timed runs, traced runs."""

    def __init__(self, args, workload, sampler, trace_session, probe=None):
        self.args = args
        self.workload = workload
        self.probe = probe  # a KernelWorkload passed over after each traced run
        self.sampler = sampler
        self.session = trace_session
        self.t_start = time.monotonic()
        self.runs: list = []  # timed runs only

    def left_s(self) -> float:
        return PROCESS_BUDGET_S - (time.monotonic() - self.t_start)

    def one_run(self, traced: bool, timed: bool = True, warm: bool = False) -> dict:
        """One whole run: wall, tree CPU, peak RSS, output check."""
        if traced:
            trace.install(self.session.trace_dir, driver=True)
            self.session.enable()
        rec = {"traced": traced, "ok": False}
        res = None
        self.sampler.take_peak_mb()
        cpu0 = self.sampler.cpu_by_role()
        t0 = time.perf_counter()
        try:
            res = common.call_with_limit(
                lambda: self.workload.run(warm=warm), min(RUN_LIMIT_S, self.left_s())
            )
            rec["wall_s"] = time.perf_counter() - t0
            cpu1 = self.sampler.cpu_by_role()
            rec["cpu_by_role"] = {k: v - cpu0.get(k, 0.0) for k, v in cpu1.items()}
            rec["cpu_s"] = sum(rec["cpu_by_role"].values())
            rec["peak_rss_mb"] = self.sampler.take_peak_mb()
            rec["rows"] = res["rows"]
            rec["first_batch_s"] = res["first_batch_s"]
            if traced:
                self.session.disable()
                trace.uninstall_driver_patches()
                rec["layers"] = self._layers(res, rec)
            reason = self.workload.check(res)
            rec["ok"] = reason is None
            if reason:
                rec["error"] = reason
                common.log(f"run failed its output check: {reason}")
        except common.RunTimeout as exc:
            rec["error"] = str(exc)
            common.log(str(exc))
        except Exception as exc:  # a failed run is counted, and the benchmark goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
            common.log_exception("run raised")
        finally:
            if traced:
                self.session.disable()
                trace.uninstall_driver_patches()
            self.workload.cleanup(res)
        if timed:
            self.runs.append(rec)
        return rec

    def _layers(self, res, rec) -> dict:
        spans = self.session.collect()
        stats = _stats_layers(res["dataset"]) if "dataset" in res else {}
        m = per_layer(trace.layer_totals(spans), stats, rec["cpu_s"])
        m.update(op_ms(spans))
        if self.probe is not None:
            probe_spans = self._probe()
            m.update(op_ms(probe_spans))
            m["native.fallbacks"] += trace.layer_totals(probe_spans).get("native.op", {}).get("fallbacks", 0)
        if m["native.fallbacks"]:
            common.log(f"{m['native.fallbacks']} native calls fell back to the Python kernel")
        return m

    def _probe(self) -> list:
        """One traced pass over the kernel's ops, outside the run's wall
        and CPU figures; its spans.  A wrong output raises."""
        trace.install(self.session.trace_dir, driver=True)
        self.session.enable()
        try:
            res = self.probe.run()
        finally:
            self.session.disable()
            trace.uninstall_driver_patches()
        reason = self.probe.check(res)
        if reason:
            raise RuntimeError(f"kernel pass: {reason}")
        return self.session.collect()

    def warm_up(self) -> None:
        rec = self.one_run(traced=False, timed=False, warm=True)
        if not rec["ok"]:
            raise RuntimeError(f"warm-up run failed: {rec.get('error')}")
        self.last_wall = rec["wall_s"]

    def measure(self) -> None:
        """Repeat runs for --seconds (at least one; alternating untraced
        and traced with --trace 1) while the process budget allows."""
        traced_next = False
        t_end = time.monotonic() + self.args.seconds
        while True:
            rec = self.one_run(traced=traced_next)
            self.last_wall = rec.get("wall_s", self.last_wall)
            if self.args.trace:
                traced_next = not traced_next
            done = time.monotonic() >= t_end and (not self.args.trace or not traced_next)
            if done or self.left_s() < 2 * self.last_wall + SHUTDOWN_RESERVE_S:
                return


def _stats_layers(ds) -> dict:
    """Read and exchange figures from Ray Data's own operator stats."""
    summary = ds._get_stats_summary()
    ops, todo = [], [summary]
    while todo:
        s = todo.pop()
        ops.extend(s.operators_stats)
        todo.extend(s.parents)
    out = {"read_s": 0.0, "read_bytes": 0, "exchange_s": 0.0, "exchange_rows": 0, "exchange_bytes": 0}

    def total(d):
        return d.get("sum", 0) if d else 0

    for op in ops:
        name = op.operator_name
        if name.startswith("Read"):
            out["read_s"] += total(op.wall_time)
            out["read_bytes"] += total(op.output_size_bytes)
        elif op.is_sub_operator and name.endswith(("Map", "Reduce")):
            out["exchange_s"] += total(op.wall_time)
            if name.endswith("Reduce"):
                out["exchange_rows"] += total(op.output_num_rows)
                out["exchange_bytes"] += total(op.output_size_bytes)
    return out


def per_layer(totals: dict, stats: dict, tree_cpu_s: float) -> dict:
    """The per-layer metrics of one traced run, ``native.op_ms.*`` aside;
    0 where a layer did no work."""

    def g(layer, key):
        return totals.get(layer, {}).get(key, 0)

    native_pairs = g("native", "rows_in")
    m = {
        "sources.read_s": stats.get("read_s", 0.0),
        "sources.bytes": stats.get("read_bytes", 0),
        "stages.footprint.busy_s": g("stages.footprint", "busy_s"),
        "stages.cells.busy_s": g("stages.cells", "busy_s"),
        "stages.cells.replication": _ratio(g("stages.cells", "rows_out"), g("stages.cells", "rows_in")),
        "stages.join_clip.self_s": g("stages.join_clip", "self_s"),
        "stages.join_clip.rows_in": g("stages.join_clip", "rows_in"),
        "stages.join_clip.rows_out": g("stages.join_clip", "rows_out"),
        "native.busy_s": g("native", "busy_s"),
        "native.calls": g("native", "calls"),
        "native.pairs": native_pairs,
        "native.us_per_pair": 1e6 * _ratio(g("native", "busy_s"), native_pairs),
        "native.empty_frac": _ratio(g("native", "empty"), native_pairs),
        "native.fallbacks": g("native", "fallbacks") + g("native.op", "fallbacks"),
        "stages.tiles.rasterize_s": g("stages.tiles.rasterize", "busy_s"),
        "stages.tiles.us_per_clip": 1e6 * _ratio(
            g("stages.tiles.rasterize", "busy_s"), g("stages.tiles.rasterize", "rows_in")
        ),
        "stages.tiles.merge_s": g("stages.tiles.merge", "busy_s"),
        "stages.tiles.vectorize_s": g("stages.tiles.vectorize", "busy_s"),
        "stages.tiles.partial_bytes": g("stages.tiles.rasterize", "bytes_out"),
        "exchange.wall_s": stats.get("exchange_s", 0.0),
        "exchange.rows": stats.get("exchange_rows", 0),
        "exchange.bytes": stats.get("exchange_bytes", 0),
        "state.lineage.write_s": g("state.lineage", "busy_s"),
        "state.lineage.partitions": g("state.lineage", "written"),
        "state.lineage.bytes": g("state.lineage", "bytes_out"),
    }
    attributed = (
        sum(t["self_s"] for t in totals.values())
        + stats.get("read_s", 0.0)
        + stats.get("exchange_s", 0.0)
    )
    m["ray.unattributed_s"] = tree_cpu_s - attributed
    return m


def op_ms(spans: list) -> dict:
    """Median milliseconds per call of each kernel op; 0 for an op not run."""
    from perfbench.kernel import fixture_names

    out = {}
    for name in fixture_names():
        durations = [s["end"] - s["start"] for s in spans if s["layer"] == f"kernel.{name}"]
        out[f"native.op_ms.{name}"] = 1e3 * _median(durations)
    return out


def end_to_end(h: Harness, setup_s: float) -> dict:
    ok = [r for r in h.runs if r["ok"] and not r["traced"]] or [r for r in h.runs if "wall_s" in r]
    return {
        "rows_per_s": _median([r["rows"] / r["wall_s"] for r in ok]),
        "cpu_s_per_krow": _median([1e3 * r["cpu_s"] / r["rows"] for r in ok if r["rows"]]),
        "first_batch_s": _median([r["first_batch_s"] for r in ok if r["first_batch_s"] is not None]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        "setup_s": setup_s,
    }


def layers_summary(h: Harness) -> dict:
    traced = [r for r in h.runs if r["traced"] and "layers" in r]
    plain = [r["wall_s"] for r in h.runs if not r["traced"] and "wall_s" in r]
    out = {}
    for key in traced[0]["layers"] if traced else ():
        v = statistics.fmean(r["layers"][key] for r in traced)
        out[key] = int(v) if v.is_integer() else v  # counts print as integers
    out["trace.overhead_frac"] = (
        _median([r["wall_s"] for r in traced]) / _median(plain) - 1.0 if traced and plain else 0.0
    )
    return out


def _make_workload(name: str, seed: int, work_dir: str):
    if name == "tiles":
        from perfbench.tiles import TilesWorkload

        return TilesWorkload(seed, work_dir, REPO_ROOT)
    if name == "polyjoin":
        from perfbench.polyjoin import PolyjoinWorkload

        return PolyjoinWorkload(seed, work_dir)
    from perfbench.kernel import KernelWorkload

    return KernelWorkload(seed, REPO_ROOT)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import duckdb  # noqa: F401
        import numpy  # noqa: F401
        import pyarrow  # noqa: F401
        import ray  # noqa: F401

        import rust_geo_booleanop_ray  # noqa: F401
    except ImportError as exc:
        common.log(f"cannot import the engine or its dependencies: {exc}")
        return 2

    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    work_root = os.path.join(REPO_ROOT, ".bench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    sampler = common.TreeSampler().start()
    workload = _make_workload(args.workload, args.seed, work_dir)
    session = trace.Session(os.path.join(work_dir, "trace")) if args.trace else None
    probe = None
    if args.trace and args.workload == "polyjoin":
        from perfbench.kernel import KernelWorkload

        probe = KernelWorkload(args.seed, REPO_ROOT)
    h = Harness(args, workload, sampler, session, probe)
    env = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    ray_session_dir = None
    try:
        setups = []
        # set-up repeats when it is cheap (no Ray); the median is reported
        for _ in range(1 if workload.uses_ray else 3):
            t0 = time.perf_counter()
            workload.begin()
            if workload.uses_ray and not ray.is_initialized():
                env.update(common.start_ray(REPO_ROOT, work_root, session and session.trace_dir))
                ray_session_dir = ray._private.worker._global_node.get_session_dir_path()
            workload.setup()
            h.warm_up()
            setups.append(time.perf_counter() - t0)
        if probe is not None:
            probe.setup()
        env.setdefault("ray_num_cpus", 0)
        env.update(common.environment(REPO_ROOT))
        h.measure()
    except Exception:
        common.log_exception("benchmark failed")
        return 1
    finally:
        workload.close()
        if workload.uses_ray:
            common.stop_ray(sampler)
        sampler.stop()
        if ray_session_dir:
            shutil.rmtree(ray_session_dir, ignore_errors=True)
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        values = layers_summary(h)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(h, _median(setups))
        wanted = spec["end_to_end"]
    failed = sum(not r["ok"] for r in h.runs)
    result = {
        "correct": failed == 0,
        "attempted": len(h.runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    env["setup_s"] = setups
    env["runs"] = [
        {k: r.get(k) for k in ("traced", "ok", "wall_s", "cpu_s", "cpu_by_role", "first_batch_s",
                               "peak_rss_mb", "rows", "error")}
        for r in h.runs
    ]
    print(json.dumps(env, separators=(",", ":")))
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
