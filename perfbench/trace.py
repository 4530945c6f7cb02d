"""Spans around calls into the engine's layers, for the traced run.

The wrappers live here, in the benchmark, not in the engine.  Each one
patches a name where its caller looks it up:

* Names a plan captures on the Ray driver when it is built (``flagship``
  binds ``derive_footprints``, ``merge_rasters`` and
  ``vectorize_tiles_batch`` at import; ``q_poly_join_big`` imports
  ``explode_to_cells`` and ``join_cells_within_group_dedup`` while it
  builds) are replaced by a picklable ``TracedFn`` before the plan is
  built; the plan ships the wrapper to the workers.
* Names looked up in the worker at call time (the stage classes'
  ``__call__`` and ``native.native_boolean_batch``) are patched in every
  worker by Ray's ``worker_process_setup_hook`` (``worker_setup``).

A span records layer, pid, batch id (the outermost span of the call in
that process), start, end, parent span, rows in and out, bytes out and a
few layer counters.  Spans are kept in memory and appended to
``<trace dir>/spans-<pid>.jsonl`` when the outermost call returns.
Recording is on only while ``<trace dir>/on`` exists, so the same worker
pool serves the untraced comparison runs.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_PKG = "rust_geo_booleanop_ray"

# (layer, module, attribute) patched on the Ray driver before a plan is built
DRIVER_PATCHES = [
    ("stages.footprint", f"{_PKG}.pipelines.flagship", "derive_footprints"),
    ("stages.tiles.merge", f"{_PKG}.pipelines.flagship", "merge_rasters"),
    ("stages.tiles.vectorize", f"{_PKG}.pipelines.flagship", "vectorize_tiles_batch"),
    ("stages.cells", f"{_PKG}.stages.cells", "explode_to_cells"),
    ("stages.join_clip", f"{_PKG}.stages.join_clip", "join_cells_within_group_dedup"),
    ("native.op", f"{_PKG}.native", "native_boolean_op"),
]
# (layer, module, attribute) patched in every process, workers included
WORKER_PATCHES = [
    ("stages.join_clip", f"{_PKG}.stages.join_clip", "TileJoinClip.__call__"),
    ("stages.tiles.rasterize", f"{_PKG}.stages.tiles", "RasterizePartial.__call__"),
    ("state.lineage", f"{_PKG}.state.lineage", "PartitionCommitWriter.__call__"),
    ("native", f"{_PKG}.native", "native_boolean_batch"),
]


class Recorder:
    """Per-process span buffer; one per traced process."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.flag = os.path.join(trace_dir, "on")
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.lock = threading.Lock()
        self.buffer: list = []

    def enabled(self) -> bool:
        return os.path.exists(self.flag)

    def stack(self) -> list:
        s = getattr(self.local, "stack", None)
        if s is None:
            s = self.local.stack = []
        return s

    def add(self, span: dict, outermost: bool) -> None:
        with self.lock:
            self.buffer.append(span)
            if not outermost:
                return
            lines, self.buffer = self.buffer, []
        path = os.path.join(self.trace_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write("".join(json.dumps(s, separators=(",", ":")) + "\n" for s in lines))


_recorder: Recorder | None = None
_originals: dict = {}


def _resolve(module: str, attr: str):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _counts(layer: str, args, out) -> dict:
    """Rows in/out, bytes out and layer counters for one call."""
    import pyarrow as pa

    if layer == "native":
        import pyarrow.compute as pc

        if out is None:
            return {"rows_in": len(args[0]), "fallbacks": 1}
        lengths = pc.list_value_length(out).to_numpy(zero_copy_only=False)
        return {
            "rows_in": len(args[0]),
            "rows_out": len(out),
            "bytes_out": out.nbytes,
            "empty": int((lengths == 0).sum()),
        }
    batch = next((a for a in args if isinstance(a, pa.Table)), None)
    if batch is None:
        # one boolean op on Python multipolygons
        return {"rows_in": 1, "fallbacks": int(out is None)}
    c = {"rows_in": batch.num_rows, "rows_out": out.num_rows, "bytes_out": out.nbytes}
    if layer == "state.lineage":
        writer = args[0]
        written = [k for k, s in zip(out["part_key"].to_pylist(), out["skipped"].to_pylist()) if not s]
        c["written"] = len(written)
        c["skipped"] = out.num_rows - len(written)
        c["bytes_out"] = sum(
            os.path.getsize(os.path.join(writer.out_dir, f"part={k}", "part.parquet")) for k in written
        )
    return c


def traced_call(layer: str, fn, args, kwargs=None):
    """Call ``fn(*args)``, recording a span when tracing is on."""
    kwargs = kwargs or {}
    rec = _recorder
    if rec is None or not rec.enabled():
        return fn(*args, **kwargs)
    stack = rec.stack()
    parent = stack[-1] if stack else 0
    batch = stack[0] if stack else None
    sid = next(rec.ids)
    stack.append(sid)
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    finally:
        end = time.perf_counter()
        stack.pop()
    span = {
        "layer": layer,
        "pid": os.getpid(),
        "span": sid,
        "parent": parent,
        "batch": batch if batch is not None else sid,
        "start": start,
        "end": end,
    }
    span.update(_counts(layer, args, out))
    rec.add(span, outermost=not stack)
    return out


class TracedFn:
    """Picklable stand-in for a module-level function.  The original is
    looked up by name in whichever process calls it."""

    def __init__(self, layer: str, module: str, attr: str):
        self.layer = layer
        self.module = module
        self.attr = attr
        self.__name__ = attr

    def _original(self):
        # the Ray driver keeps the original aside; a worker never patches
        # these names, so its module attribute is the original
        fn = _originals.get((self.module, self.attr))
        return fn if fn is not None else _resolve(self.module, self.attr)

    def __call__(self, *args, **kwargs):
        return traced_call(self.layer, self._original(), args, kwargs)


def _method_wrapper(layer: str, fn):
    def traced(*args, **kwargs):
        return traced_call(layer, fn, args, kwargs)

    traced.__name__ = fn.__name__
    traced._perfbench_layer = layer
    return traced


def _patch(layer: str, module: str, attr: str) -> None:
    owner_path, _, name = attr.rpartition(".")
    owner = _resolve(module, owner_path) if owner_path else importlib.import_module(module)
    current = getattr(owner, name)
    if isinstance(current, TracedFn) or hasattr(current, "_perfbench_layer"):
        return
    _originals[(module, attr)] = current
    wrapper = _method_wrapper(layer, current) if owner_path else TracedFn(layer, module, attr)
    setattr(owner, name, wrapper)


def install(trace_dir: str, driver: bool) -> None:
    """Patch this process.  ``driver`` (the Ray driver) adds the plan-time patches."""
    global _recorder
    if _recorder is None:
        _recorder = Recorder(trace_dir)
    for spec in WORKER_PATCHES + (DRIVER_PATCHES if driver else []):
        _patch(*spec)


def uninstall_driver_patches() -> None:
    """Restore the plan-time names, so plans built next are untraced."""
    for layer, module, attr in DRIVER_PATCHES:
        orig = _originals.pop((module, attr), None)
        if orig is not None:
            setattr(importlib.import_module(module), attr, orig)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: patch the call-time names."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir:
        install(trace_dir, driver=False)


class Session:
    """Driver-side control of one trace directory."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        os.makedirs(trace_dir, exist_ok=True)

    def enable(self) -> None:
        open(os.path.join(self.trace_dir, "on"), "w").close()

    def disable(self) -> None:
        try:
            os.remove(os.path.join(self.trace_dir, "on"))
        except FileNotFoundError:
            pass

    def collect(self) -> list:
        """Read and remove every span written so far."""
        spans = []
        for name in sorted(os.listdir(self.trace_dir)):
            if name.startswith("spans-"):
                path = os.path.join(self.trace_dir, name)
                with open(path) as f:
                    spans.extend(json.loads(line) for line in f if line.strip())
                os.remove(path)
        return spans


def layer_totals(spans: list) -> dict:
    """layer -> summed busy (wall) seconds, self seconds (busy minus
    direct children), calls and every counter the spans carry."""
    child_s: dict = {}
    for s in spans:
        if s["parent"]:
            key = (s["pid"], s["parent"])
            child_s[key] = child_s.get(key, 0.0) + (s["end"] - s["start"])
    totals: dict = {}
    for s in spans:
        t = totals.setdefault(s["layer"], {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        dur = s["end"] - s["start"]
        t["busy_s"] += dur
        t["self_s"] += dur - child_s.get((s["pid"], s["span"]), 0.0)
        t["calls"] += 1
        for k, v in s.items():
            if k not in ("layer", "pid", "span", "parent", "batch", "start", "end"):
                t[k] = t.get(k, 0) + v
    return totals
