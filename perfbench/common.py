"""Shared pieces of the benchmark: the process-tree sampler, Ray start and
stop, the per-run time limit, output digests and the environment record."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time
import traceback

RAY_NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 2**20
# Unix socket paths are limited to 107 bytes; Ray puts its sockets about
# 65 characters below its temp dir.
_MAX_RAY_TEMP_DIR = 40

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------- process tree


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read()
    except OSError:  # the process exited between listing and reading
        return None


def _proc_table() -> dict:
    """pid -> (ppid, cpu ticks) for every live process in /proc; zombies
    (exited, not yet reaped) are left out."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        stat = _read(f"/proc/{name}/stat")
        if stat is None:
            continue
        # the command name may hold spaces and parentheses: split after it
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] == "Z":
            continue
        table[int(name)] = (int(fields[1]), int(fields[11]) + int(fields[12]))
    return table


def _rss_anon_kb(pid: int) -> int:
    status = _read(f"/proc/{pid}/status")
    if status is None:
        return 0
    for line in status.splitlines():
        if line.startswith("RssAnon:"):
            return int(line.split()[1])
    return 0


def _role(pid: int, root: int) -> str:
    if pid == root:
        return "driver"
    argv = (_read(f"/proc/{pid}/cmdline") or "").split("\0")
    if argv[0].startswith("ray::") or any(a.endswith("default_worker.py") for a in argv[:3]):
        return "workers"
    for role in ("raylet", "gcs_server"):
        if argv[0].endswith(f"/{role}"):
            return role
    return "other"


class TreeSampler:
    """Samples the CPU time and summed ``RssAnon`` of this process and all
    of its descendants (raylet, GCS, workers) from one thread.

    ``RssAnon`` leaves out the shared-memory object store, so it is not
    counted once per process that maps it.  CPU time of a process that
    exits stays counted at its last sampled value.
    """

    def __init__(self, interval: float = 0.2):
        self.root = os.getpid()
        self.interval = interval
        self._lock = threading.Lock()
        self._cpu_ticks: dict = {}
        self._roles: dict = {}
        self._pids: list = []
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="tree-sampler", daemon=True)

    def start(self) -> "TreeSampler":
        self.sample()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> None:
        table = _proc_table()
        children: dict = {}
        for pid, (ppid, _) in table.items():
            children.setdefault(ppid, []).append(pid)
        tree, todo = [], [self.root]
        while todo:
            pid = todo.pop()
            if pid in table:
                tree.append(pid)
                todo.extend(children.get(pid, ()))
        rss = sum(_rss_anon_kb(pid) for pid in tree)
        new_roles = {pid: _role(pid, self.root) for pid in tree if pid not in self._roles}
        with self._lock:
            self._roles.update(new_roles)
            for pid in tree:
                self._cpu_ticks[pid] = max(self._cpu_ticks.get(pid, 0), table[pid][1])
            self._pids = tree
            self._peak_kb = max(self._peak_kb, rss)

    def cpu_by_role(self) -> dict:
        """CPU seconds so far, split into driver, raylet, GCS, workers, other."""
        self.sample()
        out: dict = {}
        with self._lock:
            for pid, ticks in self._cpu_ticks.items():
                role = self._roles.get(pid, "other")
                out[role] = out.get(role, 0.0) + ticks / _CLK_TCK
        return out

    def take_peak_mb(self) -> float:
        """Peak summed RssAnon since the last call, in MiB; resets the peak."""
        self.sample()
        with self._lock:
            peak, self._peak_kb = self._peak_kb, 0
        return peak / 1024.0

    def descendants(self) -> list:
        self.sample()
        with self._lock:
            return [p for p in self._pids if p != self.root]


# ------------------------------------------------------------------- Ray


def ray_temp_dir(work_root: str) -> str | None:
    """Ray's temp dir inside the checkout, or None (Ray's default) when
    the path is too long for Ray's Unix sockets."""
    path = os.path.join(work_root, "ray")
    return path if len(path) <= _MAX_RAY_TEMP_DIR else None


def start_ray(repo_root: str, work_root: str, trace_dir: str | None = None) -> dict:
    """Start a local Ray with a fixed CPU count.  Workers import the
    engine and this benchmark from ``repo_root`` whatever their cwd."""
    import ray

    pythonpath = os.pathsep.join(
        p for p in (repo_root, os.environ.get("PYTHONPATH", "")) if p
    )
    runtime_env: dict = {"env_vars": {"PYTHONPATH": pythonpath}}
    if trace_dir is not None:
        from . import trace

        runtime_env["env_vars"][trace.TRACE_DIR_ENV] = trace_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.worker_setup"
    temp_dir = ray_temp_dir(work_root)
    ray.init(
        num_cpus=RAY_NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        runtime_env=runtime_env,
        _temp_dir=temp_dir,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return {"ray_num_cpus": RAY_NUM_CPUS, "ray_temp_dir": temp_dir or "default"}


def stop_ray(sampler: TreeSampler, timeout: float = 30.0) -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import signal

    import ray

    if ray.is_initialized():
        ray.shutdown()
    _reap_children()
    deadline = time.monotonic() + timeout
    while True:
        left = sampler.descendants()
        if not left:
            return
        if time.monotonic() > deadline:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5
        time.sleep(0.1)
        _reap_children()


def _reap_children() -> None:
    """Collect exit statuses of children Ray started and did not wait for."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


# ------------------------------------------------------------- run limits


class RunTimeout(Exception):
    pass


def call_with_limit(fn, limit_s: float):
    """Run ``fn()`` in a daemon thread; raise RunTimeout after ``limit_s``.

    A run that hangs is abandoned, not killed: it counts as one failed
    run and the benchmark goes on.
    """
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised in the caller's thread
            box["error"] = exc

    thread = threading.Thread(target=target, name="bench-run", daemon=True)
    thread.start()
    thread.join(limit_s)
    if thread.is_alive():
        raise RunTimeout(f"run exceeded its {limit_s:.0f} s limit")
    if "error" in box:
        raise box["error"]
    return box["value"]


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def log_exception(what: str) -> None:
    log(f"{what}:\n{traceback.format_exc()}")


# ---------------------------------------------------------------- digests


def _column_digest(h, arr) -> None:
    """Feed one Arrow column into ``h`` canonically: nested lists as
    their per-level lengths plus leaf values, independent of chunking
    and of list vs fixed-size-list encoding."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    while pa.types.is_list(arr.type) or pa.types.is_fixed_size_list(arr.type):
        lengths = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
        h.update(np.asarray(lengths, dtype=np.int64).tobytes())
        arr = pc.list_flatten(arr)
    if not (pa.types.is_integer(arr.type) or pa.types.is_floating(arr.type)):
        raise TypeError(f"cannot digest a column of {arr.type}")
    h.update(arr.to_numpy(zero_copy_only=False).tobytes())


def table_digest(table, sort_keys) -> str:
    """sha256 of a table's rows sorted by ``sort_keys``, columns by name."""
    table = table.sort_by([(k, "ascending") for k in sort_keys])
    h = hashlib.sha256()
    for name in sorted(table.column_names):
        h.update(name.encode())
        _column_digest(h, table[name])
    return h.hexdigest()


# ------------------------------------------------------------ environment


def _tree_sha256(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def environment(repo_root: str) -> dict:
    """What the numbers depend on, recorded with every result."""
    import ray

    from rust_geo_booleanop_ray.native import native_available

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo_root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": sha,
        "engine_src_sha256": _tree_sha256(os.path.join(repo_root, "rust_geo_booleanop_ray")),
        "ray_version": ray.__version__,
        "native_available": native_available(),
        "python": sys.version.split()[0],
    }
