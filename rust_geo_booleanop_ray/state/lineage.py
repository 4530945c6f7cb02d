"""Per-partition lineage checkpoints + resume.

Resumability contract (SURVEY.md §7): partition contents are a pure
function of (input, config) — deterministic generators, stable cell
keys — so a completed partition can be skipped on re-run.  Layout:

    out_dir/
      part=<key>/part.parquet      (written to a tmp dir, then renamed)
      part=<key>/_lineage.json     (written AFTER the rename = commit)

``_lineage.json`` records the partition key, engine version, config
hash and the commit's metrics: rows, ``bytes`` of ``part.parquet``, and
the wall and CPU seconds of the writer's call (``wall_s``, ``cpu_s``).
``completed_partitions`` scans these manifests; ``PartitionCommitWriter``
is a map_groups writer that skips already-committed partitions (resume)
and commits atomically.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

ENGINE_VERSION = "0.1.0"


def completed_partitions(out_dir: str, config_hash: str | None = None) -> set:
    """Partition keys with a committed lineage manifest (and matching
    config hash, when given)."""
    done = set()
    if not os.path.isdir(out_dir):
        return done
    for name in os.listdir(out_dir):
        if not name.startswith("part="):
            continue
        lp = os.path.join(out_dir, name, "_lineage.json")
        if not os.path.isfile(lp):
            continue
        try:
            with open(lp) as f:
                meta = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if config_hash is not None and meta.get("config_hash") != config_hash:
            continue
        done.add(meta["part_key"])
    return done


class PartitionCommitWriter:
    """map_groups sink: one partition group → one committed directory.

    ``tail``, when given, turns the group into the rows to write; it
    runs only for a partition that is not committed yet.  Returns a
    one-row metrics table per partition (part_key, rows, skipped) so
    the pipeline stays a Dataset end-to-end.
    """

    def __init__(self, out_dir: str, part_col: str = "part", config_hash: str = "", tail=None):
        self.out_dir = out_dir
        self.part_col = part_col
        self.config_hash = config_hash
        self.tail = tail
        self.__name__ = type(self).__name__

    def __call__(self, group: pa.Table) -> pa.Table:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        part_key = group[self.part_col][0].as_py()
        part_dir = os.path.join(self.out_dir, f"part={part_key}")
        lineage = os.path.join(part_dir, "_lineage.json")

        if os.path.isfile(lineage):
            try:
                with open(lineage) as f:
                    meta = json.load(f)
                if meta.get("config_hash") == self.config_hash:
                    return self._metrics(part_key, meta.get("rows", 0), True)
            except (OSError, json.JSONDecodeError):
                pass  # broken manifest → rewrite

        rows = self.tail(group) if self.tail is not None else group
        os.makedirs(self.out_dir, exist_ok=True)
        tmp_dir = os.path.join(self.out_dir, f".tmp-{part_key}-{uuid.uuid4().hex[:8]}")
        os.makedirs(tmp_dir)
        pq.write_table(rows, os.path.join(tmp_dir, "part.parquet"))
        if os.path.isdir(part_dir):
            shutil.rmtree(part_dir)  # stale uncommitted leftovers
        os.rename(tmp_dir, part_dir)
        with open(lineage + ".tmp", "w") as f:
            json.dump(
                {
                    "part_key": part_key,
                    "rows": rows.num_rows,
                    "bytes": os.path.getsize(os.path.join(part_dir, "part.parquet")),
                    "wall_s": time.perf_counter() - wall0,
                    "cpu_s": time.process_time() - cpu0,
                    "engine_version": ENGINE_VERSION,
                    "config_hash": self.config_hash,
                },
                f,
            )
        os.rename(lineage + ".tmp", lineage)
        return self._metrics(part_key, rows.num_rows, False)

    @staticmethod
    def _metrics(part_key, rows: int, skipped: bool) -> pa.Table:
        return pa.table(
            {
                "part_key": pa.array([part_key]),
                "rows": pa.array([rows], pa.int64()),
                "skipped": pa.array([skipped], pa.bool_()),
            }
        )


def resumable_write(ds, out_dir: str, part_col: str = "part", config_hash: str = "", tail=None):
    """Filter out completed partitions, then groupby-commit the rest
    (``tail`` as in ``PartitionCommitWriter``).

    Returns the metrics Dataset (one row per partition written or
    skipped this run).  The pre-filter happens BEFORE the shuffle so a
    resumed run doesn't pay for finished partitions.
    """
    done = completed_partitions(out_dir, config_hash)
    if done:
        done_list = sorted(done)

        def drop_done(batch: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            mask = pc.is_in(batch[part_col], value_set=pa.array(done_list))
            return batch.filter(pc.invert(mask))

        ds = ds.map_batches(drop_done, batch_format="pyarrow")
    return ds.groupby(part_col).map_groups(
        PartitionCommitWriter(out_dir, part_col, config_hash, tail),
        batch_format="pyarrow",
    )
