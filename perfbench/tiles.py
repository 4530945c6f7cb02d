"""`tiles`: the flagship job, `tile_pipeline_resumable(tile_res=5,
raster_px=16)` over a seeded 40,000-image table.

An image's footprint is a function of its index, so the seed picks the
index range (`seed * 40,000` onwards) as well as the pixels.

Set-up writes the image table to parquet, so the synthetic generator
stays out of the timed path.  A child process generates the images,
writes the table and runs the same stage functions on them without Ray,
which gives the expected tiles; it runs while Ray starts.  The warm-up
reads a small table of the first 2,048 images, written and replayed by a
second child: it starts the workers and loads every stage in them at a
fraction of a full run's cost.  Every run writes to a fresh directory,
which is checked and deleted afterwards: the pipeline skips committed
partitions, so a reused directory would turn later runs into a resume of
nothing.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import time
import uuid

from .common import table_digest

N_IMAGES = 40_000
N_WARM_IMAGES = 2_048
TILE_RES = 5
RASTER_PX = 16
PART_STEPS = 2  # lineage partitions are tiles' parent cells two levels up
GEN_BATCH = 4096


class TilesWorkload:
    name = "tiles"
    uses_ray = True

    def __init__(self, seed: int, work_dir: str, repo_root: str):
        self.seed = seed
        self.work_dir = work_dir
        self.repo_root = repo_root
        self.tables = {
            False: (os.path.join(work_dir, "images"), N_IMAGES),
            True: (os.path.join(work_dir, "images-warm"), N_WARM_IMAGES),
        }
        self._children: dict = {}  # table dir -> replay process
        self.expected: dict = {}  # table dir -> replay result

    # ------------------------------------------------------------ set-up

    def begin(self) -> None:
        """Start the children that write the tables and replay them."""
        for path, n in self.tables.values():
            self._children[path] = subprocess.Popen(
                [sys.executable, "-m", "perfbench.tiles", str(self.seed), str(n), path],
                cwd=self.repo_root,
                env={**os.environ, "PYTHONPATH": self.repo_root},
                stdout=subprocess.PIPE,
            )

    def setup(self) -> None:
        """Wait until both tables are written and replayed."""
        for path, _ in self.tables.values():
            self._expected(path)

    def _expected(self, path: str) -> dict:
        """The replay's digest, tile count and partition count for a table."""
        if path not in self.expected:
            child = self._children[path]
            out, _ = child.communicate()
            if child.returncode != 0:
                raise RuntimeError(f"single-process replay exited with {child.returncode}")
            self.expected[path] = json.loads(out)
        return self.expected[path]

    def close(self) -> None:
        for child in self._children.values():
            if child.poll() is None:
                child.kill()
            child.wait()

    # --------------------------------------------------------------- run

    def run(self, warm: bool = False) -> dict:
        from rust_geo_booleanop_ray.pipelines.flagship import tile_pipeline_resumable
        from rust_geo_booleanop_ray.sources.images import read_image_table

        images, n_images = self.tables[warm]
        out_dir = os.path.join(self.work_dir, f"tiles-{uuid.uuid4().hex[:8]}")
        t0 = time.perf_counter()
        ds = tile_pipeline_resumable(
            out_dir,
            n_images=n_images,
            tile_res=TILE_RES,
            raster_px=RASTER_PX,
            seed=self.seed,
            images_ds=read_image_table(images),
        )
        first = None
        written = skipped = 0
        for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            if first is None:
                first = time.perf_counter() - t0
            flags = batch["skipped"].to_pylist()
            skipped += sum(flags)
            written += len(flags) - sum(flags)
        return {
            "rows": n_images,
            "first_batch_s": first,
            "dataset": ds,
            "images": images,
            "out_dir": out_dir,
            "written": written,
            "skipped": skipped,
        }

    def check(self, res: dict) -> str | None:
        import pyarrow as pa
        import pyarrow.parquet as pq

        want = self._expected(res["images"])
        if res["skipped"] or res["written"] != want["parts"]:
            return (f"{res['written']} partitions written, {res['skipped']} skipped; "
                    f"expected {want['parts']} written")
        out_dir = res["out_dir"]
        manifest_rows = 0
        for path in glob.glob(os.path.join(out_dir, "part=*", "_lineage.json")):
            with open(path) as f:
                manifest_rows += json.load(f)["rows"]
        if manifest_rows != want["tiles"]:
            return f"lineage manifests list {manifest_rows} rows, expected {want['tiles']} tiles"
        tiles = pa.concat_tables(
            pq.read_table(p) for p in sorted(glob.glob(os.path.join(out_dir, "part=*", "part.parquet")))
        ).select(["tile_id", "geom", "coverage_fraction"])
        if table_digest(tiles, ["tile_id"]) != want["digest"]:
            return "tile digest differs from the single-process replay"
        return None

    def cleanup(self, res: dict | None) -> None:
        for path in glob.glob(os.path.join(self.work_dir, "tiles-*")):
            shutil.rmtree(path, ignore_errors=True)


def _first_index(seed: int) -> int:
    return seed * N_IMAGES


def write_and_replay(seed: int, n_images: int, out_dir: str) -> dict:
    """Generate ``n_images`` images, write them as a parquet table in
    ``out_dir``, and run the pipeline's stage functions on them in this
    process, without Ray."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rust_geo_booleanop_ray.sources.images import synth_image_batch
    from rust_geo_booleanop_ray.stages.cells import cell_parent
    from rust_geo_booleanop_ray.stages.footprint import derive_footprints
    from rust_geo_booleanop_ray.stages.join_clip import TileJoinClip
    from rust_geo_booleanop_ray.stages.tiles import (
        RasterizePartial,
        merge_rasters,
        vectorize_tiles_batch,
    )

    first = _first_index(seed)
    images = [
        synth_image_batch(np.arange(lo, min(lo + GEN_BATCH, n_images)) + first, seed)
        for lo in range(0, n_images, GEN_BATCH)
    ]
    os.makedirs(out_dir, exist_ok=True)
    pq.write_table(pa.concat_tables(images), os.path.join(out_dir, "images.parquet"))

    clip = TileJoinClip(TILE_RES, mode="exact")
    rasterize = RasterizePartial(RASTER_PX)
    partials = pa.concat_tables([rasterize(clip(derive_footprints(b))) for b in images]).sort_by("tile_id")
    tile_ids = partials["tile_id"].to_numpy()
    starts = np.flatnonzero(np.r_[True, tile_ids[1:] != tile_ids[:-1]])
    ends = np.r_[starts[1:], len(tile_ids)]
    merged = pa.concat_tables(
        merge_rasters(partials.slice(s, e - s)) for s, e in zip(starts, ends)
    )
    tiles = vectorize_tiles_batch(merged)
    parts = np.unique(cell_parent(tiles["tile_id"].to_numpy().view(np.uint64), PART_STEPS))
    return {"digest": table_digest(tiles, ["tile_id"]), "tiles": tiles.num_rows, "parts": len(parts)}


if __name__ == "__main__":
    print(json.dumps(write_and_replay(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3])))
