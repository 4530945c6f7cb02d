"""The block policy: ``tuning.tune_data_context()`` alone decides how many
blocks a source has (two per CPU of the live cluster), engine code passes
no block count, and no output depends on how the input is split."""

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "rust_geo_booleanop_ray")


def _pieces(table: pa.Table, k: int) -> list:
    bounds = np.linspace(0, table.num_rows, k + 1).astype(int)
    return [table.slice(lo, hi - lo) for lo, hi in zip(bounds[:-1], bounds[1:])]


@pytest.fixture(scope="module")
def images():
    from rust_geo_booleanop_ray.sources.images import synth_image_batch

    return synth_image_batch(np.arange(2048) + 7 * 2048, seed=7)


def test_tile_pipeline_is_block_count_invariant(ray_session, images):
    """The flagship's tiles are the same whether the image table arrives
    in one block or in 45 (Ray's old split of the benchmark table)."""
    import ray.data as rd

    from rust_geo_booleanop_ray.pipelines.flagship import tile_pipeline

    outs = {}
    for k in (1, 2, 7, 45):
        ds = rd.from_arrow(_pieces(images, k))
        assert ds.num_blocks() == k
        tiles = tile_pipeline(tile_res=5, raster_px=16, images_ds=ds)
        batches = tiles.iter_batches(batch_format="pyarrow", batch_size=None)
        outs[k] = pa.concat_tables(batches).sort_by("tile_id")
    assert outs[1].num_rows > 0
    for k, table in outs.items():
        assert table.equals(outs[1]), f"{k} input blocks changed the tiles"


def test_sources_get_two_blocks_per_cpu(ray_session, images, tmp_path):
    """Parquet reads and synthetic range sources, even of one small file,
    split into exactly two blocks per cluster CPU."""
    import ray

    from rust_geo_booleanop_ray.pipelines.catalog._shared import _read
    from rust_geo_booleanop_ray.sources.images import read_image_table, read_synth_images

    want = 2 * int(ray.cluster_resources()["CPU"])
    pq.write_table(pa.table({"x": np.arange(4096)}), str(tmp_path / "t.parquet"))
    os.makedirs(tmp_path / "images")
    pq.write_table(images, str(tmp_path / "images" / "images.parquet"))

    assert _read(str(tmp_path), "t").materialize().num_blocks() == want
    assert read_image_table(str(tmp_path / "images")).materialize().num_blocks() == want
    assert read_synth_images(1024).materialize().num_blocks() == want


def test_engine_passes_no_block_count():
    """Block counts come from ``tune_data_context()`` only: no
    ``num_blocks=``, ``override_num_blocks=`` or ``parallelism=`` in
    the engine."""
    pattern = re.compile(r"(?<![\w.])(override_num_blocks|num_blocks|parallelism)\s*=(?!=)")
    offenders = []
    for root, _, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as f:
                for no, line in enumerate(f, 1):
                    if pattern.search(line):
                        offenders.append(f"{os.path.relpath(path, PACKAGE)}:{no}: {line.strip()}")
    assert offenders == []
