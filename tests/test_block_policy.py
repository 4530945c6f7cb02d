"""The block policy: ``tuning.py`` alone decides how many blocks a source
has (a parquet read one per MiB of the columns it reads, at most two per
CPU of the live cluster; a synthetic source two per CPU), engine code
passes no block count and reads parquet only through
``tuning.read_parquet``, and no output depends on how the input is
split.  Also
the other cluster-shape rules: no stage runs as an actor pool (no
``concurrency=``), rows-cardinality keys shuffle only through
``stages/exchange.py::hash_exchange``, and cell ids are computed only in
``stages/cells.py``."""

import ast
import os
import re
import subprocess
import sys

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


def _footer_bytes(path: str, columns=None) -> int:
    """Uncompressed bytes of ``columns`` (all when None) in one parquet
    file's footer."""
    meta = pq.ParquetFile(path).metadata
    return sum(
        meta.row_group(i).column(j).total_uncompressed_size
        for i in range(meta.num_row_groups)
        for j in range(meta.num_columns)
        if columns is None or meta.row_group(i).column(j).path_in_schema in columns
    )


def test_source_blocks_follow_bytes(ray_session, images, tmp_path):
    """A parquet read gets one block per MiB of the columns it reads, at
    least one and at most two per cluster CPU; a synthetic range source,
    whose size is unknown, keeps two per CPU."""
    import ray

    from rust_geo_booleanop_ray.pipelines.catalog._shared import _read
    from rust_geo_booleanop_ray.sources.images import read_image_table, read_synth_images
    from rust_geo_booleanop_ray.sources.tabular import read_table_any

    most = 2 * int(ray.cluster_resources()["CPU"])
    mib = 1 << 20

    def blocks(ds):
        return ds.materialize().num_blocks()

    pq.write_table(pa.table({"x": np.arange(4096)}), str(tmp_path / "t.parquet"))
    assert blocks(_read(str(tmp_path), "t")) == 1
    assert blocks(read_table_any(str(tmp_path / "t.parquet"))) == 1

    # random int64s do not dictionary-encode: ~2.5 MiB per column
    rng = np.random.default_rng(0)
    n = 5 * mib // 16
    few = pa.table({"x": rng.integers(0, 2**62, n), "y": rng.integers(0, 2**62, n)})
    pq.write_table(few, str(tmp_path / "few.parquet"))
    path = str(tmp_path / "few.parquet")
    for columns in (["x"], None):
        want = -(-_footer_bytes(path, columns) // mib)
        assert 1 < want < most
        assert blocks(_read(str(tmp_path), "few", columns)) == want

    big = pa.table({"x": rng.integers(0, 2**62, (most + 1) * mib // 8)})
    pq.write_table(big, str(tmp_path / "big.parquet"))
    assert _footer_bytes(str(tmp_path / "big.parquet")) > most * mib
    assert blocks(_read(str(tmp_path), "big")) == most

    os.makedirs(tmp_path / "images")
    pq.write_table(images, str(tmp_path / "images" / "images.parquet"))
    want = min(most, -(-_footer_bytes(str(tmp_path / "images" / "images.parquet")) // mib))
    assert blocks(read_image_table(str(tmp_path / "images"))) == want
    assert blocks(read_synth_images(1024)) == most


@pytest.mark.parametrize("name", ["poly_join_big", "pip_join"])
def test_cell_joins_are_block_count_invariant(ray_session, name):
    """The cell joins give the same rows whether each side is read as one
    block (the sf0.001 tables are a few KB) or as two per CPU (a
    ``target_min_block_size`` of one byte): the multi-block shuffle path
    the oracle gate's tiny tables no longer take."""
    import ray
    from ray.data import DataContext

    from conftest import TESTDATA
    from rust_geo_booleanop_ray.pipelines.catalog._shared import _read
    from rust_geo_booleanop_ray.pipelines.queries import build_queries

    sf = os.path.join(TESTDATA, "sf0.001")
    plan = build_queries()[name]
    ctx = DataContext.get_current()
    default = ctx.target_min_block_size
    outs = {}
    try:
        for per_block, want in ((default, 1), (1, 2 * int(ray.cluster_resources()["CPU"]))):
            ctx.target_min_block_size = per_block
            assert _read(sf, "part", ["p_partkey", "p_size"]).materialize().num_blocks() == want
            table = pa.concat_tables(
                plan(sf).iter_batches(batch_format="pyarrow", batch_size=None)
            )
            outs[want] = table.sort_by([(c, "ascending") for c in table.column_names])
    finally:
        ctx.target_min_block_size = default
    one, many = outs.values()
    assert one.num_rows > 0
    assert many.equals(one)


def _package_lines_matching(pattern, skip=()):
    offenders = []
    for root, _, files in os.walk(PACKAGE):
        for name in files:
            path = os.path.join(root, name)
            if not name.endswith(".py") or os.path.relpath(path, PACKAGE) in skip:
                continue
            with open(path, encoding="utf-8") as f:
                for no, line in enumerate(f, 1):
                    if pattern.search(line):
                        offenders.append(f"{os.path.relpath(path, PACKAGE)}:{no}: {line.strip()}")
    return offenders


def test_engine_passes_no_block_count():
    """Block counts come from ``tuning.py`` only: no ``num_blocks=`` or
    ``parallelism=`` in the engine, and ``override_num_blocks=`` only in
    ``tuning.read_parquet``; and no ``concurrency=``: UDFs are stateless
    instances, never actor pools (a pool's actors hold CPUs its upstream
    read needs)."""
    pattern = re.compile(r"(?<![\w.])(num_blocks|parallelism|concurrency)\s*=(?!=)")
    override = re.compile(r"(?<![\w.])override_num_blocks\s*=(?!=)")
    assert _package_lines_matching(pattern) == []
    assert _package_lines_matching(override, skip={"tuning.py"}) == []


def test_parquet_read_only_through_tuning():
    """Every parquet source is sized by ``tuning.read_parquet``: outside
    ``tuning.py`` no module calls another ``read_parquet`` (``rd.``,
    ``ray.data.``) or imports one from anywhere but ``tuning``.  SQL
    strings that name DuckDB's ``read_parquet`` are not code."""
    offenders = []
    for root, _, files in os.walk(PACKAGE):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, PACKAGE)
            if not name.endswith(".py") or rel == "tuning.py":
                continue
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                foreign = (
                    isinstance(node, ast.Attribute)
                    and node.attr == "read_parquet"
                    and not (isinstance(node.value, ast.Name) and node.value.id == "tuning")
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and any(a.name == "read_parquet" for a in node.names)
                    and (node.module or "").rpartition(".")[2] != "tuning"
                )
                if foreign:
                    offenders.append(f"{rel}:{node.lineno}")
    assert offenders == []


def test_no_hand_rolled_hash_exchange():
    """Hash-bucket exchanges go through ``hash_exchange``: no module
    groups by a bucket column of its own."""
    pattern = re.compile(r"""groupby\(\s*(["'](bucket|kb|pbucket)["']|_BUCKET_COL)\s*\)""")
    assert _package_lines_matching(pattern, skip={os.path.join("stages", "exchange.py")}) == []


def test_engine_calls_no_dataset_schema():
    """No argument-less ``.schema()`` call in the engine (``pa.schema(
    fields)`` builds a schema and is fine): Ray answers
    ``Dataset.schema()`` on a lazily derived dataset by running part of
    its plan, so callers declare schemas (``shuffle_hash_join``'s
    ``left_schema``/``right_schema``) instead.  Strings and comments are
    not code."""
    offenders = []
    for root, _, files in os.walk(PACKAGE):
        for name in files:
            path = os.path.join(root, name)
            if not name.endswith(".py"):
                continue
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "schema"
                    and not node.args
                    and not node.keywords
                ):
                    offenders.append(f"{os.path.relpath(path, PACKAGE)}:{node.lineno}")
    assert offenders == []


def test_cell_ids_computed_only_in_cells_module():
    """Only ``stages/cells.py`` knows the cell-id layout: no other engine
    module names its Morton helpers or shifts by the 58 resolution bits
    (``np.uint64(58)``).  Strings and comments are not code, so the SQL
    mirrors inside oracle builders are exempt."""
    helpers = {"_part1by1", "_unpart1by1", "_grid_index"}
    offenders = []
    for root, _, files in os.walk(PACKAGE):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, PACKAGE)
            if not name.endswith(".py") or rel == os.path.join("stages", "cells.py"):
                continue
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                used = (
                    (isinstance(node, ast.Name) and node.id in helpers)
                    or (isinstance(node, ast.Attribute) and node.attr in helpers)
                    or (isinstance(node, ast.alias) and node.name in helpers)
                    or (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "uint64"
                        and any(isinstance(a, ast.Constant) and a.value == 58 for a in node.args)
                    )
                )
                if used:
                    offenders.append(f"{rel}:{getattr(node, 'lineno', '?')}")
    assert offenders == []


_QUERIES_AT_1_CPU = """
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from rust_geo_booleanop_ray.pipelines.queries import build_queries
queries = build_queries()
for name in ("poly_clip", "scene_stats"):
    print(queries[name]({sf!r}).count())
"""


def test_clip_and_decode_queries_run_on_one_cpu():
    """The broadcast clip and a video decode stage finish on a 1-CPU
    cluster: both run as stateless tasks, so no actor holds the only CPU
    while its upstream read waits for it (as an actor pool, q_poly_clip
    made no progress in 120 s)."""
    from conftest import REPO, TESTDATA

    script = _QUERIES_AT_1_CPU.format(sf=os.path.join(TESTDATA, "sf0.001"))
    try:
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=180,
            cwd=REPO,  # Ray workers import the package from the working directory
        )
    except subprocess.TimeoutExpired:
        pytest.fail("poly_clip and scene_stats did not finish in 180 s on a 1-CPU Ray cluster")
    assert out.returncode == 0, out.stderr[-2000:]
    counts = [int(n) for n in out.stdout.split()[-2:]]
    assert len(counts) == 2 and min(counts) > 0
