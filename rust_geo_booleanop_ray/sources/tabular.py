"""Format-agnostic tabular ingestion.

The driver's tables arrive as parquet, but a real deployment feeds
the same pipelines from CSV exports, JSONL event streams, or Lance
datasets.  ``read_table_any`` dispatches on extension so every
catalog query body stays source-format-independent: the downstream
contract is only "an Arrow-backed Dataset with these columns".

Timestamp columns need explicit schemas in the text formats (CSV and
JSON carry no type); callers pass ``timestamp_cols`` and get the same
``timestamp[us]`` arrow type parquet provides — verified equivalent
by tests/test_source_formats.py, which runs one aggregate over all
three encodings of the same table and compares results exactly.
"""

from __future__ import annotations

import pyarrow as pa


def read_table_any(
    path: str,
    columns: list[str] | None = None,
    timestamp_cols: tuple[str, ...] = (),
):
    """Read parquet / CSV / JSONL into a Ray Dataset with an identical
    downstream schema.  Column pruning happens at the read for parquet
    and immediately after for the row-oriented text formats (they have
    no column projection — which is exactly why parquet is the scale
    format; the text paths exist for ingest compatibility)."""
    import ray.data as rd

    if path.endswith(".parquet"):
        return rd.read_parquet(path, columns=columns)
    if path.endswith(".csv"):
        from pyarrow import csv as pacsv

        convert = None
        if timestamp_cols:
            convert = pacsv.ConvertOptions(
                column_types={c: pa.timestamp("us") for c in timestamp_cols}
            )
        ds = rd.read_csv(path, convert_options=convert)
    elif path.endswith(".jsonl") or path.endswith(".json"):
        ds = rd.read_json(path)

        if timestamp_cols:

            def fix_ts(b: pa.Table) -> pa.Table:
                for c in timestamp_cols:
                    if c in b.column_names and not pa.types.is_timestamp(
                        b.schema.field(c).type
                    ):
                        i = b.column_names.index(c)
                        b = b.set_column(
                            i,
                            c,
                            b[c].cast(pa.timestamp("us")),
                        )
                return b

            ds = ds.map_batches(fix_ts, batch_format="pyarrow", batch_size=None)
    else:
        raise ValueError(f"unsupported table format: {path}")
    if columns:
        ds = ds.select_columns(columns)
    return ds
