"""End-to-end pipelines (the flagship) and the driver-facing query catalog.

Importing any pipeline module applies the engine's Ray Data execution
profile, the block count of synthetic sources included
(``tuning.tune_data_context``; parquet reads are sized by
``tuning.read_parquet``).
"""

from ..tuning import tune_data_context

tune_data_context()
