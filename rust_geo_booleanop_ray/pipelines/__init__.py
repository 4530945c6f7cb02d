"""End-to-end pipelines (the flagship) and the driver-facing query catalog.

Importing any pipeline module applies the engine's Ray Data execution
profile, block policy included (``tuning.tune_data_context``).
"""

from ..tuning import tune_data_context

tune_data_context()
