"""Engine benchmark: three workloads (`tiles`, `polyjoin`, `kernel`; the
first two are the ones ``BENCHMARK.json`` lists), one process per
workload, every run output-checked, plus a traced run that attributes
time to the engine's layers.

Run from the repository root:

    python3 perfbench/run.py --workload tiles --seed 1 --seconds 10 --trace 0

See `run.py` for the result line and `trace.py` for the per-layer spans.
"""
