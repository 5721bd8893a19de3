"""End-to-end + per-layer benchmark: SQL text in -> checked answer out.

Four workloads (``adhoc_scalar``, ``groupby_fresh``, ``serve_dashboard``,
``train_refresh``), one entry point (``run.py`` / ``python -m
benchmarks.e2e``), described for the driver in the root
``BENCHMARK.json``.  See ``README.md`` in this directory.
"""
