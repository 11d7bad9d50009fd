"""Benchmark of the CDC engine and its query library (see run.py)."""
