"""Benchmark of the repro pipeline; see perfbench/README.md."""
