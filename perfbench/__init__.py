"""Benchmark harness for slicekit; run it with ``python3 perfbench/run.py``."""
