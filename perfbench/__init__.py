"""Benchmark of trifvm; run it with `python3 perfbench/run.py`."""
