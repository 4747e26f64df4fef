"""Repository benchmark: crawl and query workloads, oracle-checked, with a
per-layer trace. Entry point: ``python3 perfbench/run.py``."""
