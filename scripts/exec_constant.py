"""Per-execution fixed-cost microbenchmark (round-5 verdict ask #6).

Every Ray Data execution (each ``materialize()`` / ``to_pandas()`` /
aggregate consumption) pays a fixed scheduling + driver-coordination
constant independent of data size. Multi-execution funnels (BFS
rounds, Lloyd steps, incremental folds) pay it per round, and it is
why the round-4 fk_integrity_audit's 14-branch union was built (pay
the constant once) — and why that plan then lost to a different
constant (per-BLOCK sort overhead).

This script measures the constants the engine's physical plans trade
against, on the current machine:

  empty_exec        one no-op map_batches execution over 1 row
  read_exec         read a tiny parquet (Ray's default split: twice the
                    CPU count at least) + no-op
  read_exec_1blk    same read forced to 1 block (override_num_blocks)
  sized_read_exec   same read through the engine's ``exchange.read``
                    (blocks sized by file bytes: 1 here) + no-op
  manifest_exec     the crawl wave's shape: a one-row from_arrow manifest
                    into one map whose task reads that row group itself
  groupby_64blk     sort-exchange over 64 tiny blocks
  groupby_4blk      the same rows in 4 blocks
  exchange_exec     the engine's ``exchange``: the one-block read, then
                    an identity fold over 64 buckets (one fold call per
                    sorted block)
  per_block_ms      marginal sort cost per extra input block

Mitigations shipped in round 5 (BASELINE.md "execution constant"):
  - fewer executions per round: graph_bfs_hops materializes each
    frontier once (metadata count, no count() execution) — 3 -> 2
    executions/round, 9.2 -> ~3.6 s at sf0.1;
  - fewer blocks per execution: every parquet read goes through
    ``exchange.read``, one block per MiB of file bytes instead of the
    CPU-count split (fk_integrity_audit: 768 -> ~14 blocks, 37 -> ~2 s
    at sf0.1), so each sort exchange after it runs as few mappers and
    reducers as the data fills.

Usage: python scripts/exec_constant.py  (prints one JSON line)
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _t(fn, n=7) -> float:
    """Median wall of n runs (first run discarded as warm-up)."""
    runs = []
    for i in range(n + 1):
        t0 = time.time()
        fn()
        if i:
            runs.append(time.time() - t0)
    return round(statistics.median(runs), 4)


def main() -> None:
    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR")
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from ray.data import DataContext

    from realestate_scraper_ray.stages.exchange import exchange, read

    DataContext.get_current().enable_progress_bars = False

    out: dict = {}
    one = pa.table({"x": np.arange(1, dtype=np.int64)})
    out["empty_exec"] = _t(lambda: rd.from_arrow(one).map_batches(
        lambda t: t, batch_format="pyarrow").materialize())

    with tempfile.TemporaryDirectory() as td:
        p = os.path.join(td, "t.parquet")
        pq.write_table(pa.table({"x": np.arange(10_000, dtype=np.int64)}), p)
        out["read_exec"] = _t(lambda: rd.read_parquet(p).map_batches(
            lambda t: t, batch_format="pyarrow").materialize())
        out["read_exec_1blk"] = _t(lambda: rd.read_parquet(
            p, override_num_blocks=1).map_batches(
            lambda t: t, batch_format="pyarrow").materialize())
        out["sized_read_exec"] = _t(lambda: read(p).map_batches(
            lambda t: t, batch_format="pyarrow").materialize())
        manifest = pa.table({"path": [p], "row_group": [0]})
        out["manifest_exec"] = _t(lambda: rd.from_arrow(manifest).map_batches(
            lambda m: pq.ParquetFile(m["path"][0].as_py()).read_row_group(
                m["row_group"][0].as_py()),
            batch_format="pyarrow", batch_size=None).materialize())

        def grp(nblk: int):
            (rd.read_parquet(p, override_num_blocks=nblk)
             .map_batches(lambda t: t.append_column(
                 "g", pa.array((t["x"].to_numpy() % 8))),
                 batch_format="pyarrow")
             .groupby("g").count().materialize())

        out["groupby_64blk"] = _t(lambda: grp(64))
        out["groupby_4blk"] = _t(lambda: grp(4))
        out["exchange_exec"] = _t(lambda: exchange(
            read(p), "x", lambda t: t, 64).materialize())
    out["per_block_ms"] = round(
        (out["groupby_64blk"] - out["groupby_4blk"]) / 60 * 1000, 2)
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
