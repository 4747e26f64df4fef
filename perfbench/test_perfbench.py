"""The benchmark's own tests: trace totals against the engine's counters,
and the result line against BENCHMARK.json.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import harness  # noqa: E402
from perfbench.workloads import CrawlWorkload  # noqa: E402

# small span-mode crawl with windowed waves, checkpoints and a resume
SMALL = CrawlWorkload(
    name="small",
    portal=dict(regions=("pomorskie", "mazowieckie"), base_pages=3,
                page_size_scale=0.15),
    crawl=dict(fetch_batch_size=32, fetch_num_cpus=0.5, urlseen_shards=2,
               politeness_shards=1, urlseen_capacity=1 << 14,
               checkpoint_every=1, checkpoint_full_every=2, max_wave_rows=64),
    loads=("portal.render", "fetch.batch", "urlseen.filter_new", "crawl.wave",
           "crawl.fragment_write", "crawl.checkpoint_write", "crawl.restore",
           "crawl.read"),
    kill_after=2,
)


@pytest.fixture(scope="module")
def traced():
    runner = harness.CrawlRunner(SMALL, seed=3)
    harness.start_ray(SMALL, runner.portal_cfg, trace=True)
    try:
        yield runner.trace()
    finally:
        harness.stop_ray()


def _wave_frontier_rows(workdir: str) -> int:
    """Frontier rows of kind detail/investment written by wave tasks
    (``part-p1-*`` and ``part-p2-*``; seeds and driver rows are p0)."""
    n = 0
    root = os.path.join(workdir, "frontier")
    for gen in os.listdir(root):
        for f in os.listdir(os.path.join(root, gen)):
            if f.startswith(("part-p1-", "part-p2-")):
                kind = pq.read_table(os.path.join(root, gen, f), columns=["kind"])["kind"]
                n += pc.sum(pc.is_in(kind, value_set=pc.cast(
                    ["detail", "investment"], kind.type))).as_py() or 0
    return n


def test_traced_repetition_matches_oracle(traced):
    _, rep = traced
    assert rep["mismatches"] == []


def test_fetch_pages_equal_crawl_counters(traced):
    m, rep = traced
    res = rep["result"]
    assert m["fetch.pages"] == res.pages_fetched + res.pages_failed
    assert m["fetch.pages"] > 0


def test_admitted_keys_equal_wave_frontier_rows(traced):
    m, rep = traced
    assert m["urlseen.admitted"] == _wave_frontier_rows(rep["result"].workdir)
    assert 0 < m["urlseen.admit_ratio"] <= 1


def test_every_layer_is_traced(traced):
    m, _ = traced
    for name in ("portal.render_ms.p50", "fetch.batch_s.p50",
                 "urlseen.filter_new_ms.p50", "crawl.wave_s.p50",
                 "crawl.fragment_write_s", "crawl.checkpoint_write_s",
                 "crawl.restore_s", "crawl.read_s.offers"):
        assert m[name] > 0, name
    assert m["crawl.generations"] == traced[1]["generations"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = spec["end_to_end" if trace == 0 else "per_layer"]
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crawl_frontier",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert {m["name"]: m["unit"] for m in want} == {
        n: v["unit"] for n, v in res["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
