"""Workload definitions: portal/crawl configurations per crawl workload,
the query list and its input tables, the Ray sizing rule, and which
layers each workload must exercise.

Sizing rule for crawls: Ray gets ``nproc - 1`` CPUs for tasks (at least
one; ``nproc`` is the scheduler affinity, and the ``nproc`` command
prints less when ``OMP_NUM_THREADS`` caps it), leaving a core to the
driver, the raylet and the service actors, plus the CPU those actors
reserve. ``UrlSeenShard`` and ``PolitenessShard`` each hold 0.25 CPU for
their whole lifetime, and a Ray Data read task asks for a whole CPU;
without that reservation a single shard on a one-core machine leaves
0.75 CPU and the crawl's first ``read_parquet`` never schedules. On a
4-core machine crawls ran slower with ``nproc`` task CPUs than with
``nproc - 1``. Queries get ``nproc`` CPUs: at ``nproc - 1`` one query
run hung in a Ray Data map task.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from bench import BENCH_REGIONS

SHARD_CPU = 0.25  # num_cpus of UrlSeenShard and PolitenessShard

# Byte-identical copies of the repo's sf0.01 driver test tables
# (TESTDATA.md, generator seed 42), kept in the checkout so the benchmark
# reads nothing outside it. The workload seed does not change them.
QUERY_TABLES_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "tables")
QUERY_TABLES = ("region", "nation", "customer", "supplier", "part", "orders",
                "lineitem", "events", "documents")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class CrawlWorkload:
    name: str
    portal: dict
    crawl: dict
    # trace spans the traced repetition must record
    loads: tuple[str, ...]
    # simulated kill after this many waves, then resume
    kill_after: int

    def configs(self, seed: int):
        from realestate_scraper_ray.config import CrawlConfig, PortalConfig
        return (PortalConfig(seed=seed, **self.portal),
                CrawlConfig(**self.crawl))

    def actors(self) -> int:
        n = self.crawl.get("urlseen_shards", 8)
        if self.crawl.get("rps_per_host", 1e9) < 1e8:  # politeness on
            n += self.crawl.get("politeness_shards", 4)
        return n

    def ray_cpus(self) -> int:
        return max(1, nproc() - 1) + math.ceil(SHARD_CPU * self.actors())

    def task_cpus(self) -> float:
        return self.crawl.get("fetch_num_cpus", 1.0)


@dataclass(frozen=True)
class QueryWorkload:
    name: str
    queries: tuple[str, ...]

    def ray_cpus(self) -> int:
        return nproc()

    def task_cpus(self) -> float:
        return 1.0


_CRAWL_SPANS = ("portal.render", "fetch.batch", "fetch.parse",
                "politeness.book", "urlseen.filter_new", "crawl.wave",
                "crawl.fragment_write", "crawl.host_bucket", "crawl.summary",
                "crawl.checkpoint_write", "crawl.restore", "crawl.read",
                "ray.exec")

CRAWL_FRONTIER = CrawlWorkload(
    name="crawl_frontier",
    # a wide portal with heavy re-linking, so the state and sink layers
    # carry much of each wave. Pages are small HTML documents, so the
    # parse chain runs without dominating. Weight-1 sources keep every
    # listing chain at <= 4 pages, so the wave count does not follow the
    # seed. Politeness is on at a rate no host reaches: every batch books
    # its slots, no wait binds
    portal=dict(regions=BENCH_REGIONS[:8], base_pages=3,
                page_size_scale=0.5, sources=("gratka", "morizon"),
                overlap_links=8, tail_repeat_pages=2, html_bytes=20_000),
    crawl=dict(fetch_batch_size=128, fetch_num_cpus=1.0, urlseen_shards=2,
               politeness_shards=1, rps_per_host=10_000.0,
               urlseen_capacity=1 << 15,
               checkpoint_every=1, checkpoint_full_every=2,
               max_wave_rows=256),
    loads=_CRAWL_SPANS,
    kill_after=3,
)

QUERIES = QueryWorkload(
    name="queries",
    queries=(
        # _bucketed_groups users
        "events_sessionize", "events_asof_purchase", "funnel_conversion",
        "retention_cohorts", "events_transition_matrix", "events_global_rank",
        # hand-rolled bucket exchanges
        "fk_integrity_audit", "events_sliding_distinct", "events_cusum_alarm",
        "lineitem_key_skew", "corpus_inverted_index",
        # stages/graph.py and stages/incremental.py bucket helpers
        "graph_kcore", "graph_bfs_hops", "documents_incremental_dedup",
        # map-only controls
        "token_count", "quality_stats",
    ),
)

WORKLOADS = {w.name: w for w in (CRAWL_FRONTIER, QUERIES)}

# The end-to-end metric @ workload each per-layer metric should move, with
# the detail-line figure it moves first in brackets. Printed on the traced
# run's detail line.
_MOVES = {
    "crawl.checkpoint": "items_per_s (pages_per_s, resume_s) @ crawl_frontier",
    "crawl.restore_s": "items_per_s (resume_s) @ crawl_frontier",
    "crawl.read_s": "output_read_s (detail line only) @ crawl_frontier",
    "trace.overhead_pct": "items_per_s (pages_per_s) @ crawl_frontier, "
                          "traced vs untraced",
    "query.": "items_per_s (queries_total_s, query_p50_s) @ queries",
    "ray.empty_exec_ms": "items_per_s (query_p50_s) @ queries, "
                         "the fixed cost per execution",
    "": "items_per_s (pages_per_s) @ crawl_frontier",
}


def moves(metric: str) -> str:
    """The end-to-end figure a per-layer metric should move."""
    return next(v for k, v in _MOVES.items() if metric.startswith(k))
