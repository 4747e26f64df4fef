"""Runs one workload: Ray set-up (timed), the measured window, output
checks, and — with ``trace`` — the per-layer breakdown of one extra
traced repetition."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import time

from . import checks, tracing
from .workloads import (QUERY_TABLES, QUERY_TABLES_DIR, WORKLOADS,
                        CrawlWorkload, QueryWorkload, moves)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
SETUPS = 2          # set-ups per run; setup_s is their median
READS = 5           # output reads per repetition; output_read_s is their median

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "driver_rss_peak_mb": "MB"}


# ---------------------------------------------------------------------------
# Ray lifecycle
# ---------------------------------------------------------------------------


class Warm:
    """One warm-up task per worker slot: imports the engine and renders a
    seed page (crawls) or imports the query registry (queries) — the
    per-process one-time costs bench.py's ``_warm_workers`` pays."""

    def __init__(self, portal_cfg):
        self.portal_cfg = portal_cfg

    def __call__(self, batch):
        if self.portal_cfg is None:
            import realestate_scraper_ray.pipelines.relational  # noqa: F401
            return batch
        from realestate_scraper_ray.sources.synth_portal import Portal
        p = Portal(self.portal_cfg)
        seed = p.seeds(None)[0]["url"]
        p.render_html(seed) if self.portal_cfg.html_bytes > 0 else p.render(seed)
        return batch


def start_ray(wl, portal_cfg, trace: bool) -> float:
    """Start Ray and warm every worker slot; returns the wall seconds."""
    import logging

    import ray
    import ray.data as rd
    from ray.data import DataContext
    t0 = time.perf_counter()
    paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    kwargs = dict(address="local", num_cpus=wl.ray_cpus(),
                  object_store_memory=512 * 1024 * 1024,
                  include_dashboard=False, logging_level="ERROR",
                  log_to_driver=False)
    tmp = os.path.join(WORK, "ray")
    if len(tmp) <= 40:  # the session's unix socket paths must fit 107 bytes
        kwargs["_temp_dir"] = tmp
    if trace:
        kwargs["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.tracing.install_worker"}
    ray.init(**kwargs)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    DataContext.get_current().enable_progress_bars = False
    slots = max(1, int(wl.ray_cpus() // wl.task_cpus()))
    (rd.range(slots, override_num_blocks=slots)
     .map_batches(Warm(portal_cfg), num_cpus=wl.task_cpus(), batch_size=1)
     .materialize())
    return time.perf_counter() - t0


def stop_ray() -> None:
    import ray
    ray.shutdown()


def quiesce(timeout: float = 60.0) -> None:
    """Untimed, before each timed crawl or query: collect garbage and wait
    until every Ray CPU is free again. A finished crawl's service actors
    hold their CPU until the collector drops the last handle, and a crawl
    that starts beside them stalls for as long as they linger."""
    import gc

    import ray
    gc.collect()
    full = ray.cluster_resources().get("CPU", 0)
    t_end = time.perf_counter() + timeout
    while ray.available_resources().get("CPU", 0) < full:
        if time.perf_counter() > t_end:
            _log(f"quiesce: CPUs still held after {timeout:.0f}s")
            return
        time.sleep(0.01)


# ---------------------------------------------------------------------------
# driver memory
# ---------------------------------------------------------------------------


def reset_peak_rss() -> None:
    """Reset the kernel's resident-set high-water mark (Linux ≥ 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# crawl workloads
# ---------------------------------------------------------------------------


def _cached(path: str, make):
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    out = make()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump(out, f)
    os.replace(path + ".tmp", path)
    return out


def _read_tables(res) -> dict:
    return {name: res.table(name) for name in checks.CRAWL_TABLES}


class CrawlRunner:
    def __init__(self, wl: CrawlWorkload, seed: int):
        self.wl = wl
        self.seed = seed
        self.portal_cfg, self.crawl_cfg = wl.configs(seed)
        cfg = hashlib.sha256(repr((self.portal_cfg, self.crawl_cfg)).encode())
        key = f"{wl.name}-{seed}-{cfg.hexdigest()[:12]}"
        # expected content hashes: once per seed, outside set-up
        self.expect = _cached(os.path.join(WORK, "oracle", key + ".json"),
                              lambda: checks.oracle_hashes(self.portal_cfg,
                                                           self.crawl_cfg))
        self.workdir = os.path.join(WORK, "crawl")

    def repetition(self, tracer=None) -> dict:
        """One uninterrupted crawl, then one killed after ``kill_after``
        waves and resumed, with their output reads and checks. ``tracer(phase)`` returns a context
        manager tracing that phase, or None for untraced phases."""
        from realestate_scraper_ray.pipelines.crawl import run_crawl
        phase = tracer or (lambda _name: _null())
        wd = os.path.join(self.workdir, "run")
        shutil.rmtree(wd, ignore_errors=True)
        rep: dict = {"mismatches": []}
        quiesce()
        with phase("crawl"):
            t0 = time.perf_counter()
            res = run_crawl(self.portal_cfg, self.crawl_cfg, wd)
            rep["wall"] = time.perf_counter() - t0
        rep["pages"] = res.pages_fetched + res.pages_failed
        rep["failed_pages"] = res.pages_failed
        rep["generations"] = res.generations
        rep["result"] = res
        with phase("read"):
            reads = []
            for _ in range(READS):
                t0 = time.perf_counter()
                tables = _read_tables(res)
                reads.append(time.perf_counter() - t0)
            rep["read"] = statistics.median(reads)
        got = checks.table_hashes(tables)
        rep["tables"] = len(got)
        rep["mismatches"] += [f"{n} differs from oracle" for n in got
                              if got[n] != self.expect[n]]
        wd2 = os.path.join(self.workdir, "resume")
        shutil.rmtree(wd2, ignore_errors=True)
        quiesce()
        t0 = time.perf_counter()
        run_crawl(self.portal_cfg, self.crawl_cfg, wd2,
                  stop_after_generations=self.wl.kill_after)
        rep["killed"] = time.perf_counter() - t0
        quiesce()
        with phase("resume"):
            t0 = time.perf_counter()
            res2 = run_crawl(self.portal_cfg, self.crawl_cfg, wd2, resume=True)
            rep["resume"] = time.perf_counter() - t0
        got2 = checks.table_hashes(_read_tables(res2))
        rep["tables"] += len(got2)
        rep["mismatches"] += [f"resumed {n} differs from uninterrupted run"
                              for n in got2 if got2[n] != got[n]]
        return rep

    def warm_up(self) -> None:
        """One untimed crawl: the first crawl of a Ray session pays
        one-time worker costs that later crawls do not."""
        from realestate_scraper_ray.pipelines.crawl import run_crawl
        wd = os.path.join(self.workdir, "warm")
        t0 = time.perf_counter()
        run_crawl(self.portal_cfg, self.crawl_cfg, wd)
        shutil.rmtree(wd, ignore_errors=True)
        _log(f"warm-up crawl {time.perf_counter() - t0:.3f}s")

    def measure(self, seconds: float) -> dict:
        self.warm_up()
        reps = []
        t_end = time.perf_counter() + seconds
        while not reps or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            rep = self.repetition()
            rep.pop("result")
            reps.append(rep)
            _log(f"rep {len(reps)}: {rep['pages']} pages in {rep['wall']:.3f}s, "
                 f"read {rep['read']:.3f}s, killed {rep['killed']:.3f}s, "
                 f"resume {rep['resume']:.3f}s, "
                 f"repetition {time.perf_counter() - t0:.3f}s")
        return summarize_crawl(reps)

    def trace(self) -> tuple[dict[str, float], dict]:
        """One traced repetition → (per-layer metrics, the repetition)."""
        phases: dict[str, tracing.DriverTrace] = {}

        def tracer(name):
            d = os.path.join(WORK, "trace", name)
            shutil.rmtree(d, ignore_errors=True)
            return _record(phases, name, tracing.driver_tracing(d))

        rep = self.repetition(tracer)
        crawl_tr = phases["crawl"]
        spans = {k: tracing.load_spans(v) for k, v in phases.items()}
        m = tracing.crawl_layers(
            spans["crawl"], spans.get("resume", []), spans.get("read", []),
            crawl_tr.urlseen_counts, self.crawl_cfg.urlseen_capacity)
        seen = {s[tracing.NAME] for phase in spans.values() for s in phase}
        rep["mismatches"] += [f"traced run recorded no {name} span"
                              for name in self.wl.loads if name not in seen]
        return m, rep


class _null:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class _record:
    """Runs a driver_tracing context and files its DriverTrace."""

    def __init__(self, into: dict, name: str, cm):
        self.into, self.name, self.cm = into, name, cm

    def __enter__(self):
        self.into[self.name] = self.cm.__enter__()
        return self.into[self.name]

    def __exit__(self, *exc):
        return self.cm.__exit__(*exc)


def summarize_crawl(reps: list[dict]) -> dict:
    """``items_per_s`` counts all three crawls of a repetition: the pages
    twice (uninterrupted, then killed + resumed) over the three walls, so a
    resume regression moves it and the jitter of each crawl's service-actor
    start-up averages over three crawls."""
    med = statistics.median
    return {
        "items_per_s": med(2 * r["pages"] / (r["wall"] + r["killed"] + r["resume"])
                           for r in reps),
        "detail": {"pages_per_s": (med(r["pages"] / r["wall"] for r in reps), "1/s"),
                   "resume_s": (med(r["resume"] for r in reps), "s"),
                   "output_read_s": (med(r["read"] for r in reps), "s")},
        "attempted": sum(r["pages"] + r["tables"] for r in reps),
        "failed": sum(r["failed_pages"] + len(r["mismatches"]) for r in reps),
        "mismatches": sorted({m for r in reps for m in r["mismatches"]}),
        "reps": len(reps),
    }


# ---------------------------------------------------------------------------
# queries workload
# ---------------------------------------------------------------------------


class QueryRunner:
    """Runs the query list over the checkout's copy of the sf0.01 test
    tables; the seed does not change them."""

    def __init__(self, wl: QueryWorkload, seed: int):
        from realestate_scraper_ray.pipelines.relational import ORACLE
        self.wl = wl
        self.portal_cfg = None
        self.data = QUERY_TABLES_DIR
        h = hashlib.sha256()
        for t in QUERY_TABLES:
            with open(os.path.join(self.data, f"{t}.parquet"), "rb") as f:
                h.update(f.read())
        for n in wl.queries:
            h.update(ORACLE[n].encode())
        self.expect = _cached(
            os.path.join(WORK, "oracle", f"queries-{h.hexdigest()[:12]}.json"),
            lambda: checks.duckdb_hashes(self.data, list(wl.queries)))

    def run_query(self, name: str) -> tuple[float | None, str | None]:
        """One timed query → (wall or None, mismatch or None)."""
        from realestate_scraper_ray.pipelines.relational import QUERIES
        quiesce()
        t0 = time.perf_counter()
        try:
            df = checks.query_frame(QUERIES[name](self.data))
        except Exception as e:  # noqa: BLE001 — a raising query is a failed op
            return None, f"{name} raised {type(e).__name__}: {e}"
        wall = time.perf_counter() - t0
        _log(f"{name} {wall:.3f}s")
        if checks.frame_hash(df) != self.expect[name]:
            return wall, f"{name} differs from DuckDB"
        return wall, None

    def measure(self, seconds: float) -> dict:
        """Runs the list in order, round after round, until ``seconds``
        have passed and every query has run once. A query's wall is the
        median of its runs; ``queries_total_s`` is the sum of those.
        ``items_per_s`` is 1 ÷ their geometric mean, so each query weighs
        the same whatever its size."""
        from realestate_scraper_ray.pipelines.relational import QUERIES
        # untimed: the first query of a Ray session pays one-time costs
        checks.query_frame(QUERIES[self.wl.queries[-1]](self.data))
        walls: dict[str, list[float]] = {n: [] for n in self.wl.queries}
        bad, runs = [], 0
        t_end = time.perf_counter() + seconds
        while runs < len(walls) or time.perf_counter() < t_end:
            name = self.wl.queries[runs % len(walls)]
            wall, mismatch = self.run_query(name)
            runs += 1
            if wall is not None:
                walls[name].append(wall)
            if mismatch:
                bad.append(mismatch)
        med = statistics.median
        per_query = {n: med(w) for n, w in walls.items() if w}
        total = sum(per_query.values())
        return {
            "items_per_s": 1 / statistics.geometric_mean(per_query.values()),
            "detail": {"queries_total_s": (total, "s"),
                       "query_p50_s": (med(per_query.values()), "s")},
            "per_query": per_query,
            "attempted": runs,
            "failed": len(bad),
            "mismatches": sorted(set(bad)),
            "reps": runs,
        }


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def empty_exec_ms(n: int = 5) -> float:
    """Median wall of a no-op one-row Ray Data execution
    (scripts/exec_constant.py's ``empty_exec``)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    one = pa.table({"x": np.arange(1, dtype=np.int64)})
    runs = []
    for i in range(n + 1):
        t0 = time.perf_counter()
        rd.from_arrow(one).map_batches(lambda t: t, batch_format="pyarrow").materialize()
        if i:
            runs.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(runs)


T_START = time.perf_counter()


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def per_layer_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)["per_layer"]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    os.makedirs(WORK, exist_ok=True)
    # session logs of earlier runs; no Ray instance of ours is running
    shutil.rmtree(os.path.join(WORK, "ray"), ignore_errors=True)
    runner = (CrawlRunner(wl, seed) if isinstance(wl, CrawlWorkload)
              else QueryRunner(wl, seed))
    _log(f"inputs ready {time.perf_counter() - T_START:.1f}s")
    setups = []
    for i in range(SETUPS):
        setups.append(start_ray(wl, runner.portal_cfg, trace))
        if i < SETUPS - 1:
            stop_ray()
    try:
        reset_peak_rss()
        _log(f"set-ups {[round(s, 2) for s in setups]}")
        summary = runner.measure(seconds)
        rss = peak_rss_mb()
        _log(f"measured {summary['reps']} reps, {time.perf_counter() - T_START:.1f}s")
        layers, traced_bad = None, []
        if trace:
            layers, traced_bad = trace_layers(wl, runner, summary)
    finally:
        stop_ray()
        shutil.rmtree(os.path.join(WORK, "crawl"), ignore_errors=True)
        shutil.rmtree(os.path.join(WORK, "trace"), ignore_errors=True)
    detail = dict(summary["detail"])
    detail["setup_s"] = (statistics.median(setups), "s")
    detail["driver_rss_peak_mb"] = (rss, "MB")
    detail["failed_ops_ratio"] = (summary["failed"] / max(1, summary["attempted"]),
                                  "ratio")
    e2e = {"setup_s": statistics.median(setups),
           "items_per_s": summary["items_per_s"],
           "driver_rss_peak_mb": rss}
    mismatches, failed = list(summary["mismatches"]), summary["failed"]
    if layers is not None:
        mismatches += traced_bad
        failed += len(traced_bad)
        # a layer the workload does not exercise reads 0 and is named here
        detail["not_exercised"] = ([n for n in per_layer_names() if n not in layers],
                                   "names")
        detail["moves"] = ({n: moves(n) for n in per_layer_names() if n in layers},
                           "per-layer metric -> end-to-end metric @ workload")
        metrics = {n: {"value": layers.get(n, 0.0), "unit": PER_LAYER_UNITS[n]}
                   for n in per_layer_names()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in e2e.items()}
    return {
        "workload": workload, "seed": seed, "reps": summary["reps"],
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "mismatches": mismatches,
        "result": {"correct": not mismatches and failed == 0,
                   "attempted": summary["attempted"], "failed": failed,
                   "metrics": metrics},
    }


def trace_layers(wl, runner, summary) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and the traced repetition's check failures."""
    bad: list[str] = []
    if isinstance(wl, QueryWorkload):
        m = {f"query.{n}_s": v for n, v in summary["per_query"].items()}
    else:
        m, rep = runner.trace()
        bad = rep["mismatches"]
        untraced = summary["detail"]["pages_per_s"][0]
        traced = rep["pages"] / rep["wall"]
        m["trace.overhead_pct"] = (untraced - traced) / untraced * 100
    m["ray.empty_exec_ms"] = empty_exec_ms()
    return m, bad


PER_LAYER_UNITS = {
    "portal.render_ms.p50": "ms", "portal.render_ms.p99": "ms",
    "portal.page_kb": "KB",
    "fetch.parse_ms.p50": "ms", "fetch.parse_ms.p99": "ms",
    "fetch.batch_s.p50": "s", "fetch.batch_s.p99": "s",
    "fetch.self_ms_per_page": "ms", "fetch.pages": "count",
    "fetch.render_parse_share": "ratio",
    "politeness.book_ms.p50": "ms", "politeness.book_ms.p99": "ms",
    "urlseen.filter_new_ms.p50": "ms", "urlseen.filter_new_ms.p99": "ms",
    "urlseen.keys": "count", "urlseen.admitted": "count",
    "urlseen.admit_ratio": "ratio",
    "urlseen.shard_skew": "ratio", "urlseen.fill_max": "ratio",
    "crawl.generations": "count", "crawl.wave_s.p50": "s", "crawl.wave_s.max": "s",
    "crawl.driver_fold_s": "s", "crawl.wave_unattributed_share": "ratio",
    "crawl.state_share": "ratio",
    "crawl.host_bucket_s": "s", "crawl.summary_s": "s",
    "crawl.fragment_write_s": "s", "crawl.fragments": "count",
    "crawl.bytes_written": "bytes",
    "crawl.checkpoint_write_s": "s", "crawl.checkpoint_mb": "MB",
    "crawl.restore_s": "s",
    "crawl.read_s.urls": "s", "crawl.read_s.offers": "s", "crawl.read_s.photos": "s",
    "trace.overhead_pct": "%", "ray.empty_exec_ms": "ms",
}
PER_LAYER_UNITS.update({f"query.{n}_s": "s" for n in WORKLOADS["queries"].queries})
