"""Service actors (URL-seen and politeness shards) boot lean and go
away with the crawl that started them.

- A shard process imports no ``ray.data``, pandas or polars: its class
  lives in ``state/``, whose modules import only the stdlib, numpy,
  pyarrow, ray and each other at module level (AST scan below).
- The driver-materialization gate is still installed by every package
  an engine ``to_pandas`` lives in.
- ``run_crawl`` ends its actors when it returns, without waiting for
  the garbage collector.
"""

import ast
import gc
import os
import subprocess
import sys
import time

import pytest
import ray

import realestate_scraper_ray
from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.pipelines.crawl import run_crawl
from realestate_scraper_ray.state.politeness import PolitenessService
from realestate_scraper_ray.state.urlseen import UrlSeenService

PKG = os.path.dirname(realestate_scraper_ray.__file__)
ROOT = os.path.dirname(PKG)
HEAVY = ("ray.data", "pandas", "polars")


def test_service_shards_boot_without_heavy_imports(ray_session):
    urlseen = UrlSeenService(1, 1 << 10)
    politeness = PolitenessService(1, rps_per_host=10.0)
    # a lambda pickles by value: the probe itself imports nothing
    probe = lambda self: [m for m in HEAVY  # noqa: E731
                          if m in __import__("sys").modules]
    for shard in urlseen.shards + politeness.shards:
        assert ray.get(shard.__ray_call__.remote(probe)) == []


def _fresh(code: str) -> str:
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


@pytest.mark.parametrize("module", ["pipelines.relational", "stages.aggregate",
                                    "functions.sketches"])
def test_gate_installed_by_engine_packages(module):
    out = _fresh(f"import realestate_scraper_ray.{module}\n"
                 "import ray.data as rd\n"
                 "print(getattr(rd.Dataset.to_pandas,"
                 " '__rsr_driver_bound_installed__', False))")
    assert out == "True"


def test_state_modules_import_no_heavy_module():
    out = _fresh("import sys\n"
                 "import realestate_scraper_ray.state.urlseen\n"
                 "import realestate_scraper_ray.state.politeness\n"
                 f"print([m for m in {HEAVY!r} if m in sys.modules])")
    assert out == "[]"


def _top_level_imports(tree: ast.Module):
    """Import nodes executed at module import time (not inside a def or
    class body)."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_state_top_level_imports_are_lean():
    allowed = set(sys.stdlib_module_names) | {"numpy", "pyarrow", "ray"}
    bad = []
    state = os.path.join(PKG, "state")
    for f in sorted(os.listdir(state)):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(state, f)) as fh:
            tree = ast.parse(fh.read())
        for node in _top_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                names = [] if node.level == 1 else [f"{'.' * node.level}{node.module}"]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                names = [a.name for a in node.names]
            bad += [f"{f}:{node.lineno} {n}" for n in names
                    if n.split(".")[0] not in allowed
                    or n.startswith("ray.data")]
    assert bad == []


def _wait_for_cpus(want: float, timeout: float) -> float:
    t_end = time.monotonic() + timeout
    while True:
        got = ray.available_resources().get("CPU", 0.0)
        if got >= want or time.monotonic() > t_end:
            return got
        time.sleep(0.02)


def test_crawl_returns_its_cpus(tmp_path, ray_session):
    """With the collector off, every CPU the crawl's service actors held
    is available again within 2 s of ``run_crawl`` returning."""
    pcfg = PortalConfig(regions=("pomorskie",), base_pages=2,
                        page_size_scale=0.1)
    cfg = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                      fetch_batch_size=16, rps_per_host=1e4,
                      politeness_shards=1)
    gc.collect()  # other tests' garbage, not this crawl's
    full = ray.cluster_resources()["CPU"]
    before = _wait_for_cpus(full, 30.0)
    gc.disable()
    try:
        run_crawl(pcfg, cfg, str(tmp_path / "wd"))
        assert _wait_for_cpus(before, 2.0) >= before
    finally:
        gc.enable()
