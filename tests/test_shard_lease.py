"""Leased service shards (state/lease.py): URL-seen and politeness
actors are pooled per Ray session and reset between crawls instead of
killed.

- a lease hands out shards only after their resets, replaces a dead
  pooled actor, and refuses calls from a released lease;
- the pool keeps only the last released lease's shards;
- a re-leased shard keeps nothing of its previous lease, and a pooled
  one holds no state;
- the lease, not the actor, reserves 0.25 CPU per shard, and gets CPUs
  that unreachable objects hold back while it waits;
- crawls that reuse the pool produce the same tables as crawls on
  fresh actors, and a new Ray session never reuses old handles.
"""

import gc
import os
import subprocess
import sys
import threading
import time

import cloudpickle
import pandas as pd
import pytest
import ray

from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.pipelines.crawl import run_crawl
from realestate_scraper_ray.pipelines.oracle import crawl_oracle
from realestate_scraper_ray.pipelines.sitemap_crawl import sitemap_crawl
from realestate_scraper_ray.sources.synth_portal import Portal
from realestate_scraper_ray.state import lease
from realestate_scraper_ray.state.lease import Lease, StaleLeaseError
from realestate_scraper_ray.state.politeness import (
    PolitenessService, PolitenessShard,
)
from realestate_scraper_ray.state.urlseen import UrlSeenService, UrlSeenShard

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PCFG = PortalConfig(regions=("pomorskie",), base_pages=2, page_size_scale=0.1)
CCFG = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                   fetch_batch_size=16, rps_per_host=1e4,
                   politeness_shards=1)


def _ids(handles) -> list[str]:
    return [h._actor_id.hex() for h in handles]


def _peek(handle, *attrs):
    return ray.get(handle.__ray_call__.remote(
        lambda self: [getattr(self, a) for a in attrs]))


@pytest.fixture
def fresh_pool(monkeypatch):
    """An empty pool for this test: the leases below get the actors they
    expect whatever earlier tests left idle."""
    monkeypatch.setattr(lease, "_POOL", lease._Pool())


def test_lease_hands_out_shards_only_after_their_resets(ray_session,
                                                      fresh_pool):
    """The resets run while the driver goes on, but neither ``shards``
    nor a copy of the lease sent to a task exists before they finish."""
    @ray.remote(num_cpus=0)
    class SlowShard:
        def __init__(self, epoch=None):
            self.reset(epoch)

        def reset(self, epoch=None):
            time.sleep(0.5)
            self.reset_at = time.time()

        def clear(self, epoch=None):
            return None

    first = Lease(SlowShard, [(), ()])
    pooled = list(first.shards)
    first.release()
    for hand_out in (lambda ls: ls.shards,
                     lambda ls: cloudpickle.loads(cloudpickle.dumps(ls))
                     .shards):
        again = Lease(SlowShard, [(), ()])
        assert _ids(hand_out(again)) == _ids(pooled)
        handed = time.time()
        assert all(_peek(h, "reset_at")[0] <= handed for h in pooled)
        again.release()


def _alive(actor_id: str) -> bool:
    return ray._private.state.actors(actor_id)["State"] != "DEAD"


def test_pool_keeps_only_the_last_released_lease(ray_session, fresh_pool):
    """Two overlapping leases, then a smaller one: the pool keeps no
    more idle shards than the last lease it got back, and the shards it
    drops end."""
    a, b = UrlSeenService(2, 1 << 10), UrlSeenService(2, 1 << 10)
    ids = _ids(a.shards + b.shards)
    a.close()
    b.close()
    assert _ids(lease._POOL.idle[UrlSeenShard]) == ids[2:]
    small = UrlSeenService(1, 1 << 10)
    (kept,) = _ids(small.shards)
    small.close()
    assert _ids(lease._POOL.idle[UrlSeenShard]) == [kept]
    t_end = time.monotonic() + 30
    while (sum(map(_alive, ids)) > 1) and time.monotonic() < t_end:
        time.sleep(0.1)
    assert [i for i in ids if _alive(i)] == [kept]


def test_dead_pooled_shard_is_replaced(ray_session, fresh_pool):
    first = UrlSeenService(2, 1 << 10)
    first.filter_new(["https://a.pl/1", "https://a.pl/2"])
    dead, kept = first.shards
    first.close()
    ray.kill(dead)
    svc = UrlSeenService(2, 1 << 10)
    ids = _ids(svc.shards)
    assert dead._actor_id.hex() not in ids and kept._actor_id.hex() in ids
    assert svc.counts() == [0, 0]
    assert svc.filter_new(["https://a.pl/1"]).tolist() == [True]
    svc.close()


def test_failed_restore_surfaces_and_shard_is_not_pooled(ray_session,
                                                         tmp_path,
                                                         fresh_pool):
    """A reset that raises (a checkpoint without this shard's file) fails
    the service's first use, not its construction; ``close`` still
    succeeds and drops the half-built shard instead of pooling it."""
    UrlSeenService(1, 1 << 10).close()
    broken = tmp_path / "full"
    broken.mkdir()
    (broken / "shard_9.bin").write_bytes(b"")
    svc = UrlSeenService(1, 1 << 10, restore_from=[str(broken)])
    with pytest.raises(FileNotFoundError):
        svc.counts()
    svc.close()
    assert lease._POOL.idle[UrlSeenShard] == []


def test_stale_lease_call_refused(ray_session, fresh_pool):
    """A copy of a released service (what a stray task of an aborted wave
    holds) cannot touch the shards' next lease."""
    old_u = UrlSeenService(1, 1 << 10)
    old_p = PolitenessService(1, rps_per_host=10.0)
    stray_u = cloudpickle.loads(cloudpickle.dumps(old_u))
    stray_p = cloudpickle.loads(cloudpickle.dumps(old_p))
    old_u.close()
    old_p.close()
    new_u = UrlSeenService(1, 1 << 10)
    new_p = PolitenessService(1, rps_per_host=10.0)
    assert _ids(new_u.shards + new_p.shards) == _ids(stray_u.shards
                                                     + stray_p.shards)

    @ray.remote(num_cpus=0)
    def stray(u):
        return u.filter_new(["https://x.pl/1"])

    with pytest.raises(StaleLeaseError):
        ray.get(stray.remote(stray_u))
    for call in (lambda: stray_p.book({"x.pl": 5}),
                 lambda: stray_p.set_min_spacing("x.pl", 9.0),
                 lambda: stray_p.report({"x.pl": (3, 0)}),
                 stray_p.dump_headroom, stray_u.counts):
        with pytest.raises(StaleLeaseError):
            call()
    assert new_u.counts() == [0]
    assert new_p.book({"x.pl": 1})["x.pl"] == (0.0, pytest.approx(0.1))
    new_u.close()
    new_p.close()


def test_leased_shard_refuses_a_call_naming_no_lease(ray_session,
                                                     fresh_pool):
    """A direct call on a leased shard must name the lease's epoch;
    a standalone shard (held epoch None) still answers without one."""
    u = UrlSeenService(1, 1 << 10)
    p = PolitenessService(1, rps_per_host=10.0)
    with pytest.raises(StaleLeaseError):
        ray.get(u.shards[0].count.remote())
    with pytest.raises(StaleLeaseError):
        ray.get(p.shards[0].book.remote("x.pl", 1))
    assert ray.get(u.shards[0].count.remote(epoch=u.epoch)) == 0
    u.close()
    p.close()
    alone = PolitenessShard.remote(rps_per_host=10.0)
    assert ray.get(alone.book.remote("x.pl", 1))[0] == 0.0
    ray.kill(alone)


def test_re_leased_urlseen_shard_is_empty_or_restored(ray_session, tmp_path,
                                                      fresh_pool):
    urls = [f"https://a.pl/{i}" for i in range(50)]
    first = UrlSeenService(2, 1 << 10)
    first.filter_new(urls)
    full = str(tmp_path / "full")
    first.checkpoint(full, full=True)
    first.filter_new(["https://a.pl/late"])
    delta = str(tmp_path / "delta")
    first.checkpoint(delta, full=False)
    recorded = first.counts()
    ids = _ids(first.shards)
    first.close()
    assert first.counts() == recorded

    empty = UrlSeenService(2, 1 << 10)
    assert _ids(empty.shards) == ids and empty.counts() == [0, 0]
    empty.filter_new(["https://b.pl/1"])
    empty.close()
    # counts() of a closed service never asks a re-leased shard
    assert first.counts() == recorded

    restored = UrlSeenService(2, 1 << 10, restore_from=[full, delta])
    assert _ids(restored.shards) == ids
    assert restored.counts() == recorded
    assert not restored.filter_new(urls + ["https://a.pl/late"]).any()
    pooled = list(restored.shards)
    restored.close()
    for h in pooled:  # while pooled, a shard holds no filter
        assert _peek(h, "filter", "_delta", "epoch") == [None, [], None]


def test_re_leased_politeness_shard_is_clean(ray_session, fresh_pool):
    first = PolitenessService(1, rps_per_host=5.0, backoff_factor=2.0)
    first.book({"a.pl": 3, "b.pl": 1})
    first.report({"a.pl": (2, 0)})
    first.set_min_spacing("b.pl", 1.0)
    (h,) = first.shards
    assert _peek(h, "mult", "min_int") == [{"a.pl": 4.0}, {"b.pl": 1.0}]
    first.close()
    assert _peek(h, "free_at", "mult", "min_int") == [{}, {}, {}]

    again = PolitenessService(1, rps_per_host=5.0, headroom={"c.pl": 30.0})
    assert _ids(again.shards) == _ids([h])
    free_at, mult, min_int = _peek(h, "free_at", "mult", "min_int")
    assert list(free_at) == ["c.pl"] and mult == {} and min_int == {}
    assert again.book({"a.pl": 1, "b.pl": 1}) == {"a.pl": (0.0, 0.2),
                                                  "b.pl": (0.0, 0.2)}
    again.close()


def _free_cpus(want: float, timeout: float = 30.0) -> float:
    t_end = time.monotonic() + timeout
    while True:
        got = ray.available_resources().get("CPU", 0.0)
        if abs(got - want) < 1e-9 or time.monotonic() > t_end:
            return got
        time.sleep(0.02)


def test_lease_reserves_shard_cpus(ray_session, fresh_pool):
    total = ray.cluster_resources()["CPU"]
    gc.collect()  # other tests' garbage, not this test's
    assert _free_cpus(total) == total
    urlseen = UrlSeenService(2, 1 << 10)
    politeness = PolitenessService(1, rps_per_host=10.0)
    assert ray.available_resources()["CPU"] == total - 0.25 * 3
    urlseen.close()
    politeness.close()
    # the idle shards stay in the pool, holding no CPU
    assert _free_cpus(total) == total
    assert len(sum(lease._POOL.idle.values(), [])) == 3


def test_lease_reclaims_cpus_held_by_garbage(ray_session, fresh_pool):
    """Every CPU is held by an actor whose handle only a reference cycle
    keeps alive (as with the actor pool of a finished Ray Data plan), and
    the collector is off: the lease runs the collector while it waits
    for its reservation instead of waiting forever."""
    total = ray.cluster_resources()["CPU"]
    gc.collect()  # other tests' garbage, not this test's
    assert _free_cpus(total) == total

    @ray.remote
    class Hog:
        def ping(self):
            return 1

    leased = []
    gc.disable()
    try:
        cycle = {"hog": Hog.options(num_cpus=total).remote()}
        cycle["self"] = cycle
        ray.get(cycle["hog"].ping.remote())
        del cycle
        waiter = threading.Thread(
            target=lambda: leased.append(UrlSeenService(2, 1 << 10)))
        waiter.start()
        waiter.join(60)
        stuck = waiter.is_alive()
        if stuck:  # unblock the lease before failing
            gc.collect()
            waiter.join()
    finally:
        gc.enable()
    leased[0].close()
    assert not stuck


def _shard_ids(monkeypatch) -> list[set[str]]:
    """Shard actor ids of every service started from now on, one set per
    pair of services (URL-seen first)."""
    seen: list[set[str]] = []
    for cls in (UrlSeenService, PolitenessService):
        init = cls.__init__

        def capture(self, *a, _init=init, **kw):
            _init(self, *a, **kw)
            if isinstance(self, UrlSeenService):
                seen.append(set())
            seen[-1].update(_ids(self.shards))

        monkeypatch.setattr(cls, "__init__", capture)
    return seen


def _sorted(t, keys):
    return t.to_pandas().sort_values(keys).reset_index(drop=True)


def test_back_to_back_crawls_reuse_shards(ray_session, tmp_path, monkeypatch,
                                          fresh_pool):
    ids = _shard_ids(monkeypatch)
    a = run_crawl(PCFG, CCFG, str(tmp_path / "a"))
    b = run_crawl(PCFG, CCFG, str(tmp_path / "b"))
    assert len(ids) == 2 and len(ids[0]) == 3 and ids[0] == ids[1]
    orc = crawl_oracle(Portal(PCFG), CCFG)
    keys = ["source", "region", "page_idx", "pos"]
    for res in (a, b):
        assert (set(res.table("urls")["offer_url"].to_pylist())
                == {r["offer_url"] for r in orc.urls})
        got = _sorted(res.table("offers"), keys)
        exp = pd.DataFrame(orc.offers).sort_values(keys).reset_index(drop=True)
        assert got["url"].tolist() == exp["url"].tolist()
        assert got["price_amount"].tolist() == exp["price_amount"].tolist()
        gp = _sorted(res.table("photos"), ["offer_id", "seq"])
        ep = (pd.DataFrame(orc.photos).sort_values(["offer_id", "seq"])
              .reset_index(drop=True))
        assert gp["url"].tolist() == ep["url"].tolist()


def test_sitemap_crawl_after_run_crawl_reuses_pool(ray_session, tmp_path,
                                                   monkeypatch, fresh_pool):
    pcfg = PortalConfig(regions=("pomorskie",), base_pages=2,
                        page_size_scale=0.2)
    cfg = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                      fetch_batch_size=64, rps_per_host=1e4,
                      politeness_shards=1)
    ids = _shard_ids(monkeypatch)
    run_crawl(pcfg, cfg, str(tmp_path / "wd"))
    reused = sitemap_crawl(pcfg, cfg)
    assert ids[1] == ids[0]
    monkeypatch.setattr(lease, "_POOL", lease._Pool())
    fresh = sitemap_crawl(pcfg, cfg)
    assert not ids[2] & ids[0]
    for name, keys in (("offers", ["url"]), ("photos", ["offer_id", "seq"]),
                       ("urls", ["offer_url"])):
        pd.testing.assert_frame_equal(_sorted(getattr(reused, name), keys),
                                      _sorted(getattr(fresh, name), keys),
                                      obj=name)


def test_new_ray_session_never_reuses_handles(tmp_path):
    """In a fresh interpreter: crawl, ``ray.shutdown()``, ``ray.init()``,
    crawl again; the second crawl gets new actors and the same tables."""
    code = f"""
import ray
from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.pipelines.crawl import run_crawl
from realestate_scraper_ray.state import lease
pcfg = PortalConfig(regions=("pomorskie",), base_pages=2, page_size_scale=0.1)
cfg = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                  fetch_batch_size=16, rps_per_host=1e4, politeness_shards=1)
urls, ids = [], []
for i in range(2):
    ray.init(address="local", num_cpus=2, include_dashboard=False,
             logging_level="ERROR")
    res = run_crawl(pcfg, cfg, {str(tmp_path)!r} + f"/wd{{i}}")
    urls.append(sorted(res.table("urls")["offer_url"].to_pylist()))
    ids.append({{h._actor_id.hex() for hs in lease._POOL.idle.values()
                for h in hs}})
    ray.shutdown()
assert urls[0] == urls[1] and urls[0], urls
assert len(ids[0]) == 3 and not ids[0] & ids[1], ids
print("ok")
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert out.stdout.strip().endswith("ok"), out.stderr[-2000:]
