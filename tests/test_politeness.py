"""Per-host politeness budget (state/politeness.py): token-bucket
semantics and the end-to-end crawl wall-time bound. Reference analogue:
the blocking min-interval limiter (http.py:11-21) — ours is per-host,
so budget enforcement must hold per host while throughput scales with
host-parallelism."""

import json
import os
import time

import pytest
import ray

from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.pipelines.crawl import gen_dir, run_crawl
from realestate_scraper_ray.state.politeness import PolitenessShard, PolitenessService


def test_token_bucket_spacing(ray_session):
    shard = PolitenessShard.remote(rps_per_host=10.0)  # 100 ms interval
    d1 = ray.get(shard.acquire.remote("h.pl", 1))
    assert d1 == 0.0                       # burst slot free immediately
    d2 = ray.get(shard.acquire.remote("h.pl", 5))
    d3 = ray.get(shard.acquire.remote("h.pl", 1))
    # after booking 1+5 slots, the 7th slot opens ~0.5-0.6 s out
    assert d3 > d2 >= 0.0
    assert d3 == pytest.approx(0.6, abs=0.25)
    # independent host: own bucket, immediate slot
    assert ray.get(shard.acquire.remote("other.pl", 1)) == 0.0


def test_disabled_politeness_spawns_no_actors(ray_session):
    svc = PolitenessService(4, rps_per_host=1e9)
    assert svc.shards == []
    assert svc.acquire("x.pl", 100) == 0.0


def test_crawl_respects_per_host_budget(tmp_path, ray_session):
    # single shared-host source (trojmiasto) → every page hits one host;
    # wall time must be at least (requests-1)/rps
    pcfg = PortalConfig(sources=("trojmiasto",), regions=("pomorskie",),
                        base_pages=2, page_size_scale=0.12)
    rps = 4.0
    cfg = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                      fetch_batch_size=8, rps_per_host=rps,
                      politeness_shards=2)
    t0 = time.time()
    res = run_crawl(pcfg, cfg, str(tmp_path / "wd"))
    wall = time.time() - t0
    pages = res.pages_fetched + res.pages_failed
    assert pages >= 8
    assert wall >= (pages - 1) / rps * 0.9  # budget enforced (burst=1)


def test_budget_headroom_checkpoint_roundtrip(ray_session):
    """Per-host budget state survives the checkpoint form (north_star
    crawl-state clause): remaining delays dump as ONE host→delay map and
    restore into a fresh service via the same crc32 routing acquire
    uses, so a restarted job cannot burst past budget. The fresh
    service takes the map in its constructor; each shard applies its
    slice before it answers any RPC."""
    import zlib

    svc = PolitenessService(2, rps_per_host=1.0)
    svc.acquire("busy.pl", 1)      # books slot now
    busy_shard = svc.shards[zlib.crc32(b"busy.pl") % 2]
    # 60 booked slots: magnitude semantics still checked (headroom ≈
    # bookings minus elapsed) with enough margin that a loaded-suite
    # scheduler stall between RPCs cannot erode it below the band
    ray.get(busy_shard.acquire.remote("busy.pl", 59, epoch=svc.epoch))
    headroom = svc.dump_headroom()
    assert "busy.pl" in headroom
    assert 30.0 < headroom["busy.pl"] <= 60.0

    fresh = PolitenessService(2, rps_per_host=1.0, headroom=headroom)
    # next acquire on the restored service must wait out the headroom
    shard = fresh.shards[zlib.crc32(b"busy.pl") % 2]
    delay = ray.get(shard.acquire.remote("busy.pl", 1, epoch=fresh.epoch))
    assert delay > 10.0            # restored budget enforced
    # unknown hosts are unaffected
    assert ray.get(shard.acquire.remote("fresh.pl", 1,
                                      epoch=fresh.epoch)) == 0.0

    # disabled politeness: dump is empty, restore is a no-op
    off = PolitenessService(2, rps_per_host=1e9)
    assert off.dump_headroom() == {}
    off = PolitenessService(2, rps_per_host=1e9, headroom=headroom)
    assert off.shards == [] and off.dump_headroom() == {}


def test_headroom_restores_across_different_shard_count(ray_session,
                                                        tmp_path):
    """The checkpoint is shard-count independent: a resume with MORE (or
    fewer) politeness shards must still route every restored budget to
    the shard acquire consults — a positional per-shard restore would
    silently un-enforce budgets here."""
    import zlib

    svc = PolitenessService(2, rps_per_host=1.0)
    hosts = [f"h{i}.pl" for i in range(6)]
    for h in hosts:
        svc.acquire(h, 1)
        shard = svc.shards[zlib.crc32(h.encode()) % 2]
        # Book ~15 min of headroom: this test asserts ROUTING (the
        # restored budget lands in the shard acquire consults), not
        # timing — under a fully loaded suite, actor spin-up between
        # booking and the final assert has been observed to exceed 12 s,
        # so the margin must dwarf any plausible scheduler stall.
        ray.get(shard.acquire.remote(h, 900, epoch=svc.epoch))
    headroom = svc.dump_headroom()
    assert set(headroom) == set(hosts)

    resumed = PolitenessService(5, rps_per_host=1.0,  # different count
                                headroom=headroom)
    for h in hosts:
        shard = resumed.shards[zlib.crc32(h.encode()) % 5]
        assert ray.get(shard.acquire.remote(h, 1, epoch=resumed.epoch)) > 1.0

    # a checkpoint in the old list-of-per-shard-maps layout is refused
    # on the driver, before any shard is leased
    ck = gen_dir(str(tmp_path), "checkpoint", 1)
    os.makedirs(ck)
    with open(os.path.join(ck, "state.json"), "w") as f:
        json.dump({"regions": {}}, f)
    with open(os.path.join(ck, "politeness.json"), "w") as f:
        json.dump([{h: 120.0} for h in hosts], f)
    with pytest.raises(ValueError, match="host→delay map"):
        run_crawl(PortalConfig(regions=("pomorskie",)), CrawlConfig(),
                  str(tmp_path), resume=True)


def test_politeness_burst_carries_bounded_credit(ray_session):
    """A shard's ``burst``: a host idle across a wave barrier accrues at
    most `burst` slots of credit — an 8-slot booking after a long idle
    starts 8-burst intervals of headroom deep, never less (long-run
    rate stays <= rps)."""
    import time

    import ray

    from realestate_scraper_ray.state.politeness import PolitenessShard
    sh = PolitenessShard.remote(rps_per_host=10.0, burst=3)  # 0.1s slots
    ray.get(sh.acquire.remote("h", 1))
    time.sleep(1.0)  # ~10 slots idle; credit must cap at burst=3
    d = ray.get(sh.acquire.remote("h", 8))
    assert d == 0.0  # first slot opens immediately (credit available)
    head = ray.get(sh.snapshot_headroom.remote()).get("h", 0.0)
    # free_at advanced (8 - 3) slots past now = 0.5 s (minus RPC time)
    assert 0.30 < head <= 0.52


def test_backoff_widens_and_recovers_spacing(ray_session):
    """AIMD failure backoff: fails multiply a host's spacing (capped),
    successes divide it back to the base interval; other hosts are
    untouched; factor 1.0 leaves report() a no-op."""
    shard = PolitenessShard.remote(rps_per_host=10.0, burst=1,
                                   backoff_factor=2.0, backoff_cap_mult=8.0)
    d0, sp0 = ray.get(shard.book.remote("bad.pl", 1))
    assert sp0 == pytest.approx(0.1)
    assert ray.get(shard.report.remote("bad.pl", 3, 0)) == 8.0  # 2^3 capped
    _, sp1 = ray.get(shard.book.remote("bad.pl", 1))
    assert sp1 == pytest.approx(0.8)
    _, sp_other = ray.get(shard.book.remote("good.pl", 1))
    assert sp_other == pytest.approx(0.1)
    assert ray.get(shard.report.remote("bad.pl", 0, 2)) == 2.0   # 8/2^2
    assert ray.get(shard.report.remote("bad.pl", 0, 5)) == 1.0   # floored
    _, sp2 = ray.get(shard.book.remote("bad.pl", 1))
    assert sp2 == pytest.approx(0.1)
    off = PolitenessShard.remote(rps_per_host=10.0)
    assert ray.get(off.report.remote("x.pl", 9, 0)) == 1.0


def test_backoff_spacing_enforced_end_to_end(ray_session):
    """A penalised host's booked slots really are spaced at the widened
    interval — the second booking lands mult × interval later."""
    svc = PolitenessService(2, rps_per_host=5.0, backoff_factor=4.0)
    d, sp = svc.book({"slow.pl": 1})["slow.pl"]
    assert (d, sp) == (0.0, pytest.approx(0.2))
    svc.report({"slow.pl": (1, 0)})
    d2, sp2 = svc.book({"slow.pl": 2})["slow.pl"]
    assert sp2 == pytest.approx(0.8)
    d3, _ = svc.book({"slow.pl": 1})["slow.pl"]
    # previous booking reserved 2 slots at 0.8 s spacing ⇒ ≥1.4 s out
    assert d3 > 1.2


def test_crawl_with_backoff_matches_oracle(tmp_path, ray_session):
    """Backoff changes pacing, never results: a flaky crawl (soft
    failures, retries succeed) with backoff on equals the same crawl
    with backoff off."""
    import pandas as pd

    from realestate_scraper_ray.config import PortalConfig
    from realestate_scraper_ray.pipelines.crawl import run_crawl
    pcfg = PortalConfig(regions=("pomorskie",), base_pages=2,
                        page_size_scale=0.2)
    base = dict(urlseen_shards=2, urlseen_capacity=1 << 13,
                fetch_batch_size=64, rps_per_host=200.0,
                politeness_shards=2, fetch_num_cpus=0.5,
                fail_per_mille=150, fail_depth=2)  # soft: retries succeed
    a = run_crawl(pcfg, CrawlConfig(**base, backoff_factor=2.0),
                  str(tmp_path / "a"))
    b = run_crawl(pcfg, CrawlConfig(**base), str(tmp_path / "b"))
    for name in ("urls", "offers"):
        ta = (a.table(name).to_pandas()
              .sort_values(["source", "region", "page_idx", "pos"])
              .reset_index(drop=True))
        tb = (b.table(name).to_pandas()
              .sort_values(["source", "region", "page_idx", "pos"])
              .reset_index(drop=True))
        pd.testing.assert_frame_equal(ta, tb, obj=name)


def test_politeness_threshold_lives_in_politeness_only():
    """``rps_per_host >= 1e8`` means "no politeness actors"; that rule is
    decided once, in state/politeness.py, and callers ask
    ``PolitenessService.enabled`` instead of repeating the literal."""
    import pathlib
    import re

    pkg = pathlib.Path(__file__).resolve().parent.parent / "realestate_scraper_ray"
    hits = sorted(p.relative_to(pkg).as_posix() for p in pkg.rglob("*.py")
                  if re.search(r"\b1e8\b", p.read_text()))
    assert hits == ["state/politeness.py"]
