"""Checkpoint / resume: kill mid-crawl, restart, byte-identical outputs
(FIXTURES.md F6; reference resume semantics cli.py:706-816)."""

import pandas as pd
import pytest

from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.pipelines.crawl import latest_checkpoint_gen, run_crawl

PCFG = PortalConfig(regions=("pomorskie", "mazowieckie"), base_pages=2,
                    page_size_scale=0.12)
CCFG = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14, fetch_batch_size=64)
MEDIA_CFG = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                        fetch_batch_size=64, media_fetch=True)


def _tables(res, names=("urls", "offers", "photos")):
    out = {}
    for name in names:
        df = res.table(name).to_pandas()
        out[name] = df.sort_values(list(df.columns)).reset_index(drop=True)
    return out


def test_kill_and_resume_byte_identical(tmp_path, ray_session):
    names = ("urls", "offers", "photos", "media")
    full = run_crawl(PCFG, MEDIA_CFG, str(tmp_path / "full"))
    killed_dir = str(tmp_path / "killed")
    part = run_crawl(PCFG, MEDIA_CFG, killed_dir, stop_after_generations=3)
    assert part.generations == 3
    assert latest_checkpoint_gen(killed_dir) == 2
    resumed = run_crawl(PCFG, MEDIA_CFG, killed_dir, resume=True)

    ft, rt = _tables(full, names), _tables(resumed, names)
    for name in names:
        pd.testing.assert_frame_equal(ft[name], rt[name], obj=name)
    assert resumed.state == full.state


def test_fetch_fail_regions_resume(tmp_path, ray_session):
    # inject hard failures → some regions end fetch_fail → resume with a
    # healthy fetcher completes them (reference retry rounds,
    # cli.py:731-816)
    wd = str(tmp_path / "wd")
    fail_cfg = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                           fetch_batch_size=64, fail_per_mille=120, fail_depth=9)
    r1 = run_crawl(PCFG, fail_cfg, wd)
    failed = [k for k, v in r1.state.items() if v["stop_reason"] == "fetch_fail"]
    if not failed:
        pytest.skip("failure injection hit no listing page at this size")
    # quarantine table persists the failed fetches (S16/S17 analogue)
    q = r1.table("quarantine")
    assert q.num_rows == r1.pages_failed
    assert set(q.column_names) == {"url", "source", "region", "page_idx",
                                   "pos", "fetch_kind"}
    r2 = run_crawl(PCFG, CCFG, wd, resume=True)
    assert all(v["stop_reason"] != "fetch_fail" for v in r2.state.values())
    # every region reached a terminal stop reason
    assert all(v["stop_reason"] in ("no_links", "no_new", "max_pages")
               for v in r2.state.values())
    # resumed run discovered at least as much as the crippled one
    assert r2.table("urls").num_rows >= r1.table("urls").num_rows


def test_incremental_filter_checkpoint_resume(tmp_path, ray_session):
    # delta-chain checkpoints (full every 3rd) must restore the same
    # URL-seen state: kill mid-run on a delta checkpoint, resume, and
    # the final tables equal the uninterrupted run's
    import os
    inc = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                      fetch_batch_size=64, checkpoint_full_every=3)
    full = run_crawl(PCFG, CCFG, str(tmp_path / "full"))
    killed_dir = str(tmp_path / "killed")
    run_crawl(PCFG, inc, killed_dir, stop_after_generations=4)
    root = os.path.join(killed_dir, "checkpoint")
    kinds = {d: os.path.isdir(os.path.join(root, d, "filters"))
             for d in sorted(os.listdir(root))}
    assert kinds == {"gen-0": True, "gen-1": False, "gen-2": False,
                     "gen-3": True}
    resumed = run_crawl(PCFG, inc, killed_dir, resume=True)
    ft, rt = _tables(full), _tables(resumed)
    for name in ("urls", "offers", "photos"):
        pd.testing.assert_frame_equal(ft[name], rt[name], obj=name)
    assert resumed.state == full.state


def test_frontier_windowing_equals_single_window(tmp_path, ray_session):
    # max_wave_rows splits a generation into bounded sub-executions;
    # outputs and stop states must be identical to the unwindowed run
    windowed = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                           fetch_batch_size=64, max_wave_rows=16)
    a = run_crawl(PCFG, CCFG, str(tmp_path / "single"))
    b = run_crawl(PCFG, windowed, str(tmp_path / "windowed"))
    ta, tb = _tables(a), _tables(b)
    for name in ("urls", "offers", "photos"):
        pd.testing.assert_frame_equal(ta[name], tb[name], obj=name)
    assert a.state == b.state


def test_transient_failures_are_retried_in_stage(tmp_path, ray_session):
    # fail_depth < fetch_attempts → the in-actor retry loop succeeds and
    # the crawl result is identical to a failure-free run
    wd_a = str(tmp_path / "a")
    wd_b = str(tmp_path / "b")
    transient = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                            fetch_batch_size=64, fail_per_mille=200,
                            fail_depth=2, fetch_attempts=5)
    ra = run_crawl(PCFG, transient, wd_a)
    rb = run_crawl(PCFG, CCFG, wd_b)
    ta, tb = _tables(ra), _tables(rb)
    for name in ("urls", "offers", "photos"):
        pd.testing.assert_frame_equal(ta[name], tb[name], obj=name)


def test_windowed_kill_mid_window_resume_byte_identical(tmp_path, ray_session):
    """Kill DURING a windowed generation (some windows' fragments
    already on disk, the generation incomplete) and resume: the partial
    generation is cleaned and re-run whole (replace-on-retry), so the
    final tables are byte-identical to an uninterrupted windowed run —
    delta-chain checkpoints under windowing included."""
    import os
    import shutil

    windowed = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                           fetch_batch_size=64, max_wave_rows=16,
                           checkpoint_full_every=3)
    full = run_crawl(PCFG, windowed, str(tmp_path / "full"))
    killed = str(tmp_path / "killed")
    run_crawl(PCFG, windowed, killed, stop_after_generations=3)
    # simulate a kill midway through generation 3: splice in PARTIAL
    # gen-3 outputs (half the fragments of a completed run) — a real
    # mid-window crash leaves exactly this shape on disk
    for name in ("offers", "photos", "frontier"):
        src = os.path.join(str(tmp_path / "full"), name,
                           "gen-3" if name != "frontier" else "gen-4")
        if not os.path.isdir(src):
            continue
        dst = os.path.join(killed, name,
                           "gen-3" if name != "frontier" else "gen-4")
        os.makedirs(dst, exist_ok=True)
        frags = sorted(os.listdir(src))
        for f in frags[:max(1, len(frags) // 2)]:
            shutil.copy(os.path.join(src, f), os.path.join(dst, f))
    resumed = run_crawl(PCFG, windowed, killed, resume=True)
    ft, rt = _tables(full), _tables(resumed)
    for name in ("urls", "offers", "photos"):
        pd.testing.assert_frame_equal(ft[name], rt[name], obj=name)
    assert resumed.state == full.state


def test_failed_offer_pages_recovered_on_resume(tmp_path, ray_session):
    """Quarantined detail/investment pages re-enqueue (reference retry
    rounds, cli.py:731-816): a crippled run followed by a healthy
    resume converges to EXACTLY the offers of a never-failed run —
    recovered rows keep their original (page_idx, pos) — and a second
    resume is a no-op (no duplicates)."""
    healthy = run_crawl(PCFG, CCFG, str(tmp_path / "healthy"))
    wd = str(tmp_path / "wd")
    fail_cfg = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                           fetch_batch_size=64, fail_per_mille=120,
                           fail_depth=9)
    r1 = run_crawl(PCFG, fail_cfg, wd)
    q1 = r1.table("quarantine").to_pandas()
    if not (q1["fetch_kind"].isin(["detail", "investment"])).any():
        pytest.skip("failure injection hit no offer page at this size")
    assert r1.offers < healthy.offers  # the crippled run lost offers
    r2 = run_crawl(PCFG, CCFG, wd, resume=True)
    ho = _tables(healthy, ("offers",))["offers"]
    r2o = _tables(r2, ("offers",))["offers"]
    pd.testing.assert_frame_equal(r2o, ho)
    # idempotence: resuming again adds nothing
    r3 = run_crawl(PCFG, CCFG, wd, resume=True)
    pd.testing.assert_frame_equal(_tables(r3, ("offers",))["offers"], ho)


def test_resume_with_other_shard_count_fails_on_driver(tmp_path, ray_session,
                                                       monkeypatch):
    """A checkpoint written by 4 URL-seen shards cannot be loaded by 2:
    the driver raises ValueError naming both counts before it starts any
    service actor (not an assert, which ``python -O`` strips)."""
    from realestate_scraper_ray.state import politeness, urlseen

    wd = str(tmp_path / "wd")
    run_crawl(PCFG, CCFG, wd, stop_after_generations=1)

    class NoActor:
        @staticmethod
        def remote(*a, **kw):
            raise AssertionError("a service actor started")

    monkeypatch.setattr(urlseen, "UrlSeenShard", NoActor)
    monkeypatch.setattr(politeness, "PolitenessShard", NoActor)
    two = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                      fetch_batch_size=64)
    with pytest.raises(ValueError, match=r"holds 4 URL-seen shards.* runs 2"):
        run_crawl(PCFG, two, wd, resume=True)
