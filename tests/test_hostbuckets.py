"""Host-keyed frontier partitioning with skew salting (north_rule;
SURVEY.md §7.4): bucket assignment + fragment ordering properties."""

import os

import pyarrow as pa

from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.pipelines.crawl import _host_buckets, run_crawl
from realestate_scraper_ray.sources.synth_portal import Portal


def test_skewed_host_spreads_over_salt_buckets():
    p = Portal(PortalConfig())
    cfg = CrawlConfig(skew_salts=(("otodom", 8),), host_buckets=256)
    oto = [p.offer_url("otodom", "pomorskie", k) for k in range(200)]
    grk = [p.offer_url("gratka", "pomorskie", k) for k in range(200)]
    b_oto = set(_host_buckets(pa.array(oto), cfg))
    b_grk = set(_host_buckets(pa.array(grk), cfg))
    # one otodom host spreads over up to 8 salt buckets; gratka over 1
    assert 2 < len(b_oto) <= 8
    assert len(b_grk) == 1


def test_bucket_is_pure_function_of_url():
    p = Portal(PortalConfig())
    cfg = CrawlConfig()
    urls = pa.array([p.offer_url("otodom", "slaskie", k) for k in range(50)])
    a = _host_buckets(urls, cfg)
    b = _host_buckets(urls, cfg)
    assert (a == b).all()


def test_fragments_are_priority_and_bucket_prefixed(tmp_path, ray_session):
    pcfg = PortalConfig(regions=("pomorskie",), base_pages=2,
                        page_size_scale=0.15)
    run_crawl(pcfg, CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14),
              str(tmp_path / "wd"))
    gen1 = os.path.join(str(tmp_path / "wd"), "frontier", "gen-1")
    names = sorted(os.listdir(gen1))
    assert names, "gen-1 frontier missing"
    # p0 (driver pagination rows) sorts before p2 (detail fragments),
    # and detail fragments carry their host bucket in the name
    assert names[0].startswith("part-p0-")
    assert any(n.startswith("part-p2-b") for n in names)


def test_bucket_handles_odd_urls_and_matches_host_of():
    """Uppercase schemes, scheme-less URLs, path-less URLs with a query
    string, empty strings: no crash, and the bucketed host agrees with
    functions.urls.host_of (the politeness/skew-salt host)."""
    import zlib

    from realestate_scraper_ray.functions.urls import host_of
    cfg = CrawlConfig(skew_salts=(), host_buckets=256)
    urls = ["HTTPS://Host.pl/x", "https://host.pl?page=2", "host.pl/x",
            "", "ftp://other.example/z", "https://host.pl/a?b#c"]
    got = _host_buckets(pa.array(urls, pa.string()), cfg)
    want = [zlib.crc32(host_of(u).encode()) % 256 for u in urls]
    assert list(got) == want


def test_salted_bucket_ids_pinned():
    """The per-URL salt is ``exchange.bucket_of`` (FNV-1a + splitmix64),
    so these ids hold across library upgrades: on-disk validator shards
    keyed by them stay readable."""
    p = Portal(PortalConfig())
    urls = pa.array([p.offer_url("otodom", "pomorskie", k) for k in range(6)])
    assert _host_buckets(urls, CrawlConfig()).tolist() == [115, 115, 108,
                                                           113, 110, 114]
