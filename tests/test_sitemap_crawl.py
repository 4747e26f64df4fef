"""Sitemap-seeded crawl pipeline: engine ≡ sequential oracle (offers,
photos, URL set + crawl-order keys), recency pushdown, URL-seen
admission."""

import pandas as pd
import pytest

from realestate_scraper_ray import schemas
from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.pipelines.crawl import OUT_SCHEMAS
from realestate_scraper_ray.pipelines.sitemap_crawl import (
    sitemap_crawl, sitemap_crawl_oracle,
)
from realestate_scraper_ray.sources.synth_portal import Portal

PCFG = PortalConfig(regions=("pomorskie", "mazowieckie"), base_pages=2,
                    page_size_scale=0.3)
CCFG = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                   fetch_batch_size=64)


@pytest.fixture(scope="module")
def run(ray_session):
    return (sitemap_crawl(PCFG, CCFG),
            sitemap_crawl_oracle(Portal(PCFG), CCFG))


def test_offers_equal_oracle(run):
    res, orc = run
    go = res.offers.to_pandas().sort_values("url").reset_index(drop=True)
    eo = pd.DataFrame(orc.offers).sort_values("url").reset_index(drop=True)
    assert len(go) == len(eo) > 0
    for c in go.columns:
        if c in eo.columns:
            assert go[c].astype(str).tolist() == eo[c].astype(str).tolist(), c
    # sitemap-discovered offers carry page_idx=0 and sitemap positions
    assert (go["page_idx"] == 0).all()


def test_url_set_and_order_equal_oracle(run):
    res, orc = run
    assert (set(res.urls["offer_url"].to_pylist())
            == {r["offer_url"] for r in orc.urls})
    gud = (res.urls.to_pandas()
           .sort_values(["source", "region", "pos"]).reset_index(drop=True))
    eud = (pd.DataFrame(orc.urls)
           .sort_values(["source", "region", "pos"]).reset_index(drop=True))
    assert gud["offer_url"].tolist() == eud["offer_url"].tolist()
    assert gud["pos"].tolist() == eud["pos"].tolist()


def test_photos_equal_oracle(run):
    res, orc = run
    gp = (res.photos.to_pandas()
          .sort_values(["offer_id", "seq"]).reset_index(drop=True))
    ep = (pd.DataFrame(orc.photos)
          .sort_values(["offer_id", "seq"]).reset_index(drop=True))
    assert len(gp) == len(ep) > 0
    assert gp["url"].tolist() == ep["url"].tolist()


def test_last_days_pushdown(run, ray_session):
    res_full, _ = run
    cfg = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                      fetch_batch_size=64, last_days=15)
    res = sitemap_crawl(PCFG, cfg)
    orc = sitemap_crawl_oracle(Portal(PCFG), cfg)
    got = set(res.urls["offer_url"].to_pylist())
    assert got == {r["offer_url"] for r in orc.urls}
    assert 0 < len(got) < res_full.urls.num_rows  # strict subset


def test_admission_dedups(run):
    res, _ = run
    # every sitemap entry is unique here, so admission passes all
    # exactly once — and the urls table has no duplicate URL
    assert res.n_admitted == res.n_entries
    u = res.urls["offer_url"].to_pylist()
    assert len(u) == len(set(u))


def test_nothing_admitted_keeps_typed_urls_schema(ray_session):
    """A recency cutoff no sitemap entry passes admits nothing; the
    urls, offers and photos tables still carry the crawl's column
    types, zero rows."""
    cfg = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                      fetch_batch_size=64, last_days=-100_000)
    res = sitemap_crawl(PCFG, cfg)
    assert res.n_admitted == 0 and res.urls.num_rows == 0
    assert res.urls.schema == schemas.URLS
    for name in ("offers", "photos"):
        t = res.table(name)
        assert t.num_rows == 0 and t.schema == OUT_SCHEMAS[name]
    assert not sitemap_crawl_oracle(Portal(PCFG), cfg).urls
