"""Sitemap-seeded crawl: a standalone pipeline composed from the
engine's existing stages — sitemap expansion (stages/sitemap.py) →
URL-seen admission (state/urlseen.py) → politeness-paced fetch+parse
(stages/fetch.py) — WITHOUT the listing walk. The composition the
§2.10 extension surface promises: a brand-new discovery source plugs
into the same fetch/parse/politeness machinery with no engine changes.

The reference scraper has no sitemap consumption (discovery is
listing-walk only, e.g. otodom.py:539-604); this is beyond-reference
frontier tooling. Offers found here carry page_idx=0 and pos = the
URL's global sitemap position, so crawl-order keys stay deterministic
and a sequential oracle (same walk in plain Python, reusing the
oracle's detail-parse gates) is row-comparable.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import CrawlConfig, PortalConfig
from ..sources.synth_portal import PORTAL_TODAY_ORD, Portal
from ..state.politeness import PolitenessService
from ..state.urlseen import UrlSeenService
from ..stages.sitemap import (frontier_from_sitemap, parse_sitemap,
                              sitemap_entries)

__all__ = ["sitemap_crawl", "sitemap_crawl_oracle", "SitemapCrawlResult"]


def _index_rows(portal: Portal) -> list[dict]:
    """Discover index documents the way a real crawler does: read each
    distinct host's robots.txt and take its ``Sitemap:`` directives
    (RFC 9309 §2.3), classifying each URL back to (source, region).
    Host-scale work, driver-side by design."""
    from ..stages.sitemap import parse_robots_sitemaps
    hosts = {portal.host(s, r)
             for s in portal.cfg.sources for r in portal.cfg.regions}
    rows = []
    for h in sorted(hosts):
        for u in parse_robots_sitemaps(portal.robots_txt(h)):
            sr = portal.classify_sitemap_url(u)
            if sr is not None:
                rows.append({"source": sr[0], "region": sr[1], "url": u})
    return sorted(rows, key=lambda r: (r["source"], r["region"]))


def _min_lastmod(cfg: CrawlConfig) -> str | None:
    if cfg.last_days is None:
        return None
    return (datetime.date.fromordinal(PORTAL_TODAY_ORD)
            - datetime.timedelta(days=cfg.last_days)).isoformat()


@dataclass
class SitemapCrawlResult:
    offers: pa.Table
    photos: pa.Table
    urls: pa.Table
    n_entries: int = 0
    n_admitted: int = 0

    def table(self, name: str) -> pa.Table:
        return getattr(self, name)


def sitemap_crawl(portal_cfg: PortalConfig,
                  crawl_cfg: CrawlConfig | None = None) -> SitemapCrawlResult:
    """Run the sitemap-seeded crawl; returns offer/photo/url tables.

    One streamed execution: entries fan out through the sitemap actor
    pools, admission dedups against the sharded URL-seen service
    (test-and-set — chunk overlaps and re-listed URLs fetch once), and
    the admitted detail rows flow straight into the shared fetch+parse
    stage (same politeness booking, robots gates, extractor chains and
    REQ_FIELDS/range validation as the listing crawl)."""
    cfg = crawl_cfg or CrawlConfig()
    portal = Portal(portal_cfg)
    urlseen = UrlSeenService(cfg.urlseen_shards, cfg.urlseen_capacity)
    politeness = PolitenessService(cfg.politeness_shards, cfg.rps_per_host,
                                   backoff_factor=cfg.backoff_factor,
                                   backoff_cap_mult=cfg.backoff_cap_mult)
    try:
        entries = sitemap_entries(
            lambda: Portal(portal_cfg).render_sitemap,
            _index_rows(portal), min_lastmod=_min_lastmod(cfg))
        frontier = frontier_from_sitemap(entries,
                                         chunk_size=portal.SITEMAP_CHUNK)

        def admit(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            mask = urlseen.filter_new(t["url"].combine_chunks())
            return t.filter(pa.array(mask))

        # materialize: admission is a SIDE-EFFECTING stage (test-and-set
        # against the URL-seen shards) — the two consumers below (fetch,
        # urls table) must read the one executed result, not re-run it
        admitted = (frontier.map_batches(admit, batch_format="pyarrow")
                    .materialize())

        from ..stages.fetch import COMBINED_SCHEMA, make_fetch_fn
        fetched = admitted.map_batches(
            make_fetch_fn(portal_cfg, cfg, politeness),
            batch_format="pyarrow", batch_size=cfg.fetch_batch_size)

        from .crawl import OFFER_OUT_COLS, PHOTO_OUT_COLS, urls_of
        combined = pa.Table.from_pylist(fetched.take_all(), schema=COMBINED_SCHEMA)
        offers = (combined.filter(pc.equal(combined["rec_kind"], "offer"))
                  .select(OFFER_OUT_COLS))
        photos = (combined.filter(pc.equal(combined["rec_kind"], "photo"))
                  .select(PHOTO_OUT_COLS))
        adm = pa.Table.from_pylist(admitted.take_all())
        return SitemapCrawlResult(
            offers=offers, photos=photos, urls=urls_of(adm, kind="offer"),
            n_entries=int(entries.count()), n_admitted=adm.num_rows)
    finally:
        # the admit closure in Ray Data plans keeps both services alive
        # until the garbage collector runs; end their actors now
        urlseen.close()
        politeness.close()


@dataclass
class _OracleAcc:
    urls: list = field(default_factory=list)
    offers: list = field(default_factory=list)
    photos: list = field(default_factory=list)
    seen: set = field(default_factory=set)


def sitemap_crawl_oracle(portal: Portal,
                         crawl_cfg: CrawlConfig | None = None) -> _OracleAcc:
    """Sequential twin: the same sitemap walk + detail parse in plain
    Python, reusing the crawl oracle's offer-emission gates."""
    from .oracle import OracleResult, _FailInjector, _emit_offer
    cfg = crawl_cfg or CrawlConfig()
    cutoff = _min_lastmod(cfg)
    res = OracleResult()
    inject = _FailInjector(cfg)
    st = {"fetched": 0, "parsed": 0, "failed": 0}
    for row in _index_rows(portal):
        s, r = row["source"], row["region"]
        _, chunks = parse_sitemap(portal.render_sitemap(row["url"]))
        for ci, cu in enumerate(chunks):
            _, entries = parse_sitemap(portal.render_sitemap(cu))
            for pos, e in enumerate(entries):
                if (cutoff is not None and e["lastmod"] is not None
                        and e["lastmod"] < cutoff):
                    continue
                u = e["url"]
                if u in res.seen:
                    continue
                res.seen.add(u)
                _emit_offer(portal, cfg, s, r, 0,
                            ci * portal.SITEMAP_CHUNK + pos, u, res,
                            inject, st)
    out = _OracleAcc(urls=res.urls, offers=res.offers,
                     photos=res.photos, seen=res.seen)
    return out
