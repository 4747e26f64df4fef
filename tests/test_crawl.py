"""Engine vs sequential oracle: the BASELINE.md correctness gate.

Asserts (north_rule invariants):
  (a) URL-seen set equality (frontier dedup semantics)
  (b) crawl-order equality on (source, region, page_idx, pos)
  (c) offers table equality (full 11-col rows + order keys)
  (d) per-offer span-sequence equality (kind, text, media_ref, order)
      via the photos table + offer field values
  (e) per-region stop reasons / last_page_done equality
"""

import pandas as pd
import pytest

from realestate_scraper_ray.config import CrawlConfig
from realestate_scraper_ray.pipelines.crawl import run_crawl
from realestate_scraper_ray.pipelines.oracle import crawl_oracle

CRAWL = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                    fetch_batch_size=64, fetch_concurrency=2,
                    politeness_shards=2)


@pytest.fixture(scope="module")
def run(small_portal, tmp_path_factory, ray_session):
    workdir = str(tmp_path_factory.mktemp("crawl"))
    engine = run_crawl(small_portal.cfg, CRAWL, workdir)
    oracle = crawl_oracle(small_portal, CRAWL)
    return engine, oracle, small_portal


def _key_sorted(df, cols=("source", "region", "page_idx", "pos")):
    return df.sort_values(list(cols)).reset_index(drop=True)


def test_url_seen_set_equality(run):
    engine, oracle, _ = run
    got = set(engine.table("urls")["offer_url"].to_pylist())
    assert got == {r["offer_url"] for r in oracle.urls}


def test_crawl_order_equality(run):
    # The oracle's sequential emission order is reproduced by sorting on
    # the explicit order keys (source, region, page_idx, pos) — the
    # engine carries those keys through every shuffle (SURVEY.md §7.5).
    engine, oracle, portal = run
    got = _key_sorted(engine.table("urls").to_pandas())
    exp = _key_sorted(pd.DataFrame(oracle.urls))
    assert got["offer_url"].tolist() == exp["offer_url"].tolist()
    assert got["page_idx"].tolist() == exp["page_idx"].tolist()
    assert got["pos"].tolist() == exp["pos"].tolist()
    assert got["offer_id"].tolist() == exp["offer_id"].tolist()


def test_oracle_emission_order_is_key_order(run):
    # sanity: within each (source, region), the oracle's sequential
    # emission order equals the (page_idx, pos) sort order, so the sorted
    # comparison above really is a crawl-order check
    _, oracle, _ = run
    per = {}
    for r in oracle.urls:
        per.setdefault((r["source"], r["region"]), []).append(
            (r["page_idx"], r["pos"]))
    for keys in per.values():
        assert keys == sorted(keys)


def test_offers_table_equality(run):
    engine, oracle, _ = run
    got = _key_sorted(engine.table("offers").to_pandas())
    exp = _key_sorted(pd.DataFrame(oracle.offers))
    assert len(got) == len(exp)
    for col in ("offer_id", "source", "url", "price_amount", "price_currency",
                "price_per_m2", "city", "lat", "lon", "area_m2", "rooms",
                "title", "district", "street", "floor", "floors",
                "market_type", "property_type", "posted_at", "updated_at",
                "first_seen", "last_seen"):
        pd.testing.assert_series_equal(
            got[col], exp[col].astype(got[col].dtype), check_names=False,
            obj=col)
    # datetimes really parsed (not null) and Polish-format dates covered
    assert got["posted_at"].notna().all()
    assert (got["first_seen"] == pd.Timestamp("2026-02-01")).all()


def test_span_sequence_equality(run):
    # photos.csv (offer_id, seq, url) rows: ordered media spans per offer
    engine, oracle, _ = run
    got = engine.table("photos").to_pandas().sort_values(
        ["offer_id", "seq"]).reset_index(drop=True)
    exp = pd.DataFrame(oracle.photos).sort_values(
        ["offer_id", "seq"]).reset_index(drop=True)
    assert len(got) == len(exp)
    assert got["offer_id"].tolist() == exp["offer_id"].tolist()
    assert got["seq"].tolist() == exp["seq"].tolist()
    assert got["url"].tolist() == exp["url"].tolist()
    # seq is 0-based and dense per offer
    first = got.groupby("offer_id")["seq"].min()
    assert (first == 0).all()


def test_region_stop_state_equality(run):
    engine, oracle, _ = run
    for key, est in engine.state.items():
        s, r = key.split("|")
        ost = oracle.state[(s, r)]
        assert est["stop_reason"] == ost["stop_reason"], key
        assert est["last_page_done"] == ost["last_page_done"], key
        assert est["fetched"] == ost["fetched"], key
        assert est["parsed"] == ost["parsed"], key


def test_limit_offers_and_photos_match_oracle(small_portal, tmp_path, ray_session):
    # --limit / --limit-photos semantics (stream.py:145-149,
    # photos.py:71-75): frontier unaffected; offers truncate to the
    # first N detail URLs in global crawl order; photos cap per offer
    cfg = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                      fetch_batch_size=64, limit_offers=25, limit_photos=3)
    engine = run_crawl(small_portal.cfg, cfg, str(tmp_path / "wd"))
    oracle = crawl_oracle(small_portal, cfg)
    got_urls = _key_sorted(engine.table("urls").to_pandas())
    exp_urls = _key_sorted(pd.DataFrame(oracle.urls))
    assert got_urls["offer_url"].tolist() == exp_urls["offer_url"].tolist()
    got = _key_sorted(engine.table("offers").to_pandas())
    exp = _key_sorted(pd.DataFrame(oracle.offers))
    assert got["offer_id"].tolist() == exp["offer_id"].tolist()
    gp = engine.table("photos").to_pandas().sort_values(
        ["offer_id", "seq"]).reset_index(drop=True)
    ep = pd.DataFrame(oracle.photos).sort_values(
        ["offer_id", "seq"]).reset_index(drop=True)
    assert gp["url"].tolist() == ep["url"].tolist()
    assert gp["seq"].max() <= 2
    _assert_dataset_equals_table(engine)


def test_robots_off_matches_oracle(tmp_path, ray_session):
    # With robots=False the engine must crawl '/private' links exactly
    # like the oracle (the reference has no robots handling at all):
    # URL-seen set and offers include the blocked pages' content.
    from realestate_scraper_ray.config import PortalConfig
    from realestate_scraper_ray.sources.synth_portal import Portal
    portal = Portal(PortalConfig(regions=("pomorskie",), base_pages=2,
                                 page_size_scale=0.15,
                                 robots_blocked_per_mille=150))
    cfg = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                      fetch_batch_size=64, robots=False)
    engine = run_crawl(portal.cfg, cfg, str(tmp_path / "wd"))
    oracle = crawl_oracle(portal, cfg)
    got = set(engine.table("urls")["offer_url"].to_pylist())
    assert got == {r["offer_url"] for r in oracle.urls}
    assert any("/private/" in u for u in got)  # blocked pages crawled
    go = _key_sorted(engine.table("offers").to_pandas())
    eo = _key_sorted(pd.DataFrame(oracle.offers))
    assert go["offer_id"].tolist() == eo["offer_id"].tolist()


def test_last_days_pushdown_matches_oracle(small_portal, tmp_path, ray_session):
    # recency pushdown (morizon.py:652-659): only offers posted within
    # last_days appear in listing results; baked into the listing URL so
    # the server prunes. Engine and oracle must agree, and the filtered
    # crawl must be a strict subset of the unfiltered one.
    cfg = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                      fetch_batch_size=64, last_days=15)
    engine = run_crawl(small_portal.cfg, cfg, str(tmp_path / "wd"))
    oracle = crawl_oracle(small_portal, cfg)
    got = set(engine.table("urls")["offer_url"].to_pylist())
    assert got == {r["offer_url"] for r in oracle.urls}
    go = _key_sorted(engine.table("offers").to_pandas())
    eo = _key_sorted(pd.DataFrame(oracle.offers))
    assert go["offer_id"].tolist() == eo["offer_id"].tolist()
    # every direct (non-investment) offer is fresh enough
    direct = go[go["pos"] % 10000 == 0]
    cutoff = pd.Timestamp("2026-02-01") - pd.Timedelta(days=15)
    assert (direct["posted_at"] >= cutoff).all()
    full = crawl_oracle(small_portal, CrawlConfig())
    assert got < {r["offer_url"] for r in full.urls}  # strict subset


def test_crawl_media_matches_oracle(small_portal, tmp_path, ray_session):
    # media download wired into the crawl (reference core/images.py:48-91;
    # its tests/test_images.py:19-43 asserts status/bytes/ext/mime/sha256
    # length and the exact path {source}/{offer_id}/{seq:03d}.{ext})
    import re
    cfg = CrawlConfig(urlseen_shards=4, urlseen_capacity=1 << 14,
                      fetch_batch_size=64, media_fetch=True)
    engine = run_crawl(small_portal.cfg, cfg, str(tmp_path / "wd"))
    oracle = crawl_oracle(small_portal, cfg)
    got = engine.table("media").to_pandas().sort_values(
        ["offer_id", "seq"]).reset_index(drop=True)
    exp = pd.DataFrame(oracle.media).sort_values(
        ["offer_id", "seq"]).reset_index(drop=True)
    assert len(got) == len(exp) > 0
    for col in ("offer_id", "seq", "url", "source", "mime", "ext", "n_bytes",
                "sha256", "status", "local_path"):
        assert got[col].tolist() == exp[col].tolist(), col
    ok = got[got.status == "ok"]
    assert len(ok) > 0
    pat = re.compile(r"^media/(otodom|gratka|morizon|trojmiasto)/\d+/\d{3}\.(jpg|png|webp)$")
    assert ok["local_path"].map(lambda p: bool(pat.match(p))).all()
    # path seq matches the row's seq, zero-padded (storage.py:88-111)
    assert (ok["local_path"].str.extract(r"/(\d{3})\.")[0].astype(int)
            == ok["seq"]).all()
    assert (ok["sha256"].str.len() == 64).all()
    assert (ok["n_bytes"] > 0).all()
    assert (got.status == "failed").any()  # bad-magic payloads rejected
    failed = got[got.status == "failed"]
    assert failed["local_path"].isna().all() and failed["sha256"].isna().all()


def test_dataset_reader_equals_table(run):
    _assert_dataset_equals_table(run[0])


def _assert_dataset_equals_table(engine):
    # the streaming Dataset reader must agree with the driver-side
    # verification table() on every output table
    import pyarrow as pa
    for name in ("urls", "offers", "photos"):
        got = pa.Table.from_pylist(engine.dataset(name).take_all()).to_pandas()
        exp = engine.table(name).to_pandas()
        key = ["offer_id", "seq"] if name == "photos" else \
            ["source", "region", "page_idx", "pos"]
        got = got[sorted(got.columns)].sort_values(key).reset_index(drop=True)
        exp = exp[sorted(exp.columns)].sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_metrics_totals(run):
    engine, oracle, _ = run
    assert engine.offers == len(oracle.offers)
    assert engine.pages_fetched == sum(
        st["fetched"] for st in oracle.state.values())


def test_new_source_plugs_in(tmp_path, ray_session):
    """§2.10 extension surface: a 5th portal source registers via
    PortalConfig.extra_sources (name, page_size, weight, no_new_stop) —
    no engine/module changes — and the generic URL scheme + parse chain
    crawl it with full oracle equality (the rebuild's BaseAdapter
    protocol, reference scrapper/adapters/base.py:19-46)."""
    from collections import Counter

    from realestate_scraper_ray.config import PortalConfig
    from realestate_scraper_ray.sources.synth_portal import Portal

    pcfg = PortalConfig(sources=("otodom", "domiporta"),
                        regions=("pomorskie",),
                        base_pages=3, page_size_scale=0.2,
                        extra_sources=(("domiporta", 24, 1.2, 2),))
    engine = run_crawl(pcfg, CRAWL, str(tmp_path / "wd"))
    oracle = crawl_oracle(Portal(pcfg), CRAWL)

    got_urls = sorted(engine.table("urls")["offer_url"].to_pylist())
    assert got_urls == sorted(r["offer_url"] for r in oracle.urls)

    eo = engine.table("offers")
    got = sorted(zip(eo["offer_id"].to_pylist(),
                     eo["price_amount"].to_pylist(),
                     eo["city"].to_pylist()))
    exp = sorted((r["offer_id"], r["price_amount"], r["city"])
                 for r in oracle.offers)
    assert got == exp
    by_source = Counter(eo["source"].to_pylist())
    assert by_source["domiporta"] > 0          # the new source crawled
    # its no_new_stop policy (2) drove a real stop decision
    st = engine.state.get("domiporta|pomorskie")
    assert st and st["stop_reason"] in ("no_new", "no_links", "max_pages")


def test_new_source_plugs_in_html_mode(tmp_path, ray_session):
    """§2.10 × html mode: an extension source is served the GENERIC
    markup dialect and the dialect dispatch falls through to the
    generic extractor for unknown hosts — full oracle equality with
    pages arriving as HTML."""
    from realestate_scraper_ray.config import PortalConfig
    from realestate_scraper_ray.sources.synth_portal import Portal

    base = dict(sources=("otodom", "domiporta"), regions=("pomorskie",),
                base_pages=3, page_size_scale=0.2,
                extra_sources=(("domiporta", 24, 1.2, 2),))
    engine = run_crawl(PortalConfig(**base, html_bytes=8000), CRAWL,
                       str(tmp_path / "wd"))
    oracle = crawl_oracle(Portal(PortalConfig(**base)), CRAWL)
    got_urls = sorted(engine.table("urls")["offer_url"].to_pylist())
    assert got_urls == sorted(r["offer_url"] for r in oracle.urls)
    eo = engine.table("offers")
    got = sorted(zip(eo["offer_id"].to_pylist(),
                     eo["price_amount"].to_pylist(),
                     eo["city"].to_pylist()))
    exp = sorted((r["offer_id"], r["price_amount"], r["city"])
                 for r in oracle.offers)
    assert got == exp
    assert "domiporta" in set(eo["source"].to_pylist())
