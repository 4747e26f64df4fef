"""Conditional-GET re-crawl (RFC 9110 validators): a revisit with the
prior run's entity tags 304-skips unchanged detail pages (no transfer,
no parse) yet produces output tables identical to a full re-crawl —
including when a content-version bump changes a deterministic subset of
pages."""

import dataclasses
import os

import pandas as pd
import pyarrow.compute as pc
import pytest

from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.pipelines.crawl import read_fragments, run_crawl
from realestate_scraper_ray.pipelines.oracle import crawl_oracle

CRAWL = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                    fetch_batch_size=64, fetch_concurrency=2,
                    politeness_shards=2, validators=True)


def _pcfg(**kw) -> PortalConfig:
    return PortalConfig(regions=("pomorskie", "mazowieckie"),
                        base_pages=3, page_size_scale=0.15, **kw)


def _sorted_tbl(res, name, keys):
    df = res.table(name).to_pandas()
    return (df[sorted(df.columns)].sort_values(keys)
            .reset_index(drop=True))


def _meta_status_counts(res):
    v = read_fragments(os.path.join(res.workdir, "validators"))
    if v is None:
        return {}
    return dict(zip(*map(
        lambda a: a.to_pylist(),
        v.group_by("status").aggregate([("url", "count")]).columns)))


@pytest.fixture(scope="module")
def first_run(tmp_path_factory, ray_session):
    wd = str(tmp_path_factory.mktemp("revisit_a"))
    res = run_crawl(_pcfg(), CRAWL, wd)
    return wd, res


def test_unchanged_revisit_is_all_304(first_run, tmp_path_factory,
                                      ray_session):
    wd_a, res_a = first_run
    cfg = dataclasses.replace(CRAWL, validators_from=wd_a)
    wd_b = str(tmp_path_factory.mktemp("revisit_b"))
    res_b = run_crawl(_pcfg(), cfg, wd_b)

    for name, keys in (("offers", ["url"]),
                       ("photos", ["offer_id", "seq"])):
        pd.testing.assert_frame_equal(_sorted_tbl(res_a, name, keys),
                                      _sorted_tbl(res_b, name, keys))
    assert (set(res_a.table("urls")["offer_url"].to_pylist())
            == set(res_b.table("urls")["offer_url"].to_pylist()))

    # every detail page answered 304 — zero detail parses happened
    counts = _meta_status_counts(res_b)
    assert counts.get("not_modified", 0) > 0
    assert counts.get("ok", 0) == 0  # validators rows are detail-only
    assert res_b.offers == 0          # no offer was parsed this run
    assert res_b.pages_fetched == res_a.pages_fetched  # 304s still count


def test_changed_subset_reparsed_rest_304(first_run, tmp_path_factory,
                                          ray_session):
    wd_a, _ = first_run
    v1 = _pcfg(content_version=1, changed_per_mille=200)
    # ground truth: a fresh full crawl of the v1 portal
    wd_c = str(tmp_path_factory.mktemp("revisit_c"))
    res_c = run_crawl(v1, CRAWL, wd_c)
    # revisit: v0 validators against the v1 portal
    cfg = dataclasses.replace(CRAWL, validators_from=wd_a)
    wd_d = str(tmp_path_factory.mktemp("revisit_d"))
    res_d = run_crawl(v1, cfg, wd_d)

    for name, keys in (("offers", ["url"]),
                       ("photos", ["offer_id", "seq"])):
        pd.testing.assert_frame_equal(_sorted_tbl(res_c, name, keys),
                                      _sorted_tbl(res_d, name, keys))

    counts = _meta_status_counts(res_d)
    n304, nok = counts.get("not_modified", 0), counts.get("ok", 0)
    assert n304 > 0 and nok > 0
    ratio = nok / (n304 + nok)
    assert 0.10 < ratio < 0.35  # ~200/1000 changed (hash-bucket spread)
    # only the changed subset was parsed
    assert res_d.offers < res_c.offers / 2

    # engine(v1) still matches the sequential oracle on the versioned
    # portal (span-sequence semantics survive content versioning)
    from realestate_scraper_ray.sources.synth_portal import Portal
    orc = crawl_oracle(Portal(v1), CRAWL)
    got = _sorted_tbl(res_c, "offers", ["url"])
    exp = pd.DataFrame(orc.offers)
    exp = exp[sorted(set(exp.columns) & set(got.columns))] \
        .sort_values("url").reset_index(drop=True)
    got = got[exp.columns]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_revisit_chain_and_rerun_no_duplicates(first_run,
                                               tmp_path_factory,
                                               ray_session):
    """A→B→C validator chains keep working (304 pages re-emit their
    validator), and re-running a completed revisit in the same workdir
    replaces the carry fragments instead of appending."""
    wd_a, res_a = first_run
    cfg_b = dataclasses.replace(CRAWL, validators_from=wd_a)
    wd_b = str(tmp_path_factory.mktemp("revisit_chain_b"))
    run_crawl(_pcfg(), cfg_b, wd_b)
    cfg_c = dataclasses.replace(CRAWL, validators_from=wd_b)
    wd_c = str(tmp_path_factory.mktemp("revisit_chain_c"))
    res_c = run_crawl(_pcfg(), cfg_c, wd_c)
    pd.testing.assert_frame_equal(_sorted_tbl(res_a, "offers", ["url"]),
                                  _sorted_tbl(res_c, "offers", ["url"]))
    assert _meta_status_counts(res_c).get("not_modified", 0) > 0

    # re-run the SAME revisit workdir: carry must replace, not append
    res_c2 = run_crawl(_pcfg(), cfg_c, wd_c)
    assert res_c2.table("offers").num_rows == res_a.table("offers").num_rows


def test_daily_pipeline_incremental_view(ray_session):
    """Composed capstone: crawl → incremental per-city aggregate →
    revisit (304 + changed re-parse) → retraction + add keeps the view
    equal to a from-scratch recompute (the query raises on divergence,
    so calling it IS the assertion; here we also sanity-check shape)."""
    from realestate_scraper_ray.pipelines.relational import QUERIES
    out = QUERIES["crawl_daily_pipeline"]("/root/testdata/sf0.001")
    assert set(out.columns) == {"city", "n", "s"}
    assert len(out) == 2 and (out["n"] > 0).all()


def test_resume_of_revisit_keeps_carry(first_run, tmp_path_factory,
                                       ray_session):
    """Resuming a killed revisit WITHOUT re-passing validators_from must
    not lose the 304-carried rows: the revisit marker persisted in the
    workdir restores the validator source, so the completion carry
    rebuilds gen-zcarry (a silent-data-loss regression guard)."""
    wd_a, res_a = first_run
    cfg = dataclasses.replace(CRAWL, validators_from=wd_a)
    wd_b = str(tmp_path_factory.mktemp("revisit_resume"))
    run_crawl(_pcfg(), cfg, wd_b, stop_after_generations=2)  # "killed"
    # resume with the PLAIN config — validators_from intentionally unset
    res = run_crawl(_pcfg(), CRAWL, wd_b, resume=True)
    pd.testing.assert_frame_equal(_sorted_tbl(res_a, "offers", ["url"]),
                                  _sorted_tbl(res, "offers", ["url"]))
    assert _meta_status_counts(res).get("not_modified", 0) > 0


def test_actor_reads_only_touched_validator_buckets(first_run, ray_session):
    """Scale contract (VERDICT r3 #1): validator state is sharded by the
    frontier's host bucket, and a fetch actor whose batch touches ONE
    bucket reads only that bucket's fragments — never the prior run's
    whole url→etag map."""
    import pyarrow as pa

    from realestate_scraper_ray.pipelines.crawl import _host_buckets
    from realestate_scraper_ray.stages.fetch import FetchParse

    wd_a, res_a = first_run
    cfg = dataclasses.replace(CRAWL, validators_from=wd_a)
    fp = FetchParse(_pcfg(), cfg)
    # lazy index: __init__ lists fragment names but reads NO parquet
    assert fp.validator_files_read == []
    assert len(fp._vindex) >= 2  # multiple hosts → multiple buckets

    u = res_a.table("urls").to_pandas()
    # one host exactly (hosts embed the region subdomain): gratka is
    # unsalted, so these URLs share one bucket
    urls = (u.loc[u["offer_url"].str.startswith("https://pomorskie.gratka."),
                  "offer_url"].head(8).tolist())
    assert urls
    batch = pa.table({
        "url": urls, "kind": ["detail"] * len(urls),
        "source": ["gratka"] * len(urls),
        "region": ["pomorskie"] * len(urls),
        "page_idx": [1] * len(urls), "pos": list(range(len(urls)))})
    out = fp(batch)
    # every URL hit its validator (unchanged portal → all 304)
    st = out.filter(pc.equal(out["rec_kind"], "pagemeta"))["status"]
    assert st.to_pylist() == ["not_modified"] * len(urls)
    # gratka is unsalted → one bucket; only its fragments were read
    bucket = int(_host_buckets(batch["url"], cfg)[0])
    assert fp.validator_files_read != []
    assert set(fp.validator_files_read) <= set(fp._vindex[bucket])
    untouched = {p for b, ps in fp._vindex.items() if b != bucket for p in ps}
    assert not untouched & set(fp.validator_files_read)


def test_missing_validator_source_raises(tmp_path_factory, ray_session):
    """A revisit pointed at a deleted/never-validated prior workdir must
    fail loudly, not silently degrade to a full re-crawl with an empty
    304 carry."""
    cfg = dataclasses.replace(CRAWL,
                              validators_from="/tmp/nonexistent-prior-run")
    wd = str(tmp_path_factory.mktemp("revisit_missing_src"))
    with pytest.raises(ValueError, match="validators"):
        run_crawl(_pcfg(), cfg, wd)


def test_validator_source_without_meta_fails_on_driver(tmp_path, ray_session,
                                                      monkeypatch):
    """A validators/ directory without meta.json is not the bucketed
    layout every validators run writes: the driver raises before any
    service actor starts, instead of each fetch actor loading the whole
    url→etag map."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from realestate_scraper_ray.state import politeness, urlseen

    prior = tmp_path / "prior"
    (prior / "validators" / "gen-0").mkdir(parents=True)
    pq.write_table(pa.table({"url": ["https://x.pl/a"], "status": ["ok"],
                             "etag": ["e"]}),
                   prior / "validators" / "gen-0" / "part-legacy.parquet")

    class NoActor:
        @staticmethod
        def remote(*a, **kw):
            raise AssertionError("a service actor started")

    monkeypatch.setattr(urlseen, "UrlSeenShard", NoActor)
    monkeypatch.setattr(politeness, "PolitenessShard", NoActor)
    cfg = dataclasses.replace(CRAWL, validators_from=str(prior),
                              rps_per_host=10.0)
    with pytest.raises(ValueError, match="meta.json"):
        run_crawl(_pcfg(), cfg, str(tmp_path / "wd"))


def test_unbucketed_validator_fragment_rejected(tmp_path):
    """With meta.json present, every fragment must carry its host
    bucket in its name; an unbucketed one raises instead of being
    loaded eagerly."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq

    from realestate_scraper_ray.stages.fetch import FetchParse

    root = tmp_path / "prior" / "validators"
    (root / "gen-0").mkdir(parents=True)
    (root / "meta.json").write_text(json.dumps(
        {"host_buckets": CRAWL.host_buckets, "skew_salts": []}))
    pq.write_table(pa.table({"url": ["https://x.pl/a"], "status": ["ok"],
                             "etag": ["e"]}),
                   root / "gen-0" / "part-legacy.parquet")
    cfg = dataclasses.replace(CRAWL, validators_from=str(tmp_path / "prior"))
    with pytest.raises(ValueError, match="bucket"):
        FetchParse(_pcfg(), cfg)


def test_304_decided_before_failure_injection(first_run, ray_session):
    """A matching validator answers not-modified even when failure
    injection would fail every fetch: the 304 is decided first. The
    listing page in the same batch still fails, so injection is on."""
    import pyarrow as pa

    from realestate_scraper_ray.sources.synth_portal import Portal
    from realestate_scraper_ray.stages.fetch import FetchParse

    wd_a, res_a = first_run
    cfg = dataclasses.replace(CRAWL, validators_from=wd_a,
                              fail_per_mille=1000,
                              fail_depth=CRAWL.fetch_attempts)
    u = res_a.table("urls").to_pandas()
    urls = u["offer_url"].head(6).tolist()
    listing = Portal(_pcfg()).seeds(CRAWL.last_days)[0]
    batch = pa.table({
        "url": urls + [listing["url"]],
        "kind": ["detail"] * len(urls) + ["pagination"],
        "source": u["source"].head(6).tolist() + [listing["source"]],
        "region": u["region"].head(6).tolist() + [listing["region"]],
        "page_idx": [1] * (len(urls) + 1),
        "pos": list(range(len(urls) + 1))})
    out = FetchParse(_pcfg(), cfg)(batch)
    meta = out.filter(pc.equal(out["rec_kind"], "pagemeta"))
    got = dict(zip(meta["url"].to_pylist(), meta["status"].to_pylist()))
    assert [got[x] for x in urls] == ["not_modified"] * len(urls)
    assert got[listing["url"]] == "fetch_fail"
    assert out.filter(pc.equal(out["rec_kind"], "offer")).num_rows == 0


def test_in_place_revisit_rejected(first_run, ray_session):
    wd_a, _ = first_run
    cfg = dataclasses.replace(CRAWL, validators_from=wd_a)
    with pytest.raises(ValueError, match="DIFFERENT"):
        run_crawl(_pcfg(), cfg, wd_a)


def test_revisit_carries_media_rows(tmp_path_factory, ray_session):
    """media_fetch + revisit: 304 pages' downloaded-media rows carry
    forward like offers/photos — the media table equals a full crawl's."""
    mcfg = dataclasses.replace(CRAWL, media_fetch=True)
    pcfg = PortalConfig(regions=("pomorskie",), base_pages=2,
                        page_size_scale=0.12)
    wd_a = str(tmp_path_factory.mktemp("media_a"))
    res_a = run_crawl(pcfg, mcfg, wd_a)
    assert res_a.table("media").num_rows > 0
    cfg_b = dataclasses.replace(mcfg, validators_from=wd_a)
    wd_b = str(tmp_path_factory.mktemp("media_b"))
    res_b = run_crawl(pcfg, cfg_b, wd_b)
    pd.testing.assert_frame_equal(
        _sorted_tbl(res_a, "media", ["offer_id", "seq"]),
        _sorted_tbl(res_b, "media", ["offer_id", "seq"]))
