"""RFC 9309 robots matcher + Crawl-delay politeness integration.

The reference has no robots handling (north_rule addition); the spec
here is the published REP: group selection by longest UA-prefix match,
Allow/Disallow with ``*``/``$`` patterns, longest-match precedence with
the Allow tie-break, and the de-facto Crawl-delay extension widening
the per-host politeness spacing (never narrowing it).
"""

import ray

from realestate_scraper_ray.state.robots import (RobotsPolicy,
                                                 parse_robots_policy)


def test_rule_matching_precedence():
    pol = parse_robots_policy(
        "User-agent: *\n"
        "Disallow: /private\n"
        "Allow: /private/listing\n"
        "Disallow: /private/listing\n"   # tie with Allow → Allow wins
        "Disallow: /*.pdf$\n"
        "Disallow: /tmp*/cache\n"
        "Disallow:\n")                    # empty value = no-op
    assert not pol.allowed("/private/x")
    assert pol.allowed("/private/listing/42")      # longest + allow tie
    assert pol.allowed("/public/a")                 # no rule matches
    assert not pol.allowed("/docs/file.pdf")        # * then $ anchor
    assert pol.allowed("/docs/file.pdf?x=1")        # $ means END
    assert not pol.allowed("/tmp123/cache/y")       # mid-pattern *
    assert pol.allowed("/")                         # empty Disallow no-op


def test_group_selection_longest_prefix():
    txt = ("User-agent: *\nDisallow: /a\n"
           "User-agent: real\nDisallow: /b\n"
           "User-agent: realestate-scraper\nDisallow: /c\n"
           "Crawl-delay: 2.5\n")
    assert not parse_robots_policy(txt, "otherbot").allowed("/a/x")
    assert parse_robots_policy(txt, "otherbot").allowed("/c/x")
    # longest matching UA prefix wins: 'realestate-scraper-ray' matches
    # both 'real' and 'realestate-scraper'; the longer group is obeyed
    pol = parse_robots_policy(txt, "realestate-scraper-ray")
    assert not pol.allowed("/c/x")
    assert pol.allowed("/a/x") and pol.allowed("/b/x")
    assert pol.crawl_delay == 2.5
    # the fallback group has no delay
    assert parse_robots_policy(txt, "otherbot").crawl_delay is None


def test_group_merge_and_shared_ua_lines():
    # consecutive UA lines share a group; same-UA groups merge (§2.2.1)
    txt = ("User-agent: a\nUser-agent: b\nDisallow: /x\n"
           "User-agent: a\nDisallow: /y\n"
           "Disallow: /orphan\n")  # orphan: belongs to the 2nd 'a' group
    pa_ = parse_robots_policy(txt, "a")
    assert not pa_.allowed("/x/1") and not pa_.allowed("/y/1")
    assert not pa_.allowed("/orphan/1")
    pb = parse_robots_policy(txt, "b")
    assert not pb.allowed("/x/1") and pb.allowed("/y/1")
    # no group matches and no * fallback → allow all
    assert parse_robots_policy(txt, "zzz").allowed("/x/1")


def test_bad_crawl_delay_and_empty_file():
    assert parse_robots_policy("", "bot").allowed("/anything")
    pol = parse_robots_policy(
        "User-agent: *\nCrawl-delay: soon\nDisallow: /p\n", "bot")
    assert pol.crawl_delay is None and not pol.allowed("/p/x")


def test_portal_robots_is_one_disallow_prefix():
    # the synthetic portal's robots file is a single plain Disallow
    # prefix: it blocks every path that starts with "/private" and
    # nothing else
    from realestate_scraper_ray.config import PortalConfig
    from realestate_scraper_ray.sources.synth_portal import Portal

    txt = Portal(PortalConfig()).robots_txt("pomorskie.otodom.pl")
    pol = parse_robots_policy(txt, "realestate-scraper-ray")
    for url, allowed in (("https://x.pl/private/pl/oferta/a-ID1", False),
                         ("https://x.pl/pl/oferta/a-ID1", True),
                         ("https://x.pl/", True),
                         ("https://x.pl/privateer", False)):
        assert pol.allowed_url(url) == allowed, url


def test_shard_min_spacing_widens_never_narrows(ray_session):
    from realestate_scraper_ray.state.politeness import PolitenessShard

    shard = PolitenessShard.remote(rps_per_host=2.0)  # base 0.5 s
    assert ray.get(shard.set_min_spacing.remote("h.pl", 2.0)) == 2.0
    _, spacing = ray.get(shard.book.remote("h.pl", 4))
    assert spacing == 2.0                      # widened to Crawl-delay
    # a narrower ask never lowers the floor; other hosts unaffected
    assert ray.get(shard.set_min_spacing.remote("h.pl", 0.1)) == 2.0
    _, spacing2 = ray.get(shard.book.remote("other.pl", 1))
    assert spacing2 == 0.5
    ray.kill(shard)


def test_crawl_delay_paces_whole_crawl(tmp_path, ray_session):
    """End-to-end: a portal publishing ``Crawl-delay: 0.3`` against a
    50-rps configured budget must pace every post-robots page at the
    server's ask — wall ≥ (pages−2)·0.3 (the seed wave books before
    robots is first read) — while the no-delay control rides the full
    budget. Only the delayed run's LOWER bound is asserted on wall
    time (a sleep floor holds under any machine load); the no-delay
    control is checked for URL-set identity, and its speed is covered
    load-independently by the unit spacing tests above."""
    import time

    from realestate_scraper_ray.config import CrawlConfig, PortalConfig
    from realestate_scraper_ray.pipelines.crawl import run_crawl

    base = dict(sources=("trojmiasto",), regions=("pomorskie",),
                base_pages=3, page_size_scale=0.12)
    ccfg = CrawlConfig(rps_per_host=50.0, politeness_shards=1,
                       fetch_batch_size=64)
    t0 = time.monotonic()
    res = run_crawl(PortalConfig(robots_crawl_delay=0.3, **base), ccfg,
                    str(tmp_path / "delayed"))
    wall = time.monotonic() - t0
    floor = (res.pages_fetched - 2) * 0.3
    assert wall >= floor, (wall, floor)
    r0 = run_crawl(PortalConfig(**base), ccfg, str(tmp_path / "control"))
    assert r0.pages_fetched == res.pages_fetched
    assert (set(r0.table("urls")["offer_url"].to_pylist())
            == set(res.table("urls")["offer_url"].to_pylist()))


def test_fetch_applies_rep_policy_and_crawl_delay(ray_session):
    """FetchParse._disallowed consults the REP matcher (Allow override
    inside a Disallow subtree) and propagates Crawl-delay to the host's
    politeness shard exactly once per host."""
    from realestate_scraper_ray.config import CrawlConfig, PortalConfig
    from realestate_scraper_ray.stages.fetch import FetchParse
    from realestate_scraper_ray.state.politeness import PolitenessService

    svc = PolitenessService(n_shards=1, rps_per_host=5.0)  # base 0.2 s
    fp = FetchParse(PortalConfig(), CrawlConfig(rps_per_host=5.0,
                                                politeness_shards=1),
                    politeness=svc)
    fp.portal.robots_txt = lambda host: (
        "User-agent: *\n"
        "Disallow: /private\n"
        "Allow: /private/open\n"
        "Crawl-delay: 1.5\n")
    assert fp._disallowed("https://pomorskie.otodom.pl/private/x")
    assert not fp._disallowed("https://pomorskie.otodom.pl/private/open/1")
    assert not fp._disallowed("https://pomorskie.otodom.pl/pl/oferta/a-1")
    # the shard's spacing for this host is now the server's ask
    _, spacing = ray.get(
        svc.shards[0].book.remote("pomorskie.otodom.pl", 1,
                                  epoch=svc.epoch))
    assert spacing == 1.5
    # an unrelated host still books at the configured budget
    _, other = ray.get(svc.shards[0].book.remote("x.gratka.pl", 1,
                                                 epoch=svc.epoch))
    assert abs(other - 0.2) < 1e-9
    for s in svc.shards:
        ray.kill(s)


def test_blank_user_agent_line_never_hijacks_group_selection():
    """A malformed blank ``User-agent:`` line must not create an
    ''-named group — every product token prefix-matches '', which
    would silently shadow the ``*`` group (allowing a disallowed tree,
    or blocking the whole site if the stray group said Disallow: /)."""
    pol = parse_robots_policy(
        "User-agent:\nDisallow:\n\nUser-agent: *\nDisallow: /private\n",
        "mybot")
    assert not pol.allowed("/private/x")
    pol2 = parse_robots_policy(
        "User-agent:\nDisallow: /\n\nUser-agent: *\nDisallow: /private\n",
        "mybot")
    assert pol2.allowed("/open")
    assert not pol2.allowed("/private/x")


def test_crawl_delay_honored_with_cap(ray_session):
    """A server publishing ``Crawl-delay: 86400`` widens the host floor
    only to ``robots_max_crawl_delay`` — one hostile robots.txt must
    not wedge the host's fetch tasks for a day per request."""
    from realestate_scraper_ray.config import CrawlConfig, PortalConfig
    from realestate_scraper_ray.stages.fetch import FetchParse
    from realestate_scraper_ray.state.politeness import PolitenessService

    svc = PolitenessService(n_shards=1, rps_per_host=5.0)
    fp = FetchParse(PortalConfig(),
                    CrawlConfig(rps_per_host=5.0, politeness_shards=1),
                    politeness=svc)
    fp.portal.robots_txt = lambda host: (
        "User-agent: *\nCrawl-delay: 86400\n")
    assert not fp._disallowed("https://pomorskie.otodom.pl/pl/oferta/a-1")
    _, spacing = ray.get(
        svc.shards[0].book.remote("pomorskie.otodom.pl", 1,
                                  epoch=svc.epoch))
    assert spacing == 60.0  # capped, not the server's day-long ask
    for s in svc.shards:
        ray.kill(s)
