"""Synthetic portal invariants (FIXTURES.md F1) + ported reference unit
test semantics (SURVEY.md §5: test_otodom_selectors.py)."""

from realestate_scraper_ray.config import PortalConfig
from realestate_scraper_ray.pipelines.oracle import parse_offer_spans
from realestate_scraper_ray.sources.synth_portal import Portal


def _portal():
    return Portal(PortalConfig(regions=("pomorskie", "mazowieckie"),
                               base_pages=3, page_size_scale=0.15))


def test_determinism():
    p1, p2 = _portal(), _portal()
    for u in p1.all_urls()[:50]:
        assert p1.render(u) == p2.render(u)


def test_listing_links_extraction():
    # mirrors tests/test_otodom_selectors.py:59-63 — offer links present,
    # absolute https URLs
    p = _portal()
    spans = p.render(p.listing_url("otodom", "pomorskie", 1))
    links = [s["media_ref"] for s in spans if s["kind"] == "link"]
    assert links and all(u.startswith("https://") for u in links)
    details = [u for u in links if p.classify(u).kind in ("offer", "investment", "blocked")]
    assert len(details) >= 3


def test_offer_parse_basic_fields():
    # mirrors tests/test_otodom_selectors.py:66-73 — exact field assertions
    p = _portal()
    url = p.offer_url("otodom", "pomorskie", 1)
    offer, photos = parse_offer_spans(p.render(url))
    facts = p.offer_facts("otodom", "pomorskie", 1)
    assert offer["offer_id"] == facts["oid"]
    assert offer["price_amount"] == facts["price"]
    assert offer["price_currency"] == "PLN"
    assert offer["city"] == "Pomorskie"
    assert offer["lat"] == facts["lat"] and offer["lon"] == facts["lon"]
    assert offer["rooms"] == facts["rooms"]


def test_photo_seq_starts_at_zero_and_dedupes():
    # mirrors tests/test_otodom_selectors.py:84-86 (seq==0) + keep-first
    # photo dedup (otodom.py:775-785)
    p = _portal()
    for k in range(60):
        url = p.offer_url("otodom", "pomorskie", k)
        facts = p.offer_facts("otodom", "pomorskie", k)
        _, photos = parse_offer_spans(p.render(url))
        assert len(photos) == facts["n_photos"]       # dup dropped
        assert len(set(photos)) == len(photos)


def test_classify_roundtrip():
    p = _portal()
    for u in p.all_urls():
        ref = p.classify(u)
        assert ref.kind in ("listing", "offer", "investment", "blocked")


def test_inquiry_offer_has_no_price():
    p = _portal()
    cfg = p.cfg
    found = 0
    for k in range(300):
        f = p.offer_facts("morizon", "pomorskie", k)
        if f["inquiry"]:
            offer, _ = parse_offer_spans(p.render(p.offer_url("morizon", "pomorskie", k)))
            assert offer["price_amount"] is None
            assert offer["price_per_m2"] is None
            found += 1
    assert found > 0


def test_area_correction_rule():
    # emitted area 20% off → corrected to round(price/ppm2, 2)
    # (morizon.py:581-593)
    import numpy as np
    p = _portal()
    found = 0
    for k in range(300):
        f = p.offer_facts("gratka", "pomorskie", k)
        if f["bad_area"] and not f["inquiry"] and not f["omit_ppm2"]:
            offer, _ = parse_offer_spans(p.render(p.offer_url("gratka", "pomorskie", k)))
            assert offer["area_m2"] == float(np.round(f["price"] / f["ppm2"], 2))
            found += 1
    assert found > 0


def test_robots():
    from realestate_scraper_ray.state.robots import parse_robots_policy
    p = _portal()
    pol = parse_robots_policy(p.robots_txt("pomorskie.otodom.pl"), "*")
    assert [(r.allow, r.pattern) for r in pol.rules] == [(False, "/private")]
    assert not pol.allowed_url("https://x.pl/private/pl/oferta/a-ID1")
    assert pol.allowed_url("https://x.pl/pl/oferta/a-ID1")


def test_prose_surface_parses_to_exact_facts(ray_session):
    """The prose-description pages (M13/M14 surface) recover the exact
    price/ppm2/area/rooms facts through the free-text fallback, and
    reserved prose pages drop at the completeness gate."""
    from realestate_scraper_ray.config import PortalConfig
    from realestate_scraper_ray.pipelines.oracle import parse_offer_spans
    from realestate_scraper_ray.sources.synth_portal import Portal

    portal = Portal(PortalConfig(regions=("pomorskie", "mazowieckie"),
                                 base_pages=3, page_size_scale=0.5))
    n_prose = n_reserved = 0
    for region in portal.cfg.regions:
        for source in portal.cfg.sources:
            for k in range(40):
                f = portal.offer_facts(source, region, k)
                if not f["prose"]:
                    continue
                n_prose += 1
                spans = portal.render(portal.offer_url(source, region, k))
                offer, _ = parse_offer_spans(spans)
                if f["reserved"]:
                    n_reserved += 1
                    assert offer["price_amount"] is None
                    assert offer["area_m2"] is None
                else:
                    assert offer["price_amount"] == f["price"]
                    assert offer["price_currency"] == "PLN"
                    assert offer["rooms"] == f["rooms"]
                    # prose area is exact unless the >8% correction fires
                    assert offer["area_m2"] is not None
    assert n_prose > 10 and n_reserved > 0


def test_range_validation_drops_bad_floor(ray_session):
    """M23: offers with floor outside [-2, 200] (the bad_floor bucket)
    drop whole, and at least one such page exists at this scale."""
    from realestate_scraper_ray.config import PortalConfig
    from realestate_scraper_ray.pipelines.oracle import parse_offer_spans
    from realestate_scraper_ray.sources.synth_portal import Portal

    portal = Portal(PortalConfig(regions=("pomorskie", "mazowieckie"),
                                 base_pages=3, page_size_scale=0.5))
    n_bad = 0
    for region in portal.cfg.regions:
        for source in portal.cfg.sources:
            for k in range(60):
                f = portal.offer_facts(source, region, k)
                if f["bad_floor"]:
                    n_bad += 1
                    spans = portal.render(
                        portal.offer_url(source, region, k))
                    offer, _ = parse_offer_spans(spans)
                    assert offer["floor"] == 250  # parsed, then dropped
    assert n_bad > 0


def test_sink_row_semantics_and_inverse_price(ray_session):
    """Backend sink rules (backend.py:100-128) + inverse price
    derivation (otodom.py:157-165): ppm2-only offers derive
    price = round(ppm2*area) with PLN currency; 0-zl prices parse but
    are sink-dropped (equality tests assert the drop end-to-end);
    >5000-char descriptions truncate at exactly 5000."""
    import numpy as np
    from realestate_scraper_ray.config import PortalConfig
    from realestate_scraper_ray.pipelines.oracle import parse_offer_spans
    from realestate_scraper_ray.sources.synth_portal import Portal

    portal = Portal(PortalConfig(regions=("pomorskie", "mazowieckie"),
                                 base_pages=3, page_size_scale=0.5))
    n_inv = n_zero = n_long = 0
    for region in portal.cfg.regions:
        for source in portal.cfg.sources:
            for k in range(60):
                f = portal.offer_facts(source, region, k)
                spans = portal.render(portal.offer_url(source, region, k))
                offer, _ = parse_offer_spans(spans)
                if f["ppm2_only"]:
                    n_inv += 1
                    assert offer["price_amount"] == float(
                        np.round(f["ppm2"] * f["true_area"]))
                    assert offer["price_currency"] == "PLN"
                    assert offer["price_per_m2"] == f["ppm2"]
                if f["zero_price"]:
                    n_zero += 1
                    assert offer["price_amount"] == 0.0  # parsed, sink-dropped
                if f["long_desc"] and not f["reserved"]:
                    n_long += 1
                    assert offer["description"] is not None
                    assert len(offer["description"]) == 5000
    assert n_inv > 0 and n_zero > 0 and n_long > 0
