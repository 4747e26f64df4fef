"""Fetch + parse stage: the actor-pool `map_batches` workhorse.

One callable class = one actor pool (`ds.map_batches(FetchParse,
concurrency=N, batch_size=B)`): per-actor state (robots cache,
politeness client, portal/config) is built once in ``__init__``; each
``__call__`` fetches + parses one Arrow batch of frontier rows and
returns a combined Arrow table of typed records
(link / offer / photo / pagemeta), distinguished by ``rec_kind``.

Every page arrives through one call, ``FetchParse._get(url, known)``.
The synthetic transport serves the deterministic portal (a pure
function of the URL, see sources/synth_portal.py) as spans, as rendered
HTML, or from a doc_id-sorted documents table (sources/docstore.py);
``cfg.http_fetch`` swaps in a real GET through the per-actor
``stages/http.py`` session, with the reference's 5-attempt retry
envelope (scrapper/core/http.py:51-62). Either way ``_get`` answers a
matching validator as not-modified (RFC 9110 304) and a hard failure as
``(None, None)``. Failures never raise: they emit
``status='fetch_fail'`` pagemeta rows so page-granular resume semantics
match the reference (cli.py:799-806).

Parsing mirrors the reference's extractor chain, re-expressed over
spans with batch-vectorized numeric coercion (numpy / polars kernels):
  - link extraction + classification (M11, otodom.py:497-534)
  - per-page keep-first link dedup (D2, otodom.py:421-429)
  - robots '/private' exclusion (north_rule addition)
  - offer field merge, first-wins (M31, otodom.py:628-665)
  - inquiry-price null-out (M20, morizon.py:314-319, 529-541)
  - derived price / >8 % area correction (M19, morizon.py:573-593)
  - Poland bbox geo gate (M18, morizon.py:23)
  - currency upper-case (validate.py:42-45)
  - REQ_FIELDS completeness gate (M22, detail.py:21,30-31)
  - photo keep-first dedup + 0-based seq (D3/M25, otodom.py:775-785)
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
import time
from collections import OrderedDict

import numpy as np
import pyarrow as pa

from ..config import REQ_FIELDS, CrawlConfig, PortalConfig
from ..functions.urls import (PRICE_PERM2_RE, PRICE_TOTAL_RE, coerce_float,
                              host_of)
from ..sources.synth_portal import Portal
from ..state.politeness import PolitenessService
from ..state.robots import RobotsPolicy, parse_robots_policy

COMBINED_SCHEMA = pa.schema([
    ("rec_kind", pa.string()),       # 'link' | 'offer' | 'photo' | 'pagemeta'
    ("url", pa.string()),
    ("kind", pa.string()),           # link: pagination|investment|investment_next|detail|trapped
    ("priority", pa.int32()),
    ("source", pa.string()),
    ("region", pa.string()),
    ("page_idx", pa.int32()),
    ("pos", pa.int32()),
    ("offer_id", pa.string()),
    ("price_amount", pa.float64()),
    ("price_currency", pa.string()),
    ("price_per_m2", pa.float64()),
    ("city", pa.string()),
    ("lat", pa.float64()),
    ("lon", pa.float64()),
    ("area_m2", pa.float64()),
    ("rooms", pa.int32()),
    # wide offer columns (storage.py:13-20 + validate.py datetimes)
    ("title", pa.string()),
    ("district", pa.string()),
    ("street", pa.string()),
    ("description", pa.string()),
    ("floor", pa.int32()),
    ("floors", pa.int32()),
    ("market_type", pa.string()),
    ("property_type", pa.string()),
    ("posted_at", pa.timestamp("us")),
    ("updated_at", pa.timestamp("us")),
    ("first_seen", pa.timestamp("us")),
    ("last_seen", pa.timestamp("us")),
    ("seq", pa.int32()),
    ("status", pa.string()),         # pagemeta: ok|empty|fetch_fail|not_modified
    ("n_links", pa.int32()),
    ("fetch_kind", pa.string()),     # pagemeta: pagination|investment|detail
    # RFC 9110 entity tag of a parsed detail page (cfg.validators) —
    # persisted so a later run can send conditional requests
    ("etag", pa.string()),
])

# HTML extractor chain (portal html mode): the regex/JSON analogue of
# the reference's selector parsers, with the reference's precedence —
#   listing cards  a[data-cy=listing-item-link] (M11, otodom.py:497-534)
#   JSON-LD walk   Product/Offer/@graph (M8, otodom.py:220-313,
#                  morizon.py:140-192, gratka.py:170-244)
#   __NEXT_DATA__  props.pageProps.ad (M9, otodom.py:57-190)
#   Leaflet geo    L.marker([lat, lon]) (M17, morizon.py:209-243)
#   CSS fallback   param divs (M10, otodom.py:315-376)
#   gallery        <img src> / srcset argmax (M25/M26, morizon.py:744-759)
# Field merge is first-wins in that order (M31, otodom.py:628-665).
# Patterns compiled once per worker; each pass scans the document.
_FIELD_RE = re.compile(r'<div class="param" data-field="([^"]+)">([^<]*)</div>')
_IMG_RE = re.compile(r'<img class="gallery" src="([^"]+)"')
_IMG_SRCSET_RE = re.compile(r'<img class="gallery"[^>]*srcset="([^"]+)"')


def _raw_decode_at(block: str, key: str):
    """Parse just the JSON value of ``key`` inside ``block`` with
    ``JSONDecoder.raw_decode`` — the partial-parse trick a production
    crawler uses (simdjson / SAX style) so a multi-hundred-KB state
    object costs O(needed value), not O(document). Returns None when the
    key is absent or the targeted parse fails (caller falls back to a
    full ``json.loads``).

    The search is anchored after the ``"ad":`` object start and each
    candidate occurrence must sit in key position (preceded by ``{`` or
    ``,`` — a real portal's description string could contain the literal
    key text, and decoding from inside a string value would silently
    return the wrong value instead of triggering the full-parse
    fallback). Ambiguity → None → caller does the full ``json.loads``."""
    import json as _json
    anchor = block.find('"ad":')
    start = anchor + 5 if anchor >= 0 else 0
    n = len(block)
    i = block.find(key, start)
    while i >= 0:
        # key position check: previous non-space char opens or continues
        # an object — inside a string value it would be string content
        k = i - 1
        while k >= 0 and block[k] in " \t\r\n":
            k -= 1
        if k >= 0 and block[k] in "{,":
            j = i + len(key)
            while j < n and block[j] in " \t\r\n":
                j += 1
            try:
                val, _ = _json.JSONDecoder().raw_decode(block, j)
            except ValueError:
                return None
            return val
        i = block.find(key, i + 1)
    return None


def _next_data_ad(block: str) -> dict:
    import json as _json
    return (_json.loads(block).get("props", {})
            .get("pageProps", {}).get("ad", {}))


def _next_data_params(block: str) -> list:
    val = _raw_decode_at(block, '"params":')
    if isinstance(val, list):
        return val
    return _next_data_ad(block).get("params", [])


def _next_data_images(block: str) -> list:
    val = _raw_decode_at(block, '"images":')
    if isinstance(val, list):
        return val
    return _next_data_ad(block).get("images", [])


def _next_data_multi_units(block: str) -> bool:
    """Multi-unit (investment/development) page detection, the reference's
    ``bool(pp.get("paginatedUnits")) or bool(pp.get("developmentData"))``
    (otodom.py:86-87). Partial parse at key position; ambiguous probe →
    full ``json.loads`` of pageProps."""
    import json as _json
    for key in ('"paginatedUnits":', '"developmentData":'):
        if key.strip('":') not in block:
            continue
        val = _raw_decode_at(block, key)
        if val:
            return True
        if val is None:
            try:
                pp = (_json.loads(block).get("props", {})
                      .get("pageProps", {}))
            except ValueError:
                return False
            return bool(pp.get("paginatedUnits")) or bool(
                pp.get("developmentData"))
    return False


# Banner price-node selectors, the reference's otodom header chain
# (otodom.py:112-116: [data-cy='adPageHeader-price'] >
# [data-testid='ad-price'] > .price/.price-box/[class*='price']),
# attribute-order- and quote-insensitive, first match wins per selector
_BANNER_RES = (
    re.compile(r"<[a-z]+[^>]*data-cy=[\"']?adPageHeader-price[\"']?"
               r"[^>]*>([^<]*)<"),
    re.compile(r"<[a-z]+[^>]*data-testid=[\"']?ad-price[\"']?[^>]*>([^<]*)<"),
)
# [class*='price'] fast path: anchoring on the literal `class=` lets the
# regex engine memchr-skip instead of trying `<[a-z]+[^>]*` at every tag
# (13.7 → ~1 µs/page); _in_tag then re-imposes the dropped tag anchor so
# a `class=` inside script text can never match where the original
# tag-anchored pattern would not
_BANNER_CLASS_RE = re.compile(
    r"class=[\"'][^\"']*price[^\"']*[\"'][^>]*>([^<]*)<")
_TAG_OPEN_RE = re.compile(r"<[a-z]")


def _in_tag(html: str, pos: int) -> bool:
    """True iff ``pos`` sits inside an open tag that began `<letter`
    with no `>` in between — the context `<[a-z]+[^>]*` asserted."""
    j = html.rfind("<", 0, pos)
    return (j != -1 and html.find(">", j, pos) == -1
            and _TAG_OPEN_RE.match(html, j) is not None)


def _banner_price_text(html: str) -> str | None:
    """Inner text of the first page-header price node, selector-priority
    order (otodom.py:112-116)."""
    for i, rex in enumerate(_BANNER_RES):
        # memchr gates for the two attribute selectors
        if i == 0 and "adPageHeader-price" not in html:
            continue
        if i == 1 and "ad-price" not in html:
            continue
        m = rex.search(html)
        if m and m.group(1).strip():
            return m.group(1)
    pos = 0
    while True:
        m = _BANNER_CLASS_RE.search(html, pos)
        if m is None:
            return None
        if _in_tag(html, m.start()):
            # first TAG match decides, exactly like the anchored regex:
            # an empty-text first node means no banner, not "keep looking"
            return m.group(1) if m.group(1).strip() else None
        pos = m.end()


def _iter_marker_scripts(html: str, marker: str):
    """Script blocks identified by an attribute *marker* substring
    (e.g. ``application/ld+json``), attribute-order- and
    quote-insensitive: find the marker, backtrack to the enclosing
    ``<script``, slice to ``</script>``. Pure memchr — this is the
    tolerant analogue of the reference's soup-based
    ``find_ld_json_all`` (core/parse.py:28-35) at regex-free cost."""
    pos = 0
    while True:
        i = html.find(marker, pos)
        if i < 0:
            return
        s = html.rfind("<script", pos, i)
        e = html.find(">", s) if s >= 0 else -1
        if s < 0 or e < i:
            # stray marker NOT inside a script open tag (visible page
            # text, an earlier script's JSON body, another tag's
            # attribute): skip just the marker and keep scanning —
            # genuine later blocks must still be found, and the
            # backtracked tag must never be mistaken for the carrier
            pos = i + len(marker)
            continue
        j = html.find("</script>", e)
        if j < 0:
            return
        yield html[e + 1:j]
        pos = j + 9


def _find_next_block(html: str) -> str | None:
    """The ``__NEXT_DATA__`` state block, any tag serialization."""
    for block in _iter_marker_scripts(html, "__NEXT_DATA__"):
        return block
    return None


def _next_data_advert(block: str) -> dict | None:
    """``props.pageProps.advert`` — the trojmiasto "modern page" state
    (trojmiasto.py:283-295 prefers ``advert`` over ``ad``). Partial
    parse first; full ``json.loads`` fallback."""
    if '"advert":' not in block:
        return None
    val = _raw_decode_at(block, '"advert":')
    if isinstance(val, dict):
        return val
    import json as _json
    try:
        return (_json.loads(block).get("props", {})
                .get("pageProps", {}).get("advert"))
    except ValueError:
        return None


_LEAFLET_RE = re.compile(r'L\.marker\(\[\s*(-?[\d.]+)\s*,\s*(-?[\d.]+)\s*\]\)')
# anchored probe for a morizon hydrated-bounds corner marker: integer
# ids only, so float "latitude" values in other portals' JSON (e.g. the
# trojmiasto NEXT advert) don't trigger a whole-page bounds scan
_HYD_MARK_RE = re.compile(r'\{"latitude":\d+,"longitude":\d+\}')


def _has_hydrated_marker(html: str) -> bool:
    gi = html.find('{"latitude":')
    while gi >= 0:
        if _HYD_MARK_RE.match(html, gi):
            return True
        gi = html.find('{"latitude":', gi + 12)
    return False


def best_from_srcset(srcset: str) -> str | None:
    """Argmax-by-width over srcset candidates (M26/O6,
    morizon.py:744-759, gratka.py:129-145)."""
    best, best_w = None, -1
    for cand in srcset.split(","):
        parts = cand.strip().rsplit(" ", 1)
        if len(parts) != 2 or not parts[1].endswith("w"):
            continue
        try:
            w = int(parts[1][:-1])
        except ValueError:
            continue
        if w > best_w:
            best, best_w = parts[0], w
    return best


def _ld_products(obj) -> list[dict]:
    """Walk a parsed JSON-LD document: top-level dict, list, or @graph
    (M8: otodom.py:220-313 walks Offer/Product/@graph)."""
    out = []
    if isinstance(obj, list):
        for o in obj:
            out.extend(_ld_products(o))
    elif isinstance(obj, dict):
        if obj.get("@type") in ("Product", "Offer", "Apartment", "Residence"):
            out.append(obj)
        for key in ("@graph", "mainEntity"):
            if key in obj:
                out.extend(_ld_products(obj[key]))
    return out


def extract_ldjson_fields(html: str) -> tuple[dict[str, str], list[str]]:
    """LD+JSON offer extractor (M8): parse every
    <script type="application/ld+json"> block, walk Product/Offer
    nodes, map schema.org fields to engine field names (stringified;
    numeric coercion happens downstream like every other span value).
    Returns (fields, image_urls); first product wins per field."""
    import json as _json
    fields: dict[str, str] = {}
    images: list[str] = []
    if "application/ld+json" not in html:  # memchr gate: skip the scan
        return fields, images
    for block in _iter_marker_scripts(html, "application/ld+json"):
        try:
            doc = _json.loads(block)
        except ValueError:
            continue  # malformed LD block: skip, fall through the chain
        for prod in _ld_products(doc):
            if "name" in prod:
                fields.setdefault("title", str(prod["name"]))
            offers = prod.get("offers") or {}
            if isinstance(offers, list):
                offers = offers[0] if offers else {}
            if "price" in offers:
                fields.setdefault("price_amount", str(offers["price"]))
            if "priceCurrency" in offers:
                fields.setdefault("price_currency", str(offers["priceCurrency"]))
            geo = prod.get("geo") or {}
            if "latitude" in geo:
                fields.setdefault("lat", str(geo["latitude"]))
            if "longitude" in geo:
                fields.setdefault("lon", str(geo["longitude"]))
            addr = prod.get("address") or {}
            if "addressLocality" in addr:
                fields.setdefault("city", str(addr["addressLocality"]))
            if "streetAddress" in addr:
                fields.setdefault("street", str(addr["streetAddress"]))
            fs = prod.get("floorSize") or {}
            if "value" in fs:
                fields.setdefault("area_m2", str(fs["value"]))
            if "numberOfRooms" in prod:
                fields.setdefault("rooms", str(prod["numberOfRooms"]))
            img = prod.get("image")
            if img and not images:
                images = [str(u) for u in (img if isinstance(img, list) else [img])]
    return fields, images


def extract_listing_links(html: str) -> list[str]:
    """Listing-card link extraction (M11): the regex analogue of the
    reference's a[data-cy=listing-item-link] card selector
    (otodom.py:497-534), attribute-order- and quote-insensitive;
    absolute URLs, document order."""
    if "listing-item-link" not in html:
        return []
    from .portals import _CARD_ANY_RE
    out = [h for m in _CARD_ANY_RE.finditer(html)
           if (h := m.group(1) or m.group(2) or m.group(3))]
    if not out:
        # fast path missed despite the marker → tolerant DOM pass
        from .htmlparse import parse_html
        for a in parse_html(html).find_all(
                "a", attrs={"data-cy": "listing-item-link"}):
            h = a.get("href")
            if h:
                out.append(h)
    return out


def _page_ctx(url: str | None) -> tuple[str, str]:
    """(source, scheme://host) for per-portal extractor dispatch."""
    if not url:
        return "", ""
    host = host_of(url)
    i = url.find(host)
    base = url[:i + len(host)]
    if host == "ogloszenia.trojmiasto.pl":
        return "trojmiasto", base
    parts = host.split(".")
    return (parts[1] if len(parts) >= 3 else
            (parts[0] if len(parts) == 2 else "")), base


def html_to_spans(html: str, url: str | None = None) -> list[dict]:
    """Parse a rendered portal page back into its span document via the
    per-portal extractor chain with the reference's precedence (M31,
    otodom.py:628-665: LD+JSON > __NEXT_DATA__ > geo fallbacks > CSS;
    photos: NEXT images > LD images > gallery imgs w/ srcset argmax,
    otodom.py:681-785). Listing-link extraction dispatches on the page
    host to the portal dialect (stages/portals.py); offer-field
    surfaces are substring-gated, so one chain serves every dialect.
    Inverse of Portal.render_html; tests assert crawl-output equality
    between html mode and span mode."""
    from .portals import (advert_to_fields, base_of, hydrated_center,
                          listing_links_generic, listing_links_gratka,
                          listing_links_morizon, listing_links_otodom,
                          property_number)
    source, base = _page_ctx(url)
    spans: list[dict] = []
    links: list[str] = []
    if "<a" in html:
        if source == "otodom":
            links = listing_links_otodom(html, base)
        elif source == "gratka":
            city = host_of(url).split(".")[0].split("-")[0].capitalize()
            links = listing_links_gratka(html, base, city)
        elif source == "morizon":
            links = listing_links_morizon(html, base)
        else:
            links = listing_links_generic(html, base or base_of(url or "https://x.pl"))
    for i, u in enumerate(links):
        spans.append({"kind": "link", "text": "", "media_ref": u, "offset": i})

    fields, ld_images = extract_ldjson_fields(html)
    next_images: list[str] = []
    # cheap substring gates before any whole-document scan: the chain's
    # surfaces are mutually exclusive per portal, so most passes miss
    # and a memchr beats a 200 KB regex scan ~20×
    block = _find_next_block(html) if "__NEXT_DATA__" in html else None
    if block is not None:
        # the advert probe scans the whole state block; only trojmiasto
        # serves the advert shape, so known other hosts skip it
        adv = (_next_data_advert(block)
               if source in ("trojmiasto", "") else None)
        if adv is not None:
            afields, aimages = advert_to_fields(adv)
            for k, v in afields.items():
                fields.setdefault(k, v)
            next_images = aimages
        else:
            for k, v in _next_data_params(block):
                fields.setdefault(k, str(v))
            next_images = [str(u) for u in _next_data_images(block)]
    if source == "otodom":
        # header banner price (otodom.py:111-119): NEVER set price_amount
        # from the banner on multi-unit (paginatedUnits/developmentData)
        # pages — the banner there is a development's "starting from"
        # price, not this offer's; the per-m² figure may still be taken.
        # Structured surfaces (LD / NEXT params) win first (setdefault).
        # The reference scans the banner unconditionally, but its result
        # only ever fills a STILL-MISSING price — so pages whose
        # structured surfaces carried both prices (~70 %) skip the
        # whole-document selector scan, and the multi-unit pageProps
        # probe runs only when a banner total actually matched.
        need_total = "price_amount" not in fields
        need_pm2 = "price_per_m2" not in fields
        btxt = (_banner_price_text(html)
                if (need_total or need_pm2) else None)
        if btxt:
            mt = PRICE_TOTAL_RE.search(btxt) if need_total else None
            if mt and not (_next_data_multi_units(block)
                           if block is not None else False):
                v = coerce_float(mt.group(1))
                if v is not None:
                    fields["price_amount"] = str(v)
            elif need_pm2:
                mp = PRICE_PERM2_RE.search(btxt)
                if mp:
                    v = coerce_float(mp.group(1))
                    if v is not None:
                        fields["price_per_m2"] = str(v)
    if "propertyNumber" in html:
        pn = property_number(html)
        if pn:
            fields.setdefault("offer_id", pn)
    lm = _LEAFLET_RE.search(html) if "L.marker" in html else None
    if lm:
        fields.setdefault("lat", lm.group(1))
        fields.setdefault("lon", lm.group(2))
    if _has_hydrated_marker(html):  # hydrated map bounds (morizon):
        # accepts ANY integer marker id (not just the synthetic
        # portal's 101..104) without letting float latitudes in other
        # portals' JSON trigger the whole-page bounds regex
        hc = hydrated_center(html)
        if hc is not None:
            fields.setdefault("lat", hc[0])
            fields.setdefault("lon", hc[1])
    if '<div class="param"' in html:
        for k, v in _FIELD_RE.findall(html):
            fields.setdefault(k, v)

    photos = next_images or ld_images
    if not photos and '<img class="gallery"' in html:
        photos = _IMG_RE.findall(html)
        if not photos:
            photos = [u for u in (best_from_srcset(s)
                                  for s in _IMG_SRCSET_RE.findall(html))
                      if u is not None]

    off = 0
    for k, v in fields.items():
        spans.append({"kind": "text", "text": f"{k}={v}", "media_ref": "",
                      "offset": off})
        off += 1
    for i, u in enumerate(photos):
        spans.append({"kind": "image", "text": "", "media_ref": u, "offset": i})
    return spans


def build_proxies(http: str | None, https: str | None) -> dict | None:
    """S5 (reference build_proxies, /root/reference/scrapper/core/http.py:
    105-111): proxy URL pair → session proxy dict, None when unset."""
    if not http and not https:
        return None
    out = {}
    if http:
        out["http://"] = http
    if https:
        out["https://"] = https
    return out


_PROCESS_CACHE: dict[str, "FetchParse"] = {}


def make_fetch_fn(portal_cfg: PortalConfig, crawl_cfg: CrawlConfig,
                  politeness: "PolitenessService | None" = None,
                  run_token: str = ""):
    """Stateless-task adapter around :class:`FetchParse` with
    per-worker-process state caching.

    The crawl generation loop launches one Ray Data execution per wave;
    a `map_batches(Cls, concurrency=N)` actor pool would be torn down
    and respawned every wave (actor startup ≫ wave compute for small
    waves). Ray worker *processes* persist across executions, so caching
    the stage state in a module global gives the same amortization —
    setup once per worker — without per-wave actor churn. A long-lived
    streaming deployment (single execution) would use the actor-pool
    form directly: ``map_batches(FetchParse, fn_constructor_args=...)``.

    ``run_token`` (a per-run nonce from run_crawl) keys the cache so a
    second run with identical configs in the same driver gets fresh
    state bound to *its* politeness/urlseen actors, not the previous
    run's handles.
    """
    key = repr((portal_cfg, crawl_cfg, run_token))

    def fetch_parse(batch: pa.Table) -> pa.Table:
        fp = _PROCESS_CACHE.get(key)
        if fp is None:
            _PROCESS_CACHE.clear()  # evict prior runs' state (stale handles)
            fp = _PROCESS_CACHE[key] = FetchParse(portal_cfg, crawl_cfg, politeness)
        return fp(batch)

    return fetch_parse


def trap_like(url: str, cfg: CrawlConfig) -> bool:
    """Crawler-trap guard: does this extracted link exceed the
    configured URL-shape caps (length / query-param count / path
    depth)? Calendar and session-id traps mint unbounded NEW urls, so
    exact URL dedup cannot stop them — shape caps can. O(len(url));
    shared verbatim by the engine's link emitter and the sequential
    oracle so the trapped set is identical on both sides. All caps
    default to None (off): the reference has no trap defense, so
    parity runs must not filter."""
    if cfg.max_url_len is not None and len(url) > cfg.max_url_len:
        return True
    if cfg.max_query_params is None and cfg.max_path_depth is None:
        return False
    head, _, q = url.partition("?")
    if (cfg.max_query_params is not None and q
            and q.count("&") + 1 > cfg.max_query_params):
        return True
    return (cfg.max_path_depth is not None
            and head.count("/") - 2 > cfg.max_path_depth)


# validator fragment names: part-b{bucket:04d}-{worker token}-…
_VFRAG_BUCKET_RE = re.compile(r"^part-b(\d{4,})-")
_VCACHE_BUCKETS = 64  # resident url→etag bucket maps per actor (LRU)
_NOT_MODIFIED = object()  # _get's 304 sentinel


class FetchParse:
    def __init__(self, portal_cfg: PortalConfig, crawl_cfg: CrawlConfig,
                 politeness: PolitenessService | None = None):
        self.portal = Portal(portal_cfg)
        self.cfg = crawl_cfg
        self.politeness = politeness
        # S5 (http.py:105-111 build_proxies): the proxy dict a real-HTTP
        # session would be constructed with, one session per actor (ST3)
        self.proxies = build_proxies(crawl_cfg.proxy_http, crawl_cfg.proxy_https)
        self._robots: dict[str, RobotsPolicy] = {}  # host → REP policy
        # real-HTTP transport (cfg.http_fetch): one session per actor
        # (ST3) with the reference's retry + Retry-After envelope; an
        # explicit server throttle (429/503 + Retry-After) is reported
        # to the politeness shards so AIMD widens that host's interval
        # for every task, not just the one that got throttled
        self._http = None
        if crawl_cfg.http_fetch:
            from .http import HttpSession
            on_throttle = None
            if politeness is not None:
                on_throttle = (
                    lambda host, delay: politeness.report({host: (1, 0)}))
            self._http = HttpSession(
                crawl_cfg.http_user_agent,
                timeout_s=crawl_cfg.http_timeout_s, proxies=self.proxies,
                attempts=crawl_cfg.fetch_attempts,
                backoff_initial=crawl_cfg.http_backoff_initial,
                backoff_max=crawl_cfg.http_backoff_max,
                on_throttle=on_throttle)
        # table-backed fetch (documents_path): row-group-indexed point
        # lookups over the doc_id-sorted table (the actor-side Lance
        # take of SURVEY.md §7.1) — per-actor state is one (min,max)
        # pair per row group plus a bounded LRU of decoded groups,
        # never the table. A table that is not sorted by doc_id is
        # refused: loading it whole into every actor is the OOM the
        # store exists to avoid.
        self._docstore = None
        if portal_cfg.documents_path:
            from ..sources.docstore import DocStore
            self._docstore = DocStore.open(portal_cfg.documents_path)
            if self._docstore is None:
                raise ValueError(
                    f"documents_path={portal_cfg.documents_path!r} is not "
                    "sorted by doc_id with exact row-group statistics; "
                    "write it with Portal.write_documents")
        # conditional-GET revisit (cfg.validators_from): validator
        # fragments are written SHARDED by the same host bucket the
        # frontier writer sorts detail fragments by (crawl.py wave()),
        # so an actor loads only the buckets its batches actually touch
        # — never the prior run's whole url→etag map (at 10^10 detail
        # URLs that map is tens of GB per actor; a fetch batch covers
        # 1–2 buckets because frontier fragments are bucket-contiguous).
        # Lookups recompute buckets with the WRITER's partitioning
        # params (validators/meta.json, checked on the driver by
        # run_crawl), so a revisit configured with different
        # host_buckets/skew_salts still routes correctly.
        self._vindex: dict[int, list[str]] = {}   # bucket → paths, gen order
        self._vcache: "OrderedDict[int, dict[str, str]]" = OrderedDict()
        self._vcfg = crawl_cfg                    # writer partition params
        self.validator_files_read: list[str] = [] # observability (tests)
        if crawl_cfg.validators_from:
            import json as _json
            import os as _os
            root = _os.path.join(crawl_cfg.validators_from, "validators")
            with open(_os.path.join(root, "meta.json")) as f:
                m = _json.load(f)
            self._vcfg = dataclasses.replace(
                crawl_cfg, host_buckets=int(m["host_buckets"]),
                skew_salts=tuple((s, int(n)) for s, n in m["skew_salts"]))
            from ..pipelines.crawl import gen_files
            for p in gen_files(root):
                mb = _VFRAG_BUCKET_RE.match(_os.path.basename(p))
                if mb is None:
                    raise ValueError(f"validator fragment {p!r} has no "
                                     "b{bucket}- prefix")
                self._vindex.setdefault(int(mb.group(1)), []).append(p)

    def _validator_map(self, bucket: int) -> dict[str, str]:
        """url→etag map of ONE host bucket, LRU-cached per actor."""
        m = self._vcache.get(bucket)
        if m is not None:
            self._vcache.move_to_end(bucket)
            return m
        import pyarrow.parquet as _pq
        m = {}
        for p in self._vindex.get(bucket, ()):  # gen order: later wins
            self.validator_files_read.append(p)
            vt = _pq.read_table(p, columns=["url", "etag"])
            m.update(zip(vt["url"].to_pylist(), vt["etag"].to_pylist()))
        self._vcache[bucket] = m
        if len(self._vcache) > _VCACHE_BUCKETS:
            self._vcache.popitem(last=False)
        return m

    # -- fetch: one page path for every transport ---------------------------

    def _fail_depth(self, url: str) -> int:
        if not self.cfg.fail_per_mille:
            return 0
        b = int.from_bytes(hashlib.sha1(("fail|" + url).encode()).digest()[:8], "big") % 1000
        return self.cfg.fail_depth if b < self.cfg.fail_per_mille else 0

    def _http_target(self, url: str) -> str:
        """Gateway rewrite (cfg.http_rewrite_base): route portal URLs
        through a local endpoint — no DNS for the portal hosts."""
        if self.cfg.http_rewrite_base:
            import urllib.parse as _up
            return (self.cfg.http_rewrite_base.rstrip("/") + "/"
                    + _up.quote(url, safe=""))
        return url

    def _get(self, url: str, known: str | None):
        """Fetch one page: ``(spans, etag)``; ``(_NOT_MODIFIED, known)``
        when the prior run's validator ``known`` still matches; ``(None,
        None)`` on a hard failure.

        Real HTTP sends ``known`` as If-None-Match and parses the body
        keyed by the ORIGINAL url (portal dialect dispatch is by host).
        The synthetic transport compares ``known`` before failure
        injection and computes the etag only when a validator is known
        or recorded. An injected failure hits a sampled URL's first
        ``fail_depth`` attempts, so it is hard iff ``fail_depth >=
        fetch_attempts`` (the reference's tenacity budget)."""
        if self._http is not None:
            try:
                resp = self._http.get(self._http_target(url), etag=known)
            except Exception:
                return None, None
            if resp.status == 304:
                return _NOT_MODIFIED, known
            return html_to_spans(resp.text(), url), resp.etag
        etag = (self.portal.etag(url)
                if known is not None or self.cfg.validators else None)
        if known is not None and known == etag:
            return _NOT_MODIFIED, known
        if self._fail_depth(url) >= self.cfg.fetch_attempts:
            return None, None
        if self._docstore is not None:
            spans = self._docstore.get(url)
        elif self.portal.cfg.html_bytes > 0:
            html = self.portal.render_html(url)
            spans = None if html is None else html_to_spans(html, url)
        else:
            spans = self.portal.render(url)
        return (None, None) if spans is None else (spans, etag)

    def _disallowed(self, url: str) -> bool:
        if not self.cfg.robots:
            return False
        host = host_of(url)
        pol = self._robots.get(host)
        if pol is None:
            if self._http is not None:
                # real robots.txt over the wire, cached per actor; an
                # unreachable robots file allows all (reference has no
                # robots handling at all — this guard is an addition)
                import urllib.parse as _up
                scheme = _up.urlsplit(url).scheme or "https"
                try:
                    # single attempt: a 404 (the common case) is a
                    # definitive allow-all — routing it through the
                    # 5-attempt backoff envelope would cost ~15 s of
                    # sleeps per (host, actor) for a known answer
                    txt = self._http.get(
                        self._http_target(f"{scheme}://{host}/robots.txt"),
                        attempts=1,
                    ).text()
                except Exception:
                    txt = ""
            else:
                txt = self.portal.robots_txt(host)
            # RFC 9309 matcher selected for this crawler's product token
            # (the part of the UA before '/'); group pick + wildcard/$
            # rules + longest-match precedence live in state/robots.py
            token = (self.cfg.http_user_agent or "*").split("/")[0].strip()
            pol = self._robots[host] = parse_robots_policy(txt, token)
            if (pol.crawl_delay is not None and self.politeness is not None
                    and self.politeness.enabled):
                # server asks for wider spacing than the configured
                # budget → raise that host's floor on its shard (once
                # per host per actor; the cache above gates re-sends),
                # capped so a published "Crawl-delay: 86400" can't
                # stall this host's fetch tasks for days
                self.politeness.set_min_spacing(
                    host, min(pol.crawl_delay,
                              self.cfg.robots_max_crawl_delay))
        return not pol.allowed_url(url)

    # -- the batch transform -------------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = batch.select(["url", "kind", "source", "region", "page_idx", "pos"]).to_pylist()

        # revisit: one vectorized bucket pass per batch routes each
        # detail URL to its validator shard (writer's partition params)
        vbuckets: np.ndarray | None = None
        if self.cfg.validators_from:
            from ..pipelines.crawl import _host_buckets
            vbuckets = _host_buckets(batch["url"], self._vcfg)

        # interleaved per-host pacing: book every host's slots in one
        # RPC round, derive each request's due time (host's first slot
        # + k intervals), then process requests in DUE order — a batch
        # holding several hosts paces them concurrently (span = max over
        # hosts, not sum), and request k of a host still lands on or
        # after its booked slot (full budget compliance)
        due: list[float] | None = None
        order = range(len(rows))
        if self.politeness is not None and self.politeness.enabled:
            hosts = [host_of(r["url"]) for r in rows]
            per_host: dict[str, int] = {}
            for h in hosts:
                per_host[h] = per_host.get(h, 0) + 1
            booked = self.politeness.book(per_host)
            t0 = time.monotonic()
            k: dict[str, int] = {}
            due = []
            for h in hosts:
                d0, spacing = booked[h]
                due.append(t0 + d0 + k.get(h, 0) * spacing)
                k[h] = k.get(h, 0) + 1
            order = sorted(order, key=due.__getitem__)

        out: dict[str, list] = {name: [] for name in COMBINED_SCHEMA.names}
        # batched offer-page payloads, coerced vectorized after the loop
        offer_ctx: list[dict] = []
        offer_raw: dict[str, list] = {k: [] for k in (
            "offer_id", "source", "title", "price_amount", "price_currency",
            "price_per_m2", "city", "lat", "lon", "area_m2", "rooms", "inquiry",
            "district", "street", "floor", "floors", "market_type",
            "property_type", "posted_at", "updated_at", "description")}
        offer_photos: list[list[str]] = []

        def emit(rec_kind: str, **kv):
            for name in COMBINED_SCHEMA.names:
                out[name].append(kv.get(name))
            out["rec_kind"][-1] = rec_kind

        # adaptive backoff: per-host (fails, oks) of this batch, folded
        # into the politeness shards once at the end (one RPC round)
        backoff_on = due is not None and self.cfg.backoff_factor > 1.0
        outcome: dict[str, list[int]] = {}
        for i in order:
            r = rows[i]
            url, kind = r["url"], r["kind"]
            if due is not None:
                wait = due[i] - time.monotonic()
                if wait > 0:
                    time.sleep(wait)
            is_detail = not (kind == "pagination" or kind.startswith("investment"))
            # conditional GET: the request is paced like any other (a
            # 304 still hits the server), but a matching validator
            # skips body transfer AND the parse chain
            known = (self._validator_map(int(vbuckets[i])).get(url)
                     if is_detail and vbuckets is not None else None)
            spans, etag = self._get(url, known)
            if backoff_on:
                o = outcome.setdefault(hosts[i], [0, 0])
                o[0 if spans is None else 1] += 1
            if spans is _NOT_MODIFIED:
                emit("pagemeta", url=url, source=r["source"],
                     region=r["region"], page_idx=r["page_idx"],
                     pos=r["pos"], status="not_modified", n_links=0,
                     fetch_kind="detail", etag=etag)
                continue
            if spans is None:
                emit("pagemeta", url=url, source=r["source"], region=r["region"],
                     page_idx=r["page_idx"], pos=r["pos"], status="fetch_fail",
                     n_links=0, fetch_kind="pagination" if kind == "pagination" else
                     ("investment" if kind.startswith("investment") else "detail"))
                continue
            if not is_detail:
                self._parse_link_page(r, spans, emit)
            else:
                self._collect_offer(r, spans, offer_ctx, offer_raw, offer_photos)
                emit("pagemeta", url=url, source=r["source"], region=r["region"],
                     page_idx=r["page_idx"], pos=r["pos"], status="ok",
                     n_links=0, fetch_kind="detail",
                     etag=etag if self.cfg.validators else None)

        if backoff_on and outcome:
            self.politeness.report(
                {h: (nf, nk) for h, (nf, nk) in outcome.items()})
        self._emit_offers(offer_ctx, offer_raw, offer_photos, emit)
        return pa.Table.from_pydict(out, schema=COMBINED_SCHEMA)

    # -- link pages ----------------------------------------------------------

    def _parse_link_page(self, r: dict, spans: list[dict], emit) -> None:
        portal = self.portal
        url, kind = r["url"], r["kind"]
        links = sorted((s for s in spans if s["kind"] == "link"), key=lambda s: s["offset"])
        emit("pagemeta", url=url, source=r["source"], region=r["region"],
             page_idx=r["page_idx"], pos=r["pos"],
             status="ok" if links else "empty", n_links=len(links),
             fetch_kind="pagination" if kind == "pagination" else "investment")
        local_seen: set[str] = set()
        is_invest = kind.startswith("investment")
        inv_page = portal.classify(url).page if is_invest else 0
        provenance = "investment" if is_invest else "pagination"
        guard_on = (self.cfg.max_url_len is not None
                    or self.cfg.max_query_params is not None
                    or self.cfg.max_path_depth is not None)
        for s in links:
            target = s["media_ref"]
            ref = portal.classify(target)
            # trap guard first: a trapped link must never reach the
            # robots cache, per-page dedup or the URL-seen shards
            # (traps mint unbounded NEW urls — admitting them would
            # both loop the crawl and pollute the seen set)
            if guard_on and trap_like(target, self.cfg):
                emit("link", url=target, kind="trapped", priority=9,
                     source=r["source"], region=r["region"],
                     page_idx=r["page_idx"], pos=s["offset"],
                     fetch_kind=provenance)
                continue
            if ref.kind == "listing":
                emit("link", url=target, kind="pagination", priority=0,
                     source=r["source"], region=r["region"],
                     page_idx=r["page_idx"] + 1, pos=0, fetch_kind=provenance)
                continue
            # robots gate: '/private' links are skipped only when
            # cfg.robots is on (the reference has no robots handling, so
            # robots=False must match the oracle's URL-seen set —
            # _disallowed is already gated on cfg.robots)
            if ref.kind != "void" and self._disallowed(target):
                continue
            if target in local_seen:
                continue  # per-page keep-first (D2)
            local_seen.add(target)
            if ref.kind == "investment":
                if "?page=" in target:  # internal pagination: bypass URL-seen
                    emit("link", url=target, kind="investment_next", priority=1,
                         source=r["source"], region=r["region"],
                         page_idx=r["page_idx"], pos=r["pos"], fetch_kind=provenance)
                else:
                    emit("link", url=target, kind="investment", priority=1,
                         source=r["source"], region=r["region"],
                         page_idx=r["page_idx"], pos=s["offset"], fetch_kind=provenance)
            elif ref.kind in ("offer", "blocked"):
                if is_invest:
                    pos = r["pos"] * 10000 + (inv_page - 1) * 100 + s["offset"] + 1
                else:
                    pos = s["offset"] * 10000
                emit("link", url=target, kind="detail", priority=2,
                     source=r["source"], region=r["region"],
                     page_idx=r["page_idx"], pos=pos, fetch_kind=provenance)

    # -- offer pages ---------------------------------------------------------

    def _collect_offer(self, r: dict, spans: list[dict], ctx: list[dict],
                       raw: dict[str, list], photos: list[list[str]]) -> None:
        fields: dict[str, str] = {}
        purls: list[str] = []
        pseen: set[str] = set()
        for s in sorted(spans, key=lambda s: s["offset"]):
            if s["kind"] == "text":
                k, _, v = s["text"].partition("=")
                fields.setdefault(k, v)  # first-wins merge (M31)
            elif s["kind"] == "image":
                if s["media_ref"] not in pseen:
                    pseen.add(s["media_ref"])
                    purls.append(s["media_ref"])
        desc = fields.get("description")
        if desc:
            # M13/M14 free-text fallback: fill only MISSING fields from
            # the prose description (setdefault keeps the M31 first-wins
            # precedence — structured surfaces always beat prose); the
            # raw matched groups flow into the same coerce_float path as
            # structured values
            from ..functions.urls import area_rooms_from_text, prices_from_text
            raw_total, raw_ppm2, blocked = prices_from_text(desc)
            if not blocked:
                if raw_total is not None:
                    fields.setdefault("price_amount", raw_total)
                    fields.setdefault("price_currency", "PLN")
                if raw_ppm2 is not None:
                    fields.setdefault("price_per_m2", raw_ppm2)
            raw_area, raw_rooms = area_rooms_from_text(desc)
            if raw_area is not None:
                fields.setdefault("area_m2", raw_area)
            if raw_rooms is not None:
                fields.setdefault("rooms", raw_rooms)
        ctx.append(r)
        for k in raw:
            raw[k].append(fields.get(k))
        photos.append(purls)

    def _emit_offers(self, ctx: list[dict], raw: dict[str, list],
                     photos: list[list[str]], emit) -> None:
        if not ctx:
            return
        n = len(ctx)
        price = np.array([coerce_float(v) if v is not None else np.nan
                          for v in raw["price_amount"]], dtype=np.float64)
        ppm2 = np.array([coerce_float(v) if v is not None else np.nan
                         for v in raw["price_per_m2"]], dtype=np.float64)
        area = np.array([coerce_float(v) if v is not None else np.nan
                         for v in raw["area_m2"]], dtype=np.float64)
        lat = np.array([float(v) if v is not None else np.nan for v in raw["lat"]])
        lon = np.array([float(v) if v is not None else np.nan for v in raw["lon"]])
        rooms = np.array([int(v) if v is not None else -1 for v in raw["rooms"]])
        inquiry = np.array([v is not None for v in raw["inquiry"]])
        cur = [(c.upper() if c else None) for c in raw["price_currency"]]
        # M15 street cleanup (gratka.py:501-517): strip ul./al./pl.
        # prefixes, collapse separators, null letterless remainders
        from ..functions.urls import clean_street
        street = [clean_street(v) for v in raw["street"]]
        floor = [int(v) if v is not None else None for v in raw["floor"]]
        floors = [int(v) if v is not None else None for v in raw["floors"]]
        # Polish/ISO date coercion, vectorized over the whole batch
        # (M5, otodom.py:210-217 / gratka.py:43-74)
        from ..functions.urls import parse_polish_dates
        posted = parse_polish_dates(raw["posted_at"]).to_pylist()
        updated = parse_polish_dates(raw["updated_at"]).to_pylist()
        from datetime import datetime
        now = datetime.fromisoformat(self.cfg.now)  # first/last_seen stamps
        # (detail.py:89-90 — deterministic clock instead of utcnow)

        # inquiry-price gate: null all price fields (M20)
        price[inquiry] = np.nan
        ppm2[inquiry] = np.nan
        cur = [None if q else c for q, c in zip(inquiry, cur)]
        # inverse price derivation (otodom.py:157-165): price missing
        # but zł/m² and area present → price = round(ppm2·area), PLN
        inv = np.isnan(price) & ~np.isnan(ppm2) & ~np.isnan(area) & (area > 0)
        price[inv] = np.round(ppm2[inv] * area[inv])
        cur = [("PLN" if m and c is None else c) for m, c in zip(inv, cur)]
        # derive ppm2 = round(price/area, 2) when missing (M19)
        d = np.isnan(ppm2) & ~np.isnan(price) & ~np.isnan(area) & (area > 0)
        ppm2[d] = np.round(price[d] / area[d], 2)
        # area correction when emitted area is >8 % off price/ppm2 (M19)
        with np.errstate(invalid="ignore", divide="ignore"):
            implied = price / ppm2
            c = (~d & ~np.isnan(ppm2) & ~np.isnan(price) & (ppm2 > 0)
                 & ~np.isnan(area) & (np.abs(area - implied) / implied > 0.08))
        area[c] = np.round(implied[c], 2)
        # Poland bbox gate (M18)
        bad_geo = ~((lat >= 49.0) & (lat <= 54.9) & (lon >= 14.0) & (lon <= 24.5))
        lat[bad_geo] = np.nan
        lon[bad_geo] = np.nan

        cap = self.cfg.limit_photos
        for i in range(n):
            offer = {
                "offer_id": raw["offer_id"][i], "source": raw["source"][i],
                "city": raw["city"][i],
                "price_amount": None if np.isnan(price[i]) else float(price[i]),
                "price_currency": cur[i],
                "price_per_m2": None if np.isnan(ppm2[i]) else float(ppm2[i]),
                "lat": None if np.isnan(lat[i]) else float(lat[i]),
                "lon": None if np.isnan(lon[i]) else float(lon[i]),
                "area_m2": None if np.isnan(area[i]) else float(area[i]),
                "rooms": None if rooms[i] < 0 else int(rooms[i]),
            }
            if any(offer.get(f) is None for f in REQ_FIELDS):
                continue  # completeness gate (M22)
            # backend sink row gate (backend.py:100-107): price<=0 rows
            # are never shipped — applied at emission so every sink
            # (parquet, CSV export) sees the same row set
            if offer["price_amount"] <= 0:
                continue
            # typed/range validation (M23, validate.py:9-50): rows with
            # out-of-range values drop whole, like the reference's
            # pydantic ValidationError path (detail.py:92/220)
            if not (0 <= offer["rooms"] <= 20):
                continue
            if floor[i] is not None and not (-2 <= floor[i] <= 200):
                continue
            r = ctx[i]
            desc = raw["description"][i]
            emit("offer", url=r["url"], source=offer["source"], region=r["region"],
                 page_idx=r["page_idx"], pos=r["pos"],
                 title=raw["title"][i], district=raw["district"][i],
                 # description[:5000] — the sink-side truncation rule
                 # (backend.py:128) applied at emission
                 description=desc[:5000] if desc else None,
                 street=street[i], floor=floor[i], floors=floors[i],
                 market_type=raw["market_type"][i],
                 property_type=raw["property_type"][i],
                 posted_at=posted[i], updated_at=updated[i],
                 first_seen=now, last_seen=now, **{
                     k: offer[k] for k in (
                         "offer_id", "price_amount", "price_currency", "price_per_m2",
                         "city", "lat", "lon", "area_m2", "rooms")})
            purls = photos[i][:cap] if cap is not None else photos[i]
            for seq, pu in enumerate(purls):
                emit("photo", url=pu, offer_id=offer["offer_id"], seq=seq,
                     source=offer["source"], region=r["region"])
