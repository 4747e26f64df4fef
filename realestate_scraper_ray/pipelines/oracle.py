"""Sequential reference-semantics crawl oracle.

A deliberately row-at-a-time, single-threaded reimplementation of the
reference scraper's crawl semantics (discover → dedup → parse →
validate → photos), used as ground truth for the Ray engine's
URL-seen-set / crawl-order / span-sequence equality tests. It shares
only the synthetic portal and the *spec* with the engine — parsing here
is independent scalar code, mirroring the reference's architecture
(/root/reference/scrapper/pipelines/stream.py:140-157 driver loop,
process_single_offer :16-105).

Semantics encoded (citations into /root/reference/):
  - per-page local link dedup, keep-first (otodom.py:421-429)
  - global URL-seen set, first-seen-wins (core/dedup.py:16-27)
  - depth-first investment expansion incl. internal pagination
    (otodom.py:539-604)
  - auto-stop: empty page → 'no_links' (morizon.py:681-685;
    otodom "no cards" :507-510); two consecutive pages with zero new
    offers → 'no_new' for morizon/gratka (morizon.py:697-709,
    gratka.py:788-800); a single zero-new page stops trojmiasto
    (trojmiasto.py:262-265); --max-pages → 'max_pages'
    (otodom.py:485-487)
  - inquiry-price pages null all prices (morizon.py:314-319, 529-541)
  - derived price math + >8% area correction (morizon.py:573-593)
  - Poland-bbox geo gate (morizon.py:23)
  - REQ_FIELDS completeness gate (detail.py:21, 30-31)
  - currency upper-cased (core/validate.py:42-45)
  - photo keep-first dedup, seq re-based to 0 (otodom.py:775-785)
  - robots '/private' exclusion (north_rule addition; not in reference)
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from ..config import REQ_FIELDS, CrawlConfig, PortalConfig
from ..sources.synth_portal import Portal
from ..stages.fetch import trap_like

_NUM = re.compile(r"(-?\d+(?:\.\d+)?)")


def _coerce(text: str) -> float | None:
    # separator set matches the engine's coerce_float: space, NBSP
    # (U+00A0), narrow NBSP (U+202F) — all Polish thousands seps
    t = (text.replace(" ", "").replace(" ", "")
         .replace(" ", "").replace(",", "."))
    m = _NUM.search(t)
    return float(m.group(1)) if m else None


def _in_poland(lat: float, lon: float) -> bool:
    return 49.0 <= lat <= 54.9 and 14.0 <= lon <= 24.5


_DATE_FORMATS = ("%d.%m.%Y %H:%M:%S", "%d.%m.%Y %H:%M", "%d.%m.%Y",
                 "%Y-%m-%dT%H:%M:%S", "%Y-%m-%d")


def _parse_date(text: str | None):
    """Scalar twin of functions.urls.parse_polish_dates (M5,
    otodom.py:210-217 / gratka.py:43-74): same format chain, same order."""
    if text is None:
        return None
    from datetime import datetime
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt)
        except ValueError:
            continue
    return None


@dataclass
class OracleResult:
    urls: list[dict] = field(default_factory=list)     # URLS schema rows, crawl order
    offers: list[dict] = field(default_factory=list)   # OFFER_OUT_COLS rows, crawl order
    photos: list[dict] = field(default_factory=list)   # PHOTOS schema rows, crawl order
    media: list[dict] = field(default_factory=list)    # MEDIA rows (download results)
    seen: set[str] = field(default_factory=set)        # normalized URL-seen set
    state: dict = field(default_factory=dict)          # (source, region) -> stop state


# M13/M14 free-text fallback twins (independent scalar code mirroring
# the reference: gratka.py:20-21 price regexes, otodom.py:435-437
# blockers, morizon.py:289-312 area/rooms heuristic)
_O_PRICE_TOTAL = re.compile(r"([\d\s.,]+)\s*(?:zł|PLN)", re.I)
_O_PRICE_PERM2 = re.compile(r"([\d\s.,]+)\s*zł\s*/\s*m", re.I)
_O_BLOCKERS = ("zarezerw", "zapytaj o cen", "brak ceny",
               "cena do uzgodnienia")
_O_M2_RANGE = re.compile(r"\b\d+\s*[–-]\s*\d+\s*m[²2]\b")
_O_M2 = re.compile(r"([\d\.,]+)\s*m[²2]\b", re.I)
_O_ROOMS = re.compile(r"\b(\d+)\s+pokoje?\b", re.I)

# M15 street cleanup twin (gratka.py:501-517)
_O_STREET_PREFIXES = ("ul.", "ulica", "al.", "aleja", "aleje", "pl.",
                      "plac", "os.", "osiedle")
_O_LETTER = re.compile(r"[A-Za-zĄąĆćĘęŁłŃńÓóŚśŻżŹź]")


def _clean_street(s: str | None) -> str | None:
    if not s:
        return None
    t = re.sub(r"\s*,\s*", " ", s.strip())
    t = re.sub(r"\s+", " ", t)
    low = t.lower()
    for p in _O_STREET_PREFIXES:
        if low.startswith(p + " "):
            t = t[len(p) + 1:].lstrip()
            break
    return t if _O_LETTER.search(t) else None


def _prose_fallback(fields: dict[str, str]) -> None:
    """Fill missing price/area/rooms fields from a prose description
    (setdefault — structured surfaces keep precedence)."""
    desc = fields.get("description")
    if not desc:
        return
    if not any(b in desc.lower() for b in _O_BLOCKERS):
        mt = _O_PRICE_TOTAL.search(desc)
        if mt:
            fields.setdefault("price_amount", mt.group(1))
            fields.setdefault("price_currency", "PLN")
        mp = _O_PRICE_PERM2.search(desc)
        if mp:
            fields.setdefault("price_per_m2", mp.group(1))
    clean = _O_M2_RANGE.sub(" ", desc)
    best_raw = best = None
    for m in _O_M2.finditer(clean):
        ctx = clean[max(0, m.start() - 16):m.start()]
        if "zł" in ctx or "/m" in ctx:
            continue
        v = _coerce(m.group(1))
        if v is not None and 10 <= v <= 1000 and (best is None or v > best):
            best, best_raw = v, m.group(1)
    if best_raw is not None:
        fields.setdefault("area_m2", best_raw)
    mr = _O_ROOMS.search(desc)
    if mr:
        fields.setdefault("rooms", mr.group(1))


def parse_offer_spans(spans: list[dict]) -> tuple[dict, list[str]]:
    """Scalar offer parser: text spans → field dict; image spans →
    ordered, deduped photo URL list."""
    fields: dict[str, str] = {}
    photo_urls: list[str] = []
    photo_seen: set[str] = set()
    for s in sorted([s for s in spans if s["kind"] == "text"], key=lambda s: s["offset"]):
        k, _, v = s["text"].partition("=")
        fields.setdefault(k, v)
    _prose_fallback(fields)
    for s in sorted([s for s in spans if s["kind"] == "image"], key=lambda s: s["offset"]):
        u = s["media_ref"]
        if u not in photo_seen:
            photo_seen.add(u)
            photo_urls.append(u)

    out: dict[str, object] = {
        "offer_id": fields.get("offer_id"),
        "source": fields.get("source"),
        "city": fields.get("city"),
    }
    price = _coerce(fields["price_amount"]) if "price_amount" in fields else None
    ppm2 = _coerce(fields["price_per_m2"]) if "price_per_m2" in fields else None
    cur = fields.get("price_currency")
    area = _coerce(fields["area_m2"]) if "area_m2" in fields else None
    if "inquiry" in fields:  # Zapytaj o cenę → null all price fields
        price = ppm2 = None
        cur = None
    # inverse price derivation (otodom.py:157-165): only zł/m²
    # published → price = round(ppm2·area), currency PLN
    if price is None and ppm2 is not None and area is not None and area > 0:
        price = float(np.round(ppm2 * area))
        if cur is None:
            cur = "PLN"
    # rounding convention: np.round (half-even on the scaled double) is
    # the spec for derived values — the engine's vectorized path and this
    # scalar oracle must agree bit-for-bit
    if ppm2 is None and price is not None and area is not None and area > 0:
        ppm2 = float(np.round(price / area, 2))
    elif ppm2 is not None and price is not None and ppm2 > 0:
        implied = price / ppm2
        if implied > 0 and area is not None and abs(area - implied) / implied > 0.08:
            area = float(np.round(implied, 2))
    lat = float(fields["lat"]) if "lat" in fields else None
    lon = float(fields["lon"]) if "lon" in fields else None
    if lat is not None and lon is not None and not _in_poland(lat, lon):
        lat = lon = None
    out.update({
        "price_amount": price,
        "price_currency": cur.upper() if cur else None,
        "price_per_m2": ppm2,
        "lat": lat,
        "lon": lon,
        "area_m2": area,
        "rooms": int(fields["rooms"]) if "rooms" in fields else None,
        # wide columns (storage.py:13-20; datetimes validate.py:9-50)
        "title": fields.get("title"),
        "district": fields.get("district"),
        # sink-side description[:5000] truncation (backend.py:128)
        "description": (fields["description"][:5000]
                        if fields.get("description") else None),
        "street": _clean_street(fields.get("street")),
        "floor": int(fields["floor"]) if "floor" in fields else None,
        "floors": int(fields["floors"]) if "floors" in fields else None,
        "market_type": fields.get("market_type"),
        "property_type": fields.get("property_type"),
        "posted_at": _parse_date(fields.get("posted_at")),
        "updated_at": _parse_date(fields.get("updated_at")),
    })
    return out, photo_urls


def crawl_oracle(portal: Portal, crawl: CrawlConfig | None = None) -> OracleResult:
    cfg = crawl or CrawlConfig()
    res = OracleResult()
    inject = _FailInjector(cfg)

    for source in portal.cfg.sources:
        for region in portal.cfg.regions:
            _crawl_region(portal, cfg, source, region, res, inject)
    return res


class _FailInjector:
    """Deterministic transient-failure model shared with the engine's
    fetch stage (tenacity analogue, http.py:51-62): page `url` fails on
    its first `fail_depth` attempts if its hash bucket < fail_per_mille."""

    def __init__(self, cfg: CrawlConfig):
        self.cfg = cfg

    def hard_fails(self, url: str) -> bool:
        if not self.cfg.fail_per_mille:
            return False
        import hashlib

        b = int.from_bytes(hashlib.sha1(("fail|" + url).encode()).digest()[:8], "big") % 1000
        return b < self.cfg.fail_per_mille and self.cfg.fail_depth >= self.cfg.fetch_attempts


def _crawl_region(portal: Portal, cfg: CrawlConfig, source: str, region: str,
                  res: OracleResult, inject: _FailInjector) -> None:
    key = (source, region)
    st = res.state.setdefault(key, {
        "last_page_done": 0, "stop_reason": "", "no_new_streak": 0,
        "fetched": 0, "parsed": 0, "failed": 0,
    })
    if st["stop_reason"] and st["stop_reason"] != "fetch_fail":
        return
    st["stop_reason"] = ""
    page = st["last_page_done"] + 1
    while True:
        if cfg.max_pages is not None and page > cfg.max_pages:
            st["stop_reason"] = "max_pages"
            break
        url = portal.listing_url(source, region, page, cfg.last_days)
        if inject.hard_fails(url):
            st["stop_reason"] = "fetch_fail"
            st["failed"] += 1
            break
        spans = portal.render(url) or []
        st["fetched"] += 1
        links = [s for s in sorted(spans, key=lambda s: s["offset"]) if s["kind"] == "link"]
        if not links:
            st["stop_reason"] = "no_links"
            st["last_page_done"] = page
            break
        new_on_page = 0
        local_seen: set[str] = set()
        next_page_url: str | None = None
        for s in links:
            target = s["media_ref"]
            ref = portal.classify(target)
            # trap guard — same placement as the engine's link emitter
            # (stages/fetch.py _parse_link_page): before the listing /
            # robots / dedup decisions
            if trap_like(target, cfg):
                continue
            if ref.kind == "listing":
                next_page_url = target
                continue
            if ref.kind == "blocked" and cfg.robots:
                continue  # robots-disallowed
            if target in local_seen:
                continue  # per-page keep-first
            local_seen.add(target)
            if target in res.seen:
                continue  # global first-seen-wins
            res.seen.add(target)
            # pos encoding is order-preserving: a direct link at in-page
            # offset P gets pos P*10000; units expanded from the
            # investment at P slot in at P*10000 + 1.. so that sorting by
            # (source, region, page_idx, pos) reproduces the reference's
            # sequential crawl order exactly (SURVEY.md §7.5).
            if ref.kind == "investment":
                new_on_page += _expand_investment(
                    portal, cfg, source, region, page, s["offset"], target, res, inject, st)
            else:
                new_on_page += 1
                _emit_offer(portal, cfg, source, region, page, s["offset"] * 10000,
                            target, res, inject, st)
        st["last_page_done"] = page
        if new_on_page == 0:
            st["no_new_streak"] += 1
            limit = portal.cfg.source_no_new_stop(source)
            if limit is not None and st["no_new_streak"] >= limit:
                st["stop_reason"] = "no_new"
                break
        else:
            st["no_new_streak"] = 0
        if next_page_url is None:
            st["stop_reason"] = "no_links"
            break
        page += 1


def _expand_investment(portal: Portal, cfg: CrawlConfig, source: str, region: str,
                       page_idx: int, parent_pos: int, inv_url: str,
                       res: OracleResult, inject: _FailInjector, st: dict) -> int:
    """Depth-first investment expansion (otodom.py:539-604). Unit rows
    keep the discovering listing page's page_idx; their pos composes
    (parent_pos, investment page, in-page offset) into one sortable key."""
    new = 0
    url: str | None = inv_url
    while url is not None:
        ref = portal.classify(url)
        if inject.hard_fails(url):
            st["failed"] += 1
            return new
        spans = portal.render(url) or []
        st["fetched"] += 1
        url = None
        for s in sorted(spans, key=lambda s: s["offset"]):
            if s["kind"] != "link":
                continue
            t = s["media_ref"]
            tref = portal.classify(t)
            if trap_like(t, cfg):
                continue  # trap guard: chain (or unit link) cut here
            if tref.kind == "investment":
                url = t  # internal pagination
                continue
            if t in res.seen:
                continue
            res.seen.add(t)
            pos = parent_pos * 10000 + (ref.page - 1) * 100 + s["offset"] + 1
            new += 1
            _emit_offer(portal, cfg, source, region, page_idx, pos, t, res, inject, st)
    return new


def _emit_offer(portal: Portal, cfg: CrawlConfig, source: str, region: str,
                page_idx: int, pos: int, url: str, res: OracleResult,
                inject: _FailInjector, st: dict) -> None:
    ref = portal.classify(url)
    res.urls.append({
        "offer_url": url, "offer_id": ref.oid, "page_idx": page_idx,
        "source": source, "region": region, "pos": pos,
    })
    if cfg.limit_offers is not None and len(res.urls) > cfg.limit_offers:
        return  # frontier row recorded; detail fetch skipped past the limit
    if inject.hard_fails(url):
        st["failed"] += 1
        return
    spans = portal.render(url) or []
    st["fetched"] += 1
    offer, photo_urls = parse_offer_spans(spans)
    if any(offer.get(f) is None for f in REQ_FIELDS):
        return  # completeness gate (detail.py:30-31)
    if offer["price_amount"] <= 0:
        return  # backend sink price<=0 reject (backend.py:100-107)
    # typed/range validation (M23, validate.py:9-50 rooms∈[0,20],
    # floor∈[-2,200]): ValidationError → row dropped (detail.py:92/220)
    if not (0 <= offer["rooms"] <= 20):
        return
    if offer.get("floor") is not None and not (-2 <= offer["floor"] <= 200):
        return
    st["parsed"] += 1
    from datetime import datetime
    now = datetime.fromisoformat(cfg.now)  # detail.py:89-90 stamps
    offer.update({"url": url, "region": region, "page_idx": page_idx, "pos": pos,
                  "first_seen": now, "last_seen": now})
    res.offers.append(offer)
    cap = cfg.limit_photos if cfg.limit_photos is not None else len(photo_urls)
    for seq, purl in enumerate(photo_urls[:cap]):
        res.photos.append({"offer_id": offer["offer_id"], "seq": seq, "url": purl})
        if cfg.media_fetch:
            # sequential twin of the media download chain
            # (images.py:48-91): fetch bytes → sniff → sha256 → path
            import hashlib

            from ..stages.media import photo_path, sniff_mime
            row = {"offer_id": offer["offer_id"], "seq": seq, "url": purl,
                   "source": source, "mime": None, "ext": None, "n_bytes": 0,
                   "sha256": None, "status": "failed", "local_path": None}
            declared = portal.photo_head_mime(purl)  # S2 HEAD gate
            if declared is not None and not declared.startswith("image/"):
                row.update(mime=declared)
                res.media.append(row)
                continue
            blob = portal.photo_bytes(purl)
            if blob is not None:
                mime, ext = sniff_mime(blob)
                row.update(mime=mime, ext=ext, n_bytes=len(blob))
                if mime.startswith("image/"):
                    row.update(status="ok",
                               sha256=hashlib.sha256(blob).hexdigest(),
                               local_path=photo_path("media", source,
                                                     offer["offer_id"], seq, ext))
            res.media.append(row)
