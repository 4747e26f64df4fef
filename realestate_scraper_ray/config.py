"""Engine + synthetic-portal configuration.

Mirrors the reference's pydantic-settings surface
(``/root/reference/scrapper/config.py:29-65``) but as plain dataclasses:
the engine is configured programmatically, not via env vars.
"""

from __future__ import annotations

from dataclasses import dataclass


# The 16 voivodeship slugs used as crawl partitions by the reference
# (/root/reference/scrapper/cli.py:31-48).
VOIVODESHIPS: tuple[str, ...] = (
    "dolnoslaskie", "kujawsko-pomorskie", "lubelskie", "lubuskie",
    "lodzkie", "malopolskie", "mazowieckie", "opolskie",
    "podkarpackie", "podlaskie", "pomorskie", "slaskie",
    "swietokrzyskie", "warminsko-mazurskie", "wielkopolskie",
    "zachodniopomorskie",
)

SOURCES: tuple[str, ...] = ("otodom", "gratka", "morizon", "trojmiasto")

# Listing-page sizes per source. Otodom uses limit=72
# (/root/reference/scrapper/adapters/otodom.py:491); the others are
# engine-chosen constants of similar magnitude.
PAGE_SIZE: dict[str, int] = {
    "otodom": 72,
    "gratka": 32,
    "morizon": 35,
    "trojmiasto": 30,
}

# Host-share skew: Otodom dominates the frontier (BASELINE.json north_star).
# Expressed as pages-per-region multipliers in the synthetic portal.
SOURCE_WEIGHT: dict[str, float] = {
    "otodom": 4.0,
    "gratka": 1.0,
    "morizon": 1.0,
    "trojmiasto": 0.7,
}

# Per-source auto-stop policy: how many consecutive zero-new listing
# pages end the region walk (SURVEY.md §2.9). None = never stop on
# no-new (otodom walks until an empty page, otodom.py:507-510); 2 =
# morizon/gratka (morizon.py:697-709, gratka.py:788-800); 1 =
# trojmiasto (trojmiasto.py:262-265). A new source adapter registers
# its policy here — the engine itself is source-agnostic.
NO_NEW_STOP: dict[str, int | None] = {
    "otodom": None,
    "gratka": 2,
    "morizon": 2,
    "trojmiasto": 1,
}


# Fields required for an offer row to survive the completeness gate
# (REQ_FIELDS, /root/reference/scrapper/pipelines/detail.py:21).
REQ_FIELDS: tuple[str, ...] = (
    "price_amount", "city", "area_m2", "rooms", "lat", "lon",
    "offer_id", "source",
)

# The narrow 11-column offer schema actually used by the reference
# (OFFER_SCHEMA, /root/reference/scrapper/pipelines/detail.py:22).
OFFER_COLUMNS: tuple[str, ...] = (
    "offer_id", "source", "url", "price_amount", "price_currency",
    "price_per_m2", "city", "lat", "lon", "area_m2", "rooms",
)


@dataclass(frozen=True)
class PortalConfig:
    """Deterministic synthetic-portal topology (FIXTURES.md F1).

    Every page of the portal is a pure function of its URL and this
    config — the fetch stage can *render* a page procedurally, which is
    how the engine stays memory-free at any scale (no giant lookup
    table; a real-HTTP fetcher slots into the same interface).
    """

    seed: int = 42
    sources: tuple[str, ...] = SOURCES
    regions: tuple[str, ...] = VOIVODESHIPS
    # §2.10 user-extension surface: plug in a NEW portal source without
    # touching engine code or module tables — the Ray-native analogue of
    # the reference's BaseAdapter registration (scrapper/adapters/
    # base.py:19-46, cli.py:307-317). Each entry is
    # (name, page_size, weight, no_new_stop-or-None); the name must also
    # appear in `sources`. Registration lives ON the config (not in the
    # module dicts) so it serializes to every Ray worker with the job.
    extra_sources: tuple[tuple[str, int, float, int | None], ...] = ()
    # listing pages per (source, region) before weighting; the actual
    # count is deterministic per region within [3, base_pages].
    base_pages: int = 6
    # shrink factor on PAGE_SIZE (tests use <1 to keep portals tiny)
    page_size_scale: float = 1.0
    # fraction knobs (deterministic per-URL hash buckets, /1000)
    inquiry_per_mille: int = 30     # morizon "Zapytaj o cenę" pages → null prices
    missing_geo_per_mille: int = 50  # pages without lat/lon → REQ_FIELDS drop
    investment_per_mille: int = 40   # otodom listing links that are investment pages
    robots_blocked_per_mille: int = 20  # links under a robots-disallowed path
    # when set, the portal's robots.txt publishes this Crawl-delay —
    # the engine must WIDEN per-host pacing to it (state/robots.py)
    robots_crawl_delay: float | None = None
    investment_units: int = 5
    max_photos: int = 8
    # overlap: each listing page re-links this many offers from the
    # previous page (exercises the URL-seen filter, dedup.py:16-27)
    overlap_links: int = 2
    # the last `tail_repeat_pages` pages of each region contain only
    # already-seen offers → triggers the reference's "no_new twice in a
    # row" auto-stop (morizon.py:697-709, gratka.py:788-800)
    tail_repeat_pages: int = 2
    # offers whose price/area/rooms arrive ONLY as Polish prose in a
    # description span (no structured fields) → exercises the
    # reference's free-text extraction: price regexes with
    # reservation blockers (M13, gratka.py:20-21, otodom.py:435-437)
    # and the largest-m²-in-[10,1000] area heuristic with range
    # stripping and price-context exclusion (M14, morizon.py:289-312)
    prose_per_mille: int = 120
    # photo URLs whose HEAD probe declares a non-image content type
    # (anti-hotlink interstitials) → the media stage rejects them WITHOUT
    # transferring the body (S2, the reference's HEAD→MIME gate,
    # images.py:48-60)
    hotlink_per_mille: int = 20
    # photo payloads whose magic bytes are not a supported image format
    # → the media stage marks them status='failed' (the reference's
    # content-type / magic-sniff rejection, images.py:56-75)
    bad_photo_per_mille: int = 15
    # cross-source near-duplicate listings (same property on several
    # portals, ≤30 m coordinate drift, price ±90) — the population the
    # spatial near-dup stage (stages/geo.py, reference backend.py:58-93)
    # must find
    spatial_dup_per_mille: int = 15
    # content versioning for re-crawl tests: bumping ``content_version``
    # changes the FACTS (price/area/photos/…) of the deterministic
    # ``changed_per_mille`` subset of offers — every other page renders
    # byte-identically, so a conditional-GET revisit can prove both the
    # 304 skip and the changed-page re-parse. version 0 = original.
    content_version: int = 0
    changed_per_mille: int = 0
    # when >0, pages render as ~this many bytes of HTML (boilerplate
    # interleaved with the same facts) and the fetch stage runs the
    # regex extractor chain over them — realistic fetched+parsed cost
    # per page (real Otodom pages are 300-800 KB of Next.js HTML).
    # 0 = span mode: pages are the interleaved-span documents directly.
    html_bytes: int = 0
    # crawler-trap population: this per-mille of listing-card links
    # lead into a session-id trap — an investment-style URL whose page
    # links only to its own "next page" with one more &sid=<hex> query
    # param, forever (the classic calendar/session-id trap: every hop
    # is a NEW url, so exact URL dedup admits the chain unboundedly).
    # The engine's frontier guard (CrawlConfig.max_url_len /
    # max_query_params / max_path_depth) is what bounds it.
    trap_per_mille: int = 0
    # when set, the fetch stage serves pages from this materialized
    # documents parquet (doc_id, spans) instead of rendering
    # procedurally — the table-backed "Lance take by doc_id" path from
    # SURVEY.md §7.1. The table must be sorted by doc_id with exact
    # row-group statistics (Portal.write_documents writes it so): each
    # fetch worker reads only the row groups it touches
    # (sources/docstore.py), and an unsorted table raises ValueError.
    # URLs absent from the table are hard fetch failures.
    documents_path: str | None = None

    # -- per-source policy lookups (module tables ∪ extra_sources) ------
    def source_page_size(self, source: str) -> int:
        for name, page_size, _w, _nn in self.extra_sources:
            if name == source:
                return page_size
        return PAGE_SIZE[source]

    def source_weight(self, source: str) -> float:
        for name, _ps, weight, _nn in self.extra_sources:
            if name == source:
                return weight
        return SOURCE_WEIGHT[source]

    def source_no_new_stop(self, source: str) -> int | None:
        for name, _ps, _w, no_new in self.extra_sources:
            if name == source:
                return no_new
        return NO_NEW_STOP.get(source, 2)


@dataclass(frozen=True)
class CrawlConfig:
    """Engine runtime knobs (reference analogues cited inline)."""

    max_pages: int | None = None        # --max-pages (otodom.py:485-487)
    limit_offers: int | None = None     # --limit (stream.py:145-149)
    limit_photos: int | None = None     # --limit-photos (photos.py:71-75)
    # recency pushdown: only offers posted within the last N days are
    # crawled — baked into the listing URLs so the *server* prunes
    # (morizon.py:652-659 ps[date_from]; gratka.py:750-758)
    last_days: int | None = None
    # deterministic crawl clock for first_seen/last_seen stamps — the
    # reference stamps datetime.utcnow() per offer (detail.py:89-90);
    # a fixed configured clock keeps output tables reproducible
    now: str = "2026-02-01T00:00:00"
    # politeness: per-host requests/sec budget (config.py:10 default 0.3;
    # the reference's limiter is process-global & host-oblivious — ours is
    # per-host, which is what lets throughput scale with host-parallelism)
    rps_per_host: float = 1e9           # effectively off for synthetic fetch
    politeness_shards: int = 4
    # adaptive failure backoff (beyond the reference, which retries per
    # URL but never slows a failing host down): each failed request
    # multiplies the host's politeness spacing by backoff_factor (capped
    # at backoff_cap_mult × base interval); each success divides it back
    # (floored at 1×). factor 1.0 = off. Advisory state: NOT
    # checkpointed — a resumed crawl re-learns hosts' health.
    backoff_factor: float = 1.0
    backoff_cap_mult: float = 16.0
    # URL-seen service
    urlseen_shards: int = 8
    urlseen_capacity: int = 1 << 17     # keys per shard (test scale)
    # fetch stage sizing; fetch_concurrency caps concurrent fetch tasks
    # (None = let the streaming executor use every available slot)
    fetch_batch_size: int = 256
    fetch_concurrency: int | None = None
    # CPU share per fetch task. 1.0 for compute-bound synthetic parse;
    # politeness-throttled (I/O-bound) crawls should use a fraction so
    # tasks sleeping on per-host budgets oversubscribe the slots and
    # don't starve the CPUs — the sync-fetch analogue of async I/O.
    fetch_num_cpus: float = 1.0
    # per-URL retry attempts before emitting a fetch_fail row
    # (tenacity: 5 attempts, http.py:51-62)
    fetch_attempts: int = 5
    # failure injection (per-mille of pages that fail `fail_depth` times
    # before succeeding; fail_depth >= fetch_attempts → hard fetch_fail)
    fail_per_mille: int = 0
    fail_depth: int = 2
    # checkpointing
    checkpoint_every: int = 1           # generations between checkpoints
    # every Nth checkpoint dumps full filter bytes; the rest store only
    # the keys admitted since the previous checkpoint (delta chain —
    # full dumps are O(capacity), deltas O(new URLs))
    checkpoint_full_every: int = 1
    robots: bool = True
    # ceiling on an honored robots.txt Crawl-delay: a hostile or
    # misconfigured "Crawl-delay: 86400" must not wedge every fetch
    # task on that host for days (production crawlers cap at 30–60 s)
    robots_max_crawl_delay: float = 60.0
    # Conditional-GET re-crawl (RFC 9110 validators): when True each
    # parsed detail page's entity tag is persisted to
    # ``workdir/validators``; a later run pointing ``validators_from``
    # at that workdir sends the known validator with each detail
    # request and on a 304 skips transfer+parse entirely, carrying the
    # prior run's offer/photo rows forward. Listing pages are always
    # re-fetched (they drive frontier expansion and change on every
    # posting). ``validators_from`` must hold the bucketed layout a
    # validators run writes (``validators/meta.json`` plus
    # ``part-b{bucket}-`` fragments); anything else raises ValueError.
    validators: bool = False
    validators_from: str | None = None
    # S5 proxy configuration (reference build_proxies, http.py:105-111):
    # handed to each fetch worker's HTTP-session constructor. The
    # synthetic fetcher has no sockets, so these are carried and
    # surfaced via FetchParse.proxies for a real-HTTP backend.
    proxy_http: str | None = None
    proxy_https: str | None = None
    # Real-HTTP transport (S1/S2, stages/http.py): when True the fetch
    # stage issues actual GETs through one HttpSession per actor —
    # UA + Accept-Language headers, redirect follow, exponential-jitter
    # retry, Retry-After honoring on 429/503 feeding the politeness
    # AIMD state, conditional GET via If-None-Match (reference
    # core/http.py:34-78 semantics). Responses parse through the same
    # html_to_spans extractor chain as html mode, so oracle equality is
    # transport-independent.
    http_fetch: bool = False
    # gateway prefix: when set, a request for URL u goes to
    # ``{http_rewrite_base}/{quote(u, safe='')}`` — lets tests and
    # gateway deployments route portal URLs through a local endpoint
    # without DNS for the portal hosts
    http_rewrite_base: str | None = None
    http_timeout_s: float = 20.0
    http_user_agent: str = ("Mozilla/5.0 (X11; Linux x86_64) "
                            "AppleWebKit/537.36")
    # retry backoff envelope (http.py:51-62): exponential with jitter
    http_backoff_initial: float = 1.0
    http_backoff_max: float = 20.0
    # when True the wave downloads each photo's payload (synthetic
    # bytes), sniffs/hashes it and emits a media table row per photo —
    # the reference's image pipeline (core/images.py:48-91) wired into
    # the crawl as an in-wave stage
    media_fetch: bool = False
    # host-keyed frontier partitioning with skew salting (north_rule:
    # "streaming groupby-on-host shuffles with explicit salting of
    # skewed portals"): detail fragments are written in host-bucket
    # order, so same-host URLs flow through contiguous fetch tasks
    # (politeness locality) without an all-to-all shuffle. Hosts whose
    # substring matches get N salts — their URLs spread over N buckets
    # so one dominant portal (Otodom) never serializes onto one task
    # chain while still keeping per-(host,salt) politeness budgets.
    skew_salts: tuple[tuple[str, int], ...] = (("otodom", 8),)
    host_buckets: int = 256
    # crawler-trap guard: URL-shape caps applied to every extracted
    # link BEFORE it reaches per-page dedup or the URL-seen service
    # (calendar/session-id traps mint unbounded NEW urls, so exact
    # dedup cannot stop them — shape caps can). None = no cap. The
    # reference has no trap defense (its listing walks are bounded by
    # max-pages and the no-new auto-stop; detail links are never
    # expanded), so the guard defaults OFF for oracle parity; a real
    # web-scale deployment should set all three. Rejected links are
    # persisted to workdir/trapped/gen-N for audit.
    max_url_len: int | None = None
    max_query_params: int | None = None
    max_path_depth: int | None = None
    # frontier windowing: when a generation holds more rows than this,
    # it is processed in file-granular sub-windows (each its own bounded
    # streamed execution; summaries fold across windows). Caps driver
    # and object-store footprint at any frontier size — at 10^10 URLs a
    # generation never has to fit one execution. None = single window.
    max_wave_rows: int | None = None
