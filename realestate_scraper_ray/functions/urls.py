"""URL kernels: canonicalization, host split, id extraction, Polish-number
and Polish-date coercion.

Semantics mirror the reference (citations inline); implementations are
vectorized (polars / pyarrow.compute over Arrow columns) with scalar
twins used by the sequential oracle. Scalar and vectorized paths are
property-tested for agreement (tests/test_urls.py).
"""

from __future__ import annotations

import unicodedata

import polars as pl
import pyarrow as pa

# ---------------------------------------------------------------------------
# URL canonicalization — semantics of /root/reference/scrapper/core/dedup.py:7-14:
# drop the fragment, strip the trailing slash of the path, sort query
# parameters lexicographically (by the full "k=v" token).
# ---------------------------------------------------------------------------


def normalize_url(url: str) -> str:
    """Scalar canonicalizer (oracle path)."""
    url, _, _ = url.partition("#")
    base, sep, query = url.partition("?")
    # strip trailing '/' from the path but never touch the '//' of the scheme
    scheme_end = base.find("://")
    path_start = base.find("/", scheme_end + 3) if scheme_end >= 0 else 0
    if path_start >= 0 and len(base) > path_start:
        base = base[:path_start] + base[path_start:].rstrip("/")
    if sep and query:
        query = "&".join(sorted(query.split("&")))
        return f"{base}?{query}"
    return base


def canonicalize_urls(urls: pa.Array | pa.ChunkedArray | list[str]) -> pa.Array:
    """Vectorized canonicalizer: polars expression pipeline (Rust kernels)."""
    s = pl.from_arrow(urls if isinstance(urls, (pa.Array, pa.ChunkedArray)) else pa.array(urls, pa.string()))
    if isinstance(s, pl.DataFrame):  # from_arrow on chunked arrays may give df
        s = s.to_series()
    df = s.alias("u").to_frame()
    out = df.select(
        pl.col("u").str.replace(r"#.*$", "").alias("nofrag")
    ).select(
        pl.col("nofrag").str.extract(r"^([^?]*)", 1).alias("base"),
        pl.col("nofrag").str.extract(r"\?(.*)$", 1).alias("query"),
    ).select(
        # rstrip trailing slashes of the path (not the scheme's '//': the
        # regex requires a non-slash char before the trailing run)
        pl.col("base").str.replace(r"(?P<keep>[^/])/+$", "$keep").alias("base"),
        pl.col("query"),
    ).select(
        pl.when(pl.col("query").is_null() | (pl.col("query") == ""))
        .then(pl.col("base"))
        .otherwise(
            pl.col("base") + "?" +
            pl.col("query").str.split("&").list.sort().list.join("&")
        )
        .alias("url")
    )
    return out.to_arrow()["url"].combine_chunks()


def split_host(urls: pa.Array | pa.ChunkedArray | list[str]) -> pa.Array:
    """Vectorized netloc extraction."""
    s = pl.from_arrow(urls if isinstance(urls, (pa.Array, pa.ChunkedArray)) else pa.array(urls, pa.string()))
    if isinstance(s, pl.DataFrame):
        s = s.to_series()
    out = s.alias("u").to_frame().select(
        pl.col("u").str.extract(r"^[a-z][a-z0-9+.-]*://([^/?#]+)", 1).alias("host")
    )
    return out.to_arrow()["host"].combine_chunks()


def host_of(url: str) -> str:
    """Scalar twin of :func:`split_host`."""
    i = url.find("://")
    rest = url[i + 3:] if i >= 0 else url
    for stop in "/?#":
        j = rest.find(stop)
        if j >= 0:
            rest = rest[:j]
    return rest


# ---------------------------------------------------------------------------
# Offer-id extraction — per-portal patterns (otodom '-ID<id>'
# otodom.py:26-27; morizon 'mzn\d{6,}' morizon.py:71-73; gratka '/ob/<id>'
# gratka.py:845-848; trojmiasto 'ogl\d{6,}' trojmiasto.py:59-61).
# ---------------------------------------------------------------------------

_ID_RE = r"(?:-ID|mzn|/ob/|ogl)(\d+)"


def extract_offer_ids(urls: pa.Array | pa.ChunkedArray | list[str]) -> pa.Array:
    """Vectorized: one alternation regex over all four portal id styles."""
    s = pl.from_arrow(urls if isinstance(urls, (pa.Array, pa.ChunkedArray)) else pa.array(urls, pa.string()))
    if isinstance(s, pl.DataFrame):
        s = s.to_series()
    out = s.alias("u").to_frame().select(pl.col("u").str.extract(_ID_RE, 1).alias("oid"))
    return out.to_arrow()["oid"].combine_chunks()


def offer_id_of(url: str) -> str | None:
    import re

    m = re.search(_ID_RE, url)
    return m.group(1) if m else None


# ---------------------------------------------------------------------------
# Polish-number coercion — NBSP/space thousands separators, ',' decimal
# comma, leading-number extraction (4 reference impls: otodom.py:194-208,
# morizon.py:60-69, gratka.py:96-108, trojmiasto.py:34-49 — unified here).
# ---------------------------------------------------------------------------

_NUM_RE = r"(-?\d+(?:\.\d+)?)"


def coerce_floats(texts: pa.Array | pa.ChunkedArray | list[str]) -> pa.Array:
    s = pl.from_arrow(texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) else pa.array(texts, pa.string()))
    if isinstance(s, pl.DataFrame):
        s = s.to_series()
    out = s.alias("t").to_frame().select(
        pl.col("t")
        .str.replace_all(" ", "")
        .str.replace_all(" ", "")
        .str.replace_all(" ", "")
        .str.replace_all(",", ".")
        .str.extract(_NUM_RE, 1)
        .cast(pl.Float64)
        .alias("x")
    )
    return out.to_arrow()["x"].combine_chunks()


def coerce_float(text: str | None) -> float | None:
    import re

    if text is None:
        return None
    t = text.replace(" ", "").replace(" ", "").replace(" ", "").replace(",", ".")
    m = re.search(_NUM_RE, t)
    return float(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# Slugify — NFKD de-accent + lowercase + dash-join (otodom.py:35-39,
# gratka.py:76-81). Used for city → URL-slug mapping.
# ---------------------------------------------------------------------------


def slugify(text: str) -> str:
    t = unicodedata.normalize("NFKD", text)
    t = "".join(c for c in t if not unicodedata.combining(c))
    t = t.replace("ł", "l").replace("Ł", "L").lower()
    out, dash = [], False
    for c in t:
        if c.isalnum():
            out.append(c)
            dash = False
        elif not dash and out:
            out.append("-")
            dash = True
    return "".join(out).rstrip("-")


# ---------------------------------------------------------------------------
# Polish dates — 'dd.mm.yyyy [HH:MM[:SS]]' → ISO-8601
# (otodom.py:210-217; gratka.py:43-74).
# ---------------------------------------------------------------------------


def parse_polish_dates(texts: pa.Array | pa.ChunkedArray | list[str]) -> pa.Array:
    s = pl.from_arrow(texts if isinstance(texts, (pa.Array, pa.ChunkedArray)) else pa.array(texts, pa.string()))
    if isinstance(s, pl.DataFrame):
        s = s.to_series()
    df = s.alias("t").to_frame()
    out = df.select(
        pl.coalesce(
            pl.col("t").str.strptime(pl.Datetime("us"), "%d.%m.%Y %H:%M:%S", strict=False),
            pl.col("t").str.strptime(pl.Datetime("us"), "%d.%m.%Y %H:%M", strict=False),
            pl.col("t").str.strptime(pl.Datetime("us"), "%d.%m.%Y", strict=False),
            pl.col("t").str.strptime(pl.Datetime("us"), "%Y-%m-%dT%H:%M:%S", strict=False),
            pl.col("t").str.strptime(pl.Datetime("us"), "%Y-%m-%d", strict=False),
        ).alias("ts")
    )
    return out.to_arrow()["ts"].combine_chunks()


# ---------------------------------------------------------------------------
# M13/M14 free-text extraction — the reference's prose fallbacks:
#   - price regexes + reservation blockers (gratka.py:20-21 PRICE_TOTAL_RE
#     / PRICE_PERM2_RE; blocker phrases otodom.py:435-437)
#   - area/rooms heuristic (morizon.py:289-312): strip "N–M m²" ranges,
#     then the LARGEST standalone m² value in [10, 1000] whose 16-char
#     left context contains neither "zł" nor "/m"; rooms = first
#     "N pokoje" match.
# Scalar per call (runs only on the prose-description subset of pages);
# the returned values are the RAW matched groups, so the normal number
# coercion (coerce_float, NBSP/comma handling) stays the single parser.
# ---------------------------------------------------------------------------

import re as _re

PRICE_TOTAL_RE = _re.compile(r"([\d\s.,]+)\s*(?:zł|PLN)", _re.I)
PRICE_PERM2_RE = _re.compile(r"([\d\s.,]+)\s*zł\s*/\s*m", _re.I)
PRICE_BLOCKERS = ("zarezerw", "zapytaj o cen", "brak ceny",
                  "cena do uzgodnienia")
_M2_RANGE_RE = _re.compile(r"\b\d+\s*[–-]\s*\d+\s*m[²2]\b")
_M2_RE = _re.compile(r"([\d\.,]+)\s*m[²2]\b", _re.I)
_ROOMS_TXT_RE = _re.compile(r"\b(\d+)\s+pokoje?\b", _re.I)


def prices_from_text(text: str | None) -> tuple[str | None, str | None, bool]:
    """(raw_total, raw_ppm2, blocked). Blocker phrases suppress all
    price extraction (the listing is reserved / price-on-request)."""
    if not text:
        return None, None, False
    low = text.lower()
    if any(b in low for b in PRICE_BLOCKERS):
        return None, None, True
    mt = PRICE_TOTAL_RE.search(text)
    mp = PRICE_PERM2_RE.search(text)
    return (mt.group(1) if mt else None,
            mp.group(1) if mp else None, False)


def area_rooms_from_text(text: str | None) -> tuple[str | None, str | None]:
    """(raw_area, raw_rooms) per the reference heuristic; raw_area is
    the group of the largest in-range candidate."""
    if not text:
        return None, None
    m = _ROOMS_TXT_RE.search(text)
    rooms = m.group(1) if m else None
    clean = _M2_RANGE_RE.sub(" ", text)
    best_raw, best = None, None
    for m in _M2_RE.finditer(clean):
        ctx = clean[max(0, m.start() - 16):m.start()]
        if "zł" in ctx or "/m" in ctx:
            continue
        v = coerce_float(m.group(1))
        if v is not None and 10 <= v <= 1000 and (best is None or v > best):
            best, best_raw = v, m.group(1)
    return best_raw, rooms


# M15 street cleanup (gratka.py:501-517): collapse commas/whitespace,
# strip one leading street-type prefix, and null out values with no
# letters left (digits-only "addresses").
_STREET_PREFIXES = ("ul.", "ulica", "al.", "aleja", "aleje", "pl.",
                    "plac", "os.", "osiedle")
_LETTER_RE = _re.compile(r"[A-Za-zĄąĆćĘęŁłŃńÓóŚśŻżŹź]")


def clean_street(s: str | None) -> str | None:
    if not s:
        return None
    t = _re.sub(r"\s*,\s*", " ", s.strip())
    t = _re.sub(r"\s+", " ", t)
    low = t.lower()
    for p in _STREET_PREFIXES:
        if low.startswith(p + " "):
            t = t[len(p) + 1:].lstrip()
            break
    return t if _LETTER_RE.search(t) else None
