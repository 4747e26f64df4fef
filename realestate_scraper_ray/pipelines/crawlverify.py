"""In-process oracle verification for the registry's crawl queries.

A crawl has no SQL-expressible oracle (no query over the static
testdata can describe one), so the driver records the ``crawl_*`` rows
rows-only. This module makes those rows fail loudly anyway: each crawl
query compares its engine tables with the SEQUENTIAL oracle twin
(`pipelines/oracle.py crawl_oracle`, the reference-behavior walk the
pytest suite also compares against — listing walk `otodom.py:539-604`,
detail parse `detail.py:30-92`) and returns the comparison as data,
one row per compared table: ``(table, rows_engine, rows_oracle,
n_mismatch)``, after raising :class:`CrawlVerificationError` on any
divergence.

How a query gets a verified crawl:

- ``crawled(pcfg, ccfg)`` runs the engine crawl of one config pair and
  its oracle, once per process. The cache is keyed by the configs; the
  workdirs live under one process-scoped temporary directory
  (``$TMPDIR``-aware), removed at interpreter exit, so concurrent
  processes never share or delete each other's crawl.
- ``compare(res, orc, tables)`` gives one row per named table on its
  standard key with its one column list (``COLUMNS``), plus the
  URL-seen set row when ``"url_seen"`` is named.

Negative test: tests/test_registry.py::test_crawl_verification_flips
breaks the offers table and asserts the query raises.
"""

from __future__ import annotations

import itertools
import os
import tempfile

import numpy as np
import pandas as pd

__all__ = [
    "COLUMNS",
    "CrawlVerificationError",
    "KEYS",
    "compare",
    "comparison",
    "crawled",
    "finish",
    "sequential_geocode_snap",
    "set_comparison",
]

# crawl order for urls/offers, photo order for photos/media
_ORDER = ["source", "region", "page_idx", "pos"]
_PHOTO = ["offer_id", "seq"]
KEYS = {"urls": _ORDER, "offers": _ORDER, "photos": _PHOTO, "media": _PHOTO}
# the compared columns of each table (for urls, offers and photos every
# engine column); every query compares all of them
COLUMNS = {
    "urls": ["offer_url", "offer_id", "source", "region", "page_idx", "pos"],
    "offers": ["offer_id", "source", "url", "price_amount", "price_currency",
               "price_per_m2", "city", "lat", "lon", "area_m2", "rooms",
               "title", "district", "street", "description", "floor",
               "floors", "market_type", "property_type", "posted_at",
               "updated_at", "first_seen", "last_seen", "region",
               "page_idx", "pos"],
    "photos": ["offer_id", "seq", "url"],
    "media": ["offer_id", "seq", "url", "source", "mime", "ext", "n_bytes",
              "sha256", "status", "local_path"],
}

_RUNS: dict[tuple, tuple] = {}
_ROOT: tempfile.TemporaryDirectory | None = None
_SEQ = itertools.count()


def crawled(pcfg, ccfg) -> tuple:
    """``(CrawlResult, OracleResult)`` of the engine crawl and the
    sequential oracle under ``pcfg``/``ccfg``, each run once per process.
    The workdir is a fresh directory under this process's temporary
    root."""
    global _ROOT
    key = (pcfg, ccfg)
    if key not in _RUNS:
        from ..sources.synth_portal import Portal
        from .crawl import run_crawl
        from .oracle import crawl_oracle
        if _ROOT is None:
            _ROOT = tempfile.TemporaryDirectory(prefix="rsr_crawls_")
        workdir = os.path.join(_ROOT.name, f"crawl-{next(_SEQ)}")
        _RUNS[key] = (run_crawl(pcfg, ccfg, workdir),
                      crawl_oracle(Portal(pcfg), ccfg))
    return _RUNS[key]


def compare(res, orc, *tables: str) -> list[dict]:
    """One verification row per table in ``tables``: ``res.table(name)``
    against the oracle's ``name`` rows on the table's ``KEYS`` over its
    ``COLUMNS``; ``"url_seen"`` is the engine's URL set against the
    oracle's."""
    rows = []
    for name in tables:
        if name == "url_seen":
            rows.append(set_comparison(
                name, set(res.table("urls")["offer_url"].to_pylist()),
                {r["offer_url"] for r in orc.urls}))
        else:
            rows.append(comparison(name, res.table(name).to_pandas(),
                                   pd.DataFrame(getattr(orc, name)),
                                   KEYS[name], COLUMNS[name]))
    return rows


class CrawlVerificationError(AssertionError):
    """Engine output diverged from the in-process sequential oracle."""


def _mismatches(got: pd.DataFrame, exp: pd.DataFrame, keys: list[str],
                cols: list[str] | None) -> int:
    """Count row positions where engine and oracle disagree after a
    key sort: length difference + per-position value differences over
    the compared columns. Floats compare with pandas'
    assert_series_equal default tolerance (rtol 1e-5) — the engine and
    oracle agree exactly in practice, but the gate should not be
    stricter than the pytest suite it mirrors. A compared column (all
    columns of both frames when ``cols`` is None) missing from either
    frame makes every row a mismatch. Any divergence yields
    n_mismatch > 0; the count is a loudness signal, not a diff."""
    got = got.sort_values(keys).reset_index(drop=True)
    exp = exp.sort_values(keys).reset_index(drop=True)
    want = cols or list(dict.fromkeys([*got.columns, *exp.columns]))
    use = [c for c in want if c in got.columns and c in exp.columns]
    if len(use) < len(want):
        return max(len(got), len(exp), 1)
    overlap = min(len(got), len(exp))
    n = max(len(got), len(exp)) - overlap
    if overlap == 0:
        return n
    g, e = got.iloc[:overlap], exp.iloc[:overlap]
    bad = np.zeros(overlap, dtype=bool)
    for c in use:
        gc, ec = g[c], e[c]
        try:
            ec = ec.astype(gc.dtype)
        except (TypeError, ValueError):
            pass
        if pd.api.types.is_float_dtype(gc.dtype) \
                and pd.api.types.is_numeric_dtype(ec.dtype):
            gv = gc.to_numpy(dtype=np.float64)
            ev = ec.to_numpy(dtype=np.float64)
            bad |= ~(np.isclose(gv, ev, rtol=1e-5, atol=1e-8)
                     | (np.isnan(gv) & np.isnan(ev)))
        else:
            bad |= (gc.astype(str).to_numpy()
                    != ec.astype(str).to_numpy())
    return n + int(bad.sum())


def comparison(table: str, got: pd.DataFrame, exp: pd.DataFrame,
               keys: list[str], cols: list[str] | None = None) -> dict:
    """One verification row: engine frame vs oracle frame."""
    return {"table": table,
            "rows_engine": int(len(got)),
            "rows_oracle": int(len(exp)),
            "n_mismatch": int(_mismatches(got, exp, keys, cols))}


def set_comparison(table: str, got: set, exp: set) -> dict:
    """One verification row for set-valued outputs (URL-seen sets,
    quarantine membership): n_mismatch = symmetric difference."""
    return {"table": table,
            "rows_engine": int(len(got)),
            "rows_oracle": int(len(exp)),
            "n_mismatch": int(len(got ^ exp))}


def finish(query: str, rows: list[dict]) -> pd.DataFrame:
    """Assemble the verification frame; raise loudly on any mismatch
    so the driver's rows-only check flips to an error on divergence."""
    out = pd.DataFrame(rows, columns=["table", "rows_engine",
                                      "rows_oracle", "n_mismatch"])
    out = out.astype({"rows_engine": "int64", "rows_oracle": "int64",
                      "n_mismatch": "int64"})
    bad = out[out["n_mismatch"] > 0]
    if len(bad):
        raise CrawlVerificationError(
            f"{query}: engine diverged from the sequential oracle: "
            + "; ".join(f"{r.table}: {r.n_mismatch} mismatches "
                        f"(engine {r.rows_engine} vs oracle "
                        f"{r.rows_oracle} rows)"
                        for r in bad.itertuples()))
    return out.sort_values("table").reset_index(drop=True)


def sequential_geocode_snap(offers: pd.DataFrame,
                            max_dist_m: float = 800.0) -> pd.DataFrame:
    """Sequential twin of `stages/geo.py geocode_and_snap` (reference
    chain gratka.py:326-426 + >800 m snap morizon.py:472-487): per
    offer, walk street→district→city through synthetic_geocode with
    result verification, then snap when the resolved point is farther
    than ``max_dist_m``. Plain Python loop — the oracle side."""
    from ..stages.geo import (geocode_queries, geocode_result_matches,
                              haversine_m, synthetic_geocode)
    rows = []
    for r in offers.itertuples():
        street = getattr(r, "street", None)
        district = getattr(r, "district", None)
        lat, lon = float(r.lat), float(r.lon)
        pt, lvl = None, "none"
        for level, q in geocode_queries(street, district, r.city):
            res = synthetic_geocode(q)
            if res is None:
                continue
            if not geocode_result_matches(
                    level, street, district, r.city,
                    res[2] if len(res) > 2 else None):
                continue
            pt, lvl = (res[0], res[1]), level
            break
        snapped = False
        if pt is not None and not np.isnan(lat):
            d = float(haversine_m(lat, lon, pt[0], pt[1]))
            if d > max_dist_m:
                lat, lon = pt
                snapped = True
        rows.append({"offer_id": r.offer_id, "lat": lat, "lon": lon,
                     "geo_snapped": snapped, "geo_level": lvl})
    return pd.DataFrame(rows)
