"""Output checks: engine tables against the sequential crawl oracle, query
results against DuckDB running the registry's ORACLE SQL.

Tables compare by an order-insensitive content hash over canonical rows:
every number becomes a float rounded to ``DIGITS`` decimals, timestamps
become ISO strings and nulls (None/NaN/NaT) become None, so dtype and
float-repr differences between engines never alias to a mismatch.
"""

from __future__ import annotations

import datetime as dt
import decimal
import hashlib
import math

import numpy as np
import pandas as pd

DIGITS = 6

# columns compared per crawl table (tests/test_crawl.py's equality set)
URL_COLS = ["offer_url", "offer_id", "source", "region", "page_idx", "pos"]
OFFER_COLS = ["offer_id", "source", "url", "price_amount", "price_currency",
              "price_per_m2", "city", "lat", "lon", "area_m2", "rooms",
              "title", "district", "street", "floor", "floors",
              "market_type", "property_type", "posted_at", "updated_at",
              "first_seen", "last_seen", "region", "page_idx", "pos"]
PHOTO_COLS = ["offer_id", "seq", "url"]
CRAWL_TABLES = {"urls": URL_COLS, "offers": OFFER_COLS, "photos": PHOTO_COLS}


def canon(v):
    if v is None or v is pd.NaT:
        return None
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, float, np.integer, np.floating, decimal.Decimal)):
        f = float(v)
        return None if math.isnan(f) else round(f, DIGITS) + 0.0
    if isinstance(v, (pd.Timestamp, dt.datetime, dt.date, np.datetime64)):
        return pd.Timestamp(v).isoformat()
    if isinstance(v, (list, tuple, np.ndarray)):
        return tuple(canon(x) for x in v)
    if isinstance(v, dict):
        return tuple(sorted((k, canon(x)) for k, x in v.items()))
    return str(v)


def frame_hash(df: pd.DataFrame, cols: list[str] | None = None) -> str:
    """Order-insensitive hash of ``df`` over ``cols`` (default: all,
    in name order) — row count and column names included."""
    cols = sorted(df.columns) if cols is None else cols
    rows = sorted((tuple(canon(v) for v in r)
                   for r in df[cols].astype(object).itertuples(index=False, name=None)),
                  key=repr)
    h = hashlib.sha256(repr((cols, len(rows))).encode())
    for r in rows:
        h.update(repr(r).encode())
    return h.hexdigest()[:20]


def oracle_hashes(portal_cfg, crawl_cfg) -> dict[str, str]:
    """Expected crawl table hashes from the sequential oracle."""
    from realestate_scraper_ray.pipelines.oracle import crawl_oracle
    from realestate_scraper_ray.sources.synth_portal import Portal
    orc = crawl_oracle(Portal(portal_cfg), crawl_cfg)
    frames = {"urls": pd.DataFrame(orc.urls), "offers": pd.DataFrame(orc.offers),
              "photos": pd.DataFrame(orc.photos)}
    return {name: frame_hash(frames[name], cols)
            for name, cols in CRAWL_TABLES.items()}


def table_hashes(tables: dict) -> dict[str, str]:
    """Hashes of engine output tables (``{name: pyarrow.Table}``)."""
    return {name: frame_hash(tables[name].to_pandas(), cols)
            for name, cols in CRAWL_TABLES.items()}


def query_frame(res) -> pd.DataFrame:
    """A query result as a driver-side DataFrame (executes a Dataset)."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    if isinstance(res, rd.Dataset):
        refs = res.to_arrow_refs()
        tables = ray.get(refs)
        return (pa.concat_tables(tables, promote_options="default").to_pandas()
                if tables else pd.DataFrame())
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def duckdb_hashes(data_dir: str, names: list[str]) -> dict[str, str]:
    import duckdb

    from realestate_scraper_ray.pipelines.relational import ORACLE

    from .workloads import QUERY_TABLES
    con = duckdb.connect()
    for t in QUERY_TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{data_dir}/{t}.parquet'")
    out = {n: frame_hash(con.sql(ORACLE[n]).df()) for n in names}
    con.close()
    return out
