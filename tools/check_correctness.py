"""Local stand-in for the driver's correctness gate: run every
queries() entry and its oracle_sql() twin on the same sf dir, compare
row count, column names, and an order-insensitive value hash.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data as rd
    if isinstance(res, rd.Dataset):
        return pa.Table.from_pylist(res.take_all()).to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def _number(v) -> str:
    """One spelling per numeric value: an integral float prints as the
    integer it equals (``2.0``, ``-0.0`` and ``2``, ``0`` hash alike),
    any other float as the ``repr`` of its float64 value, and a missing
    value as ``None``."""
    if pd.isna(v):
        return "None"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


def value_hash(df: pd.DataFrame) -> str:
    import hashlib
    df = df[sorted(df.columns)]
    # stringify rows the way a driver plausibly would, but numbers by
    # value: how a float prints depends on its dtype, not on what it is
    text = pd.DataFrame({
        c: (col.map(_number) if pd.api.types.is_numeric_dtype(col)
            and not pd.api.types.is_bool_dtype(col) else col.astype(str))
        for c, col in df.items()})
    rows = sorted(text.itertuples(index=False, name=None))
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:16]


# the checkout this file lives in — the code under test, for the
# driver and for Ray's workers alike
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sf_dir = os.path.abspath(sys.argv[1] if len(sys.argv) > 1
                             else "/root/testdata/sf0.01")
    only = set(sys.argv[2:])

    # Ray workers put the driver's working directory first on their
    # sys.path, so a run started elsewhere would mix two checkouts
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    import ray
    ray.init(address="local", num_cpus=8, include_dashboard=False,
             logging_level="ERROR")
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs, sqls = entrymod.queries(), entrymod.oracle_sql()
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_df(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name:28s} raised {type(e).__name__}: {e}")
            failures.append(name)
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"rows  {name:28s} {len(got):7d} rows  {dt:5.1f}s (no oracle)")
            continue
        exp = con.sql(sqls[name]).df()
        ok_rows = len(got) == len(exp)
        ok_cols = sorted(got.columns) == sorted(exp.columns)
        ok_hash = ok_rows and ok_cols and value_hash(got) == value_hash(exp)
        status = "OK   " if (ok_rows and ok_cols and ok_hash) else "FAIL "
        print(f"{status} {name:28s} rows={len(got)}/{len(exp)} cols_ok={ok_cols} "
              f"hash_ok={ok_hash}  {dt:5.1f}s")
        if status.startswith("FAIL"):
            failures.append(name)
            if ok_cols and ok_rows:
                merged = got[sorted(got.columns)].astype(str).merge(
                    exp[sorted(exp.columns)].astype(str), how="outer",
                    indicator=True)
                print(merged[merged._merge != "both"].head(6).to_string())
    ray.shutdown()
    print("FAILURES:", failures if failures else "none")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
