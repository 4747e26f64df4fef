"""The one grouped aggregate (stages/aggregate.py): ties round like the
DuckDB oracle, zero-row input gives a typed zero-row frame, and
``grouped`` equals a pandas brute force."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from realestate_scraper_ray.pipelines.relational import ORACLE, QUERIES
from realestate_scraper_ray.stages.aggregate import grouped, scaled

_EVENTS = pa.schema([("event_id", pa.int64()), ("ts", pa.timestamp("us")),
                     ("user_id", pa.int64()), ("event_type", pa.string()),
                     ("value", pa.float64()), ("props", pa.string())])

# x.5 cent ties: DuckDB's ROUND goes away from zero (0.025 → 3 cents,
# −0.125 → −13), half-to-even would give 2 and −12
_TIES = [0.025, 0.125, -0.125, 1.0]


def _write_events(sf_dir, values) -> None:
    ts = np.datetime64("2024-01-15T10:00:00", "us")
    n = len(values)
    pq.write_table(pa.table({
        "event_id": np.arange(n, dtype=np.int64),
        "ts": pa.array([ts + np.timedelta64(i, "m") for i in range(n)],
                       pa.timestamp("us")),
        "user_id": pa.array([1, 1, 2, 3][:n], pa.int64()),
        "event_type": pa.array(["view", "click", "purchase", "view"][:n]),
        "value": pa.array(values, pa.float64()),
        "props": pa.array(["{}"] * n)}, schema=_EVENTS),
        sf_dir / "events.parquet")


def _run(name: str, sf_dir) -> tuple[pd.DataFrame, pd.DataFrame]:
    import ray.data as rd
    got = QUERIES[name](str(sf_dir))
    if isinstance(got, rd.Dataset):
        got = got.to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{sf_dir / 'events.parquet'}'")
    return got, con.sql(ORACLE[name]).df()


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_scaled_rounds_half_away_from_zero():
    got = scaled(pa.array([0.025, 0.125, -0.125, 2.5, -2.5, 0.994]), 100)
    assert got.type == pa.int64()
    want = duckdb.sql("SELECT CAST(ROUND(v*100, 0) AS BIGINT) AS c FROM "
                      "unnest([0.025, 0.125, -0.125, 2.5, -2.5, 0.994]"
                      "::DOUBLE[]) t(v)").df()["c"].tolist()
    assert got.to_pylist() == want == [3, 13, -13, 250, -250, 99]


@pytest.mark.parametrize("name", ["events_hourly_window",
                                  "events_running_total"])
def test_ties_match_oracle(name, tmp_path):
    _write_events(tmp_path, _TIES)
    got, exp = _run(name, tmp_path)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(exp),
                                  check_dtype=False)


@pytest.mark.parametrize("name", ["events_hourly_window",
                                  "events_cusum_alarm",
                                  "events_pivot_counts"])
def test_zero_row_events_give_typed_empty_result(name, tmp_path):
    _write_events(tmp_path, [])
    got, exp = _run(name, tmp_path)
    assert len(got) == 0
    assert sorted(got.columns) == sorted(exp.columns)


def test_grouped_zero_rows_typed():
    import ray.data as rd
    ds = rd.from_arrow(pa.table({"k": pa.array([], pa.string()),
                                 "x": pa.array([], pa.int64()),
                                 "v": pa.array([], pa.float64())}))
    out = grouped(ds, {"k": "k", "b": lambda t: pc.bit_wise_and(t["x"], 1)},
                  {"n": (None, "count"), "nx": ("x", "count"),
                   "mx": ("x", "max"), "sv": ("v", "sum", 100)})
    assert len(out) == 0
    assert list(out.columns) == ["k", "b", "n", "nx", "mx", "sv"]
    assert out["n"].dtype == np.int64 and out["nx"].dtype == np.int64
    assert out["sv"].dtype == np.float64


def test_grouped_equals_pandas_brute_force():
    import ray.data as rd
    rng = np.random.default_rng(11)
    tables = []
    for n in (40, 1, 73, 25):
        tables.append(pa.table({
            "k": pa.array(rng.choice(["a", "b", "c"], n)),
            "x": rng.integers(-50, 50, n),
            # thousandths: about one value in ten is an x.5-cent tie
            "v": rng.integers(-5000, 5000, n) / 1000.0}))
    out = grouped(rd.from_arrow(tables),
                  {"k": "k", "odd": lambda t: pc.bit_wise_and(t["x"], 1)},
                  {"n": (None, "count"), "sx": ("x", "sum"),
                   "mn": ("x", "min"), "mx": ("x", "max"),
                   "sv": ("v", "sum", 100)})

    df = pa.concat_tables(tables).to_pandas()
    df["odd"] = df["x"] & 1
    c = df["v"] * 100
    df["c"] = np.where(c >= 0, np.floor(c + 0.5), np.ceil(c - 0.5))
    want = (df.groupby(["k", "odd"], as_index=False)
            .agg(n=("x", "size"), sx=("x", "sum"), mn=("x", "min"),
                 mx=("x", "max"), sv=("c", "sum")))
    want["sv"] = want["sv"].astype(np.int64) / 100.0
    assert out["n"].dtype == np.int64
    pd.testing.assert_frame_equal(_sorted(out), _sorted(want),
                                  check_dtype=False)
