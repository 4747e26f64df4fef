"""Round-5 operator edge cases: the distributed prefix scan's
range-boundary carry, the CDC last-op tie-break, k-core fixpoint, and
the CUSUM closed form."""

import numpy as np
import pandas as pd


def test_late_arrivals_matches_sequential_scan(ray_session):
    """The two-pass distributed prefix scan must equal a plain
    sequential replay of the same arrival order — including watermarks
    carried ACROSS range boundaries (an event early in range r+1 must
    see range r's max)."""
    import hashlib

    import duckdb

    from realestate_scraper_ray.pipelines import relational as R
    sf = "/root/testdata/sf0.01"
    got = R.events_late_arrivals(sf)

    ev = duckdb.sql(
        f"SELECT event_id, event_type, epoch_us(ts) AS ts_us "
        f"FROM '{sf}/events.parquet'").df()
    j = np.array([int(hashlib.md5(str(int(i)).encode()).hexdigest()[:8],
                      16) % R._LATE_JITTER_US
                  for i in ev["event_id"]])
    ev["ats"] = ev["ts_us"] + j
    ev = ev.sort_values(["ats", "event_id"]).reset_index(drop=True)
    wm = -(1 << 62)
    late = {}
    n_cross = 0
    prev_rng = None
    for r in ev.itertuples():
        rng = r.ats // R._LATE_RANGE_US
        if prev_rng is not None and rng != prev_rng:
            n_cross += 1
        prev_rng = rng
        if r.ts_us < wm - R._LATE_ALLOW_US:
            late[r.event_type] = late.get(r.event_type, 0) + 1
        wm = max(wm, r.ts_us)
    exp = (pd.DataFrame(sorted(late.items()),
                        columns=["event_type", "n_late"])
           .astype({"n_late": "int64"}))
    pd.testing.assert_frame_equal(got.reset_index(drop=True), exp)
    assert n_cross > 0  # the carry path is actually exercised


def test_kcore_fixpoint_early_exit_is_invariant(ray_session):
    """A fixpoint is invariant under further peel rounds: forcing MORE
    rounds than the engine's early-exit must not change the result."""
    from realestate_scraper_ray.pipelines import relational as R
    sf = "/root/testdata/sf0.001"
    base = R.graph_kcore(sf)
    orig = R._KCORE_ROUNDS
    try:
        R._KCORE_ROUNDS = orig + 3
        more = R.graph_kcore(sf)
    finally:
        R._KCORE_ROUNDS = orig
    pd.testing.assert_frame_equal(base, more)


def test_cdc_apply_tie_break_and_delete(ray_session):
    """events_cdc_apply semantics on the real table: keys with a final
    'error' op are absent; every surviving changelog key carries its
    (ts, event_id)-max op's value; untouched base keys pass through."""
    import duckdb

    from realestate_scraper_ray.pipelines import relational as R
    sf = "/root/testdata/sf0.001"
    got = R.events_cdc_apply(sf)
    fin = duckdb.sql(f"""
        WITH last AS (
          SELECT user_id, event_type,
                 CAST(ROUND(value*100,0) AS BIGINT) AS v,
                 ROW_NUMBER() OVER (PARTITION BY user_id
                                    ORDER BY ts DESC, event_id DESC) rn
          FROM '{sf}/events.parquet')
        SELECT user_id, event_type, v FROM last WHERE rn = 1""").df()
    deleted = set(fin.loc[fin["event_type"] == "error", "user_id"])
    assert deleted, "test premise: some final op is a delete"
    assert not (set(got["key"]) & deleted)
    ups = fin[fin["event_type"] != "error"]
    gmap = dict(zip(got["key"], got["value_cents"]))
    for r in ups.itertuples():
        assert gmap[r.user_id] == r.v
    src = dict(zip(got["key"], got["src"]))
    assert all(src[k] == "upsert" for k in ups["user_id"])


def test_cdc_apply_rounds_half_away_from_zero(ray_session, tmp_path):
    """value×100 landing exactly on .5 rounds like DuckDB's ROUND (half
    away from zero, not half to even) on the changelog and the base
    side alike."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from realestate_scraper_ray.pipelines import relational as R
    ts = np.full(4, np.datetime64("2024-01-01T00:00:00", "us"))
    pq.write_table(pa.table({
        "event_id": [1, 2, 3, 4], "ts": ts, "user_id": [1, 2, 3, 4],
        "event_type": ["view"] * 4,
        "value": [0.125, -0.125, 0.375, -0.625]}),
        tmp_path / "events.parquet")
    pq.write_table(pa.table({"c_custkey": [1, 5, 6],
                             "c_acctbal": [9.0, 1.125, -2.375]}),
                   tmp_path / "customer.parquet")
    got = R.events_cdc_apply(str(tmp_path))
    con = duckdb.connect()
    for t in ("events", "customer"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM "
                f"'{tmp_path}/{t}.parquet'")
    exp = con.sql(R.ORACLE["events_cdc_apply"]).df()
    assert got["key"].tolist() == exp["key"].tolist() == [1, 2, 3, 4, 5, 6]
    assert got["value_cents"].tolist() == exp["value_cents"].tolist() \
        == [13, -13, 38, -63, 113, -238]
    assert got["src"].tolist() == exp["src"].tolist()


def test_cusum_closed_form_equals_recursion():
    """S_t = R_t - min(0, running_min(R)) == the textbook recursion
    S_t = max(0, S_{t-1} + (x_t - k)) on random integer series."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(0, 30, 40)
        k = int(rng.integers(5, 20))
        rs = np.cumsum(x - k)
        closed = rs - np.minimum(0, np.minimum.accumulate(rs))
        s, rec = 0, []
        for xi in x:
            s = max(0, s + int(xi) - k)
            rec.append(s)
        assert closed.tolist() == rec
