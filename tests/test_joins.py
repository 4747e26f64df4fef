"""Adaptive broadcast/shuffle join: both strategies must produce the
same result, and the routing must follow the build-side size cap."""

import pandas as pd
import pyarrow as pa
import ray.data as rd

from realestate_scraper_ray.stages import joins as J


def _fact():
    return rd.from_arrow(pa.table({
        "k": [1, 2, 2, 3, 5, 5, 5, 8],
        "v": [10.0, 20.0, 21.0, 30.0, 50.0, 51.0, 52.0, 80.0]}))


def _dim():
    return rd.from_arrow(pa.table({
        "dk": [2, 3, 5, 9], "name": ["b", "c", "e", "z"]}))


def _run_both(fn):
    saved = J.BROADCAST_THRESHOLD_BYTES
    try:
        J.BROADCAST_THRESHOLD_BYTES = 64 << 20
        broadcast = fn()
        J.BROADCAST_THRESHOLD_BYTES = 0
        shuffle = fn()
    finally:
        J.BROADCAST_THRESHOLD_BYTES = saved
    return broadcast, shuffle


def test_semi_join_paths_agree():
    def run():
        out = J.semi_join(_fact(), _dim().select_columns(["dk"]), "k", "dk",
                          threshold_bytes=J.BROADCAST_THRESHOLD_BYTES)
        return out.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)

    b, s = _run_both(run)
    pd.testing.assert_frame_equal(b, s)
    assert sorted(b["k"].unique()) == [2, 3, 5]
    assert len(b) == 6  # semi join never duplicates fact rows
    assert list(b.columns) == ["k", "v"]


def test_lookup_join_paths_agree():
    def run():
        out = J.lookup_join(_fact(), _dim(), "k", "dk", ["name"],
                            threshold_bytes=J.BROADCAST_THRESHOLD_BYTES)
        df = out.to_pandas()
        return (df[["k", "v", "name"]].sort_values(["k", "v"])
                .reset_index(drop=True))

    b, s = _run_both(run)
    pd.testing.assert_frame_equal(b, s)
    assert b[b.k == 2]["name"].tolist() == ["b", "b"]
    assert 8 not in set(b["k"])  # inner semantics: unmatched fact dropped


def test_semi_join_duplicate_keys_across_blocks():
    # cross-block duplicate keys: the broadcast path dedups driver-side
    # (pc.unique over the pulled table), the shuffle path via a global
    # distinct — neither may duplicate fact rows
    keys = rd.from_arrow(pa.table({"dk": [2, 2, 5]})).union(
        rd.from_arrow(pa.table({"dk": [5, 5, 3]})))

    def run():
        out = J.semi_join(_fact(), keys, "k", "dk",
                          threshold_bytes=J.BROADCAST_THRESHOLD_BYTES)
        return out.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)

    b, s = _run_both(run)
    pd.testing.assert_frame_equal(b, s)
    assert len(b) == 6  # 2,2,3,5,5,5 — one output row per fact row
    assert sorted(b["k"].unique()) == [2, 3, 5]


def test_chained_lookup_joins_above_cap():
    """Two lookup joins in one plan, both above the cap, with more
    partitions than keys (most hash buckets empty): the second join
    reads the first one's output and both attach the same payload as
    the broadcast path."""
    def run():
        cap = J.BROADCAST_THRESHOLD_BYTES
        dim2 = rd.from_arrow(pa.table({"dk2": ["b", "c", "e"],
                                       "rank": [1, 2, 3]}))
        one = J.lookup_join(_fact(), _dim(), "k", "dk", ["name"],
                            num_partitions=8, threshold_bytes=cap)
        two = J.lookup_join(one, dim2, "name", "dk2", ["rank"],
                            num_partitions=8, threshold_bytes=cap)
        return (two.to_pandas()[["k", "v", "name", "rank"]]
                .sort_values(["k", "v"]).reset_index(drop=True))

    b, s = _run_both(run)
    pd.testing.assert_frame_equal(b, s)
    assert b["rank"].tolist() == [1, 1, 2, 3, 3, 3]
