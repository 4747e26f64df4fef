"""Incremental aggregate maintenance (stages/incremental.py):
delta-folded state equals full recompute, exactly-once re-apply,
crash-between-commit-and-manifest retry, and O(delta) bucket touch."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from realestate_scraper_ray.stages.incremental import IncrementalGroupSum


def _make_partials():
    # nested so cloudpickle ships it by value (the test module is not
    # importable inside Ray workers)
    def partials(t: pa.Table) -> pa.Table:
        g = pa.table({"k": t["k"], "grp": t["grp"],
                      "n": np.ones(len(t), np.int64),
                      "s": t["v"].to_numpy().astype(np.int64)}) \
            .group_by(["k", "grp"]).aggregate([("n", "sum"), ("s", "sum")])
        return g.rename_columns(["k", "grp", "n", "s"])
    return partials


_partials = _make_partials()


def _mk(rng, n, kmax=40):
    return pa.table({
        "k": rng.integers(0, kmax, n).astype(np.int64),
        "grp": rng.choice(["x", "y"], n),
        "v": rng.integers(-50, 200, n).astype(np.int64)})


def _state_dict(state):
    return {(r["k"], r["grp"]): (r["n"], r["s"])
            for r in state.read().take_all()}


def _expect(tables):
    import collections
    agg = collections.defaultdict(lambda: [0, 0])
    for t in tables:
        for k, g, v in zip(t["k"].to_pylist(), t["grp"].to_pylist(),
                           t["v"].to_pylist()):
            agg[(k, g)][0] += 1
            agg[(k, g)][1] += v
    return {k: tuple(v) for k, v in agg.items()}


def test_incremental_equals_full_recompute(ray_session, tmp_path):
    rng = np.random.default_rng(1)
    deltas = [_mk(rng, 500) for _ in range(3)]
    st = IncrementalGroupSum(str(tmp_path / "st"), ["k", "grp"], "k",
                             n_buckets=8)
    for i, d in enumerate(deltas):
        assert st.update(rd.from_arrow(d), f"d{i}", _partials)
    assert _state_dict(st) == _expect(deltas)


def test_exactly_once_reapply_is_noop(ray_session, tmp_path):
    rng = np.random.default_rng(2)
    d = _mk(rng, 300)
    st = IncrementalGroupSum(str(tmp_path / "st"), ["k", "grp"], "k")
    assert st.update(rd.from_arrow(d), "d0", _partials)
    before = _state_dict(st)
    assert not st.update(rd.from_arrow(d), "d0", _partials)
    assert _state_dict(st) == before


def test_crash_before_manifest_retry_is_safe(ray_session, tmp_path):
    """Crash window: every bucket committed but the state-level manifest
    write was lost. The retry must not double-count — the per-bucket
    applied-deltas metadata (inside the parquet file, committed by the
    same rename as the data) makes each bucket's re-fold a no-op."""
    rng = np.random.default_rng(3)
    d0, d1 = _mk(rng, 400), _mk(rng, 400)
    st = IncrementalGroupSum(str(tmp_path / "st"), ["k", "grp"], "k")
    st.update(rd.from_arrow(d0), "d0", _partials)
    st.update(rd.from_arrow(d1), "d1", _partials)
    # simulate the crash: manifest lost AFTER d1's buckets committed
    os.remove(st._manifest_path())
    assert st.applied_deltas() == []
    assert st.update(rd.from_arrow(d1), "d1", _partials)  # retried
    assert _state_dict(st) == _expect([d0, d1])  # not double-counted


def test_untouched_buckets_not_rewritten(ray_session, tmp_path):
    """O(delta): a delta whose keys hash into one bucket must leave
    every other bucket file untouched (same inode content/mtime)."""
    rng = np.random.default_rng(4)
    st = IncrementalGroupSum(str(tmp_path / "st"), ["k", "grp"], "k",
                             n_buckets=8)
    st.update(rd.from_arrow(_mk(rng, 500)), "d0", _partials)
    paths = sorted(
        os.path.join(st.state_dir, b, "part.parquet")
        for b in os.listdir(st.state_dir) if b.startswith("bucket="))
    assert len(paths) > 2
    from realestate_scraper_ray.stages.exchange import bucket_of
    one_key = np.int64(7)
    target = int(bucket_of(np.array([one_key]), 8)[0])
    stamps = {p: os.stat(p).st_mtime_ns for p in paths}
    narrow = pa.table({"k": np.array([one_key] * 10),
                       "grp": ["x"] * 10,
                       "v": np.arange(10, dtype=np.int64)})
    st.update(rd.from_arrow(narrow), "d1", _partials)
    for p in paths:
        if f"bucket={target:02d}" in p:
            assert os.stat(p).st_mtime_ns != stamps[p]
        else:
            assert os.stat(p).st_mtime_ns == stamps[p]


def test_one_block_writes_every_bucket_file(ray_session, tmp_path):
    """A one-block delta reaches one fold call holding all four
    buckets; each bucket file still holds exactly its own keys, for
    both the grouped sum and the dedup fingerprints."""
    from realestate_scraper_ray.stages.exchange import bucket_of
    from realestate_scraper_ray.stages.incremental import IncrementalDedup
    d = _mk(np.random.default_rng(7), 600)
    st = IncrementalGroupSum(str(tmp_path / "sum"), ["k", "grp"], "k",
                             n_buckets=4)
    st.update(rd.from_arrow(d), "d0", _partials)
    want = _expect([d])
    assert _state_dict(st) == want
    kb = bucket_of(np.array([k for k, _ in want]), 4)
    dd = IncrementalDedup(str(tmp_path / "dedup"), n_buckets=4)
    ids = np.arange(100)
    survivors = dd.ingest(_docs(ids, [f"t{i % 80}" for i in ids]), "d0",
                          "text", "doc_id").to_pandas()
    assert sorted(survivors["doc_id"]) == list(range(80))
    n_h = 0
    for b in range(4):
        got = pq.read_table(os.path.join(st.state_dir, f"bucket={b:02d}",
                                         "part.parquet"))
        assert (bucket_of(got["k"], 4) == b).all()
        assert got.num_rows == (kb == b).sum()
        h = pq.read_table(dd._bucket_path(b))["h"]
        assert (bucket_of(h, 4) == b).all()
        n_h += len(h)
    assert n_h == 80


# ---------------------------------------------------------------------------
# IncrementalDedup: cross-snapshot dedup at ingest
# ---------------------------------------------------------------------------

def _docs(ids, texts):
    return rd.from_arrow(pa.table({
        "doc_id": np.array(ids, dtype=np.int64), "text": texts}))


def test_incremental_dedup_across_and_within_deltas(ray_session, tmp_path):
    from realestate_scraper_ray.stages.incremental import IncrementalDedup
    st = IncrementalDedup(str(tmp_path / "st"), n_buckets=4)
    # delta 0: within-delta dup (keep min id 1), unique texts
    s0 = st.ingest(_docs([3, 1, 2], ["dup-x", "dup-x", "only-a"]),
                   "d0", "text", "doc_id")
    assert sorted(r["doc_id"] for r in s0.take_all()) == [1, 2]
    # delta 1: one text already in the corpus, one new, one internal dup
    s1 = st.ingest(_docs([10, 11, 12, 13],
                         ["dup-x", "fresh", "fresh", "only-b"]),
                   "d1", "text", "doc_id")
    assert sorted(r["doc_id"] for r in s1.take_all()) == [11, 13]


def test_incremental_dedup_retry_exactly_once(ray_session, tmp_path):
    import os
    from realestate_scraper_ray.stages.incremental import IncrementalDedup
    st = IncrementalDedup(str(tmp_path / "st"), n_buckets=4)
    st.ingest(_docs([1, 2], ["a", "b"]), "d0", "text", "doc_id") \
        .materialize()
    d1 = _docs([5, 6, 7], ["a", "c", "c"])
    first = sorted(r["doc_id"] for r in
                   st.ingest(d1, "d1", "text", "doc_id").take_all())
    assert first == [6]
    stamps = {}
    for root, _, files in os.walk(st.state_dir):
        for f in files:
            p = os.path.join(root, f)
            stamps[p] = os.stat(p).st_mtime_ns
    # retry: same survivors, state files untouched
    again = sorted(r["doc_id"] for r in
                   st.ingest(d1, "d1", "text", "doc_id").take_all())
    assert again == first
    for p, ns in stamps.items():
        assert os.stat(p).st_mtime_ns == ns
    # and a later delta still sees d1's fingerprints
    s2 = st.ingest(_docs([9], ["c"]), "d2", "text", "doc_id")
    assert s2.take_all() == []


# ---------------------------------------------------------------------------
# property: ANY delta partitioning folds to the recompute (hypothesis)
# ---------------------------------------------------------------------------

def test_incremental_any_split_equals_recompute(ray_session, tmp_path):
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    runs = [0]

    @settings(max_examples=5, deadline=None,
              suppress_health_check=list(HealthCheck))
    @given(st.lists(st.tuples(st.integers(0, 30),          # key
                              st.sampled_from(["x", "y"]),  # grp
                              st.integers(-100, 100)),      # value
                    min_size=1, max_size=60),
           st.integers(1, 4))                               # delta count
    def check(rows, n_deltas):
        runs[0] += 1
        sd = tmp_path / f"st{runs[0]}"
        stt = IncrementalGroupSum(str(sd), ["k", "grp"], "k",
                                  n_buckets=4)
        chunks = [rows[i::n_deltas] for i in range(n_deltas)]
        tables = []
        for i, ch in enumerate(chunks):
            if not ch:
                continue
            t = pa.table({"k": np.array([r[0] for r in ch], np.int64),
                          "grp": [r[1] for r in ch],
                          "v": np.array([r[2] for r in ch], np.int64)})
            tables.append(t)
            stt.update(rd.from_arrow(t), f"d{i}", _partials)
        assert _state_dict(stt) == _expect(tables)

    check()
