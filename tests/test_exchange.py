"""The one hash exchange (stages/exchange.py): pinned bucket ids, key
completeness per bucket, empty input, the byte-sized parquet read, and
a guard that no other bucket-hash family or parquet read creeps back
into the package."""

import os
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from realestate_scraper_ray.stages.exchange import bucket_of, exchange, read

_INT_KEYS = np.array([0, 1, 2, 7, 42, 1000003, -1, 2**40 + 5], np.int64)
_STR_KEYS = ["", "a", "abc", "token", "https://x.pl/oferta/123", "żółć"]


def _splitmix64_finalizer(x: np.ndarray) -> np.ndarray:
    """The bucket formula on-disk layouts were written with (the
    incremental state's ``splitmix64 % nb`` and curate's inlined
    finalizer), spelled out independently of the package."""
    x = x.astype(np.uint64)
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def test_int_buckets_pinned_and_equal_persisted_layout():
    assert bucket_of(_INT_KEYS, 16).tolist() == [15, 1, 14, 7, 5, 4, 0, 10]
    assert bucket_of(_INT_KEYS, 64).tolist() == [47, 1, 14, 23, 21, 36,
                                                 32, 58]
    for nb in (4, 8, 16, 64):
        old = (_splitmix64_finalizer(_INT_KEYS) % np.uint64(nb)).astype(
            np.int64)
        assert bucket_of(_INT_KEYS, nb).tolist() == old.tolist()
    # every input container gives the same ids
    want = bucket_of(_INT_KEYS, 64).tolist()
    assert bucket_of(pa.array(_INT_KEYS), 64).tolist() == want
    assert bucket_of(pa.chunked_array([_INT_KEYS[:3], _INT_KEYS[3:]]),
                     64).tolist() == want
    assert bucket_of(_INT_KEYS.tolist(), 64).tolist() == want
    small = _INT_KEYS[:-1]  # int32 keys bucket like their int64 values
    assert bucket_of(pa.array(small, pa.int32()), 64).tolist() == want[:-1]
    assert bucket_of(pa.array([1, None, 0]), 16).tolist() == [1, 15, 15]


def test_string_buckets_pinned():
    want = [16, 7, 16, 25, 9, 19]
    assert bucket_of(pa.array(_STR_KEYS), 32).tolist() == want
    assert bucket_of(pa.array(_STR_KEYS, pa.large_string()),
                     32).tolist() == want
    assert bucket_of(pa.array([], pa.string()), 8).dtype == np.int64


def test_exchange_keeps_each_key_in_one_bucket(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 500, 4000)
    ds = rd.from_arrow([pa.table({"k": keys[i::4], "v": np.arange(1000)})
                        for i in range(4)])

    def fold(t: pa.Table) -> pa.Table:
        assert "_bkt" not in t.column_names
        k = t["k"].to_numpy()
        b = np.unique(bucket_of(k, 8))
        assert len(b) == 1
        u, n = np.unique(k, return_counts=True)
        return pa.table({"k": u, "n": n, "b": np.full(len(u), b[0])})

    out = exchange(ds, "k", fold, 8).to_pandas()
    assert out["k"].is_unique  # no key split across buckets
    exp_k, exp_n = np.unique(keys, return_counts=True)
    out = out.sort_values("k")
    assert out["k"].tolist() == exp_k.tolist()
    assert out["n"].tolist() == exp_n.tolist()
    assert out["b"].tolist() == bucket_of(exp_k, 8).tolist()


def test_exchange_string_keys_and_pandas_fold(ray_session):
    import ray.data as rd
    words = ["a", "bb", "ccc", "a", "bb", "a"] * 50
    ds = rd.from_arrow(pa.table({"w": words}))
    out = exchange(ds, "w", lambda t: t.to_pandas().value_counts()
                   .rename("n").reset_index(), 4).to_pandas()
    assert dict(zip(out["w"], out["n"])) == {"a": 150, "bb": 100,
                                             "ccc": 50}


def test_exchange_two_sided_cogroups_both_inputs(ray_session):
    """A list of inputs is one exchange: a key present on both sides
    meets itself in one fold call."""
    import ray.data as rd
    left = rd.from_arrow(pa.table({"k": np.arange(100),
                                   "side": np.zeros(100, np.int64)}))
    right = rd.from_arrow(pa.table({"k": np.arange(50, 150),
                                    "side": np.ones(100, np.int64)}))

    def fold(t: pa.Table) -> pa.Table:
        k, side = t["k"].to_numpy(), t["side"].to_numpy()
        both = np.intersect1d(k[side == 0], k[side == 1])
        return pa.table({"n_both": [len(both)], "n": [t.num_rows]})

    out = exchange([left, right], "k", fold, 8).to_pandas()
    assert out["n_both"].sum() == 50 and out["n"].sum() == 200


def test_exchange_empty_dataset(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    assert exchange(ds, "k", lambda t: t, 8).count() == 0


def _blocks(ds) -> int:
    return ds.materialize().num_blocks()


def test_read_sub_mib_file_is_one_block(ray_session, tmp_path):
    # the session has 4 CPUs: Ray's own split would give 8 blocks
    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": np.arange(30_000, dtype=np.int64)}), p)
    assert _blocks(read(p)) == 1
    assert read(p).count() == 30_000


def test_read_gives_one_block_per_min_block_of_bytes(ray_session, tmp_path):
    from ray.data import DataContext
    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": np.arange(30_000, dtype=np.int64)}), p)
    ctx = DataContext.get_current()
    old = ctx.target_min_block_size
    try:
        for k in (2, 3, 5):
            ctx.target_min_block_size = os.path.getsize(p) // k
            assert _blocks(read(p)) == k
    finally:
        ctx.target_min_block_size = old


def test_read_many_small_files_is_one_block(ray_session, tmp_path):
    paths = []
    for i in range(12):
        paths.append(str(tmp_path / f"p{i}.parquet"))
        pq.write_table(pa.table({"x": np.arange(i * 100, i * 100 + 100)}),
                       paths[-1])
    ds = read(paths)
    assert _blocks(ds) == 1
    assert sorted(ds.to_pandas()["x"]) == list(range(1200))


def test_read_matches_pyarrow_on_empty_file_and_filter(ray_session,
                                                        tmp_path):
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(pa.table({"x": pa.array([], pa.int64()),
                             "s": pa.array([], pa.string())}), empty)
    assert read(empty).count() == 0
    assert pq.read_table(empty).num_rows == 0

    p = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"x": np.arange(1000, dtype=np.int64),
                             "s": [f"v{i % 7}" for i in range(1000)]}),
                   p, row_group_size=100)
    flt = (pc.field("x") >= 250) & (pc.field("s") == "v3")
    got = read(p, ["x"], flt).to_pandas()
    want = pq.read_table(p, columns=["x"], filters=flt).to_pandas()
    assert list(got.columns) == ["x"]
    assert sorted(got["x"]) == sorted(want["x"]) and len(want) > 0


_PKG = pathlib.Path(__file__).resolve().parent.parent / "realestate_scraper_ray"

# the only places a raw hash constant, a bucket shuffle, a parquet
# read, a value rounding, a 31-bit pair packing or a row normalization
# may live: the splitmix64 / MinHash kernels, the exchange (and its
# byte-sized ``read``), the aggregate primitive's one money-scaling
# rule, the pair primitive and ``_norm_rows``. No version-dependent
# polars hash is allowed anywhere.
_ALLOWED = {
    "0x9E3779B97F4A7C15": {"functions/sketches.py", "functions/textstats.py"},
    "hash(seed=": set(),
    'groupby("_bkt")': {"stages/exchange.py"},
    "rd.read_parquet(": {"stages/exchange.py"},
    "pc.round(": {"stages/aggregate.py"},
    "(1 << 31) - 1": {"stages/pairs.py"},
    "np.linalg.norm(": {"stages/similarity.py"},
}


@pytest.mark.parametrize("needle", sorted(_ALLOWED))
def test_no_other_bucket_hash_family(needle):
    hits = []
    for p in sorted(_PKG.rglob("*.py")):
        rel = p.relative_to(_PKG).as_posix()
        for i, line in enumerate(p.read_text().splitlines(), 1):
            if needle in line and rel not in _ALLOWED[needle]:
                hits.append(f"{rel}:{i}")
    assert not hits, f"{needle!r} outside its allowed files: {hits}"
    crawl = (_PKG / "pipelines/crawl.py").read_text()
    assert crawl.count("hash(seed=") == 0


def test_relational_rounds_only_through_scaled():
    """Every money/value scaling in the query catalog goes through
    ``stages/aggregate.scaled``; the one ``np.round`` left rounds a
    km distance for display (``crawl_reverse_geocode``)."""
    lines = (_PKG / "pipelines/relational.py").read_text().splitlines()
    hits = [i for i, line in enumerate(lines, 1) if "np.round(" in line]
    assert len(hits) == 1, hits
    assert "exp_dist" in lines[hits[0] - 1]
