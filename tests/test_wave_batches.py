"""The wave's one-operator plan (pipelines/crawl.py): the driver packs
the frontier's row groups into fetch batches (``_pack_batches``), and
each wave task reads its own row groups, so no wave reads through
``ray.data.read_parquet``."""

import os
import warnings

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from realestate_scraper_ray.config import CrawlConfig
from realestate_scraper_ray.pipelines import crawl
from realestate_scraper_ray.pipelines.oracle import crawl_oracle
from realestate_scraper_ray.schemas import FRONTIER


def _rows(batch):
    return sum(n for *_, n in batch)


def _covers_in_order(groups, batches):
    """The pieces, in batch order, cover every row group's rows once
    and in the groups' order."""
    it = iter(p for b in batches for p in b)
    for path, rg, rows in groups:
        done = 0
        while done < rows:
            p = next(it)
            assert p[:3] == (path, rg, done) and p[3] > 0
            done += p[3]
        assert done == rows
    assert next(it, None) is None


def test_pack_keeps_order_and_fills_batches():
    groups = ([("p0-a", 0, 8), ("p0-a", 1, 8), ("p0-a", 2, 3)]
              + [("p1-b", 0, 40)]
              + [("p2-c", i, 64) for i in range(5)] + [("p2-d", 0, 17)])
    batches = crawl._pack_batches(groups, 64, 2)
    _covers_in_order(groups, batches)
    # ceil(396 / 64) tasks: every batch full but the last
    assert [_rows(b) for b in batches] == [64] * 6 + [12]


def test_pack_slices_an_oversized_row_group():
    # a resume with a smaller fetch_batch_size than the writer's
    groups = [("p2-b", 0, 300), ("p2-b", 1, 20)]
    batches = crawl._pack_batches(groups, 128, 1)
    _covers_in_order(groups, batches)
    assert batches == [[("p2-b", 0, 0, 128)], [("p2-b", 0, 128, 128)],
                       [("p2-b", 0, 256, 44), ("p2-b", 1, 0, 20)]]


def test_pack_spreads_a_small_wave_over_every_cpu():
    groups = [("p0", 0, 30)]
    assert [_rows(b) for b in crawl._pack_batches(groups, 256, 4)] \
        == [8, 8, 8, 6]
    # never below 8 rows a batch, however many CPUs
    assert [_rows(b) for b in crawl._pack_batches(groups, 256, 64)] \
        == [8, 8, 8, 6]
    # enough rows for every CPU: batch-sized batches
    assert [_rows(b) for b in crawl._pack_batches(groups, 16, 2)] == [16, 14]
    assert crawl._pack_batches([], 64, 4) == []


def test_seed_wave_gives_every_cpu_a_batch(tmp_path):
    # 16 seed rows written as run_crawl writes them (row groups of 8),
    # on a 2-CPU session
    d = tmp_path / "frontier" / "gen-0"
    d.mkdir(parents=True)
    seeds = pa.Table.from_pylist(
        [{"url": f"https://h{i}/list", "kind": "pagination", "priority": 0,
          "source": "s", "region": f"r{i}", "page_idx": 1, "pos": 0}
         for i in range(16)], schema=FRONTIER)
    pq.write_table(seeds, str(d / "part-p0-seeds.parquet"), row_group_size=8)
    windows = crawl._frontier_windows(str(tmp_path), 0, CrawlConfig())
    assert len(windows) == 1
    batches = crawl._pack_batches(windows[0], 64, 2)
    assert len(batches) >= 2
    got = pa.concat_tables([crawl._read_batch(crawl._manifest(b))
                            for b in batches])
    assert got.equals(seeds)


def test_wave_reads_without_read_parquet(small_portal, tmp_path, monkeypatch,
                                         ray_session):
    """A crawl with ``ray.data.read_parquet`` unusable still equals the
    oracle, no wave-function call gets more than one fetch batch, and a
    window with fewer batches than ``fetch_concurrency`` asks for no
    more concurrent tasks than it has batches."""
    cfg = CrawlConfig(urlseen_shards=2, urlseen_capacity=1 << 14,
                      fetch_batch_size=24, fetch_concurrency=4,
                      politeness_shards=1, max_wave_rows=40)
    calls = tmp_path / "calls"
    calls.mkdir()
    make_wave_fn = crawl.make_wave_fn

    def recording_make_wave_fn(*a, **kw):
        fn = make_wave_fn(*a, **kw)
        where = str(calls)

        def wave(batch):
            with open(os.path.join(where, str(os.getpid())), "a") as f:
                f.write(f"{batch.num_rows}\n")
            return fn(batch)
        return wave

    def no_read_parquet(*a, **kw):
        raise AssertionError("the wave read through ray.data.read_parquet")

    monkeypatch.setattr(crawl, "make_wave_fn", recording_make_wave_fn)
    monkeypatch.setattr(rd, "read_parquet", no_read_parquet)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        engine = crawl.run_crawl(small_portal.cfg, cfg, str(tmp_path / "w"))
    monkeypatch.undo()
    assert not [w for w in seen
                if "but the operator only received" in str(w.message)]

    oracle = crawl_oracle(small_portal, cfg)
    keys = ["source", "region", "page_idx", "pos"]
    got = engine.table("urls").to_pandas().sort_values(keys)
    exp = pd.DataFrame(oracle.urls).sort_values(keys)
    assert got["offer_url"].tolist() == exp["offer_url"].tolist()
    got = engine.table("offers").to_pandas().sort_values(keys)
    exp = pd.DataFrame(oracle.offers).sort_values(keys)
    assert got["url"].tolist() == exp["url"].tolist()
    assert got["price_amount"].tolist() == exp["price_amount"].tolist()
    pk = ["offer_id", "seq"]
    got = engine.table("photos").to_pandas().sort_values(pk)
    exp = pd.DataFrame(oracle.photos).sort_values(pk)
    assert got["url"].tolist() == exp["url"].tolist()

    sizes = [int(n) for f in calls.iterdir() for n in f.read_text().split()]
    assert sum(sizes) == engine.pages_fetched + engine.pages_failed
    assert sizes and max(sizes) <= cfg.fetch_batch_size
