"""Row-group-indexed documents substrate (sources/docstore.py): the
table-backed fetch must do point reads — only the row groups a batch
touches — never load the table per worker (SURVEY.md §7.1 actor-side
take)."""

import dataclasses

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from realestate_scraper_ray.config import CrawlConfig, PortalConfig
from realestate_scraper_ray.sources.docstore import DocStore
from realestate_scraper_ray.sources.synth_portal import Portal

CFG = PortalConfig(regions=("pomorskie",), base_pages=3, page_size_scale=0.3)


def _store(tmp_path, row_group_size=64):
    p = str(tmp_path / "documents.parquet")
    Portal(CFG).write_documents(p, row_group_size=row_group_size)
    return p, DocStore.open(p)


def test_point_lookups_match_render(tmp_path):
    p, st = _store(tmp_path)
    assert st is not None
    portal = Portal(CFG)
    urls = portal.all_urls()
    for u in urls[:40] + urls[-10:]:
        assert st.get(u) == (portal.render(u) or [])
    assert st.get("https://www.otodom.pl/pl/oferta/nope-ID0") is None


def test_reads_only_touched_row_groups(tmp_path):
    p, st = _store(tmp_path, row_group_size=32)
    n_groups = pq.ParquetFile(p).metadata.num_row_groups
    assert n_groups > 10  # the portal is much larger than one group
    urls = sorted(Portal(CFG).all_urls())
    # five lookups clustered in one key range touch at most a couple of
    # groups; a whole-table load would read all of them
    for u in urls[100:105]:
        st.get(u)
    assert 0 < len(st.groups_read) <= 2
    assert len(set(st.groups_read)) < n_groups


def test_unsorted_table_falls_back(tmp_path):
    t = pa.table({"doc_id": ["b", "a", "c"], "spans": [[], [], []]})
    p = str(tmp_path / "unsorted.parquet")
    pq.write_table(t, p, row_group_size=1)
    assert DocStore.open(p) is None


def test_fetch_refuses_unsorted_table(tmp_path):
    """No eager fallback: a documents table that is not sorted by doc_id
    would be loaded whole into every fetch actor, so the stage refuses
    it when it is built."""
    from realestate_scraper_ray.stages.fetch import FetchParse
    t = pa.table({"doc_id": ["b", "a", "c"], "spans": [[], [], []]})
    p = str(tmp_path / "unsorted.parquet")
    pq.write_table(t, p, row_group_size=1)
    with pytest.raises(ValueError, match="sorted by doc_id"):
        FetchParse(dataclasses.replace(CFG, documents_path=p), CrawlConfig())


def test_lru_bounds_resident_groups(tmp_path):
    p, st = _store(tmp_path, row_group_size=16)
    st.CACHE_GROUPS = 4
    for u in sorted(Portal(CFG).all_urls()):
        st.get(u)
    assert len(st._cache) <= 4
