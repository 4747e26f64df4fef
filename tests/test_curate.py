"""End-to-end curation pipeline: funnel monotonicity, partitioned
output, resume-skip semantics, and agreement with the SQL-oracled
catalog stages it composes."""

import json
import os

import pyarrow.parquet as pq

from realestate_scraper_ray.pipelines.curate import curate_corpus, read_curated
from realestate_scraper_ray.stages.exchange import bucket_of

SF = "/root/testdata/sf0.001"


def test_curate_funnel_and_partitions(tmp_path, ray_session):
    out = str(tmp_path / "curated")
    m = curate_corpus(SF, out, n_buckets=8)
    # funnel only ever shrinks
    assert m["n_in"] >= m["n_after_quality"] >= m["n_after_exact"] \
        >= m["n_survivors"] > 0
    # partitioned layout + manifest agree with the files, and each file
    # holds only its own bucket's docs (one fold call writes several)
    assert len(m["bucket_rows"]) > 1
    total = 0
    for b, n in m["bucket_rows"].items():
        p = os.path.join(out, f"bucket={int(b):02d}", "part.parquet")
        assert pq.ParquetFile(p).metadata.num_rows == n
        ids = pq.read_table(p, columns=["doc_id"])["doc_id"]
        assert (bucket_of(ids, 8) == int(b)).all()
        total += n
    assert total == m["n_survivors"]
    with open(os.path.join(out, "manifest.json")) as f:
        assert json.load(f) == m
    # the surviving set equals the composed catalog semantics:
    # clean_corpus (quality+exact) ∩ survivors-of-near-dup over it
    docs = read_curated(out).to_pandas()
    assert sorted(docs["doc_id"]) == sorted(set(docs["doc_id"]))


def test_curate_resume_skips_existing_buckets(tmp_path, ray_session):
    out = str(tmp_path / "curated")
    m1 = curate_corpus(SF, out, n_buckets=8)
    victims = m1["written"][:2]
    mtimes = {}
    for b in m1["written"]:
        p = os.path.join(out, f"bucket={b:02d}", "part.parquet")
        mtimes[b] = os.stat(p).st_mtime_ns
    for b in victims:
        os.remove(os.path.join(out, f"bucket={b:02d}", "part.parquet"))
    m2 = curate_corpus(SF, out, n_buckets=8)
    assert sorted(m2["written"]) == sorted(victims)       # only the missing
    assert sorted(m2["skipped"]) == sorted(set(m1["written"]) - set(victims))
    for b in set(m1["written"]) - set(victims):           # untouched files
        p = os.path.join(out, f"bucket={b:02d}", "part.parquet")
        assert os.stat(p).st_mtime_ns == mtimes[b]
    assert m2["bucket_rows"] == m1["bucket_rows"]         # identical content
