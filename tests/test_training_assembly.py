"""Training-set assembly operators (epoch shuffle, quantile gate,
temperature sampling, sequence packing) vs their DuckDB oracles at
sf0.001, plus semantic sanity checks that the oracles themselves can't
express (shard balance, packing contiguity)."""

import duckdb
import numpy as np

SF = "/root/testdata/sf0.001"


def _oracle(sql: str):
    con = duckdb.connect()
    for t in ("documents", "embeddings", "events"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con.sql(sql).df()


def _run(name: str):
    from realestate_scraper_ray.pipelines.relational import ORACLE, QUERIES
    got = QUERIES[name](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    exp = _oracle(ORACLE[name])
    cols = sorted(exp.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = exp[cols].sort_values(cols).reset_index(drop=True)
    assert len(a) == len(b)
    for c in cols:
        assert np.array_equal(a[c].to_numpy(), b[c].to_numpy(),
                              equal_nan=(a[c].dtype.kind == "f")), c
    return a


def test_epoch_shuffle_matches_oracle():
    out = _run("epoch_shuffle")
    # Permutation property: every doc appears exactly once, and within
    # each shard positions are the contiguous 1..n_shard.
    assert out["doc_id"].is_unique
    for _, g in out.groupby("shard"):
        assert sorted(g["pos"]) == list(range(1, len(g) + 1))


def test_quality_quantile_filter_matches_oracle():
    out = _run("quality_quantile_filter")
    # A 75th-percentile gate keeps at most ~25% plus ties at the cutoff.
    assert 0 < len(out) <= 500
    assert len(out) <= 0.5 * 500


def test_source_temperature_sample_matches_oracle():
    out = _run("source_temperature_sample")
    # The gate must actually bite on the uniform 20x25 testdata
    # (rate ~= 0.125*sqrt(20) ~= 0.56), not cap out at keep-everything.
    assert 0 < len(out) < 500


def test_sequence_packing_matches_oracle():
    out = _run("sequence_packing")
    # Contiguity: offsets in doc_id order are the exclusive prefix sum.
    o = out.sort_values("doc_id").reset_index(drop=True)
    n = o["n_tokens"].to_numpy()
    expect = np.concatenate(([0], np.cumsum(n)[:-1]))
    assert np.array_equal(o["tok_offset"].to_numpy(), expect)
    assert np.array_equal(o["pack_bin"].to_numpy(), expect // 2048)


def test_crawl_training_corpus_matches_brute_force(ray_session):
    """crawl → token count → exact keep-first dedup → packing equals a
    pandas reimplementation over the same crawl's offers table."""
    import numpy as np

    from realestate_scraper_ray.pipelines.relational import QUERIES
    sf = "/root/testdata/sf0.001"
    got = QUERIES["crawl_training_corpus"](sf)
    # crawl_offers_wide returns verification rows since r5; take the
    # wide offers frame straight from the cached engine result
    from realestate_scraper_ray.pipelines.crawlverify import crawled
    from realestate_scraper_ray.pipelines.relational import _ENTRY
    offers = crawled(*_ENTRY)[0].table("offers").to_pandas()
    o = offers[offers["description"].notna()].copy()
    o["oid"] = o["offer_id"].astype("int64")
    o["n_tokens"] = o["description"].str.split().map(len)
    g = (o.sort_values("oid")
         .groupby("description", as_index=False)
         .agg(oid=("oid", "min"), n_tokens=("n_tokens", "first"),
              dupes=("oid", "size"))
         .sort_values("oid").reset_index(drop=True))
    off = np.concatenate(([0], g["n_tokens"].cumsum().to_numpy()[:-1]))
    assert got["offer_id"].tolist() == g["oid"].tolist()
    assert got["n_tokens"].tolist() == g["n_tokens"].tolist()
    assert got["dupes"].tolist() == g["dupes"].tolist()
    assert got["tok_offset"].tolist() == off.tolist()
    assert got["pack_bin"].tolist() == (off // 512).tolist()
    assert got["dupes"].sum() == len(o)  # every doc accounted for


def test_crawl_vlm_packing_matches_brute_force(ray_session):
    """Interleaved text+image packing equals a pandas reimplementation:
    cost = title+description ws-tokens + 576/photo, packed in offer_id
    order into 4096-token bins; photo-less offers keep cost = text."""
    import numpy as np

    from realestate_scraper_ray.pipelines.relational import QUERIES
    sf = "/root/testdata/sf0.001"
    got = QUERIES["crawl_vlm_packing"](sf)
    from realestate_scraper_ray.pipelines.crawlverify import crawled
    from realestate_scraper_ray.pipelines.relational import _ENTRY
    offers = crawled(*_ENTRY)[0].table("offers").to_pandas()
    photos = QUERIES["crawl_photos"](sf)
    o = offers.copy()
    o["oid"] = o["offer_id"].astype("int64")
    o["n_txt"] = (o["title"].fillna("").str.split().map(len)
                  + o["description"].fillna("").str.split().map(len))
    pc_ = photos["offer_id"].astype("int64").value_counts()
    o["n_img"] = o["oid"].map(pc_).fillna(0).astype("int64")
    o["cost"] = o["n_txt"] + 576 * o["n_img"]
    o = o.sort_values("oid").reset_index(drop=True)
    off = np.concatenate(([0], o["cost"].cumsum().to_numpy()[:-1]))
    assert got["offer_id"].tolist() == o["oid"].tolist()
    assert got["n_text_tokens"].tolist() == o["n_txt"].tolist()
    assert got["n_images"].tolist() == o["n_img"].tolist()
    assert got["seq_cost"].tolist() == o["cost"].tolist()
    assert got["tok_offset"].tolist() == off.tolist()
    assert got["pack_bin"].tolist() == (off // 4096).tolist()
    assert (got["n_images"] == 0).any()  # left semantics exercised


def test_packing_queries_on_zero_rows_are_typed(tmp_path):
    """A zero-row documents table gives a zero-row result that still has
    every output column, with its type, as a Dataset and through the
    driver gate's ``to_pandas`` (Ray Data drops the schema of a map over
    nothing; ``stages/packing.typed`` puts it back)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from realestate_scraper_ray.pipelines.relational import QUERIES
    docs = pq.read_table(f"{SF}/documents.parquet")
    pq.write_table(docs.slice(0, 0), str(tmp_path / "documents.parquet"))
    i64, s = pa.int64(), pa.string()
    for name, cols in (
            ("sequence_packing", {"doc_id": i64, "n_tokens": i64,
                                  "tok_offset": i64, "pack_bin": i64}),
            ("epoch_shuffle", {"doc_id": i64, "shard": s, "pos": i64}),
            ("documents_clean_corpus", {"doc_id": i64, "source": s,
                                        "n_words": i64}),
            ("quality_quantile_filter", {"doc_id": i64, "n_words": i64}),
            ("source_temperature_sample", {"doc_id": i64, "source": s}),
            ("dedup_corpus_survivors", {"doc_id": i64})):
        out = QUERIES[name](str(tmp_path))
        if isinstance(out, rd.Dataset):
            assert out.count() == 0, name
            schema = out.schema().base_schema
            assert dict(zip(schema.names, schema.types)) == cols, name
            out = out.to_pandas()  # the driver gate keeps the columns
        want = pa.schema(list(cols.items())).empty_table().to_pandas()
        assert out.shape == (0, len(cols)), name
        assert out.dtypes.to_dict() == want.dtypes.to_dict(), name


def test_pipeline_queries_leave_no_temp_dir(tmp_path, monkeypatch):
    """The assembly and curation queries write their resumable output
    into a temporary directory and remove it after the read."""
    import os
    import tempfile

    from realestate_scraper_ray.pipelines.relational import QUERIES
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    for name in ("assembled_training_set", "curated_corpus_docs"):
        assert len(QUERIES[name](SF)) > 0, name
    assert [n for n in os.listdir(tmp_path) if n.startswith("rsr_")] == []
