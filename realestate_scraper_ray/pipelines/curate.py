"""End-to-end corpus curation with RESUMABLE partitioned output.

The user-facing training-data pipeline: quality gate → exact dedup
(md5 keep-first) → near-dup cluster dedup (exact n-gram Jaccard →
connected components → min-id survivor) → write the surviving corpus
as hash-partitioned parquet, one directory per bucket, plus a manifest.

Resumability (the property a 100-TB run cannot live without): output
is partitioned by ``splitmix64(doc_id) % n_buckets`` (version-stable
pure-arithmetic key); each bucket commits
atomically (tmp + rename), and a re-run SKIPS buckets whose file
already exists — a failed run resumes by rewriting only the missing
buckets. Partitioning is content-keyed, so resuming with a different
input sharding produces byte-identical buckets. The manifest
(``manifest.json``, written last) records per-bucket row counts and the
funnel (rows in → after quality gate → after exact dedup → after
near-dup), and its presence marks the output complete.

Each step is one function here (``quality_gate``, ``keep_first``,
``survivors``), and the SQL-oracled catalog queries call the same
functions (relational.py: `documents_clean_corpus` is the gate plus
keep-first, `dedup_corpus_survivors` is ``survivors``), so the pipeline
is those queries composed by construction. pytest asserts the funnel
and the resume-skip behavior.
"""

from __future__ import annotations

import json
import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd
from ray.data.aggregate import Min

from ..functions.textstats import md5_fingerprints, quality_stats
from ..stages.exchange import bucket_of, exchange, read
from ..stages.joins import semi_join
from ..stages.packing import typed


def quality_gate(ds: rd.Dataset) -> rd.Dataset:
    """C4-style quality gate over ``ds``'s ``text``: keep rows with at
    least 40 words whose punctuation is at most 20 % of their chars, and
    append ``n_words`` and ``fp`` (md5 of the text, the exact-dup key)."""

    def gate(t: pa.Table) -> pa.Table:
        txt = t["text"].combine_chunks()
        q = quality_stats(txt)
        keep = pc.and_(pc.greater_equal(q["n_words"], 40),
                       pc.less_equal(pc.cast(q["n_punct"], pa.float64()),
                                     pc.multiply(pc.cast(q["n_chars_m"],
                                                         pa.float64()), 0.2)))
        return (t.append_column("n_words", q["n_words"])
                .append_column("fp", md5_fingerprints(txt)).filter(keep))

    return ds.map_batches(gate, batch_format="pyarrow")


def keep_first(ds: rd.Dataset) -> rd.Dataset:
    """Exact dedup keep-first: the rows of ``ds`` whose ``doc_id`` is the
    least of their ``fp`` group. Only (fp, doc_id) pairs ride the
    groupby exchange: shipping the text to pick a min id per hash would
    move the whole corpus instead of 16 bytes a row."""
    canon = (ds.select_columns(["fp", "doc_id"])
             .groupby("fp").aggregate(Min("doc_id", alias_name="doc_id")))
    return semi_join(ds, canon.select_columns(["doc_id"]), "doc_id", "doc_id")


def survivors(docs: rd.Dataset, threshold: float = 0.6) -> rd.Dataset:
    """Near-dup cluster dedup over ``docs`` (``doc_id``, ``text``): exact
    n-gram Jaccard pairs at ``threshold`` → connected components → the
    ``doc_id`` of each cluster's least member (singletons survive).
    ``docs`` is read twice (pairs and nodes), so it is materialized, and
    so is the result."""
    from ..stages.dedupe import ngram_jaccard_pairs
    from ..stages.graph import connected_components
    docs = docs.materialize()
    pairs = ngram_jaccard_pairs(docs.select_columns(["doc_id", "text"]),
                                "text", "doc_id", threshold=threshold)
    edges = rd.from_arrow(pa.table({
        "id_a": pa.array(pairs["id_a"].to_numpy(), pa.int64()),
        "id_b": pa.array(pairs["id_b"].to_numpy(), pa.int64())}))
    cc = connected_components(docs.select_columns(["doc_id"]), edges, "doc_id")
    return typed(cc.map_batches(
        lambda t: t.filter(pc.equal(t["doc_id"], t["component"]))
                   .select(["doc_id"]), batch_format="pyarrow"),
        pa.schema([("doc_id", pa.int64())]))


def curate_corpus(sf_dir: str, out_dir: str, n_buckets: int = 16,
                  jaccard_threshold: float = 0.6) -> dict:
    """Run the curation chain over ``{sf_dir}/documents.parquet`` and
    write surviving docs to ``{out_dir}/bucket=NN/part.parquet``.
    Returns the manifest dict. Buckets already present on disk are
    skipped (resume); delete ``manifest.json`` + partial buckets to
    redo them."""
    os.makedirs(out_dir, exist_ok=True)
    ds = read(os.path.join(sf_dir, "documents.parquet"),
              ["doc_id", "text", "source"])
    n_in = ds.count()
    gated = quality_gate(ds).materialize()
    n_gated = gated.count()
    exact = keep_first(gated).materialize()
    n_exact = exact.count()
    kept = semi_join(exact, survivors(exact, jaccard_threshold),
                     "doc_id", "doc_id")

    # content-keyed buckets (``exchange.bucket_of`` — version-stable,
    # so buckets written by one environment resume identically in a
    # rebuilt one); each bucket's task writes its own file (atomic tmp
    # + rename, skip-if-exists) and only (bucket, rows, wrote) summary
    # rows reach the driver
    def write_bucket(t: pa.Table) -> pa.Table:
        bucket = int(bucket_of(t["doc_id"][:1], n_buckets)[0])
        bdir = os.path.join(out_dir, f"bucket={bucket:02d}")
        dest = os.path.join(bdir, "part.parquet")
        wrote = False
        if not os.path.exists(dest):
            os.makedirs(bdir, exist_ok=True)
            tmp = dest + f".tmp-{uuid.uuid4().hex[:8]}"
            pq.write_table(t.sort_by("doc_id").select(
                ["doc_id", "text", "source"]), tmp)
            os.replace(tmp, dest)
            wrote = True
        return pa.table({"bucket": pa.array([bucket], pa.int32()),
                         "rows": pa.array([t.num_rows], pa.int64()),
                         "wrote": pa.array([wrote])})

    summary = exchange(kept, "doc_id", write_bucket,
                       n_buckets).to_pandas()
    counts = dict(zip(summary["bucket"].astype(int),
                      summary["rows"].astype(int)))
    written = sorted(int(b) for b in summary["bucket"][summary["wrote"]])
    skipped = sorted(int(b) for b in summary["bucket"][~summary["wrote"]])

    manifest = {
        "n_in": int(n_in), "n_after_quality": int(n_gated),
        "n_after_exact": int(n_exact),
        "n_survivors": int(sum(counts.values())),
        "n_buckets": n_buckets,
        "bucket_rows": {str(k): int(v) for k, v in sorted(counts.items())},
        "written": sorted(written), "skipped": sorted(skipped),
    }
    tmp = os.path.join(out_dir, f"manifest.tmp-{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "manifest.json"))
    return manifest


def read_curated(out_dir: str) -> rd.Dataset:
    """Streaming reader over the curated output (all buckets)."""
    files = []
    for d in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, d, "part.parquet")
        if d.startswith("bucket=") and os.path.exists(p):
            files.append(p)
    return read(files)
