"""Interleaved-document assembly: rows → ``(doc_id, spans)`` documents.

The engine's target substrate (BASELINE.json ``input_hint``, SURVEY.md
§1.4) is a table of interleaved text+media documents:

    doc_id: string/int64
    spans:  list<struct<kind: string, text: string,
                        media_ref: string, offset: int32>>

This stage builds that nested column from flat per-span rows (one row
per text fragment / media reference, e.g. the crawl's offers+photos
tables, or any event stream): one ``exchange`` on ``doc_col`` (a
document never splits across buckets), whose fold sorts the whole
bucket by (doc, order) once and list-aggregates every document of the
bucket in a single vectorized boundary scan. The spans list lives inside a
single row, so later shuffles can never reorder it (SURVEY.md §7.5
"span ordering through shuffles") — assembly is the only place order
must be enforced, and it is, by the explicit sort key.

Scale shape: one all-to-all shuffle on the document key (the same key
every downstream per-document stage reuses), group work is O(spans per
doc), no driver materialization. ``span_fingerprints`` flattens the
nested column back to an order-sensitive md5 per document — the
verification twin used by the SQL-oracled queries and by the resume
tests (a fingerprint mismatch catches both lost spans and reordering).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .exchange import exchange

SPAN_TYPE = pa.struct([
    ("kind", pa.string()),
    ("text", pa.string()),
    ("media_ref", pa.string()),
    ("offset", pa.int32()),
])


_ASSEMBLE_BUCKETS = 64


def assemble_spans(ds: rd.Dataset, doc_col: str, kind_col: str,
                   text_col: str, media_col: str | None,
                   order_cols: list[str],
                   n_buckets: int = _ASSEMBLE_BUCKETS) -> rd.Dataset:
    """Aggregate flat span rows into ``(doc_id, spans)`` documents.

    ``order_cols`` must be a total order within a document (ties would
    make the span sequence nondeterministic); ``offset`` is assigned as
    the 0-based rank in that order, mirroring the reference's photo
    ``seq`` / span-position semantics (validate.py:53-64).

    Shuffles once on a coarse hash bucket of the doc key (a key never
    splits across buckets) and builds EVERY document of the bucket in
    one vectorized pass — one sort + one boundary scan + one
    ``ListArray.from_arrays`` — instead of one pyarrow dispatch per
    document (the tiny-group pathology: at ~10² spans/doc the per-group
    call overhead dominates).  Per-bucket span rows are int32-offset
    bounded (2³¹); raise ``n_buckets`` long before that matters.
    """
    def build(g: pa.Table) -> pa.Table:
        g = g.combine_chunks().sort_by(
            [(doc_col, "ascending")]
            + [(c, "ascending") for c in order_cols])
        n = g.num_rows
        d = g[doc_col].combine_chunks()
        dn = d.to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, dn[1:] != dn[:-1]])
        lens = np.diff(np.r_[starts, n])
        offs = (np.arange(n, dtype=np.int64)
                - np.repeat(starts, lens)).astype(np.int32)
        media = (g[media_col].cast(pa.string()).combine_chunks()
                 if media_col is not None
                 else pa.array([""] * n, pa.string()))
        struct = pa.StructArray.from_arrays(
            [g[kind_col].cast(pa.string()).combine_chunks(),
             g[text_col].cast(pa.string()).combine_chunks(),
             media,
             pa.array(offs, pa.int32())],
            fields=list(SPAN_TYPE))
        spans = pa.ListArray.from_arrays(
            pa.array(np.r_[starts, n].astype(np.int32)), struct)
        return pa.table({doc_col: d.take(pa.array(starts)),
                         "spans": spans})

    return exchange(ds, doc_col, build, n_buckets)


def span_fingerprints(docs: rd.Dataset, doc_col: str) -> rd.Dataset:
    """Per-document order-sensitive fingerprint of the nested spans
    column: ``md5('kind|text|media_ref|offset' joined by ';')`` — the
    same canonical serialization a SQL oracle can build with
    ``string_agg(.. ORDER BY ..)``, so nested assembly is machine-
    checkable through the driver's flat value-hash compare."""

    def fp(t: pa.Table) -> pa.Table:
        out_fp, out_n = [], []
        spans = t["spans"].combine_chunks()
        for i in range(t.num_rows):
            items = spans[i].as_py() or []
            s = ";".join(f"{x['kind']}|{x['text']}|{x['media_ref']}|{x['offset']}"
                         for x in items)
            out_fp.append(hashlib.md5(s.encode()).hexdigest())
            out_n.append(len(items))
        return pa.table({doc_col: t[doc_col],
                         "n_spans": pa.array(out_n, pa.int64()),
                         "spans_fp": pa.array(out_fp, pa.string())})

    return docs.map_batches(fp, batch_format="pyarrow")
