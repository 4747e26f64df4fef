"""The one packer: sort within a bucket, then an exclusive prefix sum.

Every sequence-packing and global-rank step in the engine has the same
plan: tag each row with a coarse bucket (a doc-id range, a value range,
an epoch shard), ``groupby(bucket).map_groups`` with a fold that sorts
its bucket and numbers the rows, and start each bucket where the
buckets before it end. That is a hierarchical prefix sum: nothing sorts
or scans globally, and the driver sees one total per bucket, never a
row. ``bucket_offsets`` is the driver step for buckets in key order; a
caller that already knows its bucket sizes (a merged histogram) passes
its own offsets, and ``offsets=None`` starts every bucket at 0 (an
epoch shard packs on its own). ``typed`` is the zero-row guard every
map-ended result needs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .aggregate import grouped


def bucket_offsets(ds: rd.Dataset, bucket: str, weight: str) -> dict:
    """``{bucket: sum of weight over every lower bucket}``: the
    per-bucket totals are tiny, so the exclusive prefix sum runs on
    the driver."""
    tot = grouped(ds, [bucket], {"tot": (weight, "sum")}).sort_values(bucket)
    starts = tot["tot"].cumsum() - tot["tot"]
    return dict(zip(tot[bucket].astype(int), starts.astype(int)))


def packed(t: pa.Table, order: list[str], out: pa.Schema,
           weight: str | None = None, bin: int | None = None,
           base: int = 0) -> pa.Table:
    """One bucket ``t`` sorted by ``order`` and numbered, as ``out``.

    ``base`` is what precedes the bucket: rows when ``weight`` is None,
    else the total ``weight``. The numbering columns are ``pos``
    (1-based; continues from ``base`` when ``weight`` is None) and, with
    a ``weight``, ``tok_offset`` (``base`` plus the exclusive prefix
    sum of ``weight``) and ``pack_bin`` (``tok_offset // bin``). Every
    other ``out`` column is ``t``'s, cast to the ``out`` type."""
    t = t.sort_by([(c, "ascending") for c in order])
    pos = np.arange(1, t.num_rows + 1, dtype=np.int64)
    cols = {"pos": pos + base if weight is None else pos}
    if weight is not None:
        w = t[weight].to_numpy().astype(np.int64)
        cols["tok_offset"] = off = base + np.cumsum(w) - w
        cols["pack_bin"] = off // bin
    return pa.table([pa.array(cols[f.name], f.type) if f.name in cols
                     else t[f.name].cast(f.type) for f in out], schema=out)


def pack(ds: rd.Dataset, bucket: str, order: list[str], out: pa.Schema,
         weight: str | None = None, bin: int | None = None,
         offsets: dict | None = None) -> rd.Dataset:
    """``packed`` over every ``bucket`` group of ``ds``, starting bucket
    ``b`` at ``offsets[b]`` (0 for every bucket when ``offsets`` is
    None). Returns a materialized Dataset of ``out``; zero rows give a
    zero-row Dataset of ``out`` (Ray Data drops the schema of a map
    over nothing)."""

    def fold(t: pa.Table) -> pa.Table:
        base = 0 if offsets is None else offsets[t[bucket][0].as_py()]
        return packed(t, order, out, weight, bin, base)

    return typed(ds.groupby(bucket).map_groups(fold, batch_format="pyarrow"),
                 out)


def typed(ds: rd.Dataset, schema: pa.Schema) -> rd.Dataset:
    """``ds`` materialized, or a zero-row Dataset of ``schema`` when it
    has no rows: Ray Data drops the schema of any map over nothing."""
    ds = ds.materialize()
    return ds if ds.count() else rd.from_arrow(schema.empty_table())
