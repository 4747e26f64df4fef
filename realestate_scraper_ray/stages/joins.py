"""Adaptive join strategy: broadcast the build side when it is provably
small, hash-shuffle otherwise.

The same runtime decision Spark's adaptive query execution makes with
``spark.sql.autoBroadcastJoinThreshold``: the build side is materialized
(it must be, for either strategy — broadcast ships it whole, shuffle
needs its size to pick partitions) and its measured ``size_bytes``
routes the join:

- ``<= threshold_bytes`` (default 64 MiB): driver pulls the build side
  once (bounded by the threshold — never fact-table-scale), ``ray.put``s
  it, and the probe side streams through a vectorized ``map_batches``
  (``pc.is_in`` / ``pc.index_in``). Zero shuffle of the probe side.
- ``> threshold_bytes``: one two-sided ``exchange`` on the key — both
  sides shuffle, and each block runs the same ``index_in`` probe
  against its own build rows. Nothing is ever driver-materialized.
  Not ``Dataset.join``: in Ray 2.49 two chained joins of 8 partitions
  never finished on a 4-CPU Ray cluster (each join's aggregator actors
  reserve CPUs sized to half the cluster), and a join over another
  join's output failed because empty hash partitions come back as
  blocks without columns. The exchange hands a fold only non-empty
  buckets, padded to one schema.

At 100 TB a fact-scale build side always exceeds the cap and takes the
shuffle path; the cap is what makes the broadcast path scale-safe (the
driver's exposure is O(threshold), not O(data)).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .exchange import exchange

BROADCAST_THRESHOLD_BYTES = 64 << 20


def _materialized_size(ds: rd.Dataset) -> tuple[rd.Dataset, int]:
    m = ds.materialize()
    return m, m.size_bytes() or 0


def _pull_table(ds: rd.Dataset) -> pa.Table:
    """Driver-side Arrow table of a build side already known to be
    under the broadcast cap."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows > 0]
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="default")


def _probe(t: pa.Table, side: pa.Table, key: str, side_key: str,
           payload_cols: list[str]) -> pa.Table:
    """Rows of ``t`` whose ``key`` is in ``side[side_key]``, with
    ``payload_cols`` of the first matching side row appended."""
    idx = pc.index_in(t[key], value_set=side[side_key])
    keep = pc.is_valid(idx)
    out, hit = t.filter(keep), idx.filter(keep)
    for c in payload_cols:
        out = out.append_column(c, side[c].take(hit))
    return out


def _hash_join(fact: rd.Dataset, dim: rd.Dataset, fact_key: str,
               dim_key: str, payload_cols: list[str],
               num_partitions: int) -> rd.Dataset:
    """The above-cap join: fact and dim rows, null-padded to one schema
    and told apart by ``_dim``, share one ``exchange`` on the key, and
    each block's fact rows ``_probe`` its dim rows. ``fact`` is
    materialized first: its schema pads the dim rows."""
    fact = fact.materialize()
    fs = fact.schema()
    if fs is None:
        return fact  # no rows, no columns
    fs = fs.base_schema
    ps = pa.schema([dim.schema().base_schema.field(c) for c in payload_cols])
    ktype = fs.field(fact_key).type

    def pad(t: pa.Table, is_dim: bool, key: pa.ChunkedArray) -> pa.Table:
        n = t.num_rows
        cols = {f.name: (pa.nulls(n, f.type) if is_dim else t[f.name])
                for f in fs}
        cols.update({f.name: (t[f.name] if is_dim else pa.nulls(n, f.type))
                     for f in ps})
        cols.update(_key=key.cast(ktype), _dim=pa.array(np.full(n, is_dim)))
        return pa.table(cols)

    def fold(t: pa.Table) -> pa.Table:
        is_dim = t["_dim"]
        return _probe(t.filter(pc.invert(is_dim)).select(fs.names),
                      t.filter(is_dim), fact_key, "_key", payload_cols)

    return exchange(
        [fact.map_batches(lambda t: pad(t, False, t[fact_key]),
                          batch_format="pyarrow"),
         dim.map_batches(lambda t: pad(t, True, t[dim_key]),
                         batch_format="pyarrow")],
        "_key", fold, num_partitions)


def semi_join(fact: rd.Dataset, keys: rd.Dataset, fact_key: str,
              key_col: str, *, num_partitions: int = 8,
              threshold_bytes: int = BROADCAST_THRESHOLD_BYTES) -> rd.Dataset:
    """fact rows whose ``fact_key`` appears in ``keys[key_col]``
    (semi-join: output schema = fact schema, no duplication)."""
    from ray.data.aggregate import Count
    # per-batch distinct only (no shuffle): the broadcast path finishes
    # the cross-block dedup driver-side with one pc.unique over the
    # pulled (cap-bounded) table; only the above-cap path pays a
    # distinct exchange, and its input is already block-deduped
    keys_d = keys.map_batches(
        lambda t: t.select([key_col]).group_by(key_col).aggregate([]),
        batch_format="pyarrow")
    k, size = _materialized_size(keys_d)
    if size > threshold_bytes:
        # the block-deduped size OVERCOUNTS when the same keys recur in
        # every block — run the global distinct (this path was paying
        # it anyway for join semantics) and re-measure the TRUE
        # distinct set before giving up on the broadcast probe: only a
        # genuinely cap-exceeding key set should shuffle the fact side
        k, size = _materialized_size(
            k.groupby(key_col).aggregate(Count(alias_name="_n"))
            .select_columns([key_col]))
    if size <= threshold_bytes:
        tbl = _pull_table(k)
        if tbl is None:
            return fact.filter(lambda row: False)
        vals = ray.put(pc.unique(tbl[key_col].combine_chunks()))

        def probe(t: pa.Table) -> pa.Table:
            return t.filter(pc.is_in(t[fact_key], value_set=ray.get(vals)))

        # batch_size=None: one vectorized probe per BLOCK (no 1024-row
        # slicing), which also preserves the input's block boundaries
        return fact.map_batches(probe, batch_format="pyarrow",
                                batch_size=None)
    return _hash_join(fact, k, fact_key, key_col, [], num_partitions)


def lookup_join(fact: rd.Dataset, dim: rd.Dataset, fact_key: str,
                dim_key: str, payload_cols: list[str], *,
                num_partitions: int = 8,
                threshold_bytes: int = BROADCAST_THRESHOLD_BYTES) -> rd.Dataset:
    """Inner join that appends ``payload_cols`` from ``dim`` to matching
    fact rows. ``dim[dim_key]`` must be unique (dimension semantics)."""
    d, size = _materialized_size(dim)
    if size <= threshold_bytes:
        tbl = _pull_table(d)
        if tbl is None:
            return fact.filter(lambda row: False)
        ref = ray.put(tbl.select([dim_key] + payload_cols).combine_chunks())
        return fact.map_batches(
            lambda t: _probe(t, ray.get(ref), fact_key, dim_key, payload_cols),
            batch_format="pyarrow", batch_size=None)
    return _hash_join(fact, d, fact_key, dim_key, payload_cols, num_partitions)


def adaptive_partitions(n_rows: int, rows_per_partition: int = 100_000,
                        lo: int = 2, hi: int = 64) -> int:
    """Size a shuffle-join's partition count to its measured input:
    each hash partition of Ray's join runs as an aggregator actor, so
    partitions are pure overhead below ~10^5 rows each (measured: a
    15k-row full-outer join runs 3.3x faster at 2 partitions than 8)
    while big joins need enough partitions for per-actor memory. The
    same measure-then-decide step the broadcast cap uses, applied to
    the shuffle path's parallelism."""
    return max(lo, min(hi, -(-n_rows // rows_per_partition)))
