"""The one grouped aggregate: per-batch partial → Ray groupby → frame.

Every distributed GROUP BY in the query catalog has the same physical
plan — ``ReadParquet → MapBatches(partial) → Aggregate`` — where the
partial is one pyarrow ``Table.group_by(keys).aggregate`` per batch, so
the shuffle moves one row per (batch, group), not one per input row.
``grouped`` is that plan; ``scaled`` is its money rule: a summed
money/value column is aggregated as integer-scaled int64 and divided
back once at the end, so Ray's combine order and DuckDB's sequential
sum give bit-identical doubles.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from ray.data.aggregate import Max, Min, Sum

_RAY_FOLD = {"sum": Sum, "count": Sum, "min": Min, "max": Max}


def scaled(values, scale) -> pa.Array:
    """``ROUND(values * scale)`` as int64, ties away from zero like
    DuckDB's ``ROUND`` (pyarrow's ``half_towards_infinity``)."""
    return pc.cast(pc.round(pc.multiply(values, float(scale)),
                            round_mode="half_towards_infinity"), pa.int64())


def grouped(ds, keys, aggs) -> pd.DataFrame:
    """``SELECT keys, aggs FROM ds GROUP BY keys`` as a pandas frame.

    ``keys`` is a list of column names or ``{name: column | fn(table)}``
    (a derived key such as an hour bucket); no keys is a global
    aggregate. ``aggs`` is ``{out: (column | fn(table) | None, op[,
    scale])}`` with ``op`` one of sum, count, min, max; a ``None``
    source counts rows, and a ``scale`` aggregates ``scaled(values,
    scale)`` ints and divides back at the end. Counts come back int64
    and scaled results float64 — also on zero-row input, which gives a
    zero-row frame with every column."""
    if not isinstance(keys, dict):
        keys = {k: k for k in keys}

    def col(t: pa.Table, src):
        return t[src] if isinstance(src, str) else src(t)

    def partial(t: pa.Table) -> pa.Table:
        cols = {k: col(t, src) for k, src in keys.items()}
        specs = []
        for out, (src, op, *scale) in aggs.items():
            if src is None:  # COUNT(*): every row, nulls included
                cols[out] = pa.nulls(t.num_rows, pa.int8())
                specs.append((out, "count", pc.CountOptions(mode="all")))
                continue
            v = col(t, src)
            cols[out] = scaled(v, scale[0]) if scale else v
            specs.append((out, op))
        return pa.table(cols).group_by(list(keys)).aggregate(specs)

    res = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(list(keys) or None)
           .aggregate(*[_RAY_FOLD[op](f"{out}_{op}", alias_name=out)
                        for out, (_, op, *_s) in aggs.items()])
           .to_pandas())
    if len(res) == 0:  # Ray drops the schema: run the partial on nothing
        schema = ds.schema()  # None too after a map over zero rows
        res = (partial(schema.base_schema.empty_table()).to_pandas()
               .rename(columns={f"{out}_{op}": out
                                for out, (_, op, *_s) in aggs.items()})
               if schema is not None else pd.DataFrame(columns=[*keys, *aggs]))
    for out, (_, op, *scale) in aggs.items():
        if op == "count":
            res[out] = res[out].astype("int64")
        elif scale:
            res[out] = res[out] / float(scale[0])
    return res[[*keys, *aggs]].reset_index(drop=True)
