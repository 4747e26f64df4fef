"""Driver-materialization bound (round-5 verdict ask #7).

The query layer materializes many small results on the driver
(``Dataset.to_pandas``); each site is justified by a domain-bounded
result (group keys, histogram bins, calendar cells — never data-sized
tables). That justification used to be convention only: a future query
could silently ``to_pandas()`` a fact-scale table and nothing would
stop it until a production OOM.

This module turns the convention into an enforced gate at the single
chokepoint every site already flows through: ``install()`` wraps
``ray.data.Dataset.to_pandas`` to materialize exactly once, check the
(metadata) row count against ``DRIVER_BOUND_ROWS``, and only then
convert — raising ``ValueError`` before any oversized driver
conversion. Materialize-first matters: Ray's own ``limit=`` path
calls ``count()`` on the un-materialized plan, which re-executes the
whole pipeline — including side-effecting stages (a bucket-writing
curate stage ran twice under that path). Sites that legitimately need
more rows must say so: ``to_driver(ds, bound=...)`` passes an
explicit, reviewed bound.

The gate covers every present AND future ``to_pandas`` in the engine —
stronger than routing each call site by hand, and zero churn across the
~117 existing sites. Importing this module installs it; the
``pipelines``, ``stages`` and ``functions`` packages import it, so the
gate is in place wherever an engine ``to_pandas`` can run. The package
root and ``state/`` do not: service actors boot without ``ray.data``.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

# Generous default: the largest legitimate driver result in the query
# registry is order-key-scale (~150k rows at sf0.1). 4M rows leaves an
# order of magnitude of headroom while still catching fact-table-scale
# mistakes (lineitem at sf0.1 is already 600k rows and grows with sf;
# any data-sized materialization blows through this at real scale).
DRIVER_BOUND_ROWS = 4_194_304

_SENTINEL = "__rsr_driver_bound_installed__"


def install() -> None:
    """Idempotently wrap ``Dataset.to_pandas`` with the default bound."""
    if getattr(rd.Dataset.to_pandas, _SENTINEL, False):
        return
    orig = rd.Dataset.to_pandas

    def bounded_to_pandas(self, limit: int = None):
        # materialize FIRST, then bound-check: Ray's own limit= path
        # calls self.count() before converting, which re-executes a
        # non-materialized pipeline — catastrophic for side-effecting
        # stages (a curate bucket-writer ran twice and reported every
        # bucket as resume-skipped). On a materialized dataset count()
        # is block metadata and the conversion reuses the same blocks,
        # so the pipeline executes exactly once.
        m = self.materialize()
        bound = DRIVER_BOUND_ROWS if limit is None else limit
        n = m.count()
        if n > bound:
            raise ValueError(
                f"driver materialization of {n} rows exceeds the "
                f"limit of {bound} (realestate_scraper_ray.driverbound:"
                " results must be domain-bounded, never data-sized;"
                " pass an explicit reviewed bound via"
                " to_driver(ds, bound=...) if this is legitimate)")
        base = getattr(m.schema(), "base_schema", None) if n == 0 else None
        if isinstance(base, pa.Schema):
            # Ray's iter_batches skips empty blocks, so its conversion
            # drops every column of a typed zero-row Dataset
            return base.empty_table().to_pandas()
        return orig(m, limit=None)

    setattr(bounded_to_pandas, _SENTINEL, True)
    bounded_to_pandas.__wrapped__ = orig
    bounded_to_pandas.__doc__ = (
        "Driver-bounded to_pandas (realestate_scraper_ray.driverbound):"
        f" raises when the result exceeds {DRIVER_BOUND_ROWS} rows and"
        " no explicit limit was passed.\n\n" + (orig.__doc__ or ""))
    rd.Dataset.to_pandas = bounded_to_pandas


def to_driver(ds: rd.Dataset, bound: int = DRIVER_BOUND_ROWS):
    """Explicit-bound driver materialization for sites whose result is
    legitimately larger than the default: the bound is stated (and
    reviewed) at the call site instead of silently disabled."""
    return ds.to_pandas(limit=bound)


install()
