"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.

- ``entry()``    — flagship pipeline on /root/testdata/sf0.001: text
                   quality + token stats + exact dedup annotation over
                   the documents table (returns a ray.data.Dataset).
- ``queries()``  — one entry per implemented operator/pipeline from
                   SURVEY.md §2 + the training-data operators
                   (realestate_scraper_ray/pipelines/relational.py).
- ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible
                   query, with matching column names.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from realestate_scraper_ray.pipelines.relational import ORACLE, QUERIES


def entry() -> Any:
    """Flagship documents pipeline at sf0.001: vectorized text stats →
    quality gate → content-hash dedup annotation (streamed, pyarrow)."""
    import os

    import numpy as np
    import pyarrow as pa

    from realestate_scraper_ray.functions.textstats import (
        quality_stats, rolling_hash64, token_counts,
    )
    from realestate_scraper_ray.stages.exchange import read

    sf_dir = "/root/testdata/sf0.001"
    ds = read(os.path.join(sf_dir, "documents.parquet"),
              ["doc_id", "text", "lang", "source", "n_chars"])

    def enrich(t: pa.Table) -> pa.Table:
        txt = t["text"].combine_chunks()
        tc = token_counts(txt)
        q = quality_stats(txt)
        return (t.append_column("n_tokens_ws", tc["n_tokens_ws"])
                 .append_column("n_punct", q["n_punct"])
                 .append_column("n_words", q["n_words"])
                 .append_column("content_hash", pa.array(
                     np.asarray(rolling_hash64(txt)).view(np.int64))))

    return ds.map_batches(enrich, batch_format="pyarrow")


def queries() -> dict[str, Callable[[str], Any]]:
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    return dict(ORACLE)
