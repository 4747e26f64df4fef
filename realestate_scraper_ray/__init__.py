"""realestate_scraper_ray — a Ray-Data-native crawl + data-processing engine.

A from-scratch rebuild (NOT a port) of the capabilities of
``M1A5TO/realestate-scraper`` (reference at ``/root/reference``): a
distributed URL frontier + fetch scheduler over Lance/Arrow tables of
interleaved text + media documents, expressed as ``ray.data.Dataset``
pipelines (``map_batches`` over zero-copy Arrow batches, actor pools for
stateful stages), plus the relational / dedup / similarity / text-analysis
operator library a large-scale training-data pipeline needs.

Layout:
  - ``config``     engine + synthetic-portal configuration
  - ``schemas``    Arrow schemas for documents / frontier / offers / spans
  - ``functions``  vectorized scalar kernels (urls, text stats, geo)
  - ``sources``    the deterministic synthetic portal + readers
  - ``stages``     map_batches stages (parse, fetch, dedupe, similarity, media)
  - ``state``      stateful services (cuckoo URL-seen shards, politeness, checkpoints)
  - ``pipelines``  end-to-end pipelines (crawl generation loop, relational queries,
                   the sequential reference-semantics oracle)
"""

__version__ = "0.1.0"

# Nothing else is imported here: a URL-seen or politeness actor process
# unpickles its class from ``state/`` and must not pay for ``ray.data``.
# The driver-materialization gate (driverbound.py) is installed by the
# ``pipelines``, ``stages`` and ``functions`` packages, where every engine
# ``Dataset.to_pandas`` lives.
