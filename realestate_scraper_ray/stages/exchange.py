"""The one hash exchange: route rows by a version-stable key hash.

Every keyed shuffle in the engine has the same shape — tag each row
with a coarse bucket of its key, ``groupby(bucket).map_groups(fold)``,
and let ``fold`` process ALL rows of the bucket's keys in one
vectorized pass. A per-key ``map_groups`` pays Python dispatch once
per key (the tiny-group pathology); per-bucket dispatch amortizes it
over ~|keys|/nb keys while the shuffle moves the same bytes. A key
never splits across buckets.

Bucket ids are pure uint64 numpy arithmetic (``splitmix64``, and
``fnv1a64`` for strings), so they do not move with a library upgrade —
the property on-disk bucket layouts (``stages/incremental.py``,
``pipelines/curate.py``) rely on.

Map-side combiners are not a parameter: run the partial with
``map_batches`` before ``exchange`` and Ray fuses the two steps.

``read`` lives here too: a read's block count is the mapper and
reducer count of every sort exchange after it.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data import DataContext

from ..functions.sketches import splitmix64
from ..functions.textstats import fnv1a64


def bucket_of(values, nb: int) -> np.ndarray:
    """int64 bucket id in ``[0, nb)`` per key: ``splitmix64(x) % nb``
    for integer keys (numpy, list or Arrow), ``splitmix64(fnv1a64(s)) %
    nb`` for Arrow string keys. Null integer keys share key 0's
    bucket."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if isinstance(values, pa.Array):
        values = (pc.fill_null(values, 0).to_numpy(zero_copy_only=False)
                  if pa.types.is_integer(values.type) else fnv1a64(values))
    return (splitmix64(np.asarray(values)) % np.uint64(nb)).astype(np.int64)


def exchange(ds, key: str, fold, nb: int) -> rd.Dataset:
    """One shuffle on ``bucket_of(ds[key], nb)``, then one ``fold``
    call per non-empty bucket. ``fold`` receives a pyarrow Table with
    every row of the bucket's keys (the bucket column already dropped)
    and returns a pyarrow Table or pandas DataFrame; it must be
    key-vectorized, never a Python loop over keys.

    ``ds`` may be a list of Datasets sharing ``key`` (a two-sided
    exchange): each input is tagged before their union, so the tag fuses
    into that input's last map stage instead of costing one more stage
    after the union."""

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column("_bkt", pa.array(bucket_of(t[key], nb)))

    def run(t: pa.Table):
        return fold(t.drop_columns(["_bkt"]))

    first, *rest = [d.map_batches(tag, batch_format="pyarrow")
                    for d in (ds if isinstance(ds, list) else [ds])]
    return ((first.union(*rest) if rest else first)
            .groupby("_bkt").map_groups(run, batch_format="pyarrow"))


def read(paths, columns: list[str] | None = None, filter=None) -> rd.Dataset:
    """Parquet read of one file or a list of files in as few blocks as
    their bytes fill: one per ``DataContext.target_min_block_size``
    (Ray's 1 MiB minimum block) of file bytes, at least one. Ray's
    default split floors at twice the CPU count however small the data,
    and every map and sort exchange after the read then runs that many
    tasks. ``filter`` is a pyarrow expression evaluated at the fragment
    scan: row groups whose statistics exclude it never leave storage,
    and its column need not be in ``columns``."""
    nbytes = sum(map(os.path.getsize,
                     [paths] if isinstance(paths, str) else paths))
    nblk = max(1, nbytes // DataContext.get_current().target_min_block_size)
    return rd.read_parquet(paths, columns=columns, filter=filter,
                           override_num_blocks=nblk)
