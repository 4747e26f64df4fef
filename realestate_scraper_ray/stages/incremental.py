"""Incremental (delta) aggregate maintenance with exactly-once
ingestion — the streaming-ingest complement to the batch catalog.

At 100 TB the corpus grows by daily crawl increments; recomputing a
grouped aggregate over the whole history per increment is O(history).
This stage keeps the aggregate as *mergeable partial state* on disk,
hash-partitioned by group key, and folds each new delta in by touching
ONLY the buckets the delta's groups hash into:

- state layout: ``{state_dir}/bucket=NN/part.parquet`` holding
  (key_cols…, n, s) partial rows, plus ``manifest.json`` listing the
  delta ids already applied (exactly-once: re-applying a delta id is a
  no-op, so a crashed-and-retried ingest never double-counts).
- update path: per-batch combiners reduce the delta to partial rows
  (one row per (block, group)), one ``exchange`` on the int key
  co-locates each bucket's partials with a task that reads the bucket's
  existing parquet, merges (sum), and commits atomically (tmp +
  rename). Deltas never see unrelated buckets; state reads never see
  half-written files.
- read path: the state IS the aggregate — a streaming parquet read of
  the bucket files (partials are already fully merged per key).

The bucket count bounds per-task memory: a bucket holds
|groups| / n_buckets partial rows regardless of history length.
Crash safety: bucket files commit before the manifest records the
delta id, so a crash between the two re-applies the delta into
already-updated buckets — therefore the merge also stores, per bucket,
the set of delta ids it has folded (column-level idempotence), making
the retry a true no-op per bucket.
"""

from __future__ import annotations

import json
import os
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from .exchange import bucket_of, exchange, read


class IncrementalGroupSum:
    """Maintains SELECT key1, key2, COUNT(*), SUM(value) GROUP BY on
    disk, incrementally.  ``key_int`` (int64) drives bucketing; any
    additional string key columns ride along."""

    def __init__(self, state_dir: str, key_cols: list[str],
                 int_key: str, n_buckets: int = 16):
        self.state_dir = state_dir
        self.key_cols = key_cols
        self.int_key = int_key
        self.n_buckets = n_buckets
        os.makedirs(state_dir, exist_ok=True)

    # -- manifest -----------------------------------------------------
    def _manifest_path(self) -> str:
        return os.path.join(self.state_dir, "manifest.json")

    def applied_deltas(self) -> list[str]:
        try:
            with open(self._manifest_path()) as f:
                return json.load(f)["applied"]
        except FileNotFoundError:
            return []

    def _record_delta(self, delta_id: str) -> None:
        applied = self.applied_deltas() + [delta_id]
        tmp = self._manifest_path() + f".tmp-{uuid.uuid4().hex}"
        with open(tmp, "w") as f:
            json.dump({"applied": applied}, f)
        os.replace(tmp, self._manifest_path())

    # -- update -------------------------------------------------------
    def update(self, delta: rd.Dataset, delta_id: str,
               partials_fn) -> bool:
        """Fold ``delta`` into the state.  ``partials_fn(batch) ->
        pa.Table`` must emit one (key_cols…, n, s) partial row per
        (batch, group).  Returns False if ``delta_id`` was already
        applied (exactly-once no-op)."""
        if delta_id in self.applied_deltas():
            return False
        state_dir, key_cols, int_key = \
            self.state_dir, self.key_cols, self.int_key
        nb = self.n_buckets

        def merge_bucket(t: pa.Table):
            import pandas as pd
            g = t.to_pandas()
            bucket = int(bucket_of(t[int_key][:1], nb)[0])
            bdir = os.path.join(state_dir, f"bucket={bucket:02d}")
            os.makedirs(bdir, exist_ok=True)
            path = os.path.join(bdir, "part.parquet")
            folded: list[str] = []
            frames = [g]
            if os.path.exists(path):
                prev = pq.read_table(path)
                meta = prev.schema.metadata or {}
                folded = json.loads(meta.get(b"applied_deltas", b"[]"))
                if delta_id in folded:
                    # crash landed between this bucket's commit and the
                    # state-level manifest write: the retry is a no-op
                    return pd.DataFrame({"bucket": [bucket], "rows": [0]})
                frames.append(prev.to_pandas())
            merged = (pd.concat(frames, ignore_index=True)
                      .groupby(key_cols, as_index=False)[["n", "s"]].sum())
            out = pa.Table.from_pandas(merged, preserve_index=False)
            # the applied-delta list travels INSIDE the data file's
            # metadata — one rename commits data + idempotence marker
            # atomically (two separate files would leave a double-count
            # window between their renames)
            out = out.replace_schema_metadata(
                {b"applied_deltas": json.dumps(folded + [delta_id]).encode()})
            tmp = path + f".tmp-{uuid.uuid4().hex}"
            pq.write_table(out, tmp)
            os.replace(tmp, path)
            return pd.DataFrame({"bucket": [bucket], "rows": [len(merged)]})

        exchange(delta.map_batches(partials_fn, batch_format="pyarrow"),
                 int_key, merge_bucket, nb) \
            .materialize()  # drive the side-effecting writes
        self._record_delta(delta_id)
        return True

    # -- read ---------------------------------------------------------
    def read(self) -> rd.Dataset:
        """The maintained aggregate as a streaming Dataset (the state
        is already fully merged per key).  An empty state (no update
        ever ran) reads as an empty Dataset, not an error."""
        paths = sorted(
            os.path.join(self.state_dir, d, "part.parquet")
            for d in os.listdir(self.state_dir)
            if d.startswith("bucket="))
        if not paths:
            return rd.from_items([])
        return read(paths)


class IncrementalDedup:
    """Cross-delta exact dedup at ingest: documents seen in ANY prior
    delta are dropped; the fingerprint state lives on disk as
    hash-bucketed parquet, so a delta only reads/writes the buckets its
    own fingerprints hash to (O(delta), not O(corpus)).  The same
    atomic-rename + in-file applied-delta metadata as
    ``IncrementalGroupSum`` gives exactly-once semantics under retry.

    Within a delta, duplicates keep the smallest id (deterministic
    under any block split).  This is the daily-crawl-snapshot dedup of
    the C4/RefinedWeb recipes, maintained incrementally instead of
    recomputed over the full history per snapshot.
    """

    def __init__(self, state_dir: str, n_buckets: int = 16):
        self.state_dir = state_dir
        self.n_buckets = n_buckets
        os.makedirs(state_dir, exist_ok=True)

    def _bucket_path(self, b: int) -> str:
        return os.path.join(self.state_dir, f"bucket={b:02d}",
                            "part.parquet")

    def ingest(self, delta: rd.Dataset, delta_id: str, text_col: str,
               id_col: str) -> rd.Dataset:
        """Returns the delta's SURVIVORS (rows new to the corpus, one
        per distinct text, min ``id_col`` wins) and folds their
        fingerprints into the state.  A re-ingest of the same
        ``delta_id`` returns the same survivors without mutating state
        (the per-bucket metadata records applied delta ids).

        Scale shape: the text never leaves its scan task — only
        (hash, id) int pairs ride the bucket exchange; each bucket task
        merges against its own parquet file.  Survivor *rows* are
        recovered by an adaptive semi-join of the delta against the
        winning ids."""
        from ..functions.textstats import rolling_hash64
        from ..stages.joins import semi_join

        state_dir, nb = self.state_dir, self.n_buckets
        bucket_path = self._bucket_path

        def keys(t: pa.Table) -> pa.Table:
            h = np.asarray(rolling_hash64(
                t[text_col].combine_chunks())).view(np.int64)
            # per-batch keep-first pre-combiner
            return (pa.table({"h": h, "id": t[id_col]})
                    .group_by("h").aggregate([("id", "min")])
                    .rename_columns(["h", "id"]))

        def merge_bucket(t: pa.Table):
            import pandas as pd
            g = t.to_pandas()
            bucket = int(bucket_of(t["h"][:1], nb)[0])
            path = bucket_path(bucket)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            cand = (g.groupby("h", as_index=False)["id"].min())
            folded: list[str] = []
            seen = None
            if os.path.exists(path):
                prev = pq.read_table(path)
                folded = json.loads((prev.schema.metadata or {})
                                    .get(b"applied_deltas", b"[]"))
                seen = prev.to_pandas()
            if seen is not None:
                new = cand[~cand["h"].isin(seen["h"])]
            else:
                new = cand
            if delta_id not in folded:
                merged = (new if seen is None
                          else pd.concat([seen, new], ignore_index=True))
                out = pa.Table.from_pandas(merged, preserve_index=False)
                out = out.replace_schema_metadata(
                    {b"applied_deltas":
                     json.dumps(folded + [delta_id]).encode()})
                tmp = path + f".tmp-{uuid.uuid4().hex}"
                pq.write_table(out, tmp)
                os.replace(tmp, path)
            else:
                # retry of an applied delta: the state already contains
                # this delta's fingerprints — its survivors are exactly
                # the state entries matching (h, id)
                new = seen.merge(cand, on=["h", "id"])
            return new[["id"]]

        winners = exchange(delta.map_batches(keys, batch_format="pyarrow"),
                           "h", merge_bucket, nb).materialize()
        return semi_join(delta, winners, id_col, "id")
