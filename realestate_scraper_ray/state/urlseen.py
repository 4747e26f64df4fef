"""Sharded URL-seen service: cuckoo-filter partition actors.

The crawl-frontier dedup path (north_rule): canonicalize URL →
FNV-1a → 64-bit key → shard ``(key >> 48) % n_shards`` (high bits;
the cuckoo bucket index consumes the low bits) → per-shard
``contains_and_add`` (test-and-set, batch-atomic inside the actor).
Replaces the reference's process-local ``DedupeSet``
(/root/reference/scrapper/core/dedup.py:16-37) with partition affinity:
the same URL always lands on the same shard, so first-seen-wins holds
under full parallelism. Each shard checkpoints its filter bytes for
resume (FIXTURES.md F6 ``filter_bytes``).

Keys come from ``functions.textstats.fnv1a64`` — pure numpy uint64
arithmetic, VERSION-STABLE across library upgrades (never use a
library hash kernel for a persisted filter; its implementation may
change between versions and silently re-admit the whole seen set).
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import ray

from .cuckoo import CuckooFilter


def url_keys(urls: list[str] | pa.Array | pa.ChunkedArray) -> np.ndarray:
    """url → uint64 keys, one vectorized FNV-1a pass (pure numpy
    uint64 arithmetic). VERSION-STABLE by construction: cuckoo shard
    bytes persist in crawl checkpoints, and a --resume after a library
    upgrade must hash every previously-seen URL to the same key — a
    polars/xxh3 kernel cannot promise that across versions (its own
    docs reserve the right to change the hash), and a silent change
    would re-admit the entire seen set. ~0.75 µs/URL, noise next to
    the ~3 CPU-ms/page fetch+parse cost."""
    from ..functions.textstats import fnv1a64
    arr = urls if isinstance(urls, (pa.Array, pa.ChunkedArray)) \
        else pa.array(urls, pa.string())
    return fnv1a64(arr)


@ray.remote(num_cpus=0.25)
class UrlSeenShard:
    """One cuckoo-filter partition. num_cpus=0.25: shards are mostly
    idle between RPCs; four shards share one core without starving the
    fetch pool.

    Incremental checkpointing (SURVEY.md §7.5): the shard journals the
    keys newly admitted since the last dump; ``dump_delta`` serializes
    only those (8 bytes/key), while a periodic ``dump`` writes the full
    filter. At 10^10 keys a full dump is ~20 GB across shards — deltas
    keep steady-state checkpoint I/O proportional to crawl progress."""

    def __init__(self, capacity: int):
        self.filter = CuckooFilter(capacity)
        self._delta: list[np.ndarray] = []

    def contains_and_add(self, keys: np.ndarray) -> np.ndarray:
        seen = self.filter.contains_and_add(keys)
        new = keys[~seen]
        if new.size:
            self._delta.append(new.copy())
        return seen

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self.filter.contains(keys)

    def count(self) -> int:
        return self.filter.count

    def dump(self) -> bytes:
        self._delta = []
        return self.filter.dump()

    def dump_delta(self) -> bytes:
        blob = (np.concatenate(self._delta) if self._delta
                else np.empty(0, dtype=np.uint64)).tobytes()
        self._delta = []
        return blob

    def apply_delta(self, blob: bytes) -> None:
        keys = np.frombuffer(blob, dtype=np.uint64)
        if keys.size:
            self.filter.contains_and_add(keys)
        self._delta = []

    def restore(self, blob: bytes) -> None:
        self.filter = CuckooFilter.restore(blob)
        self._delta = []


class UrlSeenService:
    """Driver/stage-side client over the shard actors."""

    def __init__(self, n_shards: int, capacity_per_shard: int):
        self.n = n_shards
        self.shards = [
            UrlSeenShard.remote(capacity_per_shard) for _ in range(n_shards)
        ]

    def filter_new(self, urls: list[str] | pa.Array) -> np.ndarray:
        """Batched test-and-set across shards; returns the 'is new' mask
        in input order."""
        keys = url_keys(urls)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        # route on HIGH bits: the cuckoo filter's primary bucket index
        # consumes the low bits (h & (nbuckets-1)), so `keys % n` with a
        # power-of-two shard count would pin every key of a shard to
        # 1/n of its filter's buckets — measured: fill failure at 77 %
        # of configured capacity. High-bit routing keeps the low bits
        # uniform within each shard.
        shard_of = ((keys >> np.uint64(48)) % np.uint64(self.n)).astype(np.int64)
        seen = np.zeros(keys.size, dtype=bool)
        futs, idxs = [], []
        for s in range(self.n):
            idx = np.nonzero(shard_of == s)[0]
            if idx.size:
                futs.append(self.shards[s].contains_and_add.remote(keys[idx]))
                idxs.append(idx)
        for idx, res in zip(idxs, ray.get(futs)):
            seen[idx] = res
        return ~seen

    def counts(self) -> list[int]:
        return ray.get([s.count.remote() for s in self.shards])

    def dump(self) -> list[bytes]:
        return ray.get([s.dump.remote() for s in self.shards])

    def dump_deltas(self) -> list[bytes]:
        return ray.get([s.dump_delta.remote() for s in self.shards])

    def apply_deltas(self, blobs: list[bytes]) -> None:
        assert len(blobs) == self.n
        ray.get([s.apply_delta.remote(b) for s, b in zip(self.shards, blobs)])

    def restore(self, blobs: list[bytes]) -> None:
        assert len(blobs) == self.n
        ray.get([s.restore.remote(b) for s, b in zip(self.shards, blobs)])
