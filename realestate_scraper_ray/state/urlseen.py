"""Sharded URL-seen service: cuckoo-filter partition actors.

The crawl-frontier dedup path (north_rule): canonicalize URL →
FNV-1a → 64-bit key → shard ``(key >> 48) % n_shards`` (high bits;
the cuckoo bucket index consumes the low bits) → per-shard
``contains_and_add`` (test-and-set, batch-atomic inside the actor).
Replaces the reference's process-local ``DedupeSet``
(/root/reference/scrapper/core/dedup.py:16-37) with partition affinity:
the same URL always lands on the same shard, so first-seen-wins holds
under full parallelism.

Checkpoints (FIXTURES.md F6 ``filter_bytes``): each shard writes its
own ``shard_<i>.bin`` (full filter or delta keys) into the checkpoint
directory the driver commits, and on resume loads its own full dump and
delta chain when its lease resets it. The driver only names
directories; it never holds filter bytes (about 20 GB at the
10^10-URL design point).

Shards are leased (``state/lease.py``): a service takes idle shard
actors of the Ray session and resets them, and ``close`` clears them
and hands them back, so only a session's first crawl waits for shard
processes to boot.

Import rule for ``state/``: a service actor process imports only this
package's ``state`` modules, the stdlib, ``numpy``, ``pyarrow`` and
``ray`` (never ``ray.data``, pandas or polars) at module level, so an
actor boots in about the time ``import ray`` takes. Heavier helpers are
imported inside the function that needs them (``url_keys``, which runs
on the driver and in fetch tasks, never in a shard).

Keys come from ``functions.textstats.fnv1a64`` — pure numpy uint64
arithmetic, VERSION-STABLE across library upgrades (never use a
library hash kernel for a persisted filter; its implementation may
change between versions and silently re-admit the whole seen set).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray

from .cuckoo import CuckooFilter
from .lease import Lease, check_epoch


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


@ray.remote(num_cpus=0)
class UrlSeenShard:
    """One cuckoo-filter partition. A ``num_cpus=0`` actor leased from the
    session's shard pool (``state/lease.py``); the lease, not the actor,
    reserves 0.25 CPU while a crawl holds it.

    The shard reads and writes its own checkpoint file,
    ``<dir>/shard_<index>.bin``; filter bytes never pass through the
    driver. ``reset`` (which the constructor runs) starts an empty filter
    or restores from ``restore_from`` (a full-dump directory, then delta
    directories in order); the lease hands out a pooled shard only
    once its reset has finished, and Ray runs no method of a new actor
    before its constructor returns, so every test-and-set sees the
    restored set. ``clear``
    drops the filter while the shard waits in the pool.

    Incremental checkpointing (SURVEY.md §7.5): the shard journals the
    keys newly admitted since the last checkpoint; a delta checkpoint
    writes only those (8 bytes/key), a full one the whole filter. At
    10^10 keys a full dump is ~20 GB across shards — deltas keep
    steady-state checkpoint I/O proportional to crawl progress.

    Every method takes the caller's lease ``epoch`` (``check_epoch``)."""

    def __init__(self, capacity: int, index: int,
                 restore_from: list[str] | tuple = (),
                 epoch: int | None = None):
        self.reset(capacity, index, restore_from, epoch)

    def reset(self, capacity: int, index: int,
              restore_from: list[str] | tuple = (),
              epoch: int | None = None) -> None:
        self.epoch = epoch
        self.file = f"shard_{index}.bin"
        self._delta: list[np.ndarray] = []
        self.filter = None  # free the old filter before the new one
        if not restore_from:
            self.filter = CuckooFilter(capacity)
            return
        with open(os.path.join(restore_from[0], self.file), "rb") as f:
            self.filter = CuckooFilter.restore(f.read())
        for d in restore_from[1:]:
            keys = np.fromfile(os.path.join(d, self.file), dtype=np.uint64)
            if keys.size:
                self.filter.contains_and_add(keys)

    def clear(self, epoch: int | None = None) -> int:
        """End the lease: drop the filter; returns its final key count."""
        check_epoch(self.epoch, epoch)
        n = self.filter.count
        self.epoch, self.filter, self._delta = None, None, []
        return n

    def contains_and_add(self, keys: np.ndarray,
                         epoch: int | None = None) -> np.ndarray:
        check_epoch(self.epoch, epoch)
        seen = self.filter.contains_and_add(keys)
        new = keys[~seen]
        if new.size:
            self._delta.append(new.copy())
        return seen

    def count(self, epoch: int | None = None) -> int:
        check_epoch(self.epoch, epoch)
        return self.filter.count

    def checkpoint(self, dirpath: str, full: bool,
                   epoch: int | None = None) -> None:
        """Write this shard's full filter or its delta journal into
        ``dirpath`` (an uncommitted checkpoint directory: the driver
        renames it into place once every shard has written)."""
        check_epoch(self.epoch, epoch)
        if full:
            blob = self.filter.dump()
        else:
            blob = (np.concatenate(self._delta) if self._delta
                    else np.empty(0, dtype=np.uint64)).tobytes()
        with open(os.path.join(dirpath, self.file), "wb") as f:
            f.write(blob)
        self._delta = []


class UrlSeenService:
    """Driver/stage-side client over leased shard actors.

    ``restore_from`` is a checkpoint chain, ``[full_dir, delta_dir, ...]``;
    each shard loads its own files from it in its reset. A chain
    written with another shard count raises ``ValueError`` here, on the
    driver, before any shard is leased."""

    def __init__(self, n_shards: int, capacity_per_shard: int,
                 restore_from: list[str] | None = None):
        self.n = n_shards
        if restore_from:
            found = sum(f.startswith("shard_")
                        for f in os.listdir(restore_from[0]))
            if found != n_shards:
                raise ValueError(
                    f"checkpoint {restore_from[0]} holds {found} URL-seen "
                    f"shards, but this crawl runs {n_shards} "
                    "(urlseen_shards must match the checkpointed crawl's)")
        self._final: list[int] = []
        self._lease = Lease(UrlSeenShard,
                            [(capacity_per_shard, i, restore_from or ())
                             for i in range(n_shards)])
        self.epoch = self._lease.epoch

    @property
    def shards(self) -> list:
        """The leased shard handles, once their resets have finished; []
        after ``close``."""
        return self._lease.shards

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
                futs.append(self.shards[s].contains_and_add.remote(
                    keys[idx], epoch=self.epoch))
                idxs.append(idx)
        for idx, res in zip(idxs, ray.get(futs)):
            seen[idx] = res
        return ~seen

    def counts(self) -> list[int]:
        """Keys per shard; after ``close`` the counts it recorded."""
        if not self.shards:
            return self._final
        return ray.get([s.count.remote(epoch=self.epoch) for s in self.shards])

    def checkpoint(self, dirpath: str, full: bool) -> None:
        """Every shard writes its full filter (``full``) or the keys it
        admitted since its last checkpoint into ``dirpath``; returns
        once all files are written."""
        os.makedirs(dirpath)
        ray.get([s.checkpoint.remote(dirpath, full, epoch=self.epoch)
                 for s in self.shards])

    def close(self) -> None:
        """End the lease now: record each shard's final count, clear the
        shards and return them to the pool, and free the CPU the lease
        reserved (wave closures in Ray Data plans can keep this object
        alive until the garbage collector runs)."""
        counts = self._lease.release()
        if counts and None not in counts:  # a dead shard has no count
            self._final = counts
