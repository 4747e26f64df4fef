"""Cuckoo filter (partial-key cuckoo hashing, Fan et al., CoNEXT'14).

Replaces the reference's in-memory ``DedupeSet``
(/root/reference/scrapper/core/dedup.py:16-37) with a bounded-memory,
serializable seen-set suitable for a 10^10-URL frontier: ~(fp_bits/8)+ε
bytes per key across shards. With 32-bit fingerprints (the default) the
false-positive rate is ≈ 2·b/2^32 ≈ 2e-9 per lookup — negligible, so the
URL-seen *set* still matches the reference's exact set on any realistic
crawl (BASELINE.md correctness gate). 16-bit fingerprints halve memory
for uses where ~1e-4 FP is acceptable (``fp_bits=16``); the crawl's
URL-seen shards always use 32.

Upstream key-collision bound: filter keys are 64-bit
FNV-1a(canonical_url) (state/urlseen.py url_keys), so at the 10^10-URL
design point the birthday expectation is ~(10^10)^2 / 2^65 ≈ 3 colliding
key *pairs* across the whole crawl — each would silently treat one
distinct URL as already seen. That 64-bit stage, not the fingerprint FP
rate, dominates total error at 10^10 keys; widening keys to 128 bits
(a 128-bit hash: shard on the high half, fingerprint the low half) removes it
if ever needed. At test/bench scale (≤10^7 URLs) both rates are ≪1
expected collisions, i.e. exact.

Vectorized numpy lookups; insertion walks keys in Python (eviction
chains are inherently sequential) at ~1M keys/s per shard.
"""

from __future__ import annotations

import pickle

import numpy as np

_BUCKET = 4          # slots per bucket
_MAX_KICKS = 500


def _next_pow2(n: int) -> int:
    return 1 << max(4, (int(n) - 1).bit_length())


class CuckooFilter:
    def __init__(self, capacity: int, fp_bits: int = 32):
        if fp_bits not in (16, 32):
            raise ValueError("fp_bits must be 16 or 32")
        self.fp_bits = fp_bits
        self.nbuckets = _next_pow2(capacity / (_BUCKET * 0.84))
        dtype = np.uint16 if fp_bits == 16 else np.uint32
        self.table = np.zeros((self.nbuckets, _BUCKET), dtype=dtype)
        self.count = 0
        self._rng = np.random.default_rng(0xC0FFEE)  # eviction slot choice (seeded)

    # -- hashing ------------------------------------------------------------

    def _fp(self, h: np.ndarray) -> np.ndarray:
        fp = (h >> np.uint64(64 - self.fp_bits)).astype(self.table.dtype)
        fp[fp == 0] = 1  # 0 marks an empty slot
        return fp

    def _i1(self, h: np.ndarray) -> np.ndarray:
        return (h & np.uint64(self.nbuckets - 1)).astype(np.int64)

    def _alt(self, i: np.ndarray, fp: np.ndarray) -> np.ndarray:
        # partial-key alternate bucket: i XOR hash(fp)
        mix = (fp.astype(np.uint64) * np.uint64(0x5BD1E9955BD1E995))
        return ((i.astype(np.uint64) ^ mix) & np.uint64(self.nbuckets - 1)).astype(np.int64)

    # -- batch ops ----------------------------------------------------------

    def contains(self, h: np.ndarray) -> np.ndarray:
        """Vectorized membership for uint64 key hashes."""
        fp = self._fp(h)
        i1 = self._i1(h)
        i2 = self._alt(i1, fp)
        f = fp[:, None]
        return ((self.table[i1] == f).any(axis=1)) | ((self.table[i2] == f).any(axis=1))

    def _insert_one(self, i1: int, i2: int, fp: int) -> bool:
        for i in (i1, i2):
            row = self.table[i]
            empty = np.nonzero(row == 0)[0]
            if empty.size:
                row[empty[0]] = fp
                self.count += 1
                return True
        i = i1 if self._rng.integers(2) else i2
        cur = fp
        for _ in range(_MAX_KICKS):
            slot = int(self._rng.integers(_BUCKET))
            cur, self.table[i, slot] = int(self.table[i, slot]), cur
            i = int(self._alt(np.array([i]), np.array([cur], dtype=self.table.dtype))[0])
            row = self.table[i]
            empty = np.nonzero(row == 0)[0]
            if empty.size:
                row[empty[0]] = cur
                self.count += 1
                return True
        raise RuntimeError("cuckoo filter full — grow urlseen_capacity / shards")

    def contains_and_add(self, h: np.ndarray) -> np.ndarray:
        """Test-and-set for a batch: returns the 'was already present'
        mask; absent keys are inserted. First-seen-wins semantics of the
        reference DedupeSet.seen_url (dedup.py:21-27), batch-atomic when
        the filter lives in one actor."""
        h = np.asarray(h, dtype=np.uint64)
        seen = self.contains(h)
        fp = self._fp(h)
        i1 = self._i1(h)
        i2 = self._alt(i1, fp)
        # within-batch duplicates must also dedupe (keep-first)
        batch_seen: set[int] = set()
        out = seen.copy()
        for j in np.nonzero(~seen)[0]:
            key = int(h[j])
            if key in batch_seen:
                out[j] = True
                continue
            batch_seen.add(key)
            self._insert_one(int(i1[j]), int(i2[j]), int(fp[j]))
        return out

    # -- checkpoint ---------------------------------------------------------

    def dump(self) -> bytes:
        return pickle.dumps({
            "fp_bits": self.fp_bits, "nbuckets": self.nbuckets,
            "count": self.count, "table": self.table,
            "rng": self._rng.bit_generator.state,
        })

    @classmethod
    def restore(cls, blob: bytes) -> "CuckooFilter":
        d = pickle.loads(blob)
        f = cls.__new__(cls)
        f.fp_bits = d["fp_bits"]
        f.nbuckets = d["nbuckets"]
        f.count = d["count"]
        f.table = d["table"]
        f._rng = np.random.default_rng()
        f._rng.bit_generator.state = d["rng"]
        return f


class SlidingCuckoo:
    """Sliding-window membership over rotating cuckoo sub-filters —
    the continuous-recrawl variant of the URL-seen set (approximate
    membership over sliding windows is a studied stream primitive, e.g.
    SIGMOD'23 "A Learned Cuckoo Filter for Approximate Membership
    Queries over Variable-sized Sliding Windows"; this is the classic
    rotating-sub-filter construction).

    ``n_windows`` sub-filters cover the last ``n_windows`` rotations;
    ``contains_and_add`` tests membership across ALL windows and admits
    new keys into the current one; ``rotate()`` (called once per crawl
    epoch, e.g. per day) drops the oldest sub-filter, so a URL last
    seen more than ``n_windows`` epochs ago is re-admitted — recrawl
    after expiry with O(window) memory and no per-key deletion (cuckoo
    deletes under eviction churn are unsafe; rotation sidesteps them).
    Per-shard state stays ``n_windows × capacity`` slots; serialize via
    ``dump``/``restore`` like the flat filter.
    """

    def __init__(self, capacity: int, n_windows: int = 4, fp_bits: int = 32):
        self.capacity = capacity
        self.n_windows = n_windows
        self.fp_bits = fp_bits
        self.windows = [CuckooFilter(capacity, fp_bits)]

    def contains(self, h: np.ndarray) -> np.ndarray:
        seen = np.zeros(len(h), dtype=bool)
        for w in self.windows:
            seen |= w.contains(h)
        return seen

    def contains_and_add(self, h: np.ndarray) -> np.ndarray:
        seen = np.zeros(len(h), dtype=bool)
        for w in self.windows[:-1]:
            seen |= w.contains(h)
        # current window does the test-and-set for the remainder
        idx = np.nonzero(~seen)[0]
        if idx.size:
            seen[idx] = self.windows[-1].contains_and_add(h[idx])
        return seen

    def rotate(self) -> None:
        self.windows.append(CuckooFilter(self.capacity, self.fp_bits))
        if len(self.windows) > self.n_windows:
            self.windows.pop(0)

    def dump(self) -> bytes:
        parts = [w.dump() for w in self.windows]
        head = pickle.dumps({"capacity": self.capacity,
                             "n_windows": self.n_windows,
                             "fp_bits": self.fp_bits,
                             "sizes": [len(p) for p in parts]})
        return len(head).to_bytes(8, "big") + head + b"".join(parts)

    @classmethod
    def restore(cls, blob: bytes) -> "SlidingCuckoo":
        hlen = int.from_bytes(blob[:8], "big")
        meta = pickle.loads(blob[8:8 + hlen])
        obj = cls(meta["capacity"], meta["n_windows"], meta["fp_bits"])
        obj.windows = []
        off = 8 + hlen
        for size in meta["sizes"]:
            obj.windows.append(CuckooFilter.restore(blob[off:off + size]))
            off += size
        return obj
