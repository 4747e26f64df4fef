"""Edit-distance similarity self-join (fuzzy join) — deletion-neighborhood
blocking with exact vectorized DP verification.

Candidate generation is FastSS (Bocek, Hunt, Stiller & Hecht, "Fast
Similarity Search in Large Dictionaries", Univ. of Zurich TR ifi-2007.02;
the same deletion-neighborhood idea SymSpell popularized): if
ed(a, b) <= k then the k-deletion neighborhoods D_k(a) and D_k(b)
intersect, so bucketing every string under the hash of each of its
<=k-deletion variants is a COMPLETE candidate generator. Candidates are
verified with the exact Levenshtein DP, so hash collisions and
neighborhood over-generation (sharing a variant only bounds
ed <= 2k) never produce a wrong pair.

Built for short join keys (names, codes, canonicalized titles): the
variant count is sum_{j<=k} C(L, j) per string of length L and the DP
is O(L^2) per surviving candidate. For long-document near-duplication
use the shingle-based operators in ``stages/dedupe.py`` instead.

Everything is hash-space until the verify: variant hashes are computed
directly from prefix/suffix polynomial sums (never materializing the
variant strings), the candidate exchange carries (variant_hash, id)
int64 pairs, and only the candidate PAIRS attach strings —
adaptively broadcast under the 64 MiB cap, exchanged on the ids above
it (``pairs.verify``, the attach every near-dup operator shares).

No counterpart in the reference scraper (its keys are exact URL/id
matches); this is engine surface for entity resolution over noisy keys.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from .pairs import candidates, result, verify

_B = np.uint64(1_000_003)          # odd -> invertible mod 2^64
_SEED = np.uint64(1469598103934665603)


def _inv_u64(b: np.uint64) -> np.uint64:
    """Modular inverse of an odd b mod 2^64 (Newton iteration)."""
    x = int(b)
    inv = x  # 3-bit correct
    for _ in range(5):
        inv = (inv * (2 - x * inv)) % (1 << 64)
    return np.uint64(inv)


_BINV = _inv_u64(_B)


def _pow_table(base: np.uint64, n: int) -> np.ndarray:
    p = np.empty(n, dtype=np.uint64)
    p[0] = 1
    with np.errstate(over="ignore"):
        for i in range(1, n):
            p[i] = p[i - 1] * base
    return p


def _codepoints(strs: list[str]) -> list[np.ndarray]:
    """Each string as a uint32 codepoint array — Levenshtein (and the
    deletion neighborhoods feeding it) are defined over CHARACTERS to
    match SQL ``levenshtein``, never over UTF-8 bytes."""
    return [np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)
            for s in strs]


def _variant_hashes(strs: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """Hashes of every <=k-deletion variant of every string, deduped per
    string. Returns (row_idx, variant_hash) int64/uint64 arrays.

    Vectorized per length group: with T(x) = sum_{p>=x} s[p]·B^(-p)
    (suffix sums in B-inverse space, wraparound uint64 arithmetic), the
    polynomial hash of the string minus deletion positions d_1<...<d_j
    is  seed·B^(L-j) + sum over kept segments i of
    B^(L-j-1+i)·(T(a_i) − T(b_i))  — one fused numpy expression per
    (length, deletion-combo), never a per-row Python splice."""
    cps = _codepoints(strs)
    lens = np.array([len(c) for c in cps], dtype=np.int64)
    max_l = int(lens.max()) if len(lens) else 0
    pow_b = _pow_table(_B, max_l + 2)
    pow_binv = _pow_table(_BINV, max_l + 2)

    out_rows: list[np.ndarray] = []
    out_hash: list[np.ndarray] = []
    with np.errstate(over="ignore"):
        for L in np.unique(lens):
            rid = np.flatnonzero(lens == L)
            L = int(L)
            if L == 0:
                # the only variant of "" is "" itself
                out_rows.append(rid)
                out_hash.append(np.full(len(rid), _SEED, np.uint64))
                continue
            m = np.vstack([cps[i] for i in rid]).astype(np.uint64)
            # T[:, x] = sum_{p>=x} m[:,p] * Binv^p ; T[:, L] = 0
            contrib = m * pow_binv[:L][None, :]
            t = np.zeros((len(rid), L + 1), np.uint64)
            t[:, :L] = contrib[:, ::-1].cumsum(axis=1, dtype=np.uint64)[:, ::-1]
            hs = []
            for j in range(0, min(k, L) + 1):
                seed_term = _SEED * pow_b[L - j]
                for dels in combinations(range(L), j):
                    bounds = [0, *[d for dd in dels for d in (dd, dd + 1)], L]
                    h = np.full(len(rid), seed_term, np.uint64)
                    for i in range(j + 1):
                        a, b = bounds[2 * i], bounds[2 * i + 1]
                        if a < b:
                            h += pow_b[L - j - 1 + i] * (t[:, a] - t[:, b])
                    hs.append(h)
            hm = np.stack(hs, axis=1)  # (rows, n_variants)
            # dedupe per row ("aab": deleting pos 1 or 2 both give "ab")
            hm.sort(axis=1)
            keep = np.ones(hm.shape, bool)
            keep[:, 1:] = hm[:, 1:] != hm[:, :-1]
            rr = np.repeat(rid, hm.shape[1]).reshape(hm.shape)
            out_rows.append(rr[keep])
            out_hash.append(hm[keep])
    if not out_rows:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    return np.concatenate(out_rows), np.concatenate(out_hash)


def editdist_batch(sa: list[str], sb: list[str], kmax: int) -> np.ndarray:
    """Levenshtein distances for aligned string pairs, exact up to
    ``kmax`` and ``kmax + 1`` beyond it (such a pair can never pass the
    join threshold). The DP is vectorized ACROSS the pair axis and
    banded: it computes only the cells with |i − j| ≤ kmax, so a chunk
    costs max_len × (2·kmax + 1) steps of O(n_pairs) vector work.
    Pairs with |len a − len b| > kmax short-circuit without a DP. The
    DP runs per length class (pairs sorted by their longer string, one
    chunk per power-of-two length band), so one long outlier costs its
    own chunk's rows, not every pair's."""
    n = len(sa)
    if n == 0:
        return np.empty(0, np.int64)
    ca, cb = _codepoints(sa), _codepoints(sb)
    la = np.array([len(x) for x in ca], np.int64)
    lb = np.array([len(x) for x in cb], np.int64)
    ans = np.full(n, kmax + 1, np.int64)
    idx = np.flatnonzero(np.abs(la - lb) <= kmax)
    if not len(idx):
        return ans
    band = np.maximum(la[idx], lb[idx])
    order = np.argsort(band, kind="stable")
    idx = idx[order]
    cls = np.log2(np.maximum(band[order], 1)).astype(np.int64)
    bounds = np.r_[0, np.flatnonzero(cls[1:] != cls[:-1]) + 1, len(idx)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk = idx[lo:hi]
        ans[chunk] = _editdist_dp([ca[i] for i in chunk],
                                  [cb[i] for i in chunk],
                                  la[chunk], lb[chunk], kmax)
    return ans


def _editdist_dp(ca: list[np.ndarray], cb: list[np.ndarray],
                 la: np.ndarray, lb: np.ndarray, kmax: int) -> np.ndarray:
    """Levenshtein distances of aligned codepoint arrays (every pair
    has |la − lb| ≤ kmax), capped at ``kmax + 1``: one DP over the
    chunk padded to its longest strings, restricted to the diagonal
    band |i − j| ≤ kmax. A cell off the band is at least |i − j| >
    kmax away, so it enters as the cap (Ukkonen's cut-off); no cell is
    off it once kmax reaches the longest string. Column ``d`` of row
    ``i`` holds cell ``j = i + d − k``."""
    max_a = int(la.max())
    max_b = int(lb.max())
    m = len(ca)
    k = min(kmax, max(max_a, max_b))
    w = 2 * k + 1
    cap = kmax + 1

    def pad(arrs, lead, width):
        out = np.zeros((m, lead + width), np.uint32)
        flat = (np.concatenate(arrs) if width else
                np.empty(0, np.uint32))
        lens = np.array([len(a) for a in arrs], np.int64)
        rows = np.repeat(np.arange(m), lens)
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
        cols = lead + np.arange(len(flat)) - np.repeat(offs, lens)
        if len(flat):
            out[rows, cols] = flat
        return out

    A = pad(ca, 0, max_a)
    # b's character j - 1 sits at column i + d - 1 for every row i >= 1
    B = pad(cb, k, max(max_b, max_a + k))
    d = np.arange(w)
    prev = np.broadcast_to(np.where(d >= k, d - k, cap).astype(np.int32),
                           (m, w)).copy()
    res = np.where(la == 0, lb, -1).astype(np.int64)
    for i in range(1, max_a + 1):
        cur = prev + (B[:, i - 1:i - 1 + w] != A[:, i - 1][:, None])
        np.minimum(cur[:, :-1], prev[:, 1:] + 1, out=cur[:, :-1])
        j = i + d - k
        cur[:, j < 0] = cap
        cur[:, j == 0] = i
        for c in range(max(1, k - i + 1), w):
            np.minimum(cur[:, c], cur[:, c - 1] + 1, out=cur[:, c])
        np.minimum(cur, cap, out=cur)
        done = la == i
        if done.any():
            res[done] = cur[done, lb[done] - i + k]
        prev = cur
    return np.minimum(res, cap)


def fuzzy_selfjoin_editdist(ds: rd.Dataset, id_col: str, str_col: str,
                            k: int = 1, *, n_buckets: int = 64,
                            num_partitions: int = 8) -> pd.DataFrame:
    """All pairs (a, b), a < b, with Levenshtein(s_a, s_b) <= k.
    Returns a DataFrame (a_id, b_id, dist).

    Plan: variant-hash emission (map-side, deduped per string) as the
    blocking keys of ``pairs.candidates`` (one coarse-bucket exchange,
    then the pair dedup exchange) → ``pairs.verify`` (adaptive string
    attach, ``num_partitions`` buckets per exchange above the cap) →
    vectorized DP verify. 100 TB: every exchange is int64-pairs-sized;
    strings ship only for verified candidates."""

    def variant_keys(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        rows, vh = _variant_hashes(t[str_col].to_pylist(), k)
        return rows, vh.view(np.int64)

    cand = candidates(ds, id_col, variant_keys, n_buckets)

    def score(t: pa.Table) -> pa.Table:
        d = editdist_batch(t[f"{str_col}_a"].to_pylist(),
                           t[f"{str_col}_b"].to_pylist(), k)
        keep = pa.array(d <= k)
        return pa.table({"a_id": t["id_a"].filter(keep),
                         "b_id": t["id_b"].filter(keep),
                         "dist": d[d <= k]})

    return result(verify(cand, ds, id_col, [str_col], score,
                         num_partitions=num_partitions),
                  {"a_id": "int64", "b_id": "int64", "dist": "int64"})
