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
int64 pairs, and only the deduped candidate PAIRS attach strings —
adaptively broadcast under the 64 MiB cap, hash-joined above it
(same plan shape as ``dedupe._verify_pairs_jaccard``).

No counterpart in the reference scraper (its keys are exact URL/id
matches); this is engine surface for entity resolution over noisy keys.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count

from .exchange import exchange
from .graph import _pairs_within_runs

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
    """Exact Levenshtein distances for aligned string pairs, DP
    vectorized ACROSS the pair axis (the j-dependency loop runs over
    character positions only — max_len² scalar steps of O(n_pairs)
    vector work). Pairs with |len a − len b| > kmax short-circuit to
    kmax+1 (they can never pass the join threshold)."""
    n = len(sa)
    if n == 0:
        return np.empty(0, np.int64)
    ca, cb = _codepoints(sa), _codepoints(sb)
    la = np.array([len(x) for x in ca], np.int64)
    lb = np.array([len(x) for x in cb], np.int64)
    ans = np.full(n, kmax + 1, np.int64)
    live = np.abs(la - lb) <= kmax
    if not live.any():
        return ans
    idx = np.flatnonzero(live)
    la, lb = la[idx], lb[idx]
    max_a = int(la.max())
    max_b = int(lb.max())
    m = len(idx)

    def pad(arrs, width):
        out = np.zeros((m, width), np.uint32)
        flat = (np.concatenate(arrs) if width else
                np.empty(0, np.uint32))
        lens = np.array([len(a) for a in arrs], np.int64)
        rows = np.repeat(np.arange(m), lens)
        offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
        cols = np.arange(len(flat)) - np.repeat(offs, lens)
        if len(flat):
            out[rows, cols] = flat
        return out

    A = pad([ca[i] for i in idx], max_a)
    B = pad([cb[i] for i in idx], max_b)
    prev = np.broadcast_to(np.arange(max_b + 1, dtype=np.int32),
                           (m, max_b + 1)).copy()
    res = np.where(la == 0, lb, -1).astype(np.int64)
    for i in range(1, max_a + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        sub = prev[:, :-1] + (B != A[:, i - 1][:, None])
        for j in range(1, max_b + 1):
            cur[:, j] = np.minimum(np.minimum(prev[:, j] + 1,
                                              cur[:, j - 1] + 1),
                                   sub[:, j - 1])
        done = la == i
        if done.any():
            res[done] = cur[done, lb[done]]
        prev = cur
    ans[idx] = res
    return ans


def fuzzy_selfjoin_editdist(ds: rd.Dataset, id_col: str, str_col: str,
                            k: int = 1, *, n_buckets: int = 64,
                            num_partitions: int = 8) -> pd.DataFrame:
    """All pairs (a, b), a < b, with Levenshtein(s_a, s_b) <= k.
    Returns a DataFrame (a_id, b_id, dist).

    Plan: variant-hash emission (map-side, deduped per string) → one
    coarse-bucket groupby pairing equal hashes inside vectorized runs
    (pairs unique within a bucket; no cross-bucket dedup exchange) →
    adaptive string attach → vectorized DP verify → the ~2 % of pairs
    that recur via distinct hashes in different buckets collapse in
    the output-sized driver drop_duplicates.
    Ids must fit 31 bits (pair keys pack into one int64 —
    same contract as ``graph.triangle_counts``). 100 TB: every exchange
    is int64-pairs-sized; strings ship only for verified candidates."""

    def emit(t: pa.Table) -> pa.Table:
        strs = t[str_col].to_pylist()
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rows, vh = _variant_hashes(strs, k)
        return pa.table({"vh": vh.view(np.int64), "id": ids[rows]})

    def pair_up(t: pa.Table) -> pa.Table:
        vh = t["vh"].to_numpy()
        ids = t["id"].to_numpy()
        order = np.lexsort((ids, vh))
        vh, ids = vh[order], ids[order]
        fi, si = _pairs_within_runs(vh)
        a = np.minimum(ids[fi], ids[si])
        bb = np.maximum(ids[fi], ids[si])
        m = a != bb  # same id through two variants
        key = np.unique((a[m] << np.int64(31)) | bb[m])
        return pa.table({"a_id": (key >> np.int64(31)),
                         "b_id": key & np.int64((1 << 31) - 1)})

    # No pre-verify dedup exchange: pair_up already uniques within its
    # bucket, so a pair recurs only when two strings share DISTINCT
    # variant hashes that land in different buckets — measured ~2 % of
    # candidates on zero-padded id-style keys. Verifying those twice is
    # far cheaper than a sort-based aggregate over the whole candidate
    # set (5 s of a 17 s wall at sf0.1); duplicates carry identical
    # exact distances and collapse in the output-sized driver
    # drop_duplicates (the f4be768 set-sim-join precedent).
    cand = exchange(ds.map_batches(emit, batch_format="pyarrow"), "vh",
                    pair_up, n_buckets)

    joined = _attach_strings(cand, ds, id_col, str_col,
                             num_partitions=num_partitions)

    def verify(t: pa.Table) -> pa.Table:
        d = editdist_batch(t["s_a"].to_pylist(), t["s_b"].to_pylist(), k)
        keep = d <= k
        return pa.table({"a_id": t["a_id"].to_numpy()[keep],
                         "b_id": t["b_id"].to_numpy()[keep],
                         "dist": d[keep]})

    out = joined.map_batches(verify, batch_format="pyarrow").to_pandas()
    if len(out) == 0:
        return pd.DataFrame({"a_id": pd.Series([], dtype="int64"),
                             "b_id": pd.Series([], dtype="int64"),
                             "dist": pd.Series([], dtype="int64")})
    return (out.drop_duplicates(["a_id", "b_id"])
            .astype({"a_id": "int64", "b_id": "int64", "dist": "int64"})
            .sort_values(["a_id", "b_id"]).reset_index(drop=True))


def _attach_strings(cand: rd.Dataset, ds: rd.Dataset, id_col: str,
                    str_col: str, *, num_partitions: int) -> rd.Dataset:
    """Attach s_a / s_b to candidate pairs: semi-filter the string table
    to pair ids, broadcast it under the 64 MiB cap (one ``ray.put``,
    read per task), hash-join both sides above it."""
    from .joins import BROADCAST_THRESHOLD_BYTES, _pull_table

    pair_tbl = _pull_table(cand)
    if pair_tbl is None or pair_tbl.num_rows == 0:
        return rd.from_arrow(pa.table({
            "a_id": pa.array([], pa.int64()), "b_id": pa.array([], pa.int64()),
            "s_a": pa.array([], pa.string()), "s_b": pa.array([], pa.string())}))
    pair_ids = pa.chunked_array([pair_tbl["a_id"].combine_chunks(),
                                 pair_tbl["b_id"].combine_chunks()]).unique()
    ids_ref = ray.put(pair_ids)

    needed = ds.map_batches(
        lambda t: pa.table({id_col: t[id_col], str_col: t[str_col]}).filter(
            pc.is_in(t[id_col], value_set=ray.get(ids_ref))),
        batch_format="pyarrow").materialize()

    if (needed.size_bytes() or 0) <= BROADCAST_THRESHOLD_BYTES:
        side_tbl = _pull_table(needed).combine_chunks()
        mref = ray.put(side_tbl)

        def attach(t: pa.Table) -> pa.Table:
            side = ray.get(mref)
            ia = pc.index_in(t["a_id"], value_set=side[id_col])
            ib = pc.index_in(t["b_id"], value_set=side[id_col])
            return (t.append_column("s_a", pc.take(side[str_col], ia))
                    .append_column("s_b", pc.take(side[str_col], ib)))

        return cand.map_batches(attach, batch_format="pyarrow")

    def side(suffix: str) -> rd.Dataset:
        return needed.map_batches(
            lambda t, s=suffix: pa.table({f"key_{s}": t[id_col],
                                          f"s_{s}": t[str_col]}),
            batch_format="pyarrow")

    return (cand.join(side("a"), join_type="inner",
                      num_partitions=num_partitions,
                      on=("a_id",), right_on=("key_a",))
            .join(side("b"), join_type="inner",
                  num_partitions=num_partitions,
                  on=("b_id",), right_on=("key_b",)))
