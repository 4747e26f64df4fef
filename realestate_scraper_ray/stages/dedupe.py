"""Deduplication stages over Ray Data Datasets.

Each operator is expressed Ray-Data-first (vectorized ``map_batches`` to
compute signatures, a keyed shuffle, vectorized within-group work),
mirroring the pattern the crawl engine uses for its URL-seen set
(hash-partition + per-group first).

Operators:
  - exact:       hash-partition on content hash, keep-first (min id)
  - MinHash+LSH: shingle → minhash → band → bucket exchange → candidate
                 pairs → exact-Jaccard verification (Broder '97)
  - SimHash:     64-bit simhash → 16-bit band buckets → Hamming verify
                 (Charikar '02)
  - n-gram Jaccard: blocking by (length bucket) → exact pairwise Jaccard
  - embedding near-dup: cosine ≥ τ pairs via a block-pair (triangle)
                 self-join (scale path: hyperplane-LSH buckets)

The pairwise operators share ``stages/pairs.py``: blocking-key
candidates, pair dedup, the 31-bit pair packing, shingle-set kernels,
the rarest-first prefix and the triangle replication. Verification
needs both sides of a candidate pair and is adaptive (``pairs.verify``):
the side table, semi-filtered to candidate ids, attaches to each end
through ``joins.lookup_join`` — broadcast under the ``joins`` cap,
exchanged on the id above it — no driver-side map of the whole corpus
at any scale.

Threshold comparisons are integer-exact (len(∩)·1000 ≥ ⌈θ·1000⌉·len(∪))
so the engine and a SQL oracle agree bit-for-bit at the boundary.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Min

from ..functions.textstats import (
    minhash_signatures, rolling_hash64, simhash64,
)
from .exchange import exchange
from .pairs import (
    _pairs_within_runs, candidates, check_ids, distinct, first_rows, flat,
    intersect_sizes, pack, prefix, ranked, result, shared_counts,
    shingle_sets, token_rank, triangle, unpack, verify,
)
from .similarity import _norm_rows


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup_first(ds: rd.Dataset, text_col: str, id_col: str) -> rd.Dataset:
    """Keep the first (min id) row per distinct text. The Ray Data
    analogue of the reference DedupeSet's first-seen-wins (dedup.py:16-27):
    hash-partition on the content hash, per-group min."""

    def add_hash(t: pa.Table) -> pa.Table:
        # int64 view of the uint64 hash: Ray Data groupby keys round-trip
        # through Python ints, which overflow on values >= 2**63
        h = np.asarray(rolling_hash64(t[text_col].combine_chunks())).view(np.int64)
        return t.append_column("content_hash", pa.array(h))

    # project to (hash, id) before the shuffle — the groupby exchanges
    # every input column, and the text itself must never ride the
    # all-to-all (the projection fuses into the hashing map stage)
    return (ds.map_batches(add_hash, batch_format="pyarrow")
            .select_columns(["content_hash", id_col])
            .groupby("content_hash")
            .aggregate(Min(id_col, alias_name=id_col),
                       Count(alias_name="dupes")))


def dedup_group_first(ds: rd.Dataset, group_cols: list[str], id_col: str) -> rd.Dataset:
    """Keep-first (min id) per group key — hash-partition + per-group
    first over arbitrary keys."""
    return ds.groupby(group_cols).aggregate(Min(id_col, alias_name=id_col),
                                            Count(alias_name="dupes"))




# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def minhash_lsh_pairs(ds: rd.Dataset, text_col: str, id_col: str,
                      num_perm: int = 64, bands: int = 16,
                      shingle_k: int = 3, threshold: float = 0.5) -> pd.DataFrame:
    """Near-duplicate pairs (id_a < id_b, exact Jaccard ≥ threshold).

    shingle→minhash per batch (vectorized) → one blocking key per
    (doc, band) → ``pairs.candidates`` (a near pair shares most bands:
    its twins drop there, before the verify) → exact-Jaccard
    ``pairs.verify`` against the texts.
    """
    rows_per_band = num_perm // bands
    thr_mille = int(round(threshold * 1000))

    def band_keys(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        # FNV fold of (band index, the band's signature rows): docs
        # share a key iff they agree on one whole band
        sig = minhash_signatures(t[text_col].combine_chunks(), num_perm, shingle_k)
        n = len(sig)
        keys = np.empty((n, bands), dtype=np.uint64)
        for b in range(bands):
            h = np.full(n, 1469598103934665603 ^ b, dtype=np.uint64)
            for c in range(b * rows_per_band, (b + 1) * rows_per_band):
                h = (h ^ sig[:, c]) * np.uint64(1099511628211)
            keys[:, b] = h
        return np.repeat(np.arange(n), bands), keys.reshape(-1).view(np.int64)

    def score(t: pa.Table) -> pa.Table:
        # exact Jaccard of the two attached texts' shingle sets
        na, nb, inter = intersect_sizes(
            shingle_sets(t[f"{text_col}_a"], shingle_k),
            shingle_sets(t[f"{text_col}_b"], shingle_k))
        union = na + nb - inter
        keep = ((na + nb) > 0) & (inter * 1000 >= thr_mille * union)
        return pa.table({"id_a": t["id_a"].filter(pa.array(keep)),
                         "id_b": t["id_b"].filter(pa.array(keep)),
                         "jaccard": inter[keep] / np.maximum(1, union[keep])})

    # 64 coarse buckets, one fold call per exchange block, not per LSH
    # bucket (a per-LSH-bucket UDF call is the scale killer at ~1
    # bucket per document × bands)
    cand = candidates(ds, id_col, band_keys, 64)
    return result(verify(cand, ds, id_col, [text_col], score),
                  {"id_a": "int64", "id_b": "int64", "jaccard": "float64"})


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a contiguous uint64 array (byte LUT)."""
    return _POP8[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1)


def simhash_pairs(ds: rd.Dataset, text_col: str, id_col: str,
                  max_hamming: int = 3) -> pd.DataFrame:
    """Near-dup pairs by SimHash: 4×16-bit band buckets (any pair within
    Hamming ≤ 3 of a 64-bit hash shares at least one exact 16-bit band —
    pigeonhole), verified by exact Hamming distance.

    Written out rather than ``pairs.candidates`` + ``pairs.verify``: the
    Hamming test runs inside the band bucket, on the simhash each row
    carries through the exchange, so only near pairs leave it — the
    ~n²/2¹⁷ random collisions per band never reach a verify."""
    def to_bands(t: pa.Table) -> pa.Table:
        sh = simhash64(t[text_col].combine_chunks())
        b = np.arange(4, dtype=np.uint64)
        keys = ((sh[:, None] >> (b * np.uint64(16))) & np.uint64(0xFFFF)) \
            | (b << np.uint64(16))
        return pa.table({"key": keys.reshape(-1).view(np.int64),
                         "id": np.repeat(np.asarray(t[id_col], np.int64), 4),
                         "simhash": np.repeat(sh, 4).view(np.int64)})

    def bucket_pairs(t: pa.Table) -> pa.Table:
        key, ids = t["key"].to_numpy(), t["id"].to_numpy()
        o = np.lexsort((ids, key))
        fi, si = _pairs_within_runs(key[o])
        a, b = o[fi], o[si]
        sh = t["simhash"].to_numpy().view(np.uint64)
        x = np.ascontiguousarray(sh[a] ^ sh[b])
        ham = _popcount64(x)
        # a pair meets under every band it agrees on: the lowest owns it
        agree = ((x[:, None] >> (np.arange(4, dtype=np.uint64)
                                 * np.uint64(16))) & np.uint64(0xFFFF)) == 0
        keep = ((ham <= max_hamming) & (ids[a] != ids[b])
                & (np.argmax(agree, axis=1) == key[a] >> 16))
        return pa.table({"id_a": ids[a][keep], "id_b": ids[b][keep],
                         "hamming": ham[keep].astype(np.int64)})

    return result(exchange(ds.map_batches(to_bands, batch_format="pyarrow"),
                           "key", bucket_pairs, 64),
                  {"id_a": "int64", "id_b": "int64", "hamming": "int64"})


# ---------------------------------------------------------------------------
# n-gram Jaccard with length blocking
# ---------------------------------------------------------------------------


def ngram_jaccard_pairs(ds: rd.Dataset, text_col: str, id_col: str,
                        shingle_k: int = 3, threshold: float = 0.5,
                        n_shards: int = 4) -> pd.DataFrame:
    """Exact pairwise Jaccard within *sound* blocking groups.

    Blocking key: ⌊log_r(n)⌋ where n is the doc's distinct-shingle count
    and r = 1/θ. J(A,B) ≥ θ implies |A∩B| ≥ θ·|A∪B| ⇒ min(|A|,|B|) ≥
    θ·max(|A|,|B|), i.e. the count ratio is ≤ r — so the two log-r
    buckets differ by at most 1, and emitting every doc into its own and
    the next bucket guarantees every qualifying pair co-occurs in ≥1
    group (completeness proof in tests via brute force). Verification is
    exact integer-threshold Jaccard within the group.

    Within a block the quadratic verify is sharded as a block-pair
    (triangle) self-join over ``n_shards`` id-hash shards
    (``pairs.triangle``) — each row replicates to the shard pairs it
    participates in and one ``map_groups`` task handles one
    (block, si, sj) cell, bounding per-task memory to
    ~2·n_block/n_shards docs and parallelizing the comparisons; every
    qualifying pair co-occurs in exactly one cell of its block. Choose
    n_shards ≈ n_block·bytes_per_set / task_mem_budget at scale. This
    exact operator is the oracle-grade path (ground truth for
    ``dedup_minhash_recall``); the 100-TB near-dup path is
    ``minhash_lsh_pairs`` (same exact verify, LSH-pruned candidates)."""
    log_r = np.log(1.0 / threshold)
    thr_mille = int(round(threshold * 1000))

    def add_bucket(t: pa.Table) -> pa.Table:
        # shingle once per doc HERE and ship the distinct-hash set —
        # not the text — through the (block, si, sj) replication: the
        # 2·n_shards replicas then cost bytes-of-hashes each, and the
        # verify cells never re-tokenize
        hs = shingle_sets(t[text_col], shingle_k)
        n_sh = np.maximum(1, flat(hs)[1])
        b = np.floor(np.log(n_sh.astype(np.float64)) / log_r).astype(np.int32)
        base = pa.table({id_col: t[id_col], "hs": hs, "home": b})
        shard = np.asarray(t[id_col]).astype(np.int64) % n_shards
        return pa.concat_tables([
            triangle(base.append_column("block", pa.array(blk)), shard,
                     n_shards) for blk in (b, b + 1)])

    def cell_pairs(g: pa.Table) -> pa.Table:
        """Exact intersections for the cell's candidate pairs only
        (``pairs.shared_counts``): docs that share nothing never form
        a pair, so work is O(shared occurrences), not O(n² · set)."""
        si, sj = g["si"][0].as_py(), g["sj"][0].as_py()
        block = g["block"][0].as_py()
        g = g.take(first_rows(g[id_col].to_numpy()))
        ids, sides = g[id_col].to_numpy(), g["s"].to_numpy()
        home, sizes = g["home"].to_numpy(), flat(g["hs"])[1]
        a, b, inter, _ = shared_counts(np.zeros(len(ids), np.int64),
                                       g["hs"])
        # the cell's share of the triangle: same-shard pairs on the
        # diagonal, cross-shard pairs off it
        own = (sides[a] == sides[b]) if si == sj else (sides[a] != sides[b])
        # docs of one log bucket meet in two blocks: the upper owns them
        own &= np.maximum(home[a], home[b]) == block
        a, b, inter = a[own], b[own], inter[own]
        union = sizes[a] + sizes[b] - inter
        ok = inter * 1000 >= thr_mille * union
        x, y = ids[a[ok]], ids[b[ok]]
        return pa.table({"id_a": np.minimum(x, y), "id_b": np.maximum(x, y),
                         "jaccard": inter[ok] / np.maximum(1, union[ok])})

    return result(ds.map_batches(add_bucket, batch_format="pyarrow")
                  .groupby(["block", "si", "sj"])
                  .map_groups(cell_pairs, batch_format="pyarrow"),
                  {"id_a": "int64", "id_b": "int64", "jaccard": "float64"})


# ---------------------------------------------------------------------------
# set-similarity JOIN between two relations (prefix filtering)
# ---------------------------------------------------------------------------


def similarity_join_jaccard(ds: rd.Dataset, text_col: str, id_col: str,
                            side_col: str, threshold: float = 0.5,
                            shingle_k: int = 3,
                            n_verify_buckets: int = 64) -> pd.DataFrame:
    """τ-Jaccard join R ⋈ S over k-word shingle SETS via prefix filtering
    (AllPairs, Bayardo et al. WWW '07; distributed kernel after Vernica
    et al. SIGMOD '10). Different from ``ngram_jaccard_pairs``: that is
    a length-blocked SELF-join; this joins two relations (``side_col``
    ∈ {0,1}) and blocks on the *rarest prefix tokens*, the classic
    candidate generator whose group sizes are bounded by rare-token
    document frequency rather than by length-bucket population.

    Plan (ONE shuffle — the verify-bucket exchange):
      1. token document frequency → rarest-first rank
         (``pairs.token_rank``, broadcast via ``ray.put``); at 100 TB
         swap for a hash join of ranks onto exploded prefix tokens —
         same plan shape, noted not built.
      2. each doc emits its prefix tokens (``pairs.prefix``: p = n −
         ⌈τ·n⌉ + 1 rarest tokens; any qualifying pair must share ≥1 —
         the AllPairs bound) carrying (side, id, shingle set);
         ``exchange`` on a COARSE hash bucket of the prefix token
         (``n_verify_buckets`` tasks — prefix groups average a handful
         of rows, and one call per group pays the tiny-group overhead
         ~20k times at sf0.1).
      3. one vectorized fold per block: after the (token, id, side)
         dedup every bucket row belongs to exactly one prefix group, so
         ``pairs.shared_counts`` over (token, shingle) runs preserves
         per-group semantics in ONE sort over row-pair keys;
         cross-side pairs only, integer-exact τ gate. Sets and tokens
         travel as ranks (``pairs.ranked``), so the smallest shared
         member of a pair is its rarest shared token — which lies in
         both prefixes, since a prefix holds a doc's rarest tokens. A
         pair sharing several prefix tokens is emitted only from that
         token's group: once, with no pair dedup exchange.
    Size ``n_verify_buckets`` ≈ total-prefix-set-bytes / task budget
    at scale (each bucket materializes its groups' shingle sets once).

    Returns (r_id, s_id, inter_n, union_n) with
    inter·1000 ≥ ⌈τ·1000⌉·union — integer-exact against a SQL oracle.
    """
    thr_mille = int(round(threshold * 1000))
    rank = token_rank(ds, text_col, shingle_k)

    def emit_prefix(t: pa.Table) -> pa.Table:
        toks, ranks = tr = ray.get(rank)
        hs = shingle_sets(t[text_col], shingle_k)
        rows, ptok = prefix(hs, tr, thr_mille)
        return pa.table({
            "ptok": ranks[np.searchsorted(toks, ptok)],
            "id": np.asarray(t[id_col], dtype=np.int64)[rows],
            "side": np.asarray(t[side_col], dtype=np.int64)[rows],
            "hs": ranked(hs, tr).take(rows)})

    def bucket_verify(t: pa.Table) -> pa.Table:
        # a member is (id, side): R and S may be separate relations with
        # overlapping id spaces, so id alone would drop a real member
        t = t.take(first_rows(t["ptok"].to_numpy(), t["id"].to_numpy(),
                              t["side"].to_numpy()))
        ids, sides = t["id"].to_numpy(), t["side"].to_numpy()
        ptok, sizes = t["ptok"].to_numpy(), flat(t["hs"])[1]
        a, b, inter, low = shared_counts(ptok, t["hs"])
        # cross-side pairs, each in the group of its rarest shared token
        own = (sides[a] != sides[b]) & (low.view(np.int64) == ptok[a])
        a, b, inter = a[own], b[own], inter[own]
        union = sizes[a] + sizes[b] - inter
        ok = inter * 1000 >= thr_mille * union
        a, b, inter, union = a[ok], b[ok], inter[ok], union[ok]
        r_is_a = sides[a] == 0
        return pa.table({"r_id": np.where(r_is_a, ids[a], ids[b]),
                         "s_id": np.where(r_is_a, ids[b], ids[a]),
                         "inter_n": inter, "union_n": union})

    return result(exchange(ds.map_batches(emit_prefix, batch_format="pyarrow"),
                           "ptok", bucket_verify, n_verify_buckets),
                  {"r_id": "int64", "s_id": "int64", "inter_n": "int64",
                   "union_n": "int64"})


# ---------------------------------------------------------------------------
# embedding near-dup (cosine)
# ---------------------------------------------------------------------------


def embedding_neardup_pairs(ds: rd.Dataset, vec_col: str, id_col: str,
                            tau: float, n_blocks: int = 4) -> pd.DataFrame:
    """Exact pairs (id_a < id_b) with cosine similarity ≥ τ, as a
    distributed block-pair (triangle) self-join.

    Rows hash into ``n_blocks`` blocks; each row is replicated to every
    unordered block pair it participates in (``pairs.triangle``), one
    ``map_groups`` task per (bi, bj) runs the cross (or upper-triangular)
    matmul. Shuffle volume is n·n_blocks rows and per-group memory is
    ~2n/n_blocks vectors — choose n_blocks ≈ n·dim·8 / group_mem_budget
    at scale. No driver materialization and no full-matrix broadcast;
    exactness is preserved (every pair co-occurs in exactly one group).
    The approximate alternative for much larger n is hyperplane-LSH
    bucketing (``embedding_neardup_lsh``) at the cost of recall."""

    def replicate(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return triangle(t.select([id_col, vec_col]), ids % n_blocks, n_blocks)

    def cell_pairs(g: pa.Table) -> pa.Table:
        # the diagonal cell pairs its block with itself (upper
        # triangle), an off-diagonal cell block bi with block bj
        si, sj = g["si"][0].as_py(), g["sj"][0].as_py()
        g = g.take(first_rows(g[id_col].to_numpy()))
        ids, s = g[id_col].to_numpy(), g["s"].to_numpy()
        m = _norm_rows(np.array(g[vec_col].to_pylist(), dtype=np.float64))
        li, rj = np.flatnonzero(s == si), np.flatnonzero(s == sj)
        sims = m[li] @ m[rj].T
        ia, ib = np.nonzero(sims >= tau)
        a, b = ids[li[ia]], ids[rj[ib]]
        own = (a < b) | (si != sj)
        return pa.table({"id_a": np.minimum(a, b)[own],
                         "id_b": np.maximum(a, b)[own],
                         "cos": sims[ia, ib][own]})

    return result(ds.map_batches(replicate, batch_format="pyarrow")
                  .groupby(["si", "sj"])
                  .map_groups(cell_pairs, batch_format="pyarrow"),
                  {"id_a": "int64", "id_b": "int64", "cos": "float64"})


# ---------------------------------------------------------------------------
# exact-substring duplication (window hashing)
# ---------------------------------------------------------------------------


def duplicated_window_stats(ds: rd.Dataset, text_col: str, id_col: str,
                            k: int = 8) -> rd.Dataset:
    """Exact-substring duplication stats: per document, how many of its
    distinct k-word windows also occur in at least one other document.

    The window-hash formulation of exact substring dedup (Lee et al.
    '22, "Deduplicating Training Data Makes Language Models Better" —
    their suffix-array pass, re-expressed as the shuffle-friendly
    MapReduce variant): every k-word window is hashed, windows are
    hash-partitioned, and a window seen in ≥2 documents marks all its
    occurrences as duplicated. Texts shorter than k words contribute
    their whole word sequence as their single window (same rule as
    ``word_shingle_set``).

    Scale shape: ``map_batches`` explodes each doc into its DISTINCT
    window hashes (per-doc dedup before the shuffle), one ``exchange`` on
    the window hash marks group size, one groupby on the doc id folds the
    per-doc counters — two all-to-all exchanges of (doc_id, win) pairs,
    no driver materialization, no text ever leaves its batch. Window
    identity is the 64-bit shingle hash (deterministic sha1-based word
    hashes + FNV fold); cross-doc collisions would need ~2^32 distinct
    windows per partition to matter.

    Returns a Dataset of ``(id_col, n_windows, dup_windows)`` — one row
    per document that has at least one window (i.e. non-empty text).
    """
    from ..functions.textstats import _hash_tokens_matrix
    from ray.data.aggregate import Sum

    n_parts = 512  # coarse shuffle partitions: one map_groups call per
    # partition (a per-window UDF call — millions of groups — is the
    # scale killer; within a partition run-detection is one argsort)

    def win_rows(t: pa.Table) -> pa.Table:
        hm = _hash_tokens_matrix(t[text_col].to_pylist(), k)
        ids = np.asarray(t[id_col]).astype(np.int64)
        out_ids, out_wins = [], []
        for i, h in enumerate(hm):
            u = np.unique(h)  # distinct windows within the doc
            if u.size == 0:
                continue
            out_wins.append(u)
            out_ids.append(np.full(u.size, ids[i], dtype=np.int64))
        if not out_ids:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "win": pa.array([], pa.int64())})
        return pa.table({id_col: np.concatenate(out_ids),
                         "win": np.concatenate(out_wins).view(np.int64)})

    def mark_part(g: pa.Table) -> pa.Table:
        w = np.asarray(g["win"])
        order = np.argsort(w, kind="stable")
        ws = w[order]
        # run length per sorted row → dup flag, scattered back
        cut = np.flatnonzero(np.diff(ws) != 0) + 1
        starts = np.concatenate(([0], cut))
        lens = np.diff(np.concatenate((starts, [len(ws)])))
        dup_sorted = np.repeat((lens > 1).astype(np.int64), lens)
        dup = np.empty(len(ws), dtype=np.int64)
        dup[order] = dup_sorted
        return pa.table({id_col: g[id_col], "dup": dup})

    return (exchange(ds.map_batches(win_rows, batch_format="pyarrow"),
                     "win", mark_part, n_parts)
            .groupby(id_col)
            .aggregate(Count(alias_name="n_windows"),
                       Sum("dup", alias_name="dup_windows")))



def embedding_neardup_lsh(ds: rd.Dataset, vec_col: str, id_col: str,
                          tau: float, n_planes: int = 4,
                          n_tables: int = 16, seed: int = 42) -> pd.DataFrame:
    """Approximate cosine-≥τ pairs via multi-table hyperplane LSH — the
    scale path of ``embedding_neardup_pairs``.

    Each vector lands in one bucket per table (T independent plane sets,
    Charikar '02); candidate pairs form only inside buckets, verified
    with the exact cosine there (the vectors ride the bucket shuffle:
    at b = 4 planes a bucket pairs ~1/16 of a table, too many pairs to
    attach vectors to); a pair found in several tables (3.1 tables
    per pair at sf0.1) is kept only in the first, by the codes every
    row carries. Recall for a pair at cosine c is
    1 − (1 − p^b)^T with p = 1 − arccos(c)/π, so b (planes) and T
    (tables) tune the recall/cost point: loose thresholds need many
    tables (τ=0.45 ⇒ b=4, T=16 for ~0.95), tight near-dup thresholds
    (τ≥0.9) reach the same recall with a fraction of the tables — the
    regime where LSH beats the exact triangle join. Shuffle volume is
    n·T rows; per-group work is quadratic in the bucket, which shrinks
    as planes are added — the knobs a 100-TB run sizes to its memory
    budget. Measured recall is machine-checked by the
    ``embedding_neardup_lsh_recall`` query against the exact SQL truth.
    """
    def to_buckets(t: pa.Table) -> pa.Table:
        m = _norm_rows(np.array(t[vec_col].to_pylist(), dtype=np.float64))
        # per-table planes derived from the shared seed (deterministic
        # across processes; rng must not be shared task state)
        codes = np.stack([((m @ np.random.default_rng(seed + 7919 * ti)
                            .standard_normal((n_planes, m.shape[1])).T) > 0)
                          @ (1 << np.arange(n_planes))
                          for ti in range(n_tables)], axis=1).astype(np.int32)
        rep = np.tile(np.arange(len(m)), n_tables)
        return (t.select([id_col, vec_col]).take(rep)
                .append_column("table", pa.array(np.repeat(
                    np.arange(n_tables, dtype=np.int32), len(m))))
                .append_column("code", pa.array(codes.T.reshape(-1)))
                .append_column("codes", pa.FixedSizeListArray.from_arrays(
                    pa.array(codes[rep].reshape(-1)), n_tables)))

    def bucket_pairs(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy().astype(np.int64)
        m = _norm_rows(np.array(g[vec_col].to_pylist(), dtype=np.float64))
        codes = (g["codes"].combine_chunks().flatten().to_numpy()
                 .reshape(-1, n_tables))
        ia, ib = np.nonzero(m @ m.T >= tau)
        # a pair meets in every table whose codes agree: the first owns it
        keep = ((ids[ia] < ids[ib]) & (np.argmax(
            codes[ia] == codes[ib], axis=1) == g["table"][0].as_py()))
        return pa.table({"id_a": ids[ia][keep], "id_b": ids[ib][keep]})

    return result(ds.map_batches(to_buckets, batch_format="pyarrow")
                  .groupby(["table", "code"])
                  .map_groups(bucket_pairs, batch_format="pyarrow"),
                  {"id_a": "int64", "id_b": "int64"})


# ---------------------------------------------------------------------------
# SemDeDup (semantic dedup: cluster, then prune within clusters)
# ---------------------------------------------------------------------------


def semdedup_prune(ds: rd.Dataset, vec_col: str, id_col: str,
                   tau: float = 0.45, n_centroids: int = 16,
                   iters: int = 2, m_probe: int = 1) -> pd.DataFrame:
    """SemDeDup (Abbas et al. '23, arXiv:2303.09540): k-means cluster
    the embedding space, then drop every within-cluster row whose cosine
    to an earlier row of the same cluster is ≥ τ.

    The exemplar rule is the public implementation's upper-triangular
    pass with a deterministic ordering: rows of a cluster are ordered by
    ascending id (our keep-first convention, in place of the paper's
    distance-to-centroid order) and row j is removed iff
    max_{i<j} cos(i, j) ≥ τ; its ``kept_id`` is the argmax i (ties →
    smaller id). Any removed row therefore has a *strictly earlier*
    witness, so the removed set is always a subset of the global
    no-cluster rule's — clustering costs recall, never precision, which
    is what the ``semdedup_recall`` gate measures.

    ``m_probe`` is the recall knob (the IVF multi-probe analogue): each
    vector joins its ``m_probe`` nearest clusters, so a near-dup pair is
    caught whenever the two assignment sets intersect. Shuffle volume
    scales ×m_probe and each vector scans ~m_probe/k of the corpus;
    measured recall vs the exact pair set on the synthetic embeddings:
    m=1 → 0.14–0.43, m=2 → 0.57–0.79, m=4/k=16 → 0.96–1.0.

    Scale shape: centroids come from `similarity.ivf_centroids`
    (deterministic min-id seeds + distributed Lloyd partials — the
    shuffle carries n_centroids rows per block); assignment is one
    vectorized ``map_batches`` against the broadcast centroid matrix;
    pruning is one ``groupby(cluster).map_groups`` whose per-group cost
    is a (n·m/k)² matmul — at 100 TB you grow ``n_centroids`` ∝ n (the
    paper runs 50k clusters) to hold the per-group memory constant, the
    same knob as `embedding_neardup_pairs`' n_blocks. Vectors never
    ride more than the one cluster-key exchange.

    Returns a DataFrame (removed_id, kept_id, cluster, cos), one row per
    removed document, sorted by removed_id; with m_probe > 1 a doc
    removed in several clusters collapses to its best witness (max cos,
    ties → smaller kept_id).
    """
    assert tau > 0.0, "tau must be positive (tril masking uses 0 fill)"
    from .similarity import assign_clusters, ivf_centroids
    # iterative algorithm over a fixed corpus: pin blocks once for the
    # seed pass, the Lloyd steps and the assignment pass
    ds = ds.materialize()
    cents = ivf_centroids(ds, vec_col, id_col, n_centroids, iters)
    asg = assign_clusters(ds, vec_col, id_col, cents, m_probe,
                          carry_vec=True)

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"removed_id": pd.Series([], dtype="int64"),
                              "kept_id": pd.Series([], dtype="int64"),
                              "cluster": pd.Series([], dtype="int32"),
                              "cos": pd.Series([], dtype="float64")})
        if len(g) < 2:
            return empty
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy().astype(np.int64)
        m = _norm_rows(np.array(g[vec_col].tolist(), dtype=np.float64))
        # strict lower triangle: sims[j, i] = cos(i, j) for i < j; the
        # 0-fill above the diagonal can't fire with tau > 0
        sims = np.tril(m @ m.T, k=-1)
        best = sims.argmax(axis=1)          # ties → first (smallest id)
        mx = sims[np.arange(len(ids)), best]
        rm = mx >= tau
        rm[0] = False                        # row 0 has no earlier witness
        if not rm.any():
            return empty
        return pd.DataFrame({"removed_id": ids[rm], "kept_id": ids[best[rm]],
                             "cluster": np.int32(g["cluster"].iloc[0]),
                             "cos": mx[rm]})

    out = (asg.groupby("cluster").map_groups(prune, batch_format="pandas")
           .to_pandas())
    if out.empty:
        return pd.DataFrame({"removed_id": pd.Series([], dtype="int64"),
                             "kept_id": pd.Series([], dtype="int64"),
                             "cluster": pd.Series([], dtype="int32"),
                             "cos": pd.Series([], dtype="float64")})
    # m_probe > 1: a doc can be flagged in several clusters — keep the
    # best witness (output-scale table; the collapse is on the result,
    # not the corpus)
    out = (out.sort_values(["removed_id", "cos", "kept_id"],
                           ascending=[True, False, True])
           .drop_duplicates("removed_id"))
    return out.sort_values("removed_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# paragraph-level dedup (block keep-first + document rewrite)
# ---------------------------------------------------------------------------

_PARA_CODE_SHIFT = 1 << 20  # bi < 2^20 -> docs up to ~33M tokens at block=32


def paragraph_dedup(ds: rd.Dataset, text_col: str, id_col: str,
                    block: int = 32, *,
                    threshold_bytes: int | None = None) -> rd.Dataset:
    """C4-style span-level exact dedup (Raffel et al. '20 §2.2, there on
    three-sentence spans): split every document into non-overlapping
    ``block``-token windows, keep only the globally FIRST occurrence of
    each distinct window (min ``(doc_id, bi)``), and rewrite each
    document from its surviving windows (bi order). Documents whose
    every window appeared earlier vanish entirely.

    Returns (doc_id, text_dedup, n_blocks_kept).

    Scale shape: the winner table is built from an explode that emits
    ONLY ``(hash, code)`` ints — window text never rides the keep-first
    exchange. Under the broadcast cap the rewrite is then fully
    block-local (windows of a doc are exploded inside the batch that
    holds the doc, marked against the broadcast winner map, and
    reassembled in place — zero text exchange end-to-end). Above the
    cap, winners hash-join back to the exploded windows and docs
    reassemble under one ``groupby(doc_id)`` — text rides exactly one
    exchange, which any corpus rewrite at that scale must pay.
    """
    from ..functions.corpus import token_windows
    from .joins import BROADCAST_THRESHOLD_BYTES, _materialized_size, _pull_table
    if threshold_bytes is None:
        threshold_bytes = BROADCAST_THRESHOLD_BYTES

    def explode(t: pa.Table, *, with_text: bool) -> pa.Table:
        w = token_windows(t[id_col].to_numpy(), t[text_col].to_pylist(),
                          block, block)
        h = np.asarray(rolling_hash64(w["wtxt"].combine_chunks())).view(np.int64)
        code = w["doc_id"].to_numpy() * _PARA_CODE_SHIFT + w["idx"].to_numpy()
        out = pa.table({"doc_id": w["doc_id"], "bi": w["idx"],
                        "h": pa.array(h), "code": pa.array(code)})
        if with_text:
            out = out.append_column("wtxt", w["wtxt"])
        return out

    # keep-first winners: the shuffle carries two int64s per window
    winners = (ds.map_batches(lambda t: explode(t, with_text=False),
                              batch_format="pyarrow")
               .groupby("h").aggregate(Min("code", alias_name="min_code")))
    wm, size = _materialized_size(winners)

    def assemble_pl(kept: pa.Table) -> pa.Table:
        import polars as pl
        g = (pl.from_arrow(kept)
             .sort(["doc_id", "bi"])
             .group_by("doc_id", maintain_order=True)
             .agg(text_dedup=pl.col("wtxt").str.join(" "),
                  n_blocks_kept=pl.len().cast(pl.Int64)))
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(), pa.int64()),
            "text_dedup": g["text_dedup"].to_arrow().cast(pa.string()),
            "n_blocks_kept": pa.array(g["n_blocks_kept"].to_numpy(),
                                      pa.int64())})

    if size <= threshold_bytes:
        side = _pull_table(wm)
        ref = ray.put(side.combine_chunks() if side is not None else None)

        def rewrite(t: pa.Table) -> pa.Table:
            blk = explode(t, with_text=True)
            s = ray.get(ref)
            idx = pc.index_in(blk["h"], value_set=s["h"])
            keep = pc.equal(blk["code"], s["min_code"].take(idx))
            return assemble_pl(blk.filter(keep)
                               .select(["doc_id", "bi", "wtxt"]))

        return ds.map_batches(rewrite, batch_format="pyarrow",
                              batch_size=None)

    blk = ds.map_batches(lambda t: explode(t, with_text=True),
                         batch_format="pyarrow")
    # size the join to its measured input (winner count lower-bounds
    # the window count) instead of a fixed partition count — this
    # branch exists precisely for corpora too big to broadcast
    from .joins import adaptive_partitions
    joined = blk.join(wm, join_type="inner",
                      num_partitions=adaptive_partitions(wm.count()),
                      on=("h",))

    def keep_winners(t: pa.Table) -> pa.Table:
        return (t.filter(pc.equal(t["code"], t["min_code"]))
                .select(["doc_id", "bi", "wtxt"]))

    kept = joined.map_batches(keep_winners, batch_format="pyarrow")
    return kept.groupby("doc_id").map_groups(
        lambda g: assemble_pl(g), batch_format="pyarrow")




# ---------------------------------------------------------------------------
# containment (asymmetric) near-dup
# ---------------------------------------------------------------------------


def containment_pairs(ds: rd.Dataset, text_col: str, id_col: str,
                      threshold: float = 0.8, shingle_k: int = 3,
                      n_buckets: int = 64) -> pd.DataFrame:
    """Asymmetric containment join: pairs (a, b), a ≠ b, with
    ``|Sa∩Sb| / |Sa| ≥ τ`` over k-word shingle sets — "a is contained
    in b", the subset-duplication detector (quoted articles, boiler-
    plate-wrapped copies) that symmetric Jaccard misses: a small doc
    fully quoted inside a large one has tiny Jaccard but containment 1.

    Candidate generation (prefix filter, containment variant): unlike
    Jaccard there is NO size-ratio bound between a and b, so length
    blocking is unsound. Instead the CONTAINED side emits its
    p = n − ⌈τ·n⌉ + 1 globally-rarest tokens (``pairs.prefix``: if all
    p miss Sb then |Sa∩Sb| ≤ ⌈τ·n⌉ − 1 < τ·n — pigeonhole, so every
    qualifying pair shares a prefix token) and the CONTAINER side posts
    ALL its tokens — the standard asymmetric prefix-index shape, which
    ``pairs.candidates``' symmetric run kernel cannot express. One
    coarse token-bucket exchange of LIGHT (tok, id, role) rows yields
    candidate (probe, index) pairs from one polars join per block;
    shingle sets never ride the exchange (the index side would cost
    O(n²) bytes per doc).

    Verify: ``pairs.verify`` attaches both docs' shingle sets to each
    deduped candidate pair — broadcast under the cap, exchanged on the
    ids above it — and scores batches in parallel with one polars (pair, hash)
    join each. Integer gate ``inter·1000 ≥ ⌈τ·1000⌉·n_a`` — hash-exact
    against a SQL oracle.

    Ids must fit 31 bits (0 ≤ id < 2³¹): candidate pairs pack into one
    int64 key (``pairs.check_ids``). Other ids raise ``ValueError``.

    Returns (contained_id, container_id, inter_n, n_contained)."""
    thr_mille = int(round(threshold * 1000))
    check_ids(ds, id_col)
    rank = token_rank(ds, text_col, shingle_k)

    # light probe (prefix, role 0) + index (all-token, role 1) rows
    def emit_roles(t: pa.Table) -> pa.Table:
        hs = shingle_sets(t[text_col], shingle_k)
        ids = np.asarray(t[id_col], dtype=np.int64)
        rows, ptok = prefix(hs, ray.get(rank), thr_mille)
        every, n = flat(hs)
        return pa.table({
            "tok": np.concatenate([ptok, every.view(np.int64)]),
            "id": np.concatenate([
                ids[rows], np.repeat(ids, n)]),
            "role": np.repeat(np.arange(2, dtype=np.int64),
                              [len(ptok), len(every)])})

    def bucket_cands(t: pa.Table) -> pa.Table:
        # probes x indexes per shared token as ONE vectorized polars
        # inner join (a per-token-run Python loop measured 20+ s at
        # sf0.1); the packed key makes the pairs unique
        import polars as pl
        df = pl.from_arrow(t).unique(["tok", "id", "role"])
        pr = (df.filter(pl.col("role") == 0)
              .select(["tok", pl.col("id").alias("id_a")]))
        ix = (df.filter(pl.col("role") == 1)
              .select(["tok", pl.col("id").alias("id_b")]))
        j = (pr.join(ix, on="tok")
             .filter(pl.col("id_a") != pl.col("id_b")))
        a, b = unpack(np.unique(pack(j["id_a"].to_numpy(),
                                     j["id_b"].to_numpy())))
        return pa.table({"id_a": a, "id_b": b})

    cand = distinct(exchange(ds.map_batches(emit_roles, batch_format="pyarrow"),
                             "tok", bucket_cands, n_buckets), n_buckets)
    sets = ds.map_batches(lambda t: pa.table({
        id_col: pc.cast(t[id_col], pa.int64()),
        "hs": shingle_sets(t[text_col], shingle_k)}), batch_format="pyarrow")

    def score(t: pa.Table) -> pa.Table:
        na, _, inter = intersect_sizes(t["hs_a"], t["hs_b"])
        keep = (na > 0) & (inter * 1000 >= thr_mille * na)
        return pa.table({"contained_id": t["id_a"].filter(pa.array(keep)),
                         "container_id": t["id_b"].filter(pa.array(keep)),
                         "inter_n": inter[keep], "n_contained": na[keep]})

    return result(verify(cand, sets, id_col, ["hs"], score),
                  {"contained_id": "int64", "container_id": "int64",
                   "inter_n": "int64", "n_contained": "int64"})
