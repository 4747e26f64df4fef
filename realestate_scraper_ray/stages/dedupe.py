"""Deduplication stages over Ray Data Datasets.

Each operator is expressed Ray-Data-first (vectorized ``map_batches`` to
compute signatures, ``groupby`` on the bucket key for the shuffle,
``map_groups`` for within-bucket work), mirroring the pattern the crawl
engine uses for its URL-seen set (hash-partition + per-group first).

Operators:
  - exact:       hash-partition on content hash, keep-first (min id)
  - MinHash+LSH: shingle → minhash → band → bucket groupby → candidate
                 pairs → exact-Jaccard verification (Broder '97)
  - SimHash:     64-bit simhash → 16-bit band buckets → Hamming verify
                 (Charikar '02)
  - n-gram Jaccard: blocking by (length bucket) → exact pairwise Jaccard
  - embedding near-dup: cosine ≥ τ pairs via blocked matmul against a
                 broadcast matrix (scale path: hyperplane-LSH buckets)

Verification joins need both texts of a candidate pair; they run as two
hash-partitioned ``Dataset.join``s (pairs ⋈ texts on id_a, then on
id_b) followed by a vectorized per-pair Jaccard — fully distributed, no
driver-side text map at any scale.

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
from ray.data.aggregate import Count, Max, Min

from ..functions.textstats import (
    minhash_signatures, rolling_hash64, simhash64,
)
from .exchange import exchange

_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a contiguous uint64 array (byte LUT)."""
    return _POP8[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1)


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

    shingle→minhash per batch (vectorized) → explode to
    (band, band_hash, id) rows → groupby bucket → within-bucket pairs →
    dedupe pairs → exact-Jaccard verify against the broadcast text map.
    """
    rows_per_band = num_perm // bands

    n_parts = 64  # coarse shuffle partitions (≫ buckets per group at scale)

    def to_bands(t: pa.Table) -> pa.Table:
        sig = minhash_signatures(t[text_col].combine_chunks(), num_perm, shingle_k)
        n = len(sig)
        band_hash = np.empty((n, bands), dtype=np.uint64)
        for b in range(bands):
            chunk = sig[:, b * rows_per_band:(b + 1) * rows_per_band]
            h = np.full(n, 1469598103934665603, dtype=np.uint64)
            for c in range(rows_per_band):
                h = (h ^ chunk[:, c]) * np.uint64(1099511628211)
            band_hash[:, b] = h
        ids = np.repeat(np.asarray(t[id_col]), bands)
        flat = band_hash.reshape(-1)
        return pa.table({
            id_col: ids,
            "band": np.tile(np.arange(bands, dtype=np.int32), n),
            # int64 view: groupby keys must stay in Python-int-safe range
            "band_hash": flat.view(np.int64),
        })

    def part_pairs(t: pa.Table) -> pd.DataFrame:
        # within one partition: only buckets with ≥2 members can emit
        # pairs — prefilter with a vectorized duplicated() mask, then
        # loop over just those (rare) buckets
        g = t.to_pandas()
        d = g[g.duplicated(["band", "band_hash"], keep=False)]
        if d.empty:
            return pd.DataFrame({"id_a": [], "id_b": []})
        ia, ib = [], []
        for _, grp in d.groupby(["band", "band_hash"], sort=False):
            ids = np.sort(grp[id_col].to_numpy())
            a, b = np.triu_indices(len(ids), k=1)
            ia.append(ids[a]); ib.append(ids[b])
        return pd.DataFrame({"id_a": np.concatenate(ia),
                             "id_b": np.concatenate(ib)})

    # coarse partitions: one fold call per partition, not per LSH bucket
    # (a per-bucket UDF call is the scale killer at ~1 bucket per
    # document × bands)
    cand = (exchange(ds.map_batches(to_bands, batch_format="pyarrow"),
                     "band_hash", part_pairs, n_parts)
            .groupby(["id_a", "id_b"])
            .aggregate(Count(alias_name="n_buckets"))
            .materialize())  # small (pairs only); joined twice below
    if cand.count() == 0:
        return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    out = _verify_pairs_jaccard(cand, ds, id_col, text_col, shingle_k, threshold)
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _verify_pairs_jaccard(cand: rd.Dataset, ds: rd.Dataset, id_col: str,
                          text_col: str, shingle_k: int,
                          threshold: float) -> pd.DataFrame:
    """Distributed exact-Jaccard verify, adaptive like stages/joins.py:
    the text table is first semi-filtered to ids that appear in a
    candidate pair (a broadcast ``pc.is_in`` — the pair-id set is small
    by LSH construction). If the surviving texts fit under the broadcast
    cap they ship once via ``ray.put`` and pairs score against the map;
    otherwise both sides stay distributed through two hash-partitioned
    ``Dataset.join``s. Driver exposure is O(cap) either way.
    Boundary-exact: keep iff len(∩)·1000 ≥ round(θ·1000)·len(∪)."""
    from .joins import BROADCAST_THRESHOLD_BYTES, _pull_table
    thr_mille = int(round(threshold * 1000))

    pair_tbl = _pull_table(cand)  # pairs are small (LSH bucket output)
    pair_ids = pa.chunked_array([pair_tbl["id_a"].combine_chunks(),
                                 pair_tbl["id_b"].combine_chunks()]).unique()
    ids_ref = ray.put(pair_ids)

    texts_needed = ds.map_batches(
        lambda t: pa.table({id_col: t[id_col], text_col: t[text_col]}).filter(
            pc.is_in(t[id_col], value_set=ray.get(ids_ref))),
        batch_format="pyarrow").materialize()

    if (texts_needed.size_bytes() or 0) <= BROADCAST_THRESHOLD_BYTES:
        ttbl = _pull_table(texts_needed)
        tmap_ref = ray.put(dict(zip(ttbl[id_col].to_pylist(),
                                    ttbl[text_col].to_pylist()))
                           if ttbl is not None else {})

        def attach(t: pa.Table) -> pa.Table:
            m = ray.get(tmap_ref)
            return t.append_column(
                "text_a", pa.array([m.get(i) for i in t["id_a"].to_pylist()],
                                   pa.string())).append_column(
                "text_b", pa.array([m.get(i) for i in t["id_b"].to_pylist()],
                                   pa.string()))

        joined = cand.map_batches(attach, batch_format="pyarrow")
    else:
        def side(suffix: str) -> rd.Dataset:
            return texts_needed.map_batches(
                lambda t, s=suffix: pa.table({f"key_{s}": t[id_col],
                                              f"text_{s}": t[text_col]}),
                batch_format="pyarrow")

        joined = (cand.join(side("a"), join_type="inner", num_partitions=8,
                            on=("id_a",), right_on=("key_a",))
                  .join(side("b"), join_type="inner", num_partitions=8,
                        on=("id_b",), right_on=("key_b",)))

    def score(t: pa.Table) -> pa.Table:
        """Vectorized pair verify: per-doc distinct shingle hashes
        (the same 64-bit shingle basis as ngram_jaccard_pairs — one
        sliding-window hash pass per doc, no Python set per pair),
        intersections via one polars (pair, hash) inner join."""
        import polars as pl

        from ..functions.textstats import _hash_tokens_matrix
        if t.num_rows == 0:
            return pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                             "jaccard": pa.array([], pa.float64())})
        ha = [np.unique(h) for h in _hash_tokens_matrix(
            t["text_a"].to_pylist(), shingle_k)]
        hb = [np.unique(h) for h in _hash_tokens_matrix(
            t["text_b"].to_pylist(), shingle_k)]
        na = np.array([len(h) for h in ha], np.int64)
        nb = np.array([len(h) for h in hb], np.int64)
        idx = np.arange(len(ha))
        side_a = pl.DataFrame({
            "i": np.repeat(idx, na),
            "h": np.concatenate(ha) if ha else np.empty(0, np.uint64)})
        side_b = pl.DataFrame({
            "i": np.repeat(idx, nb),
            "h": np.concatenate(hb) if hb else np.empty(0, np.uint64)})
        hit = (side_a.join(side_b, on=["i", "h"], how="inner")
               .group_by("i").len())
        inter = np.zeros(len(ha), np.int64)
        inter[hit["i"].to_numpy()] = hit["len"].to_numpy().astype(np.int64)
        union = na + nb - inter
        keep = ((na + nb) > 0) & (inter * 1000 >= thr_mille * union)
        kmask = pa.array(keep)
        jac = inter[keep] / np.maximum(1, union[keep])
        return pa.table({"id_a": t["id_a"].filter(kmask),
                         "id_b": t["id_b"].filter(kmask),
                         "jaccard": pa.array(jac, pa.float64())})

    rows = joined.map_batches(score, batch_format="pyarrow").take_all()
    if not rows:
        return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    return pa.Table.from_pylist(rows).to_pandas()


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_pairs(ds: rd.Dataset, text_col: str, id_col: str,
                  max_hamming: int = 3) -> pd.DataFrame:
    """Near-dup pairs by SimHash: 4×16-bit band buckets (any pair within
    Hamming ≤ 3 of a 64-bit hash shares at least one exact 16-bit band —
    pigeonhole), verified by exact Hamming distance."""

    n_parts = 64

    def to_bands(t: pa.Table) -> pa.Table:
        sh = simhash64(t[text_col].combine_chunks())
        n = len(sh)
        bands = np.stack([(sh >> np.uint64(16 * b)) & np.uint64(0xFFFF)
                          for b in range(4)], axis=1)
        flat = bands.reshape(-1)
        return pa.table({
            id_col: np.repeat(np.asarray(t[id_col]), 4),
            "simhash": np.repeat(sh, 4).view(np.int64),
            "band": np.tile(np.arange(4, dtype=np.int32), n),
            "band_val": flat.view(np.int64),
        })

    def part_pairs(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()
        d = g[g.duplicated(["band", "band_val"], keep=False)]
        if d.empty:
            return pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
        ia, ib, hm = [], [], []
        for _, grp in d.groupby(["band", "band_val"], sort=False):
            grp = grp.sort_values(id_col)
            ids = grp[id_col].to_numpy()
            hs = grp["simhash"].to_numpy().view(np.uint64)
            a, b = np.triu_indices(len(ids), k=1)
            ham = _popcount64(np.ascontiguousarray(hs[a] ^ hs[b]))
            keep = ham <= max_hamming
            ia.append(ids[a][keep]); ib.append(ids[b][keep]); hm.append(ham[keep])
        return pd.DataFrame({"id_a": np.concatenate(ia),
                             "id_b": np.concatenate(ib),
                             "hamming": np.concatenate(hm)})

    out = (exchange(ds.map_batches(to_bands, batch_format="pyarrow"),
                    "band_val", part_pairs, n_parts)
           .groupby(["id_a", "id_b"])
           .aggregate(Min("hamming", alias_name="hamming"))
           .to_pandas())
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


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
    (triangle) self-join over ``n_shards`` id-hash shards — each row
    replicates to the shard pairs it participates in and one
    ``map_groups`` task handles one (block, si, sj) cell, bounding
    per-task memory to ~2·n_block/n_shards docs and parallelizing the
    comparisons; every qualifying pair co-occurs in exactly one cell
    of its block. Choose n_shards ≈ n_block·bytes_per_set /
    task_mem_budget at scale. This exact operator is the oracle-grade
    path (ground truth for ``dedup_minhash_recall``); the 100-TB
    near-dup path is ``minhash_lsh_pairs`` (same exact verify,
    LSH-pruned candidates)."""
    r = 1.0 / threshold
    log_r = np.log(r)
    thr_mille = int(round(threshold * 1000))

    from ..functions.textstats import _hash_tokens_matrix

    def add_bucket(t: pa.Table) -> pa.Table:
        # shingle once per doc HERE and ship the distinct-hash blob —
        # not the text — through the (block, si, sj) replication: the
        # 2·n_shards replicas then cost bytes-of-hashes each, and the
        # verify cells never re-tokenize (the old path re-hashed every
        # doc once per replica)
        texts = t[text_col].to_pylist()
        hms = [np.unique(h) for h in _hash_tokens_matrix(texts, shingle_k)]
        n_sh = np.array([max(1, len(h)) for h in hms], dtype=np.float64)
        b = np.floor(np.log(n_sh) / log_r).astype(np.int32)
        base = pa.table({
            id_col: t[id_col],
            "hblob": pa.array([h.tobytes() for h in hms], pa.binary())})
        shard = (np.asarray(t[id_col]).astype(np.int64) % n_shards).astype(np.int32)
        reps = []
        for blk in (b, b + 1):
            for j in range(n_shards):
                reps.append(base.append_column("block", pa.array(blk))
                            .append_column("s", pa.array(shard))
                            .append_column("si", pa.array(np.minimum(shard, j)))
                            .append_column("sj", pa.array(np.maximum(shard, j))))
        return pa.concat_tables(reps)

    def cell_pairs(g: pd.DataFrame) -> pd.DataFrame:
        """Run-based candidate counting instead of an all-pairs set
        loop: shingle occurrences are sorted, each run of a shared
        shingle emits its doc pairs, and one np.unique gives exact
        intersection counts for CANDIDATE pairs only — docs that share
        nothing never form a pair, so work is O(shared occurrences),
        not O(n² · set size)."""
        empty = pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
        si, sj = int(g["si"].iloc[0]), int(g["sj"].iloc[0])
        g = g.drop_duplicates([id_col, "s"]).sort_values(id_col)
        ids = g[id_col].to_numpy()
        sides = g["s"].to_numpy()
        hm = [np.frombuffer(b, dtype=np.uint64) for b in g["hblob"]]
        sizes = np.array([len(h) for h in hm], dtype=np.int64)
        n = len(ids)
        if n < 2:
            return empty
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), sizes)
        all_h = (np.concatenate([h for h in hm if h.size])
                 if sizes.sum() else np.empty(0, np.uint64))
        order = np.argsort(all_h, kind="stable")
        h_sorted, d_sorted = all_h[order], doc_idx[order]
        # run boundaries of equal shingle hash
        cut = np.flatnonzero(np.diff(h_sorted) != 0) + 1
        starts = np.concatenate(([0], cut))
        ends = np.concatenate((cut, [len(h_sorted)]))
        keys = []
        for s, e in zip(starts.tolist(), ends.tolist()):
            m = e - s
            if m < 2:
                continue
            dd = np.sort(d_sorted[s:e])
            ii, jj = np.triu_indices(m, 1)
            keys.append(dd[ii] * n + dd[jj])
        if not keys:
            return empty
        pair_keys, inter = np.unique(np.concatenate(keys), return_counts=True)
        a_idx, b_idx = pair_keys // n, pair_keys % n
        # exactly-once cell semantics: the diagonal cell owns same-shard
        # pairs, an off-diagonal cell owns cross-shard pairs
        if si == sj:
            keep = sides[a_idx] == sides[b_idx]
        else:
            keep = sides[a_idx] != sides[b_idx]
        a_idx, b_idx, inter = a_idx[keep], b_idx[keep], inter[keep]
        union = sizes[a_idx] + sizes[b_idx] - inter
        ok = inter * 1000 >= thr_mille * union
        if not ok.any():
            return empty
        a, b = ids[a_idx[ok]], ids[b_idx[ok]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pd.DataFrame({"id_a": lo, "id_b": hi,
                             "jaccard": inter[ok] / np.maximum(1, union[ok])})

    out = (ds.map_batches(add_bucket, batch_format="pyarrow")
           .groupby(["block", "si", "sj"])
           .map_groups(cell_pairs, batch_format="pandas")
           .groupby(["id_a", "id_b"])
           .aggregate(Min("jaccard", alias_name="jaccard"))
           .to_pandas())
    if out.empty:
        return pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


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

    Plan (ONE shuffle — the verify-bucket groupby):
      1. token document frequency — per-batch distinct-token combiner,
         vocab-sized partials summed driver-side (the rank table is
         driver-resident anyway since it is broadcast via ``ray.put``);
         u64 token hashes + int ranks; at 100 TB swap for a hash join
         of ranks onto exploded prefix tokens — same plan shape, noted
         not built.
      2. each doc emits its prefix tokens (p = n − ⌈τ·n⌉ + 1 rarest
         tokens; any qualifying pair must share ≥1 — the AllPairs
         bound) carrying (side, id, n, sorted-distinct-hash blob);
         ``groupby`` on a COARSE hash bucket of the prefix token
         (``n_verify_buckets`` tasks — prefix groups average a handful
         of rows, and one map_groups per group pays the tiny-pandas
         overhead ~20k times at sf0.1).
      3. one vectorized ``map_groups`` per bucket: after the
         (ptok, id, side) dedup every bucket row belongs to exactly one
         prefix group, so run-based exact intersection counting over
         (ptok, shingle) runs (shared-token runs emit row-pair counts —
         O(occurrences), never O(n²·set)) preserves per-group semantics
         in ONE np.unique over row-pair keys; cross-side pairs only,
         integer-exact τ gate; a pair verified in several groups
         carries identical exact counts — twins drop inside the task
         and once more on the driver-side (output-sized) result frame.
    Size ``n_verify_buckets`` ≈ total-prefix-blob-bytes / task budget
    at scale (each bucket materializes its groups' hash blobs once).

    Returns (r_id, s_id, inter_n, union_n) with
    inter·1000 ≥ ⌈τ·1000⌉·union — integer-exact against a SQL oracle.
    """
    thr_mille = int(round(threshold * 1000))

    from ..functions.textstats import _hash_tokens_matrix

    def _tok_sets(texts: list[str]) -> list[np.ndarray]:
        return [np.unique(h) for h in _hash_tokens_matrix(texts, shingle_k)]

    # -- pass 1: global token df → rarest-first rank ------------------------
    def df_partial(t: pa.Table) -> pa.Table:
        hs = _tok_sets(t[text_col].to_pylist())
        nz = [h for h in hs if h.size]
        if not nz:
            return pa.table({"tok": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64())})
        tok, cnt = np.unique(np.concatenate(nz), return_counts=True)
        return pa.table({"tok": tok.view(np.int64),
                         "df": cnt.astype(np.int64)})

    # combine the per-batch df partials driver-side: the rank table is
    # ALREADY driver-resident (it is broadcast via ray.put below), so
    # summing vocab-sized partials here adds no new scale assumption
    # while skipping Ray's sort-based aggregate — seconds of fixed
    # overhead on ~vocab×n_blocks partial rows (same idiom as the
    # triangle-count small path, graph.py)
    ptabs = [t for t in ray.get(
        ds.map_batches(df_partial, batch_format="pyarrow")
        .materialize().to_arrow_refs()) if t.num_rows]
    if ptabs:
        ptok = np.concatenate(
            [t["tok"].to_numpy(zero_copy_only=False) for t in ptabs])
        pdfc = np.concatenate(
            [t["df"].to_numpy(zero_copy_only=False) for t in ptabs])
        toks, inv = np.unique(ptok, return_inverse=True)
        dfs = np.bincount(inv, weights=pdfc).astype(np.int64)
    else:
        toks = np.empty(0, dtype=np.int64)
        dfs = np.empty(0, dtype=np.int64)
    # rank 0 = rarest; ties by token hash for a total order shared by
    # every worker. Stored token-sorted so lookups are one searchsorted.
    order = np.lexsort((toks, dfs))
    rank = np.empty(len(toks), dtype=np.int64)
    rank[order] = np.arange(len(toks), dtype=np.int64)
    tsort = np.argsort(toks, kind="stable")
    rank_ref = ray.put((toks[tsort], rank[tsort]))

    # -- pass 2: prefix-token emission --------------------------------------
    def emit_prefix(t: pa.Table) -> pa.Table:
        tok_sorted, rank_sorted = ray.get(rank_ref)
        hs = _tok_sets(t[text_col].to_pylist())
        ids = np.asarray(t[id_col], dtype=np.int64)
        sides = np.asarray(t[side_col], dtype=np.int64)
        ptok, pid, pside, pn, blobs = [], [], [], [], []
        for h, i, s in zip(hs, ids.tolist(), sides.tolist()):
            n = len(h)
            if n == 0:
                continue
            hv = h.view(np.int64)
            r = rank_sorted[np.searchsorted(tok_sorted, hv)]
            # integer ceiling from the SAME thr_mille the verify gate
            # uses: float ceil(threshold*n) overshoots when t*n lands
            # on a representation error (0.07*100 = 7.000…01 → ceil 8),
            # silently shortening the prefix and dropping true pairs
            p = n - (thr_mille * n + 999) // 1000 + 1
            pref = hv[np.argsort(r, kind="stable")[:p]]
            ptok.append(pref)
            pid.append(np.full(p, i, dtype=np.int64))
            pside.append(np.full(p, s, dtype=np.int64))
            pn.append(np.full(p, n, dtype=np.int64))
            blobs.extend([h.tobytes()] * p)
        if not ptok:
            return pa.table({"ptok": pa.array([], pa.int64()),
                             "id": pa.array([], pa.int64()),
                             "side": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "hblob": pa.array([], pa.binary())})
        return pa.table({"ptok": np.concatenate(ptok),
                         "id": np.concatenate(pid),
                         "side": np.concatenate(pside),
                         "n": np.concatenate(pn),
                         "hblob": pa.array(blobs, pa.binary())})

    # -- pass 3: bucketed exact verify ---------------------------------------
    # One vectorized pass per COARSE bucket of prefix-token groups. After
    # the (ptok, id, side) dedup each bucket row belongs to exactly one
    # prefix group, so a row-index pair can only form inside its group's
    # (ptok, shingle) runs — per-group semantics fall out of the global
    # np.unique over row-pair keys with no per-group Python or pandas.
    def bucket_verify(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"r_id": pd.Series([], dtype="int64"),
                              "s_id": pd.Series([], dtype="int64"),
                              "inter_n": pd.Series([], dtype="int64"),
                              "union_n": pd.Series([], dtype="int64")})
        from .graph import _pairs_within_runs
        # a pair is (id, side): R and S may be separate relations with
        # overlapping id spaces, so id alone would drop a real member
        g = g.drop_duplicates(["ptok", "id", "side"])
        m = len(g)
        if m < 2:
            return empty
        ids = g["id"].to_numpy()
        sides = g["side"].to_numpy()
        sizes = g["n"].to_numpy()
        gid = g["ptok"].to_numpy()
        hm = [np.frombuffer(b, dtype=np.uint64) for b in g["hblob"]]
        row_idx = np.repeat(np.arange(m, dtype=np.int64), sizes)
        occ_gid = np.repeat(gid, sizes)
        all_h = np.concatenate(hm)
        o = np.lexsort((all_h, occ_gid))
        gs, hs_, d_sorted = occ_gid[o], all_h[o], row_idx[o]
        change = np.r_[True, (gs[1:] != gs[:-1]) | (hs_[1:] != hs_[:-1])]
        fi, si = _pairs_within_runs(np.cumsum(change))
        if fi.size == 0:
            return empty
        a, b = d_sorted[fi], d_sorted[si]
        key = np.minimum(a, b) * m + np.maximum(a, b)
        pair_keys, inter = np.unique(key, return_counts=True)
        a_idx, b_idx = pair_keys // m, pair_keys % m
        cross = sides[a_idx] != sides[b_idx]
        a_idx, b_idx, inter = a_idx[cross], b_idx[cross], inter[cross]
        union = sizes[a_idx] + sizes[b_idx] - inter
        ok = inter * 1000 >= thr_mille * union
        if not ok.any():
            return empty
        a_idx, b_idx, inter, union = a_idx[ok], b_idx[ok], inter[ok], union[ok]
        r_is_a = sides[a_idx] == 0
        out = pd.DataFrame({
            "r_id": np.where(r_is_a, ids[a_idx], ids[b_idx]),
            "s_id": np.where(r_is_a, ids[b_idx], ids[a_idx]),
            "inter_n": inter.astype(np.int64),
            "union_n": union.astype(np.int64)})
        # a pair verified under several prefix groups of this bucket
        # carries identical exact (inter, union) — drop twins here so
        # only distinct pairs leave the task
        return out.drop_duplicates(["r_id", "s_id"])

    # the result is returned driver-side regardless; a pair verified in
    # several prefix groups carries IDENTICAL exact (inter_n, union_n)
    # in each, so the cross-group dedup is a plain drop_duplicates on
    # the output-sized frame — no sort-based Min aggregate needed
    # coarse verify buckets: ~n_verify_buckets fold tasks instead of one
    # per prefix token (sf0.1 measured 20k groups of mean 6.5 rows — the
    # per-tiny-group overhead pathology)
    vtabs = [t for t in ray.get(
        exchange(ds.map_batches(emit_prefix, batch_format="pyarrow"),
                 "ptok", lambda t: bucket_verify(t.to_pandas()),
                 n_verify_buckets)
        .materialize().to_arrow_refs()) if t.num_rows]
    if not vtabs:
        return pd.DataFrame({"r_id": pd.Series([], dtype="int64"),
                             "s_id": pd.Series([], dtype="int64"),
                             "inter_n": pd.Series([], dtype="int64"),
                             "union_n": pd.Series([], dtype="int64")})
    out = (pa.concat_tables(vtabs).to_pandas()
           .drop_duplicates(["r_id", "s_id"]))
    return (out.astype("int64").sort_values(["r_id", "s_id"])
            .reset_index(drop=True))


# ---------------------------------------------------------------------------
# embedding near-dup (cosine)
# ---------------------------------------------------------------------------


def embedding_neardup_pairs(ds: rd.Dataset, vec_col: str, id_col: str,
                            tau: float, n_blocks: int = 4) -> pd.DataFrame:
    """Exact pairs (id_a < id_b) with cosine similarity ≥ τ, as a
    distributed block-pair (triangle) self-join.

    Rows hash into ``n_blocks`` blocks; each row is replicated to every
    unordered block pair it participates in, one ``map_groups`` task per
    (bi, bj) runs the cross (or upper-triangular) matmul. Shuffle volume
    is n·n_blocks rows and per-group memory is ~2n/n_blocks vectors —
    choose n_blocks ≈ n·dim·8 / group_mem_budget at scale. No driver
    materialization and no full-matrix broadcast; exactness is preserved
    (every pair co-occurs in exactly one group). The approximate
    alternative for much larger n is hyperplane-LSH bucketing
    (similarity.hyperplane_codes) at the cost of recall."""

    def replicate(t: pa.Table) -> pd.DataFrame:
        df = t.select([id_col, vec_col]).to_pandas()
        b = (df[id_col].to_numpy().astype(np.int64) % n_blocks).astype(np.int32)
        df["b"] = b
        out = []
        for j in range(n_blocks):
            rep = df.copy()
            rep["bi"] = np.minimum(b, j)
            rep["bj"] = np.maximum(b, j)
            out.append(rep)
        return pd.concat(out, ignore_index=True)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                              "id_b": pd.Series([], dtype="int64"),
                              "cos": pd.Series([], dtype="float64")})
        bi, bj = int(g["bi"].iloc[0]), int(g["bj"].iloc[0])
        g = g.drop_duplicates([id_col, "b"])
        if bi == bj:
            ids = g[id_col].to_numpy()
            m = np.array(g[vec_col].tolist(), dtype=np.float64)
            m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
            sims = m @ m.T
            ia, ib = np.nonzero(sims >= tau)
            keep = ids[ia] < ids[ib]
            ia, ib = ia[keep], ib[keep]
            if ia.size == 0:
                return empty
            return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib],
                                 "cos": sims[ia, ib]})
        gi, gj = g[g["b"] == bi], g[g["b"] == bj]
        if gi.empty or gj.empty:
            return empty
        ids_i, ids_j = gi[id_col].to_numpy(), gj[id_col].to_numpy()
        mi = np.array(gi[vec_col].tolist(), dtype=np.float64)
        mj = np.array(gj[vec_col].tolist(), dtype=np.float64)
        mi /= np.maximum(np.linalg.norm(mi, axis=1, keepdims=True), 1e-12)
        mj /= np.maximum(np.linalg.norm(mj, axis=1, keepdims=True), 1e-12)
        sims = mi @ mj.T
        ia, ib = np.nonzero(sims >= tau)
        if ia.size == 0:
            return empty
        a, b = ids_i[ia], ids_j[ib]
        return pd.DataFrame({"id_a": np.minimum(a, b), "id_b": np.maximum(a, b),
                             "cos": sims[ia, ib]})

    out_rows = (ds.map_batches(replicate, batch_format="pyarrow")
                .groupby(["bi", "bj"])
                .map_groups(pairs, batch_format="pandas")
                .take_all())
    if not out_rows:
        return pd.DataFrame({"id_a": [], "id_b": [], "cos": []})
    out = pa.Table.from_pylist(out_rows).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


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
    with the exact cosine; cross-table duplicates collapse in a final
    pair-key groupby. Recall for a pair at cosine c is
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
    def to_buckets(t: pa.Table) -> pd.DataFrame:
        df = t.select([id_col, vec_col]).to_pandas()
        m = np.array(df[vec_col].tolist(), dtype=np.float64)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        # per-table planes derived from the shared seed (deterministic
        # across processes; rng must not be shared task state)
        out = []
        for ti in range(n_tables):
            planes = np.random.default_rng(seed + 7919 * ti).standard_normal(
                (n_planes, m.shape[1]))
            codes = ((m @ planes.T) > 0) @ (1 << np.arange(n_planes))
            rep = df.copy()
            rep["table"] = np.int32(ti)
            rep["code"] = codes.astype(np.int32)
            out.append(rep)
        return pd.concat(out, ignore_index=True)

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                              "id_b": pd.Series([], dtype="int64")})
        if len(g) < 2:
            return empty
        ids = g[id_col].to_numpy().astype(np.int64)
        m = np.array(g[vec_col].tolist(), dtype=np.float64)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = m @ m.T
        ia, ib = np.nonzero(sims >= tau)
        keep = ids[ia] < ids[ib]
        ia, ib = ia[keep], ib[keep]
        if ia.size == 0:
            return empty
        return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib]})

    out = (ds.map_batches(to_buckets, batch_format="pyarrow")
           .groupby(["table", "code"])
           .map_groups(bucket_pairs, batch_format="pandas")
           .groupby(["id_a", "id_b"])   # collapse cross-table duplicates
           .aggregate(Count(alias_name="_t"))
           .to_pandas())
    if out.empty:
        return pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                             "id_b": pd.Series([], dtype="int64")})
    return (out[["id_a", "id_b"]].astype("int64")
            .sort_values(["id_a", "id_b"]).reset_index(drop=True))


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
        m = np.array(g[vec_col].tolist(), dtype=np.float64)
        m /= np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
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
    p = n − ⌈τ·n⌉ + 1 globally-rarest tokens (if all p miss Sb then
    |Sa∩Sb| ≤ ⌈τ·n⌉ − 1 < τ·n — pigeonhole, so every qualifying pair
    shares a prefix token) and the CONTAINER side posts ALL its tokens
    — the standard asymmetric prefix-index shape. One coarse
    token-bucket exchange of LIGHT (tok, id, role) rows yields
    candidate (probe, index) pairs from shared-token runs; blobs never
    ride the exchange (the index side would cost O(n²) bytes per doc).

    Verify: exact intersections for the deduped candidate pairs — the
    pair set and its texts are candidate-output-scale, pulled once and
    scored in one vectorized polars (pair, hash) join; a corpus-scale
    candidate set would swap in the `_verify_pairs_jaccard` adaptive
    attach (broadcast under the cap, hash join above — same shape,
    different gate). Integer gate ``inter·1000 ≥ ⌈τ·1000⌉·n_a`` —
    hash-exact against a SQL oracle.

    Ids must fit 31 bits (0 ≤ id < 2³¹): candidate pairs pack into one
    int64 key — the same contract as ``fuzzy.fuzzy_selfjoin_editdist``.
    Other ids raise ``ValueError``.

    Returns (contained_id, container_id, inter_n, n_contained)."""
    thr_mille = int(round(threshold * 1000))
    bounds = ds.select_columns([id_col]).aggregate(
        Min(id_col, alias_name="lo"), Max(id_col, alias_name="hi"))
    if bounds["lo"] is not None and not (
            0 <= bounds["lo"] and bounds["hi"] < (1 << 31)):
        raise ValueError(f"containment_pairs: {id_col} must be in "
                         f"[0, 2**31), got [{bounds['lo']}, {bounds['hi']}]")

    from ..functions.textstats import _hash_tokens_matrix

    def _tok_sets(texts: list[str]) -> list[np.ndarray]:
        return [np.unique(h) for h in _hash_tokens_matrix(texts, shingle_k)]

    # pass 1: global token df -> rarest-first rank (the
    # similarity_join_jaccard idiom: vocab-sized partials folded
    # driver-side because the rank table is broadcast anyway)
    def df_partial(t: pa.Table) -> pa.Table:
        hs = _tok_sets(t[text_col].to_pylist())
        nz = [h for h in hs if h.size]
        if not nz:
            return pa.table({"tok": pa.array([], pa.int64()),
                             "df": pa.array([], pa.int64())})
        tok, cnt = np.unique(np.concatenate(nz), return_counts=True)
        return pa.table({"tok": tok.view(np.int64),
                         "df": cnt.astype(np.int64)})

    ptabs = [t for t in ray.get(
        ds.map_batches(df_partial, batch_format="pyarrow")
        .materialize().to_arrow_refs()) if t.num_rows]
    if ptabs:
        ptok = np.concatenate(
            [t["tok"].to_numpy(zero_copy_only=False) for t in ptabs])
        pdfc = np.concatenate(
            [t["df"].to_numpy(zero_copy_only=False) for t in ptabs])
        toks, inv = np.unique(ptok, return_inverse=True)
        dfs = np.bincount(inv, weights=pdfc).astype(np.int64)
    else:
        toks = np.empty(0, dtype=np.int64)
        dfs = np.empty(0, dtype=np.int64)
    order = np.lexsort((toks, dfs))
    rank = np.empty(len(toks), dtype=np.int64)
    rank[order] = np.arange(len(toks), dtype=np.int64)
    tsort = np.argsort(toks, kind="stable")
    rank_ref = ray.put((toks[tsort], rank[tsort]))

    # pass 2: light probe (prefix) + index (all-token) rows
    def emit_roles(t: pa.Table) -> pa.Table:
        tok_sorted, rank_sorted = ray.get(rank_ref)
        hs = _tok_sets(t[text_col].to_pylist())
        ids = np.asarray(t[id_col], dtype=np.int64)
        otok, oid, orole = [], [], []
        for h, i in zip(hs, ids.tolist()):
            n = len(h)
            if n == 0:
                continue
            hv = h.view(np.int64)
            p = n - (thr_mille * n + 999) // 1000 + 1
            r = rank_sorted[np.searchsorted(tok_sorted, hv)]
            pref = hv[np.argsort(r, kind="stable")[:p]]
            otok.append(pref)
            oid.append(np.full(p, i, dtype=np.int64))
            orole.append(np.zeros(p, dtype=np.int64))
            otok.append(hv)
            oid.append(np.full(n, i, dtype=np.int64))
            orole.append(np.ones(n, dtype=np.int64))
        if not otok:
            return pa.table({"tok": pa.array([], pa.int64()),
                             "id": pa.array([], pa.int64()),
                             "role": pa.array([], pa.int64())})
        return pa.table({"tok": np.concatenate(otok),
                         "id": np.concatenate(oid),
                         "role": np.concatenate(orole)})

    def bucket_cands(t: pa.Table) -> pd.DataFrame:
        # probes x indexes per shared token as ONE vectorized polars
        # inner join (a per-token-run Python loop measured 20+ s at
        # sf0.1); ids pack into an int64 key for the exact dedup
        import polars as pl
        empty = pd.DataFrame({"id_a": pd.Series([], dtype="int64"),
                              "id_b": pd.Series([], dtype="int64")})
        df = pl.from_arrow(t).unique(["tok", "id", "role"])
        pr = (df.filter(pl.col("role") == 0)
              .select(["tok", pl.col("id").alias("id_a")]))
        ix = (df.filter(pl.col("role") == 1)
              .select(["tok", pl.col("id").alias("id_b")]))
        j = (pr.join(ix, on="tok")
             .filter(pl.col("id_a") != pl.col("id_b")))
        if len(j) == 0:
            return empty
        key = np.unique((j["id_a"].to_numpy() << np.int64(31))
                        + j["id_b"].to_numpy())
        return pd.DataFrame({"id_a": (key >> 31).astype(np.int64),
                             "id_b": (key & ((1 << 31) - 1)).astype(np.int64)})

    cand = exchange(ds.map_batches(emit_roles, batch_format="pyarrow"),
                    "tok", bucket_cands, n_buckets).materialize()
    if cand.count() == 0:
        return pd.DataFrame({
            "contained_id": pd.Series([], dtype="int64"),
            "container_id": pd.Series([], dtype="int64"),
            "inter_n": pd.Series([], dtype="int64"),
            "n_contained": pd.Series([], dtype="int64")})

    # verify DISTRIBUTED: candidate sets are ~1000x the survivor set
    # (300k candidates -> 512 pairs at sf0.1) — a driver verify that
    # re-tokenized texts per PAIR cost 19 s. Each doc is shingled
    # exactly once into a broadcast blob map (doc-scale, ~MBs), and
    # candidate batches score in parallel with one polars (pair, hash)
    # join per batch.
    import polars as pl

    def blob_rows(t: pa.Table) -> pa.Table:
        hs = _tok_sets(t[text_col].to_pylist())
        return pa.table({
            "id": pc.cast(t[id_col], pa.int64()),
            "blob": pa.array([h.tobytes() for h in hs], pa.binary())})

    from .joins import _pull_table
    btbl = _pull_table(ds.map_batches(
        blob_rows, batch_format="pyarrow").materialize())
    hmap_ref = ray.put({i: np.frombuffer(b, dtype=np.uint64)
                        for i, b in zip(btbl["id"].to_pylist(),
                                        btbl["blob"].to_pylist())})

    def verify(t: pa.Table) -> pa.Table:
        hm = ray.get(hmap_ref)
        ida = t["id_a"].to_numpy(zero_copy_only=False)
        idb = t["id_b"].to_numpy(zero_copy_only=False)
        ha = [hm.get(int(i), np.empty(0, np.uint64)) for i in ida]
        hb = [hm.get(int(i), np.empty(0, np.uint64)) for i in idb]
        na = np.array([len(h) for h in ha], np.int64)
        nb = np.array([len(h) for h in hb], np.int64)
        idx = np.arange(len(ha))
        sa = pl.DataFrame({"i": np.repeat(idx, na),
                           "h": (np.concatenate(ha) if len(ha)
                                 else np.empty(0, np.uint64))})
        sb = pl.DataFrame({"i": np.repeat(idx, nb),
                           "h": (np.concatenate(hb) if len(hb)
                                 else np.empty(0, np.uint64))})
        hit = sa.join(sb, on=["i", "h"], how="inner").group_by("i").len()
        inter = np.zeros(len(ha), np.int64)
        if len(hit):
            inter[hit["i"].to_numpy()] = \
                hit["len"].to_numpy().astype(np.int64)
        keep = (na > 0) & (inter * 1000 >= thr_mille * na)
        return pa.table({
            "contained_id": ida[keep].astype(np.int64),
            "container_id": idb[keep].astype(np.int64),
            "inter_n": inter[keep],
            "n_contained": na[keep]})

    vt = _pull_table(cand.map_batches(
        verify, batch_format="pyarrow").materialize())
    if vt is None or vt.num_rows == 0:
        return pd.DataFrame({
            "contained_id": pd.Series([], dtype="int64"),
            "container_id": pd.Series([], dtype="int64"),
            "inter_n": pd.Series([], dtype="int64"),
            "n_contained": pd.Series([], dtype="int64")})
    out = (vt.to_pandas()
           .drop_duplicates(["contained_id", "container_id"]))
    return (out.astype("int64")
            .sort_values(["contained_id", "container_id"])
            .reset_index(drop=True))
