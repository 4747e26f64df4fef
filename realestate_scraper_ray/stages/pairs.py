"""Candidate pairs: the one plan shape of the near-duplicate family.

Every pairwise operator in ``stages/dedupe.py`` and ``stages/fuzzy.py``
splits its work the way distributed set-similarity joins do (prefix
filter, partition, local join, verify — Distributed Streaming Set
Similarity Join, ICDE'20):

- ``candidates``: emit blocking keys per batch, ``exchange`` on the
  key, emit every id pair that shares a key inside the bucket through
  one vectorized run kernel, then ``distinct``: a pair blocked under
  keys of several buckets comes out once.
- ``verify``: semi-filter the side table to the ids of candidate
  pairs, attach its values to both ends of every pair with the
  adaptive ``joins.lookup_join`` (broadcast under
  ``joins.BROADCAST_THRESHOLD_BYTES``, one exchange above it), and
  score each batch.

Next to them live the kernels the operators share: the 31-bit pair
packing with its range guard, shingle sets as binary columns,
shared-shingle counts per row pair, set-intersection sizes for aligned
pairs, the rarest-first token rank with its integer prefix length, and
the triangle block-pair replication with its exactly-once cell
ownership. ``result`` is the family's one output frame: sorted and
typed, also when empty. Every operator hands it one row per pair —
through ``distinct``, or by letting only one of the buckets that meet
a pair emit it.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .exchange import exchange

_SH = np.int64(31)
_MASK = np.int64((1 << 31) - 1)


# ---------------------------------------------------------------------------
# pair packing
# ---------------------------------------------------------------------------


def check_ids(ds: rd.Dataset, id_col: str) -> None:
    """Raise ``ValueError`` unless every ``id_col`` value is in
    ``[0, 2**31)``: a pair packs two ids into one int64 key, and any
    other id would alias another pair. Empty input passes."""
    from ray.data.aggregate import Max, Min
    b = ds.select_columns([id_col]).aggregate(
        Min(id_col, alias_name="lo"), Max(id_col, alias_name="hi"))
    if b["lo"] is not None and not (0 <= b["lo"] and b["hi"] <= _MASK):
        raise ValueError(f"{id_col} must be in [0, 2**31), "
                         f"got [{b['lo']}, {b['hi']}]")


def pack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One int64 key per (a, b) pair of ids checked by ``check_ids``."""
    return (a.astype(np.int64) << _SH) | b.astype(np.int64)


def unpack(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return key >> _SH, key & _MASK


# ---------------------------------------------------------------------------
# candidates: blocking keys → exchange → pairs within runs
# ---------------------------------------------------------------------------


def _pairs_within_runs(runkey: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized all-pairs index generator over CONTIGUOUS runs of
    equal ``runkey``: returns (first_idx, second_idx) with
    first_idx < second_idx and runkey[first] == runkey[second] — every
    unordered pair inside every run, no Python loop over runs."""
    n = len(runkey)
    if n == 0:
        return (np.empty(0, dtype=np.int64),) * 2
    starts = np.flatnonzero(np.r_[True, runkey[1:] != runkey[:-1]])
    sizes = np.diff(np.r_[starts, n])
    k = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)  # offset in run
    second = np.repeat(np.arange(n, dtype=np.int64), k)   # j repeated k_j times
    csum = np.r_[0, np.cumsum(k)]
    # for each j: run_start_j + (0 .. k_j-1)
    first = (np.arange(csum[-1], dtype=np.int64)
             - np.repeat(csum[:-1], k)
             + np.repeat(np.repeat(starts, sizes), k))
    return first, second


def candidates(ds: rd.Dataset, id_col: str, keys_fn, nb: int) -> rd.Dataset:
    """Distinct ``(id_a, id_b)`` pairs, ``id_a < id_b``, of rows sharing
    a blocking key. ``keys_fn(batch)`` returns ``(rows, keys)``: int64
    keys and, per key, the batch row it blocks. One ``exchange`` on the
    key; inside a bucket the pairs come from one sort and the run
    kernel; ``distinct`` drops the twins of a pair blocked in several
    buckets."""
    def emit(t: pa.Table) -> pa.Table:
        rows, keys = keys_fn(t)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"key": keys.astype(np.int64), "id": ids[rows]})

    def fold(t: pa.Table) -> pa.Table:
        key, ids = t["key"].to_numpy(), t["id"].to_numpy()
        order = np.lexsort((ids, key))
        fi, si = _pairs_within_runs(key[order])
        a, b = ids[order][fi], ids[order][si]
        m = a != b  # one id under two keys of the bucket
        return pa.table({"id_a": a[m], "id_b": b[m]})

    return distinct(exchange(ds.map_batches(emit, batch_format="pyarrow"),
                             "key", fold, nb), nb)


def distinct(ds: rd.Dataset, nb: int) -> rd.Dataset:
    """Rows of ``ds`` unique on ``(id_a, id_b)``, keeping each pair's
    first row (its twins carry the same exact score): one ``exchange``
    on ``id_a``, ``first_rows`` per block."""
    return exchange(ds, "id_a", lambda t: t.take(first_rows(
        t["id_a"].to_numpy(), t["id_b"].to_numpy())), nb)


# ---------------------------------------------------------------------------
# verify: semi-filter → adaptive attach → score
# ---------------------------------------------------------------------------


def verify(cand: rd.Dataset, ds: rd.Dataset, id_col: str, cols: list[str],
           score_fn, *, num_partitions: int = 8) -> rd.Dataset:
    """Score candidate pairs against a side table: ``score_fn`` gets
    each batch of ``cand`` with ``{c}_a`` / ``{c}_b`` attached for every
    ``c`` in ``cols`` (the ``ds`` row whose ``id_col`` is ``id_a`` /
    ``id_b``) and returns a pyarrow Table.

    ``ds`` is ``joins.semi_join``-filtered to the ids of some pair, then
    attached to each end by one ``joins.lookup_join``: broadcast under
    ``joins.BROADCAST_THRESHOLD_BYTES``, exchanged on the id
    (``num_partitions`` buckets) above it. The driver holds at most the
    capped id set and the capped side table."""
    from . import joins
    cap = joins.BROADCAST_THRESHOLD_BYTES
    cand = cand.materialize()  # read for its ids, then attached
    if not cand.count():
        return cand  # no pairs: nothing to score
    ids = cand.map_batches(lambda t: pa.table({"id": pa.chunked_array(
        t["id_a"].chunks + t["id_b"].chunks, pa.int64())}),
        batch_format="pyarrow")
    side = joins.semi_join(ds.select_columns([id_col, *cols]), ids, id_col,
                           "id", num_partitions=num_partitions,
                           threshold_bytes=cap).materialize()
    for e in ("a", "b"):
        names = [f"id_{e}", *(f"{c}_{e}" for c in cols)]
        cand = joins.lookup_join(
            cand, side.map_batches(lambda t, names=names: pa.table(
                t.columns, names=names), batch_format="pyarrow"),
            f"id_{e}", f"id_{e}", names[1:], num_partitions=num_partitions,
            threshold_bytes=cap)
    return cand.map_batches(score_fn, batch_format="pyarrow")


def result(ds: rd.Dataset, columns: dict[str, str]) -> pd.DataFrame:
    """The operators' output frame: ``columns`` (name → dtype) of
    every row of ``ds``, sorted by the pair (the first two columns).
    Rows arrive one per pair (``distinct``, exactly-once cell
    ownership, or the rarest shared prefix token's group), so the frame
    is output-sized. Zero rows give a zero-row
    frame of the same dtypes."""
    tabs = [t for t in ray.get(ds.materialize().to_arrow_refs())
            if t.num_rows]
    if not tabs:
        return pd.DataFrame({c: pd.Series([], dtype=d)
                             for c, d in columns.items()})
    pair = list(columns)[:2]
    return (pa.concat_tables(tabs).select(list(columns)).to_pandas()
            .astype(columns).sort_values(pair).reset_index(drop=True))


# ---------------------------------------------------------------------------
# shingle sets and their counting kernels
# ---------------------------------------------------------------------------


def as_sets(hs: list[np.ndarray]) -> pa.Array:
    """Sorted distinct uint64 arrays as one binary column, 8 bytes per
    member."""
    n = np.fromiter(map(len, hs), np.int64, len(hs))
    return from_flat(np.concatenate(hs) if hs else np.empty(0, np.uint64), n)


def from_flat(vals: np.ndarray, n: np.ndarray) -> pa.Array:
    """The ``as_sets`` column of all members ``vals`` cut into rows of
    ``n`` members (the inverse of ``flat``)."""
    off = (np.r_[0, np.cumsum(n)] * 8).astype(np.int32)
    return pa.Array.from_buffers(pa.binary(), len(n), [
        None, pa.py_buffer(off), pa.py_buffer(vals.astype(np.uint64))])


def shingle_sets(texts, shingle_k: int) -> pa.Array:
    """Per text, the sorted distinct uint64 hashes of its k-word
    shingles (``functions.textstats`` semantics), as ``as_sets``."""
    from ..functions.textstats import _hash_tokens_matrix
    if not isinstance(texts, list):
        texts = texts.to_pylist()
    return as_sets([np.unique(h) for h in _hash_tokens_matrix(texts, shingle_k)])


def flat(sets) -> tuple[np.ndarray, np.ndarray]:
    """(all members, per-row sizes) of an ``as_sets`` column."""
    if isinstance(sets, pa.ChunkedArray):
        sets = sets.combine_chunks()
    off = np.frombuffer(sets.buffers()[1], np.int32, len(sets) + 1,
                        4 * sets.offset)
    count = int(off[-1] - off[0]) // 8
    vals = (np.frombuffer(sets.buffers()[2], np.uint64, count, int(off[0]))
            if count else np.empty(0, np.uint64))
    return vals, np.diff(off).astype(np.int64) // 8


def shared_counts(group: np.ndarray, sets) -> tuple[np.ndarray, ...]:
    """Row pairs that share set members inside the same ``group``
    (one group id per row): ``(a_idx, b_idx, inter, low)`` with a_idx <
    b_idx, ``inter`` the number of members shared in that group and
    ``low`` the smallest of them. Members are sorted once; each run of
    an equal (group, member) emits its row pairs through the run kernel
    and one sort by pair folds them, so work is O(shared occurrences),
    never O(rows² · set)."""
    vals, lens = flat(sets)
    m = len(lens)
    row = np.repeat(np.arange(m, dtype=np.int64), lens)
    grp = np.repeat(group, lens)
    o = np.lexsort((vals, grp))
    g, v, d = grp[o], vals[o], row[o]
    change = np.r_[True, (g[1:] != g[:-1]) | (v[1:] != v[:-1])]
    fi, si = _pairs_within_runs(np.cumsum(change))
    key = np.minimum(d[fi], d[si]) * m + np.maximum(d[fi], d[si])
    # members ascend within a pair's runs, so its first occurrence in a
    # stable sort by pair holds its smallest shared member
    o = np.argsort(key, kind="stable")
    key = key[o]
    first = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
    inter = np.diff(np.r_[first, len(key)])
    return key[first] // m, key[first] % m, inter, v[fi][o][first]


def intersect_sizes(a, b) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(|A_i|, |B_i|, |A_i ∩ B_i|)`` for aligned set columns, as one
    vectorized polars (row, member) inner join."""
    import polars as pl
    va, na = flat(a)
    vb, nb = flat(b)
    i = np.arange(len(na), dtype=np.int64)
    hit = (pl.DataFrame({"i": np.repeat(i, na), "h": va})
           .join(pl.DataFrame({"i": np.repeat(i, nb), "h": vb}),
                 on=["i", "h"], how="inner")
           .group_by("i").len())
    inter = np.zeros(len(na), np.int64)
    inter[hit["i"].to_numpy()] = hit["len"].to_numpy()
    return na, nb, inter


# ---------------------------------------------------------------------------
# prefix filtering: rarest-first token rank
# ---------------------------------------------------------------------------


def token_rank(ds: rd.Dataset, text_col: str, shingle_k: int):
    """Object ref of ``(tokens, ranks)``: every shingle token of
    ``ds`` (int64 view, sorted) and its rarest-first rank — document
    frequency ascending, ties by token, a total order every worker
    shares. Vocab-sized per-batch df partials fold driver-side: the
    table is broadcast anyway, and Ray's sort-based aggregate would
    cost seconds of fixed overhead."""
    def df_partial(t: pa.Table) -> pa.Table:
        vals, _ = flat(shingle_sets(t[text_col], shingle_k))
        tok, cnt = np.unique(vals.view(np.int64), return_counts=True)
        return pa.table({"tok": tok, "df": cnt.astype(np.int64)})

    ptabs = [t for t in ray.get(
        ds.map_batches(df_partial, batch_format="pyarrow")
        .materialize().to_arrow_refs())
        if t.num_rows]
    if ptabs:
        toks, inv = np.unique(np.concatenate(
            [t["tok"].to_numpy(zero_copy_only=False) for t in ptabs]),
            return_inverse=True)
        dfs = np.bincount(inv, weights=np.concatenate(
            [t["df"].to_numpy(zero_copy_only=False) for t in ptabs]))
    else:
        toks, dfs = np.empty(0, np.int64), np.empty(0)
    rank = np.empty(len(toks), dtype=np.int64)
    rank[np.lexsort((toks, dfs))] = np.arange(len(toks), dtype=np.int64)
    return ray.put((toks, rank))


def prefix(sets, rank, thr_mille: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, tokens)``: each row's p = n − ⌈θ·n⌉ + 1 rarest tokens
    (``rank`` from ``token_rank``, fetched). Any pair whose overlap
    reaches θ·n of this row's n tokens shares one of them (the AllPairs
    bound). The ceiling is the integer one of the verify gate
    ``inter·1000 ≥ thr_mille·n``: a float ``ceil(θ·n)`` overshoots on a
    representation error (0.07·100 = 7.000…01 → 8) and drops pairs."""
    toks, ranks = rank
    vals, n = flat(sets)
    v = vals.view(np.int64)
    row = np.repeat(np.arange(len(n), dtype=np.int64), n)
    o = np.lexsort((ranks[np.searchsorted(toks, v)], row))
    pos = np.arange(len(v)) - np.repeat(np.cumsum(n) - n, n)
    keep = pos < np.repeat(n - (thr_mille * n + 999) // 1000 + 1, n)
    return row[o][keep], v[o][keep]


def ranked(sets, rank) -> pa.Array:
    """``sets`` with every member replaced by its rank (``token_rank``,
    fetched): the same sizes and intersections, and the smallest member
    two ranked sets share is their rarest shared token."""
    toks, ranks = rank
    vals, n = flat(sets)
    return from_flat(ranks[np.searchsorted(toks, vals.view(np.int64))], n)


# ---------------------------------------------------------------------------
# exact all-pairs: triangle block-pair replication
# ---------------------------------------------------------------------------


def triangle(t: pa.Table, shard: np.ndarray, n: int) -> pa.Table:
    """Replicate each row (shard ``s`` in ``[0, n)``) to the ``n``
    unordered shard pairs it takes part in, ``(si, sj) = (min(s, j),
    max(s, j))``, appending ``s``, ``si`` and ``sj``. One group per
    (si, sj) cell then holds ~2/n of the rows, and every row pair meets
    in exactly one cell that owns it: the diagonal cell owns the
    same-shard pairs, an off-diagonal cell the cross-shard ones."""
    shard = np.asarray(shard, np.int32)
    j = np.repeat(np.arange(n, dtype=np.int32), len(shard))
    s = np.tile(shard, n)
    return (t.take(np.tile(np.arange(len(shard)), n))
            .append_column("s", pa.array(s))
            .append_column("si", pa.array(np.minimum(s, j)))
            .append_column("sj", pa.array(np.maximum(s, j))))


def first_rows(*cols: np.ndarray) -> np.ndarray:
    """Indices of the first row of each distinct tuple of ``cols``, in
    row order: a group counts a member once, however often the input
    repeats it."""
    o = np.lexsort(cols[::-1])
    new = np.ones(len(o), bool)
    new[1:] = np.any([c[o][1:] != c[o][:-1] for c in cols], axis=0)
    return np.sort(o[new])
