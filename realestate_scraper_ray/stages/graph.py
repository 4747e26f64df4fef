"""Distributed connected components over a pair/edge Dataset.

The canonical last step of a near-dup pipeline: MinHash / SimHash /
embedding near-dup stages emit *pairs*; picking one canonical document
per duplicate *cluster* requires the transitive closure of those pairs
(as in the C4 / Gopher / RefinedWeb dedup recipes).

Algorithm: hash-to-min label propagation with pointer jumping. Every
vertex starts with label = its own id; each round every vertex takes
the min of its own label, its direct neighbors' labels, and
label(label(v)) (the pointer jump — halves the remaining chain depth,
so convergence is O(log diameter), the same guarantee as
large-star/small-star, Kiveris et al., "Connected Components in
MapReduce and Beyond", SoCC'14). Labels are monotonically
non-increasing, so the global label sum is a convergence witness: a
round that leaves the sum unchanged is a fixpoint.

Both per-round lookups are *salted bucket joins* built on
``groupby().map_groups`` rather than ``Dataset.join``:

- requests are bucketed by ``hash(key) % B`` and additionally salted
  by ``hash(requester) % S``; the lookup side is replicated S ways.
  A converged component is a maximal hot key (every member asks for
  the same root's label) — the salt spreads that hub over S groups,
  so no single task ever sees a component-sized group. This is the
  explicit skew handling a 10^10-edge dup graph needs (viral
  duplicates form million-member clusters).
- ``groupby`` only materializes non-empty groups, sidestepping the
  empty-hash-partition failure mode of two-sided shuffle joins on
  skewed keys (Ray 2.49's join finalize builds a schema-less table
  for an empty partition; a converged label key guarantees empty
  partitions).

Per-round cost: O((|E| + |V|) * (1 + S/B)) shuffled bytes; the
lookup side replication is |labels| * S / B per group — keep S << B.
``labels`` is materialized once per round (O(|V|) rows); the
convergence check moves ONE scalar to the driver per round.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Min, Sum

from .exchange import bucket_of, exchange
from .pairs import _pairs_within_runs, pack, unpack


def _undirect(edges: rd.Dataset, col_a: str, col_b: str) -> rd.Dataset:
    """(a,b) pairs -> both (src,dst) directions, so one lookup round
    propagates labels both ways."""

    def both(t: pa.Table) -> pa.Table:
        a, b = t[col_a].combine_chunks(), t[col_b].combine_chunks()
        return pa.table({"key": pa.concat_arrays([a, b]),
                         "out": pa.concat_arrays([b, a])})

    return edges.map_batches(both, batch_format="pyarrow")


def _salted_lookup(reqs: rd.Dataset, labels: rd.Dataset,
                   n_buckets: int, n_salts: int) -> rd.Dataset:
    """For each request row (key, out): look up label(key) and emit
    (node=out, label=label(key)). One groupby shuffle; hot keys are
    spread over `n_salts` groups; the label side is replicated
    `n_salts` ways within its bucket."""

    def tag_reqs(t: pa.Table) -> pd.DataFrame:
        k = t["key"].to_numpy()
        o = t["out"].to_numpy()
        return pd.DataFrame({
            "b": bucket_of(k, n_buckets), "s": bucket_of(o, n_salts),
            "k": k.astype(np.int64), "v": o.astype(np.int64),
            "side": np.int8(0)})

    def tag_labels(t: pa.Table) -> pd.DataFrame:
        n = t["node"].to_numpy()
        lab = t["label"].to_numpy()
        reps = n_salts
        return pd.DataFrame({
            "b": np.tile(bucket_of(n, n_buckets), reps),
            "s": np.repeat(np.arange(reps, dtype=np.int32), len(n)),
            "k": np.tile(n.astype(np.int64), reps),
            "v": np.tile(lab.astype(np.int64), reps),
            "side": np.int8(1)})

    def resolve(g: pd.DataFrame) -> pd.DataFrame:
        lk = g[g["side"] == 1]
        rq = g[g["side"] == 0]
        if len(rq) == 0 or len(lk) == 0:
            return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                 "label": pd.Series(dtype="int64")})
        m = rq.merge(lk[["k", "v"]], on="k", how="inner",
                     suffixes=("", "_lab"))
        return pd.DataFrame({"node": m["v"].astype("int64"),
                             "label": m["v_lab"].astype("int64")})

    def to_arrow(t: pa.Table) -> pa.Table:
        if "node" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64())})
        return pa.table({"node": pc.cast(t["node"], pa.int64()),
                         "label": pc.cast(t["label"], pa.int64())})

    tagged = (reqs.map_batches(tag_reqs, batch_format="pyarrow")
              .union(labels.map_batches(tag_labels, batch_format="pyarrow")))
    return (tagged.groupby(["b", "s"])
            .map_groups(resolve, batch_format="pandas")
            .map_batches(to_arrow, batch_format="pyarrow"))


def connected_components(nodes: rd.Dataset, edges: rd.Dataset,
                         node_col: str, col_a: str = "id_a",
                         col_b: str = "id_b", max_rounds: int = 50,
                         num_partitions: int = 8, n_salts: int = 4,
                         small_graph_bytes: int = 64 << 20) -> rd.Dataset:
    """Label every node with the min node-id reachable through `edges`.

    nodes: Dataset with `node_col` (int64, unique). Singletons keep
    their own id as component.
    edges: Dataset of undirected pairs (col_a, col_b).
    num_partitions: lookup bucket count B (size to the cluster).
    Returns a Dataset with columns (node_col, "component").

    Adaptive strategy (same 64 MiB-cap idiom as ``stages/joins.py``):
    the edge set is materialized either way (the rounds re-read it every
    iteration), and when its measured size fits under the cap, an exact
    driver-side union-find replaces O(log diameter) shuffle rounds —
    near-dup edge lists are pair-scale, usually orders of magnitude
    smaller than the corpus, so most runs take the cheap path while
    driver exposure stays bounded by the cap, never by the data. Above
    the cap (a 10^10-edge dup graph) the salted label-propagation rounds
    below run fully distributed.
    """
    und = _undirect(edges, col_a, col_b).materialize()
    if und.count() == 0:
        return nodes.map_batches(
            lambda t: pa.table({node_col: t[node_col],
                                "component": t[node_col]}),
            batch_format="pyarrow")

    if (und.size_bytes() or 0) <= small_graph_bytes:
        import ray

        from .joins import _pull_table
        tbl = _pull_table(und)
        a = tbl["key"].to_numpy()   # und holds both directions; one
        b = tbl["out"].to_numpy()   # direction is enough for union-find
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != r:      # path compression
                parent[x], x = r, parent[x]
            return r

        for x, y in zip(a.tolist(), b.tolist()):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)
        # canonical label = min node id per component (roots are already
        # minimal: unions always point the larger root at the smaller)
        label = {v: find(v) for v in set(a.tolist()) | set(b.tolist())}
        ref = ray.put(label)

        def apply(t: pa.Table) -> pa.Table:
            lab = ray.get(ref)
            ids = t[node_col].to_pylist()
            return pa.table({
                node_col: t[node_col],
                "component": pa.array([lab.get(i, i) for i in ids],
                                      pa.int64())})

        return nodes.map_batches(apply, batch_format="pyarrow")

    def _norm(t: pa.Table) -> pa.Table:
        # shuffle outputs may contain schema-less empty blocks;
        # re-project so every block carries the (node, label) schema
        if "node" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64()),
                             "label": pa.array([], pa.int64())})
        return pa.table({"node": pc.cast(t["node"], pa.int64()),
                         "label": pc.cast(t["label"], pa.int64())})

    labels = nodes.map_batches(
        lambda t: pa.table({"node": pc.cast(t[node_col], pa.int64()),
                            "label": pc.cast(t[node_col], pa.int64())}),
        batch_format="pyarrow").materialize()
    prev_sum = labels.aggregate(Sum("label"))["sum(label)"]

    for _ in range(max_rounds):
        # one lookup serves both rules: neighbor rule (for edge
        # (src,dst), dst learns label(src)) and pointer jump (v learns
        # label(label(v))) — their request streams union into a single
        # salted shuffle per round
        jump_reqs = labels.map_batches(
            lambda t: pa.table({"key": t["label"], "out": t["node"]}),
            batch_format="pyarrow")
        # lazy: `found` has exactly one consumer (the union below), so a
        # materialize barrier here only adds a round-trip per iteration
        found = _salted_lookup(und.union(jump_reqs), labels,
                               num_partitions, n_salts)
        labels = (labels.union(found)
                  .groupby("node").aggregate(Min("label", alias_name="label"))
                  .map_batches(_norm, batch_format="pyarrow")
                  # pin the label table to a fixed block count: without
                  # this, each round's union+shuffle multiplies tiny
                  # blocks and scheduling overhead grows exponentially
                  .repartition(num_partitions)
                  .materialize())
        new_sum = labels.aggregate(Sum("label"))["sum(label)"]
        if new_sum == prev_sum:
            break
        prev_sum = new_sum

    return labels.map_batches(
        lambda t: pa.table({node_col: t["node"], "component": t["label"]}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PageRank — the canonical iterative distributed algorithm (Pregel /
# power-iteration shape): per round, one rank lookup join onto the
# edge list + one groupby-sum of contributions.  Integer fixed-point
# throughout (total mass 10^12 micro-units, floor division at every
# step), so the result is bit-deterministic across block splits,
# process counts and a SQL re-implementation — no float accumulation
# order anywhere.
# ---------------------------------------------------------------------------

PAGERANK_MASS = 10**12


def pagerank(edges: rd.Dataset, *, n_iter: int = 10,
             damping_pct: int = 85, mass: int = PAGERANK_MASS) -> rd.Dataset:
    """Integer-exact PageRank over a directed edge Dataset (src, dst —
    string or int node ids).  Every node must have out-degree >= 1
    (callers with dangling nodes add reverse edges first — the
    bipartite build in `relational.py graph_pagerank` does); in-degree
    may be zero: such nodes hold rank = base each round (the zero-row
    union below keeps them in the rank table, so their OUTGOING
    contributions are never lost).

    Update: rank'[d] = base + (damping * Σ_src rank[src] // od[src]) // 100
    with base = (100-damping)·mass // (100·N).  Only node-scale tables
    (ranks, degrees) and the edge list move per round: the rank lookup
    rides the adaptive broadcast-or-shuffle join (64 MiB cap — at
    10^10 edges the rank side hash-partitions instead of broadcasting),
    contributions pre-aggregate per batch inside the groupby-sum.
    Floors lose a few micro-units of mass per round (deterministically);
    ranks stay within [base, mass]."""
    from ray.data.aggregate import Count

    from .joins import BROADCAST_THRESHOLD_BYTES, lookup_join

    # two consumers read `edges` (degree aggregate, od lookup join):
    # checkpoint the branch point or Ray Data re-executes the caller's
    # whole edge-build lineage once per consumer
    edges = edges.materialize()
    deg = edges.groupby("src").aggregate(Count(alias_name="od"))
    # bidirectional edge builds guarantee src-set == node-set
    nodes = deg.materialize()
    n = nodes.count()
    r0 = mass // n
    base = ((100 - damping_pct) * mass) // (100 * n)
    edges_d = lookup_join(edges, nodes, "src", "src", ["od"]).materialize()

    if (edges_d.size_bytes() or 0) <= BROADCAST_THRESHOLD_BYTES:
        # Driver small path (same idiom as the triangle counter's
        # under-cap branch): when the WHOLE od-joined edge table fits
        # the broadcast cap, ten supersteps of pure numpy on the driver
        # beat ten rounds of Ray task dispatch outright — identical
        # integer fixed-point math, bit-identical ranks.
        return _pagerank_driver(edges_d, nodes, n_iter=n_iter,
                                damping_pct=damping_pct, base=base,
                                r0=r0)

    if (nodes.size_bytes() or 0) * 3 <= BROADCAST_THRESHOLD_BYTES:
        # Broadcast fast path (rank table provably under the cap): the
        # od-joined edges are bucketed ONCE by hash(dst) % B, so every
        # superstep is B independent Ray tasks — each computes FINAL
        # sums for its dsts (all in-edges of a dst share its bucket)
        # against the full broadcast rank table — plus one gather task.
        # No per-round groupby exchange: the old loop paid a sort
        # shuffle + execution startup per superstep (~1.8 s fixed at
        # sf0.1 regardless of data), which dominated the 10 rounds.
        return _pagerank_broadcast(edges_d, nodes, n_iter=n_iter,
                                   damping_pct=damping_pct, base=base,
                                   r0=r0)

    # Above-cap path (node table outgrows the broadcast cap): the
    # per-round shuffle loop — rank lookups ride the adaptive join,
    # contributions pre-aggregate per batch inside the groupby-sum.
    ranks = nodes.map_batches(
        lambda t: pa.table({"node": t["src"],
                            "rank": np.full(len(t), r0, dtype=np.int64)}),
        batch_format="pyarrow").materialize()
    # every node contributes a zero row each round: a node nothing
    # points at would otherwise drop out of `ranks` after round 1 and
    # its OUTGOING edges would silently stop contributing
    zero_rows = nodes.map_batches(
        lambda t: pa.table({"node": t["src"],
                            "c": np.zeros(len(t), dtype=np.int64)}),
        batch_format="pyarrow").materialize()

    def contribs(t: pa.Table) -> pa.Table:
        c = t["rank"].to_numpy() // t["od"].to_numpy()
        return (pa.table({"node": t["dst"], "c": c})
                .group_by("node").aggregate([("c", "sum")])
                .rename_columns(["node", "c"]))

    def fold(t: pa.Table) -> pa.Table:
        s = t["c"].to_numpy()
        return pa.table({"node": t["node"],
                         "rank": base + (damping_pct * s) // 100})

    for _ in range(n_iter):
        joined = lookup_join(edges_d, ranks, "src", "node", ["rank"])
        ranks = (joined.map_batches(contribs, batch_format="pyarrow")
                 .union(zero_rows)
                 .groupby("node").aggregate(Sum("c", alias_name="c"))
                 .map_batches(fold, batch_format="pyarrow")
                 .materialize())
    return ranks


def _pagerank_driver(edges_d: rd.Dataset, nodes: rd.Dataset, *,
                     n_iter: int, damping_pct: int, base: int,
                     r0: int) -> rd.Dataset:
    """Under-cap superstep loop on the driver: factorize node ids once
    (index_in), then each round is one gather // od, one int64
    scatter-add, one fold — the same floor arithmetic as the
    distributed paths, so ranks are bit-identical. A dst outside the
    src universe contributes nothing and gets no row (the sequential
    twin's semantics)."""
    from .joins import _pull_table

    node_tbl = _pull_table(nodes)
    node_ids = node_tbl["src"].combine_chunks()
    n = len(node_ids)
    edges_tbl = _pull_table(edges_d)
    src_ix = pc.index_in(edges_tbl["src"], value_set=node_ids) \
        .to_numpy(zero_copy_only=False).astype(np.int64)  # src ⊆ universe
    dst_raw = pc.index_in(edges_tbl["dst"], value_set=node_ids)
    dmask = pc.is_valid(dst_raw).to_numpy(zero_copy_only=False)
    dst_ix = pc.fill_null(dst_raw, 0).to_numpy(
        zero_copy_only=False).astype(np.int64)
    od = edges_tbl["od"].to_numpy(zero_copy_only=False).astype(np.int64)
    rank = np.full(n, r0, dtype=np.int64)
    for _ in range(n_iter):
        c = rank[src_ix] // od
        s = np.zeros(n, dtype=np.int64)
        np.add.at(s, dst_ix[dmask], c[dmask])  # int64-exact scatter-add
        rank = base + (damping_pct * s) // 100
    return rd.from_arrow(pa.table({"node": node_ids,
                                   "rank": pa.array(rank, pa.int64())}))


def _pagerank_broadcast(edges_d: rd.Dataset, nodes: rd.Dataset, *,
                        n_iter: int, damping_pct: int, base: int,
                        r0: int) -> rd.Dataset:
    """Superstep loop over dst-bucketed edge tables held in the object
    store. One-time: split each edge block B ways by hash(dst), concat
    per bucket (num_blocks + B tasks). Per round: B bucket tasks (rank
    lookup by index_in against the broadcast rank table, block-final
    group_by sum, fold) + 1 gather task; the driver only moves refs.
    Node universe = src set (the sequential twin's semantics): a dst
    outside it contributes nothing and gets no rank row."""
    import ray

    from .joins import _pull_table

    node_tbl = _pull_table(nodes)  # (src, od) — under the cap by gate
    node_ids = node_tbl["src"].combine_chunks()
    n_edges = edges_d.count()
    nb = int(max(4, min(64, n_edges // 100_000 + 1)))

    @ray.remote
    def split(tbl: pa.Table, nb: int):
        b = bucket_of(tbl["dst"], nb)
        order = np.argsort(b, kind="stable")
        st = tbl.take(pa.array(order))
        cuts = np.searchsorted(b[order], np.arange(nb + 1))
        return tuple(st.slice(cuts[i], cuts[i + 1] - cuts[i])
                     for i in range(nb))

    @ray.remote
    def concat(*pieces):
        real = [p for p in pieces if p.num_rows]
        if not real:
            return pieces[0]
        return pa.concat_tables(real).combine_chunks()

    @ray.remote
    def gather(*pieces):
        return pa.concat_tables(list(pieces)).combine_chunks()

    @ray.remote
    def superstep(edges_b: pa.Table, nodes_b: pa.Array, ranks: pa.Table,
                  base: int, damping_pct: int) -> pa.Table:
        s = np.zeros(len(nodes_b), dtype=np.int64)
        if edges_b.num_rows:
            idx = pc.index_in(edges_b["src"], value_set=ranks["node"])
            r = ranks["rank"].take(idx).to_numpy(zero_copy_only=False)
            c = r.astype(np.int64) // edges_b["od"].to_numpy(
                zero_copy_only=False)
            g = (pa.table({"node": edges_b["dst"], "c": c})
                 .group_by("node").aggregate([("c", "sum")]))
            gi = pc.index_in(nodes_b, value_set=g["node"])
            valid = pc.is_valid(gi).to_numpy(zero_copy_only=False)
            if g.num_rows:
                taken = (g["c_sum"].take(pc.fill_null(gi, 0))
                         .to_numpy(zero_copy_only=False).astype(np.int64))
                s[valid] = taken[valid]
        rank = base + (damping_pct * s) // 100
        return pa.table({"node": nodes_b,
                         "rank": pa.array(rank, pa.int64())})

    # one-time bucketing of edges and nodes
    piece_refs = [split.options(num_returns=nb).remote(blk, nb)
                  for blk in edges_d.to_arrow_refs()]
    bucket_refs = [concat.remote(*[p[b] for p in piece_refs])
                   for b in range(nb)]
    nbuck = bucket_of(node_ids, nb)
    node_refs = [ray.put(node_ids.filter(pa.array(nbuck == b)))
                 for b in range(nb)]

    ranks_ref = ray.put(pa.table({
        "node": node_ids,
        "rank": np.full(len(node_ids), r0, dtype=np.int64)}))
    for _ in range(n_iter):
        out = [superstep.remote(bucket_refs[b], node_refs[b], ranks_ref,
                                base, damping_pct) for b in range(nb)]
        ranks_ref = gather.remote(*out)
    return rd.from_arrow_refs([ranks_ref])


# ---------------------------------------------------------------------------
# Triangle counting (degree-ordered orientation)
# ---------------------------------------------------------------------------

def triangle_counts(edges: rd.Dataset, col_a: str = "id_a",
                    col_b: str = "id_b", *, n_buckets: int = 32,
                    num_partitions: int = 8,
                    small_keys_bytes: int = 64 << 20) -> rd.Dataset:
    """Per-node triangle participation counts over an undirected simple
    graph → Dataset (node:int64, n_tri:int64), nodes in ≥1 triangle.

    Input: one row per undirected edge, ``col_a != col_b``, duplicates
    allowed (deduped here); node ids must fit 31 bits and be ≥0 (remap
    upstream otherwise — the rank key packs (degree, id) into one
    int64, and edge keys pack (v, w) the same way).

    Plan — the MapReduce wedge-check algorithm (Suri & Vassilvitskii,
    "Counting Triangles and the Curse of the Last Reducer", WWW'11)
    with degree-ordered orientation:

      1. distinct edges: canonicalize (lo, hi), per-batch local dedup,
         then ONE ``exchange`` on the packed edge key with a
         per-bucket dedup (no composite-key groupby).
      2. ADAPTIVE on the distinct-edge-key set size (8 bytes/edge, so
         the default 64 MiB cap ≈ 8M edges — same cap discipline as
         the components driver union-find):
         *small*: pull the distinct edges once (≤3×cap driver heap),
         compute degrees / degree-ordered orientation / the sorted
         packed-key closing array in one numpy pass, ``ray.put`` the
         adjacency ONCE, and fan the wedge work back out as u-range
         tasks balanced by Σ C(run,2) wedge cost — the O(m^1.5) wedge
         stream is generated AND closed (one ``searchsorted``) inside
         each task; no degree groupby, no lookup join, no sort
         shuffle.
         *large*: degree per node via per-batch ``np.unique``
         partials + one small ``groupby`` sum; attach d(a), d(b) with
         two adaptive lookup joins (``stages/joins.py``); orient each
         edge u→v where rank=(d,id) of u is smaller — every forward
         adjacency is O(√2m), which bounds wedge volume at O(m^1.5)
         instead of O(Σd²) (the "last reducer" hub blowup); wedges
         (key, u) and edge keys (key, u=-1) share one ``exchange`` on
         key; one vectorized ``searchsorted`` per block.
         Each triangle is found exactly once (the wedge from its
         min-rank vertex).
      3. credit: every triangle counts for all three vertices — the
         closing task folds its matches to per-node partials
         (``np.unique``), then one final small ``groupby`` sum.
    """
    from ray.data.aggregate import Sum as _Sum

    from .joins import lookup_join

    def _dedup(t: pa.Table) -> pa.Table:
        lo = pc.min_element_wise(t[col_a], t[col_b])
        hi = pc.max_element_wise(t[col_a], t[col_b])
        key = np.unique(pack(lo.to_numpy(zero_copy_only=False),
                             hi.to_numpy(zero_copy_only=False)))
        return pa.table({"key": key})

    def _bucket_distinct(t: pa.Table) -> pd.DataFrame:
        a, b = unpack(np.unique(t["key"].to_numpy()))
        return pd.DataFrame({"a": a, "b": b})

    e = exchange(edges.map_batches(_dedup, batch_format="pyarrow"), "key",
                 _bucket_distinct, n_buckets) \
        .materialize()  # read by both adaptive branches below

    n_edges = e.count()

    def _partial_credit(x: np.ndarray, key: np.ndarray) -> pd.DataFrame:
        # fold this task's triangle matches (x = wedge apex u,
        # key = packed (v, w)) into per-node count partials
        allv = np.concatenate([x, *unpack(key)])
        node, cnt = np.unique(allv, return_counts=True)
        return pd.DataFrame({"node": node.astype(np.int64),
                             "n_tri": cnt.astype(np.int64)})

    _EMPTY = pd.DataFrame({"node": pd.Series(dtype="int64"),
                           "n_tri": pd.Series(dtype="int64")})

    if n_edges * 8 <= small_keys_bytes:
        # small path: one driver numpy pass over the distinct edges
        # (≤3×cap heap), then a balanced task fan-out over a broadcast
        # adjacency — the O(m^1.5) wedge stream is generated AND
        # closed inside each task and never enters the object store
        tabs = [t for t in ray.get(e.to_arrow_refs()) if t.num_rows]
        if not tabs:
            return rd.from_arrow(pa.table(
                {"node": pa.array([], pa.int64()),
                 "n_tri": pa.array([], pa.int64())}))
        a = np.concatenate([t["a"].to_numpy(zero_copy_only=False)
                            for t in tabs]).astype(np.int64)
        b = np.concatenate([t["b"].to_numpy(zero_copy_only=False)
                            for t in tabs]).astype(np.int64)
        node, inv = np.unique(np.concatenate([a, b]),
                              return_inverse=True)
        d = np.bincount(inv).astype(np.int64)
        rka = pack(d[inv[:len(a)]], a)
        rkb = pack(d[inv[len(a):]], b)
        swap = rkb < rka
        u = np.where(swap, b, a)
        v = np.where(swap, a, b)
        rkv = np.where(swap, rka, rkb)
        ordr = np.lexsort((rkv, u))   # by u, rank(v) within u's run
        u, v = u[ordr], v[ordr]
        keys_sorted = np.sort(pack(u, v))
        # chunk at u-run boundaries, balanced by Σ C(run, 2) wedge cost
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        lens = np.diff(np.r_[starts, len(u)])
        cum = np.cumsum(lens * (lens - 1) // 2)
        n_chunks = int(max(1, min(4 * n_buckets, len(starts))))
        cuts = np.unique(np.searchsorted(
            cum, np.arange(1, n_chunks) * (cum[-1] / n_chunks),
            side="right"))
        bounds = np.r_[0, starts[cuts[cuts < len(starts)]], len(u)]
        shared = ray.put((u, v, keys_sorted))

        def _wedge_close(batch: pd.DataFrame) -> pd.DataFrame:
            uu, vv, ks = ray.get(shared)
            outs = []
            for s, t in zip(batch["s"], batch["e"]):
                fi, si = _pairs_within_runs(uu[s:t])
                if len(fi) == 0:
                    continue
                wkey = pack(vv[s:t][fi], vv[s:t][si])
                pos = np.searchsorted(ks, wkey)
                hit = (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)]
                                         == wkey)
                if hit.any():
                    outs.append(_partial_credit(uu[s:t][fi][hit],
                                                wkey[hit]))
            return (pd.concat(outs, ignore_index=True) if outs
                    else _EMPTY)

        partials = (rd.from_items(
            [{"s": int(s), "e": int(t)}
             for s, t in zip(bounds[:-1], bounds[1:]) if t > s])
            .map_batches(_wedge_close, batch_size=1,
                         batch_format="pandas")).materialize()
        # final credit sum driver-side: ≤ n_chunks × |nodes| partial
        # rows under the cap — Ray's sort-based aggregate costs
        # seconds of fixed overhead at this size
        ptabs = [t for t in ray.get(partials.to_arrow_refs())
                 if t.num_rows]
        if not ptabs:
            return rd.from_arrow(pa.table(
                {"node": pa.array([], pa.int64()),
                 "n_tri": pa.array([], pa.int64())}))
        pn = np.concatenate([t["node"].to_numpy(zero_copy_only=False)
                             for t in ptabs])
        pt = np.concatenate([t["n_tri"].to_numpy(zero_copy_only=False)
                             for t in ptabs])
        nd, inv2 = np.unique(pn, return_inverse=True)
        sums = np.bincount(inv2, weights=pt).astype(np.int64)
        return rd.from_arrow(pa.table({"node": nd.astype(np.int64),
                                       "n_tri": sums}))
    else:
        # scale path: distributed degrees + orientation, then wedges
        # and edge keys co-group on bucket(key)
        def _endpoints(t: pa.Table) -> pa.Table:
            both = np.concatenate([
                t["a"].to_numpy(zero_copy_only=False),
                t["b"].to_numpy(zero_copy_only=False)])
            node, cnt = np.unique(both, return_counts=True)
            return pa.table({"node": node.astype(np.int64),
                             "d": cnt.astype(np.int64)})

        deg = (e.map_batches(_endpoints, batch_format="pyarrow")
               .groupby("node").aggregate(_Sum("d", alias_name="d"))
               .materialize())

        def _ren(nc: str, dc: str):
            def f(t: pa.Table) -> pa.Table:
                return pa.table({nc: t["node"], dc: t["d"]})
            return f

        ea = lookup_join(e, deg.map_batches(_ren("na", "da"),
                                            batch_format="pyarrow"),
                         "a", "na", ["da"],
                         num_partitions=num_partitions)
        eab = lookup_join(ea, deg.map_batches(_ren("nb", "db"),
                                              batch_format="pyarrow"),
                          "b", "nb", ["db"],
                          num_partitions=num_partitions)

        def _orient(t: pa.Table) -> pa.Table:
            a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
            b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
            rka = pack(t["da"].to_numpy(zero_copy_only=False), a)
            rkb = pack(t["db"].to_numpy(zero_copy_only=False), b)
            swap = rkb < rka
            u = np.where(swap, b, a)
            v = np.where(swap, a, b)
            rkv = np.where(swap, rka, rkb)
            return pa.table({"u": u, "v": v, "rkv": rkv})

        oriented = eab.map_batches(_orient, batch_format="pyarrow") \
                      .materialize()

        def _wedge_keys(g: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
            # (apex u, packed wedge key (v, w) with rank v < rank w)
            g = g.sort_values(["u", "rkv"], kind="stable",
                              ignore_index=True)
            fi, si = _pairs_within_runs(g["u"].to_numpy())
            if len(fi) == 0:
                return (np.empty(0, dtype=np.int64),) * 2
            vv = g["v"].to_numpy()
            return g["u"].to_numpy()[fi], pack(vv[fi], vv[si])

        def _wedges(t: pa.Table) -> pd.DataFrame:
            u, wkey = _wedge_keys(t.to_pandas())
            return pd.DataFrame({"key": wkey, "u": u})

        def _edge_keys(t: pa.Table) -> pa.Table:
            key = pack(np.asarray(t["u"]), np.asarray(t["v"]))
            return pa.table({
                "key": key, "u": np.full(len(key), -1, dtype=np.int64)})

        def _close(t: pa.Table) -> pd.DataFrame:
            u = t["u"].to_numpy()
            key = t["key"].to_numpy()
            is_edge = u == -1  # node ids are ≥0 by contract
            ks = np.sort(key[is_edge])
            wu, wk = u[~is_edge], key[~is_edge]
            if len(ks) == 0 or len(wk) == 0:
                return _EMPTY
            pos = np.searchsorted(ks, wk)
            hit = (pos < len(ks)) & (ks[np.minimum(pos, len(ks) - 1)]
                                     == wk)
            if not hit.any():
                return _EMPTY
            return _partial_credit(wu[hit], wk[hit])

        partials = exchange(
            [exchange(oriented, "u", _wedges, n_buckets),
             oriented.map_batches(_edge_keys, batch_format="pyarrow")],
            "key", _close, n_buckets)

    return (partials.map_batches(
                lambda t: t if t.num_rows else pa.table(
                    {"node": pa.array([], pa.int64()),
                     "n_tri": pa.array([], pa.int64())}),
                batch_format="pyarrow")
            .groupby("node").aggregate(_Sum("n_tri", alias_name="n_tri")))


HITS_SCALE = 10**6


def hits(edges: rd.Dataset, *, n_iter: int = 3) -> rd.Dataset:
    """Integer fixed-point HITS (Kleinberg) over a DIRECTED (src, dst)
    edge Dataset: hubs = the src universe, authorities = the dst
    universe. Each half-step sums the opposite side's score over the
    edge list, then renormalizes with ``score // (max // SCALE + 1)``
    — a floor division by a scalar, so the whole iteration stays in
    exact int64 arithmetic (scores ≤ ~SCALE; a sum over in-degree d is
    ≤ 2·SCALE·d, int64-safe to d ≈ 4.6e12) and is bit-reproducible
    against an unrolled SQL oracle. Per round: two adaptive
    rank-lookup joins (broadcast under the 64 MiB cap, hash-partition
    above) + two combiner-first groupby-sums + two scalar MAX
    aggregates; only node-scale tables and the edge list move. An
    under-cap edge table takes the driver numpy path (same floors,
    bit-identical).

    Returns (node, kind ∈ {hub, auth}, score int64)."""
    from ray.data.aggregate import Count, Max

    from .joins import BROADCAST_THRESHOLD_BYTES, lookup_join

    edges = edges.materialize()
    if edges.count() == 0:
        # empty edge set: no hubs, no authorities (the _pull_table
        # driver path returns None on empty input and the distributed
        # path's int(max()) has no defined value)
        return rd.from_arrow(pa.table({
            "node": pa.array([], pa.string()),
            "kind": pa.array([], pa.string()),
            "score": pa.array([], pa.int64())}))
    if (edges.size_bytes() or 0) <= BROADCAST_THRESHOLD_BYTES:
        return _hits_driver(edges, n_iter=n_iter)

    def init_h(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["src"],
                         "s": np.full(t.num_rows, HITS_SCALE, np.int64)})

    h = (edges.groupby("src").aggregate(Count(alias_name="_c"))
         .select_columns(["src"])
         .map_batches(init_h, batch_format="pyarrow").materialize())
    a = None
    for _ in range(n_iter):
        a_raw = (lookup_join(edges, h, "src", "node", ["s"])
                 .map_batches(lambda t: pa.table(
                     {"dst": t["dst"], "s": t["s"]}),
                     batch_format="pyarrow")
                 .groupby("dst").aggregate(Sum("s", alias_name="raw"))
                 .materialize())
        sc = int(a_raw.max("raw")) // HITS_SCALE + 1

        def norm_a(t: pa.Table, s=sc) -> pa.Table:
            return pa.table({"node": t["dst"],
                             "s": pc.divide(t["raw"],
                                            pa.scalar(s, pa.int64()))})

        a = (a_raw.map_batches(norm_a, batch_format="pyarrow")
             .materialize())
        h_raw = (lookup_join(edges, a, "dst", "node", ["s"])
                 .map_batches(lambda t: pa.table(
                     {"src": t["src"], "s": t["s"]}),
                     batch_format="pyarrow")
                 .groupby("src").aggregate(Sum("s", alias_name="raw"))
                 .materialize())
        sch = int(h_raw.max("raw")) // HITS_SCALE + 1

        def norm_h(t: pa.Table, s=sch) -> pa.Table:
            return pa.table({"node": t["src"],
                             "s": pc.divide(t["raw"],
                                            pa.scalar(s, pa.int64()))})

        h = (h_raw.map_batches(norm_h, batch_format="pyarrow")
             .materialize())

    def tag(kind: str):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["node"],
                             "kind": pa.array([kind] * t.num_rows,
                                              pa.string()),
                             "score": t["s"]})
        return f

    return (h.map_batches(tag("hub"), batch_format="pyarrow")
            .union(a.map_batches(tag("auth"), batch_format="pyarrow")))


def _hits_driver(edges: rd.Dataset, *, n_iter: int) -> rd.Dataset:
    """Under-cap HITS superstep loop on the driver — identical floor
    arithmetic to the distributed path (gather, int64 scatter-add,
    scalar floor-div renormalize), so scores are bit-identical."""
    from .joins import _pull_table

    et = _pull_table(edges)
    srcs = pc.unique(et["src"].combine_chunks())
    dsts = pc.unique(et["dst"].combine_chunks())
    six = pc.index_in(et["src"], value_set=srcs).to_numpy(
        zero_copy_only=False).astype(np.int64)
    dix = pc.index_in(et["dst"], value_set=dsts).to_numpy(
        zero_copy_only=False).astype(np.int64)
    h = np.full(len(srcs), HITS_SCALE, np.int64)
    a = np.zeros(len(dsts), np.int64)
    for _ in range(n_iter):
        a = np.zeros(len(dsts), np.int64)
        np.add.at(a, dix, h[six])
        a //= a.max() // HITS_SCALE + 1
        h = np.zeros(len(srcs), np.int64)
        np.add.at(h, six, a[dix])
        h //= h.max() // HITS_SCALE + 1
    return rd.from_arrow(pa.concat_tables([
        pa.table({"node": srcs, "kind": pa.array(["hub"] * len(srcs)),
                  "score": pa.array(h, pa.int64())}),
        pa.table({"node": dsts, "kind": pa.array(["auth"] * len(dsts)),
                  "score": pa.array(a, pa.int64())})]))
