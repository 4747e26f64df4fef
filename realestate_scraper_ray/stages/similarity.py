"""Similarity search over an embedding column (`list<float>`).

- ``cosine_topk``: brute-force cosine top-k — the baseline. The query
  matrix is broadcast (``ray.put`` once, ``ray.get`` per task); each
  batch runs one float64 matmul and emits its local top-k candidates;
  a final per-query reduction keeps the global top-k. No full-matrix
  materialization of the corpus: it streams through ``map_batches``.
- ``lsh_bucket_topk``: the scale path — random-hyperplane LSH
  (Charikar '02) assigns each vector a bucket code; queries probe only
  matching / near buckets, trading recall for a groupby-sized shuffle
  instead of an all-pairs matmul.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from .exchange import exchange


def _norm_rows(m: np.ndarray) -> np.ndarray:
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def _final_topk(cand: rd.Dataset, k: int) -> pd.DataFrame:
    """Distributed final reduce shared by the ANN merges: a per-block
    top-k combine bounds each block at n_queries·k rows, then a 32-way
    query-hash bucket exchange finishes the global per-query top-k —
    the driver pulls ≤ n_queries·k rows regardless of block count
    (the old tails pulled n_blocks·n_queries·k candidate rows into
    driver pandas, fine for few queries, not query-count-proof).
    Ordering is the deterministic (-cos, neighbor_id) everywhere, so
    the result is bit-identical to the driver-side reduce."""
    import polars as pl

    def combine(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        return (pl.from_arrow(t)
                .sort(["query_id", "cos", "neighbor_id"],
                      descending=[False, True, False])
                .group_by("query_id", maintain_order=True).head(k)
                .to_arrow())

    combined = cand.map_batches(combine, batch_format="pyarrow").materialize()
    if combined.count() <= (1 << 18):
        # adaptive small side: the per-block combine already bounded the
        # set at n_blocks·n_queries·k rows of ints — under the cap one
        # driver pull beats a 32-way exchange's fixed cost; above it the
        # bucket exchange keeps the driver at ≤ n_queries·k rows. Both
        # paths share the deterministic ordering, so results are
        # bit-identical.
        reduced = combined
    else:
        reduced = exchange(combined, "query_id", combine, 32)
    out = pa.Table.from_pylist(reduced.take_all()).to_pandas()
    if out.empty:
        return pd.DataFrame({"query_id": [], "neighbor_id": [], "rank": []})
    out = out.sort_values(["query_id", "cos", "neighbor_id"],
                          ascending=[True, False, True])
    out = out.groupby("query_id", sort=True).head(k).copy()
    out["rank"] = out.groupby("query_id").cumcount() + 1
    return out[["query_id", "neighbor_id", "rank"]].reset_index(drop=True)


def cosine_topk(ds: rd.Dataset, vec_col: str, id_col: str,
                query_ids: np.ndarray, query_mat: np.ndarray, k: int,
                exclude_self: bool = True) -> pd.DataFrame:
    """Global top-k neighbors per query: (query_id, neighbor_id, rank).

    Rank ties are broken by neighbor id (deterministic across runs and
    engines)."""
    q_ref = ray.put((np.asarray(query_ids), _norm_rows(np.asarray(query_mat, np.float64))))

    def local_topk(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col])
        m = _norm_rows(np.array(t[vec_col].to_pylist(), dtype=np.float64))
        qids, qm = ray.get(q_ref)
        sims = qm @ m.T                      # (n_q, n_batch)
        if exclude_self:
            self_mask = qids[:, None] == ids[None, :]
            sims[self_mask] = -np.inf
        kk = min(k, sims.shape[1])
        idx = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        rows_q = np.repeat(qids, kk)
        rows_n = ids[idx.reshape(-1)]
        rows_s = np.take_along_axis(sims, idx, axis=1).reshape(-1)
        keep = np.isfinite(rows_s)
        return pa.table({"query_id": rows_q[keep], "neighbor_id": rows_n[keep],
                         "cos": rows_s[keep]})

    return _final_topk(ds.map_batches(local_topk, batch_format="pyarrow"),
                       k)


def ivf_centroids(ds: rd.Dataset, vec_col: str, id_col: str,
                  n_centroids: int = 16, iters: int = 2) -> np.ndarray:
    """Deterministic IVF coarse quantizer: seeds = vectors of the
    ``n_centroids`` smallest ids, refined by ``iters`` distributed
    Lloyd steps (per-batch partial sums via map_batches — the shuffle
    carries n_centroids rows per block, never the vectors)."""
    # seed selection: per-batch min-k + tiny driver merge (no global sort)
    import pyarrow.compute as pc

    def local_min(t: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(t, n_centroids, [(id_col, "ascending")])
        return t.take(idx).select([id_col, vec_col])

    cand = pa.Table.from_pylist(
        ds.map_batches(local_min, batch_format="pyarrow").take_all()).to_pandas()
    cand = cand.sort_values(id_col).head(n_centroids)
    cents = _norm_rows(np.array(cand[vec_col].tolist(), np.float64))
    for _ in range(iters):
        c_ref = ray.put(cents)

        def partial(t: pa.Table) -> pa.Table:
            m = _norm_rows(np.array(t[vec_col].to_pylist(), dtype=np.float64))
            c = ray.get(c_ref)
            assign = np.argmax(m @ c.T, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, m)
            counts = np.bincount(assign, minlength=c.shape[0])
            return pa.table({"cid": np.arange(c.shape[0]),
                             "vsum": list(sums),
                             "n": counts.astype(np.int64)})

        parts = pa.Table.from_pylist(
            ds.map_batches(partial, batch_format="pyarrow").take_all())
        sums = np.zeros_like(cents)
        counts = np.zeros(cents.shape[0], dtype=np.int64)
        for r in parts.to_pylist():
            sums[r["cid"]] += np.asarray(r["vsum"])
            counts[r["cid"]] += r["n"]
        nonempty = counts > 0
        cents[nonempty] = _norm_rows(sums[nonempty] / counts[nonempty, None])
    return cents


def assign_clusters(ds: rd.Dataset, vec_col: str, id_col: str,
                    cents: np.ndarray, m_probe: int = 1,
                    carry_vec: bool = False) -> rd.Dataset:
    """(id_col, cluster) rows: each vector's ``m_probe`` nearest
    centroids by cosine (rows replicated ×m_probe when m_probe > 1 —
    the soft-assignment recall knob SemDeDup and the cluster map
    share). One vectorized pass against the broadcast centroid matrix;
    ``m_probe`` clamps to the actual centroid count (ivf_centroids
    returns ≤ n_centroids rows on tiny corpora); zero-row blocks pass
    through. ``carry_vec`` keeps ``vec_col`` on the output rows."""
    m_probe = max(1, min(m_probe, len(cents)))
    c_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        n = len(t)
        cols = {id_col: t[id_col]}
        if carry_vec:
            cols[vec_col] = t[vec_col]
        if n == 0:
            cols["cluster"] = pa.array([], pa.int32())
            return pa.table(cols)
        m = _norm_rows(np.array(t[vec_col].to_pylist(), dtype=np.float64))
        sims_c = m @ ray.get(c_ref).T
        if m_probe == 1:
            cols["cluster"] = pa.array(
                np.argmax(sims_c, axis=1).astype(np.int32))
            return pa.table(cols)
        cl = np.argpartition(-sims_c, m_probe - 1,
                             axis=1)[:, :m_probe].astype(np.int32)
        idx = pa.array(np.repeat(np.arange(n), m_probe))
        out = {k: v.take(idx) for k, v in cols.items()}
        out["cluster"] = pa.array(cl.reshape(-1))
        return pa.table(out)

    return ds.map_batches(assign, batch_format="pyarrow")


def ivf_topk(ds: rd.Dataset, vec_col: str, id_col: str,
             query_ids: np.ndarray, query_mat: np.ndarray, k: int,
             n_centroids: int = 16, n_probe: int = 4,
             iters: int = 2) -> pd.DataFrame:
    """IVF approximate top-k: corpus rows are assigned to their nearest
    centroid; each query scores only rows in its ``n_probe`` nearest
    centroid cells. The scale path for ANN when hyperplane-LSH recall
    is insufficient: probe count tunes recall vs compute, and the
    centroid matrix (tiny) is the only broadcast state."""
    # Iterative algorithm over a fixed corpus: pin the (id, vec) blocks
    # in the object store once instead of re-executing the read for the
    # seed pass, each Lloyd step and the scoring pass (Ray spills if the
    # corpus exceeds store memory — the canonical multi-pass pattern).
    ds = ds.materialize()
    cents = ivf_centroids(ds, vec_col, id_col, n_centroids, iters)
    qm = _norm_rows(np.asarray(query_mat, np.float64))
    order = np.argsort(-(qm @ cents.T), axis=1)[:, :n_probe]
    probe_mask = np.zeros((len(qm), n_centroids), dtype=bool)
    np.put_along_axis(probe_mask, order, True, axis=1)
    ctx = ray.put((np.asarray(query_ids), qm, cents, probe_mask, k))

    def local(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col])
        m = _norm_rows(np.array(t[vec_col].to_pylist(), dtype=np.float64))
        qids, qmat, c, pmask, kk = ray.get(ctx)
        assign = np.argmax(m @ c.T, axis=1)
        # (nq, nb) allow matrix: row in a probed cell and not the query
        allow = pmask[:, assign] & (ids[None, :] != qids[:, None])
        sims = np.where(allow, qmat @ m.T, -np.inf)
        # per-batch top-k per query: ship ≤ nq·k rows, not every probed row
        take = min(kk, sims.shape[1])
        top = np.argpartition(-sims, take - 1, axis=1)[:, :take]
        qi, rank = np.divmod(np.arange(top.size), take)
        flat = top[qi, rank]
        keep = sims[qi, flat] > -np.inf
        return pa.table({"query_id": pa.array(qids[qi[keep]]),
                         "neighbor_id": pa.array(ids[flat[keep]]),
                         "cos": pa.array(sims[qi[keep], flat[keep]])})

    return _final_topk(ds.map_batches(local, batch_format="pyarrow"), k)


def hyperplane_codes(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """LSH bucket codes: sign pattern across `planes` → uint64."""
    bits = (mat @ planes.T) > 0
    weights = (np.uint64(1) << np.arange(planes.shape[0], dtype=np.uint64))
    return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1, dtype=np.uint64)


def make_planes(dim: int, n_planes: int = 12, seed: int = 42) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_planes, dim))


def _probe_codes(code: int, n_planes: int, n_probe: int) -> list[int]:
    """Multi-probe sequence: the query's own bucket, then buckets at
    Hamming distance 1, 2, … (deterministic order) up to n_probe codes."""
    out = [code]
    if n_probe > 1:
        for i in range(n_planes):
            out.append(code ^ (1 << i))
    if n_probe > 1 + n_planes:
        for i in range(n_planes):
            for j in range(i + 1, n_planes):
                out.append(code ^ (1 << i) ^ (1 << j))
    return out[:n_probe]


def lsh_bucket_topk(ds: rd.Dataset, vec_col: str, id_col: str,
                    query_ids: np.ndarray, query_mat: np.ndarray, k: int,
                    n_planes: int = 8, seed: int = 42,
                    n_probe: int = 1) -> pd.DataFrame:
    """Approximate top-k: corpus bucketed by hyperplane code; each query
    probes its own bucket plus the nearest ``n_probe-1`` bit-flip
    buckets (multi-probe LSH — recall rises with n_probe while scanned
    volume stays ~n_probe/2^n_planes of the corpus). Returns
    (query_id, neighbor_id, rank)."""
    qm = _norm_rows(np.asarray(query_mat, np.float64))
    dim = qm.shape[1]
    planes = make_planes(dim, n_planes, seed)
    q_codes = hyperplane_codes(qm, planes)
    q_by_code: dict[int, list[int]] = {}
    for qi, c in enumerate(q_codes):
        for pc_ in _probe_codes(int(c), n_planes, n_probe):
            lst = q_by_code.setdefault(pc_, [])
            if qi not in lst:
                lst.append(qi)
    ctx = ray.put((np.asarray(query_ids), qm, planes, q_by_code))

    def bucket_then_score(t: pa.Table) -> pa.Table:
        ids = np.asarray(t[id_col])
        m = _norm_rows(np.array(t[vec_col].to_pylist(), dtype=np.float64))
        qids, qmat, pl, qbc = ray.get(ctx)
        codes = hyperplane_codes(m, pl)
        outs = {"query_id": [], "neighbor_id": [], "cos": []}
        for code in np.unique(codes):
            qs = qbc.get(int(code))
            if not qs:
                continue
            sel = codes == code
            sims = qmat[qs] @ m[sel].T
            sel_ids = ids[sel]
            for row, qi in enumerate(qs):
                mask = sel_ids != qids[qi]
                outs["query_id"].extend([qids[qi]] * mask.sum())
                outs["neighbor_id"].extend(sel_ids[mask])
                outs["cos"].extend(sims[row][mask])
        return pa.table({k2: pa.array(v) for k2, v in outs.items()}) if outs["query_id"] \
            else pa.table({"query_id": pa.array([], pa.int64()),
                           "neighbor_id": pa.array([], pa.int64()),
                           "cos": pa.array([], pa.float64())})

    return _final_topk(
        ds.map_batches(bucket_then_score, batch_format="pyarrow"), k)


# ---------------------------------------------------------------------------
# Random projection (Achlioptas '03 ±1 signs) — dimensionality reduction
# as a pure map-side stage.
# ---------------------------------------------------------------------------

def rp_sign_matrix(dim: int, k: int) -> np.ndarray:
    """Deterministic ±1 sign matrix (dim × k), entry (i, j) = +1 iff the
    first hex nibble of md5("i:j") < 8. md5 (not splitmix) so a SQL
    oracle can derive the identical matrix (`md5(i || ':' || j)`); the
    matrix is dim·k scalars — built once on the driver and shipped in
    the task closure, never per batch."""
    import hashlib
    s = np.empty((dim, k), dtype=np.int64)
    for i in range(dim):
        for j in range(k):
            s[i, j] = 1 if int(hashlib.md5(
                f"{i}:{j}".encode()).hexdigest()[0], 16) < 8 else -1
    return s


def rp_project(ds: rd.Dataset, vec_col: str, id_col: str, k: int,
               scale: int = 1_000_000, dim: int | None = None) -> rd.Dataset:
    """Johnson–Lindenstrauss random projection of an embedding column
    to k dims, integer-exact: each float32 component is fixed-pointed
    by trunc(x · scale) (truncation has no round-half ties, so numpy
    and any SQL oracle agree bit-for-bit), then multiplied by the ±1
    sign matrix with an int64 matmul.  One streaming pass, no shuffle;
    output is the flattened (id, proj_dim, proj) long form.  E[‖Px‖²]
    = k·‖x‖² up to the fixed-point grid, so distances are preserved
    within the standard JL distortion at this k."""
    if dim is None:
        dim = len(ds.take(1)[0][vec_col])  # one-row peek, not a full read
    signs = rp_sign_matrix(dim, k)

    def project(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            # id type must follow the input schema (string ids exist)
            return pa.table({id_col: pa.array([],
                                              t.schema.field(id_col).type),
                             "proj_dim": pa.array([], pa.int64()),
                             "proj": pa.array([], pa.int64())})
        mat = np.stack(t[vec_col].to_numpy(zero_copy_only=False))
        ei = np.trunc(mat.astype(np.float64) * scale).astype(np.int64)
        p = ei @ signs                      # (n, k) int64, exact
        ids = t[id_col].to_numpy()
        return pa.table({
            id_col: pa.array(np.repeat(ids, k)),
            "proj_dim": pa.array(np.tile(np.arange(k, dtype=np.int64),
                                         len(ids))),
            "proj": pa.array(p.reshape(-1))})

    return ds.map_batches(project, batch_format="pyarrow")
