"""Dedup stage tests on synthetic near-duplicate corpora (the testdata
documents are all-distinct, so dup structure is injected here)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from realestate_scraper_ray.stages.dedupe import (
    embedding_neardup_pairs, exact_dedup_first, minhash_lsh_pairs,
    ngram_jaccard_pairs, simhash_pairs,
)

@pytest.fixture(scope="module")
def corpus(ray_session):
    # 10 clusters with disjoint 30-word vocabularies; 3 variants per
    # cluster differing in 2 words (within-cluster Jaccard high,
    # cross-cluster ≈ 0), plus fully random noise docs
    texts, ids = [], []
    for c in range(10):
        base = [f"w{c}_{i}" for i in range(30)]
        for v in range(3):
            t = list(base)
            t[10] = f"var{c}{v}a"
            t[20] = f"var{c}{v}b"
            texts.append(" ".join(t))
            ids.append(c * 10 + v)
    rng = np.random.default_rng(7)
    for i in range(30):
        texts.append(" ".join(f"n{i}_{j}" for j in rng.permutation(25)))
        ids.append(1000 + i)
    # exact duplicates
    texts += [texts[0], texts[0]]
    ids += [5000, 5001]
    return rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))


def _cluster(i):
    return i // 10 if i < 1000 else ("exact" if i >= 5000 else None)


def test_exact_dedup_first(corpus):
    out = pa.Table.from_pylist(
        exact_dedup_first(corpus, "text", "doc_id").take_all()).to_pandas()
    # 62 rows, 60 distinct texts (text[0] appears three times)
    assert len(out) == 60
    trip = out[out.dupes == 3]
    assert len(trip) == 1 and trip.doc_id.iloc[0] == 0  # keep-first = min id


def test_minhash_lsh_finds_clusters(corpus):
    pairs = minhash_lsh_pairs(corpus, "text", "doc_id", threshold=0.5,
                              num_perm=64, bands=32)  # 2 rows/band: P(miss|J=0.65) ~ 3e-8
    got = {(a, b) for a, b in zip(pairs.id_a, pairs.id_b)}
    # every within-cluster pair found, no cross-cluster noise pairs
    for c in range(10):
        for x, y in [(0, 1), (0, 2), (1, 2)]:
            assert (c * 10 + x, c * 10 + y) in got, (c, x, y)
    for a, b in got:
        ca, cb = _cluster(a), _cluster(b)
        assert ca == cb or {ca, cb} <= {0, "exact"}  # 5000/5001 copy text[0]


def test_simhash_pairs_exact_dups(corpus):
    pairs = simhash_pairs(corpus, "text", "doc_id", max_hamming=3)
    got = {(a, b) for a, b in zip(pairs.id_a, pairs.id_b)}
    assert (0, 5000) in got and (0, 5001) in got and (5000, 5001) in got
    ham0 = pairs[(pairs.id_a == 5000) & (pairs.id_b == 5001)]["hamming"].iloc[0]
    assert ham0 == 0


def test_ngram_jaccard_clusters(corpus):
    pairs = ngram_jaccard_pairs(corpus, "text", "doc_id", threshold=0.6)
    got = {(a, b) for a, b in zip(pairs.id_a, pairs.id_b)}
    for c in range(10):
        assert (c * 10, c * 10 + 1) in got


def test_embedding_neardup(ray_session):
    rng = np.random.default_rng(3)
    base = rng.standard_normal((20, 16)).astype(np.float32)
    vecs = [base[i] for i in range(20)]
    ids = list(range(20))
    # near-dup: vec 100 ≈ vec 0 + tiny noise
    vecs.append((base[0] + 0.01 * rng.standard_normal(16)).astype(np.float32))
    ids.append(100)
    ds = rd.from_arrow(pa.table({"vec_id": ids, "embedding": [v.tolist() for v in vecs]}))
    pairs = embedding_neardup_pairs(ds, "embedding", "vec_id", tau=0.95)
    assert [(a, b) for a, b in zip(pairs.id_a, pairs.id_b)] == [(0, 100)]


def test_ngram_jaccard_equals_brute_force(ray_session):
    # Blocking completeness at the margin: Jaccard ≥ 0.5 admits length
    # ratios up to 2×, which the old 32-char length buckets missed. The
    # blocked result must equal unblocked brute force exactly —
    # including a pair whose shingle counts differ by ~1.9×.
    from realestate_scraper_ray.functions.textstats import word_shingle_set
    texts, ids = [], []
    base = [f"t{i}" for i in range(40)]
    texts.append(" ".join(base)); ids.append(0)                 # 38 shingles
    texts.append(" ".join(base + [f"x{i}" for i in range(30)])); ids.append(1)
    texts.append(" ".join(base[:20])); ids.append(2)            # 18 shingles
    rng = np.random.default_rng(11)
    for i in range(20):
        n = int(rng.integers(3, 120))
        texts.append(" ".join(f"r{i}_{j}" for j in range(n))); ids.append(10 + i)
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    for thr in (0.5, 0.6):
        got = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=thr)
        got_pairs = {(a, b) for a, b in zip(got.id_a, got.id_b)}
        thr_mille = int(round(thr * 1000))
        sets = {i: word_shingle_set(t, 3) for i, t in zip(ids, texts)}
        exp = set()
        for i in ids:
            for j in ids:
                if i < j and sets[i]:
                    inter, union = len(sets[i] & sets[j]), len(sets[i] | sets[j])
                    if inter * 1000 >= thr_mille * union:
                        exp.add((i, j))
        assert got_pairs == exp, thr
    # the 1.9×-count pair really is above 0.5 (i.e. the case that matters)
    s0, s1 = sets[0], sets[1]
    assert len(s1) / len(s0) > 1.5
    assert len(s0 & s1) / len(s0 | s1) >= 0.5


def test_embedding_neardup_equals_brute_force(ray_session):
    rng = np.random.default_rng(5)
    n, d = 60, 12
    mat = rng.standard_normal((n, d))
    # plant some near-dups across different hash blocks
    for a, b in ((0, 13), (7, 22), (30, 31)):
        mat[b] = mat[a] + 0.05 * rng.standard_normal(d)
    ds = rd.from_arrow(pa.table({"vec_id": list(range(n)),
                                 "embedding": [v.tolist() for v in mat]}))
    got = embedding_neardup_pairs(ds, "embedding", "vec_id", tau=0.6, n_blocks=4)
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = norm @ norm.T
    exp = {(i, j) for i in range(n) for j in range(i + 1, n) if sims[i, j] >= 0.6}
    assert {(a, b) for a, b in zip(got.id_a, got.id_b)} == exp
    assert (0, 13) in exp


def test_neardup_pairs_deterministic(corpus):
    a = minhash_lsh_pairs(corpus, "text", "doc_id", threshold=0.5, num_perm=64, bands=32)
    b = minhash_lsh_pairs(corpus, "text", "doc_id", threshold=0.5, num_perm=64, bands=32)
    pd.testing.assert_frame_equal(a, b)


def test_duplicated_window_stats_brute_force(ray_session):
    from realestate_scraper_ray.stages.dedupe import duplicated_window_stats
    k = 8
    shared = [f"s{i}" for i in range(k)]  # one shared 8-word run
    texts = [
        " ".join([f"a{i}" for i in range(20)] + shared),
        " ".join(shared + [f"b{i}" for i in range(15)]),
        " ".join(f"c{i}" for i in range(30)),         # no dup windows
        "short doc under k words",                    # whole-text window
        "short doc under k words",                    # its exact dup
        " ".join(["r"] * 12),                         # repeated word: 1 distinct window
    ]
    ids = list(range(len(texts)))
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    got = {r["doc_id"]: (r["n_windows"], r["dup_windows"])
           for r in duplicated_window_stats(ds, "text", "doc_id", k=k).take_all()}

    # brute force on window strings
    def wins(t):
        w = t.split()
        if len(w) < k:
            return {" ".join(w)}
        return {" ".join(w[i:i + k]) for i in range(len(w) - k + 1)}

    sets = [wins(t) for t in texts]
    for i in ids:
        others = set().union(*(sets[j] for j in ids if j != i))
        assert got[i] == (len(sets[i]), len(sets[i] & others)), i
    assert got[0][1] >= 1 and got[2][1] == 0 and got[3] == (1, 1)


def test_embedding_neardup_lsh_recall_and_precision(ray_session):
    from realestate_scraper_ray.stages.dedupe import embedding_neardup_lsh
    # clustered vectors: 8 clusters of 4 near-identical vectors (cos
    # ~0.99 within, ~0 across) — the tight-τ regime LSH is built for
    rng = np.random.default_rng(5)
    vecs, ids = [], []
    for c in range(8):
        base = rng.standard_normal(32)
        base /= np.linalg.norm(base)
        for v in range(4):
            x = base + 0.05 * rng.standard_normal(32)
            vecs.append((x / np.linalg.norm(x)).tolist())
            ids.append(c * 10 + v)
    ds = rd.from_arrow(pa.table({"vec_id": ids, "embedding": vecs}))
    got = embedding_neardup_lsh(ds, "embedding", "vec_id", tau=0.9,
                                n_planes=4, n_tables=8)
    pairs = set(zip(got.id_a, got.id_b))
    # brute-force truth
    m = np.array(vecs)
    sims = m @ m.T
    ia, ib = np.nonzero(sims >= 0.9)
    truth = {(ids[a], ids[b]) for a, b in zip(ia, ib) if ids[a] < ids[b]}
    assert pairs <= truth                      # verify step is exact
    assert len(pairs & truth) / len(truth) >= 0.9   # recall

def _semdedup_seq_oracle(mat, ids, cents, tau, m_probe):
    """Sequential reimplementation of the assign+prune steps (centroids
    shared with the engine): top-m assignment, per-cluster tril rule,
    best-witness collapse."""
    norm = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    sims_c = norm @ cents.T
    top = np.argsort(-sims_c, axis=1)[:, :m_probe]
    order = np.argsort(ids)
    best: dict[int, tuple[float, int]] = {}
    for c in range(cents.shape[0]):
        sel = (top == c).any(axis=1)
        sidx = order[sel[order]]
        if sidx.size < 2:
            continue
        g, gid = norm[sidx], ids[sidx]
        s = np.tril(g @ g.T, k=-1)
        for j in range(1, len(gid)):
            i = int(np.argmax(s[j]))
            if s[j, i] >= tau:
                key, cand = int(gid[j]), (-s[j, i], int(gid[i]))
                if key not in best or cand < best[key]:
                    best[key] = cand
    return {k: v[1] for k, v in best.items()}


def test_semdedup_equals_sequential_oracle(ray_session):
    from realestate_scraper_ray.stages.dedupe import semdedup_prune
    from realestate_scraper_ray.stages.similarity import ivf_centroids
    rng = np.random.default_rng(9)
    n, d = 80, 12
    mat = rng.standard_normal((n, d))
    for a, b in ((0, 17), (5, 41), (30, 31), (30, 66)):
        mat[b] = mat[a] + 0.03 * rng.standard_normal(d)
    ids = np.arange(n, dtype=np.int64)
    ds = rd.from_arrow(pa.table({"vec_id": ids.tolist(),
                                 "embedding": [v.tolist() for v in mat]}))
    for m_probe in (1, 2, 4):
        got = semdedup_prune(ds, "embedding", "vec_id", tau=0.9,
                             n_centroids=8, m_probe=m_probe)
        cents = ivf_centroids(ds, "embedding", "vec_id", 8, 2)
        exp = _semdedup_seq_oracle(mat, ids, cents, 0.9, m_probe)
        assert dict(zip(got.removed_id, got.kept_id)) == exp, m_probe


def test_semdedup_full_probe_equals_global_rule(ray_session):
    # m_probe == n_centroids ⇒ every cluster holds every vector, so the
    # removal set must equal the global no-cluster rule exactly
    from realestate_scraper_ray.stages.dedupe import semdedup_prune
    rng = np.random.default_rng(12)
    n, d = 50, 10
    mat = rng.standard_normal((n, d))
    for a, b in ((2, 9), (9, 33), (20, 21)):
        mat[b] = mat[a] + 0.02 * rng.standard_normal(d)
    ds = rd.from_arrow(pa.table({"vec_id": list(range(n)),
                                 "embedding": [v.tolist() for v in mat]}))
    got = semdedup_prune(ds, "embedding", "vec_id", tau=0.9,
                         n_centroids=4, m_probe=4)
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = norm @ norm.T
    exp_removed = {j for j in range(n)
                   if max((sims[i, j] for i in range(j)), default=-1.0) >= 0.9}
    assert set(got.removed_id) == exp_removed
    # precision invariant at any probe count: removal ⊆ global rule
    got1 = semdedup_prune(ds, "embedding", "vec_id", tau=0.9,
                          n_centroids=4, m_probe=1)
    assert set(got1.removed_id) <= exp_removed


def test_semdedup_tiny_corpus_clamps_probe(ray_session):
    # 2-row corpus with the catalog defaults (n_centroids=16, m_probe=4):
    # the probe count must clamp to the ACTUAL centroid count, not the
    # requested one (ivf_centroids returns <= n rows)
    from realestate_scraper_ray.stages.dedupe import semdedup_prune
    ds = rd.from_arrow(pa.table({"vec_id": [0, 1],
                                 "embedding": [[1.0, 0.0], [1.0, 0.001]]}))
    out = semdedup_prune(ds, "embedding", "vec_id", tau=0.9,
                         n_centroids=16, m_probe=4)
    assert out.removed_id.tolist() == [1]
    assert out.kept_id.tolist() == [0]


# ---------------------------------------------------------------------------
# paragraph-level dedup + token windows
# ---------------------------------------------------------------------------


def _py_token_windows(texts, ids, width, stride):
    rows = []
    for i, s in zip(ids, texts):
        t = (s or "").split(" ")
        k = 0
        while k * stride < len(t):
            w = t[k * stride:k * stride + width]
            rows.append((i, k, " ".join(w), len(w)))
            k += 1
    return rows


def test_token_windows_brute_force(ray_session):
    from realestate_scraper_ray.functions.corpus import token_windows
    texts = ["a b c d e f g", "x", "", "p q r s", "a b c d e f g",
             " ".join(f"t{i}" for i in range(65))]
    ids = [3, 1, 2, 4, 5, 6]
    for width, stride in [(3, 3), (3, 2), (64, 48), (1, 1)]:
        got = token_windows(ids, texts, width, stride).to_pandas()
        got = sorted(map(tuple, got.itertuples(index=False)))
        want = sorted(_py_token_windows(texts, ids, width, stride))
        assert got == want, (width, stride)


def _py_paragraph_dedup(texts, ids, block):
    blocks = _py_token_windows(texts, ids, block, block)
    first = {}
    for did, bi, btxt, _ in sorted(blocks, key=lambda r: (r[0], r[1])):
        first.setdefault(btxt, (did, bi))
    out = {}
    for did, bi, btxt, _ in blocks:
        if first[btxt] == (did, bi):
            out.setdefault(did, []).append((bi, btxt))
    return {did: (" ".join(b for _, b in sorted(v)), len(v))
            for did, v in out.items()}


@pytest.mark.parametrize("threshold", [None, 0])
def test_paragraph_dedup_both_paths(ray_session, threshold):
    """Broadcast (threshold=None -> 64 MiB cap) and forced-distributed
    (threshold=0) paths against a sequential reference, on a corpus
    where one doc repeats another's blocks exactly (it must vanish),
    one shares a prefix block, and tails/empties are exercised."""
    from realestate_scraper_ray.stages.dedupe import paragraph_dedup
    B = 4
    d0 = " ".join(f"a{i}" for i in range(10))          # blocks a0..3 / a4..7 / a8,a9
    d1 = d0                                            # full dup -> vanishes
    d2 = " ".join([f"a{i}" for i in range(4)] + ["z1", "z2"])  # shares block 0
    d3 = "solo doc here"
    d4 = ""                                            # one empty block
    texts = [d0, d1, d2, d3, d4]
    ids = [10, 20, 5, 7, 9]
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    out = paragraph_dedup(ds, "text", "doc_id", block=B,
                          threshold_bytes=threshold)
    got = {r["doc_id"]: (r["text_dedup"], r["n_blocks_kept"])
           for r in out.take_all()}
    want = _py_paragraph_dedup(texts, ids, B)
    assert got == want
    assert 20 not in got                      # the full duplicate vanished
    assert got[5][0] == "a0 a1 a2 a3 z1 z2"   # min doc_id wins the shared block
    assert got[10][0] == " ".join(f"a{i}" for i in range(4, 10))


def test_similarity_join_equals_brute_force(ray_session):
    """Prefix-filter completeness (AllPairs bound): the blocked R⋈S
    join must equal unblocked brute force over every cross-side pair —
    including near-threshold pairs and a pair sharing only rare
    tokens. Sides come from id parity; same-side near-dups must NOT
    appear."""
    from realestate_scraper_ray.functions.textstats import word_shingle_set
    from realestate_scraper_ray.stages.dedupe import similarity_join_jaccard

    texts, ids = [], []
    base = [f"c{i}" for i in range(40)]
    # cross-side near-dup cluster (ids 0/1 even-odd, high J)
    texts.append(" ".join(base)); ids.append(0)
    texts.append(" ".join(base[:-2] + ["zz", "qq"])); ids.append(1)
    # same-side near-dup (ids 2,4 both even): must not be emitted
    texts.append(" ".join(base)); ids.append(2)
    texts.append(" ".join(base)); ids.append(4)
    # borderline pair around τ=0.5
    half = [f"h{i}" for i in range(30)]
    texts.append(" ".join(half + [f"a{i}" for i in range(10)])); ids.append(10)
    texts.append(" ".join(half + [f"b{i}" for i in range(10)])); ids.append(11)
    # noise + an empty doc on each side
    rng = np.random.default_rng(13)
    for i in range(24):
        n = int(rng.integers(3, 90))
        texts.append(" ".join(f"r{i}_{j}" for j in range(n)))
        ids.append(100 + i)
    texts += ["", "   "]; ids += [900, 901]
    ds = rd.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    ds = ds.map_batches(
        lambda t: t.append_column(
            "side", pa.compute.bit_wise_and(t["doc_id"], 1)),
        batch_format="pyarrow")

    for thr in (0.4, 0.5, 0.8):
        got = similarity_join_jaccard(ds, "text", "doc_id", "side",
                                      threshold=thr)
        got_rows = {(r, s, i, u) for r, s, i, u in zip(
            got.r_id, got.s_id, got.inter_n, got.union_n)}
        thr_mille = int(round(thr * 1000))
        sets = {i: word_shingle_set(t, 3) for i, t in zip(ids, texts)}
        exp = set()
        for a in ids:
            for b in ids:
                if a % 2 == 0 and b % 2 == 1 and sets[a] and sets[b]:
                    inter = len(sets[a] & sets[b])
                    union = len(sets[a] | sets[b])
                    if inter * 1000 >= thr_mille * union:
                        exp.add((a, b, inter, union))
        assert got_rows == exp, thr
        assert len(got) == len(got_rows), thr  # one row per pair
    # the designed cases actually bind: cross pair found at 0.5,
    # same-side identical docs never emitted
    got = similarity_join_jaccard(ds, "text", "doc_id", "side", 0.5)
    pairs = {(r, s) for r, s in zip(got.r_id, got.s_id)}
    assert (0, 1) in pairs
    assert not any(r % 2 == s % 2 for r, s in pairs)


def test_similarity_join_integer_prefix_and_id_collision(ray_session):
    """Two regressions. (1) Prefix length must come from the SAME
    integer gate as verify: at τ=0.07 and n=100, float ceil(τ·n) is
    ceil(7.000…01)=8, shortening the prefix to 93 — exactly excluding
    the 7 shared (most-common, df=2) tokens of a minimal qualifying
    pair, which then never co-groups. (2) R and S may have overlapping
    id spaces: an R doc and an S doc with the SAME id are two members,
    and their qualifying pair must be emitted."""
    from realestate_scraper_ray.stages.dedupe import similarity_join_jaccard

    words = [f"w{i}" for i in range(102)]
    big = " ".join(words)            # 100 word-3-shingles
    small = " ".join(words[40:49])   # 9 words → 7 shingles, all shared
    ds = rd.from_arrow(pa.table({
        "doc_id": [0, 1, 5, 5],
        "side": [0, 1, 0, 1],
        "text": [big, small, "x y z q r", "x y z q r"],
    }))
    got = similarity_join_jaccard(ds, "text", "doc_id", "side",
                                  threshold=0.07)
    rows = {(r, s, i, u) for r, s, i, u in zip(
        got.r_id, got.s_id, got.inter_n, got.union_n)}
    assert (0, 1, 7, 100) in rows       # J = 0.07 exactly, boundary
    assert (5, 5, 3, 3) in rows         # id collision across sides


def test_containment_pairs_planted(ray_session):
    """Asymmetric containment: a short doc quoted inside a long one has
    tiny Jaccard but containment 1 — the case the symmetric ops miss.
    Brute-force twin over every ordered pair."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from realestate_scraper_ray.functions.textstats import (
        _hash_tokens_matrix,
    )
    from realestate_scraper_ray.stages.dedupe import containment_pairs

    quoted = "alpha beta gamma delta epsilon zeta"
    long_doc = ("intro words here " + quoted
                + " and a very long tail of unrelated filler text "
                + " ".join(f"w{i}" for i in range(40)))
    docs = {
        1: quoted,                      # contained in 2
        2: long_doc,                    # container
        3: "totally different content about something else entirely",
        4: quoted,                      # exact dup of 1: mutual containment
    }
    ds = rd.from_arrow(pa.table({
        "doc_id": list(docs), "text": list(docs.values())}))
    got = containment_pairs(ds, "text", "doc_id", threshold=0.8)
    got_pairs = set(zip(got["contained_id"], got["container_id"]))

    # brute force over ordered pairs
    hs = {i: np.unique(h) for i, h in zip(
        docs, _hash_tokens_matrix(list(docs.values()), 3))}
    exp = set()
    for a in docs:
        for b in docs:
            if a == b or len(hs[a]) == 0:
                continue
            inter = len(np.intersect1d(hs[a], hs[b]))
            if inter * 1000 >= 800 * len(hs[a]):
                exp.add((a, b))
    assert got_pairs == exp
    assert (1, 2) in got_pairs          # quoted-inside detected
    assert (2, 1) not in got_pairs      # asymmetry holds
    assert (1, 4) in got_pairs and (4, 1) in got_pairs  # dups mutual
    # the jaccard of (1,2) is below 0.5 — symmetric ops would miss it
    j = len(np.intersect1d(hs[1], hs[2])) / len(np.union1d(hs[1], hs[2]))
    assert j < 0.5


def test_containment_pairs_rejects_ids_outside_31_bits(ray_session):
    """Pair keys pack two ids into one int64: an id that is negative
    or ≥ 2³¹ would alias another pair, so it raises instead; the
    largest valid id and an empty input are accepted."""
    import pyarrow as pa
    import pytest
    import ray.data as rd

    from realestate_scraper_ray.stages.dedupe import containment_pairs

    text = "alpha beta gamma delta epsilon zeta"
    for bad in (-1, 1 << 31):
        ds = rd.from_arrow(pa.table({"doc_id": [0, bad],
                                     "text": [text, text]}))
        with pytest.raises(ValueError, match="2\\*\\*31"):
            containment_pairs(ds, "text", "doc_id")
    top = (1 << 31) - 1
    ok = containment_pairs(rd.from_arrow(pa.table(
        {"doc_id": [0, top], "text": [text, text]})), "text", "doc_id")
    assert set(zip(ok["contained_id"], ok["container_id"])) == {
        (0, top), (top, 0)}
    empty = containment_pairs(rd.from_arrow(pa.table(
        {"doc_id": pa.array([], pa.int64()),
         "text": pa.array([], pa.string())})), "text", "doc_id")
    assert len(empty) == 0


def _no_pair_ops():
    from realestate_scraper_ray.stages import dedupe as D
    from realestate_scraper_ray.stages.fuzzy import fuzzy_selfjoin_editdist
    return {
        "minhash": lambda ds: D.minhash_lsh_pairs(ds, "text", "doc_id"),
        "simhash": lambda ds: D.simhash_pairs(ds, "text", "doc_id"),
        "ngram": lambda ds: D.ngram_jaccard_pairs(ds, "text", "doc_id"),
        "simjoin": lambda ds: D.similarity_join_jaccard(
            ds, "text", "doc_id", "side"),
        "containment": lambda ds: D.containment_pairs(ds, "text", "doc_id"),
        "embedding": lambda ds: D.embedding_neardup_pairs(
            ds, "embedding", "doc_id", tau=0.5),
        "embedding_lsh": lambda ds: D.embedding_neardup_lsh(
            ds, "embedding", "doc_id", tau=0.5),
        "fuzzy": lambda ds: fuzzy_selfjoin_editdist(ds, "doc_id", "text"),
    }


@pytest.mark.parametrize("op", sorted(_no_pair_ops()))
def test_no_pair_corpus_gives_typed_empty(ray_session, op):
    """Three unrelated documents (orthogonal embeddings, one per side):
    every pair operator returns zero rows with int64 pair ids."""
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "side": pa.array([0, 1, 0], pa.int64()),
        "text": ["alpha beta gamma delta", "one two three four",
                 "red green blue yellow"],
        "embedding": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}))
    out = _no_pair_ops()[op](ds)
    assert len(out) == 0
    assert [str(t) for t in out.dtypes.iloc[:2]] == ["int64", "int64"]


def test_verify_paths_match_bruteforce(corpus, monkeypatch):
    """MinHash and containment verify broadcast the side table under
    the cap and hash-join it above; both paths give the brute-force
    pairs and counts."""
    from realestate_scraper_ray.functions.textstats import word_shingle_set
    from realestate_scraper_ray.stages import joins
    from realestate_scraper_ray.stages.dedupe import containment_pairs
    rows = corpus.take_all()
    sets = {r["doc_id"]: word_shingle_set(r["text"], 3) for r in rows}
    ids = sorted(sets)
    jac = {(a, b): len(sets[a] & sets[b]) / len(sets[a] | sets[b])
           for a in ids for b in ids if a < b}
    exp_mh = {p: j for p, j in jac.items() if j >= 0.5}
    exp_ct = {(a, b): (len(sets[a] & sets[b]), len(sets[a]))
              for a in ids for b in ids
              if a != b and len(sets[a] & sets[b]) * 1000
              >= 800 * len(sets[a])}
    assert exp_mh and exp_ct
    for cap in (joins.BROADCAST_THRESHOLD_BYTES, 0):
        monkeypatch.setattr(joins, "BROADCAST_THRESHOLD_BYTES", cap)
        mh = minhash_lsh_pairs(corpus, "text", "doc_id", threshold=0.5,
                               num_perm=64, bands=32)
        assert dict(zip(zip(mh.id_a, mh.id_b), mh.jaccard)) == \
            pytest.approx(exp_mh), cap
        assert len(mh) == len(exp_mh), cap  # one row per pair
        ct = containment_pairs(corpus, "text", "doc_id", threshold=0.8)
        assert {(a, b): (i, n) for a, b, i, n in zip(
            ct.contained_id, ct.container_id, ct.inter_n,
            ct.n_contained)} == exp_ct, cap
        assert len(ct) == len(exp_ct), cap
