"""Edit-distance fuzzy join (stages/fuzzy.py): deletion-neighborhood
hash algebra vs brute-force variant enumeration, the vectorized DP vs a
sequential Levenshtein, and the distributed self-join vs an O(n²)
oracle at k=1 and k=2 (SQL-oracle parity runs via
tools/check_correctness.py)."""

import random
from itertools import combinations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from realestate_scraper_ray.stages.fuzzy import (
    _B, _SEED, _pow_table, _variant_hashes, editdist_batch,
    fuzzy_selfjoin_editdist,
)


def _direct_hash(s: str) -> np.uint64:
    cp = np.frombuffer(s.encode("utf-32-le"), np.uint32).astype(np.uint64)
    pw = _pow_table(_B, len(cp) + 2)
    with np.errstate(over="ignore"):
        h = _SEED * pw[len(cp)]
        for p, c in enumerate(cp):
            h += c * pw[len(cp) - 1 - p]
    return np.uint64(h)


def _ed(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        nd = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            nd[j] = min(dp[j] + 1, nd[j - 1] + 1,
                        dp[j - 1] + (a[i - 1] != b[j - 1]))
        dp = nd
    return dp[len(b)]


def test_variant_hashes_match_brute_enumeration():
    strs = ["", "a", "ab", "żółw", "Customer#0001", "aab", "hello world"]
    for k in (1, 2):
        rows, vh = _variant_hashes(strs, k)
        for i, s in enumerate(strs):
            variants = set()
            for j in range(0, min(k, len(s)) + 1):
                for dels in combinations(range(len(s)), j):
                    variants.add("".join(
                        c for p, c in enumerate(s) if p not in dels))
            exp = sorted(np.uint64(_direct_hash(v)) for v in variants)
            assert sorted(vh[rows == i]) == exp


def test_editdist_batch_matches_sequential():
    random.seed(1)
    alpha = "abcó"
    sa = ["".join(random.choice(alpha) for _ in range(random.randint(0, 8)))
          for _ in range(400)]
    sb = ["".join(random.choice(alpha) for _ in range(random.randint(0, 8)))
          for _ in range(400)]
    exp = np.array([_ed(a, b) for a, b in zip(sa, sb)])
    got = editdist_batch(sa, sb, 8)
    assert (got == np.minimum(exp, 9)).all()
    # kmax short-circuit: within-threshold distances stay exact
    got2 = editdist_batch(sa, sb, 2)
    assert ((got2 == exp) | ((exp > 2) & (got2 > 2))).all()


def test_editdist_batch_long_outlier_among_short_names():
    # one 200-char pair among short names: the DP runs per length class,
    # and every class (the outlier's, the empty strings', the short
    # names') must still give the exact distance
    rng = random.Random(7)
    alpha = "abcż"

    def word(n):
        return "".join(rng.choice(alpha) for _ in range(n))

    sa = [word(rng.randint(0, 12)) for _ in range(300)]
    sb = [a if rng.random() < 0.3 else word(max(0, len(a) + rng.randint(-2, 2)))
          for a in sa]
    long_a = word(200)
    long_b = long_a[:50] + "x" + long_a[51:150] + long_a[151:]
    sa.insert(123, long_a)
    sb.insert(123, long_b)
    sa += ["", "ab"]
    sb += ["", ""]
    exp = np.array([_ed(a, b) for a, b in zip(sa, sb)])
    assert exp[123] == 2
    got = editdist_batch(sa, sb, 3)
    assert ((got == exp) | ((exp > 3) & (got == 4))).all()
    assert (editdist_batch(sa, sb, 250) == exp).all()


def _noisy_names(n: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    base = [f"Widget Model {i:04d}" for i in range(n // 2)]
    out = list(base)
    alpha = "abcdefghijklmnopqrstuvwxyz0123456789"
    while len(out) < n:
        s = rng.choice(base)
        op = rng.randrange(3)
        p = rng.randrange(len(s))
        if op == 0:      # substitute
            s = s[:p] + rng.choice(alpha) + s[p + 1:]
        elif op == 1:    # delete
            s = s[:p] + s[p + 1:]
        else:            # insert
            s = s[:p] + rng.choice(alpha) + s[p:]
        out.append(s)
    return out


def _brute_pairs(names: list[str], k: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(len(names)) for j in range(i + 1, len(names))
            if abs(len(names[i]) - len(names[j])) <= k
            and _ed(names[i], names[j]) <= k}


def test_selfjoin_k1_matches_bruteforce(ray_session):
    names = _noisy_names(300, seed=7)
    ds = rd.from_arrow(pa.table({
        "id": pa.array(np.arange(len(names), dtype=np.int64)),
        "name": pa.array(names)})).repartition(5)
    got = fuzzy_selfjoin_editdist(ds, "id", "name", k=1)
    exp = _brute_pairs(names, 1)
    assert set(zip(got.a_id, got.b_id)) == exp
    for r in got.itertuples():
        assert r.dist == _ed(names[r.a_id], names[r.b_id]) <= 1


def test_selfjoin_k2_matches_bruteforce(ray_session, tmp_path):
    # k=2 over a small-vocabulary table (the part-names shape):
    # duplicates make dist-0 pairs, the vocabulary makes dist-1/2 pairs
    rng = np.random.default_rng(3)
    vocab = [f"{a} {b}" for a in ("cold", "bold", "gold", "small", "smell")
             for b in ("widget", "gadget", "bolt", "bolts")]
    names = rng.choice(vocab, 120).tolist()
    t = pa.table({"id": pa.array(np.arange(120, dtype=np.int64)),
                  "name": pa.array(names)})
    pq.write_table(t, tmp_path / "x.parquet", row_group_size=16)
    got = fuzzy_selfjoin_editdist(rd.read_parquet(str(tmp_path / "x.parquet")),
                                  "id", "name", k=2)
    exp = _brute_pairs(names, 2)
    assert set(zip(got.a_id, got.b_id)) == exp
    assert (got.dist <= 2).all() and (got.dist >= 0).all()


def test_selfjoin_ids_beyond_31_bits(ray_session):
    """Pairs are deduplicated on both id columns, not on a 31-bit
    packed key, which would alias (4, 2**31 + 7) to (5, 7): any int64
    id joins."""
    ds = rd.from_arrow(pa.table({
        "id": pa.array([4, 2**31 + 7, 5, 7], pa.int64()),
        "name": ["abcd", "abce", "qqqq", "zzzy"]}))
    got = fuzzy_selfjoin_editdist(ds, "id", "name", k=1)
    assert list(zip(got.a_id, got.b_id, got.dist)) == [(4, 2**31 + 7, 1)]


def test_selfjoin_both_verify_paths(ray_session, monkeypatch):
    """The string attach broadcasts under the cap and hash-joins above
    it; both give the brute-force pairs and distances."""
    from realestate_scraper_ray.stages import joins
    names = _noisy_names(120, seed=11)
    ds = rd.from_arrow(pa.table({
        "id": pa.array(np.arange(len(names), dtype=np.int64)),
        "name": pa.array(names)})).repartition(3)
    exp = _brute_pairs(names, 1)
    for cap in (joins.BROADCAST_THRESHOLD_BYTES, 0):
        monkeypatch.setattr(joins, "BROADCAST_THRESHOLD_BYTES", cap)
        got = fuzzy_selfjoin_editdist(ds, "id", "name", k=1)
        assert set(zip(got.a_id, got.b_id)) == exp, cap
        assert all(r.dist == _ed(names[r.a_id], names[r.b_id])
                   for r in got.itertuples()), cap
