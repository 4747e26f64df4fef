"""The candidate-pair kernels (stages/pairs.py) against loop and
Python-set references: shared counts per row pair, aligned-pair
intersections, the rarest-first prefix, first rows and the triangle
cell ownership."""

from itertools import combinations

import numpy as np
import pandas as pd
import pyarrow as pa

from realestate_scraper_ray.stages.pairs import (
    as_sets, first_rows, flat, intersect_sizes, prefix, ranked,
    shared_counts, triangle,
)


def _sets(rng, n, vocab, lo=0, hi=12):
    return [np.unique(rng.integers(0, vocab, rng.integers(lo, hi))
                      .astype(np.uint64)) for _ in range(n)]


def test_shared_counts_matches_set_intersections():
    rng = np.random.default_rng(1)
    sets = _sets(rng, 40, 30)
    group = rng.integers(0, 3, len(sets))
    a, b, inter, low = shared_counts(group, as_sets(sets))
    got = {(int(x), int(y)): (int(c), int(w))
           for x, y, c, w in zip(a, b, inter, low)}
    exp = {}
    for x, y in combinations(range(len(sets)), 2):
        shared = set(sets[x].tolist()) & set(sets[y].tolist())
        if group[x] == group[y] and shared:
            exp[(x, y)] = (len(shared), min(shared))
    assert got == exp
    assert [len(r) for r in shared_counts(group[:0], as_sets([]))] == [0] * 4


def test_intersect_sizes_matches_sets():
    rng = np.random.default_rng(2)
    sa, sb = _sets(rng, 50, 20), _sets(rng, 50, 20)
    vals, n = flat(as_sets(sa).slice(3))  # a sliced column reads its own rows
    assert vals.tolist() == np.concatenate(sa[3:]).tolist()
    assert n.tolist() == [len(s) for s in sa[3:]]
    na, nb, inter = intersect_sizes(as_sets(sa), as_sets(sb))
    assert na.tolist() == [len(s) for s in sa]
    assert nb.tolist() == [len(s) for s in sb]
    assert inter.tolist() == [len(set(x.tolist()) & set(y.tolist()))
                              for x, y in zip(sa, sb)]


def test_ranked_keeps_sizes_and_intersections():
    rng = np.random.default_rng(6)
    sets = _sets(rng, 20, 40)
    toks = np.unique(np.concatenate(sets)).view(np.int64)
    rank = rng.permutation(len(toks)).astype(np.int64)
    got = ranked(as_sets(sets), (toks, rank))
    vals, n = flat(got)
    assert n.tolist() == [len(s) for s in sets]
    assert vals.tolist() == rank[np.searchsorted(
        toks, np.concatenate(sets).view(np.int64))].tolist()


def test_prefix_matches_per_row_loop():
    rng = np.random.default_rng(3)
    sets = _sets(rng, 30, 60, hi=40)
    toks = np.unique(np.concatenate(sets)).view(np.int64)
    rank = rng.permutation(len(toks)).astype(np.int64)
    for thr_mille in (70, 500, 800, 1000):
        rows, got = prefix(as_sets(sets), (toks, rank), thr_mille)
        for i, s in enumerate(sets):
            n = len(s)
            hv = s.view(np.int64)
            r = rank[np.searchsorted(toks, hv)]
            p = n - (thr_mille * n + 999) // 1000 + 1 if n else 0
            assert got[rows == i].tolist() == \
                hv[np.argsort(r, kind="stable")[:p]].tolist()


def test_first_rows_matches_drop_duplicates():
    rng = np.random.default_rng(4)
    df = pd.DataFrame({"a": rng.integers(0, 4, 60),
                       "b": rng.integers(0, 3, 60)})
    got = first_rows(df["a"].to_numpy(), df["b"].to_numpy())
    assert got.tolist() == df.drop_duplicates(["a", "b"]).index.tolist()


def test_triangle_cells_own_each_pair_once():
    n = 4
    shard = np.array([0, 1, 2, 3, 1, 2, 0, 3, 3])
    rep = triangle(pa.table({"r": np.arange(len(shard))}), shard, n)
    owners = {}
    for (si, sj), g in rep.to_pandas().groupby(["si", "sj"]):
        assert set(g["s"]) <= {si, sj}
        rows, s = g["r"].to_numpy(), g["s"].to_numpy()
        for x, y in combinations(range(len(rows)), 2):
            if (s[x] == s[y]) == (si == sj):
                owners.setdefault(tuple(sorted((rows[x], rows[y]))),
                                  []).append((si, sj))
    assert set(owners) == set(combinations(range(len(shard)), 2))
    assert all(len(v) == 1 for v in owners.values())
