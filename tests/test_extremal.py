import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hjoints import (Hypergraph, SimpleHypergraph, colex_sets, cone_pattern,
                     count_inducing_sets, inducing_sets, kruskal_katona_count,
                     lovasz_bound, partial_shadow_check, search_M)
from hjoints.errors import SizeMismatch, UniformityMismatch
from hjoints.extremal import binom_real, colex_key, find_embedding

K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))
P3 = Hypergraph(3, ((1, 2), (2, 3)), (1, 1))


def test_contains_copy_examples():
    assert find_embedding(SimpleHypergraph.complete(3, 2), K3) is not None
    path = SimpleHypergraph.from_sets(3, [(1, 2), (2, 3)])
    assert find_embedding(path, K3) is None
    # cone of K3 inside the complete 3-uniform on 4 vertices
    assert find_embedding(SimpleHypergraph.complete(4, 3),
                          cone_pattern(3, 1)) is not None
    with pytest.raises(SizeMismatch):
        find_embedding(SimpleHypergraph.complete(4, 2), K3)


def test_count_inducing_sets_examples():
    assert count_inducing_sets(SimpleHypergraph.complete(4, 2), K3) == 4
    assert count_inducing_sets(SimpleHypergraph.cycle(5), K3) == 0
    colex5 = SimpleHypergraph.from_sets(5, colex_sets(2, 5))
    # oracle by hand: colex gives 12,13,23,14,24; triangles 123 and 124
    assert sorted(colex_sets(2, 5)) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]
    assert set(inducing_sets(colex5, K3)) == {(1, 2, 3), (1, 2, 4)}


def test_count_isomorphism_invariance():
    rng = random.Random(3)
    host = SimpleHypergraph.from_sets(
        6, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)])
    base = count_inducing_sets(host, K3)
    for _ in range(5):
        perm = list(range(1, 7))
        rng.shuffle(perm)
        moved = SimpleHypergraph.from_sets(
            6, [[perm[v - 1] for v in e] for e in host.edge_tuples()])
        assert count_inducing_sets(moved, K3) == base


def test_colex_order_and_family():
    assert colex_sets(2, 5) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]
    first12 = colex_sets(3, 12)
    assert first12[:4] == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    assert first12[10] == (1, 2, 6)


@pytest.mark.parametrize("x", range(3, 11))
def test_kruskal_katona_equality_cases(x):
    assert kruskal_katona_count(comb(x, 2), 3) == comb(x, 3)


def test_kruskal_katona_hand_values():
    assert kruskal_katona_count(5, 3) == 2
    assert kruskal_katona_count(12, 4) == 5


def test_lovasz_bound_values():
    # oracle: x = (1 + sqrt(41)) / 2 solves x(x-1)/2 = 5, bound = 10(x-2)/6
    x, bound, clamped = lovasz_bound(5, 3)
    assert abs(x - 3.7015621187164243) < 1e-9
    assert abs(bound - 2.8359368645273744) < 1e-6
    assert not clamped
    assert bound >= kruskal_katona_count(5, 3)
    # integer equality case
    x5, bound5, _ = lovasz_bound(10, 3)
    assert abs(x5 - 5.0) < 1e-9 and abs(bound5 - 10.0) < 1e-8


def test_binom_real_matches_integers():
    for x in range(3, 9):
        for d in range(2, 5):
            assert abs(binom_real(float(x), d) - comb(x, d)) < 1e-9


def test_partial_shadow_t0_is_clique_count_check():
    host = SimpleHypergraph.from_sets(5, colex_sets(2, 5))
    rep = partial_shadow_check(host, 3, 0)
    assert rep.count == 2 and rep.passed
    with pytest.raises(UniformityMismatch):
        partial_shadow_check(host, 3, 1)


def test_partial_shadow_t1_complete_host():
    host = SimpleHypergraph.complete(5, 3)
    rep = partial_shadow_check(host, 3, 1)
    # oracle: every 4-subset of [5] holds all four triples, hence a cone copy
    assert rep.count == 5
    assert abs(rep.x - 5.0) < 1e-9
    assert abs(rep.bound - 10.0) < 1e-7
    assert rep.passed


def test_partial_shadow_random_3uniform_hosts():
    rng = random.Random(19)
    for _ in range(40):
        nverts = rng.randrange(5, 9)
        pool = list(itertools.combinations(range(1, nverts + 1), 3))
        n = rng.randrange(4, 13)
        host = SimpleHypergraph.from_sets(nverts, rng.sample(pool, min(n, len(pool))))
        assert partial_shadow_check(host, 3, 1).passed


def test_bound_matches_across_t_for_same_n():
    n = 10
    _, b0, _ = lovasz_bound(n, 3)
    rep0 = partial_shadow_check(SimpleHypergraph.from_sets(5, colex_sets(2, 10)), 3, 0)
    rep1 = partial_shadow_check(SimpleHypergraph.complete(5, 3), 3, 1)
    assert rep0.n_edges == rep1.n_edges == n
    assert rep0.bound == rep1.bound == b0


def test_search_exhaustive_k3_n5():
    res = search_M(K3, 5, 6, mode="exhaustive")
    assert res.best_count == 2  # colex is extremal here
    assert res.certified


def test_search_local_matches_exhaustive_small():
    res_ex = search_M(K3, 4, 5, mode="exhaustive")
    res_lo = search_M(K3, 4, 5, mode="local", restarts=20, seed=0)
    assert res_lo.best_count == res_ex.best_count


def test_search_local_strictness_instance():
    # the (12, 4, 1) strictness: 12 four-sets on six vertices with six
    # 5-sets containing the coned tetrahedron, beating the 3-uniform value 5
    pattern = cone_pattern(4, 1)
    res = search_M(pattern, 12, 6, mode="local", restarts=40, seed=0)
    assert res.best_count >= 6
    assert kruskal_katona_count(12, 4) == 5
    # oracle construction: drop three 4-sets whose complements form a
    # perfect matching on [6]; each 5-set then misses exactly one edge
    drop = {frozenset({3, 4, 5, 6}), frozenset({1, 2, 5, 6}),
            frozenset({1, 2, 3, 4})}
    keep = [c for c in itertools.combinations(range(1, 7), 4)
            if frozenset(c) not in drop]
    host = SimpleHypergraph.from_sets(6, keep)
    assert count_inducing_sets(host, pattern) == 6


def oracle_search(h, n, budget, mode, *, seed=0, restarts=200):
    """search_M as a plain loop that scores every host it examines with
    count_inducing_sets: no memo and no isomorphism dedup."""
    sizes = {len(e) for e in h.edges}
    pool = [sum(1 << (v - 1) for v in c) for c in sorted(
        (c for k in sizes
         for c in itertools.combinations(range(1, budget + 1), k)),
        key=colex_key)]

    def count(edges):
        return count_inducing_sets(SimpleHypergraph(budget, tuple(edges)), h)

    if mode == "exhaustive":
        best, best_host = -1, None
        for combo in itertools.combinations(pool, n):
            c = count(combo)
            if c > best:
                best, best_host = c, combo
        return best, SimpleHypergraph(budget, best_host), True, comb(len(pool), n)
    rng = random.Random(seed)
    best, best_host, examined = -1, None, 0
    for restart in range(restarts):
        current = set(pool[:n] if restart == 0 else rng.sample(pool, n))
        score = count(current)
        examined += 1
        improved = True
        while improved:
            improved = False
            for out_edge in sorted(current):
                for in_edge in pool:
                    if in_edge in current:
                        continue
                    trial = (current - {out_edge}) | {in_edge}
                    examined += 1
                    s = count(trial)
                    if s > score:
                        current, score, improved = trial, s, True
                        break
                if improved:
                    break
        if score > best:
            best, best_host = score, current
    return best, SimpleHypergraph(budget, tuple(best_host)), False, examined


@st.composite
def search_cases(draw):
    d = draw(st.integers(2, 5))
    subsets = [c for k in range(1, d)
               for c in itertools.combinations(range(1, d + 1), k)]
    edges = draw(st.lists(st.sampled_from(subsets), min_size=1, max_size=5))
    # a repeated edge takes the next colour, so colours hold no duplicates
    colors = [edges[:i].count(e) + 1 for i, e in enumerate(edges)]
    h = Hypergraph(d, tuple(edges), tuple(colors))
    budget = draw(st.integers(4, 6))
    pool = sum(comb(budget, k) for k in {len(e) for e in edges})
    mode = draw(st.sampled_from(["exhaustive", "local"]))
    if mode == "exhaustive":
        n = draw(st.sampled_from([k for k in range(pool + 1)
                                  if comb(pool, k) <= 2000]))
    else:
        n = draw(st.integers(0, min(pool, 5)))
    return h, n, budget, mode, draw(st.integers(0, 9)), draw(st.integers(1, 2))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(case=search_cases())
def test_search_matches_the_unmemoised_oracle(case):
    h, n, budget, mode, seed, restarts = case
    res = search_M(h, n, budget, mode, seed=seed, restarts=restarts)
    assert (res.best_count, res.best_host, res.certified,
            res.hosts_examined) == oracle_search(
        h, n, budget, mode, seed=seed, restarts=restarts)


@pytest.mark.parametrize("h, n, mode, best, hosts, best_host", [
    (K3, 4, "exhaustive", 1, 1365, None),
    (K3, 5, "exhaustive", 2, 3003, None),
    (K3, 6, "exhaustive", 4, 5005, (3, 5, 6, 9, 10, 12)),
    (P3, 5, "exhaustive", 10, 3003, (3, 5, 9, 17, 33)),
    (cone_pattern(4, 1), 12, "local", 6, 1986, None),
])
def test_search_values_are_pinned(h, n, mode, best, hosts, best_host):
    res = search_M(h, n, 6, mode, restarts=40, seed=0)
    assert (res.best_count, res.hosts_examined) == (best, hosts)
    assert best_host is None or res.best_host.edges == best_host


def test_search_certifies_kruskal_katona_at_budget_7():
    res = search_M(K3, 8, 7, mode="exhaustive")
    assert res.certified and res.hosts_examined == comb(21, 8)
    assert res.best_count == kruskal_katona_count(8, 3) == 5


def test_search_local_needs_a_restart():
    with pytest.raises(ValueError):
        search_M(K3, 4, 5, mode="local", restarts=0)
