import random
from fractions import Fraction

import pytest

from hjoints import Hypergraph, WeightFunction, dual_cover, rho_star
from hjoints.errors import IsolatedVertex

K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))


def _certify(h, primal_value, dual_point):
    """Weak-duality optimality certificate, independent of the solver path."""
    assert all(y >= 0 for y in dual_point)
    for e in h.edges:
        assert sum(dual_point[j - 1] for j in e) <= 1
    assert sum(dual_point) == primal_value


def test_two_singletons():
    h = Hypergraph(2, ((1,), (2,)), (1, 1))
    sol = rho_star(h)
    assert sol.value == 2
    _certify(h, sol.value, (Fraction(1), Fraction(1)))


def test_isolated_vertex_rejected():
    h = Hypergraph(3, ((1, 2),), (1,))  # vertex 3 isolated
    with pytest.raises(IsolatedVertex):
        rho_star(h)


def test_one_covering_edge_dominates():
    # edge sizes are capped at d-1, so the smallest single-cover instances
    # pair two edges through a shared vertex
    h = Hypergraph(3, ((1, 2), (1, 3)), (1, 1))
    sol = rho_star(h)
    assert sol.value == 2  # each of vertices 2 and 3 needs its own edge
    _certify(h, sol.value, (Fraction(0), Fraction(1), Fraction(1)))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_complete_uniform_exact(d):
    # oracle: w = 1/(d-1) on each of the d facets is feasible with value
    # d/(d-1); the dual y = 1/(d-1) per vertex is feasible with equal value.
    h = Hypergraph.complete_uniform(d, d - 1)
    sol = rho_star(h)
    assert sol.value == Fraction(d, d - 1)
    _certify(h, sol.value, tuple(Fraction(1, d - 1) for _ in range(d)))
    assert sol.weights.covering
    assert sol.weights.total == sol.value
    assert sol.tight_vertices == tuple(range(1, d + 1))


def test_five_cycle_exact():
    # oracle: w = 1/2 on each edge covers every vertex exactly; dual y = 1/2
    # per vertex is feasible (each edge has two endpoints) with value 5/2.
    h = Hypergraph.cycle(5)
    sol = rho_star(h)
    assert sol.value == Fraction(5, 2)
    _certify(h, sol.value, tuple(Fraction(1, 2) for _ in range(5)))


def test_primal_equals_dual_exactly():
    rng = random.Random(11)
    for _ in range(15):
        d = rng.randrange(3, 7)
        edges = set()
        # random edges until no vertex is isolated
        while True:
            size = rng.randrange(1, d)
            edges.add(tuple(sorted(rng.sample(range(1, d + 1), size))))
            covered = {v for e in edges for v in e}
            if len(covered) == d and len(edges) >= 3:
                break
        h = Hypergraph(d, tuple(sorted(edges)), (1,) * len(edges))
        sol = rho_star(h)
        dual_value, y = dual_cover(h)
        assert sol.value == dual_value  # exact rational LP duality
        _certify(h, sol.value, y)


def test_optimum_invariant_under_relabeling():
    rng = random.Random(5)
    h = Hypergraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)),
                   (1,) * 6)
    base = rho_star(h).value
    for _ in range(6):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        relabeled = Hypergraph(
            5, tuple(tuple(sorted(perm[v - 1] for v in e)) for e in h.edges),
            h.colors)
        assert rho_star(relabeled).value == base


def test_verify_cover_examples():
    def loads(h, weights):
        return WeightFunction.for_hypergraph(h, weights).vertex_loads

    assert loads(K3, [Fraction(1, 2)] * 3) == (1, 1, 1)
    assert loads(K3, [Fraction(1, 3)] * 3) == (Fraction(2, 3),) * 3
    h = Hypergraph(4, ((1, 2), (3, 4)), (1, 1))
    assert loads(h, [Fraction(1), Fraction(1, 2)]) == \
        (1, 1, Fraction(1, 2), Fraction(1, 2))


def test_value_dominates_vertex_count_ratio():
    # sum_j load_j >= d and load sums to sum_e w(e)|e| <= |w| * max|e|
    rng = random.Random(21)
    for _ in range(10):
        d = rng.randrange(3, 7)
        edges = set()
        while len({v for e in edges for v in e}) < d:
            size = rng.randrange(1, d)
            edges.add(tuple(sorted(rng.sample(range(1, d + 1), size))))
        h = Hypergraph(d, tuple(sorted(edges)), (1,) * len(edges))
        sol = rho_star(h)
        assert sol.value >= Fraction(d, max(len(e) for e in h.edges))


def test_returned_weights_feasible_and_deterministic():
    h = Hypergraph.cycle(5)
    a = rho_star(h)
    b = rho_star(h)
    assert a.weights.weights == b.weights.weights  # Bland => reproducible
    assert all(load >= 1 for load in a.weights.vertex_loads)
