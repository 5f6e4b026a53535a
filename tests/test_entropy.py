import itertools
import math
import random
from fractions import Fraction

import pytest
from hjoints import (FiniteDistribution, Hypergraph, SimpleHypergraph,
                     WeightFunction, axis_parallel_from_functions,
                     axis_parallel_pattern, entropy, generic_hyperplanes,
                     generically_induced, geometric_shearer_audit,
                     holder_check, joint_entropy, joint_multiplicity,
                     loomis_whitney_check, shearer_check)
from hjoints.entropy import project_joint, tensor_power_bound
from hjoints.errors import EmptyTupleSet, NotCovering

K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))


def test_entropy_basics():
    assert entropy([0.25] * 4) == 2.0
    assert entropy([1.0]) == 0.0
    assert entropy([0.5, 0.5, 0.0]) == 1.0  # zero atoms pruned


def test_uniform_bound_examples():
    # log2 |support| - H >= 0, with equality on the uniform distribution
    def slack(dist):
        return math.log2(len(dist.support())) - dist.entropy()

    assert abs(slack(FiniteDistribution.uniform("abcd"))) < 1e-12
    # point mass on 8 atoms: zero-prob atoms pruned, slack 0 on the support
    assert abs(slack(FiniteDistribution(tuple(range(8)),
                                        (1.0,) + (0.0,) * 7))) < 1e-12
    # Bernoulli(1/4): slack = 1 - H(1/4)
    h_quarter = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    bern = FiniteDistribution((0, 1), (0.25, 0.75))
    assert abs(slack(bern) - (1 - h_quarter)) < 1e-12


def conditional_entropy(joint: dict) -> float:
    """H(X | Y) for a joint over (x, y) pairs, as H(X, Y) - H(Y)."""
    return joint_entropy(joint) - entropy(project_joint(joint, (1,)).values())


def test_independence_conditional_entropy():
    joint = {}
    for x in range(3):
        for y in range(4):
            joint[(x, y)] = (1 / 3) * (1 / 4)
    hx = entropy([1 / 3] * 3)
    assert abs(conditional_entropy(joint) - hx) < 1e-12


def test_chain_rule_against_direct_formula():
    rng = random.Random(0)
    for _ in range(30):
        pairs = [(x, y) for x in range(3) for y in range(3)]
        raw = [rng.random() for _ in pairs]
        total = sum(raw)
        joint = {k: v / total for k, v in zip(pairs, raw)}
        # oracle: H(X|Y) = sum_y P(y) H(X | Y = y), computed directly
        by_y = {}
        for (x, y), p in joint.items():
            by_y.setdefault(y, []).append(p)
        direct = 0.0
        for y, ps in by_y.items():
            py = sum(ps)
            direct += py * entropy([p / py for p in ps])
        assert abs(conditional_entropy(joint) - direct) < 1e-12


def test_shearer_examples():
    # d=2 subadditivity
    joint = {(0, 0): 0.5, (0, 1): 0.25, (1, 0): 0.25}
    assert shearer_check(2, [(1,), (2,)], [1, 1], joint) >= -1e-12
    # X1 = X2 uniform: H(X) = 1, RHS = 2, slack = 1
    eq = {(0, 0): 0.5, (1, 1): 0.5}
    assert abs(shearer_check(2, [(1,), (2,)], [1, 1], eq) - 1.0) < 1e-12
    with pytest.raises(NotCovering):
        shearer_check(2, [(1,)], [1], eq)


def test_shearer_random_audit():
    rng = random.Random(7)
    for _ in range(150):
        d = rng.randrange(2, 5)
        m = rng.randrange(d, 2 * d + 1)
        subsets = []
        while len(subsets) < m:
            size = rng.randrange(1, d)
            subsets.append(tuple(sorted(rng.sample(range(1, d + 1), size))))
            if len(subsets) == m and any(
                    all(j not in I for I in subsets) for j in range(1, d + 1)):
                subsets.pop()  # keep every vertex covered by some subset
        raw = [Fraction(rng.randrange(1, 100), 100) for _ in subsets]
        cover = [sum((r for r, I in zip(raw, subsets) if j in I), Fraction(0))
                 for j in range(1, d + 1)]
        weights = [r / min(cover) for r in raw]
        support = list(itertools.product(range(2), repeat=d))
        probs = [rng.random() for _ in support]
        tot = sum(probs)
        joint = {s: p / tot for s, p in zip(support, probs)}
        assert shearer_check(d, subsets, weights, joint) >= -1e-9


def test_holder_examples():
    # constant functions: lhs = s^d, rhs = prod s^{|I_i| w_i}
    s = 3
    ones1 = {(v,): 1 for v in range(s)}
    lhs, rhs, slack = holder_check(2, [(1,), (2,)], [1, 1], [ones1, ones1], s)
    assert abs(lhs - s ** 2) < 1e-9 and abs(rhs - s ** 2) < 1e-9
    # product case is exactly tight
    f1 = {(v,): v + 1 for v in range(s)}
    f2 = {(v,): 2 * v + 1 for v in range(s)}
    lhs, rhs, slack = holder_check(2, [(1,), (2,)], [1, 1], [f1, f2], s)
    assert abs(lhs - rhs) < 1e-9
    # diagonal of S^2: 5 <= 25
    assert loomis_whitney_check(2, [(1,), (2,)], [1, 1],
                                [(v, v) for v in range(5)]) == 25 - 5


def test_holder_random_audit():
    rng = random.Random(13)
    for _ in range(100):
        d = rng.randrange(2, 4)
        s = rng.randrange(2, 4)
        subsets = [tuple(sorted(rng.sample(range(1, d + 1),
                                           rng.randrange(1, d))))
                   for _ in range(d)]
        while any(all(j not in I for I in subsets) for j in range(1, d + 1)):
            subsets.append((rng.randrange(1, d + 1),))
        raw = [Fraction(rng.randrange(1, 100), 100) for _ in subsets]
        cover = [sum((r for r, I in zip(raw, subsets) if j in I), Fraction(0))
                 for j in range(1, d + 1)]
        weights = [r / min(cover) for r in raw]
        functions = [{vals: rng.randrange(0, 4)
                      for vals in itertools.product(range(s), repeat=len(I))}
                     for I in subsets]
        lhs, rhs, slack = holder_check(d, subsets, weights, functions, s)
        assert slack >= -1e-9 * max(rhs, 1.0)


def test_loomis_whitney_random_audit():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randrange(2, 4)
        s = 3
        grid = list(itertools.product(range(s), repeat=d))
        pts = rng.sample(grid, rng.randrange(1, len(grid)))
        subsets = [tuple(j for j in range(1, d + 1) if j != drop)
                   for drop in range(1, d + 1)]
        weights = [Fraction(1, d - 1)] * d
        assert loomis_whitney_check(d, subsets, weights, pts) >= -1e-9


def test_tensor_power_bound_monotone():
    # the n-th root of the tensored weak bound is nonincreasing since the
    # covering constant for rainbow patterns is at least 1
    d, s = 2, 2
    subsets = [(1,), (2,)]
    weights = [1, 1]
    f1 = {(0,): 1, (1,): 2}
    f2 = {(0,): 3, (1,): 1}
    constant = 2.0  # d!^{|w|-1} / prod k_i! = 2 for this pattern
    bounds = [tensor_power_bound(d, subsets, weights, [f1, f2], s,
                                 constant, n) for n in (1, 2, 3)]
    assert bounds[0] >= bounds[1] - 1e-9 >= bounds[2] - 2e-9
    lhs, rhs, _ = holder_check(d, subsets, weights, [f1, f2], s)
    assert lhs <= bounds[2] + 1e-9


# ---------------------------------------------------------------------------
# multiplicity
# ---------------------------------------------------------------------------

def _axis_setup(a, b):
    h = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): a}, {(0,): b}], 1)
    w = WeightFunction.uniform(h, 1)
    tuples = cfg.tuples_at(h, 0)
    return h, w, tuples


def test_multiplicity_simple_joint_is_one():
    h, w, tuples = _axis_setup(1, 1)
    assert len(tuples) == 1
    res = joint_multiplicity(h, w, tuples)
    assert abs(res.value - 1.0) < 1e-9
    assert res.gap <= 1e-9


@pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 3), (3, 3), (1, 3)])
def test_multiplicity_axis_closed_form(a, b):
    # oracle: independent uniform choices over the copies give marginal
    # entropies log2 a + log2 b, and the uniform bound caps them there
    h, w, tuples = _axis_setup(a, b)
    assert len(tuples) == a * b
    res = joint_multiplicity(h, w, tuples)
    assert res.gap <= 1e-9
    assert abs(res.value - a * b) < 1e-6 * a * b


def test_multiplicity_generic_k3_is_one():
    host = SimpleHypergraph.complete(4, 2)
    fam = generic_hyperplanes(4, 3, seed=0)
    cfg = generically_induced(host, K3, fam)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    for idx in range(len(cfg.points)):
        tuples = cfg.tuples_at(K3, idx)
        assert len(tuples) == 6  # bijections of 3 concurrent lines
        # the three edges (one colour) get three distinct line instances
        assert all(len(set(t.assignment)) == 3 for t in tuples)
        res = joint_multiplicity(K3, w, tuples)
        assert res.gap <= 1e-9
        assert abs(res.value - 1.0) < 1e-6


def test_multiplicity_empty_tuples_raises():
    h, w, _ = _axis_setup(1, 1)
    with pytest.raises(EmptyTupleSet):
        joint_multiplicity(h, w, [])


def test_multiplicity_point_mass_at_least_one():
    # eta >= 1: a point mass on any tuple matches flat and edge entropies
    h, w, tuples = _axis_setup(2, 3)
    res = joint_multiplicity(h, w, tuples)
    assert res.value >= 1.0 - 1e-9


def test_objective_concavity_random_mixtures():
    h, w, tuples = _axis_setup(2, 3)
    from hjoints.entropy import _color_setup
    setup, edge_ent = _color_setup(h, w)
    rng = random.Random(3)

    def phi(mu):
        margs = []
        for ci, (c, wbar, draws) in enumerate(setup):
            acc = {}
            for t, m in zip(tuples, mu):
                for i, q in draws:
                    atom = (c, t.assignment[i])
                    acc[atom] = acc.get(atom, 0.0) + m * q
            margs.append(wbar * entropy(acc.values()))
        return sum(margs)

    n = len(tuples)
    for _ in range(30):
        raw1 = [rng.random() for _ in range(n)]
        raw2 = [rng.random() for _ in range(n)]
        mu1 = [v / sum(raw1) for v in raw1]
        mu2 = [v / sum(raw2) for v in raw2]
        lam = rng.random()
        mix = [lam * a + (1 - lam) * b for a, b in zip(mu1, mu2)]
        assert phi(mix) >= lam * phi(mu1) + (1 - lam) * phi(mu2) - 1e-9


# ---------------------------------------------------------------------------
# geometric Shearer audit
# ---------------------------------------------------------------------------

def _generic_k3_config(m, seed=0):
    host = SimpleHypergraph.complete(m, 2)
    fam = generic_hyperplanes(m, 3, seed=seed)
    return generically_induced(host, K3, fam)


def test_geo_shearer_random_distributions():
    cfg = _generic_k3_config(5)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    rng = random.Random(23)
    npts = len(cfg.points)
    for _ in range(25):
        raw = [rng.random() + 1e-3 for _ in range(npts)]
        tot = sum(raw)
        point_probs = [v / tot for v in raw]
        tuple_probs = []
        for idx in range(npts):
            k = len(cfg.tuples_at(K3, idx))
            rawt = [rng.random() + 1e-3 for _ in range(k)]
            tt = sum(rawt)
            tuple_probs.append([v / tt for v in rawt])
        rep = geometric_shearer_audit(K3, w, cfg, point_probs, tuple_probs)
        assert rep.slack >= -1e-9


def test_geo_shearer_uniform_deterministic_tuples():
    # uniform points, a point mass on one tuple per joint: the flat-given-
    # point entropy collapses to the edge entropy and lhs = H(p) exactly
    cfg = _generic_k3_config(5)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    npts = len(cfg.points)
    point_probs = [1.0 / npts] * npts
    tuple_probs = []
    for idx in range(npts):
        k = len(cfg.tuples_at(K3, idx))
        tuple_probs.append([1.0] + [0.0] * (k - 1))
    rep = geometric_shearer_audit(K3, w, cfg, point_probs, tuple_probs)
    assert abs(rep.lhs - rep.point_entropy) < 1e-9
    assert rep.slack >= -1e-9


def test_geo_shearer_multiplicity_optimal_distributions():
    cfg = _generic_k3_config(5)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    npts = len(cfg.points)
    etas = []
    tuple_probs = []
    for idx in range(npts):
        res = joint_multiplicity(K3, w, cfg.tuples_at(K3, idx))
        etas.append(res.value)
        tuple_probs.append(res.distribution)
    tot = sum(etas)
    point_probs = [e / tot for e in etas]
    rep = geometric_shearer_audit(K3, w, cfg, point_probs, tuple_probs)
    assert abs(rep.lhs - math.log2(tot)) < 1e-6
    assert rep.slack >= -1e-9
