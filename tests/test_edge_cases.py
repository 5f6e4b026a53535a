"""Error paths and spec examples not covered by the main modules' tests."""

import itertools
import math
from fractions import Fraction

import pytest

from hjoints import (GF, Chart, Hypergraph, SimpleHypergraph, WeightFunction,
                     build_ledger_set, colex_sets, count_inducing_sets,
                     covering_constant, detect_joints,
                     enumerate_witness_tuples, generic_hyperplanes,
                     generically_induced, geometric_shearer_audit,
                     joint_multiplicity,
                     kruskal_katona_count, lw_step_check,
                     param_counting_check, rho_star, search_M)
from hjoints import geometry
from hjoints.configs import (axis_parallel_from_functions,
                             axis_parallel_pattern)
from hjoints.errors import (BudgetExceeded, CapExceeded, DegreeOverflow,
                            InconsistentLedgers, NotCovering, SizeMismatch,
                            WorkLimitExceeded)
from hjoints.vanishing import PullbackTable, key_inequality_audit

F = GF()
K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))


def test_cap_exceeded_on_tuple_enumeration(monkeypatch):
    h = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): 3}, {(0,): 3}], 1)
    monkeypatch.setattr(geometry, "TUPLE_CAP", 8)  # 9 tuples at the point
    with pytest.raises(CapExceeded):
        enumerate_witness_tuples(h, cfg.points[0], cfg)
    monkeypatch.setattr(geometry, "TUPLE_CAP", 9)
    assert len(enumerate_witness_tuples(h, cfg.points[0], cfg)) == 9


def test_budget_exceeded_on_candidate_generation():
    ones = {(v,): 1 for v in range(3)}
    cfg = axis_parallel_from_functions(2, [(1,), (2,)], [ones, ones], 3)
    h = axis_parallel_pattern(2, [(1,), (2,)])
    with pytest.raises(BudgetExceeded):
        detect_joints(h, cfg, budget=3)


def test_detect_all_parallel_lines_empty():
    # three copies of parallel vertical lines: no zero-dimensional cuts
    f1 = {(v,): 1 for v in range(3)}
    cfg = axis_parallel_from_functions(2, [(1,)], [f1], 3)
    h = axis_parallel_pattern(2, [(1,)])
    # pattern needs a second color to cover vertex 2, so use a direct check:
    # candidate generation finds nothing to intersect down to points
    from hjoints.geometry import candidate_points_from_flats
    assert candidate_points_from_flats(cfg) == []


def test_generically_induced_size_mismatch():
    host = SimpleHypergraph.complete(4, 2)
    fam = generic_hyperplanes(4, 4, seed=0)  # ambient 4 != pattern d 3
    with pytest.raises(SizeMismatch):
        generically_induced(host, K3, fam)


def test_colex_family_is_initial_segment():
    fam = colex_sets(2, 5)
    # downward closed in colex order: any smaller 2-set is in the family
    from hjoints.extremal import colex_key
    all_sets = sorted(itertools.combinations(range(1, 5), 2), key=colex_key)
    boundary = max((colex_key(s) for s in fam))
    for s in all_sets:
        if colex_key(s) <= boundary:
            assert s in fam


@pytest.mark.parametrize("x", range(4, 9))
def test_kruskal_katona_equality_dim4(x):
    assert kruskal_katona_count(math.comb(x, 3), 4) == math.comb(x, 4)


def test_colex_growth_trend_informational():
    # doubling the edge count grows the clique count by at most about
    # 2^(3/2), the covering-exponent rate for triangles in graphs
    rho = 1.5
    for n in (10, 15, 21):
        a = kruskal_katona_count(n, 3)
        b = kruskal_katona_count(2 * n, 3)
        assert b <= (2 ** rho) * (1 + 0.25) * a


def test_friedgut_kahn_desk_form():
    # count <= C * n^(rho*) with the optimal covering weight, via geometry
    import random
    rng = random.Random(8)
    for _ in range(5):
        m = rng.randrange(4, 7)
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        picked = [e for e in pairs if rng.random() < 0.6]
        if len({v for e in picked for v in e}) < m or not picked:
            continue
        host = SimpleHypergraph.from_sets(m, picked)
        sol = rho_star(K3)
        w = sol.weights
        const = covering_constant(K3, w)
        count = count_inducing_sets(host, K3)
        assert count <= const.value * host.n_edges ** float(sol.value) + 1e-9


def test_work_limit_exceeded():
    with pytest.raises(WorkLimitExceeded):
        search_M(K3, 5, 6, mode="exhaustive", work_limit=10)


def test_lw_step_requires_covering():
    w = WeightFunction.uniform(K3, Fraction(1, 3))
    with pytest.raises(NotCovering):
        lw_step_check(K3, w, 10, [3, 3, 3], 2)


def test_inconsistent_ledgers_guard():
    host = SimpleHypergraph.complete(4, 2)
    fam = generic_hyperplanes(4, 3, seed=0)
    cfg = generically_induced(host, K3, fam)
    a = build_ledger_set(K3, cfg, None, 3)
    b = build_ledger_set(K3, cfg, {0: -1, 1: 0, 2: 0, 3: 0}, 3)
    fl = next(iter(a.ledgers))
    a.ledgers[fl] = b.ledgers[fl]  # splice a ledger from another context
    with pytest.raises(InconsistentLedgers):
        param_counting_check(a)


def test_degree_overflow():
    table = PullbackTable(Chart.translation(GF(), (0,)), 3)
    with pytest.raises(DegreeOverflow):
        table.row((5,))


def test_exponent_set_sizes_match_counts():
    host = SimpleHypergraph.complete(4, 2)
    fam = generic_hyperplanes(4, 3, seed=0)
    cfg = generically_induced(host, K3, fam)
    ls = build_ledger_set(K3, cfg, None, 4)
    for ledger in ls.ledgers.values():
        for rank, count in ledger.counts.items():
            assert len(ledger.exponents[rank]) == count


def test_chained_finite_n_inequality():
    # LW-step composed with parameter counting gives the finite-n form of
    # the joint-count chain: sum_p prod_e (B/(n+1)^k)^sigma >= C(n+d,d)/(n+1)^d
    host = SimpleHypergraph.complete(4, 2)
    fam = generic_hyperplanes(4, 3, seed=0)
    cfg = generically_induced(host, K3, fam)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    sigma = [float(we / (w.total - 1)) for we in w.weights]
    for n in (3, 5, 8):
        ls = build_ledger_set(K3, cfg, None, n)
        total = 0.0
        for rank in range(len(cfg.points)):
            prod = 1.0
            for i in range(3):
                fl = ls.flat_by_edge[(rank, i)]
                prod *= (ls.ledgers[fl].counts[rank] / (n + 1) ** fl.dim) \
                    ** sigma[i]
            total += prod
        rhs = math.comb(n + 3, 3) / (n + 1) ** 3
        assert total >= rhs - 1e-9
        assert rhs > 1 / math.factorial(3) - 1e-9  # the limiting target


def test_simple_bound_on_axis_parallel_configs():
    # the joint-count bound holds on every constructed configuration family,
    # axis-parallel included (there it is the weak discrete Hoelder form)
    import random
    rng = random.Random(14)
    from hjoints.hypergraph import joint_count_bound
    from hjoints.logspace import Log2Value
    for _ in range(6):
        d = rng.randrange(2, 4)
        s = rng.randrange(2, 4)
        subsets = [tuple(j for j in range(1, d + 1) if j != drop)
                   for drop in range(1, d + 1)]
        functions = [{vals: rng.randrange(0, 3)
                      for vals in itertools.product(range(s), repeat=len(I))}
                     for I in subsets]
        cfg = axis_parallel_from_functions(d, subsets, functions, s)
        pattern = axis_parallel_pattern(d, subsets)
        w = WeightFunction.uniform(pattern, Fraction(1, d - 1))
        rhs = joint_count_bound(pattern, w, cfg.class_sizes())
        if rhs is None:  # an empty class makes the bound 0
            assert len(cfg.points) == 0
            continue
        if cfg.points:
            lhs = Log2Value.of_int_log(len(cfg.points))
            assert (rhs - lhs).sign() >= 0


def test_audit_exact_hand_construction():
    # single joint, b = 1/k! per flat, W = 1/d!: condition (2) is tight and
    # condition (1) holds with room
    pattern = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): 1}, {(0,): 1}], 1)
    w = WeightFunction.uniform(pattern, 1)
    flats = [cfg.classes[0][0], cfg.classes[1][0]]
    b = {(0, fl): Fraction(1, 1) for fl in flats}  # 1/1! on lines
    W = {0: 1.0 / 2.0}  # 1/d! with a single joint
    audit = key_inequality_audit(pattern, w, cfg, b, W)
    assert audit.cond1_pass and audit.cond2_pass
    assert abs(audit.cond2_worst) < 1e-12  # exactly tight


def test_geo_shearer_single_joint_case():
    pattern = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): 2}, {(0,): 3}], 1)
    w = WeightFunction.uniform(pattern, 1)
    res = joint_multiplicity(pattern, w, cfg.tuples_at(pattern, 0))
    rep = geometric_shearer_audit(pattern, w, cfg, [1.0], [res.distribution])
    assert rep.slack >= -1e-9
    # one point: lhs collapses to log2(multiplicity)
    assert abs(rep.lhs - res.log2_value) < 1e-9


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("b", [1, 2, 3])
def test_multiplicity_axis_full_grid(a, b):
    h = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): a}, {(0,): b}], 1)
    w = WeightFunction.uniform(h, 1)
    res = joint_multiplicity(h, w, cfg.tuples_at(h, 0))
    assert abs(res.value - a * b) < 1e-6 * a * b
    assert res.gap <= 1e-9
