import functools
import hashlib
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import event, example, given, seed, settings
from hypothesis import strategies as st

from hjoints import (GF, QQ, Chart, Hypergraph, SimpleHypergraph,
                     WeightFunction, bounded_domain_threshold,
                     build_ledger_set, generic_hyperplanes,
                     generically_induced, handicap_iteration,
                     key_inequality_audit)
from hjoints import geometry, linalg, vanishing
from hjoints.cli import main
from hjoints.counting import (count_assembled_exponents,
                              count_point_exponents, lw_step_check,
                              lw_step_worst, param_counting_check,
                              sum_of_conditions_check)
from hjoints.configs import (JointsConfiguration, axis_parallel_from_functions,
                             axis_parallel_pattern,
                             projected_generically_induced)
from hjoints.errors import CapExceeded, NotConnected
from hjoints.geometry import Flat
from hjoints.serialize import save_json
from hjoints.vanishing import PullbackTable, build_flat_ledger, monomials_upto

F = GF()
K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))


# ---------------------------------------------------------------------------
# Hasse derivatives and functional rows: the PullbackTable oracles
# ---------------------------------------------------------------------------

def hasse_derivative(poly: dict, gamma, field) -> dict:
    """Monomial rule x^beta -> C(beta, gamma) x^(beta-gamma), linearly
    extended; `poly` maps exponent tuples to field coefficients."""
    gamma = tuple(gamma)
    out: dict = {}
    for beta, coeff in poly.items():
        if any(b < g for b, g in zip(beta, gamma)):
            continue
        mult = 1
        for b, g in zip(beta, gamma):
            mult *= comb(b, g)
        target = tuple(b - g for b, g in zip(beta, gamma))
        val = field.mul(coeff, field.from_int(mult))
        if target in out:
            val = field.add(out[target], val)
        if field.is_zero(val):
            out.pop(target, None)
        else:
            out[target] = val
    return out


def functional_row(chart: Chart, gamma, n: int) -> list:
    """One row from a table of its own, not the chart's cached one."""
    return PullbackTable(chart, n).row(gamma)


def test_hasse_derivative_univariate():
    x3 = {(3,): QQ.one}
    assert hasse_derivative(x3, (1,), QQ) == {(2,): Fraction(3)}
    assert hasse_derivative(x3, (2,), QQ) == {(1,): Fraction(3)}
    assert hasse_derivative(x3, (0,), QQ) == x3


def test_hasse_derivative_degree_drop():
    rng = random.Random(1)
    poly = {g: QQ.from_int(rng.randrange(1, 9))
            for g in monomials_upto(2, 4) if rng.random() < 0.6}
    for gamma in ((1, 0), (1, 1), (0, 3)):
        out = hasse_derivative(poly, gamma, QQ)
        if out:
            assert max(sum(g) for g in out) <= 4 - sum(gamma)


def test_functional_row_identity_chart():
    chart = Chart.translation(QQ, (QQ.zero, QQ.zero))
    monos = monomials_upto(2, 3)
    for gamma in ((0, 0), (1, 1), (0, 3)):
        row = functional_row(chart, gamma, 3)
        expected = [QQ.one if m == gamma else QQ.zero for m in monos]
        assert row == expected


def test_functional_row_translation_is_binomial():
    # chart x -> x + c on a line: row over x^j is C(j, r) c^(j-r)
    c = Fraction(5)
    chart = Chart.translation(QQ, (c,))
    n = 6
    monos = monomials_upto(1, n)
    for r in range(n + 1):
        row = functional_row(chart, (r,), n)
        expected = [comb(j[0], r) * c ** (j[0] - r) if j[0] >= r else Fraction(0)
                    for j in monos]
        assert row == expected


def test_functional_rows_span_dual_at_one_point():
    chart = Chart.translation(F, (F.from_int(3), F.from_int(8)))
    n = 3
    rows = [functional_row(chart, g, n) for g in monomials_upto(2, n)]
    assert linalg.rank(rows, F) == comb(n + 2, 2)


def test_functional_row_agrees_with_hasse_pullback():
    # row applied to coefficients == gamma-coefficient of the pulled-back poly
    chart = Chart(QQ, 2,
                  ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3))),
                  (Fraction(1), Fraction(4)))
    n = 3
    monos = monomials_upto(2, n)
    rng = random.Random(2)
    coeffs = {m: Fraction(rng.randrange(-4, 5)) for m in monos}
    # oracle: expand h(M(x)) with plain polynomial arithmetic
    def poly_mul(a, b):
        out = {}
        for ga, va in a.items():
            for gb, vb in b.items():
                g = (ga[0] + gb[0], ga[1] + gb[1])
                out[g] = out.get(g, Fraction(0)) + va * vb
        return out

    m1 = {(0, 0): Fraction(1), (1, 0): Fraction(2), (0, 1): Fraction(0)}
    m1[(0, 0)] = chart.shift[0]
    m1[(1, 0)] = chart.cols[0][0]
    m1[(0, 1)] = chart.cols[1][0]
    m2 = {(0, 0): chart.shift[1], (1, 0): chart.cols[0][1],
          (0, 1): chart.cols[1][1]}
    composed = {}
    for m, v in coeffs.items():
        term = {(0, 0): v}
        for _ in range(m[0]):
            term = poly_mul(term, m1)
        for _ in range(m[1]):
            term = poly_mul(term, m2)
        for g, val in term.items():
            composed[g] = composed.get(g, Fraction(0)) + val
    for gamma in ((0, 0), (1, 0), (1, 2), (3, 0)):
        row = functional_row(chart, gamma, n)
        applied = sum(r * coeffs[m] for r, m in zip(row, monos))
        assert applied == composed.get(gamma, Fraction(0))
        # the same functional: the order-gamma Hasse derivative at 0
        assert applied == hasse_derivative(composed, gamma, QQ).get(
            (0, 0), Fraction(0))


# ---------------------------------------------------------------------------
# ledgers on a two-joint line (d = 2 toy)
# ---------------------------------------------------------------------------

def _two_point_line_config():
    """Two joints (0,0), (1,0) sharing the horizontal axis; verticals x=0,1."""
    pattern = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(
        2, [(1,), (2,)], [{(0,): 1, (1,): 1}, {(0,): 1}], 2)
    assert len(cfg.points) == 2
    return pattern, cfg


def test_ledger_single_joint_takes_everything():
    pattern = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): 1}, {(0,): 1}], 1)
    n = 4
    ls = build_ledger_set(pattern, cfg, None, n)
    for fl, ledger in ls.ledgers.items():
        assert sum_of_conditions_check(ledger) == (n + 1, n + 1)
        assert ledger.counts[0] == n + 1
        assert set(ledger.exponents[0]) == {(r,) for r in range(n + 1)}
    assert len(_admissible(ls, 0)) == comb(n + 2, 2)


def test_ledger_two_joints_alternate_orders():
    pattern, cfg = _two_point_line_config()
    n = 3
    ls = build_ledger_set(pattern, cfg, None, n)
    horizontal = next(fl for fl in ls.ledgers if fl.dim == 1 and
                      len(ls.ledgers[fl].counts) == 2)
    ledger = ls.ledgers[horizontal]
    assert sorted(ledger.counts.values()) == [2, 2]
    assert sum_of_conditions_check(ledger) == (4, 4)
    # each joint received derivative orders {0, 1}
    for rank in ledger.counts:
        assert sorted(ledger.exponents[rank]) == [(0,), (1,)]


def test_ledger_two_joints_explicit_elimination_oracle():
    # independent oracle: derivative-at-parameter rows on degree-3 polys,
    # prefix ranks in priority order give the pivot counts
    pattern, cfg = _two_point_line_config()
    n = 3
    ls = build_ledger_set(pattern, cfg, None, n)
    horizontal = next(fl for fl in ls.ledgers if fl.dim == 1 and
                      len(ls.ledgers[fl].counts) == 2)
    ledger = ls.ledgers[horizontal]
    params = {}
    for rank in ledger.counts:
        point = cfg.points[ls.rank_order[rank]]
        params[rank] = horizontal.coords_of_point(point)[0]
    order = sorted(((r, rank) for rank in ledger.counts for r in range(n + 1)))
    rows = []
    prev_rank = 0
    counts = {rank: 0 for rank in ledger.counts}
    for r, rank in order:
        c = params[rank]
        rows.append([F.mul(F.from_int(comb(j, r)),
                           pow(c, j - r, F.p)) if j >= r else F.zero
                     for j in range(n + 1)])
        new_rank = linalg.rank(rows, F)
        if new_rank > prev_rank:
            counts[rank] += 1
        prev_rank = new_rank
    assert counts == ledger.counts


def test_bounded_domain_sweep_and_beyond():
    pattern, cfg = _two_point_line_config()
    n = 4
    ls = build_ledger_set(pattern, cfg, None, n)
    horizontal = next(fl for fl in ls.ledgers if fl.dim == 1 and
                      len(ls.ledgers[fl].counts) == 2)
    target = max(ls.ledgers[horizontal].counts)
    g = bounded_domain_threshold(pattern, cfg, horizontal, target, n)
    assert g == n  # the spec's -(n+1) shift is safely past the threshold
    for extra in (1, 5):
        alpha = {r: 0 for r in range(2)}
        alpha[target] = -(g + extra)
        ls2 = build_ledger_set(pattern, cfg, alpha, n)
        assert ls2.count(target, horizontal) == 0


def test_shift_invariance_exact():
    pattern, cfg = _two_point_line_config()
    n = 5
    rng = random.Random(3)
    for _ in range(5):
        alpha = {r: rng.randrange(-3, 4) for r in range(2)}
        shifted = {r: alpha[r] + 7 for r in alpha}
        a = build_ledger_set(pattern, cfg, alpha, n)
        b = build_ledger_set(pattern, cfg, shifted, n)
        for fl in a.ledgers:
            assert a.ledgers[fl].counts == b.ledgers[fl].counts


def test_monotonicity_exact():
    pattern, cfg = _two_point_line_config()
    n = 6
    rng = random.Random(4)
    for _ in range(10):
        alpha1 = {r: rng.randrange(-3, 4) for r in range(2)}
        bump = rng.randrange(0, 4)
        target = rng.randrange(2)
        alpha2 = dict(alpha1)
        alpha2[target] += bump
        a = build_ledger_set(pattern, cfg, alpha1, n)
        b = build_ledger_set(pattern, cfg, alpha2, n)
        for fl in a.ledgers:
            if target in a.ledgers[fl].counts:
                assert a.ledgers[fl].counts[target] <= \
                    b.ledgers[fl].counts[target]


def test_lipschitz_exact_at_dim_one():
    pattern, cfg = _two_point_line_config()
    n = 6
    rng = random.Random(5)
    for _ in range(10):
        alpha1 = {r: rng.randrange(-3, 4) for r in range(2)}
        alpha2 = {r: rng.randrange(-3, 4) for r in range(2)}
        a = build_ledger_set(pattern, cfg, alpha1, n)
        b = build_ledger_set(pattern, cfg, alpha2, n)
        for fl in a.ledgers:
            for rank in a.ledgers[fl].counts:
                diff = abs(a.ledgers[fl].counts[rank] -
                           b.ledgers[fl].counts[rank])
                bound = sum(
                    abs((alpha1[other] - alpha1[rank]) -
                        (alpha2[other] - alpha2[rank]))
                    for other in a.ledgers[fl].counts)
                assert diff <= bound  # C(n, 0) = 1 and no lower-order term


def test_ledger_determinism():
    pattern, cfg = _two_point_line_config()
    a = build_ledger_set(pattern, cfg, {0: -1, 1: 0}, 5)
    b = build_ledger_set(pattern, cfg, {0: -1, 1: 0}, 5)
    for fl in a.ledgers:
        assert a.ledgers[fl].digest() == b.ledgers[fl].digest()


# ---------------------------------------------------------------------------
# admissible exponent sets
# ---------------------------------------------------------------------------

def _counted(h, sets, n):
    """count_assembled_exponents over the given per-edge sets, with each
    edge's per-degree counts read off its set."""
    return count_assembled_exponents(
        h, sets.__getitem__, lambda i: _degree_sizes(sets[i], n), n)


def test_assemble_full_boxes_and_empty():
    n = 2
    full = [{(r,) for r in range(n + 1)} for _ in range(3)]
    assert _counted(K3, full, n) == comb(n + 3, 3)
    assert _counted(K3, [set(), full[1], full[2]], n) == 0


def test_assemble_hand_built_cross_check():
    n = 2
    sets = [{(0,), (1,)}, {(0,), (2,)}, {(0,), (1,), (2,)}]
    got = set(_filtered_exponents(K3, sets, n))
    # brute force, written independently: projections drop the edge's slots
    expected = set()
    for g1 in range(n + 1):
        for g2 in range(n + 1 - g1):
            for g3 in range(n + 1 - g1 - g2):
                gamma = (g1, g2, g3)
                if (gamma[2],) in sets[0] and (gamma[1],) in sets[1] \
                        and (gamma[0],) in sets[2]:
                    expected.add(gamma)
    assert got == expected
    assert _counted(K3, sets, n) == len(expected)


def _filtered_exponents(h, per_edge_sets, n):
    """The admissible exponents by filtering every |gamma| <= n."""
    checks = [([j - 1 for j in range(1, h.d + 1) if j not in e],
               set(map(tuple, recorded)))
              for e, recorded in zip(h.edges, per_edge_sets)]
    return [gamma for gamma in monomials_upto(h.d, n)
            if all(tuple(gamma[j] for j in outside) in recorded
                   for outside, recorded in checks)]


def _admissible(ls, rank):
    """A joint's admissible exponents G_p, listed by filtering against the
    exponent sets of its chosen-tuple ledgers."""
    return _filtered_exponents(
        ls.h, [ls.ledgers[fl].exponents[rank]
               for fl in ls.chosen[rank].flats], ls.n)


@st.composite
def _edge_patterns(draw):
    """(pattern, per-edge recorded sets, n): up to 5 vertices and 4 edges,
    each set a random part, possibly empty, of the exponents of degree <= n
    over its edge's outside coordinates."""
    d = draw(st.integers(2, 5))
    edges = draw(st.lists(st.sets(st.integers(1, d), min_size=1,
                                  max_size=d - 1), min_size=1, max_size=4))
    h = Hypergraph(d, tuple(map(tuple, edges)), (1,) * len(edges))
    n = draw(st.integers(0, 5))
    sets = [[g for g in monomials_upto(d - len(e), n) if draw(st.booleans())]
            for e in h.edges]
    return h, sets, n


STAR3 = Hypergraph(3, ((1, 2), (1, 3)), (1, 1))  # vertex 1 in every edge
TWO_OF_FOUR = Hypergraph(4, ((1, 2), (1, 3)), (1, 1))  # both leave out 4


def _join_examples(test):
    """Shared outside coordinates, a vertex in every edge, an empty set,
    and n = 0."""
    for case in (
            (TWO_OF_FOUR, [[(0, 0), (1, 2), (2, 1)], [(0, 0), (2, 1)]], 3),
            (STAR3, [[(0,), (2,)], [(1,), (2,)]], 3),
            (K3, [[(0,), (1,)], [], [(0,)]], 2),
            (K3, [[(0,)], [(0,)], [(0,)]], 0)):
        test = example(case=case)(test)
    return test


def _degree_sizes(exponents, n):
    """How many of the distinct exponents have each degree 0..n."""
    out = [0] * (n + 1)
    for gamma in set(map(tuple, exponents)):
        out[sum(gamma)] += 1
    return out


@seed(2424)
@settings(max_examples=300, deadline=None)
@given(case=_edge_patterns())
@_join_examples
def test_counted_join_matches_the_listing(case):
    # the counted join gives the length of the filter's list, and reads the
    # recorded set only of an edge whose outside coordinates another edge
    # shares
    h, sets, n = case
    read = []
    got = count_assembled_exponents(
        h, lambda i: read.append(i) or sets[i],
        lambda i: _degree_sizes(sets[i], n), n)
    assert got == len(_filtered_exponents(h, sets, n))
    outside = [set(range(1, h.d + 1)) - set(e) for e in h.edges]
    shared = any(a & b for i, a in enumerate(outside) for b in outside[i + 1:])
    event(f"shared outside: {shared}")
    core = set.intersection(*map(set, h.edges))
    event(f"vertex in every edge: {bool(core)}")
    event(f"empty set: {not all(sets)}, n = 0: {n == 0}")
    assert all(any(outside[i] & b for j, b in enumerate(outside) if j != i)
               for i in read)
    event(f"edges read: {bool(read)}")


def _generic_k3(m, seed=0, field=None):
    host = SimpleHypergraph.complete(m, 2)
    fam = generic_hyperplanes(m, 3, seed=seed, field=field)
    return generically_induced(host, K3, fam)


def test_param_counting_generic_k3():
    cfg = _generic_k3(4)
    rng = random.Random(6)
    for n in (2, 3):
        for _ in range(8):
            alpha = {r: rng.randrange(-2, 3) for r in range(4)}
            ls = build_ledger_set(K3, cfg, alpha, n)
            total, need, slack = param_counting_check(ls)
            assert slack >= 0
            for ledger in ls.ledgers.values():
                got, want = sum_of_conditions_check(ledger)
                assert got == want


def test_lw_step_on_engine_runs():
    cfg = _generic_k3(4)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    for n in (2, 4):
        ls = build_ledger_set(K3, cfg, None, n)
        for rank in range(len(cfg.points)):
            g_p = len(_admissible(ls, rank))
            assert count_point_exponents(ls, rank) == g_p
            g_e = [ls.ledgers[fl].counts[rank]
                   for fl in ls.chosen[rank].flats]
            assert lw_step_check(K3, w, g_p, g_e, n)[1]


def test_lw_step_full_boxes():
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    n = 4
    g_p = comb(n + 3, 3)
    g_e = [n + 1] * 3
    assert lw_step_check(K3, w, g_p, g_e, n)[1]


def test_lw_step_verdict_is_exact():
    # weights 1/2 on K3 make every sigma(e) 1, so the step reads
    # |G_p| <= prod |G_e|. One past a product near 10^18 is below the float
    # slack's resolution, which reads it as holding, and fails; the tie
    # itself holds
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    g_e = [10**6 + 3, 10**6 + 7, 10**6 + 9]
    tie = math.prod(g_e)
    slack, holds = lw_step_check(K3, w, tie + 1, g_e, 4)
    assert slack >= -1e-9 and not holds
    assert lw_step_check(K3, w, tie, g_e, 4)[1]


def test_admissible_conditions_kill_all_polynomials():
    # the heart of the counting law: the conditions "ambient derivative of
    # order gamma at p vanishes, gamma in the admissible set of p" admit only
    # the zero polynomial of degree <= n, i.e. the stacked functional rows
    # have full rank C(n+d, d) in the ambient polynomial space
    cfg = _generic_k3(4)
    rng = random.Random(12)
    for n in (2, 3):
        for _ in range(4):
            alpha = {r: rng.randrange(-2, 3) for r in range(4)}
            ls = build_ledger_set(K3, cfg, alpha, n)
            rows = _admissible_rows(ls)
            dim = comb(n + 3, 3)
            assert len(rows) >= dim  # the exact counting law, again
            assert linalg.rank(rows, cfg.field) == dim


def _admissible_rows(ls):
    """The functional rows, over the ambient polynomials of degree <= n,
    of the conditions "derivative of order gamma at p vanishes in the
    chosen witness chart" for every joint p and gamma in G_p."""
    cfg, rows = ls.config, []
    for rank in range(len(ls.rank_order)):
        point = cfg.points[ls.rank_order[rank]]
        ambient = Chart(cfg.field, ls.h.d, ls.chosen[rank].witness.columns,
                        point)
        table = PullbackTable(ambient, ls.n)
        rows.extend(table.row(gamma) for gamma in _admissible(ls, rank))
    return rows


C4 = Hypergraph.cycle(4)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m,joints_per_plane", [(5, 3), (6, 6)])
def test_counting_law_on_edges_sharing_outside_coordinates(
        m, joints_per_plane, n):
    # C4's edges 12 and 23 both leave out coordinate 4, and so on around
    # the cycle, so the counted join reads exponent sets at every joint.
    # Over K5 each plane holds 3 joints in general position, whose sets are
    # read in the simplex frame; over K6 each holds 6 and is eliminated
    cfg = generically_induced(SimpleHypergraph.complete(m, 2), C4,
                              generic_hyperplanes(m, 4))
    rng = random.Random(m * 10 + n)
    for alpha in (None, {r: rng.randrange(-2, 3)
                         for r in range(len(cfg.points))}):
        ls = build_ledger_set(C4, cfg, alpha, n)
        assert {len(led.counts) for led in ls.ledgers.values()} == \
            {joints_per_plane}
        assert all((type(led.pivots) is vanishing._Pivots) == (m == 5)
                   for led in ls.ledgers.values())
        for rank in range(len(cfg.points)):
            assert count_point_exponents(ls, rank) == \
                len(_admissible(ls, rank))
        assert param_counting_check(ls)[2] >= 0
        assert linalg.rank(_admissible_rows(ls), cfg.field) == comb(n + 4, 4)


def test_rational_field_cross_check():
    # same combinatorial ledger shape over Q and over GF(p) at small n
    for n in (2, 3):
        gf = build_ledger_set(K3, _generic_k3(4), None, n)
        qq = build_ledger_set(K3, _generic_k3(4, field=QQ), None, n)
        gf_counts = sorted(sorted(led.counts.values())
                           for led in gf.ledgers.values())
        qq_counts = sorted(sorted(led.counts.values())
                           for led in qq.ledgers.values())
        assert gf_counts == qq_counts
        assert param_counting_check(gf)[2] == param_counting_check(qq)[2]


# ---------------------------------------------------------------------------
# the packed GF(p) echelon against the list kernel
# ---------------------------------------------------------------------------

class ListEchelon:
    """The GF(p) echelon on lists, reduced mod p entry by entry through the
    field's row kernels: the oracle of the packed rows."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows = []  # (pivot column, reduced row)

    def insert(self, row) -> bool:
        field = self.field
        row = [field.from_int(a) for a in row]
        for pc, prow in self.rows:
            if not field.is_zero(row[pc]):
                row = field.sub_scaled_row(row, row[pc], prow)
        pivot = next((i for i, a in enumerate(row) if not field.is_zero(a)),
                     None)
        if pivot is None:
            return False
        self.rows.append((pivot, field.scale_row(field.inv(row[pivot]), row)))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


def unpacked(ech):
    """The packed echelon's (pivot column, row) pairs as lists."""
    bits = 8 * ech.size
    mask = (1 << bits) - 1
    return [(shift // bits, [v >> (bits * i) & mask for i in range(ech.dim)])
            for shift, v in ech.rows]


PACKED_PRIMES = {"GF7": GF(7), "GF31": GF((1 << 31) - 1), "GF61": F}


@pytest.mark.parametrize("name", sorted(PACKED_PRIMES))
@seed(2412)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_packed_echelon_matches_list_kernel(name, data):
    # rows are random, extreme (0, 1, p - 1) or combinations of earlier rows,
    # so many reduce to zero; after every insert the verdict, the pivots and
    # the reduced rows must agree
    field = PACKED_PRIMES[name]
    p = field.p
    dim = data.draw(st.integers(1, comb(6 + 2, 2)))
    entry = st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))
    packed, oracle = vanishing._Echelon(field, dim), ListEchelon(field, dim)
    assert packed.size is not None
    seen = []
    for _ in range(data.draw(st.integers(1, dim + 6))):
        if seen and data.draw(st.booleans()):
            picks = data.draw(st.lists(st.sampled_from(seen), min_size=1,
                                       max_size=3))
            coeffs = data.draw(st.lists(entry, min_size=len(picks),
                                        max_size=len(picks)))
            row = [sum(c * r[i] for c, r in zip(coeffs, picks)) % p
                   for i in range(dim)]
        else:
            row = data.draw(st.lists(entry, min_size=dim, max_size=dim))
        seen.append(row)
        assert packed.insert(row) == oracle.insert(row)
        assert unpacked(packed) == oracle.rows
        assert packed.rank == oracle.rank


@pytest.mark.parametrize("name", sorted(PACKED_PRIMES))
@pytest.mark.parametrize("dim", [1, 2, 28, 325])
def test_packed_echelon_slots_hold_the_largest_sums(name, dim):
    # stored rows e_i + (p - 1)(e_{i+1} + ... ) and the row u_k = 1 - k make
    # every reduction multiply by p - 1, so slot k reaches about k p^2
    # before it is read and the top slot about dim p^2; a slot that spilled
    # would corrupt its neighbour or overflow the packed width
    field = PACKED_PRIMES[name]
    p = field.p
    packed, oracle = vanishing._Echelon(field, dim), ListEchelon(field, dim)
    for i in range(dim):
        row = [0] * i + [1] + [p - 1] * (dim - i - 1)
        assert packed.insert(row) and oracle.insert(row)
    row = [(1 - k) % p for k in range(dim)]
    assert not packed.insert(row) and not oracle.insert(row)
    assert unpacked(packed) == oracle.rows


@seed(2413)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_plane_ledgers_match_the_list_kernel(data):
    h, cfg = FLATS2, _flats2_config(F)
    n = data.draw(st.sampled_from([2, 4]))
    alpha = {r: data.draw(st.integers(-2, 2)) for r in range(len(cfg.points))}
    packed = _fresh_ledger_set(h, cfg, alpha, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vanishing, "_Echelon", ListEchelon)
        oracle = _fresh_ledger_set(h, cfg, alpha, n)
    _assert_same_ledger_set(packed, oracle)


# ---------------------------------------------------------------------------
# the closed form on lines against the elimination
# ---------------------------------------------------------------------------

def _no_elimination(*args):
    raise AssertionError("the elimination ran on a line")


def _fresh_plan(h, cfg):
    """A plan of its own, not the configuration's, so charts, tables and
    ledgers are all new."""
    return vanishing._LedgerPlan(h, cfg)


def _fresh_ledger_set(h, cfg, alpha, n):
    return _fresh_plan(h, cfg).ledger_set(cfg, alpha, n)


def _closed_form(build):
    """Run `build` with the elimination barred."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vanishing, "_eliminate", _no_elimination)
        return build()


@functools.cache
def _k3_config(m, field):
    return _generic_k3(m, field=field)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@pytest.mark.parametrize("m", [4, 5, 6, 7])
@seed(2410)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_hermite_closed_form_matches_elimination(m, field, n, data):
    # the oracle runs the elimination on the charts that the plan's chart
    # helper makes on each line, which the plan itself never makes
    cfg = _k3_config(m, field)
    nj = len(cfg.points)
    alpha = dict(enumerate(data.draw(
        st.lists(st.integers(-4, 4), min_size=nj, max_size=nj))))
    plan = _fresh_plan(K3, cfg)
    closed = _closed_form(lambda: plan.ledger_set(cfg, alpha, n))
    assert list(closed.ledgers) == [fl for fl, _, _ in plan.flats]
    for fl, ranks, _ in plan.flats:
        counts, exponents = vanishing._eliminate(
            field, 1, n, plan._joint_charts(cfg, fl, ranks), alpha)
        ledger = closed.ledgers[fl]
        assert list(ledger.counts.items()) == list(counts.items())
        assert ledger.exponents == exponents


def _sorted_line_ledger(line, ranks, alpha, n):
    """A Hermite line's ledger as the first n + 1 pairs of the sorted
    priority order: the oracle for the counted closed form."""
    pairs = sorted(((r, rank) for rank in ranks for r in range(n + 1)),
                   key=lambda pr: (pr[0] - alpha[pr[1]], pr[1]))
    counts = {rank: 0 for rank in ranks}
    exponents = {rank: () for rank in ranks}
    for r, rank in pairs[:n + 1]:
        counts[rank] += 1
        exponents[rank] += ((r,),)
    return vanishing.FlatLedger(
        line, n, counts, exponents,
        (n, tuple(sorted(alpha.items())), line.field.key()))


@pytest.mark.parametrize("n", [0, 1, 2, 24])
@seed(2415)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_counted_line_ledger_matches_sorted_pairs(n, data):
    # 1-8 joints in any rank order; equal handicaps tie every key and are
    # split by rank alone, and spreads wider than n leave some joints
    # nothing
    field = data.draw(st.sampled_from([QQ, F]))
    line = Flat(field, 2, (field.zero, field.zero), [(field.one, field.zero)])
    ranks = data.draw(st.lists(st.integers(0, 40), min_size=1, max_size=8,
                               unique=True))
    spread = data.draw(st.sampled_from([0, 1, n, 2 * n + 3]))
    alpha = {rank: data.draw(st.integers(-spread, spread)) for rank in ranks}
    ledger = _closed_form(lambda: build_flat_ledger(line, ranks, alpha, n))
    oracle = _sorted_line_ledger(line, ranks, alpha, n)
    assert list(ledger.counts.items()) == list(oracle.counts.items())
    assert ledger.exponents == oracle.exponents
    assert ledger.digest() == oracle.digest()


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@pytest.mark.parametrize("degenerate,counts", [
    ("coincident shifts", {0: 5, 1: 0}),
    ("zero scale", {0: 1, 1: 4}),
])
def test_degenerate_line_charts_are_eliminated(field, degenerate, counts):
    # charts outside the closed form's precondition: the elimination, the
    # oracle for lines, splits them unlike the first n + 1 pairs, which give
    # {0: 3, 1: 2} in both cases; the plan's chart helper makes no such
    # charts (see below)
    u, c = field.from_int(3), field.from_int(2)
    scale = field.zero if degenerate == "zero scale" else c
    other = u if degenerate == "coincident shifts" else field.from_int(5)
    charts = [(0, Chart(field, 1, ((scale,),), (u,))),
              (1, Chart.translation(field, (other,)))]
    alpha, n = {0: 0, 1: -1}, 4
    assert vanishing._eliminate(field, 1, n, charts, alpha)[0] == counts
    assert vanishing._hermite_counts(n, [0, 1], alpha) == {0: 3, 1: 2}


def test_repeated_point_is_rejected(tmp_path, capsys):
    # a repeated point gave two charts with one shift on each line through
    # it, the one input the closed form does not cover
    base = _generic_k3(5)
    points = base.points + base.points[:1]
    named = f"point {base.points[0]} is stored twice".replace(",)", ")")
    with pytest.raises(ValueError) as exc:
        JointsConfiguration(base.field, base.d, base.dims, base.classes, points)
    assert str(exc.value) == named
    data = base.to_dict()
    data["points"].append(data["points"][0])
    with pytest.raises(ValueError) as exc:
        JointsConfiguration.from_dict(data)
    assert str(exc.value) == named
    save_json(tmp_path / "dup.cfg", data)
    save_json(tmp_path / "k3.hg", K3.to_dict())
    save_json(tmp_path / "half.w",
              WeightFunction.uniform(K3, Fraction(1, 2)).to_dict())
    inputs = ["--config", tmp_path / "dup.cfg", "--pattern", tmp_path / "k3.hg"]
    for argv in (["handicap-run", *inputs, "--weights", tmp_path / "half.w",
                  "--n", "24", "-o", tmp_path / "run.cert"],
                 ["vanishing", *inputs, "--n", "4"]):
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError: ") and named in err
    assert not (tmp_path / "run.cert").exists()


def _line_chart_cases():
    """(pattern, configuration) pairs whose plans have lines."""
    for m in range(4, 9):
        for field in (QQ, F):
            yield K3, _k3_config(m, field)
    yield K3, projected_generically_induced(
        SimpleHypergraph.complete(5, 3), K3, 1,
        generic_hyperplanes(5, 4, seed=3), projection_seed=1)
    subsets = [(2, 3), (1, 3), (1, 2)]
    f = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 3, (2, 1): 1, (2, 2): 2}
    yield (axis_parallel_pattern(3, subsets),
           axis_parallel_from_functions(3, subsets, [f] * 3, 3))


def test_plan_line_charts_meet_the_closed_form_precondition():
    # every line chart the plan's chart helper makes has a nonzero scale,
    # and the charts on one line have pairwise distinct shifts
    lines = 0
    for h, cfg in _line_chart_cases():
        assert 1 in cfg.dims
        plan = _fresh_plan(h, cfg)
        for fl, ranks, _ in plan.flats:
            if fl.dim != 1:
                continue
            lines += 1
            joint_charts = plan._joint_charts(cfg, fl, ranks)
            assert not any(cfg.field.is_zero(chart.cols[0][0])
                           for _, chart in joint_charts)
            shifts = [chart.shift for _, chart in joint_charts]
            assert len(set(shifts)) == len(shifts)
    assert lines > 100


def test_plans_make_charts_on_planes_only(monkeypatch):
    # a line's ledger reads its joints' ranks alone, so a fresh K3 plan
    # makes no chart; a K7 2-flats plan makes one per (plane, joint), and
    # its ledger set is the one pinned below
    made = []
    init = Chart.__init__
    monkeypatch.setattr(Chart, "__init__", lambda self, *args:
                        made.append(1) or init(self, *args))
    for m in range(4, 9):
        for field in (QQ, F):
            cfg = _k3_config(m, field)
            plan = _fresh_plan(K3, cfg)
            ls = plan.ledger_set(cfg, {r: r % 3 - 1
                                       for r in range(len(cfg.points))}, 5)
            assert all(fl.dim == 1 for fl in ls.ledgers)
            assert made == []
    h, cfg = FLATS2, _flats2_config(F)
    plan = _fresh_plan(h, cfg)
    assert len(made) == sum(len(ranks) for _, ranks, _ in plan.flats) == 105
    assert all(len(frame.joint_charts) == len(ranks)
               for _, ranks, frame in plan.flats)
    ls = plan.ledger_set(cfg, {r: r % 3 - 1 for r in range(7)}, 4)
    digest = hashlib.sha256("".join(
        ledger.digest() for ledger in ls.ledgers.values()).encode())
    assert digest.hexdigest() == \
        "4f32a051f602dc5530bb2c65d607be3bc4c710642f3bd4c0a0752539a23a8773"


# ---------------------------------------------------------------------------
# the simplex closed form on k-flats against the elimination
# ---------------------------------------------------------------------------

def _invertible(draw, field, k):
    """A k x k matrix L U, L unit lower triangular and U upper triangular
    with a nonzero diagonal, as k column tuples."""
    size = getattr(field, "p", 50)
    low = [[field.one if i == j else field.from_int(draw(st.integers(0, size)))
            if i > j else field.zero for j in range(k)] for i in range(k)]
    up = [[field.from_int(draw(st.integers(1, size - 1))) if i == j
           else field.from_int(draw(st.integers(0, size))) if i < j
           else field.zero for j in range(k)] for i in range(k)]
    rows = [[field.dot(low[i], [up[t][j] for t in range(k)]) for j in range(k)]
            for i in range(k)]
    return tuple(tuple(rows[i][j] for i in range(k)) for j in range(k))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("field", [GF(2), GF(3), GF(7), F, QQ],
                         ids=["GF2", "GF3", "GF7", "GF61", "Q"])
@seed(2416)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_simplex_counts_match_elimination(field, k, data):
    # 1 to k + 2 joints at distinct points, half the time on one line, with
    # random invertible charts and handicaps: independent lifts (p, 1) take
    # the closed form, with the elimination's counts and, on read, its
    # exponents; dependent ones, and more than k + 1 joints, are eliminated
    size = getattr(field, "p", 7)
    flat = Flat(field, k, (field.zero,) * k,
                [tuple(field.one if i == j else field.zero for i in range(k))
                 for j in range(k)])
    if data.draw(st.booleans()):
        slope = (1, *data.draw(st.tuples(*[st.integers(0, size - 1)] * (k - 1))))
        points = [tuple(t * c for c in slope) for t in data.draw(st.lists(
            st.integers(0, size - 1), min_size=1, max_size=min(k + 1, size),
            unique=True))]
    else:
        points = data.draw(st.lists(
            st.tuples(*[st.integers(0, size - 1)] * k), min_size=1,
            max_size=min(k + 2, size ** k), unique=True))
    ranks = data.draw(st.permutations(range(len(points))))
    charts = [(rank, Chart(field, k, _invertible(data.draw, field, k),
                           tuple(map(field.from_int, p))))
              for rank, p in zip(ranks, points)]
    alpha = {rank: data.draw(st.integers(-3, 3)) for rank in ranks}
    n = data.draw(st.integers(0, 5))
    lifts = [(*chart.shift, field.one) for _, chart in charts]
    closed = (len(charts) <= k + 1
              and linalg.rank(lifts, field) == len(charts))
    event(f"closed={closed}, joints {'>' if len(charts) > k + 1 else '<='} k+1")
    ledger = build_flat_ledger(flat, charts, alpha, n)
    assert (type(ledger.pivots) is vanishing._Pivots) == closed
    counts, exponents = vanishing._eliminate(field, k, n, charts, alpha)
    assert list(ledger.counts.items()) == list(counts.items())
    assert ledger.exponents == exponents
    _check_degree_counts(ledger)


def _check_degree_counts(ledger):
    """Each joint's per-degree pivot counts are the per-degree sizes of its
    exponent set."""
    for rank, gammas in ledger.exponents.items():
        assert ledger.degree_counts(rank) == _degree_sizes(gammas, ledger.n)


def test_degree_counts_match_the_exponent_sets():
    # lines take their per-degree counts from the counts and K8 planes from
    # their eliminated exponent sets; the K7 and collinear planes are
    # checked with the elimination below
    rng = random.Random(24)
    lines = 0
    for h, cfg in _line_chart_cases():
        for n in (0, 2, 5):
            alpha = {r: rng.randrange(-3, 4) for r in range(len(cfg.points))}
            ls = build_ledger_set(h, cfg, alpha, n)
            for fl, ledger in ls.ledgers.items():
                lines += fl.dim == 1
                _check_degree_counts(ledger)
    assert lines > 300
    cfg8 = _flats2_k8_config()
    ls = build_ledger_set(FLATS2, cfg8,
                          {r: r % 3 for r in range(len(cfg8.points))}, 3)
    for ledger in ls.ledgers.values():
        assert type(ledger.pivots) is dict
        _check_degree_counts(ledger)


def _count_inserts(monkeypatch) -> list:
    """A list that _Echelon.insert appends to on every call."""
    inserts = []
    insert = vanishing._Echelon.insert
    monkeypatch.setattr(vanishing._Echelon, "insert",
                        lambda self, row: inserts.append(1) or insert(self, row))
    return inserts


def test_collinear_joints_on_a_plane_are_eliminated(monkeypatch):
    # three joints on a line of the plane: the simplex count would split
    # the 3 conditions at n = 1 one each, the elimination gives {0: 2, 1: 1}
    inserts = _count_inserts(monkeypatch)
    gf7 = GF(7)
    plane = Flat(gf7, 2, (0, 0), [(1, 0), (0, 1)])
    charts = [(rank, Chart.translation(gf7, (x, 0)))
              for rank, x in enumerate((0, 1, 2))]
    alpha = dict.fromkeys(range(3), 0)
    assert vanishing._simplex_degrees(2, 1, charts, alpha) == \
        {0: [1, 0], 1: [1, 0], 2: [1, 0]}
    ledger = build_flat_ledger(plane, charts, alpha, 1)
    assert ledger.counts == {0: 2, 1: 1, 2: 0}
    assert type(ledger.pivots) is dict and inserts
    _check_degree_counts(ledger)


def test_simplex_exponents_read_without_elimination_and_memo_hits_share(
        monkeypatch):
    # on the K7 planes, 3 joints in general position each, building a
    # ledger set and reading every exponent reduce no row; a memo hit for a
    # shifted handicap reads the very exponents of the ledger it copies
    inserts = _count_inserts(monkeypatch)
    h, cfg = FLATS2, _flats2_config(F)
    alpha = {r: r % 3 - 1 for r in range(len(cfg.points))}
    for n in (3, 4):
        plan = _fresh_plan(h, cfg)
        ls = plan.ledger_set(cfg, alpha, n)
        read = {fl: ledger.exponents for fl, ledger in ls.ledgers.items()}
        assert all(type(ledger.pivots) is vanishing._Pivots
                   for fl, ledger in ls.ledgers.items() if fl.dim > 1)
        assert sum(len(g) for e in read.values() for g in e.values()) == \
            35 * comb(n + 2, 2)
        hit = plan.ledger_set(cfg, {r: a + 2 for r, a in alpha.items()}, n)
        assert all(hit.ledgers[fl].exponents is read[fl] for fl in read)
        assert all(ls.ledgers[fl].exponents is read[fl] for fl in read)
    assert inserts == []
    # a K8 plane, with 6 joints, is still eliminated
    cfg8 = _flats2_k8_config()
    plan = _fresh_plan(h, cfg8)
    fl, frame = next((fl, frame) for fl, _, frame in plan.flats if frame)
    assert len(frame.joint_charts) == 6
    alpha = dict.fromkeys(range(len(cfg8.points)), 0)
    ledger = build_flat_ledger(fl, frame.joint_charts, alpha, 2, frame=frame)
    assert type(ledger.pivots) is dict and len(inserts) >= comb(2 + 2, 2)


def test_parameter_count_reads_no_exponent_set(monkeypatch):
    # on a fresh K7 plan the parameter count and the Loomis-Whitney step
    # read the planes' per-degree pivot counts only: no pullback table is
    # built and no exponent set is read in the simplex frame. Both equal
    # their values over the listed admissible sets
    tables, reads = [], []
    init = PullbackTable.__init__
    monkeypatch.setattr(PullbackTable, "__init__", lambda self, *args:
                        tables.append(1) or init(self, *args))
    simplex = vanishing._simplex_exponents
    monkeypatch.setattr(vanishing, "_simplex_exponents",
                        lambda *args: reads.append(1) or simplex(*args))
    h, cfg, n = FLATS2, _flats2_config(F), 4
    w = WeightFunction.uniform(h, Fraction(1, 2))
    ls = _fresh_ledger_set(h, cfg, {r: r % 3 - 1 for r in range(7)}, n)
    total, need, slack = param_counting_check(ls)
    worst = lw_step_worst(ls, w)
    assert tables == [] and reads == []
    sizes = [len(_admissible(ls, rank)) for rank in range(7)]
    assert tables and reads
    assert (total, need, slack) == (sum(sizes), comb(n + 6, 6),
                                    sum(sizes) - comb(n + 6, 6))
    steps = [lw_step_check(h, w, g_p, [ls.ledgers[fl].counts[rank]
                                       for fl in ls.chosen[rank].flats], n)
             for rank, g_p in enumerate(sizes)]
    assert worst == (min(slack for slack, _ in steps),
                     all(holds for _, holds in steps))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@seed(2417)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_plane_exponents_match_elimination(field, n, data):
    # every plane ledger of the K7 configuration under a random handicap:
    # the frame's exponents, and the simplex counts, equal the elimination's
    h, cfg = FLATS2, _flats2_config(field)
    alpha = {r: data.draw(st.integers(-3, 3)) for r in range(len(cfg.points))}
    plan = _fresh_plan(h, cfg)
    ls = plan.ledger_set(cfg, alpha, n)
    for fl, _, frame in plan.flats:
        counts, exponents = vanishing._eliminate(field, fl.dim, n,
                                                 frame.joint_charts, alpha)
        assert ls.ledgers[fl].counts == counts
        assert ls.ledgers[fl].exponents == exponents
        _check_degree_counts(ls.ledgers[fl])


def test_plan_decides_each_plane_path_once(monkeypatch):
    # the independence test of the simplex closed form runs once per plane,
    # when the plan is made, however many ledger sets the plan builds; the
    # ledgers equal those of build_flat_ledger deciding it on every call
    calls = []
    decide = vanishing._lifts_independent
    monkeypatch.setattr(vanishing, "_lifts_independent",
                        lambda *args: calls.append(1) or decide(*args))
    h, cfg = FLATS2, _flats2_config(F)
    plan = _fresh_plan(h, cfg)
    planes = [fl for fl, _, frame in plan.flats if frame]
    assert len(calls) == len(planes) == 35
    rng = random.Random(22)
    alphas = [{r: rng.randrange(-2, 3) for r in range(len(cfg.points))}
              for _ in range(8)]
    sets = [plan.ledger_set(cfg, alpha, 4) for alpha in alphas]
    assert len(calls) == 35
    for ls in sets:
        for fl, _, frame in plan.flats:
            want = build_flat_ledger(fl, frame.joint_charts, ls.alpha, 4,
                                     context=ls.context)
            assert ls.ledgers[fl].digest() == want.digest()


def test_incidence_matches_the_contains_scan():
    # a stored point's incidence is kept on its configuration and read by
    # the witness walk and the ledger plan: it must list the instances a
    # Flat.contains scan gives, multiset copies included, and the plan must
    # give each flat its joints in rank order as a scan over flats did
    subsets = [(2, 3), (1, 3), (1, 2)]
    f = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 3, (2, 1): 1, (2, 2): 2}
    axis = axis_parallel_from_functions(3, subsets, [f] * 3, 3)
    assert any(len(set(cls)) < len(cls) for cls in axis.classes)
    cases = [(axis_parallel_pattern(3, subsets), axis), (K3, _k3_config(6, QQ))]
    for h, cfg in cases + [(h, JointsConfiguration.from_dict(cfg.to_dict()))
                           for h, cfg in cases]:
        off = tuple(cfg.field.from_int(9) for _ in range(cfg.d))
        for point in (*cfg.points, off):
            assert cfg.incidence(point) == tuple(
                tuple((k, fl) for k, fl in enumerate(cls) if fl.contains(point))
                for cls in cfg.classes)
        assert all(cfg.incidence(p) is cfg.incidence(p) for p in cfg.points)
        assert off not in cfg._incidence
        plan = _fresh_plan(h, cfg)
        points = [cfg.points[idx] for idx in plan.order]
        flats = dict.fromkeys(fl for cls in cfg.classes for fl in cls)
        assert [(fl, ranks) for fl, ranks, _ in plan.flats] == [
            (fl, ranks) for fl in flats
            if (ranks := [r for r, p in enumerate(points) if fl.contains(p)])]


# ---------------------------------------------------------------------------
# handicap dynamic and audit
# ---------------------------------------------------------------------------

def test_handicap_single_joint_trivial():
    pattern = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): 1}, {(0,): 1}], 1)
    w = WeightFunction.uniform(pattern, 1)
    res = handicap_iteration(pattern, w, cfg, n=8)
    assert res.status == "flat" and res.rounds == 0
    assert res.spread == 0.0
    # b on each line is C(n+1, 1)/n
    assert set(res.b.values()) == {Fraction(9, 8)}


def test_handicap_two_joint_toy_equalizes():
    pattern, cfg = _two_point_line_config()
    w = WeightFunction.uniform(pattern, 1)
    res = handicap_iteration(pattern, w, cfg, n=24)
    assert res.status in ("flat", "cycle")
    delta = res.delta
    # final min-products agree within 10 * delta
    prods = [res.wprime[r] * res.W[r] for r in res.wprime]
    assert max(prods) - min(prods) <= 10 * delta


def test_handicap_not_connected_raises():
    field = F
    vert = [Flat(field, 2, (field.from_int(x), field.zero),
                 [(field.zero, field.one)]) for x in (0, 1)]
    horiz = [Flat(field, 2, (field.zero, field.from_int(y)),
                  [(field.one, field.zero)]) for y in (0, 1)]
    cfg = JointsConfiguration(
        field, 2, (1, 1), (tuple(vert), tuple(horiz)),
        ((field.zero, field.zero), (field.one, field.one)))
    pattern = axis_parallel_pattern(2, [(1,), (2,)])
    w = WeightFunction.uniform(pattern, 1)
    with pytest.raises(NotConnected):
        handicap_iteration(pattern, w, cfg, n=8)


def test_handicap_generic_k3_flagship():
    cfg = _generic_k3(4)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    res = handicap_iteration(K3, w, cfg, n=24)
    assert res.status == "flat"
    audit = key_inequality_audit(K3, w, cfg, res.b, res.W)
    assert audit.cond1_pass and audit.cond2_pass
    # per line, b sums to (n+1)/n: worst slack is exactly 1/24
    assert abs(audit.cond2_worst - 1 / 24) < 1e-12
    res48 = handicap_iteration(K3, w, cfg, n=48)
    audit48 = key_inequality_audit(K3, w, cfg, res48.b, res48.W)
    assert audit48.cond1_pass and audit48.cond2_pass
    assert audit48.cond2_worst < audit.cond2_worst
    assert audit48.wprime_spread < audit.wprime_spread


FLATS2 = Hypergraph(6, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)), (1, 1, 1))


@functools.cache
def _flats2_config(field):
    """The 2-flats pattern over K7: 7 joints on 35 planes, 90 tuples each."""
    return generically_induced(SimpleHypergraph.complete(7, 4), FLATS2,
                               generic_hyperplanes(7, 6, field=field))


@functools.cache
def _flats2_k8_config():
    """The 2-flats pattern over K8: 6 joints on every plane."""
    return generically_induced(SimpleHypergraph.complete(8, 4), FLATS2,
                               generic_hyperplanes(8, 6))


def _check_rounds_against_fresh_ledger_sets(h, cfg, n, rounds):
    # the dynamic decrements until a state repeats; the reference loop
    # builds every round's ledger set and tuple slots from scratch, with no
    # plan shared between rounds, while the dynamic keeps one plan (and, on
    # planes, its memo of eliminated ledgers) and one slot table
    w = WeightFunction.uniform(h, Fraction(1, 2))
    res = handicap_iteration(h, w, cfg, n=n)
    assert (res.status, res.rounds) == ("cycle", rounds)

    nj = len(cfg.points)
    W = {r: 1.0 / (nj * math.factorial(h.d)) for r in range(nj)}
    sigma = [float(we) / float(w.total - 1) for we in w.weights]
    alpha = {r: 0 for r in range(nj)}
    seen, trace = set(), []
    while True:
        plan = vanishing._LedgerPlan(h, cfg)
        ls = plan.ledger_set(cfg, alpha, n)
        scores = vanishing._score_ranks(
            ls, vanishing._tuple_slots(plan, sigma), W, range(nj))
        ranked = sorted(range(nj), key=lambda r: (-scores[r][0], -scores[r][1]))
        wps = [scores[r][0] for r in ranked]
        gaps = [a - b for a, b in zip(wps, wps[1:])]
        cut = next((i for i, g in enumerate(gaps) if g > res.delta), None)
        trace.append({"round": len(trace), "alpha": dict(alpha),
                      "sorted_wprime": wps, "max_gap": max(gaps),
                      "decremented": ranked[:cut + 1] if cut is not None else []})
        state = tuple(alpha[r] - min(alpha.values()) for r in range(nj))
        if cut is None or state in seen:
            break
        seen.add(state)
        for r in ranked[:cut + 1]:
            alpha[r] -= 1
    b = {(rank, fl): Fraction(count, n ** fl.dim)
         for fl, ledger in ls.ledgers.items()
         for rank, count in ledger.counts.items()}
    assert res.alpha == alpha
    assert res.trace == trace
    assert res.b == b
    for fl, ledger in res.ledger_set.ledgers.items():
        assert ledger.digest() == ls.ledgers[fl].digest()


def test_handicap_rounds_match_fresh_ledger_sets():
    _check_rounds_against_fresh_ledger_sets(K3, _generic_k3(6), 24, 17)


def test_plane_handicap_rounds_match_fresh_ledger_sets():
    _check_rounds_against_fresh_ledger_sets(FLATS2, _flats2_config(F), 4, 7)


@pytest.mark.parametrize("m", [6, 8])
@seed(2418)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_memoised_lines_and_rescored_ranks_match_fresh_builds(m, data):
    # handicap walks driven by random target weights W on one configuration,
    # whose plan keeps its memo from walk to walk: in every round each line
    # ledger, a memo hit or not, equals a fresh build_flat_ledger, and the
    # scores the dynamic keeps, refreshed only for the ranks whose own
    # counts moved, equal a full _score_ranks
    cfg = _k3_config(m, F)
    nj = len(cfg.points)
    n = data.draw(st.sampled_from([3, 6, 24]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    W = {r: rng.uniform(0.5, 2.0) / (6 * nj) for r in range(nj)}
    score_ranks = vanishing._score_ranks
    kept, rounds = {}, []

    def checked(ls, slots, W, ranks):
        if not isinstance(ranks, range):
            assert rounds, "the first round scores every rank"
        rounds.append(ls.alpha)
        ranks_on = {fl: on for fl, on, _ in cfg._ledger_plans[K3].flats}
        for fl, ledger in ls.ledgers.items():
            fresh = build_flat_ledger(fl, ranks_on[fl], ls.alpha, ls.n,
                                      context=ls.context)
            assert ledger.pivots is None and fresh.pivots is None
            assert ledger.counts == fresh.counts
            assert ledger.exponents == fresh.exponents
            assert ledger.digest() == fresh.digest()
        out = score_ranks(ls, slots, W, ranks)
        kept.update(out)
        assert kept == score_ranks(ls, slots, W, range(nj))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vanishing, "_score_ranks", checked)
        res = handicap_iteration(K3, WeightFunction.uniform(
            K3, Fraction(1, 2)), cfg, W=W, n=n, max_rounds=30)
    event(f"{res.status} after {res.rounds} rounds")
    assert len(rounds) == res.rounds + 1 and rounds[-1] == res.alpha
    assert res.wprime == {r: kept[r][0] for r in range(nj)}


# ---------------------------------------------------------------------------
# the ledger plan kept on the configuration
# ---------------------------------------------------------------------------

def _assert_same_ledger_set(ls, ref):
    assert (ls.h, ls.n, ls.alpha, ls.context, ls.rank_order) == \
        (ref.h, ref.n, ref.alpha, ref.context, ref.rank_order)
    assert ls.chosen == ref.chosen
    assert ls.ledgers.keys() == ref.ledgers.keys()
    for fl, ledger in ls.ledgers.items():
        assert ledger.digest() == ref.ledgers[fl].digest()


@functools.cache
def _plan_case(case):
    """(pattern, configuration, its fresh copy, degree caps to draw from)."""
    if case == "K3-dup":
        # the K3 configuration that once stored a point twice, now with its
        # distinct points only: every flat is a line, memoised as planes are
        h, cfg, caps = K3, _generic_k3(4), (2, 3, 5)
    else:
        field = QQ if case.endswith("Q") else F
        h, cfg = FLATS2, _flats2_config(field)
        caps = (2,) if field is QQ else (2, 3, 4)
    return h, cfg, JointsConfiguration.from_dict(cfg.to_dict()), caps


@pytest.mark.parametrize("case", ["2-flats-GF", "2-flats-Q", "K3-dup"])
@seed(2411)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_ledger_plan_matches_fresh_ledger_sets(case, data):
    # a run of handicaps on one configuration: random ones, shifts of the
    # previous one (every memoised ledger hits) and one-joint changes; each
    # ledger set must equal one built on a fresh copy from nothing
    h, cfg, fresh, caps = _plan_case(case)
    n = data.draw(st.sampled_from(caps))
    nj = len(cfg.points)
    alpha = {r: 0 for r in range(nj)}
    for _ in range(data.draw(st.integers(2, 5))):
        step = data.draw(st.sampled_from(["random", "shift", "one"]))
        if step == "random":
            alpha = {r: data.draw(st.integers(-3, 3)) for r in range(nj)}
        elif step == "shift":
            c = data.draw(st.integers(-4, 4))
            alpha = {r: a + c for r, a in alpha.items()}
        else:
            alpha = dict(alpha)
            alpha[data.draw(st.integers(0, nj - 1))] += data.draw(
                st.sampled_from([-1, 1]))
        ls = build_ledger_set(h, cfg, alpha, n)
        plan = cfg._ledger_plans[h]
        memoised = len(plan.memo)
        assert memoised >= len(plan.flats)
        _assert_same_ledger_set(ls, _fresh_ledger_set(h, fresh, alpha, n))
        shifted = {r: a + 3 for r, a in alpha.items()}
        _assert_same_ledger_set(build_ledger_set(h, cfg, shifted, n),
                                _fresh_ledger_set(h, fresh, shifted, n))
        assert len(plan.memo) == memoised  # a shift only hits the memo


def test_ledger_plan_cache_key_covers_every_input():
    # one plan per pattern serves every n; each ledger set, cached or not,
    # equals a fresh build. n changes the ledgers, and the pattern the
    # witness chosen at each joint, whose chart the admissible rows read
    h, cfg, fresh, _ = _plan_case("2-flats-GF")
    cfg = JointsConfiguration.from_dict(cfg.to_dict())  # no plans yet
    nj = len(cfg.points)
    rng = random.Random(7)
    alpha = {r: rng.randrange(-2, 3) for r in range(nj)}
    rotated = Hypergraph(6, h.edges[1:] + h.edges[:1], h.colors)
    digests = set()
    for _ in range(2):  # the second pass finds both plans cached
        for pattern in (h, rotated):
            for n in (2, 3):
                ls = build_ledger_set(pattern, cfg, alpha, n)
                _assert_same_ledger_set(
                    ls, _fresh_ledger_set(pattern, fresh, alpha, n))
                digests.add((tuple(ls.chosen.values()), tuple(
                    ledger.digest() for ledger in ls.ledgers.values())))
    assert len(digests) == 4
    assert set(cfg._ledger_plans) == {h, rotated}
    # lines are memoised too, on their counts alone: a key without n, or
    # without the handicap relative to the line's least, returns another
    # call's counts
    cfg = _generic_k3(6)
    alphas = [{r: rng.randrange(-2, 3) for r in range(len(cfg.points))}
              for _ in range(3)]
    for _ in range(2):
        for n in (2, 3):
            for alpha in alphas:
                _assert_same_ledger_set(build_ledger_set(K3, cfg, alpha, n),
                                        _fresh_ledger_set(K3, cfg, alpha, n))
    assert len(cfg._ledger_plans[K3].memo) > len(cfg._ledger_plans[K3].flats)


def test_tuple_cap_applies_on_the_ledger_path(monkeypatch, tmp_path, capsys):
    # the 2-flats pattern has 90 witness tuples at every joint
    h, cfg, _, _ = _plan_case("2-flats-GF")
    save_json(tmp_path / "p.cfg", cfg.to_dict())
    save_json(tmp_path / "p.hg", h.to_dict())
    save_json(tmp_path / "half.w",
              WeightFunction.uniform(h, Fraction(1, 2)).to_dict())
    eta = ["eta", "--config", str(tmp_path / "p.cfg"), "--pattern",
           str(tmp_path / "p.hg"), "--weights", str(tmp_path / "half.w"),
           "--point", "0"]
    monkeypatch.setattr(geometry, "TUPLE_CAP", 89)
    with pytest.raises(CapExceeded):  # a configuration with no plans yet
        build_ledger_set(h, JointsConfiguration.from_dict(cfg.to_dict()),
                         None, 2)
    assert main(eta) == 2
    assert "exceeded cap 89" in capsys.readouterr().err
    monkeypatch.setattr(geometry, "TUPLE_CAP", 90)
    assert build_ledger_set(h, JointsConfiguration.from_dict(cfg.to_dict()),
                            None, 2).ledgers
    assert main(eta) == 0


def test_round_cap_returns_the_alpha_of_the_final_ledgers():
    cfg = _generic_k3(6)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    res = handicap_iteration(K3, w, cfg, n=24, max_rounds=2)
    assert res.status == "max-rounds"
    assert res.alpha == res.ledger_set.alpha == res.trace[-1]["alpha"]


def test_audit_condition_two_is_exact():
    pattern = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): 1}, {(0,): 1}], 1)
    w = WeightFunction.uniform(pattern, 1)
    res = handicap_iteration(pattern, w, cfg, n=16)
    # each line carries b = 17/16, one over 1/1! by exactly 1/16
    at_tol = key_inequality_audit(pattern, w, cfg, res.b, res.W,
                                  cond2_tol=1 / 16)
    assert at_tol.cond2_pass and at_tol.cond2_worst == 1 / 16
    # past the tolerance by less than a float can show
    key = next(iter(res.b))
    over = dict(res.b)
    over[key] += Fraction(1, 10 ** 30)
    past = key_inequality_audit(pattern, w, cfg, over, res.W,
                                cond2_tol=1 / 16)
    assert not past.cond2_pass and past.cond2_worst == 1 / 16


@pytest.mark.parametrize("values, passes", [
    ((Fraction(1, 3), Fraction(3, 2), Fraction(1)), True),
    ((Fraction(1, 7), Fraction(7, 4), Fraction(2 ** 60 - 1, 2 ** 59)), False),
], ids=["equal", "below-by-2^-61"])
def test_audit_condition_one_is_exact(values, passes):
    # K3 with weights 1/2 takes (sqrt(b1) sqrt(b2) sqrt(b3))^2 against W:
    # the products are exactly 1/2 and 1/2 - 2^-61, and in floats they
    # round to 1/2 - 2^-54 (a float FAIL) and to 1/2 or more (a float PASS)
    cfg = _generic_k3(4)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    b = {}
    for rank, idx in enumerate(vanishing.preassigned_order(cfg)):
        lines = [fl for fl in cfg.classes[0] if fl.contains(cfg.points[idx])]
        b.update({(rank, fl): v for fl, v in zip(lines, values)})
    W = {rank: 0.5 for rank in range(len(cfg.points))}
    audit = key_inequality_audit(K3, w, cfg, b, W, cond1_factor=1.0)
    assert audit.cond1_pass is passes
    assert (audit.cond1_worst <= 0.0) is not passes  # the float verdict


@pytest.mark.parametrize("lowered, passes", [(0, True), (1, False)],
                         ids=["at-target", "below-by-1/n"])
def test_audit_decides_permuted_exponents_apart(monkeypatch, lowered, passes):
    # weights (1, 1/2, 1/2): a tuple's product is b_0 (b_1 b_2)^(1/2). At
    # every joint the line a, which the first tuple puts on edge 1, carries
    # b = 12/24 - lowered/24 and the other lines 1, so the tuples with a on
    # edge 0 give 1/2 - lowered/24 against W = 1/2 and the first tuple
    # about 0.7: the same flats with exponents permuted, which a verdict
    # kept per multiset of b values would pass. The exact sign is taken
    # once per distinct multiset of (b, exponent): b = 1 or not on edge 0
    cfg = _generic_k3(5)
    w = WeightFunction.for_hypergraph(K3, [1, Fraction(1, 2), Fraction(1, 2)])
    n = 24
    b = {}
    for rank, idx in enumerate(vanishing.preassigned_order(cfg)):
        tuples = cfg.tuples_at(K3, idx)
        a = tuples[0].flats[1]
        assert any(wt.flats[0] == a for wt in tuples)
        for wt in tuples:
            b.update({(rank, fl): Fraction(1) for fl in wt.flats})
        b[(rank, a)] = Fraction(12 - lowered, n ** a.dim)
    W = {rank: 0.5 for rank in range(len(cfg.points))}
    signs, sign = [], vanishing.log2_sum_sign

    def counted(terms):
        signs.append(terms)
        return sign(terms)

    monkeypatch.setattr(vanishing, "log2_sum_sign", counted)
    audit = key_inequality_audit(K3, w, cfg, b, W, cond1_factor=1.0)
    assert audit.cond1_pass is passes
    assert (audit.cond1_worst <= 0.0) is passes
    if passes:
        assert len(signs) == 2 * len(cfg.points)
    else:  # the first joint's first tuple with a on edge 0 fails it
        assert len(signs) == 2


def test_audit_hand_built_and_degenerate():
    # single-joint exact certificate: b = 1/k! per flat, W = 1/d!
    pattern = axis_parallel_pattern(2, [(1,), (2,)])
    cfg = axis_parallel_from_functions(2, [(1,), (2,)],
                                       [{(0,): 1}, {(0,): 1}], 1)
    w = WeightFunction.uniform(pattern, 1)
    res = handicap_iteration(pattern, w, cfg, n=16)
    audit = key_inequality_audit(pattern, w, cfg, res.b, res.W)
    assert audit.cond1_pass and audit.cond2_pass
    # b == 0 everywhere must fail condition (1) wherever W > 0
    zero_b = {k: Fraction(0) for k in res.b}
    bad = key_inequality_audit(pattern, w, cfg, zero_b, res.W)
    assert not bad.cond1_pass
