import functools
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from hjoints import (GF, QQ, Chart, Hypergraph, SimpleHypergraph,
                     WeightFunction, assemble_point_exponents,
                     bounded_domain_threshold, build_ledger_set,
                     generic_hyperplanes, generically_induced,
                     handicap_iteration, key_inequality_audit, lw_step_check,
                     param_counting_check, point_exponents,
                     sum_of_conditions_check)
from hjoints import geometry, linalg, vanishing
from hjoints.cli import main
from hjoints.configs import JointsConfiguration, axis_parallel_from_functions, axis_parallel_pattern
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
    assert linalg.rank(rows, F, len(rows)) == comb(n + 2, 2)


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
    assert len(point_exponents(ls, 0)) == comb(n + 2, 2)


def test_ledger_two_joints_alternate_orders():
    pattern, cfg = _two_point_line_config()
    n = 3
    ls = build_ledger_set(pattern, cfg, None, n)
    horizontal = next(fl for fl in ls.ledgers if fl.dim == 1 and
                      len(ls.ledgers[fl].joints) == 2)
    ledger = ls.ledgers[horizontal]
    assert sorted(ledger.counts.values()) == [2, 2]
    assert sum_of_conditions_check(ledger) == (4, 4)
    # each joint received derivative orders {0, 1}
    for rank in ledger.joints:
        assert sorted(ledger.per_order[rank]) == [0, 1]


def test_ledger_two_joints_explicit_elimination_oracle():
    # independent oracle: derivative-at-parameter rows on degree-3 polys,
    # prefix ranks in priority order give the pivot counts
    pattern, cfg = _two_point_line_config()
    n = 3
    ls = build_ledger_set(pattern, cfg, None, n)
    horizontal = next(fl for fl in ls.ledgers if fl.dim == 1 and
                      len(ls.ledgers[fl].joints) == 2)
    ledger = ls.ledgers[horizontal]
    params = {}
    for rank in ledger.joints:
        point = cfg.points[ls.rank_order[rank]]
        params[rank] = horizontal.coords_of_point(point)[0]
    order = sorted(((r, rank) for rank in ledger.joints for r in range(n + 1)))
    rows = []
    prev_rank = 0
    counts = {rank: 0 for rank in ledger.joints}
    for r, rank in order:
        c = params[rank]
        rows.append([F.mul(F.from_int(comb(j, r)),
                           pow(c, j - r, F.p)) if j >= r else F.zero
                     for j in range(n + 1)])
        new_rank = linalg.rank(rows, F, n + 1)
        if new_rank > prev_rank:
            counts[rank] += 1
        prev_rank = new_rank
    assert counts == ledger.counts


def test_bounded_domain_sweep_and_beyond():
    pattern, cfg = _two_point_line_config()
    n = 4
    ls = build_ledger_set(pattern, cfg, None, n)
    horizontal = next(fl for fl in ls.ledgers if fl.dim == 1 and
                      len(ls.ledgers[fl].joints) == 2)
    target = max(ledger_rank for ledger_rank in ls.ledgers[horizontal].joints)
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

def test_assemble_full_boxes_and_empty():
    n = 2
    full = [{(r,) for r in range(n + 1)} for _ in range(3)]
    got = assemble_point_exponents(K3, full, n)
    assert len(got) == comb(n + 3, 3)
    assert assemble_point_exponents(K3, [set(), full[1], full[2]], n) == []


def test_assemble_hand_built_cross_check():
    n = 2
    sets = [{(0,), (1,)}, {(0,), (2,)}, {(0,), (1,), (2,)}]
    got = set(assemble_point_exponents(K3, sets, n))
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
            g_p = len(point_exponents(ls, rank))
            g_e = [ls.ledgers[ls.flat_by_edge[(rank, i)]].counts[rank]
                   for i in range(3)]
            assert lw_step_check(K3, w, g_p, g_e, n) >= -1e-9


def test_lw_step_full_boxes():
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    n = 4
    g_p = comb(n + 3, 3)
    g_e = [n + 1] * 3
    assert lw_step_check(K3, w, g_p, g_e, n) >= -1e-9


def test_admissible_conditions_kill_all_polynomials():
    # the heart of the counting law: the conditions "ambient derivative of
    # order gamma at p vanishes, gamma in the admissible set of p" admit only
    # the zero polynomial of degree <= n, i.e. the stacked functional rows
    # have full rank C(n+d, d) in the ambient polynomial space
    from hjoints.vanishing import Chart, PullbackTable
    cfg = _generic_k3(4)
    rng = random.Random(12)
    for n in (2, 3):
        for _ in range(4):
            alpha = {r: rng.randrange(-2, 3) for r in range(4)}
            ls = build_ledger_set(K3, cfg, alpha, n)
            rows = []
            for rank in range(4):
                point = cfg.points[ls.rank_order[rank]]
                chosen = ls.chosen[rank]
                ambient = Chart(cfg.field, 3, chosen.witness.columns, point)
                table = PullbackTable(ambient, n)
                for gamma in point_exponents(ls, rank):
                    rows.append(table.row(gamma))
            dim = comb(n + 3, 3)
            assert len(rows) >= dim  # the exact counting law, again
            assert linalg.rank(rows, cfg.field, dim) == dim


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
# the closed form on lines against the elimination
# ---------------------------------------------------------------------------

def _no_elimination(*args):
    raise AssertionError("the elimination ran on a line")


def _fresh_ledger_set(h, cfg, alpha, n):
    """A ledger set from a plan of its own, not the configuration's, so
    charts, tables and ledgers are all new."""
    plan = vanishing._LedgerPlan(h, cfg, vanishing.default_chosen(h, cfg), n)
    return plan.ledger_set(cfg, alpha)


def _pinned(build, *, eliminate: bool):
    """Run `build` with every ledger eliminated, or with elimination barred."""
    with pytest.MonkeyPatch.context() as mp:
        if eliminate:
            mp.setattr(vanishing, "_hermite_line", lambda *args: False)
        else:
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
    cfg = _k3_config(m, field)
    nj = len(cfg.points)
    alpha = dict(enumerate(data.draw(
        st.lists(st.integers(-4, 4), min_size=nj, max_size=nj))))
    closed = _pinned(lambda: _fresh_ledger_set(K3, cfg, alpha, n),
                     eliminate=False)
    oracle = _pinned(lambda: _fresh_ledger_set(K3, cfg, alpha, n),
                     eliminate=True)
    assert closed.ledgers.keys() == oracle.ledgers.keys()
    for fl, ledger in closed.ledgers.items():
        assert ledger.digest() == oracle.ledgers[fl].digest()


@pytest.mark.parametrize("field", [QQ, F], ids=["Q", "GF"])
@pytest.mark.parametrize("degenerate,counts", [
    ("coincident shifts", {0: 5, 1: 0}),
    ("zero scale", {0: 1, 1: 4}),
])
def test_degenerate_line_charts_are_eliminated(field, degenerate, counts):
    # the first n + 1 pairs would give {0: 3, 1: 2} in both cases
    line = Flat(field, 2, (field.zero, field.zero), [(field.one, field.zero)])
    u, c = field.from_int(3), field.from_int(2)
    scale = field.zero if degenerate == "zero scale" else c
    other = u if degenerate == "coincident shifts" else field.from_int(5)
    charts = [(0, Chart(field, 1, ((scale,),), (u,)), "witness"),
              (1, Chart.translation(field, (other,)), "reference")]
    alpha, n = {0: 0, 1: -1}, 4
    ledger = build_flat_ledger(line, charts, alpha, n)
    oracle = _pinned(lambda: build_flat_ledger(line, charts, alpha, n),
                     eliminate=True)
    assert ledger.counts == counts
    assert ledger.digest() == oracle.digest()


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


def _check_rounds_against_fresh_ledger_sets(h, cfg, n, rounds):
    # the dynamic decrements until a state repeats; the reference loop
    # builds every round's ledger set from scratch, with no plan shared
    # between rounds, while the dynamic keeps one plan (and, on planes, its
    # memo of eliminated ledgers)
    w = WeightFunction.uniform(h, Fraction(1, 2))
    res = handicap_iteration(h, w, cfg, n=n)
    assert (res.status, res.rounds) == ("cycle", rounds)

    nj = len(cfg.points)
    W = {r: 1.0 / (nj * math.factorial(h.d)) for r in range(nj)}
    sigma = [float(we) / float(w.total - 1) for we in w.weights]
    alpha = {r: 0 for r in range(nj)}
    seen, trace = set(), []
    while True:
        ls = _fresh_ledger_set(h, cfg, alpha, n)
        scores = vanishing._score_ranks(ls, h, w, W, sigma)
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


# ---------------------------------------------------------------------------
# the ledger plan kept on the configuration
# ---------------------------------------------------------------------------

def _assert_same_ledger_set(ls, ref):
    assert (ls.h, ls.n, ls.alpha, ls.context, ls.rank_order) == \
        (ref.h, ref.n, ref.alpha, ref.context, ref.rank_order)
    assert ls.flat_by_edge == ref.flat_by_edge
    assert ls.ledgers.keys() == ref.ledgers.keys()
    for fl, ledger in ls.ledgers.items():
        assert ledger.digest() == ref.ledgers[fl].digest()
        assert ledger.chart_kind == ref.ledgers[fl].chart_kind


@functools.cache
def _plan_case(case):
    """(pattern, configuration, its fresh copy, degree caps to draw from)."""
    if case == "K3-dup":
        # a second joint at a stored point: every line through it has two
        # charts with one shift, so the elimination (and the memo) runs
        base = _generic_k3(4)
        cfg = JointsConfiguration(base.field, base.d, base.dims, base.classes,
                                  base.points + base.points[:1])
        h, caps = K3, (2, 3, 5)
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
        plan = cfg._ledger_plans[(h, n)]
        memoised = len(plan.memo)
        assert any(m for _, _, m in plan.charts)
        _assert_same_ledger_set(ls, _fresh_ledger_set(h, fresh, alpha, n))
        shifted = {r: a + 3 for r, a in alpha.items()}
        _assert_same_ledger_set(build_ledger_set(h, cfg, shifted, n),
                                _fresh_ledger_set(h, fresh, shifted, n))
        assert len(plan.memo) == memoised  # a shift only hits the memo


def test_ledger_plan_cache_key_covers_every_input():
    h, cfg, fresh, _ = _plan_case("2-flats-GF")
    cfg = JointsConfiguration.from_dict(cfg.to_dict())  # no plans yet
    nj = len(cfg.points)
    rng = random.Random(7)
    alpha = {r: rng.randrange(-2, 3) for r in range(nj)}
    rotated = Hypergraph(6, h.edges[1:] + h.edges[:1], h.colors)
    for _ in range(2):  # the second pass finds every plan cached
        for n in (2, 3):
            _assert_same_ledger_set(build_ledger_set(h, cfg, alpha, n),
                                    _fresh_ledger_set(h, fresh, alpha, n))
            _assert_same_ledger_set(
                build_ledger_set(rotated, cfg, alpha, n),
                _fresh_ledger_set(rotated, fresh, alpha, n))
    assert set(cfg._ledger_plans) == {
        (pattern, n) for pattern in (h, rotated) for n in (2, 3)}


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
