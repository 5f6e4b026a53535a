"""The acceptance battery: one callable per criterion, shared by the CLI
`suite` subcommand and the pytest acceptance module.

Each criterion returns a list of CheckRecords; a FAIL anywhere fails the
suite. The stretch search criterion downgrades to INFO on a miss instead of
failing, and the handicap criterion accepts a logged cycle. `fast=True`
trims sample counts for interactive runs; the defaults match the stated
scales.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from math import comb

from .configs import (JointsConfiguration, axis_parallel_pattern,
                      generic_hyperplanes, generically_induced,
                      projected_generically_induced)
from .cover import dual_cover, rho_star
from .entropy import (geometric_shearer_audit, holder_check,
                      joint_multiplicity, loomis_whitney_check, shearer_check,
                      tensor_power_bound)
from .extremal import (SimpleHypergraph, colex_sets, cone_pattern,
                       count_inducing_sets, kruskal_katona_count,
                       partial_shadow_check, search_M)
from .geometry import detect_joints
from .hypergraph import (Hypergraph, WeightFunction, covering_constant,
                         joint_count_bound)
from .logspace import Log2Value
from .report import (FAIL, INFO, PASS, UNCONVERGED, CheckRecord, record_bound,
                     record_equal)
from .vanishing import (build_ledger_set, bounded_domain_threshold,
                        handicap_iteration, key_inequality_audit,
                        lw_step_worst, param_counting_check,
                        sum_of_conditions_check)

K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))
P3 = Hypergraph(3, ((1, 2), (2, 3)), (1, 1))

_config_cache: dict = {}


def _generic_config(pattern_key, m, seed=0):
    key = (pattern_key, m, seed)
    if key not in _config_cache:
        if pattern_key == "k3":
            pattern, host = K3, SimpleHypergraph.complete(m, 2)
        elif pattern_key == "p3":
            pattern, host = P3, SimpleHypergraph.complete(m, 2)
        elif pattern_key == "flats6":
            pattern = Hypergraph(6, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)),
                                 (1, 1, 1))
            host = SimpleHypergraph.complete(m, 4)
        elif pattern_key == "c5":
            pattern, host = Hypergraph.cycle(5), SimpleHypergraph.complete(m, 2)
        else:
            raise KeyError(pattern_key)
        fam = generic_hyperplanes(m, pattern.d, seed=seed)
        _config_cache[key] = (pattern, host,
                              generically_induced(host, pattern, fam), fam)
    return _config_cache[key]


def simple_bound_record(name, h, w, cfg) -> CheckRecord:
    """|J| <= C(H, w) * prod |F_i|^wbar_i, decided exactly in log space."""
    rhs_log = joint_count_bound(h, w, cfg.class_sizes())
    n_joints = len(cfg.points)
    if rhs_log is None:
        return CheckRecord(name, PASS if n_joints == 0 else FAIL, n_joints,
                           note="bound 0: an empty class has wbar > 0")
    if n_joints == 0:
        return CheckRecord(name, PASS, 0, float(rhs_log), note="empty J")
    lhs_log = Log2Value.of_int_log(n_joints)
    slack = rhs_log - lhs_log
    return CheckRecord(name, PASS if slack.sign() >= 0 else FAIL,
                       float(lhs_log), float(rhs_log), float(slack),
                       note="log2 scale, exact-direction")


def multiplicities(h, w, cfg, *, tol=1e-9):
    """joint_multiplicity at every stored point, in point order."""
    return [joint_multiplicity(h, w, cfg.tuples_at(h, idx), tol=tol)
            for idx in range(len(cfg.points))]


def mult_bound_record(name, h, w, cfg, results) -> CheckRecord:
    """sum_p eta(p) <= C(H, w) * prod |F_i|^wbar_i, with the float bound
    (0^0 = 1 gives the wbar_i = 0 convention) and a 1e-9 guard."""
    total = 0.0
    for res in results:
        total += res.value
    bound = covering_constant(h, w).value * math.prod(
        size ** float(wbar) for size, wbar in zip(cfg.class_sizes(), w.subtotals))
    worst_gap = max([0.0] + [res.gap for res in results])
    return record_bound(name, total, bound,
                        note=f"sum of multiplicities, FW gap<= {worst_gap:.2e}")


def _random_distribution(rng, k):
    raw = [rng.random() + 1e-6 for _ in range(k)]
    tot = math.fsum(raw)
    return [v / tot for v in raw]


def geo_shearer_random_record(h, w, cfg, rng, count) -> CheckRecord:
    """Worst geometric Shearer slack over `count` random (point, tuple)
    distribution pairs drawn from `rng`."""
    if count < 1:
        raise ValueError(f"count = {count}: the audit needs at least one "
                         "distribution pair")
    worst = math.inf
    for _ in range(count):
        point_probs = _random_distribution(rng, len(cfg.points))
        tuple_probs = [_random_distribution(rng, len(cfg.tuples_at(h, idx)))
                       for idx in range(len(cfg.points))]
        rep = geometric_shearer_audit(h, w, cfg, point_probs, tuple_probs)
        worst = min(worst, rep.slack)
    return CheckRecord("geo-shearer-random", PASS if worst >= -1e-9 else FAIL,
                       slack=worst,
                       note=f"{count} random (point, tuple) distribution pairs")


def geo_shearer_optimal_record(h, w, cfg) -> CheckRecord:
    """The audit at the multiplicity optimizers: its lhs is log2(sum eta)
    for any distributions, and its slack must be nonnegative."""
    results = multiplicities(h, w, cfg)
    if not results:
        return CheckRecord("geo-shearer-optimal", PASS, note="no points")
    tot = sum(res.value for res in results)
    rep = geometric_shearer_audit(h, w, cfg, [res.value / tot for res in results],
                                  [res.distribution for res in results])
    ok = abs(rep.lhs - math.log2(tot)) <= 1e-6 and rep.slack >= -1e-9
    return CheckRecord("geo-shearer-optimal", PASS if ok else FAIL,
                       rep.lhs, math.log2(tot), rep.slack,
                       note="lhs = log2(sum of multiplicities)")


def key_audit_records(h, w, cfg, b, W, *, cond1_factor=0.8, cond2_tol=0.1
                      ) -> list[CheckRecord]:
    """The key_inequality_audit of one certificate (b, W) as records:
    conditions (1) and (2), and the equalization spread as INFO."""
    audit = key_inequality_audit(h, w, cfg, b, W, cond1_factor=cond1_factor,
                                 cond2_tol=cond2_tol)
    return [CheckRecord("condition-1", PASS if audit.cond1_pass else FAIL,
                        slack=audit.cond1_worst,
                        note=f"factor {cond1_factor}; raw margin "
                             f"{audit.cond1_margin:.6f}"),
            CheckRecord("condition-2", PASS if audit.cond2_pass else FAIL,
                        slack=audit.cond2_worst,
                        note=f"tolerance {cond2_tol}"),
            CheckRecord("equalization-spread", INFO,
                        slack=audit.wprime_spread,
                        note=f"lambda={audit.lam:.6f}")]


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def criterion_rho_star(fast=False) -> list[CheckRecord]:
    out = []
    for d in range(3, 7):
        h = Hypergraph.complete_uniform(d, d - 1)
        sol = rho_star(h)
        dual_value, _ = dual_cover(h)
        out.append(record_equal(f"rho-star-K{d}", sol.value, Fraction(d, d - 1)))
        out.append(record_equal(f"rho-star-K{d}-duality", sol.value, dual_value))
    c5 = Hypergraph.cycle(5)
    sol = rho_star(c5)
    dual_value, _ = dual_cover(c5)
    out.append(record_equal("rho-star-5cycle", sol.value, Fraction(5, 2)))
    out.append(record_equal("rho-star-5cycle-duality", sol.value, dual_value))
    return out


def criterion_constant(fast=False) -> list[CheckRecord]:
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    c = covering_constant(K3, w)
    approx = c.approx(digits=16)
    # sqrt(2)/3 to ~30 digits through integer square root
    reference = Fraction(math.isqrt(2 * 10 ** 60), 10 ** 30) / 3
    err = abs(approx - reference)
    out = [CheckRecord("constant-K3-sqrt2-over-3",
                       PASS if err < Fraction(1, 10 ** 12) else FAIL,
                       float(approx), float(reference), float(err),
                       note="12-digit target via log decomposition")]
    h4 = Hypergraph(3, ((1, 2), (1, 3), (2, 3), (1, 2)), (1, 1, 1, 2))
    w4 = WeightFunction.for_hypergraph(h4, [Fraction(1, 2)] * 3 + [Fraction(0)])
    c4 = covering_constant(h4, w4)
    out.append(record_equal("constant-zero-weight-convention",
                            float(c4.approx(14)), float(approx), tol=1e-12,
                            note="(w/wbar)^0 = 1 even when wbar = 0"))
    return out


def criterion_geometry_combinatorics(fast=False) -> list[CheckRecord]:
    rng = random.Random(2024)
    out = []
    hosts = 6 if fast else 20
    for trial in range(hosts):
        m = rng.randrange(4, 8)
        pattern = P3 if trial % 5 == 4 else K3
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        host = None
        while host is None:
            picked = [e for e in pairs if rng.random() < 0.55]
            if len({v for e in picked for v in e}) == m and picked:
                host = SimpleHypergraph.from_sets(m, picked)
        fam = generic_hyperplanes(m, 3, seed=trial)
        cfg = generically_induced(host, pattern, fam)
        candidates = [fam.intersection(list(c)).base
                      for c in itertools.combinations(range(m), 3)]
        joints = detect_joints(pattern, cfg, candidates)
        expected = count_inducing_sets(host, pattern)
        out.append(record_equal(
            f"detect-vs-count-{trial}", len(joints), expected,
            note=f"m={m} pattern={'P3' if pattern is P3 else 'K3'}"))
        if len(cfg.points) != expected:
            out.append(CheckRecord(f"config-vs-count-{trial}", FAIL,
                                   len(cfg.points), expected))
    return out


def criterion_simple_bound(fast=False) -> list[CheckRecord]:
    out = []
    w_half = WeightFunction.uniform(K3, Fraction(1, 2))
    ratios = []
    top = 8 if fast else 10
    for m in range(4, top + 1):
        _, _, cfg, _ = _generic_config("k3", m)
        out.append(simple_bound_record(f"simple-bound-K3-m{m}", K3, w_half,
                                       cfg))
        ratios.append(Log2Value.of_int_log(len(cfg.points))
                      - joint_count_bound(K3, w_half, cfg.class_sizes()))
    monotone = all((b - a).sign() >= 0 for a, b in zip(ratios, ratios[1:]))
    out.append(CheckRecord("simple-bound-ratio-monotone",
                           PASS if monotone else FAIL,
                           note=f"|J|/bound nondecreasing for m=4..{top}, "
                                "exact log comparison"))
    flats6_pattern, _, cfg6, _ = _generic_config("flats6", 7)
    w6 = WeightFunction.uniform(flats6_pattern, Fraction(1, 2))
    out.append(simple_bound_record("simple-bound-2flats-F6", flats6_pattern,
                                   w6, cfg6))
    c5_pattern, _, cfg5, _ = _generic_config("c5", 6)
    w5 = WeightFunction.uniform(c5_pattern, Fraction(1, 2))
    out.append(simple_bound_record("simple-bound-5cycle", c5_pattern, w5,
                                   cfg5))
    for t in (0, 1, 2):
        host = SimpleHypergraph.complete(6, 2 + t)
        fam = generic_hyperplanes(6, 3 + t, seed=t)
        cfg = projected_generically_induced(host, K3, t, fam,
                                            projection_seed=t)
        out.append(simple_bound_record(f"simple-bound-projected-t{t}", K3,
                                       w_half, cfg))
    return out


def criterion_multiplicity(fast=False) -> list[CheckRecord]:
    out = []
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    profile = K3.validate_uniform_coloring()
    # closed form at a fully generic joint: 2^(-sum wbar_i H(e_i)) *
    # prod binom(d, d - k_i)^wbar_i; equals 1 for this pattern and weight
    edge_entropy = 0.0
    for c, idxs in K3.color_classes().items():
        wbar = w.subtotals[c - 1]
        probs = [float(w.weights[i] / wbar) for i in idxs]
        edge_entropy += float(wbar) * -sum(p * math.log2(p) for p in probs
                                           if p > 0)
    closed_form = 2.0 ** (-edge_entropy)
    for c in range(K3.r):
        closed_form *= comb(K3.d, K3.d - profile.flat_dims[c]) ** \
            float(w.subtotals[c])
    top = 6 if fast else 7
    for m in range(4, top + 1):
        _, _, cfg, _ = _generic_config("k3", m)
        results = multiplicities(K3, w, cfg)
        worst_gap = max([0.0] + [res.gap for res in results])
        worst_dev = max([0.0] + [abs(res.value - closed_form)
                                 for res in results])
        out.append(mult_bound_record(f"mult-bound-m{m}", K3, w, cfg, results))
        out.append(CheckRecord(
            f"mult-closed-form-m{m}", PASS if worst_dev <= 1e-6 else FAIL,
            closed_form, None, worst_dev,
            note="multiplicity vs C*prod binom(d,d-k)^wbar"))
        if worst_gap > 1e-9:
            out.append(CheckRecord(f"mult-gap-m{m}", UNCONVERGED,
                                   slack=worst_gap))
    # simple joints: one flat per color class through the point
    fam = generic_hyperplanes(3, 3, seed=5)
    lines = [fam.intersection([a, b]) for a, b in ((0, 1), (0, 2), (1, 2))]
    point = fam.intersection([0, 1, 2]).base
    rainbow = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 2, 3))
    cfg1 = JointsConfiguration(fam.field, 3, (1, 1, 1),
                               tuple((ln,) for ln in lines), (point,),
                               provenance="custom")
    tuples = cfg1.tuples_at(rainbow, 0)
    res = joint_multiplicity(rainbow, WeightFunction.uniform(rainbow, Fraction(1, 2)),
                             tuples)
    out.append(CheckRecord("mult-simple-joint",
                           PASS if len(tuples) == 1 and
                           abs(res.value - 1.0) <= 1e-9 else FAIL,
                           res.value, 1.0, abs(res.value - 1.0),
                           note="|T_p| = 1 forces multiplicity 1"))
    return out


def criterion_geo_shearer(fast=False) -> list[CheckRecord]:
    _, _, cfg, _ = _generic_config("k3", 5)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    return [geo_shearer_random_record(K3, w, cfg, random.Random(99),
                                      40 if fast else 200),
            geo_shearer_optimal_record(K3, w, cfg)]


def criterion_entropy_inequalities(fast=False) -> list[CheckRecord]:
    rng = random.Random(7)
    out = []
    worst = math.inf
    n_shearer = 200 if fast else 1000
    for _ in range(n_shearer):
        d = rng.randrange(2, 5)
        subsets, weights = _random_cover(rng, d)
        support = list(itertools.product(range(2), repeat=d))
        raw = [rng.random() for _ in support]
        tot = sum(raw)
        joint = {s: p / tot for s, p in zip(support, raw)}
        worst = min(worst, shearer_check(d, subsets, weights, joint))
    out.append(CheckRecord("entropy-shearer-random",
                           PASS if worst >= -1e-9 else FAIL, slack=worst,
                           note=f"{n_shearer} random joints, d <= 4"))
    worst_rel = math.inf
    n_holder = 200 if fast else 1000
    for _ in range(n_holder):
        d = rng.randrange(2, 5)
        s = rng.randrange(2, 4)
        subsets, weights = _random_cover(rng, d)
        functions = [{vals: rng.randrange(0, 4)
                      for vals in itertools.product(range(s), repeat=len(I))}
                     for I in subsets]
        lhs, rhs, slack = holder_check(d, subsets, weights, functions, s)
        worst_rel = min(worst_rel, slack / max(rhs, 1e-30))
    out.append(CheckRecord("entropy-holder-random",
                           PASS if worst_rel >= -1e-9 else FAIL,
                           slack=worst_rel,
                           note=f"{n_holder} random integer instances, relative"))
    worst = math.inf
    n_lw = 100 if fast else 500
    for _ in range(n_lw):
        d = rng.randrange(2, 5)
        s = 3
        grid = list(itertools.product(range(s), repeat=d))
        pts = rng.sample(grid, rng.randrange(1, len(grid)))
        subsets = [tuple(j for j in range(1, d + 1) if j != drop)
                   for drop in range(1, d + 1)]
        weights = [Fraction(1, d - 1)] * d
        worst = min(worst, loomis_whitney_check(d, subsets, weights, pts))
    out.append(CheckRecord("entropy-loomis-whitney-random",
                           PASS if worst >= -1e-9 else FAIL, slack=worst,
                           note=f"{n_lw} random subsets"))
    trend_ok = True
    for trial in range(10):
        d = 2 + trial % 2
        s = 2
        subsets, weights = _random_cover(rng, d)
        functions = [{vals: rng.randrange(1, 4)
                      for vals in itertools.product(range(s), repeat=len(I))}
                     for I in subsets]
        pattern = axis_parallel_pattern(d, subsets)
        wf = WeightFunction.for_hypergraph(pattern, weights)
        constant = covering_constant(pattern, wf).value
        bounds = [tensor_power_bound(d, subsets, weights, functions, s,
                                     constant, n) for n in (1, 2, 3)]
        lhs, _, _ = holder_check(d, subsets, weights, functions, s)
        if not (bounds[0] >= bounds[1] - 1e-9 * bounds[0]
                and bounds[1] >= bounds[2] - 1e-9 * bounds[0]
                and lhs <= bounds[2] + 1e-9 * max(1.0, bounds[2])):
            trend_ok = False
    out.append(CheckRecord("entropy-tensor-power-trend",
                           PASS if trend_ok else FAIL,
                           note="n-th-root bound nonincreasing, n = 1..3, "
                                "10 fixed instances"))
    return out


def _random_cover(rng, d):
    subsets = []
    while not subsets or any(all(j not in I for I in subsets)
                             for j in range(1, d + 1)):
        subsets = [tuple(sorted(rng.sample(range(1, d + 1),
                                           rng.randrange(1, d))))
                   for _ in range(rng.randrange(2, d + 3))]
    raw = [Fraction(rng.randrange(1, 100), 100) for _ in subsets]
    cover = [sum((r for r, I in zip(raw, subsets) if j in I), Fraction(0))
             for j in range(1, d + 1)]
    weights = [r / min(cover) for r in raw]
    return subsets, weights


def criterion_shadow(fast=False) -> list[CheckRecord]:
    out = []
    kk_ok = all(kruskal_katona_count(comb(x, 2), 3) == comb(x, 3)
                for x in range(3, 11))
    out.append(CheckRecord("kk-equality-cases", PASS if kk_ok else FAIL,
                           note="count(C(x,2), 3) = C(x,3), x = 3..10"))
    pairs = list(itertools.combinations(range(1, 7), 2))
    max_edges = 4 if fast else 5
    hosts = [combo for n in range(1, max_edges + 1)
             for combo in itertools.combinations(pairs, n)]
    reps = [partial_shadow_check(SimpleHypergraph.from_sets(6, combo), 3, 0)
            for combo in hosts]
    out.extend(CheckRecord(f"shadow-t0-fail-{combo}", FAIL, rep.count, rep.bound)
               for combo, rep in zip(hosts, reps) if not rep.passed)
    out.append(_shadow_summary("shadow-t0-exhaustive", reps,
                               f"all {len(hosts)} 2-uniform hosts, <= 6 "
                               f"vertices, n <= {max_edges}"))
    rng = random.Random(31)
    reps = []
    trials = 50 if fast else 200
    for _ in range(trials):
        nverts = rng.randrange(5, 9)
        pool = list(itertools.combinations(range(1, nverts + 1), 3))
        n = rng.randrange(4, 13)
        host = SimpleHypergraph.from_sets(nverts,
                                          rng.sample(pool, min(n, len(pool))))
        reps.append(partial_shadow_check(host, 3, 1))
    out.append(_shadow_summary("shadow-t1-random", reps,
                               f"{trials} random 3-uniform hosts"))
    agree = True
    for n in (3, 6, 10):
        # the first n colex 2-sets are Kruskal-Katona equality cases at t=0
        reps = []
        for t in (0, 1):
            sets = colex_sets(2 + t, n)
            reps.append(partial_shadow_check(
                SimpleHypergraph.from_sets(max(map(max, sets)), sets), 3, t))
        agree = (agree and all(rep.passed for rep in reps)
                 and reps[0].bound == reps[1].bound)
    out.append(CheckRecord("shadow-bound-t-independent",
                           PASS if agree else FAIL,
                           note="identical Lovasz bound for matched n at t=0,1"))
    return out


def _shadow_summary(name, reps, note) -> CheckRecord:
    """PASS iff every report passed; the slack is the smallest bound - count."""
    return CheckRecord(name, PASS if all(rep.passed for rep in reps) else FAIL,
                       slack=min(rep.bound - rep.count for rep in reps),
                       note=note)


def criterion_vanishing_lemmas(fast=False) -> list[CheckRecord]:
    rng = random.Random(41)
    out = []
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    handicaps = 10 if fast else 50
    n_range = (2, 3, 4) if fast else (2, 3, 4, 5, 6)
    for m in (4, 5):
        _, _, cfg, _ = _generic_config("k3", m)
        nj = len(cfg.points)
        sum_ok = mono_ok = shift_ok = lip_ok = param_ok = True
        lw_worst = math.inf
        for n in n_range:
            for trial in range(handicaps):
                alpha = {r: rng.randrange(-2, 3) for r in range(nj)}
                ls = build_ledger_set(K3, cfg, alpha, n)
                for ledger in ls.ledgers.values():
                    got, want = sum_of_conditions_check(ledger)
                    sum_ok = sum_ok and got == want
                total, need, slack = param_counting_check(ls)
                param_ok = param_ok and slack >= 0
                lw_worst = min(lw_worst, lw_step_worst(ls, w))
                if trial < 3:
                    # monotonicity, shift invariance, and dim-1 Lipschitz
                    shifted = {r: alpha[r] + 5 for r in alpha}
                    ls_s = build_ledger_set(K3, cfg, shifted, n)
                    for fl in ls.ledgers:
                        shift_ok = shift_ok and \
                            ls.ledgers[fl].counts == ls_s.ledgers[fl].counts
                    target = rng.randrange(nj)
                    bumped = dict(alpha)
                    bumped[target] += rng.randrange(1, 3)
                    ls_b = build_ledger_set(K3, cfg, bumped, n)
                    other = {r: rng.randrange(-2, 3) for r in range(nj)}
                    ls_o = build_ledger_set(K3, cfg, other, n)
                    for fl in ls.ledgers:
                        a_counts = ls.ledgers[fl].counts
                        if target in a_counts:
                            mono_ok = mono_ok and \
                                a_counts[target] <= ls_b.ledgers[fl].counts[target]
                        for rank in a_counts:
                            diff = abs(a_counts[rank] -
                                       ls_o.ledgers[fl].counts[rank])
                            bound = sum(
                                abs((alpha[o] - alpha[rank]) -
                                    (other[o] - other[rank]))
                                for o in a_counts)
                            lip_ok = lip_ok and diff <= bound
        out.append(CheckRecord(f"vanishing-sum-of-conditions-m{m}",
                               PASS if sum_ok else FAIL,
                               note="per-flat pivot totals = C(n+k,k), exact"))
        out.append(CheckRecord(f"vanishing-param-counting-m{m}",
                               PASS if param_ok else FAIL,
                               note="sum |G_p| >= C(n+d,d), exact integers"))
        out.append(CheckRecord(f"vanishing-lw-step-m{m}",
                               PASS if lw_worst >= -1e-9 else FAIL,
                               slack=lw_worst))
        out.append(CheckRecord(f"vanishing-mono-shift-lip-m{m}",
                               PASS if (mono_ok and shift_ok and lip_ok)
                               else FAIL,
                               note="monotone, shift-invariant, dim-1 Lipschitz"))
    # bounded domain: swept threshold, then confirmed past it
    _, _, cfg4, _ = _generic_config("k3", 4)
    n = 4
    ls = build_ledger_set(K3, cfg4, None, n)
    flat = next(fl for fl in ls.ledgers if len(ls.ledgers[fl].joints) >= 2)
    target = max(ls.ledgers[flat].joints)
    g = bounded_domain_threshold(K3, cfg4, flat, target, n)
    beyond_ok = True
    for extra in (1, 4):
        alpha = {r: 0 for r in range(len(cfg4.points))}
        alpha[target] = -(g + extra)
        ls2 = build_ledger_set(K3, cfg4, alpha, n)
        beyond_ok = beyond_ok and ls2.count(target, flat) == 0
    out.append(CheckRecord("vanishing-bounded-domain",
                           PASS if beyond_ok else FAIL,
                           note=f"B = 0 for handicap gaps >= {g} (swept)"))
    # dim-2 Lipschitz constant, calibrated and reported (never asserted)
    flats6_pattern, _, cfg6, _ = _generic_config("flats6", 7)
    worst_c = 0.0
    n6 = 3
    for _ in range(4 if fast else 8):
        nj = len(cfg6.points)
        a1 = {r: rng.randrange(-2, 3) for r in range(nj)}
        a2 = {r: rng.randrange(-2, 3) for r in range(nj)}
        ls1 = build_ledger_set(flats6_pattern, cfg6, a1, n6)
        ls2 = build_ledger_set(flats6_pattern, cfg6, a2, n6)
        for fl in ls1.ledgers:
            counts1 = ls1.ledgers[fl].counts
            for rank in counts1:
                diff = abs(counts1[rank] - ls2.ledgers[fl].counts[rank])
                total_shift = sum(
                    abs((a1[o] - a1[rank]) - (a2[o] - a2[rank]))
                    for o in counts1)
                if total_shift:
                    excess = diff - comb(n6, 1) * total_shift
                    worst_c = max(worst_c, excess)  # the n^(k-2) remainder
    out.append(CheckRecord("vanishing-lipschitz-dim2-calibration", INFO,
                           slack=worst_c,
                           note="observed remainder beyond C(n, k-1) term"))
    return out


def criterion_handicap_audit(fast=False) -> list[CheckRecord]:
    _, _, cfg, _ = _generic_config("k3", 4)
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    out = []
    res24 = handicap_iteration(K3, w, cfg, n=24)
    status = PASS if res24.status in ("flat", "cycle") else UNCONVERGED
    out.append(CheckRecord("handicap-n24-terminates", status,
                           slack=res24.max_gap,
                           note=f"status={res24.status}, rounds={res24.rounds}, "
                                f"delta={res24.delta:.4f}, trace attached"))
    audit24 = key_inequality_audit(K3, w, cfg, res24.b, res24.W)
    out.append(CheckRecord("key-audit-n24-cond1",
                           PASS if audit24.cond1_pass else FAIL,
                           slack=audit24.cond1_worst,
                           note="factor 0.8 on condition (1)"))
    out.append(CheckRecord("key-audit-n24-cond2",
                           PASS if audit24.cond2_pass else FAIL,
                           slack=audit24.cond2_worst,
                           note="additive 0.1 on condition (2)"))
    if fast:
        return out
    res48 = handicap_iteration(K3, w, cfg, n=48)
    audit48 = key_inequality_audit(K3, w, cfg, res48.b, res48.W)
    shrink2 = audit48.cond2_worst < audit24.cond2_worst
    shrink_spread = audit48.wprime_spread < audit24.wprime_spread
    out.append(CheckRecord("key-audit-n48-passes",
                           PASS if (audit48.cond1_pass and audit48.cond2_pass)
                           else FAIL))
    out.append(CheckRecord("key-audit-shrink-cond2",
                           PASS if shrink2 else FAIL,
                           audit48.cond2_worst, audit24.cond2_worst,
                           note="worst per-flat slack shrinks at n=48"))
    out.append(CheckRecord("key-audit-shrink-equalization",
                           PASS if shrink_spread else FAIL,
                           audit48.wprime_spread, audit24.wprime_spread,
                           note="W' spread shrinks at n=48"))
    return out


def criterion_strictness_search(fast=False) -> list[CheckRecord]:
    pattern = cone_pattern(4, 1)
    restarts = 40 if fast else 200
    res = search_M(pattern, 12, 6, mode="local", restarts=restarts, seed=0)
    baseline = kruskal_katona_count(12, 4)
    found = res.best_count >= 6
    status = PASS if found else INFO  # stretch: misses never block the suite
    return [CheckRecord("strictness-12-4-1", status, res.best_count,
                        baseline,
                        note=f"local search, {restarts} restarts, seed=0; "
                             f"needs count > {baseline}")]


CRITERIA = [
    ("1-rho-star-exactness", criterion_rho_star),
    ("2-covering-constant", criterion_constant),
    ("3-geometry-combinatorics", criterion_geometry_combinatorics),
    ("4-simple-joints-bound", criterion_simple_bound),
    ("5-multiplicity-bound", criterion_multiplicity),
    ("6-geometric-shearer", criterion_geo_shearer),
    ("7-entropy-inequalities", criterion_entropy_inequalities),
    ("8-shadow-bounds", criterion_shadow),
    ("9-vanishing-lemmas", criterion_vanishing_lemmas),
    ("10-handicap-audit", criterion_handicap_audit),
    ("11-strictness-stretch", criterion_strictness_search),
]


def run_suite(fast=False):
    """All criteria; returns (records, per-criterion summary)."""
    records = []
    summary = []
    for name, fn in CRITERIA:
        recs = fn(fast=fast)
        records.extend(recs)
        ok = all(r.status != FAIL for r in recs)
        summary.append((name, "PASS" if ok else "FAIL", len(recs)))
    return records, summary
