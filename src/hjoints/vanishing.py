"""Derivative-condition ledgers on flats and the handicap balancing dynamic.

For one flat F of dimension k, polynomials on F of degree at most n form a
space of dimension C(n+k, k); the functionals "order-gamma Hasse derivative
at joint p in the chart A" span its dual when gamma ranges over |gamma| <= n
at a single point. Processing joints on F in *priority order* -- pairs
(p, r) sorted by r - handicap(p), ties by a fixed preassigned joint order --
and within a pair the exponents |gamma| = r in decreasing lexicographic
order, Gaussian elimination assigns each pair a pivot count. The ledger
records those counts (their per-flat total is exactly C(n+k, k)), and, for
joints whose stored witness chart produced the rows, the exponent sets of
the pivots.

On a line (k = 1) with chart x -> u + c x, the order-r functional is c^r
D^r at u, and priority order gives each joint a prefix 0..m_p - 1 of
orders. By Hermite interpolation such conditions at distinct points are
independent over any field up to n + 1 of them, so the pivots are the first
n + 1 pairs, read off without elimination when the shifts u are distinct
and no scale c is zero. Other inputs, and k >= 2, run the elimination,
which tests keep as the closed form's oracle.

Ledger sets over one configuration share a plan, kept on the configuration
per (pattern, n). The plan holds each flat's joint charts, which do not
depend on alpha. Each chart caches its pullback table per n, and the
chart-independent part of a table (monomials, transitions, exponents per
degree) is shared per (k, n), so a plan builds each table once. The plan also
memoises eliminated ledgers on (flat, alpha of the flat's joints minus
their minimum): the priority order (r - alpha, rank) does not move under
that shift, and a hit is re-stamped with the call's context, so its digest
is that of a fresh build. Closed-form line ledgers are not memoised: they
cost less to read off than to keep, and keeping them would hold every
handicap round's ledgers. What a plan keeps lives as long as its
configuration: on the 2-flats pattern over K7 at n=4, 105 tables and the
ledgers of every distinct relative handicap seen, about 0.6 MiB of peak
memory in the benchmark's joints workload.

Combining per-edge exponent sets at a joint p: a d-variate exponent gamma
with |gamma| <= n is *admissible* when every edge projection (coordinates
outside the edge, ascending) lands in that edge's recorded set. Admissible
sets satisfy two counting laws checked here exactly: their total over all
joints is at least C(n+d, d) (the imposed vanishing conditions kill every
polynomial of degree <= n), and per joint a Loomis-Whitney product bound
relates |admissible| to the per-edge counts.

The handicap iteration mimics the equalization argument: repeatedly build
ledgers, score each joint by W'_p = min over witness tuples of
prod_e (B_{p,F}/n^dim F)^(w(e)/(|w|-1)) / W(p), sort, and decrement the
handicap of the block above the first gap exceeding delta. Termination by
delta-flatness, cycle detection, or a round cap are all legitimate,
reported outcomes.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import (ChartMissing, DegreeOverflow, InconsistentLedgers,
                     NotConnected)
from .hypergraph import Hypergraph, WeightFunction
from .logspace import log2_sum_sign


# ---------------------------------------------------------------------------
# monomials
# ---------------------------------------------------------------------------

def monomials_upto(k: int, n: int) -> list[tuple[int, ...]]:
    """All exponent vectors in k variables of total degree <= n, graded order."""
    out = []
    for total in range(n + 1):
        out.extend(_compositions(total, k))
    return out


def _compositions(total: int, k: int) -> list[tuple[int, ...]]:
    if k == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            out.append((first,) + rest)
    return out


def monomials_of_degree(k: int, r: int):
    """All exponent vectors in k variables of total degree r, decreasing lex."""
    return sorted(_compositions(r, k), reverse=True)


# ---------------------------------------------------------------------------
# charts and pullback tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Affine self-map of chart space: x -> u + sum_t x_t * col_t."""

    field: object
    k: int
    cols: tuple          # k columns, each a length-k tuple
    shift: tuple         # length-k
    _tables: dict = dc_field(default_factory=dict, init=False, repr=False,
                             compare=False)  # n -> PullbackTable

    @classmethod
    def translation(cls, field, shift) -> "Chart":
        k = len(shift)
        cols = tuple(tuple(field.one if i == j else field.zero
                           for i in range(k)) for j in range(k))
        return cls(field, k, cols, tuple(shift))

    def linear_form(self, coord: int):
        """(constant, per-variable coefficients) of output coordinate `coord`."""
        return self.shift[coord], tuple(col[coord] for col in self.cols)

    def table(self, n: int) -> "PullbackTable":
        """The chart's pullback table at degree cap n, built on first use."""
        table = self._tables.get(n)
        if table is None:
            table = self._tables[n] = PullbackTable(self, n)
        return table


class _Shape(NamedTuple):
    """The chart-independent part of a pullback table in k variables."""

    monomials: list          # |beta| <= n, graded order
    index: dict              # monomial -> position
    transition: tuple        # [t][i]: index of monomial_i + e_t, -1 past n
    by_degree: tuple         # [r]: the exponents of degree r, decreasing lex


@functools.cache
def _table_shape(k: int, n: int) -> _Shape:
    monomials = monomials_upto(k, n)
    index = {m: i for i, m in enumerate(monomials)}
    transition = tuple(
        tuple(index.get(m[:t] + (m[t] + 1,) + m[t + 1:], -1)
              for m in monomials)
        for t in range(k))
    by_degree = tuple(tuple(monomials_of_degree(k, r)) for r in range(n + 1))
    return _Shape(monomials, index, transition, by_degree)


class PullbackTable:
    """Coefficient vectors of (y^beta) composed with a chart, for |beta| <= n."""

    def __init__(self, chart: Chart, n: int):
        self.chart = chart
        self.n = n
        self.k = chart.k
        field = chart.field
        self.monomials, self.index, self.transition, _ = _table_shape(self.k, n)
        dim = len(self.monomials)
        self.columns: list[list] = [None] * dim
        const = [field.zero] * dim
        const[self.index[(0,) * self.k]] = field.one
        self.columns[self.index[(0,) * self.k]] = const
        for bi, beta in enumerate(self.monomials):
            if self.columns[bi] is not None:
                continue
            t = next(j for j, b in enumerate(beta) if b > 0)
            down = list(beta)
            down[t] -= 1
            prev = self.columns[self.index[tuple(down)]]
            self.columns[bi] = self._mul_linear(prev, t)

    def _mul_linear(self, vec, coord: int):
        field = self.chart.field
        c0, coeffs = self.chart.linear_form(coord)
        out = [field.zero] * len(vec)
        use_const = not field.is_zero(c0)
        for i, v in enumerate(vec):
            if field.is_zero(v):
                continue
            if use_const:
                out[i] = field.add(out[i], field.mul(v, c0))
            for t in range(self.k):
                ct = coeffs[t]
                if field.is_zero(ct):
                    continue
                j = self.transition[t][i]
                if j >= 0:
                    out[j] = field.add(out[j], field.mul(v, ct))
        return out

    def row(self, gamma) -> list:
        """The functional h -> coeff_gamma(h o chart) over the monomial basis."""
        gamma = tuple(gamma)
        if sum(gamma) > self.n:
            raise DegreeOverflow(sum(gamma), self.n)
        gi = self.index[gamma]
        return [col[gi] for col in self.columns]


# ---------------------------------------------------------------------------
# per-flat ledgers
# ---------------------------------------------------------------------------

class _Echelon:
    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        self.rows: list[tuple[int, list]] = []  # (pivot column, reduced row)

    def insert(self, row) -> bool:
        field = self.field
        row = list(row)
        for pc, prow in self.rows:
            f = row[pc]
            if not field.is_zero(f):
                row = field.sub_scaled_row(row, f, prow)
        pivot = next((i for i, v in enumerate(row) if not field.is_zero(v)), None)
        if pivot is None:
            return False
        self.rows.append((pivot, field.scale_row(field.inv(row[pivot]), row)))
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


@dataclass
class FlatLedger:
    """Elimination outcome for one flat under one handicap and degree cap."""

    flat: object
    k: int
    n: int
    joints: tuple[int, ...]            # global preassigned ranks on this flat
    counts: dict                       # rank -> B_{p,F}
    per_order: dict                    # rank -> {r: B^r}
    exponents: dict                    # rank -> tuple of recorded gammas
    chart_kind: dict                   # rank -> "witness" | "reference"
    context: tuple                     # shared (n, alpha fingerprint, field)

    def digest(self) -> str:
        payload = repr((self.flat.base, self.flat.dirs, self.k, self.n,
                        sorted(self.counts.items()),
                        sorted((r, sorted(v.items())) for r, v in
                               self.per_order.items()),
                        sorted((r, tuple(g)) for r, g in self.exponents.items()),
                        self.context))
        return hashlib.sha256(payload.encode()).hexdigest()


def _hermite_line(field, k: int, joint_charts) -> bool:
    """A line whose charts have distinct shifts and nonzero scales."""
    shifts = {chart.shift for _, chart, _ in joint_charts}
    return k == 1 and len(shifts) == len(joint_charts) and not any(
        field.is_zero(chart.cols[0][0]) for _, chart, _ in joint_charts)


def _eliminate(field, k: int, n: int, joint_charts, pairs):
    """Yield (r, rank, gamma) for every pivot of the priority-order elimination."""
    dim = comb(n + k, k)
    tables = {rank: chart.table(n) for rank, chart, _ in joint_charts}
    by_degree = _table_shape(k, n).by_degree
    store = _Echelon(field, dim)
    for r, rank in pairs:
        table = tables[rank]
        for gamma in by_degree[r]:
            if store.insert(table.row(gamma)):
                yield r, rank, gamma
            if store.rank == dim:
                return


def build_flat_ledger(flat, joint_charts, alpha, n: int, *, context=None
                      ) -> FlatLedger:
    """Assign the flat's C(n+k, k) conditions to its joints in priority order.

    joint_charts: list of (global_rank, Chart, kind). Pairs (rank, r) are
    processed by (r - alpha[rank], rank); within a pair, exponents of degree
    r in decreasing lex order. Stops once the dual space is exhausted. Lines
    take the Hermite closed form of the module docstring when it applies.
    """
    field = flat.field
    k = flat.dim
    kinds = {rank: kind for rank, _, kind in joint_charts}
    pairs = sorted(((r, rank) for rank, _, _ in joint_charts
                    for r in range(n + 1)),
                   key=lambda pr: (pr[0] - alpha[pr[1]], pr[1]))
    if _hermite_line(field, k, joint_charts):
        pivots = ((r, rank, (r,)) for r, rank in pairs[:n + 1])
    else:
        pivots = _eliminate(field, k, n, joint_charts, pairs)
    counts = {rank: 0 for rank, _, _ in joint_charts}
    per_order = {rank: {} for rank, _, _ in joint_charts}
    exponents = {rank: [] for rank, _, _ in joint_charts}
    for r, rank, gamma in pivots:
        counts[rank] += 1
        per_order[rank][r] = per_order[rank].get(r, 0) + 1
        exponents[rank].append(gamma)
    if context is None:
        context = (n, tuple(sorted(alpha.items())), field.key())
    return FlatLedger(flat, k, n, tuple(r for r, _, _ in joint_charts),
                      counts, per_order,
                      {rank: tuple(g) for rank, g in exponents.items()},
                      kinds, context)


# ---------------------------------------------------------------------------
# configuration-level ledger sets
# ---------------------------------------------------------------------------

@dataclass
class ChosenTuple:
    assignment: tuple[int, ...]
    witness: object  # geometry.Witness


@dataclass
class LedgerSet:
    h: Hypergraph
    config: object
    n: int
    alpha: dict                      # rank -> int
    rank_order: tuple[int, ...]      # config point index per rank
    chosen: dict                     # rank -> ChosenTuple
    ledgers: dict                    # canonical Flat -> FlatLedger
    flat_by_edge: dict               # (rank, edge index) -> canonical Flat
    context: tuple

    def count(self, rank: int, flat) -> int:
        return self.ledgers[flat].counts.get(rank, 0)


def preassigned_order(config) -> tuple[int, ...]:
    """Point indices sorted by canonical point encoding."""
    return tuple(sorted(range(len(config.points)),
                        key=lambda i: config.points[i]))


def default_chosen(h: Hypergraph, config) -> dict:
    """First enumerated witness tuple per joint, keyed by preassigned rank."""
    order = preassigned_order(config)
    chosen = {}
    for rank, idx in enumerate(order):
        tuples = config.tuples_at(h, idx)
        if not tuples:
            raise ChartMissing(f"stored point {idx} admits no witness tuple")
        wt = tuples[0]
        chosen[rank] = ChosenTuple(wt.assignment, wt.witness)
    return chosen


class _LedgerPlan:
    """The part of a ledger set that does not depend on alpha: the flat of
    every (joint, edge) and the charts of every flat carrying a joint, with
    their pullback tables cached on the charts, plus a memo of eliminated
    ledgers keyed on (flat, alpha of its joints minus their minimum). The
    configuration is passed to each call, not kept."""

    def __init__(self, h: Hypergraph, config, chosen, n: int):
        self.h, self.chosen, self.n = h, chosen, n
        self.order = order = preassigned_order(config)
        field = config.field
        self.flat_by_edge = flat_by_edge = {}
        for rank in range(len(order)):
            for i in range(len(h.edges)):
                flat_by_edge[(rank, i)] = config.flat_of(
                    h.colors[i], chosen[rank].assignment[i])
        self.charts = []  # (flat, joint charts, ledger memoised)
        for fl in dict.fromkeys(fl for cls in config.classes for fl in cls):
            joint_charts = []
            for rank, idx in enumerate(order):
                point = config.points[idx]
                if not fl.contains(point):
                    continue
                chart = Chart.translation(field, fl.coords_of_point(point))
                kind = "reference"
                for i, e in enumerate(h.edges):
                    if flat_by_edge[(rank, i)] == fl:
                        cols = tuple(
                            fl.coords_of_direction(
                                chosen[rank].witness.columns[j - 1])
                            for j in range(1, h.d + 1) if j not in e)
                        chart = Chart(field, fl.dim, cols, chart.shift)
                        kind = "witness"
                        break
                joint_charts.append((rank, chart, kind))
            if joint_charts:
                self.charts.append((fl, joint_charts, not _hermite_line(
                    field, fl.dim, joint_charts)))
        self.memo: dict = {}

    def ledger_set(self, config, alpha) -> LedgerSet:
        n, order = self.n, self.order
        alpha = {r: int(alpha[r]) for r in range(len(order))}
        context = (n, tuple(sorted(alpha.items())), config.field.key())
        ledgers = {}
        for fl, jc, memoised in self.charts:
            if not memoised:
                ledgers[fl] = build_flat_ledger(fl, jc, alpha, n,
                                                context=context)
                continue
            low = min(alpha[rank] for rank, _, _ in jc)
            key = (fl, tuple(alpha[rank] - low for rank, _, _ in jc))
            if key in self.memo:
                ledgers[fl] = dataclasses.replace(self.memo[key],
                                                  context=context)
            else:
                ledgers[fl] = self.memo[key] = build_flat_ledger(
                    fl, jc, alpha, n, context=context)
        return LedgerSet(self.h, config, n, alpha, order, self.chosen,
                         ledgers, self.flat_by_edge, context)


def _ledger_plan(h: Hypergraph, config, n: int) -> _LedgerPlan:
    """The configuration's plan for (h, n), built on first use."""
    key = (h, n)
    plan = config._ledger_plans.get(key)
    if plan is None:
        plan = config._ledger_plans[key] = _LedgerPlan(
            h, config, default_chosen(h, config), n)
    return plan


def build_ledger_set(h: Hypergraph, config, alpha=None, n: int = 4
                     ) -> LedgerSet:
    """Ledgers for every configuration flat carrying at least one joint."""
    if n < 0:
        raise ValueError(f"degree n = {n} is negative")
    if alpha is None:
        alpha = dict.fromkeys(range(len(config.points)), 0)
    return _ledger_plan(h, config, n).ledger_set(config, alpha)


# ---------------------------------------------------------------------------
# admissible exponent sets and the two counting laws
# ---------------------------------------------------------------------------

def assemble_point_exponents(h: Hypergraph, per_edge_sets, n: int
                             ) -> list[tuple[int, ...]]:
    """All |gamma| <= n whose projections lie in every per-edge set."""
    # per edge: the coordinates outside it (ascending) and its recorded set
    checks = [([j - 1 for j in range(1, h.d + 1) if j not in e],
               set(map(tuple, per_edge_sets[i])))
              for i, e in enumerate(h.edges)]
    return [gamma for gamma in monomials_upto(h.d, n)
            if all(tuple([gamma[j] for j in outside]) in recorded
                   for outside, recorded in checks)]


def point_exponents(ls: LedgerSet, rank: int) -> list[tuple[int, ...]]:
    """Admissible exponents of one joint from its chosen-tuple ledgers."""
    h = ls.h
    per_edge = []
    for i in range(len(h.edges)):
        fl = ls.flat_by_edge[(rank, i)]
        ledger = ls.ledgers[fl]
        if ledger.chart_kind.get(rank) != "witness":
            raise ChartMissing(
                f"joint {rank} has no witness chart on its edge-{i} flat")
        per_edge.append(ledger.exponents[rank])
    return assemble_point_exponents(h, per_edge, ls.n)


def sum_of_conditions_check(ledger: FlatLedger) -> tuple[int, int]:
    """(sum of counts, C(n+k,k)); equal for every completed ledger."""
    return sum(ledger.counts.values()), comb(ledger.n + ledger.k, ledger.k)


def param_counting_check(ls: LedgerSet) -> tuple[int, int, int]:
    """(sum |admissible sets|, C(n+d,d), slack >= 0), all exact integers."""
    contexts = {led.context for led in ls.ledgers.values()}
    if len(contexts) > 1:
        raise InconsistentLedgers("ledgers built under different contexts")
    total = 0
    for rank in range(len(ls.rank_order)):
        total += len(point_exponents(ls, rank))
    need = comb(ls.n + ls.h.d, ls.h.d)
    return total, need, total - need


def lw_step_check(h: Hypergraph, w: WeightFunction, g_point_size: int,
                  g_edge_sizes, n: int) -> float:
    """log-space slack of |G_p|/(n+1)^d <= prod_e (|G_e|/(n+1)^(d-|e|))^sigma(e)."""
    w.require_covering()
    denom = float(w.total - 1)
    if g_point_size == 0:
        return math.inf
    lhs = math.log2(g_point_size) - h.d * math.log2(n + 1)
    rhs = 0.0
    for i, e in enumerate(h.edges):
        sigma = float(w.weights[i]) / denom
        if sigma == 0.0:
            continue
        ge = g_edge_sizes[i]
        if ge == 0:
            return -math.inf
        rhs += sigma * (math.log2(ge) - (h.d - len(e)) * math.log2(n + 1))
    return rhs - lhs


def lw_step_worst(ls: LedgerSet, w: WeightFunction) -> float:
    """Smallest lw_step_check slack over the joints of a ledger set, with
    |G_p| from point_exponents and |G_e| from the chosen-tuple ledgers."""
    worst = math.inf
    for rank in range(len(ls.rank_order)):
        g_p = len(point_exponents(ls, rank))
        g_e = [ls.ledgers[ls.flat_by_edge[(rank, i)]].counts[rank]
               for i in range(len(ls.h.edges))]
        worst = min(worst, lw_step_check(ls.h, w, g_p, g_e, ls.n))
    return worst


# ---------------------------------------------------------------------------
# handicap dynamic and the certificate audit
# ---------------------------------------------------------------------------

def used_flat_connectivity(h: Hypergraph, config) -> bool:
    """Union-find over joints sharing a flat used by some witness tuple."""
    order = preassigned_order(config)
    parent = list(range(len(order)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    by_flat: dict = {}
    for rank, idx in enumerate(order):
        for wt in config.tuples_at(h, idx):
            for i in range(len(h.edges)):
                fl = config.flat_of(h.colors[i], wt.assignment[i])
                if fl in by_flat:
                    ra, rb = find(by_flat[fl]), find(rank)
                    parent[ra] = rb
                else:
                    by_flat[fl] = rank
    roots = {find(r) for r in range(len(order))}
    return len(roots) <= 1


@dataclass
class HandicapResult:
    status: str                     # "flat" | "cycle" | "max-rounds"
    rounds: int
    alpha: dict
    b: dict                         # (rank, canonical Flat) -> Fraction
    lam: float
    W: dict                         # rank -> float
    wprime: dict                    # rank -> float at the final state
    spread: float                   # max W' - min W'
    max_gap: float                  # largest adjacent sorted-W' gap
    delta: float
    trace: list
    ledger_set: LedgerSet


def _score_ranks(ls: LedgerSet, h, w, W, sigma):
    """Per rank: (W', S, min-product) from the current ledgers."""
    n = ls.n
    out = {}
    for rank, idx in enumerate(ls.rank_order):
        tuples = ls.config.tuples_at(h, idx)
        best = None
        best_s = None
        for wt in tuples:
            prod = 1.0
            ssum = 0
            for i in range(len(h.edges)):
                fl = ls.config.flat_of(h.colors[i], wt.assignment[i])
                bcount = ls.count(rank, fl)
                ssum += bcount
                if sigma[i] == 0.0:
                    continue
                if bcount == 0:
                    prod = 0.0
                else:
                    prod *= (bcount / n ** fl.dim) ** sigma[i]
            if best is None or prod < best or (prod == best and ssum < best_s):
                best, best_s = prod, ssum
        out[rank] = (best / W[rank], best_s, best)
    return out


def handicap_iteration(h: Hypergraph, w: WeightFunction, config, *,
                       W=None, n: int = 24, c0: float = 1.0,
                       delta: float | None = None, max_rounds: int = 200
                       ) -> HandicapResult:
    """Decrement-the-leaders dynamic driving the W' scores delta-flat."""
    if not config.points:
        raise ValueError("the configuration has 0 points to balance")
    if n < 1 or (n < 2 and delta is None):
        raise ValueError(f"degree n = {n} is out of range: need n >= 1, "
                         "and n >= 2 for the default delta = c0 / ln(n)")
    if max_rounds < 0:
        raise ValueError(f"max_rounds = {max_rounds} is negative")
    w.require_covering()
    if not used_flat_connectivity(h, config):
        raise NotConnected("configuration is not connected through used flats")
    order = preassigned_order(config)
    nj = len(order)
    if W is None:
        W = {rank: 1.0 / (nj * math.factorial(h.d)) for rank in range(nj)}
    else:
        W = {rank: float(W[rank]) for rank in range(nj)}
    if any(v <= 0 for v in W.values()):
        raise ValueError("W must be strictly positive")
    if delta is None:
        delta = c0 / math.log(n)
    denom = float(w.total - 1)
    sigma = [float(we) / denom for we in w.weights]
    plan = _ledger_plan(h, config, n)
    alpha = {rank: 0 for rank in range(nj)}
    seen_states: OrderedDict = OrderedDict()  # ring of the last 1024 states
    trace = []
    status = "max-rounds"
    rounds = 0
    ls = None
    scores = None
    for rounds in range(max_rounds + 1):
        ls = plan.ledger_set(config, alpha)
        scores = _score_ranks(ls, h, w, W, sigma)
        ranked = sorted(range(nj), key=lambda r: (-scores[r][0], -scores[r][1]))
        wps = [scores[r][0] for r in ranked]
        gaps = [wps[i] - wps[i + 1] for i in range(nj - 1)]
        max_gap = max(gaps, default=0.0)
        cut = next((i for i, g in enumerate(gaps) if g > delta), None)
        trace.append({"round": rounds,
                      "alpha": dict(alpha),
                      "sorted_wprime": list(wps),
                      "max_gap": max_gap,
                      "decremented": (ranked[:cut + 1] if cut is not None
                                      else [])})
        if cut is None:
            status = "flat"
            break
        shift = min(alpha.values())
        state = tuple(alpha[r] - shift for r in range(nj))
        if state in seen_states:
            status = "cycle"
            break
        seen_states[state] = rounds
        if len(seen_states) > 1024:
            seen_states.popitem(last=False)
        for r in ranked[:cut + 1]:
            alpha[r] -= 1
    b = {}
    for fl, ledger in ls.ledgers.items():
        for rank, count in ledger.counts.items():
            b[(rank, fl)] = Fraction(count, n ** fl.dim)
    wprime = {rank: scores[rank][0] for rank in range(nj)}
    lam = math.fsum(wprime.values()) / nj
    spread = max(wprime.values()) - min(wprime.values())
    final_gap = trace[-1]["max_gap"]
    # ls.alpha: at the round cap the last decrement has already moved alpha on
    return HandicapResult(status, rounds, dict(ls.alpha), b, lam, W, wprime,
                          spread, final_gap, delta, trace, ls)


@dataclass
class AuditReport:
    cond1_pass: bool        # decided exactly, on the rational b and W values
    cond2_pass: bool
    cond1_worst: float      # max over (p, tuple) of factor*W(p) - product
    cond1_margin: float     # min over (p, tuple) of product - W(p)
    cond2_worst: float      # max over flats of sum(b) - 1/(dim F)!
    wprime_spread: float
    lam: float
    details: dict


def key_inequality_audit(h: Hypergraph, w: WeightFunction, config, b, W, *,
                         cond1_factor: float = 0.8, cond2_tol: float = 0.1
                         ) -> AuditReport:
    """Check a certificate (b values keyed by (rank, flat), target weights W)
    against both sides of the target inequality.

    Condition (1), product >= factor * W(p) for every witness tuple with
    product = (prod_i b_i^w_i)^(1/(|w| - 1)), is decided exactly as the sign
    of sum_i (w_i / (|w| - 1)) log2 b_i - log2(factor * W(p)), on the
    Fraction b and the exact binary values of the floats; the float
    products only feed the reported slacks."""
    exponent = 1.0 / float(w.total - 1)
    root = 1 / (w.total - 1)
    exps = [we * root for we in w.weights]  # of b_i in log2(product)
    order = preassigned_order(config)
    cond1_pass = True
    cond1_worst = -math.inf
    cond1_margin = math.inf
    wprime = {}
    for rank, idx in enumerate(order):
        tuples = config.tuples_at(h, idx)
        target = Fraction(cond1_factor) * Fraction(W[rank])
        best = math.inf
        for wt in tuples:
            prod = 1.0
            logs = []  # (b, exponent) pairs; None once a weighted b is zero
            for i in range(len(h.edges)):
                fl = config.flat_of(h.colors[i], wt.assignment[i])
                bval = b.get((rank, fl), 0)
                if w.weights[i] == 0:
                    continue
                prod *= float(bval) ** float(w.weights[i])
                if not bval:
                    logs = None
                elif logs is not None:
                    logs.append((bval, exps[i]))
            prod **= exponent
            best = min(best, prod)
            cond1_worst = max(cond1_worst, cond1_factor * W[rank] - prod)
            cond1_margin = min(cond1_margin, prod - W[rank])
            cond1_pass = cond1_pass and (target <= 0 or (
                logs is not None
                and log2_sum_sign([*logs, (target, -1)]) >= 0))
        wprime[rank] = best / W[rank]
    by_flat: dict = {}
    for (rank, fl), val in b.items():
        by_flat.setdefault(fl, []).append(Fraction(val))
    cond2_worst = -math.inf
    cond2_pass = True
    for fl, vals in by_flat.items():
        cond2_worst = max(cond2_worst, math.fsum(map(float, vals))
                          - 1.0 / math.factorial(fl.dim))
        excess = sum(vals) - Fraction(1, math.factorial(fl.dim))
        cond2_pass = cond2_pass and excess <= cond2_tol  # exact vs a float
    spread = max(wprime.values()) - min(wprime.values())
    lam = math.fsum(wprime.values()) / len(wprime)
    return AuditReport(cond1_pass, cond2_pass,
                       cond1_worst, cond1_margin, cond2_worst, spread, lam,
                       {"wprime": wprime})


def bounded_domain_threshold(h: Hypergraph, config, flat, target_rank: int,
                             n: int, *, max_gap: int | None = None) -> int:
    """Smallest handicap gap g with B_{p,F}(alpha_p = -g, n) = 0, by sweep."""
    if max_gap is None:
        max_gap = 2 * n + 4
    nj = len(preassigned_order(config))
    plan = _ledger_plan(h, config, n)
    for g in range(max_gap + 1):
        alpha = {r: 0 for r in range(nj)}
        alpha[target_rank] = -g
        ls = plan.ledger_set(config, alpha)
        if ls.count(target_rank, flat) == 0:
            return g
    raise RuntimeError(f"no vanishing gap found up to {max_gap}")
