"""The two counting laws read off a ledger set's admissible exponents.

Combining per-edge exponent sets at a joint p: a d-variate exponent gamma
with |gamma| <= n is *admissible* when every edge projection (coordinates
outside the edge, ascending) lands in that edge's recorded set, the
exponents its chosen-tuple ledger records for p. The counting laws need
only how many there are, |G_p|, and that is counted, never listed, from
per-degree pivot counts: pair (p, r) records exponents of degree r only, as
many as its rank increment. Edges whose outside coordinates no other edge
leaves out combine through those counts alone, edges that share outside
coordinates join on their values there, and c coordinates in every edge
fill the degree n - s left in C(n - s + c, c) ways. So param_counting_check
reads no exponent set on the K3 and 2-flats patterns, whose outside
coordinates are pairwise disjoint. Two counting laws are checked exactly:
the total over all joints is at least C(n+d, d) (the imposed vanishing
conditions kill every polynomial of degree <= n), and per joint a
Loomis-Whitney product bound relates |admissible| to the per-edge counts.
"""

from __future__ import annotations

import math
from collections import Counter
from math import comb

from .errors import InconsistentLedgers
from .hypergraph import Hypergraph, WeightFunction
from .logspace import log2_sum_sign
from .vanishing import FlatLedger, LedgerSet


def count_assembled_exponents(h: Hypergraph, recorded, degrees, n: int
                              ) -> int:
    """How many |gamma| <= n have every edge projection in the edge's
    recorded set, recorded(i) for edge i (the module docstring's admissible
    exponents), counted, not listed: a sum over the edges in order, keyed
    by the values at the outside coordinates a later edge reads and the
    degree so far.
    degrees(i) is edge i's recorded count at each degree 0..n; an edge
    whose outside coordinates no other edge leaves out enters through it
    alone, and recorded(i) is read only for the other edges. The c
    coordinates in every edge fill the degree left, n - s, in
    C(n - s + c, c) ways."""
    outside = [[j for j in range(h.d) if j + 1 not in e] for e in h.edges]
    left_out = Counter(j for coords in outside for j in coords)
    states = {((), 0): 1}  # (key, degree) -> partial exponents
    for i, coords in enumerate(outside):
        done = {j for before in outside[:i] for j in before}
        later = {j for after in outside[i + 1:] for j in after}
        if all(left_out[j] == 1 for j in coords):
            rows = [((), t, c) for t, c in enumerate(degrees(i)) if c]
        else:
            rows = [(tuple(zip(coords, g)),
                     sum(v for j, v in zip(coords, g) if j not in done), 1)
                    for g in set(map(tuple, recorded(i)))]
        grown = Counter()
        for (key, s), m in states.items():
            for at, t, c in rows:
                values = dict(key)
                if s + t <= n and all(values.setdefault(j, v) == v
                                      for j, v in at):
                    grown[tuple([(j, v) for j, v in sorted(values.items())
                                 if j in later]), s + t] += m * c
        states = grown
    c = h.d - len(left_out)
    return sum(m * comb(n - s + c, c) for (_, s), m in states.items())


def count_point_exponents(ls: LedgerSet, rank: int) -> int:
    """|G_p|, the admissible exponents of one joint, counted by
    count_assembled_exponents from its chosen-tuple ledgers."""
    ledgers = [ls.ledgers[fl] for fl in ls.chosen[rank].flats]
    return count_assembled_exponents(
        ls.h, lambda i: ledgers[i].exponents[rank],
        lambda i: ledgers[i].degree_counts(rank), ls.n)


def sum_of_conditions_check(ledger: FlatLedger) -> tuple[int, int]:
    """(sum of counts, C(n+k,k)); equal for every completed ledger."""
    k = ledger.flat.dim
    return sum(ledger.counts.values()), comb(ledger.n + k, k)


def param_counting_check(ls: LedgerSet) -> tuple[int, int, int]:
    """(sum |admissible sets|, C(n+d,d), slack >= 0), all exact integers,
    each |admissible set| counted by count_point_exponents."""
    if len({led.context for led in ls.ledgers.values()}) > 1:
        raise InconsistentLedgers("ledgers built under different contexts")
    total = sum(count_point_exponents(ls, rank)
                for rank in range(len(ls.rank_order)))
    need = comb(ls.n + ls.h.d, ls.h.d)
    return total, need, total - need


def _edge_exponents(h: Hypergraph, w: WeightFunction) -> list:
    """Per edge with sigma(e) = w(e) / (|w| - 1) nonzero as a float: (edge
    index, float sigma, d - |e|, exact sigma, exact -sigma (d - |e|)), the
    exponents of the LW step's terms, which depend on the weights alone."""
    w.require_covering()
    denom = float(w.total - 1)
    out = []
    for i, e in enumerate(h.edges):
        sigma = float(w.weights[i]) / denom
        if sigma != 0.0:
            exact = w.weights[i] / (w.total - 1)
            out.append((i, sigma, h.d - len(e), exact,
                        -exact * (h.d - len(e))))
    return out


def _lw_step(d: int, edges, g_point_size: int, g_edge_sizes, n: int
             ) -> tuple[float, bool]:
    """lw_step_check on the edge exponents of _edge_exponents."""
    if g_point_size == 0:
        return math.inf, True
    lhs = math.log2(g_point_size) - d * math.log2(n + 1)
    terms = [(g_point_size, -1), (n + 1, d)]
    rhs = 0.0
    for i, sigma, outside, exact, scale in edges:
        ge = g_edge_sizes[i]
        if ge == 0:
            return -math.inf, False
        rhs += sigma * (math.log2(ge) - outside * math.log2(n + 1))
        terms += [(ge, exact), (n + 1, scale)]
    return rhs - lhs, log2_sum_sign(terms) >= 0


def lw_step_check(h: Hypergraph, w: WeightFunction, g_point_size: int,
                  g_edge_sizes, n: int) -> tuple[float, bool]:
    """(log-space slack, whether it holds) of |G_p|/(n+1)^d <=
    prod_e (|G_e|/(n+1)^(d-|e|))^sigma(e). Whether it holds is the exact
    sign of the slack, by log2_sum_sign on the integers and the rational
    sigma(e) = w(e) / (|w| - 1); the float slack is only reported."""
    edges = _edge_exponents(h, w)
    return _lw_step(h.d, edges, g_point_size, g_edge_sizes, n)


def lw_step_worst(ls: LedgerSet, w: WeightFunction) -> tuple[float, bool]:
    """(smallest lw_step_check slack, whether the step holds at every
    joint) over the joints of a ledger set, with |G_p| from
    count_point_exponents and |G_e| from the chosen-tuple ledgers; the
    edge exponents are made once for the set."""
    edges = _edge_exponents(ls.h, w)
    steps = [_lw_step(ls.h.d, edges, count_point_exponents(ls, rank),
                      [ls.ledgers[fl].counts[rank]
                       for fl in ls.chosen[rank].flats], ls.n)
             for rank in range(len(ls.rank_order))]
    return (min([slack for slack, _ in steps], default=math.inf),
            all(holds for _, holds in steps))
