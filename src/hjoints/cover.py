"""Fractional edge covers by exact rational simplex.

The primal program for a hypergraph H = ([d], E) is

    min sum_e w(e)   s.t.   sum_{e ∋ j} w(e) >= 1  (j = 1..d),  w >= 0,

solved directly in standard equality form (surplus variables, two phases,
artificials in phase one). Bland's anti-cycling rule is used throughout, so
degenerate instances terminate and the returned basic solution is a
deterministic function of the edge order. The dual

    max sum_j y(j)   s.t.   sum_{j in e} y(j) <= 1,  y >= 0

starts feasible at y = 0 and is solved separately; exact primal = dual
equality is the optimality audit.

All tableau arithmetic is over Fraction. Instances are tiny (d <= 64,
a few hundred edges), so a dense tableau is the right tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import HJointsError, IsolatedVertex
from .hypergraph import Hypergraph, WeightFunction

ZERO = Fraction(0)
ONE = Fraction(1)


def _run_bland(A, b, c, basis):
    """Primal simplex with Bland's rule on a feasible identity-basis tableau.

    Mutates A, b, basis in place; returns when optimal. c is the full cost
    vector; reduced costs are maintained incrementally.
    """
    m = len(A)
    n = len(c)
    red = list(c)
    for i in range(m):
        cb = c[basis[i]]
        if cb != 0:
            for j in range(n):
                if A[i][j] != 0:
                    red[j] -= cb * A[i][j]
    while True:
        enter = None
        for j in range(n):
            if red[j] < 0:
                enter = j
                break
        if enter is None:
            return
        leave = None
        best_ratio = None
        for i in range(m):
            a = A[i][enter]
            if a > 0:
                ratio = b[i] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leave])):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise HJointsError("LP unbounded; covering programs are always bounded")
        _pivot(A, b, red, basis, leave, enter)


def _pivot(A, b, red, basis, r, e):
    piv = A[r][e]
    inv = ONE / piv
    A[r] = [v * inv for v in A[r]]
    b[r] = b[r] * inv
    row = A[r]
    for i in range(len(A)):
        if i != r and A[i][e] != 0:
            f = A[i][e]
            A[i] = [v - f * w for v, w in zip(A[i], row)]
            b[i] -= f * b[r]
    f = red[e]
    if f != 0:
        for j in range(len(red)):
            if row[j] != 0:
                red[j] -= f * row[j]
    basis[r] = e


def simplex_standard_min(A, b, c):
    """min c.x s.t. A x = b, x >= 0 by two-phase Bland simplex.

    Returns (value, x) as Fractions. Raises HJointsError on infeasibility.
    """
    m = len(A)
    n = len(c)
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    # phase one
    for i in range(m):
        A[i] = A[i] + [ONE if k == i else ZERO for k in range(m)]
    c1 = [ZERO] * n + [ONE] * m
    basis = list(range(n, n + m))
    _run_bland(A, b, c1, basis)
    if sum(b[i] for i in range(m) if basis[i] >= n) != 0:
        raise HJointsError("infeasible program")
    # drive leftover artificials out of the basis (degenerate rows)
    drop_rows = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if A[i][j] != 0), None)
            if enter is None:
                drop_rows.append(i)
            else:
                _pivot(A, b, [ZERO] * (n + m), basis, i, enter)
    for i in sorted(drop_rows, reverse=True):
        del A[i], b[i], basis[i]
    A = [row[:n] for row in A]
    _run_bland(A, b, c, basis)
    x = [ZERO] * n
    for i, bi in enumerate(basis):
        x[bi] = b[i]
    value = sum((c[j] * x[j] for j in range(n)), ZERO)
    return value, tuple(x)


@dataclass(frozen=True)
class CoverSolution:
    value: Fraction
    weights: WeightFunction
    tight_vertices: tuple[int, ...]


def rho_star(h: Hypergraph) -> CoverSolution:
    """Exact fractional edge-covering number with an optimal weight."""
    for j in range(1, h.d + 1):
        if not h.edges_containing(j):
            raise IsolatedVertex(j)
    ne = h.n_edges
    A = []
    for j in range(1, h.d + 1):
        row = [ZERO] * (ne + h.d)
        for i in h.edges_containing(j):
            row[i] = ONE
        row[ne + j - 1] = -ONE  # surplus
        A.append(row)
    b = [ONE] * h.d
    c = [ONE] * ne + [ZERO] * h.d
    value, x = simplex_standard_min(A, b, c)
    wf = WeightFunction.for_hypergraph(h, x[:ne])
    tight = tuple(j for j in range(1, h.d + 1) if wf.vertex_loads[j - 1] == 1)
    return CoverSolution(value, wf, tight)


def dual_cover(h: Hypergraph) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Optimal value and point of max sum y, sum_{j in e} y_j <= 1, y >= 0."""
    ne = h.n_edges
    A = []
    for i, e in enumerate(h.edges):
        row = [ZERO] * (h.d + ne)
        for j in e:
            row[j - 1] = ONE
        row[h.d + i] = ONE  # slack
        A.append(row)
    b = [ONE] * ne
    c = [-ONE] * h.d + [ZERO] * ne
    value, x = simplex_standard_min(A, b, c)
    return -value, x[:h.d]
