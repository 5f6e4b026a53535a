"""Derivative-condition ledgers on flats and the handicap balancing dynamic.

For one flat F of dimension k, polynomials on F of degree at most n form a
space of dimension C(n+k, k); the functionals "order-gamma Hasse derivative
at joint p in the chart A" span its dual when gamma ranges over |gamma| <= n
at a single point. Processing joints on F in *priority order* -- pairs
(p, r) sorted by r - handicap(p), ties by a fixed preassigned joint order --
and within a pair the exponents |gamma| = r in decreasing lexicographic
order, Gaussian elimination assigns each pair a pivot count. The ledger
records per joint those counts (their per-flat total is exactly C(n+k, k))
and the exponent sets of the pivots, in its chart: the witness chart on
the flats of the joint's chosen witness tuple, whose sets combine into its
admissible exponents (see counting), and a translation elsewhere.

On a line (k = 1) with chart x -> u + c x, the order-r functional is c^r
D^r at u, and priority order gives each joint a prefix 0..m_p - 1 of
orders. By Hermite interpolation such conditions at distinct points are
independent over any field up to n + 1 of them, so the pivots are the
first n + 1 pairs when the shifts u are distinct and no scale c is zero.
Both always hold: a configuration's points are distinct, so their
coordinates u on the line are, and c is 1 in a translation and a
coordinate of a column of an invertible witness matrix otherwise. So a
line's ledger reads no chart, only its joints' ranks. The split is
counted, not sorted: with s = -alpha a joint's keys are s..s + n, the key
T of the last pair taken is the least where the joints with s <= T hold
n + 1 keys up to T, each joint takes its max(T - s, 0) keys below T, and
the keys at T fill the rest in rank order.

On a k-flat (k >= 2) whose m <= k + 1 joints lift to independent vectors
(p, 1) in F^(k+1), counts and exponent sets are closed too. Complete the
lifts to a basis V of F^(k+1) and write degree-n forms in k + 1 variables
x = V^-1 (z, 1): joint i is the coordinate point e_i, and "order below a at
e_i" is the monomial condition beta_i > n - a, over any field and in any
chart, since jets of order below a do not depend on the chart. After a_j
orders at each joint j the conditions span the monomial subspace {beta :
beta_j > n - a_j for some joint j}, of rank sum over nonempty S of
(-1)^(|S|+1) C(sum_S a_i - (|S| - 1)(n + 1) + k - 1, k), 0 below k. Pair
(i, r) adds the free beta, with beta_i = n - r and beta_j <= n - a_j at
the other joints, counted by inclusion-exclusion. Modulo that subspace its
order-gamma condition is coeff_gamma (L_i y)^beta on the free beta (with
beta_i dropped), where L_i, the linear part of x along joint i's chart y ->
p_i + A_i y, is the rows j != i of V^-1 (A_i; 0). L_i is invertible since
(p_i, 1) is not a direction, so that matrix has full column rank and the
pair's pivots are its rows that raise the rank in decreasing lex order:
every gamma of degree r when every beta is free, none when none is, and
otherwise a rank test on at most C(r + k - 1, k - 1) columns of the
pullback table of the zero-shift chart L_i. Every other flat runs the
elimination, which the tests also run as the oracle of both closed forms.

Over GF(p) the elimination packs each row into one int, one fixed-width
slot per entry wide enough that a row can take every reduction unreduced
(see _Echelon), so reducing a row by a stored one is one big-int
multiply-add instead of a list of dim products mod p. Over Q rows stay
Fraction lists.

Ledger sets over one configuration share a plan, kept on the configuration
per pattern; it depends on neither alpha nor n. The plan is the one place
that decides the joints' rank order, their witness tuples and the chosen
tuple of each, whose flats the witness tuples name. It holds each flat's
joint ranks, all a line reads, and on each flat of dimension >= 2 its
frame: the joints' charts, the rank test of the simplex closed form, run
once, and the charts L_i, made on the first exponent read that needs a
rank test. Each chart caches its pullback table per n, built by the first
elimination or exponent read that reads it, and the chart-independent part
of a table (monomials, transitions, exponents per degree) is shared per
(k, n), so a plan builds each table once per n. The plan also memoises
the ledger of every flat, line or not, on (flat, n, alpha of the flat's
joints minus their minimum): the priority order (r - alpha, rank) does not
move under that shift. The memo keeps a ledger's counts, as a tuple in the
flat's rank order, and its pivots, but not its context: a hit is
re-stamped with the call's context and its counts, so its digest is that
of a fresh build, and on a plane it shares the exponent sets of the ledger
it copies, read at most once. A line's ledger holds its counts only and
derives its exponent sets on read, the first count orders of each joint,
so a handicap run keeps one small tuple per relative handicap seen on a
line, and a round rebuilds only the lines whose relative handicap is new.
What a plan keeps lives as long as its configuration, for every n it was
asked for: on the 2-flats pattern over K7 at n=4, where every plane holds
3 joints in general position, the ledgers of every distinct relative
handicap seen, and tables only once exponent sets are read: 45, all of
charts L_i, when the 15 planes of the chosen tuples are read.

The handicap iteration mimics the equalization argument: repeatedly build
ledgers, score each joint by W'_p = min over witness tuples of
prod_e (B_{p,F}/n^dim F)^(w(e)/(|w|-1)) / W(p), sort, and decrement the
handicap of the block above the first gap exceeding delta. Termination by
delta-flatness, cycle detection, or a round cap are all legitimate,
reported outcomes. The witness tuples do not change between rounds, so one
iteration maps each tuple's flats once to their slots, the positions of
their ledgers in every round's ledger set, and scores a round by reading
B_{p,F} and n^dim F from lists by slot. A joint's score reads only its
own counts B_{p,F}, so a round rescores only the joints whose count on
some flat moved since the round before.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb
from typing import NamedTuple

from . import linalg
from .errors import ChartMissing, DegreeOverflow, NotConnected
from .fields import PrimeField
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
    if k == 0:
        return [] if total else [()]
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
        return cls(field, k, tuple(linalg.identity_rows(k, field)),
                   tuple(shift))

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
        self.homogeneous = all(map(field.is_zero, chart.shift))
        const = [field.zero] * dim
        const[0] = field.one  # graded order: the constant monomial is first
        self.columns = [const] + [None] * (dim - 1)
        for bi, beta in enumerate(self.monomials[1:], 1):
            t = next(j for j, b in enumerate(beta) if b > 0)
            down = list(beta)
            down[t] -= 1
            prev = self.columns[self.index[tuple(down)]]
            self.columns[bi] = self._mul_linear(prev, t, sum(down))

    def _mul_linear(self, vec, coord: int, degree: int):
        """vec, the column of a monomial of degree < n, times output
        coordinate coord. vec is zero past the monomials of degree at most
        `degree`, and on a chart with no shift below that degree too, so
        only that index range is read."""
        field, k = self.chart.field, self.k
        c0 = self.chart.shift[coord]
        coeffs = [col[coord] for col in self.chart.cols]
        out = [field.zero] * len(vec)
        use_const = not field.is_zero(c0)
        terms = [(self.transition[t], ct) for t, ct in enumerate(coeffs)
                 if not field.is_zero(ct)]
        start = comb(degree - 1 + k, k) if self.homogeneous else 0
        for i in range(start, comb(degree + k, k)):
            v = vec[i]
            if field.is_zero(v):
                continue
            if use_const:
                out[i] = field.add(out[i], field.mul(v, c0))
            for up, ct in terms:
                j = up[i]
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
    """Rows in echelon form: each stored row is reduced against the rows
    stored before it and scaled to 1 at its pivot, its first nonzero column.

    Over GF(p) a row is one int, entry i in slot i of `size` bytes, enough
    for 2*bitlen(p) + bitlen(dim) + 2 bits. The reduction u - f*v is
    u + (p - f)*v: it adds less than p^2 to each slot, and a row meets at
    most dim of them, so a slot stays below (dim + 1)*p^2 and never
    overflows into the next. Slots are reduced mod p only where a pivot
    slot is read and where a row is normalised to be stored; whole bytes
    let a row pack and unpack through int.to_bytes. Over Q rows stay
    Fraction lists."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim
        # (pivot column, row) over Q; (bit offset of the pivot slot, packed
        # row) over GF(p)
        self.rows: list[tuple[int, object]] = []
        self.size = None
        if isinstance(field, PrimeField):
            self.size = (2 * field.p.bit_length() + dim.bit_length() + 9) // 8

    def insert(self, row) -> bool:
        """Reduce row against the stored rows and store it unless it
        reduces to zero; whether it was stored."""
        size = self.size
        if size is None:
            return self._insert_list(row)
        p = self.field.p
        mask = (1 << 8 * size) - 1
        u = int.from_bytes(b"".join([(a % p).to_bytes(size, "little")
                                     for a in row]), "little")
        for shift, v in self.rows:
            f = (u >> shift & mask) % p
            if f:
                u += (p - f) * v
        raw = u.to_bytes(size * self.dim, "little")
        slots = [int.from_bytes(raw[i:i + size], "little") % p
                 for i in range(0, len(raw), size)]
        pivot = next((i for i, a in enumerate(slots) if a), None)
        if pivot is None:
            return False
        c = pow(slots[pivot], -1, p)
        self.rows.append((8 * size * pivot, int.from_bytes(b"".join(
            [(a * c % p).to_bytes(size, "little") for a in slots]), "little")))
        return True

    def _insert_list(self, row) -> bool:
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


class _Pivots:
    """A simplex flat's pivots: per rank the pivot count at each degree
    0..n, known at build, and the exponent sets, not yet read.
    _simplex_exponents runs on the first read of the sets and its result
    is kept, shared by every copy of the ledger that holds this object."""

    __slots__ = ("degrees", "args", "exponents")

    def __init__(self, degrees, *args):
        self.degrees, self.args, self.exponents = degrees, args, None

    def get(self) -> dict:
        if self.exponents is None:
            self.exponents = _simplex_exponents(*self.args)
            self.args = None
        return self.exponents


@dataclass
class FlatLedger:
    """Elimination outcome for one flat under one handicap and degree cap."""

    flat: object
    n: int
    counts: dict                       # rank -> B_{p,F}, every joint on F
    pivots: object                     # the exponents, a _Pivots, or None
    context: tuple                     # shared (n, alpha fingerprint, field)

    @property
    def exponents(self) -> dict:
        """rank -> tuple of recorded gammas; on a line, whose pivots are
        None, the first count orders (0,), (1,), ..."""
        if self.pivots is None:
            return {rank: tuple(_table_shape(1, self.n).monomials[:c])
                    for rank, c in self.counts.items()}
        if type(self.pivots) is _Pivots:
            return self.pivots.get()
        return self.pivots

    def degree_counts(self, rank: int) -> list:
        """Per degree r = 0..n, how many of rank's recorded exponents have
        degree r: 1 below its count on a line, its pairs' rank increments
        on a simplex flat, read off its exponents on any other flat."""
        if self.pivots is None:
            count = self.counts[rank]
            return [1] * count + [0] * (self.n + 1 - count)
        if type(self.pivots) is _Pivots:
            return self.pivots.degrees[rank]
        out = [0] * (self.n + 1)
        for gamma in self.pivots[rank]:
            out[sum(gamma)] += 1
        return out

    def digest(self) -> str:
        payload = repr((self.flat.base, self.flat.dirs, self.n,
                        sorted(self.counts.items()),
                        sorted((r, tuple(g)) for r, g in self.exponents.items()),
                        self.context))
        return hashlib.sha256(payload.encode()).hexdigest()


def _eliminate(field, k: int, n: int, joint_charts, alpha):
    """(counts, exponents) per rank: the pivots of the elimination in
    priority order, which stops once the dual space is exhausted."""
    dim = comb(n + k, k)
    tables = {rank: chart.table(n) for rank, chart in joint_charts}
    by_degree = _table_shape(k, n).by_degree
    pairs = sorted(((r, rank) for rank in tables for r in range(n + 1)),
                   key=lambda pr: (pr[0] - alpha[pr[1]], pr[1]))
    found = {rank: [] for rank in tables}
    store = _Echelon(field, dim)
    for r, rank in pairs:
        for gamma in by_degree[r]:
            if store.rank == dim:
                break
            if store.insert(tables[rank].row(gamma)):
                found[rank].append(gamma)
    return ({rank: len(g) for rank, g in found.items()},
            {rank: tuple(g) for rank, g in found.items()})


def _hermite_counts(n: int, ranks, alpha) -> dict:
    """Per rank, its share of the first n + 1 pairs in priority order,
    counted as the module docstring says. T is within n of the least s, so
    for the first j joints by s, when it lies at or above the j-th s and
    below the next, it is the least T with j (T + 1) - (their s summed) >=
    n + 1: one ceiling division per prefix."""
    joints = sorted((-alpha[rank], rank) for rank in ranks)
    total = 0
    for j, (s, _) in enumerate(joints, 1):
        total += s
        cut = max(s, -(-(n + 1 + total) // j) - 1)
        if j == len(joints) or cut < joints[j][0]:
            break
    counts = {rank: max(cut + alpha[rank], 0) for rank in ranks}
    left = n + 1 - sum(counts.values())
    for rank in sorted(rank for s, rank in joints if s <= cut)[:left]:
        counts[rank] += 1
    return counts


def _simplex_steps(k: int, n: int, joint_charts, alpha):
    """Per pair in priority order, for joints with independent lifts (p, 1):
    (rank, r, orders taken by each joint before the pair, the rank
    increment), as the module docstring says. The other k coordinates of
    the beta that pair (p, r) adds sum to r, and inclusion-exclusion runs
    over the joints q whose bound n - a_q is below r. Stops once the dual
    space is exhausted."""
    pairs = sorted(((r, rank) for rank, _ in joint_charts
                    for r in range(n + 1)),
                   key=lambda pr: (pr[0] - alpha[pr[1]], pr[1]))
    taken = {rank: 0 for rank, _ in joint_charts}
    left = comb(n + k, k)
    for r, rank in pairs:
        over = [n + 1 - a for q, a in taken.items()
                if q != rank and n + 1 - a <= r]
        gain = 0
        for size in range(len(over) + 1):
            for subset in itertools.combinations(over, size):
                top = r - sum(subset)
                if top >= 0:
                    gain += (-1) ** size * comb(top + k - 1, k - 1)
        yield rank, r, taken, gain
        taken[rank] += 1
        left -= gain
        if not left:
            return


def _simplex_degrees(k: int, n: int, joint_charts, alpha) -> dict:
    """Per rank, the rank increment of its pair at each degree 0..n."""
    degrees = {rank: [0] * (n + 1) for rank, _ in joint_charts}
    for rank, r, _, gain in _simplex_steps(k, n, joint_charts, alpha):
        degrees[rank][r] = gain
    return degrees


def _lifts_independent(flat, joint_charts) -> bool:
    """Whether the flat's joints are at most k + 1 and lift to independent
    vectors (p, 1) in F^(k+1), p the chart shift: the simplex closed form's
    precondition."""
    field = flat.field
    return len(joint_charts) <= flat.dim + 1 and linalg.rank(
        [(*chart.shift, field.one) for _, chart in joint_charts],
        field) == len(joint_charts)


class _Frame:
    """The simplex closed form on one flat of dimension >= 2: its test, run
    once, and, built on the first read that needs them, the zero-shift
    charts L_i of the module docstring, whose pullback tables are cached on
    the charts. Joint i of joint_charts is coordinate i of x."""

    def __init__(self, flat, joint_charts):
        self.flat, self.joint_charts = flat, joint_charts
        self.independent = _lifts_independent(flat, joint_charts)

    @functools.cached_property
    def charts(self) -> list:
        # one rref of [lifts | units | (A_i; 0) for every i]: its pivot
        # columns are V, the lifts and the units that complete them, so
        # each reduced row j holds row j of V^-1 (A_i; 0) for every i
        field, k = self.flat.field, self.flat.dim
        red = linalg.rref(list(zip(
            *[(*chart.shift, field.one) for _, chart in self.joint_charts],
            *linalg.identity_rows(k + 1, field),
            *[(*col, field.zero) for _, chart in self.joint_charts
              for col in chart.cols])), field)[0]
        start = len(self.joint_charts) + k + 1
        charts = []
        for i in range(len(self.joint_charts)):
            rows = [row[start + i * k:start + (i + 1) * k]
                    for j, row in enumerate(red) if j != i]
            charts.append(Chart(field, k, tuple(zip(*rows)),
                                (field.zero,) * k))
        return charts


def _simplex_exponents(frame: _Frame, n: int, alpha) -> dict:
    """Per rank, the pivots of its pairs in priority order on a simplex
    flat, read in the frame as the module docstring says: a pair takes
    every exponent of its degree when all its betas are free, none when no
    beta is, and otherwise the rows of its L_i table, restricted to the
    free betas, that raise the rank in decreasing lex order."""
    field, k = frame.flat.field, frame.flat.dim
    ranks = [rank for rank, _ in frame.joint_charts]
    by_degree = _table_shape(k, n).by_degree
    found = {rank: [] for rank in ranks}
    for rank, r, taken, gain in _simplex_steps(k, n, frame.joint_charts,
                                               alpha):
        gammas = by_degree[r]
        if gain == len(gammas):
            found[rank].extend(gammas)
        elif gain:
            i = ranks.index(rank)
            bounds = [n - taken[ranks[t]] if t < len(ranks) else r
                      for t in range(k + 1) if t != i]
            table = frame.charts[i].table(n)
            free = [table.columns[table.index[beta]] for beta in gammas
                    if all(b <= c for b, c in zip(beta, bounds))]
            rows = [[col[table.index[gamma]] for gamma in gammas]
                    for col in free]
            found[rank].extend(gammas[c] for c in linalg.rref(rows, field)[1])
    return {rank: tuple(g) for rank, g in found.items()}


def build_flat_ledger(flat, joints, alpha, n: int, *, context=None,
                      frame=None) -> FlatLedger:
    """Assign the flat's C(n+k, k) conditions to its joints in priority order.

    joints: on a flat of dimension k >= 2, one (global_rank, Chart) pair
    per joint on the flat, the charts at distinct points of the flat and
    with invertible linear parts; on a line, the global ranks of joints at
    distinct points, all that the Hermite closed form of the module
    docstring reads, and exact for any such charts. Pairs (rank, r) are
    processed by (r - alpha[rank], rank); within a pair, exponents of
    degree r in decreasing lex order. On a k-flat with at most k + 1 joints
    whose lifts (p, 1) are independent the counts take the simplex closed
    form, and the exponents are read in its frame on first read, each
    pair's by a rank test on its free betas; any other flat runs the
    elimination. frame is the flat's _Frame for these joint charts where
    the caller keeps one, as a ledger plan does; None makes one here.
    """
    field, k = flat.field, flat.dim
    if k > 1 and frame is None:
        frame = _Frame(flat, joints)
    if k == 1:
        counts, pivots = _hermite_counts(n, joints, alpha), None
    elif frame.independent:
        degrees = _simplex_degrees(k, n, joints, alpha)
        counts = {rank: sum(gains) for rank, gains in degrees.items()}
        pivots = _Pivots(degrees, frame, n,
                         {rank: alpha[rank] for rank, _ in joints})
    else:
        counts, pivots = _eliminate(field, k, n, joints, alpha)
    if context is None:
        context = (n, tuple(sorted(alpha.items())), field.key())
    return FlatLedger(flat, n, counts, pivots, context)


# ---------------------------------------------------------------------------
# configuration-level ledger sets
# ---------------------------------------------------------------------------

@dataclass
class LedgerSet:
    h: Hypergraph
    config: object
    n: int
    alpha: dict                      # rank -> int
    rank_order: tuple[int, ...]      # config point index per rank
    chosen: dict                     # rank -> geometry.WitnessTuple
    ledgers: dict                    # canonical Flat -> FlatLedger
    context: tuple

    def count(self, rank: int, flat) -> int:
        return self.ledgers[flat].counts.get(rank, 0)


def preassigned_order(config) -> tuple[int, ...]:
    """Point indices sorted by canonical point encoding."""
    return tuple(sorted(range(len(config.points)),
                        key=lambda i: config.points[i]))


class _LedgerPlan:
    """The part of a ledger set that depends on neither alpha nor n: the
    joints' rank order and per rank its witness tuples, the first of which
    is its chosen tuple; per flat carrying a joint the ranks of its joints
    and, on a flat of dimension >= 2, its _Frame, which holds the joints'
    charts with their pullback tables cached on them per n; plus a memo of
    every flat's ledger counts and pivots keyed on (flat, n, alpha of its
    joints minus their minimum, unpacked). A line's ledger reads its joints' ranks alone,
    so no chart is made on a line. The configuration is passed to each
    call, not kept."""

    def __init__(self, h: Hypergraph, config):
        self.h = h
        self.order = order = preassigned_order(config)
        self.tuples, self.chosen = [], {}
        ranks_on = {fl: [] for cls in config.classes for fl in cls}
        for rank, idx in enumerate(order):
            tuples = config.tuples_at(h, idx)
            if not tuples:
                raise ChartMissing(
                    f"stored point {idx} admits no witness tuple")
            self.tuples.append(tuples)
            self.chosen[rank] = tuples[0]
            incidence = config.incidence(config.points[idx])
            for fl in dict.fromkeys(fl for cls in incidence for _, fl in cls):
                ranks_on[fl].append(rank)
        self.flats = [  # (flat, joint ranks, _Frame or None on a line)
            (fl, ranks, _Frame(fl, self._joint_charts(config, fl, ranks))
             if fl.dim > 1 else None)
            for fl, ranks in ranks_on.items() if ranks]
        self.memo: dict = {}

    def _joint_charts(self, config, fl, ranks) -> list:
        """One (rank, Chart) pair per rank on the flat: the joint's witness
        chart where its chosen tuple names the flat, a translation
        elsewhere."""
        h, field = self.h, config.field
        out = []
        for rank in ranks:
            point = config.points[self.order[rank]]
            shift = fl.coords_of_direction(
                [field.sub(a, b) for a, b in zip(point, fl.base)])
            wt = self.chosen[rank]
            edge = next((e for e, f in zip(h.edges, wt.flats) if f == fl),
                        None)
            if edge is None:
                chart = Chart.translation(field, shift)
            else:
                chart = Chart(field, fl.dim, tuple(
                    fl.coords_of_direction(wt.witness.columns[j - 1])
                    for j in range(1, h.d + 1) if j not in edge), shift)
            out.append((rank, chart))
        return out

    def ledger_set(self, config, alpha, n: int) -> LedgerSet:
        alpha = {r: int(alpha[r]) for r in range(len(self.order))}
        context = (n, tuple(sorted(alpha.items())), config.field.key())
        ledgers = {}
        for fl, ranks, frame in self.flats:
            low = min(alpha[rank] for rank in ranks)
            key = (fl, n, *(alpha[rank] - low for rank in ranks))
            hit = self.memo.get(key)
            if hit is None:
                led = build_flat_ledger(fl, frame.joint_charts if frame
                                        else ranks, alpha, n,
                                        context=context, frame=frame)
                # every builder returns its counts in the order of ranks
                hit = self.memo[key] = tuple(led.counts.values()), led.pivots
            ledgers[fl] = FlatLedger(fl, n, dict(zip(ranks, hit[0])), hit[1],
                                     context)
        return LedgerSet(self.h, config, n, alpha, self.order, self.chosen,
                         ledgers, context)


def _ledger_plan(h: Hypergraph, config) -> _LedgerPlan:
    """The configuration's plan for h, built on first use."""
    plan = config._ledger_plans.get(h)
    if plan is None:
        plan = config._ledger_plans[h] = _LedgerPlan(h, config)
    return plan


def build_ledger_set(h: Hypergraph, config, alpha=None, n: int = 4
                     ) -> LedgerSet:
    """Ledgers for every configuration flat carrying at least one joint."""
    if n < 0:
        raise ValueError(f"degree n = {n} is negative")
    if alpha is None:
        alpha = dict.fromkeys(range(len(config.points)), 0)
    return _ledger_plan(h, config).ledger_set(config, alpha, n)


# ---------------------------------------------------------------------------
# handicap dynamic and the certificate audit
# ---------------------------------------------------------------------------

def used_flat_connectivity(h: Hypergraph, config) -> bool:
    """Whether the joints are connected through the flats of their witness
    tuples: the flats of each joint's tuples join every group of flats
    they meet, and one group must be left."""
    groups = []
    for idx in preassigned_order(config):
        group = {fl for wt in config.tuples_at(h, idx) for fl in wt.flats}
        met = [g for g in groups if not g.isdisjoint(group)]
        groups = [g for g in groups if g.isdisjoint(group)]
        groups.append(group.union(*met))
    return len(groups) <= 1


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


def _tuple_slots(plan: _LedgerPlan, sigma) -> list:
    """Per rank: its distinct (slot, sigma) pairs with sigma > 0, and per
    witness tuple the slot of each edge's flat and the positions in those
    pairs of its weighted edges, in edge order. A slot is a position in
    plan.flats, which is also the position in a ledger set's ledgers."""
    slot = {fl: i for i, (fl, _, _) in enumerate(plan.flats)}
    out = []
    for wts in plan.tuples:
        keys: dict = {}
        tuples = []
        for wt in wts:
            slots = tuple(slot[fl] for fl in wt.flats)
            tuples.append((slots, tuple(
                keys.setdefault((slot, s), len(keys))
                for slot, s in zip(slots, sigma) if s)))
        out.append((list(keys), tuples))
    return out


def _score_ranks(ls: LedgerSet, slots, W, ranks) -> dict:
    """rank -> (W', S, min-product) for the given ranks from the current
    ledgers, with the flats of its witness tuples given as slots (see
    _tuple_slots). Each factor (B_{p,F} / n^dim F)^sigma is raised once per
    round, and a tuple's product multiplies its factors in edge order."""
    counts = [led.counts for led in ls.ledgers.values()]
    scale = [ls.n ** led.flat.dim for led in ls.ledgers.values()]
    out = {}
    for rank in ranks:
        keys, tuples = slots[rank]
        factors = [(counts[slot][rank] / scale[slot]) ** s
                   if counts[slot][rank] else 0.0 for slot, s in keys]
        best = best_s = None
        for tup, weighted in tuples:
            prod = 1.0
            for j in weighted:
                prod *= factors[j]
            ssum = 0
            for slot in tup:
                ssum += counts[slot][rank]
            if best is None or prod < best or prod == best and ssum < best_s:
                best, best_s = prod, ssum
        out[rank] = best / W[rank], best_s, best
    return out


def _target_weights(W, nj: int) -> dict:
    """W as rank -> float, or ValueError unless it holds one finite,
    positive entry per point."""
    if len(W) != nj:
        raise ValueError(f"W has {len(W)} entries for {nj} points")
    W = {rank: float(W[rank]) for rank in range(nj)}
    for v in W.values():
        if not 0 < v < math.inf:  # NaN too
            raise ValueError(f"W value {v} is not finite and positive")
    return W


def handicap_iteration(h: Hypergraph, w: WeightFunction, config, *,
                       W=None, n: int = 24, delta: float | None = None,
                       max_rounds: int = 200) -> HandicapResult:
    """Decrement-the-leaders dynamic driving the W' scores delta-flat; delta
    defaults to 1 / ln(n)."""
    if not config.points:
        raise ValueError("the configuration has 0 points to balance")
    if n < 1 or n < 2 and delta is None:
        raise ValueError(f"degree n = {n} is out of range: need n >= 1, "
                         "and n >= 2 for the default delta = 1 / ln(n)")
    if max_rounds < 0:
        raise ValueError(f"max_rounds = {max_rounds} is negative")
    if delta is None:
        delta = 1 / math.log(n)
    # a negative delta cuts at every gap; NaN and inf at none
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta = {delta} is out of range: need a finite "
                         "delta >= 0")
    w.require_covering()
    if not used_flat_connectivity(h, config):
        raise NotConnected("configuration is not connected through used flats")
    nj = len(config.points)
    W = (_target_weights(W, nj) if W is not None else
         {rank: 1.0 / (nj * math.factorial(h.d)) for rank in range(nj)})
    sigma = [float(we) / float(w.total - 1) for we in w.weights]
    plan = _ledger_plan(h, config)
    slots = _tuple_slots(plan, sigma)
    alpha = {rank: 0 for rank in range(nj)}
    seen_states = OrderedDict()  # ring of the last 1024 states
    trace = []
    status = "max-rounds"
    counts = None
    scores = {}
    for rounds in range(max_rounds + 1):
        ls = plan.ledger_set(config, alpha, n)
        last, counts = counts, [led.counts for led in ls.ledgers.values()]
        # rescore the ranks whose count on some flat moved
        moved = range(nj) if last is None else {
            rank for old, new in zip(last, counts)
            for rank, count in new.items() if old[rank] != count}
        scores.update(_score_ranks(ls, slots, W, moved))
        ranked = sorted(range(nj), key=lambda r: (-scores[r][0], -scores[r][1]))
        wps = [scores[r][0] for r in ranked]
        gaps = [a - b for a, b in zip(wps, wps[1:])]
        max_gap = max(gaps, default=0.0)
        cut = next((i for i, g in enumerate(gaps) if g > delta), None)
        trace.append({"round": rounds,
                      "alpha": dict(alpha),
                      "sorted_wprime": wps,
                      "max_gap": max_gap,
                      "decremented": ranked[:cut + 1] if cut is not None
                                     else []})
        if cut is None:
            status = "flat"
            break
        shift = min(alpha.values())
        state = tuple(a - shift for a in alpha.values())
        if state in seen_states:
            status = "cycle"
            break
        seen_states[state] = rounds
        if len(seen_states) > 1024:
            seen_states.popitem(last=False)
        for r in ranked[:cut + 1]:
            alpha[r] -= 1
    b = {(rank, fl): Fraction(count, n ** fl.dim)
         for fl, ledger in ls.ledgers.items()
         for rank, count in ledger.counts.items()}
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


def key_inequality_audit(h: Hypergraph, w: WeightFunction, config, b, W, *,
                         cond1_factor: float = 0.8, cond2_tol: float = 0.1
                         ) -> AuditReport:
    """Check a certificate (rational b values keyed by (rank, flat), target
    weights W, checked as handicap_iteration checks its W) against both
    sides of the target inequality.

    Condition (1), product >= factor * W(p) for every witness tuple with
    product = (prod_i b_i^w_i)^(1/(|w| - 1)), is decided exactly as the sign
    of sum_i (w_i / (|w| - 1)) log2 b_i - log2(factor * W(p)), on the
    Fraction b and the exact binary values of the floats, once per joint
    and distinct multiset of (b_i, exponent) over its tuples; the float
    products, one per tuple, only feed the reported slacks."""
    # a factor <= 0 passes condition (1) and an infinite tolerance
    # condition (2) on any certificate; NaN fails condition (2) on any
    if not (0 < cond1_factor < math.inf and math.isfinite(cond2_tol)):
        raise ValueError(f"cond1_factor = {cond1_factor}, cond2_tol = "
                         f"{cond2_tol}: need a finite factor > 0 and a "
                         "finite tolerance")
    W = _target_weights(W, len(config.points))
    exponent = 1.0 / float(w.total - 1)
    root = 1 / (w.total - 1)
    exps = [we * root for we in w.weights]  # of b_i in log2(product)
    # per weighted edge: (position, weight, first position of its exponent)
    weighted = [(i, float(we), exps.index(exps[i]))
                for i, we in enumerate(w.weights) if we]
    # per (rank, flat): its float b and the number of its b value
    numbers = {}
    cells = {key: (float(val), numbers.setdefault(val, len(numbers)))
             for key, val in b.items()}
    cond1_pass = True
    cond1_worst = -math.inf
    cond1_margin = math.inf
    wprime = {}
    for rank, idx in enumerate(preassigned_order(config)):
        target = Fraction(cond1_factor) * Fraction(W[rank])
        # sorted (b number, exponent position) pairs -> the exact verdict;
        # None where condition (1) holds whatever b is
        signs = {} if target > 0 else None
        best = math.inf
        for wt in config.tuples_at(h, idx):
            prod = 1.0
            key = []
            for i, we, j in weighted:
                fb, number = cells.get((rank, wt.flats[i]), (0.0, -1))
                prod *= fb ** we
                key.append((number, j))
            prod **= exponent
            best = min(best, prod)
            cond1_worst = max(cond1_worst, cond1_factor * W[rank] - prod)
            cond1_margin = min(cond1_margin, prod - W[rank])
            if cond1_pass and signs is not None:
                key = tuple(sorted(key))
                if key not in signs:
                    logs = [(b.get((rank, wt.flats[i]), 0), exps[j])
                            for i, _, j in weighted]
                    signs[key] = all(v for v, _ in logs) and log2_sum_sign(
                        [*logs, (target, -1)]) >= 0
                cond1_pass = signs[key]
        wprime[rank] = best / W[rank]
    by_flat: dict = {}
    for key in b:
        by_flat.setdefault(key[1], []).append(key)
    cond2_worst = -math.inf
    cond2_pass = True
    for fl, keys in by_flat.items():
        cap = math.factorial(fl.dim)
        cond2_worst = max(cond2_worst,
                          math.fsum(cells[key][0] for key in keys) - 1.0 / cap)
        excess = sum(b[key] for key in keys) - Fraction(1, cap)
        cond2_pass = cond2_pass and excess <= cond2_tol  # exact vs a float
    spread = max(wprime.values()) - min(wprime.values())
    lam = math.fsum(wprime.values()) / len(wprime)
    return AuditReport(cond1_pass, cond2_pass,
                       cond1_worst, cond1_margin, cond2_worst, spread, lam)


def bounded_domain_threshold(h: Hypergraph, config, flat, target_rank: int,
                             n: int) -> int:
    """Smallest handicap gap g with B_{p,F}(alpha_p = -g, n) = 0, by sweep
    up to 2n + 4."""
    max_gap = 2 * n + 4
    plan = _ledger_plan(h, config)
    for g in range(max_gap + 1):
        alpha = dict.fromkeys(range(len(config.points)), 0)
        alpha[target_rank] = -g
        ls = plan.ledger_set(config, alpha, n)
        if ls.count(target_rank, flat) == 0:
            return g
    raise RuntimeError(f"no vanishing gap found up to {max_gap}")
