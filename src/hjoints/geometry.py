"""Flats (affine subspaces) over an exact field, and joint-witness detection.

A Flat is stored canonically: its direction space in reduced row echelon
form, and its basepoint reduced against the directions so every pivot
coordinate of the basepoint is zero. Canonicalization is idempotent and two
flats are equal iff the canonical data agree, which makes flats hashable
multiset members.

Witness detection implements the definition of a pattern joint directly:
a point p with flats (F_e) indexed by the pattern's edges admits an
invertible affine A with A(0) = p and A(span{unit_j : j not in e}) = F_e
iff p lies on every F_e, dim F_e = d - |e|, and there are linearly
independent vectors v_1..v_d with

    v_j in W_j := intersection of dir(F_e) over all edges e not containing j

(W_j is the whole space when j lies in every edge). The decision is exact.
A family whose W_j are not all nonzero, or do not jointly span F^d, has no
transversal. Otherwise DRAWS random transversals are tried; the first
invertible one is the witness. Only when every draw is singular does Rado's
rank condition decide: independent v_j in W_j exist iff
dim(sum_{j in S} W_j) >= |S| for every vertex set S (R. Rado, "A theorem on
independence relations", 1942). If it holds, drawing continues until a
witness is found; the determinant is multilinear in (v_1..v_d), so each
draw succeeds with probability at least (1 - 1/p)^d over GF(p). The draws
come first because one determinant settles almost every joint, while the
rank condition costs up to 2^g - 1 rank tests for g distinct W_j.

Enumeration is a depth-first walk over the edges in index order, which
visits complete assignments in product order. Vertices with the same set of
avoiding edges form a group with one W_j, fixed by the pattern; the group's
W_j is final once the last edge of its set is assigned. It is the nullspace
of the direction annihilators of the flats it intersects, whose basis is
canonical, so equal flat sets give bit-identical spaces; it is cached on the
flat for a single flat and per walk for a set of several. A final W_j that
is zero ends the branch. Otherwise its rows are reduced into an echelon
carried down the walk, and the branch ends when the echelon rank plus, for
each unfinished group, the smallest d - |e| over its avoiding edges (a
bound on its dimension) falls below d. At a leaf every W_j is nonzero and
the echelon has rank d, which is the spanning filter itself. Pruned branches
hold only assignments that fail that filter, which never draw, so the
witnesses and their rng draws are those of a loop over every assignment in
product order; identical flat tuples share one check. witness_check is the
same walk with one candidate per edge.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from .errors import (BudgetExceeded, CapExceeded, DimensionMismatch,
                     PointNotOnFlat, SizeMismatch)
from .hypergraph import Hypergraph

DRAWS = 8  # random transversals tried before the exact rank test
TUPLE_CAP = 10000  # qualifying tuples at one point before CapExceeded


class Flat:
    """Affine subspace of F^d in canonical (rref directions, reduced base) form."""

    __slots__ = ("field", "d", "base", "dirs", "_pivots", "_hash", "_ann",
                 "_basis")

    def __init__(self, field, d, base, dirs):
        self.field = field
        self.d = d
        red, pivots = linalg.rref(dirs, field, d) if dirs else ([], [])
        bp = list(base)
        for row, c in zip(red, pivots):
            f = bp[c]
            if not field.is_zero(f):
                bp = field.sub_scaled_row(bp, f, row)
        self.base = tuple(bp)
        self.dirs = tuple(red)
        self._pivots = tuple(pivots)
        self._hash = hash((field.key(), d, self.base, self.dirs))
        self._ann = self._basis = None

    @property
    def dim(self) -> int:
        return len(self.dirs)

    def contains(self, point) -> bool:
        v = list(linalg.vec_sub(point, self.base, self.field))
        for row, c in zip(self.dirs, self._pivots):
            f = v[c]
            if not self.field.is_zero(f):
                v = self.field.sub_scaled_row(v, f, row)
        return all(self.field.is_zero(a) for a in v)

    def coords_of_point(self, point):
        """Chart coordinates of a point on the flat (pivot-column reads)."""
        if not self.contains(point):
            raise ValueError("point not on flat")
        diff = linalg.vec_sub(point, self.base, self.field)
        return tuple(diff[c] for c in self._pivots)

    def coords_of_direction(self, vec):
        """Chart coordinates of a vector in the direction space."""
        return tuple(vec[c] for c in self._pivots)

    def direction_annihilator(self):
        """Cached basis of functionals vanishing on the direction space."""
        if self._ann is None:
            self._ann = annihilator(self.dirs, self.d, self.field)
        return self._ann

    def direction_basis(self):
        """Cached basis of the direction space in the canonical form of an
        intersection of direction spaces: the nullspace of the annihilator."""
        if self._basis is None:
            self._basis = _meet_rows(self.direction_annihilator(), self.d,
                                     self.field)
        return self._basis

    def equations(self):
        """(rows N, rhs) with the flat equal to {x : N x = rhs}."""
        normals = self.direction_annihilator()
        rhs = linalg.mat_vec(normals, self.base, self.field) if normals else ()
        return normals, rhs

    def apply_linear(self, matrix_rows) -> "Flat":
        """Image under a linear map given by rows (target_dim x d)."""
        nb = linalg.mat_vec(matrix_rows, self.base, self.field)
        nd = [linalg.mat_vec(matrix_rows, row, self.field) for row in self.dirs]
        return Flat(self.field, len(matrix_rows), nb, nd)

    def __eq__(self, other):
        return (isinstance(other, Flat) and self.field == other.field
                and self.d == other.d and self.base == other.base
                and self.dirs == other.dirs)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Flat(dim={self.dim}, d={self.d}, base={self.base})"

    def to_dict(self):
        f = self.field
        return {"basepoint": [f.fmt(x) for x in self.base],
                "directions": [[f.fmt(x) for x in row] for row in self.dirs]}

    @classmethod
    def from_dict(cls, field, d, data) -> "Flat":
        base = tuple(field.parse(x) for x in data["basepoint"])
        dirs = [tuple(field.parse(x) for x in row) for row in data["directions"]]
        if any(len(v) != d for v in (base, *dirs)):
            raise SizeMismatch(f"flat vectors must have length d={d}")
        return cls(field, d, base, dirs)


def annihilator(dir_rows, d, field):
    """Basis of the linear functionals vanishing on the row span."""
    if not dir_rows:
        return linalg.identity_rows(d, field)
    return linalg.nullspace(dir_rows, field, d)


def intersect_flats(flats: Sequence[Flat]) -> Optional[Flat]:
    """Canonical intersection of flats in one ambient space, or None if empty."""
    assert flats, "need at least one flat"
    field, d = flats[0].field, flats[0].d
    rows, rhs = [], []
    for fl in flats:
        assert fl.field == field and fl.d == d, "mismatched ambient space"
        n, r = fl.equations()
        rows.extend(n)
        rhs.extend(r)
    if not rows:
        return Flat(field, d, flats[0].base, linalg.identity_rows(d, field))
    particular = linalg.solve(rows, rhs, field)
    if particular is None:
        return None
    dirs = linalg.nullspace(rows, field, d)
    return Flat(field, d, particular, dirs)


# ---------------------------------------------------------------------------
# witness machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Columns v_1..v_d of the linear part of a witnessing affine map."""

    point: tuple
    columns: tuple  # d column vectors, each a length-d tuple


@dataclass(frozen=True)
class WitnessTuple:
    """A qualifying assignment edge -> flat instance at one point."""

    assignment: tuple[int, ...]  # per edge: index into the edge color's class
    witness: Witness


def _vertex_groups(h: Hypergraph):
    """The vertices grouped by their set of avoiding edges, in vertex order.

    Per group: (avoiding edge indices, vertex indices 0..d-1, dimension
    bound). A group's W_j lies in dir F_e for each avoiding edge e, so its
    dimension is at most d - |e| for the largest such edge (d when no edge
    avoids the group)."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for j in range(1, h.d + 1):
        avoiding = tuple(i for i, e in enumerate(h.edges) if j not in e)
        groups.setdefault(avoiding, []).append(j - 1)
    return [(edges, vertices,
             h.d - max((len(h.edges[i]) for i in edges), default=0))
            for edges, vertices in groups.items()]


def _meet_rows(constraints, d, field):
    """Basis of the vectors every constraint row vanishes on: a nullspace,
    whose basis is canonical, so equal row spaces give bit-identical bases."""
    return (linalg.nullspace(constraints, field, d) if constraints
            else linalg.identity_rows(d, field))


def _meet(flat_set, d, field, cache):
    """W basis for a set of flats, the intersection of their direction
    spaces: cached on the flat for one flat, in cache per flat set for more."""
    if len(flat_set) == 1:
        return next(iter(flat_set)).direction_basis()
    if flat_set not in cache:
        cache[flat_set] = _meet_rows([row for fl in flat_set
                                      for row in fl.direction_annihilator()],
                                     d, field)
    return cache[flat_set]


class _Span:
    """A subspace of F^d in reduced row echelon form: row i is 1 at
    pivots[i] and 0 at every other pivot, so a vector v reduces to
    v[c] - sum_i v[pivots[i]] * rows[i][c] on each free column c."""

    __slots__ = ("pivots", "rows", "free", "cols")

    def __init__(self, pivots, rows, d):
        self.pivots, self.rows = pivots, rows
        self.free = [c for c in range(d) if c not in pivots]
        self.cols = [[row[c] for row in rows] for c in self.free]

    def extend(self, basis, need, field) -> Optional["_Span"]:
        """The span of self and the rows of basis, or None when its
        dimension is below need."""
        if not self.free:
            return self
        # the rows of basis modulo self, on the free columns, brought to
        # reduced row echelon form among themselves
        new: list[tuple[int, list]] = []
        for v in basis:
            coeffs = [v[c] for c in self.pivots]
            x = [field.sub(v[c], field.dot(coeffs, col))
                 for c, col in zip(self.free, self.cols)]
            for t, y in new:
                if not field.is_zero(x[t]):
                    x = field.sub_scaled_row(x, x[t], y)
            t = next((t for t, a in enumerate(x) if not field.is_zero(a)), None)
            if t is None:
                continue
            x = field.scale_row(field.inv(x[t]), x)
            new = [(s, y if field.is_zero(y[t]) else
                    field.sub_scaled_row(y, y[t], x)) for s, y in new]
            new.append((t, x))
        rank = len(self.pivots) + len(new)
        if rank < need:
            return None
        d = len(self.free) + len(self.pivots)
        if rank == d:
            return _Span(tuple(range(d)), [], d)
        # lift: a new row is 0 at the old pivots; clear the old rows at the
        # new pivots
        lifted = []
        for t, x in new:
            u = [field.zero] * d
            for c, a in zip(self.free, x):
                u[c] = a
            lifted.append((self.free[t], u))
        rows = list(self.rows)
        for q, u in lifted:
            rows = [row if field.is_zero(row[q]) else
                    field.sub_scaled_row(row, row[q], u) for row in rows]
        return _Span(self.pivots + tuple(q for q, _ in lifted),
                     rows + [u for _, u in lifted], d)


def _sample_transversal(spaces, d, field, rng):
    cols = []
    for basis in spaces:
        v = [field.zero] * d
        for row in basis:
            t = field.rand(rng)
            if not field.is_zero(t):
                v = field.sub_scaled_row(v, field.neg(t), row)
        cols.append(tuple(v))
    return cols


def _sample_witness(point, spaces, d, field, rng) -> Optional[Witness]:
    """Up to DRAWS random transversals; the first invertible one, or None."""
    for _ in range(DRAWS):
        cols = _sample_transversal(spaces, d, field, rng)
        if not field.is_zero(linalg.det([list(row) for row in zip(*cols)], field)):
            return Witness(tuple(point), tuple(cols))
    return None


def _has_transversal(spaces, d, field) -> bool:
    """Rado: independent v_j in W_j exist iff dim(sum_{j in S} W_j) >= |S|
    for every vertex set S. Adding a vertex whose W_j is already in the sum
    raises |S| and not the dimension, so only unions of whole groups of
    vertices with equal W_j need a rank test."""
    groups: dict[tuple, int] = {}
    for basis in spaces:
        key = tuple(map(tuple, basis))
        groups[key] = groups.get(key, 0) + 1
    return all(
        linalg.rank([row for basis, _ in union for row in basis], field, d)
        >= sum(size for _, size in union)
        for k in range(1, len(groups) + 1)
        for union in itertools.combinations(groups.items(), k))


def witness_check(h: Hypergraph, point, flats: Sequence[Flat], *,
                  seed: int = 0) -> Optional[Witness]:
    """Decide whether (point, flats) forms a pattern joint; return a witness.

    flats is indexed like h.edges. Raises DimensionMismatch / PointNotOnFlat
    for malformed input; returns None exactly when no witness exists.
    """
    d = h.d
    for i, (e, fl) in enumerate(zip(h.edges, flats)):
        if fl.dim != d - len(e):
            raise DimensionMismatch(i, d - len(e), fl.dim)
        if not fl.contains(point):
            raise PointNotOnFlat(i)
    walk = _walk(h, point, flats[0].field, [[(0, fl)] for fl in flats],
                 random.Random(seed))
    return next((wit for _, wit in walk), None)


def _walk(h, point, field, candidates, rng):
    """Yield (assignment, witness) for each qualifying assignment, in product
    order over candidates[i], the (instance index, flat) pairs for edge i.

    Every candidate must contain the point and have dimension d - |e| for
    its edge. The walk assigns the edges in index order and prunes a
    partial assignment once some final W_j is zero or the final W_j plus
    the bounds of the unfinished groups cannot reach dimension d. At a leaf
    the W_j are nonzero and jointly span F^d; identical flat tuples share
    one witness, and all draws come from rng."""
    d, m = h.d, len(h.edges)
    spaces = [None] * d  # W_j of the current assignment, per vertex
    span = _Span((), [], d)
    groups = sorted(_vertex_groups(h), key=lambda g: g[0][-1:])
    pending = sum(bound for _, _, bound in groups)  # of the unfinished groups
    final_at = [[] for _ in range(m)]  # per edge: (edges, vertices, need)
    for edges, vertices, bound in groups:
        pending -= bound
        if edges:  # the span must reach d less what the later groups bring
            final_at[edges[-1]].append((edges, vertices, d - pending))
            continue
        basis = linalg.identity_rows(d, field)  # W = F^d whatever the flats
        for j in vertices:
            spaces[j] = basis
        span = span.extend(basis, d, field)
    cache: dict = {}
    flats = [None] * m
    assignment = [0] * m
    checked: dict[tuple, Optional[Witness]] = {}

    def extend(i, span):
        if i == m:
            key = tuple(flats)
            if key not in checked:
                wit = _sample_witness(point, spaces, d, field, rng)
                if wit is None and _has_transversal(spaces, d, field):
                    while wit is None:
                        wit = _sample_witness(point, spaces, d, field, rng)
                checked[key] = wit
            if checked[key] is not None:
                yield tuple(assignment), checked[key]
            return
        for k, fl in candidates[i]:
            assignment[i], flats[i] = k, fl
            sub = span
            for edges, vertices, need in final_at[i]:
                basis = _meet(frozenset(flats[e] for e in edges), d, field,
                              cache)
                sub = sub.extend(basis, need, field) if basis else None
                if sub is None:
                    break
                for j in vertices:
                    spaces[j] = basis
            else:
                yield from extend(i + 1, sub)

    return extend(0, span)


def _witnessed_assignments(h: Hypergraph, point, config, seed):
    """Yield (assignment, witness) for each qualifying flat-instance
    assignment at one point, in product order; identical canonical flat
    tuples share one witness check, and all checks draw from one rng."""
    if h.r > config.r:
        raise SizeMismatch(f"pattern has {h.r} colours, configuration "
                           f"{config.r} classes")
    for i, e in enumerate(h.edges):
        k = config.dims[h.colors[i] - 1]
        if k != h.d - len(e):
            raise DimensionMismatch(i, h.d - len(e), k)
    by_color: dict[int, list] = {}
    candidates = []
    for c in h.colors:
        if c not in by_color:  # edges of one colour share its class scan
            by_color[c] = [(k, fl) for k, fl in enumerate(config.classes[c - 1])
                           if fl.contains(point)]
        if not by_color[c]:
            return
        candidates.append(by_color[c])
    yield from _walk(h, point, config.field, candidates, random.Random(seed))


def enumerate_witness_tuples(h: Hypergraph, point, config, *,
                             seed: int = 0) -> list[WitnessTuple]:
    """All qualifying flat-instance assignments at one point (the set T_p).

    Multiset copies count as distinct instances; geometry is deduplicated so
    identical canonical tuples share one witness check. Raises CapExceeded
    when more than TUPLE_CAP qualifying tuples exist.
    """
    out: list[WitnessTuple] = []
    for assignment, wit in _witnessed_assignments(h, point, config, seed):
        out.append(WitnessTuple(tuple(assignment), wit))
        if len(out) > TUPLE_CAP:
            raise CapExceeded(TUPLE_CAP)
    return out


def has_witness_tuple(h: Hypergraph, point, config, *, seed: int = 0) -> bool:
    """Early-exit variant: is T_p nonempty?"""
    return any(True for _ in _witnessed_assignments(h, point, config, seed))


def candidate_points_from_flats(config, *, budget: int = 200000):
    """Zero-dimensional intersections of flat subsets of sizes 2..d, each
    point once, in the order of the first subset giving it (by size, then
    lexicographically in class order, identical copies merged).

    Subsets are built level by level: a live prefix is extended by each
    later flat in index order, and a prefix stays live while its
    intersection is nonempty and of positive dimension (a single flat is
    live at any dimension). A pruned subset meets in nothing or in a point
    already found, so the points and their order are those of intersecting
    every subset. `budget` bounds the intersections computed; one more
    raises BudgetExceeded.
    """
    flats = list(dict.fromkeys(fl for cls in config.classes for fl in cls))
    points = []
    seen = set()
    work = 0
    live = list(enumerate(flats))  # (index of the last flat, intersection)
    for _ in range(2, config.d + 1):  # subsets of 2..d flats
        grown = []
        for last, inter in live:
            for j in range(last + 1, len(flats)):
                work += 1
                if work > budget:
                    raise BudgetExceeded(budget)
                meet = intersect_flats([inter, flats[j]])
                if meet is None:
                    continue
                if meet.dim > 0:
                    grown.append((j, meet))
                elif meet.base not in seen:
                    seen.add(meet.base)
                    points.append(meet.base)
        live = grown
    return points


def detect_joints(h: Hypergraph, config, candidate_points=None, *,
                  budget: int = 200000, seed: int = 0):
    """Candidates with nonempty witness-tuple set, sorted canonically."""
    if candidate_points is None:
        candidate_points = candidate_points_from_flats(config, budget=budget)
    joints = [p for p in candidate_points
              if has_witness_tuple(h, p, config, seed=seed)]
    return sorted(set(joints))
