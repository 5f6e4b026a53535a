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

W_j depends only on the set of flats on edges avoiding j, and whether the
W_j jointly span F^d (needed for a transversal) only on which distinct spaces
occur, not on their order or repetition. So the space cache keys W_j on its
flat set and the spanning test on the set of those flat sets: assignments
that permute flats among same-colour edges share one rank computation.
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


class Flat:
    """Affine subspace of F^d in canonical (rref directions, reduced base) form."""

    __slots__ = ("field", "d", "base", "dirs", "_pivots", "_hash", "_ann")

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
        self._ann = None

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

    def point_at(self, coords):
        out = list(self.base)
        for t, row in zip(coords, self.dirs):
            if not self.field.is_zero(t):
                out = self.field.sub_scaled_row(out, self.field.neg(t), row)
        return tuple(out)

    def direction_annihilator(self):
        """Cached basis of functionals vanishing on the direction space."""
        if self._ann is None:
            self._ann = annihilator(self.dirs, self.d, self.field)
        return self._ann

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


def _avoiding_sets(h: Hypergraph, flats: Sequence[Flat]):
    """Per vertex j, the set of flats on edges avoiding j (which fixes W_j)."""
    return [frozenset(flats[i] for i, e in enumerate(h.edges) if j not in e)
            for j in range(1, h.d + 1)]


def _direction_spaces(avoiding, d, field, cache):
    """W_j bases for the flat sets in `avoiding`, cached per flat set."""
    for relevant in avoiding:
        if relevant not in cache:
            constraints = [row for fl in relevant
                           for row in fl.direction_annihilator()]
            cache[relevant] = (linalg.nullspace(constraints, field, d)
                               if constraints else linalg.identity_rows(d, field))
    return [cache[relevant] for relevant in avoiding]


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
    return _witness(h, point, flats, random.Random(seed), {})


def _witness(h, point, flats, rng, cache):
    """witness_check on input known to be well formed: every flat has the
    dimension its edge asks for and contains the point."""
    d = h.d
    field = flats[0].field
    avoiding = _avoiding_sets(h, flats)
    spaces = _direction_spaces(avoiding, d, field, cache)
    span_key = frozenset(avoiding)  # a set of flat sets, never a flat set
    if span_key not in cache:
        cache[span_key] = all(spaces) and linalg.rank(
            [row for basis in spaces for row in basis], field, d) == d
    if not cache[span_key]:
        return None  # some W_j is zero, or the W_j do not jointly span
    wit = _sample_witness(point, spaces, d, field, rng)
    if wit is None and _has_transversal(spaces, d, field):
        while wit is None:
            wit = _sample_witness(point, spaces, d, field, rng)
    return wit


def _witnessed_assignments(h: Hypergraph, point, config, seed):
    """Yield (assignment, witness) for each qualifying flat-instance
    assignment at one point, in product order; identical canonical flat
    tuples share one witness check, and all checks draw from one rng."""
    if h.r > config.r:
        raise SizeMismatch(f"pattern has {h.r} colours, configuration "
                           f"{config.r} classes")
    by_color: dict[int, list[int]] = {}
    candidates = []
    for c in h.colors:
        if c not in by_color:  # edges of one colour share its class scan
            by_color[c] = [k for k, fl in enumerate(config.classes[c - 1])
                           if fl.contains(point)]
        if not by_color[c]:
            return
        candidates.append(by_color[c])
    for i, e in enumerate(h.edges):
        k = config.dims[h.colors[i] - 1]
        if k != h.d - len(e):
            raise DimensionMismatch(i, h.d - len(e), k)
    rng = random.Random(seed)
    checked: dict[tuple, Optional[Witness]] = {}
    space_cache: dict = {}
    for assignment in itertools.product(*candidates):
        flats = tuple(config.classes[h.colors[i] - 1][k]
                      for i, k in enumerate(assignment))
        if flats not in checked:
            # every candidate contains the point and has its class's
            # dimension, so the core check runs without witness_check's
            # input checks
            checked[flats] = _witness(h, point, flats, rng, space_cache)
        if checked[flats] is not None:
            yield assignment, checked[flats]


def enumerate_witness_tuples(h: Hypergraph, point, config, *, cap: int = 10000,
                             seed: int = 0) -> list[WitnessTuple]:
    """All qualifying flat-instance assignments at one point (the set T_p).

    Multiset copies count as distinct instances; geometry is deduplicated so
    identical canonical tuples share one witness check. Raises CapExceeded
    when more than `cap` qualifying tuples exist.
    """
    out: list[WitnessTuple] = []
    for assignment, wit in _witnessed_assignments(h, point, config, seed):
        out.append(WitnessTuple(tuple(assignment), wit))
        if len(out) > cap:
            raise CapExceeded(cap)
    return out


def has_witness_tuple(h: Hypergraph, point, config, *, seed: int = 0) -> bool:
    """Early-exit variant: is T_p nonempty?"""
    return any(True for _ in _witnessed_assignments(h, point, config, seed))


def candidate_points_from_flats(config, *, budget: int = 200000):
    """Zero-dimensional intersections of flat subsets, up to a work budget."""
    flats = []
    for cls in config.classes:
        flats.extend(cls)
    # dedupe identical copies; geometry only matters here
    flats = list(dict.fromkeys(flats))
    d = config.d
    points = []
    seen = set()
    work = 0
    for size in range(2, d + 1):
        for combo in itertools.combinations(flats, size):
            work += 1
            if work > budget:
                raise BudgetExceeded(budget)
            inter = combo[0]
            for fl in combo[1:]:
                inter = intersect_flats([inter, fl])
                if inter is None:
                    break
            if inter is not None and inter.dim == 0:
                if inter.base not in seen:
                    seen.add(inter.base)
                    points.append(inter.base)
    return points


def detect_joints(h: Hypergraph, config, candidate_points=None, *,
                  budget: int = 200000, seed: int = 0):
    """Candidates with nonempty witness-tuple set, sorted canonically."""
    if candidate_points is None:
        candidate_points = candidate_points_from_flats(config, budget=budget)
    joints = [p for p in candidate_points
              if has_witness_tuple(h, p, config, seed=seed)]
    return sorted(set(joints))
