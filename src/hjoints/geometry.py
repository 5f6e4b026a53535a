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

(W_j is the whole space when j lies in every edge). Any such A is a
witness, and the decision is exact. A family whose W_j are not all nonzero,
or do not jointly span F^d, has no transversal. Where the W_j form a direct
sum (below), the stacked bases are the witness. Otherwise DRAWS random
transversals are tried; the first invertible one is the witness. Only when
every draw is singular does Rado's rank condition decide: independent v_j
in W_j exist iff dim(sum_{j in S} W_j) >= |S| for every vertex set S
(R. Rado, "A theorem on independence relations", 1942). If it holds,
drawing continues until a witness is found; the determinant is multilinear
in (v_1..v_d), so each draw succeeds with probability at least (1 - 1/p)^d
over GF(p). The draws come first because one rank test of the d columns
settles almost every joint, while the rank condition costs up to 2^g - 1
rank tests for g distinct W_j.

Enumeration is a depth-first walk over the edges in index order, which
visits complete assignments in product order. Vertices with the same set of
avoiding edges form a group with one W_j, fixed by the pattern (the walk
plan, made once per pattern); the group's W_j is final once the last edge
of its set is assigned. It is the nullspace of the direction annihilators
of the flats it intersects, whose basis is canonical, so equal flat sets
give bit-identical spaces; it is cached on the flat for a single flat and
per walk for a set of several. A final W_j that is zero ends the branch.
Otherwise it is added to a span carried down the walk, and the branch ends
when the span's dimension plus, for each unfinished group, the smallest
d - |e| over its avoiding edges (a bound on its dimension) falls below d.

The spans live in a memo that the configuration keeps for every walk over
its flats, at every point and under every pattern. Each span kept is
interned under a small id by its reduced row echelon form, and each
extension of a span by the W of a flat set is memoised on (span id, flat
set), as the id of the span reached or, where its dimension fell short of
the branch's need, only that dimension. The RREF is the whole state of an
extension, and d and the field are the configuration's, so that key decides
the answer exactly, for a walk that starts from F^d too. Many flat pairs
span one space and a flat passes through several points, so each span is
built once per configuration, not once per walk. A kept dimension is not a
verdict: when one flat fills two edges, a set comes back at another group
with another need, and where a kept dimension meets the smaller need the
span is built after all. Within one walk the span depends only on the set
of the final flat sets, not on the order in which the edges chose them, so
the walk first looks an extension up under that set, and (F0, F1) and
(F1, F0) share one build. The candidates that survive at an edge depend
only on the depth, the span and the earlier flats that the depth's groups
read, so the walk finds them once per such triple and iterates over those
alone. At a leaf every W_j is nonzero and the span is F^d, which is the
spanning filter itself. Pruned branches hold only assignments that fail
that filter, which never draw, so the witnesses and their rng draws are
those of a loop over every assignment in product order; identical flat
tuples share one check, and the rng is seeded at the first leaf that
draws. witness_check is the same walk with one candidate per edge and a
memo of its own. The walk keeps its state in lists indexed by depth, not
in a recursive closure, so nothing it holds outlives it in a reference
cycle waiting for the collector.

At a leaf where every group's W_j has dimension equal to the group's size,
the W_j, which span F^d, form a direct sum, so the stacked bases of the W_j
are a basis of F^d: the i-th vertex of a group takes row i of the group's
basis, with no draw and no rank test. Any other leaf, such as one with a
group whose W_j is F^d, draws as above. Every rank here is found by linalg's
cross-multiplied elimination, which takes no field inverse; rows are
normalised only for a span that is kept below rank d.
"""

from __future__ import annotations

import functools
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
                 "_eqs", "_basis")

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
        self._ann = self._eqs = self._basis = None

    @property
    def dim(self) -> int:
        return len(self.dirs)

    def contains(self, point) -> bool:
        """Whether the point satisfies each equation normal . x = rhs of
        the flat (see equations), cached on first use; exact over Q and
        GF(p). The full space has no equations and contains every point."""
        if self._eqs is None:
            self._eqs = tuple(zip(*self.equations()))
        dot = self.field.dot
        return all(dot(normal, point) == rhs for normal, rhs in self._eqs)

    def coords_of_point(self, point):
        """Chart coordinates of a point on the flat (pivot-column reads)."""
        if not self.contains(point):
            raise ValueError("point not on flat")
        return self.coords_of_direction(
            linalg.vec_sub(point, self.base, self.field))

    def coords_of_direction(self, vec):
        """Chart coordinates of a vector in the direction space."""
        return tuple(vec[c] for c in self._pivots)

    def direction_annihilator(self):
        """Cached basis of functionals vanishing on the direction space,
        read off the reduced directions: their nullspace."""
        if self._ann is None:
            self._ann = linalg.null_basis(self.dirs, self._pivots, self.field,
                                          self.d)
        return self._ann

    def direction_basis(self):
        """Cached basis of the direction space in the canonical form of an
        intersection of direction spaces: the nullspace of the annihilator."""
        if self._basis is None:
            self._basis = linalg.nullspace(self.direction_annihilator(),
                                           self.field, self.d)
        return self._basis

    def equations(self):
        """(rows N, rhs) with the flat equal to {x : N x = rhs}."""
        normals = self.direction_annihilator()
        return normals, linalg.mat_vec(normals, self.base, self.field)

    @classmethod
    def from_equations(cls, field, d, rows, rhs) -> Optional[Flat]:
        """The flat {x in F^d : rows x = rhs}, or None if it is empty."""
        solved = linalg.affine_solve(rows, rhs, field, d)
        return None if solved is None else cls(field, d, *solved)

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
    return Flat.from_equations(field, d, rows, rhs)


# ---------------------------------------------------------------------------
# witness machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Columns v_1..v_d of the linear part of a witnessing affine map."""

    point: tuple
    columns: tuple  # d column vectors, each a length-d tuple


@dataclass(frozen=True, slots=True)
class WitnessTuple:
    """A qualifying assignment edge -> flat instance at one point.

    assignment: per edge, an index into the edge color's class; flats: per
    edge, the flat it names."""

    assignment: tuple
    flats: tuple
    witness: Witness


@functools.cache
def _walk_plan(h: Hypergraph):
    """What the walk reads of the pattern, which fixes its vertex groups.

    A group is the vertices with one set of avoiding edges; its W_j lies in
    dir F_e for each avoiding edge e, so its dimension is at most d - |e|
    for the largest such edge. Returns the groups' vertex indices 0..d-1 in
    the order they become final; per edge, the (avoiding edges, vertices,
    need) of the groups final there, where the need is d less the bounds of
    the groups final later, and the earlier edges their flat sets read; and
    the vertices no edge avoids, whose W is F^d."""
    d, m = h.d, len(h.edges)
    groups: dict[tuple[int, ...], list[int]] = {}
    for j in range(1, d + 1):
        avoiding = tuple([i for i, e in enumerate(h.edges) if j not in e])
        groups.setdefault(avoiding, []).append(j - 1)
    order = [(edges, tuple(vertices)) for edges, vertices in
             sorted(groups.items(), key=lambda g: g[0][-1:])]
    bounds = [d - max([len(h.edges[i]) for i in edges], default=0)
              for edges, _ in order]
    pending = sum(bounds)  # of the groups not yet final
    final_at = [[] for _ in range(m)]
    everywhere = []
    for (edges, vertices), bound in zip(order, bounds):
        pending -= bound
        if edges:
            final_at[edges[-1]].append((edges, vertices, d - pending))
        else:
            everywhere = vertices
    reads = [tuple(sorted({e for edges, _, _ in final for e in edges[:-1]}))
             for final in final_at]
    # tuples throughout: every walk over the pattern shares them
    return (tuple(vertices for _, vertices in order),
            tuple(map(tuple, final_at)), tuple(reads), tuple(everywhere))


def _meet(flat_set, d, field, cache):
    """W basis for a flat set keyed as _set_key keys it, the intersection
    of their direction spaces: the nullspace of their annihilators, whose
    basis is canonical, so equal flat sets give bit-identical spaces. Cached
    on the flat for one flat, in cache per flat set for more."""
    if type(flat_set) is Flat:
        return flat_set.direction_basis()
    if flat_set not in cache:
        cache[flat_set] = linalg.nullspace(
            [row for fl in flat_set for row in fl.direction_annihilator()],
            field, d)
    return cache[flat_set]


class _Span:
    """A subspace of F^d in reduced row echelon form, rows in pivot order:
    row i is 1 at pivots[i] and 0 at every other pivot, so a vector v
    reduces to v[c] - sum_i v[pivots[i]] * rows[i][c] on each free column
    c."""

    __slots__ = ("pivots", "rows", "free", "cols")

    def __init__(self, pivots, rows, d):
        self.pivots, self.rows = pivots, rows
        self.free = [c for c in range(d) if c not in pivots]
        self.cols = None  # per free column, the rows' entries, on first use

    def extend(self, basis, need, field) -> "_Span | int":
        """The span of self and the rows of basis, or only its dimension
        when that is below need. The rank is found without inverses; rows
        are normalised only for a span that is kept below d."""
        if not self.free:
            return self
        # the rows of basis modulo self, on the free columns (all of them
        # when self is zero)
        reduced = basis
        if self.pivots:
            if self.cols is None:
                self.cols = [[row[c] for row in self.rows] for c in self.free]
            reduced = []
            for v in basis:
                coeffs = [v[c] for c in self.pivots]
                reduced.append([field.sub(v[c], field.dot(coeffs, col))
                                for c, col in zip(self.free, self.cols)])
        new = linalg._echelon(reduced, field)
        rank = len(self.pivots) + len(new)
        if rank < need:
            return rank
        d = len(self.free) + len(self.pivots)
        if rank == d:
            return _Span(tuple(range(d)), (), d)
        # each echelon row is a nonzero multiple of its reduction modulo
        # the rows before it in reduced form (both vanish at their pivots),
        # so normalising it and clearing its pivot from those rows gives
        # the reduced row echelon form
        red: list[tuple[int, list]] = []
        for t, x in new:
            x = field.scale_row(field.inv(x[t]), x)
            red = [(s, y if field.is_zero(y[t]) else
                    field.sub_scaled_row(y, y[t], x)) for s, y in red]
            red.append((t, x))
        # lift: a new row is 0 at the old pivots; clear the old rows at the
        # new pivots
        rows = list(zip(self.pivots, self.rows))
        for t, x in red:
            q = self.free[t]
            u = [field.zero] * d
            for c, a in zip(self.free, x):
                u[c] = a
            rows = [(s, y if field.is_zero(y[q]) else
                     field.sub_scaled_row(y, y[q], u)) for s, y in rows]
            rows.append((q, u))
        rows.sort()
        return _Span(tuple(q for q, _ in rows),
                     tuple(tuple(y) for _, y in rows), d)


class _SpanMemo:
    """The spans that witness walks in one ambient space keep, each
    interned under a small id by its RREF, and their extensions by the W of
    a flat set, memoised on (span id, flat set), where a flat stands for a
    one-flat set and the empty set for F^d. The RREF is the whole state of
    an extension, and d and the field are fixed, so that key decides it:
    the memo holds the id of the span reached, or ~rank where the rank fell
    below the need it was asked for, which a later, smaller need extends
    after all. A configuration keeps one for every walk over its flats,
    whatever the pattern; witness_check makes a fresh one per call."""

    __slots__ = ("field", "spans", "ranks", "ext", "ids", "zero")

    def __init__(self, field, d):
        self.field = field
        # per id: its span, the span's dimension and its extensions (flat
        # set -> id, or ~rank)
        self.spans: list[_Span] = []
        self.ranks: list[int] = []
        self.ext: list[dict] = []
        self.ids: dict = {}  # RREF rows by pivot (None for F^d) -> id
        self.zero = self._intern(_Span((), (), d))

    def _intern(self, span) -> int:
        key = span.rows if span.free else None
        sid = self.ids.get(key)
        if sid is None:
            sid = self.ids[key] = len(self.spans)
            self.spans.append(span)
            self.ranks.append(len(span.pivots))
            self.ext.append({})
        return sid

    def extend(self, sid, flat_set, basis, need) -> int:
        """The id of span sid plus the rows of basis, the W of flat_set,
        or ~rank when that rank is below need; a span kept for the key at a
        smaller need comes back as its id whatever its rank, so the caller
        compares ranks[id] with its need."""
        ext = self.ext[sid]
        got = ext.get(flat_set)
        if got is None or (got < 0 and ~got >= need):
            span = self.spans[sid].extend(basis, need, self.field)
            got = ext[flat_set] = (~span if type(span) is int
                                   else self._intern(span))
        return got


def _combine(basis, coeffs, d, field):
    v = [field.zero] * d
    for row, t in zip(basis, coeffs):
        if not field.is_zero(t):
            v = field.sub_scaled_row(v, field.neg(t), row)
    return tuple(v)


def _sample_witness(point, spaces, d, field, rng) -> Optional[Witness]:
    """Up to DRAWS random transversals; the first invertible one, or None."""
    for _ in range(DRAWS):
        cols = tuple(_combine(basis, [field.rand(rng) for _ in basis], d,
                              field) for basis in spaces)
        if len(linalg._echelon(cols, field)) == d:
            return Witness(tuple(point), cols)
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
        linalg.rank([row for basis, _ in union for row in basis], field)
        >= sum(size for _, size in union)
        for k in range(1, len(groups) + 1)
        for union in itertools.combinations(groups.items(), k))


def witness_check(h: Hypergraph, point, flats: Sequence[Flat], *,
                  seed: int = 0) -> Optional[Witness]:
    """Decide whether (point, flats) forms a pattern joint; return a witness.

    flats is indexed like h.edges. Raises DimensionMismatch / PointNotOnFlat
    for malformed input; returns None exactly when no witness exists.
    """
    return next((wt.witness for wt in _flat_walk(h, point, flats, seed)),
                None)


def _flat_walk(h, point, flats, seed):
    """The walk over one candidate per edge, after checking its input."""
    d = h.d
    for i, (e, fl) in enumerate(zip(h.edges, flats)):
        if fl.dim != d - len(e):
            raise DimensionMismatch(i, d - len(e), fl.dim)
        if not fl.contains(point):
            raise PointNotOnFlat(i)
    field = flats[0].field
    return _walk(h, point, field, [[(0, fl)] for fl in flats], seed,
                 _SpanMemo(field, d))


def _set_key(flats):
    """The key of a flat set: the flat itself for one flat."""
    fs = frozenset(flats)
    return next(iter(fs)) if len(fs) == 1 else fs


def _walk(h, point, field, candidates, seed, spans):
    """Yield a WitnessTuple for each qualifying assignment, in product
    order over candidates[i], the (instance index, flat) pairs for edge i.

    Every candidate must contain the point and have dimension d - |e| for
    its edge. The walk assigns the edges in index order and prunes a
    partial assignment once some final W_j is zero or the final W_j plus
    the bounds of the unfinished groups cannot reach dimension d. At a leaf
    the W_j are nonzero and jointly span F^d; identical flat tuples share
    one witness and one tuple of flats. A direct-sum leaf's witness is the
    stacked bases; any other leaf draws from one random.Random(seed), made
    at the first such leaf.
    spans is the _SpanMemo of the ambient space."""
    d, m = h.d, len(h.edges)
    members, final_at, reads, everywhere = _walk_plan(h)
    spaces = [None] * d  # W_j of the current assignment, per vertex
    sid = spans.zero
    if everywhere:
        basis = linalg.identity_rows(d, field)  # W = F^d whatever the flats
        for j in everywhere:
            spaces[j] = basis
        sid = spans.extend(sid, frozenset(), basis, d)
    cache: dict = {}
    # the final W_j sum to a span that depends only on the set of their flat
    # sets: per set, what the span memo gave for it
    memo: dict[frozenset, int] = {}
    # per (depth, span id, flats read there): its surviving candidates
    survivors: dict[tuple, list] = {}
    flats = [None] * m
    assignment = [0] * m
    checked: dict[tuple, Optional[Witness]] = {}  # per flat tuple
    rng = None
    # per depth i: the span id and key of edges 0..i-1, the surviving
    # candidates and the next of them
    sid_at = [sid] + [None] * m
    key_at = [frozenset()] + [None] * m
    live = [None] * m
    nxt = [0] * m
    i = 0
    while i >= 0:
        if i == m:
            key = tuple(flats)
            if key not in checked:
                # the W_j span F^d here, so with dim W_j = |group| for every
                # group they form a direct sum: their stacked bases are a
                # basis of F^d, row i of a group's basis for its i-th vertex
                if all([len(spaces[g[0]]) == len(g) for g in members]):
                    cols = [None] * d
                    for g in members:
                        for j, row in zip(g, spaces[g[0]]):
                            cols[j] = row
                    wit = Witness(tuple(point), tuple(cols))
                else:
                    if rng is None:
                        rng = random.Random(seed)
                    wit = _sample_witness(point, spaces, d, field, rng)
                    if wit is None and _has_transversal(spaces, d, field):
                        while wit is None:
                            wit = _sample_witness(point, spaces, d, field, rng)
                checked[key] = wit
            if checked[key] is not None:
                yield WitnessTuple(tuple(assignment), key, checked[key])
            i -= 1
            continue
        if not nxt[i]:  # entering depth i
            state = (i, sid_at[i], *[flats[e] for e in reads[i]])
            live[i] = survivors.get(state)
            if live[i] is None:
                live[i] = survivors[state] = _survivors(
                    candidates[i], final_at[i], flats, i, sid_at[i],
                    key_at[i], spans, memo, cache, d, field)
        if nxt[i] == len(live[i]):
            nxt[i] = 0
            i -= 1
            continue
        assignment[i], flats[i], sub, sets, filled = live[i][nxt[i]]
        nxt[i] += 1
        for vertices, basis in filled:
            for j in vertices:
                spaces[j] = basis
        i += 1
        sid_at[i] = sub
        if i < m:
            key_at[i] = key_at[i - 1].union(sets)


def _survivors(candidates, final, flats, i, sid, key, spans, memo, cache, d,
               field):
    """The candidates for edge i that the walk does not prune there, given
    the span id and key of edges 0..i-1 and their flats: per candidate, its
    instance index and flat, the span id after it, the flat sets it adds to
    the key, and the (vertices, W) it makes final."""
    out = []
    for index, fl in candidates:
        flats[i] = fl
        sub, sets_key, sets, filled = sid, key, [], []
        for edges, vertices, need in final:
            flat_set = fl if len(edges) == 1 else _set_key(
                [flats[e] for e in edges])
            basis = _meet(flat_set, d, field, cache)
            if not basis:
                break
            sets.append(flat_set)
            sets_key = sets_key | {flat_set}
            got = memo.get(sets_key)
            if got is None or (got < 0 and ~got >= need):
                got = memo[sets_key] = spans.extend(sub, flat_set, basis,
                                                    need)
            if got < 0 or spans.ranks[got] < need:
                break
            sub = got
            filled.append((vertices, basis))
        else:
            out.append((index, fl, sub, sets, filled))
    return out


def _witnessed_assignments(h: Hypergraph, point, config, seed):
    """Yield a WitnessTuple for each qualifying flat-instance assignment at
    one point, in product order; identical canonical flat tuples share one
    witness check, and all checks draw from one rng."""
    if h.r > config.r:
        raise SizeMismatch(f"pattern has {h.r} colours, configuration "
                           f"{config.r} classes")
    if h.d != config.d:
        raise SizeMismatch(f"pattern has d = {h.d}, configuration d = "
                           f"{config.d}")
    for i, e in enumerate(h.edges):
        k = config.dims[h.colors[i] - 1]
        if k != h.d - len(e):
            raise DimensionMismatch(i, h.d - len(e), k)
    incidence = config.incidence(point)
    candidates = [incidence[c - 1] for c in h.colors]
    if all(candidates):
        yield from _walk(h, point, config.field, candidates, seed,
                         config._spans)


def enumerate_witness_tuples(h: Hypergraph, point, config, *,
                             seed: int = 0) -> list[WitnessTuple]:
    """All qualifying flat-instance assignments at one point (the set T_p).

    Multiset copies count as distinct instances; geometry is deduplicated so
    identical canonical tuples share one witness check. Raises CapExceeded
    when more than TUPLE_CAP qualifying tuples exist.
    """
    out: list[WitnessTuple] = []
    for wt in _witnessed_assignments(h, point, config, seed):
        out.append(wt)
        if len(out) > TUPLE_CAP:
            raise CapExceeded(TUPLE_CAP)
    return out


def has_witness_tuple(h: Hypergraph, point, config) -> bool:
    """Early-exit variant: is T_p nonempty? The answer is exact whatever
    witness a draw finds, so no seed is taken."""
    return any(True for _ in _witnessed_assignments(h, point, config, 0))


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
                  budget: int = 200000):
    """Candidates with nonempty witness-tuple set, sorted canonically."""
    if candidate_points is None:
        candidate_points = candidate_points_from_flats(config, budget=budget)
    joints = [p for p in candidate_points if has_witness_tuple(h, p, config)]
    return sorted(set(joints))
