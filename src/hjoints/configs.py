"""Configuration builders: generic, projected, and axis-parallel families.

The generic family uses moment-curve hyperplanes: hyperplane i is
{x : x_1 + t_i x_2 ... } -- concretely normal (1, t_i, t_i^2, ..., t_i^(D-1))
and offset t_i^D for distinct field elements t_i. Every D x D minor of the
normal matrix is a Vandermonde determinant, so any D hyperplanes meet in
exactly one point and no D+1 share a point: a proof-backed general-position
certificate instead of a sampled one. Over small prime fields the
certificate is re-verified exhaustively.

Projected configurations cone the pattern by t vertices, build the generic
configuration in dimension d+t and push it down to F^d through a random
full-rank linear map; degeneracy (dimension drop, flat or point collision,
witness failure) is detected a posteriori and triggers resampling, up to a
retry cap. The generic builder is the same construction at t = 0 with
nothing projected, so both share one code path and the same checks.

Axis-parallel configurations encode nonnegative integer-valued functions
f_i on S^{I_i}: each value f_i(p_i) contributes that many copies of the
fiber flat over p_i. The point set is the support of the product, matching
the regime where the joint-count bounds specialize to discrete Hoelder.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from . import linalg
from .errors import (FieldTooSmall, GenericityFailure, NegativeValue,
                     SizeMismatch)
from .fields import GF, PrimeField, as_int, field_from_key
from .geometry import Flat, WitnessTuple, enumerate_witness_tuples, witness_check
from .hypergraph import Hypergraph


@dataclass
class JointsConfiguration:
    """Point set plus per-color flat multisets (lists; position = instance)."""

    field: object
    d: int
    dims: tuple[int, ...]                 # flat dimension per color
    classes: tuple[tuple[Flat, ...], ...]  # one tuple of instances per color
    points: tuple[tuple, ...]
    provenance: str = "custom"
    meta: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        for k, cls in zip(self.dims, self.classes):
            for fl in cls:
                if fl.dim != k:
                    raise SizeMismatch(
                        f"flat of dimension {fl.dim} in a class of dimension {k}")
                if fl.d != self.d or fl.field != self.field:
                    raise SizeMismatch("flat ambient mismatch")
        self._tuple_cache: dict = {}
        self._ledger_plans: dict = {}  # (h, n) -> vanishing._LedgerPlan

    @property
    def r(self) -> int:
        return len(self.classes)

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def tuples_at(self, h: Hypergraph, point_index: int) -> list[WitnessTuple]:
        """Cached witness-tuple enumeration for one stored point."""
        key = (h, point_index)
        if key not in self._tuple_cache:
            self._tuple_cache[key] = enumerate_witness_tuples(
                h, self.points[point_index], self)
        return self._tuple_cache[key]

    def flat_of(self, color: int, instance: int) -> Flat:
        return self.classes[color - 1][instance]

    def to_dict(self) -> dict:
        f = self.field
        return {
            "field": list(f.key()),
            "d": self.d,
            "provenance": self.provenance,
            "classes": [{"dim": k, "flats": [fl.to_dict() for fl in cls]}
                        for k, cls in zip(self.dims, self.classes)],
            "points": [[f.fmt(x) for x in p] for p in self.points],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JointsConfiguration":
        f = field_from_key(data["field"])
        d = as_int(data["d"])
        dims = tuple(as_int(c["dim"]) for c in data["classes"])
        classes = tuple(
            tuple(Flat.from_dict(f, d, fd) for fd in c["flats"])
            for c in data["classes"])
        points = tuple(tuple(f.parse(x) for x in p) for p in data["points"])
        if any(len(p) != d for p in points):
            raise SizeMismatch(f"points must have length d={d}")
        return cls(f, d, dims, classes, points,
                   provenance=data.get("provenance", "custom"))


@dataclass(frozen=True)
class HyperplaneFamily:
    """m hyperplanes {x : n_i . x = o_i} in F^D in certified general position."""

    field: object
    D: int
    normals: tuple[tuple, ...]
    offsets: tuple
    parameters: tuple  # the moment-curve parameters t_i
    certificate: str   # "vandermonde" or "exhaustive"

    @property
    def m(self) -> int:
        return len(self.normals)

    def intersection(self, labels: Sequence[int]) -> Optional[Flat]:
        """Canonical intersection of the labelled hyperplanes (0-based)."""
        rows = [list(self.normals[i]) for i in labels]
        rhs = [self.offsets[i] for i in labels]
        part = linalg.solve(rows, rhs, self.field)
        if part is None:
            return None
        dirs = linalg.nullspace(rows, self.field, self.D)
        return Flat(self.field, self.D, part, dirs)


def generic_hyperplanes(m: int, D: int, seed: int = 0,
                        field=None) -> HyperplaneFamily:
    """Moment-curve hyperplanes with distinct seed-derived parameters."""
    if field is None:
        field = GF()
    if not m >= D >= 1:
        raise SizeMismatch(f"need m >= D >= 1, got m={m}, D={D}")
    rng = random.Random(seed)
    if isinstance(field, PrimeField):
        if field.p <= m:
            raise FieldTooSmall(field.p, m)
        ts = rng.sample(range(field.p), m)
    else:
        ts = rng.sample(range(1, 64 * (m + 1)), m)
        ts = [field.from_int(t) for t in ts]
    normals = []
    offsets = []
    for t in ts:
        row = [field.one]
        for _ in range(D - 1):
            row.append(field.mul(row[-1], t))
        normals.append(tuple(row))
        offsets.append(field.mul(row[-1], t))
    certificate = "vandermonde"
    if isinstance(field, PrimeField) and field.p < (1 << 31):
        # small field: distinct parameters still certify, but re-verify
        for combo in itertools.combinations(range(m), D):
            rows = [list(normals[i]) for i in combo]
            if field.is_zero(linalg.det(rows, field)):
                raise GenericityFailure("vandermonde minor vanished")
        certificate = "exhaustive"
    return HyperplaneFamily(field, D, tuple(normals), tuple(offsets),
                            tuple(ts), certificate)


def _induced(host, h: Hypergraph, t: int, family: HyperplaneFamily,
             proj) -> JointsConfiguration:
    """One construction: flats from host-edge intersections in F^(d+t) and
    points from the vertex sets inducing the t-cone of h, pushed to F^d by
    the linear map `proj` (None: no map, so t must be 0). Raises
    GenericityFailure on any degeneracy."""
    from .extremal import _inducing_embeddings

    profile = h.validate_uniform_coloring()
    if family.D != h.d + t:
        raise SizeMismatch(f"family ambient {family.D} != d+t = {h.d + t}")
    if family.m < host.n:
        raise SizeMismatch("family has fewer hyperplanes than host vertices")
    field = family.field
    if proj is not None and linalg.rank(proj, field, family.D) != h.d:
        raise GenericityFailure("projection not full rank")
    flat_of = []  # per color: host edge -> flat
    for size, k in zip(profile.edge_sizes, profile.flat_dims):
        by_edge = {}
        for e in host.edge_tuples():
            if len(e) == size + t:
                fl = family.intersection([v - 1 for v in e])
                if proj is not None:
                    fl = fl.apply_linear(proj)
                if fl.dim != k:
                    raise GenericityFailure("flat lost dimension")
                by_edge[e] = fl
        if len(set(by_edge.values())) != len(by_edge):
            raise GenericityFailure("flats collided")
        flat_of.append(by_edge)
    cone_pat = h.cone(t)
    points = []
    for A, emb in _inducing_embeddings(host, cone_pat):
        fl = family.intersection([v - 1 for v in A])
        if fl is None or fl.dim != 0:
            raise GenericityFailure(f"vertex set {A} does not cut a point")
        p = fl.base if proj is None else linalg.mat_vec(proj, fl.base, field)
        order = sorted(A)
        flats = [flat_of[c - 1][tuple(sorted(order[emb[v] - 1] for v in e))]
                 for e, c in zip(cone_pat.edges, h.colors)]
        if witness_check(h, p, flats, seed=7) is None:
            raise GenericityFailure(f"witness failed at vertex set {A}")
        points.append(p)
    if len(set(points)) != len(points):
        raise GenericityFailure("two inducing sets produced one point")
    cfg = JointsConfiguration(
        field, h.d, profile.flat_dims,
        tuple(tuple(by_edge.values()) for by_edge in flat_of), tuple(points),
        provenance="generic" if proj is None else "projected")
    cfg.meta.update({"family": family, "host": host})
    return cfg


def generically_induced(host, h: Hypergraph,
                        family: HyperplaneFamily) -> JointsConfiguration:
    """Flats from host-edge intersections; points from inducing vertex sets."""
    return _induced(host, h, 0, family, None)


def projected_generically_induced(host, h: Hypergraph, t: int,
                                  family: HyperplaneFamily,
                                  projection_seed: int = 0, *,
                                  retries: int = 16,
                                  projection_override=None) -> JointsConfiguration:
    """Generic configuration in F^(d+t) pushed down to F^d; resample on
    any degeneracy (dimension drop, collision, witness failure). A fixed
    projection (an override, or none at t = 0) gets one attempt, and its
    GenericityFailure propagates."""
    if projection_override is not None or t == 0:
        cfg = _induced(host, h, t, family, projection_override)
        cfg.meta.update({"projection": projection_override, "t": t,
                         "attempts": 1})
        return cfg
    field = family.field
    rng = random.Random(projection_seed)
    last_error = "no attempt"
    for attempt in range(retries):
        proj = [tuple(field.rand(rng) for _ in range(family.D))
                for _ in range(h.d)]
        try:
            cfg = _induced(host, h, t, family, proj)
        except GenericityFailure as exc:
            last_error = str(exc)
            continue
        cfg.meta.update({"projection": proj, "t": t, "attempts": attempt + 1})
        return cfg
    raise GenericityFailure(
        f"no generic projection found in {retries} attempts: {last_error}")


def axis_parallel_from_functions(d: int, subsets, functions, s: int,
                                 field=None) -> JointsConfiguration:
    """f_i(p_i) copies of the fiber flat over each p_i in S^{I_i}.

    subsets: proper nonempty subsets of 1..d (one color each, in order);
    functions: one dict per subset mapping value tuples (over range(s)) to
    nonnegative integers, missing keys meaning zero.
    """
    if field is None:
        field = GF()
    if isinstance(field, PrimeField) and field.p <= s:
        raise FieldTooSmall(field.p, s)
    subsets = [tuple(sorted(I)) for I in subsets]
    for I in subsets:
        if not I or len(I) >= d or I[0] < 1 or I[-1] > d:
            raise SizeMismatch(f"subset {I} must be a proper nonempty subset of 1..{d}")
    ground = [field.from_int(v) for v in range(s)]
    classes = []
    dims = []
    for I, f in zip(subsets, functions):
        flats = []
        for values in itertools.product(range(s), repeat=len(I)):
            count = int(f.get(values, 0))
            if count < 0:
                raise NegativeValue(f"f at {values}", count)
            if count == 0:
                continue
            base = [field.zero] * d
            for pos, v in zip(I, values):
                base[pos - 1] = ground[v]
            dirs = [tuple(field.one if k == j - 1 else field.zero
                          for k in range(d))
                    for j in range(1, d + 1) if j not in I]
            fl = Flat(field, d, tuple(base), dirs)
            flats.extend([fl] * count)
        classes.append(tuple(flats))
        dims.append(d - len(I))
    points = []
    for grid in itertools.product(range(s), repeat=d):
        ok = True
        for I, f in zip(subsets, functions):
            if int(f.get(tuple(grid[j - 1] for j in I), 0)) < 1:
                ok = False
                break
        if ok:
            points.append(tuple(ground[v] for v in grid))
    cfg = JointsConfiguration(field, d, tuple(dims), tuple(classes),
                              tuple(points), provenance="axis-parallel")
    cfg.meta.update({"subsets": subsets, "s": s})
    return cfg


def axis_parallel_pattern(d: int, subsets) -> Hypergraph:
    """The rainbow-colored pattern whose edges are the given subsets."""
    return Hypergraph.from_subsets(d, subsets)
