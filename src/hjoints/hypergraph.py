"""Edge-colored multi-hypergraphs, covering weights, and the covering constant.

Conventions
-----------
Vertices are 1..d with d <= 64; an edge is a nonempty vertex subset of size
at most d-1 (stored as a sorted tuple, with a bitmask cached for subset
tests). Colors are 1..r. A coloring is *uniform* when every color class is
a nonempty simple hypergraph with one edge size; the same edge may repeat
under different colors, never within one.

An edge of size d-k stands for a k-dimensional flat: the coordinate
subspace spanned by the unit vectors of the vertices NOT in the edge.
Keeping that correspondence in one place (UniformityProfile) lets the
geometry layer stay free of edge bookkeeping.

Weights are exact rationals. For a covering weight w the quantity

    C = d!^(|w|-1) * prod_i (1/k_i!)^(wbar_i) * prod_e (w(e)/wbar_i)^w(e)

is the constant in the joint-count bounds; it is irrational in general, so
covering_constant returns log2 C exactly (logspace.Log2Value): every
inequality on it is decided by Log2Value.sign(), and pow2_float() gives the
float that is reported. The zero-weight convention is
(w(e)/wbar_i)^w(e) = 1 when w(e) = 0, even if wbar_i = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (DuplicateEdge, EmptyColor, MixedUniformity, NotCovering)
from .fields import as_int
from .logspace import Log2Value

MAX_VERTICES = 64


def _mask(edge) -> int:
    m = 0
    for v in edge:
        m |= 1 << (v - 1)
    return m


@dataclass(frozen=True)
class UniformityProfile:
    """Per color: edge size d - k_i and flat dimension k_i."""

    d: int
    edge_sizes: tuple[int, ...]
    flat_dims: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.edge_sizes)


@dataclass(frozen=True)
class Hypergraph:
    """Edge-colored multi-hypergraph on vertices 1..d."""

    d: int
    edges: tuple[tuple[int, ...], ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.d <= MAX_VERTICES:
            raise ValueError(f"need 1 <= d <= {MAX_VERTICES}, got {self.d}")
        object.__setattr__(self, "edges",
                           tuple(tuple(sorted(set(e))) for e in self.edges))
        object.__setattr__(self, "colors", tuple(as_int(c) for c in self.colors))
        if len(self.edges) != len(self.colors):
            raise ValueError("one color per edge required")
        if not self.edges:
            raise ValueError("at least one edge required")
        for e in self.edges:
            if not e or len(e) > self.d - 1:
                raise ValueError(f"edge {e} must have size in [1, d-1]")
            if e[0] < 1 or e[-1] > self.d:
                raise ValueError(f"edge {e} not inside 1..{self.d}")
        r = max(self.colors)
        if min(self.colors) < 1:
            raise ValueError("colors must be integers >= 1")
        object.__setattr__(self, "_r", r)
        object.__setattr__(self, "_masks", tuple(_mask(e) for e in self.edges))

    # -- basic structure ---------------------------------------------------

    @property
    def r(self) -> int:
        return self._r

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def color_classes(self) -> dict[int, tuple[int, ...]]:
        """color -> tuple of edge indices, in declared order."""
        out: dict[int, list[int]] = {c: [] for c in range(1, self.r + 1)}
        for idx, c in enumerate(self.colors):
            out[c].append(idx)
        return {c: tuple(v) for c, v in out.items()}

    def edges_containing(self, vertex: int) -> tuple[int, ...]:
        bit = 1 << (vertex - 1)
        return tuple(i for i, m in enumerate(self._masks) if m & bit)

    def degree(self, vertex: int) -> int:
        return len(self.edges_containing(vertex))

    # -- operations --------------------------------------------------------

    def validate_uniform_coloring(self) -> UniformityProfile:
        """Check each color class is nonempty, simple, and one-size."""
        sizes = []
        for c, idxs in self.color_classes().items():
            if not idxs:
                raise EmptyColor(c)
            class_sizes = {len(self.edges[i]) for i in idxs}
            if len(class_sizes) > 1:
                raise MixedUniformity(c, class_sizes)
            seen = set()
            for i in idxs:
                if self.edges[i] in seen:
                    raise DuplicateEdge(c, self.edges[i])
                seen.add(self.edges[i])
            sizes.append(class_sizes.pop())
        return UniformityProfile(self.d, tuple(sizes),
                                 tuple(self.d - s for s in sizes))

    def cone(self, t: int) -> "Hypergraph":
        """Adjoin t fresh vertices to the vertex set and to every edge."""
        if t < 0:
            raise ValueError("t must be non-negative")
        if t == 0:
            return self
        extra = tuple(range(self.d + 1, self.d + t + 1))
        return Hypergraph(self.d + t,
                          tuple(e + extra for e in self.edges), self.colors)

    # -- constructors ------------------------------------------------------

    @classmethod
    def complete_uniform(cls, d: int, size: int, colors=None) -> "Hypergraph":
        """K_d^(size): all size-subsets of [d], one color unless given."""
        edges = list(itertools.combinations(range(1, d + 1), size))
        if colors is None:
            colors = [1] * len(edges)
        return cls(d, tuple(edges), tuple(colors))

    @classmethod
    def cycle(cls, d: int) -> "Hypergraph":
        edges = [(i, i % d + 1) for i in range(1, d + 1)]
        return cls(d, tuple(tuple(sorted(e)) for e in edges), (1,) * d)

    @classmethod
    def from_subsets(cls, d: int, subsets) -> "Hypergraph":
        """One edge per subset, each with its own color (rainbow coloring)."""
        edges = tuple(tuple(sorted(s)) for s in subsets)
        return cls(d, edges, tuple(range(1, len(edges) + 1)))

    def to_dict(self) -> dict:
        return {"d": self.d, "edges": [list(e) for e in self.edges],
                "colors": list(self.colors)}

    @classmethod
    def from_dict(cls, data: dict) -> "Hypergraph":
        h = cls(as_int(data["d"]), tuple(tuple(e) for e in data["edges"]),
                tuple(data["colors"]))
        if h.r > h.n_edges:  # a class is empty, and r lists would be built
            raise ValueError(f"colors must lie in 1..{h.n_edges}, got {h.r}")
        return h


@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative rational edge weights bound to a hypergraph."""

    weights: tuple[Fraction, ...]
    total: Fraction
    subtotals: tuple[Fraction, ...]
    covering: bool
    vertex_loads: tuple[Fraction, ...] = field(repr=False)

    @classmethod
    def for_hypergraph(cls, h: Hypergraph, weights) -> "WeightFunction":
        ws = tuple(Fraction(w) for w in weights)
        if len(ws) != h.n_edges:
            raise ValueError("one weight per edge required")
        for w in ws:
            if w < 0:
                raise ValueError(f"negative weight {w}")
        subtotals = []
        for c, idxs in h.color_classes().items():
            subtotals.append(sum((ws[i] for i in idxs), Fraction(0)))
        loads = tuple(
            sum((ws[i] for i in h.edges_containing(j)), Fraction(0))
            for j in range(1, h.d + 1))
        return cls(ws, sum(ws, Fraction(0)), tuple(subtotals),
                   all(load >= 1 for load in loads), loads)

    def require_covering(self) -> None:
        """Raise NotCovering at the first vertex whose load is below 1."""
        if not self.covering:
            bad, load = next((j, load) for j, load
                             in enumerate(self.vertex_loads, 1) if load < 1)
            raise NotCovering(bad, load)

    @classmethod
    def uniform(cls, h: Hypergraph, value) -> "WeightFunction":
        return cls.for_hypergraph(h, [Fraction(value)] * h.n_edges)

    def to_dict(self) -> dict:
        return {"weights": [str(w) for w in self.weights]}


def covering_constant(h: Hypergraph, w: WeightFunction) -> Log2Value:
    """Exact log2 of d!^(|w|-1) prod_i (1/k_i!)^wbar_i prod_e (w/wbar)^w."""
    w.require_covering()
    profile = h.validate_uniform_coloring()
    log2 = Log2Value.of_factorial_log(h.d, w.total - 1)
    classes = h.color_classes()
    for c in range(1, h.r + 1):
        wbar = w.subtotals[c - 1]
        log2 = log2 - Log2Value.of_factorial_log(profile.flat_dims[c - 1], wbar)
        for i in classes[c]:
            we = w.weights[i]
            if we == 0:
                continue  # (w/wbar)^0 = 1 by convention, even if wbar = 0
            log2 = log2 + Log2Value.of_fraction_log(we / wbar, we)
    return log2


def joint_count_bound(h: Hypergraph, w: WeightFunction,
                      class_sizes) -> Log2Value | None:
    """Exact log2 of C(H, w) * prod_i |F_i|^wbar_i, or None when the bound
    is 0: an empty class with wbar_i > 0 (wbar_i = 0 takes 0^0 = 1)."""
    log2 = covering_constant(h, w)
    for size, wbar in zip(class_sizes, w.subtotals):
        if size == 0 and wbar > 0:
            return None
        log2 = log2 + Log2Value.of_int_log(size, wbar)
    return log2
