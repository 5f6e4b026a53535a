"""Combinatorial side: containment counts, colex families, shadow bounds.

Colex order on k-sets compares the largest differing element; an initial
colex segment is the extremal family for clique counts, so enumerating the
first n colex (k)-sets and counting cliques directly gives the exact
extremal value without needing the cascade formula.

find_embedding and count_inducing_sets treat the pattern as uncolored: a
vertex-set A of the host counts when some bijection onto the pattern's
vertices maps every pattern edge to a host edge inside A.

search_M looks for edge-count-constrained hosts maximizing the count:
exhaustive mode scores every n-subset of the edge pool, local mode runs
first-improvement remove-one/add-one hill climbing from a colex start with
seeded random restarts. Within one call, containment verdicts are memoised
per d-set of vertices, so find_embedding runs once per distinct induced
sub-host rather than once per host (see search_M).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb, factorial

from .errors import SizeMismatch, UniformityMismatch, WorkLimitExceeded
from .fields import as_int
from .hypergraph import Hypergraph, _mask


def _unmask(m: int) -> tuple[int, ...]:
    out = []
    v = 1
    while m:
        if m & 1:
            out.append(v)
        m >>= 1
        v += 1
    return tuple(out)


@dataclass(frozen=True)
class SimpleHypergraph:
    """Simple hypergraph on 1..n, mixed edge sizes allowed; edges as bitmasks."""

    n: int
    edges: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(set(self.edges))))
        for e in self.edges:
            if e <= 0 or e >= (1 << self.n):
                raise ValueError("edge outside the vertex range")

    @classmethod
    def from_sets(cls, n: int, sets) -> "SimpleHypergraph":
        return cls(n, tuple(_mask(s) for s in sets))

    @classmethod
    def complete(cls, n: int, k: int) -> "SimpleHypergraph":
        return cls.from_sets(n, itertools.combinations(range(1, n + 1), k))

    @classmethod
    def cycle(cls, n: int) -> "SimpleHypergraph":
        return cls.from_sets(n, [(i, i % n + 1) for i in range(1, n + 1)])

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def edge_tuples(self) -> list[tuple[int, ...]]:
        return [_unmask(e) for e in self.edges]

    def edge_sizes(self) -> set[int]:
        return {e.bit_count() for e in self.edges}

    def restrict(self, vertices) -> "SimpleHypergraph":
        """Induced sub-hypergraph relabeled onto 1..len(vertices).

        sorted(vertices)[i-1] becomes vertex i; isolated vertices survive.
        """
        order = sorted(vertices)
        relabel = {v: i + 1 for i, v in enumerate(order)}
        am = _mask(order)
        kept = [
            _mask(tuple(relabel[v] for v in _unmask(e)))
            for e in self.edges if e & am == e]
        return SimpleHypergraph(len(order), tuple(kept))

    def to_dict(self):
        return {"n": self.n, "edges": [list(_unmask(e)) for e in self.edges]}

    @classmethod
    def from_dict(cls, data):
        return cls.from_sets(as_int(data["n"]), data["edges"])


def _pattern_edge_sets(h) -> list[frozenset]:
    if isinstance(h, Hypergraph):
        edges = h.edges
    else:
        edges = h.edge_tuples()
    return sorted({frozenset(e) for e in edges}, key=lambda s: (-len(s), sorted(s)))


def _pattern_vertex_count(h) -> int:
    return h.d if isinstance(h, Hypergraph) else h.n


def find_embedding(host: SimpleHypergraph, h) -> dict | None:
    """A bijection pattern-vertices -> host-vertices mapping edges to edges.

    Requires host.n == the pattern's vertex count (use restrict() first);
    isolated vertices on either side are fine. Returns None if no copy.
    """
    d = _pattern_vertex_count(h)
    if host.n != d:
        raise SizeMismatch(f"host has {host.n} vertices, pattern has {d}")
    pattern_edges = _pattern_edge_sets(h)
    host_set = set(host.edges)
    if len(host_set) < len(pattern_edges):
        return None
    by_vertex: dict[int, list[frozenset]] = {v: [] for v in range(1, d + 1)}
    for e in pattern_edges:
        for v in e:
            by_vertex[v].append(e)
    order = sorted(range(1, d + 1), key=lambda v: -len(by_vertex[v]))

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def assigned_mask(edge: frozenset) -> int | None:
        m = 0
        for v in edge:
            if v not in assignment:
                return None
            m |= 1 << (assignment[v] - 1)
        return m

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for hv in range(1, d + 1):
            if hv in used:
                continue
            assignment[v] = hv
            used.add(hv)
            ok = True
            for e in by_vertex[v]:
                m = assigned_mask(e)
                if m is not None and m not in host_set:
                    ok = False
                    break
            if ok and backtrack(i + 1):
                return True
            del assignment[v]
            used.discard(hv)
        return False

    if backtrack(0):
        return dict(assignment)
    return None


def _inducing_embeddings(host: SimpleHypergraph, h):
    """Yield (A, embedding of the pattern into host.restrict(A)) for each
    d-subset A of the host with a pattern copy inside host[A]."""
    d = _pattern_vertex_count(h)
    need = len(_pattern_edge_sets(h))
    for A in itertools.combinations(range(1, host.n + 1), d):
        sub = host.restrict(A)
        if sub.n_edges < need:
            continue
        emb = find_embedding(sub, h)
        if emb is not None:
            yield A, emb


def inducing_sets(host: SimpleHypergraph, h) -> list[tuple[int, ...]]:
    """All d-subsets A of the host with a pattern copy inside host[A]."""
    return [A for A, _ in _inducing_embeddings(host, h)]


def count_inducing_sets(host: SimpleHypergraph, h) -> int:
    return len(inducing_sets(host, h))


# ---------------------------------------------------------------------------
# colex order, Kruskal-Katona counts, Lovasz bound
# ---------------------------------------------------------------------------

def colex_key(s) -> tuple:
    return tuple(sorted(s, reverse=True))


def colex_sets(k: int, count: int) -> list[tuple[int, ...]]:
    """The first `count` k-subsets of the positive integers in colex order."""
    if count == 0:
        return []
    v = k
    while comb(v, k) < count:
        v += 1
    all_sets = sorted(itertools.combinations(range(1, v + 1), k), key=colex_key)
    return all_sets[:count]


def kruskal_katona_count(n: int, d: int) -> int:
    """Number of d-cliques in the first n colex (d-1)-sets (the extremal value)."""
    family = {frozenset(s) for s in colex_sets(d - 1, n)}
    vertices = sorted({v for s in family for v in s})
    count = 0
    for clique in itertools.combinations(vertices, d):
        if all(frozenset(sub) in family
               for sub in itertools.combinations(clique, d - 1)):
            count += 1
    return count


def binom_real(x: float, d: int) -> float:
    """The polynomial x(x-1)...(x-d+1)/d!."""
    out = 1.0
    for i in range(d):
        out *= (x - i)
    return out / factorial(d)


def lovasz_bound(n: int, d: int, *, tol: float = 1e-12):
    """Solve binom(x, d-1) = n for real x >= d-1, return (x, binom(x, d)).

    The bound is clamped at zero (it can only dip negative for x < d, which
    cannot occur here but is guarded anyway); `clamped` flags that case.
    """
    lo = float(d - 1)
    hi = float(d)
    while binom_real(hi, d - 1) < n:
        hi *= 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if binom_real(mid, d - 1) < n:
            lo = mid
        else:
            hi = mid
    x = (lo + hi) / 2
    bound = binom_real(x, d)
    clamped = bound < 0
    return x, (0.0 if clamped else bound), clamped


def cone_pattern(d: int, t: int) -> Hypergraph:
    """The (d+t-1)-uniform pattern on d+t vertices with edges [d+t]-{i}, i<=d."""
    verts = range(1, d + t + 1)
    edges = [tuple(v for v in verts if v != i) for i in range(1, d + 1)]
    return Hypergraph(d + t, tuple(edges), (1,) * d)


@dataclass(frozen=True)
class ShadowReport:
    n_edges: int
    count: int
    x: float
    bound: float
    passed: bool


def partial_shadow_check(host: SimpleHypergraph, d: int, t: int,
                         *, guard: float = 1e-9) -> ShadowReport:
    """count(host contains cone pattern) vs the Lovasz bound C(x,d), C(x,d-1)=n."""
    sizes = host.edge_sizes()
    if sizes != {d + t - 1}:
        raise UniformityMismatch(d + t - 1, sizes)
    pattern = cone_pattern(d, t)
    count = count_inducing_sets(host, pattern)
    n = host.n_edges
    x, bound, _ = lovasz_bound(n, d)
    return ShadowReport(n, count, x, bound,
                        count <= bound * (1 + guard) + guard)


# ---------------------------------------------------------------------------
# extremal search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    best_count: int
    best_host: SimpleHypergraph
    certified: bool
    hosts_examined: int
    seed: int | None = None


def search_M(h, n: int, vertex_budget: int, mode: str = "exhaustive", *,
             seed: int = 0, restarts: int = 200,
             work_limit: int = 2_000_000) -> SearchResult:
    """Best count of pattern-inducing vertex sets over hosts with n edges.

    Host edges range over all subsets of 1..vertex_budget whose sizes occur
    in the pattern; pool edge i is bit i of a host. A host's count is
    count_inducing_sets(host, h), read per d-set A from a memo keyed by
    host & within_A, the bits of the pool edges inside A. Every host edge
    is a pool edge, so that key fixes host.restrict(A), and find_embedding
    runs once per distinct restriction; the memos live only in this call.

    Exhaustive mode scores every n-subset of the pool and certifies the
    optimum within the budget. It does not dedup isomorphic hosts: a copy of
    an earlier host has the same count, so under the strict > it never
    displaces best_host, the first best host in combination order.
    """
    exhaustive = mode == "exhaustive"
    if not exhaustive and mode != "local":
        raise ValueError(f"unknown mode {mode!r}")
    verts = range(1, vertex_budget + 1)
    pool = sorted((_mask(c) for k in {len(e) for e in _pattern_edge_sets(h)}
                   for c in itertools.combinations(verts, k)),
                  key=lambda e: colex_key(_unmask(e)))
    if n > len(pool):
        raise SizeMismatch(f"cannot place {n} edges; pool has {len(pool)}")
    bits = [1 << i for i in range(len(pool))]
    need = len(_pattern_edge_sets(h))
    slots = [(A, sum(b for b, e in zip(bits, pool) if e & _mask(A) == e), {})
             for A in itertools.combinations(verts, _pattern_vertex_count(h))]

    def edges_of(host: int) -> tuple[int, ...]:
        return tuple(e for b, e in zip(bits, pool) if host & b)

    def count_of(host: int) -> int:
        total = 0
        for A, within, memo in slots:
            key = host & within
            found = memo.get(key)
            if found is None:
                sub = SimpleHypergraph(vertex_budget, edges_of(key)).restrict(A)
                found = memo[key] = (sub.n_edges >= need
                                     and find_embedding(sub, h) is not None)
            total += found
        return total

    best, best_host = -1, 0
    if exhaustive:
        for examined, combo in enumerate(itertools.combinations(bits, n), 1):
            if examined > work_limit:
                raise WorkLimitExceeded(work_limit)
            host = sum(combo)
            c = count_of(host)
            if c > best:
                best, best_host = c, host
    else:
        if restarts < 1:
            raise ValueError(f"need restarts >= 1, got {restarts}")
        # edges leave in increasing mask order and enter in pool order
        leave_order = [bits[i] for i in sorted(range(len(pool)),
                                               key=pool.__getitem__)]
        rng = random.Random(seed)
        examined = 0
        for restart in range(restarts):
            # sampling positions draws exactly as sampling the pool itself
            start = range(n) if restart == 0 else rng.sample(range(len(pool)), n)
            current = sum(bits[i] for i in start)
            score = count_of(current)
            examined += 1
            while True:
                for trial in ((current ^ o) | i for o in leave_order
                              if current & o for i in bits if not current & i):
                    examined += 1
                    s = count_of(trial)
                    if s > score:
                        current, score = trial, s
                        break
                else:
                    break
            if score > best:
                best, best_host = score, current
    return SearchResult(best, SimpleHypergraph(vertex_budget,
                                               edges_of(best_host)),
                        exhaustive, examined, seed=None if exhaustive else seed)
