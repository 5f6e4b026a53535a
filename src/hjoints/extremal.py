"""Combinatorial side: containment counts, colex families, shadow bounds.

Colex order on k-sets compares the largest differing element; an initial
colex segment is the extremal family for clique counts. Its count comes
from the k-cascade n = sum_i C(a_i, i), a_k > ... > a_s >= s >= 1: the
first n colex k-sets hold sum_i C(a_i, i+1) cliques of size k+1, exactly
and in O(k log n) binomials. The Lovasz bound solves C(x, k) = n from the
top term a_k, so ties (n = C(a_k, k)) are exact.

find_embedding and count_inducing_sets treat the pattern as uncolored: a
vertex-set A of the host counts when some bijection onto the pattern's
vertices maps every pattern edge to a host edge inside A.

search_M looks for edge-count-constrained hosts maximizing the count:
exhaustive mode scores every n-subset of the edge pool, local mode runs
first-improvement remove-one/add-one hill climbing from a colex start with
seeded random restarts. Within one call it does each piece of work once:
(a) one containment verdict per relabelled sub-host, keyed on its edges,
behind per-d-set memos keyed on the host's pool bits inside the set;
(b) in local mode, one count per host and one scan per host, kept as the
trials it made and the host it moved to, which a later restart reaching
that host adds and jumps past; (c) in exhaustive mode, a depth-first walk
of the pool in combination order, adding a d-set's verdict once its
highest pool edge is decided, so hosts that share a prefix share its sum,
and skipping d-sets left with fewer host edges than the pattern has.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, isfinite, prod

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


def _pattern_edge_sets(h: Hypergraph) -> list[frozenset]:
    return sorted({frozenset(e) for e in h.edges},
                  key=lambda s: (-len(s), sorted(s)))


def find_embedding(host: SimpleHypergraph, h) -> dict | None:
    """A bijection pattern-vertices -> host-vertices mapping edges to edges.

    Requires host.n == the pattern's vertex count (use restrict() first);
    isolated vertices on either side are fine. Returns None if no copy.
    """
    d = h.d
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
    d = h.d
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
    if k < 1 or count < 0:
        raise ValueError(f"colex sets need k >= 1 and count >= 0, got "
                         f"k = {k}, count = {count}")
    if count == 0:
        return []
    v = k
    while comb(v, k) < count:
        v += 1
    all_sets = sorted(itertools.combinations(range(1, v + 1), k), key=colex_key)
    return all_sets[:count]


def _cascade_term(n: int, i: int) -> int:
    """The largest a with C(a, i) <= n, for n, i >= 1, by bisection."""
    lo, hi = i, n + i  # C(i, i) = 1 <= n < n + 1 <= C(n + i, i)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if comb(mid, i) <= n:
            lo = mid
        else:
            hi = mid
    return lo


def kruskal_katona_count(n: int, d: int) -> int:
    """Number of d-cliques in the first n colex (d-1)-sets (the extremal
    value): sum C(a_i, i+1) over the (d-1)-cascade n = sum C(a_i, i)."""
    _check_clique_args(n, d)
    count = 0
    for i in range(d - 1, 0, -1):
        if n == 0:
            break
        a = _cascade_term(n, i)
        n -= comb(a, i)
        count += comb(a, i + 1)
    return count


def _check_clique_args(n: int, d: int) -> None:
    if d < 2 or n < 0:
        raise ValueError(f"need d >= 2 and n >= 0, got d = {d}, n = {n}")


def binom_real(x, d: int):
    """The polynomial x(x-1)...(x-d+1)/d!: a float for a float x, exact
    for a Fraction. A float x whose product overflows, or whose d! does
    past d = 170, takes the product of the ratios (x - i)/(i + 1)."""
    out = 1
    for i in range(d):
        out *= (x - i)
    if isinstance(out, float) and (d > 170 or not isfinite(out)):
        return prod((x - i) / (i + 1) for i in range(d))
    return out / factorial(d)


def lovasz_bound(n: int, d: int) -> tuple[float, float]:
    """Solve binom(x, d-1) = n for real x >= d-1; return (x, binom(x, d)).

    x lies in [a, a+1) for the top cascade term a. When C(a, d-1) = n, x = a
    and the bound C(a, d) are exact; otherwise x is bisected on [a, a+1]
    down to adjacent floats. For n = 0, x = d-1 and the bound is exactly 0.
    """
    _check_clique_args(n, d)
    if n == 0:
        return float(d - 1), 0.0
    a = _cascade_term(n, d - 1)
    if comb(a, d - 1) == n:
        return float(a), float(comb(a, d))
    lo, hi = float(a), float(a + 1)
    while (mid := (lo + hi) / 2) not in (lo, hi):
        if binom_real(mid, d - 1) < n:
            lo = mid
        else:
            hi = mid
    return mid, binom_real(mid, d)


def lovasz_holds(n: int, d: int, count: int) -> bool:
    """count <= C(x, d) for the real x >= d-1 with C(x, d-1) = n, decided
    exactly: C(x, d) = n(x - d + 1)/d and C(., d-1) increases from d - 1
    on, so for n > 0 it holds iff C(d - 1 + count*d/n, d - 1) <= n."""
    return (binom_real(d - 1 + Fraction(count * d, n), d - 1) <= n if n
            else count <= 0)


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


def partial_shadow_check(host: SimpleHypergraph, d: int, t: int
                         ) -> ShadowReport:
    """count(host contains cone pattern) vs the Lovasz bound C(x,d), C(x,d-1)=n.

    The verdict is lovasz_holds's, exact; x and bound are lovasz_bound's
    floats."""
    sizes = host.edge_sizes()
    if sizes != {d + t - 1}:
        raise UniformityMismatch(d + t - 1, sizes)
    n = host.n_edges
    x, bound = lovasz_bound(n, d)
    count = count_inducing_sets(host, cone_pattern(d, t))
    return ShadowReport(n, count, x, bound, lovasz_holds(n, d, count))


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
    count_inducing_sets(host, h), summed over slots, one per d-set A: each
    reads its verdict from a memo keyed by host & within_A, the bits of the
    pool edges inside A. Every host edge is a pool edge, so that key fixes
    host.restrict(A); a miss looks its edges up in one memo of the call, so
    find_embedding runs once per distinct relabelled sub-host.

    Exhaustive mode refuses more than work_limit hosts before scoring any,
    then certifies the optimum within the budget. It does not dedup
    isomorphic hosts: a copy of an earlier host has the same count, so
    under the strict > it never displaces best_host, the first best host in
    combination order.
    """
    exhaustive = mode == "exhaustive"
    if not exhaustive and mode != "local":
        raise ValueError(f"unknown mode {mode!r}")
    if n < 0:
        raise ValueError(f"need n >= 0 edges, got {n}")
    verts = range(1, vertex_budget + 1)
    pool = sorted((_mask(c) for k in {len(e) for e in _pattern_edge_sets(h)}
                   for c in itertools.combinations(verts, k)),
                  key=lambda e: colex_key(_unmask(e)))
    if n > len(pool):
        raise SizeMismatch(f"cannot place {n} edges; pool has {len(pool)}")
    bits = [1 << i for i in range(len(pool))]
    need = len(_pattern_edge_sets(h))
    verdicts: dict[tuple[int, ...], bool] = {}  # per relabelled sub-host

    def slot(A):
        # within_A; its pool bits, each with its edge relabelled onto 1..d
        # as restrict(A) relabels it; and the memo
        inside = [(b, _mask(A.index(v) + 1 for v in _unmask(e)))
                  for b, e in zip(bits, pool) if e & _mask(A) == e]
        return sum(b for b, _ in inside), inside, {}

    slots = [slot(A) for A in itertools.combinations(verts, h.d)]

    def count_of(host: int, slots) -> int:
        total = 0
        for within, inside, memo in slots:
            key = host & within
            found = memo.get(key)
            if found is None:
                edges = tuple(sorted(e for b, e in inside if key & b))
                found = verdicts.get(edges)
                if found is None:
                    found = verdicts[edges] = (
                        len(edges) >= need and find_embedding(
                            SimpleHypergraph(h.d, edges), h) is not None)
                memo[key] = found
            total += found
        return total

    best, best_host = -1, 0
    if exhaustive:
        examined = comb(len(pool), n)
        if examined > work_limit:
            raise WorkLimitExceeded(work_limit)
        # depth first over the pool, taking edge i before leaving it out, so
        # hosts come in combination order; a slot's verdict joins the sum
        # once its highest pool edge is decided
        slots.sort(key=lambda s: s[0].bit_length())
        cut = [sum(s[0].bit_length() <= i for s in slots)
               for i in range(len(pool) + 1)]

        def able(group, i):
            # a slot with fewer than need host edges counts 0: the slots of
            # group that can count with every edge from i on left out
            return [s for s in group
                    if (s[0] & ((1 << i) - 1)).bit_count() >= need]

        tail = [able(slots[cut[i]:], i) for i in range(len(pool) + 1)]
        left = [able(slots[cut[i]:cut[i + 1]], i) for i in range(len(pool))]
        # per entry: edges below i decided, the host so far, edges left to
        # place, and the verdicts of the slots decided by then
        stack = [(0, 0, n, count_of(0, slots[:cut[0]]))]
        while stack:
            i, host, k, partial = stack.pop()
            if k == 0 or k == len(pool) - i:  # the rest is forced
                if k:
                    host |= (1 << len(pool)) - bits[i]
                c = partial + count_of(host, slots[cut[i]:] if k else tail[i])
                if c > best:
                    best, best_host = c, host
                continue
            stack.append((i + 1, host, k, partial + count_of(host, left[i])))
            host |= bits[i]
            stack.append((i + 1, host, k - 1, partial + count_of(
                host, slots[cut[i]:cut[i + 1]])))
    else:
        if restarts < 1:
            raise ValueError(f"need restarts >= 1, got {restarts}")
        # edges leave in increasing mask order and enter in pool order
        leave_order = [bits[i] for i in sorted(range(len(pool)),
                                               key=pool.__getitem__)]
        scores: dict[int, int] = {}
        # per host: the trials its scan makes, and the first improving
        # trial or None; the scan is fixed by the host, so it runs once
        steps: dict[int, tuple[int, int | None]] = {}

        def score_of(host: int) -> int:
            if host not in scores:
                scores[host] = count_of(host, slots)
            return scores[host]

        rng = random.Random(seed)
        examined = 0
        for restart in range(restarts):
            # sampling positions draws exactly as sampling the pool itself
            start = range(n) if restart == 0 else rng.sample(range(len(pool)), n)
            current = sum(bits[i] for i in start)
            examined += 1
            while True:
                if current not in steps:
                    score, trials, nxt = score_of(current), 0, None
                    for trial in ((current ^ o) | i for o in leave_order
                                  if current & o for i in bits
                                  if not current & i):
                        trials += 1
                        if score_of(trial) > score:
                            nxt = trial
                            break
                    steps[current] = trials, nxt
                trials, nxt = steps[current]
                examined += trials
                if nxt is None:
                    break
                current = nxt
            if scores[current] > best:
                best, best_host = scores[current], current
    return SearchResult(best, SimpleHypergraph(vertex_budget, tuple(
        e for b, e in zip(bits, pool) if best_host & b)),
        exhaustive, examined, seed=None if exhaustive else seed)
