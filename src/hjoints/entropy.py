"""Shannon-entropy toolkit and the joint-multiplicity solver.

Entropies are in bits over finite supports; zero-probability atoms are
pruned before summation (the 0 log 0 = 0 convention). Probabilities may be
exact rationals on input but all entropy arithmetic is double precision;
bound checks allow 1e-9 slack (1e-12 for pure identities) so float noise
never fails a true inequality.

The multiplicity of a joint p maximizes

    Phi(mu) = sum_i wbar_i * H(flat marginal of color i under mu)

over distributions mu on the witness-tuple set T_p, where the color-i
marginal draws an edge e of color i with probability w(e)/wbar_i
independently of the tuple. Each marginal is affine in mu and entropy is
concave, so Phi is concave; Frank-Wolfe over the simplex (vertex argmax
subproblem, exact bisection line search) converges with a certified duality
gap. The reported value is

    multiplicity = 2 ** (max Phi - sum_i wbar_i H(edge draw of color i)),

which is 1 at simple joints (one tuple) because the within-color edge-to-
flat map of any single tuple is injective.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyTupleSet, NotCovering
from .hypergraph import Hypergraph, WeightFunction, covering_constant

LOG2 = math.log(2.0)


def entropy(probs) -> float:
    """Shannon entropy in bits of a probability vector (zeros pruned)."""
    total = 0.0
    for p in probs:
        p = float(p)
        if p < -1e-12:
            raise ValueError(f"negative probability {p}")
        if p > 0:
            total -= p * math.log2(p)
    return total


@dataclass(frozen=True)
class FiniteDistribution:
    """Distribution over opaque atoms; probabilities sum to 1 within 1e-12."""

    atoms: tuple
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.atoms) != len(self.probs):
            raise ValueError("atoms and probs must align")
        s = math.fsum(self.probs)
        if abs(s - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {s}, not 1")
        if any(p < -1e-15 for p in self.probs):
            raise ValueError("negative probability")

    @classmethod
    def uniform(cls, atoms) -> "FiniteDistribution":
        atoms = tuple(atoms)
        return cls(atoms, (1.0 / len(atoms),) * len(atoms))

    def support(self) -> tuple:
        return tuple(a for a, p in zip(self.atoms, self.probs) if p > 0)

    def entropy(self) -> float:
        return entropy(self.probs)


def joint_entropy(joint: dict) -> float:
    return entropy(joint.values())


def project_joint(joint: dict, positions) -> dict:
    out: dict = {}
    for key, p in joint.items():
        k = tuple(key[i] for i in positions)
        out[k] = out.get(k, 0.0) + float(p)
    return out


def shearer_check(d: int, subsets, weights, joint: dict) -> float:
    """sum_i w_i H(X_{I_i}) - H(X_1..X_d) for a joint over d-tuples."""
    _require_covering(d, subsets, weights)
    total = joint_entropy(joint)
    rhs = 0.0
    for I, w in zip(subsets, weights):
        pos = [j - 1 for j in sorted(I)]
        rhs += float(w) * entropy(project_joint(joint, pos).values())
    return rhs - total


def holder_check(d: int, subsets, weights, functions, s: int):
    """(lhs, rhs, slack) for the discrete weighted product inequality.

    functions: one dict per subset mapping tuples over range(s) to
    nonnegative values (missing = 0). lhs sums prod f_i(pi_i(p))^{w_i} over
    the grid; rhs is prod (sum f_i)^{w_i}.
    """
    _require_covering(d, subsets, weights)
    subsets = [tuple(sorted(I)) for I in subsets]
    lhs = 0.0
    for p in itertools.product(range(s), repeat=d):
        term = 1.0
        for I, w, f in zip(subsets, weights, functions):
            v = float(f.get(tuple(p[j - 1] for j in I), 0))
            if v == 0.0:
                term = 0.0
                break
            term *= v ** float(w)
        lhs += term
    rhs = 1.0
    for I, w, f in zip(subsets, weights, functions):
        rhs *= math.fsum(float(v) for v in f.values()) ** float(w)
    return lhs, rhs, rhs - lhs


def loomis_whitney_check(d: int, subsets, weights, points) -> float:
    """prod |pi_i(T)|^{w_i} - |T| for a finite point set T in S^d."""
    _require_covering(d, subsets, weights)
    pts = set(map(tuple, points))
    rhs = 1.0
    for I, w in zip(subsets, weights):
        proj = {tuple(p[j - 1] for j in sorted(I)) for p in pts}
        rhs *= len(proj) ** float(w)
    return rhs - len(pts)


def _require_covering(d: int, subsets, weights) -> None:
    for j in range(1, d + 1):
        load = sum(Fraction(w) for I, w in zip(subsets, weights) if j in I)
        if load < 1:
            raise NotCovering(j, load)


def tensor_power_bound(d: int, subsets, weights, functions, s: int,
                       constant: float, power: int) -> float:
    """n-th root of the weakened product bound applied to the n-th tensor
    power, evaluated by explicit enumeration of the tensored instance."""
    subsets = [tuple(sorted(I)) for I in subsets]
    rhs = constant
    for I, w, f in zip(subsets, weights, functions):
        tensored = 0.0
        for qs in itertools.product(
                itertools.product(range(s), repeat=len(I)), repeat=power):
            term = 1.0
            for q in qs:
                term *= float(f.get(q, 0))
                if term == 0.0:
                    break
            tensored += term
        rhs *= tensored ** float(w)
    return rhs ** (1.0 / power)


# ---------------------------------------------------------------------------
# joint multiplicity via Frank-Wolfe
# ---------------------------------------------------------------------------

@dataclass
class MultiplicityResult:
    value: float            # the multiplicity (2**objective)
    log2_value: float
    distribution: list[float]  # optimizer over the tuple list, same order
    gap: float              # certified duality gap in bits
    iterations: int
    converged: bool
    marginals: list[dict]   # per color: flat-instance -> probability


def _color_setup(h: Hypergraph, w: WeightFunction):
    """Per color with positive subtotal: list of (edge index, w(e)/wbar)."""
    setup = []
    edge_entropy = 0.0
    for c, idxs in h.color_classes().items():
        wbar = w.subtotals[c - 1]
        if wbar == 0:
            continue
        draws = [(i, float(w.weights[i] / wbar)) for i in idxs
                 if w.weights[i] > 0]
        edge_entropy += float(wbar) * entropy(q for _, q in draws)
        setup.append((c, float(wbar), draws))
    return setup, edge_entropy


def joint_multiplicity(h: Hypergraph, w: WeightFunction, tuples, *,
                       tol: float = 1e-9, max_iters: int = 100000
                       ) -> MultiplicityResult:
    """Maximize sum_i wbar_i H(color-i flat marginal) over tuple distributions.

    `tuples` is the witness-tuple list at one point (assignments of flat
    instances per edge); instances are identified as (color, index) atoms so
    multiset copies count separately.
    """
    if not tuples:
        raise EmptyTupleSet("no witness tuples at this point")
    assignments = [t.assignment if hasattr(t, "assignment") else tuple(t)
                   for t in tuples]
    setup, edge_entropy = _color_setup(h, w)
    n_tuples = len(assignments)

    # contribution of tuple T to the color-i marginal: sparse dicts
    contribs: list[list[dict]] = []
    for assign in assignments:
        per_color = []
        for c, wbar, draws in setup:
            dd: dict = {}
            for i, q in draws:
                atom = (c, assign[i])
                dd[atom] = dd.get(atom, 0.0) + q
            per_color.append(dd)
        contribs.append(per_color)

    mu = [1.0 / n_tuples] * n_tuples

    def marginals_of(dist):
        outs = []
        for ci in range(len(setup)):
            acc: dict = {}
            for t, m in enumerate(dist):
                if m == 0.0:
                    continue
                for atom, q in contribs[t][ci].items():
                    acc[atom] = acc.get(atom, 0.0) + m * q
            outs.append(acc)
        return outs

    def phi_of(margs) -> float:
        return math.fsum(setup[ci][1] * entropy(margs[ci].values())
                         for ci in range(len(setup)))

    def gradient(margs):
        grads = []
        for t in range(n_tuples):
            g = 0.0
            for ci, (c, wbar, _) in enumerate(setup):
                for atom, q in contribs[t][ci].items():
                    p = max(margs[ci].get(atom, 0.0), 1e-300)
                    g += wbar * q * (-(math.log(p) + 1.0) / LOG2)
            grads.append(g)
        return grads

    gap = math.inf
    iters = 0
    while iters < max_iters:
        iters += 1
        margs = marginals_of(mu)
        grads = gradient(margs)
        best = max(range(n_tuples), key=lambda t: grads[t])
        avg = math.fsum(g * m for g, m in zip(grads, mu))
        gap = grads[best] - avg
        if gap <= tol:
            break
        # exact line search on mu + lam (vertex - mu): bisect the derivative
        target = contribs[best]

        def derivative(lam: float) -> float:
            tot = 0.0
            for ci, (c, wbar, _) in enumerate(setup):
                atoms = set(margs[ci]) | set(target[ci])
                for atom in atoms:
                    p0 = margs[ci].get(atom, 0.0)
                    p1 = target[ci].get(atom, 0.0)
                    pl = (1 - lam) * p0 + lam * p1
                    if pl <= 0.0:
                        if p1 > p0:
                            return math.inf  # entering atom: slope +inf
                        continue
                    tot += wbar * (p1 - p0) * (-(math.log(pl) + 1.0) / LOG2)
            return tot

        lo, hi = 0.0, 1.0
        if derivative(0.0) <= 0.0:
            lam = 0.0
        elif derivative(1.0 - 1e-15) >= 0.0:
            lam = 1.0 - 1e-15
        else:
            for _ in range(80):
                mid = (lo + hi) / 2
                if derivative(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            lam = (lo + hi) / 2
        if lam == 0.0:
            break  # numerical stall; gap still reported
        mu = [(1 - lam) * m for m in mu]
        mu[best] += lam
    # recompute the certificate at the returned iterate
    margs = marginals_of(mu)
    grads = gradient(margs)
    gap = max(grads) - math.fsum(g * m for g, m in zip(grads, mu))
    log2_val = phi_of(margs) - edge_entropy
    return MultiplicityResult(2.0 ** log2_val, log2_val, mu, gap, iters,
                              gap <= tol, margs)


# ---------------------------------------------------------------------------
# geometric Shearer audit
# ---------------------------------------------------------------------------

@dataclass
class GeoShearerReport:
    lhs: float
    rhs: float
    slack: float
    point_entropy: float
    log2_constant: float


def geometric_shearer_audit(h: Hypergraph, w: WeightFunction, config,
                            point_probs, tuple_probs) -> GeoShearerReport:
    """Check H(p) + sum_i wbar_i (H(F_i | p) - H(e_i)) <= sum_i wbar_i H(F_i) + log2 C.

    point_probs: probability per stored config point; tuple_probs: per point,
    probabilities over its witness-tuple list (same order as tuples_at).
    """
    setup, edge_entropy_total = _color_setup(h, w)
    const = covering_constant(h, w)
    point_probs = [float(p) for p in point_probs]
    h_p = entropy(point_probs)
    lhs = h_p - edge_entropy_total
    joint_flat: list[dict] = [dict() for _ in setup]
    cond = 0.0
    for pi, pp in enumerate(point_probs):
        if pp <= 0:
            continue
        tuples = config.tuples_at(h, pi)
        dist = tuple_probs[pi]
        per_point: list[dict] = [dict() for _ in setup]
        for t, tp in zip(tuples, dist):
            tp = float(tp)
            if tp <= 0:
                continue
            for ci, (c, wbar, draws) in enumerate(setup):
                for i, q in draws:
                    atom = (c, t.assignment[i])
                    per_point[ci][atom] = per_point[ci].get(atom, 0.0) + tp * q
        for ci, (c, wbar, _) in enumerate(setup):
            cond += pp * wbar * entropy(per_point[ci].values())
            for atom, q in per_point[ci].items():
                joint_flat[ci][atom] = joint_flat[ci].get(atom, 0.0) + pp * q
    lhs += cond
    rhs = float(const.log2) + math.fsum(
        setup[ci][1] * entropy(joint_flat[ci].values())
        for ci in range(len(setup)))
    return GeoShearerReport(lhs, rhs, rhs - lhs, h_p, float(const.log2))
