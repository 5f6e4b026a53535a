"""The three hjoints benchmark workloads.

Each workload is driven through the public hjoints API and has four parts:

- ``build(hj, sub_seed)``: set-up; makes the inputs from a seed, with a fresh
  configuration every time so no cache of the program carries over;
- ``run(hj, inputs)``: the timed part;
- ``check(hj, inputs, outputs, ref)``: output checks, each a ``(name, ok)``
  pair; those starting with ``ref_`` compare against the reference recorded
  for the sub-seed in ``reference.json``;
- ``exact(hj, inputs, outputs)``: the values the ``ref_`` checks compare,
  which is what ``make_reference.py`` records.

``hj`` is the freshly imported ``hjoints`` package. Nothing here keeps a
module-level reference to hjoints, because the runner re-imports it for every
set-up. ``hjoints.acceptance`` is never used: its module-level configuration
cache would hand back warm configurations.

A run with seed ``s`` cycles through ``cycle`` sub-inputs with sub-seeds
``(s * cycle + i) % REFERENCE_SEEDS``; averaging over several inputs per run
keeps the run-to-run spread of a seed-dependent workload small.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

REFERENCE_SEEDS = 32


def sub_seeds(workload, seed: int) -> list[int]:
    return [(seed * workload.cycle + i) % REFERENCE_SEEDS
            for i in range(workload.cycle)]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _k3(hj):
    return hj.Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))


def _ref_checks(exact: dict, ref: dict) -> list[tuple[str, bool]]:
    return [(f"ref_{key}", exact[key] == ref.get(key)) for key in sorted(exact)]


class Handicap:
    """K3 with weights 1/2 over a generic configuration from host K8, n=24."""

    name = "handicap"
    why = ("the paper's key dynamic at a size that runs many rounds; nearly "
           "all time is the ledger engine on lines, with the tuples_at cache "
           "hit every round; no extremal search")
    cycle = 4

    @staticmethod
    def build(hj, sub_seed):
        k3 = _k3(hj)
        host = hj.SimpleHypergraph.complete(8, 2)
        cfg = hj.generically_induced(host, k3,
                                     hj.generic_hyperplanes(8, 3, seed=sub_seed))
        return {"h": k3, "w": hj.WeightFunction.uniform(k3, Fraction(1, 2)),
                "cfg": cfg}

    @staticmethod
    def run(hj, inp):
        h, w, cfg = inp["h"], inp["w"], inp["cfg"]
        res = hj.handicap_iteration(h, w, cfg, n=24)
        audit = hj.key_inequality_audit(h, w, cfg, res.b, res.W)
        cert = hj.serialize.certificate_to_dict(h, res)
        return {"result": res, "audit": audit, "cert": cert}

    @staticmethod
    def exact(hj, inp, out):
        cert = out["cert"]
        return {"status": cert["status"], "rounds": cert["rounds"],
                "alpha": cert["alpha"],
                "b_sha256": _digest([cert["flats"], cert["b"]])}

    @classmethod
    def check(cls, hj, inp, out, ref):
        ledgers = out["result"].ledger_set.ledgers.values()
        sums = [hj.sum_of_conditions_check(led) for led in ledgers]
        return [
            ("status_terminal", out["cert"]["status"] in ("flat", "cycle")),
            ("audit_cond1", out["audit"].cond1_pass),
            ("audit_cond2", out["audit"].cond2_pass),
            ("sum_of_conditions",
             bool(sums) and all(got == want for got, want in sums)),
        ] + _ref_checks(cls.exact(hj, inp, out), ref)

    @staticmethod
    def work(out):
        return {"rounds_per_s": out["result"].rounds}


class Search:
    """Local strictness search on cone_pattern(4,1) plus an exhaustive search."""

    name = "search"
    why = ("the strictness and Kruskal-Katona side of the paper: containment "
           "counts in local search (find_embedding) and exhaustive search "
           "(canonical_form); no fields, geometry or ledgers")
    cycle = 3

    @staticmethod
    def build(hj, sub_seed):
        return {"cone": hj.cone_pattern(4, 1), "k3": _k3(hj), "seed": sub_seed}

    @staticmethod
    def run(hj, inp):
        local = hj.search_M(inp["cone"], 12, 6, mode="local", restarts=100,
                            seed=inp["seed"])
        exhaustive = hj.search_M(inp["k3"], 7, 6, mode="exhaustive")
        return {"local": local, "exhaustive": exhaustive}

    @staticmethod
    def exact(hj, inp, out):
        return {"local_best": out["local"].best_count,
                "local_hosts": out["local"].hosts_examined,
                "exhaustive_hosts": out["exhaustive"].hosts_examined}

    @classmethod
    def check(cls, hj, inp, out, ref):
        local, exhaustive = out["local"], out["exhaustive"]
        return [
            ("local_at_least_kk",
             local.best_count >= hj.kruskal_katona_count(12, 4)),
            ("exhaustive_certifies_4",
             exhaustive.certified and exhaustive.best_count == 4),
        ] + _ref_checks(cls.exact(hj, inp, out), ref)

    @staticmethod
    def work(out):
        return {"hosts_per_s": (out["local"].hosts_examined
                                + out["exhaustive"].hosts_examined)}


# host size -> edge count of the random K3 hosts; a fixed edge count keeps
# the candidate-point work the same for every seed
JOINTS_HOSTS = ((6, 9), (7, 11), (8, 13))


class Joints:
    """Configuration audit of the 2-flats pattern {1234, 1256, 3456} in F^6."""

    name = "joints"
    why = ("puts the load on the geometry layer (witness_check, linalg) and "
           "uses the ledger engine on planes with fresh handicaps and cold "
           "caches, unlike handicap")
    cycle = 2

    @staticmethod
    def build(hj, sub_seed):
        rng = random.Random(sub_seed)
        pattern = hj.Hypergraph(6, ((1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)),
                                (1, 1, 1))
        cfg = hj.generically_induced(hj.SimpleHypergraph.complete(7, 4), pattern,
                                     hj.generic_hyperplanes(7, 6, seed=sub_seed))
        alphas = [{r: rng.randrange(-2, 3) for r in range(len(cfg.points))}
                  for _ in range(8)]
        k3 = _k3(hj)
        hosts = []
        for nv, ne in JOINTS_HOSTS:
            edges = rng.sample(list(itertools.combinations(range(1, nv + 1), 2)),
                               ne)
            host = hj.SimpleHypergraph.from_sets(nv, edges)
            hosts.append((host, hj.generically_induced(
                host, k3, hj.generic_hyperplanes(nv, 3, seed=sub_seed))))
        return {"h": pattern, "w": hj.WeightFunction.uniform(pattern, Fraction(1, 2)),
                "cfg": cfg, "alphas": alphas, "k3": k3, "hosts": hosts}

    @staticmethod
    def run(hj, inp):
        h, w, cfg = inp["h"], inp["w"], inp["cfg"]
        tuples = [cfg.tuples_at(h, i) for i in range(len(cfg.points))]
        mults = [hj.joint_multiplicity(h, w, t) for t in tuples if t]
        ledger_sets = []
        slacks = []
        for alpha in inp["alphas"]:
            ls = hj.build_ledger_set(h, cfg, alpha, 4)
            slacks.append(hj.param_counting_check(ls)[2])
            ledger_sets.append(ls)
        detected = []
        for _, hcfg in inp["hosts"]:
            points = hj.geometry.candidate_points_from_flats(hcfg)
            detected.append(len(hj.detect_joints(inp["k3"], hcfg, points)))
        return {"tuples": tuples, "mults": mults, "slacks": slacks,
                "ledger_sets": ledger_sets, "detected": detected}

    @staticmethod
    def exact(hj, inp, out):
        points = inp["cfg"].points
        counts = [len(t) for _, t in sorted(zip(points, out["tuples"]),
                                            key=lambda pt: pt[0])]
        ledgers = [sorted(((fl.base, fl.dirs), sorted(led.counts.items()))
                          for fl, led in ls.ledgers.items())
                   for ls in out["ledger_sets"]]
        return {"tuple_counts": counts, "ledger_sha256": _digest(ledgers)}

    @classmethod
    def check(cls, hj, inp, out, ref):
        detects = [(f"detect_host{host.n}",
                    found == hj.count_inducing_sets(host, inp["k3"]))
                   for (host, _), found in zip(inp["hosts"], out["detected"])]
        return detects + [
            ("tuples_nonempty", all(out["tuples"])),
            ("multiplicity_converged",
             len(out["mults"]) == len(out["tuples"])
             and all(m.converged for m in out["mults"])),
            ("param_slack_nonnegative", all(s >= 0 for s in out["slacks"])),
        ] + _ref_checks(cls.exact(hj, inp, out), ref)

    @staticmethod
    def work(out):
        return {}


WORKLOADS = {wl.name: wl for wl in (Handicap, Search, Joints)}
