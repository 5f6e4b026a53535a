"""Command-line entry point.

Data commands (cone, build-config, rho-star, ...) print their result as
JSON; verification commands print a check table and exit 0 only when
nothing FAILed. `--json PATH` writes the full machine-readable report;
identical inputs and seeds give byte-identical reports up to the volatile
timestamp block. Usage and input errors exit 2; check failures exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import random
import platform
import sys
import time
from pathlib import Path

from . import __version__
from .acceptance import (geo_shearer_optimal_record, geo_shearer_random_record,
                         key_audit_records, mult_bound_record, multiplicities,
                         run_suite, simple_bound_record)
from .configs import (axis_parallel_from_functions, axis_parallel_pattern,
                      generic_hyperplanes, projected_generically_induced)
from .cover import dual_cover, rho_star
from .entropy import (FiniteDistribution, holder_check, joint_multiplicity,
                      loomis_whitney_check, shearer_check)
from .errors import HJointsError, SizeMismatch
from .extremal import (count_inducing_sets, kruskal_katona_count,
                       lovasz_bound, partial_shadow_check, search_M)
from .fields import GF, QQ, as_int, field_from_key
from .geometry import Flat, candidate_points_from_flats, detect_joints
from .hypergraph import covering_constant
from .report import (FAIL, INFO, PASS, UNCONVERGED, CheckRecord,
                     VerificationReport, record_bound, record_equal)
from .serialize import (certificate_to_dict, dumps, load_config,
                        load_hypergraph, load_json, load_simple_hypergraph,
                        load_weights, parse_fraction, save_json)
from .vanishing import (build_ledger_set, handicap_iteration, lw_step_worst,
                        param_counting_check, sum_of_conditions_check)


def _digest_files(paths) -> str:
    sha = hashlib.sha256()
    for p in paths:
        if p:
            sha.update(Path(p).read_bytes())
    return sha.hexdigest()


def _field_arg(text):
    if text == "rational":
        return QQ
    if text == "prime":
        return GF()
    return GF(int(text))


def _emit(args, report: VerificationReport, payload=None) -> int:
    if payload is not None:
        sys.stdout.write(dumps(payload))
    if report.records:
        print(report.render_table())
    if getattr(args, "json", None):
        save_json(args.json, report.to_dict())
    return report.exit_code()


def _new_report(args, command, inputs=(), **seeds) -> VerificationReport:
    return VerificationReport(
        command=command, argv=[command] + [str(x) for x in inputs],
        seeds=seeds, inputs_digest=_digest_files(inputs),
        versions={"hjoints": __version__, "python": platform.python_version()})


def _config_inputs(args, command, first=(), **seeds):
    """Load --config, --pattern and --weights and open the command's report,
    whose digest covers the `first` files and then those three."""
    cfg = load_config(args.config)
    h = load_hypergraph(args.pattern)
    w = load_weights(args.weights, h)
    return cfg, h, w, _new_report(
        args, command, [*first, args.config, args.pattern, args.weights],
        **seeds)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_rho_star(args) -> int:
    h = load_hypergraph(args.hypergraph)
    rep = _new_report(args, "rho-star", [args.hypergraph])
    sol = rho_star(h)
    dual_value, _ = dual_cover(h)
    rep.add(record_equal("primal-equals-dual", sol.value, dual_value))
    payload = {"value": str(sol.value),
               "weights": [str(x) for x in sol.weights.weights],
               "tight_vertices": list(sol.tight_vertices)}
    return _emit(args, rep, payload)


def cmd_constant(args) -> int:
    h = load_hypergraph(args.hypergraph)
    w = load_weights(args.weights, h)
    c = covering_constant(h, w)
    payload = {"value": c.value,
               "digits": str(float(c.approx(args.digits))),
               "log2_terms": [[str(q), m] for q, m in c.terms()]}
    rep = _new_report(args, "constant", [args.hypergraph, args.weights])
    return _emit(args, rep, payload)


def cmd_cone(args) -> int:
    h = load_hypergraph(args.hypergraph)
    out = h.cone(args.t)
    if args.output:
        save_json(args.output, out.to_dict())
    else:
        sys.stdout.write(dumps(out.to_dict()))
    return 0


def cmd_build_config(args) -> int:
    field = _field_arg(args.field)
    if args.kind == "axis":
        spec = load_json(args.axis_spec)
        d = as_int(spec["d"])
        subsets = [tuple(as_int(j) for j in s) for s in spec["subsets"]]
        functions = [{k: as_int(v) for k, v in _parse_keyed_tuples(f).items()}
                     for f in spec["functions"]]
        cfg = axis_parallel_from_functions(d, subsets, functions,
                                           as_int(spec["s"]), field)
        pattern = axis_parallel_pattern(d, subsets)
    else:
        host = load_simple_hypergraph(args.host)
        pattern = load_hypergraph(args.pattern)
        t = args.t if args.kind == "projected" else 0
        fam = generic_hyperplanes(args.m or host.n, pattern.d + t,
                                  seed=args.seed, field=field)
        cfg = projected_generically_induced(host, pattern, t, fam,
                                            projection_seed=args.seed)
    save_json(args.output, cfg.to_dict())
    print(f"configuration written to {args.output}: "
          f"{len(cfg.points)} points, classes {cfg.class_sizes()}")
    return 0


def cmd_detect(args) -> int:
    cfg = load_config(args.config)
    h = load_hypergraph(args.pattern)
    if args.candidates == "stored":
        candidates = list(cfg.points)
    else:
        candidates = candidate_points_from_flats(cfg, budget=args.budget)
    joints = detect_joints(h, cfg, candidates, seed=args.seed)
    rep = _new_report(args, "detect", [args.config, args.pattern],
                      seed=args.seed)
    rep.add(CheckRecord("joints-detected", INFO, lhs=len(joints),
                        rhs=len(candidates),
                        note=f"candidates from {args.candidates}"))
    payload = {"count": len(joints),
               "points": [[cfg.field.fmt(x) for x in p] for p in joints]}
    return _emit(args, rep, payload)


def cmd_eta(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "eta")
    if not 0 <= args.point < len(cfg.points):
        raise ValueError(f"--point {args.point} is not the index of one of "
                         f"the configuration's {len(cfg.points)} points")
    tuples = cfg.tuples_at(h, args.point)
    res = joint_multiplicity(h, w, tuples, tol=args.tol)
    status = PASS if res.converged else UNCONVERGED
    rep.add(CheckRecord("multiplicity", status, lhs=res.value,
                        slack=res.gap,
                        note=f"{len(tuples)} tuples, {res.iterations} iterations"))
    payload = {"point": args.point, "eta": res.value,
               "log2_eta": res.log2_value, "certified_gap": res.gap,
               "tuples": len(tuples)}
    return _emit(args, rep, payload)


def _parse_keyed_tuples(d: dict):
    """{"a,b,...": value} as {(a, b, ...): float}, values finite and >= 0."""
    if not isinstance(d, dict):
        raise TypeError(f"expected an object keyed by 'a,b,...', got {d!r}")
    out = {tuple(as_int(x) for x in key.split(",")): float(v)
           for key, v in d.items()}
    if not all(0 <= v < math.inf for v in out.values()):
        raise ValueError("values must be finite and nonnegative")
    return out


def _load_spec(path):
    """An inequality spec with its shared fields checked: (spec, d, subsets,
    weights), one weight per subset and every subset inside 1..d."""
    spec = load_json(path)
    d = as_int(spec["d"])
    subsets = [tuple(as_int(j) for j in s) for s in spec["subsets"]]
    weights = [parse_fraction(x) for x in spec["weights"]]
    if len(weights) != len(subsets):
        raise SizeMismatch("need one weight per subset")
    if not all(1 <= j <= d for s in subsets for j in s):
        raise SizeMismatch(f"subsets must lie in 1..{d}")
    return spec, d, subsets, weights


def cmd_shearer(args) -> int:
    spec, d, subsets, weights = _load_spec(args.spec)
    joint = _parse_keyed_tuples(spec["joint"])
    if any(len(k) != d for k in joint):
        raise SizeMismatch(f"joint outcomes must have length d={d}")
    FiniteDistribution(tuple(joint), tuple(joint.values()))  # sums to 1
    slack = shearer_check(d, subsets, weights, joint)
    rep = _new_report(args, "shearer", [args.spec])
    rep.add(CheckRecord("shearer", PASS if slack >= -1e-9 else FAIL,
                        slack=slack))
    return _emit(args, rep)


def cmd_holder(args) -> int:
    spec, d, subsets, weights = _load_spec(args.spec)
    functions = [_parse_keyed_tuples(f) for f in spec["functions"]]
    if len(functions) != len(subsets):
        raise SizeMismatch("need one function per subset")
    lhs, rhs, slack = holder_check(d, subsets, weights, functions,
                                   as_int(spec["s"]))
    rep = _new_report(args, "holder", [args.spec])
    rep.add(CheckRecord("holder",
                        PASS if slack >= -1e-9 * max(rhs, 1.0) else FAIL,
                        lhs, rhs, slack))
    return _emit(args, rep)


def cmd_lw(args) -> int:
    spec, d, subsets, weights = _load_spec(args.spec)
    points = [tuple(p) for p in spec["points"]]
    if any(len(p) != d for p in points):
        raise SizeMismatch(f"points must have length d={d}")
    slack = loomis_whitney_check(d, subsets, weights, points)
    rep = _new_report(args, "lw", [args.spec])
    rep.add(CheckRecord("loomis-whitney", PASS if slack >= -1e-9 else FAIL,
                        slack=slack))
    return _emit(args, rep)


def cmd_geo_shearer(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "geo-shearer", seed=args.seed)
    if args.mode == "optimal":
        rep.add(geo_shearer_optimal_record(h, w, cfg))
    else:
        rep.add(geo_shearer_random_record(h, w, cfg, random.Random(args.seed),
                                          args.count))
    return _emit(args, rep)


def cmd_mcount(args) -> int:
    host = load_simple_hypergraph(args.host)
    pattern = load_hypergraph(args.pattern)
    count = count_inducing_sets(host, pattern)
    rep = _new_report(args, "mcount", [args.host, args.pattern])
    return _emit(args, rep, {"count": count, "host_edges": host.n_edges})


def cmd_kk(args) -> int:
    count = kruskal_katona_count(args.n, args.d)
    x, bound, clamped = lovasz_bound(args.n, args.d)
    rep = _new_report(args, "kk", [])
    rep.add(record_bound("colex-count-vs-bound", count, bound))
    payload = {"n": args.n, "d": args.d, "colex_count": count, "x": x,
               "bound": bound, "clamped": clamped}
    return _emit(args, rep, payload)


def cmd_shadow_check(args) -> int:
    host = load_simple_hypergraph(args.host)
    out = partial_shadow_check(host, args.d, args.t)
    rep = _new_report(args, "shadow-check", [args.host])
    rep.add(CheckRecord("partial-shadow", PASS if out.passed else FAIL,
                        out.count, out.bound, out.bound - out.count,
                        note=f"n={out.n_edges}, x={out.x:.6f}, t={args.t}"))
    return _emit(args, rep)


def cmd_search_m(args) -> int:
    pattern = load_hypergraph(args.pattern)
    res = search_M(pattern, args.n, args.budget, mode=args.mode,
                   seed=args.seed, restarts=args.restarts,
                   work_limit=args.work_limit)
    rep = _new_report(args, "search-m", [args.pattern], seed=args.seed)
    note = "certified optimum within budget" if res.certified else \
        f"local search, {args.restarts} restarts"
    rep.add(CheckRecord("best-count", INFO, lhs=res.best_count, note=note))
    payload = {"best_count": res.best_count, "certified": res.certified,
               "hosts_examined": res.hosts_examined,
               "best_host": res.best_host.to_dict()}
    return _emit(args, rep, payload)


def _load_alpha(text, n_points):
    if text == "zero":
        return {r: 0 for r in range(n_points)}
    if text.startswith("random:"):
        rng = random.Random(int(text.split(":", 1)[1]))
        return {r: rng.randrange(-2, 3) for r in range(n_points)}
    values = load_json(text)["alpha"]
    if len(values) != n_points:
        raise ValueError(f"alpha has {len(values)} entries but the "
                         f"configuration has {n_points} points")
    return {r: as_int(v) for r, v in enumerate(values)}


def cmd_vanishing(args) -> int:
    cfg = load_config(args.config)
    h = load_hypergraph(args.pattern)
    alpha = _load_alpha(args.alpha, len(cfg.points))
    ls = build_ledger_set(h, cfg, alpha, args.n)
    rep = _new_report(args, "vanishing", [args.config, args.pattern])
    table = []
    ok = True
    for fl, ledger in sorted(ls.ledgers.items(),
                             key=lambda kv: (kv[0].dim, kv[0].base)):
        got, want = sum_of_conditions_check(ledger)
        ok = ok and got == want
        table.append({"flat_dim": fl.dim,
                      "counts": {str(r): c for r, c in
                                 sorted(ledger.counts.items())},
                      "total": got, "expected": want})
    rep.add(CheckRecord("sum-of-conditions", PASS if ok else FAIL,
                        note="per-flat pivot totals = C(n+k,k)"))
    total, need, slack = param_counting_check(ls)
    rep.add(record_bound("parameter-counting", need, total, tol=0,
                         note="sum |G_p| >= C(n+d,d)"))
    if args.weights:
        worst = lw_step_worst(ls, load_weights(args.weights, h))
        rep.add(CheckRecord("lw-step", PASS if worst >= -1e-9 else FAIL,
                            slack=worst))
    payload = {"n": args.n, "ledgers": table,
               "param_counting": {"total": total, "required": need}}
    return _emit(args, rep, payload)


def cmd_handicap_run(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "handicap-run")
    W = None
    if args.W != "uniform":
        data = load_json(args.W)
        W = {r: float(parse_fraction(v)) for r, v in enumerate(data["W"])}
    res = handicap_iteration(h, w, cfg, W=W, n=args.n, delta=args.delta,
                             max_rounds=args.rounds)
    status = PASS if res.status in ("flat", "cycle") else UNCONVERGED
    rep.add(CheckRecord("handicap-termination", status, slack=res.max_gap,
                        note=f"status={res.status}, rounds={res.rounds}, "
                             f"delta={res.delta:.5f}, lambda={res.lam:.5f}"))
    if args.output:
        save_json(args.output, certificate_to_dict(h, res))
        print(f"certificate written to {args.output}")
        # what key-audit reports for the written certificate at its defaults
        rep.extend(key_audit_records(h, w, cfg, res.b, res.W))
    return _emit(args, rep)


def cmd_key_audit(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "key-audit", [args.certificate])
    cert = load_json(args.certificate)
    field = field_from_key(cert["field"])
    flats = [Flat.from_dict(field, cert["d"], fd) for fd in cert["flats"]]

    def index(entry, key, size):
        i = entry[key]
        if not isinstance(i, int) or not 0 <= i < size:
            raise ValueError(f"certificate {key} {i!r} is not in 0..{size - 1}")
        return i

    b = {(index(entry, "point", len(cfg.points)),
          flats[index(entry, "flat", len(flats))]):
         parse_fraction(entry["value"]) for entry in cert["b"]}
    W = {r: float(v) for r, v in enumerate(cert["W"])}
    if not all(0 < x < math.inf for x in W.values()):
        raise ValueError("certificate W values must be positive and finite")
    rep.extend(key_audit_records(h, w, cfg, b, W,
                                 cond1_factor=args.cond1_factor,
                                 cond2_tol=args.cond2_tol))
    return _emit(args, rep)


def cmd_verify_simple_bound(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "verify-simple-bound")
    rec = rep.add(simple_bound_record("simple-joints-bound", h, w, cfg))
    payload = {"joints": len(cfg.points),
               "bound": 0.0 if rec.rhs is None else 2.0 ** rec.rhs,
               "constant": covering_constant(h, w).value,
               "class_sizes": list(cfg.class_sizes())}
    return _emit(args, rep, payload)


def cmd_verify_mult_bound(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "verify-mult-bound")
    results = multiplicities(h, w, cfg, tol=args.tol)
    rec = rep.add(mult_bound_record("multiplicity-bound", h, w, cfg, results))
    worst_gap = max([0.0] + [res.gap for res in results])
    if worst_gap > args.tol:
        rep.add(CheckRecord("solver-convergence", UNCONVERGED,
                            slack=worst_gap))
    payload = {"sum_eta": rec.lhs, "bound": rec.rhs, "worst_gap": worst_gap}
    return _emit(args, rep, payload)


def cmd_suite(args) -> int:
    t0 = time.time()
    rep = _new_report(args, "suite", [])
    records, summary = run_suite(fast=args.fast)
    rep.extend(records)
    rep.wall_time_s = time.time() - t0
    for name, verdict, count in summary:
        print(f"[{verdict}] {name} ({count} checks)")
    print()
    return _emit(args, rep)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hjoints",
        description="Exact verification toolkit for joint configurations "
                    "of flats")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=fn)
        p.add_argument("--json", help="write the machine-readable report here")
        return p

    p = add("rho-star", cmd_rho_star, help="fractional edge-covering number")
    p.add_argument("hypergraph")

    p = add("constant", cmd_constant, help="covering constant with exact log form")
    p.add_argument("hypergraph")
    p.add_argument("--weights", required=True)
    p.add_argument("--digits", type=int, default=12)

    p = add("cone", cmd_cone, help="adjoin t fresh vertices to every edge")
    p.add_argument("hypergraph")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("-o", "--output")

    p = add("build-config", cmd_build_config, help="construct a configuration")
    p.add_argument("--kind", choices=("generic", "projected", "axis"),
                   required=True)
    p.add_argument("--host")
    p.add_argument("--pattern")
    p.add_argument("--axis-spec")
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", default="prime",
                   help="'prime' (default 2^61-1), 'rational', or a prime")
    p.add_argument("-o", "--output", required=True)

    p = add("detect", cmd_detect, help="points with a nonempty witness-tuple set")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--candidates", choices=("stored", "intersections"),
                   default="stored")
    p.add_argument("--budget", type=int, default=200000,
                   help="most flat intersections made for --candidates "
                        "intersections")
    p.add_argument("--seed", type=int, default=0)

    p = add("eta", cmd_eta, help="joint multiplicity by Frank-Wolfe")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    for name, fn in (("shearer", cmd_shearer), ("holder", cmd_holder),
                     ("lw", cmd_lw)):
        p = add(name, fn, help=f"{name} inequality check from a spec file")
        p.add_argument("--spec", required=True)

    p = add("geo-shearer", cmd_geo_shearer,
            help="entropy audit over a configuration")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--mode", choices=("random", "optimal"), default="random")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = add("mcount", cmd_mcount, help="inducing vertex-set count")
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)

    p = add("kk", cmd_kk, help="colex clique count and the real-x bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("shadow-check", cmd_shadow_check, help="partial shadow bound check")
    p.add_argument("--host", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = add("search-m", cmd_search_m, help="extremal host search")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "local"),
                   default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--work-limit", type=int, default=2_000_000)

    p = add("vanishing", cmd_vanishing,
            help="derivative-condition ledgers and counting laws")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--alpha", default="zero",
                   help="'zero', 'random:SEED', or a JSON file with 'alpha'")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", help="enables the per-joint LW-step check")

    p = add("handicap-run", cmd_handicap_run, help="balance handicaps, emit certificate")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--delta", type=float)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--W", default="uniform",
                   help="'uniform' or a JSON file with 'W'")
    p.add_argument("-o", "--output")

    p = add("key-audit", cmd_key_audit, help="audit a balance certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--cond1-factor", type=float, default=0.8)
    p.add_argument("--cond2-tol", type=float, default=0.1)

    p = add("verify-simple-bound", cmd_verify_simple_bound,
            help="joint count vs the covering-constant bound")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--weights", required=True)

    p = add("verify-mult-bound", cmd_verify_mult_bound,
            help="multiplicity sum vs the covering-constant bound")
    p.add_argument("--config", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("suite", cmd_suite, help="run the full acceptance battery")
    p.add_argument("--fast", action="store_true",
                   help="trimmed sample counts for interactive runs")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (HJointsError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        # malformed input: bad JSON (a ValueError), keys, shapes or scalars;
        # OverflowError from infinite or out-of-range numbers
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
