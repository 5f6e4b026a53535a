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
import os
import random
import platform
import sys
import time
from pathlib import Path

from . import __version__
from .acceptance import (FW_TOL, gap_status, geo_shearer_optimal_record,
                         geo_shearer_random_record, holder_slack,
                         key_audit_records, mult_bound_records, multiplicities,
                         run_suite, simple_bound_record, termination_record)
from .configs import (axis_parallel_from_functions, axis_parallel_pattern,
                      generic_hyperplanes, projected_generically_induced)
from .counting import (lw_step_worst, param_counting_check,
                       sum_of_conditions_check)
from .cover import dual_cover, rho_star
from .entropy import (FiniteDistribution, holder_check, joint_multiplicity,
                      loomis_whitney_check, shearer_check)
from .errors import HJointsError, SizeMismatch
from .extremal import (count_inducing_sets, kruskal_katona_count,
                       lovasz_bound, lovasz_holds, partial_shadow_check,
                       search_M)
from .fields import GF, QQ, as_int
from .geometry import candidate_points_from_flats, detect_joints
from .hypergraph import covering_constant
from .report import (FAIL, INFO, PASS, CheckRecord, VerificationReport,
                     guard_status, record_bound, record_equal)
from .serialize import (certificate_to_dict, dumps, load_certificate,
                        load_config, load_hypergraph, load_json,
                        load_simple_hypergraph, load_weights, parse_fraction,
                        save_json)
from .vanishing import build_ledger_set, handicap_iteration


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


def _say(text: str) -> None:
    """Write text to stdout now, or, once its reader has closed, to devnull,
    as every later write and the flush at exit are then."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, report: VerificationReport, payload=None) -> int:
    if payload is not None:
        _say(dumps(payload))
    if report.records:
        _say(report.render_table() + "\n")
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
    payload = {"value": c.pow2_float(),
               "log2_terms": [[str(q), m] for q, m in c.terms()]}
    rep = _new_report(args, "constant", [args.hypergraph, args.weights])
    return _emit(args, rep, payload)


def cmd_cone(args) -> int:
    h = load_hypergraph(args.hypergraph)
    out = h.cone(args.t)
    if args.output:
        save_json(args.output, out.to_dict())
    else:
        _say(dumps(out.to_dict()))
    return 0


def cmd_build_config(args) -> int:
    field = _field_arg(args.field)
    if args.t < 0:
        raise ValueError(f"--t must be non-negative, got --t {args.t}")
    if args.t and args.kind != "projected":
        raise ValueError(f"--t {args.t} applies only to --kind projected")
    axis = args.kind == "axis"
    for name in ("axis_spec",) if axis else ("host", "pattern"):
        if getattr(args, name) is None:
            raise ValueError(f"--kind {args.kind} needs "
                             f"--{name.replace('_', '-')}")
    for name in ("host", "pattern", "m", "seed") if axis else ("axis_spec",):
        if getattr(args, name) is not None:
            raise ValueError(f"--kind {args.kind} does not read "
                             f"--{name.replace('_', '-')}")
    if axis:
        spec = load_json(args.axis_spec)
        d = as_int(spec["d"])
        subsets = [tuple(as_int(j) for j in s) for s in spec["subsets"]]
        s, functions = _parse_functions(spec, subsets)
        cfg = axis_parallel_from_functions(
            d, subsets, [{k: as_int(v) for k, v in f.items()}
                         for f in functions], s, field)
        pattern = axis_parallel_pattern(d, subsets)
    else:
        host = load_simple_hypergraph(args.host)
        pattern = load_hypergraph(args.pattern)
        seed = args.seed or 0
        fam = generic_hyperplanes(args.m or host.n, pattern.d + args.t,
                                  seed=seed, field=field)
        cfg = projected_generically_induced(host, pattern, args.t, fam,
                                            projection_seed=seed)
    save_json(args.output, cfg.to_dict())
    _say(f"configuration written to {args.output}: "
         f"{len(cfg.points)} points, classes {cfg.class_sizes()}\n")
    return 0


def cmd_detect(args) -> int:
    cfg = load_config(args.config)
    h = load_hypergraph(args.pattern)
    if args.candidates == "stored":
        candidates = list(cfg.points)
    else:
        candidates = candidate_points_from_flats(cfg, budget=args.budget)
    joints = detect_joints(h, cfg, candidates)
    rep = _new_report(args, "detect", [args.config, args.pattern])
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
    rep.add(CheckRecord("multiplicity", gap_status([res]), lhs=res.value,
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
    if len(out) < len(d):
        raise ValueError("two keys name one tuple")
    if not all(0 <= v < math.inf for v in out.values()):
        raise ValueError("values must be finite and nonnegative")
    return out


def _parse_functions(spec, subsets):
    """(s, spec["functions"]): one keyed function per subset, each keyed
    by tuples of its subset's size with entries in 0..s-1."""
    s, functions = as_int(spec["s"]), spec["functions"]
    if len(functions) != len(subsets):
        raise SizeMismatch("need one function per subset")
    functions = [_parse_keyed_tuples(f) for f in functions]
    for I, f in zip(subsets, functions):
        for key in f:
            if len(key) != len(I) or not all(0 <= x < s for x in key):
                raise SizeMismatch(f"function key {key} for subset {I}: "
                                   f"need length {len(I)}, entries in "
                                   f"0..{s - 1}")
    return s, functions


def _spec_inputs(args, command):
    """Load --spec, an inequality spec with its shared fields checked, and
    open the command's report: (spec, d, subsets, weights, report), one
    weight per subset and every subset inside 1..d."""
    spec = load_json(args.spec)
    d = as_int(spec["d"])
    subsets = [tuple(as_int(j) for j in s) for s in spec["subsets"]]
    weights = [parse_fraction(x) for x in spec["weights"]]
    if len(weights) != len(subsets):
        raise SizeMismatch("need one weight per subset")
    if not all(1 <= j <= d for s in subsets for j in s):
        raise SizeMismatch(f"subsets must lie in 1..{d}")
    return spec, d, subsets, weights, _new_report(args, command, [args.spec])


def cmd_shearer(args) -> int:
    spec, d, subsets, weights, rep = _spec_inputs(args, "shearer")
    joint = _parse_keyed_tuples(spec["joint"])
    if any(len(k) != d for k in joint):
        raise SizeMismatch(f"joint outcomes must have length d={d}")
    FiniteDistribution(tuple(joint), tuple(joint.values()))  # sums to 1
    slack = shearer_check(d, subsets, weights, joint)
    rep.add(CheckRecord("shearer", guard_status(slack), slack=slack))
    return _emit(args, rep)


def cmd_holder(args) -> int:
    spec, d, subsets, weights, rep = _spec_inputs(args, "holder")
    s, functions = _parse_functions(spec, subsets)
    lhs, rhs, slack = holder_check(d, subsets, weights, functions, s)
    rep.add(CheckRecord("holder", guard_status(holder_slack(slack, rhs)),
                        lhs, rhs, slack))
    return _emit(args, rep)


def cmd_lw(args) -> int:
    spec, d, subsets, weights, rep = _spec_inputs(args, "lw")
    points = [tuple(p) for p in spec["points"]]
    if any(len(p) != d for p in points):
        raise SizeMismatch(f"points must have length d={d}")
    slack = loomis_whitney_check(d, subsets, weights, points)
    rep.add(CheckRecord("loomis-whitney", guard_status(slack), slack=slack))
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
    x, bound = lovasz_bound(args.n, args.d)
    rep = _new_report(args, "kk", [])
    rep.add(CheckRecord("colex-count-vs-bound",
                        PASS if lovasz_holds(args.n, args.d, count) else FAIL,
                        count, bound, bound - count))
    payload = {"n": args.n, "d": args.d, "colex_count": count, "x": x,
               "bound": bound}
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
        worst, holds = lw_step_worst(ls, load_weights(args.weights, h))
        rep.add(CheckRecord("lw-step", PASS if holds else FAIL, slack=worst))
    payload = {"n": args.n, "ledgers": table,
               "param_counting": {"total": total, "required": need}}
    return _emit(args, rep, payload)


def cmd_handicap_run(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "handicap-run")
    W = None
    if args.W != "uniform":
        # a JSON number is taken as it is, NaN and the infinities too, so
        # that handicap_iteration names the value it rejects
        W = {r: v if isinstance(v, float) else float(parse_fraction(v))
             for r, v in enumerate(load_json(args.W)["W"])}
    res = handicap_iteration(h, w, cfg, W=W, n=args.n, delta=args.delta,
                             max_rounds=args.rounds)
    rep.add(termination_record(
        "handicap-termination", res,
        f"delta={res.delta:.5f}, lambda={res.lam:.5f}"))
    if args.output:
        save_json(args.output, certificate_to_dict(h, res))
        _say(f"certificate written to {args.output}\n")
        # what key-audit reports for the written certificate at its defaults
        rep.extend(key_audit_records(h, w, cfg, res.b, res.W))
    return _emit(args, rep)


def cmd_key_audit(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "key-audit", [args.certificate])
    b, W = load_certificate(args.certificate, cfg)
    rep.extend(key_audit_records(h, w, cfg, b, W,
                                 cond1_factor=args.cond1_factor,
                                 cond2_tol=args.cond2_tol))
    return _emit(args, rep)


def cmd_verify_simple_bound(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "verify-simple-bound")
    rec = rep.add(simple_bound_record("simple-joints-bound", h, w, cfg))
    payload = {"joints": len(cfg.points),
               "bound": 0.0 if rec.rhs is None else 2.0 ** rec.rhs,
               "constant": covering_constant(h, w).pow2_float(),
               "class_sizes": list(cfg.class_sizes())}
    return _emit(args, rep, payload)


def cmd_verify_mult_bound(args) -> int:
    cfg, h, w, rep = _config_inputs(args, "verify-mult-bound")
    records, payload = mult_bound_records(
        ("multiplicity-bound", "solver-convergence"), h, w, cfg,
        multiplicities(h, w, cfg, tol=args.tol))
    rep.extend(records)
    return _emit(args, rep, payload)


def cmd_suite(args) -> int:
    t0 = time.time()
    rep = _new_report(args, "suite", [])
    records, summary = run_suite(fast=args.fast)
    rep.extend(records)
    rep.wall_time_s = time.time() - t0
    for name, verdict, count in summary:
        _say(f"[{verdict}] {name} ({count} checks)\n")
    _say("\n")
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

    def config_inputs(p):  # the files _config_inputs reads
        for flag in ("--config", "--pattern", "--weights"):
            p.add_argument(flag, required=True)

    p = add("rho-star", cmd_rho_star, help="fractional edge-covering number")
    p.add_argument("hypergraph")

    p = add("constant", cmd_constant, help="covering constant with exact log form")
    p.add_argument("hypergraph")
    p.add_argument("--weights", required=True)

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
    p.add_argument("--seed", type=int, help="family and projection seed "
                   "(default 0)")
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

    p = add("eta", cmd_eta, help="joint multiplicity by Frank-Wolfe")
    config_inputs(p)
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--tol", type=float, default=FW_TOL)

    for name, fn in (("shearer", cmd_shearer), ("holder", cmd_holder),
                     ("lw", cmd_lw)):
        p = add(name, fn, help=f"{name} inequality check from a spec file")
        p.add_argument("--spec", required=True)

    p = add("geo-shearer", cmd_geo_shearer,
            help="entropy audit over a configuration")
    config_inputs(p)
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
    config_inputs(p)
    p.add_argument("--n", type=int, default=24)
    p.add_argument("--delta", type=float)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--W", default="uniform",
                   help="'uniform' or a JSON file with 'W'")
    p.add_argument("-o", "--output")

    p = add("key-audit", cmd_key_audit, help="audit a balance certificate")
    p.add_argument("--certificate", required=True)
    config_inputs(p)
    p.add_argument("--cond1-factor", type=float, default=0.8)
    p.add_argument("--cond2-tol", type=float, default=0.1)

    p = add("verify-simple-bound", cmd_verify_simple_bound,
            help="joint count vs the covering-constant bound")
    config_inputs(p)

    p = add("verify-mult-bound", cmd_verify_mult_bound,
            help="multiplicity sum vs the covering-constant bound")
    config_inputs(p)
    p.add_argument("--tol", type=float, default=FW_TOL)

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
