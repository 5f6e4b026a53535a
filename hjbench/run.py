"""Benchmark of hjoints: the handicap, search and joints workloads.

One workload, as the benchmark contract runs it (prints one JSON line last)::

    python3 hjbench/run.py --workload handicap --seed 0 --seconds 30 --trace 0

Every workload, each in its own process, untraced then traced; prints one
row per workload and the per-layer split, and with ``--record`` writes them
with the environment to a JSON file::

    python3 hjbench/run.py --seed 0 [--record hjbench/baseline.json]

A run measures the hjoints sources in ``src/`` of the checkout holding this
directory, imported afresh for every set-up. With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics, including the tracing overhead.
Details of every run go to ``hjbench-out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from spans import Recorder, wrapper_costs
from workloads import WORKLOADS, sub_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "hjbench-out"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 8  # set-up-only repetitions before each pass, for setup_s
ROOTS = ("setup", "pass")  # root spans around a traced set-up and timed part

END_TO_END = {  # name -> (unit, better, meaning)
    "setup_s": ("s", "lower",
                "median time to import hjoints and build one pass's inputs"),
    "wall_s": ("s", "lower",
               "time to a checked verdict for one pass: mean over the run's "
               "sub-inputs of the median pass time"),
    "peak_rss_mb": ("MiB", "lower", "peak resident memory of the run's process"),
}

# printed and recorded, not gated: each is defined on one workload only, or
# is 0 on a correct run
EXTRA = {
    "rounds_per_s": ("1/s", "higher", "handicap rounds per second"),
    "hosts_per_s": ("1/s", "higher", "hosts examined per second"),
    "failed_frac": ("frac", "lower", "output checks failed / attempted"),
}


def _per_pass(key):
    return lambda a, derived, n: a[key] / n


def _found(a, derived, n):
    return a["value"] / a["calls"] if a["calls"] else 0.0


def _hit(a, derived, n):
    return 1.0 - derived["tuples_at_misses"] / a["calls"] if a["calls"] else 0.0


def _counted(a, derived, n):
    return derived["search_counts"] / a["value"] if a["value"] else 0.0


KINDS = {  # metric suffix -> (unit, better, value from the span aggregate)
    "calls": ("count", "lower", _per_pass("calls")),
    "self_s": ("s", "lower", _per_pass("self_s")),
    "found_ratio": ("frac", "higher", _found),
    "rows_reduced": ("count", "lower", _per_pass("value")),
    "iterations": ("count", "lower", _per_pass("value")),
    "hosts_examined": ("count", "lower", _per_pass("value")),
    "hit_ratio": ("frac", "higher", _hit),
    "counted_ratio": ("frac", "lower", _counted),
}

# traced function, its metrics, the end-to-end metric it should move, the
# workloads where it dominates and where it is (about) absent
LAYERS = (
    ("vanishing.build_ledger_set", ("calls", "self_s"),
     "wall_s, rounds_per_s", "handicap", "search"),
    ("vanishing.PullbackTable", ("calls", "self_s"),
     "handicap wall_s", "handicap", "search"),
    ("vanishing.build_flat_ledger", ("calls", "self_s", "rows_reduced"),
     "wall_s", "handicap, joints", "search"),
    ("vanishing.point_exponents", ("self_s",),
     "joints wall_s, handicap wall_s", "joints", "search"),
    ("vanishing.key_inequality_audit", ("self_s",),
     "joints wall_s, handicap wall_s", "handicap", "search"),
    ("configs.generically_induced", ("self_s",), "setup_s", "all", "none"),
    ("configs.JointsConfiguration.tuples_at", ("calls", "hit_ratio"),
     "handicap wall_s", "handicap", "search"),
    ("geometry.enumerate_witness_tuples", ("calls", "self_s"),
     "joints wall_s", "joints", "search"),
    ("geometry.witness_check", ("calls", "self_s", "found_ratio"),
     "joints wall_s", "joints", "search"),
    ("geometry.candidate_points_from_flats", ("self_s",),
     "joints wall_s", "joints", "handicap"),
    ("geometry.detect_joints", ("self_s",), "joints wall_s", "joints", "handicap"),
    ("linalg.rref", ("calls", "self_s"), "joints wall_s", "joints", "search"),
    ("linalg.nullspace", ("calls", "self_s"), "joints wall_s", "joints", "search"),
    ("extremal.find_embedding", ("calls", "self_s", "found_ratio"),
     "search wall_s, hosts_per_s; setup_s", "search", "handicap (timed part)"),
    ("extremal.inducing_sets", ("calls", "self_s"),
     "search wall_s", "search", "handicap (timed part)"),
    ("extremal.canonical_form", ("calls", "self_s"),
     "search wall_s", "search", "handicap, joints"),
    ("extremal.search_M", ("hosts_examined", "counted_ratio"),
     "hosts_per_s", "search", "none"),
    ("entropy.joint_multiplicity", ("calls", "self_s", "iterations"),
     "joints wall_s", "joints", "search"),
)

TRACE_METRICS = {
    "trace.overhead_s": ("s", "lower",
                         "traced minus untraced pass time, mean over sub-inputs; "
                         "one or two passes of each, so noise can make it < 0"),
    "trace.overhead_est_s": ("s", "lower",
                             "spans per pass times the cost of one span, plus "
                             "counted calls times the cost of one count"),
    "trace.uncovered_frac": ("frac", "lower",
                             "share of traced time in no traced function"),
}


def per_layer_spec() -> list[dict]:
    out = []
    for fn, kinds, moves, dominant, absent in LAYERS:
        for kind in kinds:
            unit, better, _ = KINDS[kind]
            out.append({"name": f"{fn}.{kind}", "unit": unit, "better": better,
                        "should_move": moves, "dominant_in": dominant,
                        "absent_in": absent})
    for name, (unit, better, meaning) in TRACE_METRICS.items():
        out.append({"name": name, "unit": unit, "better": better,
                    "meaning": meaning})
    return out


def environment(seed: int) -> dict:
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "HJOINTS_THREADS": os.environ.get("HJOINTS_THREADS", "unset (1 thread)"),
            # set, every import compiles hjoints' sources: most of setup_s
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE",
                                                      "unset"),
            "seed": seed}


def fresh_hjoints():
    """Import hjoints from the checkout's sources, dropping any earlier copy."""
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hjoints" or n.startswith("hjoints.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hjoints")
    importlib.import_module("hjoints.serialize")
    if Path(pkg.__file__).resolve().parent != SRC / "hjoints":
        raise RuntimeError(f"imported hjoints from {pkg.__file__}, not {SRC}")
    return pkg


def one_pass(wl, sub: int, ref: dict, recorder=None):
    """Set up and run one pass: (setup_s, wall_s, checks, work units)."""
    t0 = time.perf_counter()
    hj = fresh_hjoints()
    if recorder is not None:
        recorder.pass_id += 1
        recorder.install(hj)
    with recorder.span(ROOTS[0]) if recorder else nullcontext():
        inp = wl.build(hj, sub)
    setup_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    with recorder.span(ROOTS[1]) if recorder else nullcontext():
        out = wl.run(hj, inp)
        checks = wl.check(hj, inp, out, ref)
    wall_s = time.perf_counter() - t1
    return setup_s, wall_s, checks, wl.work(out)


def measure(wl, seed: int, seconds: float, traced: bool) -> dict:
    reference = json.loads(REFERENCE.read_text())[wl.name]
    subs = sub_seeds(wl, seed)
    start = time.perf_counter()
    setups = []
    walls = {s: [] for s in subs}
    traced_walls = {s: [] for s in subs}
    work = {}
    attempted = failed = 0
    failures = Counter()
    recorder = Recorder() if traced else None
    i = 0
    while i < len(subs) or time.perf_counter() - start < seconds:
        sub = subs[i % len(subs)]
        i += 1
        for _ in range(SETUP_REPS):
            gc.collect()
            t0 = time.perf_counter()
            wl.build(fresh_hjoints(), sub)
            setups.append(time.perf_counter() - t0)
        for rec in ((None, recorder) if traced else (None,)):
            gc.collect()
            try:
                setup_s, wall, checks, units = one_pass(
                    wl, sub, reference.get(str(sub), {}), rec)
            except Exception:  # a crash fails the pass, the run goes on
                traceback.print_exc(file=sys.stderr)
                attempted += 1
                failed += 1
                failures["raised"] += 1
                continue
            bad = [name for name, ok in checks if not ok]
            attempted += len(checks)
            failed += len(bad)
            failures.update(bad)
            if rec is None:
                setups.append(setup_s)
                walls[sub].append(wall)
                work[sub] = units
            else:
                traced_walls[sub].append(wall)
    medians = {s: statistics.median(v) for s, v in walls.items() if v}
    if not medians:
        raise SystemExit(f"{wl.name}: every pass raised")
    extra = {"failed_frac": failed / attempted}
    for key in next(iter(work.values())):
        extra[key] = statistics.fmean(work[s][key] / medians[s] for s in medians)
    res = {"attempted": attempted, "failed": failed, "failures": dict(failures),
           "sub_seeds": subs, "walls": {str(s): v for s, v in walls.items()},
           "setups": setups, "extra": extra,
           "metrics": {"setup_s": statistics.median(setups),
                       "wall_s": statistics.fmean(medians.values()),
                       "peak_rss_mb": resource.getrusage(
                           resource.RUSAGE_SELF).ru_maxrss / 1024}}
    if traced:
        res.update(layer_results(recorder, medians, traced_walls))
    return res


def layer_results(recorder, medians: dict, traced_walls: dict) -> dict:
    passes = range(1, recorder.pass_id + 1)
    n = len(passes)
    agg = recorder.aggregate(passes)
    by_name = agg["by_name"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "value": 0}
    layer = {}
    for fn, kinds, *_ in LAYERS:
        for kind in kinds:
            layer[f"{fn}.{kind}"] = KINDS[kind][2](by_name.get(fn, empty), agg, n)
    roots = [by_name.get(r, empty) for r in ROOTS]
    traced_total = sum(r["total_s"] for r in roots)
    layer["trace.overhead_s"] = statistics.fmean(
        statistics.median(traced_walls[s]) - medians[s]
        for s in medians if traced_walls[s])
    span_cost, count_cost = wrapper_costs()
    layer["trace.overhead_est_s"] = (
        sum(a["calls"] for a in by_name.values()) * span_cost
        + agg["counter_calls"] * count_cost) / n
    layer["trace.uncovered_frac"] = sum(r["self_s"] for r in roots) / traced_total
    functions = {name: {k: v / n for k, v in a.items()}
                 for name, a in sorted(by_name.items(),
                                       key=lambda kv: -kv[1]["self_s"])}
    return {"per_layer": layer, "functions": functions,
            "traced_total_s": traced_total / n,
            "self_sum_s": sum(a["self_s"] for a in by_name.values()) / n,
            "recorder": recorder}


def run_one(args) -> None:
    wl = WORKLOADS[args.workload]
    res = measure(wl, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        spec = {m["name"]: m["unit"] for m in per_layer_spec()}
        metrics = {k: {"value": v, "unit": spec[k]}
                   for k, v in res["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k][0]}
                   for k, v in res["metrics"].items()}
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    recorder = res.pop("recorder", None)
    if recorder is not None:
        recorder.dump(stem.with_suffix(".spans.json.gz"))
    detail = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "result": line} | res
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1))
    print(f"{wl.name} seed={args.seed} sub_seeds={res['sub_seeds']} "
          f"passes={sum(len(v) for v in res['walls'].values())} "
          f"checks={res['attempted']} failed={res['failed']} {res['failures']}")
    if args.trace:
        print(f"traced time per pass {res['traced_total_s']:.4f} s; the self "
              f"times of all spans sum to {res['self_sum_s']:.4f} s, and "
              f"{res['per_layer']['trace.uncovered_frac']:.3%} of the traced "
              f"time is in no traced function")
        layer = res["per_layer"]
        print(f"tracing overhead per pass: {layer['trace.overhead_est_s']:.4f} s "
              f"estimated from the span count; traced minus untraced pass "
              f"time {layer['trace.overhead_s']:.4f} s (run noise; can be negative)")
        for name, a in list(res["functions"].items())[:15]:
            print(f"  {name:45s} calls {a['calls']:10.1f}  self {a['self_s']:8.4f} s")
    print(json.dumps(line))


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_all(args) -> None:
    details = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.stdout.write(proc.stdout)
                raise SystemExit(f"{name} --trace {trace} exited {proc.returncode}")
            detail = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
            details[(name, trace)] = json.loads(detail.read_text())
    cols = list(END_TO_END) + list(EXTRA)
    units = {**{k: v[0] for k, v in END_TO_END.items()},
             **{k: v[0] for k, v in EXTRA.items()}}
    print(f"{'workload':10s}" + "".join(f"{c + ' [' + units[c] + ']':>22s}" for c in cols))
    for name in WORKLOADS:
        d = details[(name, 0)]
        vals = d["metrics"] | d["extra"]
        print(f"{name:10s}" + "".join(
            f"{vals[c]:22.4f}" if c in vals else f"{'-':>22s}" for c in cols))
    print()
    print(f"{'per-layer (traced run, per pass)':58s}"
          + "".join(f"{n:>14s}" for n in WORKLOADS))
    for m in per_layer_spec():
        print(f"{m['name'] + ' [' + m['unit'] + ']':58s}" + "".join(
            f"{details[(n, 1)]['per_layer'][m['name']]:14.4f}" for n in WORKLOADS))
    if args.record:
        env = environment(args.seed) | {"cpu_model": cpu_model(),
                                        "seconds": args.seconds}
        record = {"env": env,
                  "end_to_end": {k: {"unit": u, "better": b, "meaning": m}
                                 for k, (u, b, m) in (END_TO_END | EXTRA).items()},
                  "per_layer": per_layer_spec(),
                  "workloads": {}}
        for name, wl in WORKLOADS.items():
            plain, traced = details[(name, 0)], details[(name, 1)]
            record["workloads"][name] = {
                "why": wl.why, "sub_seeds": plain["sub_seeds"],
                "end_to_end": plain["metrics"] | plain["extra"],
                "checks": {"attempted": plain["attempted"], "failed": plain["failed"]},
                "per_layer": traced["per_layer"],
                "traced_total_s": traced["traced_total_s"],
                "self_s_by_function": {k: v["self_s"]
                                       for k, v in traced["functions"].items()}}
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="with no --workload: write the results here")
    args = ap.parse_args(argv)
    if not (SRC / "hjoints" / "__init__.py").is_file():
        print(f"hjbench: no hjoints sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    os.environ.pop("HJOINTS_THREADS", None)  # the default: one thread
    if args.workload:
        run_one(args)
    else:
        run_all(args)


if __name__ == "__main__":
    main()
