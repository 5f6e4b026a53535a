import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hjoints
from hjoints import (GF, QQ, Flat, Hypergraph, JointsConfiguration,
                     SimpleHypergraph, WeightFunction, acceptance,
                     covering_constant, extremal, generic_hyperplanes,
                     generically_induced, report)
from hjoints.cli import main
from hjoints.report import CheckRecord
from hjoints.serialize import certificate_to_dict, load_json, save_json
from hjoints.vanishing import handicap_iteration

K3 = Hypergraph(3, ((1, 2), (1, 3), (2, 3)), (1, 1, 1))


@pytest.fixture
def workdir(tmp_path):
    save_json(tmp_path / "k3.hg", K3.to_dict())
    save_json(tmp_path / "half.w",
              WeightFunction.uniform(K3, Fraction(1, 2)).to_dict())
    host = SimpleHypergraph.complete(4, 2)
    save_json(tmp_path / "k4.hg", host.to_dict())
    return tmp_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def first_json(out):
    """Parse the leading JSON payload, ignoring the trailing check table."""
    return json.JSONDecoder().raw_decode(out)[0]


def test_rho_star_cli(workdir, capsys):
    code, out = run(capsys, "rho-star", workdir / "k3.hg")
    assert code == 0
    assert first_json(out)["value"] == "3/2"


def test_constant_cli(workdir, capsys):
    code, out = run(capsys, "constant", workdir / "k3.hg",
                    "--weights", workdir / "half.w")
    assert code == 0
    payload = first_json(out)
    assert payload["value"] == \
        covering_constant(K3, WeightFunction.uniform(K3, Fraction(1, 2))
                          ).pow2_float()
    assert abs(payload["value"] - 0.47140452079103173) < 1e-12
    assert payload["log2_terms"] == [["1/2", 2], ["-1", 3]]
    with pytest.raises(SystemExit) as exc:  # argparse rejects --digits
        main(["constant", str(workdir / "k3.hg"), "--weights",
              str(workdir / "half.w"), "--digits", "12"])
    assert exc.value.code == 2


def test_cone_cli(workdir, capsys, tmp_path):
    out_path = tmp_path / "cone.hg"
    code, _ = run(capsys, "cone", workdir / "k3.hg", "--t", "1",
                  "-o", out_path)
    assert code == 0
    data = load_json(out_path)
    assert data["d"] == 4
    assert sorted(map(tuple, data["edges"])) == \
        [(1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_build_detect_verify_pipeline(workdir, capsys, tmp_path):
    cfg_path = tmp_path / "g.cfg"
    code, out = run(capsys, "build-config", "--kind", "generic",
                    "--host", workdir / "k4.hg",
                    "--pattern", workdir / "k3.hg",
                    "--seed", "0", "-o", cfg_path)
    assert code == 0 and cfg_path.exists()
    code, out = run(capsys, "detect", "--config", cfg_path,
                    "--pattern", workdir / "k3.hg")
    assert code == 0
    assert first_json(out)["count"] == 4
    # the verdict is exact whatever witness a draw finds: detect takes no
    # seed
    with pytest.raises(SystemExit) as exc:
        main(["detect", "--config", str(cfg_path), "--pattern",
              str(workdir / "k3.hg"), "--seed", "1"])
    assert exc.value.code == 2
    code, out = run(capsys, "verify-simple-bound", "--config", cfg_path,
                    "--pattern", workdir / "k3.hg",
                    "--weights", workdir / "half.w")
    assert code == 0
    assert first_json(out)["joints"] == 4
    code, out = run(capsys, "verify-mult-bound", "--config", cfg_path,
                    "--pattern", workdir / "k3.hg",
                    "--weights", workdir / "half.w")
    assert code == 0
    assert abs(first_json(out)["sum_eta"] - 4.0) < 1e-6


def test_eta_cli(workdir, capsys, tmp_path):
    cfg_path = tmp_path / "g.cfg"
    run(capsys, "build-config", "--kind", "generic",
        "--host", workdir / "k4.hg", "--pattern", workdir / "k3.hg",
        "--seed", "0", "-o", cfg_path)
    code, out = run(capsys, "eta", "--config", cfg_path,
                    "--pattern", workdir / "k3.hg",
                    "--weights", workdir / "half.w", "--point", "0")
    assert code == 0
    payload = first_json(out)
    assert abs(payload["eta"] - 1.0) < 1e-6
    assert payload["tuples"] == 6


SPECS = {
    "shearer": {"d": 2, "subsets": [[1], [2]], "weights": ["1", "1"],
                "joint": {"0,0": 0.5, "1,1": 0.5}},
    "holder": {"d": 2, "s": 2, "subsets": [[1], [2]], "weights": ["1", "1"],
               "functions": [{"0": 1, "1": 2}, {"0": 3, "1": 1}]},
    "lw": {"d": 2, "subsets": [[1], [2]], "weights": ["1", "1"],
           "points": [[0, 0], [1, 1], [0, 1]]},
}


def test_inequality_spec_commands(capsys, tmp_path):
    for command, spec in SPECS.items():
        save_json(tmp_path / f"{command}.json", spec)
        code, _ = run(capsys, command, "--spec", tmp_path / f"{command}.json")
        assert code == 0, command


def test_kk_and_shadow_cli(workdir, capsys, tmp_path):
    code, out = run(capsys, "kk", "--n", "10", "--d", "3")
    assert code == 0
    assert first_json(out)["colex_count"] == 10
    host = SimpleHypergraph.complete(5, 3)
    save_json(tmp_path / "h53.hg", host.to_dict())
    code, out = run(capsys, "shadow-check", "--host", tmp_path / "h53.hg",
                    "--d", "3", "--t", "1")
    assert code == 0
    # K4 at d = 3 is a tie: 4 triangles against C(4, 3)
    code, out = run(capsys, "shadow-check", "--host", workdir / "k4.hg",
                    "--d", "3", "--t", "0")
    assert code == 0 and "PASS" in out
    code, out = run(capsys, "kk", "--n", "0", "--d", "2")
    assert code == 0 and first_json(out)["bound"] == 0
    # the cascade count returns at once where testing every pair of the
    # 10,000 vertices would take minutes
    code, out = run(capsys, "kk", "--n", "10000", "--d", "2")
    payload = first_json(out)
    assert code == 0 and payload["colex_count"] == 49995000
    assert payload["bound"] == 49995000 and "clamped" not in payload


def test_closed_stdout_exits_quietly(tmp_path):
    # the reader of stdout is gone before the run starts: no traceback, the
    # --json report is still written, and the exit code is the checks'
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ,
               PYTHONPATH=str(Path(hjoints.__file__).resolve().parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hjoints.cli", "kk", "--n", "10", "--d",
             "3", "--json", str(tmp_path / "kk.json")],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert load_json(tmp_path / "kk.json")["command"] == "kk"


@pytest.mark.parametrize("d", [171, 200])
def test_kk_cli_past_float_factorials(capsys, d):
    # d! exceeds every float here; the bound is n (x - d + 1) / d
    code, out = run(capsys, "kk", "--n", "1000", "--d", str(d))
    payload = first_json(out)
    assert code == 0 and math.isfinite(payload["bound"])
    assert payload["bound"] == pytest.approx(
        1000 * (payload["x"] - d + 1) / d, rel=1e-12)


def test_mcount_and_search_cli(workdir, capsys):
    code, out = run(capsys, "mcount", "--host", workdir / "k4.hg",
                    "--pattern", workdir / "k3.hg")
    assert code == 0
    assert first_json(out)["count"] == 4
    code, out = run(capsys, "search-m", "--pattern", workdir / "k3.hg",
                    "--n", "5", "--budget", "6", "--mode", "exhaustive")
    assert code == 0
    assert first_json(out)["best_count"] == 2


@pytest.mark.parametrize("mode", ["local", "exhaustive"])
def test_search_cli_rejects_a_negative_n(workdir, capsys, mode):
    code = main(["search-m", "--pattern", str(workdir / "k3.hg"), "--n", "-2",
                 "--budget", "5", "--mode", mode, "--restarts", "1"])
    assert code == 2
    assert "n >= 0" in capsys.readouterr().err


def test_vanishing_handicap_audit_pipeline(workdir, capsys, tmp_path):
    cfg_path = tmp_path / "g.cfg"
    run(capsys, "build-config", "--kind", "generic",
        "--host", workdir / "k4.hg", "--pattern", workdir / "k3.hg",
        "--seed", "0", "-o", cfg_path)
    code, out = run(capsys, "vanishing", "--config", cfg_path,
                    "--pattern", workdir / "k3.hg", "--alpha", "zero",
                    "--n", "3", "--weights", workdir / "half.w")
    assert code == 0
    assert "sum-of-conditions" in out and "PASS" in out
    cert_path = tmp_path / "run.cert"
    code, out = run(capsys, "handicap-run", "--config", cfg_path,
                    "--pattern", workdir / "k3.hg",
                    "--weights", workdir / "half.w", "--n", "24",
                    "-o", cert_path)
    assert code == 0 and cert_path.exists()
    code, out = run(capsys, "key-audit", "--certificate", cert_path,
                    "--config", cfg_path, "--pattern", workdir / "k3.hg",
                    "--weights", workdir / "half.w")
    assert code == 0
    assert "condition-1" in out and "condition-2" in out
    assert "FAIL" not in out


def test_handicap_run_audits_the_certificate_it_writes(workdir, capsys,
                                                      tmp_path):
    # at n=4 on the generic K4 configuration the balanced b overshoots 1/1!
    # on a line by 1/4: the certificate is written, and handicap-run reports
    # the key-audit records for it and exits 1, as key-audit does
    cfg_path, cert_path = tmp_path / "g.cfg", tmp_path / "run.cert"
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / "k4.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
    inputs = ["--config", cfg_path, "--pattern", workdir / "k3.hg",
              "--weights", workdir / "half.w"]
    run_json, audit_json = tmp_path / "run.json", tmp_path / "audit.json"
    code, out = run(capsys, "handicap-run", *inputs, "--n", "4",
                    "-o", cert_path, "--json", run_json)
    assert code == 1 and cert_path.exists()
    assert "certificate written" in out
    code, _ = run(capsys, "key-audit", "--certificate", cert_path, *inputs,
                  "--json", audit_json)
    assert code == 1
    written = load_json(run_json)["records"]
    audited = load_json(audit_json)["records"]
    assert [r["name"] for r in written] == ["handicap-termination",
                                            "condition-1", "condition-2",
                                            "equalization-spread"]
    assert written[1:] == audited
    assert written[2]["status"] == "FAIL"


def test_report_determinism(workdir, capsys, tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(capsys, "rho-star", workdir / "k3.hg", "--json", r1)
    run(capsys, "rho-star", workdir / "k3.hg", "--json", r2)
    a, b = load_json(r1), load_json(r2)
    assert a["digest"] == b["digest"]
    a.pop("volatile"), b.pop("volatile")
    assert a == b


def test_axis_build_config(capsys, tmp_path):
    spec = {"d": 2, "s": 2, "subsets": [[1], [2]],
            "functions": [{"0": 1, "1": 1}, {"0": 1, "1": 1}]}
    save_json(tmp_path / "axis.json", spec)
    cfg_path = tmp_path / "axis.cfg"
    code, out = run(capsys, "build-config", "--kind", "axis",
                    "--axis-spec", tmp_path / "axis.json", "-o", cfg_path)
    assert code == 0
    data = load_json(cfg_path)
    assert len(data["points"]) == 4


def test_projected_build_config(workdir, capsys, tmp_path):
    def build(name, *argv):
        path = tmp_path / name
        code, _ = run(capsys, "build-config", "--pattern", workdir / "k3.hg",
                      "--seed", "0", "-o", path, *argv)
        assert code == 0
        return path

    generic = build("g.cfg", "--kind", "generic", "--host", workdir / "k4.hg")
    t0 = build("p0.cfg", "--kind", "projected", "--t", "0",
               "--host", workdir / "k4.hg")
    assert t0.read_bytes() == generic.read_bytes()
    save_json(tmp_path / "k5_3.hg", SimpleHypergraph.complete(5, 3).to_dict())
    data = load_json(build("p1.cfg", "--kind", "projected", "--t", "1",
                           "--host", tmp_path / "k5_3.hg"))
    assert data["provenance"] == "projected"
    assert data["d"] == 3 and len(data["points"]) == 5


def test_usage_error_exit_code(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["definitely-not-a-command"])
    assert exc.value.code == 2
    # semantic input errors also exit 2
    bad = workdir / "bad.hg"
    save_json(bad, {"d": 3, "edges": [[1, 2]], "colors": [1]})
    code = main(["rho-star", str(bad)])  # vertex 3 isolated
    assert code == 2


@pytest.mark.parametrize("corrupt", ["not-json", "missing-key", "short-basepoint",
                                     "non-prime-field", "bad-scalar"])
def test_malformed_config_exits_two(workdir, capsys, tmp_path, corrupt):
    cfg_path = tmp_path / "g.cfg"
    run(capsys, "build-config", "--kind", "generic",
        "--host", workdir / "k4.hg", "--pattern", workdir / "k3.hg",
        "--seed", "0", "-o", cfg_path)
    data = load_json(cfg_path)
    flat = data["classes"][0]["flats"][0]
    if corrupt == "not-json":
        cfg_path.write_text(cfg_path.read_text()[:-5])
    else:
        if corrupt == "missing-key":
            del flat["directions"]
        elif corrupt == "short-basepoint":
            flat["basepoint"] = flat["basepoint"][:-1]
        elif corrupt == "non-prime-field":
            data["field"] = ["prime", 12]
        else:
            flat["basepoint"][0] = "x"
        save_json(cfg_path, data)
    code = main(["detect", "--config", str(cfg_path),
                 "--pattern", str(workdir / "k3.hg")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_check_failure_exits_one(workdir, capsys, tmp_path):
    cfg_path = tmp_path / "g.cfg"
    run(capsys, "build-config", "--kind", "generic",
        "--host", workdir / "k4.hg", "--pattern", workdir / "k3.hg",
        "--seed", "0", "-o", cfg_path)
    cert_path = tmp_path / "run.cert"
    run(capsys, "handicap-run", "--config", cfg_path,
        "--pattern", workdir / "k3.hg", "--weights", workdir / "half.w",
        "--n", "24", "-o", cert_path)
    cert = load_json(cert_path)
    for entry in cert["b"]:
        entry["value"] = "0"  # corrupt the certificate
    save_json(cert_path, cert)
    code, out = run(capsys, "key-audit", "--certificate", cert_path,
                    "--config", cfg_path, "--pattern", workdir / "k3.hg",
                    "--weights", workdir / "half.w")
    assert code == 1
    assert "FAIL" in out


def test_suite_fast(capsys, tmp_path):
    code, out = run(capsys, "suite", "--fast", "--json", tmp_path / "r.json")
    assert code == 0
    assert "[PASS] 1-rho-star-exactness" in out
    # the battery's records, pinned; a change that moves a record must update
    # this hash and name the record in CHANGES.md
    records = json.dumps(load_json(tmp_path / "r.json")["records"],
                         sort_keys=True)
    assert hashlib.sha256(records.encode()).hexdigest() == \
        "39af741c94a88b80b7d21df24ef08916543c0f6f9685ae6da9621021b00467db"


def test_suite_full(capsys, tmp_path):
    # the full battery's records, pinned as test_suite_fast pins --fast
    code, out = run(capsys, "suite", "--json", tmp_path / "r.json")
    assert code == 0 and "FAIL" not in out
    records = json.dumps(load_json(tmp_path / "r.json")["records"],
                         sort_keys=True)
    assert hashlib.sha256(records.encode()).hexdigest() == \
        "a207fcb41f005ab9ca275d1852655e52b1d4d5bcb9da8d927a7684fa6007a6c0"


# Each rule a command and the battery share, with the battery criterion
# that applies it, the command's record and the criterion's record, and a
# body that turns the rule against every input. Swapping the body of the
# one definition must move both records.
SHARED_RULES = {
    "float-guard": (report.guard_status, lambda slack: "FAIL",
                    ["shearer", "--spec", "shearer.json"], "shearer",
                    acceptance.criterion_entropy_inequalities,
                    "entropy-shearer-random", "FAIL"),
    "holder-guard": (acceptance.holder_slack, lambda slack, rhs: -1.0,
                     ["holder", "--spec", "holder.json"], "holder",
                     acceptance.criterion_entropy_inequalities,
                     "entropy-holder-random", "FAIL"),
    "handicap-termination": (
        acceptance.termination_record,
        lambda name, res, note: CheckRecord(name, "UNCONVERGED"),
        ["handicap-run", "--n", "4"], "handicap-termination",
        acceptance.criterion_handicap_audit, "handicap-n24-terminates",
        "UNCONVERGED"),
    "fw-gap": (acceptance.gap_status, lambda results: "UNCONVERGED",
               ["verify-mult-bound"], "solver-convergence",
               acceptance.criterion_multiplicity, "mult-gap-m4",
               "UNCONVERGED"),
    "lovasz-bound": (extremal.lovasz_holds, lambda n, d, count: False,
                     ["kk", "--n", "10", "--d", "3"], "colex-count-vs-bound",
                     acceptance.criterion_shadow, "shadow-t0-exhaustive",
                     "FAIL"),
}


@pytest.mark.parametrize("rule", sorted(SHARED_RULES))
def test_a_shared_rule_moves_the_command_and_the_battery(
        workdir, capsys, monkeypatch, rule):
    fn, body, argv, cli_name, criterion, suite_name, moved = \
        SHARED_RULES[rule]
    for name, spec in SPECS.items():
        save_json(workdir / f"{name}.json", spec)
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / "k4.hg", "--pattern", workdir / "k3.hg",
        "-o", workdir / "g.cfg")
    if argv[0] in ("handicap-run", "verify-mult-bound"):
        argv = [*argv, "--config", "g.cfg", "--pattern", "k3.hg",
                "--weights", "half.w"]
    argv = [workdir / a if a.endswith((".json", ".cfg", ".hg", ".w"))
            else a for a in argv]

    def statuses():
        run(capsys, *argv, "--json", workdir / "r.json")
        cli = {r["name"]: r["status"]
               for r in load_json(workdir / "r.json")["records"]}
        suite = {r.name: r.status for r in criterion(fast=True)}
        return cli.get(cli_name), suite.get(suite_name)

    kept = statuses()
    assert moved not in kept
    # the body is swapped on the function object, so every module that
    # imported the rule by name runs the swapped body
    monkeypatch.setattr(fn, "__code__", body.__code__)
    assert statuses() == (moved, moved)


def test_bound_commands_pass_on_an_empty_class(capsys, tmp_path):
    # an all-zero function leaves colour 2 without flats: no points, and a
    # bound of 0 since wbar_2 = 1 > 0
    save_json(tmp_path / "axis.json",
              {"d": 2, "s": 2, "subsets": [[1], [2]],
               "functions": [{"0": 1, "1": 1}, {"0": 0, "1": 0}]})
    code, out = run(capsys, "build-config", "--kind", "axis", "--axis-spec",
                    tmp_path / "axis.json", "-o", tmp_path / "a.cfg")
    assert code == 0 and "0 points, classes (2, 0)" in out
    pattern = Hypergraph(2, ((1,), (2,)), (1, 2))
    save_json(tmp_path / "p.hg", pattern.to_dict())
    save_json(tmp_path / "one.w", WeightFunction.uniform(pattern, 1).to_dict())
    inputs = ("--config", tmp_path / "a.cfg", "--pattern", tmp_path / "p.hg",
              "--weights", tmp_path / "one.w")
    for cmd in ("verify-simple-bound", "verify-mult-bound"):
        code, out = run(capsys, cmd, *inputs)
        assert code == 0 and "PASS" in out and "FAIL" not in out
        assert first_json(out)["bound"] == 0.0
    code, out = run(capsys, "geo-shearer", *inputs, "--mode", "optimal")
    assert code == 0 and "PASS" in out


def test_simple_bound_cli_fails_above_the_bound(workdir, capsys, tmp_path):
    # a triangle of three lines in the plane z = 0 with its three corners
    # stored: 3 points against C * 3^(3/2) = sqrt(2)/3 * 5.196... = 2.449...
    f = GF()
    lines = tuple(Flat(f, 3, base, [direction]) for base, direction in
                  (((0, 0, 0), (1, 0, 0)), ((0, 0, 0), (0, 1, 0)),
                   ((1, 0, 0), (f.neg(1), 1, 0))))
    cfg = JointsConfiguration(f, 3, (1,), (lines,),
                              ((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    save_json(tmp_path / "tri.cfg", cfg.to_dict())
    code, out = run(capsys, "verify-simple-bound", "--config",
                    tmp_path / "tri.cfg", "--pattern", workdir / "k3.hg",
                    "--weights", workdir / "half.w")
    assert code == 1 and "FAIL" in out
    payload = first_json(out)
    assert payload["joints"] == 3 and abs(payload["bound"] - 2.449) < 1e-3


def test_geo_shearer_optimal_checks_the_multiplicity_sum(workdir, capsys,
                                                          tmp_path,
                                                          monkeypatch):
    cfg_path = tmp_path / "g.cfg"
    run(capsys, "build-config", "--kind", "generic",
        "--host", workdir / "k4.hg", "--pattern", workdir / "k3.hg",
        "--seed", "0", "-o", cfg_path)
    argv = ("geo-shearer", "--config", cfg_path, "--pattern", workdir / "k3.hg",
            "--weights", workdir / "half.w", "--mode", "optimal")
    assert run(capsys, *argv)[0] == 0
    real = acceptance.joint_multiplicity

    def doubled(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, value=2 * res.value)

    # the audit at the optimizers has lhs = log2(sum eta) for any values;
    # doubled multiplicities leave lhs and move log2(sum eta) by one bit
    monkeypatch.setattr(acceptance, "joint_multiplicity", doubled)
    code, out = run(capsys, *argv)
    assert code == 1 and "geo-shearer-optimal" in out and "FAIL" in out


@pytest.mark.parametrize("target", ["weights", "rational-config",
                                    "certificate"])
def test_zero_denominator_exits_two(workdir, capsys, tmp_path, target):
    cfg_path = tmp_path / "g.cfg"
    field = "rational" if target == "rational-config" else "prime"
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / "k4.hg", "--pattern", workdir / "k3.hg", "--field", field,
        "-o", cfg_path)
    weights = workdir / "half.w"
    if target == "weights":
        save_json(tmp_path / "bad.w", {"weights": ["1/2", "1/0", "1/2"]})
        argv = ["constant", workdir / "k3.hg", "--weights", tmp_path / "bad.w"]
    elif target == "rational-config":
        data = load_json(cfg_path)
        data["points"][0][0] = "1/0"
        save_json(cfg_path, data)
        argv = ["detect", "--config", cfg_path, "--pattern", workdir / "k3.hg"]
    else:
        cert_path = tmp_path / "run.cert"
        run(capsys, "handicap-run", "--config", cfg_path, "--pattern",
            workdir / "k3.hg", "--weights", weights, "--n", "4", "-o", cert_path)
        cert = load_json(cert_path)
        cert["b"][0]["value"] = "1/0"
        save_json(cert_path, cert)
        argv = ["key-audit", "--certificate", cert_path, "--config", cfg_path,
                "--pattern", workdir / "k3.hg", "--weights", weights]
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "1/0" in err


@pytest.mark.parametrize("host,argv,named", [
    ("k4", ["eta", "--weights", "half.w", "--point", "99"], "--point 99"),
    ("k4", ["eta", "--weights", "half.w", "--point", "-1"], "--point -1"),
    ("k4", ["handicap-run", "--weights", "half.w", "--n", "1"], "n = 1"),
    ("k4", ["handicap-run", "--weights", "half.w", "--n", "0",
            "--delta", "0.1"], "n = 0"),
    ("path", ["handicap-run", "--weights", "half.w"], "0 points"),
    ("k4", ["handicap-run", "--weights", "half.w", "--rounds", "-1"],
     "max_rounds = -1"),
    ("k4", ["vanishing", "--n", "-1"], "n = -1"),
    ("k4", ["geo-shearer", "--weights", "half.w", "--count", "0"],
     "count = 0"),
], ids=["eta-point-99", "eta-point-minus-1", "handicap-n-1",
        "handicap-n-0-with-delta", "handicap-no-points",
        "handicap-rounds-minus-1", "vanishing-n-minus-1", "geo-shearer-count-0"])
def test_out_of_range_integers_exit_two(workdir, capsys, host, argv, named):
    # each raised IndexError, ZeroDivisionError or AttributeError, or
    # (--point -1, --n -1, --count 0) ran on a value nothing defines
    save_json(workdir / "path.hg",
              SimpleHypergraph.from_sets(3, [(1, 2), (2, 3)]).to_dict())
    cfg_path = workdir / f"{host}.cfg"
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / f"{host}.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
    argv = [workdir / a if a.endswith(".w") else a for a in argv]
    code = main([str(a) for a in [*argv, "--config", cfg_path,
                                  "--pattern", workdir / "k3.hg"]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: ") and named in err


@pytest.mark.parametrize("argv,named", [
    (["kk", "--n", "5", "--d", "1"], "d = 1"),
    (["kk", "--n", "-1", "--d", "3"], "n = -1"),
    (["shadow-check", "--host", "k4.hg", "--d", "1", "--t", "2"], "d = 1"),
], ids=["kk-d-1", "kk-n-minus-1", "shadow-check-d-1"])
def test_out_of_range_clique_counts_exit_two(workdir, capsys, argv, named):
    # d = 1 looped forever (C(v, 0) = 1 never reaches n; the bisection for
    # C(x, 0) = n doubled its bracket forever); n = -1 passed with exit 0
    argv = [workdir / a if a.endswith(".hg") else a for a in argv]
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: ") and named in err


@pytest.mark.parametrize("argv,named", [
    (["handicap-run", "--weights", "half.w", "--delta", "-1"], "delta = -1.0"),
    (["handicap-run", "--weights", "half.w", "--delta", "nan"], "delta = nan"),
    (["handicap-run", "--weights", "half.w", "--delta", "inf"], "delta = inf"),
    (["eta", "--weights", "half.w", "--point", "0", "--tol", "-1"],
     "tol = -1.0"),
    (["eta", "--weights", "half.w", "--point", "0", "--tol", "nan"],
     "tol = nan"),
    (["eta", "--weights", "half.w", "--point", "0", "--tol", "inf"],
     "tol = inf"),
    (["verify-mult-bound", "--weights", "half.w", "--tol", "-1"], "tol = -1.0"),
], ids=["handicap-delta-minus-1", "handicap-delta-nan", "handicap-delta-inf",
        "eta-tol-minus-1", "eta-tol-nan", "eta-tol-inf",
        "verify-mult-bound-tol-minus-1"])
def test_out_of_range_tolerances_exit_two(workdir, capsys, argv, named):
    # a negative delta cut at every gap and passed handicap-termination, and
    # an infinite one passed it after 0 rounds at any gap; a negative tol
    # reported UNCONVERGED, and an infinite one passed after 1 iteration;
    # all exited 0
    test_out_of_range_integers_exit_two(workdir, capsys, "k4", argv, named)


@pytest.mark.parametrize("flag,value,named", [
    ("--cond1-factor", "-1", "cond1_factor = -1.0, cond2_tol = 0.1"),
    ("--cond1-factor", "inf", "cond1_factor = inf, cond2_tol = 0.1"),
    ("--cond2-tol", "inf", "cond1_factor = 0.8, cond2_tol = inf"),
    ("--cond2-tol", "nan", "cond1_factor = 0.8, cond2_tol = nan"),
], ids=["cond1-factor-minus-1", "cond1-factor-inf", "cond2-tol-inf",
        "cond2-tol-nan"])
def test_vacuous_audit_options_exit_two(workdir, capsys, tmp_path, flag,
                                        value, named):
    # a factor <= 0 and an infinite tolerance passed any certificate, and a
    # NaN tolerance failed any with exit 1
    cfg_path, cert_path = tmp_path / "g.cfg", tmp_path / "run.cert"
    inputs = ["--config", cfg_path, "--pattern", workdir / "k3.hg",
              "--weights", workdir / "half.w"]
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / "k4.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
    run(capsys, "handicap-run", *inputs, "--n", "4", "-o", cert_path)
    code = main([str(a) for a in ["key-audit", "--certificate", cert_path,
                                  *inputs, flag, value]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: ") and named in err


@pytest.mark.parametrize("entries", [6, 3])
def test_vanishing_alpha_of_the_wrong_length_exits_two(workdir, capsys,
                                                      tmp_path, entries):
    # the generic K4 configuration has 4 points: extra entries were dropped
    # silently, and a short list failed with a bare KeyError
    cfg_path = tmp_path / "g.cfg"
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / "k4.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
    save_json(tmp_path / "alpha.json", {"alpha": [0] * entries})
    code = main([str(a) for a in ["vanishing", "--config", cfg_path,
                                  "--pattern", workdir / "k3.hg",
                                  "--alpha", tmp_path / "alpha.json",
                                  "--n", "2"]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: ")
    assert f"{entries} entries" in err and "4 points" in err


@pytest.mark.parametrize("site", ["color", "d", "host-n", "prime-scalar",
                                  "axis-count", "alpha"])
def test_non_integral_scalars_exit_two(workdir, capsys, tmp_path, site):
    # int() would truncate each of these (2.5 -> 2) and load another input
    if site == "axis-count":
        save_json(tmp_path / "axis.json",
                  {"d": 2, "s": 2, "subsets": [[1], [2]],
                   "functions": [{"0": 1, "1": 1.5}, {"0": 1, "1": 1}]})
        argv = ["build-config", "--kind", "axis", "--axis-spec",
                tmp_path / "axis.json", "-o", tmp_path / "axis.cfg"]
    elif site == "alpha":
        cfg_path = tmp_path / "g.cfg"
        run(capsys, "build-config", "--kind", "generic", "--host",
            workdir / "k4.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
        save_json(tmp_path / "alpha.json", {"alpha": [0.5, 0, 0, 0]})
        argv = ["vanishing", "--config", cfg_path, "--pattern",
                workdir / "k3.hg", "--alpha", tmp_path / "alpha.json",
                "--n", "2"]
    elif site == "prime-scalar":
        cfg_path = tmp_path / "g.cfg"
        run(capsys, "build-config", "--kind", "generic", "--host",
            workdir / "k4.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
        data = load_json(cfg_path)
        data["classes"][0]["flats"][0]["basepoint"][0] = 1.5
        save_json(cfg_path, data)
        argv = ["detect", "--config", cfg_path, "--pattern", workdir / "k3.hg"]
    elif site == "host-n":
        save_json(tmp_path / "host.hg", {"n": 4.5, "edges": [[1, 2]]})
        argv = ["mcount", "--host", tmp_path / "host.hg",
                "--pattern", workdir / "k3.hg"]
    else:
        doc = K3.to_dict()
        doc.update({"colors": [1, 1, 2.5]} if site == "color" else {"d": 3.5})
        save_json(tmp_path / "bad.hg", doc)
        argv = ["cone", tmp_path / "bad.hg", "--t", "0"]
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "not an integer" in err


@pytest.mark.parametrize("command, path, value, message", [
    ("shearer", ("d",), 2.5, "not an integer"),
    ("holder", ("s",), 2.9, "not an integer"),
    ("lw", ("d",), 2.7, "not an integer"),
    ("lw", ("subsets", 1, 0), 2.5, "not an integer"),
    ("holder", ("functions", 0), {"0": 1, "1.5": 2}, "invalid literal"),
    ("lw", ("subsets", 1, 0), 3, "subsets must lie in 1..2"),
    ("shearer", ("joint", "0,0"), 2, "sum to 2.5"),
    ("shearer", ("joint",), [], "expected an object"),
    ("holder", ("functions", 0, "1"), "nan", "finite and nonnegative"),
    ("holder", ("functions", 1), "drop", "one function per subset"),
    ("lw", ("points", 0, 1), "drop", "length d=2"),
    ("holder", ("functions", 0), {"0": 1, "1": 1, "5": 100},
     "function key (5,) for subset (1,)"),
    ("holder", ("functions", 0), {"0,1": 3, "1": 1},
     "function key (0, 1) for subset (1,)"),
    ("holder", ("functions", 0), {"0": 1, " 0": 50, "1": 1},
     "two keys name one tuple"),
], ids=["shearer-d", "holder-s", "lw-d", "subset", "keyed-tuple",
        "subset-range", "joint-sum", "joint-type", "holder-nan",
        "holder-missing-function", "lw-short-point", "holder-key-range",
        "holder-key-arity", "holder-key-twice"])
def test_malformed_spec_exits_two(capsys, tmp_path, command, path, value,
                                  message):
    # int() truncated the first four and the inequality ran as PASS; the
    # unnormalised joint and the nan value ran as FAIL (exit 1); a key
    # outside 0..s-1 or of another length than its subset ran as PASS with
    # rhs inflated to 408, and of two keys naming one tuple the last was
    # kept
    spec = _mutate(copy.deepcopy(SPECS[command]), path, value)
    save_json(tmp_path / "spec.json", spec)
    code = main([command, "--spec", str(tmp_path / "spec.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("subsets, functions", [(3, 2), (2, 3)],
                         ids=["functions-short", "functions-long"])
def test_axis_spec_needs_one_function_per_subset(capsys, tmp_path, subsets,
                                                 functions):
    # 3 subsets with 2 functions wrote a configuration of 2 classes, and a
    # third function for 2 subsets was dropped; both exited 0
    save_json(tmp_path / "axis.json",
              {"d": 3, "s": 2, "subsets": [[1], [2], [3]][:subsets],
               "functions": [{"0": 1, "1": 1}] * functions})
    cfg_path = tmp_path / "axis.cfg"
    code = main([str(a) for a in ["build-config", "--kind", "axis",
                                  "--axis-spec", tmp_path / "axis.json",
                                  "-o", cfg_path]])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not cfg_path.exists()
    assert err == "error: need one function per subset\n"


@pytest.mark.parametrize("key, value", [("flat", 999), ("flat", -1),
                                        ("point", 99)])
def test_key_audit_rejects_indices_out_of_range(workdir, capsys, tmp_path,
                                                key, value):
    cfg_path, cert_path = tmp_path / "g.cfg", tmp_path / "run.cert"
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / "k4.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
    inputs = ["--config", cfg_path, "--pattern", workdir / "k3.hg",
              "--weights", workdir / "half.w"]
    run(capsys, "handicap-run", *inputs, "--n", "4", "-o", cert_path)
    cert = load_json(cert_path)
    cert["b"][0][key] = value
    save_json(cert_path, cert)
    code = main([str(a) for a in ["key-audit", "--certificate", cert_path,
                                  *inputs]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"{key} {value} is not in" in err


def test_key_audit_rejects_a_zero_target_weight(workdir, capsys, tmp_path):
    # W(p) = 0 divided by zero in the audit and escaped main as a traceback
    cfg_path, cert_path = tmp_path / "g.cfg", tmp_path / "run.cert"
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / "k4.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
    inputs = ["--config", cfg_path, "--pattern", workdir / "k3.hg",
              "--weights", workdir / "half.w"]
    run(capsys, "handicap-run", *inputs, "--n", "4", "-o", cert_path)
    cert = load_json(cert_path)
    cert["W"][0] = 0
    save_json(cert_path, cert)
    code = main([str(a) for a in ["key-audit", "--certificate", cert_path,
                                  *inputs]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: ValueError: W value 0.0 is not finite and positive\n"



@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_key_audit_rejects_a_W_of_the_wrong_length(workdir, capsys, tmp_path,
                                                  extra):
    # a W one entry short failed as "KeyError: 3"; one entry long was
    # audited and passed
    cfg_path, cert_path = tmp_path / "g.cfg", tmp_path / "run.cert"
    run(capsys, "build-config", "--kind", "generic", "--host",
        workdir / "k4.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
    inputs = ["--config", cfg_path, "--pattern", workdir / "k3.hg",
              "--weights", workdir / "half.w"]
    run(capsys, "handicap-run", *inputs, "--n", "24", "-o", cert_path)
    cert = load_json(cert_path)
    assert len(cert["W"]) == 4
    cert["W"] = cert["W"][:extra] if extra < 0 else cert["W"] + cert["W"][:1]
    save_json(cert_path, cert)
    code = main([str(a) for a in ["key-audit", "--certificate", cert_path,
                                  *inputs]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: ValueError: W has {4 + extra} entries for 4 points\n"


@pytest.mark.parametrize("case, named", [
    ("short", "W has 19 entries for 20 points"),
    ("long", "W has 21 entries for 20 points"),
    ("nan", "W value nan is not finite and positive"),
    ("inf", "W value inf is not finite and positive"),
], ids=["short", "long", "nan", "inf"])
def test_handicap_run_rejects_a_W_that_is_not_one_positive_entry_per_point(
        workdir, capsys, tmp_path, case, named):
    # K3 over the generic K6 configuration has 20 points: a W one entry
    # short failed as "KeyError: 19", one entry long ran and ignored the
    # extra entry, and a JSON NaN or Infinity failed in the fraction parser
    # without naming the value
    save_json(tmp_path / "k6.hg", SimpleHypergraph.complete(6, 2).to_dict())
    cfg_path, cert_path = tmp_path / "g.cfg", tmp_path / "run.cert"
    run(capsys, "build-config", "--kind", "generic", "--host",
        tmp_path / "k6.hg", "--pattern", workdir / "k3.hg", "-o", cfg_path)
    W = {"short": ["1/120"] * 19, "long": ["1/120"] * 21,
         "nan": [math.nan] + ["1/120"] * 19,
         "inf": ["1/120"] * 19 + [math.inf]}[case]
    save_json(tmp_path / "bad.W", {"W": W})
    code = main([str(a) for a in [
        "handicap-run", "--config", cfg_path, "--pattern", workdir / "k3.hg",
        "--weights", workdir / "half.w", "--n", "6", "--W",
        tmp_path / "bad.W", "-o", cert_path]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: ValueError: {named}\n"
    assert not cert_path.exists()


def test_a_stored_point_with_no_witness_tuple_exits_two(capsys, tmp_path):
    # the K3 configuration over K6 plus a stored point on no line: the
    # ledgers have no chosen tuple for it, the dynamic finds it cut off from
    # every used flat first, and eta has no tuple to weigh
    cfg = generically_induced(SimpleHypergraph.complete(6, 2), K3,
                              generic_hyperplanes(6, 3))
    stray = tuple(cfg.field.from_int(x) for x in (1, 2, 3))
    assert not any(fl.contains(stray) for cls in cfg.classes for fl in cls)
    cfg = JointsConfiguration(cfg.field, cfg.d, cfg.dims, cfg.classes,
                              cfg.points + (stray,))
    save_json(tmp_path / "x.cfg", cfg.to_dict())
    save_json(tmp_path / "k3.hg", K3.to_dict())
    save_json(tmp_path / "half.w",
              WeightFunction.uniform(K3, Fraction(1, 2)).to_dict())
    inputs = ["--config", tmp_path / "x.cfg", "--pattern", tmp_path / "k3.hg"]
    weights = ["--weights", tmp_path / "half.w"]
    for argv, message in (
            (["vanishing", *inputs, "--n", "4"],
             "error: stored point 20 admits no witness tuple"),
            (["handicap-run", *inputs, *weights, "--n", "4"],
             "error: configuration is not connected through used flats"),
            (["eta", *inputs, *weights, "--point", "20"],
             "error: no witness tuples at this point")):
        code = main([str(a) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv[0]
        assert err.strip() == message


@pytest.mark.parametrize("change", ["none", "field", "d", "flat"])
def test_key_audit_rejects_a_certificate_for_another_configuration(
        workdir, capsys, tmp_path, change):
    # a certificate over GF(2^61-1) audited against the Q configuration of
    # the same host, or written in d=4, failed condition 1 (exit 1), and a
    # b on a flat that no class holds was summed into condition 2
    cert_path = tmp_path / "run.cert"
    pattern = ["--pattern", workdir / "k3.hg", "--weights", workdir / "half.w"]
    for name, argv in (("g.cfg", []), ("q.cfg", ["--field", "rational"]),
                       ("other.cfg", ["--seed", "1"])):
        run(capsys, "build-config", "--kind", "generic", "--host",
            workdir / "k4.hg", "--pattern", workdir / "k3.hg",
            "-o", tmp_path / name, *argv)
    run(capsys, "handicap-run", "--config", tmp_path / "g.cfg", *pattern,
        "--n", "24", "-o", cert_path)
    cert, cfg_path = load_json(cert_path), tmp_path / "g.cfg"
    if change == "field":
        cfg_path = tmp_path / "q.cfg"
    elif change == "d":
        cert["d"] = 4
        for flat in cert["flats"]:
            for vec in (flat["basepoint"], *flat["directions"]):
                vec.append("0")
    elif change == "flat":
        other = load_json(tmp_path / "other.cfg")
        cert["flats"][0] = other["classes"][0]["flats"][0]
    save_json(cert_path, cert)
    code = main([str(a) for a in ["key-audit", "--certificate", cert_path,
                                  "--config", cfg_path, *pattern]])
    out, err = capsys.readouterr()
    if change == "none":
        assert code == 0 and "FAIL" not in out
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ValueError: certificate ")


@pytest.mark.parametrize("kind, t, message", [
    ("generic", "2", "--t 2 applies only to --kind projected"),
    ("axis", "3", "--t 3 applies only to --kind projected"),
    ("projected", "-1", "--t must be non-negative, got --t -1"),
    ("projected", "-3", "--t must be non-negative, got --t -3")],
    ids=["generic", "axis", "negative", "below-minus-d"])
def test_build_config_rejects_a_t_it_cannot_use(workdir, capsys, tmp_path,
                                                kind, t, message):
    # --kind generic --t 2 and --kind axis --t 3 wrote the bytes of t = 0;
    # --kind projected --t -1 reported that no generic projection was
    # found, and --t -3 that the family needs D >= 1
    save_json(tmp_path / "axis.json",
              {"d": 2, "s": 2, "subsets": [[1], [2]],
               "functions": [{"0": 1, "1": 1}, {"0": 1, "1": 1}]})
    cfg_path = tmp_path / "g.cfg"
    code = main([str(a) for a in ["build-config", "--kind", kind, "--t", t,
                                  "--host", workdir / "k4.hg", "--pattern",
                                  workdir / "k3.hg", "--axis-spec",
                                  tmp_path / "axis.json", "-o", cfg_path]])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not cfg_path.exists()
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("kind, extra, option", [
    ("axis", ["--host", "k4.hg"], "--host"),
    ("axis", ["--pattern", "k3.hg"], "--pattern"),
    ("axis", ["--m", "9"], "--m"),
    ("axis", ["--seed", "0"], "--seed"),
    ("generic", ["--axis-spec", "missing.json"], "--axis-spec"),
    ("projected", ["--t", "1", "--axis-spec", "axis.json"], "--axis-spec")],
    ids=["axis-host", "axis-pattern", "axis-m", "axis-seed",
         "generic-missing-spec", "projected-spec"])
def test_build_config_rejects_options_its_kind_does_not_read(
        workdir, capsys, kind, extra, option):
    # --kind axis with --host, --pattern and --m 9 wrote the bytes it
    # writes without them, and --kind generic --axis-spec missing.json
    # exited 0 without opening the file
    save_json(workdir / "axis.json",
              {"d": 2, "s": 2, "subsets": [[1], [2]],
               "functions": [{"0": 1, "1": 1}, {"0": 1, "1": 1}]})
    kind_inputs = (["--axis-spec", "axis.json"] if kind == "axis" else
                   ["--host", "k4.hg", "--pattern", "k3.hg"])
    cfg_path = workdir / "out.cfg"
    argv = ["build-config", "--kind", kind, *kind_inputs, *extra,
            "-o", cfg_path]
    code = main([str(workdir / a) if str(a).endswith((".hg", ".json"))
                 else str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not cfg_path.exists()
    assert err == f"error: ValueError: --kind {kind} does not read {option}\n"


@pytest.mark.parametrize("argv, message", [
    (["--kind", "axis"], "--kind axis needs --axis-spec"),
    (["--kind", "generic", "--pattern", "k3.hg"], "--kind generic needs --host"),
    (["--kind", "projected", "--t", "1", "--host", "k4.hg"],
     "--kind projected needs --pattern")],
    ids=["axis", "generic", "projected"])
def test_build_config_names_a_missing_input(workdir, capsys, argv, message):
    # --kind generic without --host exited 2 with "TypeError: expected str,
    # bytes or os.PathLike object, not NoneType"
    cfg_path = workdir / "out.cfg"
    code = main(["build-config", *[str(workdir / a) if a.endswith(".hg")
                                   else a for a in argv], "-o", str(cfg_path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not cfg_path.exists()
    assert err == f"error: ValueError: {message}\n"

ODD_SCALARS = ["1/0", "nan", float("nan"), float("inf"), 10 ** 30, -10 ** 30,
               -1, 0, 1.5, 2.5, None, True, "x", [], {}]


def _paths(doc, prefix=()):
    """Every path into nested dicts and lists, the root included."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, path, action):
    """Drop the value at `path`, or put `action` there."""
    if not path:
        return {} if action == "drop" else copy.deepcopy(action)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(action)
    return doc


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    host = SimpleHypergraph.complete(4, 2)
    docs = {"k3.hg": K3.to_dict(), "host.hg": host.to_dict(),
            "half.w": WeightFunction.uniform(K3, Fraction(1, 2)).to_dict()}
    for name, field in (("prime.cfg", GF()), ("rational.cfg", QQ)):
        fam = generic_hyperplanes(4, 3, seed=0, field=field)
        docs[name] = generically_induced(host, K3, fam).to_dict()
    cfg = JointsConfiguration.from_dict(docs["prime.cfg"])
    w = WeightFunction.uniform(K3, Fraction(1, 2))
    docs["run.cert"] = certificate_to_dict(
        K3, handicap_iteration(K3, w, cfg, n=4))
    docs.update({f"{command}.json": spec for command, spec in SPECS.items()})
    docs["axis.json"] = {"d": 2, "s": 2, "subsets": [[1], [2]],
                         "functions": [{"0": 1, "1": 1}, {"0": 1, "1": 2}]}
    return docs, tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(data=st.data())
def test_loader_fuzz_exits_zero_or_two(fuzz_inputs, data):
    # valid .hg (pattern and host)/.w/.cfg/.cert, inequality and axis spec
    # files with a key dropped or a value swapped for an odd scalar or a value of
    # another type: every command either runs or reports an input error,
    # and no exception escapes main
    docs, root = fuzz_inputs
    name = data.draw(st.sampled_from(sorted(docs)))
    doc = copy.deepcopy(docs[name])
    for _ in range(data.draw(st.integers(1, 2))):
        doc = _mutate(doc, data.draw(st.sampled_from(list(_paths(doc)))),
                      data.draw(st.sampled_from(["drop"] + ODD_SCALARS)))
    for key, valid in docs.items():
        save_json(root / key, doc if key == name else valid)
    hg, weights = root / "k3.hg", root / "half.w"
    for argv in (["rho-star", hg], ["constant", hg, "--weights", weights],
                 ["detect", "--config", root / "prime.cfg", "--pattern", hg],
                 ["detect", "--config", root / "rational.cfg", "--pattern", hg],
                 ["mcount", "--host", root / "host.hg", "--pattern", hg],
                 ["search-m", "--pattern", hg, "--n", "3", "--budget", "4",
                  "--mode", "exhaustive"],
                 *[[command, "--spec", root / f"{command}.json"]
                   for command in SPECS],
                 ["build-config", "--kind", "axis", "--axis-spec",
                  root / "axis.json", "--field", "7", "-o", root / "axis.cfg"],
                 ["key-audit", "--certificate", root / "run.cert", "--config",
                  root / "prime.cfg", "--pattern", hg, "--weights", weights]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        if argv[0] == "key-audit" and code == 1:
            # a well-formed certificate may fail its audit (the n=4 one
            # fails condition 2 unmutated): a verdict, not a loader error
            assert "FAIL" in out.getvalue()
            continue
        assert code in (0, 2), argv
        assert code == 0 or err.getvalue().startswith("error: ")
