import json
from fractions import Fraction

import pytest

from hjoints import Hypergraph, SimpleHypergraph, WeightFunction
from hjoints.cli import main
from hjoints.serialize import load_json, save_json

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
                    "--weights", workdir / "half.w", "--digits", "12")
    assert code == 0
    assert abs(first_json(out)["value"] - 0.47140452079103173) < 1e-12


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


def test_inequality_spec_commands(capsys, tmp_path):
    shearer_spec = {"d": 2, "subsets": [[1], [2]], "weights": ["1", "1"],
                    "joint": {"0,0": 0.5, "1,1": 0.5}}
    save_json(tmp_path / "sh.json", shearer_spec)
    code, _ = run(capsys, "shearer", "--spec", tmp_path / "sh.json")
    assert code == 0
    holder_spec = {"d": 2, "s": 2, "subsets": [[1], [2]],
                   "weights": ["1", "1"],
                   "functions": [{"0": 1, "1": 2}, {"0": 3, "1": 1}]}
    save_json(tmp_path / "ho.json", holder_spec)
    code, _ = run(capsys, "holder", "--spec", tmp_path / "ho.json")
    assert code == 0
    lw_spec = {"d": 2, "subsets": [[1], [2]], "weights": ["1", "1"],
               "points": [[0, 0], [1, 1], [0, 1]]}
    save_json(tmp_path / "lw.json", lw_spec)
    code, _ = run(capsys, "lw", "--spec", tmp_path / "lw.json")
    assert code == 0


def test_kk_and_shadow_cli(workdir, capsys, tmp_path):
    code, out = run(capsys, "kk", "--n", "10", "--d", "3")
    assert code == 0
    assert first_json(out)["colex_count"] == 10
    host = SimpleHypergraph.complete(5, 3)
    save_json(tmp_path / "h53.hg", host.to_dict())
    code, out = run(capsys, "shadow-check", "--host", tmp_path / "h53.hg",
                    "--d", "3", "--t", "1")
    assert code == 0


def test_mcount_and_search_cli(workdir, capsys):
    code, out = run(capsys, "mcount", "--host", workdir / "k4.hg",
                    "--pattern", workdir / "k3.hg")
    assert code == 0
    assert first_json(out)["count"] == 4
    code, out = run(capsys, "search-m", "--pattern", workdir / "k3.hg",
                    "--n", "5", "--budget", "6", "--mode", "exhaustive")
    assert code == 0
    assert first_json(out)["best_count"] == 2


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


def test_suite_fast(capsys):
    code, out = run(capsys, "suite", "--fast")
    assert code == 0
    assert "[PASS] 1-rho-star-exactness" in out
