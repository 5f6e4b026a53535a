"""Tests of the benchmark itself: its output checks must be able to fail.

    python3 -m pytest -q hjbench
"""

from __future__ import annotations

import json

import pytest

import run
from spans import Recorder
from workloads import WORKLOADS


def corrupt(value):
    if isinstance(value, bool) or not isinstance(value, (int, str, list)):
        raise TypeError(value)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value[::-1] + "x"
    return [corrupt(value[0])] + value[1:]


def reference(name: str) -> dict:
    return json.loads(run.REFERENCE.read_text())[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_corrupted_reference_value_fails_one_check(name):
    wl = WORKLOADS[name]
    ref = reference(name)["0"]
    hj = run.fresh_hjoints()
    inp = wl.build(hj, 0)
    out = wl.run(hj, inp)
    assert [c for c, ok in wl.check(hj, inp, out, ref) if not ok] == []
    for key in sorted(ref):
        bad = dict(ref, **{key: corrupt(ref[key])})
        assert [c for c, ok in wl.check(hj, inp, out, bad) if not ok] == \
            [f"ref_{key}"]


def test_corrupted_reference_makes_the_run_report_a_failure(tmp_path, monkeypatch,
                                                             capsys):
    name = "joints"
    data = json.loads(run.REFERENCE.read_text())
    for entry in data[name].values():
        entry["tuple_counts"] = corrupt(entry["tuple_counts"])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(run, "REFERENCE", path)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    run.main(["--workload", name, "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    passes = WORKLOADS[name].cycle
    assert result["correct"] is False
    assert result["failed"] == passes
    assert result["attempted"] > result["failed"]
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_counted_calls_add_to_the_innermost_span():
    rec = Recorder()
    counted = rec.count(lambda: None)
    outer = rec.wrap("outer", lambda: [counted() for _ in range(3)])
    rec.pass_id = 1
    outer()
    counted()  # outside every span: not counted
    agg = rec.aggregate([1])
    assert agg["by_name"]["outer"]["value"] == 3
    assert agg["counter_calls"] == 3
