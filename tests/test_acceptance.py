"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line for its criterion (run pytest with -s
to see them); the stretch search criterion reports INFO on a miss and never
fails the suite.
"""

import dataclasses
from fractions import Fraction

import pytest

from hjoints import Log2Value, acceptance
from hjoints.acceptance import CRITERIA
from hjoints.report import FAIL, PASS


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(name, fn):
    records = fn(fast=False)
    failures = [r for r in records if r.status == FAIL]
    verdict = "FAIL" if failures else "PASS"
    print(f"[acceptance] {name}: {verdict} ({len(records)} checks)")
    for r in failures:
        print(f"  failed: {r.name} lhs={r.lhs} rhs={r.rhs} slack={r.slack}")
    assert not failures, f"{name}: {len(failures)} failed checks"


def test_shadow_t_independence_can_fail(monkeypatch):
    real = acceptance.partial_shadow_check

    def t_dependent(host, d, t, **kwargs):
        rep = real(host, d, t, **kwargs)
        return dataclasses.replace(rep, bound=rep.bound + t)

    monkeypatch.setattr(acceptance, "partial_shadow_check", t_dependent)
    records = {r.name: r for r in acceptance.criterion_shadow(fast=True)}
    assert records["shadow-bound-t-independent"].status == FAIL


def test_shadow_summaries_follow_the_reports(monkeypatch):
    real = acceptance.partial_shadow_check

    def failing(host, d, t, **kwargs):
        return dataclasses.replace(real(host, d, t, **kwargs), passed=False)

    monkeypatch.setattr(acceptance, "partial_shadow_check", failing)
    records = {r.name: r for r in acceptance.criterion_shadow(fast=True)}
    assert records["shadow-t0-exhaustive"].status == FAIL
    assert records["shadow-t1-random"].status == FAIL


def test_config_count_mismatch_is_a_fail_record(monkeypatch):
    real = acceptance.count_inducing_sets
    monkeypatch.setattr(acceptance, "count_inducing_sets",
                        lambda host, pattern: real(host, pattern) + 1)
    records = {r.name: r for r in
               acceptance.criterion_geometry_combinatorics(fast=True)}
    assert records["config-vs-count-0"].status == FAIL


@pytest.mark.parametrize("constant,status", [
    (Fraction(2**40 - 1, 2**40), FAIL), (Fraction(1), PASS)],
    ids=["below-1", "at-1"])
def test_tensor_power_trend_follows_the_constant(monkeypatch, constant,
                                                  status):
    # the n-th root of the weakened bound on the n-th tensor power is
    # C^(1/n) times the Holder right side: it rises with n once C < 1,
    # however close to 1, and is flat at C = 1
    monkeypatch.setattr(acceptance, "covering_constant",
                        lambda h, w: Log2Value.of_fraction_log(constant))
    records = {r.name: r for r in
               acceptance.criterion_entropy_inequalities(fast=True)}
    assert records["entropy-tensor-power-trend"].status == status
