"""The cross-check suite: all green by default, honest notes when forced red."""

import json
import math

import pytest

from spinwitness.model import SpecError
from spinwitness.validation import TOL_OVERRIDE_CHECKS, run_validation_suite

EXPECTED_CHECKS = {
    "eq2-identity",
    "separable-bound-xxx",
    "separable-bound-xx",
    "concurrence-identity",
    "jw-vs-exactdiag",
    "katsura-vs-jw",
    "magnetization-lnz-derivative",
    "thermo-consistency-finite",
    "thermo-consistency-limit",
    "two-route-witness",
    "limit-symmetry",
    "lowtemp-ferro",
}


def test_default_suite_passes():
    results = run_validation_suite()
    assert {r.name for r in results} == EXPECTED_CHECKS
    assert len(results) == len(EXPECTED_CHECKS)
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual} vs tol {r.tolerance} {r.note}"
        assert isinstance(r.passed, bool)  # plain bool, JSON-serializable
        assert r.residual >= 0.0


def test_results_serialize_to_json():
    results = run_validation_suite()
    payload = json.loads(json.dumps(
        [{"name": r.name, "passed": r.passed, "residual": r.residual,
          "tolerance": r.tolerance, "note": r.note} for r in results]))
    assert all(entry["passed"] is True for entry in payload)


def test_tolerance_override_only_touches_the_quadrature_checks():
    results = {r.name: r for r in run_validation_suite(tol_override=1e-14)}
    for name in EXPECTED_CHECKS - TOL_OVERRIDE_CHECKS:
        assert results[name].passed, name
    # the lnZ-derivative comparison is finite-difference limited around 1e-7,
    # so an overridden 1e-14 fails it -- flagged as tolerance-induced
    lnz = results["magnetization-lnz-derivative"]
    assert not lnz.passed
    assert "tolerance-induced" in lnz.note
    assert lnz.tolerance == 1e-14


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0, math.inf])
def test_tolerance_override_must_be_finite_and_positive(bad):
    # NaN, 0 and -1 once failed every overridden check, inf passed them all
    with pytest.raises(SpecError, match=f"tolerance override must be finite and > 0, got {bad}"):
        run_validation_suite(tol_override=bad)


@pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0, got -1"),
                                           (1.5, "seed must be an integer"),
                                           (True, "seed must be an integer")])
def test_bad_seeds_are_bad_input(seed, message):
    # numpy's ValueError for -1 once reached the CLI as a numerical failure
    with pytest.raises(SpecError, match=message):
        run_validation_suite(seed=seed)


def test_as_printed_magnetization_fails_with_a_note():
    results = {r.name: r for r in run_validation_suite(as_printed=True)}
    lnz = results["magnetization-lnz-derivative"]
    assert not lnz.passed
    assert "documented discrepancy" in lnz.note
    for name in EXPECTED_CHECKS - {"magnetization-lnz-derivative"}:
        assert results[name].passed, name


def test_a_note_explains_a_failure_only():
    # a --tol loose enough to pass the as-printed lnZ check leaves it without its note
    lnz = {r.name: r for r in run_validation_suite(tol_override=10.0, as_printed=True)}[
        "magnetization-lnz-derivative"]
    assert lnz.passed and lnz.tolerance == 10.0 and lnz.residual > 1.0
    assert lnz.note == ""


def test_seed_changes_the_sampled_cases_but_not_the_verdict():
    for seed in (None, 1, 99):
        results = {r.name: r for r in run_validation_suite(seed=seed)}
        assert results["eq2-identity"].passed
