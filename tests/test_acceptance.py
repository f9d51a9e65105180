"""Acceptance gate: every validation suite must pass at its stated tolerance.

Each test runs one oracle suite and prints its pass/fail line, so
``pytest tests/test_acceptance.py -v -s`` doubles as the acceptance report.
The same suites back ``coresel validate``.
"""

import pytest

from coresel import validation


def _run(name):
    result = validation.run_suite(name)
    print(f"\n{result.name}: {'PASS' if result.passed else 'FAIL'} - {result.detail}")
    assert result.passed, result.detail


def test_criterion_1_quadratic_loo_exactness():
    """Retraining deltas equal negated scores to 1e-9 on quadratic cases."""
    _run("quad_loo_exactness")


def test_criterion_2_convex_loo_fidelity():
    """Correlation >= 0.95 between scores and retraining deltas, 20 instances."""
    _run("logistic_loo_fidelity")


def test_criterion_3_second_order_oracles():
    """Dense finite-perturbation quotients match both second-order formulas."""
    _run("second_order_oracles")


def test_criterion_4_neumann_property():
    """Expansion error ratio lands in [3.5, 4.5] when halving eps."""
    _run("neumann_expansion")


def test_criterion_5_regularizer_identities():
    """mu=0, shared-Hessian, decomposition, and Taylor-gradient identities."""
    _run("regularizer_identities")


def test_criterion_6_selector_equivalences(off_optimum_guard):
    """nu=0 and mu=0 reductions produce id-exact buffers on 50 instances,
    none of them scored at its own optimum."""
    checked = off_optimum_guard(validation)
    _run("selector_equivalences")
    assert len(checked) == 4 * 50


def test_criterion_7_greedy_quality(off_optimum_guard):
    """Greedy beats the random-subset median and never the exhaustive
    optimum, on instances none of which is scored at its own optimum."""
    checked = off_optimum_guard(validation)
    _run("greedy_quality")
    assert len(checked) == 100


def test_criterion_8_metrics():
    """Hand-derived accuracy/backward-transfer and rank-correlation values."""
    _run("metrics")


def test_criterion_9_tau_trend():
    """Regularized selection tracks the unbiased ranking better than vanilla
    at no final-accuracy cost versus reservoir sampling."""
    _run("tau_trend")


def test_criterion_10_determinism():
    """Identical config and seed give byte-identical report.json."""
    _run("determinism")


def test_every_suite_is_covered():
    covered = {
        "quad_loo_exactness", "logistic_loo_fidelity", "second_order_oracles",
        "neumann_expansion", "regularizer_identities", "selector_equivalences",
        "greedy_quality", "metrics", "tau_trend", "determinism",
    }
    assert set(validation.suite_names()) == covered
