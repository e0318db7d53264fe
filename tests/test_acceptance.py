"""Acceptance gate: every bound criterion at its stated tolerance.

Runs the same suite as ``jcrabi verify`` and prints one pass/fail line per
criterion.  Criterion 12 is an investigation report (emitted, not asserted)
per its contract; everything else gates the release.
"""

import numpy as np
import pytest

from jcrabi import acceptance
from jcrabi.acceptance import AcceptanceSuite


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


def _run(suite, number):
    res = suite.run([number])[0]
    print()
    print(res.summary())
    for line in res.lines:
        print(line)
    return res


def test_criterion_1_eigensolver_soundness(suite):
    assert _run(suite, 1).passed


def test_criterion_2_symmetries(suite):
    assert _run(suite, 2).passed


def test_criterion_3_jc_analytic_oracle(suite):
    assert _run(suite, 3).passed


def test_criterion_4_spectrum_sweep_and_bloch_siegert(suite):
    assert _run(suite, 4).passed


def test_criterion_5_ground_crossing(suite):
    assert _run(suite, 5).passed


def test_criterion_6_berry_oracle_chain(suite):
    assert _run(suite, 6).passed


def test_criterion_7_gauge_invariance(suite):
    assert _run(suite, 7).passed


def test_criterion_8_parallel_transport_consistency(suite):
    assert _run(suite, 8).passed


def test_criterion_9_generator_identity(suite):
    assert _run(suite, 9).passed


def test_criterion_10_truncation_convergence(suite):
    assert _run(suite, 10).passed


def test_criterion_11_boa_limit(suite):
    assert _run(suite, 11).passed


def test_criterion_12_investigation_report(suite):
    res = _run(suite, 12)
    assert not res.bound
    assert res.passed  # the report was produced
    assert any("VERDICT" in line for line in res.lines)


def test_suite_detects_perturbed_closed_form(monkeypatch):
    # sabotaging the closed-form oracle by 1e-2 must fail the oracle-chain
    # criterion (mutation sensitivity of the gate); run on a cheap grid
    from jcrabi import surfaces

    monkeypatch.setattr(acceptance, "BERRY_NMAX", 40)
    cheap = AcceptanceSuite(k_nodes=128)
    baseline = cheap.run([6])[0]
    assert baseline.passed

    true_fn = surfaces.berry_exact_jc
    monkeypatch.setattr(
        surfaces, "berry_exact_jc",
        lambda n, p, sign=+1: true_fn(n, p, sign) + 1e-2,
    )
    perturbed = AcceptanceSuite(k_nodes=128).run([6])[0]
    assert not perturbed.passed


def test_format_report_flags_failures():
    results = [
        acceptance.CriterionResult(1, "ok thing", True),
        acceptance.CriterionResult(2, "bad thing", False),
    ]
    text = acceptance.format_report(results)
    assert "RESULT: FAIL (criteria [2] failed)" in text
