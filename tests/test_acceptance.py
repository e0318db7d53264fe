"""Acceptance gate: every bound criterion at its stated tolerance.

Runs the same suite as ``jcrabi verify`` and prints one pass/fail line per
criterion.  Criterion 12 is an investigation report (emitted, not asserted)
per its contract; everything else gates the release.
"""

import dataclasses

import numpy as np
import pytest

from jcrabi import TruncationConfig, acceptance, berry, linalg, models, spectra
from jcrabi.acceptance import AcceptanceSuite
from jcrabi.models import ModelKind, ModelParams

from dense_oracle import build_hamiltonian, symmetry_ops


@pytest.fixture(scope="module")
def suite():
    return AcceptanceSuite()


def _run(suite, number):
    res = suite.run(number)
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
    monkeypatch.setattr(acceptance, "BERRY_K", 128)
    baseline = AcceptanceSuite().run(6)
    assert baseline.passed

    true_fn = surfaces.berry_exact_jc
    monkeypatch.setattr(
        surfaces, "berry_exact_jc",
        lambda n, p, sign=+1: true_fn(n, p, sign) + 1e-2,
    )
    perturbed = AcceptanceSuite().run(6)
    assert not perturbed.passed


def test_criterion_1_detects_a_perturbed_leading_pair_column(monkeypatch):
    assert AcceptanceSuite().run(1).passed
    true_pair = linalg.leading_pair

    def perturbed(*args):
        pair = true_pair(*args)
        column = pair.column.copy()
        column[0] += 1e-6
        return dataclasses.replace(pair, column=column)

    monkeypatch.setattr(acceptance, "leading_pair", perturbed)
    assert not AcceptanceSuite().run(1).passed


def test_criterion_2_detects_a_jc_link_on_the_ground_qubit(monkeypatch):
    assert AcceptanceSuite().run(2).passed
    true_sectors = models.parity_sectors

    def counter_rotating(kind, p, cfg, g=None):
        # the JC links sit on the elements whose qubit is the ground state
        diag, off = true_sectors(kind, p, cfg, g)
        if kind is ModelKind.JC_LAB:
            off = np.where(off == 0.0, true_sectors(ModelKind.RABI_LAB, p, cfg, g)[1], 0.0)
        return diag, off

    monkeypatch.setattr(models, "parity_sectors", counter_rotating)
    res = AcceptanceSuite().run(2)
    assert not res.passed
    assert all("jc max|H psi" not in line for line in res.lines if line.startswith("    ok"))


def test_criterion_2_detects_one_rabi_link_scaled_by_a_millionth(monkeypatch):
    true_sectors = models.parity_sectors

    def scaled(kind, p, cfg, g=None):
        diag, off = true_sectors(kind, p, cfg, g)
        if kind is ModelKind.RABI_LAB:
            off[1, 7] *= 1.0 + 1e-6
        return diag, off

    monkeypatch.setattr(models, "parity_sectors", scaled)
    res = AcceptanceSuite().run(2)
    assert not res.passed
    assert all("rabi max|H psi" not in line for line in res.lines if line.startswith("    ok"))


def test_criterion_3_detects_sweep_levels_shifted_by_1e_7(monkeypatch):
    assert AcceptanceSuite().run(3).passed
    true_sweep = spectra.spectrum_sweep

    def shifted(*args):
        table = true_sweep(*args)
        return dataclasses.replace(table, levels=table.levels + 1e-7)

    monkeypatch.setattr(spectra, "spectrum_sweep", shifted)
    assert not AcceptanceSuite().run(3).passed


@pytest.mark.parametrize("n_max", [1, 3, 40])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_matrix_free_hamiltonian_is_the_dense_builder(kind, n_max):
    # the oracle of criterion 2's H psi: the dense joint-space matrix
    cfg = TruncationConfig(n_max)
    p = ModelParams(Omega=1.3, g=0.7, omega=0.9)
    h = build_hamiltonian(kind, p, cfg)
    v = np.random.default_rng(n_max).standard_normal((cfg.dim_joint, 3))
    applied = acceptance._apply_hamiltonian(kind, p, v.reshape(2, cfg.dim_field, 3))
    assert np.max(np.abs(applied.reshape(cfg.dim_joint, 3) - h @ v)) <= 1e-14 * np.max(np.abs(h))


def _symmetry_diagonals(cfg):
    """N = n + sz/2 and Pi = sz (-1)^n, shaped as _commutator takes them."""
    n = np.arange(cfg.dim_field)[:, None]
    sz = np.array([1.0, -1.0])[:, None, None]
    return {"N": n + 0.5 * sz, "Pi": sz * (-1.0) ** n}


@pytest.mark.parametrize("symmetry", ["N", "Pi"])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_matrix_free_commutator_is_the_dense_commutator(kind, symmetry):
    # the oracle of criterion 2's leak: H D - D H of the dense joint-space
    # matrices, with N and Pi from the oracle's symmetry_ops
    cfg = TruncationConfig(12)
    p = ModelParams(Omega=1.1, g=0.4, omega=0.8)
    h = build_hamiltonian(kind, p, cfg)
    dense_d = dict(zip(("N", "Pi"), symmetry_ops(cfg)))[symmetry]
    d = _symmetry_diagonals(cfg)[symmetry]
    assert np.array_equal(np.broadcast_to(d, (2, cfg.dim_field, 1)).ravel(), np.diag(dense_d))
    v = np.random.default_rng(7).standard_normal((cfg.dim_joint, 3))
    applied = acceptance._commutator(kind, p, d, v.reshape(2, cfg.dim_field, 3))
    dense = (h @ dense_d - dense_d @ h) @ v
    assert np.max(np.abs(applied.reshape(cfg.dim_joint, 3) - dense)) <= 1e-13 * np.max(np.abs(h))
    # JC keeps N and both models keep Pi exactly; Rabi's counter-rotating
    # terms link N to N +/- 2
    conserved = kind is ModelKind.JC_LAB or symmetry == "Pi"
    assert (np.max(np.abs(applied)) == 0.0) == conserved


def test_jc_conserves_excitation_number_exactly_at_large_n_max():
    cfg = TruncationConfig(400)
    psi = np.random.default_rng(8).standard_normal((2, cfg.dim_field, 2))
    for g in (0.3, 5.0):
        p = ModelParams(Omega=1.0, g=g)
        n_total = _symmetry_diagonals(cfg)["N"]
        assert not np.any(acceptance._commutator(ModelKind.JC_LAB, p, n_total, psi))


def test_commutator_with_a_constant_is_zero():
    # one eigenspace: (k - D) is zero everywhere
    cfg = TruncationConfig(20)
    psi = np.random.default_rng(9).standard_normal((2, cfg.dim_field))
    p = ModelParams(Omega=1.0, g=0.7)
    for kind in ModelKind:
        assert not np.any(acceptance._commutator(kind, p, 3.0, psi))


def test_criteria_1_to_3_build_no_joint_space_matrix(monkeypatch):
    def kron(*args, **kwargs):
        raise AssertionError("a dense joint-space matrix was built")

    monkeypatch.setattr(np, "kron", kron)
    suite = AcceptanceSuite()
    for number in (1, 2, 3):
        assert suite.run(number).passed, number


@pytest.mark.parametrize("field", ["generator", "wilson"])
def test_criteria_6_and_9_detect_a_fock_loop_phase_shifted_by_1e_2(monkeypatch, field):
    suite = AcceptanceSuite()
    assert suite.run(6).passed and suite.run(9).passed
    true_loop = berry.fock_loop

    def shifted(*args):
        loop = true_loop(*args)
        if field == "generator":
            return dataclasses.replace(loop, generator=loop.generator + 1e-2)
        wilson = dataclasses.replace(loop.wilson, gamma=loop.wilson.gamma + 1e-2)
        return dataclasses.replace(loop, wilson=wilson)

    monkeypatch.setattr(berry, "fock_loop", shifted)
    suite = AcceptanceSuite()
    assert not suite.run(6).passed
    assert not suite.run(9).passed


def test_criteria_6_9_and_12_run_without_the_node_estimators(monkeypatch):
    # they read the loop the CLI writes (berry.fock_loop), not the
    # estimators on a path of nodes
    def estimator(*args, **kwargs):
        raise AssertionError("a node-path estimator was called")

    for name in ("wilson_loop", "connection_curve", "gauge_fix"):
        monkeypatch.setattr(berry, name, estimator)
    suite = AcceptanceSuite()
    for number in (6, 9):
        assert suite.run(number).passed, number
    report = suite.run(12)
    assert any("VERDICT: at every coupling" in line for line in report.lines)
    assert sorted(report.curves) == [0.001, 0.01, 0.1, 1.0]


def test_criterion_names_state_the_configuration_that_ran(monkeypatch):
    monkeypatch.setattr(acceptance, "BERRY_NMAX", 40)
    monkeypatch.setattr(acceptance, "BERRY_K", 128)
    cheap = AcceptanceSuite()
    assert cheap.run(6).name.endswith("(K=128, n_max=40)")
    assert cheap.run(9).name.endswith("(K=128)")


def test_run_rejects_unknown_criterion(suite):
    with pytest.raises(ValueError, match="no criterion 13"):
        suite.run(13)


def test_format_report_flags_failures():
    results = [
        acceptance.CriterionResult(1, "ok thing", True),
        acceptance.CriterionResult(2, "bad thing", False),
    ]
    text = acceptance.format_report(results)
    assert "RESULT: FAIL (criteria [2] failed)" in text
