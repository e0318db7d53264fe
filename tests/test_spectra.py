import signal
from contextlib import contextmanager

import numpy as np
import pytest

from jcrabi import (
    ModelParams,
    TruncationConfig,
    bloch_siegert,
    convergence_study,
    ground_crossing,
    jc_doublet_analytic,
    spectrum_sweep,
)
from jcrabi.linalg import ConvergenceError
from jcrabi.models import ModelKind, build_jc
from jcrabi.spectra import NoCrossingError

CFG = TruncationConfig(60)
P_RES = ModelParams(Omega=1.0)


@contextmanager
def fails_fast(seconds=5):
    """Turn a call that would hang into a test failure after ``seconds``."""
    def timeout(signum, frame):
        raise AssertionError(f"call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestSpectrumSweep:
    def test_decoupled_row(self):
        table = spectrum_sweep(ModelKind.JC_LAB, P_RES, [0.0], 5, CFG)
        assert np.allclose(table.levels[0], [-0.5, 0.5, 0.5, 1.5, 1.5], atol=1e-12)

    def test_rows_match_analytic_doublets(self):
        g_grid = [0.05, 0.3, 0.8]
        table = spectrum_sweep(ModelKind.JC_LAB, P_RES, g_grid, 9, CFG)
        for row, g in zip(table.levels, g_grid):
            analytic = [-0.5]
            for n in range(1, 8):
                analytic.extend(jc_doublet_analytic(n, P_RES.with_g(g)).energies)
            analytic = np.sort(analytic)[:9]
            assert np.max(np.abs(row - analytic)) <= 1e-8

    def test_jc_vs_rabi_small_g(self):
        jc = spectrum_sweep(ModelKind.JC_LAB, P_RES, [0.001], 11, CFG)
        rabi = spectrum_sweep(ModelKind.RABI_LAB, P_RES, [0.001], 11, CFG)
        assert np.max(np.abs(jc.levels - rabi.levels)) <= 1e-5

    def test_permutation_equivariance(self):
        g_grid = np.array([0.4, 0.1, 0.9, 0.2])
        perm = np.array([2, 0, 3, 1])
        a = spectrum_sweep(ModelKind.RABI_LAB, P_RES, g_grid, 4, CFG)
        b = spectrum_sweep(ModelKind.RABI_LAB, P_RES, g_grid[perm], 4, CFG)
        assert np.array_equal(a.levels[perm], b.levels)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            spectrum_sweep(ModelKind.JC_LAB, P_RES, [0.1], CFG.dim_joint + 1, CFG)


class TestBlochSiegert:
    CFG200 = TruncationConfig(200)

    def test_identical_models_at_g0(self):
        assert bloch_siegert(P_RES, 0.0, 1, self.CFG200) == pytest.approx(0.0, abs=1e-12)

    def test_ultrastrong_magnitude(self):
        # measured 3.68e-4 for the first excited level: the ~0.1% shift,
        # within a factor 3
        val = bloch_siegert(P_RES, 0.1, 1, self.CFG200)
        assert 1e-3 / 3 <= val <= 1e-3 * 3

    def test_weak_coupling_magnitude(self):
        # frozen from a dual-model diagonalization run at n_max = 200
        val = bloch_siegert(P_RES, 0.01, 1, self.CFG200)
        assert val == pytest.approx(3.537e-7, rel=1e-2)

    def test_grows_with_coupling(self):
        vals = [bloch_siegert(P_RES, g, 1, self.CFG200) for g in (0.01, 0.05, 0.1)]
        assert vals[0] < vals[1] < vals[2]

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            bloch_siegert(P_RES, 0.1, 0, CFG)

    def test_level_beyond_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"level must be an integer in \[1, 12\)"):
            bloch_siegert(P_RES, 0.1, 50, TruncationConfig(5))

    def test_non_integer_level_rejected(self):
        with pytest.raises(ValueError, match="level must be an integer"):
            bloch_siegert(P_RES, 0.1, 2.5, TruncationConfig(5))


class TestGroundCrossing:
    def test_resonant_crossing(self):
        res = ground_crossing(P_RES, TruncationConfig(40), 0.3, 1.2)
        assert res.analytic_g == pytest.approx(0.7071067811865475, abs=1e-9)
        assert abs(res.analytic_g - res.numerical_g) <= 1e-6

    def test_general_omega_closed_form(self):
        # Delta = 0 at omega = Omega = 2: crossing at omega / sqrt(2)
        p = ModelParams(Omega=2.0, omega=2.0)
        res = ground_crossing(p, TruncationConfig(40), 0.5, 2.5)
        assert res.analytic_g == pytest.approx(2.0 / np.sqrt(2.0), abs=1e-9)

    def test_quoted_value_flagged(self):
        res = ground_crossing(P_RES, TruncationConfig(40), 0.3, 1.2)
        assert res.quoted_g == pytest.approx(np.sqrt(2.0))
        assert "DISAGREES" in res.note

    def test_no_crossing_in_bracket(self):
        # still a ValueError for library callers; the CLI reports it as a usage error
        assert issubclass(NoCrossingError, ValueError)
        with pytest.raises(NoCrossingError, match=r"no crossing bracketed in \[0.1, 0.5\]"):
            ground_crossing(P_RES, TruncationConfig(40), 0.1, 0.5)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_nonpositive_tol_rejected(self, tol):
        with fails_fast(), pytest.raises(ValueError, match="tol must be finite and > 0"):
            ground_crossing(P_RES, CFG, 0.3, 1.2, tol=tol)

    def test_tol_below_float_spacing_returns(self):
        with fails_fast():
            res = ground_crossing(P_RES, TruncationConfig(40), 0.3, 1.2, tol=1e-300)
        assert res.analytic_g == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-15)

    @pytest.mark.parametrize("g_lo, g_hi", [(0.3, float("nan")), (float("-inf"), 1.2)])
    def test_non_finite_bracket_rejected(self, g_lo, g_hi):
        with fails_fast(), pytest.raises(ValueError, match="finite bracket"):
            ground_crossing(P_RES, CFG, g_lo, g_hi)

    @pytest.mark.parametrize("g_lo, g_hi", [(1.2, 0.3), (-0.1, 1.2), (0.5, 0.5)])
    def test_unordered_bracket_rejected(self, g_lo, g_hi):
        with fails_fast(), pytest.raises(ValueError, match=r"0 <= g_lo < g_hi"):
            ground_crossing(P_RES, CFG, g_lo, g_hi)


class TestConvergence:
    def test_jc_blocks_decouple(self):
        tab = convergence_study(ModelKind.JC_LAB, P_RES, 0.7, 5, [12, 24, 48])
        assert np.max(tab.max_changes) <= 1e-12

    def test_rabi_decoupled_at_g0(self):
        tab = convergence_study(ModelKind.RABI_LAB, P_RES, 0.0, 5, [12, 24])
        assert np.max(tab.max_changes) <= 1e-12

    def test_monotone_refinement_rabi_ground(self):
        # shrinkage is monotone until the changes hit the rounding floor, so
        # stop the ladder while they are still well above it
        tab = convergence_study(ModelKind.RABI_LAB, P_RES, 1.0, 1, [9, 12, 15, 18, 21])
        changes = np.abs(np.diff(tab.levels[:, 0]))
        assert np.all(np.diff(changes) < 0)

    def test_requires_ascending_n_list(self):
        with pytest.raises(ValueError):
            convergence_study(ModelKind.RABI_LAB, P_RES, 0.5, 3, [30, 20])

    def test_k_above_smallest_cutoff_dimension_rejected(self):
        with pytest.raises(ValueError, match=r"k must be in \[1, 8\]"):
            convergence_study(ModelKind.RABI_LAB, P_RES, 0.5, 11, [3, 10])

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match=r"k must be in \[1, "):
            convergence_study(ModelKind.RABI_LAB, P_RES, 0.5, 0, [3, 10])

    def test_empty_n_list_rejected(self):
        with pytest.raises(ValueError, match="n_list"):
            convergence_study(ModelKind.RABI_LAB, P_RES, 0.5, 3, [])


def perturb_eigvalsh(monkeypatch, call, sector, index, delta=1e-6):
    """Add delta to value ``index`` of ``sector`` in the ``call``-th
    np.linalg.eigvalsh result.

    The values-only paths solve both sectors of a point in one stacked call,
    point by point, so call i is point i and row s of its result sector s.
    """
    real = np.linalg.eigvalsh
    calls = []

    def patched(a, *args, **kwargs):
        values = real(a, *args, **kwargs)
        if len(calls) == call:
            values = values.copy()
            values[sector, index] += delta
        calls.append(None)
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", patched)


class TestSturmGate:
    def test_sweep_names_coupling_sector_and_level(self, monkeypatch):
        perturb_eigvalsh(monkeypatch, call=1, sector=1, index=2)
        with pytest.raises(ConvergenceError, match=(
                r"eigenvalue 2 = .* of the odd jc sector at g=0\.2, n_max=60 "
                r"fails the Sturm count")):
            spectrum_sweep(ModelKind.JC_LAB, P_RES, [0.1, 0.2, 0.3], 11, CFG)

    def test_convergence_names_cutoff(self, monkeypatch):
        perturb_eigvalsh(monkeypatch, call=1, sector=0, index=1)
        with pytest.raises(ConvergenceError, match=(
                r"eigenvalue 1 = .* of the even rabi sector at g=0\.5, n_max=30 ")):
            convergence_study(ModelKind.RABI_LAB, P_RES, 0.5, 11, [20, 30, 40])

    def test_bloch_siegert_names_model(self, monkeypatch):
        perturb_eigvalsh(monkeypatch, call=1, sector=0, index=0)
        with pytest.raises(ConvergenceError, match=(
                r"eigenvalue 0 = .* of the even rabi sector at g=0\.1, n_max=60 ")):
            bloch_siegert(P_RES, 0.1, 2, CFG)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_resonant_decoupled_clusters_pass(self, kind):
        # at g = 0 on resonance every sector holds exact pairs of equal values
        table = spectrum_sweep(kind, P_RES, [0.0], CFG.dim_joint, CFG)
        exact = np.sort(np.diag(build_jc(P_RES, CFG)))
        assert np.array_equal(table.levels[0], exact)

    def test_values_only_paths_compute_no_vectors(self, monkeypatch):
        def no_vectors(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called on a values-only path")

        monkeypatch.setattr(np.linalg, "eigh", no_vectors)
        spectrum_sweep(ModelKind.RABI_LAB, P_RES, [0.1, 0.5], 11, CFG)
        convergence_study(ModelKind.JC_LAB, P_RES, 0.5, 11, [20, 40])
        bloch_siegert(P_RES, 0.1, 2, CFG)
