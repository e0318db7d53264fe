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
    linalg,
    spectra,
    spectrum_sweep,
)
from jcrabi.cli import main
from jcrabi.linalg import ConvergenceError, tridiagonal
from jcrabi.models import ModelKind, parity_sectors
from jcrabi.spectra import NoCrossingError, _bisect

from dense_oracle import build_jc

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

    @pytest.mark.parametrize("g_grid, message", [
        ([[0.1, 0.2], [0.3, 0.4]], r"g_grid must be 1-D, got shape \(2, 2\)"),
        (0.1, r"g_grid must be 1-D, got shape \(\)"),
        ([0.1, -0.1, -0.2], r"^g must be >= 0, got -0\.1$"),
        ([0.1, np.nan], r"^g_grid must be finite$"),
    ], ids=["2-d", "scalar", "negative", "nan"])
    def test_bad_grid_rejected(self, g_grid, message):
        with pytest.raises(ValueError, match=message):
            spectrum_sweep(ModelKind.RABI_LAB, P_RES, g_grid, 4, CFG)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_one_band_build_per_sweep(self, kind, monkeypatch):
        # the bands of all 151 points come from one broadcast
        calls = []

        def spy(*args):
            calls.append(args)
            return parity_sectors(*args)

        monkeypatch.setattr(spectra, "parity_sectors", spy)
        g_grid = np.linspace(0.0, 1.5, 151)
        table = spectrum_sweep(kind, P_RES, g_grid, 11, TruncationConfig(200))
        assert len(calls) == 1 and table.levels.shape == (151, 11)


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

    @pytest.mark.parametrize("Omega, omega", [(1.0, 1.0), (1.23, 1.0), (0.6, 1.7)])
    def test_analytic_is_the_closed_form(self, Omega, omega):
        p = ModelParams(Omega=Omega, omega=omega)
        res = ground_crossing(p, TruncationConfig(40), 0.3, 1.2)
        assert res.analytic_g == np.sqrt(0.5 * omega * Omega)

    @pytest.mark.parametrize("edge", ["lo", "hi"])
    def test_bracket_edge_at_g_star_accepted(self, edge):
        # at g* the even n=1 lower dressed state and the odd |1>|0> level
        # tie, and rounding puts the even one lowest, so the |1>|0> weight
        # alone shows no sign change on [g*, hi]; the tied edge is the crossing
        g_star = np.sqrt(0.5)
        bracket = (g_star, 1.2) if edge == "lo" else (0.3, g_star)
        res = ground_crossing(P_RES, TruncationConfig(40), *bracket)
        assert res.analytic_g == g_star
        assert abs(res.numerical_g - g_star) <= 1e-8

    def test_bracket_just_short_of_g_star_rejected(self):
        g_star = np.sqrt(0.5)
        with pytest.raises(NoCrossingError, match="no crossing bracketed in"):
            ground_crossing(P_RES, TruncationConfig(40), 0.3, np.nextafter(g_star, 0.0))
        with pytest.raises(NoCrossingError, match="no crossing bracketed in"):
            ground_crossing(P_RES, TruncationConfig(40), np.nextafter(g_star, 1.0), 1.2)

    def test_bisect_stops_at_adjacent_floats(self):
        # a tol below the float spacing ends once lo and hi are neighbours
        step = lambda g: 1.0 if g < 0.5 else -1.0  # noqa: E731
        with fails_fast():
            root = _bisect(step, 0.3, 1.2, 1.0, 1e-300)
        assert abs(root - 0.5) <= np.spacing(0.5)

    @pytest.mark.parametrize("g_lo, g_hi", [(0.3, float("nan")), (float("-inf"), 1.2)])
    def test_non_finite_bracket_rejected(self, g_lo, g_hi):
        with fails_fast(), pytest.raises(ValueError, match="finite bracket"):
            ground_crossing(P_RES, CFG, g_lo, g_hi)

    @pytest.mark.parametrize("g_lo, g_hi", [(1.2, 0.3), (-0.1, 1.2), (0.5, 0.5)])
    def test_unordered_bracket_rejected(self, g_lo, g_hi):
        with fails_fast(), pytest.raises(ValueError, match=r"0 <= g_lo < g_hi"):
            ground_crossing(P_RES, CFG, g_lo, g_hi)


def lift_even_sector(monkeypatch, shift=10.0):
    """Shift the even diagonal of spectra.parity_sectors up by ``shift``, so
    the lowest even level stays above |1>|0> across every bracket used here."""
    real = spectra.parity_sectors

    def lifted(kind, p, cfg):
        diag, off = real(kind, p, cfg)
        return diag + [[shift], [0.0]], off

    monkeypatch.setattr(spectra, "parity_sectors", lifted)


class TestNoLevelCrossing:
    def test_refused_naming_the_bracket(self, monkeypatch):
        lift_even_sector(monkeypatch)
        with pytest.raises(ValueError, match=(
                r"numerical route found no level crossing in \[0\.3, 1\.2\]")) as info:
            ground_crossing(P_RES, TruncationConfig(40), 0.3, 1.2)
        # g* is bracketed: this is a numerical refusal, not bad input
        assert not isinstance(info.value, NoCrossingError)

    def test_cli_exits_numerical(self, monkeypatch, tmp_path, capsys):
        lift_even_sector(monkeypatch)
        assert main(["crossing", "--nmax", "40", "--out", str(tmp_path)]) == 2
        assert ("numerical failure: numerical route found no level crossing in "
                "[0.3, 1.2]") in capsys.readouterr().err
        assert not (tmp_path / "crossing.json").exists()


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


def perturb_leading(monkeypatch, call, sector, index, delta=1e-6):
    """Add delta to value ``index`` of ``sector`` at point 0 in the
    ``call``-th result of the leading-block solver.

    A Rabi sector at g != 0 is solved from leading blocks, both sectors of
    every point of a values-only solve in one call, so row s of point 0 is
    sector s of the call's first point.
    """
    real = linalg._leading_levels
    calls = []

    def patched(*args):
        values, size, residual = real(*args)
        if len(calls) == call:
            values[0, sector, index] += delta
        calls.append(None)
        return values, size, residual

    monkeypatch.setattr(linalg, "_leading_levels", patched)


def perturb_pairs(monkeypatch, call, point, sector, index, delta=1e-6):
    """Add delta to value ``index`` of ``sector`` at ``point`` in the
    ``call``-th result of the closed-form pair solver.

    A JC sector splits into pairs: each values-only solve sends all its
    points to the pair solver in one call, so row s of point i is sector s.
    """
    real = linalg._pair_eigvalsh
    calls = []

    def patched(diag, off):
        values = real(diag, off)
        if len(calls) == call:
            values[point, sector, index] += delta
        calls.append(None)
        return values

    monkeypatch.setattr(linalg, "_pair_eigvalsh", patched)


@pytest.fixture
def forbid_eigh(monkeypatch):
    def no_vectors(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called on a values-only path")

    monkeypatch.setattr(np.linalg, "eigh", no_vectors)


@pytest.fixture
def forbid_eigvalsh(monkeypatch):
    def no_dense_solve(*args, **kwargs):
        raise AssertionError("a LAPACK solver called on sectors that split into pairs")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_dense_solve)
    monkeypatch.setattr(linalg, "_leading_levels", no_dense_solve)


class TestSturmGate:
    def test_sweep_names_coupling_sector_and_level(self, monkeypatch):
        perturb_pairs(monkeypatch, call=0, point=1, sector=1, index=2)
        with pytest.raises(ConvergenceError, match=(
                r"eigenvalue 2 = .* of the odd jc sector at g=0\.2, n_max=60 "
                r"fails the Sturm count")):
            spectrum_sweep(ModelKind.JC_LAB, P_RES, [0.1, 0.2, 0.3], 11, CFG)

    def test_convergence_names_cutoff(self, monkeypatch):
        perturb_leading(monkeypatch, call=1, sector=0, index=1)
        with pytest.raises(ConvergenceError, match=(
                r"eigenvalue 1 = .* of the even rabi sector at g=0\.5, n_max=30 ")):
            convergence_study(ModelKind.RABI_LAB, P_RES, 0.5, 11, [20, 30, 40])

    def test_bloch_siegert_names_model(self, monkeypatch):
        # the JC half splits into pairs: the Rabi point is the only
        # leading-block call
        perturb_leading(monkeypatch, call=0, sector=0, index=0)
        with pytest.raises(ConvergenceError, match=(
                r"eigenvalue 0 = .* of the even rabi sector at g=0\.1, n_max=60 ")):
            bloch_siegert(P_RES, 0.1, 2, CFG)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_resonant_decoupled_clusters_pass(self, kind):
        # at g = 0 on resonance every sector holds exact pairs of equal values
        table = spectrum_sweep(kind, P_RES, [0.0], CFG.dim_joint, CFG)
        exact = np.sort(np.diag(build_jc(P_RES, CFG)))
        assert np.array_equal(table.levels[0], exact)

    @pytest.mark.parametrize("Omega", [0.6, 0.83, 1.6])
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_decoupled_levels_are_the_diagonal_off_resonance(self, kind, Omega):
        # at g = 0 every level is a diagonal entry, to the last bit
        p, cfg = ModelParams(Omega=Omega), TruncationConfig(100)
        table = spectrum_sweep(kind, p, [0.0], cfg.dim_joint, cfg)
        assert np.array_equal(table.levels[0], np.sort(np.diag(build_jc(p, cfg))))

    def test_crossing_names_coupling_and_even_sector(self, monkeypatch):
        # the crossing solves the even sector alone: call 0 is the g_lo edge
        perturb_pairs(monkeypatch, call=0, point=0, sector=0, index=0)
        with pytest.raises(ConvergenceError, match=(
                r"eigenvalue 0 = .* of the even jc sector at g=0\.3, n_max=60 "
                r"fails the Sturm count")):
            ground_crossing(P_RES, CFG, 0.3, 1.2)

    def test_values_only_paths_compute_vectors_of_leading_blocks_only(self, forbid_eigh,
                                                                       monkeypatch):
        # no value path computes an eigenvector: np.linalg.eigh raises; the
        # JC sectors need no eigvalsh, and a Rabi sector's first solve is of
        # a leading block cut short of it
        real, orders = np.linalg.eigvalsh, []

        def counted(a, *args, **kwargs):
            orders.append(np.shape(a)[-1])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        convergence_study(ModelKind.JC_LAB, P_RES, 0.5, 11, [20, 40])
        spectrum_sweep(ModelKind.JC_LAB, P_RES, [0.1, 0.5], 11, CFG)
        assert orders == []
        spectrum_sweep(ModelKind.RABI_LAB, P_RES, [0.1, 0.5], 11, CFG)
        bloch_siegert(P_RES, 0.1, 2, CFG)
        assert orders and orders[0] == 32 < CFG.dim_field

    def test_crossing_computes_no_vectors(self, forbid_eigh):
        res = ground_crossing(P_RES, CFG, 0.3, 1.2)
        assert abs(res.numerical_g - res.analytic_g) <= 1e-8

    def test_jc_paths_run_without_eigvalsh(self, forbid_eigvalsh):
        spectrum_sweep(ModelKind.JC_LAB, P_RES, [0.0, 0.1, 0.5], 11, CFG)
        convergence_study(ModelKind.JC_LAB, P_RES, 0.5, 11, [20, 40])
        res = ground_crossing(P_RES, CFG, 0.3, 1.2)
        assert abs(res.numerical_g - res.analytic_g) <= 1e-8

    def test_rabi_sweep_still_calls_the_leading_block_solver(self, forbid_eigvalsh):
        with pytest.raises(AssertionError, match="a LAPACK solver called"):
            spectrum_sweep(ModelKind.RABI_LAB, P_RES, [0.1], 11, CFG)

    def test_bloch_siegert_sends_only_rabi_to_the_leading_block_solver(self, monkeypatch):
        real, shapes = linalg._leading_levels, []

        def counted(diag, *args):
            shapes.append(np.shape(diag))
            return real(diag, *args)

        monkeypatch.setattr(linalg, "_leading_levels", counted)
        bloch_siegert(P_RES, 0.1, 2, CFG)
        assert shapes == [(1, 2, CFG.dim_field)]


class TestJuddianPoint:
    @pytest.mark.parametrize("Omega", [0.5, 1.0, 1.5])
    def test_first_juddian_levels_are_exact(self, Omega):
        # the first exceptional point (Omega/2)^2 + 8 g^2 = omega^2: the even
        # and odd sectors share the exact level omega - 2 g^2 / omega
        # (Judd, J. Phys. C 12, 1685, 1979), with no truncation error
        g = float(np.sqrt((1.0 - (Omega / 2) ** 2) / 8))
        table = spectrum_sweep(ModelKind.RABI_LAB, ModelParams(Omega=Omega), [g], 4,
                               TruncationConfig(300))
        assert np.max(np.abs(table.levels[0, 2:4] - (1.0 - 2.0 * g * g))) <= 1e-12

    def test_tie_is_numbered_stably_as_the_full_solve(self):
        # at Omega = 1, g = sqrt(3/32) value 1 of each sector is the exact
        # level 1 - 2 g^2: a tie across the parities, split by rounding
        g = float(np.sqrt(3.0 / 32.0))
        p = ModelParams(Omega=1.0, g=g)
        orders = []
        for n_max in (200, 300, 500):
            diag, off = parity_sectors(ModelKind.RABI_LAB, p, TruncationConfig(n_max))
            values, size, _ = linalg._leading_levels(
                diag[None], off[None], 11, lambda _, sector: f"sector {sector}")
            assert size.tolist() == [32]
            _, order = linalg._merge(values[0])
            _, full_order = linalg._merge(np.linalg.eigvalsh(tridiagonal(diag, off))[:, :11])
            assert np.array_equal(order, full_order), n_max
            # levels 2 and 3 are value 1 of the even and of the odd sector
            assert sorted(order[2:4].tolist()) == [1, 12]
            # made exact, the tie keeps block order: even before odd
            tied = values[0].copy()
            tied[:, 1] = 1.0 - 2.0 * g * g
            assert linalg._merge(tied)[1][2:4].tolist() == [1, 12]
            levels = spectrum_sweep(ModelKind.RABI_LAB, p, [g], 11, TruncationConfig(n_max))
            assert np.array_equal(levels.levels[0], values[0].ravel()[order[:11]])
            orders.append(order)
        # every cutoff solves the same leading block: one numbering
        assert all(np.array_equal(order, orders[0]) for order in orders)
