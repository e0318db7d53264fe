import numpy as np
import pytest

from jcrabi import (
    ModelParams,
    TruncationConfig,
    berry_boa_jc,
    berry_exact_jc,
    boa_radius,
    boa_surface,
    classify_degeneracy,
)
import jcrabi.output as output_module
from jcrabi.models import ModelKind
from jcrabi.surfaces import default_gap_tolerance

from dense_oracle import qubit_ops

SX, SY, SZ, _, _ = qubit_ops()
AXIS = np.linspace(-3.0, 3.0, 61)


class TestBoaSurface:
    def test_jc_cone_apex(self):
        s = boa_surface(ModelKind.JC_LAB, ModelParams(Omega=1.0, g=0.5), AXIS, AXIS)
        i = j = len(AXIS) // 2  # origin
        assert s.gap[i, j] == pytest.approx(0.0, abs=1e-14)

    def test_jc_cone_slope(self):
        g = 0.5
        s = boa_surface(ModelKind.JC_LAB, ModelParams(Omega=1.0, g=g), AXIS, AXIS)
        for i in (5, 20, 45):
            for j in (0, 30, 57):
                r = np.hypot(AXIS[i], AXIS[j])
                assert s.gap[i, j] == pytest.approx(2 * g * r, abs=1e-12)

    def test_rabi_seam_gap_is_Omega(self):
        p = ModelParams(Omega=1.0, g=1.0)
        s = boa_surface(ModelKind.RABI_LAB, p, AXIS, AXIS)
        i0 = len(AXIS) // 2  # x = 0 column
        assert np.max(np.abs(s.gap[i0, :] - p.Omega)) <= 1e-14

    def test_jc_rotationally_symmetric(self):
        s = boa_surface(ModelKind.JC_LAB, ModelParams(Omega=1.3, g=0.4), AXIS, AXIS)
        assert np.max(np.abs(s.upper - s.upper.T)) <= 1e-14       # x <-> p
        assert np.max(np.abs(s.upper - s.upper[::-1, :])) <= 1e-14  # x -> -x
        p = ModelParams(Omega=1.3, g=0.4)
        radial = np.sqrt(0.25 * p.delta**2 + p.g**2 * (AXIS[:, None]**2 + AXIS[None, :]**2))
        assert np.max(np.abs(s.upper - radial)) <= 1e-14

    def test_rabi_even_in_x_and_p(self):
        s = boa_surface(ModelKind.RABI_LAB, ModelParams(Omega=1.0, g=0.8), AXIS, AXIS)
        assert np.max(np.abs(s.upper - s.upper[::-1, :])) <= 1e-14
        assert np.max(np.abs(s.upper - s.upper[:, ::-1])) <= 1e-14

    def test_matches_frozen_spin_hamiltonian(self):
        # surfaces are the eigenvalues of the 2x2 spin matrix with (x, p)
        # frozen as numbers
        rng = np.random.default_rng(11)
        for kind in (ModelKind.JC_LAB, ModelKind.RABI_LAB):
            p = ModelParams(Omega=1.4, g=0.6)
            s = boa_surface(kind, p, AXIS, AXIS)
            for _ in range(12):
                i = rng.integers(len(AXIS))
                j = rng.integers(len(AXIS))
                x, pq = AXIS[i], AXIS[j]
                if kind.model == "jc":
                    spin = 0.5 * p.delta * SZ + p.g * (x * SX + pq * SY)
                    offset = 0.0
                else:
                    spin = 0.5 * p.Omega * SZ + 2.0 * p.g * x * SX
                    offset = 0.5 * p.omega * (x**2 + pq**2)
                lo, hi = np.linalg.eigvalsh(spin)
                assert s.lower[i, j] == pytest.approx(offset + lo, abs=1e-12)
                assert s.upper[i, j] == pytest.approx(offset + hi, abs=1e-12)

    def test_gap_nonnegative(self):
        s = boa_surface(ModelKind.RABI_LAB, ModelParams(Omega=0.4, g=1.2), AXIS, AXIS)
        assert np.min(s.gap) >= 0.0

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            boa_surface(ModelKind.JC_LAB, ModelParams(), [], AXIS)

    def test_overflow_names_the_grid(self):
        # omega x^2 / 2 overflows at a huge x for any g
        with pytest.raises(ValueError) as info:
            boa_surface(ModelKind.RABI_LAB, ModelParams(g=0.4), [-4e307, 0.0, 4e307], AXIS)
        assert str(info.value) == (
            "the rabi surface overflows at g=0.4 (omega=1, Omega=1): its gap is not "
            "finite on the grid x in [-4e+307, 4e+307], p in [-3, 3]")


def has_row(array, row):
    """Whether the 2-D array holds row as one of its rows."""
    return bool(np.any(np.all(array == row, axis=1)))


class TestClassifyDegeneracy:
    def test_jc_resonant_conical_intersection(self):
        s = boa_surface(ModelKind.JC_LAB, ModelParams(Omega=1.0, g=1.0), AXIS, AXIS)
        rep = classify_degeneracy(s.x_axis, s.p_axis, s.gap)
        assert rep.locus == "point"
        assert rep.min_gap == pytest.approx(0.0, abs=1e-14)
        assert has_row(rep.coordinates, (0.0, 0.0))

    def test_rabi_minimal_gap_line(self):
        s = boa_surface(ModelKind.RABI_LAB, ModelParams(Omega=1.0, g=1.0), AXIS, AXIS)
        rep = classify_degeneracy(s.x_axis, s.p_axis, s.gap)
        assert rep.locus == "line"
        assert rep.min_gap == pytest.approx(1.0, abs=1e-12)
        assert rep.coordinates.shape[1] == 2
        assert 0.0 in rep.coordinates[:, 0]

    def test_detuned_jc_gapped(self):
        s = boa_surface(ModelKind.JC_LAB, ModelParams(Omega=1.5, g=0.5), AXIS, AXIS)
        rep = classify_degeneracy(s.x_axis, s.p_axis, s.gap)
        assert rep.locus == "none"
        assert rep.min_gap == pytest.approx(0.5, abs=1e-12)
        assert has_row(rep.coordinates, (0.0, 0.0))

    def test_coordinates_within_tolerance(self):
        s = boa_surface(ModelKind.RABI_LAB, ModelParams(Omega=1.0, g=0.7), AXIS, AXIS)
        rep = classify_degeneracy(s.x_axis, s.p_axis, s.gap)
        assert rep.coordinates.dtype == np.float64
        lookup = set(map(tuple, rep.coordinates.tolist()))
        for i, x in enumerate(s.x_axis):
            for j, pv in enumerate(s.p_axis):
                if (float(x), float(pv)) in lookup:
                    assert s.gap[i, j] <= rep.min_gap + rep.tol_gap


    def test_overflowing_tolerance_is_named(self):
        # a finite gap of about 1e308 whose cell diagonal times slope overflows
        x_axis, p_axis = np.array([-8e307, 0.0, 8e307]), np.array([-3.0, 0.0, 3.0])
        s = boa_surface(ModelKind.JC_LAB, ModelParams(g=0.6), x_axis, p_axis)
        assert np.all(np.isfinite(s.gap))
        with pytest.raises(ValueError) as info:
            classify_degeneracy(x_axis, p_axis, s.gap)
        assert str(info.value).startswith(
            "the gap tolerance 2 * 8e+307 (cell diagonal) * 1.2 (max gap slope) is not "
            "finite: the x or p range is too wide for this grid")


def whole_grid_gap_tolerance(x_axis, p_axis, gap) -> float:
    """The oracle of default_gap_tolerance: the same yardstick with each
    slope formed in one grid-sized temporary."""
    dx = np.min(np.diff(x_axis)) if len(x_axis) > 1 else 0.0
    dp = np.min(np.diff(p_axis)) if len(p_axis) > 1 else 0.0
    cell_diag = float(np.hypot(dx, dp))
    slopes = []
    for axis, steps in ((0, np.diff(x_axis)[:, None]), (1, np.diff(p_axis)[None, :])):
        if gap.shape[axis] > 1:
            slope = np.diff(gap, axis=axis)
            np.abs(slope, out=slope)
            slope /= steps
            slopes.append(np.max(slope))
    max_slope = float(max(slopes)) if slopes else 0.0
    return 2.0 * cell_diag * max_slope


def random_axes(rng, nx, npts, uniform):
    if uniform:
        return np.linspace(-2.0, 1.0, nx), np.linspace(-1.0, 3.0, npts)
    # steps between 0.01 and 1: the steepest slope need not sit on the
    # steepest gap difference
    return (np.cumsum(rng.uniform(0.01, 1.0, nx)) - 2.0,
            np.cumsum(rng.uniform(0.01, 1.0, npts)) - 1.0)


class TestDefaultGapTolerance:
    """The row-sliced tolerance is the whole-grid one, bit for bit."""

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
    @pytest.mark.parametrize("shape", [(1, 9), (9, 1), (2, 2), (1, 1), (37, 23)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_the_whole_grid_tolerance(self, seed, shape, uniform):
        rng = np.random.default_rng(seed)
        x_axis, p_axis = random_axes(rng, *shape, uniform)
        gap = rng.uniform(0.0, 3.0, shape)
        want = whole_grid_gap_tolerance(x_axis, p_axis, gap)
        assert default_gap_tolerance(x_axis, p_axis, gap).hex() == want.hex()

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
    @pytest.mark.parametrize("block_rows", [1, 23, 2 * 23 + 5, 5 * 23, 10 ** 6])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_slices_that_do_not_divide_the_rows(self, monkeypatch, seed, block_rows,
                                                uniform):
        # 37 x-rows of 23 nodes, in slices of 1, 1, 2, 5 and all 37 rows
        monkeypatch.setattr(output_module, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(seed)
        x_axis, p_axis = random_axes(rng, 37, 23, uniform)
        gap = rng.uniform(0.0, 3.0, (37, 23))
        want = whole_grid_gap_tolerance(x_axis, p_axis, gap)
        assert default_gap_tolerance(x_axis, p_axis, gap).hex() == want.hex()

    @pytest.mark.parametrize("row", [4, 5, 6])
    def test_steepest_step_across_a_slice_seam(self, monkeypatch, row):
        # slices of 5 x-rows: the one steep x step, from row 4 to 5, lies
        # across the seam of the first two slices, and only the overlap row
        # sees it; rows 5 and 6 put it inside the second slice
        monkeypatch.setattr(output_module, "_BLOCK_ROWS", 5 * 4)
        x_axis, p_axis = np.arange(12.0), np.arange(4.0)
        gap = np.zeros((12, 4))
        gap[row:] = 7.0
        tol = default_gap_tolerance(x_axis, p_axis, gap)
        assert tol.hex() == whole_grid_gap_tolerance(x_axis, p_axis, gap).hex()
        assert tol == 2.0 * np.hypot(1.0, 1.0) * 7.0


class TestBerryClosedForms:
    def test_boa_resonant(self):
        p = ModelParams(Omega=1.0, g=0.3)
        assert berry_boa_jc(1.0, p, +1) == pytest.approx(np.pi)
        assert berry_boa_jc(1.0, p, -1) == pytest.approx(-np.pi)

    def test_boa_no_coupling(self):
        assert berry_boa_jc(2.0, ModelParams(Omega=1.5, g=0.0), +1) == pytest.approx(0.0)

    def test_boa_frozen_value(self):
        # pi (1 - 0.5 / sqrt(1.25)) evaluated independently
        p = ModelParams(Omega=2.0, g=0.5)
        assert berry_boa_jc(2.0, p, +1) == pytest.approx(1.7366297073816481, abs=1e-12)

    def test_boa_rejects_conical_intersection(self):
        with pytest.raises(ValueError, match="conical"):
            berry_boa_jc(0.0, ModelParams(Omega=1.0, g=0.5), +1)

    def test_exact_resonant(self):
        p = ModelParams(Omega=1.0, g=0.2)
        assert berry_exact_jc(3, p, +1) == pytest.approx(np.pi)
        assert berry_exact_jc(3, p, -1) == pytest.approx(-np.pi)

    def test_exact_ground_state_vanishes(self):
        assert berry_exact_jc(0, ModelParams(Omega=1.7, g=0.9)) == 0.0

    def test_exact_symmetric_point(self):
        # Delta = 2 g sqrt(2 n) makes the ratio 1/sqrt(2):
        # gamma = pi (1 - 1/sqrt(2))
        n, g = 2, 0.25
        delta = 2.0 * g * np.sqrt(2.0 * n)
        p = ModelParams(Omega=1.0 + delta, g=g)
        assert berry_exact_jc(n, p, +1) == pytest.approx(0.9201511845106103, abs=1e-12)

    def test_monotone_decreasing_in_delta(self):
        for fn, arg in ((berry_boa_jc, 1.7), (berry_exact_jc, 2)):
            vals = [fn(arg, ModelParams(Omega=1.0 + d, g=0.4), +1)
                    for d in (0.0, 0.5, 1.0, 4.0, 32.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < 0.1  # -> 0 as Delta -> inf

    def test_boa_approaches_exact_with_matched_radius(self):
        p = ModelParams(Omega=1.5, g=0.1)
        diffs = [abs(berry_boa_jc(boa_radius(n), p, +1) - berry_exact_jc(n, p, +1))
                 for n in (1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            berry_exact_jc(1, ModelParams(Omega=1.0, g=0.1), 2)
