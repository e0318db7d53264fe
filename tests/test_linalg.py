import numpy as np
import pytest

from jcrabi import (
    ConvergenceError,
    HermiticityError,
    TruncationConfig,
    commutator_deviation,
    hermitian_eig,
)
from jcrabi.fock import SQRT2, ladder_ops, qubit_ops
from jcrabi.linalg import (
    EIG_RTOL,
    block_eig,
    merged_levels,
    residual_gate,
    sturm_count,
    tridiagonal,
)
from jcrabi.models import ModelParams, build_jc, phase_factors, symmetry_ops

SX, SY, SZ, SP, SM = qubit_ops()


def u_phi(phi, cfg):
    """Dense U(phi) = exp(-i n_hat phi), qubit factor identity."""
    return np.diag(phase_factors(phi, cfg))


def quadratures(cfg):
    """Field quadratures x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2)."""
    a, a_dag, _ = ladder_ops(cfg)
    return (a + a_dag) / SQRT2, 1j * (a_dag - a) / SQRT2


def random_hermitian(n, rng, scale=1.0):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (raw + raw.conj().T)


class TestHermitianEig:
    def test_pauli_z_spectrum(self):
        es = hermitian_eig(SZ)
        assert np.allclose(es.values, [-1.0, 1.0])

    def test_pauli_x_spectrum_and_vectors(self):
        es = hermitian_eig(SX)
        assert np.allclose(es.values, [-1.0, 1.0])
        # eigenvectors (1, -+1)/sqrt(2) up to a global phase
        for col, expected in zip(es.vectors.T, ([1, -1], [1, 1])):
            expected = np.asarray(expected) / np.sqrt(2)
            assert abs(abs(np.vdot(expected, col)) - 1.0) < 1e-12

    def test_reconstruction_random_200(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(200, rng)
        es = hermitian_eig(a)
        recon = (es.vectors * es.values) @ es.vectors.conj().T
        assert np.max(np.abs(a - recon)) <= 1e-10 * np.max(np.abs(a))

    def test_values_ascending_and_vectors_orthonormal(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(57, rng)
        es = hermitian_eig(a)
        assert np.all(np.diff(es.values) >= 0)
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(57))) <= 1e-10
        assert es.residual <= 1e-10 * np.max(np.abs(a))

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(64, rng)
        es = hermitian_eig(a)
        bound = 1e-10 * 64 * np.max(np.abs(a))
        assert abs(np.trace(a).real - np.sum(es.values)) <= bound

    def test_diagonal_matrix_exact(self):
        d = np.array([0.3, -1.2, 2.5, 0.3, -0.7])
        es = hermitian_eig(np.diag(d).astype(complex))
        assert np.max(np.abs(es.values - np.sort(d))) <= 1e-14

    def test_unitary_conjugation_covariance(self):
        cfg = TruncationConfig(15)
        rng = np.random.default_rng(4)
        a = random_hermitian(cfg.dim_joint, rng)
        u = u_phi(0.6, cfg)
        conj = u @ a @ u.conj().T
        v1 = hermitian_eig(a).values
        v2 = hermitian_eig(0.5 * (conj + conj.conj().T)).values
        assert np.max(np.abs(v1 - v2)) <= 1e-9 * np.max(np.abs(a))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(40, rng)
        e1, e2 = hermitian_eig(a), hermitian_eig(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_rejects_non_hermitian(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(HermiticityError) as err:
            hermitian_eig(a)
        assert err.value.deviation == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_nan_entry(self):
        a = np.array([[1.0, np.nan], [np.nan, 2.0]])
        with pytest.raises(HermiticityError):
            hermitian_eig(a)

    def test_zero_matrix(self):
        es = hermitian_eig(np.zeros((4, 4), dtype=complex))
        assert np.all(es.values == 0)


class TestRealInput:
    def test_real_symmetric_matches_complex_cast(self):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((50, 50))
        a = 0.5 * (raw + raw.T)
        real = hermitian_eig(a)
        cast = hermitian_eig(a.astype(complex))
        assert real.vectors.dtype == np.float64
        assert cast.vectors.dtype == np.complex128
        assert np.max(np.abs(real.values - cast.values)) <= 1e-12
        overlaps = np.abs(np.sum(real.vectors.conj() * cast.vectors, axis=0))
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-12

    def test_real_non_symmetric_rejected(self):
        with pytest.raises(HermiticityError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_integer_input_promoted(self):
        es = hermitian_eig(np.array([[2, 1], [1, 2]]))
        assert es.values.dtype == np.float64
        assert np.allclose(es.values, [1.0, 3.0])


class TestResidualGate:
    def test_bound_is_relative_to_max_abs(self):
        a = np.diag([1.0, 2.0])
        v = np.array([1.0, 0.0])
        maxabs = 2.0
        # a wrong eigenvalue just inside and just outside EIG_RTOL * max|A|
        inside = 1.0 + 0.5 * EIG_RTOL * maxabs
        assert residual_gate(a, inside, v, maxabs, "here") == pytest.approx(0.5 * EIG_RTOL * maxabs)
        with pytest.raises(ConvergenceError, match="here"):
            residual_gate(a, 1.0 + 2.0 * EIG_RTOL * maxabs, v, maxabs, "here")

    def test_checks_every_column(self):
        a = np.diag([1.0, 2.0, 3.0])
        values = np.array([1.0, 2.0, 3.0 + 1e-6])
        with pytest.raises(ConvergenceError):
            residual_gate(a, values, np.eye(3), 3.0, "for a dim=3 matrix")
        assert residual_gate(a, values[:2], np.eye(3)[:, :2], 3.0, "") == 0.0

    def test_nan_residual_rejected(self):
        # a NaN eigenvalue compares false against the bound either way; the
        # gate passes only a residual that is at most the bound
        with pytest.raises(ConvergenceError, match="here"):
            residual_gate(np.diag([1.0, 2.0]), np.nan, np.array([1.0, 0.0]), 2.0, "here")


def random_tridiagonal(m, rng, jc_links=False):
    """Diagonal and off-diagonal of a random symmetric tridiagonal matrix;
    jc_links zeroes every other link, the pattern of a JC parity sector."""
    diag = rng.standard_normal(m)
    off = rng.standard_normal(m - 1)
    if jc_links:
        off[1::2] = 0.0
    return diag, off


def random_bands(m, rng):
    """Stacked bands (diag, off) of two random blocks of size m, the second
    with the JC link pattern: the shape of models.parity_sectors."""
    pairs = [random_tridiagonal(m, rng), random_tridiagonal(m, rng, jc_links=True)]
    return np.array([d for d, _ in pairs]), np.array([o for _, o in pairs])


def dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestTridiagonal:
    def test_matches_dense_blocks(self):
        diag, off = random_bands(7, np.random.default_rng(9))
        t = tridiagonal(diag, off)
        assert t.shape == (2, 7, 7)
        for b in range(2):
            assert np.array_equal(t[b], dense(diag[b], off[b]))

    def test_single_element_blocks(self):
        assert np.array_equal(tridiagonal([[2.0], [-1.0]], np.zeros((2, 0))), [[[2.0]], [[-1.0]]])


class TestBlockEig:
    def test_merged_spectrum_matches_block_diagonal_matrix(self):
        diag, off = random_bands(6, np.random.default_rng(7))
        values, systems, order = block_eig(diag, off)
        full = np.zeros((12, 12))
        full[:6, :6], full[6:, 6:] = dense(diag[0], off[0]), dense(diag[1], off[1])
        assert np.max(np.abs(values - hermitian_eig(full).values)) <= 1e-12
        for i, idx in enumerate(order):
            block, col = divmod(int(idx), 6)
            assert systems[block].values[col] == values[i]

    def test_ties_keep_block_order(self):
        values, _, order = block_eig([[1.0, 3.0], [1.0, 2.0]], np.zeros((2, 1)))
        assert np.array_equal(values, [1.0, 1.0, 2.0, 3.0])
        assert np.array_equal(order, [0, 2, 3, 1])


class TestSturmCount:
    @pytest.mark.parametrize("jc_links", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_counts_match_eigvalsh(self, m, jc_links):
        rng = np.random.default_rng(m)
        for _ in range(5):
            diag, off = random_tridiagonal(m, rng, jc_links)
            values = np.linalg.eigvalsh(dense(diag, off))
            shifts = rng.uniform(values[0] - 1.0, values[-1] + 1.0, 50)
            # stay clear of the eigenvalues, where rounding decides the count
            shifts = shifts[np.min(np.abs(shifts[:, None] - values), axis=1) > 1e-9]
            counts = sturm_count(diag, off, shifts)
            assert np.array_equal(counts, np.sum(values[None, :] < shifts[:, None], axis=1))

    def test_shift_on_an_eigenvalue_is_not_counted(self):
        # exact eigenvalues: a diagonal with a repeated entry, and 0 and 2
        # of [[1, 1], [1, 1]], whose second pivot vanishes exactly
        diag = np.array([2.0, -1.0, 2.0, 0.5])
        assert np.array_equal(sturm_count(diag, np.zeros(3), diag), [2, 0, 2, 1])
        assert np.array_equal(sturm_count([1.0, 1.0], [1.0], [0.0, 2.0]), [0, 1])

    @pytest.mark.parametrize("jc_links", [False, True])
    def test_shifts_tol_away_from_eigenvalues(self, jc_links):
        rng = np.random.default_rng(11)
        diag, off = random_tridiagonal(30, rng, jc_links)
        t = dense(diag, off)
        values = np.linalg.eigvalsh(t)
        tol = EIG_RTOL * np.max(np.abs(t))
        assert np.min(np.diff(values)) > 2 * tol
        i = np.arange(30)
        assert np.array_equal(sturm_count(diag, off, values - tol), i)
        assert np.array_equal(sturm_count(diag, off, values + tol), i + 1)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(5)
        bands = [[random_tridiagonal(9, rng, jc_links=b == 1) for b in range(2)]
                 for _ in range(3)]
        diag = np.array([[d for d, _ in row] for row in bands])
        off = np.array([[o for _, o in row] for row in bands])
        shifts = rng.standard_normal((3, 2, 4))
        counts = sturm_count(diag, off, shifts)
        shared = sturm_count(diag, off, shifts[0, 0])  # one shift list for all
        assert counts.shape == shared.shape == (3, 2, 4)
        for p in range(3):
            for b in range(2):
                assert np.array_equal(counts[p, b], sturm_count(diag[p, b], off[p, b], shifts[p, b]))
                assert np.array_equal(shared[p, b], sturm_count(diag[p, b], off[p, b], shifts[0, 0]))

    def test_band_lengths_must_match(self):
        with pytest.raises(ValueError, match="one entry fewer"):
            sturm_count(np.zeros(4), np.zeros(4), [0.0])


def sector_label(point, block):
    return f"block {block} of point {point}"


def perturb_eigvalsh(monkeypatch, call, block, index):
    """Make np.linalg.eigvalsh add 1e-6 to value ``index`` of ``block`` on
    its ``call``-th call (every call when None): a solver gone wrong."""
    true_eigvalsh = np.linalg.eigvalsh
    calls = []

    def perturbed(a):
        values = true_eigvalsh(a)
        calls.append(a)
        if call is None or len(calls) == call:
            values[block, index] += 1e-6
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", perturbed)


class TestMergedLevels:
    def test_matches_block_eig(self):
        diag, off = random_bands(8, np.random.default_rng(3))
        merged, _, _ = block_eig(diag, off)
        for k in (1, 5, 16):
            levels = merged_levels([(diag, off)], k, sector_label)
            assert levels.shape == (1, k)
            assert np.max(np.abs(levels[0] - merged[:k])) <= 1e-12

    def test_exact_clusters_pass(self):
        # equal values inside a block and across blocks
        bands = ([[1.0, 1.0, 3.0], [1.0, 2.0, 2.0]], np.zeros((2, 2)))
        levels = merged_levels([bands], 6, sector_label)
        assert np.array_equal(levels[0], [1.0, 1.0, 1.0, 2.0, 2.0, 3.0])

    def test_points_are_independent_rows(self):
        rng = np.random.default_rng(4)
        points = [random_bands(6, rng) for _ in range(3)]
        batch = merged_levels(points, 4, sector_label)
        for row, bands in zip(batch, points):
            assert np.array_equal(row, merged_levels([bands], 4, sector_label)[0])
        assert merged_levels([], 4, sector_label).shape == (0, 4)

    def test_perturbed_value_is_rejected(self, monkeypatch):
        rng = np.random.default_rng(8)
        points = [random_bands(6, rng) for _ in range(2)]
        perturb_eigvalsh(monkeypatch, call=2, block=1, index=2)
        with pytest.raises(ConvergenceError,
                           match=r"eigenvalue 2 = .* of block 1 of point 1 fails the Sturm count"):
            merged_levels(points, 12, sector_label)

    def test_only_kept_values_are_gated(self, monkeypatch):
        bands = ([[0.0, 1.0], [2.0, 3.0]], np.zeros((2, 1)))
        perturb_eigvalsh(monkeypatch, call=None, block=1, index=1)
        # the largest value is wrong; two levels keep block 0 only
        assert np.array_equal(merged_levels([bands], 2, sector_label), [[0.0, 1.0]])
        with pytest.raises(ConvergenceError, match="eigenvalue 1 = .* of block 1 of point 0"):
            merged_levels([bands], 4, sector_label)

    def test_zero_block(self):
        levels = merged_levels([([[0.0, 0.0], [0.0, 1.0]], np.zeros((2, 1)))], 3, sector_label)
        assert np.array_equal(levels, [[0.0, 0.0, 0.0]])


class TestCommutatorDeviation:
    def test_pauli_algebra(self):
        assert commutator_deviation(SX, SY, 2j * SZ) <= 1e-14

    def test_truncated_canonical_commutator(self):
        # [x, p] - i I has the single truncation defect -i(N + 1) at the
        # (N, N) corner, so the Frobenius norm is exactly N + 1.
        cfg = TruncationConfig(10)
        x_hat, p_hat = quadratures(cfg)
        dev = commutator_deviation(x_hat, p_hat, 1j * np.eye(cfg.dim_field))
        assert dev == pytest.approx(11.0, abs=1e-12)

    def test_jc_conserves_excitation_number(self):
        cfg = TruncationConfig(40)
        h = build_jc(ModelParams(Omega=1.0, g=0.3), cfg)
        n_total, _ = symmetry_ops(cfg)
        zero = np.zeros_like(h)
        assert commutator_deviation(h, n_total, zero) <= 1e-12 * np.max(np.abs(h))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_deviation(SX, np.eye(3), np.zeros((2, 2)))
