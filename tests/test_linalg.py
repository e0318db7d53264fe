import numpy as np
import pytest

from jcrabi import (
    ConvergenceError,
    HermiticityError,
    TruncationConfig,
    commutator_deviation,
    expectation,
    hermitian_eig,
)
from jcrabi.fock import SQRT2, ladder_ops, qubit_ops
from jcrabi.linalg import EIG_RTOL, block_eig, residual_gate
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


class TestBlockEig:
    def test_merged_spectrum_matches_block_diagonal_matrix(self):
        rng = np.random.default_rng(7)
        blocks = [random_hermitian(6, rng).real, random_hermitian(6, rng).real]
        values, systems, order = block_eig(blocks)
        full = np.zeros((12, 12))
        full[:6, :6], full[6:, 6:] = blocks
        assert np.max(np.abs(values - hermitian_eig(full).values)) <= 1e-12
        for i, idx in enumerate(order):
            block, col = divmod(int(idx), 6)
            assert systems[block].values[col] == values[i]

    def test_ties_keep_block_order(self):
        values, _, order = block_eig([np.diag([1.0, 3.0]), np.diag([1.0, 2.0])])
        assert np.array_equal(values, [1.0, 1.0, 2.0, 3.0])
        assert np.array_equal(order, [0, 2, 3, 1])


class TestExpectation:
    def setup_method(self):
        self.cfg = TruncationConfig(10)
        self.a, self.a_dag, self.n_hat = ladder_ops(self.cfg)

    def test_vacuum_number(self):
        v = np.zeros(11, dtype=complex)
        v[0] = 1.0
        assert expectation(self.n_hat, v) == pytest.approx(0.0, abs=1e-14)

    def test_fock_one_number(self):
        v = np.zeros(11, dtype=complex)
        v[1] = 1.0
        assert expectation(self.n_hat, v) == pytest.approx(1.0, abs=1e-14)

    def test_superposition_quadrature(self):
        x_hat, _ = quadratures(self.cfg)
        v = np.zeros(11, dtype=complex)
        v[0] = v[1] = 1.0 / np.sqrt(2.0)
        # <x> of (|0> + |1>)/sqrt(2) is 1/sqrt(2), by the matrix elements of
        # (a + a^dag)/sqrt(2)
        assert expectation(x_hat, v) == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            expectation(self.n_hat, np.ones(4) / 2.0)

    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            expectation(self.n_hat, np.ones(11))


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
