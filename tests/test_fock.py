import numpy as np
import pytest

from jcrabi import TruncationConfig
from jcrabi.fock import SQRT2

from dense_oracle import embed, ladder_ops, qubit_ops


def quadratures(cfg):
    """Field quadratures x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2)."""
    a, a_dag, _ = ladder_ops(cfg)
    return (a + a_dag) / SQRT2, 1j * (a_dag - a) / SQRT2


def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(0)
    cfg = TruncationConfig(5)
    assert cfg.dim_field == 6
    assert cfg.dim_joint == 12


class TestLadderOps:
    def setup_method(self):
        self.cfg = TruncationConfig(10)
        self.a, self.a_dag, self.n_hat = ladder_ops(self.cfg)

    def test_sqrt2_matrix_element(self):
        assert self.a[1, 2] == pytest.approx(np.sqrt(2.0))

    def test_number_operator(self):
        assert np.allclose(np.diag(self.n_hat), np.arange(11))
        assert np.max(np.abs(self.a_dag @ self.a - self.n_hat)) <= 1e-14

    def test_adjoint(self):
        assert np.array_equal(self.a_dag, self.a.conj().T)

    def test_truncation_defect_in_a_adag(self):
        comm = self.a @ self.a_dag - self.a_dag @ self.a
        expected = np.eye(11, dtype=complex)
        expected[10, 10] = -10.0
        assert np.max(np.abs(comm - expected)) <= 1e-14

    def test_bit_for_bit_reproducible(self):
        again = ladder_ops(self.cfg)
        for op, ref in zip(again, (self.a, self.a_dag, self.n_hat)):
            assert np.array_equal(op, ref)


class TestQuadratureOps:
    """The ladder matrix elements seen through the documented x, p convention."""

    def setup_method(self):
        self.cfg = TruncationConfig(12)
        self.x, self.p = quadratures(self.cfg)

    def test_hermitian(self):
        assert np.max(np.abs(self.x - self.x.conj().T)) <= 1e-14
        assert np.max(np.abs(self.p - self.p.conj().T)) <= 1e-14
        assert np.max(np.abs(self.x.imag)) == 0.0
        assert np.max(np.abs(self.p.real)) == 0.0

    def test_canonical_commutator_away_from_edge(self):
        n = self.cfg.n_max
        comm = self.x @ self.p - self.p @ self.x
        dev = comm - 1j * np.eye(n + 1)
        assert np.max(np.abs(dev[: n - 1, : n - 1])) <= 1e-12

    def test_edge_defect_confined_to_last_row_col(self):
        n = self.cfg.n_max
        dev = self.x @ self.p - self.p @ self.x - 1j * np.eye(n + 1)
        dev[n, :] = 0.0
        dev[:, n] = 0.0
        assert np.max(np.abs(dev)) <= 1e-12

    def test_vacuum_quadrature_variance(self):
        # <0|x^2|0> = 1/2 by direct matrix product
        x2 = self.x @ self.x
        assert x2[0, 0].real == pytest.approx(0.5, abs=1e-14)


class TestQubitOps:
    def setup_method(self):
        self.sx, self.sy, self.sz, self.sp, self.sm = qubit_ops()

    def test_involution(self):
        assert np.array_equal(self.sx @ self.sx, np.eye(2, dtype=complex))

    def test_ladder_sum(self):
        assert np.array_equal(self.sp + self.sm, self.sx)

    def test_sz_convention(self):
        # excited state |2> is the first basis vector
        assert np.allclose(np.diag(self.sz), [1.0, -1.0])

    def test_pauli_algebra(self):
        comm = self.sx @ self.sy - self.sy @ self.sx
        assert np.linalg.norm(comm - 2j * self.sz) <= 1e-14


class TestEmbed:
    def setup_method(self):
        self.cfg = TruncationConfig(4)
        self.a, self.a_dag, self.n_hat = ladder_ops(self.cfg)
        self.sx, self.sy, self.sz, self.sp, self.sm = qubit_ops()

    def test_qubit_outer_block_structure(self):
        out = embed(None, self.sz, self.cfg)
        expected = np.concatenate([np.ones(5), -np.ones(5)])
        assert np.allclose(np.diag(out), expected)

    def test_field_repeats_per_block(self):
        out = embed(self.n_hat, None, self.cfg)
        assert np.allclose(np.diag(out), np.tile(np.arange(5), 2))

    def test_adjoint_consistency(self):
        lhs = embed(self.a, self.sp, self.cfg).conj().T
        rhs = embed(self.a_dag, self.sm, self.cfg)
        assert np.array_equal(lhs, rhs)

    def test_identities(self):
        assert np.array_equal(embed(None, None, self.cfg), np.eye(self.cfg.dim_joint))
        assert np.array_equal(embed(np.eye(5), np.eye(2), self.cfg), np.eye(10))

    def test_entry_layout_is_qubit_outer(self):
        # entry (i m, j n) of q (x) f is q[i, j] f[m, n], row index i * dim_f + m
        rng = np.random.default_rng(3)
        f = rng.standard_normal((5, 5))
        q = rng.standard_normal((2, 2))
        out = embed(f, q, self.cfg)
        for i, j, m, n in ((0, 0, 2, 3), (0, 1, 4, 0), (1, 0, 1, 1), (1, 1, 3, 4)):
            assert out[5 * i + m, 5 * j + n] == q[i, j] * f[m, n]

    def test_mixed_product_property(self):
        rng = np.random.default_rng(6)
        f1, f2 = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                  for _ in range(2))
        q1, q2 = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                  for _ in range(2))
        lhs = embed(f1, q1, self.cfg) @ embed(f2, q2, self.cfg)
        rhs = embed(f1 @ f2, q1 @ q2, self.cfg)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            embed(np.eye(3), None, self.cfg)
        with pytest.raises(ValueError):
            embed(None, np.eye(3), self.cfg)
