"""Hermitian linear algebra with explicit quality gates.

Every operator in this toolkit is a small dense matrix (dim <= ~1200), so a
direct LAPACK eigendecomposition is the right tool; real symmetric input
stays real.  The wrappers below add the checks the physics modules rely on:
a Hermiticity gate on input, one eigen-residual gate on output, and
commutator diagnostics used to verify model symmetries.

The main input of hermitian_eig is the pair of real tridiagonal parity
sectors (dim n_max + 1) from models.parity_sectors, which block_eig solves
and merges: every spectrum, sweep and crossing solves them, and
berry.eig_family solves them once per loop.  The full joint-space matrices
still come here from the dense oracle paths (generator_phase, the
acceptance gate's dense checks, the tests).  residual_gate is also applied
on its own to each node U(phi_k)|psi_0> of a Berry-loop eigenpath, against
the dense rotated H'(phi_k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hermiticity gate, relative to max|A|.
HERMITICITY_RTOL = 1e-12
# Eigen-residual bound, relative to max|A|.
EIG_RTOL = 1e-10


class HermiticityError(ValueError):
    """Input deviates from A == A^dag beyond tolerance."""

    def __init__(self, deviation: float, bound: float):
        self.deviation = float(deviation)
        self.bound = float(bound)
        super().__init__(
            f"matrix is not Hermitian: max|A - A^dag| = {deviation:.6e} "
            f"exceeds the allowed {bound:.6e}"
        )


class ConvergenceError(RuntimeError):
    """Eigensolver did not reach its accuracy target."""


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"{name} must be a square 2-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class EigenSystem:
    """Full decomposition of a Hermitian matrix.

    values   -- real eigenvalues, ascending (ties allowed)
    vectors  -- unit-norm eigenvectors, one column per value
    residual -- max over i of the inf-norm of A v_i - lambda_i v_i

    Eigenvector global phases are unspecified; downstream gauge fixing owns
    them.  Inside a degenerate cluster the basis is an arbitrary orthonormal
    choice and callers must not rely on it.
    """

    values: np.ndarray
    vectors: np.ndarray
    residual: float

    @property
    def dim(self) -> int:
        return len(self.values)


def residual_gate(a, values, vectors, maxabs: float, where: str) -> float:
    """max_i |A v_i - lambda_i v_i|_inf over the given eigenpairs (columns of
    ``vectors``, or one vector and a scalar value); above EIG_RTOL * max|A|
    it raises ConvergenceError, with ``where`` naming the matrix."""
    residual = float(np.max(np.abs(a @ vectors - vectors * values)))
    bound = EIG_RTOL * maxabs
    if residual > bound:
        raise ConvergenceError(
            f"eigen-residual {residual:.3e} {where} exceeds "
            f"{EIG_RTOL:.1e} * max|A| = {bound:.3e}"
        )
    return residual


def hermitian_eig(a) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, with contract checks.

    The input is gated on Hermiticity (1e-12 relative to max|A|), then
    symmetrized to (A + A^dag)/2 and decomposed.  Every eigenpair passes
    residual_gate; a violation or a LAPACK convergence failure raises
    ConvergenceError naming the dimension.  Real input yields real vectors.

    Deterministic: identical input yields the identical decomposition.
    """
    a = _as_square(a)
    n = a.shape[0]
    maxabs = float(np.max(np.abs(a)))
    if maxabs == 0.0:
        return EigenSystem(np.zeros(n), np.eye(n, dtype=a.dtype), 0.0)

    dev = float(np.max(np.abs(a - a.conj().T)))
    bound = HERMITICITY_RTOL * maxabs
    if dev > bound:
        raise HermiticityError(dev, bound)

    h = 0.5 * (a + a.conj().T)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - malformed input
        raise ConvergenceError(
            f"eigendecomposition of a dim={n} matrix did not converge "
            f"within the solver's iteration cap ({exc})"
        ) from exc

    residual = residual_gate(a, values, vectors, maxabs, f"for a dim={n} matrix")
    return EigenSystem(values, vectors, residual)


def block_eig(blocks):
    """Spectrum of a block-diagonal matrix given by its equal-size blocks.

    Each block goes through hermitian_eig.  Returns (values, systems,
    order): the ascending merged spectrum, one EigenSystem per block, and
    the stable merge order, so values[i] is eigenvalue order[i] % m of
    block order[i] // m for blocks of size m.  Equal values keep block
    order, which fixes the level numbering of every parity-sector solve.
    """
    systems = [hermitian_eig(b) for b in blocks]
    merged = np.concatenate([es.values for es in systems])
    order = np.argsort(merged, kind="stable")
    return merged[order], systems, order


def expectation(a, v) -> float:
    """Re(v^dag A v) for Hermitian A and a unit-norm vector v.

    The imaginary part of v^dag A v is a numerical diagnostic and must stay
    below 1e-10; larger values indicate a non-Hermitian A or a broken vector.
    """
    a = _as_square(a)
    v = np.asarray(v).reshape(-1)
    if v.shape[0] != a.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a.shape}, v has length {v.shape[0]}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"v must be unit norm, got |v| = {norm!r}")
    val = complex(np.vdot(v, a @ v))
    if abs(val.imag) > 1e-10:
        raise ValueError(
            f"imaginary part of v^dag A v is {val.imag:.3e} (> 1e-10); "
            "A is not Hermitian enough for an expectation value"
        )
    return float(val.real)


def commutator_deviation(a, b, target) -> float:
    """Frobenius norm of AB - BA - target."""
    a = _as_square(a, "A")
    b = _as_square(b, "B")
    target = _as_square(target, "target")
    if not (a.shape == b.shape == target.shape):
        raise ValueError(
            f"dimension mismatch: A {a.shape}, B {b.shape}, target {target.shape}"
        )
    return float(np.linalg.norm(a @ b - b @ a - target, "fro"))
