"""Hermitian linear algebra with explicit quality gates.

Every operator in this toolkit is a small dense matrix (dim <= ~1200), so a
direct LAPACK eigendecomposition is the right tool; real symmetric input
stays real.  The wrappers below add the checks the physics modules rely on:
a Hermiticity gate on input, a gate on every eigenvalue or eigenpair
returned, and commutator diagnostics used to verify model symmetries.

The main input is the pair of real tridiagonal parity sectors (dim
n_max + 1) from models.parity_sectors, solved in one of two ways:

* values only: block_eigvalsh solves the sectors with np.linalg.eigvalsh
  and merged_levels gates each kept value with a Sturm count (sturm_count,
  an LDL^T inertia count that needs no eigensolver) before merging.  The
  spectrum sweeps, convergence studies and Bloch-Siegert values take this
  path.
* with vectors: block_eig solves each sector with hermitian_eig, whose
  eigen-residual gate (residual_gate) checks every eigenpair.  The
  numerical crossing and berry.eig_family need the vectors.

Both merge the sector spectra in _merge, which owns the level numbering.
The full joint-space matrices still come to hermitian_eig from the dense
oracle paths (generator_phase, the acceptance gate's dense checks, the
tests).  residual_gate is also applied on its own to each node
U(phi_k)|psi_0> of a Berry-loop eigenpath, against the dense rotated
H'(phi_k).
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
    ``vectors``, or one vector and a scalar value); unless it is at most
    EIG_RTOL * max|A| (so also when it is NaN) it raises ConvergenceError,
    with ``where`` naming the matrix."""
    residual = float(np.max(np.abs(a @ vectors - vectors * values)))
    bound = EIG_RTOL * maxabs
    if not residual <= bound:
        raise ConvergenceError(
            f"eigen-residual {residual:.3e} {where} exceeds "
            f"{EIG_RTOL:.1e} * max|A| = {bound:.3e}"
        )
    return residual


def _hermitian_part(a):
    """The Hermiticity gate: returns ((A + A^dag)/2, max|A|) for a square A,
    or raises HermiticityError unless max|A - A^dag| is at most
    HERMITICITY_RTOL * max|A| (a NaN entry fails)."""
    maxabs = float(np.max(np.abs(a)))
    dev = float(np.max(np.abs(a - a.conj().T)))
    bound = HERMITICITY_RTOL * maxabs
    if not dev <= bound:
        raise HermiticityError(dev, bound)
    return 0.5 * (a + a.conj().T), maxabs


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
    h, maxabs = _hermitian_part(a)
    if maxabs == 0.0:
        return EigenSystem(np.zeros(n), np.eye(n, dtype=a.dtype), 0.0)

    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - malformed input
        raise ConvergenceError(
            f"eigendecomposition of a dim={n} matrix did not converge "
            f"within the solver's iteration cap ({exc})"
        ) from exc

    residual = residual_gate(a, values, vectors, maxabs, f"for a dim={n} matrix")
    return EigenSystem(values, vectors, residual)


def _merge(values):
    """Stable ascending merge of per-block spectra: values has shape
    (..., blocks, m); returns (merged, order) of shape (..., blocks * m) with
    merged = flattened values[order], so entry order[i] is value
    order[i] % m of block order[i] // m.  Equal values keep block order,
    which fixes the level numbering of every parity-sector solve."""
    flat = values.reshape(*values.shape[:-2], -1)
    order = np.argsort(flat, axis=-1, kind="stable")
    return np.take_along_axis(flat, order, axis=-1), order


def block_eig(blocks):
    """Spectrum of a block-diagonal matrix given by its equal-size blocks.

    Each block goes through hermitian_eig.  Returns (values, systems,
    order): the ascending merged spectrum, one EigenSystem per block, and
    the merge order of _merge, so values[i] is eigenvalue order[i] % m of
    block order[i] // m for blocks of size m.
    """
    systems = [hermitian_eig(b) for b in blocks]
    merged, order = _merge(np.stack([es.values for es in systems]))
    return merged, systems, order


def sturm_count(diag, off, shifts) -> np.ndarray:
    """Number of eigenvalues below each shift of a symmetric tridiagonal matrix.

    The matrix has diagonal ``diag`` (..., m) and off-diagonal moduli
    ``off`` (..., m - 1); ``shifts`` is (..., s), and the leading axes
    broadcast.  By Sylvester's law of inertia, T - x I = L D L^T has as
    many negative pivots d_j = diag_j - x - off_{j-1}^2 / d_{j-1} as T has
    eigenvalues below x.  A pivot smaller in magnitude than
    pivmin = tiny * max(1, max off^2) is replaced by +pivmin (LAPACK's
    dstebz guard, with the sign that leaves an eigenvalue equal to the
    shift uncounted), so a zero link or a shift on an eigenvalue neither
    divides by zero nor overflows.  The count is backward stable: it is
    exact for a matrix within a few ulps of T.  Pure numpy; the loop runs
    over m, every other axis is vectorised.
    """
    diag = np.asarray(diag, dtype=float)
    off2 = np.asarray(off, dtype=float) ** 2
    shifts = np.asarray(shifts, dtype=float)
    m = diag.shape[-1]
    if off2.shape[-1] != m - 1:
        raise ValueError(
            f"off must have one entry fewer than diag, got {off2.shape[-1]} and {m}"
        )
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(off2, axis=-1, initial=0.0))
    pivmin = pivmin[..., None]
    d = diag[..., :1] - shifts
    count = 0
    for j in range(m):
        if j:
            d = diag[..., j, None] - shifts - off2[..., j - 1, None] / d
        d = np.where(np.abs(d) < pivmin, pivmin, d)
        count = count + (d < 0)
    return count


def block_eigvalsh(blocks):
    """Eigenvalues of equal-size Hermitian tridiagonal blocks, values only.

    Each block passes the Hermiticity gate of hermitian_eig and must be
    zero outside its three central diagonals (ValueError otherwise); the
    symmetrized block is solved by np.linalg.eigvalsh.  Returns (values,
    diag, off, scale): per block, the ascending eigenvalues, the diagonal,
    the off-diagonal moduli and max|T|, as arrays with one row per block.
    The values are not gated yet: merged_levels gates them against the
    bands, so the dense blocks need not be kept.
    """
    values, diag, off, scale = [], [], [], []
    for b, block in enumerate(blocks):
        h, maxabs = _hermitian_part(_as_square(block, "block"))
        d, o = np.diagonal(h).real.copy(), np.abs(np.diagonal(h, 1))
        # h is exactly Hermitian, so it is tridiagonal when its only
        # nonzeros are those of the diagonal and of the two off-diagonals
        if np.count_nonzero(h) > np.count_nonzero(d) + 2 * np.count_nonzero(o):
            i, j = np.argwhere(np.triu(h, 2))[0]
            raise ValueError(f"block {b} is not tridiagonal: entry ({i}, {j}) = {h[i, j]!r}")
        try:
            values.append(np.linalg.eigvalsh(h))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - malformed input
            raise ConvergenceError(
                f"eigenvalues of a dim={len(d)} block did not converge "
                f"within the solver's iteration cap ({exc})"
            ) from exc
        diag.append(d)
        off.append(o)
        scale.append(maxabs)
    return np.stack(values), np.stack(diag), np.stack(off), np.array(scale)


def merged_levels(points, k: int, where) -> np.ndarray:
    """The k lowest levels at each point, from block_eigvalsh results.

    ``points`` holds one (values, diag, off, scale) tuple of block_eigvalsh
    per point, all of the same shape; the points are checked in one batch.
    Each point's blocks are merged as block_eig merges them, so the level
    numbering is the same.  Every value v_i that the k levels keep (the
    i-th eigenvalue of its block) must pass the Sturm count
    N(v_i - tol) <= i < N(v_i + tol), tol = EIG_RTOL * max|T|, which bounds
    |lambda_i - v_i| <= tol with no eigensolver involved and tolerates
    exact clusters.  A violation raises ConvergenceError naming
    where(point, block) and the eigenvalue.  Returns shape (len(points), k).
    """
    if not points:
        return np.empty((0, k))
    values, diag, off, scale = (np.stack(part) for part in zip(*points))
    values = values[..., :k]
    kb = values.shape[-1]
    merged, order = _merge(values)
    kept = np.zeros(merged.shape, dtype=bool)
    np.put_along_axis(kept, order[..., :k], True, axis=-1)
    kept = kept.reshape(values.shape)
    tol = EIG_RTOL * scale[..., None]
    counts = sturm_count(diag, off, np.concatenate([values - tol, values + tol], axis=-1))
    below, within = counts[..., :kb], counts[..., kb:]
    index = np.arange(kb)
    # a zero block has the exact spectrum 0 and tol = 0: nothing to count
    bad = kept & ((below > index) | (within <= index)) & (tol > 0)
    if np.any(bad):
        p, b, i = np.argwhere(bad)[0]
        raise ConvergenceError(
            f"eigenvalue {i} = {float(values[p, b, i])!r} of {where(p, b)} fails "
            f"the Sturm count: N(v - tol) = {below[p, b, i]} and N(v + tol) = "
            f"{within[p, b, i]} eigenvalues lie below v -/+ tol, but "
            f"N(v - tol) <= {i} < N(v + tol) is needed "
            f"(tol = {EIG_RTOL:.1e} * max|T| = {tol[p, b, 0]:.3e})"
        )
    return merged[..., :k]


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
