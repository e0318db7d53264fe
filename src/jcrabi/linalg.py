"""Hermitian linear algebra with explicit quality gates.

Every operator in this toolkit is a small dense matrix (dim <= ~1200), so a
direct LAPACK eigendecomposition is the right tool; real symmetric input
stays real.  The wrappers below add the checks the physics modules rely on:
a Hermiticity gate on input, a gate on every eigenvalue or eigenpair
returned, and commutator diagnostics used to verify model symmetries.

The main input is the pair of parity sectors from models.parity_sectors,
given as bands: diag of shape (2, m) and off of shape (2, m - 1), m =
n_max + 1.  tridiagonal assembles the stacked (2, m, m) LAPACK input, and
the sectors are solved in one of two ways:

* values only: merged_levels reads the structure from the bands.  A block
  row with no two adjacent nonzero links (a JC sector, or any sector at
  g = 0) is a set of decoupled 2 x 2 pairs and 1 x 1 blocks, whose values
  _pair_eigvalsh gives in closed form for all points at once; any other
  block row is solved point by point with one stacked np.linalg.eigvalsh.
  Each kept value is then gated with a Sturm count (sturm_count, an LDL^T
  inertia count on the full bands that needs no eigensolver) before
  merging.  The spectrum sweeps, convergence studies, Bloch-Siegert values
  and the numerical crossing (the even sector alone) take this path.
* with vectors: block_eig solves each sector with hermitian_eig, whose
  eigen-residual gate (residual_gate) checks every eigenpair.  Only the
  Berry loop needs the vectors: berry.fock_loop, which reads the loop off
  the occupation weights of psi_0, and its oracle berry.eig_family.

Both merge the sector spectra in _merge, which owns the level numbering.
The full joint-space matrices still come to hermitian_eig from the dense
oracle paths (generator_phase, the acceptance gate's dense checks, the
tests).  residual_gate takes the products A v rather than A, so it is also
applied on its own: the Berry loop gates psi_0 once on the dense
H(0) psi_0, and that one value serves every node U(phi_k)|psi_0> of
berry.fock_loop and of its oracle berry.eig_family, U(phi_k) being
diagonal with unit-modulus entries.
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


def residual_gate(av, values, vectors, maxabs: float, where: str) -> float:
    """max_i |A v_i - lambda_i v_i|_inf over the given eigenpairs (columns of
    ``vectors``, or one vector and a scalar value), given the products
    ``av`` = A v in the shape of ``vectors``; unless it is at most
    EIG_RTOL * max|A| (so also when it is NaN) it raises ConvergenceError,
    with ``where`` naming the matrix."""
    residual = float(np.max(np.abs(av - vectors * values)))
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
    A zero matrix takes the same path: eigh returns zeros and the identity,
    and both gates pass with a bound of 0.

    Deterministic: identical input yields the identical decomposition.
    """
    a = _as_square(a)
    n = a.shape[0]
    h, maxabs = _hermitian_part(a)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - malformed input
        raise ConvergenceError(
            f"eigendecomposition of a dim={n} matrix did not converge "
            f"within the solver's iteration cap ({exc})"
        ) from exc

    residual = residual_gate(a @ vectors, values, vectors, maxabs, f"for a dim={n} matrix")
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


def tridiagonal(diag, off) -> np.ndarray:
    """The real symmetric tridiagonal matrices with bands ``diag`` (..., m)
    and ``off`` (..., m - 1), stacked: shape (..., m, m)."""
    diag = np.asarray(diag, dtype=float)
    m = diag.shape[-1]
    t = np.zeros(diag.shape + (m,))
    i = np.arange(m)
    t[..., i, i] = diag
    t[..., i[:-1], i[1:]] = off
    t[..., i[1:], i[:-1]] = off
    return t


def block_eig(diag, off):
    """Spectrum of a block-diagonal matrix of symmetric tridiagonal blocks.

    ``diag`` (blocks, m) and ``off`` (blocks, m - 1) are the blocks' bands;
    each block goes through hermitian_eig, whose residual gate checks every
    eigenpair.  Returns
    (values, systems, order): the ascending merged spectrum, one
    EigenSystem per block, and the merge order of _merge, so values[i] is
    eigenvalue order[i] % m of block order[i] // m.
    """
    systems = [hermitian_eig(t) for t in tridiagonal(diag, off)]
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


def _pair_eigvalsh(diag, off) -> np.ndarray:
    """Ascending eigenvalues of symmetric tridiagonal matrices none of whose
    nonzero links are adjacent, stacked as in tridiagonal: shape (..., m).

    Such a matrix is a direct sum of 1 x 1 blocks, which keep their
    diagonal entry, and of 2 x 2 blocks [[a, e], [e, c]] at each nonzero
    link e.  With s = (a - c)/2, h = hypot(s, e) and t = e^2 / (h + |s|),
    the pair's values are min(a, c) - t and max(a, c) + t: the form of
    (a + c)/2 -/+ h that subtracts nothing close, so the shift t of a small
    link keeps its relative accuracy and a zero link leaves a and c exact.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    a, c = diag[..., :-1], diag[..., 1:]
    # in place, so the sweep's (points, 2, m) stack gets few temporaries
    denom = np.abs(a - c)
    denom *= 0.5
    denom += np.hypot(denom, off)
    t = off * off  # stays 0 where h + |s| = 0, since then e = 0
    np.divide(t, denom, out=t, where=denom > 0)
    linked = off != 0
    values = diag.copy()
    pair = np.minimum(a, c, out=denom)
    pair -= t
    np.copyto(values[..., :-1], pair, where=linked)
    np.maximum(a, c, out=pair)
    pair += t
    np.copyto(values[..., 1:], pair, where=linked)
    values.sort(axis=-1)
    return values


def merged_levels(points, k: int, where) -> np.ndarray:
    """The k lowest levels at each point, from the bands of its blocks.

    ``points`` holds one (diag, off) pair per point, as block_eig takes it,
    all of the same shape.  A block row none of whose points has two
    adjacent nonzero links (every JC parity sector, and any sector at g = 0)
    is a set of decoupled pairs: its values come from the closed form of
    _pair_eigvalsh, over all points at once.  Every other block row is
    solved point by point with one stacked np.linalg.eigvalsh.  The blocks
    are merged as block_eig merges them, so the level numbering is the
    same; the points are then checked in one batch.
    Every value v_i that the k levels keep (the i-th eigenvalue of its
    block) must pass the Sturm count N(v_i - tol) <= i < N(v_i + tol),
    tol = EIG_RTOL * max|T|, which bounds |lambda_i - v_i| <= tol with no
    eigensolver involved and tolerates exact clusters.  A violation raises
    ConvergenceError naming where(point, block) and the eigenvalue.
    Returns shape (len(points), k).
    """
    if not points:
        return np.empty((0, k))
    diag, off = (np.stack(part) for part in zip(*points))
    linked = off != 0
    pairs = ~np.any(linked[..., 1:] & linked[..., :-1], axis=(0, -1))
    values = np.empty(diag.shape[:-1] + (min(k, diag.shape[-1]),))
    if np.any(pairs):
        values[:, pairs] = _pair_eigvalsh(diag[:, pairs], off[:, pairs])[..., :k]
    rest = ~pairs
    if np.any(rest):
        try:
            values[:, rest] = np.stack([np.linalg.eigvalsh(tridiagonal(d[rest], o[rest]))[..., :k]
                                        for d, o in zip(diag, off)])
        except np.linalg.LinAlgError as exc:  # pragma: no cover - malformed input
            raise ConvergenceError(
                f"eigenvalues of dim={diag.shape[-1]} blocks did not converge "
                f"within the solver's iteration cap ({exc})"
            ) from exc
    scale = np.maximum(np.max(np.abs(diag), axis=-1), np.max(np.abs(off), axis=-1, initial=0.0))
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
