"""Truncated Fock-space and qubit operators on the joint qubit (x) field space.

Conventions, fixed once here to prevent silent sign bugs:

* Fock space is cut at occupation ``n_max`` (field dimension ``n_max + 1``).
  Truncation defects are confined to the last Fock row/column and are
  documented, not "corrected"; convergence studies own the accuracy question.
* Qubit basis order is (|2>, |1>) = (excited, ground), so ``sigma_z`` is
  diag(+1, -1) and ``sigma_plus = |2><1|``.
* The joint basis is qubit-outer / field-inner:
  (|2>|0>, ..., |2>|n_max>, |1>|0>, ..., |1>|n_max>), i.e. operators embed as
  ``kron(qubit_op, field_op)``.
* Quadratures: x = (a + a^dag)/sqrt(2) and p = i(a^dag - a)/sqrt(2), the sign
  that gives the canonical [x, p] = +i away from the truncation edge.
* Number format: a, n_hat, sx, sz, s+ and s- are float64; only sy and what
  is built from it are complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class TruncationConfig:
    """Highest retained Fock state; field space dimension is n_max + 1."""

    n_max: int

    def __post_init__(self):
        if int(self.n_max) != self.n_max or self.n_max < 1:
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")
        object.__setattr__(self, "n_max", int(self.n_max))

    @property
    def dim_field(self) -> int:
        return self.n_max + 1

    @property
    def dim_joint(self) -> int:
        return 2 * (self.n_max + 1)


def ladder_ops(cfg: TruncationConfig):
    """Annihilation, creation and number operators on the truncated field space.

    a[n-1, n] = sqrt(n); a_dag = a^dag; n_hat = a_dag a = diag(0, ..., n_max).
    The only truncation defect sits in a a_dag, whose (n_max, n_max) entry is
    0 instead of n_max + 1.
    """
    ns = np.arange(1, cfg.n_max + 1, dtype=float)
    a = np.diag(np.sqrt(ns), k=1)
    a_dag = a.conj().T
    n_hat = np.diag(np.arange(cfg.n_max + 1, dtype=float))
    return a, a_dag, n_hat


def qubit_ops():
    """Pauli and ladder matrices in the (|2>, |1>) basis, sigma_z|2> = +|2>."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])  # |2><1|
    sm = np.array([[0.0, 0.0], [1.0, 0.0]])
    return sx, sy, sz, sp, sm


def embed(field_op, qubit_op, cfg: TruncationConfig) -> np.ndarray:
    """Lift operators onto the joint space as qubit_op (x) field_op.

    Either factor may be None, meaning the identity on that subsystem.  The
    qubit index is the slow/outer block index.
    """
    dim_f = cfg.dim_field
    if field_op is None:
        field_op = np.eye(dim_f)
    else:
        field_op = np.asarray(field_op)
        if field_op.shape != (dim_f, dim_f):
            raise ValueError(
                f"field operator must be {dim_f}x{dim_f} for n_max={cfg.n_max}, "
                f"got {field_op.shape}"
            )
    if qubit_op is None:
        qubit_op = np.eye(2)
    else:
        qubit_op = np.asarray(qubit_op)
        if qubit_op.shape != (2, 2):
            raise ValueError(f"qubit operator must be 2x2, got {qubit_op.shape}")
    return np.kron(qubit_op, field_op)
