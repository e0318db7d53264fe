"""The truncated Fock space and the joint qubit (x) field basis.

Conventions, fixed once here to prevent silent sign bugs:

* Fock space is cut at occupation ``n_max`` (field dimension ``n_max + 1``).
  Truncation defects are confined to the last Fock row/column and are
  documented, not "corrected"; convergence studies own the accuracy question.
* Qubit basis order is (|2>, |1>) = (excited, ground), so ``sigma_z`` is
  diag(+1, -1) and ``sigma_plus = |2><1|``.
* The joint basis is qubit-outer / field-inner:
  (|2>|0>, ..., |2>|n_max>, |1>|0>, ..., |1>|n_max>), so joint index
  q (n_max + 1) + n holds qubit q (0 excited, 1 ground) and occupation n,
  the order of kron(qubit_op, field_op).  models.parity_chains splits it
  into the two parity sectors every solve runs on.
* Quadratures: x = (a + a^dag)/sqrt(2) and p = i(a^dag - a)/sqrt(2), the sign
  that gives the canonical [x, p] = +i away from the truncation edge.
* Number format: every Hamiltonian band is float64; only the node
  overlaps chi(x) of berry.fock_loop and the loop vectors that the Berry
  estimators rephase are complex.
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

