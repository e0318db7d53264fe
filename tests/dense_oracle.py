"""Dense joint-space forms that the tests compare the band path with.

The package solves every level from the bands of the two parity sectors
(models.parity_sectors) and builds no joint-space matrix outside the
acceptance gate's symmetry checks.  These helpers build the dense matrices,
rotations and doublet states of order 2(n_max + 1) that the tests use as
the oracle of that path.
"""

import numpy as np

from jcrabi.models import ModelKind, build_jc, build_rabi, phase_factors

_BUILDERS = {ModelKind.JC_LAB: build_jc, ModelKind.RABI_LAB: build_rabi}


def build_hamiltonian(kind, p, cfg) -> np.ndarray:
    """The dense H of model ``kind`` (a ModelKind or its name) on the joint space."""
    return _BUILDERS[ModelKind(kind)](p, cfg)


def rotate_hamiltonian(h, phi: float, cfg) -> np.ndarray:
    """U(phi) H U(phi)^dag as a dense matrix, Hermitian to rounding for a
    Hermitian H.

    U(phi) = exp(-i n_hat phi) is diagonal, so the conjugation is one
    entrywise product, H_ij d_i conj(d_j), in O(dim^2).  The spectrum is
    invariant under the rotation.  The result is complex whatever the dtype
    of H.
    """
    h = np.asarray(h)
    if h.shape != (cfg.dim_joint, cfg.dim_joint):
        raise ValueError(
            f"H must be {cfg.dim_joint}x{cfg.dim_joint} for n_max={cfg.n_max}, "
            f"got {h.shape}"
        )
    d = phase_factors(phi, cfg)
    return h * np.outer(d, d.conj())


def doublet_state_vectors(doublet, cfg):
    """The pair (|+>, |->) of a models.DressedDoublet as unit vectors on the
    joint space: amplitudes on |2>|n-1> (index n - 1) and |1>|n> (index
    n_max + 1 + n)."""
    if doublet.n > cfg.n_max:
        raise ValueError(f"doublet n={doublet.n} needs n_max >= {doublet.n}")
    vecs = []
    for amp_upper, amp_lower in doublet.amplitudes:
        v = np.zeros(cfg.dim_joint)
        v[doublet.n - 1] = amp_upper
        v[cfg.dim_field + doublet.n] = amp_lower
        vecs.append(v)
    return tuple(vecs)
