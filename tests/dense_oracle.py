"""Dense joint-space forms that the tests compare the band path with.

The package solves every level from the bands of the two parity sectors
(models.parity_sectors) and builds no joint-space matrix.  These helpers
build the dense operators, Hamiltonians, rotations and doublet states of
order 2(n_max + 1) that the tests use as the oracle of that path, in the
basis conventions of jcrabi.fock: qubit (|2>, |1>) = (excited, ground)
outer, field occupation inner, so an operator embeds as
kron(qubit_op, field_op).  a, n_hat, sx, sz, s+ and s- are float64; only
sy and what is built from it are complex.

The package reads the Berry loop in closed form (berry.fock_loop) and
builds no node.  eig_family builds the nodes U(phi_k) psi_0 of the same
loop, the path that wilson_loop and connection_curve take as its oracle.
"""

from dataclasses import dataclass

import numpy as np

from jcrabi import berry
from jcrabi.fock import SQRT2
from jcrabi.models import ModelKind


def ladder_ops(cfg):
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


def embed(field_op, qubit_op, cfg) -> np.ndarray:
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


def build_rabi(p, cfg) -> np.ndarray:
    """Quantum Rabi Hamiltonian on the joint space."""
    a, a_dag, n_hat = ladder_ops(cfg)
    sx, _, sz, _, _ = qubit_ops()
    h = p.omega * embed(n_hat, None, cfg) + 0.5 * p.Omega * embed(None, sz, cfg)
    return h + p.g * SQRT2 * embed(a + a_dag, sx, cfg)


def build_jc(p, cfg) -> np.ndarray:
    """Jaynes-Cummings Hamiltonian (rotating-wave coupling) on the joint space."""
    a, a_dag, n_hat = ladder_ops(cfg)
    _, _, sz, sp, sm = qubit_ops()
    h = p.omega * embed(n_hat, None, cfg) + 0.5 * p.Omega * embed(None, sz, cfg)
    return h + p.g * SQRT2 * (embed(a, sp, cfg) + embed(a_dag, sm, cfg))


def symmetry_ops(cfg):
    """Excitation number N = n + sz/2 and parity Pi = sz (x) (-1)^n.

    [H_JC, N] = 0 (U(1) symmetry) and [H_R, Pi] = 0 (Z2 symmetry), both exact
    on the truncated space; Pi is diagonal with entries +/-1 and Pi^2 = I.
    """
    _, _, n_hat = ladder_ops(cfg)
    _, _, sz, _, _ = qubit_ops()
    n_total = embed(n_hat, None, cfg) + 0.5 * embed(None, sz, cfg)
    field_parity = np.diag((-1.0) ** np.arange(cfg.dim_field))
    parity = embed(field_parity, sz, cfg)
    return n_total, parity


_BUILDERS = {ModelKind.JC_LAB: build_jc, ModelKind.RABI_LAB: build_rabi}


def build_hamiltonian(kind, p, cfg) -> np.ndarray:
    """The dense H of model ``kind`` (a ModelKind or its name) on the joint space."""
    return _BUILDERS[ModelKind(kind)](p, cfg)


def phase_factors(phi, cfg) -> np.ndarray:
    """Diagonal of U(phi) = exp(-i n_hat phi) on the joint space.

    The two field halves are joined on the last axis, so a column of phi
    values, shape (K + 1, 1), gives one diagonal per row.
    """
    field_phase = np.exp(-1j * phi * np.arange(cfg.dim_field))
    return np.concatenate([field_phase, field_phase], axis=-1)


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


@dataclass(frozen=True)
class TrackedFamily:
    """The eigenpath of one level on a loop grid (berry.loop_grid).

    vectors[k] = U(phi_k) vectors[0] belongs to phi_grid[k]; the rotation
    leaves the spectrum unchanged, so every node has the eigenvalue
    ``energy``.  min_step_overlap is the smallest |<psi_k-1|psi_k>|, and
    generator the oracle 2 pi <n_hat> of the level (berry._solve_level).
    """

    phi_grid: np.ndarray
    vectors: np.ndarray   # shape (K + 1, dim)
    energy: float
    min_step_overlap: float
    generator: float


def eig_family(kind, p, level: int, K: int, cfg) -> TrackedFamily:
    """The eigenpath of one level of H'(phi_k) over the K + 1 nodes of
    berry.loop_grid(K), so K is an even integer >= berry.MIN_NODES
    (ValueError otherwise).

    ``level`` is the eigenindex at phi = 0 (0 = ground state); psi_0, its
    energy, its one eigen-residual gate, the generator oracle and the
    refusals of the sector solve are those of berry._solve_level, as in
    berry.fock_loop.  Node k holds U(phi_k) psi_0: all K + 1 nodes come
    from one broadcast of phase_factors over the column of phi nodes.  The
    first node whose step overlap |<psi_k-1|psi_k>| is below
    berry.CONTINUITY_THRESHOLD raises TrackingError naming it.
    """
    phi_grid = berry.loop_grid(K)
    psi0, energy, _, generator, _ = berry._solve_level(kind, p, level, cfg)
    vectors = phase_factors(phi_grid[:, None], cfg) * psi0
    overlaps = np.abs(np.einsum("kj,kj->k", vectors[:-1].conj(), vectors[1:]))
    lost = np.flatnonzero(overlaps < berry.CONTINUITY_THRESHOLD)
    if lost.size:
        k = int(lost[0])
        raise berry._overlap_lost(k + 1, float(overlaps[k]), berry.CONTINUITY_THRESHOLD)
    return TrackedFamily(phi_grid, vectors, float(energy), float(overlaps.min()), generator)
