"""Hamiltonian builders for the Jaynes-Cummings and quantum Rabi models.

Model conventions (omega = 1 scaling throughout), both in the lab frame:

* Rabi: H_R  = w a^dag a + (W/2) sz + g sqrt(2) (a + a^dag) sx
             = w a^dag a + (W/2) sz + 2 g x sx
* JC:   H_JC = w a^dag a + (W/2) sz + g sqrt(2) (a^dag s- + s+ a)
             = w a^dag a + (W/2) sz + g (x sx - p sy)

The x-p forms use this package's momentum sign (p = i(a^dag - a)/sqrt(2),
canonical [x, p] = +i); with the opposite sign of p the JC coupling reads
x sx + p sy.

parity_sectors gives the structured form every solve uses: the bands
(diagonal and off-diagonal) of the two real symmetric tridiagonal parity
sectors of size n_max + 1, in closed form for both chains at once, in the
chain order of parity_chains.  The dense joint-space builders are the
oracle they are tested against, and the input to rotate_hamiltonian.

Phase-space rotations use U(phi) = exp(-i n_hat phi), whose diagonal is
phase_factors(phi).  A rotated Hamiltonian is always the explicit
conjugation U H U^dag, entry by entry H_ij d_i conj(d_j), never a
transcribed closed-form rotated expression.  rotate_hamiltonian forms it
densely; it is the test oracle for the Berry-loop gate (berry.eig_family),
which forms the same entries on the nonzero diagonals of H only.  Both
builders return real (float64) matrices; every rotated H'(phi) is complex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .fock import SQRT2, TruncationConfig, embed, ladder_ops, qubit_ops


class ModelKind(enum.Enum):
    """Model tag; the value is the model name, so ModelKind("jc") looks it up."""

    JC_LAB = "jc"
    RABI_LAB = "rabi"

    @property
    def model(self) -> str:
        return self.value


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; omega = 1 unless explicitly overridden.

    delta = Omega - omega is derived, never stored independently.  Every
    field must be finite, omega > 0, Omega >= 0 and g >= 0 (ValueError
    naming the field otherwise).
    """

    Omega: float = 1.0
    g: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        for name in ("omega", "Omega", "g"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.Omega < 0:
            raise ValueError(f"Omega must be >= 0, got {self.Omega}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")

    @property
    def delta(self) -> float:
        return self.Omega - self.omega

    def with_g(self, g: float) -> "ModelParams":
        return ModelParams(Omega=self.Omega, g=g, omega=self.omega)


def build_rabi(p: ModelParams, cfg: TruncationConfig) -> np.ndarray:
    """Quantum Rabi Hamiltonian on the joint space."""
    a, a_dag, n_hat = ladder_ops(cfg)
    sx, _, sz, _, _ = qubit_ops()
    h = p.omega * embed(n_hat, None, cfg) + 0.5 * p.Omega * embed(None, sz, cfg)
    return h + p.g * SQRT2 * embed(a + a_dag, sx, cfg)


def build_jc(p: ModelParams, cfg: TruncationConfig) -> np.ndarray:
    """Jaynes-Cummings Hamiltonian (rotating-wave coupling) on the joint space."""
    a, a_dag, n_hat = ladder_ops(cfg)
    _, _, sz, sp, sm = qubit_ops()
    h = p.omega * embed(n_hat, None, cfg) + 0.5 * p.Omega * embed(None, sz, cfg)
    return h + p.g * SQRT2 * (embed(a, sp, cfg) + embed(a_dag, sm, cfg))


_BUILDERS = {"jc": build_jc, "rabi": build_rabi}


def build_hamiltonian(kind: ModelKind, p: ModelParams, cfg: TruncationConfig) -> np.ndarray:
    return _BUILDERS[kind.model](p, cfg)


def phase_factors(phi: float, cfg: TruncationConfig) -> np.ndarray:
    """Diagonal of U(phi) = exp(-i n_hat phi) on the joint space."""
    field_phase = np.exp(-1j * phi * np.arange(cfg.dim_field))
    return np.concatenate([field_phase, field_phase])


def rotate_hamiltonian(h, phi: float, cfg: TruncationConfig) -> np.ndarray:
    """U(phi) H U(phi)^dag as a dense matrix, Hermitian to rounding for a
    Hermitian H.

    U(phi) is diagonal, so the conjugation is one entrywise product,
    H_ij d_i conj(d_j), in O(dim^2).  The spectrum is invariant under the
    rotation.  The result is complex whatever the dtype of H.  The dense
    oracle of the tests: berry.eig_family forms the same entries, bit for
    bit, on the nonzero diagonals of H alone.
    """
    h = np.asarray(h)
    if h.shape != (cfg.dim_joint, cfg.dim_joint):
        raise ValueError(
            f"H must be {cfg.dim_joint}x{cfg.dim_joint} for n_max={cfg.n_max}, "
            f"got {h.shape}"
        )
    d = phase_factors(phi, cfg)
    return h * np.outer(d, d.conj())


def empty_state_energy(p: ModelParams) -> float:
    """Energy -Omega/2 of the exact uncoupled JC eigenstate |1>|0>."""
    return -0.5 * p.Omega


@dataclass(frozen=True)
class DressedDoublet:
    """Analytic JC doublet for excitation number n >= 1.

    The two eigenstates live in span{|2>|n-1>, |1>|n>} with mixing angle
    theta in [0, pi/2], tan(2 theta) = 2 g sqrt(2 n) / delta (theta = pi/4 on
    resonance):

        |+> = cos(theta) |2>|n-1> + sin(theta) |1>|n>
        |-> = -sin(theta) |2>|n-1> + cos(theta) |1>|n>

    with energies w(n - 1/2) +/- sqrt(delta^2/4 + 2 g^2 n).
    """

    n: int
    theta: float
    energies: tuple  # (E_plus, E_minus)
    amplitudes: tuple = field(repr=False, default=None)  # ((c, s), (-s, c))

    def state_vectors(self, cfg: TruncationConfig):
        """Embed the doublet pair as unit vectors on the joint space."""
        if self.n > cfg.n_max:
            raise ValueError(f"doublet n={self.n} needs n_max >= {self.n}")
        dim_f = cfg.dim_field
        idx_upper = self.n - 1          # |2>|n-1>: excited block
        idx_lower = dim_f + self.n      # |1>|n>: ground block
        vecs = []
        for amp_upper, amp_lower in self.amplitudes:
            v = np.zeros(cfg.dim_joint)
            v[idx_upper] = amp_upper
            v[idx_lower] = amp_lower
            vecs.append(v)
        return tuple(vecs)


def jc_doublet_analytic(n: int, p: ModelParams) -> DressedDoublet:
    """Closed-form JC doublet; n = 0 is rejected (the uncoupled state |1>|0>
    with energy -Omega/2 is exposed via empty_state_energy)."""
    if int(n) != n or n < 1:
        raise ValueError(
            f"doublet index must be an integer >= 1, got {n!r}; the n=0 "
            "'empty' state is exact with energy -Omega/2 (empty_state_energy)"
        )
    n = int(n)
    rabi_freq = 2.0 * p.g * np.sqrt(2.0 * n)
    theta = 0.5 * np.arctan2(rabi_freq, p.delta)  # branch theta in [0, pi/2]
    half_split = np.hypot(0.5 * p.delta, p.g * np.sqrt(2.0 * n))
    mean = p.omega * (n - 0.5)
    c, s = np.cos(theta), np.sin(theta)
    return DressedDoublet(
        n=n,
        theta=float(theta),
        energies=(float(mean + half_split), float(mean - half_split)),
        amplitudes=((c, s), (-s, c)),
    )


def symmetry_ops(cfg: TruncationConfig):
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


def parity_chains(cfg: TruncationConfig):
    """Joint-space indices of the two parity sectors, in chain order.

    Element j of a chain has field occupation j and alternates the qubit:
    the even chain is |2>|0>, |1>|1>, |2>|2>, ... (parity +1) and the odd
    chain |1>|0>, |2>|1>, |1>|2>, ... (parity -1).  The coupling of either
    model links only neighbours in a chain, so each sector of either
    Hamiltonian is a real tridiagonal matrix of size n_max + 1 (the JC
    coupling skips every other link).  U(phi) is diagonal, so the chains
    are shared by every rotated H'(phi).
    """
    n = np.arange(cfg.dim_field)
    ground = cfg.dim_field  # offset of the |1> block
    even = np.where(n % 2 == 0, n, ground + n)
    odd = np.where(n % 2 == 0, ground + n, n)
    return even, odd


def parity_sectors(kind: ModelKind, p: ModelParams, cfg: TruncationConfig):
    """The two parity sectors of build_hamiltonian(kind, p, cfg), as bands.

    Returns (diag, off) of shapes (2, n_max + 1) and (2, n_max): row 0 is
    the even chain, row 1 the odd one (parity_chains order).  Element j has
    field occupation j and sigma_z = s_j, with s_j = (-1)^j on the even
    chain and -(-1)^j on the odd one.  The diagonal is w j + (W/2) s_j.
    The link between j and j + 1 is g sqrt(2) sqrt(j + 1); the JC coupling
    keeps it only where element j is the excited qubit.  Each sector is the
    real symmetric tridiagonal matrix with these bands, so it is symmetric
    by construction; placed on their chains, the bands equal the dense
    builders exactly.
    """
    j = np.arange(cfg.dim_field)
    s = np.array([[1.0], [-1.0]]) * (-1.0) ** j  # sigma_z: even chain, odd chain
    diag = p.omega * j + 0.5 * p.Omega * s
    keep = (s[:, :-1] > 0) | (kind.model == "rabi")
    off = p.g * SQRT2 * np.sqrt(j[:-1] + 1.0) * keep
    return diag, off
