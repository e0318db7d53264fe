"""The Jaynes-Cummings and quantum Rabi Hamiltonians, as parity-sector bands.

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
sectors of size n_max + 1, in closed form for both chains at once (and
for a 1-D array of couplings in one broadcast), in the chain order of
parity_chains, which sector_label names.  linalg.merged_levels solves them
for every layer, and the Berry loop reads its level, psi_0, eigen-residual
gate and generator oracle off them alone.  No joint-space matrix is
built: the dense builders are the tests' oracle (tests/dense_oracle.py),
and the acceptance gate applies H to vectors by ladder arithmetic.

Phase-space rotations use U(phi) = exp(-i n_hat phi).  U(phi) is
diagonal, so it keeps the parity chains, and the Berry loop needs no
rotated H'(phi): its eigenpath is U(phi)|psi_0>, whose loop values the
command line's berry.fock_loop reads off the occupation weights of psi_0
without building a node.  The bands are real (float64).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .fock import SQRT2, TruncationConfig


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


def sector_label(kind: ModelKind, g, cfg: TruncationConfig, sector: int) -> str:
    """The name a failure gives parity sector ``sector`` (0 even, 1 odd, as
    in parity_chains) of ``kind`` at coupling g."""
    name = ("even", "odd")[sector]
    return f"the {name} {kind.model} sector at g={float(g)!r}, n_max={cfg.n_max}"


def parity_sectors(kind: ModelKind, p: ModelParams, cfg: TruncationConfig, g=None):
    """The two parity sectors of the H of ``kind`` (H_JC or H_R above), as
    bands.

    Returns (diag, off) of shapes (2, n_max + 1) and (2, n_max): row 0 is
    the even chain, row 1 the odd one (parity_chains order).  Element j has
    field occupation j and sigma_z = s_j, with s_j = (-1)^j on the even
    chain and -(-1)^j on the odd one.  The diagonal is w j + (W/2) s_j.
    The link between j and j + 1 is g sqrt(2) sqrt(j + 1); the JC coupling
    keeps it only where element j is the excited qubit.  Each sector is the
    real symmetric tridiagonal matrix with these bands, so it is symmetric
    by construction; placed on their chains, the bands equal the dense
    matrices of the tests' oracle exactly (a property the tests check), so
    no caller needs to build the dense matrix to trust them.  The coupling
    is p.g, or g if given: a 1-D array of couplings gives the bands of
    each, bitwise those of its own call, stacked as (points, 2, n_max + 1)
    and (points, 2, n_max).
    """
    g = np.asarray(p.g if g is None else g, dtype=float)[..., None, None]
    j = np.arange(cfg.dim_field)
    s = np.array([[1.0], [-1.0]]) * (-1.0) ** j  # sigma_z: even chain, odd chain
    keep = (s[:, :-1] > 0) | (kind.model == "rabi")
    # a link that overflows is inf, refused by name downstream; a dropped one is 0
    with np.errstate(over="ignore"):
        off = np.where(keep, g * SQRT2 * np.sqrt(j[:-1] + 1.0), 0.0)
    diag = p.omega * j + 0.5 * p.Omega * s
    return np.broadcast_to(diag, off.shape[:-1] + diag.shape[-1:]).copy(), off
