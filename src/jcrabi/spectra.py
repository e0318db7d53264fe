"""Spectrum sweeps, Bloch-Siegert quantification, ground-state crossing and
truncation convergence for the JC and Rabi models.

Every one-shot solve here runs on the two parity sectors, given by the
closed-form bands of models.parity_sectors.  The sweeps, convergence
studies and Bloch-Siegert values need eigenvalues only: linalg.merged_levels
solves each point's sectors, gates the kept values with a Sturm count on the
bands (in one batch per sweep) and merges them into one ascending spectrum.
The numerical crossing reads the ground vector, so it solves the sectors
with linalg.block_eig, whose residual gate checks every eigenpair.  The
dense joint-space builders are not called; they stay the oracle the tests
compare these results with.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .fock import TruncationConfig
from .linalg import block_eig, merged_levels
from .models import (
    ModelKind,
    ModelParams,
    empty_state_energy,
    jc_doublet_analytic,
    parity_sectors,
)


# Sector names in the order of models.parity_sectors.
_SECTORS = ("even", "odd")


def _sector_levels(points, k: int) -> np.ndarray:
    """The k lowest levels at each (kind, params, cfg) point, values only.

    The points must share one cutoff; merged_levels Sturm-gates all points
    at once.
    """
    bands = [parity_sectors(kind, p, cfg) for kind, p, cfg in points]

    def where(i: int, sector: int) -> str:
        kind, p, cfg = points[i]
        return (f"the {_SECTORS[sector]} {kind.model} sector at g={float(p.g)!r}, "
                f"n_max={cfg.n_max}")

    return merged_levels(bands, k, where)


@dataclass(frozen=True)
class SpectrumTable:
    """k lowest eigenvalues per coupling; rows follow g_values order."""

    g_values: np.ndarray
    levels: np.ndarray  # shape (len(g_values), k), each row ascending
    kind: ModelKind
    params: ModelParams
    cfg: TruncationConfig


def spectrum_sweep(
    kind: ModelKind,
    p: ModelParams,
    g_grid,
    k: int,
    cfg: TruncationConfig,
) -> SpectrumTable:
    """Sweep the coupling over g_grid and collect the k lowest levels.

    Grid points are independent; results are assembled in input order.
    """
    g_grid = np.asarray(g_grid, dtype=float)
    if not np.all(np.isfinite(g_grid)):
        raise ValueError("g_grid must be finite")
    if k < 1 or k > cfg.dim_joint:
        raise ValueError(f"k must be in [1, {cfg.dim_joint}], got {k}")
    levels = _sector_levels([(kind, p.with_g(g), cfg) for g in g_grid], k)
    return SpectrumTable(g_grid, levels, kind, p, cfg)


def bloch_siegert(p: ModelParams, g: float, level: int, cfg: TruncationConfig) -> float:
    """Relative JC/Rabi deviation of a level, the counter-rotating signature.

    Level energies are referenced to each model's ground state (the
    spectroscopic convention: the uniform part of the counter-rotating shift
    drops out, leaving the observable level shift).  Returns
    |E_level^Rabi - E_level^JC| / |E_level^JC| with E_level = E(level) - E(0).
    """
    if not isinstance(level, numbers.Integral) or not 1 <= level < cfg.dim_joint:
        raise ValueError(
            f"level must be an integer in [1, {cfg.dim_joint}) for n_max={cfg.n_max}, "
            f"got {level!r}"
        )
    pg = p.with_g(g)
    jc, rabi = _sector_levels(
        [(ModelKind.JC_LAB, pg, cfg), (ModelKind.RABI_LAB, pg, cfg)], level + 1
    )
    e_jc = jc[level] - jc[0]
    e_rabi = rabi[level] - rabi[0]
    if abs(e_jc) < 1e-12:
        raise ValueError(
            f"JC level {level} energy {e_jc:.3e} is below 1e-12; "
            "the relative measure is undefined"
        )
    return float(abs(e_rabi - e_jc) / abs(e_jc))


PAPER_CROSSING_CLAIM = float(np.sqrt(2.0))


@dataclass(frozen=True)
class CrossingResult:
    """Ground-state crossing estimates, analytic vs numerical.

    The discrepancy against the commonly quoted sqrt(2) is flagged, not
    silently resolved: under the coupling normalization g sqrt(2) (a + a^dag)
    the analytic condition w/2 - g sqrt(2) = -Omega/2 gives g* = sqrt(w W / 2)
    (1/sqrt(2) on resonance); sqrt(2) would require the weaker normalization
    g x sx.
    """

    analytic_g: float
    numerical_g: float
    quoted_g: float
    note: str


class NoCrossingError(ValueError):
    """The analytic crossing condition keeps one sign over the whole bracket."""


def _bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Midpoint of [lo, hi] after halving it around the sign change of f
    until it is at most tol wide, or until lo and hi are adjacent floats."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) * f_lo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ground_crossing(
    p: ModelParams,
    cfg: TruncationConfig,
    g_lo: float,
    g_hi: float,
    tol: float = 1e-10,
) -> CrossingResult:
    """Locate the coupling where the n=1 lower dressed state crosses the
    uncoupled |1>|0> level and stops it being the JC ground state.

    Analytic route: bisection on f(g) = E_1^-(g) + Omega/2 to ``tol``.
    Numerical route: bisection on the ground vector's weight on |1>|0>
    dropping below 1/2.  |1>|0> is element 0 of the odd parity chain and
    the n=1 doublet lies in the even one, so the weight is 0 whenever the
    ground state sits in the even sector and jumps at the crossing.

    The bracket must be finite with 0 <= g_lo < g_hi, and tol finite and
    > 0; otherwise ValueError.  A bracket where the analytic condition does
    not change sign raises NoCrossingError (a ValueError); a numerical route
    that finds no sign change inside a valid bracket is a plain ValueError.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if not (np.isfinite(g_lo) and np.isfinite(g_hi) and 0 <= g_lo < g_hi):
        raise ValueError(
            f"need a finite bracket 0 <= g_lo < g_hi, got g_lo={g_lo}, g_hi={g_hi}"
        )
    lo, hi = float(g_lo), float(g_hi)
    e0 = empty_state_energy(p)

    def energy_excess(g: float) -> float:
        return jc_doublet_analytic(1, p.with_g(g)).energies[1] - e0

    f_lo, f_hi = energy_excess(lo), energy_excess(hi)
    if f_lo * f_hi > 0:
        raise NoCrossingError(
            f"no crossing bracketed in [{g_lo}, {g_hi}]: "
            f"f({g_lo}) = {f_lo:.3e}, f({g_hi}) = {f_hi:.3e}"
        )
    analytic = _bisect(energy_excess, lo, hi, f_lo, tol)

    def overlap_excess(g: float) -> float:
        _, systems, order = block_eig(*parity_sectors(ModelKind.JC_LAB, p.with_g(g), cfg))
        sector, col = divmod(int(order[0]), cfg.dim_field)
        weight = systems[1].vectors[0, col] ** 2 if sector == 1 else 0.0
        return weight - 0.5

    h_lo, h_hi = overlap_excess(lo), overlap_excess(hi)
    if h_lo * h_hi > 0:
        raise ValueError(
            f"numerical route found no overlap crossing in [{g_lo}, {g_hi}]"
        )
    numerical = _bisect(overlap_excess, lo, hi, h_lo, 1e-8)

    note = (
        f"analytic crossing g* = {analytic:.10f} (closed form sqrt(w W / 2) = "
        f"{np.sqrt(0.5 * p.omega * p.Omega):.10f}); commonly quoted value "
        f"sqrt(2) = {PAPER_CROSSING_CLAIM:.10f} DISAGREES under the "
        "g sqrt(2)(a + a^dag) coupling normalization used here"
    )
    return CrossingResult(float(analytic), float(numerical), PAPER_CROSSING_CLAIM, note)


@dataclass(frozen=True)
class ConvergenceTable:
    """k lowest levels per truncation, with successive max-|change| column."""

    n_values: np.ndarray
    levels: np.ndarray        # shape (len(n_values), k)
    max_changes: np.ndarray   # shape (len(n_values) - 1,)


def convergence_study(
    kind: ModelKind,
    p: ModelParams,
    g: float,
    k: int,
    n_list,
) -> ConvergenceTable:
    """Track the k lowest eigenvalues while refining the Fock cutoff."""
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise ValueError("n_list must hold at least one cutoff, got an empty list")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly ascending, got {n_list}")
    dim = 2 * (n_list[0] + 1)
    if not 1 <= k <= dim:
        raise ValueError(
            f"k must be in [1, {dim}] = [1, 2(n_list[0]+1)] for the smallest "
            f"cutoff {n_list[0]}, got {k}"
        )
    pg = p.with_g(g)
    levels = np.concatenate(
        [_sector_levels([(kind, pg, TruncationConfig(n_max))], k) for n_max in n_list]
    )
    changes = np.max(np.abs(np.diff(levels, axis=0)), axis=1)
    return ConvergenceTable(np.asarray(n_list), levels, changes)
