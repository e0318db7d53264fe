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
from .linalg import EIG_RTOL, block_eig, merged_levels
from .models import ModelKind, ModelParams, parity_sectors


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
    return SpectrumTable(g_grid, levels)


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

    analytic_g is the closed form g* = sqrt(w W / 2) (1/sqrt(2) on
    resonance): under the coupling normalization g sqrt(2) (a + a^dag) the n=1
    lower dressed energy w/2 - sqrt(delta^2/4 + 2 g^2) meets the uncoupled
    -W/2 there.  The discrepancy against the commonly quoted sqrt(2) is
    flagged, not silently resolved: sqrt(2) would require the weaker
    normalization g x sx.
    """

    analytic_g: float
    numerical_g: float
    quoted_g: float
    note: str


class NoCrossingError(ValueError):
    """The analytic crossing g* lies outside the bracket."""


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
) -> CrossingResult:
    """Locate the coupling where the n=1 lower dressed state crosses the
    uncoupled |1>|0> level and stops it being the JC ground state.

    Analytic route: the closed form g* = sqrt(w W / 2), the root of
    f(g) = E_1^-(g) + Omega/2, which is strictly decreasing in g.
    Numerical route: bisection on the ground vector's weight on |1>|0>
    dropping below 1/2.  |1>|0> is element 0 of the odd parity chain and
    the n=1 doublet lies in the even one, so the weight is 0 whenever the
    ground state sits in the even sector and jumps at the crossing.  When
    the weights at the two edges do not differ in sign, an edge where the
    lowest even and lowest odd levels tie within EIG_RTOL * max|T| is the
    crossing: rounding there decides which of the two states comes out
    lowest (lo is taken if both edges tie).

    The bracket must be finite with 0 <= g_lo < g_hi; otherwise
    ValueError.  A bracket that does not hold g* (g_lo <= g* <= g_hi)
    raises NoCrossingError (a ValueError); a numerical route that finds no
    sign change inside a valid bracket is a plain ValueError.
    """
    if not (np.isfinite(g_lo) and np.isfinite(g_hi) and 0 <= g_lo < g_hi):
        raise ValueError(
            f"need a finite bracket 0 <= g_lo < g_hi, got g_lo={g_lo}, g_hi={g_hi}"
        )
    lo, hi = float(g_lo), float(g_hi)
    analytic = float(np.sqrt(0.5 * p.omega * p.Omega))
    if not lo <= analytic <= hi:
        raise NoCrossingError(
            f"no crossing bracketed in [{g_lo}, {g_hi}]: "
            f"g* = sqrt(w W / 2) = {analytic:.10g} lies outside"
        )

    def solve(g: float):
        """(weight on |1>|0> - 1/2, whether the lowest even and odd levels tie)."""
        diag, off = parity_sectors(ModelKind.JC_LAB, p.with_g(g), cfg)
        _, systems, order = block_eig(diag, off)
        sector, col = divmod(int(order[0]), cfg.dim_field)
        weight = systems[1].vectors[0, col] ** 2 if sector == 1 else 0.0
        scale = max(np.max(np.abs(diag)), np.max(np.abs(off), initial=0.0))
        tied = abs(systems[0].values[0] - systems[1].values[0]) <= EIG_RTOL * scale
        return weight - 0.5, tied

    (h_lo, tie_lo), (h_hi, tie_hi) = solve(lo), solve(hi)
    if h_lo * h_hi <= 0:
        numerical = _bisect(lambda g: solve(g)[0], lo, hi, h_lo, 1e-8)
    elif tie_lo or tie_hi:
        numerical = lo if tie_lo else hi
    else:
        raise ValueError(
            f"numerical route found no overlap crossing in [{g_lo}, {g_hi}]"
        )

    note = (
        f"analytic crossing g* = sqrt(w W / 2) = {analytic:.10f}; commonly quoted "
        f"value sqrt(2) = {PAPER_CROSSING_CLAIM:.10f} DISAGREES under the "
        "g sqrt(2)(a + a^dag) coupling normalization used here"
    )
    return CrossingResult(analytic, float(numerical), PAPER_CROSSING_CLAIM, note)


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
