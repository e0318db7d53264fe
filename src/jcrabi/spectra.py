"""Spectrum sweeps, Bloch-Siegert quantification, ground-state crossing and
truncation convergence for the JC and Rabi models.

Every one-shot solve here runs on the parity sectors, given by the
closed-form bands of models.parity_sectors (one broadcast over the
couplings of a sweep), and needs eigenvalues only: linalg.merged_levels
solves each point's sectors, gates the kept values with a Sturm count on
the bands (in one batch per sweep) and merges them into one ascending
spectrum.  A JC sector, which conserves excitation number, is a direct sum
of the dressed doublets |2>|n-1>, |1>|n> and the empty state |1>|0>, so
merged_levels solves it in closed form.  A Rabi sector at g != 0 is solved
from a leading block of its chain, since its low levels live in low Fock
states: eigvalsh gives the block's values, the merge of both sectors picks
the ones the k levels keep, and a twisted factorization of T_m' - theta I
gives, for each of those, an explicit vector whose Ritz residual in the
full sector, or its Kato-Temple square over half the gap to the
neighbouring Ritz values where a Sturm count isolates the eigenvalue,
certifies it.  The same count checks that neither sector has an eigenvalue
below the k-th level that its leading block misses.  The block m' doubles
from max(2k, 32) until each kept value is certified to 4 ulps of max|T| (a
full solve once m' reaches the sector), while the Sturm gate still counts
on the full bands.  That count is one linalg.sturm_count call on every
sector of the batch, JC and Rabi alike; its loop stops once every
band's later pivots are certified positive, within a few dozen rows.  The
sweep and convergence tables carry the m' and the certified distance of
each row.  The sweeps, convergence studies and Bloch-Siegert values read
both sectors (Bloch-Siegert solves the two models in separate calls, so the
JC half keeps the closed form); the numerical crossing reads the even JC
sector alone.  No eigenvector is computed here, not even of a leading
block.  The dense joint-space builders are not called; they stay the oracle
the tests compare these results with.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .fock import TruncationConfig
from .linalg import EIG_RTOL, SectorLevels, band_scale, merged_levels
from .models import ModelKind, ModelParams, empty_state_energy, parity_sectors, sector_label


def _levels(kind: ModelKind, p: ModelParams, g, k: int, cfg: TruncationConfig) -> SectorLevels:
    """The k lowest levels at each coupling of the 1-D ``g``, values only,
    from the bands of one parity_sectors call, Sturm-gated at once by
    merged_levels; a failure names the sector by models.sector_label."""
    diag, off = parity_sectors(kind, p, cfg, g)
    return merged_levels(diag, off, k, lambda i, sector: sector_label(kind, g[i], cfg, sector))


@dataclass(frozen=True)
class SpectrumTable:
    """k lowest eigenvalues per coupling; rows follow g_values order.

    block and residual are linalg.SectorLevels' evidence per row: the order
    of the largest block solved and the largest certified distance.
    """

    g_values: np.ndarray
    levels: np.ndarray  # shape (len(g_values), k), each row ascending
    block: np.ndarray
    residual: np.ndarray


def spectrum_sweep(
    kind: ModelKind,
    p: ModelParams,
    g_grid,
    k: int,
    cfg: TruncationConfig,
) -> SpectrumTable:
    """Sweep the coupling over g_grid and collect the k lowest levels.

    Grid points are independent; results are assembled in input order.
    g_grid must be 1-D, finite and >= 0 (ValueError otherwise).
    """
    g_grid = np.asarray(g_grid, dtype=float)
    if g_grid.ndim != 1:
        raise ValueError(f"g_grid must be 1-D, got shape {g_grid.shape}")
    if not np.all(np.isfinite(g_grid)):
        raise ValueError("g_grid must be finite")
    if k < 1 or k > cfg.dim_joint:
        raise ValueError(f"k must be in [1, {cfg.dim_joint}], got {k}")
    if np.any(g_grid < 0):
        raise ValueError(f"g must be >= 0, got {g_grid[g_grid < 0][0]}")
    solved = _levels(kind, p, g_grid, k, cfg)
    return SpectrumTable(g_grid, solved.levels, solved.block, solved.residual)


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
    # one call per model, so the JC sectors keep the closed-form pair path
    jc, rabi = (_levels(kind, pg, [pg.g], level + 1, cfg).levels[0]
                for kind in (ModelKind.JC_LAB, ModelKind.RABI_LAB))
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
    normalization g x sx.  numerical_g comes from eigenvalues alone: the
    lowest even level against the exact |1>|0> level (see ground_crossing).
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
    Numerical route: bisection on the lowest even level minus the exact
    |1>|0> level -Omega/2 (models.empty_state_energy), which is positive
    while |1>|0> is the ground state.  |1>|0> is element 0 of the odd
    parity chain and decoupled from the rest of it, and the n=1 doublet lies
    in the even chain, so |1>|0> stops being the ground state where the
    lowest even level falls below it; only the even sector is solved, for
    values alone, and a level equal to -Omega/2 counts as the even state
    lying lowest.  When the two edges do not differ in sign, an edge where
    the two levels tie within EIG_RTOL * max|T| is the crossing: rounding
    there decides which of the two states comes out lowest (lo is taken if
    both edges tie).

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

    empty = empty_state_energy(p)

    def solve(g: float):
        """(lowest even level - E_|1>|0>, whether the two levels tie)."""
        diag, off = parity_sectors(ModelKind.JC_LAB, p.with_g(g), cfg)
        solved = merged_levels(diag[None, :1], off[None, :1], 1,
                               lambda _, sector: sector_label(ModelKind.JC_LAB, g, cfg, sector))
        even = solved.levels[0, 0]
        return even - empty, abs(even - empty) <= EIG_RTOL * np.max(band_scale(diag, off))

    (h_lo, tie_lo), (h_hi, tie_hi) = solve(lo), solve(hi)
    if h_lo * h_hi < 0:
        numerical = _bisect(lambda g: solve(g)[0], lo, hi, h_lo, 1e-8)
    elif tie_lo or tie_hi:
        numerical = lo if tie_lo else hi
    else:
        raise ValueError(
            f"numerical route found no level crossing in [{g_lo}, {g_hi}]"
        )

    note = (
        f"analytic crossing g* = sqrt(w W / 2) = {analytic:.10f}; commonly quoted "
        f"value sqrt(2) = {PAPER_CROSSING_CLAIM:.10f} DISAGREES under the "
        "g sqrt(2)(a + a^dag) coupling normalization used here"
    )
    return CrossingResult(analytic, float(numerical), PAPER_CROSSING_CLAIM, note)


@dataclass(frozen=True)
class ConvergenceTable:
    """k lowest levels per truncation, with successive max-|change| column.

    block and residual are linalg.SectorLevels' evidence per cutoff, as in
    SpectrumTable.
    """

    n_values: np.ndarray
    levels: np.ndarray        # shape (len(n_values), k)
    max_changes: np.ndarray   # shape (len(n_values) - 1,)
    block: np.ndarray
    residual: np.ndarray


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
    solved = [_levels(kind, pg, [pg.g], k, TruncationConfig(n_max)) for n_max in n_list]
    levels = np.concatenate([s.levels for s in solved])
    changes = np.max(np.abs(np.diff(levels, axis=0)), axis=1)
    return ConvergenceTable(np.asarray(n_list), levels, changes,
                            np.concatenate([s.block for s in solved]),
                            np.concatenate([s.residual for s in solved]))
