"""Mean-field Born-Oppenheimer energy surfaces, degeneracy-locus
classification, and the closed-form geometric phases of the JC model.

Freezing the quadratures (x, p) as numbers and diagonalizing the remaining
2x2 spin problem gives the adiabatic surfaces

    JC:   E_+-(x, p) = +- sqrt(delta^2/4 + g^2 (x^2 + p^2))
    Rabi: E_+-(x, p) = w (p^2 + x^2)/2 +- sqrt(Omega^2/4 + 4 g^2 x^2)

The JC gap closes at the origin on resonance (a conical intersection); the
Rabi gap never closes, reaching its minimum Omega along the whole x = 0 line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelKind, ModelParams

PI = np.pi


@dataclass(frozen=True)
class SurfaceGrid:
    """Adiabatic surfaces on a quadrature grid; entry [i, j] belongs to
    (x_axis[i], p_axis[j])."""

    x_axis: np.ndarray
    p_axis: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    gap: np.ndarray


def boa_surface(kind: ModelKind, p: ModelParams, x_axis, p_axis) -> SurfaceGrid:
    """Evaluate the adiabatic surfaces pointwise on the given axes; a grid
    whose gap is not finite somewhere (an overflow) is a ValueError naming
    the model, g and the axes' extents."""
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    if x_axis.size == 0 or p_axis.size == 0:
        raise ValueError("surface axes must be nonempty")
    if not (np.all(np.isfinite(x_axis)) and np.all(np.isfinite(p_axis))):
        raise ValueError("surface axes must be finite")
    # x down the rows, p along them; the Rabi half-gap is formed once per x
    xg, pg = x_axis[:, None], p_axis[None, :]
    # hypot forms the half-gap without squaring g, delta or Omega, so a
    # huge coupling overflows only where the half-gap itself does; an
    # overflow is refused below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        if kind.model == "jc":
            half_gap = np.hypot(0.5 * p.delta, p.g * np.hypot(xg, pg))
            upper, lower = half_gap, -half_gap
        else:
            osc = 0.5 * p.omega * (xg**2 + pg**2)
            half_gap = np.hypot(0.5 * p.Omega, 2.0 * p.g * xg)
            upper, lower = osc + half_gap, osc - half_gap
        gap = upper - lower
    if not np.all(np.isfinite(gap)):
        raise ValueError(
            f"the {kind.model} surface overflows at g={p.g:g} (omega={p.omega:g}, "
            f"Omega={p.Omega:g}): its gap is not finite on the grid x in [{np.min(x_axis):g}, "
            f"{np.max(x_axis):g}], p in [{np.min(p_axis):g}, {np.max(p_axis):g}]"
        )
    return SurfaceGrid(x_axis, p_axis, upper, lower, gap)


@dataclass(frozen=True)
class DegeneracyReport:
    """Minimal-gap geometry of a surface grid.

    locus is the shape of the minimal-gap set: 'point' (a compact cluster
    that is degenerate within tolerance), 'line' (the set spans the grid
    along one axis; reported even when gapped, e.g. the Rabi x = 0 seam),
    or 'none'.  coordinates is an (n, 2) float array of every (x, p) with
    gap <= min_gap + tol_gap, x-major.
    """

    min_gap: float
    locus: str
    tol_gap: float
    coordinates: np.ndarray


def default_gap_tolerance(x_axis, p_axis, gap) -> float:
    """2 * (grid cell diagonal) * (max local gap slope), estimated by finite
    differences on increasing axes; 'degenerate on a grid' needs a
    resolution-aware yardstick.  gap[i, j] belongs to (x_axis[i], p_axis[j]).
    The slopes are formed over the writer's row_slices, each x slice
    reaching one row into the next, so no temporary grows with the grid;
    the max is that of the whole grid.  A yardstick that is not finite (an
    x or p range so wide that it overflows) is a ValueError."""
    # imported here: at module level, `import jcrabi` would load the writer
    # and build its tables, which raised that import's RSS by 0.2 MB
    from .output import row_slices

    x_steps, p_steps = np.diff(x_axis), np.diff(p_axis)
    dx = np.min(x_steps) if len(x_axis) > 1 else 0.0
    dp = np.min(p_steps) if len(p_axis) > 1 else 0.0
    cell_diag = float(np.hypot(dx, dp))
    max_slope = 0.0  # the slopes are at least 0; NaN propagates
    for rows in row_slices(*gap.shape):
        # the x slopes take one row past the slice
        for axis, part, steps in ((0, gap[rows.start:rows.stop + 1], x_steps[rows, None]),
                                  (1, gap[rows], p_steps[None, :])):
            if part.shape[axis] > 1:
                slope = np.diff(part, axis=axis)
                np.abs(slope, out=slope)
                slope /= steps
                max_slope = np.maximum(max_slope, np.max(slope))
    tol_gap = 2.0 * cell_diag * float(max_slope)
    if not np.isfinite(tol_gap):
        raise ValueError(f"the gap tolerance 2 * {cell_diag:g} (cell diagonal) * {max_slope:g} "
                         "(max gap slope) is not finite: the x or p range is too wide for this "
                         "grid, or the gap is not finite")
    return tol_gap


# A minimal-gap cluster wider than this fraction of the grid extent (per
# axis) is no longer a 'point'; a set touching at least this fraction of
# rows along one axis is a 'line'.
POINT_EXTENT_FRACTION = 0.2
LINE_COVERAGE_FRACTION = 0.9


def classify_degeneracy(x_axis, p_axis, gap) -> DegeneracyReport:
    """Classify the minimal-gap set of a gap grid, gap[i, j] at
    (x_axis[i], p_axis[j]) (a SurfaceGrid's x_axis, p_axis and gap).

    Coarse-grid contract: the minimal-gap set holds every node with
    gap <= min_gap + tol_gap, and tol_gap (default_gap_tolerance: two cell
    diagonals times the steepest gap slope) admits about two cells on each
    side of a cone apex.  A 'point' must fit in POINT_EXTENT_FRACTION of the
    span, so it needs about 21 or more nodes per axis; below that a grid
    that holds the apex exactly (min_gap = 0 <= tol_gap) reads 'none'.  Measured on the
    resonant JC cone (g in {0.2, 0.5, 1}, axes +-1 and +-3, odd resolutions
    so the apex is a node): 'none' up to 19 nodes per axis, 'point' from 23.
    A tol_gap that is not finite is a ValueError naming its two factors.
    """
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    gap = np.asarray(gap, dtype=float)
    if gap.size == 0:
        raise ValueError("cannot classify an empty grid")
    tol_gap = default_gap_tolerance(x_axis, p_axis, gap)
    min_gap = float(np.min(gap))
    xi, pj = np.nonzero(gap <= min_gap + tol_gap)
    coords = np.column_stack([x_axis[xi], p_axis[pj]])

    nx, npts = len(x_axis), len(p_axis)
    # line along p: a narrow band of x columns whose rows are all minimal
    covers_p = len(np.unique(pj)) >= LINE_COVERAGE_FRACTION * npts and len(np.unique(xi)) < nx
    covers_x = len(np.unique(xi)) >= LINE_COVERAGE_FRACTION * nx and len(np.unique(pj)) < npts
    if covers_p or covers_x:
        locus = "line"
    else:
        x_extent = (x_axis[xi.max()] - x_axis[xi.min()]) if nx > 1 else 0.0
        p_extent = (p_axis[pj.max()] - p_axis[pj.min()]) if npts > 1 else 0.0
        x_span = x_axis[-1] - x_axis[0] if nx > 1 else 1.0
        p_span = p_axis[-1] - p_axis[0] if npts > 1 else 1.0
        compact = (
            x_extent <= POINT_EXTENT_FRACTION * x_span
            and p_extent <= POINT_EXTENT_FRACTION * p_span
        )
        if compact and min_gap <= tol_gap:
            locus = "point"
        else:
            locus = "none"
    return DegeneracyReport(min_gap, locus, float(tol_gap), coords)


def _check_sign(sign: int) -> float:
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return float(sign)


def boa_radius(n: int) -> float:
    """Phase-space radius of Fock level n under rho^2/2 = n + 1/2."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return float(np.sqrt(2.0 * n + 1.0))


def berry_boa_jc(rho: float, p: ModelParams, sign: int = +1) -> float:
    """Mean-field geometric phase for circling the JC cone at radius rho:

        gamma_+- = +- pi (1 - (delta/2) / sqrt(delta^2/4 + g^2 rho^2))

    Evaluation at the conical intersection itself (zero splitting) is
    rejected.  Use boa_radius(n) for the rho <-> Fock-level correspondence.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    s = _check_sign(sign)
    half_split = np.hypot(0.5 * p.delta, p.g * rho)
    if half_split == 0.0:
        raise ValueError(
            "evaluation at the conical intersection (delta = 0 and g*rho = 0): "
            "the surfaces are degenerate and the phase is undefined"
        )
    return float(s * PI * (1.0 - 0.5 * p.delta / half_split))


def berry_exact_jc(n: int, p: ModelParams, sign: int = +1) -> float:
    """Exact geometric phase of the JC doublet n under phase-space rotation:

        gamma_+- = +- pi (1 - (delta/2) / sqrt(delta^2/4 + 2 g^2 n))

    so that gamma matches 2 pi <n_hat> (mod 2 pi) of the dressed states as
    verified by the Wilson-loop and generator estimators.  The same closed
    form is often quoted with g^2 (n + 1) in place of 2 g^2 n, which is the
    unit-normalized coupling convention indexed by the lower Fock component;
    the two coincide at n = 1.  The ground state (n = 0) has zero phase.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    s = _check_sign(sign)
    if n == 0:
        return 0.0
    half_split = np.hypot(0.5 * p.delta, p.g * np.sqrt(2.0 * n))
    if half_split == 0.0:
        raise ValueError("doublet splitting vanishes (delta = 0, g = 0)")
    return float(s * PI * (1.0 - 0.5 * p.delta / half_split))
