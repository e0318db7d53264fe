"""Geometric phases of rotated JC/Rabi eigenstates along phi: 0 -> 2 pi.

The loop is generated by U(phi) = exp(-i n_hat phi): the family
H'(phi) = U(phi) H U(phi)^dag has a phi-independent spectrum, and the
eigenpath of one level is exactly U(phi)|psi_0>.  Any two of its nodes x
apart overlap by chi(x) = sum_n p_n exp(-i n x), p_n the weight of psi_0 at
field occupation n, so every loop value is a closed form in p_n and the
node count K.  fock_loop, which the command line runs, reads the loop
values off that closed form and builds no node.  It takes one gated level
from _solve_level, which reads the bands of one models.parity_sectors call
alone and builds no joint-space matrix: it solves them for values as every
spectrum does, takes psi_0 from a leading block of the level's sector
(linalg.leading_pair) and gates it once on the band product T psi_0 of
that sector (linalg.band_product).  U(phi) is diagonal with unit-modulus
entries and keeps the sector, so that one residual is the residual of
every node.
The closed-loop phase is estimated three independent ways:

* wilson_loop       -- gauge-invariant discrete loop product
                       gamma = -Im sum_k log <psi_k|psi_k+1>
* connection_curve  -- gauge-fixed connection A = i <psi|d/dphi psi>
                       integrated by the trapezoid rule (the observable
                       usually plotted as an accumulating gamma(phi) curve)
* generator         -- the analytic oracle 2 pi <n_hat>, exact for rotated
                       families because |psi(phi)> = U(phi)|psi(0)> is a
                       single-valued eigenpath with constant connection;
                       fock_loop carries it (.generator), from LAPACK eigh
                       of the same leading block, not the twisted vector
                       it reads

The two loop estimators take a plain path, (phi_grid, vectors) with one
vector row per node of loop_grid(K), so they serve any family of states,
not only Fock-space eigenpaths.  K is even and at least MIN_NODES, so every
other node closes the loop again and each result carries its K/2 residual.
connection_curve names its gauge: "parallel_transport" or
"anchor_component" (gauge_fix).  fock_loop returns the LoopResults these
two give on the eigenpath.

Increasing phi with U(phi) = exp(-i n_hat phi) defines the positive loop
orientation; under it the resonant JC first excited state acquires +pi.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .fock import TruncationConfig
from .linalg import band_product, band_scale, leading_pair, merged_levels, residual_gate
from .models import ModelKind, ModelParams, parity_chains, parity_sectors, sector_label

TWO_PI = 2.0 * np.pi
# The fewest phi nodes a loop may have; K must also be even (loop_grid).
MIN_NODES = 16
CONTINUITY_THRESHOLD = 0.99
# A level closer than this to a neighbour has no single-level phase;
# fock_loop refuses it.
DEGENERACY_GAP = 1e-10
_UNDEFINED = "the geometric phase of a single level is undefined there"
# Width of the band above +pi that wrap_phase keeps on the +pi side: a loop
# phase equal to pi up to rounding then reads +pi in every gauge.
CUT_TOL = 1e-12
# FockLoop.tail_weight sums p_n over this many of the highest occupations
# (over the top half where n_max + 1 < 2 TAIL_OCCUPATIONS).
TAIL_OCCUPATIONS = 10


class TrackingError(RuntimeError):
    """The eigenpath is not followed at some phi node: the level is
    degenerate (refused at node 0) or the phi grid is too coarse."""

    def __init__(self, node: int, reason: str):
        self.node = node
        super().__init__(f"eigenpath tracking lost at phi node {node}: {reason}")


def _overlap_lost(node: int, overlap: float, threshold: float) -> TrackingError:
    return TrackingError(
        node,
        f"step overlap {overlap:.6f} is below the continuity threshold "
        f"{threshold}; the phi grid is too coarse - try a larger K",
    )


def wrap_phase(gamma: float) -> float:
    """Reduce a phase to the principal interval (-pi, pi].

    Values up to CUT_TOL above pi are returned as they are, so rounding in
    the loop sum cannot flip a phase of pi to -pi.
    """
    w = float(gamma) % TWO_PI
    return w - TWO_PI if w > np.pi + CUT_TOL else w


def phase_distance(a: float, b: float) -> float:
    """Distance between two phases modulo 2 pi."""
    return abs(wrap_phase(a - b))


def loop_grid(K) -> np.ndarray:
    """The closed-loop grid phi_k = 2 pi k / K, k = 0 .. K.

    K must be an even integer >= MIN_NODES (ValueError naming K otherwise):
    every other node is then again a closed loop, the K/2 grid whose
    estimate gives each LoopResult its residual.
    """
    if not isinstance(K, numbers.Integral) or K < MIN_NODES or K % 2:
        raise ValueError(f"K must be an even integer >= {MIN_NODES}, got {K}")
    return TWO_PI * np.arange(K + 1) / K


# The two phase conventions gauge_fix knows; see its docstring.
GAUGES = ("parallel_transport", "anchor_component")


def _level_gap(values: np.ndarray, level: int) -> float:
    """Distance from values[level] to its nearest neighbour (values ascending)."""
    return float(np.min(np.diff(values[max(level - 1, 0):level + 2])))


def _solve_level(kind, p: ModelParams, level: int, cfg: TruncationConfig):
    """(psi_0, E, eigen residual, generator, block order) of one level, from
    one sector solve and one leading block of the level's sector, each gated
    on the band product.

    Everything is read off the bands of models.parity_sectors; no
    joint-space matrix is built.  A level outside [0, dim), or a band entry
    that is not finite (H overflows, as its links do at g = 1e308), is a
    ValueError, the latter naming the sector.  E is value i of a parity
    sector, both named by the linalg.merged_levels solve of those bands for
    min(level + 2, dim) levels (its upper neighbour included); a level
    closer than DEGENERACY_GAP to a neighbour is a TrackingError at node 0.
    Both vectors come from one leading block of the sector, whose order m'
    (the block order) starts at the larger of the m' that merged_levels
    certified and 2 min(level + 2, dim), at least 32, and doubles as
    linalg.leading_pair says: up to m = n_max + 1, the full band, where the
    cutoff is too small for the level.  psi_0 is the twisted vector x of
    the block at E, zero past row m', on its chain (models.parity_chains);
    it passes residual_gate on the band product T x of the full band ("at
    phi node 0"), scaled by max|T| over both sectors, which is max|H|.  The
    generator 2 pi <n_hat> = 2 pi sum_j j v_ij^2 (element j of a sector has
    field occupation j) reads v_i from LAPACK eigh of the block, not the
    twisted vector; leading_pair gates it, and a failure is a
    ConvergenceError naming the block and the sector.
    """
    if not 0 <= level < cfg.dim_joint:
        raise ValueError(f"level must be in [0, {cfg.dim_joint}), got {level}")
    kind = ModelKind(kind)
    diag, off = parity_sectors(kind, p, cfg)
    finite = np.all(np.isfinite(diag), axis=-1) & np.all(np.isfinite(off), axis=-1)
    if not np.all(finite):
        raise ValueError(f"{sector_label(kind, p.g, cfg, int(np.argmin(finite)))} has a "
                         f"band entry that is not finite: H overflows at these parameters")
    k = min(level + 2, cfg.dim_joint)
    solved = merged_levels(diag[None], off[None], k,
                           lambda _, sector: sector_label(kind, p.g, cfg, sector))
    gap = _level_gap(solved.levels[0], level)
    if not gap >= DEGENERACY_GAP:
        raise TrackingError(0, f"level {level} is degenerate (gap {gap:.3e} < "
                               f"{DEGENERACY_GAP:.0e}); {_UNDEFINED}")
    sector, i = solved.sector[0, level], solved.index[0, level]
    energy = solved.levels[0, level]
    d, o = diag[sector], off[sector]
    pair = leading_pair(d, o, i, energy, max(int(solved.block[0]), 2 * k),
                        sector_label(kind, p.g, cfg, sector))
    x = pair.twisted
    residual = residual_gate(band_product(d, o, x), energy, x,
                             float(np.max(band_scale(diag, off))), "at phi node 0")
    psi0 = np.zeros(cfg.dim_joint)
    psi0[parity_chains(cfg)[sector]] = x
    generator = TWO_PI * float(np.dot(np.arange(cfg.dim_field), pair.column ** 2))
    return psi0, energy, residual, generator, pair.order


def _check_gauge(gauge: str):
    if gauge not in GAUGES:
        raise ValueError(f"unknown gauge {gauge!r}; use one of {GAUGES}")


def gauge_fix(vectors, gauge: str):
    """Rephase each row of ``vectors`` (one node each) by the named gauge.

    'parallel_transport' makes every step overlap <psi_k-1|psi_k> real >= 0;
    'anchor_component' keeps the component largest in magnitude at node 0
    real >= 0 at every node, and a node where it is below 1e-8 is a
    ValueError naming the node.  Returns (rephased copy, tag), the tag being
    'parallel_transport' or 'anchor_component(<index>)'.
    """
    _check_gauge(gauge)
    vectors = np.array(vectors, dtype=complex)
    if gauge == "parallel_transport":
        for k in range(1, len(vectors)):
            overlap = np.vdot(vectors[k - 1], vectors[k])
            if overlap != 0.0:
                vectors[k] *= np.conj(overlap) / abs(overlap)
        return vectors, gauge
    idx = int(np.argmax(np.abs(vectors[0])))
    for k in range(len(vectors)):
        amp = vectors[k][idx]
        if not abs(amp) >= 1e-8:
            raise ValueError(
                f"anchor component {idx} has magnitude {abs(amp):.3e} "
                f"< 1e-8 at phi node {k}; use the parallel_transport gauge"
            )
        vectors[k] *= np.conj(amp) / abs(amp)
    return vectors, f"anchor_component({idx})"


@dataclass(frozen=True)
class LoopResult:
    """Closed-loop geometric phase plus its accumulation curve.

    gamma is reported in (-pi, pi]; gamma_unwrapped is the final value of the
    partial-phase curve (they agree modulo 2 pi).  gamma_half is the same
    estimator on every other node (the K/2 grid), in (-pi, pi]; residual,
    their distance modulo 2 pi, is the discretization estimate.  Both are
    always finite.  gauge is the gauge_fix tag of a connection curve and
    'as_given' for the gauge-invariant Wilson loop.
    """

    gamma: float
    gamma_unwrapped: float
    curve: np.ndarray  # shape (K + 1, 2): columns (phi, partial phase)
    gauge: str
    gamma_half: float
    closure_phase: float = 0.0

    @property
    def residual(self) -> float:
        return phase_distance(self.gamma, self.gamma_half)


def _check_loop(phi_grid, vectors):
    """(phi_grid, vectors) as arrays; ValueError unless phi_grid is 1-D and
    within 1e-9 of loop_grid(K), K = len(phi_grid) - 1 (so K is an even
    integer >= MIN_NODES), and vectors holds one finite row per node."""
    phi = np.asarray(phi_grid, dtype=float)
    if phi.ndim != 1 or not np.allclose(phi, loop_grid(len(phi) - 1), rtol=0.0, atol=1e-9):
        raise ValueError(
            "a loop needs a uniform 1-D phi grid from 0 to 2 pi, got "
            + np.array2string(phi, threshold=6, precision=4)
        )
    v = np.asarray(vectors)
    if v.ndim != 2 or v.shape[0] != len(phi):
        raise ValueError(
            f"a loop needs one vector row per phi node: {len(phi)} nodes, "
            f"vectors of shape {v.shape}"
        )
    bad = np.flatnonzero(~np.all(np.isfinite(v), axis=1))
    if bad.size:
        raise ValueError(f"the vector at phi node {bad[0]} is not finite")
    return phi, v


def _wilson_gamma_and_curve(phi, v):
    K = len(phi) - 1
    partial = np.zeros(K + 1)
    acc = 0.0
    for k in range(K):
        nxt = v[0] if k == K - 1 else v[k + 1]
        overlap = complex(np.vdot(v[k], nxt))
        if abs(overlap) < 0.5:
            raise _overlap_lost(k, abs(overlap), 0.5)
        acc += -np.imag(np.log(overlap))
        partial[k + 1] = acc
    return acc, np.column_stack([phi, partial])


def wilson_loop(phi_grid, vectors) -> LoopResult:
    """Discrete closed-loop phase gamma = -Im sum_k log <psi_k|psi_k+1>.

    The path is one vector per node of loop_grid(K) (ValueError otherwise).
    The last step closes onto psi_0, so the result is invariant under any
    per-node rephasing of the input.  A step overlap below 0.5 means the
    loop is under-resolved and raises TrackingError.
    """
    phi, v = _check_loop(phi_grid, vectors)
    gamma, curve = _wilson_gamma_and_curve(phi, v)
    gamma_half = wrap_phase(_wilson_gamma_and_curve(phi[::2], v[::2])[0])
    return LoopResult(wrap_phase(gamma), float(gamma), curve, "as_given", gamma_half)


def _connection_gamma_and_curve(phi, v):
    K = len(phi) - 1
    dphi = phi[1] - phi[0]
    # A = i <psi|d/dphi psi> = -Im <psi_k|central difference>
    a = np.empty(K + 1)
    a[0] = -np.imag(np.vdot(v[0], v[1] - v[0])) / dphi
    a[-1] = -np.imag(np.vdot(v[-1], v[-1] - v[-2])) / dphi
    for k in range(1, K):
        a[k] = -np.imag(np.vdot(v[k], v[k + 1] - v[k - 1])) / (2.0 * dphi)
    partial = np.concatenate([[0.0], np.cumsum(0.5 * dphi * (a[1:] + a[:-1]))])
    # The loop closes through <psi_K|psi_0>: for a single-valued gauge this
    # closure phase is ~0; in the parallel-transport gauge it carries the
    # whole holonomy.  Fold it into the final node so the curve ends at the
    # closed-loop value.
    closure = -np.imag(np.log(complex(np.vdot(v[-1], v[0]))))
    partial[-1] += closure
    return partial[-1], np.column_stack([phi, partial]), closure


def connection_curve(phi_grid, vectors, gauge: str) -> LoopResult:
    """Integrate the gauge-fixed connection along the loop (trapezoid rule).

    The path is checked as in wilson_loop and rephased by gauge_fix(vectors,
    gauge).  The integrand Im <psi_k|(psi_k+1 - psi_k-1)>/(2 dphi) (one-sided
    at the ends) is gauge dependent.  Under the parallel-transport gauge the
    closed-loop value reproduces wilson_loop's gamma; under the anchor gauge
    the curve is the usual accumulating gamma(phi) observable.
    """
    phi, v = _check_loop(phi_grid, vectors)
    fixed, tag = gauge_fix(v, gauge)
    gamma, curve, closure = _connection_gamma_and_curve(phi, fixed)
    half, _ = gauge_fix(fixed[::2], gauge)
    gamma_half = wrap_phase(_connection_gamma_and_curve(phi[::2], half)[0])
    return LoopResult(
        wrap_phase(gamma), float(gamma), curve, tag, gamma_half, float(closure)
    )


@dataclass(frozen=True)
class FockLoop:
    """The loop of one level, read off the occupation weights of psi_0.

    weights[n] = p_n is the weight of psi_0 at field occupation n.  wilson
    and connection are the LoopResults that wilson_loop and
    connection_curve give on the eigenpath U(phi_k) psi_0; eigen_residual is
    the residual_gate value of psi_0 on the band product of its sector,
    min_step_overlap the step overlap |chi(2 pi / K)|, generator the
    oracle 2 pi <n_hat> of the level and block_order the order m' of the
    leading block both were read from (_solve_level; n_max + 1 for the full
    band): p_n is exactly 0 past m'.
    """

    wilson: LoopResult
    connection: LoopResult
    min_step_overlap: float
    eigen_residual: float
    weights: np.ndarray  # shape (n_max + 1,)
    generator: float
    block_order: int

    @property
    def tail_weight(self) -> float:
        """Weight of psi_0 on the top TAIL_OCCUPATIONS field occupations, or
        on the top half of them for n_max + 1 < 2 TAIL_OCCUPATIONS."""
        top = min(TAIL_OCCUPATIONS, len(self.weights) // 2)
        return float(np.sum(self.weights[-top:]))


def fock_loop(kind, p: ModelParams, level: int, K: int, cfg: TruncationConfig,
              gauge: str) -> FockLoop:
    """The Wilson loop and the connection curve in ``gauge`` of one level on
    loop_grid(K), in closed form in K and the weights p_n of psi_0.

    psi_0, its one eigen-residual gate and the generator oracle come from
    _solve_level, with its refusals.  The eigenpath
    U(phi_k) psi_0 has the same overlap chi(x) = sum_n p_n exp(-i n x)
    between any two nodes x apart, so with dphi = 2 pi / K:

    * Wilson: the curve is -k arg chi(dphi) on node k, gamma_unwrapped its
      end value and gamma_half the same form at chi(2 dphi) on K/2 steps;
    * anchor gauge: the connection is the constant
      sum_n p_n sin((n - n_a) dphi) / dphi, n_a the occupation of the
      component largest in psi_0, so the curve is phi times it and the
      closure phase is 0;
    * parallel gauge: the curve is 0 up to the last node, where the closure
      phase wrap(-K arg chi(dphi)) sits.

    |chi(dphi)| below CONTINUITY_THRESHOLD raises TrackingError at node 1.
    wilson_loop and connection_curve are the oracle of this path, on the
    eigenpath or on any path with its overlaps, such as
    sqrt(p_n) exp(-i n phi_k) on the field space (acceptance criterion 8):
    the two agree to rounding, and within 2 pi on the unwrapped
    parallel-gauge phase where it sits on the cut at pi.
    """
    _check_gauge(gauge)
    phi = loop_grid(K)
    psi0, _, residual, generator, order = _solve_level(kind, p, level, cfg)
    weights = (psi0 * psi0).reshape(2, cfg.dim_field).sum(axis=0)
    n = np.arange(cfg.dim_field)

    def step(steps):
        """chi(2 pi / steps), the node overlap on a loop of that many steps."""
        return complex(np.dot(weights, np.exp(-1j * (TWO_PI / steps) * n)))

    chi = step(K)
    overlap = abs(chi)
    if overlap < CONTINUITY_THRESHOLD:
        raise _overlap_lost(1, overlap, CONTINUITY_THRESHOLD)
    theta = -np.angle(chi)
    wilson_curve = np.arange(K + 1) * theta
    wilson_half = wrap_phase(-(K // 2) * np.angle(step(K // 2)))
    wilson = LoopResult(wrap_phase(wilson_curve[-1]), float(wilson_curve[-1]),
                        np.column_stack([phi, wilson_curve]), "as_given", wilson_half)

    if gauge == "parallel_transport":
        closure, tag, half = wrap_phase(wilson_curve[-1]), gauge, wilson_half
        curve = np.zeros(K + 1)
        curve[-1] = closure
    else:
        idx = int(np.argmax(np.abs(psi0)))
        shift = n - idx % cfg.dim_field

        def slope(steps):
            dphi = TWO_PI / steps
            return float(np.dot(weights, np.sin(shift * dphi))) / dphi

        closure, tag = 0.0, f"anchor_component({idx})"
        curve = phi * slope(K)
        half = wrap_phase(phi[-1] * slope(K // 2))
    connection = LoopResult(wrap_phase(curve[-1]), float(curve[-1]),
                            np.column_stack([phi, curve]), tag, half, closure)
    return FockLoop(wilson, connection, overlap, residual, weights, generator, order)

