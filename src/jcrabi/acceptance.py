"""Release acceptance suite: every bound criterion at its stated tolerance.

Each criterion returns a CriterionResult with one summary line per check so
the verify command (and the pytest wrapper) can print a pass/fail line per
criterion.  Bound criteria gate the release; the final connection-curve
comparison is an investigation report whose numbers are emitted but not
asserted.  It follows the loop that rotates the full Rabi eigenstate by
U(phi), whose phase is 2 pi <n> mod 2 pi; the paper's zero Rabi phase is
that of the adiabatic (mean-field) loop, a different loop (see the report
text).

The gate is the one configuration the constants below set, and a criterion
name states the constants it ran at.  The suite writes no file.  The
Berry loops are those jcrabi berry writes (berry.fock_loop), each with its
generator oracle, cached and shared between criteria; the full suite took
about 0.7 s wall and 1.3 s CPU (python -m jcrabi verify, 2 vCPUs, Python
3.11, numpy 2.4 with OpenBLAS).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import berry, models, spectra, surfaces
from .berry import TrackingError, phase_distance, wrap_phase
from .fock import SQRT2, TruncationConfig
from .linalg import (EIG_RTOL, ConvergenceError, band_product, band_scale, leading_pair,
                     merged_levels, tridiagonal)
from .models import ModelKind, ModelParams, parity_chains

# The gate's configuration: sweeps run at n_max = 200, geometric-phase
# loops at K = 720 nodes and n_max = 150, convergence anchors go up to
# n_max = 500.
SWEEP_NMAX = 200
BERRY_NMAX = 150
BERRY_K = 720
PI = np.pi
# The criterion numbers, in run order.
CRITERIA = range(1, 13)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    bound: bool = True
    lines: list = field(default_factory=list)
    elapsed: float = 0.0
    # criterion 12's anchor-gauge berry.LoopResult per coupling g
    curves: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if not self.bound:
            return "REPORT"
        return "PASS" if self.passed else "FAIL"

    def summary(self) -> str:
        return f"{self.status}  criterion {self.number:2d}: {self.name}"


def _check(lines, ok: bool, text: str) -> bool:
    lines.append(("    ok  " if ok else "    BAD ") + text)
    return ok


def _refuses(path, *args) -> bool:
    """Whether path(*args) raises TrackingError."""
    try:
        path(*args)
    except TrackingError:
        return True
    return False


def _weight_path(loop: berry.FockLoop):
    """(phi_grid, vectors) of the path sqrt(p_n) exp(-i n phi_k) on the
    field space, p_n the weights of ``loop``: any two of its nodes x apart
    overlap by chi(x), as those of the eigenpath U(phi_k) psi_0 do, so the
    estimators give the loop's values on it."""
    phi = loop.wilson.curve[:, 0]
    return phi, np.sqrt(loop.weights) * np.exp(-1j * np.outer(phi, np.arange(len(loop.weights))))


def _loop_distance(fast, slow) -> float:
    """The largest difference between two LoopResults of one loop: of their
    curves before the last node, and modulo 2 pi of their phases (gamma,
    K/2 gamma, closure and unwrapped end), since a parallel-gauge closure
    phase on the cut at pi may land on either side of it."""
    ends = ((fast.gamma, slow.gamma), (fast.gamma_half, slow.gamma_half),
            (fast.closure_phase, slow.closure_phase),
            (fast.gamma_unwrapped, slow.gamma_unwrapped))
    return max(float(np.max(np.abs(fast.curve[:-1] - slow.curve[:-1]))),
               *(phase_distance(a, b) for a, b in ends))


def _rabi_like_bands(rng):
    """20 two-block bands of m = 201 rows, stacked as (diag, off), shaped
    like the Rabi parity sectors (models.parity_sectors): diagonal
    j -/+ W/2 (-1)^j plus noise of 0.01, links g sqrt(2 (j + 1)) times
    1 + noise of 0.01, with W in [0.5, 1.5] and g in [0, 2] drawn per band."""
    j = np.arange(201.0)
    Omega, g = rng.uniform(0.5, 1.5, (20, 1, 1)), rng.uniform(0.0, 2.0, (20, 1, 1))
    diag = j + 0.5 * Omega * np.array([[1.0], [-1.0]]) * (-1.0) ** j
    diag += 0.01 * rng.standard_normal(diag.shape)
    off = g * np.sqrt(2.0 * j[1:]) * (1.0 + 0.01 * rng.standard_normal((20, 2, 200)))
    return diag, off


def _hidden_state_bands():
    """Two stacked two-block bands of m = 60 rows, diagonal j (block A) and
    j - 0.25 (block B), links 0.1, whose 11th level a leading block of 32
    rows cannot see: in the first, A's row 39 sits at 4.5 behind links of
    1e-30; in the second, A's row 31 is cut from the rows above and sits at
    4.6, linked by 5e-8 to row 32, also at 4.6."""
    j = np.arange(60.0)
    diag, off = np.stack([[j, j - 0.25]] * 2), np.full((2, 2, 59), 0.1)
    diag[0, 0, 39], off[0, 0, 38:40] = 4.5, 1e-30
    diag[1, 0, 31:33] = 4.6
    off[1, 0, 30:33] = 0.0, 5e-8, 0.0
    return diag, off


def _band_label(point, block) -> str:
    return f"block {block} of band {point}"


def _merged_levels_deviation(bands, k: int) -> float:
    """max over the stacked bands of |merged_levels - dense eigvalsh| /
    max|T| for the k lowest levels of each band's blocks."""
    solved = merged_levels(*bands, k, _band_label).levels
    dev = 0.0
    for row, diag, off in zip(solved, *bands):
        dense = np.sort(np.linalg.eigvalsh(tridiagonal(diag, off)).ravel())[:k]
        scale = max(np.max(np.abs(diag)), np.max(np.abs(off)))
        dev = max(dev, float(np.max(np.abs(row - dense))) / scale)
    return dev


def _leading_pair_defects(bands, k: int, shifts):
    """The worst defects at the k merged levels of each stacked band: of
    linalg.leading_pair's twisted vector and eigh column (band-product
    residual over the block's max|T|, and the largest of | |v| - 1 | and
    1 - |<twisted, column>|), and of merged_levels under diag + c, one
    shift c per band (max |levels(diag + c) - levels(diag) - c|)."""
    diag, off = bands
    solved = merged_levels(diag, off, k, _band_label)
    residual = unit = 0.0
    for point, levels in enumerate(solved.levels):
        for block, index, value in zip(solved.sector[point], solved.index[point], levels):
            d, o = diag[point, block], off[point, block]
            pair = leading_pair(d, o, index, value, int(solved.block[point]), _band_label(point, block))
            v = np.stack([pair.twisted, pair.column], axis=-1)
            residual = max(residual, float(np.max(np.abs(band_product(d, o, v) - value * v)) / band_scale(d, o)))
            unit = max(unit, float(np.max(np.abs(np.linalg.norm(v, axis=0) - 1.0))),
                       1.0 - abs(float(pair.twisted @ pair.column)))
    shifted = merged_levels(diag + shifts[:, None, None], off, k, _band_label).levels
    return residual, unit, float(np.max(np.abs(shifted - solved.levels - shifts[:, None])))


def _apply_hamiltonian(kind: ModelKind, p: ModelParams, psi):
    """H psi, with no matrix: ``psi`` has shape (2, n_max + 1, ...), the
    qubit (excited, ground) by the field occupation n (fock's joint order),
    and H acts by ladder arithmetic, a psi_n = sqrt(n + 1) psi_{n+1} and
    a^dag psi_n = sqrt(n) psi_{n-1}, as the model formulas in models read."""
    n = np.arange(psi.shape[1]).reshape((-1,) + (1,) * (psi.ndim - 2))
    sz = np.array([1.0, -1.0]).reshape((2,) + (1,) * (psi.ndim - 1))
    root = np.sqrt(n[1:])
    lower, upper = np.zeros_like(psi), np.zeros_like(psi)
    lower[:, :-1] = root * psi[:, 1:]  # a psi
    upper[:, 1:] = root * psi[:, :-1]  # a^dag psi
    # sx swaps the qubit; JC keeps s+ a + a^dag s- of (a + a^dag) sx
    coupling = np.stack([lower[1], upper[0]]) if kind is ModelKind.JC_LAB else (lower + upper)[::-1]
    return (p.omega * n + 0.5 * p.Omega * sz) * psi + p.g * SQRT2 * coupling


def _commutator(kind: ModelKind, p: ModelParams, d, psi):
    """[H, D] psi for the diagonal D with entries ``d`` (broadcast against
    ``psi``, shaped as _apply_hamiltonian takes it), summed over the
    eigenspaces of D: [H, D] P_k psi = (k - D) H P_k psi, P_k psi keeping the
    entries where D = k.  Where H keeps an eigenspace, its term is an exact
    zero; a link between two eigenspaces shows at its full size."""
    d = np.broadcast_to(d, psi.shape)[..., None]
    k = np.unique(d)
    return np.sum((k - d) * _apply_hamiltonian(kind, p, np.where(d == k, psi[..., None], 0.0)),
                  axis=-1)


class AcceptanceSuite:
    """Runs the acceptance criteria, sharing Berry loops across them."""

    def __init__(self):
        self.berry_k = BERRY_K
        self.berry_cfg = TruncationConfig(BERRY_NMAX)
        self.sweep_cfg = TruncationConfig(SWEEP_NMAX)
        self._families = {}

    def family(self, model: str, Omega: float, g: float, level: int = 1) -> berry.FockLoop:
        """The loop that jcrabi berry writes for this level, in the anchor
        gauge, on the gate's grid (berry.fock_loop); cached."""
        key = (model, Omega, g, level)
        if key not in self._families:
            p = ModelParams(Omega=Omega, g=g)
            self._families[key] = berry.fock_loop(
                model, p, level, self.berry_k, self.berry_cfg, "anchor_component"
            )
        return self._families[key]

    # -- criterion bodies ---------------------------------------------------

    def criterion_1(self) -> CriterionResult:
        """The sector solver the CLI runs: merged_levels against dense
        eigvalsh, and leading_pair's two vectors of each merged level."""
        rng = np.random.default_rng(20260809)
        lines, ok = [], True
        rabi_like = _rabi_like_bands(rng)
        shifts = rng.uniform(-2.0, 2.0, len(rabi_like[0]))
        residual, unit, shift = _leading_pair_defects(rabi_like, 11, shifts)
        ok &= _check(lines, residual <= 1e-10, "leading_pair at the 11 merged levels of 20 "
                     "random Rabi-like bands (m 201): max band-product residual/max|T| of "
                     f"the twisted vector and the eigh column = {residual:.2e} <= 1e-10")
        ok &= _check(lines, unit <= 1e-10, "same pairs: max of | |v| - 1 | and "
                     f"1 - |<twisted, column>| = {unit:.2e} <= 1e-10")
        ok &= _check(lines, shift <= 1e-10, "merged_levels of the same bands under diag + c: "
                     f"max shift-invariance defect = {shift:.2e} <= 1e-10")
        # the values-only solver the CLI runs, against dense eigvalsh
        for text, bands in (("20 random Rabi-like two-block bands (m 201)", rabi_like),
                            ("2 bands with a state hidden from the leading block (m 60)",
                             _hidden_state_bands())):
            try:
                dev = _merged_levels_deviation(bands, 11)
            except ConvergenceError as exc:
                ok &= _check(lines, False, f"merged_levels on {text}: {exc}")
                continue
            ok &= _check(lines, dev <= EIG_RTOL, f"merged_levels (k 11) vs dense eigvalsh on {text}: "
                         f"max dev/max|T| = {dev:.2e} <= {EIG_RTOL:.0e}")
        return CriterionResult(1, "eigensolver soundness (leading pairs of 220 sector levels; "
                                  "sector levels of 22 bands)", ok, lines=lines)

    def criterion_2(self) -> CriterionResult:
        """Exact model symmetries, [H_JC, N] = 0 and [H_R, Pi] = 0, and the
        parity-sector bands, on random vectors with H applied matrix-free."""
        lines, ok = [], True
        cfg = self.sweep_cfg
        psi = np.random.default_rng(2).standard_normal((2, cfg.dim_field, 4))
        n = np.arange(cfg.dim_field)[:, None]
        sz = np.array([1.0, -1.0])[:, None, None]
        # N = n + sz/2 and Pi = sz (-1)^n are diagonal in the joint basis
        symmetries = {ModelKind.JC_LAB: ("[H_JC, N]", n + 0.5 * sz),
                      ModelKind.RABI_LAB: ("[H_R, Pi]", sz * (-1.0) ** n)}
        flat = psi.reshape(cfg.dim_joint, -1)
        for g in (0.01, 0.1, 1.0):
            p = ModelParams(Omega=1.0, g=g)
            for kind, (name, op) in symmetries.items():
                diag, off = models.parity_sectors(kind, p, cfg)
                bound = 1e-12 * float(np.max(band_scale(diag, off)))
                leak = float(np.max(np.abs(_commutator(kind, p, op, psi))))
                h_flat = _apply_hamiltonian(kind, p, psi).reshape(cfg.dim_joint, -1)
                chain = max(float(np.max(np.abs(h_flat[c] - band_product(d, o, flat[c]))))
                            for c, d, o in zip(parity_chains(cfg), diag, off))
                ok &= _check(lines, leak <= bound, f"g={g}: max|{name} psi| = {leak:.2e} <= {bound:.2e}")
                ok &= _check(lines, chain <= bound, f"g={g}: {kind.model} max|H psi - sector band "
                             f"product| on both chains = {chain:.2e} <= {bound:.2e}")
        return CriterionResult(2, f"U(1) and Z2 symmetries at n_max={cfg.n_max}", ok, lines=lines)

    def criterion_3(self) -> CriterionResult:
        """Analytic JC doublet energies against the sweep the CLI runs."""
        lines, ok = [], True
        cfg = self.sweep_cfg
        g_grid = [0.01, 0.1, 1.0]
        worst = 0.0
        for delta in (0.0, 0.5):
            p = ModelParams(Omega=1.0 + delta)
            table = spectra.spectrum_sweep(ModelKind.JC_LAB, p, g_grid, cfg.dim_joint, cfg)
            for g, values in zip(g_grid, table.levels):
                for n in range(1, 11):
                    for e in models.jc_doublet_analytic(n, p.with_g(g)).energies:
                        worst = max(worst, float(np.min(np.abs(values - e))))
        ok &= _check(lines, worst <= 1e-8, f"max |E_sweep - E_analytic| over all {cfg.dim_joint} "
                     f"spectrum_sweep levels = {worst:.2e} <= 1e-8 (n <= 10)")
        return CriterionResult(3, "JC analytic doublet oracle (n<=10, Delta in {0,0.5}, g in {0.01,0.1,1})", ok, lines=lines)

    def criterion_4(self) -> CriterionResult:
        """Eleven-level sweep and the counter-rotating (Bloch-Siegert) bracket."""
        lines, ok = [], True
        cfg = self.sweep_cfg
        p = ModelParams(Omega=1.0)
        g_grid = np.round(np.arange(0, 151) * 0.01, 10)
        jc = spectra.spectrum_sweep(ModelKind.JC_LAB, p, g_grid, 11, cfg)
        rb = spectra.spectrum_sweep(ModelKind.RABI_LAB, p, g_grid, 11, cfg)
        ascending = bool(
            np.all(np.diff(jc.levels, axis=1) >= -1e-12)
            and np.all(np.diff(rb.levels, axis=1) >= -1e-12)
        )
        ok &= _check(lines, ascending, f"11 lowest levels over {len(g_grid)} couplings in [0, 1.5], rows ascending")
        bs_small = spectra.bloch_siegert(p, 0.001, 2, cfg)
        bs_ultra = spectra.bloch_siegert(p, 0.1, 2, cfg)
        ok &= _check(lines, bs_small <= 1e-4, f"level-2 relative JC/Rabi deviation at g=0.001: {bs_small:.3e} <= 1e-4")
        ok &= _check(
            lines,
            3e-4 <= bs_ultra <= 3e-3,
            f"level-2 relative JC/Rabi deviation at g=0.1: {bs_ultra:.3e} in [3e-4, 3e-3] "
            "(brackets the ~0.1% level shift; energies referenced to each ground state)",
        )
        return CriterionResult(4, "eleven-level JC/Rabi sweep and Bloch-Siegert bracket", ok, lines=lines)

    def criterion_5(self) -> CriterionResult:
        """Ground-state crossing: analytic vs numerical, quoted value flagged."""
        lines, ok = [], True
        res = spectra.ground_crossing(ModelParams(Omega=1.0), TruncationConfig(60), 0.3, 1.2)
        agree = abs(res.analytic_g - res.numerical_g)
        ok &= _check(lines, agree <= 1e-6, f"analytic {res.analytic_g:.10f} vs numerical {res.numerical_g:.10f}: |diff| = {agree:.2e} <= 1e-6")
        flagged = "DISAGREES" in res.note and abs(res.quoted_g - np.sqrt(2.0)) < 1e-15
        ok &= _check(lines, flagged, f"quoted sqrt(2) = {res.quoted_g:.6f} reported and flagged: {res.note}")
        return CriterionResult(5, "ground-state crossing with the sqrt(2) discrepancy flag", ok, lines=lines)

    def criterion_6(self) -> CriterionResult:
        """JC oracle chain: wilson == generator (== closed form at Delta=0)."""
        lines, ok = [], True
        tol = 5e-3
        for delta, g in ((0.0, 0.1), (0.0, 1.0), (0.5, 0.1), (0.5, 1.0)):
            Omega = 1.0 + delta
            p = ModelParams(Omega=Omega, g=g)
            if delta == 0.0 and g == 1.0:
                # At this exact coupling the uncoupled |1>|0> level crosses
                # the n=2 lower dressed state, so the first excited level is
                # degenerate and its single-level phase is undefined.  The
                # toolkit must refuse; the chain is exercised on the nearest
                # nondegenerate dressed level (level 3) instead.
                ok &= _check(
                    lines,
                    _refuses(berry.fock_loop, "jc", p, 1, self.berry_k, self.berry_cfg,
                             "anchor_component"),
                    "Delta=0 g=1: level 1 is exactly degenerate (|1>|0> crosses the n=2 "
                    "dressed level); fock_loop refuses as contracted",
                )
                fam = self.family("jc", Omega, g, level=3)
                gen = fam.generator
                d_wg = phase_distance(fam.wilson.gamma, gen)
                d_pi = phase_distance(gen, PI)
                ok &= _check(lines, d_wg <= tol, f"Delta=0 g=1 (level 3): |wilson - generator| mod 2pi = {d_wg:.2e} <= {tol}")
                ok &= _check(lines, d_pi <= tol, f"Delta=0 g=1 (level 3): |generator - pi| mod 2pi = {d_pi:.2e} <= {tol}")
                continue
            fam = self.family("jc", Omega, g)
            w, gen = fam.wilson, fam.generator
            d_wg = phase_distance(w.gamma, gen)
            ok &= _check(lines, d_wg <= tol, f"Delta={delta} g={g}: |wilson - generator| mod 2pi = {d_wg:.2e} <= {tol}")
            if delta == 0.0:
                bex = surfaces.berry_exact_jc(1, p, +1)
                d_wb = phase_distance(w.gamma, bex)
                d_gb = phase_distance(gen, bex)
                ok &= _check(
                    lines,
                    d_wb <= tol and d_gb <= tol,
                    f"Delta=0 g={g}: both match the closed form +/-pi "
                    f"(wilson {d_wb:.2e}, generator {d_gb:.2e} <= {tol})",
                )
        name = f"geometric-phase oracle chain for the JC model (K={self.berry_k}, n_max={self.berry_cfg.n_max})"
        return CriterionResult(6, name, ok, lines=lines)

    def criterion_7(self) -> CriterionResult:
        """Gauge invariance of the loop product under random rephasings, on
        the weight path of the JC loop at g = 0.1."""
        lines, ok = [], True
        phi, vectors = _weight_path(self.family("jc", 1.0, 0.1))
        base = berry.wilson_loop(phi, vectors).gamma
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=len(vectors)))
            mangled = berry.wilson_loop(phi, vectors * phases[:, None])
            worst = max(worst, phase_distance(mangled.gamma, base))
        ok &= _check(lines, worst <= 1e-10, "jc g=0.1, path sqrt(p_n) exp(-i n phi): max |gamma change| "
                     f"over 20 random per-node rephasings = {worst:.2e} <= 1e-10")
        return CriterionResult(7, "Wilson loop gauge invariance", ok, lines=lines)

    def criterion_8(self) -> CriterionResult:
        """Parallel-transport connection integral reproduces the Wilson loop,
        and fock_loop is the two estimators in both gauges, on the weight
        path of each loop."""
        lines, ok = [], True
        for model in ("jc", "rabi"):
            for g in (0.01, 1.0):
                if model == "jc" and g == 1.0:
                    # Degenerate level 1 (see criterion 6): identity checked
                    # on the level 3 loop instead.
                    level, label = 3, "jc g=1 (level 3, level 1 degenerate)"
                else:
                    level, label = 1, f"{model} g={g}"
                anchor = self.family(model, 1.0, g, level)
                parallel = berry.fock_loop(model, ModelParams(Omega=1.0, g=g), level,
                                           self.berry_k, self.berry_cfg, "parallel_transport")
                path = _weight_path(anchor)
                w = berry.wilson_loop(*path)
                conn = berry.connection_curve(*path, "parallel_transport")
                allowance = max(w.residual, conn.residual, 1e-9)
                d = phase_distance(conn.gamma, w.gamma)
                ok &= _check(
                    lines,
                    d <= allowance,
                    f"{label}: |connection(PT) - wilson| mod 2pi = {d:.2e} <= residual allowance {allowance:.2e}",
                )
                d = max(_loop_distance(anchor.wilson, w), _loop_distance(parallel.connection, conn),
                        _loop_distance(anchor.connection,
                                       berry.connection_curve(*path, "anchor_component")))
                ok &= _check(lines, d <= 1e-12, f"{label}: fock_loop vs wilson_loop and "
                             "connection_curve (both gauges) on sqrt(p_n) exp(-i n phi): "
                             f"max dist = {d:.2e} <= 1e-12")
        return CriterionResult(8, "parallel-transport consistency (JC and Rabi, g in {0.01, 1})", ok, lines=lines)

    def criterion_9(self) -> CriterionResult:
        """Generator identity: rotated-family Wilson loop == 2 pi <n>."""
        lines, ok = [], True
        tol = 5e-3
        for g in (0.01, 0.1, 1.0):
            fam = self.family("rabi", 1.0, g)
            d = phase_distance(fam.wilson.gamma, fam.generator)
            ok &= _check(
                lines, d <= tol,
                f"rabi g={g}: |wilson - 2pi<n>| mod 2pi = {d:.2e} <= {tol} (2pi<n> = {fam.generator:.6f})",
            )
        return CriterionResult(9, f"generator identity for the rotated Rabi family (K={self.berry_k})", ok, lines=lines)

    def criterion_10(self) -> CriterionResult:
        """Truncation convergence of the Rabi spectrum at g=1, and the exact
        level 1 - 2 g^2 that both parity sectors share at the first Juddian
        point of Omega = 1, g = sqrt(3/32) (Judd, J. Phys. C 12, 1685, 1979)."""
        lines, ok = [], True
        p = ModelParams(Omega=1.0, g=1.0)
        tab = spectra.convergence_study(ModelKind.RABI_LAB, p, p.g, 11, [300, 500])
        change = float(tab.max_changes[0])
        ok &= _check(lines, change <= 1e-8, f"lowest 11 Rabi levels at g=1: max |E(n_max=300) - E(n_max=500)| = {change:.2e} <= 1e-8")
        # both cutoffs solve the same leading block, so the line above reads
        # 0; this one holds the n_max = 500 levels to the full sectors
        diag, off = models.parity_sectors(ModelKind.RABI_LAB, p, TruncationConfig(500))
        full = np.sort(np.linalg.eigvalsh(tridiagonal(diag, off)).ravel())[:11]
        dev = float(np.max(np.abs(tab.levels[-1] - full)))
        bound = EIG_RTOL * max(float(np.max(np.abs(diag))), float(np.max(np.abs(off))))
        ok &= _check(lines, dev <= bound, f"n_max=500 levels vs full eigvalsh of both 501-square sectors: "
                     f"max dev {dev:.2e} <= {bound:.2e} (leading block m'={int(tab.block[-1])}, "
                     f"largest certified residual {float(tab.residual[-1]):.2e})")
        g = float(np.sqrt(3.0 / 32.0))
        tab = spectra.spectrum_sweep(ModelKind.RABI_LAB, ModelParams(Omega=1.0), [g], 4, TruncationConfig(300))
        dev = tab.levels[0, 2:4] - (1.0 - 2.0 * g * g)
        worst = float(np.max(np.abs(dev)))
        ok &= _check(lines, worst <= 1e-8, f"Juddian point g=sqrt(3/32), n_max=300: merged levels 2, 3 "
                     f"minus 1 - 2g^2 = {dev[0]:+.1e}, {dev[1]:+.1e}; max {worst:.2e} <= 1e-8")
        name = "truncation convergence (Rabi, g=1, n_max 300 vs 500) and the first Juddian point"
        return CriterionResult(10, name, ok, lines=lines)

    def criterion_11(self) -> CriterionResult:
        """Mean-field phase converges to the closed form as the field grows."""
        lines, ok = [], True
        p = ModelParams(Omega=1.5, g=0.1)
        diffs = []
        for n in (1, 10, 100):
            d = abs(surfaces.berry_boa_jc(surfaces.boa_radius(n), p, +1) - surfaces.berry_exact_jc(n, p, +1))
            diffs.append(d)
            lines.append(f"    n={n:4d}: |mean-field - closed form| = {d:.6f}")
        decreasing = diffs[0] > diffs[1] > diffs[2]
        ok &= _check(lines, decreasing, "deviation strictly decreasing over n in {1, 10, 100} (large-field agreement)")
        return CriterionResult(11, "mean-field vs exact phase, large-field limit (Delta=0.5, g=0.1)", ok, lines=lines)

    def criterion_12(self) -> CriterionResult:
        """Investigation: anchor-gauge connection curves of the rotated Rabi family.

        Emits the closed-loop connection value for the first excited Rabi
        state at four couplings, next to the gauge-invariant Wilson loop and
        the generator oracle, with grid-refinement evidence, and returns the
        curves in CriterionResult.curves for the CLI to write.  The loop
        rotates the full eigenstate by U(phi), so its phase is 2 pi <n> mod
        2 pi (criterion 9).  The paper's zero Rabi phase belongs to a
        different loop: the adiabatic (mean-field) spin state carried around
        the (x, p) plane.  Not a pass/fail bound: the report records which of
        the two values, 0 or 2 pi <n>, the anchor-gauge curve closes on.
        """
        lines = []
        verdicts = []
        curves = {}
        for g in (0.001, 0.01, 0.1, 1.0):
            fam = self.family("rabi", 1.0, g)
            conn, w, gen = fam.connection, fam.wilson, fam.generator
            curves[g] = conn
            d_zero = abs(wrap_phase(conn.gamma))
            d_gen = phase_distance(conn.gamma, gen)
            verdicts.append(d_gen < d_zero)
            lines.append(
                f"    rabi g={g}: connection(anchor) = {conn.gamma:+.6f} "
                f"(K/2 grid: {conn.gamma_half:+.6f}, residual {conn.residual:.1e}); "
                f"wilson = {w.gamma:+.6f}; 2pi<n> mod 2pi = {wrap_phase(gen):+.6f}"
            )
            lines.append(
                f"            |curve - 0| = {d_zero:.3e} vs |curve - 2pi<n>| mod 2pi = {d_gen:.3e}"
            )
        if all(verdicts):
            lines.append(
                "    VERDICT: at every coupling the U(phi) loop of the full eigenstate closes "
                "on 2pi<n> (mod 2pi), NOT 0; the K/2 grid gives the same value, so the "
                "nonzero phase is not a discretization artifact.  The paper's zero Rabi "
                "phase is that of the adiabatic (mean-field) loop, which is not this loop."
            )
        else:
            lines.append(
                "    VERDICT: mixed - see per-coupling distances above for which value "
                "(0 or 2pi<n>) the U(phi) loop of the full eigenstate closes on."
            )
        return CriterionResult(
            12, "connection-curve investigation (Rabi, anchor gauge, g in {0.001,...,1})",
            True, bound=False, lines=lines, curves=curves,
        )

    # -- driver ---------------------------------------------------------------

    def run(self, number: int) -> CriterionResult:
        """Run one criterion and time it."""
        if number not in CRITERIA:
            raise ValueError(f"no criterion {number}; valid: 1..12")
        t0 = time.time()
        res = getattr(self, f"criterion_{number}")()
        res.elapsed = time.time() - t0
        return res


def format_report(results) -> str:
    """The verify report: one summary line per criterion, its check lines
    and a RESULT line.  It holds no timing, so a rerun reproduces it."""
    out = []
    for res in results:
        out.append(res.summary())
        out.extend(res.lines)
    bound = [r for r in results if r.bound]
    failed = [r.number for r in bound if not r.passed]
    if failed:
        out.append(f"RESULT: FAIL (criteria {failed} failed)")
    else:
        out.append(f"RESULT: PASS ({len(bound)} bound criteria green)")
    return "\n".join(out)
