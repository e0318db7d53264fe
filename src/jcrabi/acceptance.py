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
name states the constants it ran at.  The suite writes no file.  Tracked
families are cached and shared between criteria; the full suite took 1.2 s
wall and 2.1 s CPU (python -m jcrabi verify, 2 vCPUs, Python 3.11, numpy 2.4
with OpenBLAS).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import berry, models, spectra, surfaces
from .berry import DegenerateLevelError, TrackingError, phase_distance, wrap_phase
from .fock import TruncationConfig
from .linalg import EIG_RTOL, commutator_deviation, hermitian_eig, tridiagonal
from .models import ModelKind, ModelParams, build_jc, build_rabi, symmetry_ops

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


class AcceptanceSuite:
    """Runs the acceptance criteria, sharing tracked families across them."""

    def __init__(self):
        self.berry_k = BERRY_K
        self.berry_cfg = TruncationConfig(BERRY_NMAX)
        self.sweep_cfg = TruncationConfig(SWEEP_NMAX)
        self._families = {}

    def family(self, model: str, Omega: float, g: float, level: int = 1):
        key = (model, Omega, g, level)
        if key not in self._families:
            p = ModelParams(Omega=Omega, g=g)
            self._families[key] = berry.eig_family(
                model, p, level, self.berry_k, self.berry_cfg
            )
        return self._families[key]

    # -- criterion bodies ---------------------------------------------------

    def criterion_1(self) -> CriterionResult:
        """Eigensolver soundness on random Hermitian matrices."""
        rng = np.random.default_rng(20260809)
        lines, ok = [], True
        worst = {"residual": 0.0, "ortho": 0.0, "shift": 0.0}
        dims = [2, 31, 200]
        for i in range(50):
            n = dims[i % 3]
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.5 * (raw + raw.conj().T)
            maxabs = float(np.max(np.abs(a)))
            es = hermitian_eig(a)
            worst["residual"] = max(worst["residual"], es.residual / maxabs)
            ortho = float(np.max(np.abs(es.vectors.conj().T @ es.vectors - np.eye(n))))
            worst["ortho"] = max(worst["ortho"], ortho)
            c = float(rng.uniform(-2.0, 2.0))
            shifted = hermitian_eig(a + c * np.eye(n)).values
            worst["shift"] = max(worst["shift"], float(np.max(np.abs(shifted - es.values - c))))
        ok &= _check(lines, worst["residual"] <= 1e-10, f"max residual/max|A| = {worst['residual']:.2e} <= 1e-10")
        ok &= _check(lines, worst["ortho"] <= 1e-10, f"max orthonormality defect = {worst['ortho']:.2e} <= 1e-10")
        ok &= _check(lines, worst["shift"] <= 1e-10, f"max shift-invariance defect = {worst['shift']:.2e} <= 1e-10")
        return CriterionResult(1, "eigensolver soundness (50 random Hermitian, dims 2/31/200)", ok, lines=lines)

    def criterion_2(self) -> CriterionResult:
        """Exact model symmetries: [H_JC, N] = 0 and [H_R, Pi] = 0."""
        lines, ok = [], True
        cfg = self.sweep_cfg
        n_total, parity = symmetry_ops(cfg)
        zero = np.zeros((cfg.dim_joint, cfg.dim_joint))
        for g in (0.01, 0.1, 1.0):
            p = ModelParams(Omega=1.0, g=g)
            h_jc = build_jc(p, cfg)
            h_r = build_rabi(p, cfg)
            dev_jc = commutator_deviation(h_jc, n_total, zero)
            dev_r = commutator_deviation(h_r, parity, zero)
            bound_jc = 1e-12 * float(np.max(np.abs(h_jc)))
            bound_r = 1e-12 * float(np.max(np.abs(h_r)))
            ok &= _check(lines, dev_jc <= bound_jc, f"g={g}: |[H_JC, N]|_F = {dev_jc:.2e} <= {bound_jc:.2e}")
            ok &= _check(lines, dev_r <= bound_r, f"g={g}: |[H_R, Pi]|_F = {dev_r:.2e} <= {bound_r:.2e}")
        return CriterionResult(2, f"U(1) and Z2 symmetries at n_max={cfg.n_max}", ok, lines=lines)

    def criterion_3(self) -> CriterionResult:
        """Analytic JC doublet energies against diagonalization."""
        lines, ok = [], True
        cfg = self.sweep_cfg
        worst = 0.0
        for delta in (0.0, 0.5):
            for g in (0.01, 0.1, 1.0):
                p = ModelParams(Omega=1.0 + delta, g=g)
                values = hermitian_eig(build_jc(p, cfg)).values
                for n in range(1, 11):
                    for e in models.jc_doublet_analytic(n, p).energies:
                        worst = max(worst, float(np.min(np.abs(values - e))))
        ok &= _check(lines, worst <= 1e-8, f"max |E_numeric - E_analytic| = {worst:.2e} <= 1e-8 (n <= 10)")
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
                refused_gen = refused_track = False
                try:
                    berry.generator_phase("jc", p, 1, self.berry_cfg)
                except DegenerateLevelError:
                    refused_gen = True
                try:
                    berry.eig_family("jc", p, 1, self.berry_k, self.berry_cfg)
                except TrackingError:
                    refused_track = True
                ok &= _check(
                    lines,
                    refused_gen and refused_track,
                    "Delta=0 g=1: level 1 is exactly degenerate (|1>|0> crosses the n=2 "
                    "dressed level); generator_phase and eig_family refuse as contracted",
                )
                fam = self.family("jc", Omega, g, level=3)
                w = berry.wilson_loop(fam.phi_grid, fam.vectors)
                gen = berry.generator_phase("jc", p, 3, self.berry_cfg)
                d_wg = phase_distance(w.gamma, gen)
                d_pi = phase_distance(gen, PI)
                ok &= _check(lines, d_wg <= tol, f"Delta=0 g=1 (level 3): |wilson - generator| mod 2pi = {d_wg:.2e} <= {tol}")
                ok &= _check(lines, d_pi <= tol, f"Delta=0 g=1 (level 3): |generator - pi| mod 2pi = {d_pi:.2e} <= {tol}")
                continue
            fam = self.family("jc", Omega, g)
            w = berry.wilson_loop(fam.phi_grid, fam.vectors)
            gen = berry.generator_phase("jc", p, 1, self.berry_cfg)
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
        """Gauge invariance of the loop product under random rephasings."""
        lines, ok = [], True
        fam = self.family("jc", 1.0, 0.1)
        base = berry.wilson_loop(fam.phi_grid, fam.vectors).gamma
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=len(fam.vectors)))
            mangled = berry.wilson_loop(fam.phi_grid, fam.vectors * phases[:, None])
            worst = max(worst, phase_distance(mangled.gamma, base))
        ok &= _check(lines, worst <= 1e-10, f"max |gamma change| over 20 random per-node rephasings = {worst:.2e} <= 1e-10")
        return CriterionResult(7, "Wilson loop gauge invariance", ok, lines=lines)

    def criterion_8(self) -> CriterionResult:
        """Parallel-transport connection integral reproduces the Wilson loop."""
        lines, ok = [], True
        for model in ("jc", "rabi"):
            for g in (0.01, 1.0):
                if model == "jc" and g == 1.0:
                    # Degenerate level 1 (see criterion 6): identity checked
                    # on the tracked level 3 family instead.
                    fam = self.family("jc", 1.0, 1.0, level=3)
                    label = "jc g=1 (level 3, level 1 degenerate)"
                else:
                    fam = self.family(model, 1.0, g)
                    label = f"{model} g={g}"
                w = berry.wilson_loop(fam.phi_grid, fam.vectors)
                conn = berry.connection_curve(fam.phi_grid, fam.vectors, "parallel_transport")
                allowance = max(w.residual, conn.residual, 1e-9)
                d = phase_distance(conn.gamma, w.gamma)
                ok &= _check(
                    lines,
                    d <= allowance,
                    f"{label}: |connection(PT) - wilson| mod 2pi = {d:.2e} <= residual allowance {allowance:.2e}",
                )
        return CriterionResult(8, "parallel-transport consistency (JC and Rabi, g in {0.01, 1})", ok, lines=lines)

    def criterion_9(self) -> CriterionResult:
        """Generator identity: rotated-family Wilson loop == 2 pi <n>."""
        lines, ok = [], True
        tol = 5e-3
        for g in (0.01, 0.1, 1.0):
            fam = self.family("rabi", 1.0, g)
            w = berry.wilson_loop(fam.phi_grid, fam.vectors)
            gen = berry.generator_phase("rabi", ModelParams(Omega=1.0, g=g), 1, self.berry_cfg)
            d = phase_distance(w.gamma, gen)
            ok &= _check(
                lines, d <= tol,
                f"rabi g={g}: |wilson - 2pi<n>| mod 2pi = {d:.2e} <= {tol} (2pi<n> = {gen:.6f})",
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
            conn = berry.connection_curve(fam.phi_grid, fam.vectors, "anchor_component")
            curves[g] = conn
            w = berry.wilson_loop(fam.phi_grid, fam.vectors)
            gen = berry.generator_phase("rabi", ModelParams(Omega=1.0, g=g), 1, self.berry_cfg)
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
