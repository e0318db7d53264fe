"""Seeded jcrabi workloads and the oracles that check their outputs.

A workload is a list of jobs.  A job is one ``jcrabi`` command line plus what
the benchmark needs to count its work and check its files.  The inputs come
only from the seed (``random.Random``, so they do not depend on the numpy
version), and the program sees only the generated flags.  Every oracle is
independent of the code path that produced the number: closed forms, known
crossings, or bounds fixed by the acceptance gate.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Bound of acceptance criteria 6 and 9 on |wilson - generator| mod 2 pi.
PHASE_TOL = 5e-3
# Closed-form energies and gaps against a dense eigensolve or a grid formula.
ENERGY_TOL = 1e-8
GAP_TOL = 1e-12
CROSSING_TOL = 1e-6
CONVERGENCE_TOL = 1e-8

BERRY_NMAX = 150   # the acceptance gate's BERRY_NMAX
BERRY_K = 720      # the CLI default --phi-nodes
SWEEP = dict(g_min=0.0, g_max=1.5, g_step=0.01, n_max=200, levels=11)
SWEEP_POINTS = 151
CONVERGENCE_N = (100, 200, 300, 500)
SURFACE_GRIDS = 3


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Job:
    """One jcrabi command of a workload.

    name            -- unique in the workload; also its output directory
    argv            -- the jcrabi arguments, without --out
    units           -- work the job delivers, fixed by the input
    need_per_solve  -- eigenpairs each of its eigensolves has to deliver
    nodes           -- phi nodes it tracks (berry jobs), else 0
    check           -- oracle: (output dir, job) -> list of Check
    params          -- generated values the oracle compares against
    """

    name: str
    argv: tuple
    units: int
    need_per_solve: int
    check: Callable = field(compare=False, repr=False)
    params: dict = field(default_factory=dict)
    nodes: int = 0


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    # Rounded so the flag text and the oracle hold the same float.
    return round(rng.uniform(lo, hi), 6)


def _wrap(phase: float) -> float:
    w = phase % (2.0 * math.pi)
    return w - 2.0 * math.pi if w > math.pi else w


# ---------------------------------------------------------------- file readers

def read_csv(path: Path):
    """Header and numeric rows of a jcrabi CSV (the '#' metadata is skipped)."""
    header, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            fields = line.rstrip("\n").split(",")
            if header is None:
                header = fields
            else:
                rows.append([float(v) for v in fields])
    return header or [], rows


def _csv_shape_check(path: Path, n_rows: int, n_cols: int) -> Check:
    """Row/column count of a CSV, streamed so large surfaces cost no memory."""
    name = f"{path.name} shape"
    try:
        header, count = None, 0
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                fields = line.rstrip("\n").split(",")
                if header is None:
                    header = fields
                    continue
                if len(fields) != n_cols or not all(fields):
                    return Check(name, False, f"row {count} has {len(fields)} fields")
                count += 1
    except (OSError, UnicodeDecodeError) as exc:
        return Check(name, False, str(exc))
    ok = header is not None and len(header) == n_cols and count == n_rows
    return Check(name, ok, f"{count} rows x {len(header or [])} columns, want {n_rows} x {n_cols}")


def _guard(name: str, fn) -> list:
    """Run one oracle; a missing or unparsable file is a failed check."""
    try:
        return fn()
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [Check(name, False, f"{type(exc).__name__}: {exc}")]


# ------------------------------------------------------------------- berry_loop

def _check_berry(out: Path, job: Job) -> list:
    def run():
        summary = json.loads((out / "berry_summary.json").read_text())
        wilson = float(summary["wilson_gamma"])
        generator = float(summary["generator_gamma"])
        dist = abs(_wrap(wilson - generator))
        checks = [Check(f"{job.name} |wilson - generator|", dist <= PHASE_TOL, f"{dist:.3e}")]
        exact = job.params.get("exact_gamma")
        if exact is not None:
            dist = abs(_wrap(wilson - exact))
            checks.append(Check(f"{job.name} |wilson - closed form|", dist <= PHASE_TOL, f"{dist:.3e}"))
        checks.append(_csv_shape_check(out / "berry_curve.csv", BERRY_K + 1, 2))
        return checks

    return _guard(f"{job.name} berry_summary.json", run)


def berry_loop(seed: int) -> list:
    """Two tracked families, K = 720 at n_max = 150: the eig_family loop."""
    rng = random.Random(seed)
    # Ranges where level 1 is nondegenerate; jc at Omega = 1 stays below the
    # ground crossing g* = 1/sqrt(2), where its level 1 is the n = 1 lower
    # dressed state with closed-form phase +-pi.
    g_rabi = _draw(rng, 0.01, 1.0)
    g_jc = _draw(rng, 0.05, 0.6)
    jobs = []
    for model, g, exact in (("rabi", g_rabi, None), ("jc", g_jc, math.pi)):
        argv = ("berry", "--model", model, "--g", repr(g), "--Omega", "1.0",
                "--level", "1", "--nmax", str(BERRY_NMAX), "--phi-nodes", str(BERRY_K))
        jobs.append(Job(f"berry-{model}", argv, units=BERRY_K + 1, need_per_solve=1,
                        check=_check_berry, params={"g": g, "exact_gamma": exact},
                        nodes=BERRY_K + 1))
    return jobs


# ---------------------------------------------------------------- spectrum_scan

def jc_candidate_energies(Omega: float, g: float, omega: float = 1.0, n_top: int = 10) -> list:
    """Closed-form JC levels: the doublets n = 1 .. n_top and the empty state."""
    delta = Omega - omega
    out = [-0.5 * Omega]
    for n in range(1, n_top + 1):
        half = math.hypot(0.5 * delta, g * math.sqrt(2.0 * n))
        out += [omega * (n - 0.5) + half, omega * (n - 0.5) - half]
    return out


def _check_spectrum(out: Path, job: Job) -> list:
    Omega = job.params["Omega"]

    def run():
        checks = [_csv_shape_check(out / "spectrum_rabi.csv", SWEEP_POINTS, SWEEP["levels"] + 1)]
        _, rows = read_csv(out / "spectrum_jc.csv")
        if len(rows) != SWEEP_POINTS:
            return checks + [Check("spectrum_jc rows", False, f"{len(rows)} rows")]
        worst, where = 0.0, ""
        for row in rows:
            g, levels = row[0], row[1:]
            cands = jc_candidate_energies(Omega, g)
            for j, e in enumerate(levels):
                d = min(abs(e - c) for c in cands)
                if d > worst:
                    worst, where = d, f"g={g} E{j + 1}"
        ok = worst <= ENERGY_TOL and all(len(r) == SWEEP["levels"] + 1 for r in rows)
        checks.append(Check("spectrum_jc levels vs closed form", ok, f"worst {worst:.3e} {where}"))
        return checks

    return _guard("spectrum", run)


def _check_convergence(out: Path, job: Job) -> list:
    def run():
        _, rows = read_csv(out / "convergence_rabi.csv")
        n_values = tuple(int(r[0]) for r in rows)
        change = rows[-1][-1]
        ok = n_values == CONVERGENCE_N and change <= CONVERGENCE_TOL
        return [Check("convergence rabi 300->500", ok, f"n={n_values} change={change:.3e}")]

    return _guard("convergence", run)


def _check_crossing(out: Path, job: Job) -> list:
    def run():
        doc = json.loads((out / "crossing.json").read_text())
        exact = math.sqrt(0.5 * job.params["Omega"])  # sqrt(omega Omega / 2), omega = 1
        d_num = abs(float(doc["numerical_g"]) - exact)
        return [Check("crossing numerical vs sqrt(w W / 2)", d_num <= CROSSING_TOL, f"{d_num:.3e}")]

    return _guard("crossing", run)


def spectrum_scan(seed: int) -> list:
    """Hundreds of independent one-shot solves at dims 202 to 1002."""
    rng = random.Random(seed)
    # Omega in [0.6, 1.6] keeps g* = sqrt(Omega / 2) inside the crossing
    # bracket [0.3, 1.2] with the n = 1 doublet the first to cross.
    Omega = _draw(rng, 0.6, 1.6)
    g_conv = _draw(rng, 0.1, 1.5)
    om = repr(Omega)
    s = SWEEP
    return [
        Job("spectrum", ("spectrum", "--model", "both", "--Omega", om, "--nmax", str(s["n_max"]),
                         "--levels", str(s["levels"]), "--g-min", repr(s["g_min"]),
                         "--g-max", repr(s["g_max"]), "--g-step", repr(s["g_step"])),
            units=2 * SWEEP_POINTS, need_per_solve=s["levels"], check=_check_spectrum,
            params={"Omega": Omega}),
        Job("convergence", ("convergence", "--model", "rabi", "--Omega", om, "--g", repr(g_conv),
                            "--levels", str(s["levels"]),
                            "--n-list", ",".join(str(n) for n in CONVERGENCE_N)),
            units=len(CONVERGENCE_N), need_per_solve=s["levels"], check=_check_convergence,
            params={"Omega": Omega, "g": g_conv}),
        Job("crossing", ("crossing", "--Omega", om, "--nmax", str(s["n_max"]),
                         "--g-lo", "0.3", "--g-hi", "1.2"),
            units=1, need_per_solve=1, check=_check_crossing, params={"Omega": Omega}),
    ]


# ------------------------------------------------------------------ surfaces_io

def _check_surfaces(out: Path, job: Job) -> list:
    p = job.params
    res = p["resolution"]
    checks = []
    for model in ("jc", "rabi"):
        def run(model=model):
            doc = json.loads((out / f"degeneracy_{model}.json").read_text())
            min_gap = float(doc["min_gap"])
            # The grid holds the origin, where the JC gap is |delta| and the
            # Rabi gap Omega; both are the global minima.
            exact = abs(p["Omega"] - 1.0) if model == "jc" else p["Omega"]
            found = [Check(f"{job.name} {model} min_gap", abs(min_gap - exact) <= GAP_TOL,
                           f"{min_gap!r} vs {exact!r}")]
            want = "line" if model == "rabi" else ("point" if p["Omega"] == 1.0 else None)
            if want is not None:
                found.append(Check(f"{job.name} {model} locus", doc["locus"] == want,
                                   f"{doc['locus']} vs {want}"))
            found.append(_csv_shape_check(out / f"surface_{model}.csv", res * res, 5))
            svg = (out / f"surface_gap_{model}.svg").read_bytes()
            found.append(Check(f"{job.name} {model} svg", svg.endswith(b"</svg>\n"),
                               f"{len(svg)} bytes"))
            return found

        checks += _guard(f"{job.name} {model}", run)
    return checks


def surfaces_io(seed: int) -> list:
    """Write-heavy surface grids: no eigensolve, mostly CSV/JSON/SVG output."""
    rng = random.Random(seed)
    jobs = []
    for i in range(SURFACE_GRIDS):
        # Grid 0 is resonant, so the JC cone apex lies on the grid; g >= 0.2
        # keeps the Rabi minimal set a narrow x = 0 band (a 'line').
        Omega = 1.0 if i == 0 else _draw(rng, 0.5, 1.5)
        g = _draw(rng, 0.2, 1.0)
        hx = round(rng.uniform(2.0, 4.0), 3)
        hp = round(rng.uniform(2.0, 4.0), 3)
        res = 2 * rng.randint(195, 204) + 1  # odd, so the axes contain 0
        argv = ("surfaces", "--model", "both", "--svg", "--Omega", repr(Omega), "--g", repr(g),
                f"--x-range=-{hx}:{hx}", f"--p-range=-{hp}:{hp}", "--resolution", str(res))
        jobs.append(Job(f"surfaces-{i}", argv, units=2 * res * res, need_per_solve=0,
                        check=_check_surfaces,
                        params={"Omega": Omega, "g": g, "resolution": res}))
    return jobs


WORKLOADS = {
    "berry_loop": berry_loop,
    "spectrum_scan": spectrum_scan,
    "surfaces_io": surfaces_io,
}
