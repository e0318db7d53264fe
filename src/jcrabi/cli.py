"""Command line front end.

Subcommands: spectrum | berry | surfaces | convergence | crossing | verify.
Configuration comes from flags or a single JSON file (--config); flags
override the file.  Each command reads a fixed set of configuration
fields: it takes exactly their flags and config keys, records exactly
those fields in its output metadata, and rejects any other flag or key.
Flags are spelled in full, never abbreviated.  Exit codes: 0 success,
1 usage error (a request that does not fit in memory among them),
2 numerical failure, 3 acceptance failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, acceptance, berry, spectra, surfaces
from .berry import TrackingError
from .fock import TruncationConfig
from .linalg import ConvergenceError
from .models import ModelKind, ModelParams
from .output import row_slices, write_csv, write_json, write_svg_heatmap, write_svg_lines


class UsageError(Exception):
    pass


class RunFailure(Exception):
    """A numerical failure of one named run: a coupling or a criterion."""


# The numerical failures of the library; ValueError covers the parameter
# refusals and the non-finite band entry that berry._solve_level refuses.
_NUMERICAL = (TrackingError, ConvergenceError, ValueError)


# Accepted Python types per RunConfig field annotation (bool is rejected).
_FIELD_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


@dataclass
class RunConfig:
    model: str = "jc"
    omega: float = 1.0
    Omega: float = 1.0
    g: float = 0.1
    n_max: int = 200
    k_levels: int = 11
    phi_nodes: int = 720
    gauge: str = "anchor"
    level: int = 1
    output_dir: str = "."

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise UsageError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise UsageError(f"{f.name} must be finite, got {value!r}")
        if self.model not in ("jc", "rabi", "both"):
            raise UsageError(f"model must be jc, rabi or both, got {self.model!r}")
        if self.omega <= 0:
            raise UsageError(f"omega must be positive, got {self.omega}")
        if self.Omega < 0:
            raise UsageError(f"Omega must be nonnegative, got {self.Omega}")
        if self.g < 0:
            raise UsageError(f"g must be nonnegative, got {self.g}")
        if self.n_max < 1:
            raise UsageError(f"nmax must be >= 1, got {self.n_max}")
        if self.k_levels < 1:
            raise UsageError(f"levels must be >= 1, got {self.k_levels}")
        if self.phi_nodes < berry.MIN_NODES:
            raise UsageError(f"phi-nodes must be >= {berry.MIN_NODES}, got {self.phi_nodes}")
        if self.phi_nodes % 2:
            # the K/2 residual estimate needs every other node to close the loop
            raise UsageError(f"phi-nodes must be even, got {self.phi_nodes}")
        if self.gauge not in _GAUGES:
            raise UsageError(f"gauge must be anchor or parallel, got {self.gauge!r}")
        dim = self.cfg().dim_joint
        if not 0 <= self.level < dim:
            raise UsageError(
                f"level must be in [0, 2(nmax+1)) = [0, {dim}) for nmax={self.n_max}, "
                f"got {self.level}"
            )

    def params(self) -> ModelParams:
        return ModelParams(Omega=self.Omega, g=self.g, omega=self.omega)

    def cfg(self) -> TruncationConfig:
        return TruncationConfig(self.n_max)

    def metadata(self, command: str, **extra) -> dict:
        """Version, the fields command reads, the command and its own inputs."""
        meta = {"jcrabi": __version__}
        meta.update((f.name, getattr(self, f.name)) for f in fields(self)
                    if f.name in _READS[command])
        meta.update(command=command, **extra)
        return meta


# The berry.gauge_fix gauge of each --gauge value.
_GAUGES = {"parallel": "parallel_transport", "anchor": "anchor_component"}

# The flag that sets each RunConfig field; the parsed value lands under the
# field's own name.
_FLAGS = {
    "model": ("--model", dict(choices=["jc", "rabi", "both"])),
    "omega": ("--omega", dict(type=float)),
    "Omega": ("--Omega", dict(type=float)),
    "g": ("--g", dict(type=float)),
    "n_max": ("--nmax", dict(type=int)),
    "k_levels": ("--levels", dict(type=int)),
    "phi_nodes": ("--phi-nodes", dict(type=int)),
    "gauge": ("--gauge", dict(choices=list(_GAUGES))),
    "level": ("--level", dict(type=int)),
    "output_dir": ("--out", dict(type=str)),
}

# The RunConfig fields each command reads: its flags, its config keys and
# its metadata are these and no others.
_READS = {
    "spectrum": {"model", "omega", "Omega", "n_max", "k_levels", "output_dir"},
    "berry": {"model", "omega", "Omega", "g", "n_max", "phi_nodes", "gauge", "level",
              "output_dir"},
    "surfaces": {"model", "omega", "Omega", "g", "output_dir"},
    "convergence": {"model", "omega", "Omega", "g", "k_levels", "output_dir"},
    "crossing": {"model", "omega", "Omega", "n_max", "output_dir"},
    "verify": {"output_dir"},
}


def _load_config(args) -> RunConfig:
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(values, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        unknown = set(values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
    cfg = RunConfig(**values)
    for name in _READS[args.command]:
        value = getattr(args, name)
        if value is not None:
            # berry's repeated --g: the first value stands for the config
            setattr(cfg, name, value[0] if isinstance(value, list) else value)
    cfg.validate()
    # after validate, so a malformed value reads as such whichever command runs
    unread = sorted(set(values) - _READS[args.command])
    if unread:
        raise UsageError(
            f"config file {args.config} sets {', '.join(unread)}, which "
            f"{args.command} does not read"
        )
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise UsageError(f"output directory {out} is not writable: {exc}") from exc
    return out


def _check_levels(k_levels: int, n_max: int):
    dim = TruncationConfig(n_max).dim_joint
    if k_levels > dim:
        raise UsageError(
            f"levels must be <= 2(nmax+1) = {dim} for nmax={n_max}, got {k_levels}"
        )


def _check_finite(flag: str, value: float):
    if not math.isfinite(value):
        raise UsageError(f"{flag} must be finite, got {value!r}")


def _parse_n_list(text: str) -> list:
    try:
        n_list = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"n-list must be comma-separated integers, got {text!r}") from exc
    if not n_list or n_list[0] < 1 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise UsageError(f"n-list must be strictly ascending integers >= 1, got {text!r}")
    return n_list


def _model_kinds(cfg: RunConfig):
    names = ("jc", "rabi") if cfg.model == "both" else (cfg.model,)
    return [ModelKind(name) for name in names]


def _evidence(table) -> dict:
    """The '#' lines that say how a table's levels were solved: the order of
    the largest block and the largest certified residual over its rows."""
    return {"max_block_order": int(np.max(table.block)),
            "max_certified_residual": float(np.max(table.residual))}


def cmd_spectrum(cfg: RunConfig, g_min: float, g_max: float, g_step: float, svg: bool) -> int:
    for flag, value in (("g-min", g_min), ("g-max", g_max), ("g-step", g_step)):
        _check_finite(flag, value)
    if g_min < 0:
        raise UsageError(f"g-min must be >= 0, got {g_min}")
    if g_step <= 0 or g_max < g_min:
        raise UsageError("need g-step > 0 and g-max >= g-min")
    _check_levels(cfg.k_levels, cfg.n_max)
    if svg and cfg.model != "both":
        raise UsageError("--svg overlays JC and Rabi; it needs --model both")
    # the last point never overshoots g-max; the slack absorbs rounding
    n_steps = math.floor((g_max - g_min) / g_step + 1e-9)
    try:
        g_grid = np.round(g_min + g_step * np.arange(n_steps + 1), 12)
    except ValueError as exc:
        raise UsageError(f"--g-min {g_min:g}, --g-max {g_max:g} and --g-step {g_step:g} give "
                         f"{n_steps + 1:.3g} couplings, more than numpy can hold: {exc}") from exc
    out = _out_dir(cfg)
    tables = {}
    for kind in _model_kinds(cfg):
        table = spectra.spectrum_sweep(kind, cfg.params(), g_grid, cfg.k_levels, cfg.cfg())
        tables[kind.model] = table
        header = ["g"] + [f"E{i}" for i in range(1, cfg.k_levels + 1)]
        path = write_csv(
            out / f"spectrum_{kind.model}.csv", header, [[table.g_values, *table.levels.T]],
            cfg.metadata("spectrum", g_min=g_min, g_max=g_max, g_step=g_step,
                         this_model=kind.model, **_evidence(table)),
        )
        print(f"wrote {path}")
    if svg:
        series = []
        for name, table in tables.items():
            for j in range(cfg.k_levels):
                label = f"{name} E{j + 1}" if j == 0 else ""
                series.append((label, table.g_values, table.levels[:, j]))
        path = write_svg_lines(
            out / "spectrum_overlay.svg", series,
            "JC (green) vs Rabi (black) lowest levels", "g", "E",
            cfg.metadata("spectrum"),
        )
        print(f"wrote {path}")
    return 0


def cmd_berry(cfg: RunConfig, g_values, svg: bool) -> int:
    if cfg.model == "both":
        raise UsageError("berry tracks one model at a time; pick --model jc or rabi")
    for g in g_values:
        replace(cfg, g=g).validate()
    labels = [f"{g:g}" for g in g_values]
    shared = [g for g, label in zip(g_values, labels) if labels.count(label) > 1]
    if shared:
        raise UsageError(f"--g values {shared} would write the same berry_curve_g<g>.csv")
    out = _out_dir(cfg)
    gauge = _GAUGES[cfg.gauge]
    # every coupling is computed before any file is written
    loops = []
    for g in g_values:
        p = ModelParams(Omega=cfg.Omega, g=g, omega=cfg.omega)
        try:
            loops.append(berry.fock_loop(cfg.model, p, cfg.level, cfg.phi_nodes, cfg.cfg(), gauge))
        except _NUMERICAL as exc:
            raise RunFailure(f"{cfg.model} g={g:g}: {exc}") from exc
    runs = []
    curves = []
    for g, loop in zip(g_values, loops):
        conn, wilson = loop.connection, loop.wilson
        summary = {
            "g": g,
            "wilson_gamma": wilson.gamma,
            "connection_gamma": conn.gamma,
            "connection_gamma_unwrapped": conn.gamma_unwrapped,
            "generator_gamma": loop.generator,
            "residual": conn.residual,
            "gauge": conn.gauge,
            "min_step_overlap": loop.min_step_overlap,
            "eigen_residual": loop.eigen_residual,
            "closure_phase": conn.closure_phase,
            "tail_weight": loop.tail_weight,
            "block_order": loop.block_order,
        }
        runs.append(summary)
        suffix = "" if len(g_values) == 1 else f"_g{g:g}"
        meta = cfg.metadata("berry", g=g, gauge=conn.gauge, K=cfg.phi_nodes)
        path = write_csv(
            out / f"berry_curve{suffix}.csv", ["phi", "partial_phase"],
            [conn.curve.T], meta,
        )
        curves.append((f"g={g:g}", conn.curve[:, 0], conn.curve[:, 1]))
        print(f"wrote {path}")
    payload = runs[0] if len(runs) == 1 else {"runs": runs}
    path = write_json(out / "berry_summary.json", payload, cfg.metadata("berry"))
    print(f"wrote {path}")
    if svg:
        path = write_svg_lines(
            out / "berry_curve.svg", curves,
            f"{cfg.model} level {cfg.level} accumulated phase ({cfg.gauge} gauge)",
            "phi", "gamma(phi)", cfg.metadata("berry"),
        )
        print(f"wrote {path}")
    return 0


def _parse_range(text: str, name: str):
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise UsageError(f"{name} must look like lo:hi, got {text!r}") from exc
    _check_finite(name, lo)
    _check_finite(name, hi)
    if hi <= lo:
        raise UsageError(f"{name}: need hi > lo, got {text!r}")
    if not math.isfinite(hi - lo):
        raise UsageError(f"{name}: hi - lo must be finite, got {text!r}")
    return lo, hi


def _surface_rows(kind: ModelKind, params: ModelParams, x_axis, p_axis, gap):
    """The rows of a surface CSV as column blocks, one per row_slices slice
    of whole x-rows; every node is evaluated once, and its gap is copied
    into gap[i, j] as its block is made."""
    for rows in row_slices(len(x_axis), len(p_axis)):
        grid = surfaces.boa_surface(kind, params, x_axis[rows], p_axis)
        gap[rows] = grid.gap
        yield [np.repeat(grid.x_axis, len(p_axis)), np.tile(p_axis, len(grid.x_axis)),
               grid.lower.ravel(), grid.upper.ravel(), grid.gap.ravel()]


def cmd_surfaces(cfg: RunConfig, x_range: str, p_range: str, resolution: int, svg: bool) -> int:
    if resolution < 2:
        raise UsageError(f"resolution must be >= 2, got {resolution}")
    x_lo, x_hi = _parse_range(x_range, "x-range")
    p_lo, p_hi = _parse_range(p_range, "p-range")
    out = _out_dir(cfg)
    x_axis = np.linspace(x_lo, x_hi, resolution)
    p_axis = np.linspace(p_lo, p_hi, resolution)
    # the one full-grid array: each model's gap, filled as its CSV is written
    gap = np.empty((len(x_axis), len(p_axis)))
    # the run's files, and its lines for stdout and stderr, printed once every file is written
    written, lines, notes = [], [], []
    try:
        for kind in _model_kinds(cfg):
            meta = cfg.metadata("surfaces", x_range=x_range, p_range=p_range,
                                resolution=resolution, this_model=kind.model)
            path = out / f"surface_{kind.model}.csv"
            written.append(path)
            write_csv(path, ["x", "p", "E_minus", "E_plus", "gap"],
                      _surface_rows(kind, cfg.params(), x_axis, p_axis, gap), meta)
            lines.append(f"wrote {path}")
            report = surfaces.classify_degeneracy(x_axis, p_axis, gap)
            payload = {
                "min_gap": report.min_gap,
                "locus": report.locus,
                "tol_gap": report.tol_gap,
                "n_minimal_cells": len(report.coordinates),
                "coordinates": report.coordinates,
            }
            path = out / f"degeneracy_{kind.model}.json"
            written.append(path)
            write_json(path, payload, meta)
            lines.append(f"wrote {path} (locus={report.locus}, min_gap={report.min_gap:.6g})")
            if report.locus == "none" and report.min_gap <= report.tol_gap:
                notes.append(
                    f"note: {kind.model} min_gap {report.min_gap:.3g} is within tol_gap "
                    f"{report.tol_gap:.3g}, but the grid is too coarse to call it a point; "
                    "raise --resolution (about 23 points per axis resolve a cone apex)"
                )
            if svg:
                path = out / f"surface_gap_{kind.model}.svg"
                written.append(path)
                write_svg_heatmap(path, x_axis, p_axis, gap,
                                  f"{kind.model} adiabatic gap", meta)
                lines.append(f"wrote {path}")
    except BaseException:
        # a failure of either model leaves no file of the run
        for path in written:
            path.unlink(missing_ok=True)
        raise
    for line in lines:
        print(line)
    for note in notes:
        print(note, file=sys.stderr)
    return 0


def cmd_convergence(cfg: RunConfig, n_list) -> int:
    if cfg.model == "both":
        raise UsageError("convergence studies one model at a time; pick --model jc or rabi")
    _check_levels(cfg.k_levels, n_list[0])
    out = _out_dir(cfg)
    kind = ModelKind(cfg.model)
    table = spectra.convergence_study(kind, cfg.params(), cfg.g, cfg.k_levels, n_list)
    header = ["n_max"] + [f"E{i}" for i in range(1, cfg.k_levels + 1)] + ["max_change"]
    columns = [table.n_values, *table.levels.T, np.r_[np.nan, table.max_changes]]
    meta = cfg.metadata("convergence", n_list=",".join(str(n) for n in n_list),
                        **_evidence(table))
    path = write_csv(out / f"convergence_{kind.model}.csv", header, [columns], meta)
    print(f"wrote {path}")
    return 0


def cmd_crossing(cfg: RunConfig, g_lo: float, g_hi: float) -> int:
    if cfg.model != "jc":
        raise UsageError(f"crossing is a JC quantity; --model must be jc, got {cfg.model}")
    _check_finite("g-lo", g_lo)
    _check_finite("g-hi", g_hi)
    if not 0 <= g_lo < g_hi:
        raise UsageError(f"need 0 <= g-lo < g-hi, got g-lo={g_lo}, g-hi={g_hi}")
    out = _out_dir(cfg)
    try:
        res = spectra.ground_crossing(cfg.params(), cfg.cfg(), g_lo, g_hi)
    except spectra.NoCrossingError as exc:
        raise UsageError(str(exc)) from exc
    payload = {
        "analytic_g": res.analytic_g,
        "numerical_g": res.numerical_g,
        "quoted_g": res.quoted_g,
        "note": res.note,
    }
    path = write_json(out / "crossing.json", payload,
                      cfg.metadata("crossing", g_lo=g_lo, g_hi=g_hi))
    print(f"ground-state crossing: analytic g* = {res.analytic_g:.10f}, "
          f"numerical g* = {res.numerical_g:.10f}")
    print(res.note)
    print(f"wrote {path}")
    return 0


def cmd_verify(cfg: RunConfig, only) -> int:
    numbers = acceptance.CRITERIA
    if only is not None:
        try:
            numbers = [int(tok) for tok in only.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"--only expects comma-separated criterion numbers: {exc}") from exc
        if not numbers or any(n not in acceptance.CRITERIA for n in numbers):
            raise UsageError(f"--only expects criterion numbers in 1..12, got {only!r}")
        repeated = sorted({n for n in numbers if numbers.count(n) > 1})
        if repeated:
            raise UsageError(f"--only lists criteria {repeated} more than once, got {only!r}")
    out = _out_dir(cfg)
    suite = acceptance.AcceptanceSuite()
    results = []
    for number in numbers:
        try:
            results.append(suite.run(number))
        except _NUMERICAL as exc:
            raise RunFailure(f"criterion {number}: {exc}") from exc
    report = acceptance.format_report(results)
    print(report)
    for r in results:
        print(f"time  criterion {r.number:2d}: {r.elapsed:.1f}s", file=sys.stderr)
    (out / "verify_report.txt").write_text(report + "\n", newline="\n")
    print(f"wrote {out / 'verify_report.txt'}")
    for r in results:
        for g, conn in r.curves.items():
            meta = cfg.metadata("verify", model="rabi", g=g, level=1, K=suite.berry_k,
                                n_max=suite.berry_cfg.n_max, gauge=conn.gauge)
            path = write_csv(out / f"investigation_rabi_g{g:g}.csv",
                             ["phi", "partial_phase"], [conn.curve.T], meta)
            print(f"wrote {path}")
    failed = [r for r in results if r.bound and not r.passed]
    return 3 if failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it as it was."""
    parser = _Parser(prog="jcrabi", description=__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"jcrabi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(command, help_text):
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for name, (flag, kwargs) in _FLAGS.items():
            if name in _READS[command]:
                if command == "berry" and name == "g":
                    kwargs = dict(kwargs, action="append")  # one curve per --g
                sp.add_argument(flag, dest=name, **kwargs)
        sp.add_argument("--config", type=str)
        return sp

    sp = add_command("spectrum", "lowest-levels sweep over the coupling")
    sp.add_argument("--g-min", type=float, default=0.0)
    sp.add_argument("--g-max", type=float, default=1.5)
    sp.add_argument("--g-step", type=float, default=0.01)
    sp.add_argument("--svg", action="store_true")

    sp = add_command("berry", "geometric phase of a tracked level")
    sp.add_argument("--svg", action="store_true")

    sp = add_command("surfaces", "adiabatic energy surfaces and gap locus")
    sp.add_argument("--x-range", type=str, default="-3:3")
    sp.add_argument("--p-range", type=str, default="-3:3")
    sp.add_argument("--resolution", type=int, default=61)
    sp.add_argument("--svg", action="store_true")

    sp = add_command("convergence", "spectrum vs Fock-space cutoff")
    sp.add_argument("--n-list", type=str, default="100,200,300,500")

    sp = add_command("crossing", "ground-state crossing coupling")
    sp.add_argument("--g-lo", type=float, default=0.3)
    sp.add_argument("--g-hi", type=float, default=1.2)

    sp = add_command("verify", "run the acceptance suite")
    sp.add_argument("--only", type=str, help="comma-separated criterion numbers in 1..12")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        cfg = _load_config(args)
        if args.command == "spectrum":
            return cmd_spectrum(cfg, args.g_min, args.g_max, args.g_step, args.svg)
        if args.command == "berry":
            g_values = args.g if args.g else [cfg.g]
            return cmd_berry(cfg, g_values, args.svg)
        if args.command == "surfaces":
            return cmd_surfaces(cfg, args.x_range, args.p_range, args.resolution, args.svg)
        if args.command == "convergence":
            return cmd_convergence(cfg, _parse_n_list(args.n_list))
        if args.command == "crossing":
            return cmd_crossing(cfg, args.g_lo, args.g_hi)
        if args.command == "verify":
            return cmd_verify(cfg, args.only)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation it refused, on one line
        print(f"usage error: the {args.command} request does not fit in memory "
              f"({exc or 'MemoryError'})", file=sys.stderr)
        return 1
    except (RunFailure, *_NUMERICAL) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
