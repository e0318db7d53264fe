"""Spans around the calls into each jcrabi layer, recorded from outside.

The tracer wraps functions; the program is not edited.  Each public function
of a jcrabi module is wrapped where it is defined and under every name a
jcrabi module imported it by, so calls between modules are seen too.  The
kernel is the LAPACK eigensolver: ``numpy.linalg.eigh`` and the scipy
solvers a sector core may switch to.  Wrap the kernel before jcrabi is
imported, so a ``from scipy.linalg import ...`` at import time gets the
wrapper.

A span is (name, start, end, parent, job, info).  Spans stay in memory and
are written out when the run ends.  A layer's self time is its span time
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import namedtuple
from time import perf_counter

import numpy as np

Span = namedtuple("Span", "name start end parent job info")

KERNEL_TARGETS = (
    ("numpy.linalg", "eigh"),
    ("scipy.linalg", "eigh"),
    ("scipy.linalg", "eigh_tridiagonal"),
    ("scipy.linalg", "eigvalsh_tridiagonal"),
)
# output.fmt runs once per written value (about 800 000 times per surface
# CSV); a span per call would cost more than the work it measures, so its
# time stays in the writer's self time.  cli.entry calls sys.exit.
NOT_WRAPPED = {"jcrabi.output.fmt", "jcrabi.cli.entry"}
# fock builds the operators the models layer assembles: one layer.
LAYER_OF_MODULE = {"fock": "models"}


def _describe_eigensolve(args, kwargs, result) -> dict:
    a = args[0] if args else kwargs.get("a", kwargs.get("d"))
    values = result[0] if isinstance(result, tuple) else result
    return {
        "dim": int(np.shape(a)[-1]),
        "complex": bool(np.iscomplexobj(a)),
        "returned": int(np.shape(values)[-1]),
    }


class Tracer:
    """Records spans while ``enabled``; a disabled wrapper only forwards."""

    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, describe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id children point at
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            result, start = None, perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                info = describe(args, kwargs, result) if describe and result is not None else None
                tracer.spans[idx] = Span(name, start, end, parent, tracer.job, info)

        return traced

    def install_kernel(self):
        """Wrap the LAPACK eigensolvers; call before jcrabi is imported."""
        for module_name, attr in KERNEL_TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self.wrap(f"kernel.{module_name}.{attr}", fn,
                                                _describe_eigensolve))

    def install_package(self, package: str = "jcrabi") -> int:
        """Wrap every public function of the package's modules; returns the count."""
        pkg = importlib.import_module(package)
        modules = [pkg] + [
            importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)
            if not info.name.startswith("_")
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[-1]
            layer = LAYER_OF_MODULE.get(short, short)
            for attr, obj in vars(module).items():
                qual = f"{module.__name__}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and qual not in NOT_WRAPPED):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        return len(wrappers)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")


# ------------------------------------------------------------------ arithmetic

def children_of(spans) -> list:
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            kids[s.parent].append(i)
    return kids


def covered(span, intervals) -> float:
    """Length of the union of the intervals, clipped to the span."""
    total, cursor = 0.0, span.start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, span.end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(spans, kids, i, counts=lambda child: True) -> float:
    """Duration of span i minus what its (selected) direct children cover."""
    s = spans[i]
    intervals = [(spans[c].start, spans[c].end) for c in kids[i] if counts(spans[c])]
    return (s.end - s.start) - covered(s, intervals)


def has_ancestor(spans, i, names) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return True
        p = spans[p].parent
    return False


BUILDS = {"models.build_hamiltonian", "models.build_jc", "models.build_rabi"}
ESTIMATORS = {"berry.gauge_fix", "berry.wilson_loop", "berry.connection_curve"}
WRITERS = {"output.write_csv", "output.write_json", "output.write_svg_lines",
           "output.write_svg_heatmap"}


def layer_metrics(spans, need_per_solve: dict, nodes: int, bytes_written: int) -> dict:
    """Per-layer figures of one traced pass.

    need_per_solve maps job id -> eigenpairs each solve of that job needs;
    nodes is the number of phi nodes the pass tracked; bytes_written is the
    size of every file the pass wrote.
    """
    kids = children_of(spans)
    layer = [s.name.split(".", 1)[0] for s in spans]

    def outermost(names):
        return [s for i, s in enumerate(spans) if s.name in names
                and not has_ancestor(spans, i, names)]

    def total(names):
        return sum(s.end - s.start for s in outermost(names))

    kernel = [i for i in range(len(spans)) if layer[i] == "kernel"]
    info = {i: spans[i].info or {"dim": 0, "complex": False, "returned": 0} for i in kernel}
    kernel_s = sum(spans[i].end - spans[i].start for i in kernel)
    returned = sum(info[i]["returned"] for i in kernel)
    needed = sum(need_per_solve.get(spans[i].job, 0) for i in kernel)
    n_complex = sum(1 for i in kernel if info[i]["complex"])

    def layer_self(name):
        return sum(self_time(spans, kids, i) for i in range(len(spans)) if layer[i] == name)

    eig_family = [i for i, s in enumerate(spans) if s.name == "berry.eig_family"]
    family_s = sum(spans[i].end - spans[i].start for i in eig_family)
    track_self = sum(
        self_time(spans, kids, i, lambda c: c.name.startswith("kernel.") or c.name in BUILDS)
        for i in eig_family
    )
    write_s = total(WRITERS)
    return {
        "kernel.eigh.calls": len(kernel),
        "kernel.eigh.s": kernel_s,
        "kernel.eigh.n3_sum": float(sum(info[i]["dim"] ** 3 for i in kernel)),
        "kernel.eigh.complex_share": n_complex / len(kernel) if kernel else 0.0,
        "kernel.useful_ratio": needed / returned if returned else 0.0,
        "models.build.calls": len(outermost(BUILDS)),
        "models.build.s": total(BUILDS),
        "linalg.hermitian_eig.calls": len(outermost({"linalg.hermitian_eig"})),
        "linalg.gate.s": sum(self_time(spans, kids, i) for i, s in enumerate(spans)
                             if s.name == "linalg.hermitian_eig"),
        "spectra.spectrum_sweep.s": total({"spectra.spectrum_sweep"}),
        "spectra.convergence_study.s": total({"spectra.convergence_study"}),
        "spectra.ground_crossing.s": total({"spectra.ground_crossing"}),
        "spectra.ground_crossing.solves": sum(
            1 for i in kernel if has_ancestor(spans, i, {"spectra.ground_crossing"})),
        "spectra.self_s": layer_self("spectra"),
        "berry.eig_family.s": family_s,
        "berry.step_ms": 1e3 * family_s / nodes if nodes else 0.0,
        "berry.track.self_s": track_self,
        "berry.estimators.s": total(ESTIMATORS),
        "berry.generator_phase.s": total({"berry.generator_phase"}),
        "berry.self_s": layer_self("berry"),
        "surfaces.boa_surface.s": total({"surfaces.boa_surface"}),
        "surfaces.classify_degeneracy.s": total({"surfaces.classify_degeneracy"}),
        "surfaces.self_s": layer_self("surfaces"),
        "output.write.s": write_s,
        "output.files": len(outermost(WRITERS)),
        "output.bytes": bytes_written,
        "output.mb_per_s": bytes_written / 1e6 / write_s if write_s else 0.0,
        "cli.self_s": layer_self("cli"),
    }
