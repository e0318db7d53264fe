"""End-to-end benchmark of the jcrabi command line.

    python3 benchmarks/run.py --workload berry_loop --seed 1 --seconds 20 --trace 0

Run it from the root of a jcrabi checkout; it imports the package from
./src.  One caller runs ``jcrabi`` commands in-process through
``jcrabi.cli.main`` in a closed loop: each command starts only after the
previous one returns.  BLAS keeps its default thread count.  Every output is
checked by an independent oracle (see workloads.py) and hashed; a command
that exits non-zero, a failed oracle or a changed rerun digest is a failed
check.

--trace 0 repeats the workload's commands for at most --seconds (always at
least once) and reports the end-to-end metrics: medians over the repeats,
plus set-up time and peak memory.  --trace 1 runs the commands once
untraced and once traced, and reports the per-layer metrics and a kernel
probe.  The last line of standard output is the result as JSON; the full
record, with the environment, goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

SRC = Path("src")
WORK = Path(".bench_work")
OUT = WORK / "out"
LEDGER = WORK / "digests.json"
SETUP_SPAWNS = 11
PROBE_DIMS = (302, 402, 1002)
PROBE_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Iteration:
    wall: float      # seconds inside jcrabi.cli.main, summed over the jobs
    units: int
    checks: list
    digest: str
    nbytes: int


def digest_tree(root: Path):
    """SHA-256 over the relative path and bytes of every file under root."""
    h, nbytes = hashlib.sha256(), 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                h.update(chunk)
                nbytes += len(chunk)
        h.update(b"\0")
    return h.hexdigest(), nbytes


def run_iteration(cli, jobs, tracer=None) -> Iteration:
    """Run each job once, back to back, then check and hash what they wrote."""
    shutil.rmtree(OUT, ignore_errors=True)
    wall, checks = 0.0, []
    for job in jobs:
        out = OUT / job.name
        err = io.StringIO()
        if tracer is not None:
            tracer.job = job.name
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main([*job.argv, "--out", out.as_posix()])
            except Exception:  # a crash is a failed job, not a crashed benchmark
                rc = None
                traceback.print_exc()
            wall += time.perf_counter() - start
        checks.append(Check(f"{job.name} exit code", rc == 0, f"rc={rc} {err.getvalue()[-400:]}"))
        checks += job.check(out, job)
    digest, nbytes = digest_tree(OUT)
    return Iteration(wall, sum(j.units for j in jobs), checks, digest, nbytes)


def ledger_check(key: str, digest: str) -> list:
    """Compare with an earlier run of the same seed on the same source."""
    book = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    if key not in book:
        book[key] = digest
        tmp = LEDGER.with_suffix(".tmp")
        tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
        os.replace(tmp, LEDGER)
        return []
    return [Check("digest equals earlier run of this seed", book[key] == digest,
                  f"{digest[:16]} vs {book[key][:16]}")]


def digest_checks(iterations) -> list:
    first = iterations[0].digest
    return [Check(f"rerun {i} digest", it.digest == first, f"{it.digest[:16]} vs {first[:16]}")
            for i, it in enumerate(iterations[1:], 1)]


def measure_setup() -> float:
    """Median time from spawning a fresh interpreter to ``import jcrabi`` done.

    The child reports time.monotonic() after the import; on Linux that clock
    is system-wide, so it compares with the parent's clock at spawn.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.resolve()), env.get("PYTHONPATH")]))
    code = "import jcrabi, time; print(repr(time.monotonic()))"
    samples = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip()) - start)
    return statistics.median(samples)


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "jcrabi").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not Path(".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int, source: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")  # read without importing scipy
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "git_commit": git_commit(),
        "source_sha256": source,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def rabi_matrix(dim: int, g: float = 0.5, Omega: float = 1.0) -> "np.ndarray":
    """Lab-frame Rabi Hamiltonian (real, qubit-outer) of the given joint dim."""
    import numpy as np

    nf = dim // 2
    a = np.diag(np.sqrt(np.arange(1.0, nf)), k=1)
    field = np.diag(np.arange(nf, dtype=float))
    sx, sz = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    return (np.kron(np.eye(2), field) + 0.5 * Omega * np.kron(sz, np.eye(nf))
            + g * np.sqrt(2.0) * np.kron(sx, a + a.T))


def kernel_probe() -> dict:
    """Median eigh time at the workloads' dims, complex (rotated) and real."""
    import numpy as np

    out = {}
    for dim in PROBE_DIMS:
        h = rabi_matrix(dim)
        d = np.tile(np.exp(-0.3j * np.arange(dim // 2)), 2)  # U(phi = 0.3)
        for tag, a in (("c", d[:, None] * h * d.conj()[None, :]), ("r", h)):
            times = []
            for _ in range(PROBE_REPS):
                start = time.perf_counter()
                np.linalg.eigh(a)
                times.append(time.perf_counter() - start)
            out[f"kernel.probe.{tag}{dim}_ms"] = 1e3 * statistics.median(times)
    return out


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def import_cli():
    sys.path.insert(0, str(SRC.resolve()))
    import jcrabi
    import jcrabi.cli

    if not Path(jcrabi.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"jcrabi imported from {jcrabi.__file__}, not from ./src")
    return jcrabi.cli


def run_untraced(jobs, seconds: int):
    setup = measure_setup()
    cli = import_cli()
    iterations, loop_start = [], time.perf_counter()
    while True:
        start = time.perf_counter()
        iterations.append(run_iteration(cli, jobs))
        now = time.perf_counter()
        if (now - loop_start) + (now - start) > seconds:  # the next one would overrun
            break
    metrics = {
        "wall_s": statistics.median(it.wall for it in iterations),
        "units_per_s": statistics.median(it.units / it.wall for it in iterations),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return iterations, metrics, None


def run_traced(jobs):
    tracer = Tracer()
    tracer.install_kernel()
    cli = import_cli()
    tracer.install_package("jcrabi")
    untraced = run_iteration(cli, jobs)
    cpu = cpu_seconds()
    tracer.enabled = True
    try:
        traced = run_iteration(cli, jobs, tracer)
    finally:
        tracer.enabled = False
    cpu = cpu_seconds() - cpu
    metrics = layer_metrics(
        tracer.spans,
        need_per_solve={j.name: j.need_per_solve for j in jobs},
        nodes=sum(j.nodes for j in jobs),
        bytes_written=traced.nbytes,
    )
    metrics["process.cpu_s"] = cpu
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead_s"] = traced.wall - untraced.wall
    metrics.update(kernel_probe())
    return [untraced, traced], metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jcrabi" / "__init__.py").is_file():
        print("benchmark: no ./src/jcrabi here; run from the root of a jcrabi checkout",
              file=sys.stderr)
        return 2
    jobs = WORKLOADS[args.workload](args.seed)
    source = source_sha256()
    for sub in ("results", "spans"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            iterations, metrics, tracer = run_traced(jobs)
        else:
            iterations, metrics, tracer = run_untraced(jobs, args.seconds)
    except (ImportError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark: cannot run jcrabi from ./src: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    checks = [c for it in iterations for c in it.checks]
    checks += digest_checks(iterations)
    checks += ledger_check(f"{args.workload}/{args.seed}/{source}", iterations[0].digest)
    failed = [c for c in checks if not c.ok]
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args.seed, source)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "jobs": [list(j.argv) for j in jobs],
        "iterations": [{"wall_s": it.wall, "digest": it.digest, "bytes": it.nbytes}
                       for it in iterations],
        "failed_checks": [c.__dict__ for c in failed],
        **result,
    }
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(WORK / "spans" / f"{tag}.jsonl")
    print(f"env {json.dumps(env)}", file=sys.stderr)
    for c in failed:
        print(f"FAILED {c.name}: {c.detail}", file=sys.stderr)
    print(f"{tag}: {len(iterations)} iteration(s), wall {[round(it.wall, 3) for it in iterations]} s, "
          f"{len(failed)}/{len(checks)} checks failed", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
