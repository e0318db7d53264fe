"""Tests of the benchmark itself: inputs, span arithmetic and the oracles."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import Span, children_of, layer_metrics, self_time
from workloads import WORKLOADS

from jcrabi import cli


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_commands(name):
    make = WORKLOADS[name]
    assert [j.argv for j in make(7)] == [j.argv for j in make(7)]
    assert [j.argv for j in make(7)] != [j.argv for j in make(8)]


def _span(name, start, end, parent=-1, job="j", info=None):
    return Span(name, start, end, parent, job, info)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("spectra.a", 1.0, 4.0, parent=0),
        _span("spectra.b", 3.0, 6.0, parent=0),  # overlaps a: union is 1 .. 6
        _span("models.c", 2.0, 3.0, parent=1),
        _span("output.d", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    kids = children_of(spans)
    assert self_time(spans, kids, 0) == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_time(spans, kids, 1) == pytest.approx(2.0)
    assert self_time(spans, kids, 3) == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_family():
    eig = {"dim": 10, "complex": True, "returned": 10}
    spans = [
        _span("cli.main", 0.0, 12.0, job="berry-jc"),
        _span("berry.eig_family", 1.0, 11.0, parent=0, job="berry-jc"),
        _span("models.build_hamiltonian", 1.0, 1.5, parent=1, job="berry-jc"),
        _span("kernel.numpy.linalg.eigh", 2.0, 4.0, parent=1, job="berry-jc", info=eig),
        _span("kernel.numpy.linalg.eigh", 5.0, 7.0, parent=1, job="berry-jc",
              info=dict(eig, complex=False)),
        _span("models.phase_factors", 8.0, 9.0, parent=1, job="berry-jc"),
        _span("output.write_csv", 11.0, 11.5, parent=0, job="berry-jc"),
        _span("output.metadata_lines", 11.0, 11.1, parent=6, job="berry-jc"),
    ]
    m = layer_metrics(spans, {"berry-jc": 1}, nodes=2, bytes_written=1_000_000)
    assert m["kernel.eigh.calls"] == 2
    assert m["kernel.eigh.s"] == pytest.approx(4.0)
    assert m["kernel.eigh.n3_sum"] == 2000.0
    assert m["kernel.eigh.complex_share"] == 0.5
    assert m["kernel.useful_ratio"] == pytest.approx(2 / 20)
    assert m["models.build.calls"] == 1
    assert m["berry.eig_family.s"] == pytest.approx(10.0)
    assert m["berry.step_ms"] == pytest.approx(5000.0)
    # the rotation (phase_factors) is tracking work; kernel and build are not
    assert m["berry.track.self_s"] == pytest.approx(10.0 - 4.0 - 0.5)
    assert m["berry.self_s"] == pytest.approx(10.0 - 4.0 - 0.5 - 1.0)
    assert m["output.files"] == 1
    assert m["output.write.s"] == pytest.approx(0.5)
    assert m["output.mb_per_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(12.0 - 10.0 - 0.5)


def _run_cli(job, out, **overrides):
    argv = list(job.argv)
    for flag, value in overrides.items():
        argv[argv.index(flag) + 1] = value
    assert cli.main([*argv, "--out", str(out)]) == 0


def _failed(checks):
    return [c.name for c in checks if not c.ok]


def test_berry_oracle_counts_perturbed_phase_and_corrupt_file(tmp_path, capsys):
    job = next(j for j in workloads.berry_loop(3) if j.name == "berry-jc")
    _run_cli(job, tmp_path, **{"--nmax": "4"})  # K stays 720; a small space keeps it fast
    assert _failed(job.check(tmp_path, job)) == []

    summary = tmp_path / "berry_summary.json"
    doc = json.loads(summary.read_text())
    doc["wilson_gamma"] += 0.01
    summary.write_text(json.dumps(doc))
    assert len(_failed(job.check(tmp_path, job))) == 2  # vs generator and vs closed form

    summary.write_text(summary.read_text()[:40])
    assert _failed(job.check(tmp_path, job)) == ["berry-jc berry_summary.json"]


def test_surface_oracle_counts_corrupt_csv(tmp_path, capsys):
    job = workloads.surfaces_io(5)[0]
    job = dataclasses.replace(job, params=dict(job.params, resolution=21))
    _run_cli(job, tmp_path, **{"--resolution": "21"})
    assert _failed(job.check(tmp_path, job)) == []

    csv = tmp_path / "surface_rabi.csv"
    lines = csv.read_text().splitlines(keepends=True)
    lines[-5] = lines[-5].replace(",", ";", 1)
    csv.write_text("".join(lines))
    assert _failed(job.check(tmp_path, job)) == ["surface_rabi.csv shape"]


def test_changed_byte_changes_digest(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "x.csv").write_text("1,2\n")
    first = run.Iteration(1.0, 1, [], *run.digest_tree(tmp_path))
    (tmp_path / "a" / "x.csv").write_text("1,3\n")
    second = run.Iteration(1.0, 1, [], *run.digest_tree(tmp_path))
    assert [c.ok for c in run.digest_checks([first, first, second])] == [True, False]

    monkeypatch.setattr(run, "LEDGER", tmp_path / "digests.json")
    assert run.ledger_check("w/1/src", first.digest) == []
    assert [c.ok for c in run.ledger_check("w/1/src", second.digest)] == [False]


def test_refuses_to_run_without_the_package(tmp_path):
    script = Path(run.__file__).resolve()
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "berry_loop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
