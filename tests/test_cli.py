import dataclasses
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import jcrabi.berry as berry_module
import jcrabi.spectra as spectra_module
import jcrabi.surfaces as surfaces_module
from jcrabi import __version__, acceptance, cli
from jcrabi.cli import _load_config, build_parser, main

# The README table of what each command reads: config keys, then the flag
# that sets each key and a value it parses to.
README_READS = {
    "spectrum": {"model", "omega", "Omega", "n_max", "k_levels", "output_dir"},
    "berry": {"model", "omega", "Omega", "g", "n_max", "phi_nodes", "gauge", "level",
              "output_dir"},
    "surfaces": {"model", "omega", "Omega", "g", "output_dir"},
    "convergence": {"model", "omega", "Omega", "g", "k_levels", "output_dir"},
    "crossing": {"model", "omega", "Omega", "n_max", "output_dir"},
    "verify": {"output_dir"},
}
FLAG_OF = {
    "model": ("--model", "rabi", "rabi"),
    "omega": ("--omega", "2.0", 2.0),
    "Omega": ("--Omega", "0.5", 0.5),
    "g": ("--g", "0.3", 0.3),
    "n_max": ("--nmax", "7", 7),
    "k_levels": ("--levels", "2", 2),
    "phi_nodes": ("--phi-nodes", "32", 32),
    "gauge": ("--gauge", "parallel", "parallel"),
    "level": ("--level", "2", 2),
    "output_dir": ("--out", "elsewhere", "elsewhere"),
}


def read_rows(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    return meta, header, rows


@pytest.fixture
def forbid_node_path(monkeypatch):
    """berry's node-by-node estimators raise: the CLI loop reads the closed
    form (berry.fock_loop) and must not need them."""
    def node_path(*args, **kwargs):
        raise AssertionError("berry's node path called by the CLI")

    for name in ("wilson_loop", "connection_curve", "gauge_fix"):
        monkeypatch.setattr(berry_module, name, node_path)


class TestSpectrumCommand:
    def test_default_range_row_count_and_ground(self, tmp_path):
        rc = main([
            "spectrum", "--model", "jc", "--nmax", "40", "--levels", "5",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        meta, header, rows = read_rows(tmp_path / "spectrum_jc.csv")
        assert header[:2] == ["g", "E1"]
        assert len(rows) == 151  # g in [0, 1.5] step 0.01
        assert rows[0][0] == 0.0
        assert rows[0][1] == pytest.approx(-0.5, abs=1e-10)
        assert any("model" in line for line in meta)

    def test_byte_identical_rerun(self, tmp_path):
        args = ["spectrum", "--model", "rabi", "--nmax", "30", "--levels", "3",
                "--g-max", "0.2", "--out", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "spectrum_rabi.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "spectrum_rabi.csv").read_bytes() == first

    def test_both_models_with_overlay(self, tmp_path):
        rc = main([
            "spectrum", "--model", "both", "--nmax", "30", "--levels", "3",
            "--g-max", "0.3", "--g-step", "0.1", "--svg", "--out", str(tmp_path),
        ])
        assert rc == 0
        assert (tmp_path / "spectrum_jc.csv").exists()
        assert (tmp_path / "spectrum_rabi.csv").exists()
        svg = (tmp_path / "spectrum_overlay.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    @pytest.mark.parametrize("g_max, g_step, n_rows", [
        ("1", "0.6", 2), ("1.5", "0.01", 151), ("0.3", "0.1", 4),
    ])
    def test_grid_stops_at_g_max(self, tmp_path, g_max, g_step, n_rows):
        rc = main([
            "spectrum", "--model", "jc", "--nmax", "10", "--levels", "2",
            "--g-max", g_max, "--g-step", g_step, "--out", str(tmp_path),
        ])
        assert rc == 0
        _, _, rows = read_rows(tmp_path / "spectrum_jc.csv")
        assert len(rows) == n_rows
        assert rows[-1][0] <= float(g_max)

    def test_metadata_records_only_what_it_reads(self, tmp_path):
        rc = main([
            "spectrum", "--model", "rabi", "--nmax", "10", "--levels", "2",
            "--g-max", "0.1", "--g-step", "0.1", "--out", str(tmp_path),
        ])
        assert rc == 0
        meta, _, _ = read_rows(tmp_path / "spectrum_rabi.csv")
        assert "# n_max = 10" in meta and "# g_step = 0.1" in meta
        assert not any(line.startswith("# g =") for line in meta)

    def test_evidence_lines_add_no_column(self, tmp_path):
        assert main(["spectrum", "--model", "both", "--nmax", "200", "--out", str(tmp_path)]) == 0
        evidence = {}
        for model in ("jc", "rabi"):
            meta, header, rows = read_rows(tmp_path / f"spectrum_{model}.csv")
            assert header == ["g"] + [f"E{i}" for i in range(1, 12)]
            assert all(len(row) == 12 for row in rows)
            evidence[model] = dict(line[2:].split(" = ") for line in meta[-2:])
        # JC splits into pairs; the Rabi sweep doubles m' past 32, short of
        # the 201-element sectors, within 4 ulps of max|T| = 200
        assert evidence["jc"] == {"max_block_order": "2", "max_certified_residual": "0.0"}
        assert 32 < int(evidence["rabi"]["max_block_order"]) < 201
        assert 0 < float(evidence["rabi"]["max_certified_residual"]) <= 4 * 2.0 ** -52 * 200

    def test_bloch_siegert_visible_between_files(self, tmp_path):
        rc = main([
            "spectrum", "--model", "both", "--nmax", "120", "--levels", "3",
            "--g-min", "0.1", "--g-max", "0.1", "--g-step", "0.1",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        _, _, jc = read_rows(tmp_path / "spectrum_jc.csv")
        _, _, rb = read_rows(tmp_path / "spectrum_rabi.csv")
        rel = abs((rb[0][2] - rb[0][1]) - (jc[0][2] - jc[0][1])) / abs(jc[0][2] - jc[0][1])
        assert 1e-4 <= rel <= 3e-3


class TestBerryCommand:
    def test_summary_and_curve(self, tmp_path):
        rc = main([
            "berry", "--model", "jc", "--g", "0.1", "--nmax", "30",
            "--phi-nodes", "128", "--out", str(tmp_path),
        ])
        assert rc == 0
        meta, header, rows = read_rows(tmp_path / "berry_curve.csv")
        assert header == ["phi", "partial_phase"]
        assert len(rows) == 129  # phi_nodes + 1
        summary = json.loads((tmp_path / "berry_summary.json").read_text())
        for key in ("wilson_gamma", "connection_gamma", "generator_gamma",
                    "residual", "gauge", "eigen_residual", "closure_phase", "tail_weight",
                    "block_order"):
            assert key in summary
        # resonant JC level 1: all three estimators sit at pi
        assert summary["wilson_gamma"] == pytest.approx(np.pi, abs=5e-3)
        assert summary["connection_gamma"] == pytest.approx(np.pi, abs=5e-3)
        assert summary["generator_gamma"] == pytest.approx(np.pi, abs=5e-3)
        assert summary["config"]["model"] == "jc"

    def test_multiple_couplings(self, tmp_path):
        rc = main([
            "berry", "--model", "rabi", "--g", "0.01", "--g", "0.1",
            "--nmax", "30", "--phi-nodes", "64", "--out", str(tmp_path),
        ])
        assert rc == 0
        summary = json.loads((tmp_path / "berry_summary.json").read_text())
        assert len(summary["runs"]) == 2
        curves = sorted(p.name for p in tmp_path.glob("berry_curve_g*.csv"))
        assert len(curves) == 2

    def test_degenerate_level_exits_numerical(self, tmp_path):
        rc = main([
            "berry", "--model", "jc", "--g", "1.0", "--nmax", "30",
            "--phi-nodes", "64", "--out", str(tmp_path),
        ])
        assert rc == 2

    @pytest.mark.parametrize("gauge", ["anchor", "parallel"])
    def test_loop_runs_without_the_node_path(self, tmp_path, forbid_node_path, gauge):
        rc = main([
            "berry", "--model", "rabi", "--g", "0.5", "--g", "0.93", "--nmax", "150",
            "--gauge", gauge, "--svg", "--out", str(tmp_path),
        ])
        assert rc == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["berry_curve.svg", "berry_curve_g0.5.csv", "berry_curve_g0.93.csv",
                         "berry_summary.json"]
        _, _, rows = read_rows(tmp_path / "berry_curve_g0.5.csv")
        assert len(rows) == 721

    def test_perturbed_energy_fails_the_gate(self, tmp_path, capsys, forbid_node_path,
                                             monkeypatch):
        # every sector value moves by 1e-6 after the Sturm count has gated
        # it: the level order and gaps stay, and psi_0 fails the gate on the
        # band product of its sector
        true_merged_levels = berry_module.merged_levels

        def shifted(*args):
            solved = true_merged_levels(*args)
            return dataclasses.replace(solved, levels=solved.levels + 1e-6)

        monkeypatch.setattr(berry_module, "merged_levels", shifted)
        rc = main(["berry", "--model", "rabi", "--g", "0.5", "--nmax", "150",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical failure: rabi g=0.5: eigen-residual" in err
        assert "at phi node 0 exceeds" in err

    @staticmethod
    def failing_solver(tmp_path, capsys, monkeypatch, solver, *argv):
        """stderr of a rabi g = 0.5 berry run whose np.linalg ``solver``
        fails; the run must exit 2 and write no file."""
        def fails(a, *args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, solver, fails)
        rc = main(["berry", "--model", "rabi", "--g", "0.5", *argv, "--out", str(tmp_path)])
        assert rc == 2
        assert not any(tmp_path.iterdir())
        return capsys.readouterr().err

    def test_sector_failure_names_the_sector(self, tmp_path, capsys, monkeypatch):
        err = self.failing_solver(tmp_path, capsys, monkeypatch, "eigvalsh", "--nmax", "150")
        assert err == (
            "numerical failure: rabi g=0.5: eigenvalues of 32 x 32 leading blocks did not "
            "converge within the solver's iteration cap (Eigenvalues did not converge); "
            "the first point still open is the even rabi sector at g=0.5, n_max=150\n")

    def test_full_sector_failure_names_no_leading_block(self, tmp_path, capsys, monkeypatch):
        # a 31-row sector is shorter than the first block: a full solve
        err = self.failing_solver(tmp_path, capsys, monkeypatch, "eigvalsh", "--nmax", "30")
        assert err == (
            "numerical failure: rabi g=0.5: eigenvalues of the full 31-row sectors did not "
            "converge within the solver's iteration cap (Eigenvalues did not converge); "
            "the first point still open is the even rabi sector at g=0.5, n_max=30\n")

    @pytest.mark.parametrize("level, sector", [("0", "odd"), ("1", "even")])
    def test_generator_failure_names_the_sector(self, tmp_path, capsys, monkeypatch, level,
                                                sector):
        # the loop reads no eigh; the generator oracle's one eigh, of the
        # leading block of the level's sector, fails
        err = self.failing_solver(tmp_path, capsys, monkeypatch, "eigh",
                                  "--level", level, "--nmax", "150")
        assert err == (
            "numerical failure: rabi g=0.5: eigendecomposition of the 32 x 32 leading block "
            f"of the {sector} rabi sector at g=0.5, n_max=150 did not converge within the "
            "solver's iteration cap (Eigenvalues did not converge)\n")

    def test_full_band_generator_failure_names_all_rows(self, tmp_path, capsys, monkeypatch):
        # a 31-row sector is shorter than the first block: eigh of all of it
        err = self.failing_solver(tmp_path, capsys, monkeypatch, "eigh", "--nmax", "30")
        assert err == (
            "numerical failure: rabi g=0.5: eigendecomposition of all 31 rows of the even rabi "
            "sector at g=0.5, n_max=30 did not converge within the solver's iteration cap "
            "(Eigenvalues did not converge)\n")

    @pytest.mark.parametrize("n_max, order", [("150", 64), ("20", 21)])
    def test_block_order_is_reported(self, tmp_path, n_max, order):
        # at n_max 150 the level is read from a leading block of 64 rows,
        # past which p_n, and so the tail weight, is exactly 0; at n_max 20,
        # too small for g = 1.5, the block is the full band and the tail
        # shows
        assert main(["berry", "--model", "rabi", "--g", "1.5", "--nmax", n_max,
                     "--out", str(tmp_path)]) == 0
        run = json.loads((tmp_path / "berry_summary.json").read_text())
        assert run["block_order"] == order
        assert (run["tail_weight"] == 0.0) == (n_max == "150")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_jc_coupling_gives_a_loop(self, tmp_path):
        # links of 1e160 square past the largest double: the sector solve
        # and psi_0 run on bands scaled by a power of two
        assert main(["berry", "--model", "jc", "--g", "1e160", "--nmax", "30",
                     "--phi-nodes", "64", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "berry_summary.json").read_text())
        assert all(math.isfinite(summary[key]) for key in
                   ("wilson_gamma", "connection_gamma", "eigen_residual", "tail_weight"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_max, phi_nodes", [("30", "64"), ("150", "720")])
    def test_huge_rabi_coupling_is_degenerate(self, tmp_path, capsys, n_max, phi_nodes):
        # at g = 1e160 the two parity sectors hold the same levels to
        # rounding: level 1 has no single-level phase
        rc = main(["berry", "--model", "rabi", "--g", "1e160", "--nmax", n_max,
                   "--phi-nodes", phi_nodes, "--out", str(tmp_path)])
        assert rc == 2
        assert "level 1 is degenerate (gap 0.000e+00 < 1e-10)" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", ["rabi", "jc"])
    def test_overflowing_links_are_named(self, tmp_path, capsys, model):
        # g = 1e308 is a finite parameter, but the links g sqrt(2 (j + 1))
        # overflow: the level solve refuses the bands, naming the coupling,
        # and numpy warns of nothing on the way
        rc = main(["berry", "--model", model, "--g", "1e308", "--nmax", "30",
                   "--phi-nodes", "64", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"numerical failure: {model} g=1e+308: the even {model} sector at g=1e+308, "
            "n_max=30 has a band entry that is not finite: H overflows at these parameters\n")
        assert not (tmp_path / "berry_summary.json").exists()

    def test_one_level_solve_per_coupling(self, tmp_path, monkeypatch):
        # the loop and its generator oracle come from one sector solve
        calls = []
        true_merged_levels = berry_module.merged_levels

        def spy(*args):
            calls.append(args)
            return true_merged_levels(*args)

        monkeypatch.setattr(berry_module, "merged_levels", spy)
        assert main(["berry", "--g", "0.1", "--g", "0.2", "--g", "0.3",
                     "--out", str(tmp_path)]) == 0
        assert len(calls) == 3

    def test_one_band_build_per_coupling(self, tmp_path, monkeypatch):
        # the level solve hands the bands it built to merged_levels: one
        # parity_sectors call per coupling, in either module that imports it
        calls = []
        for module in (berry_module, spectra_module):
            def spy(*args, real=module.parity_sectors):
                calls.append(args)
                return real(*args)

            monkeypatch.setattr(module, "parity_sectors", spy)
        assert main(["berry", "--g", "0.1", "--g", "0.2", "--g", "0.3",
                     "--out", str(tmp_path)]) == 0
        assert [args[1].g for args in calls] == [0.1, 0.2, 0.3]

    def test_diagnostics_are_deterministic(self, tmp_path):
        argv = ["berry", "--model", "rabi", "--g", "0.01", "--g", "0.5", "--g", "1.0",
                "--nmax", "150"]
        runs = []
        for name in ("first", "second"):
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
            runs.append(json.loads((tmp_path / name / "berry_summary.json").read_text())["runs"])
        for key in ("eigen_residual", "closure_phase", "tail_weight"):
            assert [r[key] for r in runs[0]] == [r[key] for r in runs[1]], key

    @pytest.mark.parametrize("argv", [
        ["--model", "rabi", "--g", "0.01", "--g", "0.5", "--g", "1.0"],
        ["--model", "jc", "--g", "0.05", "--g", "0.3", "--g", "0.6"],
        ["--model", "rabi", "--g", "0.93", "--g", "0.5", "--Omega", "0.4", "--level", "3"],
    ])
    def test_benchmark_families_carry_a_small_tail(self, tmp_path, argv):
        assert main(["berry", *argv, "--nmax", "150", "--out", str(tmp_path)]) == 0
        for run in json.loads((tmp_path / "berry_summary.json").read_text())["runs"]:
            assert run["tail_weight"] < 1e-6
            assert 0.0 <= run["eigen_residual"] <= 1e-12


class TestSurfacesCommand:
    def test_jc_conical_intersection_report(self, tmp_path):
        rc = main([
            "surfaces", "--model", "jc", "--g", "1.0", "--resolution", "41",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "degeneracy_jc.json").read_text())
        assert report["locus"] == "point"
        assert report["min_gap"] == pytest.approx(0.0, abs=1e-12)

    def test_rabi_seam_report_and_heatmap(self, tmp_path):
        rc = main([
            "surfaces", "--model", "rabi", "--g", "1.0", "--resolution", "41",
            "--svg", "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "degeneracy_rabi.json").read_text())
        assert report["locus"] == "line"
        assert report["min_gap"] == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "surface_gap_rabi.svg").exists()

    @pytest.mark.parametrize("resolution, locus", [(5, "none"), (41, "point")])
    def test_coarse_grid_contract(self, tmp_path, capsys, resolution, locus):
        # both grids hold the resonant cone apex (0, 0) exactly
        rc = main([
            "surfaces", "--model", "jc", "--resolution", str(resolution),
            "--x-range=-1:1", "--p-range=-1:1", "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "degeneracy_jc.json").read_text())
        assert report["min_gap"] == 0.0
        assert report["locus"] == locus
        noted = "too coarse to call it a point" in capsys.readouterr().err
        assert noted == (locus == "none")

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_huge_coupling_writes_finite_files(self, tmp_path, model):
        rc = main(["surfaces", "--model", model, "--g", "1e200", "--resolution", "3",
                   "--out", str(tmp_path)])
        assert rc == 0
        _, _, rows = read_rows(tmp_path / f"surface_{model}.csv")
        assert len(rows) == 9 and np.all(np.isfinite(rows))
        report = json.loads((tmp_path / f"degeneracy_{model}.json").read_text())
        assert math.isfinite(report["min_gap"]) and math.isfinite(report["tol_gap"])

    @pytest.mark.parametrize("model, g, resolution, failing", [
        pytest.param("jc", "1e308", "3", "jc", id="jc"),
        pytest.param("rabi", "1e308", "3", "rabi", id="rabi"),
        # only the Rabi gap overflows here; the JC files go too
        pytest.param("both", "1.7e307", "5", "rabi", id="both"),
    ])
    def test_overflowing_surface_is_a_numerical_failure(self, tmp_path, capsys, model, g,
                                                        resolution, failing):
        out = tmp_path / "out"
        rc = main(["surfaces", "--model", model, "--g", g, "--resolution", resolution,
                   "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"numerical failure: the {failing} surface overflows at g={float(g):g}")
        assert captured.out == ""
        assert list(out.iterdir()) == []
        if model == "both":
            assert main(["surfaces", "--model", "jc", "--g", g, "--resolution", resolution,
                         "--out", str(tmp_path / "jc")]) == 0

    @pytest.mark.parametrize("model, g, x_range, message", [
        pytest.param("jc", "0.6", "-8e307:8e307",
                     "the gap tolerance 2 * 8e+307 (cell diagonal) * 1.2 (max gap slope) is "
                     "not finite: the x or p range is too wide", id="tolerance"),
        pytest.param("rabi", "0.4", "-4e307:4e307",
                     "the rabi surface overflows at g=0.4 (omega=1, Omega=1): its gap is not "
                     "finite on the grid x in [-4e+307, 4e+307], p in [-3, 3]\n", id="surface"),
    ])
    def test_overflowing_x_range_is_named(self, tmp_path, capsys, model, g, x_range,
                                          message):
        out = tmp_path / "out"
        rc = main(["surfaces", "--model", model, "--g", g, f"--x-range={x_range}",
                   "--resolution", "3", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"numerical failure: {message}")
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_small_grid_row_count(self, tmp_path):
        rc = main([
            "surfaces", "--model", "jc", "--resolution", "2", "--out", str(tmp_path),
        ])
        assert rc == 0
        _, _, rows = read_rows(tmp_path / "surface_jc.csv")
        assert len(rows) == 4


class TestOtherCommands:
    def test_convergence(self, tmp_path):
        rc = main([
            "convergence", "--model", "rabi", "--g", "1.0", "--levels", "3",
            "--n-list", "20,40,60", "--out", str(tmp_path),
        ])
        assert rc == 0
        _, header, rows = read_rows(tmp_path / "convergence_rabi.csv")
        assert header[-1] == "max_change"
        assert len(rows) == 3
        assert rows[2][-1] <= rows[1][-1]  # refinement shrinks
        meta, _, _ = read_rows(tmp_path / "convergence_rabi.csv")
        # n_max 20 is shorter than the first leading block, which at g = 1
        # certifies n_max 40 and 60 by the gap bound, within LEADING_ULPS
        # ulps of max|T| (the diagonal, at most 61 for n_max 60)
        assert meta[-2] == "# max_block_order = 32"
        residual = float(meta[-1].removeprefix("# max_certified_residual = "))
        assert 0.0 <= residual <= 4 * np.finfo(float).eps * 61

    def test_convergence_metadata_records_n_list_not_n_max(self, tmp_path):
        rc = main([
            "convergence", "--model", "jc", "--levels", "2", "--n-list", "10,20",
            "--out", str(tmp_path),
        ])
        assert rc == 0
        meta, _, _ = read_rows(tmp_path / "convergence_jc.csv")
        assert "# n_list = 10,20" in meta
        assert not any(line.startswith("# n_max =") for line in meta)

    def test_crossing_config_holds_what_it_reads(self, tmp_path):
        assert main(["crossing", "--nmax", "40", "--out", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "crossing.json").read_text())["config"]
        assert set(config) == {"jcrabi", "model", "omega", "Omega", "n_max", "output_dir",
                               "command", "g_lo", "g_hi"}

    def test_crossing(self, tmp_path, capsys):
        rc = main(["crossing", "--nmax", "40", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "crossing.json").read_text())
        assert report["analytic_g"] == pytest.approx(1 / np.sqrt(2), abs=1e-8)
        assert report["quoted_g"] == pytest.approx(np.sqrt(2))
        assert "DISAGREES" in report["note"]
        assert "sqrt(2)" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"model": "rabi", "n_max": 25, "k_levels": 2}))
        rc = main([
            "spectrum", "--config", str(cfg_file), "--levels", "3",
            "--g-max", "0.1", "--g-step", "0.1", "--out", str(tmp_path),
        ])
        assert rc == 0
        _, header, _ = read_rows(tmp_path / "spectrum_rabi.csv")
        assert header == ["g", "E1", "E2", "E3"]  # flag overrode the file


class TestExitCodes:
    def test_usage_error_bad_model(self, tmp_path):
        assert main(["spectrum", "--model", "dicke", "--out", str(tmp_path)]) == 1

    def test_usage_error_bad_value(self, tmp_path):
        assert main(["spectrum", "--nmax", "0", "--out", str(tmp_path)]) == 1

    def test_usage_error_missing_command(self):
        assert main([]) == 1

    def test_usage_error_both_models_for_berry(self, tmp_path):
        assert main(["berry", "--model", "both", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("values, key", [
        ({"n_max": "abc"}, "n_max"),
        ({"g": [0.1]}, "g"),
        ({"level": True}, "level"),
        ({"Omega": float("inf")}, "Omega"),
    ])
    def test_usage_error_bad_config_value(self, tmp_path, capsys, values, key):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(values))
        rc = main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert rc == 1
        assert f"usage error: {key} " in capsys.readouterr().err

    def test_usage_error_removed_format_key(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"format": "json"}))
        assert main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command, values, keys", [
        (["crossing"], {"g": 5.0, "level": 3, "phi_nodes": 64}, "g, level, phi_nodes"),
        (["verify", "--only", "5"], {"model": "rabi", "n_max": 30}, "model, n_max"),
        (["verify", "--only", "5"], {"phi_nodes": 64}, "phi_nodes"),
        (["spectrum"], {"g": 0.5, "gauge": "parallel"}, "g, gauge"),
        (["surfaces"], {"n_max": 30}, "n_max"),
        (["convergence"], {"level": 2}, "level"),
        (["berry"], {"k_levels": 3}, "k_levels"),
    ])
    def test_usage_error_config_key_the_command_does_not_read(
            self, tmp_path, capsys, command, values, keys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(values))
        out = tmp_path / "out"
        assert main([*command, "--config", str(cfg_file), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"usage error: config file {cfg_file} sets {keys}, "
            f"which {command[0]} does not read\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_config_keys_the_command_reads_are_accepted(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"model": "jc", "omega": 1.0, "Omega": 1.0,
                                        "n_max": 30, "output_dir": str(tmp_path)}))
        assert main(["crossing", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "crossing.json").exists()

    def test_usage_error_nan_omega(self, tmp_path, capsys):
        assert main(["spectrum", "--omega", "nan", "--out", str(tmp_path)]) == 1
        assert "omega must be finite" in capsys.readouterr().err

    def test_usage_error_nan_berry_coupling(self, tmp_path, capsys):
        assert main(["berry", "--g", "nan", "--out", str(tmp_path)]) == 1
        assert "g must be finite" in capsys.readouterr().err
        assert main(["berry", "--g", "0.1", "--g", "nan", "--out", str(tmp_path)]) == 1

    def test_usage_error_negative_g_from_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"g": -0.5}))
        assert main(["spectrum", "--config", str(cfg_file), "--out", str(tmp_path)]) == 1
        assert "g must be nonnegative" in capsys.readouterr().err

    def test_usage_error_levels_above_dimension(self, tmp_path):
        assert main(["spectrum", "--nmax", "3", "--levels", "9", "--out", str(tmp_path)]) == 1
        assert main([
            "convergence", "--n-list", "3,20", "--levels", "9", "--out", str(tmp_path),
        ]) == 1

    def test_usage_error_level_out_of_range(self, tmp_path, capsys):
        assert main(["berry", "--nmax", "3", "--level", "8", "--out", str(tmp_path)]) == 1
        assert "level must be in [0, 2(nmax+1)) = [0, 8)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["berry", "--nmax", "20", "--phi-nodes", "65"],
    ])
    def test_usage_error_odd_phi_nodes(self, tmp_path, capsys, argv):
        # an odd K has no K/2 grid, hence no residual estimate
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert "phi-nodes must be even, got" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args, name", [
        (["convergence", "--model", "rabi", "--g", "1e160", "--n-list", "20,40"],
         "convergence_rabi.csv"),
        (["spectrum", "--model", "jc", "--nmax", "60", "--g-max", "1e160",
          "--g-step", "5e159"], "spectrum_jc.csv"),
    ])
    def test_couplings_whose_links_square_past_the_largest_double(self, tmp_path, args, name):
        assert main([*args, "--out", str(tmp_path)]) == 0
        _, header, rows = read_rows(tmp_path / name)
        levels = np.array(rows)[:, [c.startswith("E") for c in header]]
        assert levels.shape[1] == 11 and np.all(np.isfinite(levels))

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_usage_error_svg_of_one_model(self, tmp_path, capsys, model):
        # the overlay draws JC against Rabi: one model has nothing to overlay
        out = tmp_path / "out"
        assert main(["spectrum", "--model", model, "--svg", "--nmax", "5",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--svg" in err and "--model both" in err
        assert not out.exists()

    def test_usage_error_non_ascending_n_list(self, tmp_path, capsys):
        assert main(["convergence", "--n-list", "40,20", "--out", str(tmp_path)]) == 1
        assert "strictly ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["spectrum", "--g-min", "nan"], "g-min"),
        (["spectrum", "--g-max", "inf"], "g-max"),
        (["spectrum", "--g-step", "nan"], "g-step"),
        (["crossing", "--g-lo", "nan"], "g-lo"),
        (["crossing", "--g-hi", "nan"], "g-hi"),
        (["surfaces", "--x-range", "nan:1"], "x-range"),
        (["surfaces", "--p-range=-inf:1"], "p-range"),
    ])
    def test_usage_error_non_finite_flag(self, tmp_path, capsys, argv, flag):
        # surfaces reads no cutoff, so --nmax would be a usage error of its own
        nmax = ["--nmax", "5"] if argv[0] in ("spectrum", "crossing") else []
        assert main([*argv, *nmax, "--out", str(tmp_path)]) == 1
        assert f"usage error: {flag} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["x-range", "p-range"])
    def test_usage_error_range_whose_width_overflows(self, tmp_path, capsys, flag):
        # both ends are finite, but hi - lo is not: the axes would hold NaN
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["surfaces", f"--{flag}=-1e308:1e308", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: {flag}: hi - lo must be finite, got '-1e308:1e308'\n"
        assert not out.exists()

    def test_usage_error_grid_numpy_cannot_build(self, tmp_path, capsys):
        # about 1e300 couplings: np.arange refuses before allocating
        out = tmp_path / "out"
        argv = ["spectrum", "--model", "jc", "--nmax", "5", "--g-max", "1e300", "--g-step", "1"]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --g-min 0, --g-max 1e+300 and --g-step 1 give")
        assert not out.exists()

    def test_usage_error_sweep_out_of_memory(self, tmp_path, capsys, monkeypatch):
        # a grid whose bands do not fit in memory, as numpy reports it
        def refused(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.9 GiB for an array with shape "
                              "(10000001, 2, 100) and data type float64")

        monkeypatch.setattr(spectra_module, "spectrum_sweep", refused)
        out = tmp_path / "out"
        argv = ["spectrum", "--model", "jc", "--g-max", "1", "--g-step", "1e-7"]
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: the spectrum request does not fit in "
                                       "memory (Unable to allocate 14.9 GiB")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_usage_error_surface_out_of_memory_writes_no_file(self, tmp_path, capsys,
                                                              monkeypatch):
        # the Rabi surface runs out of memory after the JC files are written:
        # they go too
        real = surfaces_module.boa_surface

        def refused(kind, *args):
            if kind.model == "rabi":
                raise MemoryError()
            return real(kind, *args)

        monkeypatch.setattr(surfaces_module, "boa_surface", refused)
        out = tmp_path / "out"
        assert main(["surfaces", "--model", "both", "--resolution", "5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: the surfaces request does not fit in memory")
        assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_usage_error_negative_g_min(self, tmp_path, capsys):
        # a negative coupling is a usage error, not a numerical failure
        out = tmp_path / "out"
        argv = ["spectrum", "--g-min", "-1", "--g-max", "0.1", "--nmax", "5"]
        assert main([*argv, "--out", str(out)]) == 1
        assert "usage error: g-min must be >= 0, got -1.0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("g_lo, g_hi", [("1.2", "0.3"), ("-0.5", "1.2")])
    def test_usage_error_crossing_bracket(self, tmp_path, capsys, g_lo, g_hi):
        argv = ["crossing", f"--g-lo={g_lo}", f"--g-hi={g_hi}", "--nmax", "5"]
        assert main([*argv, "--out", str(tmp_path)]) == 1
        assert "need 0 <= g-lo < g-hi" in capsys.readouterr().err

    def test_usage_error_no_crossing_in_bracket(self, tmp_path, capsys):
        # a bracket that holds no crossing is bad input, not a numerical failure
        rc = main([
            "crossing", "--g-lo", "0.1", "--g-hi", "0.2", "--nmax", "30",
            "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "usage error: no crossing bracketed in [0.1, 0.2]" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["rabi", "both"])
    def test_usage_error_crossing_is_jc_only(self, tmp_path, capsys, model):
        out = tmp_path / "crossing"
        assert main(["crossing", "--model", model, "--nmax", "5", "--out", str(out)]) == 1
        assert f"--model must be jc, got {model}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("only", ["99", "0", ",", "1,99"])
    def test_usage_error_verify_only_outside_criteria(self, tmp_path, capsys, only):
        # rejected before any criterion runs or the output directory exists
        out = tmp_path / "verify"
        assert main(["verify", "--only", only, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"usage error: --only expects criterion numbers in 1..12, got {only!r}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("only, repeated", [("5,5", "[5]"), ("10,5,10,5", "[5, 10]")])
    def test_usage_error_verify_only_duplicates(self, tmp_path, capsys, only, repeated):
        out = tmp_path / "verify"
        assert main(["verify", "--only", only, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"usage error: --only lists criteria {repeated} more than once" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "--only", "5", "--model", "rabi"], "--model"),
        (["verify", "--only", "5", "--nmax", "3"], "--nmax"),
        (["verify", "--only", "5", "--phi-nodes", "64"], "--phi-nodes"),
        (["crossing", "--nmax", "5", "--g", "5"], "--g"),
        (["crossing", "--nmax", "5", "--level", "3"], "--level"),
    ])
    def test_usage_error_flag_the_command_does_not_read(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ") and flag in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in README_READS for key in FLAG_OF
    ])
    def test_flags_match_the_readme_table(self, tmp_path, capsys, command, key):
        flag, text, value = FLAG_OF[key]
        if key in README_READS[command]:
            cfg = _load_config(build_parser().parse_args([command, flag, text]))
            assert getattr(cfg, key) == value
        else:
            out = tmp_path / "out"
            assert main([command, flag, text, "--out", str(out)]) == 1
            assert flag in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["convergence", "--level", "2"], "--level"),
        (["spectrum", "--level", "3"], "--level"),
        (["surfaces", "--res", "41"], "--res"),
    ])
    def test_usage_error_abbreviated_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("g_values", [("0.1", "0.10000001"), ("0.1", "0.1")])
    def test_usage_error_berry_couplings_share_a_file(self, tmp_path, capsys, g_values):
        out = tmp_path / "out"
        argv = ["berry", "--g", g_values[0], "--g", g_values[1], "--nmax", "10",
                "--phi-nodes", "16", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --g values ")
        assert all(g in err for g in g_values)
        assert not out.exists()

    def test_numerical_failure_names_the_coupling_and_writes_no_file(self, tmp_path, capsys):
        # g = 0.5 has a loop, level 1 is degenerate at g = 1: no coupling's
        # file is written
        out = tmp_path / "out"
        rc = main(["berry", "--model", "jc", "--g", "0.5", "--g", "1.0", "--nmax", "30",
                   "--phi-nodes", "64", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "numerical failure: jc g=1: eigenpath tracking lost at phi node 0: "
            "level 1 is degenerate")
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_numerical_failure_names_the_criterion(self, tmp_path, capsys, monkeypatch):
        # K = 16 is too coarse for criterion 6's first family
        monkeypatch.setattr(acceptance, "BERRY_K", 16)
        out = tmp_path / "out"
        assert main(["verify", "--only", "6", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "numerical failure: criterion 6: eigenpath tracking lost at phi node 1: "
            "step overlap 0.980785")
        assert captured.out == ""
        assert list(out.iterdir()) == []

    def test_verify_subset(self, tmp_path, capsys):
        rc = main(["verify", "--only", "5,10", "--out", str(tmp_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "criterion  5" in captured.out and "criterion 10" in captured.out
        # the report is under the rerun contract: wall times go to stderr only
        report = (tmp_path / "verify_report.txt").read_text()
        assert not re.search(r"\[\d+\.\ds\]", report)
        assert re.search(r"criterion  5: \d+\.\ds", captured.err)
        assert re.search(r"criterion 10: \d+\.\ds", captured.err)

    def test_verify_writes_the_investigation_curves_with_the_version(self, tmp_path):
        assert main(["verify", "--only", "12", "--out", str(tmp_path)]) == 0
        curves = sorted(tmp_path.glob("investigation_rabi_g*.csv"))
        assert [c.name for c in curves] == [
            f"investigation_rabi_g{g}.csv" for g in ("0.001", "0.01", "0.1", "1")
        ]
        for path in curves:
            meta, header, rows = read_rows(path)
            assert meta[0] == f"# jcrabi = {__version__}"
            assert "# command = verify" in meta and "# K = 720" in meta
            assert header == ["phi", "partial_phase"]
            assert len(rows) == acceptance.BERRY_K + 1

    def test_verify_without_the_investigation_writes_no_curve(self, tmp_path):
        assert main(["verify", "--only", "5", "--out", str(tmp_path)]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["verify_report.txt"]

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "jcrabi", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "jcrabi" in proc.stdout


def test_two_main_calls_build_the_parser_once(monkeypatch):
    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            assert main(["crossing", "--nmax", "5", "--level", "3"]) == 1
    finally:
        cli.build_parser.cache_clear()
    assert built.count("jcrabi") == 1


def test_the_shared_parser_starts_every_parse_afresh():
    # --g appends: one parse must not leave its couplings to the next
    for g in ("0.1", "0.2"):
        assert build_parser().parse_args(["berry", "--g", g]).g == [float(g)]
    assert build_parser().parse_args(["berry"]).g is None
