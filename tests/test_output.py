"""Byte identity of the bulk CSV / heatmap writers with per-value formatting.

The frozen writers below are the per-value implementations the bulk ones
replaced; every case must give the same file bytes from both.
"""

import numpy as np
import pytest

from jcrabi.cli import main
from jcrabi.models import ModelKind, ModelParams
from jcrabi.output import metadata_lines, write_csv, write_json, write_svg_heatmap
from jcrabi.surfaces import boa_surface

META = {"jcrabi": "test", "model": "both", "g": 0.4}


def frozen_write_csv(path, columns, rows, meta):
    lines = metadata_lines(meta)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def frozen_write_svg_heatmap(path, x_axis, p_axis, values, title, meta):
    values = np.asarray(values, dtype=float)
    nx, npts = values.shape
    cell = max(2.0, min(600.0 / nx, 440.0 / npts))
    ml, mt = 70.0, 40.0
    width = ml + nx * cell + 40.0
    height = mt + npts * cell + 60.0
    v_lo, v_hi = float(np.min(values)), float(np.max(values))
    span = v_hi - v_lo if v_hi > v_lo else 1.0
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        "<!-- " + "; ".join(f"{k} = {v}" for k, v in meta.items()) + " -->",
        f'<text x="{ml + nx*cell/2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
    ]
    for i in range(nx):
        for j in range(npts):
            shade = int(round(255 * (values[i, j] - v_lo) / span))
            out.append(
                f'<rect x="{ml + i*cell:.2f}" y="{mt + (npts-1-j)*cell:.2f}" '
                f'width="{cell:.2f}" height="{cell:.2f}" '
                f'fill="rgb({shade},{shade},{shade})"/>'
            )
    out.append(
        f'<text x="{ml:.1f}" y="{height-18:.1f}" font-size="12">'
        f"x in [{x_axis[0]:.3g}, {x_axis[-1]:.3g}], p in [{p_axis[0]:.3g}, {p_axis[-1]:.3g}], "
        f"value range [{v_lo:.6g}, {v_hi:.6g}] (dark = small)</text>"
    )
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n", newline="\n")
    return path


def same_csv_bytes(tmp_path, columns, rows, new_rows=None):
    old = frozen_write_csv(tmp_path / "old.csv", columns, rows, META).read_bytes()
    new_rows = rows if new_rows is None else new_rows
    new = write_csv(tmp_path / "new.csv", columns, new_rows, META).read_bytes()
    assert new == old
    return new


def same_svg_bytes(tmp_path, x_axis, p_axis, values):
    old = frozen_write_svg_heatmap(tmp_path / "old.svg", x_axis, p_axis, values, "t", META)
    new = write_svg_heatmap(tmp_path / "new.svg", x_axis, p_axis, values, "t", META)
    assert new.read_bytes() == old.read_bytes()
    return new.read_text()


SURFACE_COLUMNS = ["x", "p", "E_minus", "E_plus", "gap"]


def surface_grid(model):
    # odd axes of different lengths, off resonance for the Rabi case
    x_axis = np.linspace(-2.0, 1.0, 27)
    p_axis = np.linspace(-1.0, 3.0, 19)
    params = ModelParams(Omega=1.0 if model == "jc" else 0.7, g=0.4, omega=1.0)
    return boa_surface(ModelKind(model), params, x_axis, p_axis)


def surface_rows(grid):
    """The per-row list the surfaces command built before it passed an array."""
    return [
        [x, p, grid.lower[i, j], grid.upper[i, j], grid.gap[i, j]]
        for i, x in enumerate(grid.x_axis)
        for j, p in enumerate(grid.p_axis)
    ]


class TestFrozenWriterBytes:
    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_surface_table(self, tmp_path, model):
        grid = surface_grid(model)
        x_axis, p_axis = grid.x_axis, grid.p_axis
        rows = surface_rows(grid)
        table = np.column_stack([
            np.repeat(x_axis, len(p_axis)), np.tile(p_axis, len(x_axis)),
            grid.lower.ravel(), grid.upper.ravel(), grid.gap.ravel(),
        ])
        same_csv_bytes(tmp_path, SURFACE_COLUMNS, rows, new_rows=table)  # array rows
        same_csv_bytes(tmp_path, SURFACE_COLUMNS, rows)  # list rows

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_surface_heatmap(self, tmp_path, model):
        grid = surface_grid(model)
        svg = same_svg_bytes(tmp_path, grid.x_axis, grid.p_axis, grid.gap)
        assert svg.count("<rect ") == 27 * 19

    def test_convergence_style_table(self, tmp_path):
        columns = ["n_max", "E1", "E2", "max_change"]
        rows = [
            [20, -0.5000000000000001, 0.1, float("nan")],
            [40, -0.0, float("inf"), 5e-324],
            [60, 1e300, -float("inf"), 2.220446049250313e-16],
            [2**53 + 1, 1 / 3, -1e-310, 0.0],
        ]
        text = same_csv_bytes(tmp_path, columns, rows).decode()
        assert "\n20,-0.50000000000000011,0.10000000000000001,nan\n" in text
        assert "\n40,-0,inf,4.9406564584124654e-324\n" in text

    def test_one_row_table(self, tmp_path):
        same_csv_bytes(tmp_path, ["phi", "partial_phase"], [[0.0, np.pi]])

    @pytest.mark.parametrize("rows", [[], np.empty((0, 2))], ids=["list", "array"])
    def test_zero_row_table(self, tmp_path, rows):
        text = same_csv_bytes(tmp_path, ["phi", "partial_phase"], rows).decode()
        assert text.endswith("\nphi,partial_phase\n")

    def test_constant_heatmap(self, tmp_path):
        # v_hi == v_lo takes the span = 1.0 branch: every cell is black
        svg = same_svg_bytes(tmp_path, [0.0, 1.0, 2.0], [0.0, 1.0], np.full((3, 2), 0.25))
        assert svg.count('fill="rgb(0,0,0)"') == 6

    def test_half_shades_round_to_even(self, tmp_path):
        # shades 0, 0.5, 1.5, 2.5, 255 exactly: round half to even gives 0, 0, 2, 2, 255
        values = np.array([[0.0, 0.5, 1.5, 2.5, 255.0]])
        svg = same_svg_bytes(tmp_path, [0.0], np.arange(5.0), values)
        shades = [int(part.split(",")[0]) for part in svg.split('fill="rgb(')[1:]]
        assert shades == [0, 0, 2, 2, 255]

    def test_cli_surface_rows_match_per_value_writer(self, tmp_path):
        # the CLI's array rows give the bytes of the per-row list build
        assert main([
            "surfaces", "--model", "jc", "--g", "0.4", "--resolution", "15",
            "--x-range=-2:1", "--p-range=-1:3", "--out", str(tmp_path),
        ]) == 0
        x_axis, p_axis = np.linspace(-2.0, 1.0, 15), np.linspace(-1.0, 3.0, 15)
        grid = boa_surface(ModelKind("jc"), ModelParams(Omega=1.0, g=0.4, omega=1.0),
                           x_axis, p_axis)
        # no metadata: the frozen file is the header and the rows
        frozen = frozen_write_csv(tmp_path / "old.csv", SURFACE_COLUMNS, surface_rows(grid), {})
        written = (tmp_path / "surface_jc.csv").read_text()
        assert written.endswith(frozen.read_text())
        meta = written[: -len(frozen.read_text())]
        assert meta and all(line.startswith("# ") for line in meta.splitlines())


class TestWriteCsvShape:
    @pytest.mark.parametrize("rows, got", [
        ([[1, 2, 3], [4]], "ragged rows"),
        ([[1, 2, 3], [4, 5, 6]], "shape (2, 3)"),
        ([[1]], "shape (1, 1)"),
        ([1, 2], "shape (2,)"),
    ])
    def test_width_must_match_header(self, tmp_path, rows, got):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="must have 2 columns to match its header") as info:
            write_csv(path, ["a", "b"], rows, {})
        assert f"got {got}" in str(info.value)
        assert not path.exists()

    def test_heatmap_rejects_non_finite_values(self, tmp_path):
        with pytest.raises(ValueError, match="finite"):
            write_svg_heatmap(tmp_path / "bad.svg", [0.0, 1.0], [0.0],
                              np.array([[0.0], [np.nan]]), "t", {})


class TestWriteJson:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(path, {"residual": bad}, META)
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(path, {"g": 0.1}, dict(META, g=bad))
        assert not path.exists()
