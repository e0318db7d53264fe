"""Byte identity of the streamed CSV / heatmap / JSON writers with per-value
formatting.

The frozen writers below are the per-value implementations the streamed ones
replaced; every case must give the same file bytes from both.  _fmt17 is
checked value by value against "%.17g" % v, and write_json against
json.dumps.
"""

import json
import re

import numpy as np
import pytest

from jcrabi.cli import main
from jcrabi.models import ModelKind, ModelParams
from jcrabi.output import (
    _BLOCK_ROWS, _fmt17, metadata_lines, write_csv, write_json, write_svg_heatmap,
)
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

    def test_table_spanning_blocks(self, tmp_path):
        # values repeat within and across blocks; the special column holds
        # 0.0 and -0.0, NaNs with different bit payloads, +-inf and subnormals
        n = 2 * _BLOCK_ROWS + 5
        rng = np.random.default_rng(7)
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000002],
                        dtype=np.uint64).view(float)
        special = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-310, 1 / 3],
            nans,
        ])
        table = np.column_stack([
            np.repeat(np.arange(n // 7 + 1) * 0.1, 7)[:n],  # runs cross block edges
            rng.choice(special, n),
            rng.choice(rng.standard_normal(500), n),
            rng.standard_normal(n),  # all distinct
        ])
        assert len(np.unique(table[:, 1].view(np.int64))) == len(special)
        text = same_csv_bytes(tmp_path, ["a", "b", "c", "d"], table).decode()
        assert text.count("\n") == len(META) + 1 + n
        assert ",-0," in text and ",0," in text and ",nan," in text

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

    @pytest.mark.parametrize("nx, npts", [
        (200, 100),  # 81 x-rows per block: two full blocks and a part
        (3, _BLOCK_ROWS + 3),  # a column longer than a block: one x-row per block
        (_BLOCK_ROWS + 5, 1),
    ])
    def test_heatmap_spanning_blocks(self, tmp_path, nx, npts):
        values = np.random.default_rng(nx).standard_normal((nx, npts))
        svg = same_svg_bytes(tmp_path, np.arange(float(nx)), np.arange(float(npts)), values)
        assert svg.count("<rect ") == nx * npts

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

    @pytest.mark.parametrize("rows", [[["x"]], [[{}]], np.array([["1", "y"]])])
    def test_entries_must_be_numbers(self, tmp_path, rows):
        # a table of the right shape is not reported as ragged
        path = tmp_path / "bad.csv"
        width = np.shape(rows)[1]
        with pytest.raises(ValueError, match="table entries must be numbers") as info:
            write_csv(path, ["a", "b"][:width], rows, {})
        assert "ragged" not in str(info.value)
        assert not path.exists()

    @pytest.mark.parametrize("rows", [[[None, 1.0]], [[1.0, 2.0], [3.0, None]],
                                      np.array([[1.0, None]], dtype=object)])
    def test_none_entries_refused(self, tmp_path, rows):
        # np.asarray reads None as NaN; a NaN number is still written
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="table entries must be numbers: None in row"):
            write_csv(path, ["a", "b"], rows, {})
        assert not path.exists()
        assert write_csv(path, ["a", "b"], [[float("nan"), 1.0]], {}).read_text() == "a,b\nnan,1\n"

    def test_header_needs_a_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="at least one column"):
            write_csv(path, [], [[], []], {})
        assert not path.exists()

    @pytest.mark.parametrize("values, shape", [
        (np.zeros((5, 4)), "(5, 4)"),
        (np.zeros((7, 3)), "(7, 3)"),  # transposed
        (np.zeros(21), "(21,)"),
    ])
    def test_heatmap_values_must_match_the_axes(self, tmp_path, values, shape):
        path = tmp_path / "bad.svg"
        with pytest.raises(ValueError, match=rf"axes' shape \(3, 7\), got {re.escape(shape)}"):
            write_svg_heatmap(path, np.arange(3.0), np.arange(7.0), values, "t", {})
        assert not path.exists()

    def test_heatmap_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "bad.svg"
        with pytest.raises(ValueError, match="finite"):
            write_svg_heatmap(path, [0.0, 1.0], [0.0], np.array([[0.0], [np.nan]]), "t", {})
        assert not path.exists()


class TestWriteJson:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        path = tmp_path / "summary.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(path, {"residual": bad}, META)
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(path, {"g": 0.1}, dict(META, g=bad))
        assert not path.exists()


def percent17(values):
    """The reference: "%.17g" % v, value by value."""
    return np.array(["%.17g" % v for v in np.asarray(values, dtype=float).tolist()])


def near(x, ulps):
    """x and the ulps doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


class TestFmt17:
    def differential(self, values):
        values = np.asarray(values, dtype=float)
        got = _fmt17(values)
        assert got.dtype == np.dtype("S24") and got.shape == values.shape
        want = percent17(values)
        assert want.dtype.itemsize <= np.dtype("U24").itemsize  # every text fits S24
        got = got.astype(want.dtype)
        bad = np.flatnonzero(got != want)
        assert not bad.size, [(float(values[i]).hex(), got[i], want[i]) for i in bad[:5]]
        return got

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(17)
        anywhere = rng.integers(0, 1 << 64, 300_000, dtype=np.uint64, endpoint=False)
        # exponents around the kernel range 1e-4 <= |v| < 1e17 (2^-14 .. 2^57)
        mantissa = rng.integers(0, 1 << 52, 800_000, dtype=np.uint64)
        biased = rng.integers(1023 - 16, 1023 + 58, len(mantissa)).astype(np.uint64)
        sign = rng.integers(0, 2, len(mantissa)).astype(np.uint64)
        ranged = (sign << np.uint64(63)) | (biased << np.uint64(52)) | mantissa
        self.differential(np.concatenate([anywhere, ranged]).view(float))

    def test_around_powers_of_ten(self):
        # log10 misjudges the exponent here, so the quotient re-picks it
        values = [v for k in range(-6, 19) for v in near(float(10.0 ** k), 20)]
        values += [1e-4, np.nextafter(1e-4, 0), 1e17, np.nextafter(1e17, 0)]
        self.differential(np.concatenate([values, np.negative(values)]))

    def test_exact_ties_round_half_to_even(self):
        # (2m + 1) / 2^j is exact; with 18 significant digits its last is a 5
        rng = np.random.default_rng(18)
        values = [(2 * m + 1) / 2.0 ** j
                  for j in range(1, 64) for m in rng.integers(0, 1 << 50, 400).tolist()]
        got = self.differential(values)
        assert "123456789012345.12" in self.differential([123456789012345.125])
        assert len(got) == 63 * 400

    def test_integers(self):
        big = 2.0 ** 53
        values = np.concatenate([
            big + np.arange(-2000.0, 2000.0), np.arange(-3000.0, 3000.0),
            2.0 ** np.arange(0, 64), 10.0 ** np.arange(0, 23),
        ])
        self.differential(np.concatenate([values, -values]))

    def test_special_values(self):
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(float)
        special = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
             np.nextafter(2.2250738585072014e-308, 0), 1.7976931348623157e308], nans,
        ])
        got = self.differential(special)
        assert got.tolist()[:4] == ["0", "-0", "inf", "-inf"]
        assert set(got[-3:]) == {"nan"}

    def test_shapes(self):
        assert _fmt17(np.empty(0)).shape == (0,)
        assert _fmt17([0.5, -2.0, 1e-5]).tolist() == [b"0.5", b"-2", b"1.0000000000000001e-05"]


def json_reference(payload, meta):
    doc = dict(payload)
    doc["config"] = dict(meta)
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()


class TestWriteJsonBytes:
    @pytest.mark.parametrize("coordinates", [
        [],
        [[0.5, -1.25]],
        [[-0.0, 0.0], [1e-300, -1.7976931348623157e308]],
        [(0.1, 0.2), (1 / 3, 2 / 3)],  # tuples are JSON lists
        [[float(i) * 0.1, -float(i) / 7] for i in range(100)],
        [[1, 2.0]],  # an int row is left to json.dumps
        [[1.0, 2.0, 3.0]],  # so is a row that is not a pair
    ], ids=["empty", "one", "signed-zero", "tuples", "many", "int", "triple"])
    def test_matches_json_dumps(self, tmp_path, coordinates):
        payload = {"min_gap": 0.25, "locus": "point", "tol_gap": 1e-3,
                   "n_minimal_cells": len(coordinates), "coordinates": coordinates,
                   "nested": {"a": [1, 2], "b": "x\ny"}}
        path = write_json(tmp_path / "degeneracy.json", payload, META)
        assert path.read_bytes() == json_reference(payload, META)

    def test_float_subclass_uses_float_repr(self, tmp_path):
        payload = {"coordinates": [[np.float64(0.1), np.float64(-2.0)]]}
        path = write_json(tmp_path / "d.json", payload, {})
        assert path.read_bytes() == json_reference(payload, {})
        assert json.loads(path.read_text())["coordinates"] == [[0.1, -2.0]]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinate_refused(self, tmp_path, bad):
        path = tmp_path / "degeneracy.json"
        coordinates = [[0.1, 0.2]] * 70 + [[0.3, bad]]
        with pytest.raises(ValueError) as info:
            write_json(path, {"coordinates": coordinates}, META)
        with pytest.raises(ValueError) as want:
            json_reference({"coordinates": coordinates}, META)
        assert str(info.value) == str(want.value)
        assert not path.exists()
