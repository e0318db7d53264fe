"""Byte identity of the streamed CSV / JSON writers with per-value
formatting, and the pixels of the PNG heatmap.

The frozen CSV writer below is the per-value implementation the streamed one
replaced; every case must give the same file bytes from both.  The heatmap
is decoded with stdlib zlib and base64 and checked pixel by pixel against
the frozen per-cell shade.  _fmt17 is checked value by value against
"%.17g" % v, and write_json against json.dumps.
"""

import base64
import json
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

import jcrabi.cli as cli_module
import jcrabi.output as output_module
from jcrabi.cli import RunConfig, main
from jcrabi.models import ModelKind, ModelParams
from jcrabi.output import (
    _BLOCK_ROWS, _fmt17, metadata_lines, write_csv, write_json, write_svg_heatmap,
)
from jcrabi.surfaces import boa_surface, classify_degeneracy

META = {"jcrabi": "test", "model": "both", "g": 0.4}


def frozen_write_csv(path, header, rows, meta):
    lines = metadata_lines(meta)
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format(float(v), ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n", newline="\n")
    return path


def frozen_shades(values):
    """The shade of every cell, value by value: 0 at the smallest value, 255
    at the largest; a constant map is all 0."""
    values = np.asarray(values, dtype=float)
    v_lo, v_hi = float(np.min(values)), float(np.max(values))
    span = v_hi - v_lo if v_hi > v_lo else 1.0
    return [[int(round(255 * (v - v_lo) / span)) for v in row] for row in values.tolist()]


def frozen_heatmap_lines(x_axis, p_axis, values, title, meta):
    """The heatmap's text lines around its image, and the image's position
    and size: those of the grid of cells the map was once drawn as."""
    values = np.asarray(values, dtype=float)
    nx, npts = values.shape
    cell = max(2.0, min(600.0 / nx, 440.0 / npts))
    ml, mt = 70.0, 40.0
    width = ml + nx * cell + 40.0
    height = mt + npts * cell + 60.0
    v_lo, v_hi = float(np.min(values)), float(np.max(values))
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        "<!-- " + "; ".join(f"{k} = {v}" for k, v in meta.items()) + " -->",
        f'<text x="{ml + nx*cell/2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
    ]
    foot = [
        f'<text x="{ml:.1f}" y="{height-18:.1f}" font-size="12">'
        f"x in [{x_axis[0]:.3g}, {x_axis[-1]:.3g}], p in [{p_axis[0]:.3g}, {p_axis[-1]:.3g}], "
        f"value range [{v_lo:.6g}, {v_hi:.6g}] (dark = small)</text>",
        "</svg>",
    ]
    box = f'x="{ml:.2f}" y="{mt:.2f}" width="{nx*cell:.2f}" height="{npts*cell:.2f}"'
    return head, foot, box


def decode_png(png):
    """The pixels of an 8-bit grayscale PNG with no row filters, as a
    (height, width) uint8 array; every chunk's CRC is checked."""
    assert png[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = [], 8
    while pos < len(png):
        (length,) = struct.unpack(">I", png[pos:pos + 4])
        kind, data = png[pos + 4:pos + 8], png[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", png[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(kind + data), kind
        chunks.append((kind, data))
        pos += 12 + length
    assert pos == len(png)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, *layout = struct.unpack(">IIBBBBB", chunks[0][1])
    assert layout == [8, 0, 0, 0, 0]  # 8-bit grayscale, deflate, no interlace
    raw = zlib.decompress(b"".join(data for kind, data in chunks if kind == b"IDAT"))
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, width + 1)
    assert not rows[:, 0].any()  # filter type 0 on every row
    return rows[:, 1:]


def heatmap_pixels(tmp_path, x_axis, p_axis, values):
    """Write a heatmap, check its text against the frozen lines, and return
    its decoded pixels."""
    path = write_svg_heatmap(tmp_path / "map.svg", x_axis, p_axis, values, "t", META)
    text = path.read_text()
    head, foot, box = frozen_heatmap_lines(x_axis, p_axis, values, "t", META)
    lines = text.split("\n")
    assert lines[:3] == head and lines[4:] == foot + [""]
    image = re.fullmatch(r'<image (.*) preserveAspectRatio="none" '
                         r'style="image-rendering:pixelated" '
                         r'href="data:image/png;base64,([A-Za-z0-9+/=]*)"/>', lines[3])
    assert image is not None and image.group(1) == box
    return decode_png(base64.b64decode(image.group(2), validate=True))


def check_pixels(tmp_path, x_axis, p_axis, values):
    """Pixel (r, i) is the frozen shade of cell (x_i, p_(npts - 1 - r)): the
    image is npts x nx and its top row holds the largest p."""
    pixels = heatmap_pixels(tmp_path, x_axis, p_axis, values)
    shades = frozen_shades(values)
    nx, npts = len(x_axis), len(p_axis)
    assert pixels.shape == (npts, nx)
    want = [[shades[i][npts - 1 - r] for i in range(nx)] for r in range(npts)]
    assert pixels.tolist() == want
    return pixels


def columns_of(rows, n_cols):
    """The columns of a list of rows."""
    return [[row[c] for row in rows] for c in range(n_cols)]


def same_csv_bytes(tmp_path, header, rows, new_columns=None):
    old = frozen_write_csv(tmp_path / "old.csv", header, rows, META).read_bytes()
    if new_columns is None:
        new_columns = columns_of(rows, len(header))
    new = write_csv(tmp_path / "new.csv", header, [new_columns], META).read_bytes()
    assert new == old
    return new


SURFACE_COLUMNS = ["x", "p", "E_minus", "E_plus", "gap"]


def surface_grid(model):
    # odd axes of different lengths, off resonance for the Rabi case
    x_axis = np.linspace(-2.0, 1.0, 27)
    p_axis = np.linspace(-1.0, 3.0, 19)
    params = ModelParams(Omega=1.0 if model == "jc" else 0.7, g=0.4, omega=1.0)
    return boa_surface(ModelKind(model), params, x_axis, p_axis)


def surface_rows(grid):
    """A surface grid as the per-row list the frozen writer takes."""
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
        columns = [  # the surfaces command's columns
            np.repeat(x_axis, len(p_axis)), np.tile(p_axis, len(x_axis)),
            grid.lower.ravel(), grid.upper.ravel(), grid.gap.ravel(),
        ]
        same_csv_bytes(tmp_path, SURFACE_COLUMNS, rows, new_columns=columns)
        same_csv_bytes(tmp_path, SURFACE_COLUMNS, rows)  # list columns

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_surface_heatmap(self, tmp_path, model):
        grid = surface_grid(model)
        pixels = check_pixels(tmp_path, grid.x_axis, grid.p_axis, grid.gap)
        # the smallest gap is black, the largest white
        assert pixels.min() == 0 and pixels.max() == 255

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
        text = same_csv_bytes(tmp_path, ["a", "b", "c", "d"], table, table.T).decode()
        assert text.count("\n") == len(META) + 1 + n
        assert ",-0," in text and ",0," in text and ",nan," in text

    def test_one_row_table(self, tmp_path):
        same_csv_bytes(tmp_path, ["phi", "partial_phase"], [[0.0, np.pi]])

    @pytest.mark.parametrize("rows, columns", [([], [[], []]), (np.empty((0, 2)), np.empty((2, 0)))],
                             ids=["list", "array"])
    def test_zero_row_table(self, tmp_path, rows, columns):
        text = same_csv_bytes(tmp_path, ["phi", "partial_phase"], rows, columns).decode()
        assert text.endswith("\nphi,partial_phase\n")

    def test_constant_heatmap(self, tmp_path):
        # v_hi == v_lo takes the span = 1.0 branch: every cell is black
        pixels = check_pixels(tmp_path, [0.0, 1.0, 2.0], [0.0, 1.0], np.full((3, 2), 0.25))
        assert pixels.shape == (2, 3) and not pixels.any()

    @pytest.mark.parametrize("nx, npts", [
        (200, 100),
        (3, _BLOCK_ROWS + 3),
        (_BLOCK_ROWS + 5, 1),  # an n x 1 map: one pixel row
        (1, 7),  # a 1 x n map: one pixel column
        (1, 1),
    ])
    def test_heatmap_shapes(self, tmp_path, nx, npts):
        values = np.random.default_rng(nx).standard_normal((nx, npts))
        check_pixels(tmp_path, np.arange(float(nx)), np.arange(float(npts)), values)

    def test_half_shades_round_to_even(self, tmp_path):
        # shades 0, 0.5, 1.5, 2.5, 255 exactly: round half to even gives 0, 0, 2, 2, 255
        values = np.array([[0.0, 0.5, 1.5, 2.5, 255.0]])
        pixels = check_pixels(tmp_path, [0.0], np.arange(5.0), values)
        assert pixels[::-1, 0].tolist() == [0, 0, 2, 2, 255]

    @pytest.mark.parametrize("resolution, block_rows", [
        (203, None),  # 41 209 rows: slices of 40 x-rows, the last one 3 rows
        (15, 7),  # an x-row longer than a block: slices of one x-row, written in 7-row pieces
    ], ids=["blocks", "short-blocks"])
    def test_cli_surface_rows_match_per_value_writer(self, tmp_path, monkeypatch,
                                                     resolution, block_rows):
        # the streamed files are those of the whole-grid build: the per-row
        # CSV, and the JSON and heatmap of its gap
        if block_rows is not None:
            monkeypatch.setattr(cli_module, "_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(output_module, "_BLOCK_ROWS", block_rows)
        out = tmp_path / "out"
        assert main([
            "surfaces", "--model", "both", "--g", "0.4", "--resolution", str(resolution),
            "--x-range=-2:1", "--p-range=-1:3", "--svg", "--out", str(out),
        ]) == 0
        x_axis = np.linspace(-2.0, 1.0, resolution)
        p_axis = np.linspace(-1.0, 3.0, resolution)
        cfg = RunConfig(model="both", g=0.4, output_dir=str(out))
        for model in ("jc", "rabi"):
            grid = boa_surface(ModelKind(model), cfg.params(), x_axis, p_axis)
            meta = cfg.metadata("surfaces", x_range="-2:1", p_range="-1:3",
                                resolution=resolution, this_model=model)
            frozen = frozen_write_csv(tmp_path / "old.csv", SURFACE_COLUMNS,
                                      surface_rows(grid), meta)
            assert (out / f"surface_{model}.csv").read_bytes() == frozen.read_bytes()
            report = classify_degeneracy(grid.x_axis, grid.p_axis, grid.gap)
            payload = {"min_gap": report.min_gap, "locus": report.locus,
                       "tol_gap": report.tol_gap, "n_minimal_cells": len(report.coordinates),
                       "coordinates": report.coordinates}
            whole = write_json(tmp_path / "old.json", payload, meta)
            assert (out / f"degeneracy_{model}.json").read_bytes() == whole.read_bytes()
            whole = write_svg_heatmap(tmp_path / "old.svg", x_axis, p_axis, grid.gap,
                                      f"{model} adiabatic gap", meta)
            assert (out / f"surface_gap_{model}.svg").read_bytes() == whole.read_bytes()


class TestWriteCsvShape:
    @pytest.mark.parametrize("columns, got", [
        ([[1, 2], [3, 4], [5, 6]], "got 3"),
        ([[1]], "got 1"),
        (np.zeros((3, 4)), "got 3"),
    ])
    def test_width_must_match_header(self, tmp_path, columns, got):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="must have 2 columns to match its header") as info:
            write_csv(path, ["a", "b"], [columns], {})
        assert str(info.value).endswith(got)
        assert not path.exists()

    @pytest.mark.parametrize("columns, got", [
        ([[1, 2, 3], [4]], "table columns must have one length, got lengths [3, 1]"),
        ([1, 2], "table column 0 must be 1-D, got shape ()"),
        ([[1.0, 2.0], [[3.0], [4.0]]], "table column 1 must be 1-D, got shape (2, 1)"),
    ])
    def test_columns_must_be_one_length(self, tmp_path, columns, got):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError) as info:
            write_csv(path, ["a", "b"], [columns], {})
        assert str(info.value) == got
        assert not path.exists()

    @pytest.mark.parametrize("columns", [[["x"]], [[{}]], np.array([["1"], ["y"]])])
    def test_entries_must_be_numbers(self, tmp_path, columns):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="table entries must be numbers") as info:
            write_csv(path, ["a", "b"][:len(columns)], [columns], {})
        assert "one length" not in str(info.value)
        assert not path.exists()

    @pytest.mark.parametrize("columns, where", [
        ([[None], [1.0]], "row 0, column 0"),
        ([[1.0, 3.0], [2.0, None]], "row 1, column 1"),
        (np.array([[1.0], [None]], dtype=object), "row 0, column 1"),
    ])
    def test_none_entries_refused(self, tmp_path, columns, where):
        # np.asarray reads None as NaN; a NaN number is still written
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=f"table entries must be numbers: None in {where}$"):
            write_csv(path, ["a", "b"], [columns], {})
        assert not path.exists()
        assert write_csv(path, ["a", "b"], [[[float("nan")], [1.0]]], {}).read_text() == "a,b\nnan,1\n"

    @pytest.mark.parametrize("later, got", [
        ([[5.0], [6.0], [7.0]], "table must have 2 columns to match its header, got 3"),
        ([[5.0, 6.0], [7.0]], "table columns must have one length, got lengths [2, 1]"),
        ([[5.0, 6.0], [7.0, None]], "table entries must be numbers: None in row 3, column 1"),
    ], ids=["width", "length", "none"])
    def test_a_later_block_that_fails_leaves_no_file(self, tmp_path, later, got):
        # the first block passes and is written before the second is checked
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError) as info:
            write_csv(path, ["a", "b"], [[[1.0, 2.0], [3.0, 4.0]], later], {})
        assert str(info.value) == got
        assert not path.exists()

    def test_a_raising_block_source_leaves_no_file(self, tmp_path):
        def blocks():
            yield [np.arange(3.0), np.arange(3.0)]
            raise ValueError("the surface overflows")

        path = tmp_path / "bad.csv"
        path.write_text("an earlier run's file\n")
        with pytest.raises(ValueError, match="the surface overflows"):
            write_csv(path, ["a", "b"], blocks(), {})
        assert not path.exists()

    def test_blocks_follow_each_other(self, tmp_path):
        rows = [[float(i), -i / 3.0] for i in range(12)]
        blocks = [columns_of(rows[:5], 2), columns_of(rows[5:5], 2), columns_of(rows[5:], 2)]
        written = write_csv(tmp_path / "new.csv", ["a", "b"], blocks, META).read_bytes()
        assert written == frozen_write_csv(tmp_path / "old.csv", ["a", "b"], rows, META).read_bytes()
        assert write_csv(tmp_path / "none.csv", ["a", "b"], [], {}).read_text() == "a,b\n"

    def test_header_needs_a_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match="at least one column"):
            write_csv(path, [], [[]], {})
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

    @pytest.mark.parametrize("coordinates", [
        [[0.5, -1.25]],
        [[-0.0, 0.0], [0.0, -0.0]],
        [[1e-300, -1.7976931348623157e308], [1.7976931348623157e308, 5e-324]],
        [[0.1, 1 / 3], [1 / 3, 0.1]],
        [[(i % 7) * 0.1, -(i % 5) / 3] for i in range(200)],  # values repeat across rows
        [[0.1, -0.0, 1e22]] * 3,  # three columns
    ], ids=["one", "signed-zero", "extremes", "thirds", "many", "triple"])
    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray,
                                        lambda a: np.repeat(a, 2, axis=0)[::2]],
                             ids=["c", "fortran", "strided"])
    def test_float_array_matches_json_dumps(self, tmp_path, coordinates, layout):
        array = layout(np.array(coordinates))
        payload = {"min_gap": 0.25, "locus": "line", "coordinates": array, "tol_gap": 1e-3}
        path = write_json(tmp_path / "degeneracy.json", payload, META)
        assert path.read_bytes() == json_reference(dict(payload, coordinates=coordinates), META)

    @pytest.mark.parametrize("array", [np.empty((0, 2)), np.empty((3, 0)), np.arange(6).reshape(3, 2),
                                       np.array([0.5, -0.0]), np.float32([[0.1, 0.2]])],
                             ids=["no-rows", "no-columns", "int", "1-D", "float32"])
    def test_other_arrays_are_their_lists(self, tmp_path, array):
        path = write_json(tmp_path / "d.json", {"coordinates": array}, META)
        assert path.read_bytes() == json_reference({"coordinates": array.tolist()}, META)

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
            write_json(path, {"coordinates": np.array(coordinates)}, META)
        with pytest.raises(ValueError) as want:
            json_reference({"coordinates": coordinates}, META)
        assert str(info.value) == str(want.value)
        assert not path.exists()


class TestWriteCsvMemory:
    def test_peak_does_not_grow_with_the_rows(self, tmp_path):
        # a surface-like table of 2 and of 24 blocks; a whole-table index,
        # text or piece array would add at least one block's float bytes
        # per block to the later peak
        peaks = []
        for blocks in (2, 24):
            n = blocks * _BLOCK_ROWS
            axis = np.linspace(-3.0, 3.0, 301)
            columns = [np.repeat(axis, n // 301 + 1)[:n], np.tile(axis, n // 301 + 1)[:n],
                       *np.random.default_rng(blocks).standard_normal((3, n))]
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                write_csv(tmp_path / f"blocks{blocks}.csv", SURFACE_COLUMNS, [columns], META)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < _BLOCK_ROWS * len(SURFACE_COLUMNS) * 8, peaks

    def test_surfaces_command_peak_grows_by_the_gap_grid(self, tmp_path):
        # the gap is the command's one full-grid array: from 201 to 401 nodes
        # per axis its peak may grow by the gap's 8 bytes per node plus two
        # blocks' written text (the writer formats a block while the last
        # one's arrays are still alive, and their size varies with the
        # blocks' distinct values); whole-grid surfaces and columns would
        # add several floats per node
        def run(resolution):
            return main(["surfaces", "--model", "both", "--svg", "--resolution",
                         str(resolution), "--out", str(tmp_path)])

        assert run(21) == 0  # first-call allocations fall outside the traced runs
        peaks = []
        for resolution in (201, 401):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert run(resolution) == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        gap_growth = 8 * (401 ** 2 - 201 ** 2)
        block_text = _BLOCK_ROWS * len(SURFACE_COLUMNS) * 25  # one S25 block, about 1 MB
        assert peaks[1] - peaks[0] <= gap_growth + 2 * block_text, peaks
