"""Deterministic CSV / JSON / SVG emission for the command line front end.

Re-running with the same configuration must reproduce files byte-identically,
so nothing here writes timestamps or environment-dependent content.  CSV
files carry '#'-prefixed metadata lines; JSON and SVG embed the same metadata
in-format (a "config" object, an XML comment) so the files stay parseable.

The CSV and heatmap writers format each distinct piece once and stream the
file in blocks of rows.  A CSV column is reduced to its distinct values
(compared bit for bit, so -0.0 stays apart from 0.0), which one `%`
operation formats; heatmap cells are joined from precomputed x, y and shade
pieces.  Every check and all formatting run before the file is opened, so
rejected input writes no file.  The bytes are those of per-value formatting
(17 significant digits, shades rounded half to even).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def metadata_lines(meta: dict) -> list:
    return [f"# {key} = {value}" for key, value in meta.items()]


def _table(rows, n_cols: int) -> np.ndarray:
    """rows (a list of rows or a 2-D array) as a float64 (n, n_cols) array."""
    if n_cols < 1:
        # the last column's pieces carry the line ends
        raise ValueError("table must have at least one column")
    expected = f"table must have {n_cols} columns to match its header"
    try:
        table = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        try:
            np.shape(rows)  # raises only for rows of unequal length
        except ValueError:
            raise ValueError(f"{expected}, got ragged rows: {exc}") from exc
        raise ValueError(f"table entries must be numbers: {exc}") from exc
    if table.size == 0 and table.ndim == 1:
        table = table.reshape(0, n_cols)
    if table.ndim != 2 or table.shape[1] != n_cols:
        raise ValueError(f"{expected}, got shape {table.shape}")
    # the conversion turns None into NaN, so only a NaN can hide one
    for flat in np.flatnonzero(np.isnan(table)).tolist():
        i, j = divmod(flat, n_cols)
        if rows[i][j] is None:
            raise ValueError(f"table entries must be numbers: None in row {i}, column {j}")
    return table


# Rows per written block: bounds the strings alive at once.
_BLOCK_ROWS = 8192


def _column_pieces(column: np.ndarray, sep: str):
    """(pieces, inverse): column[i] formats as pieces[inverse[i]], each piece
    "%.17g" followed by sep.  Distinct values are told apart by their bits."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = (("%.17g" + sep) * len(bits)) % tuple(bits.view(float).tolist())
    return np.array(text.split(sep)[:-1], dtype=object) + sep, inverse


def write_csv(path, columns, rows, meta: dict) -> Path:
    """Header, then one line per row, every value with 17 significant digits."""
    path = Path(path)
    n_cols = len(columns)
    table = _table(rows, n_cols)
    lines = metadata_lines(meta)
    lines.append(",".join(columns))
    formatted = [_column_pieces(table[:, c], "\n" if c == n_cols - 1 else ",")
                 for c in range(n_cols)]
    with path.open("w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, len(table))
            block = np.empty((stop - start, n_cols), dtype=object)
            for c, (pieces, inverse) in enumerate(formatted):
                block[:, c] = pieces[inverse[start:stop]]
            f.write("".join(block.ravel().tolist()))
    return path


def write_json(path, payload: dict, meta: dict) -> Path:
    """payload plus a "config" object holding meta, as strict JSON: a NaN or
    infinite value raises ValueError and no file is written."""
    path = Path(path)
    doc = dict(payload)
    doc["config"] = {k: v for k, v in meta.items()}
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", newline="\n")
    return path


_SVG_COLORS = ("#000000", "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e")


def _axis_ticks(lo: float, hi: float, n: int = 5):
    if hi == lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, n)


def write_svg_lines(path, series, title: str, xlabel: str, ylabel: str, meta: dict) -> Path:
    """Minimal polyline plot; series is a list of (label, x_array, y_array)."""
    path = Path(path)
    width, height = 760.0, 520.0
    ml, mr, mt, mb = 70.0, 160.0, 40.0, 50.0
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    px = lambda x: ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)
    py = lambda y: height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        "<!-- " + "; ".join(f"{k} = {v}" for k, v in meta.items()) + " -->",
        f'<rect x="{ml:.1f}" y="{mt:.1f}" width="{width-ml-mr:.1f}" '
        f'height="{height-mt-mb:.1f}" fill="none" stroke="black"/>',
        f'<text x="{(ml+width-mr)/2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<text x="{(ml+width-mr)/2:.1f}" y="{height-12:.1f}" text-anchor="middle" '
        f'font-size="13">{xlabel}</text>',
        f'<text x="18" y="{(mt+height-mb)/2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {(mt+height-mb)/2:.1f})">{ylabel}</text>',
    ]
    for tx in _axis_ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx):.2f}" y1="{height-mb:.1f}" x2="{px(tx):.2f}" '
            f'y2="{height-mb+5:.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.2f}" y="{height-mb+18:.1f}" text-anchor="middle" '
            f'font-size="11">{tx:.3g}</text>'
        )
    for ty in _axis_ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{ml-5:.1f}" y1="{py(ty):.2f}" x2="{ml:.1f}" '
            f'y2="{py(ty):.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{ml-8:.1f}" y="{py(ty)+4:.2f}" text-anchor="end" '
            f'font-size="11">{ty:.3g}</text>'
        )
    for i, (label, x, y) in enumerate(series):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, y))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        ly = mt + 16 + 16 * i
        out.append(
            f'<line x1="{width-mr+10:.1f}" y1="{ly:.1f}" x2="{width-mr+34:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{width-mr+40:.1f}" y="{ly+4:.1f}" font-size="11">{label}</text>'
        )
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n", newline="\n")
    return path


def write_svg_heatmap(path, x_axis, p_axis, values, title: str, meta: dict) -> Path:
    """Grayscale cell map of values[i, j] over (x_axis[i], p_axis[j])."""
    path = Path(path)
    values = np.asarray(values, dtype=float)
    nx, npts = values.shape
    cell = max(2.0, min(600.0 / nx, 440.0 / npts))
    ml, mt = 70.0, 40.0
    width = ml + nx * cell + 40.0
    height = mt + npts * cell + 60.0
    if not np.all(np.isfinite(values)):
        raise ValueError("heatmap values must be finite")
    v_lo, v_hi = float(np.min(values)), float(np.max(values))
    span = v_hi - v_lo if v_hi > v_lo else 1.0
    # np.rint rounds half to even, as round() does
    shades = np.rint(255 * (values - v_lo) / span).astype(int)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        "<!-- " + "; ".join(f"{k} = {v}" for k, v in meta.items()) + " -->",
        f'<text x="{ml + nx*cell/2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
    ]
    # a cell is x-head + y-part + shade tail; low gap = dark, so
    # degeneracies stand out
    x_heads = np.array([f'<rect x="{ml + i*cell:.2f}" y="' for i in range(nx)], dtype=object)
    y_parts = np.array([f'{mt + (npts-1-j)*cell:.2f}" ' for j in range(npts)], dtype=object)
    tails = np.array([
        f'width="{cell:.2f}" height="{cell:.2f}" fill="rgb({s},{s},{s})"/>\n'
        for s in range(256)
    ], dtype=object)
    footer = [
        f'<text x="{ml:.1f}" y="{height-18:.1f}" font-size="12">'
        f"x in [{x_axis[0]:.3g}, {x_axis[-1]:.3g}], p in [{p_axis[0]:.3g}, {p_axis[-1]:.3g}], "
        f"value range [{v_lo:.6g}, {v_hi:.6g}] (dark = small)</text>",
        "</svg>",
    ]
    block_rows = max(1, _BLOCK_ROWS // npts)
    with path.open("w", newline="\n") as f:
        f.write("\n".join(out) + "\n")
        for start in range(0, nx, block_rows):
            stop = min(start + block_rows, nx)
            cells = np.empty((stop - start, npts, 3), dtype=object)
            cells[:, :, 0] = x_heads[start:stop, None]
            cells[:, :, 1] = y_parts
            cells[:, :, 2] = tails[shades[start:stop]]
            f.write("".join(cells.ravel().tolist()))
        f.write("\n".join(footer) + "\n")
    return path
