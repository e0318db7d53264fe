"""Deterministic CSV / JSON / SVG emission for the command line front end.

Re-running with the same configuration must reproduce files byte-identically,
so nothing here writes timestamps or environment-dependent content.  CSV
files carry '#'-prefixed metadata lines; JSON and SVG embed the same metadata
in-format (a "config" object, an XML comment) so the files stay parseable.

The CSV and heatmap writers format each distinct piece once and stream the
file in blocks of rows.  A CSV column is reduced to its distinct values
(compared bit for bit, so -0.0 stays apart from 0.0); the distinct values of
the whole table go through one call of _fmt17, an exact vectorized "%.17g"
for 1e-4 <= |v| < 1e17 that falls back to per-value % for zeros,
subnormals, NaN, infinities and the scientific range.  Each block of rows
is an S25 array of those pieces and their separators, written as its
non-NUL bytes.  write_json lays out lists of [float, float] rows itself and
leaves every other member to json.dumps.  Heatmap cells are joined from
precomputed x, y and shade pieces.  Every check and all formatting run
before the file is opened, so rejected input writes no file.  The bytes are
those of per-value formatting (17 significant digits, float.__repr__ in
JSON, shades rounded half to even).
"""

from __future__ import annotations

import json
import math
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


# Rows per written block: bounds the bytes alive at once.
_BLOCK_ROWS = 8192

# _fmt17 tables, built with array arithmetic so importing stays cheap.
_U64 = np.uint64
_POW5 = 5 ** np.arange(21, dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> _U64(32), _POW5 & _U64(0xFFFFFFFF)
_QUADS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # row g: g's digits
_SIGNIFICANT = np.logical_or.accumulate(_QUADS[:, ::-1] != 0, axis=1)[:, ::-1]
# entry g: the four digits of g as ASCII bytes; entry 10000 + g: the same
# with g's trailing zeros as NUL bytes, which the S24 view of a row drops
_DIGITS4 = np.ascontiguousarray(np.concatenate([
    _QUADS + np.uint8(ord("0")), (_QUADS + np.uint8(ord("0"))) * _SIGNIFICANT,
])).view(np.uint32).ravel()
# ASCII codes of the characters the layout places itself
_ZERO, _DOT, _MINUS = (np.uint8(ord(c)) for c in "0.-")


def _scaled(m, r, s):
    """(q, up): q = trunc(m 2^10 5^s / 2^r) and whether q rounds up, half to
    even.  m < 2^53, s <= 20 and 1 <= r <= 63; the 110-bit product is formed
    from 32-bit limbs in (hi, low) uint64 words."""
    ph, pl = _POW5_HI[s], _POW5_LO[s]
    mh, ml = m >> _U64(22), (m << _U64(10)) & _U64(0xFFFFFFFF)
    mid = mh * pl
    mid += ml * ph
    lo = ml * pl
    low = lo + (mid << _U64(32))
    hi = mh * ph
    hi += mid >> _U64(32)
    hi += low < lo  # the carry out of low
    r = r.astype(np.uint64)
    q = low >> r
    q |= hi << (_U64(64) - r)
    tail = low << (_U64(64) - r)  # the remainder, its half bit on top
    up = tail > _U64(1 << 63)
    up |= (tail == _U64(1 << 63)) & (q & _U64(1) == 1)
    return q, up


# Values per _fmt17 pass: bounds its temporaries to a few MB.
_FMT_CHUNK = 1 << 15


def _fmt17(values) -> np.ndarray:
    """"%.17g" % v for every v of a float array, as an S24 array.

    1e-4 <= |v| < 1e17 goes through _fixed17, in passes of _FMT_CHUNK
    values.  Zeros, subnormals, NaN, infinities and the scientific range are
    formatted one by one with %.
    """
    v = np.asarray(values, dtype=float).ravel()
    out = np.empty(v.shape, dtype="S24")
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e17)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = ["%.17g" % x for x in v[slow].tolist()]
    idx = np.flatnonzero(fast)
    for start in range(0, len(idx), _FMT_CHUNK):
        part = idx[start:start + _FMT_CHUNK]
        order, text = _fixed17(v[part])
        out[part[order]] = text
    return out


def _fixed17(v):
    """(order, text): text[i] is "%.17g" % v[order[i]], for 1e-4 <= |v| < 1e17.

    There "%.17g" is fixed notation with 17 significant digits, trailing
    zeros (and a bare point) dropped.  The digits are q = round(|v| 10^s),
    s = 16 - X, X = floor(log10 |v|), computed exactly: with |v| = m 2^e,
    |v| 10^s = m 5^s 2^(s + e), a 110-bit product shifted right and rounded
    half to even on the remainder (_scaled).  X comes from log10 and is
    re-picked where the truncated quotient falls outside [10^16, 10^17).
    Rounding never carries q to 10^17: the double closest below a power of
    ten in the range lies at least 8.3 units of the 17th digit below it
    (0.099999999999999992 for 0.1), more than the half unit a carry needs.
    The digits are looked up four at a time, and the values are laid out
    sorted by sign and X, so that in each group every character has a fixed
    column.
    """
    a = np.abs(v)
    bits = a.view(np.uint64)
    x = np.floor(np.log10(a)).astype(np.int64)
    np.clip(x, -4, 16, out=x)  # log10 rounds to 17 just below 1e17
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    r0 = 1069 - (bits >> _U64(52)).astype(np.int64)  # r = 10 - e - s
    q, up = _scaled(m, r0 + x, 16 - x)
    low, high = q < _U64(10 ** 16), q >= _U64(10 ** 17)
    fix = np.flatnonzero(low | high)
    if fix.size:
        x[fix] += high[fix].astype(np.int64) - low[fix]
        q[fix], up[fix] = _scaled(m[fix], r0[fix] + x[fix], 16 - x[fix])
    q += up

    key = (x + 4 + 32 * np.signbit(v)).astype(np.int8)
    order = np.argsort(key, kind="stable")
    key, q = key[order], q[order]
    hi9, lo8 = np.divmod(q, _U64(10 ** 8))
    hi9, lo8 = hi9.astype(np.uint32), lo8.astype(np.uint32)
    quads = np.empty((5, len(q)), dtype=np.uint32)
    quads[0] = hi9 // 10 ** 8
    quads[1], quads[2] = np.divmod(hi9 % 10 ** 8, 10 ** 4)
    quads[3], quads[4] = np.divmod(lo8, 10 ** 4)
    words = np.empty((len(q), 5), dtype=np.uint32)
    words[:, 0] = _DIGITS4[quads[0]]
    trailing = np.ones(len(q), dtype=bool)  # every later quad is zero
    for i in (4, 3, 2, 1):
        words[:, i] = _DIGITS4[quads[i] + 10000 * trailing]
        trailing &= quads[i] == 0
    # the 17 digits, trailing zeros NUL; the first one is never zero
    digits = words.view(np.uint8)[:, 3:]
    rows = np.zeros((len(q), 24), dtype=np.uint8)
    bounds = (np.flatnonzero(np.diff(key)) + 1).tolist()
    for start, stop in zip([0] + bounds, bounds + [len(q)]):
        neg, xe = divmod(int(key[start]), 32)
        xe -= 4
        d, text = digits[start:stop], rows[start:stop, neg:]
        if neg:
            rows[start:stop, 0] = _MINUS
        if xe >= 0:
            # integer digits keep their zeros; the point only before a digit
            np.bitwise_or(d[:, :xe + 1], _ZERO, out=text[:, :xe + 1])
            if xe < 16:
                text[:, xe + 1] = (d[:, xe + 1] != 0) * _DOT
                text[:, xe + 2:18] = d[:, xe + 1:]
        else:
            text[:, :1 - xe] = _ZERO
            text[:, 1] = _DOT
            text[:, 1 - xe:18 - xe] = d
    return order, rows.view("S24").ravel()


def write_csv(path, columns, rows, meta: dict) -> Path:
    """Header, then one line per row, every value with 17 significant digits."""
    path = Path(path)
    n_cols = len(columns)
    table = _table(rows, n_cols)
    lines = metadata_lines(meta)
    lines.append(",".join(columns))
    # distinct values by their bits, so -0.0 stays apart from 0.0
    distinct = [np.unique(table[:, c].view(np.int64), return_inverse=True)
                for c in range(n_cols)]
    # one kernel call per table: per-column calls cost more on small tables
    text = _fmt17(np.concatenate([bits for bits, _ in distinct]).view(float))
    ends = np.cumsum([len(bits) for bits, _ in distinct]).tolist()
    pieces = [np.strings.add(text[end - len(bits):end], b"\n" if c == n_cols - 1 else b",")
              for c, ((bits, _), end) in enumerate(zip(distinct, ends))]
    with path.open("wb") as f:
        f.write(("\n".join(lines) + "\n").encode())
        for start in range(0, len(table), _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, len(table))
            block = np.empty((stop - start, n_cols), dtype="S25")
            for c, (_, inverse) in enumerate(distinct):
                block[:, c] = pieces[c][inverse[start:stop]]
            raw = block.view(np.uint8)
            f.write(raw[raw != 0])
    return path


def _pair_rows(value):
    """The numbers of value, flattened, if it is a non-empty list of
    [float, float] rows; otherwise None."""
    if not (isinstance(value, (list, tuple)) and value and all(
            isinstance(row, (list, tuple)) and len(row) == 2 for row in value)):
        return None
    flat = [v for row in value for v in row]
    return flat if all(isinstance(v, float) for v in flat) else None


def write_json(path, payload: dict, meta: dict) -> Path:
    """payload plus a "config" object holding meta, as strict JSON: a NaN or
    infinite value raises ValueError and no file is written.

    The bytes are those of json.dumps(doc, indent=2, allow_nan=False), built
    member by member.  A member holding a list of finite [float, float]
    rows (the degeneracy coordinates) is laid out directly, each number as
    float.__repr__, which is what the encoder writes; every other member
    goes through json.dumps."""
    path = Path(path)
    doc = dict(payload)
    doc["config"] = {k: v for k, v in meta.items()}
    members = []
    for key, value in doc.items():
        flat = _pair_rows(value) if isinstance(key, str) else None
        if flat is None or not all(map(math.isfinite, flat)):
            # '{\n  "key": value\n}' without its braces
            members.append(json.dumps({key: value}, indent=2, allow_nan=False)[2:-2])
            continue
        row = "    [\n      %s,\n      %s\n    ]"
        body = ",\n".join([row] * len(value)) % tuple(map(float.__repr__, flat))
        members.append(f"  {json.dumps(key)}: [\n{body}\n  ]")
    path.write_text("{\n" + ",\n".join(members) + "\n}\n", newline="\n")
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
    axes = (len(x_axis), len(p_axis))
    if values.shape != axes:
        raise ValueError(f"heatmap values must have the axes' shape {axes}, "
                         f"got {values.shape}")
    nx, npts = axes
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
