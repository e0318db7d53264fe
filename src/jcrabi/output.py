"""Deterministic CSV / JSON / SVG emission for the command line front end.

Re-running with the same configuration must reproduce files byte-identically,
so nothing here writes timestamps or environment-dependent content.  CSV
files carry '#'-prefixed metadata lines; JSON and SVG embed the same metadata
in-format (a "config" object, an XML comment) so the files stay parseable.

write_csv takes the rows as an iterable of column blocks, one 1-D column
per header name in each, and writes them in pieces of at most _BLOCK_ROWS
rows, so it builds nothing of the whole table's size; a caller that holds
the whole table passes it as one block, and the surfaces command passes a
generator that evaluates a slice of the grid per block.  Each piece reduces
its columns to their distinct values, compared bit for bit so that -0.0
stays apart from 0.0, and formats them with one call of _fmt17, an exact
vectorized "%.17g" for 1e-4 <= |v| < 1e17 that falls back to per-value %
for zeros, subnormals, NaN, infinities and the scientific range.
write_json lays out a 2-D float array member from the float.__repr__ of its
distinct values; every other member goes through json.dumps.  The heatmap
is one grayscale PNG inside the SVG.  Every check of the JSON and SVG
writers and of the first CSV block runs before the file is opened; a later
CSV block that fails its check, or a block generator that raises, removes
the partial file.  So rejected input leaves no file.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from pathlib import Path

import numpy as np


def metadata_lines(meta: dict) -> list:
    return [f"# {key} = {value}" for key, value in meta.items()]


def _table(columns, n_cols: int, first_row: int = 0) -> list:
    """columns, one 1-D sequence per header name, as float64 arrays of one
    length; first_row is the table row of the block's first row."""
    if len(columns) != n_cols:
        raise ValueError(f"table must have {n_cols} columns to match its header, "
                         f"got {len(columns)}")
    table = []
    for c, column in enumerate(columns):
        try:
            values = np.asarray(column, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"table entries must be numbers: {exc}") from exc
        if values.ndim != 1:
            raise ValueError(f"table column {c} must be 1-D, got shape {values.shape}")
        if values is not column:  # converting turns None into NaN
            for i in np.flatnonzero(np.isnan(values)).tolist():
                if column[i] is None:
                    raise ValueError(f"table entries must be numbers: None in row "
                                     f"{first_row + i}, column {c}")
        table.append(values)
    if len({len(values) for values in table}) > 1:
        raise ValueError(f"table columns must have one length, got lengths "
                         f"{[len(values) for values in table]}")
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


def write_csv(path, header, blocks, meta: dict) -> Path:
    """Header, then one line per row, every value with 17 significant digits.

    blocks is an iterable of column blocks: each holds one 1-D sequence of
    numbers per header name, and its rows follow the previous block's.  The
    first block is checked before the file is opened; if a later block
    fails its check or the iterable raises, the partial file is removed and
    the error propagates."""
    path = Path(path)
    if not header:
        # the last column's pieces carry the line ends
        raise ValueError("table must have at least one column")
    blocks = iter(blocks)
    first = next(blocks, None)
    table = None if first is None else _table(first, len(header))
    ends = [b","] * (len(header) - 1) + [b"\n"]
    with path.open("wb") as f:
        try:
            f.write(("\n".join(metadata_lines(meta) + [",".join(header)]) + "\n").encode())
            rows = 0
            while table is not None:
                for start in range(0, len(table[0]), _BLOCK_ROWS):
                    distinct = [np.unique(values[start:start + _BLOCK_ROWS].view(np.int64),
                                          return_inverse=True) for values in table]
                    text = _fmt17(np.concatenate([bits for bits, _ in distinct]).view(float))
                    block = np.empty((len(distinct[0][1]), len(table)), dtype="S25")
                    for c, ((bits, inverse), end) in enumerate(zip(distinct, ends)):
                        block[:, c] = np.strings.add(text[:len(bits)], end)[inverse]
                        text = text[len(bits):]
                    raw = block.view(np.uint8)
                    f.write(raw[raw != 0])
                    del distinct, text  # freed before the next block builds its own
                rows += len(table[0])
                columns = next(blocks, None)
                table = None if columns is None else _table(columns, len(header), rows)
        except BaseException:
            f.close()
            path.unlink(missing_ok=True)
            raise
    return path


def write_json(path, payload: dict, meta: dict) -> Path:
    """payload plus a "config" object holding meta, as strict JSON: a NaN or
    infinite value raises ValueError and no file is written.

    The bytes are those of json.dumps(doc, indent=2, allow_nan=False), a
    numpy array member written as its .tolist().  A non-empty 2-D float
    array of finite values (the degeneracy coordinates) is laid out here,
    each distinct value put through float.__repr__ once, and written
    _BLOCK_ROWS rows at a time."""
    path = Path(path)
    doc = dict(payload)
    doc["config"] = {k: v for k, v in meta.items()}
    members = []  # the text of each member, or (key, array) for a laid-out array
    for key, value in doc.items():
        if isinstance(value, np.ndarray):
            if (value.ndim == 2 and value.dtype == np.float64 and value.size
                    and isinstance(key, str) and np.isfinite(value).all()):
                members.append((key, value))
                continue
            value = value.tolist()
        # '{\n  "key": value\n}' without its braces
        members.append(json.dumps({key: value}, indent=2, allow_nan=False)[2:-2])
    with path.open("w", newline="\n") as f:
        f.write("{\n")
        for m, member in enumerate(members):
            if m:
                f.write(",\n")
            if isinstance(member, str):
                f.write(member)
                continue
            key, value = member
            bits, inverse = np.unique(value.view(np.int64), return_inverse=True)
            inverse = inverse.reshape(value.shape)
            reprs = np.array(list(map(float.__repr__, bits.view(float).tolist())), object)
            row = "    [\n" + ",\n".join(["      %s"] * value.shape[1]) + "\n    ]"
            f.write(f"  {json.dumps(key)}: [\n")
            for start in range(0, len(value), _BLOCK_ROWS):
                part = inverse[start:start + _BLOCK_ROWS]
                f.write((",\n" if start else "")
                        + ",\n".join([row] * len(part)) % tuple(reprs[part.ravel()]))
            f.write("\n  ]")
        f.write("\n}\n")
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


# zlib level of the heatmap PNG: fixed, so reruns give the same bytes.
_PNG_LEVEL = 6


def _png_gray(pixels) -> bytes:
    """An 8-bit grayscale PNG of a (height, width) uint8 array, no row filters."""
    raw = np.pad(pixels, ((0, 0), (1, 0)))  # filter type 0 before each row
    chunks = [(b"IHDR", struct.pack(">IIBBBBB", pixels.shape[1], pixels.shape[0], 8, 0, 0, 0, 0)),
              (b"IDAT", zlib.compress(raw.tobytes(), _PNG_LEVEL)), (b"IEND", b"")]
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))
        for kind, data in chunks)


def write_svg_heatmap(path, x_axis, p_axis, values, title: str, meta: dict) -> Path:
    """Grayscale map of values[i, j] over (x_axis[i], p_axis[j]), drawn as
    one embedded PNG: pixel column i is x_axis[i], and the top pixel row is
    the last p."""
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
    # low gap = dark, so degeneracies stand out; np.rint rounds half to even.
    # 255 * (values - v_lo) / span, formed in place in one temporary
    shades = values - v_lo
    shades *= 255
    shades /= span
    np.rint(shades, out=shades)
    shades = shades.astype(np.uint8)
    png = base64.b64encode(_png_gray(shades.T[::-1])).decode("ascii")
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        "<!-- " + "; ".join(f"{k} = {v}" for k, v in meta.items()) + " -->",
        f'<text x="{ml + nx*cell/2:.1f}" y="24" text-anchor="middle" '
        f'font-size="15">{title}</text>',
        f'<image x="{ml:.2f}" y="{mt:.2f}" width="{nx*cell:.2f}" height="{npts*cell:.2f}" '
        f'preserveAspectRatio="none" style="image-rendering:pixelated" '
        f'href="data:image/png;base64,{png}"/>',
        f'<text x="{ml:.1f}" y="{height-18:.1f}" font-size="12">'
        f"x in [{x_axis[0]:.3g}, {x_axis[-1]:.3g}], p in [{p_axis[0]:.3g}, {p_axis[-1]:.3g}], "
        f"value range [{v_lo:.6g}, {v_hi:.6g}] (dark = small)</text>",
        "</svg>",
    ]
    path.write_text("\n".join(out) + "\n", newline="\n")
    return path
