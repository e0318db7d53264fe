"""Symmetric tridiagonal eigenproblems with explicit quality gates.

Every solve in this toolkit runs on the bands of real symmetric
tridiagonal matrices: the parity sectors of the two models.  The routines
below solve them and gate every eigenvalue or eigenpair they return.

The main input is the pair of parity sectors from models.parity_sectors,
given as bands stacked over the points: diag of shape (points, 2, m) and
off of shape (points, 2, m - 1), m = n_max + 1.  merged_levels solves them
for every layer and picks one path per call from the bands.  Where no
block of any point has two adjacent nonzero links (both JC sectors, since
JC conserves excitation number, and Rabi at g = 0 or n_max = 1), every
block is a set of decoupled 2 x 2 pairs and 1 x 1 blocks, whose values
_pair_eigvalsh gives in closed form for all points at once.  Otherwise
(Rabi at g != 0, which keeps parity only) every block is solved from a
certified leading block (_leading_levels), values only: np.linalg.eigvalsh
on the leading m' x m' blocks (tridiagonal assembles the stacked input) of
all points at once, a merge that picks the values the k levels keep, and
for each of those theta the twisted factorization of T_m' - theta I
(_twisted_tail), whose explicit vector x, padded with zeros, has the Ritz
residual r = sqrt(gamma_r^2 + (off[m'-1] x[m'-1])^2) / |x| in the full
block.  Where a Sturm count isolates one eigenvalue near theta, the
Kato-Temple bound r^2 / delta on the Rayleigh quotient of x certifies it
far below r; the same count checks that no block hides an eigenvalue
below the kept levels.  m' doubles from max(2k, 32) until every kept
value is certified to LEADING_ULPS ulps of max|T|, and a full
np.linalg.eigvalsh follows once m' reaches m.  Each kept value is then
gated by one sturm_count call on every block: an LDL^T inertia count on the
full bands that needs no eigensolver, whose loop stops within a few dozen
rows, once every later pivot is certified positive.  _merge numbers the
levels, and merged_levels reports each level's sector and in-sector index
and the m' and certified distance behind each point (SectorLevels).  Bands
whose links would square past the largest double are scaled down by a
power of two first (_scaled), and their values back.

No eigenvector is computed there.  The Berry loop reads two vectors of
one level, psi_0 and the column of eigh for its generator oracle, both
from one leading block of its sector (leading_pair): the twisted vector
at the merged value, scaled the same way, and the eigh of the block,
whose order doubles from the certified m' until the link it drops is
below a sixteenth of an ulp and the block's eigenvalue of that index is
the merged value.  residual_gate takes the products A v rather than A, so
both are gated on band_product: the three diagonals times the vectors,
scaled by band_scale (max|T|), with no m x m product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigen-residual bound, relative to max|A|.
EIG_RTOL = 1e-10


class ConvergenceError(RuntimeError):
    """Eigensolver did not reach its accuracy target."""


def residual_gate(av, values, vectors, maxabs: float, where: str) -> float:
    """max_i |A v_i - lambda_i v_i|_inf over the given eigenpairs (columns of
    ``vectors``, or one vector and a scalar value), given the products
    ``av`` = A v in the shape of ``vectors`` (a dense product, or
    band_product for a tridiagonal A); unless it is at most EIG_RTOL * max|A|
    (so also when it is NaN) it raises ConvergenceError, with ``where``
    naming the matrix."""
    residual = float(np.max(np.abs(av - vectors * values)))
    bound = EIG_RTOL * maxabs
    if not residual <= bound:
        raise ConvergenceError(
            f"eigen-residual {residual:.3e} {where} exceeds "
            f"{EIG_RTOL:.1e} * max|A| = {bound:.3e}"
        )
    return residual


def _merge(values):
    """Stable ascending merge of per-block spectra: values has shape
    (..., blocks, m), any leading axis possibly empty; returns (merged,
    order) of shape (..., blocks * m) with merged = flattened values[order],
    so entry order[i] is value order[i] % m of block order[i] // m.  Equal
    values keep block order, which fixes the level numbering of every
    parity-sector solve."""
    flat = values.reshape(*values.shape[:-2], np.prod(values.shape[-2:]))
    order = np.argsort(flat, axis=-1, kind="stable")
    return np.take_along_axis(flat, order, axis=-1), order


def tridiagonal(diag, off) -> np.ndarray:
    """The real symmetric tridiagonal matrices with bands ``diag`` (..., m)
    and ``off`` (..., m - 1), stacked: shape (..., m, m)."""
    diag = np.asarray(diag, dtype=float)
    m = diag.shape[-1]
    t = np.zeros(diag.shape + (m,))
    i = np.arange(m)
    t[..., i, i] = diag
    t[..., i[:-1], i[1:]] = off
    t[..., i[1:], i[:-1]] = off
    return t


def band_scale(diag, off) -> np.ndarray:
    """max|T| of each symmetric tridiagonal matrix with bands ``diag``
    (..., m) and ``off`` (..., m - 1): shape (...)."""
    return np.maximum(np.max(np.abs(diag), axis=-1), np.max(np.abs(off), axis=-1, initial=0.0))


def band_product(diag, off, x) -> np.ndarray:
    """T x for the symmetric tridiagonal T with bands ``diag`` (m,) and
    ``off`` (m - 1,), and ``x`` of shape (m,) or (m, n), one column per
    vector: the three diagonals times x, with no m x m matrix."""
    x = np.asarray(x)
    shape = (-1,) + (1,) * (x.ndim - 1)
    diag, off = np.reshape(diag, shape), np.reshape(off, shape)
    y = diag * x
    y[1:] += off * x[:-1]
    y[:-1] += off * x[1:]
    return y


def sturm_count(diag, off, shifts) -> np.ndarray:
    """Number of eigenvalues below each shift of a symmetric tridiagonal matrix.

    The matrix has diagonal ``diag`` (..., m) and off-diagonal moduli
    ``off`` (..., m - 1); ``shifts`` is (..., s), and the leading axes
    broadcast.  By Sylvester's law of inertia, T - x I = L D L^T has as
    many negative pivots d_j = diag_j - x - off_{j-1}^2 / d_{j-1} as T has
    eigenvalues below x.  A pivot smaller in magnitude than
    pivmin = tiny * max(1, max off^2) is replaced by +pivmin (LAPACK's
    dstebz guard, with the sign that leaves an eigenvalue equal to the
    shift uncounted), so a zero link or a shift on an eigenvalue neither
    divides by zero nor overflows.  The count is backward stable: it is
    exact for a matrix within a few ulps of T.  Pure numpy; the loop runs
    over the rows up to the stop below, every other axis is vectorised.

    The loop stops after the first row j at which, for every matrix and
    shift, the guarded pivot has d_j >= |off_j| and every later row is
    diagonally dominant at the matrix's largest shift:
    min_{i>j} (diag_i - |off_{i-1}| - |off_i|) - margin > max x, with
    margin = 32 ulps of max|T| and off_{m-1} = 0.  The rest of the band
    then adds nothing to the count, by induction: d_{i-1} >= |off_{i-1}|
    bounds off_{i-1}^2 / d_{i-1} by |off_{i-1}|, so
    d_i >= diag_i - x - |off_{i-1}| > |off_i| >= 0.  The margin covers the
    rounding of the floor, of diag_i - x and of the quotient (barring
    overflow and underflow).  On a JC or Rabi sector, whose diagonal grows
    like omega j against links like g sqrt(j), the stop comes within a few
    dozen rows, whatever m.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.abs(np.asarray(off, dtype=float))
    shifts = np.asarray(shifts, dtype=float)
    m = diag.shape[-1]
    if off.shape[-1] != m - 1:
        raise ValueError(
            f"off must have one entry fewer than diag, got {off.shape[-1]} and {m}"
        )
    top = np.max(off, axis=-1, initial=0.0)
    pivmin = (np.finfo(float).tiny * np.maximum(1.0, top * top))[..., None]
    # row i is dominant if diag_i - |off_{i-1}| - |off_i| - margin exceeds
    # the largest shift in every matrix; the stop waits for the last row
    # that is not
    margin = 32 * np.finfo(float).eps * np.maximum(np.max(np.abs(diag), axis=-1), top)
    floor = diag - margin[..., None]
    floor[..., 1:] -= off
    floor[..., :-1] -= off
    dominant = floor > np.max(shifts, axis=-1, keepdims=True, initial=-np.inf)
    dominant = np.all(dominant, axis=tuple(range(dominant.ndim - 1)))
    first = np.max(np.flatnonzero(~dominant), initial=0)
    # rows first, and every step in place: the loop is short on arrays
    # that are small, so its cost is the number of numpy calls
    rows = np.moveaxis(diag, -1, 0)[..., None]
    links = np.moveaxis(off, -1, 0)[..., None]
    squares = links * links
    d = rows[0] - shifts
    quotient = np.empty_like(d)
    negative = np.empty(d.shape, dtype=bool)
    count = np.zeros(d.shape, dtype=int)
    for j in range(m):
        if j:
            np.divide(squares[j - 1], d, out=quotient)
            np.subtract(rows[j], shifts, out=d)
            d -= quotient
        np.copyto(d, pivmin, where=np.less(np.abs(d, out=quotient), pivmin, out=negative))
        count += np.less(d, 0.0, out=negative)
        if first <= j < m - 1 and np.all(np.greater_equal(d, links[j], out=negative)):
            break
    return count


def _pair_eigvalsh(diag, off) -> np.ndarray:
    """Ascending eigenvalues of symmetric tridiagonal matrices none of whose
    nonzero links are adjacent, stacked as in tridiagonal: shape (..., m).

    Such a matrix is a direct sum of 1 x 1 blocks, which keep their
    diagonal entry, and of 2 x 2 blocks [[a, e], [e, c]] at each nonzero
    link e.  With s = (a - c)/2, h = hypot(s, e) and t = e^2 / (h + |s|),
    the pair's values are min(a, c) - t and max(a, c) + t: the form of
    (a + c)/2 -/+ h that subtracts nothing close, so the shift t of a small
    link keeps its relative accuracy and a zero link leaves a and c exact.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    a, c = diag[..., :-1], diag[..., 1:]
    # in place, so the sweep's (points, 2, m) stack gets few temporaries
    denom = np.abs(a - c)
    denom *= 0.5
    denom += np.hypot(denom, off)
    t = off * off  # stays 0 where h + |s| = 0, since then e = 0
    np.divide(t, denom, out=t, where=denom > 0)
    linked = off != 0
    values = diag.copy()
    pair = np.minimum(a, c, out=denom)
    pair -= t
    np.copyto(values[..., :-1], pair, where=linked)
    np.maximum(a, c, out=pair)
    pair += t
    np.copyto(values[..., 1:], pair, where=linked)
    values.sort(axis=-1)
    return values


# The order of the first leading block any solve tries.
_FIRST_ORDER = 32
# leading_pair cuts a band where the dropped link's term is at most this
# much of max|T|: a sixteenth of an ulp.
_DROPPED_RTOL = np.finfo(float).eps / 16
# Matrix entries per stacked LAPACK input, and array entries of a
# _twisted_tail call: the stacks are solved in chunks of rows, so a sweep's
# solve holds about 1 MB at once.
_STACK_ELEMENTS = 1 << 17
# A leading block is certified once every kept residual is at most this
# many ulps of max|T|.
LEADING_ULPS = 4
# merged_levels scales a point's bands below 2**_BAND_EXPONENT in modulus, so
# that the squares of their links stay far from overflow.
_BAND_EXPONENT = 500


def _chunked(solve, width: int, *rows):
    """solve(*chunk) over chunks of the leading axis of ``rows``, each chunk
    holding at most _STACK_ELEMENTS // width rows (at least one); the
    results, one array or a tuple of arrays, are concatenated."""
    step = max(1, _STACK_ELEMENTS // width)
    parts = [solve(*(r[i:i + step] for r in rows)) for i in range(0, len(rows[0]), step)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


def _twisted_tail(diag, off, theta):
    """The tail and the twist residual of a vector for each value in theta.

    ``diag`` (rows, m) and ``off`` (rows, m - 1) hold the bands of
    tridiagonal matrices T, ``theta`` (rows, kb) values near their
    eigenvalues.  Both LDL^T pivot sweeps of T - theta I run in one loop over
    the rows: top-down d_j = diag_j - theta - off_{j-1}^2 / d_{j-1} and
    bottom-up e_j = diag_j - theta - off_j^2 / e_{j+1}, each pivot smaller
    in magnitude than sturm_count's pivmin = tiny * max(1, max off^2)
    replaced by +pivmin.  The twist r minimises |gamma_j|, gamma_j = d_j +
    e_j - (diag_j - theta), and the vector x with x_r = 1, x_j = -(off_j /
    d_j) x_{j+1} above r and x_{j+1} = -(off_j / e_{j+1}) x_j below it has
    (T - theta I) x = gamma_r e_r (the twisted factorization: Parlett and
    Dhillon, Lin. Alg. Appl. 267, 1997).  x is formed as ratio products, so
    a zero link gives exact zeros.  Returns (|x_{m-1}|, |gamma_r|) / |x|_2
    and |gamma_r| / |x|_2^2, the distance from theta to the Rayleigh
    quotient of x (x_r = 1), each of shape (rows, kb), which only depend on
    the moduli of the links, and x itself, unnormalised, of shape
    (m, rows, kb).
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    m = diag.shape[-1]
    top = np.max(np.abs(off), axis=-1, initial=0.0)
    pivmin = (np.finfo(float).tiny * np.maximum(1.0, top * top))[:, None]
    # entry j of a stack holds the top-down quantity of row j and the
    # bottom-up one of row m - 1 - j, so one loop runs both sweeps
    shifted = diag.T[:, :, None] - theta
    piv = np.stack([shifted, shifted[::-1]], axis=1)
    link = np.stack([off.T, off.T[::-1]], axis=1)[..., None]
    square = link * link
    small = np.empty(piv.shape[1:], dtype=bool)
    magnitude = np.empty(piv.shape[1:])
    np.copyto(piv[0], pivmin, where=np.less(np.abs(piv[0]), pivmin, out=small))
    for p, prev, sq in zip(piv[1:], piv, square):
        p -= np.divide(sq, prev, out=magnitude)
        np.copyto(p, pivmin, where=np.less(np.abs(p, out=magnitude), pivmin, out=small))
    gamma = np.subtract(piv[:, 0] + piv[::-1, 1], shifted, out=shifted)
    np.abs(gamma, out=gamma)
    twist = np.argmin(gamma, axis=0)
    gap = np.take_along_axis(gamma, twist[None], axis=0)[0]
    # ratio i is x_i / x_{i+1} in half 0 and x_{m-1-i} / x_{m-2-i} in half
    # 1, set to 1 past the twist; the products from the end of the stack
    # then give x_j in half 0 for j <= r, and in half 1 at m - 1 - j for
    # j >= r (1 elsewhere, so x is the product of the two halves)
    ratio = np.divide(link, piv[:-1], out=piv[:-1])
    np.negative(ratio, out=ratio)
    reach = np.stack([twist, m - 1 - twist])
    np.copyto(ratio, 1.0, where=np.arange(m - 1)[:, None, None, None] >= reach)
    piv[-1] = 1.0
    np.multiply.accumulate(piv[::-1], axis=0, out=piv[::-1])
    x = np.multiply(piv[:, 0], piv[::-1, 1], out=gamma)
    norm = np.sqrt(np.einsum("j...,j...->...", x, x))
    gap /= norm
    return np.abs(piv[0, 1]) / norm, gap, gap / norm, x


def _leading_levels(diag, off, k: int, where):
    """The min(k, m) lowest eigenvalues of every block, from leading blocks.

    ``diag`` (points, blocks, m) and ``off`` (points, blocks, m - 1) hold
    the bands.  Starting at m' = max(2k, 32), np.linalg.eigvalsh solves the
    leading m' x m' blocks of all open points at once, and _merge merges
    their Ritz values: only the values that the k lowest levels keep, a
    prefix of each block, are certified, and the k-th level mu bounds the
    rest.

    For each kept value theta of a block T_m', _twisted_tail gives a vector
    x with (T_m' - theta I) x = gamma_r e_r.  Padded with zeros, x has the
    residual vector gamma_r e_r + off[m'-1] x[m'-1] e_m' in the full block
    T, so the Ritz residual r = sqrt(gamma_r^2 + (off[m'-1] x[m'-1])^2) / |x|
    bounds the distance from theta to an eigenvalue of T: for any unit y,
    some eigenvalue lies within |(T - theta I) y|_2 of theta (Parlett, The
    Symmetric Eigenvalue Problem, ch. 4).  The Rayleigh quotient of x is
    theta + gamma_r / |x|^2, so where (theta - delta, theta + delta), delta
    half the distance from theta to its neighbouring Ritz values, holds
    exactly one eigenvalue lambda of T, the Kato-Temple bound (Kato,
    J. Phys. Soc. Jpn. 4, 334, 1949) gives |lambda - theta| <= s +
    r^2 / (delta - s), s = |gamma_r| / |x|^2, once delta - s > r.  The
    certified distance of theta is the smaller bound, and r alone where the
    count does not isolate lambda.  One sturm_count call on the full bands
    of each point that could certify counts theta -/+ delta for each kept
    value and mu - tol, tol = EIG_RTOL * max|T|, for each block b: the
    completeness count, no more than K_b eigenvalues of T below mu - tol
    where b keeps K_b values, so that no eigenvalue the leading block
    misses lies below the kept levels.  A point is done once the certified
    distance of every kept value is at most LEADING_ULPS ulps of its
    block's max|T| and every block passes the completeness count; m'
    doubles for the rest.  The bound is that of the explicit vector, not of
    an exact eigenpair of T_m'; no eigenvector is computed.  Points still
    open when m' reaches m get a full np.linalg.eigvalsh.

    Returns (values, size, residual): values (points, blocks, min(k, m)),
    of which the unkept ones are Ritz values that nothing certifies; per
    point the m' it was solved at (m for a full solve) and the largest
    certified distance of its kept values (0 for a full solve).  A LAPACK
    failure raises ConvergenceError naming the order of the blocks it
    solved and where(point, 0), the first point still open.
    """
    n_points, n_blocks, m = diag.shape
    kb = min(k, m)
    values = np.empty((n_points, n_blocks, kb))
    size = np.full(n_points, m)
    residual = np.zeros(n_points)
    scale = band_scale(diag, off)
    bound = (LEADING_ULPS * np.finfo(float).eps * scale)[..., None]

    def lowest(d, o, n=kb):
        try:
            return np.linalg.eigvalsh(tridiagonal(d, o))[:, :n]
        except np.linalg.LinAlgError as exc:
            solved = (f"the full {m}-row sectors" if d.shape[-1] == m else
                      f"{d.shape[-1]} x {d.shape[-1]} leading blocks")
            raise ConvergenceError(
                f"eigenvalues of {solved} did not converge within the solver's iteration "
                f"cap ({exc}); the first point still open is {where(int(todo[0]), 0)}"
            ) from exc

    todo = np.arange(n_points)
    order = max(2 * k, _FIRST_ORDER)
    while todo.size and order < m:
        d = diag[todo, :, :order].reshape(-1, order)
        o = off[todo, :, :order - 1].reshape(-1, order - 1)
        # kb + 1 values: the last is the upper neighbour of value kb - 1
        ritz = _chunked(lambda *r: lowest(*r, kb + 1), order * order, d, o)
        ritz = ritz.reshape(len(todo), n_blocks, -1)
        theta = ritz[..., :kb]
        merged, rank = _merge(theta)
        # each block keeps a prefix of its ascending values, count of them
        count = np.count_nonzero(rank[:, :k, None] // kb == np.arange(n_blocks), axis=1)
        w = max(int(np.max(count)), 1)
        kept = np.arange(w) < count[..., None]
        # the tail holds both sweeps and two arrays of one: 4 w m' per row
        last, gap, shift = _chunked(lambda *r: _twisted_tail(*r)[:3], 4 * w * order, d, o,
                                    theta[..., :w].reshape(-1, w))
        link = np.abs(off[todo, :, order - 1]).reshape(-1, 1)
        r = np.hypot(gap, link * last).reshape(kept.shape)
        s = shift.reshape(kept.shape)
        # delta: half the distance to the nearer neighbour (value 0 has
        # only the upper one)
        step = np.diff(ritz[..., :w + 1], axis=-1)
        delta = 0.5 * np.minimum(step, np.concatenate([step[..., :1], step[..., :-1]], axis=-1))
        room = delta - s
        # r^2 / room as r * (r / room), which stays below r, so scaled
        # bands near 2**_BAND_EXPONENT cannot overflow
        ratio = np.divide(r, room, out=np.ones_like(r), where=room > r)
        temple = np.minimum(r, s + r * ratio)
        # only points whose kept values all certify if isolated are counted
        trial = np.flatnonzero(np.all((temple <= bound[todo]) | ~kept, axis=(1, 2)))
        p = todo[trial]
        mu = merged[trial, k - 1][:, None] - EIG_RTOL * scale[p]
        theta_w, delta_w = theta[trial, :, :w], delta[trial]
        counts = sturm_count(diag[p], off[p], np.concatenate(
            [theta_w - delta_w, theta_w + delta_w, mu[..., None]], axis=-1))
        alone = counts[..., w:2 * w] - counts[..., :w] == 1
        certified = np.where(kept[trial], np.where(alone, temple[trial], r[trial]), 0.0)
        done = (np.all(certified <= bound[p], axis=(1, 2))
                & np.all(counts[..., -1] <= count[trial], axis=1))
        finished = p[done]
        values[finished] = theta[trial[done]]
        size[finished] = order
        residual[finished] = np.max(certified[done], axis=(1, 2))
        todo = np.delete(todo, trial[done])
        order *= 2
    if todo.size:
        full = _chunked(lowest, m * m, diag[todo].reshape(-1, m), off[todo].reshape(-1, m - 1))
        values[todo] = full.reshape(-1, n_blocks, kb)
    return values, size, residual


@dataclass(frozen=True)
class SectorLevels:
    """The k lowest levels per point, and how they were solved.

    levels   -- (points, k), each row ascending
    block    -- (points,) the order of the largest block solved at the point:
                2 where every block splits into pairs, the leading-block m'
                where one was certified, m for a full solve
    residual -- (points,) the largest certified distance from a kept value
                of the point's leading blocks to an eigenvalue of its full
                block (_leading_levels), 0 where no block was cut
    sector   -- (points, k) the block of each level and
    index    -- (points, k) its index there: levels[p, j] is eigenvalue
                index[p, j] of block sector[p, j] (ties keep block order)
    """

    levels: np.ndarray
    block: np.ndarray
    residual: np.ndarray
    sector: np.ndarray
    index: np.ndarray


def _scaled(diag, off):
    """(diag / 2**power, off / 2**power, scale, power) for bands (points,
    blocks, m): power >= 0, per point, the least that brings them below
    2**_BAND_EXPONENT in modulus; scale the max modulus of each scaled band."""
    scale = band_scale(diag, off)
    power = np.maximum(np.frexp(np.max(scale, axis=-1))[1] - _BAND_EXPONENT, 0)
    if np.any(power):
        diag, off = (np.ldexp(band, -power[:, None, None]) for band in (diag, off))
        scale = np.ldexp(scale, -power[:, None])
    return diag, off, scale, power


def merged_levels(diag, off, k: int, where) -> SectorLevels:
    """The k lowest levels at each point, from the bands of its blocks.

    ``diag`` (points, blocks, m) and ``off`` (points, blocks, m - 1) hold
    the bands of every point (models.parity_sectors).  The path is chosen
    once per call: if no block of any point has two adjacent nonzero links
    (both JC parity sectors, and Rabi at g = 0 or n_max = 1), every block is
    a set of decoupled pairs, whose values come from the closed form of
    _pair_eigvalsh over all points at once.  Otherwise (Rabi at g != 0)
    every block is solved from certified leading blocks (_leading_levels).
    _merge numbers the levels, and the points are then checked in one batch
    on the full bands.
    Every value v_i that the k levels keep (the i-th eigenvalue of its
    block) must pass the Sturm count N(v_i - tol) <= i < N(v_i + tol),
    tol = EIG_RTOL * max|T|, which bounds |lambda_i - v_i| <= tol with no
    eigensolver involved and tolerates exact clusters; one sturm_count call
    counts every block, pairs or not, on the full bands.  A value not kept is
    counted at the k-th level instead, so that the count's loop stops where
    the kept values let it, and its count is not read.  A violation raises
    ConvergenceError naming where(point, block) and the eigenvalue; so does
    a LAPACK failure, with the order of the blocks it solved and the first
    point still open.

    Every solve and count squares the links, so a point whose bands reach
    2**_BAND_EXPONENT in modulus is first scaled down by an exact power of
    two (_scaled), and its levels, residual and tolerance are scaled back
    (LAPACK's dstevx rescales the same way).  Eigenvalues and Sturm counts
    scale exactly; every other point has scale 1 and is solved as given.
    """
    diag, off, scale, power = _scaled(np.asarray(diag, dtype=float),
                                      np.asarray(off, dtype=float))
    linked = off != 0
    if np.any(linked[..., 1:] & linked[..., :-1]):
        values, block, residual = _leading_levels(diag, off, k, where)
    else:
        values = _pair_eigvalsh(diag, off)[..., :k]
        block, residual = np.full(len(diag), 2), np.zeros(len(diag))
    kb = values.shape[-1]
    merged, order = _merge(values)
    kept = np.zeros(merged.shape, dtype=bool)
    np.put_along_axis(kept, order[..., :k], True, axis=-1)
    kept = kept.reshape(values.shape)
    tol = EIG_RTOL * scale[..., None]
    # a value the k levels do not keep is counted at the k-th level: its
    # count is not read, and the count's loop stops where the kept values
    # let it
    gate = np.minimum(values, merged[..., :k][..., -1, None, None])
    counts = sturm_count(diag, off, np.concatenate([gate - tol, gate + tol], axis=-1))
    below, within = counts[..., :kb], counts[..., kb:]
    index = np.arange(kb)
    # a zero block has the exact spectrum 0 and tol = 0: nothing to count
    bad = kept & ((below > index) | (within <= index)) & (tol > 0)
    if np.any(bad):
        p, b, i = np.argwhere(bad)[0]
        value, bound = (float(np.ldexp(v, power[p])) for v in (values[p, b, i], tol[p, b, 0]))
        raise ConvergenceError(
            f"eigenvalue {i} = {value!r} of {where(p, b)} fails "
            f"the Sturm count: N(v - tol) = {below[p, b, i]} and N(v + tol) = "
            f"{within[p, b, i]} eigenvalues lie below v -/+ tol, but "
            f"N(v - tol) <= {i} < N(v + tol) is needed "
            f"(tol = {EIG_RTOL:.1e} * max|T| = {bound:.3e})"
        )
    if np.any(power):
        merged, residual = np.ldexp(merged, power[:, None]), np.ldexp(residual, power)
    return SectorLevels(merged[..., :k], block, residual, *np.divmod(order[..., :k], kb))


@dataclass(frozen=True)
class LeadingPair:
    """Two eigenvectors of one sector at one of its merged values, from the
    leading block of order m' = ``order`` (m for the full band).

    twisted -- (m,) the unit twisted vector of T_m' - value I, zero past row m'
    column  -- (m,) eigenvector ``index`` of np.linalg.eigh of T_m', zero past
               row m'
    """

    twisted: np.ndarray
    column: np.ndarray
    order: int


def leading_pair(diag, off, index: int, value: float, start: int, where: str) -> LeadingPair:
    """Eigenvector ``index`` of a sector at its merged ``value``, twice.

    ``diag`` (m,) and ``off`` (m - 1,) are the bands of the symmetric
    tridiagonal T, and ``value`` its eigenvalue ``index`` as merged_levels
    gives it.  Both vectors come from the leading block T_m', m' starting at
    max(``start``, _FIRST_ORDER, index + 1) and doubling while either test
    fails:

    * the twisted vector x of T_m' - value I (_twisted_tail, on the bands
      scaled as merged_levels scales them, so huge links do not overflow;
      x does not depend on the scale), padded with zeros, has the residual
      off[m'-1] x[m'-1] e_m' in T beyond its own; that dropped link's term
      |off[m'-1] x[m'-1]| / |x| must be at most _DROPPED_RTOL * max|T|, a
      sixteenth of an ulp, so that the cut adds nothing a solve would keep;
    * eigenvalue ``index`` of np.linalg.eigh(T_m') must lie within
      EIG_RTOL * max|T| of ``value``, so that no eigenvalue hidden past
      row m' shifts the index.

    Once m' reaches m the block is T itself, with no test.  Every eigenpair
    of the block passes residual_gate on its band product, scaled by the
    block's max|T|, and column ``index``, padded with zeros, also on the
    band product of T, scaled by its max|T| (the same gate at m' = m).  A
    LAPACK failure or a failed gate is a ConvergenceError naming the block
    and ``where``, the sector.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    m = diag.shape[-1]
    scale = float(band_scale(diag, off))
    scaled_diag, scaled_off, _, power = _scaled(diag[None, None], off[None, None])
    theta = np.ldexp([[value]], -power)
    order = min(max(start, _FIRST_ORDER, index + 1), m)
    while True:
        last, _, _, x = _twisted_tail(scaled_diag[0, :, :order], scaled_off[0, :, :order - 1],
                                      theta)
        if order < m and not abs(off[order - 1]) * last[0, 0] <= _DROPPED_RTOL * scale:
            order = min(2 * order, m)
            continue
        block = (diag[:order], off[:order - 1])
        solved = f"all {m} rows" if order == m else f"the {order} x {order} leading block"
        try:
            values, vectors = np.linalg.eigh(tridiagonal(*block))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"eigendecomposition of {solved} of {where} did not "
                                   f"converge within the solver's iteration cap ({exc})"
                                   ) from exc
        if order == m or abs(values[index] - value) <= EIG_RTOL * scale:
            break
        order = min(2 * order, m)
    twisted, column = np.zeros((2, m))
    twisted[:order] = x[:, 0, 0] / np.linalg.norm(x[:, 0, 0])
    column[:order] = vectors[:, index]
    residual_gate(band_product(*block, vectors), values, vectors, float(band_scale(*block)),
                  f"in {where}" if order == m else f"in {solved} of {where}")
    if order < m:
        residual_gate(band_product(diag, off, column), values[index], column, scale,
                      f"of eigenvector {index} of {solved}, padded to {where},")
    return LeadingPair(twisted, column, order)

