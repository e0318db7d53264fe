import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcrabi import ConvergenceError, TruncationConfig
from jcrabi import linalg
from jcrabi.acceptance import _hidden_state_bands
from jcrabi.linalg import (
    EIG_RTOL,
    band_product,
    band_scale,
    leading_pair,
    merged_levels,
    residual_gate,
    sturm_count,
    tridiagonal,
)
from jcrabi.models import ModelKind, ModelParams, jc_doublet_analytic, parity_sectors

from band_oracle import sector_vector

EPS = np.finfo(float).eps


class TestResidualGate:
    def test_bound_is_relative_to_max_abs(self):
        a = np.diag([1.0, 2.0])
        v = np.array([1.0, 0.0])
        maxabs = 2.0
        # a wrong eigenvalue just inside and just outside EIG_RTOL * max|A|
        inside = 1.0 + 0.5 * EIG_RTOL * maxabs
        assert residual_gate(a @ v, inside, v, maxabs, "here") == pytest.approx(0.5 * EIG_RTOL * maxabs)
        with pytest.raises(ConvergenceError, match="here"):
            residual_gate(a @ v, 1.0 + 2.0 * EIG_RTOL * maxabs, v, maxabs, "here")

    def test_checks_every_column(self):
        a = np.diag([1.0, 2.0, 3.0])
        values = np.array([1.0, 2.0, 3.0 + 1e-6])
        v = np.eye(3)
        with pytest.raises(ConvergenceError):
            residual_gate(a @ v, values, v, 3.0, "for a dim=3 matrix")
        assert residual_gate(a @ v[:, :2], values[:2], v[:, :2], 3.0, "") == 0.0

    def test_nan_residual_rejected(self):
        # a NaN eigenvalue compares false against the bound either way; the
        # gate passes only a residual that is at most the bound
        v = np.array([1.0, 0.0])
        with pytest.raises(ConvergenceError, match="here"):
            residual_gate(np.diag([1.0, 2.0]) @ v, np.nan, v, 2.0, "here")


def random_tridiagonal(m, rng, jc_links=False):
    """Diagonal and off-diagonal of a random symmetric tridiagonal matrix;
    jc_links zeroes every other link, the pattern of a JC parity sector."""
    diag = rng.standard_normal(m)
    off = rng.standard_normal(m - 1)
    if jc_links:
        off[1::2] = 0.0
    return diag, off


def random_bands(m, rng):
    """Stacked bands (diag, off) of two random blocks of size m, the second
    with the JC link pattern: the shape of models.parity_sectors."""
    pairs = [random_tridiagonal(m, rng), random_tridiagonal(m, rng, jc_links=True)]
    return np.array([d for d, _ in pairs]), np.array([o for _, o in pairs])


def stacked(points):
    """The bands of a list of (diag, off) points, stacked as merged_levels
    takes them: (points, blocks, m) and (points, blocks, m - 1)."""
    return np.stack([d for d, _ in points]), np.stack([o for _, o in points])


def dense(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


class TestTridiagonal:
    def test_matches_dense_blocks(self):
        diag, off = random_bands(7, np.random.default_rng(9))
        t = tridiagonal(diag, off)
        assert t.shape == (2, 7, 7)
        for b in range(2):
            assert np.array_equal(t[b], dense(diag[b], off[b]))

    def test_single_element_blocks(self):
        assert np.array_equal(tridiagonal([[2.0], [-1.0]], np.zeros((2, 0))), [[[2.0]], [[-1.0]]])


class TestBandProduct:
    @pytest.mark.parametrize("m", [1, 2, 7, 151])
    def test_matches_the_dense_product(self, m):
        rng = np.random.default_rng(m)
        diag, off = random_bands(m, rng)
        for b in range(2):
            t = dense(diag[b], off[b])
            x, v = rng.standard_normal(m), rng.standard_normal((m, 5))
            for vec in (x, v):
                y = band_product(diag[b], off[b], vec)
                assert y.shape == vec.shape
                assert np.max(np.abs(y - t @ vec)) <= 4 * EPS * np.max(np.abs(t)) * m

    def test_three_terms_per_row(self):
        # row j is diag_j x_j + off_{j-1} x_{j-1} + off_j x_{j+1}, exactly
        # when every product and sum is exact
        y = band_product([1.0, 2.0, 3.0], [4.0, 5.0], [1.0, 10.0, 100.0])
        assert np.array_equal(y, [41.0, 524.0, 350.0])

    def test_band_scale_is_max_abs_of_the_matrix(self):
        diag, off = random_bands(9, np.random.default_rng(4))
        off[1, 3] = -50.0
        scale = band_scale(diag, off)
        assert scale.shape == (2,)
        assert np.array_equal(scale, np.max(np.abs(tridiagonal(diag, off)), axis=(1, 2)))
        assert band_scale([[-3.0], [2.0]], np.zeros((2, 0))).tolist() == [3.0, 2.0]


def full_sturm_count(diag, off, shifts):
    """The LDL^T inertia count over every row of the band, with no early
    stop: a frozen copy of sturm_count's loop, the reference its counts
    must equal bitwise."""
    diag = np.asarray(diag, dtype=float)
    off2 = np.asarray(off, dtype=float) ** 2
    shifts = np.asarray(shifts, dtype=float)
    pivmin = np.finfo(float).tiny * np.maximum(1.0, np.max(off2, axis=-1, initial=0.0))[..., None]
    d = diag[..., :1] - shifts
    count = 0
    for j in range(diag.shape[-1]):
        if j:
            d = diag[..., j, None] - shifts - off2[..., j - 1, None] / d
        d = np.where(np.abs(d) < pivmin, pivmin, d)
        count = count + (d < 0)
    return count


class TestSturmCount:
    @pytest.mark.parametrize("jc_links", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_counts_match_eigvalsh(self, m, jc_links):
        rng = np.random.default_rng(m)
        for _ in range(5):
            diag, off = random_tridiagonal(m, rng, jc_links)
            values = np.linalg.eigvalsh(dense(diag, off))
            shifts = rng.uniform(values[0] - 1.0, values[-1] + 1.0, 50)
            # stay clear of the eigenvalues, where rounding decides the count
            shifts = shifts[np.min(np.abs(shifts[:, None] - values), axis=1) > 1e-9]
            counts = sturm_count(diag, off, shifts)
            assert np.array_equal(counts, np.sum(values[None, :] < shifts[:, None], axis=1))

    def test_shift_on_an_eigenvalue_is_not_counted(self):
        # exact eigenvalues: a diagonal with a repeated entry, and 0 and 2
        # of [[1, 1], [1, 1]], whose second pivot vanishes exactly
        diag = np.array([2.0, -1.0, 2.0, 0.5])
        assert np.array_equal(sturm_count(diag, np.zeros(3), diag), [2, 0, 2, 1])
        assert np.array_equal(sturm_count([1.0, 1.0], [1.0], [0.0, 2.0]), [0, 1])

    @pytest.mark.parametrize("jc_links", [False, True])
    def test_shifts_tol_away_from_eigenvalues(self, jc_links):
        rng = np.random.default_rng(11)
        diag, off = random_tridiagonal(30, rng, jc_links)
        t = dense(diag, off)
        values = np.linalg.eigvalsh(t)
        tol = EIG_RTOL * np.max(np.abs(t))
        assert np.min(np.diff(values)) > 2 * tol
        i = np.arange(30)
        assert np.array_equal(sturm_count(diag, off, values - tol), i)
        assert np.array_equal(sturm_count(diag, off, values + tol), i + 1)

    def test_broadcasts_over_leading_axes(self):
        rng = np.random.default_rng(5)
        bands = [[random_tridiagonal(9, rng, jc_links=b == 1) for b in range(2)]
                 for _ in range(3)]
        diag = np.array([[d for d, _ in row] for row in bands])
        off = np.array([[o for _, o in row] for row in bands])
        shifts = rng.standard_normal((3, 2, 4))
        counts = sturm_count(diag, off, shifts)
        shared = sturm_count(diag, off, shifts[0, 0])  # one shift list for all
        assert counts.shape == shared.shape == (3, 2, 4)
        for p in range(3):
            for b in range(2):
                assert np.array_equal(counts[p, b], sturm_count(diag[p, b], off[p, b], shifts[p, b]))
                assert np.array_equal(shared[p, b], sturm_count(diag[p, b], off[p, b], shifts[0, 0]))

    def test_band_lengths_must_match(self):
        with pytest.raises(ValueError, match="one entry fewer"):
            sturm_count(np.zeros(4), np.zeros(4), [0.0])


def jc_pattern_bands(m, rng):
    """Three stacked blocks with the JC link pattern: random links with a
    zero among them, ties a == c on every live link, and links of 1e-9."""
    diag = rng.standard_normal((3, m))
    off = rng.standard_normal((3, m - 1))
    off[:, 1::2] = 0.0
    off[0, ::4] = 0.0
    diag[1, 1::2] = diag[1, 0:m - 1:2]
    off[2, ::2] = 1e-9
    return diag, off


class TestPairEigvalsh:
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 101, 501])
    def test_matches_eigvalsh_on_jc_pattern(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            diag, off = jc_pattern_bands(m, rng)
            values = linalg._pair_eigvalsh(diag, off)
            reference = np.linalg.eigvalsh(tridiagonal(diag, off))
            scale = np.maximum(np.max(np.abs(diag), axis=-1),
                               np.max(np.abs(off), axis=-1, initial=0.0))
            eps = np.finfo(float).eps
            assert np.all(np.max(np.abs(values - reference), axis=-1) <= 4 * eps * scale)

    def test_stacked_points_match_one_by_one(self):
        diag, off = jc_pattern_bands(9, np.random.default_rng(2))
        stacked = linalg._pair_eigvalsh(diag, off)
        for b in range(3):
            assert np.array_equal(stacked[b], linalg._pair_eigvalsh(diag[b], off[b]))

    def test_zero_links_give_the_sorted_diagonal(self):
        diag = np.random.default_rng(1).standard_normal((2, 11))
        assert np.array_equal(linalg._pair_eigvalsh(diag, np.zeros((2, 10))), np.sort(diag))

    def test_tiny_link_shift_is_kept(self):
        # [[0, e], [e, 1]], e = 1e-9: t = e^2 / (hypot(1/2, e) + 1/2) rounds
        # to e^2, so the values are -e^2 and 1 + e^2 (which rounds to 1);
        # the naive (a + c)/2 - hypot(s, e) gives 0 for the lower one
        values = linalg._pair_eigvalsh([0.0, 1.0], [1e-9])
        assert values[0] == -1e-18
        assert values[1] == 1.0

    def test_equal_diagonal_pair(self):
        assert np.array_equal(linalg._pair_eigvalsh([2.0, 2.0, 5.0], [0.5, 0.0]), [1.5, 2.5, 5.0])


def sector_label(point, block):
    return f"block {block} of point {point}"


def perturb_leading(monkeypatch, call, point, block, index):
    """Make the leading-block solver add 1e-6 to value ``index`` of
    ``block`` at ``point`` of its ``call``-th result: a solver gone wrong.
    It is called once per merged_levels call whose stack has a block with
    two adjacent nonzero links, on all points and every block."""
    true_leading = linalg._leading_levels
    calls = []

    def perturbed(*args):
        values, size, residual = true_leading(*args)
        if len(calls) == call:
            values[point, block, index] += 1e-6
        calls.append(None)
        return values, size, residual

    monkeypatch.setattr(linalg, "_leading_levels", perturbed)


def perturb_pairs(monkeypatch, point, block, index):
    """Make the closed-form pair solver add 1e-6 to value ``index`` of
    ``block`` at ``point`` on every call.  It is called once per
    merged_levels call whose every block splits into pairs, on all points
    and every block."""
    true_pairs = linalg._pair_eigvalsh

    def perturbed(diag, off):
        values = true_pairs(diag, off)
        values[point, block, index] += 1e-6
        return values

    monkeypatch.setattr(linalg, "_pair_eigvalsh", perturbed)


def count_leading(monkeypatch):
    """Record the diag shape (points, blocks, m) of every leading-block
    solver input."""
    true_leading = linalg._leading_levels
    shapes = []

    def counted(diag, *args):
        shapes.append(np.shape(diag))
        return true_leading(diag, *args)

    monkeypatch.setattr(linalg, "_leading_levels", counted)
    return shapes


def dense_levels(diag, off):
    """The oracle of merged_levels: eigvalsh of each dense block, and the
    stable merge of the blocks' spectra, (values, order)."""
    values = np.linalg.eigvalsh(tridiagonal(diag, off)).ravel()
    order = np.argsort(values, kind="stable")
    return values[order], order


class TestMergedLevels:
    def test_matches_dense_eigvalsh(self):
        diag, off = random_bands(8, np.random.default_rng(3))
        merged, _ = dense_levels(diag, off)
        full = np.zeros((16, 16))
        full[:8, :8], full[8:, 8:] = dense(diag[0], off[0]), dense(diag[1], off[1])
        assert np.max(np.abs(merged - np.linalg.eigvalsh(full))) <= 1e-12
        for k in (1, 5, 16):
            levels = merged_levels(diag[None], off[None], k, sector_label).levels
            assert levels.shape == (1, k)
            assert np.max(np.abs(levels[0] - merged[:k])) <= 1e-12

    @pytest.mark.parametrize("k", [1, 5, 8, 16])
    def test_order_numbers_the_levels(self, k):
        # level j is eigenvalue index[j] of block sector[j], and each block
        # gives a prefix of its values, in order
        diag, off = random_bands(8, np.random.default_rng(3))  # a linked block and one of pairs
        solved = merged_levels(diag[None], off[None], k, sector_label)
        assert solved.sector.shape == solved.index.shape == (1, k)
        blocks = np.linalg.eigvalsh(tridiagonal(diag, off))
        for level, block, i in zip(solved.levels[0], solved.sector[0], solved.index[0]):
            assert abs(level - blocks[block, i]) <= 1e-12
        for block in range(2):
            index = solved.index[0, solved.sector[0] == block]
            assert index.tolist() == list(range(len(index)))

    def test_ties_keep_block_order(self):
        diag, off = [[[1.0, 3.0], [1.0, 2.0]]], np.zeros((1, 2, 1))
        solved = merged_levels(diag, off, 4, sector_label)
        assert np.array_equal(solved.levels, [[1.0, 1.0, 2.0, 3.0]])
        assert solved.sector.tolist() == [[0, 1, 1, 0]]
        assert solved.index.tolist() == [[0, 0, 1, 1]]
        cut = merged_levels(diag, off, 1, sector_label)
        assert cut.sector.tolist() == cut.index.tolist() == [[0]]

    def test_exact_clusters_pass(self):
        # equal values inside a block and across blocks
        diag, off = [[[1.0, 1.0, 3.0], [1.0, 2.0, 2.0]]], np.zeros((1, 2, 2))
        levels = merged_levels(diag, off, 6, sector_label).levels
        assert np.array_equal(levels[0], [1.0, 1.0, 1.0, 2.0, 2.0, 3.0])

    def test_points_are_independent_rows(self):
        rng = np.random.default_rng(4)
        diag, off = stacked([random_bands(6, rng) for _ in range(3)])
        batch = merged_levels(diag, off, 4, sector_label).levels
        for row, d, o in zip(batch, diag, off):
            assert np.array_equal(row, merged_levels(d[None], o[None], 4, sector_label).levels[0])
        empty = merged_levels(np.empty((0, 2, 6)), np.empty((0, 2, 5)), 4, sector_label)
        assert empty.levels.shape == empty.sector.shape == empty.index.shape == (0, 4)
        assert empty.block.shape == empty.residual.shape == (0,)

    def test_perturbed_value_is_rejected(self, monkeypatch):
        rng = np.random.default_rng(8)
        diag, off = stacked([random_bands(6, rng) for _ in range(2)])
        # block 0 gets the JC link pattern of block 1: every block is pairs,
        # so the pair solver gives every value
        off[:, 0, 1::2] = 0.0
        perturb_pairs(monkeypatch, point=1, block=1, index=2)
        with pytest.raises(ConvergenceError,
                           match=r"eigenvalue 2 = .* of block 1 of point 1 fails the Sturm count"):
            merged_levels(diag, off, 12, sector_label)

    def test_perturbed_eigvalsh_value_is_rejected(self, monkeypatch):
        rng = np.random.default_rng(8)
        points = [random_bands(6, rng) for _ in range(2)]
        # block 0 has every link, so the leading-block solver takes both
        # blocks and solves them in full with eigvalsh (m = 6 < 32)
        perturb_leading(monkeypatch, call=0, point=1, block=0, index=2)
        with pytest.raises(ConvergenceError,
                           match=r"eigenvalue 2 = .* of block 0 of point 1 fails the Sturm count"):
            merged_levels(*stacked(points), 12, sector_label)

    def test_highest_kept_value_of_a_full_row_is_checked(self, monkeypatch):
        # block 0 has every link and keeps only its lowest few values
        rng = np.random.default_rng(8)
        points = [random_bands(6, rng) for _ in range(2)]
        kept = [np.count_nonzero(dense_levels(d, o)[1][:5] < 6) for d, o in points]
        assert 0 < max(kept) < 5  # the cut is visible
        levels = merged_levels(*stacked(points), 5, sector_label).levels
        for row, (d, o) in zip(levels, points):
            assert np.max(np.abs(row - dense_levels(d, o)[0][:5])) <= 1e-12

        point = int(np.argmax(kept))
        perturb_leading(monkeypatch, call=0, point=point, block=0, index=kept[point] - 1)
        with pytest.raises(ConvergenceError, match=rf"eigenvalue {kept[point] - 1} = .* "
                           rf"of block 0 of point {point} fails the Sturm count"):
            merged_levels(*stacked(points), 5, sector_label)

    def test_only_kept_values_are_gated(self, monkeypatch):
        diag, off = [[[0.0, 1.0], [2.0, 3.0]]], np.zeros((1, 2, 1))
        perturb_pairs(monkeypatch, point=0, block=1, index=1)
        # the largest value is wrong; two levels keep block 0 only
        assert np.array_equal(merged_levels(diag, off, 2, sector_label).levels, [[0.0, 1.0]])
        with pytest.raises(ConvergenceError, match="eigenvalue 1 = .* of block 1 of point 0"):
            merged_levels(diag, off, 4, sector_label)

    def test_blocks_of_pairs_skip_eigvalsh(self, monkeypatch):
        shapes = count_leading(monkeypatch)
        rng = np.random.default_rng(6)
        diag, off = stacked([random_bands(7, rng) for _ in range(3)])
        merged_levels(diag[:, 1:], off[:, 1:], 5, sector_label)
        merged_levels(diag, np.zeros_like(off), 5, sector_label)
        assert shapes == []
        # one linked block sends every block to the leading solve
        merged_levels(diag, off, 5, sector_label)
        assert shapes == [(3, 2, 7)]

    def test_one_point_with_adjacent_links_sends_the_row_to_eigvalsh(self, monkeypatch):
        # the stack splits into pairs only if every block does so at every
        # point
        shapes = count_leading(monkeypatch)
        rng = np.random.default_rng(10)
        jc = random_tridiagonal(5, rng, jc_links=True)
        full = random_tridiagonal(5, rng)
        points = [(np.array([d]), np.array([o])) for d, o in (jc, full)]
        levels = merged_levels(*stacked(points), 5, sector_label).levels
        assert shapes == [(2, 1, 5)]
        for row, (d, o) in zip(levels, (jc, full)):
            assert np.max(np.abs(row - np.linalg.eigvalsh(dense(d, o)))) <= 1e-12

    def test_state_hidden_from_the_leading_block_is_found(self):
        # block A (diagonal j, links 0.1) hides a state at 4.5 in row 39
        # behind links of 1e-30; block B has diagonal j - 0.25.  Every Ritz
        # value of A's leading block of 32 certifies, but A has one more
        # eigenvalue below the 11th level than it keeps: the count on the
        # full band sends the point on, to the full solve (without the
        # count, B's 4.75 would be level 10)
        diag, off = (band[0] for band in _hidden_state_bands())
        solved = merged_levels(diag[None], off[None], 11, sector_label)
        merged, _ = dense_levels(diag, off)
        assert merged[10] == pytest.approx(4.5, abs=1e-12)
        scale = np.max(np.abs(diag))
        assert np.max(np.abs(solved.levels[0] - merged[:11])) <= EIG_RTOL * scale
        assert solved.block.tolist() == [60]

    @pytest.mark.parametrize("offset", [-100.0, 100.0])
    def test_pair_values_take_part_in_the_merge(self, offset):
        # block 0 has random links, block 1 the JC link pattern: the stack
        # is not all pairs, so both blocks go to the leading solve.  Far
        # below, block 1 gives all 11 levels, but its lowest pairs lie all
        # along the chain, past any leading block; far above, block 0 gives
        # them, and its random links certify no leading block.  Either way
        # the point takes the full solve, and the merge of both blocks'
        # values gives the levels
        diag, off = random_bands(100, np.random.default_rng(15))
        diag[1] += offset
        solved = merged_levels(diag[None], off[None], 11, sector_label)
        assert solved.block.tolist() == [100]
        merged, _ = dense_levels(diag, off)
        assert np.max(np.abs(solved.levels[0] - merged[:11])) <= 1e-12 * np.max(np.abs(diag))

    def test_zero_block(self):
        levels = merged_levels([[[0.0, 0.0], [0.0, 1.0]]], np.zeros((1, 2, 1)), 3, sector_label)
        assert np.array_equal(levels.levels, [[0.0, 0.0, 0.0]])

    def test_evidence_of_each_path(self):
        rng = np.random.default_rng(12)
        diag, off = random_bands(6, rng)
        pairs = merged_levels(diag[None, 1:], off[None, 1:], 3, sector_label)
        assert pairs.block.tolist() == [2] and pairs.residual.tolist() == [0.0]
        full = merged_levels(*stacked([random_bands(6, rng)]), 3, sector_label)
        assert full.block.tolist() == [6] and full.residual.tolist() == [0.0]


class TestOnePathPerCall:
    """merged_levels picks one path per call, which is exact for the stacks
    the models give: their parity sectors are all pairs or all linked."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(list(ModelKind)),
           omega=st.floats(0.05, 5.0),
           Omega=st.floats(0.0, 5.0),
           g=st.lists(st.just(0.0) | st.floats(1e-3, 10.0), min_size=1, max_size=6),
           n_max=st.sampled_from([1, 2, 3, 40]))
    def test_parity_sectors_are_all_pairs_or_all_linked(self, kind, omega, Omega, g, n_max):
        diag, off = parity_sectors(kind, ModelParams(Omega=Omega, omega=omega),
                                   TruncationConfig(n_max), g=g)
        # per sector: whether some point has two adjacent nonzero links
        nonzero = off != 0
        linked = np.any(nonzero[..., 1:] & nonzero[..., :-1], axis=(0, -1))
        assert linked.shape == (2,) and linked[0] == linked[1]
        # JC conserves excitation number: its sectors are always pairs; a
        # Rabi sector is a linked chain unless g = 0 or it has one link
        pairs = kind is ModelKind.JC_LAB or n_max == 1 or not any(g)
        assert linked[0] != pairs
        with pytest.MonkeyPatch.context() as patch:
            shapes = count_leading(patch)
            solved = merged_levels(diag, off, 4, sector_label)
        assert shapes == ([] if pairs else [diag.shape])
        assert np.all(solved.block == 2) == pairs


class TestSolveFailure:
    @pytest.mark.parametrize("order, solved", [(64, "64 x 64 leading blocks"),
                                               (100, "the full 100-row sectors")],
                             ids=["64", "100"])
    def test_names_the_order_and_the_first_open_point(self, monkeypatch, order, solved):
        # point 0 certifies at m' = 32; point 1 has random links, which need
        # the full block, so it is the first point open at 64 and at m = 100,
        # where the solve is no longer of a leading block
        rng = np.random.default_rng(13)
        diag, off = decaying_bands(100, 2, rng)
        diag[1], off[1] = rng.standard_normal((2, 100)), rng.standard_normal((2, 99))
        real = np.linalg.eigvalsh

        def fails(a, *args, **kwargs):
            if np.shape(a)[-1] == order:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", fails)
        with pytest.raises(ConvergenceError, match=(
                rf"eigenvalues of {solved} did not converge within "
                r"the solver's iteration cap \(Eigenvalues did not converge\); the first "
                r"point still open is block 0 of point 1$")):
            merged_levels(diag, off, 11, sector_label)


class TestLargeBands:
    """Bands whose links square past the largest double are scaled down by
    a power of two for every solve and count, and their levels back."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rabi_levels_are_eigvalsh_of_the_scaled_bands(self):
        diag, off = parity_sectors(ModelKind.RABI_LAB, ModelParams(g=1e160),
                                   TruncationConfig(40))
        solved = merged_levels(diag[None], off[None], 11, sector_label)
        top = max(np.max(np.abs(diag)), np.max(off))
        scale = 2.0 ** (np.frexp(top)[1] - 500)
        assert 1.0 < scale < np.inf
        expected = np.sort(np.linalg.eigvalsh(tridiagonal(diag / scale, off / scale)).ravel())
        assert np.max(np.abs(solved.levels[0] - scale * expected[:11])) <= 4 * EPS * top

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jc_levels_are_the_closed_form_doublets(self):
        cfg = TruncationConfig(60)
        for g in (5e159, 1e160, 1e300):
            p = ModelParams(g=g)
            diag, off = parity_sectors(ModelKind.JC_LAB, p, cfg)
            levels = merged_levels(diag[None], off[None], 11, sector_label).levels[0]
            doublets = [jc_doublet_analytic(n, p).energies for n in range(1, cfg.n_max + 1)]
            exact = np.sort(np.ravel(doublets))[:11]
            top = max(np.max(np.abs(diag)), np.max(off))
            assert np.all(np.isfinite(levels))
            assert np.max(np.abs(levels - exact)) <= EIG_RTOL * top, g

    def test_bands_below_the_threshold_are_solved_as_given(self, monkeypatch):
        # 2**500 - ulp squares to below the largest double: scale 1
        seen = []
        true_leading = linalg._leading_levels

        def recorded(diag, off, *args):
            seen.append(np.max(np.abs(off)))
            return true_leading(diag, off, *args)

        monkeypatch.setattr(linalg, "_leading_levels", recorded)
        rng = np.random.default_rng(14)
        diag, off = rng.standard_normal((2, 40)), rng.standard_normal((2, 39))
        for top in (np.nextafter(2.0 ** 500, 0), 2.0 ** 500):
            off_top = off * (top / np.max(np.abs(off)))
            merged_levels(diag[None], off_top[None], 5, sector_label)
        assert seen[0] == np.nextafter(2.0 ** 500, 0)
        assert seen[1] == 2.0 ** 499


def decaying_bands(m, points, rng):
    """(points, 2, m) bands whose low eigenvectors decay along the chain:
    diagonal j + noise, links of 0.3 + noise, so a leading block of 32
    certifies the lowest values."""
    diag = np.arange(m) + 0.1 * rng.standard_normal((points, 2, m))
    off = 0.3 + 0.05 * rng.standard_normal((points, 2, m - 1))
    return diag, off


def twisted_vector(diag, off, theta):
    """The twisted-factorization vector of T - theta I for one tridiagonal
    T and one value, by plain loops: (y, |gamma_r| / |x|, |gamma_r| / |x|^2),
    y = x / |x|, x_r = 1.  The last is the distance from theta to the
    Rayleigh quotient of x.
    Pivots below tiny * max(1, max off^2) in magnitude become +that, as in
    sturm_count."""
    m = len(diag)
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(np.abs(off), initial=0.0)) ** 2)

    def guard(pivot):
        return pivmin if abs(pivot) < pivmin else pivot

    d, e = np.empty(m), np.empty(m)
    d[0], e[-1] = guard(diag[0] - theta), guard(diag[-1] - theta)
    for j in range(1, m):
        d[j] = guard(diag[j] - theta - off[j - 1] ** 2 / d[j - 1])
        e[m - 1 - j] = guard(diag[m - 1 - j] - theta - off[m - 1 - j] ** 2 / e[m - j])
    gamma = d + e - (diag - theta)
    r = int(np.argmin(np.abs(gamma)))
    x = np.zeros(m)
    x[r] = 1.0
    for j in range(r - 1, -1, -1):
        x[j] = -(off[j] / d[j]) * x[j + 1]
    for j in range(r + 1, m):
        x[j] = -(off[j - 1] / e[j]) * x[j - 1]
    norm = np.linalg.norm(x)
    return x / norm, abs(gamma[r]) / norm, abs(gamma[r]) / norm ** 2


def certified_distances(diag, off, n, k, gap_bound=True):
    """The oracle of a leading-block certificate for one point's bands
    (blocks, m) at m' = n, by the loop oracle and dense eigvalsh: (theta,
    kept, distance), each (blocks, k).  theta holds the k lowest Ritz values
    of each block, kept those that the k merged levels keep, and distance
    their certified distance (0 where not kept): the residual r of the
    padded twisted vector, or, where [theta - delta, theta + delta), delta
    half the distance to the neighbouring Ritz values, holds exactly one
    eigenvalue of the full block and delta - s > r, s the distance from
    theta to the vector's Rayleigh quotient, min(r, s + r^2 / (delta - s))
    (Kato-Temple); r alone without ``gap_bound``."""
    theta = np.linalg.eigvalsh(tridiagonal(diag[:, :n], off[:, :n - 1]))[:, :k + 1]
    full = np.linalg.eigvalsh(tridiagonal(diag, off))
    kept = np.zeros((len(diag), k), dtype=bool)
    kept.flat[np.argsort(theta[:, :k], axis=None, kind="stable")[:k]] = True
    distance = np.zeros((len(diag), k))
    for b, i in np.argwhere(kept):
        t = theta[b, i]
        y, gap, s = twisted_vector(diag[b, :n], off[b, :n - 1], t)
        r = np.hypot(gap, off[b, n - 1] * y[-1])
        step = np.diff(theta[b])
        delta = 0.5 * min(step[i], step[max(i - 1, 0)])
        alone = np.count_nonzero((full[b] >= t - delta) & (full[b] < t + delta)) == 1
        temple = s + r * r / (delta - s) if delta - s > r else r
        distance[b, i] = min(r, temple) if alone and gap_bound else r
    return theta[:, :k], kept, distance


class TestTwistedTail:
    def test_matches_the_loop_oracle(self):
        rng = np.random.default_rng(21)
        diag, off = decaying_bands(40, 3, rng)
        diag, off = diag.reshape(-1, 40), off.reshape(-1, 39)
        off[::2] *= -1.0  # the moduli of the links are what counts
        off[1, 10] = 0.0  # a cut chain: the vector lives on one side of it
        theta = np.linalg.eigvalsh(tridiagonal(diag, off))[:, :7]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            last, gap, shift, x = linalg._twisted_tail(diag, off, theta)
        assert x.shape == (40, 6, 7)
        for row in range(len(diag)):
            for i, t in enumerate(theta[row]):
                y, g, s = twisted_vector(diag[row], off[row], t)
                assert last[row, i] == pytest.approx(abs(y[-1]), rel=1e-12, abs=1e-300)
                assert gap[row, i] == pytest.approx(g, rel=1e-12, abs=1e-300)
                assert shift[row, i] == pytest.approx(s, rel=1e-12, abs=1e-300)
                # the whole vector, signs and exact zeros included
                unit = x[:, row, i] / np.linalg.norm(x[:, row, i])
                assert np.max(np.abs(unit - y)) <= 1e-12
                assert np.array_equal(unit == 0.0, y == 0.0)

    def test_zero_links_give_exact_zeros(self):
        # a band with no links (a Rabi row at g = 0): the value is a
        # diagonal entry, the twist sits on it and every other entry of x
        # is an exact zero; the pivot there is +pivmin, so no NaN
        diag = np.array([[3.0, 1.0, 2.0, 5.0]])
        theta = np.array([[1.0, 2.0]])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            last, gap, _, x = linalg._twisted_tail(diag, np.zeros((1, 3)), theta)
        assert last.tolist() == [[0.0, 0.0]]
        assert x[:, 0].T.tolist() == [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]
        assert np.all(gap <= 2 * np.finfo(float).tiny)


class TestSectorVector:
    """The two vectors of a Berry level: the twisted vector at a merged
    value and the eigh column of that index, from one leading block."""

    def test_is_the_eigenvector_of_each_block(self):
        rng = np.random.default_rng(22)
        diag, off = random_bands(30, rng)
        off[0, ::3] *= -1.0  # signed links give the signs of the eigenvector
        solved = merged_levels(diag[None], off[None], 60, sector_label)
        for value, block, index in zip(solved.levels[0], solved.sector[0], solved.index[0]):
            pair = leading_pair(diag[block], off[block], index, value, 0, "block")
            t = dense(diag[block], off[block])
            assert pair.order == 30  # shorter than the first block: the full band
            assert np.linalg.norm(pair.twisted) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.norm(pair.column) == pytest.approx(1.0, abs=1e-14)
            for y in (pair.twisted, pair.column):
                assert np.max(np.abs(t @ y - value * y)) <= 1e-12 * np.max(np.abs(t))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_links_give_the_vector_of_the_scaled_band(self):
        # links near 4e159 square past the largest double; the band is
        # solved scaled by a power of two, which changes no bit of the vector
        rng = np.random.default_rng(23)
        diag, off = decaying_bands(40, 1, rng)
        diag, off = diag[0, 0], off[0, 0]
        scale = 2.0 ** 532
        value = np.linalg.eigvalsh(dense(diag, off))[3]
        huge = leading_pair(scale * diag, scale * off, 3, scale * value, 0, "block")
        plain = leading_pair(diag, off, 3, value, 0, "block")
        assert np.array_equal(huge.twisted, plain.twisted)
        assert huge.order == plain.order
        for y in (huge.twisted, huge.column):
            assert np.max(np.abs(dense(diag, off) @ y - value * y)) <= 1e-12 * np.max(diag)


def full_pair(diag, off, index):
    """(value, column) of eigenpair ``index`` of np.linalg.eigh of the whole band."""
    values, vectors = np.linalg.eigh(dense(diag, off))
    return values[index], vectors[:, index]


def same_up_to_sign(a, b, tol):
    return min(np.max(np.abs(a - b)), np.max(np.abs(a + b))) <= tol


class TestLeadingPair:
    """linalg.leading_pair against the full band's eigh and twisted vector."""

    @pytest.mark.parametrize("index", [0, 3, 7])
    def test_a_decaying_band_stops_at_the_first_block(self, index):
        diag, off = (band[0, 0] for band in decaying_bands(400, 1, np.random.default_rng(5)))
        value, column = full_pair(diag, off, index)
        pair = leading_pair(diag, off, index, value, 0, "block")
        assert pair.order == 32
        assert not np.any(pair.twisted[32:]) and not np.any(pair.column[32:])
        assert same_up_to_sign(pair.column, column, 1e-13)
        assert same_up_to_sign(pair.twisted, sector_vector(diag, off, value), 1e-13)

    def test_starts_at_the_given_order(self):
        diag, off = (band[0, 0] for band in decaying_bands(400, 1, np.random.default_rng(5)))
        value, _ = full_pair(diag, off, 1)
        assert leading_pair(diag, off, 1, value, 100, "block").order == 100
        assert leading_pair(diag, off, 1, value, 1000, "block").order == 400
        # the first block holds the index: 41 rows, whose last is not yet
        # negligible for value 40, then 82
        assert leading_pair(diag, off, 40, full_pair(diag, off, 40)[0], 0, "block").order == 82

    def test_doubles_until_the_dropped_link_is_below_a_sixteenth_ulp(self):
        # links of 2 against a diagonal step of 1/32: the ground state
        # decays slowly, so rows 32 to 64 still hold more than a sixteenth
        # of an ulp, and the blocks of 32 and 64 rows are doubled
        m = 600
        diag, off = np.arange(m, dtype=float) / 32, np.full(m - 1, 2.0)
        value, column = full_pair(diag, off, 0)
        pair = leading_pair(diag, off, 0, value, 0, "block")
        scale = band_scale(diag, off)
        order = pair.order
        assert order == 128
        for n, dropped in ((32, False), (64, False), (128, True)):
            x = sector_vector(diag[:n], off[:n - 1], value)
            assert (abs(off[n - 1] * x[-1]) <= EPS / 16 * scale) == dropped, n
        assert same_up_to_sign(pair.column, column, 1e-13)

    @pytest.mark.parametrize("index", [5, 6])
    def test_state_hidden_past_the_block_is_found(self, index):
        # block A of _hidden_state_bands hides a state at 4.5 in row 39
        # behind links of 1e-30: value 5 is that state, value 6 the one
        # at 5.0 above it.  The 32 x 32 block's twisted vector drops nothing
        # a solve would keep, but its eigenvalue `index` is the state above
        # (5.0 or 6.0): the value match sends the block on to the full band
        diag, off = (band[0, 0] for band in _hidden_state_bands())
        value, column = full_pair(diag, off, index)
        assert value == pytest.approx(4.5 if index == 5 else 5.0, abs=1e-2)
        pair = leading_pair(diag, off, index, value, 32, "block")
        assert pair.order == 60
        assert same_up_to_sign(pair.column, column, 1e-12)
        assert same_up_to_sign(pair.twisted, sector_vector(diag, off, value), 1e-12)

    def test_failed_solve_names_the_block(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fails)
        diag, off = (band[0, 0] for band in decaying_bands(100, 1, np.random.default_rng(5)))
        with pytest.raises(ConvergenceError, match=(
                r"^eigendecomposition of the 32 x 32 leading block of block A did not "
                r"converge within the solver's iteration cap \(Eigenvalues did not converge\)$")):
            leading_pair(diag, off, 0, 0.0, 0, "block A")
        with pytest.raises(ConvergenceError, match=r"^eigendecomposition of all 20 rows of block A"):
            leading_pair(diag[:20], off[:19], 0, 0.0, 0, "block A")

    def test_perturbed_column_fails_the_block_gate(self, monkeypatch):
        # an entry of column 0 off by 1e-6: the block's gate names the block
        true_eigh = np.linalg.eigh
        diag, off = (band[0, 0] for band in decaying_bands(100, 1, np.random.default_rng(5)))
        value, _ = full_pair(diag, off, 0)

        def perturbed(a, *args, **kwargs):
            values, vectors = true_eigh(a, *args, **kwargs)
            vectors[3, 0] += 1e-6
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError,
                           match=r"in the 32 x 32 leading block of block A exceeds"):
            leading_pair(diag, off, 0, value, 0, "block A")

    def test_padded_column_is_gated_on_the_full_band(self, monkeypatch):
        # the padded column's product with the full band has one more
        # nonzero row than the block's, row 32: its gate reads it
        true_product = linalg.band_product
        diag, off = (band[0, 0] for band in decaying_bands(100, 1, np.random.default_rng(5)))
        value, _ = full_pair(diag, off, 0)

        def perturbed(d, o, x):
            y = true_product(d, o, x)
            if len(d) == 100:
                y[32] += 1e-6
            return y

        monkeypatch.setattr(linalg, "band_product", perturbed)
        with pytest.raises(ConvergenceError, match=(
                r"of eigenvector 0 of the 32 x 32 leading block, padded to block A, exceeds")):
            leading_pair(diag, off, 0, value, 0, "block A")


def all_pairs(diag, off):
    """(values, twisted, columns) of every eigenpair of one band, solved
    the way the CLI solves a sector: merged_levels for the values, then
    leading_pair at each, one vector per column."""
    m = len(diag)
    solved = merged_levels(np.asarray(diag)[None, None], np.asarray(off)[None, None], m,
                           lambda point, block: "band")
    values = solved.levels[0]
    pairs = [leading_pair(diag, off, i, v, int(solved.block[0]), "band")
             for i, v in enumerate(values)]
    return (values, np.stack([p.twisted for p in pairs], axis=-1),
            np.stack([p.column for p in pairs], axis=-1))


def random_band(m, rng):
    return rng.standard_normal(m), rng.standard_normal(m - 1)


class TestSectorEigenpairs:
    """Whole spectra of one band through merged_levels and leading_pair,
    the sector path every solve takes: the eigen-gate properties a dense
    solver would be held to, on bands."""

    def test_pauli_z_spectrum(self):
        values, twisted, columns = all_pairs(np.array([1.0, -1.0]), np.array([0.0]))
        assert np.array_equal(values, [-1.0, 1.0])
        for v in (twisted, columns):
            assert np.array_equal(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])

    def test_pauli_x_spectrum_and_vectors(self):
        values, twisted, columns = all_pairs(np.zeros(2), np.array([1.0]))
        assert np.allclose(values, [-1.0, 1.0], rtol=0.0, atol=1e-15)
        # eigenvectors (1, -+1)/sqrt(2) up to sign, from both routes
        for v in (twisted, columns):
            for col, expected in zip(v.T, ([1, -1], [1, 1])):
                expected = np.asarray(expected) / np.sqrt(2)
                assert abs(abs(expected @ col) - 1.0) < 1e-15

    def test_reconstruction_random_band(self):
        diag, off = random_band(120, np.random.default_rng(1))
        values, _, columns = all_pairs(diag, off)
        recon = (columns * values) @ columns.T
        assert np.max(np.abs(tridiagonal(diag, off) - recon)) <= 1e-10 * band_scale(diag, off)

    def test_values_ascending_and_vectors_orthonormal(self):
        diag, off = random_band(57, np.random.default_rng(2))
        values, twisted, columns = all_pairs(diag, off)
        assert np.all(np.diff(values) >= 0)
        assert np.max(np.abs(columns.T @ columns - np.eye(57))) <= 1e-10
        # each twisted vector is its level's column, up to sign
        overlaps = np.abs(np.sum(twisted * columns, axis=0))
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-10
        residual = band_product(diag, off, twisted) - twisted * values
        assert np.max(np.abs(residual)) <= 1e-10 * band_scale(diag, off)

    def test_trace_identity(self):
        diag, off = random_band(64, np.random.default_rng(3))
        values, _, _ = all_pairs(diag, off)
        bound = 1e-10 * 64 * band_scale(diag, off)
        assert abs(np.sum(diag) - np.sum(values)) <= bound

    def test_diagonal_band_exact(self):
        d = np.array([0.3, -1.2, 2.5, 0.9, -0.7])
        values, twisted, columns = all_pairs(d, np.zeros(4))
        assert np.array_equal(values, np.sort(d))
        # a band with no links has the unit vectors as eigenvectors
        for v in (twisted, columns):
            assert np.array_equal(np.abs(v), np.eye(5)[:, np.argsort(d)])

    def test_link_sign_similarity_covariance(self):
        # D T D with D = diag(+-1) flips the sign of the links between rows
        # of opposite sign: the spectrum is kept and every vector is D times
        # the old one, up to sign
        rng = np.random.default_rng(4)
        diag, off = random_band(80, rng)
        signs = rng.choice([-1.0, 1.0], 80)
        values, twisted, columns = all_pairs(diag, off)
        flipped = all_pairs(diag, off * signs[:-1] * signs[1:])
        assert np.max(np.abs(flipped[0] - values)) <= 1e-12 * band_scale(diag, off)
        for old, new in zip((twisted, columns), flipped[1:]):
            overlaps = np.abs(np.sum(signs[:, None] * old * new, axis=0))
            assert np.max(np.abs(overlaps - 1.0)) <= 1e-10

    def test_deterministic(self):
        diag, off = random_band(40, np.random.default_rng(5))
        first, second = all_pairs(diag, off), all_pairs(diag, off)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_zero_band(self, n):
        # no special case: eigh returns (zeros, identity), the twisted
        # sweep meets no link, and both gates pass with bound 0
        values, twisted, columns = all_pairs(np.zeros(n), np.zeros(n - 1))
        assert np.array_equal(values, np.zeros(n))
        assert np.array_equal(columns, np.eye(n))
        assert np.array_equal(np.abs(twisted[:, 0]), np.eye(n)[:, 0])

    def test_integer_bands_promoted(self):
        values, twisted, columns = all_pairs(np.array([2, 2]), np.array([1]))
        assert values.dtype == twisted.dtype == columns.dtype == np.float64
        assert np.allclose(values, [1.0, 3.0], rtol=0.0, atol=1e-15)


class TestLeadingLevels:
    @pytest.mark.parametrize("m", [60, 201, 501])
    def test_within_the_certified_residual_of_eigvalsh(self, m):
        diag, off = decaying_bands(m, 4, np.random.default_rng(m))
        values, size, residual = linalg._leading_levels(diag, off, 11, sector_label)
        assert np.all(size < m)
        full = np.linalg.eigvalsh(tridiagonal(diag, off))[..., :11]
        scale = np.max(np.abs(diag), axis=-1)
        eps = np.finfo(float).eps
        assert np.all(residual <= linalg.LEADING_ULPS * eps * np.min(scale, axis=-1))
        # the certified residual, plus the rounding of the two solves
        bound = residual[:, None, None] + 4 * eps * scale[..., None]
        assert np.all(np.abs(values - full) <= bound)

    def test_residual_is_the_ritz_bound(self):
        # the Ritz residual is that of the explicit twisted vector, padded
        # with zeros: a dense product with the full block gives it, and its
        # tail term is the eigenvector's, above eigh's noise floor
        m, k = 201, 5
        diag, off = decaying_bands(m, 2, np.random.default_rng(1))
        values, size, residual = linalg._leading_levels(diag, off, k, sector_label)
        eps = np.finfo(float).eps
        for p in range(2):
            scale = max(np.max(np.abs(diag[p])), np.max(np.abs(off[p])))
            for n in (8, 16, size[p]):
                for b in range(2):
                    full = tridiagonal(diag[p, b], off[p, b])
                    theta = np.linalg.eigvalsh(full[:n, :n])[:k]
                    _, vectors = np.linalg.eigh(full[:n, :n])
                    for i, t in enumerate(theta):
                        y, gap, _ = twisted_vector(diag[p, b, :n], off[p, b, :n - 1], t)
                        tail = abs(off[p, b, n - 1] * y[-1])
                        padded = np.zeros(m)
                        padded[:n] = y
                        dense = np.linalg.norm(full @ padded - t * padded)
                        assert abs(dense - np.hypot(gap, tail)) <= 4 * eps * scale
                        assert abs(tail - abs(off[p, b, n - 1] * vectors[-1, i])) <= eps * scale
            # the reported residual is the largest certified distance of the
            # values the k levels keep
            _, kept, certified = certified_distances(diag[p], off[p], size[p], k)
            assert 0 < np.count_nonzero(kept[0]) < k  # both blocks keep values
            assert residual[p] == pytest.approx(np.max(certified), rel=1e-12, abs=0.0)

    def test_gap_bound_certifies_below_the_residual(self):
        # the Kato-Temple term certifies values whose Ritz residual r alone
        # does not: on a Rabi-like chain (diagonal j, links sqrt(j)) the
        # tail term at m' = 32 is far above LEADING_ULPS ulps, but its
        # square over the gap is not
        diag = np.arange(100.0) + np.array([[[0.0], [0.5]]])
        off = np.sqrt(np.arange(1.0, 100.0)) + np.zeros((1, 2, 1))
        values, size, residual = linalg._leading_levels(diag, off, 11, sector_label)
        theta, kept, certified = certified_distances(diag[0], off[0], 32, 11)
        _, _, plain = certified_distances(diag[0], off[0], 32, 11, gap_bound=False)
        scale = np.max(diag)
        bound = linalg.LEADING_ULPS * EPS * scale
        assert size.tolist() == [32]
        assert np.max(plain) > 100 * bound and np.max(certified) <= bound
        assert residual[0] == pytest.approx(np.max(certified), rel=1e-12, abs=0.0)
        assert np.array_equal(values[0], theta)
        full = np.linalg.eigvalsh(tridiagonal(diag, off))[0, :, :11]
        assert np.max(np.abs(values[0] - full)[kept]) <= residual[0] + 4 * EPS * scale

    @pytest.mark.parametrize("k, orders", [(11, [32, 64]), (20, [40, 80])])
    def test_doubles_up_to_the_full_block(self, monkeypatch, k, orders):
        # random links do not decay: no leading block certifies, so every
        # point doubles m' from max(2k, 32) and takes the full eigvalsh at
        # m = 100
        real, seen = np.linalg.eigvalsh, []

        def counted(a, *args, **kwargs):
            seen.append(np.shape(a)[-1])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rng = np.random.default_rng(3)
        diag, off = rng.standard_normal((3, 2, 100)), rng.standard_normal((3, 2, 99))
        values, size, residual = linalg._leading_levels(diag, off, k, sector_label)
        assert seen == orders + [100]
        assert size.tolist() == [100] * 3 and residual.tolist() == [0.0] * 3
        assert np.array_equal(values, real(tridiagonal(diag, off))[..., :k])

    def test_cut_link_certifies_with_zero_residual(self):
        # a zero link after row 32 makes the tail term of every residual
        # exactly 0: what is left is the twist's rounding |gamma_r| / |x|
        # and the gap bound on it, the certified distance of the explicit
        # vector, which certifies m' = 32 where every value the k levels
        # keep is within LEADING_ULPS ulps of max|T|
        eps = np.finfo(float).eps
        decaying = decaying_bands(80, 1, np.random.default_rng(5))
        for diag, off in (random_bands(80, np.random.default_rng(4)),
                          (decaying[0][0], decaying[1][0])):
            off[:, 31] = 0.0
            values, size, residual = linalg._leading_levels(diag[None], off[None], 11, sector_label)
            theta, kept, distance = certified_distances(diag, off, 32, 11)
            scale = np.maximum(np.max(np.abs(diag), axis=-1), np.max(np.abs(off), axis=-1))
            certified = np.all(distance <= linalg.LEADING_ULPS * eps * scale[:, None])
            assert size.tolist() == [32 if certified else 80]
            if certified:
                assert np.array_equal(values[0], theta)
                assert residual[0] == pytest.approx(np.max(distance), rel=1e-12, abs=0.0)
        # the Rabi-like band, whose max|T| lies far down the chain, certifies
        assert size.tolist() == [32]

    def test_gap_bound_needs_one_eigenvalue_in_the_interval(self):
        # block A's row 31, cut from the rows above, and row 32 both sit at
        # 4.6, linked by 5e-8: the leading block of 32 has the Ritz value
        # 4.6 (the 11th level) with r = 5e-8 and a neighbouring Ritz value
        # 0.4 away, so r^2 / delta is below LEADING_ULPS ulps; but row 32
        # puts a second eigenvalue inside (theta - delta, theta + delta), so
        # the gap bound does not apply and the point goes on to the full
        # block
        diag, off = (band[1] for band in _hidden_state_bands())
        values, size, residual = linalg._leading_levels(diag[None], off[None], 11, sector_label)
        full = np.linalg.eigvalsh(tridiagonal(diag, off))[:, :11]
        scale = np.max(np.abs(diag))
        _, kept, _ = certified_distances(diag, off, 32, 11)
        assert kept[0, 5] and not kept[0, 6]  # 4.6 is A's last kept value
        assert np.all(np.abs(values[0] - full)[kept] <= residual[0] + 4 * EPS * scale)
        assert size.tolist() == [60]
        solved = merged_levels(diag[None], off[None], 11, sector_label)
        merged, _ = dense_levels(diag, off)
        assert merged[10] == pytest.approx(4.6 - 5e-8, abs=1e-12)
        assert np.max(np.abs(solved.levels[0] - merged[:11])) <= EIG_RTOL * scale

    def test_points_finish_apart(self):
        # one point certifies at 32, the other needs the full block
        rng = np.random.default_rng(5)
        diag, off = decaying_bands(100, 2, rng)
        diag[1], off[1] = rng.standard_normal((2, 100)), rng.standard_normal((2, 99))
        values, size, _ = linalg._leading_levels(diag, off, 11, sector_label)
        assert size.tolist() == [32, 100]
        for p in range(2):
            alone = linalg._leading_levels(diag[p:p + 1], off[p:p + 1], 11, sector_label)[0]
            assert np.array_equal(values[p], alone[0])

    def test_chunks_do_not_change_the_values(self, monkeypatch):
        rng = np.random.default_rng(6)
        diag, off = decaying_bands(201, 5, rng)
        diag[3] = rng.standard_normal((2, 201))  # a point that needs the full block
        whole = linalg._leading_levels(diag, off, 11, sector_label)
        assert whole[1].tolist() == [32, 32, 32, 201, 32]
        monkeypatch.setattr(linalg, "_STACK_ELEMENTS", 1)
        for a, b in zip(whole, linalg._leading_levels(diag, off, 11, sector_label)):
            assert np.array_equal(a, b)


def stop_possible(diag, off, shifts):
    """Whether some row j < m - 1 of each band has a diagonally dominant
    tail, min_{i>j} (diag_i - |off_{i-1}| - |off_i|) above its largest
    shift: the tail condition of sturm_count's early stop, without its
    margin.  The shortest tail, the last row, is the likeliest."""
    return diag[..., -1] - np.abs(off[..., -1]) > np.max(shifts, axis=-1)


class TestEarlyStop:
    """sturm_count stops where the tail of every band is certified positive;
    its counts must equal those of the frozen full loop bitwise."""

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 101])
    def test_jc_pattern_bands_equal_the_full_loop(self, m):
        rng = np.random.default_rng(m)
        for _ in range(5):
            diag, off = jc_pattern_bands(m, rng)
            values = linalg._pair_eigvalsh(diag, off)
            # random shifts, shifts on the diagonal entries (the a == c
            # ties among them) and on the eigenvalues and their neighbours
            shifts = np.concatenate([rng.uniform(-3.0, 3.0, (3, 25)), diag, values,
                                     np.nextafter(values, np.inf),
                                     np.nextafter(values, -np.inf)], axis=-1)
            assert np.array_equal(sturm_count(diag, off, shifts),
                                  full_sturm_count(diag, off, shifts))

    def test_subnormal_pivots_are_guarded_as_in_the_full_loop(self):
        # a pivot of -1e-310 lies inside the guard: the loop replaces it by
        # +pivmin and does not count it
        diag, off = np.array([[0.0, 1.0, 0.0, 2.0]]), np.array([[0.5, 0.0, 0.0]])
        shifts = np.array([[1e-310, -1e-310, 0.0, 5e-324, 1.0]])
        counts = sturm_count(diag, off, shifts)
        assert np.array_equal(counts, full_sturm_count(diag, off, shifts))
        assert counts.tolist() == [[1, 1, 1, 1, 2]]

    def test_random_jc_sectors_equal_the_full_loop(self):
        rng = np.random.default_rng(21)
        cfg = TruncationConfig(200)
        for _ in range(40):
            p = ModelParams(Omega=float(rng.uniform(0.0, 2.0)), g=float(rng.uniform(0.0, 1.5)))
            diag, off = parity_sectors(ModelKind.JC_LAB, p, cfg)
            values = linalg._pair_eigvalsh(diag, off)
            shifts = np.concatenate([rng.uniform(-2.0, 200.0, (2, 15)), diag[:, :5],
                                     values[:, :5]], axis=-1)
            assert np.array_equal(sturm_count(diag, off, shifts),
                                  full_sturm_count(diag, off, shifts))

    @pytest.mark.parametrize("n_max", [200, 500])
    @pytest.mark.parametrize("kind", [ModelKind.JC_LAB, ModelKind.RABI_LAB])
    def test_sectors_equal_the_full_loop(self, kind, n_max):
        # the gate's shifts v -/+ tol, and the values and their neighbours
        rng = np.random.default_rng(n_max)
        cfg = TruncationConfig(n_max)
        points = [parity_sectors(kind, ModelParams(Omega=float(rng.uniform(0.0, 2.0)),
                                                   g=float(rng.uniform(0.0, 1.5))), cfg)
                  for _ in range(12)]
        diag, off = (np.stack(part) for part in zip(*points))
        values = np.linalg.eigvalsh(tridiagonal(diag, off))[..., :11]
        tol = EIG_RTOL * np.max(np.abs(diag), axis=-1, keepdims=True)
        shifts = np.concatenate([values, values - tol, values + tol,
                                 np.nextafter(values, np.inf),
                                 np.nextafter(values, -np.inf)], axis=-1)
        assert np.all(stop_possible(diag, off, shifts))
        assert np.array_equal(sturm_count(diag, off, shifts),
                              full_sturm_count(diag, off, shifts))

    @pytest.mark.parametrize("m", [2, 40, 501])
    def test_random_full_bands_equal_the_full_loop(self, m):
        # no diagonal growth: no tail is dominant, so the loop never stops
        rng = np.random.default_rng(m)
        diag, off = rng.standard_normal((4, 2, m)), rng.standard_normal((4, 2, m - 1))
        values = np.linalg.eigvalsh(tridiagonal(diag, off))
        shifts = np.concatenate([values, np.nextafter(values, np.inf),
                                 rng.uniform(-4.0, 4.0, (4, 2, 20))], axis=-1)
        assert not np.any(stop_possible(diag, off, shifts))
        assert np.array_equal(sturm_count(diag, off, shifts),
                              full_sturm_count(diag, off, shifts))

    def test_rows_past_the_stop_are_not_read(self):
        # at x = -1e308 row 0 has the pivot 1e308 >= |off_0| and every row
        # is dominant, so the count stops there; row 40 would overflow
        # diag_40 - x
        diag, off, shifts = np.r_[np.arange(40.0), 1e308], np.full(40, 0.5), [-1e308]
        with np.errstate(over="raise"):
            assert sturm_count(diag, off, shifts).tolist() == [0]
            with pytest.raises(FloatingPointError, match="overflow"):
                full_sturm_count(diag, off, shifts)

