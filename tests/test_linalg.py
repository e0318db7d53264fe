import numpy as np
import pytest

from jcrabi import (
    ConvergenceError,
    HermiticityError,
    TruncationConfig,
    commutator_deviation,
    hermitian_eig,
)
from jcrabi import linalg
from jcrabi.acceptance import _hidden_state_bands
from jcrabi.fock import SQRT2, ladder_ops, qubit_ops
from jcrabi.linalg import (
    EIG_RTOL,
    band_product,
    band_scale,
    merged_levels,
    residual_gate,
    sector_vector,
    sturm_count,
    tridiagonal,
)
from jcrabi.models import (
    ModelKind,
    ModelParams,
    build_jc,
    jc_doublet_analytic,
    parity_sectors,
    phase_factors,
    symmetry_ops,
)

SX, SY, SZ, SP, SM = qubit_ops()
EPS = np.finfo(float).eps


def u_phi(phi, cfg):
    """Dense U(phi) = exp(-i n_hat phi), qubit factor identity."""
    return np.diag(phase_factors(phi, cfg))


def quadratures(cfg):
    """Field quadratures x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2)."""
    a, a_dag, _ = ladder_ops(cfg)
    return (a + a_dag) / SQRT2, 1j * (a_dag - a) / SQRT2


def random_hermitian(n, rng, scale=1.0):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (raw + raw.conj().T)


class TestHermitianEig:
    def test_pauli_z_spectrum(self):
        es = hermitian_eig(SZ)
        assert np.allclose(es.values, [-1.0, 1.0])

    def test_pauli_x_spectrum_and_vectors(self):
        es = hermitian_eig(SX)
        assert np.allclose(es.values, [-1.0, 1.0])
        # eigenvectors (1, -+1)/sqrt(2) up to a global phase
        for col, expected in zip(es.vectors.T, ([1, -1], [1, 1])):
            expected = np.asarray(expected) / np.sqrt(2)
            assert abs(abs(np.vdot(expected, col)) - 1.0) < 1e-12

    def test_reconstruction_random_200(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(200, rng)
        es = hermitian_eig(a)
        recon = (es.vectors * es.values) @ es.vectors.conj().T
        assert np.max(np.abs(a - recon)) <= 1e-10 * np.max(np.abs(a))

    def test_values_ascending_and_vectors_orthonormal(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(57, rng)
        es = hermitian_eig(a)
        assert np.all(np.diff(es.values) >= 0)
        gram = es.vectors.conj().T @ es.vectors
        assert np.max(np.abs(gram - np.eye(57))) <= 1e-10
        assert es.residual <= 1e-10 * np.max(np.abs(a))

    def test_trace_identity(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(64, rng)
        es = hermitian_eig(a)
        bound = 1e-10 * 64 * np.max(np.abs(a))
        assert abs(np.trace(a).real - np.sum(es.values)) <= bound

    def test_diagonal_matrix_exact(self):
        d = np.array([0.3, -1.2, 2.5, 0.3, -0.7])
        es = hermitian_eig(np.diag(d).astype(complex))
        assert np.max(np.abs(es.values - np.sort(d))) <= 1e-14

    def test_unitary_conjugation_covariance(self):
        cfg = TruncationConfig(15)
        rng = np.random.default_rng(4)
        a = random_hermitian(cfg.dim_joint, rng)
        u = u_phi(0.6, cfg)
        conj = u @ a @ u.conj().T
        v1 = hermitian_eig(a).values
        v2 = hermitian_eig(0.5 * (conj + conj.conj().T)).values
        assert np.max(np.abs(v1 - v2)) <= 1e-9 * np.max(np.abs(a))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(40, rng)
        e1, e2 = hermitian_eig(a), hermitian_eig(a)
        assert np.array_equal(e1.values, e2.values)
        assert np.array_equal(e1.vectors, e2.vectors)

    def test_rejects_non_hermitian(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(HermiticityError) as err:
            hermitian_eig(a)
        assert err.value.deviation == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_nan_entry(self):
        a = np.array([[1.0, np.nan], [np.nan, 2.0]])
        with pytest.raises(HermiticityError):
            hermitian_eig(a)

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_zero_matrix(self, n, dtype):
        # no special case: eigh returns (zeros, identity) and both gates
        # pass with bound 0
        es = hermitian_eig(np.zeros((n, n), dtype=dtype))
        assert np.array_equal(es.values, np.zeros(n))
        assert np.array_equal(es.vectors, np.eye(n)) and es.vectors.dtype == dtype
        assert es.residual == 0.0


class TestRealInput:
    def test_real_symmetric_matches_complex_cast(self):
        rng = np.random.default_rng(8)
        raw = rng.standard_normal((50, 50))
        a = 0.5 * (raw + raw.T)
        real = hermitian_eig(a)
        cast = hermitian_eig(a.astype(complex))
        assert real.vectors.dtype == np.float64
        assert cast.vectors.dtype == np.complex128
        assert np.max(np.abs(real.values - cast.values)) <= 1e-12
        overlaps = np.abs(np.sum(real.vectors.conj() * cast.vectors, axis=0))
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-12

    def test_real_non_symmetric_rejected(self):
        with pytest.raises(HermiticityError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_integer_input_promoted(self):
        es = hermitian_eig(np.array([[2, 1], [1, 2]]))
        assert es.values.dtype == np.float64
        assert np.allclose(es.values, [1.0, 3.0])


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
    """Make the leading-block solver add 1e-6 to value ``index`` of row
    ``block`` at ``point`` of its ``call``-th result: a solver gone wrong.
    It is called once per merged_levels call, on all points, with only the
    blocks that do not split into pairs."""
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
    """Make the closed-form pair solver add 1e-6 to value ``index`` of row
    ``block`` at ``point`` on every call.  It is called once, on all points,
    with only the blocks that split into pairs."""
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
        assert np.max(np.abs(merged - hermitian_eig(full).values)) <= 1e-12
        for k in (1, 5, 16):
            levels = merged_levels([(diag, off)], k, sector_label).levels
            assert levels.shape == (1, k)
            assert np.max(np.abs(levels[0] - merged[:k])) <= 1e-12

    @pytest.mark.parametrize("k", [1, 5, 8, 16])
    def test_order_numbers_the_levels(self, k):
        # level j is value order[j] % kb of block order[j] // kb, kb = min(k, m)
        diag, off = random_bands(8, np.random.default_rng(3))  # a full row and one of pairs
        solved = merged_levels([(diag, off)], k, sector_label)
        assert solved.order.shape == (1, k)
        blocks = np.linalg.eigvalsh(tridiagonal(diag, off))
        kb = min(k, 8)
        for level, index in zip(solved.levels[0], solved.order[0]):
            block, i = divmod(int(index), kb)
            assert abs(level - blocks[block, i]) <= 1e-12

    def test_ties_keep_block_order(self):
        solved = merged_levels([([[1.0, 3.0], [1.0, 2.0]], np.zeros((2, 1)))], 4, sector_label)
        assert np.array_equal(solved.levels, [[1.0, 1.0, 2.0, 3.0]])
        assert np.array_equal(solved.order, [[0, 2, 3, 1]])
        cut = merged_levels([([[1.0, 3.0], [1.0, 2.0]], np.zeros((2, 1)))], 1, sector_label)
        assert cut.order.tolist() == [[0]]

    def test_exact_clusters_pass(self):
        # equal values inside a block and across blocks
        bands = ([[1.0, 1.0, 3.0], [1.0, 2.0, 2.0]], np.zeros((2, 2)))
        levels = merged_levels([bands], 6, sector_label).levels
        assert np.array_equal(levels[0], [1.0, 1.0, 1.0, 2.0, 2.0, 3.0])

    def test_points_are_independent_rows(self):
        rng = np.random.default_rng(4)
        points = [random_bands(6, rng) for _ in range(3)]
        batch = merged_levels(points, 4, sector_label).levels
        for row, bands in zip(batch, points):
            assert np.array_equal(row, merged_levels([bands], 4, sector_label).levels[0])
        empty = merged_levels([], 4, sector_label)
        assert empty.levels.shape == empty.order.shape == (0, 4)
        assert empty.block.shape == empty.residual.shape == (0,)

    def test_perturbed_value_is_rejected(self, monkeypatch):
        rng = np.random.default_rng(8)
        points = [random_bands(6, rng) for _ in range(2)]
        # block 1 has the JC link pattern: it is the pair solver's row 0
        perturb_pairs(monkeypatch, point=1, block=0, index=2)
        with pytest.raises(ConvergenceError,
                           match=r"eigenvalue 2 = .* of block 1 of point 1 fails the Sturm count"):
            merged_levels(points, 12, sector_label)

    def test_perturbed_eigvalsh_value_is_rejected(self, monkeypatch):
        rng = np.random.default_rng(8)
        points = [random_bands(6, rng) for _ in range(2)]
        # block 0 has every link: it is the leading-block solver's row 0,
        # which solves it in full with eigvalsh (m = 6 < 32)
        perturb_leading(monkeypatch, call=0, point=1, block=0, index=2)
        with pytest.raises(ConvergenceError,
                           match=r"eigenvalue 2 = .* of block 0 of point 1 fails the Sturm count"):
            merged_levels(points, 12, sector_label)

    def test_highest_kept_value_of_a_full_row_is_checked(self, monkeypatch):
        # block 0 has every link and keeps only its lowest few values
        rng = np.random.default_rng(8)
        points = [random_bands(6, rng) for _ in range(2)]
        kept = [np.count_nonzero(dense_levels(d, o)[1][:5] < 6) for d, o in points]
        assert 0 < max(kept) < 5  # the cut is visible
        levels = merged_levels(points, 5, sector_label).levels
        for row, (d, o) in zip(levels, points):
            assert np.max(np.abs(row - dense_levels(d, o)[0][:5])) <= 1e-12

        point = int(np.argmax(kept))
        perturb_leading(monkeypatch, call=0, point=point, block=0, index=kept[point] - 1)
        with pytest.raises(ConvergenceError, match=rf"eigenvalue {kept[point] - 1} = .* "
                           rf"of block 0 of point {point} fails the Sturm count"):
            merged_levels(points, 5, sector_label)

    def test_only_kept_values_are_gated(self, monkeypatch):
        bands = ([[0.0, 1.0], [2.0, 3.0]], np.zeros((2, 1)))
        perturb_pairs(monkeypatch, point=0, block=1, index=1)
        # the largest value is wrong; two levels keep block 0 only
        assert np.array_equal(merged_levels([bands], 2, sector_label).levels, [[0.0, 1.0]])
        with pytest.raises(ConvergenceError, match="eigenvalue 1 = .* of block 1 of point 0"):
            merged_levels([bands], 4, sector_label)

    def test_blocks_of_pairs_skip_eigvalsh(self, monkeypatch):
        shapes = count_leading(monkeypatch)
        rng = np.random.default_rng(6)
        jc_rows = [random_bands(7, rng) for _ in range(3)]
        merged_levels([(d[1:], o[1:]) for d, o in jc_rows], 5, sector_label)
        merged_levels([(d, np.zeros_like(o)) for d, o in jc_rows], 5, sector_label)
        assert shapes == []
        merged_levels(jc_rows, 5, sector_label)
        assert shapes == [(3, 1, 7)]

    def test_one_point_with_adjacent_links_sends_the_row_to_eigvalsh(self, monkeypatch):
        # the row splits into pairs only if it does so at every point
        shapes = count_leading(monkeypatch)
        rng = np.random.default_rng(10)
        jc = random_tridiagonal(5, rng, jc_links=True)
        full = random_tridiagonal(5, rng)
        points = [(np.array([d]), np.array([o])) for d, o in (jc, full)]
        levels = merged_levels(points, 5, sector_label).levels
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
        diag, off = _hidden_state_bands()[0]
        solved = merged_levels([(diag, off)], 11, sector_label)
        merged, _ = dense_levels(diag, off)
        assert merged[10] == pytest.approx(4.5, abs=1e-12)
        scale = np.max(np.abs(diag))
        assert np.max(np.abs(solved.levels[0] - merged[:11])) <= EIG_RTOL * scale
        assert solved.block.tolist() == [60]

    @pytest.mark.parametrize("offset, size", [(-100.0, 32), (100.0, 100)])
    def test_pair_values_take_part_in_the_merge(self, offset, size):
        # block 0 has random links, which no leading block certifies; block
        # 1 splits into pairs.  Far below block 0, the pairs give all 11
        # levels: block 0 keeps none, so m' = 32 is done once the count
        # finds no eigenvalue of block 0 below them.  Far above, block 0
        # keeps all 11 and needs the full solve.
        diag, off = random_bands(100, np.random.default_rng(15))
        diag[1] += offset
        solved = merged_levels([(diag, off)], 11, sector_label)
        assert solved.block.tolist() == [size]
        merged, _ = dense_levels(diag, off)
        assert np.max(np.abs(solved.levels[0] - merged[:11])) <= 1e-12 * np.max(np.abs(diag))

    def test_zero_block(self):
        levels = merged_levels([([[0.0, 0.0], [0.0, 1.0]], np.zeros((2, 1)))], 3, sector_label)
        assert np.array_equal(levels.levels, [[0.0, 0.0, 0.0]])

    def test_evidence_of_each_path(self):
        rng = np.random.default_rng(12)
        diag, off = random_bands(6, rng)
        pairs = merged_levels([(diag[1:], off[1:])], 3, sector_label)
        assert pairs.block.tolist() == [2] and pairs.residual.tolist() == [0.0]
        full = merged_levels([random_bands(6, rng)], 3, sector_label)
        assert full.block.tolist() == [6] and full.residual.tolist() == [0.0]


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
            merged_levels(list(zip(diag, off)), 11, sector_label)


class TestLargeBands:
    """Bands whose links square past the largest double are scaled down by
    a power of two for every solve and count, and their levels back."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rabi_levels_are_eigvalsh_of_the_scaled_bands(self):
        diag, off = parity_sectors(ModelKind.RABI_LAB, ModelParams(g=1e160),
                                   TruncationConfig(40))
        solved = merged_levels([(diag, off)], 11, sector_label)
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
            levels = merged_levels([(diag, off)], 11, sector_label).levels[0]
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
            merged_levels([(diag, off_top)], 5, sector_label)
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
    """The one vector of a sector solve: the twisted vector at a merged value."""

    def test_is_the_eigenvector_of_each_block(self):
        rng = np.random.default_rng(22)
        diag, off = random_bands(30, rng)
        off[0, ::3] *= -1.0  # signed links give the signs of the eigenvector
        solved = merged_levels([(diag, off)], 60, sector_label)
        for value, index in zip(solved.levels[0], solved.order[0]):
            block = int(index) // 30
            y = sector_vector(diag[block], off[block], value)
            t = dense(diag[block], off[block])
            assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-15)
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
        y = sector_vector(scale * diag, scale * off, scale * value)
        assert np.array_equal(y, sector_vector(diag, off, value))
        assert np.max(np.abs(dense(diag, off) @ y - value * y)) <= 1e-12 * np.max(diag)


class TestLeadingLevels:
    @pytest.mark.parametrize("m", [60, 201, 501])
    def test_within_the_certified_residual_of_eigvalsh(self, m):
        diag, off = decaying_bands(m, 4, np.random.default_rng(m))
        values, size, residual = linalg._leading_levels(diag, off, 11)
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
        values, size, residual = linalg._leading_levels(diag, off, k)
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
        values, size, residual = linalg._leading_levels(diag, off, 11)
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
        values, size, residual = linalg._leading_levels(diag, off, k)
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
            values, size, residual = linalg._leading_levels(diag[None], off[None], 11)
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
        diag, off = _hidden_state_bands()[1]
        values, size, residual = linalg._leading_levels(diag[None], off[None], 11)
        full = np.linalg.eigvalsh(tridiagonal(diag, off))[:, :11]
        scale = np.max(np.abs(diag))
        _, kept, _ = certified_distances(diag, off, 32, 11)
        assert kept[0, 5] and not kept[0, 6]  # 4.6 is A's last kept value
        assert np.all(np.abs(values[0] - full)[kept] <= residual[0] + 4 * EPS * scale)
        assert size.tolist() == [60]
        solved = merged_levels([(diag, off)], 11, sector_label)
        merged, _ = dense_levels(diag, off)
        assert merged[10] == pytest.approx(4.6 - 5e-8, abs=1e-12)
        assert np.max(np.abs(solved.levels[0] - merged[:11])) <= EIG_RTOL * scale

    def test_points_finish_apart(self):
        # one point certifies at 32, the other needs the full block
        rng = np.random.default_rng(5)
        diag, off = decaying_bands(100, 2, rng)
        diag[1], off[1] = rng.standard_normal((2, 100)), rng.standard_normal((2, 99))
        values, size, _ = linalg._leading_levels(diag, off, 11)
        assert size.tolist() == [32, 100]
        for p in range(2):
            alone = linalg._leading_levels(diag[p:p + 1], off[p:p + 1], 11)[0]
            assert np.array_equal(values[p], alone[0])

    def test_chunks_do_not_change_the_values(self, monkeypatch):
        rng = np.random.default_rng(6)
        diag, off = decaying_bands(201, 5, rng)
        diag[3] = rng.standard_normal((2, 201))  # a point that needs the full block
        whole = linalg._leading_levels(diag, off, 11)
        assert whole[1].tolist() == [32, 32, 32, 201, 32]
        monkeypatch.setattr(linalg, "_STACK_ELEMENTS", 1)
        for a, b in zip(whole, linalg._leading_levels(diag, off, 11)):
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


class TestCommutatorDeviation:
    def test_pauli_algebra(self):
        assert commutator_deviation(SX, SY, 2j * SZ) <= 1e-14

    def test_truncated_canonical_commutator(self):
        # [x, p] - i I has the single truncation defect -i(N + 1) at the
        # (N, N) corner, so the Frobenius norm is exactly N + 1.
        cfg = TruncationConfig(10)
        x_hat, p_hat = quadratures(cfg)
        dev = commutator_deviation(x_hat, p_hat, 1j * np.eye(cfg.dim_field))
        assert dev == pytest.approx(11.0, abs=1e-12)

    def test_jc_conserves_excitation_number(self):
        cfg = TruncationConfig(40)
        h = build_jc(ModelParams(Omega=1.0, g=0.3), cfg)
        n_total, _ = symmetry_ops(cfg)
        zero = np.zeros_like(h)
        assert commutator_deviation(h, n_total, zero) <= 1e-12 * np.max(np.abs(h))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator_deviation(SX, np.eye(3), np.zeros((2, 2)))
