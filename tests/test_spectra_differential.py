"""Differential tests of the parity-sector spectra against the dense path.

spectrum_sweep, convergence_study and bloch_siegert solve the two
closed-form parity sectors and ground_crossing the even one; the reference
is the gated dense solve of the joint-space Hamiltonian.  The Rabi sweeps
that merged_levels solves from certified leading blocks are also compared
with a full np.linalg.eigvalsh of both sectors.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jcrabi import (
    ModelParams,
    TruncationConfig,
    bloch_siegert,
    convergence_study,
    ground_crossing,
    hermitian_eig,
    spectrum_sweep,
)
from jcrabi.linalg import LEADING_ULPS, tridiagonal
from jcrabi.models import ModelKind, build_jc, parity_sectors

from dense_oracle import build_hamiltonian


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(
    model=st.sampled_from(["jc", "rabi"]),
    Omega=st.floats(0.0, 2.0),
    g_grid=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=3),
    n_max=st.integers(1, 40),
    data=st.data(),
)
def test_sweep_rows_match_dense_spectrum(model, Omega, g_grid, n_max, data):
    kind = ModelKind(model)
    cfg = TruncationConfig(n_max)
    k = data.draw(st.integers(1, cfg.dim_joint), label="k")
    p = ModelParams(Omega=Omega)
    table = spectrum_sweep(kind, p, g_grid, k, cfg)
    for row, g in zip(table.levels, g_grid):
        h = build_hamiltonian(kind, p.with_g(g), cfg)
        dense = hermitian_eig(h).values[:k]
        assert np.max(np.abs(row - dense)) <= 1e-12 * np.max(np.abs(h)), g


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    model=st.sampled_from(["jc", "rabi"]),
    Omega=st.floats(0.0, 2.0),
    g=st.floats(0.0, 1.5),
    n_list=st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True).map(sorted),
    data=st.data(),
)
def test_convergence_rows_match_dense_spectrum(model, Omega, g, n_list, data):
    kind = ModelKind(model)
    k = data.draw(st.integers(1, 2 * (n_list[0] + 1)), label="k")
    p = ModelParams(Omega=Omega)
    table = convergence_study(kind, p, g, k, n_list)
    for row, n_max in zip(table.levels, n_list):
        h = build_hamiltonian(kind, p.with_g(g), TruncationConfig(n_max))
        dense = hermitian_eig(h).values[:k]
        assert np.max(np.abs(row - dense)) <= 1e-12 * np.max(np.abs(h)), n_max


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    Omega=st.floats(0.0, 2.0),
    g=st.floats(0.0, 1.5),
    n_max=st.integers(2, 40),
    data=st.data(),
)
def test_bloch_siegert_matches_dense_spectra(Omega, g, n_max, data):
    cfg = TruncationConfig(n_max)
    level = data.draw(st.integers(1, cfg.dim_joint - 1), label="level")
    p = ModelParams(Omega=Omega, g=g)
    h_jc = build_hamiltonian(ModelKind.JC_LAB, p, cfg)
    h_rabi = build_hamiltonian(ModelKind.RABI_LAB, p, cfg)
    jc, rabi = hermitian_eig(h_jc).values, hermitian_eig(h_rabi).values
    e_jc, e_rabi = jc[level] - jc[0], rabi[level] - rabi[0]
    assume(abs(e_jc) >= 1e-9)  # below, the relative measure is undefined or ill-conditioned
    expected = abs(e_rabi - e_jc) / abs(e_jc)
    # each level agrees to eps = 1e-12 max|H|, each level difference to
    # 2 eps, so the ratio to (4 + 2 ratio) eps / |E_jc| at first order
    eps = 1e-12 * max(np.max(np.abs(h_jc)), np.max(np.abs(h_rabi)))
    bound = (4.0 + 2.0 * expected) * eps / abs(e_jc) * 1.01
    assert abs(bloch_siegert(p, g, level, cfg) - expected) <= bound


# the sweep of the spectrum command and of the benchmark: 151 couplings
SWEEP_G = np.round(0.01 * np.arange(151), 12)


def eigh_tail_orders(diag, off, k):
    """Frozen copy of the leading-block doubling as it was certified from
    np.linalg.eigh: the Ritz bound |off[m'-1] y[m'-1]| of the eigenpairs of
    the leading blocks, m' = max(2k, 32), 64, ... while m' < m.  ``diag``
    (points, blocks, m) and ``off`` (points, blocks, m - 1); returns the m'
    of each point (m where none certified)."""
    n_points, n_blocks, m = diag.shape
    kb = min(k, m)
    bound = LEADING_ULPS * np.finfo(float).eps * np.maximum(
        np.max(np.abs(diag), axis=-1), np.max(np.abs(off), axis=-1, initial=0.0))
    size = np.full(n_points, m)
    todo = np.arange(n_points)
    order = max(2 * k, 32)
    while todo.size and order < m:
        _, y = np.linalg.eigh(tridiagonal(diag[todo, :, :order], off[todo, :, :order - 1]))
        r = np.abs(off[todo, :, order - 1, None] * y[..., -1, :kb])
        done = np.all(r <= bound[todo, :, None], axis=(1, 2))
        size[todo[done]] = order
        todo = todo[~done]
        order *= 2
    return size


def assert_sweep_within_certified_distance(Omega, n_max, g_grid):
    """The Rabi sweep of g_grid against a full np.linalg.eigvalsh of both
    sectors at every coupling, within the certified distance of its row."""
    p, cfg = ModelParams(Omega=Omega), TruncationConfig(n_max)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        table = spectrum_sweep(ModelKind.RABI_LAB, p, g_grid, 11, cfg)
    # every row came from a leading block of the doubling sequence 32, 64,
    # ..., certified to LEADING_ULPS of max|T|, no later than the eigh tail
    assert set(table.block.tolist()) <= {32, 64, 128, 256}
    assert np.all(table.block < cfg.dim_field)
    bands = [parity_sectors(ModelKind.RABI_LAB, p.with_g(g), cfg) for g in g_grid]
    diag, off = (np.stack(part) for part in zip(*bands))
    assert np.all(table.block <= eigh_tail_orders(diag, off, 11))
    eps = np.finfo(float).eps
    for g, row, residual, (diag, off) in zip(g_grid, table.levels, table.residual, bands):
        scale = max(np.max(np.abs(diag)), np.max(np.abs(off)))
        assert residual <= LEADING_ULPS * eps * scale
        full = np.sort(np.linalg.eigvalsh(tridiagonal(diag, off)).ravel())[:11]
        # the certified distance, plus the rounding of the two solves
        assert np.max(np.abs(row - full)) <= residual + 4 * eps * scale, g
    return table


@pytest.mark.parametrize("n_max", [200, 500])
@pytest.mark.parametrize("Omega", [0.6, 1.0, 1.6])
def test_rabi_sweep_within_certified_residual_of_full_eigvalsh(Omega, n_max):
    assert_sweep_within_certified_distance(Omega, n_max, SWEEP_G)


# wide coupling: past g = 1.5 the low Rabi levels spread further up the
# chain, and the leading blocks grow to 128 rows
WIDE_G = np.round(0.05 * np.arange(61), 12)


@pytest.mark.parametrize("n_max", [200, 500])
@pytest.mark.parametrize("Omega", [0.6, 1.6])
def test_wide_coupling_sweep_within_certified_distance_of_full_eigvalsh(Omega, n_max):
    table = assert_sweep_within_certified_distance(Omega, n_max, WIDE_G)
    assert np.max(table.block) == 128


def dense_overlap_crossing(p, cfg, g_lo, g_hi):
    """Bisection to 1e-8 on the dense ground vector's weight on |1>|0>."""
    def excess(g):
        es = hermitian_eig(build_jc(p.with_g(g), cfg))
        return abs(es.vectors[cfg.dim_field, 0]) ** 2 - 0.5

    lo, hi = g_lo, g_hi
    h_lo = excess(lo)
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if excess(mid) * h_lo > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# g_hi = 2.0 and 2.5 reach past the n = 1 -> n = 2 ground crossing (near
# g = 1.707 on resonance), where the lowest odd level leaves |1>|0>
@pytest.mark.parametrize("g_hi", [1.2, 2.0, 2.5])
@pytest.mark.parametrize("Omega", [0.6, 1.0, 1.6])
def test_crossing_matches_dense_overlap_bisection(Omega, g_hi):
    p, cfg = ModelParams(Omega=Omega), TruncationConfig(60)
    res = ground_crossing(p, cfg, 0.3, g_hi)
    assert abs(res.numerical_g - dense_overlap_crossing(p, cfg, 0.3, g_hi)) <= 1e-8
