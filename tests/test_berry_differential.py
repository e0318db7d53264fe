"""Differential tests of the Berry loop against slower, independent paths.

eig_family solves each parity sector once and rephases it per node; its
reference is the gated dense solve of the full rotated Hamiltonian at every
node of the loop.  fock_loop reads the loop's values off the occupation
weights of psi_0 in closed form; its reference is eig_family followed by
wilson_loop and connection_curve, node by node.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jcrabi import (
    ModelParams,
    TrackingError,
    TruncationConfig,
    berry,
    connection_curve,
    eig_family,
    fock_loop,
    hermitian_eig,
    wilson_loop,
)
from jcrabi.berry import GAUGES, phase_distance
from jcrabi.models import ModelKind

from dense_oracle import build_hamiltonian, rotate_hamiltonian

CFG = TruncationConfig(20)
K = 32
MIN_GAP = 1e-3


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    model=st.sampled_from(["jc", "rabi"]),
    Omega=st.floats(0.2, 2.0),
    g=st.floats(0.0, 0.5),
    level=st.integers(0, 5),
)
def test_every_node_matches_dense_solve_of_rotated_hamiltonian(model, Omega, g, level):
    p = ModelParams(Omega=Omega, g=g)
    h0 = build_hamiltonian(ModelKind(model), p, CFG)
    values = hermitian_eig(h0).values
    assume(min(values[level + 1] - values[level],
               values[level] - values[level - 1] if level else np.inf) > MIN_GAP)

    with patch.object(berry, "CONTINUITY_THRESHOLD", 0.9):
        fam = eig_family(model, p, level, K, CFG)
    for k, phi in enumerate(fam.phi_grid):
        es = hermitian_eig(rotate_hamiltonian(h0, phi, CFG))
        assert abs(np.vdot(es.vectors[:, level], fam.vectors[k])) >= 1.0 - 1e-10, k
        assert abs(es.values[level] - fam.energy) <= 1e-12, k


# fock_loop against the node-by-node oracle: every value the CLI writes
TOL = 1e-12
LOOP_CASES = [
    (model, level, g, K, n_max)
    for model in ("jc", "rabi")
    for level in (0, 1, 3)
    for g in (0.001, 0.1, 0.5, 0.93)
    for K in (16, 64, 720)
    for n_max in (30, 150)
]


def oracle_loops(model, p, level, K, cfg):
    """(family, Wilson loop, {gauge: connection curve}) of the node path."""
    fam = eig_family(model, p, level, K, cfg)
    path = (fam.phi_grid, fam.vectors)
    return fam, wilson_loop(*path), {gauge: connection_curve(*path, gauge) for gauge in GAUGES}


def assert_same_loop(fast, slow, on_cut):
    """Equal within TOL.  With on_cut, the unwrapped phase is compared
    modulo 2 pi: in the parallel gauge it is the closure phase, which the
    node path takes from a complex log with its cut at -pi and the closed
    form wraps to (-pi, pi]; a phase of pi may land on either side."""
    assert fast.gauge == slow.gauge
    for name in ("gamma", "gamma_half", "residual"):
        assert abs(getattr(fast, name) - getattr(slow, name)) <= TOL, name
    assert np.array_equal(fast.curve[:, 0], slow.curve[:, 0])
    if on_cut:
        ends = [(fast.gamma_unwrapped, slow.gamma_unwrapped),
                (fast.closure_phase, slow.closure_phase),
                (fast.curve[-1, 1], slow.curve[-1, 1])]
        for a, b in ends:
            assert phase_distance(a, b) <= TOL
        assert np.max(np.abs(fast.curve[:-1, 1] - slow.curve[:-1, 1])) <= TOL
    else:
        assert abs(fast.gamma_unwrapped - slow.gamma_unwrapped) <= TOL
        assert abs(fast.closure_phase - slow.closure_phase) <= TOL
        assert np.max(np.abs(fast.curve[:, 1] - slow.curve[:, 1])) <= TOL


def assert_same_refusal(exc, model, p, level, K, cfg):
    """fock_loop refuses a grid too coarse as the node path did: at node 1,
    with the same text."""
    for gauge in GAUGES:
        with pytest.raises(TrackingError) as fast:
            fock_loop(model, p, level, K, cfg, gauge)
        assert fast.value.node == exc.node == 1
        assert str(fast.value) == str(exc)


@pytest.mark.parametrize("model, level, g, K, n_max", LOOP_CASES)
def test_fock_loop_matches_node_path(model, level, g, K, n_max, monkeypatch):
    # Relaxed so that most K = 16 cases are compared too.  A step overlap
    # of at least 0.875 keeps the K/2 overlap at least 0.5 (1 - |chi(2x)| <=
    # 4 (1 - |chi(x)|)), so wilson_loop's own floor is never reached.
    monkeypatch.setattr(berry, "CONTINUITY_THRESHOLD", 0.875)
    p, cfg = ModelParams(g=g), TruncationConfig(n_max)
    try:
        fam, wilson, conn = oracle_loops(model, p, level, K, cfg)
    except TrackingError as exc:
        assert_same_refusal(exc, model, p, level, K, cfg)
        return
    for gauge in GAUGES:
        loop = fock_loop(model, p, level, K, cfg, gauge)
        assert abs(loop.min_step_overlap - fam.min_step_overlap) <= TOL
        assert abs(loop.generator - fam.generator) <= TOL
        assert_same_loop(loop.wilson, wilson, on_cut=False)
        assert_same_loop(loop.connection, conn[gauge], on_cut=gauge == "parallel_transport")


def test_coarse_grid_refusals_agree():
    # at the default threshold, 40 of the K = 16 and K = 64 cases are too
    # coarse: the same cases, node and text on both paths
    refused = 0
    for model, level, g, K, n_max in LOOP_CASES:
        if K == 720:
            continue
        p, cfg = ModelParams(g=g), TruncationConfig(n_max)
        try:
            eig_family(model, p, level, K, cfg)
        except TrackingError as exc:
            refused += 1
            assert_same_refusal(exc, model, p, level, K, cfg)
        else:
            for gauge in GAUGES:
                fock_loop(model, p, level, K, cfg, gauge)
    assert refused == 40


def test_eigen_residual_matches_node_0_gate():
    # both paths gate psi_0 once ("at phi node 0"), on the band product of
    # its sector, through the same level solve: the two residuals are equal
    p, cfg = ModelParams(g=0.93, Omega=0.4), TruncationConfig(150)
    residuals = []
    true_gate = berry.residual_gate

    def spy(*args):
        value = true_gate(*args)
        if args[-1] == "at phi node 0":
            residuals.append(value)
        return value

    with patch.object(berry, "residual_gate", spy):
        loop = fock_loop("rabi", p, 3, 720, cfg, "anchor_component")
        eig_family("rabi", p, 3, 720, cfg)
    assert len(residuals) == 2
    assert residuals[0] == loop.eigen_residual == residuals[1]


@pytest.mark.parametrize("model, g, level, K, n_max, error, text", [
    ("jc", 1.0, 1, 64, 30, TrackingError, r"phi node 0: level 1 is degenerate"),
    ("rabi", 1.0, 20, 16, 150, TrackingError,
     r"phi node 1: step overlap 0\.478674 is below the continuity threshold 0\.99"),
    ("jc", 0.1, 62, 64, 30, ValueError, r"level must be in \[0, 62\), got 62"),
])
def test_fock_loop_refuses_as_node_path(model, g, level, K, n_max, error, text):
    p, cfg = ModelParams(g=g), TruncationConfig(n_max)
    with pytest.raises(error, match=text) as slow:
        eig_family(model, p, level, K, cfg)
    for gauge in GAUGES:
        with pytest.raises(error) as fast:
            fock_loop(model, p, level, K, cfg, gauge)
        assert str(fast.value) == str(slow.value)
