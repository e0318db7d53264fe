"""Differential test of the parity-sector eigenpath against the dense path.

eig_family solves each parity sector once and rephases it per node; the
reference is the gated dense solve of the full rotated Hamiltonian at every
node of the loop.
"""

from unittest.mock import patch

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jcrabi import ModelParams, TruncationConfig, berry, eig_family, hermitian_eig
from jcrabi.models import ModelKind, build_hamiltonian, rotate_hamiltonian

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
