import numpy as np
import pytest

from jcrabi import (
    DegenerateLevelError,
    ModelParams,
    PARALLEL_TRANSPORT,
    RAW,
    TrackingError,
    TruncationConfig,
    anchor_component,
    connection_curve,
    eig_family,
    gauge_fix,
    generator_phase,
    wilson_loop,
    wrap_phase,
)
import jcrabi.berry as berry_module
from jcrabi.berry import TWO_PI, TrackedFamily, phase_distance
from jcrabi.linalg import ConvergenceError, hermitian_eig
from jcrabi.models import ModelKind, build_hamiltonian, phase_factors, rotate_hamiltonian

CFG = TruncationConfig(30)
P_RES = ModelParams(Omega=1.0, g=0.1)


@pytest.fixture(scope="module")
def jc_family():
    # resonant first excited state: the canonical pi-phase loop
    return eig_family("jc", P_RES, 1, 64, CFG)


@pytest.fixture(scope="module")
def rabi_family():
    return eig_family("rabi", ModelParams(Omega=1.0, g=0.4), 1, 128, TruncationConfig(40))


def test_wrap_phase_interval():
    assert wrap_phase(np.pi) == pytest.approx(np.pi)
    assert wrap_phase(-np.pi) == pytest.approx(np.pi)
    assert wrap_phase(2 * np.pi + 0.25) == pytest.approx(0.25)
    assert phase_distance(0.1, 0.1 + 6 * np.pi) <= 1e-12


def test_wrap_phase_keeps_rounded_pi_positive():
    assert wrap_phase(np.pi + 1e-14) > 0
    assert wrap_phase(-np.pi - 1e-14) > 0
    assert wrap_phase(np.pi + 1e-9) < 0


class TestEigFamily:
    def test_decoupled_family_is_constant_up_to_phase(self):
        fam = eig_family("jc", ModelParams(Omega=1.0, g=0.0), 0, 32, CFG)
        for v in fam.vectors:
            assert abs(np.vdot(fam.vectors[0], v)) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_covariance(self, jc_family):
        # |psi(phi)> must equal U(phi)|psi(0)> up to a phase
        for k in (7, 33, 64):
            rotated = phase_factors(jc_family.phi_grid[k], CFG) * jc_family.vectors[0]
            overlap = abs(np.vdot(rotated, jc_family.vectors[k]))
            assert overlap >= 1.0 - 1e-10

    def test_finer_grid_improves_overlap(self):
        # K = 16 is too coarse for the default continuity threshold here, so
        # relax it for the comparison
        p = ModelParams(Omega=1.0, g=0.4)
        coarse = eig_family("rabi", p, 1, 16, CFG, threshold=0.9)
        fine = eig_family("rabi", p, 1, 32, CFG, threshold=0.9)
        assert fine.min_step_overlap > coarse.min_step_overlap

    def test_min_nodes_enforced(self):
        with pytest.raises(ValueError):
            eig_family("jc", P_RES, 1, 8, CFG)

    def test_level_range_enforced(self):
        with pytest.raises(ValueError):
            eig_family("jc", P_RES, CFG.dim_joint, 20, CFG)

    def test_degenerate_level_refused(self):
        # at Delta=0, g=1 the first excited JC level is exactly degenerate
        with pytest.raises(TrackingError):
            eig_family("jc", ModelParams(Omega=1.0, g=1.0), 1, 64, CFG)

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_matches_gated_dense_solve_of_rotated_hamiltonian(self, model):
        # differential test: the loop's per-node solve against the one gated
        # eigensolver applied to the one rotation routine
        p = ModelParams(Omega=1.2, g=0.4)
        K = 64
        fam = eig_family(model, p, 1, K, CFG)
        h0 = build_hamiltonian(ModelKind(model), p, CFG)
        for k in (0, K // 4, K // 2):
            es = hermitian_eig(rotate_hamiltonian(h0, fam.phi_grid[k], CFG))
            j = int(np.argmin(np.abs(es.values - fam.energies[k])))
            assert abs(np.vdot(es.vectors[:, j], fam.vectors[k])) >= 1.0 - 1e-10
            assert abs(es.values[j] - fam.energies[k]) <= 1e-12

    def test_perturbed_eigenvalue_fails_gate_at_its_node(self, monkeypatch):
        # +1e-6 on the |2>|0> diagonal entry of H'(phi_5): the tracked
        # resonant doublet has weight 1/2 there, so only node 5 fails the gate
        K = 32
        true_rotate = berry_module.rotate_hamiltonian

        def perturbed(h, phi, cfg):
            hk = true_rotate(h, phi, cfg)
            if phi == TWO_PI * 5 / K:
                hk[0, 0] += 1e-6
            return hk

        monkeypatch.setattr(berry_module, "rotate_hamiltonian", perturbed)
        with pytest.raises(ConvergenceError, match="phi node 5"):
            eig_family("jc", P_RES, 1, K, CFG)

    def test_degenerate_level_refusal_names_level_and_gap(self):
        with pytest.raises(TrackingError, match=r"phi node 0: level 1 is degenerate \(gap "):
            eig_family("jc", ModelParams(Omega=1.0, g=1.0), 1, 64, CFG)

    def test_hamiltonian_outside_the_parity_chains_rejected(self, monkeypatch):
        def parity_breaking(kind, p, cfg):
            h = build_hamiltonian(kind, p, cfg)
            h[0, cfg.dim_field] = h[cfg.dim_field, 0] = 1e-3  # |2>|0> <-> |1>|0>
            return h

        monkeypatch.setattr(berry_module, "build_hamiltonian", parity_breaking)
        with pytest.raises(ValueError, match="parity chains"):
            eig_family("rabi", ModelParams(Omega=1.0, g=0.4), 1, 32, CFG)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_every_model_frame_passes_the_sector_split(self, kind):
        fam = eig_family(kind, ModelParams(Omega=1.2, g=0.4), 1, 16, CFG, threshold=0.9)
        h0 = build_hamiltonian(kind, fam.params, CFG)
        es = hermitian_eig(h0)
        assert fam.energies[0] == pytest.approx(es.values[1], abs=1e-12)

    def test_tracks_through_detuned_spectrum(self):
        fam = eig_family("jc", ModelParams(Omega=1.5, g=0.3), 1, 64, CFG)
        assert fam.min_step_overlap >= 0.99
        assert np.max(np.abs(fam.energies - fam.energies[0])) <= 1e-9

    def test_coarse_grid_fails_at_first_step(self):
        # every step of U(phi)|psi_0> has the same overlap, 0.9696 here
        with pytest.raises(TrackingError, match="phi node 1: step overlap"):
            eig_family("rabi", ModelParams(Omega=1.0, g=0.4), 1, 16, CFG)


@pytest.mark.parametrize("model, level", [("jc", 1), ("jc", 3), ("jc", 5), ("rabi", 1)])
class TestEigenpathIsRotatedPsi0:
    # resonant JC levels 3 and 5 mix field occupations {1, 2} and {2, 3}, so
    # the unwrapped loop phase 2 pi <n> is 3 pi and 5 pi
    @pytest.fixture
    def fam(self, model, level):
        return eig_family(model, P_RES, level, 64, CFG)

    def test_vectors_are_u_phi_times_psi_0(self, fam):
        for phi, v in zip(fam.phi_grid, fam.vectors):
            rotated = phase_factors(phi, CFG) * fam.vectors[0]
            assert np.max(np.abs(v - rotated)) <= 1e-15

    def test_unwrapped_wilson_sum_is_generator_phase(self, fam, model, level):
        gen = generator_phase(model, P_RES, level, CFG)
        assert abs(wilson_loop(fam).gamma_unwrapped - gen) <= 1e-3


class TestGaugeFix:
    def test_parallel_transport_overlaps_real_nonnegative(self, rabi_family):
        fixed = gauge_fix(rabi_family, PARALLEL_TRANSPORT)
        for k in range(fixed.steps):
            ov = np.vdot(fixed.vectors[k], fixed.vectors[k + 1])
            assert abs(ov.imag) <= 1e-12
            assert ov.real >= 0.0

    def test_anchor_component_real_nonnegative(self, rabi_family):
        fixed = gauge_fix(rabi_family, anchor_component())
        idx = fixed.gauge.anchor_index
        assert idx == int(np.argmax(np.abs(rabi_family.vectors[0])))
        for v in fixed.vectors:
            assert abs(v[idx].imag) <= 1e-12
            assert v[idx].real >= 0.0

    def test_idempotent(self, rabi_family):
        once = gauge_fix(rabi_family, PARALLEL_TRANSPORT)
        twice = gauge_fix(once, PARALLEL_TRANSPORT)
        assert np.max(np.abs(once.vectors - twice.vectors)) <= 1e-12

    def test_preserves_step_overlap_magnitudes(self, rabi_family):
        fixed = gauge_fix(rabi_family, anchor_component())
        for k in range(rabi_family.steps):
            before = abs(np.vdot(rabi_family.vectors[k], rabi_family.vectors[k + 1]))
            after = abs(np.vdot(fixed.vectors[k], fixed.vectors[k + 1]))
            assert after == pytest.approx(before, abs=1e-12)

    def test_invalid_anchor_rejected(self, jc_family):
        # the resonant n=1 doublet has no weight on high Fock states
        with pytest.raises(ValueError, match="anchor"):
            gauge_fix(jc_family, anchor_component(CFG.dim_field - 1))


class TestWilsonLoop:
    def test_resonant_jc_pi(self, jc_family):
        res = wilson_loop(jc_family)
        # the two-component resonant dressed state gives exactly pi
        assert phase_distance(res.gamma, np.pi) <= 1e-9
        assert res.gamma > 0  # orientation convention: +pi, not -pi

    def test_gauge_invariance_under_random_rephasing(self, jc_family):
        rng = np.random.default_rng(42)
        base = wilson_loop(jc_family).gamma
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(jc_family.vectors)))
        mangled = TrackedFamily(
            jc_family.phi_grid, jc_family.vectors * phases[:, None],
            jc_family.energies, jc_family.level, jc_family.min_step_overlap,
            jc_family.kind, jc_family.params, jc_family.cfg,
        )
        assert phase_distance(wilson_loop(mangled).gamma, base) <= 1e-10

    def test_gauge_invariance_across_conventions(self, rabi_family):
        base = wilson_loop(rabi_family).gamma
        for gauge in (PARALLEL_TRANSPORT, anchor_component()):
            assert phase_distance(wilson_loop(gauge_fix(rabi_family, gauge)).gamma, base) <= 1e-10

    def test_resonant_pi_sign_same_in_every_gauge(self):
        # the loop sum lands within rounding of pi on either side of the cut
        fam = eig_family("jc", P_RES, 1, 128, CFG)
        for gauge in (RAW, PARALLEL_TRANSPORT, anchor_component()):
            assert wilson_loop(gauge_fix(fam, gauge)).gamma == pytest.approx(np.pi, abs=1e-9)

    def test_matches_generator_oracle(self, rabi_family):
        gen = generator_phase("rabi", rabi_family.params, 1, rabi_family.cfg)
        res = wilson_loop(rabi_family)
        assert phase_distance(res.gamma, gen) <= 1e-3

    def test_residual_bounds_next_refinement(self):
        p = ModelParams(Omega=1.0, g=0.4)
        cfg = TruncationConfig(40)
        gammas = {}
        residuals = {}
        for K in (32, 64, 128):
            res = wilson_loop(eig_family("rabi", p, 1, K, cfg))
            gammas[K] = res.gamma
            residuals[K] = res.residual
        assert phase_distance(gammas[128], gammas[64]) <= residuals[64]
        assert phase_distance(gammas[64], gammas[32]) <= residuals[32]

    def test_underresolved_loop_rejected(self, jc_family):
        vectors = jc_family.vectors.copy()
        # break the closing overlap by replacing the last interior vector
        vectors[-2] = 0.0
        vectors[-2][3] = 1.0
        broken = TrackedFamily(
            jc_family.phi_grid, vectors, jc_family.energies, jc_family.level,
            jc_family.min_step_overlap, jc_family.kind, jc_family.params, jc_family.cfg,
        )
        with pytest.raises(TrackingError):
            wilson_loop(broken)


class TestConnectionCurve:
    def test_raw_gauge_rejected(self, jc_family):
        with pytest.raises(ValueError, match="gauge"):
            connection_curve(jc_family, RAW)

    def test_resonant_jc_linear_curve(self, jc_family):
        # anchored on the |2>|0> component: A(phi) = <n> = 1/2, so the curve
        # is phi/2 and closes at pi
        res = connection_curve(jc_family, anchor_component())
        assert phase_distance(res.gamma, np.pi) <= 1e-2
        phis, partial = res.curve[:, 0], res.curve[:, 1]
        mid = len(phis) // 2
        assert abs(partial[mid] - phis[mid] / 2) <= 1e-2
        assert abs(res.closure_phase) <= 1e-6

    def test_decoupled_curve_vanishes(self):
        fam = eig_family("jc", ModelParams(Omega=1.0, g=0.0), 0, 32, CFG)
        res = connection_curve(fam, anchor_component())
        assert np.max(np.abs(res.curve[:, 1])) <= 1e-12

    def test_parallel_transport_matches_wilson(self, rabi_family):
        w = wilson_loop(rabi_family)
        conn = connection_curve(rabi_family, PARALLEL_TRANSPORT)
        assert phase_distance(conn.gamma, w.gamma) <= max(conn.residual, 1e-10)
        # interior of the curve is flat: parallel transport zeroes the
        # integrand and the holonomy enters at loop closure
        assert np.max(np.abs(conn.curve[:-1, 1])) <= 1e-10
        assert conn.closure_phase == pytest.approx(conn.gamma_unwrapped, abs=1e-10)

    def test_anchor_curve_matches_generator_mod_2pi(self, rabi_family):
        gen = generator_phase("rabi", rabi_family.params, 1, rabi_family.cfg)
        res = connection_curve(rabi_family, anchor_component())
        assert phase_distance(res.gamma, gen) <= 5e-3


class TestGeneratorPhase:
    def test_resonant_jc_first_excited(self):
        val = generator_phase("jc", P_RES, 1, CFG)
        assert val == pytest.approx(np.pi, abs=1e-9)

    def test_closed_form_oracle_chain_at_n1(self):
        # the two analytic routes agree: 2pi<n> of the first excited state
        # equals the closed-form doublet phase (lower branch) mod 2pi; this
        # pins the doublet indexing of the closed form
        from jcrabi import berry_exact_jc

        for delta, g in ((0.0, 0.1), (0.5, 0.1), (0.5, 0.4), (-0.3, 0.2)):
            p = ModelParams(Omega=1.0 + delta, g=g)
            gen = generator_phase("jc", p, 1, CFG)
            closed = berry_exact_jc(1, p, -1)
            assert phase_distance(gen, closed) <= 1e-9

    def test_berry_truncation_default_converged(self):
        # n_max = 150 is the loop-run default; the generator oracle moves by
        # less than 1e-10 against an n_max = 500 anchor
        p = ModelParams(Omega=1.0, g=1.0)
        lo = generator_phase("rabi", p, 1, TruncationConfig(150))
        hi = generator_phase("rabi", p, 1, TruncationConfig(500))
        assert abs(lo - hi) <= 1e-10

    def test_rabi_detuned_weak_coupling_vanishes(self):
        # with the qubit below the resonator the first excited state tends to
        # the bare excited qubit in vacuum, so the loop phase tends to zero
        val = generator_phase("rabi", ModelParams(Omega=0.5, g=1e-3), 1, CFG)
        assert abs(val) <= 1e-3

    def test_ground_state_vanishes_at_g0(self):
        for model in ("jc", "rabi"):
            assert generator_phase(model, ModelParams(Omega=1.0, g=0.0), 0, CFG) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_level_refused(self):
        with pytest.raises(DegenerateLevelError):
            generator_phase("jc", ModelParams(Omega=1.0, g=1.0), 1, CFG)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            generator_phase("jc", P_RES, -1, CFG)
