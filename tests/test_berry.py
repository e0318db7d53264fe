import numpy as np
import pytest

from jcrabi import (
    ModelParams,
    TrackingError,
    TruncationConfig,
    berry_boa_jc,
    connection_curve,
    eig_family,
    fock_loop,
    gauge_fix,
    wilson_loop,
    wrap_phase,
)
import jcrabi.berry as berry_module
import jcrabi.models as models_module
from jcrabi.berry import GAUGES, MIN_NODES, TWO_PI, loop_grid, phase_distance
from jcrabi.fock import embed, ladder_ops, qubit_ops
from jcrabi.linalg import ConvergenceError, hermitian_eig
from jcrabi.models import ModelKind, empty_state_energy, jc_doublet_analytic, phase_factors

from dense_oracle import build_hamiltonian, doublet_state_vectors, rotate_hamiltonian

CFG = TruncationConfig(30)
P_RES = ModelParams(Omega=1.0, g=0.1)
P_RABI = ModelParams(Omega=1.0, g=0.4)
CFG_RABI = TruncationConfig(40)
CFG_150 = TruncationConfig(150)
EPS = np.finfo(float).eps


@pytest.fixture(scope="module")
def jc_family():
    # resonant first excited state: the canonical pi-phase loop
    return eig_family("jc", P_RES, 1, 64, CFG)


@pytest.fixture(scope="module")
def rabi_family():
    return eig_family("rabi", P_RABI, 1, 128, CFG_RABI)


def loop(fam):
    """The (phi_grid, vectors) path of a tracked family."""
    return fam.phi_grid, fam.vectors


def generator(model, p, level, cfg):
    """The generator oracle 2 pi <n> of a level, read from the loop the
    command line runs, at its default K = 720."""
    return fock_loop(model, p, level, 720, cfg, "anchor_component").generator


class TestLoopGrid:
    def test_uniform_closed_grid(self):
        phi = loop_grid(64)
        assert len(phi) == 65 and phi[0] == 0.0 and phi[-1] == TWO_PI
        assert np.allclose(np.diff(phi), TWO_PI / 64, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("K", [14, 17, 64.0])
    def test_off_rule_rejected(self, K):
        # odd, below MIN_NODES or not an integer
        with pytest.raises(ValueError, match=f"K must be an even integer >= {MIN_NODES}, got {K}"):
            loop_grid(K)


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

    def test_finer_grid_improves_overlap(self, monkeypatch):
        # K = 16 is too coarse for the continuity threshold here, so relax it
        # for the comparison
        monkeypatch.setattr(berry_module, "CONTINUITY_THRESHOLD", 0.9)
        p = ModelParams(Omega=1.0, g=0.4)
        coarse = eig_family("rabi", p, 1, 16, CFG)
        fine = eig_family("rabi", p, 1, 32, CFG)
        assert fine.min_step_overlap > coarse.min_step_overlap

    @pytest.mark.parametrize("K", [8, 65])
    def test_loop_grid_rule_enforced(self, K):
        with pytest.raises(ValueError, match=f"K must be an even integer >= 16, got {K}"):
            eig_family("jc", P_RES, 1, K, CFG)

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
            j = int(np.argmin(np.abs(es.values - fam.energy)))
            assert abs(np.vdot(es.vectors[:, j], fam.vectors[k])) >= 1.0 - 1e-10
            assert abs(es.values[j] - fam.energy) <= 1e-12

    def test_degenerate_level_refusal_names_level_and_gap(self):
        with pytest.raises(TrackingError, match=r"phi node 0: level 1 is degenerate \(gap "):
            eig_family("jc", ModelParams(Omega=1.0, g=1.0), 1, 64, CFG)

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_every_model_frame_passes_the_sector_split(self, kind, monkeypatch):
        monkeypatch.setattr(berry_module, "CONTINUITY_THRESHOLD", 0.9)
        p = ModelParams(Omega=1.2, g=0.4)
        fam = eig_family(kind, p, 1, 16, CFG)
        es = hermitian_eig(build_hamiltonian(kind, p, CFG))
        assert fam.energy == pytest.approx(es.values[1], abs=1e-12)

    def test_tracks_through_detuned_spectrum(self):
        p = ModelParams(Omega=1.5, g=0.3)
        fam = eig_family("jc", p, 1, 64, CFG)
        assert fam.min_step_overlap >= 0.99
        dense = hermitian_eig(build_hamiltonian(ModelKind.JC_LAB, p, CFG)).values[1]
        assert abs(fam.energy - dense) <= 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_hamiltonian_fails_the_sector_split(self):
        # ModelParams refuses g = inf; past it, the links of both sectors
        # are inf, and the level solve refuses the bands before it solves
        p = ModelParams(Omega=1.0, g=0.4)
        object.__setattr__(p, "g", np.inf)
        with pytest.raises(ValueError, match=r"^the even rabi sector at g=inf, n_max=30 has a "
                                             r"band entry that is not finite"):
            eig_family("rabi", p, 1, 32, CFG)

    def test_nan_gap_refused_as_degenerate(self, monkeypatch):
        monkeypatch.setattr(berry_module, "_level_gap", lambda values, level: np.nan)
        with pytest.raises(TrackingError, match="phi node 0: level 1 is degenerate"):
            eig_family("jc", P_RES, 1, 32, CFG)

    def test_coarse_grid_fails_at_first_step(self):
        # every step of U(phi)|psi_0> has the same overlap, 0.9696 here
        with pytest.raises(TrackingError, match="phi node 1: step overlap"):
            eig_family("rabi", ModelParams(Omega=1.0, g=0.4), 1, 16, CFG)


K_GATE = 720
GATE_NODES = (0, 5, K_GATE // 4, K_GATE // 2)
GATE_CASES = [(model, n_max) for model in ("jc", "rabi") for n_max in (30, 150)]
P_GATE = ModelParams(Omega=1.2, g=0.4)


def gate_spy(monkeypatch):
    """Patch berry's residual_gate to record every value its gate of psi_0
    ("at phi node 0") returns; the generator oracle's gate is not recorded."""
    true_gate = berry_module.residual_gate
    residuals = []

    def spy(*args):
        value = true_gate(*args)
        if args[-1] == "at phi node 0":
            residuals.append(value)
        return value

    monkeypatch.setattr(berry_module, "residual_gate", spy)
    return residuals


def node_loop_vectors(psi0, phi_grid, cfg):
    """A frozen copy of the per-node construction that the broadcast
    replaced: node k filled in place with the scalar diagonal of U(phi_k)
    times psi_0, one node at a time."""
    vectors = np.empty((len(phi_grid), len(psi0)), dtype=complex)
    for k, phi in enumerate(phi_grid):
        field_phase = np.exp(-1j * phi * np.arange(cfg.dim_field))
        np.multiply(np.concatenate([field_phase, field_phase]), psi0, out=vectors[k])
    return vectors


class TestNodeGate:
    """The one gate of psi_0 in a loop, on the band product T x of its
    sector, against the dense H'(phi_k) of every node."""

    @pytest.mark.parametrize("model, n_max", GATE_CASES)
    def test_gate_residual_matches_dense_residual(self, model, n_max, monkeypatch):
        # U(phi_k) is diagonal with unit-modulus entries, so the node-0
        # value is the dense residual of every node within rounding
        residuals = gate_spy(monkeypatch)
        cfg = TruncationConfig(n_max)
        fam = eig_family(model, P_GATE, 1, K_GATE, cfg)
        assert len(residuals) == 1
        h0 = build_hamiltonian(ModelKind(model), P_GATE, cfg)
        maxabs = np.max(np.abs(h0))
        for k in GATE_NODES:
            v = fam.vectors[k]
            hk = rotate_hamiltonian(h0, fam.phi_grid[k], cfg)
            dense = np.max(np.abs(hk @ v - fam.energy * v))
            assert abs(residuals[0] - dense) <= 1e-15 * maxabs, k

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_one_gate_per_loop_call(self, model, monkeypatch):
        residuals = gate_spy(monkeypatch)
        eig_family(model, P_GATE, 1, 64, CFG)
        assert len(residuals) == 1
        for gauge in GAUGES:
            loop = fock_loop(model, P_GATE, 1, 64, CFG, gauge)
            assert residuals[-1] == loop.eigen_residual
        assert len(residuals) == 1 + len(GAUGES)

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_broadcast_equals_the_node_loop(self, model):
        cfg = TruncationConfig(150)
        fam = eig_family(model, P_GATE, 1, K_GATE, cfg)
        psi0, energy, _, _ = berry_module._solve_level(model, P_GATE, 1, cfg)
        assert np.array_equal(fam.vectors, node_loop_vectors(psi0, fam.phi_grid, cfg))
        assert fam.energy == energy

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_perturbed_psi0_fails_the_band_gate(self, model, monkeypatch):
        # one entry of the twisted vector off by 1e-6 leaves a residual far
        # above 1e-10 max|H|: the band product reads every entry of psi_0
        true_vector = berry_module.sector_vector

        def perturbed(*args):
            x = true_vector(*args)
            x[1] += 1e-6
            return x

        monkeypatch.setattr(berry_module, "sector_vector", perturbed)
        with pytest.raises(ConvergenceError, match="at phi node 0 exceeds"):
            eig_family(model, P_GATE, 1, 64, CFG)

    @pytest.mark.parametrize("model, level, sector",
                             [("jc", 1, "even"), ("rabi", 0, "odd"), ("rabi", 1, "even")])
    def test_perturbed_generator_column_fails_the_band_gate(self, model, level, sector,
                                                            monkeypatch):
        # the generator oracle's eigh is gated pair by pair on the band
        # product: one column off by 1e-6 fails, naming the level's sector
        true_eigh = np.linalg.eigh

        def perturbed(a, *args, **kwargs):
            values, vectors = true_eigh(a, *args, **kwargs)
            vectors[3, 5] += 1e-6
            return values, vectors

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceError, match=f"in the {sector} {model} sector at "
                                                   f"g=0.4, n_max=30 exceeds"):
            eig_family(model, P_GATE, level, 64, CFG)

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_no_dense_matrix_on_the_loop_path(self, model, monkeypatch):
        # the loop reads the bands alone: a dense builder that raises, and
        # the fock.embed they assemble H from, are never reached
        def dense(*args, **kwargs):
            raise AssertionError("a dense joint-space matrix was built")

        for name in ("build_jc", "build_rabi", "embed"):
            monkeypatch.setattr(models_module, name, dense)
        for level in (0, 1, 7):
            fam = eig_family(model, P_GATE, level, K_GATE, CFG_150)
            assert np.isfinite(fam.generator)
            for gauge in GAUGES:
                loop = fock_loop(model, P_GATE, level, K_GATE, CFG_150, gauge)
                assert loop.generator == fam.generator


def jc_closed_form_state(level, p, cfg):
    """The JC eigenstate of a level with no eigensolver: the empty state
    |1>|0>, the doublets n = 1 .. n_max and the uncoupled top state
    |2>|n_max>, numbered by their closed-form energies."""
    def unit(index):
        v = np.zeros(cfg.dim_joint)
        v[index] = 1.0
        return v

    states = [(empty_state_energy(p), unit(cfg.dim_field)),
              (p.omega * cfg.n_max + 0.5 * p.Omega, unit(cfg.n_max))]
    for n in range(1, cfg.n_max + 1):
        doublet = jc_doublet_analytic(n, p)
        states += zip(doublet.energies, doublet_state_vectors(doublet, cfg))
    states.sort(key=lambda state: state[0])
    return states[level][1]


class TestPsi0Oracles:
    """psi_0 of the sector solve against independent oracles: the JC closed
    form, and the dense eigendecomposition of the Rabi H."""

    P = ModelParams(Omega=1.0, g=0.3)

    @pytest.mark.parametrize("n_max", [30, 150])
    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_levels_match_the_oracle(self, model, n_max):
        cfg = TruncationConfig(n_max)
        if model == "rabi":
            dense = hermitian_eig(build_hamiltonian(ModelKind.RABI_LAB, self.P, cfg)).vectors
        # level dim - 1 takes the full eigvalsh of a Rabi sector
        for level in (0, 1, 7, cfg.dim_joint - 1):
            psi0, _, _, _ = berry_module._solve_level(model, self.P, level, cfg)
            oracle = (jc_closed_form_state(level, self.P, cfg) if model == "jc"
                      else dense[:, level])
            assert abs(np.dot(oracle, psi0)) >= 1 - 1e-12, level


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

    def test_unwrapped_wilson_sum_is_the_generator(self, fam):
        assert abs(wilson_loop(*loop(fam)).gamma_unwrapped - fam.generator) <= 1e-3


class TestGaugeFix:
    def test_parallel_transport_overlaps_real_nonnegative(self, rabi_family):
        fixed, tag = gauge_fix(rabi_family.vectors, "parallel_transport")
        assert tag == "parallel_transport"
        for k in range(len(fixed) - 1):
            ov = np.vdot(fixed[k], fixed[k + 1])
            assert abs(ov.imag) <= 1e-12
            assert ov.real >= 0.0

    def test_anchor_component_real_nonnegative(self, rabi_family):
        fixed, tag = gauge_fix(rabi_family.vectors, "anchor_component")
        idx = int(np.argmax(np.abs(rabi_family.vectors[0])))
        assert tag == f"anchor_component({idx})"
        for v in fixed:
            assert abs(v[idx].imag) <= 1e-12
            assert v[idx].real >= 0.0

    def test_idempotent(self, rabi_family):
        once, _ = gauge_fix(rabi_family.vectors, "parallel_transport")
        twice, _ = gauge_fix(once, "parallel_transport")
        assert np.max(np.abs(once - twice)) <= 1e-12

    def test_preserves_step_overlap_magnitudes(self, rabi_family):
        v = rabi_family.vectors
        fixed, _ = gauge_fix(v, "anchor_component")
        for k in range(len(v) - 1):
            before = abs(np.vdot(v[k], v[k + 1]))
            after = abs(np.vdot(fixed[k], fixed[k + 1]))
            assert after == pytest.approx(before, abs=1e-12)

    def test_returns_a_copy(self, jc_family):
        before = jc_family.vectors.copy()
        for gauge in GAUGES:
            gauge_fix(jc_family.vectors, gauge)
        assert np.array_equal(jc_family.vectors, before)

    def test_invalid_anchor_rejected(self):
        # (cos phi, sin phi) on 16 nodes: the anchor is component 0, the
        # largest at phi = 0, and it vanishes at phi = pi/2, node 4
        phi = TWO_PI * np.arange(17) / 16
        vectors = np.column_stack([np.cos(phi), np.sin(phi)])
        with pytest.raises(ValueError, match="anchor component 0 .* at phi node 4"):
            gauge_fix(vectors, "anchor_component")
        with pytest.raises(ValueError, match="at phi node 4"):
            connection_curve(phi, vectors, "anchor_component")


class TestLoopPath:
    # both estimators check the path: a uniform 1-D grid from 0 to 2 pi,
    # one finite vector row per node
    @pytest.fixture(params=["wilson", "connection"])
    def estimator(self, request):
        if request.param == "wilson":
            return wilson_loop
        return lambda phi, vectors: connection_curve(phi, vectors, "anchor_component")

    def test_open_path_rejected(self, jc_family, estimator):
        # the first 33 nodes of the K = 64 family run from 0 to pi only
        with pytest.raises(ValueError, match="from 0 to 2 pi"):
            estimator(jc_family.phi_grid[:33], jc_family.vectors[:33])

    def test_non_uniform_grid_rejected(self, jc_family, estimator):
        phi = jc_family.phi_grid.copy()
        phi[5] += 1e-3
        with pytest.raises(ValueError, match="uniform"):
            estimator(phi, jc_family.vectors)

    def test_two_dimensional_grid_rejected(self, jc_family, estimator):
        with pytest.raises(ValueError, match="1-D"):
            estimator(jc_family.phi_grid[None, :], jc_family.vectors)

    def test_row_count_mismatch_rejected(self, jc_family, estimator):
        with pytest.raises(ValueError, match="one vector row per phi node"):
            estimator(jc_family.phi_grid, jc_family.vectors[:-1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, jc_family, estimator, bad):
        vectors = jc_family.vectors.copy()
        vectors[7, 0] = bad
        with pytest.raises(ValueError, match="phi node 7 is not finite"):
            estimator(jc_family.phi_grid, vectors)

    @pytest.mark.parametrize("K", [8, 65])
    def test_grid_off_the_loop_rule_rejected(self, estimator, K):
        # every other node of an odd grid does not end at 2 pi, and K = 8
        # is below MIN_NODES: neither has a K/2 residual
        phi = np.linspace(0.0, TWO_PI, K + 1)
        with pytest.raises(ValueError, match=f"K must be an even integer >= 16, got {K}"):
            estimator(phi, np.ones((K + 1, 2)))

    @pytest.mark.parametrize("family", ["jc_family", "rabi_family"])
    def test_residual_finite(self, request, estimator, family):
        res = estimator(*loop(request.getfixturevalue(family)))
        assert np.isfinite(res.gamma_half) and np.isfinite(res.residual)


class TestWilsonLoop:
    def test_resonant_jc_pi(self, jc_family):
        res = wilson_loop(*loop(jc_family))
        # the two-component resonant dressed state gives exactly pi
        assert phase_distance(res.gamma, np.pi) <= 1e-9
        assert res.gamma > 0  # orientation convention: +pi, not -pi

    def test_gauge_invariance_under_random_rephasing(self, jc_family):
        rng = np.random.default_rng(42)
        base = wilson_loop(*loop(jc_family)).gamma
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(jc_family.vectors)))
        mangled = wilson_loop(jc_family.phi_grid, jc_family.vectors * phases[:, None])
        assert phase_distance(mangled.gamma, base) <= 1e-10

    def test_gauge_invariance_across_conventions(self, rabi_family):
        base = wilson_loop(*loop(rabi_family)).gamma
        for gauge in GAUGES:
            fixed, _ = gauge_fix(rabi_family.vectors, gauge)
            assert phase_distance(wilson_loop(rabi_family.phi_grid, fixed).gamma, base) <= 1e-10

    def test_resonant_pi_sign_same_in_every_gauge(self):
        # the loop sum lands within rounding of pi on either side of the cut
        fam = eig_family("jc", P_RES, 1, 128, CFG)
        paths = [fam.vectors] + [gauge_fix(fam.vectors, gauge)[0] for gauge in GAUGES]
        for vectors in paths:
            assert wilson_loop(fam.phi_grid, vectors).gamma == pytest.approx(np.pi, abs=1e-9)

    def test_matches_generator_oracle(self, rabi_family):
        res = wilson_loop(*loop(rabi_family))
        assert phase_distance(res.gamma, rabi_family.generator) <= 1e-3

    def test_residual_bounds_next_refinement(self):
        gammas = {}
        residuals = {}
        for K in (32, 64, 128):
            res = wilson_loop(*loop(eig_family("rabi", P_RABI, 1, K, CFG_RABI)))
            gammas[K] = res.gamma
            residuals[K] = res.residual
        assert phase_distance(gammas[128], gammas[64]) <= residuals[64]
        assert phase_distance(gammas[64], gammas[32]) <= residuals[32]

    def test_underresolved_loop_rejected(self, jc_family):
        vectors = jc_family.vectors.copy()
        # break the closing overlap by replacing the last interior vector
        vectors[-2] = 0.0
        vectors[-2][3] = 1.0
        with pytest.raises(TrackingError):
            wilson_loop(jc_family.phi_grid, vectors)


class TestConnectionCurve:
    @pytest.mark.parametrize("name", ["raw", "anchor"])
    def test_unknown_gauge_rejected(self, jc_family, name):
        with pytest.raises(ValueError, match="unknown gauge"):
            connection_curve(*loop(jc_family), name)

    def test_gauge_tags(self, jc_family):
        # the tags are written to the berry output files
        assert connection_curve(*loop(jc_family), "parallel_transport").gauge == "parallel_transport"
        assert connection_curve(*loop(jc_family), "anchor_component").gauge == "anchor_component(0)"

    def test_resonant_jc_linear_curve(self, jc_family):
        # anchored on the |2>|0> component: A(phi) = <n> = 1/2, so the curve
        # is phi/2 and closes at pi
        res = connection_curve(*loop(jc_family), "anchor_component")
        assert phase_distance(res.gamma, np.pi) <= 1e-2
        phis, partial = res.curve[:, 0], res.curve[:, 1]
        mid = len(phis) // 2
        assert abs(partial[mid] - phis[mid] / 2) <= 1e-2
        assert abs(res.closure_phase) <= 1e-6

    def test_decoupled_curve_vanishes(self):
        fam = eig_family("jc", ModelParams(Omega=1.0, g=0.0), 0, 32, CFG)
        res = connection_curve(*loop(fam), "anchor_component")
        assert np.max(np.abs(res.curve[:, 1])) <= 1e-12

    def test_parallel_transport_matches_wilson(self, rabi_family):
        w = wilson_loop(*loop(rabi_family))
        conn = connection_curve(*loop(rabi_family), "parallel_transport")
        assert phase_distance(conn.gamma, w.gamma) <= max(conn.residual, 1e-10)
        # interior of the curve is flat: parallel transport zeroes the
        # integrand and the holonomy enters at loop closure
        assert np.max(np.abs(conn.curve[:-1, 1])) <= 1e-10
        assert conn.closure_phase == pytest.approx(conn.gamma_unwrapped, abs=1e-10)

    def test_anchor_curve_matches_generator_mod_2pi(self, rabi_family):
        res = connection_curve(*loop(rabi_family), "anchor_component")
        assert phase_distance(res.gamma, rabi_family.generator) <= 5e-3



class TestFockLoop:
    """fock_loop's own contract; tests/test_berry_differential.py compares it
    with the node path value by value."""

    @pytest.mark.parametrize("name", ["raw", "anchor"])
    def test_unknown_gauge_rejected(self, name):
        with pytest.raises(ValueError, match="unknown gauge"):
            fock_loop("jc", P_RES, 1, 64, CFG, name)

    @pytest.mark.parametrize("K", [8, 65])
    def test_loop_grid_rule_enforced(self, K):
        with pytest.raises(ValueError, match=f"K must be an even integer >= 16, got {K}"):
            fock_loop("jc", P_RES, 1, K, CFG, "anchor_component")

    @pytest.mark.parametrize("level", [1, 3, 5])
    def test_resonant_doublet_reads_plus_pi(self, level):
        # weight 1/2 on two neighbouring occupations: chi(x) = e^{-i(n + 1/2)x}
        # cos(x/2), so the Wilson and parallel-gauge loops close on pi at any
        # K, read as +pi; the anchor gauge has slope sin(dphi/2)/dphi
        loop = fock_loop("jc", P_RES, level, 64, CFG, "parallel_transport")
        for res in (loop.wilson, loop.connection):
            assert abs(res.gamma - np.pi) <= 1e-12
            assert res.residual <= 1e-12
        assert abs(loop.connection.closure_phase - np.pi) <= 1e-12
        anchor = fock_loop("jc", P_RES, level, 64, CFG, "anchor_component").connection
        assert abs(abs(anchor.gamma_unwrapped) - 32 * np.sin(np.pi / 32)) <= 1e-12
        assert np.count_nonzero(loop.weights) == 2
        assert loop.tail_weight == 0.0

    def test_parallel_curve_holds_the_holonomy_at_closure(self):
        loop = fock_loop("rabi", P_RABI, 1, 128, CFG_RABI, "parallel_transport")
        conn = loop.connection
        assert not np.any(conn.curve[:-1, 1])
        assert conn.curve[-1, 1] == conn.closure_phase == conn.gamma_unwrapped
        assert conn.gamma_half == loop.wilson.gamma_half

    @pytest.mark.parametrize("model, level", [("jc", 1), ("rabi", 1), ("rabi", 4)])
    def test_fine_loop_approaches_generator_form(self, model, level):
        # Berry's 2 pi <n>: the weights give it exactly, and the K = 720
        # Wilson and anchor phases approach it modulo 2 pi (criterion 9's
        # 5e-3)
        p = ModelParams(Omega=1.0, g=0.6)
        loop = fock_loop(model, p, level, 720, CFG_RABI, "anchor_component")
        gen = loop.generator
        assert loop.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert abs(TWO_PI * np.dot(np.arange(CFG_RABI.dim_field), loop.weights) - gen) <= 1e-10
        assert phase_distance(loop.wilson.gamma, gen) <= 5e-3
        assert phase_distance(loop.connection.gamma, gen) <= 5e-3
        assert loop.connection.closure_phase == 0.0

    def test_tail_weight_sums_the_top_occupations(self):
        loop = fock_loop("rabi", ModelParams(Omega=1.0, g=1.5), 1, 720, TruncationConfig(20),
                         "anchor_component")
        assert loop.tail_weight == pytest.approx(loop.weights[11:].sum(), rel=1e-14, abs=0.0)
        assert loop.tail_weight > 1e-3  # g = 1.5 at n_max = 20 reaches the cutoff

    @pytest.mark.parametrize("n_max, top", [(18, 9), (19, 10)])
    def test_tail_weight_edge_at_nmax_19(self, n_max, top):
        # from n_max = 19 on the top TAIL_OCCUPATIONS; below, the top half
        loop = fock_loop("rabi", ModelParams(Omega=1.0, g=1.5), 1, 720, TruncationConfig(n_max),
                         "anchor_component")
        assert loop.tail_weight == float(np.sum(loop.weights[-top:]))
        assert loop.tail_weight < float(np.sum(loop.weights[-top - 1:]))

    def test_tail_weight_on_a_small_cutoff(self):
        # at n_max = 5 the top three occupations: the resonant JC doublet
        # lives on n = 0, 1 and leaves no tail
        cfg = TruncationConfig(5)
        jc = fock_loop("jc", P_RES, 1, 64, cfg, "anchor_component")
        assert jc.tail_weight == 0.0
        rabi = fock_loop("rabi", ModelParams(Omega=1.0, g=0.5), 1, 64, cfg, "anchor_component")
        assert rabi.tail_weight == pytest.approx(0.027, abs=5e-4)


SX, SY, SZ, _, _ = qubit_ops()
K_MEAN_FIELD = 720


def mean_field_loop(spin_hamiltonian, centre, rho):
    """Upper-branch eigenvectors of the 2x2 spin Hamiltonian h(x, p) on the
    circle (x, p) = centre + rho (cos phi, sin phi), K = 720."""
    phi = loop_grid(K_MEAN_FIELD)
    x = centre[0] + rho * np.cos(phi)
    p = centre[1] + rho * np.sin(phi)
    vectors = [np.linalg.eigh(spin_hamiltonian(xk, pk))[1][:, 1] for xk, pk in zip(x, p)]
    return phi, np.array(vectors)


def jc_spin(params):
    return lambda x, p: 0.5 * params.delta * SZ + params.g * (x * SX - p * SY)


def rabi_spin(params):
    return lambda x, p: 0.5 * params.Omega * SZ + 2.0 * params.g * x * SX


class TestMeanFieldLoop:
    # the adiabatic (mean-field) spin state carried around a loop in the
    # (x, p) plane: the loop the paper's JC/Rabi phase contrast is about
    @pytest.mark.parametrize("rho", [0.5, 2.0])
    def test_jc_centred_loop_matches_closed_form(self, rho):
        params = ModelParams(Omega=1.5, g=0.1)  # Delta = 0.5
        res = wilson_loop(*mean_field_loop(jc_spin(params), (0.0, 0.0), rho))
        assert phase_distance(res.gamma, berry_boa_jc(rho, params, +1)) <= res.residual

    def test_jc_resonant_centred_loop_is_pi(self):
        params = ModelParams(Omega=1.0, g=0.1)  # Delta = 0
        res = wilson_loop(*mean_field_loop(jc_spin(params), (0.0, 0.0), 1.0))
        assert berry_boa_jc(1.0, params, +1) == pytest.approx(np.pi)
        assert phase_distance(res.gamma, np.pi) <= max(res.residual, 1e-12)

    def test_jc_loop_missing_the_apex_is_zero(self):
        params = ModelParams(Omega=1.0, g=0.1)  # Delta = 0, apex at x = p = 0
        res = wilson_loop(*mean_field_loop(jc_spin(params), (2.0, 0.0), 0.5))
        assert abs(res.gamma) <= max(res.residual, 1e-12)

    @pytest.mark.parametrize("g", [0.1, 1.0])
    @pytest.mark.parametrize("centre, rho", [((0.0, 0.0), 1.0), ((1.5, -0.5), 1.0)])
    def test_rabi_loop_is_exactly_zero(self, g, centre, rho):
        # a real spin Hamiltonian keeps the Bloch vector in the x-z plane
        params = ModelParams(Omega=1.0, g=g)
        res = wilson_loop(*mean_field_loop(rabi_spin(params), centre, rho))
        assert res.gamma == 0.0


class TestGenerator:
    """The generator oracle that fock_loop and eig_family carry."""

    def test_resonant_jc_first_excited(self):
        val = generator("jc", P_RES, 1, CFG)
        assert val == pytest.approx(np.pi, abs=1e-9)

    def test_closed_form_oracle_chain_at_n1(self):
        # the two analytic routes agree: 2pi<n> of the first excited state
        # equals the closed-form doublet phase (lower branch) mod 2pi; this
        # pins the doublet indexing of the closed form
        from jcrabi import berry_exact_jc

        for delta, g in ((0.0, 0.1), (0.5, 0.1), (0.5, 0.4), (-0.3, 0.2)):
            p = ModelParams(Omega=1.0 + delta, g=g)
            gen = generator("jc", p, 1, CFG)
            closed = berry_exact_jc(1, p, -1)
            assert phase_distance(gen, closed) <= 1e-9

    def test_berry_truncation_default_converged(self):
        # n_max = 150 is the loop-run default; the generator oracle moves by
        # less than 1e-10 against an n_max = 500 anchor
        p = ModelParams(Omega=1.0, g=1.0)
        lo = generator("rabi", p, 1, TruncationConfig(150))
        hi = generator("rabi", p, 1, TruncationConfig(500))
        assert abs(lo - hi) <= 1e-10

    def test_rabi_detuned_weak_coupling_vanishes(self):
        # with the qubit below the resonator the first excited state tends to
        # the bare excited qubit in vacuum, so the loop phase tends to zero
        val = generator("rabi", ModelParams(Omega=0.5, g=1e-3), 1, CFG)
        assert abs(val) <= 1e-3

    def test_ground_state_vanishes_at_g0(self):
        for model in ("jc", "rabi"):
            assert generator(model, ModelParams(Omega=1.0, g=0.0), 0, CFG) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("model", ["jc", "rabi"])
    def test_matches_dense_number_expectation(self, model):
        # 2 pi <v|n_hat|v> with the dense joint-space number operator
        n_joint = embed(ladder_ops(CFG)[2], None, CFG)
        for Omega, g, level in ((1.0, 0.1, 1), (0.7, 0.5, 2), (1.3, 0.9, 3)):
            p = ModelParams(Omega=Omega, g=g)
            v = hermitian_eig(build_hamiltonian(ModelKind(model), p, CFG)).vectors[:, level]
            expected = TWO_PI * np.vdot(v, n_joint @ v).real
            assert abs(generator(model, p, level, CFG) - expected) <= 1e-12

    def test_degenerate_level_refused(self):
        with pytest.raises(TrackingError, match="phi node 0: level 1 is degenerate"):
            generator("jc", ModelParams(Omega=1.0, g=1.0), 1, CFG)

    def test_nan_gap_refused(self, monkeypatch):
        monkeypatch.setattr(berry_module, "_level_gap", lambda values, level: np.nan)
        with pytest.raises(TrackingError, match="phi node 0: level 1 is degenerate"):
            generator("jc", P_RES, 1, CFG)

    def test_level_validated(self):
        with pytest.raises(ValueError):
            generator("jc", P_RES, -1, CFG)
        with pytest.raises(ValueError, match=r"level must be in \[0, 62\), got 62"):
            generator("rabi", P_RABI, 62, CFG)

    @pytest.mark.parametrize("g, level, expected", [(0.001, 3, 3 * np.pi), (0.7071, 1, np.pi)])
    def test_resonant_jc_doublets_at_nmax_150(self, g, level, expected):
        # on resonance a lower doublet weighs occupations n - 1 and n
        # equally, so 2 pi <n> = (2n - 1) pi in closed form: level 3 at
        # g = 0.001 is the n = 2 doublet (2.8e-3 from the n = 1 upper one),
        # and level 1 at g = 0.7071 the n = 1 doublet, 1.4e-5 above the
        # ground state
        val = generator("jc", ModelParams(Omega=1.0, g=g), level, CFG_150)
        assert abs(val - expected) <= 1e-13

    # c of the bound c eps max|H| / gap on |sector - dense|: the largest
    # ratio measured at n_max 150 over Omega 0.4, 1, 1.6, g 0.01-1.5 and
    # levels 0, 1, 7, dim - 1 was 8.8 (Omega 1.6, g 0.1, the top level)
    DENSE_C = 32

    @pytest.mark.parametrize("Omega, g", [(1.0, 0.01), (1.0, 0.5), (0.4, 0.93), (1.6, 0.1)])
    def test_rabi_matches_the_dense_column_at_nmax_150(self, Omega, g):
        # the sector eigh against column `level` of the dense joint-space
        # hermitian_eig, whose occupation is j % (n_max + 1)
        p = ModelParams(Omega=Omega, g=g)
        h = build_hamiltonian(ModelKind.RABI_LAB, p, CFG_150)
        es = hermitian_eig(h)
        n = np.arange(CFG_150.dim_joint) % CFG_150.dim_field
        for level in (0, 1, 7, CFG_150.dim_joint - 1):
            gap = np.min(np.diff(es.values[max(level - 1, 0):level + 2]))
            dense = TWO_PI * np.dot(n, es.vectors[:, level] ** 2)
            bound = self.DENSE_C * EPS * np.max(np.abs(h)) / gap
            assert abs(generator("rabi", p, level, CFG_150) - dense) <= bound, level

    def test_solves_one_sector_band_alone(self, monkeypatch):
        # no eigensolver runs at the joint-space order 2 (n_max + 1) = 302:
        # one eigh of the 151-row sector per loop
        orders = {"eigh": [], "eigvalsh": []}
        for name in orders:
            def solver(a, *args, real=getattr(np.linalg, name), name=name, **kwargs):
                orders[name].append(np.shape(a)[-1])
                return real(a, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, solver)
        for model, level in (("jc", 1), ("rabi", 7), ("rabi", CFG_150.dim_joint - 1)):
            generator(model, ModelParams(Omega=1.0, g=0.5), level, CFG_150)
        assert orders["eigh"] == [151, 151, 151]
        assert orders["eigvalsh"] and max(orders["eigvalsh"]) == 151


class TestJuddianDegeneracy:
    """At the first Juddian point (Omega/2)^2 + 8 g^2 = omega^2 (Judd,
    J. Phys. C 12, 1685, 1979) the even and odd Rabi sectors share the exact
    level omega - 2 g^2 / omega, merged levels 2 and 3: a physical
    degeneracy, which every single-level phase must refuse."""

    CFG_J = TruncationConfig(150)
    CASES = [(Omega, level) for Omega in (0.5, 1.0, 1.5) for level in (2, 3)]

    @staticmethod
    def params(Omega):
        return ModelParams(Omega=Omega, g=float(np.sqrt((1.0 - (Omega / 2) ** 2) / 8)))

    @pytest.mark.parametrize("Omega, level", CASES)
    def test_eig_family_refuses(self, Omega, level):
        with pytest.raises(TrackingError, match=f"phi node 0: level {level} is degenerate"):
            eig_family("rabi", self.params(Omega), level, 64, self.CFG_J)

    @pytest.mark.parametrize("Omega, level", CASES)
    def test_fock_loop_refuses(self, Omega, level):
        with pytest.raises(TrackingError, match=f"phi node 0: level {level} is degenerate"):
            fock_loop("rabi", self.params(Omega), level, 64, self.CFG_J, "anchor_component")

    @pytest.mark.parametrize("Omega, level", CASES)
    def test_refused_before_the_generator_solve(self, Omega, level, monkeypatch):
        # the refusal comes before the sector eigh of the generator oracle
        def eigh(*args, **kwargs):
            raise AssertionError("generator solved for a degenerate level")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(TrackingError, match=f"phi node 0: level {level} is degenerate"):
            generator("rabi", self.params(Omega), level, self.CFG_J)
