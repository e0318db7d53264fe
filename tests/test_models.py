import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcrabi import (
    ModelParams,
    TruncationConfig,
    build_jc,
    build_rabi,
    commutator_deviation,
    hermitian_eig,
    jc_doublet_analytic,
    symmetry_ops,
)
from jcrabi.fock import SQRT2, embed, ladder_ops, qubit_ops
from jcrabi.linalg import HERMITICITY_RTOL, tridiagonal
from jcrabi.models import (
    ModelKind,
    empty_state_energy,
    parity_chains,
    parity_sectors,
    phase_factors,
)

from dense_oracle import build_hamiltonian, doublet_state_vectors, rotate_hamiltonian

CFG = TruncationConfig(40)
SX, SY, SZ, SP, SM = qubit_ops()


def u_phi(phi, cfg):
    """Dense U(phi) = exp(-i n_hat phi), qubit factor identity."""
    return np.diag(phase_factors(phi, cfg))


def quadratures(cfg):
    """Field quadratures x = (a + a^dag)/sqrt(2), p = i(a^dag - a)/sqrt(2)."""
    a, a_dag, _ = ladder_ops(cfg)
    return (a + a_dag) / SQRT2, 1j * (a_dag - a) / SQRT2


def bare(p, cfg):
    """The uncoupled part w a^dag a + (W/2) sz shared by both models."""
    _, _, n_hat = ladder_ops(cfg)
    return p.omega * embed(n_hat, None, cfg) + 0.5 * p.Omega * embed(None, SZ, cfg)


def test_params_validation_and_delta():
    p = ModelParams(Omega=1.5, g=0.2)
    assert p.omega == 1.0
    assert p.delta == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ModelParams(Omega=-1.0)
    with pytest.raises(ValueError):
        ModelParams(g=-0.1)
    with pytest.raises(ValueError):
        ModelParams(omega=0.0)


@pytest.mark.parametrize("name", ["omega", "Omega", "g"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_params_reject_non_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ModelParams(**{name: value})


def test_model_kind_lookup():
    assert ModelKind("jc") is ModelKind.JC_LAB
    assert ModelKind("rabi").model == "rabi"
    with pytest.raises(ValueError):
        ModelKind("dicke")


@pytest.mark.parametrize("name", ["dicke", "JC_LAB", "Jc", "both", "lab"])
def test_unknown_model_name_rejected(name):
    # member names, other cases, the CLI's "both" and frame tags are not models
    with pytest.raises(ValueError):
        ModelKind(name)


class TestNumberFormat:
    def test_real_operators_are_float64(self):
        a, a_dag, n_hat = ladder_ops(CFG)
        n_total, parity = symmetry_ops(CFG)
        for op in (a, a_dag, n_hat, SX, SZ, SP, SM, n_total, parity):
            assert op.dtype == np.float64

    def test_builders_are_float64(self):
        p = ModelParams(Omega=1.3, g=0.6)
        for kind in ModelKind:
            assert build_hamiltonian(kind, p, CFG).dtype == np.float64

    def test_sy_and_rotated_family_are_complex(self):
        p = ModelParams(Omega=1.3, g=0.6)
        assert SY.dtype == np.complex128
        rotated = rotate_hamiltonian(build_rabi(p, CFG), 0.4, CFG)
        assert rotated.dtype == np.complex128


class TestDecoupledLimit:
    def test_g0_spectrum_is_bare_ladder(self):
        p = ModelParams(Omega=1.0, g=0.0)
        for build in (build_jc, build_rabi):
            values = hermitian_eig(build(p, CFG)).values
            # n*omega +/- Omega/2: -0.5, 0.5, 0.5, 1.5, 1.5, ...
            expected = np.sort(
                np.concatenate([np.arange(41) - 0.5, np.arange(41) + 0.5])
            )[:10]
            assert np.max(np.abs(values[:10] - expected)) <= 1e-12

    def test_jc_rabi_agree_at_tiny_coupling(self):
        p = ModelParams(Omega=1.0, g=0.001)
        jc = hermitian_eig(build_jc(p, CFG)).values[:11]
        rabi = hermitian_eig(build_rabi(p, CFG)).values[:11]
        assert np.max(np.abs(jc - rabi)) <= 1e-5


class TestSymmetries:
    def test_rabi_parity(self):
        p = ModelParams(Omega=1.0, g=0.7)
        h = build_rabi(p, CFG)
        _, parity = symmetry_ops(CFG)
        zero = np.zeros_like(h)
        assert commutator_deviation(h, parity, zero) <= 1e-12 * np.max(np.abs(h))

    def test_jc_excitation_number(self):
        p = ModelParams(Omega=1.2, g=0.4)
        h = build_jc(p, CFG)
        n_total, _ = symmetry_ops(CFG)
        zero = np.zeros_like(h)
        assert commutator_deviation(h, n_total, zero) <= 1e-12 * np.max(np.abs(h))

    def test_parity_involution_and_empty_eigenvalue(self):
        n_total, parity = symmetry_ops(CFG)
        assert np.array_equal(parity @ parity, np.eye(CFG.dim_joint, dtype=complex))
        # |1>|0> sits at joint index dim_field with N eigenvalue -1/2
        idx = CFG.dim_field
        assert n_total[idx, idx] == pytest.approx(-0.5)

    def test_parity_block_structure_reproduces_spectrum(self):
        p = ModelParams(Omega=1.0, g=0.9)
        h = build_rabi(p, CFG)
        _, parity = symmetry_ops(CFG)
        signs = np.real(np.diag(parity))
        order = np.argsort(-signs, kind="stable")
        hp = h[np.ix_(order, order)]
        n_plus = int(np.sum(signs > 0))
        off = hp[:n_plus, n_plus:]
        assert np.max(np.abs(off)) <= 1e-14 * np.max(np.abs(h))
        block_vals = np.sort(np.concatenate([
            hermitian_eig(hp[:n_plus, :n_plus]).values,
            hermitian_eig(hp[n_plus:, n_plus:]).values,
        ]))
        full = hermitian_eig(h).values
        assert np.max(np.abs(block_vals - full)) <= 1e-10 * max(1.0, np.max(np.abs(h)))

    def test_parity_chains_partition_the_parity_sectors(self):
        even, odd = parity_chains(CFG)
        assert len(even) == len(odd) == CFG.dim_field
        assert np.array_equal(np.sort(np.concatenate([even, odd])), np.arange(CFG.dim_joint))
        _, parity = symmetry_ops(CFG)
        signs = np.diag(parity)
        assert np.all(signs[even] == 1.0)
        assert np.all(signs[odd] == -1.0)

    def test_chain_sectors_are_tridiagonal(self):
        h = build_rabi(ModelParams(Omega=1.0, g=0.9), CFG)
        for chain in parity_chains(CFG):
            sector = h[np.ix_(chain, chain)]
            assert np.array_equal(sector, np.triu(np.tril(sector, 1), -1))
            assert np.all(np.diag(sector, 1) > 0.0)


def random_params(seed):
    """Random (Omega, g, omega) with omega > 0, and a random n_max."""
    rng = np.random.default_rng(seed)
    Omega, g, omega = rng.uniform(0.0, 3.0, 3)
    return ModelParams(Omega=Omega, g=g, omega=omega + 0.05), int(rng.integers(1, 120))


RANDOM_P, RANDOM_N_MAX = random_params(17)


def bands_on_chains(diag, off, cfg):
    """The joint-space matrix with each sector's bands placed on its chain."""
    h = np.zeros((cfg.dim_joint, cfg.dim_joint))
    for chain, d, o in zip(parity_chains(cfg), diag, off):
        h[chain, chain] = d
        h[chain[:-1], chain[1:]] = o
        h[chain[1:], chain[:-1]] = o
    return h


class TestParitySectors:
    """The closed-form sector bands against the split dense builders."""

    @pytest.mark.parametrize("n_max", [1, 3, 20, 200, RANDOM_N_MAX])
    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize(
        "p", [ModelParams(Omega=1.3, g=0.7), ModelParams(Omega=0.0, g=2.1, omega=0.4), RANDOM_P]
    )
    def test_every_entry_matches_the_dense_builder(self, kind, n_max, p):
        cfg = TruncationConfig(n_max)
        h = build_hamiltonian(kind, p, cfg)
        assert np.array_equal(h, bands_on_chains(*parity_sectors(kind, p, cfg), cfg))

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(kind=st.sampled_from(list(ModelKind)),
           omega=st.floats(0.05, 3.0), Omega=st.floats(0.0, 3.0), g=st.floats(0.0, 3.0),
           n_max=st.integers(1, 200))
    def test_bands_on_chains_equal_the_dense_builder(self, kind, omega, Omega, g, n_max):
        # the identity the Berry loop relies on instead of building H(0)
        p, cfg = ModelParams(Omega=Omega, g=g, omega=omega), TruncationConfig(n_max)
        h = build_hamiltonian(kind, p, cfg)
        assert np.array_equal(h, bands_on_chains(*parity_sectors(kind, p, cfg), cfg))

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_bands_are_real_and_shaped_by_chain(self, kind):
        diag, off = parity_sectors(kind, ModelParams(Omega=0.8, g=0.5), CFG)
        assert diag.dtype == off.dtype == np.float64
        assert diag.shape == (2, CFG.dim_field)
        assert off.shape == (2, CFG.n_max)

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize(
        "p", [ModelParams(Omega=1.3, g=0.7), ModelParams(Omega=0.0, g=2.1, omega=0.4)]
    )
    def test_diagonal_and_links_follow_the_chain_states(self, kind, p):
        # element j of a chain is field state j with the qubit read off the
        # chain index; a link j -> j + 1 is g sqrt(2) sqrt(j + 1), kept by JC
        # only when it lowers the qubit (a^dag s- takes |2>|j> to |1>|j+1>)
        cfg = TruncationConfig(9)
        j = np.arange(cfg.dim_field)
        for chain, d, o in zip(parity_chains(cfg), *parity_sectors(kind, p, cfg)):
            s = np.where(chain < cfg.dim_field, 1.0, -1.0)
            assert np.array_equal(d, p.omega * j + 0.5 * p.Omega * s)
            link = p.g * SQRT2 * np.sqrt(j[:-1] + 1.0)
            if kind is ModelKind.JC_LAB:
                link = np.where(s[:-1] > 0, link, 0.0)
            assert np.array_equal(o, link)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(kind=st.sampled_from(list(ModelKind)), g=st.floats(0.0, 1e300),
           n_max=st.integers(1, 200))
    def test_links_equal_the_masked_product(self, kind, g, n_max):
        # bitwise the links of g sqrt(2) sqrt(j + 1) times the boolean keep
        cfg = TruncationConfig(n_max)
        j = np.arange(cfg.dim_field)
        keep = (np.array([[1.0], [-1.0]]) * (-1.0) ** j[:-1] > 0) | (kind is ModelKind.RABI_LAB)
        _, off = parity_sectors(kind, ModelParams(g=g), cfg)
        assert np.array_equal(off, g * SQRT2 * np.sqrt(j[:-1] + 1.0) * keep)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_overflowing_links_are_inf_without_a_warning(self, kind):
        # the callers refuse the inf by name; a dropped JC link stays 0, not nan
        _, off = parity_sectors(kind, ModelParams(g=1e308), CFG)
        assert np.isinf(off).any() and not np.isnan(off).any()
        kept = off != 0.0
        assert kept.all() if kind is ModelKind.RABI_LAB else kept.sum() == CFG.n_max

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_sector_spectra_merge_to_the_dense_spectrum(self, kind):
        cfg = TruncationConfig(15)
        p = ModelParams(Omega=1.3, g=0.7)
        h = build_hamiltonian(kind, p, cfg)
        values = np.sort(np.linalg.eigvalsh(tridiagonal(*parity_sectors(kind, p, cfg))).ravel())
        assert np.max(np.abs(values - hermitian_eig(h).values)) <= 1e-12 * np.max(np.abs(h))


class TestCouplingForm:
    def test_jc_coupling_in_x_p_form(self):
        # with this package's momentum sign the rotating coupling is
        # g (x sx - p sy)
        p = ModelParams(Omega=1.4, g=0.35)
        x_hat, p_hat = quadratures(CFG)
        expected = bare(p, CFG) + p.g * (embed(x_hat, SX, CFG) - embed(p_hat, SY, CFG))
        assert np.max(np.abs(build_jc(p, CFG) - expected)) <= 1e-12


    def test_jc_minus_excitation_number_is_interaction_picture_coupling(self):
        # H_JC - w N = (Delta/2) sz + g sqrt(2) (a s+ + a^dag s-) entrywise
        p = ModelParams(Omega=1.4, g=0.35)
        a, a_dag, _ = ladder_ops(CFG)
        n_total, _ = symmetry_ops(CFG)
        expected = 0.5 * p.delta * embed(None, SZ, CFG) + p.g * SQRT2 * (
            embed(a, SP, CFG) + embed(a_dag, SM, CFG)
        )
        assert np.max(np.abs(build_jc(p, CFG) - p.omega * n_total - expected)) <= 1e-12

    def test_rabi_coupling_in_x_form(self):
        p = ModelParams(Omega=1.4, g=0.35)
        x_hat, _ = quadratures(CFG)
        expected = bare(p, CFG) + 2.0 * p.g * embed(x_hat, SX, CFG)
        assert np.max(np.abs(build_rabi(p, CFG) - expected)) <= 1e-12

    def test_rabi_is_jc_plus_counter_rotating_term(self):
        p = ModelParams(Omega=0.7, g=0.9)
        a, a_dag, _ = ladder_ops(CFG)
        counter = p.g * SQRT2 * (embed(a_dag, SP, CFG) + embed(a, SM, CFG))
        assert np.max(np.abs(build_rabi(p, CFG) - build_jc(p, CFG) - counter)) <= 1e-12


class TestRotation:
    def test_u_phi_periodicity(self):
        assert np.max(np.abs(u_phi(2 * np.pi, CFG) - np.eye(CFG.dim_joint))) <= 1e-12

    def test_u_phi_unitary(self):
        u = u_phi(0.7, CFG) @ u_phi(-0.7, CFG)
        assert np.max(np.abs(u - np.eye(CFG.dim_joint))) <= 1e-14

    def test_u_phi_fock_phase(self):
        u = u_phi(np.pi, CFG)
        assert u[1, 1] == pytest.approx(-1.0)

    @pytest.mark.parametrize("n_max", [5, 150])
    def test_phi_column_stacks_the_scalar_diagonals(self, n_max):
        # one row per node of a loop grid, bit for bit the scalar call
        cfg = TruncationConfig(n_max)
        phi = 2 * np.pi * np.arange(721) / 720
        rows = phase_factors(phi[:, None], cfg)
        assert rows.shape == (721, cfg.dim_joint)
        assert np.array_equal(rows, np.stack([phase_factors(x, cfg) for x in phi]))

    def test_phi0_is_identity(self):
        h = build_rabi(ModelParams(Omega=1.0, g=0.5), CFG)
        assert np.array_equal(rotate_hamiltonian(h, 0.0, CFG), h)

    def test_spectrum_invariant(self):
        h = build_rabi(ModelParams(Omega=1.0, g=0.5), CFG)
        v0 = hermitian_eig(h).values
        for phi in (0.3, 1.7, 4.4):
            v = hermitian_eig(rotate_hamiltonian(h, phi, CFG)).values
            assert np.max(np.abs(v - v0)) <= 1e-9 * np.max(np.abs(h))

    def test_two_pi_periodic(self):
        h = build_jc(ModelParams(Omega=1.0, g=0.5), CFG)
        d = rotate_hamiltonian(h, 0.9 + 2 * np.pi, CFG) - rotate_hamiltonian(h, 0.9, CFG)
        assert np.max(np.abs(d)) <= 1e-12 * max(1.0, np.max(np.abs(h)))

    def test_rotated_rabi_matches_closed_form(self):
        # U(phi) 2g x sx U(phi)^dag = 2g (cos(phi) x - sin(phi) p) sx over
        # the unrotated w n + (W/2) sz
        p = ModelParams(Omega=1.3, g=0.7)
        x_hat, p_hat = quadratures(CFG)
        base = bare(p, CFG)
        h = build_rabi(p, CFG)
        for phi in (np.pi / 2, 0.83):
            rotated = rotate_hamiltonian(h, phi, CFG)
            coupling = 2.0 * p.g * embed(
                np.cos(phi) * x_hat - np.sin(phi) * p_hat, SX, CFG
            )
            assert np.max(np.abs(rotated - base - coupling)) <= 1e-12
        # at phi = pi/2 the coupling is exactly -2g p sx
        rotated = rotate_hamiltonian(h, np.pi / 2, CFG)
        assert np.max(np.abs(rotated - base + 2.0 * p.g * embed(p_hat, SX, CFG))) <= 1e-12

    def test_rotated_jc_structural_form(self):
        # conjugation gives w n + (W/2) sz
        #   + g[(cos x - sin p) sx - (cos p + sin x) sy];
        # the sy partner rotates with the opposite sense to the sx one
        p = ModelParams(Omega=1.3, g=0.7)
        x_hat, p_hat = quadratures(CFG)
        h = build_jc(p, CFG)
        for phi in (0.4, 2.9):
            rotated = rotate_hamiltonian(h, phi, CFG)
            expected = bare(p, CFG) + p.g * (
                embed(np.cos(phi) * x_hat - np.sin(phi) * p_hat, SX, CFG)
                - embed(np.cos(phi) * p_hat + np.sin(phi) * x_hat, SY, CFG)
            )
            assert np.max(np.abs(rotated - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_rotation_keeps_the_parity_chains(self, kind):
        # U(phi) is diagonal: every entry outside the two chains stays zero
        h = build_hamiltonian(kind, ModelParams(Omega=1.1, g=0.6), CFG)
        rotated = rotate_hamiltonian(h, 1.3, CFG)
        for chain in parity_chains(CFG):
            rotated[np.ix_(chain, chain)] = 0.0
        assert np.max(np.abs(rotated)) == 0.0

    def test_jc_rotation_is_a_counter_rotation_of_the_qubit(self):
        # [H_JC, n + sz/2] = 0, so exp(-i n phi) H exp(i n phi) equals
        # exp(i sz phi/2) H exp(-i sz phi/2)
        h = build_jc(ModelParams(Omega=1.3, g=0.7), CFG)
        for phi in (0.4, 2.9):
            v = embed(None, np.diag(np.exp([0.5j * phi, -0.5j * phi])), CFG)
            expected = v @ h @ v.conj().T
            assert np.max(np.abs(rotate_hamiltonian(h, phi, CFG) - expected)) <= 1e-12

    def test_rabi_half_turn_is_the_qubit_flip_of_the_coupling(self):
        # parity sz (-1)^n commutes with H_R, so U(pi) H U(pi)^dag = sz H sz
        h = build_rabi(ModelParams(Omega=1.3, g=0.7), CFG)
        sz = embed(None, SZ, CFG)
        assert np.max(np.abs(rotate_hamiltonian(h, np.pi, CFG) - sz @ h @ sz)) <= 1e-12

    @pytest.mark.parametrize("builder", [build_jc, build_rabi])
    def test_hermitian_to_rounding(self, builder):
        cfg = TruncationConfig(150)
        h = builder(ModelParams(Omega=1.1, g=0.6), cfg)
        for phi in 2 * np.pi * np.arange(1, 720, 37) / 720:
            rotated = rotate_hamiltonian(h, phi, cfg)
            dev = np.max(np.abs(rotated - rotated.conj().T))
            assert dev <= HERMITICITY_RTOL * np.max(np.abs(h))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rotate_hamiltonian(np.eye(4), 0.1, CFG)


class TestDressedDoublet:
    def test_resonant_mixing_angle(self):
        d = jc_doublet_analytic(3, ModelParams(Omega=1.0, g=0.2))
        assert d.theta == pytest.approx(np.pi / 4, abs=1e-15)

    def test_resonant_n1_energies(self):
        d = jc_doublet_analytic(1, ModelParams(Omega=1.0, g=0.1))
        assert d.energies[0] == pytest.approx(0.6414213562373096, abs=1e-12)
        assert d.energies[1] == pytest.approx(0.35857864376269044, abs=1e-12)

    def test_decoupled_limit(self):
        d = jc_doublet_analytic(2, ModelParams(Omega=1.5, g=1e-12))
        assert d.theta == pytest.approx(0.0, abs=1e-9)
        vp, vm = doublet_state_vectors(d, CFG)
        assert abs(vp[1]) == pytest.approx(1.0, abs=1e-9)   # |2>|1>
        assert abs(vm[CFG.dim_field + 2]) == pytest.approx(1.0, abs=1e-9)  # |1>|2>

    def test_states_orthonormal_and_supported_on_doublet(self):
        d = jc_doublet_analytic(4, ModelParams(Omega=1.5, g=0.8))
        vp, vm = doublet_state_vectors(d, CFG)
        assert abs(np.vdot(vp, vp) - 1) < 1e-12
        assert abs(np.vdot(vp, vm)) < 1e-12
        support = {d.n - 1, CFG.dim_field + d.n}
        assert set(np.nonzero(np.abs(vp) > 0)[0]) <= support

    def test_against_diagonalization(self):
        p = ModelParams(Omega=1.5, g=0.37)
        h = build_jc(p, CFG)
        es = hermitian_eig(h)
        for n in range(1, CFG.n_max // 2):
            d = jc_doublet_analytic(n, p)
            for energy, vec in zip(d.energies, doublet_state_vectors(d, CFG)):
                k = int(np.argmin(np.abs(es.values - energy)))
                assert abs(es.values[k] - energy) <= 1e-8
                assert abs(np.vdot(es.vectors[:, k], vec)) == pytest.approx(1.0, abs=1e-8)

    def test_n0_rejected_with_pointer_to_empty_state(self):
        with pytest.raises(ValueError, match="empty"):
            jc_doublet_analytic(0, ModelParams(Omega=1.0, g=0.1))
        assert empty_state_energy(ModelParams(Omega=1.6)) == pytest.approx(-0.8)
