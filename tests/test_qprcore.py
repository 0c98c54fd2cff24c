
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbret import errors
from qbret.frames import (
    DualFrame,
    Frame,
    build_dw_qubit,
    build_dw_qubits,
    build_sic_qubit,
    builtin_frame,
    classical_structure_coeffs,
    structure_coeffs,
)
from qbret.hilbert import (
    KET0,
    KET1,
    KET_PLUS,
    KrausChannel,
    builtin_channel,
    channel_from_dilation,
    petz_hilbert,
    projector,
    qubit_state,
    random_density,
    random_unitary,
)
from qbret.matcore import (
    ORACLE_TOL,
    eigh_spectrum,
    hermitian_eig,
    max_abs,
    rank_threshold,
    symmetrized,
)
from qbret.qprcore import (
    LANCZOS_MIN_N,
    LANCZOS_RTOL,
    QPR_EPS_FLOOR,
    MPowerReport,
    PetzQprResult,
    adjoint_qpr,
    born,
    channel_from_qpr,
    channel_to_qpr,
    classical_bayes,
    k_matrix,
    lanczos,
    m_power_check,
    petz_qpr,
    povm_to_qpr,
    reconstruct_state,
    state_matrix,
    state_powers,
    state_to_qpr,
    uniform_vector,
    x_matrix,
)

SQ2 = np.sqrt(2.0)

angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi,
                   allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def dw():
    return build_dw_qubit()


@pytest.fixture(scope="module")
def sic():
    return build_sic_qubit()


class TestMorphisms:
    def test_mixed_state_sic(self, sic):
        f, _ = sic
        np.testing.assert_allclose(state_to_qpr(np.eye(2) / 2, f),
                                   np.full(4, 0.25), atol=1e-14)

    def test_ket0_dw(self, dw):
        f, _ = dw
        np.testing.assert_allclose(state_to_qpr(projector(KET0), f),
                                   [0.5, 0.0, 0.5, 0.0], atol=1e-14)

    def test_mixed_state_dw(self, dw):
        f, _ = dw
        np.testing.assert_allclose(state_to_qpr(np.eye(2) / 2, f),
                                   np.full(4, 0.25), atol=1e-14)

    def test_identity_effect(self, dw):
        _, g = dw
        np.testing.assert_allclose(povm_to_qpr(np.eye(2), g),
                                   np.ones(4), atol=1e-14)

    def test_ket0_effect_dw(self, dw):
        _, g = dw
        np.testing.assert_allclose(povm_to_qpr(projector(KET0), g),
                                   [1.0, 0.0, 1.0, 0.0], atol=1e-14)

    def test_complete_povm_sums_to_ones(self, sic):
        _, g = sic
        total = (povm_to_qpr(projector(KET0), g)
                 + povm_to_qpr(projector(KET1), g))
        np.testing.assert_allclose(total, np.ones(4), atol=1e-14)

    def test_reconstruct_uniform(self, sic):
        _, g = sic
        np.testing.assert_allclose(reconstruct_state(np.full(4, 0.25), g),
                                   np.eye(2) / 2, atol=1e-14)

    def test_reconstruct_round_trip(self, dw):
        f, g = dw
        v = state_to_qpr(projector(KET0), f)
        np.testing.assert_allclose(reconstruct_state(v, g), projector(KET0),
                                   atol=1e-12)

    @given(omega=angles, theta=angles, phi=angles)
    @settings(max_examples=50, deadline=None)
    def test_sic_vectors_within_projector_bounds(self, omega, theta, phi):
        f, _ = build_sic_qubit()
        v = state_to_qpr(qubit_state(omega, theta, phi), f)
        assert abs(v.sum() - 1.0) < 1e-12
        assert v.min() > -1e-12 and v.max() < 0.5 + 1e-12

    def test_dimension_mismatch(self, dw):
        f, _ = dw
        with pytest.raises(errors.DimensionMismatch):
            state_to_qpr(np.eye(3) / 3, f)


class TestChannelToQpr:
    def test_identity(self, dw):
        f, g = dw
        s = channel_to_qpr(builtin_channel("identity"), f, g)
        np.testing.assert_allclose(s, np.eye(4), atol=1e-14)

    def test_columns_sum_to_one(self, dw):
        f, g = dw
        rng = np.random.default_rng(0)
        ch = channel_from_dilation(random_unitary(rng, 4),
                                   random_density(rng, 2))
        s = channel_to_qpr(ch, f, g)
        np.testing.assert_allclose(s.sum(axis=0), np.ones(4), atol=1e-12)

    def test_born_rule_compatibility(self, sic):
        f, g = sic
        rng = np.random.default_rng(1)
        ch = channel_from_dilation(random_unitary(rng, 4),
                                   random_density(rng, 2))
        s = channel_to_qpr(ch, f, g)
        for _ in range(10):
            rho = random_density(rng, 2)
            effect = projector(random_unitary(rng, 2)[:, 0])
            lhs = born(s @ state_to_qpr(rho, f), povm_to_qpr(effect, g))
            rhs = np.trace(ch.apply(rho) @ effect).real
            assert abs(lhs - rhs) < 1e-12


def per_column(apply, f, g):
    """S[j, a] = Tr[F_j E[G_a]], one column and one trace at a time."""
    return np.array([[np.trace(f.ops[j] @ apply(g.ops[a])).real
                      for a in range(f.n)] for j in range(f.n)])


class TestBatchedMorphism:
    """The one-application morphism against its per-column definition."""

    FRAMES = {"dw-qubit": build_dw_qubit, "sic-qubit": build_sic_qubit,
              "dw-qubits:2": lambda: build_dw_qubits(2),
              "dw-qubits:3": lambda: build_dw_qubits(3)}

    def _pair(self, name, custom_tetra):
        if name == "custom-tetra":
            return custom_tetra(np.random.default_rng(11))
        return self.FRAMES[name]()

    @pytest.mark.parametrize("name", [*FRAMES, "custom-tetra"])
    def test_matches_per_column_definition(self, name, custom_tetra):
        f, g = self._pair(name, custom_tetra)
        rng = np.random.default_rng(12)
        for _ in range(3):
            ch = channel_from_dilation(random_unitary(rng, 2 * f.d),
                                       random_density(rng, 2))
            recovery = petz_hilbert(ch, random_density(rng, f.d))
            for channel, apply in ((ch, ch.apply), (recovery, recovery.apply),
                                   (ch.adjoint, ch.adjoint)):
                assert max_abs(channel_to_qpr(channel, f, g)
                               - per_column(apply, f, g)) < 1e-14

    @pytest.mark.parametrize("name", [*FRAMES, "custom-tetra"])
    def test_stacked_states_and_effects(self, name, custom_tetra):
        f, g = self._pair(name, custom_tetra)
        rng = np.random.default_rng(13)
        stack = np.array([random_density(rng, f.d) for _ in range(5)])
        states, effects = state_to_qpr(stack, f), povm_to_qpr(stack, g)
        assert states.shape == effects.shape == (5, f.n)
        for a, rho in enumerate(stack):
            assert max_abs(states[a] - state_to_qpr(rho, f)) < 1e-15
            assert max_abs(effects[a] - povm_to_qpr(rho, g)) < 1e-15

    @pytest.mark.parametrize("hermitian", [True, False],
                             ids=["hermitian", "non-hermitian"])
    @pytest.mark.parametrize("name", ["dw-qubit", "sic-qubit", "dw-qubits:3",
                                      "custom-tetra"])
    def test_traces_match_the_einsum_reference(self, name, hermitian,
                                               custom_tetra):
        # the real product of the Hermitian operators' real and imaginary
        # parts against the complex traces it replaces, on a (5, d, d) and
        # a (2, 3, d, d) stack and on a stack of n images for the morphism
        f, g = self._pair(name, custom_tetra)
        rng = np.random.default_rng(14)

        def stack(*shape):
            x = (rng.normal(size=(*shape, f.d, f.d))
                 + 1j * rng.normal(size=(*shape, f.d, f.d)))
            return (x + np.swapaxes(x, -1, -2).conj()) / 2 if hermitian else x

        def reference(ops, x, out="...j"):
            return np.einsum(f"jab,...ba->{out}", ops, x).real

        def close(got, want):
            assert got.shape == want.shape
            return max_abs(got - want) <= 1e-13 * max_abs(want)
        for shape in ((5,), (2, 3)):
            x = stack(*shape)
            assert close(state_to_qpr(x, f), reference(f.ops, x))
            assert close(povm_to_qpr(x, g), reference(g.ops, x))
        images = stack(f.n)
        assert close(channel_to_qpr(lambda _: images, f, g),
                     reference(f.ops, images, "j..."))

    def test_frame_from_a_strided_view(self, dw):
        # operators taken from a strided view are stored C-contiguous, so
        # the traces can view them as floats
        f, g = dw
        big = np.stack([f.ops, g.ops], axis=-1)  # (n, d, d, 2)
        frame = Frame(name="strided", d=2, labels=f.labels, ops=big[..., 0])
        dual = DualFrame(name="strided", ops=big[..., 1])
        assert frame.ops.flags.c_contiguous and dual.ops.flags.c_contiguous
        rng = np.random.default_rng(15)
        rho = random_density(rng, 2)
        ch = channel_from_dilation(random_unitary(rng, 4), random_density(rng, 2))
        assert np.array_equal(state_to_qpr(rho, frame), state_to_qpr(rho, f))
        assert np.array_equal(povm_to_qpr(rho, dual), povm_to_qpr(rho, g))
        assert np.array_equal(channel_to_qpr(ch, frame, dual),
                              channel_to_qpr(ch, f, g))

    def test_channel_dimension_must_match(self):
        f, g = build_dw_qubits(2)
        with pytest.raises(errors.DimensionMismatch):
            channel_to_qpr(builtin_channel("hadamard"), f, g)

    def test_callable_must_return_the_stack(self, dw):
        f, g = dw
        with pytest.raises(errors.DimensionMismatch):
            channel_to_qpr(lambda x: x[0], f, g)

    def test_stack_of_wrong_dimension(self, dw):
        f, g = dw
        with pytest.raises(errors.DimensionMismatch):
            state_to_qpr(np.zeros((3, 3, 3)), f)
        with pytest.raises(errors.DimensionMismatch):
            povm_to_qpr(np.zeros((4, 3, 3)), g)


# two matrices with unit column sums that are no channel matrix: the
# transpose map X -> X^T in the dw-qubit frame, positive but not completely
# positive, whose Choi matrix has eigenvalues (-1, 1, 1, 1), and one whose
# Choi matrix has negative eigenvalues too, -0.18 and -0.045 in that frame
NOT_CP = {
    "transpose": 0.5 * np.array([[1, 1, 1, -1], [1, 1, -1, 1],
                                 [1, -1, 1, 1], [-1, 1, 1, 1]]),
    "shear": np.array([[1.2, 0, 0, 0], [-0.2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
}


class TestChannelFromQpr:
    """The channel behind a channel matrix, the inverse of `channel_to_qpr`."""

    FRAMES = {"dw-qubit": build_dw_qubit, "sic-qubit": build_sic_qubit,
              "dw-qubits:2": lambda: build_dw_qubits(2),
              "sic-qubits:2": lambda: builtin_frame("sic-qubits:2")}

    @pytest.mark.parametrize("name", [*FRAMES, "custom-tetra"])
    def test_round_trip_and_oracle(self, name, custom_tetra):
        rng = np.random.default_rng(21)
        f, g = (custom_tetra(rng) if name == "custom-tetra" else self.FRAMES[name]())
        coeffs = structure_coeffs(f, g)
        for _ in range(5):
            s = channel_to_qpr(channel_from_dilation(random_unitary(rng, 2 * f.d),
                                                     random_density(rng, 2)), f, g)
            kraus = channel_from_qpr(s, f, g)
            assert kraus.shape == (f.n, f.d, f.d)
            rebuilt = KrausChannel.from_kraus(kraus)
            assert max_abs(channel_to_qpr(rebuilt, f, g) - s) <= 1e-14
            prior = random_density(rng, f.d, min_eig=0.01)
            result = petz_qpr(s, state_to_qpr(prior, f), coeffs)
            oracle = channel_to_qpr(petz_hilbert(rebuilt, prior), f, g)
            assert max_abs(result.matrix - oracle) <= ORACLE_TOL

    def test_unitary_channel_has_one_kraus_operator(self, dw):
        # every other eigenvalue of the rank-one Choi matrix is cut to zero
        f, g = dw
        u = random_unitary(np.random.default_rng(22), 2)
        kraus = channel_from_qpr(channel_to_qpr(KrausChannel.from_unitary(u), f, g), f, g)
        nonzero = kraus[np.abs(kraus).max(axis=(1, 2)) > 0]
        assert len(nonzero) == 1
        # a Kraus operator is fixed up to a phase
        k = nonzero[0]
        phase = np.vdot(k, u) / abs(np.vdot(k, u))
        assert max_abs(k * phase - u) <= 1e-14

    @pytest.mark.parametrize("name", list(NOT_CP))
    @pytest.mark.parametrize("frame", ["dw", "sic"])
    def test_not_completely_positive_raises_not_psd(self, name, frame, dw, sic):
        f, g = {"dw": dw, "sic": sic}[frame]
        s = NOT_CP[name]
        assert max_abs(s.sum(axis=0) - 1) == 0.0
        with pytest.raises(errors.NotPSD):
            channel_from_qpr(s, f, g)

    @pytest.mark.parametrize("s", [np.eye(4)[:, :3], np.eye(2), 0.5 * np.eye(4),
                                   np.full((4, 4), np.nan)],
                             ids=["rectangular", "other-size", "column-sums", "nan"])
    def test_not_a_channel_matrix_raises_rep_mismatch(self, s, dw):
        with pytest.raises(errors.RepMismatch, match=r"\[a_out, a_in\]"):
            channel_from_qpr(s, *dw)


class TestBorn:
    def test_certain_outcome(self, dw):
        f, g = dw
        v = state_to_qpr(projector(KET0), f)
        vbar = povm_to_qpr(projector(KET0), g)
        assert abs(born(v, vbar) - 1.0) < 1e-14

    def test_unbiased_outcome(self, dw):
        f, g = dw
        v = state_to_qpr(np.eye(2) / 2, f)
        vbar = povm_to_qpr(projector(KET0), g)
        assert abs(born(v, vbar) - 0.5) < 1e-14

    def test_length_mismatch(self):
        with pytest.raises(errors.RepMismatch):
            born(np.ones(4), np.ones(3))


class TestXMatrix:
    def test_uniform_gives_scaled_identity(self, dw):
        f, g = dw
        xi = structure_coeffs(f, g)
        np.testing.assert_allclose(x_matrix(uniform_vector(4), xi),
                                   np.eye(4) / 4, atol=1e-14)

    def test_classical_deltas_square_the_prior(self):
        xi = classical_structure_coeffs(2)
        np.testing.assert_allclose(x_matrix(np.array([0.3, 0.7]), xi),
                                   np.diag([0.09, 0.49]), atol=1e-15)

    def test_matches_direct_traces(self, dw):
        f, g = dw
        xi = structure_coeffs(f, g)
        rho = projector(KET0)
        direct = np.einsum("iab,bc,jcd,da->ij", f.ops, rho, g.ops, rho).real
        np.testing.assert_allclose(x_matrix(state_to_qpr(rho, f), xi), direct,
                                   atol=1e-13)

    def test_rep_mismatch(self, dw):
        f, g = dw
        with pytest.raises(errors.RepMismatch):
            x_matrix(np.ones(3), structure_coeffs(f, g))


class TestAdjoint:
    """Every rule is held to the morphism of the Hilbert adjoint,
    Tr[F_i E^dag[G_j]]."""

    def test_nqpr_transpose_matches_hilbert_adjoint(self, dw):
        f, g = dw
        ch = builtin_channel("half_swap")
        s = channel_to_qpr(ch, f, g)
        reference = channel_to_qpr(ch.adjoint, f, g)
        np.testing.assert_allclose(adjoint_qpr(s, None), reference, atol=1e-12)

    def test_sic_correction_matches_hilbert_adjoint(self, sic):
        f, g = sic
        ch = builtin_channel("half_swap")
        s = channel_to_qpr(ch, f, g)
        reference = channel_to_qpr(ch.adjoint, f, g)
        # the paper's closed form S^T + K, and the Gram rule the library takes
        np.testing.assert_allclose(s.T + k_matrix(s), reference, atol=1e-12)
        np.testing.assert_allclose(adjoint_qpr(s, structure_coeffs(f, g).gram_roots),
                                   reference, atol=1e-12)
        # the transpose alone is not the adjoint here
        assert max_abs(s.T - reference) > 0.1

    def test_gram_rule_matches_hilbert_adjoint(self, custom_tetra):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            f, g = custom_tetra(rng)
            ch = channel_from_dilation(random_unitary(rng, 4),
                                       random_density(rng, 2))
            s = channel_to_qpr(ch, f, g)
            reference = channel_to_qpr(ch.adjoint, f, g)
            adjoint = adjoint_qpr(s, structure_coeffs(f, g).gram_roots)
            assert max_abs(adjoint - reference) < 1e-12, seed
            # the transpose is not the adjoint on this frame
            assert max_abs(s.T - reference) > 1e-3, seed

    def test_gram_rule_gives_the_closed_forms(self, dw, sic):
        rng = np.random.default_rng(10)
        channels = [builtin_channel("half_swap")]
        channels += [channel_from_dilation(random_unitary(rng, 4),
                                           random_density(rng, 2))
                     for _ in range(10)]
        # the dw Gram is 1/2: its roots are scalings, which structure_coeffs
        # does not store, so they are passed explicitly here
        dw_roots = (np.eye(4) / SQ2, SQ2 * np.eye(4))
        sic_roots = structure_coeffs(*sic).gram_roots
        for ch in channels:
            s = channel_to_qpr(ch, *dw)
            np.testing.assert_allclose(adjoint_qpr(s, dw_roots), s.T, atol=1e-13)
            s = channel_to_qpr(ch, *sic)
            np.testing.assert_allclose(adjoint_qpr(s, sic_roots), s.T + k_matrix(s),
                                       atol=1e-13)

    def test_unital_sic_adjoint_is_plain_transpose(self, sic):
        f, g = sic
        s = channel_to_qpr(builtin_channel("hadamard"), f, g)
        np.testing.assert_allclose(adjoint_qpr(s, structure_coeffs(f, g).gram_roots),
                                   s.T, atol=1e-12)

    def test_k_rows_identical_and_tied_to_row_sums(self, dw):
        f, g = dw
        s = channel_to_qpr(builtin_channel("full_swap"), f, g)
        k = k_matrix(s)
        assert max_abs(k - k[0][None, :]) == 0.0
        np.testing.assert_allclose(k[0], (s.sum(axis=1) - 1) / 2, atol=1e-15)


class TestPetzQpr:
    @pytest.mark.parametrize("eps", [2.0, np.nan, np.inf, -1.0])
    def test_mixing_weights_outside_the_unit_interval_raise(self, dw, eps):
        f, g = dw
        channel = builtin_channel("half_swap")
        prior = projector(KET_PLUS)
        s, v = channel_to_qpr(channel, f, g), state_to_qpr(prior, f)
        with pytest.raises(ValueError, match="not in"):
            petz_qpr(s, v, structure_coeffs(f, g), eps=eps)
        with pytest.raises(ValueError, match="not in"):
            petz_hilbert(channel, prior, eps=eps)
        with pytest.raises(ValueError, match="not in"):
            classical_bayes(s, v, eps=eps)

    def test_half_swap_plus_prior_dw(self, dw):
        f, g = dw
        xi = structure_coeffs(f, g)
        s = channel_to_qpr(builtin_channel("half_swap"), f, g)
        v = state_to_qpr(projector(KET_PLUS), f)
        # the pure prior needs no regularization: the posterior has full rank
        assert petz_qpr(s, v, xi, kind="nq").eps_used == 0.0

    def test_unitary_retrodicts_to_transpose(self, dw, sic):
        rng = np.random.default_rng(2)
        for f, g in (dw, sic):
            xi = structure_coeffs(f, g)
            s = channel_to_qpr(builtin_channel("pauli_z"), f, g)
            for _ in range(3):
                v = state_to_qpr(random_density(rng, 2, min_eig=0.05), f)
                result = petz_qpr(s, v, xi, kind=f.kind)
                np.testing.assert_allclose(result.matrix, s.T, atol=1e-9)

    def test_matches_hilbert_oracle(self, dw, sic):
        rng = np.random.default_rng(3)
        for f, g in (dw, sic):
            xi = structure_coeffs(f, g)
            for _ in range(20):
                ch = channel_from_dilation(random_unitary(rng, 4),
                                           random_density(rng, 2))
                gamma = random_density(rng, 2, min_eig=0.05)
                s = channel_to_qpr(ch, f, g)
                v = state_to_qpr(gamma, f)
                lhs = petz_qpr(s, v, xi, kind=f.kind).matrix
                rhs = channel_to_qpr(petz_hilbert(ch, gamma), f, g)
                assert max_abs(lhs - rhs) < 1e-9

    def test_columns_sum_to_one_and_prior_fixed(self, sic):
        f, g = sic
        xi = structure_coeffs(f, g)
        rng = np.random.default_rng(4)
        ch = channel_from_dilation(random_unitary(rng, 4),
                                   random_density(rng, 2))
        gamma = random_density(rng, 2, min_eig=0.05)
        s = channel_to_qpr(ch, f, g)
        v = state_to_qpr(gamma, f)
        shat = petz_qpr(s, v, xi, kind="sp").matrix
        np.testing.assert_allclose(shat.sum(axis=0), np.ones(4), atol=1e-10)
        np.testing.assert_allclose(shat @ (s @ v), v, atol=1e-10)

    def test_singular_posterior_raises_without_eps(self, dw):
        f, g = dw
        xi = structure_coeffs(f, g)
        s = channel_to_qpr(builtin_channel("half_swap"), f, g)
        v = state_to_qpr(projector(KET1), f)  # posterior is the pure |1><1|
        with pytest.raises(errors.SingularPosterior):
            petz_qpr(s, v, xi, kind="nq", eps=0.0)

    def test_singular_posterior_reports_both_routes(self, dw):
        f, g = dw
        xi = structure_coeffs(f, g)
        ch = builtin_channel("half_swap")
        s = channel_to_qpr(ch, f, g)
        v = state_to_qpr(projector(KET1), f)
        result = petz_qpr(s, v, xi, kind="nq")
        assert result.eps_used == QPR_EPS_FLOOR
        # the prior and its support posterior, then the mixed prior and
        # its posterior
        assert len(result.root_routes) == 4
        # only the regularized evaluation is reported, as the oracle's
        # PetzMap reports it
        assert not hasattr(result, "support_matrix")
        # the regularized route is the morphism of the equally regularized
        # Hilbert-side recovery map
        oracle = channel_to_qpr(petz_hilbert(ch, projector(KET1),
                                             eps=result.eps_used), f, g)
        assert max_abs(result.matrix - oracle) < ORACLE_TOL
        # regularized columns stay stochastic
        np.testing.assert_allclose(result.matrix.sum(axis=0), np.ones(4),
                                   atol=ORACLE_TOL)
        assert not hasattr(result, "support_dev")

    def test_noncanonical_frame_still_commutes(self, dw, sic):
        # a labelwise blend of the two canonical frames is neither of the
        # two closed-form families; its dual comes from the Gram inverse
        # and its adjoint from the Gram rule
        from qbret.frames import Frame, DualFrame, structure_coeffs, validate_frame
        ops = 0.7 * dw[0].ops + 0.3 * sic[0].ops
        gram = np.einsum("jab,kba->jk", ops, ops).real
        dual_ops = np.einsum("jk,kab->jab", np.linalg.inv(gram), ops)
        f = Frame(name="blend", d=2, labels=tuple(range(4)), ops=ops)
        g = DualFrame(name="blend", ops=dual_ops)
        assert validate_frame(f, g).passed
        xi = structure_coeffs(f, g)
        rng = np.random.default_rng(11)
        for channel in (builtin_channel("half_swap"),
                        channel_from_dilation(random_unitary(rng, 4),
                                              random_density(rng, 2))):
            gamma = random_density(rng, 2, min_eig=0.05)
            s = channel_to_qpr(channel, f, g)
            lhs = petz_qpr(s, state_to_qpr(gamma, f), xi, kind="custom").matrix
            rhs = channel_to_qpr(petz_hilbert(channel, gamma), f, g)
            assert max_abs(lhs - rhs) < 1e-9
            # neither closed-form adjoint matches for this non-unital blend
            if channel.kraus[0].shape == (2, 2) and len(channel.kraus) > 1:
                assert max_abs(adjoint_qpr(s, xi.gram_roots)
                               - s.T) > 1e-3

    @pytest.mark.parametrize("frame", ["sic", "custom"])
    def test_omitted_kind_meets_the_oracle(self, frame, custom_tetra):
        # the coefficients carry the frame's kind, so a call without it
        # takes the right adjoint rule
        f, g = _frame_pair(frame, np.random.default_rng(17), custom_tetra)
        coeffs = structure_coeffs(f, g)
        assert coeffs.kind == f.kind
        ch = builtin_channel("half_swap")
        prior = qubit_state(0.4, 1.1, 0.3)
        result = petz_qpr(channel_to_qpr(ch, f, g), state_to_qpr(prior, f),
                          coeffs)
        oracle = channel_to_qpr(petz_hilbert(ch, prior), f, g)
        assert max_abs(result.matrix - oracle) < ORACLE_TOL

    def test_kind_contradicting_the_coefficients_raises(self, dw):
        f, g = dw
        s = channel_to_qpr(builtin_channel("half_swap"), f, g)
        v = state_to_qpr(qubit_state(0.4, 1.1, 0.3), f)
        with pytest.raises(errors.RepMismatch):
            petz_qpr(s, v, structure_coeffs(f, g), kind="sp")
        assert classical_structure_coeffs(4).kind == "nq"

    def test_classical_delta_coefficients_reduce_to_bayes(self):
        rng = np.random.default_rng(5)
        t = rng.random((3, 3)) + 0.1
        t /= t.sum(axis=0)
        p = rng.random(3) + 0.1
        p /= p.sum()
        via_pipeline = petz_qpr(t, p, classical_structure_coeffs(3),
                                kind="nq").matrix
        np.testing.assert_allclose(via_pipeline, classical_bayes(t, p),
                                   atol=1e-13)


@pytest.mark.parametrize("n_qubits", [3, 4])
def test_product_frame_recovery_stays_factored(n_qubits):
    # dense xi would be 134 MB at three qubits and 34 GB at four
    f, g = build_dw_qubits(n_qubits)
    coeffs = structure_coeffs(f, g)
    rng = np.random.default_rng(n_qubits)
    d = 2 ** n_qubits
    channel = channel_from_dilation(random_unitary(rng, 2 * d),
                                    random_density(rng, 2))
    prior = random_density(rng, d, min_eig=0.01)
    result = petz_qpr(channel_to_qpr(channel, f, g), state_to_qpr(prior, f),
                      coeffs, kind=f.kind)
    oracle = channel_to_qpr(petz_hilbert(channel, prior), f, g)
    assert result.eps_used == 0.0
    assert max_abs(result.matrix - oracle) < ORACLE_TOL
    assert set(vars(coeffs)) == {"factors", "frame_name", "e", "e_sym", "kind",
                                 "gram_roots"}
    assert coeffs.gram_roots is None  # the dw Gram is a multiple of 1
    stored = [*coeffs.factors, coeffs.e, coeffs.e_sym, *(coeffs.gram_roots or ())]
    assert sum(t.nbytes for t in stored) < 2 ** 20


@pytest.mark.parametrize("frame", ["sic", "custom", "classical"])
def test_recovery_builds_no_xi(frame, custom_tetra):
    # every pair, not only products, computes from eta alone
    rng = np.random.default_rng(13)
    if frame == "classical":
        t = rng.random((4, 4)) + 0.1
        t /= t.sum(axis=0)
        p = rng.random(4) + 0.1
        p /= p.sum()
        result = petz_qpr(t, p, classical_structure_coeffs(4), kind="nq")
        assert max_abs(result.matrix - classical_bayes(t, p)) < 1e-13
        return
    f, g = custom_tetra(rng) if frame == "custom" else build_sic_qubit()
    channel = channel_from_dilation(random_unitary(rng, 4), random_density(rng, 2))
    prior = random_density(rng, 2)
    result = petz_qpr(channel_to_qpr(channel, f, g), state_to_qpr(prior, f),
                      structure_coeffs(f, g), kind=f.kind)
    oracle = channel_to_qpr(petz_hilbert(channel, prior), f, g)
    assert max_abs(result.matrix - oracle) < ORACLE_TOL


def _frame_pair(name, rng, custom_tetra):
    if name == "custom":
        return custom_tetra(rng)
    return {"dw": build_dw_qubit, "sic": build_sic_qubit,
            "dw3": lambda: build_dw_qubits(3)}[name]()


def _recover(f, g, channel, prior):
    return petz_qpr(channel_to_qpr(channel, f, g), state_to_qpr(prior, f),
                    structure_coeffs(f, g), kind=f.kind)


class TestRankDeficient:
    """Pure priors and rank-deficient posteriors, held to the oracle gate.
    Both sides cut eigenvalues below the same relative rank threshold, so
    the roundoff eigenvalues of a pure state get root zero on each."""

    @pytest.mark.parametrize("frame", ["dw", "sic", "custom"])
    def test_pure_prior_meets_the_oracle(self, frame, custom_tetra):
        # a pure prior through a Haar dilation with a mixed ancilla: the
        # posterior has full rank, so nothing is regularized
        for seed in range(100):
            rng = np.random.default_rng(seed)
            f, g = _frame_pair(frame, rng, custom_tetra)
            prior = projector(random_unitary(rng, 2)[:, 0])
            channel = channel_from_dilation(random_unitary(rng, 4),
                                            random_density(rng, 2))
            result = _recover(f, g, channel, prior)
            assert result.eps_used == 0.0
            oracle = channel_to_qpr(petz_hilbert(channel, prior), f, g)
            assert max_abs(result.matrix - oracle) < ORACLE_TOL, seed

    @pytest.mark.parametrize("frame, draws", [
        ("dw", 50), ("sic", 50), ("custom", 50), ("dw3", 5)])
    def test_regularized_posterior_meets_the_oracle(self, frame, draws,
                                                    custom_tetra):
        # a pure prior through a Haar unitary leaves a pure posterior, which
        # regularization lifts; the recovery must meet the oracle built at
        # the same eps, from the two roots of the mixed prior's evaluation
        for seed in range(draws):
            rng = np.random.default_rng(seed)
            f, g = _frame_pair(frame, rng, custom_tetra)
            prior = projector(random_unitary(rng, f.d)[:, 0])
            channel = KrausChannel.from_unitary(random_unitary(rng, f.d))
            result = _recover(f, g, channel, prior)
            assert result.eps_used == QPR_EPS_FLOOR
            assert len(result.root_routes) == 4, seed
            oracle = petz_hilbert(channel, prior, eps=result.eps_used)
            assert result.support_projected == oracle.support_projected
            deviation = max_abs(result.matrix - channel_to_qpr(oracle, f, g))
            assert deviation < ORACLE_TOL, seed

    @pytest.mark.parametrize("frame, draws", [
        ("dw", 20), ("sic", 20), ("custom", 20), ("dw3", 3)])
    def test_regularized_matrix_is_the_petz_map_of_its_mixed_prior(
            self, frame, draws, custom_tetra):
        # the regularized recovery is the full-rank recovery of the prior
        # mixed at eps_used, bit for bit: one evaluation computes both
        for seed in range(draws):
            rng = np.random.default_rng(seed)
            f, g = _frame_pair(frame, rng, custom_tetra)
            prior = projector(random_unitary(rng, f.d)[:, 0])
            channel = KrausChannel.from_unitary(random_unitary(rng, f.d))
            s, v = channel_to_qpr(channel, f, g), state_to_qpr(prior, f)
            coeffs = structure_coeffs(f, g)
            result = petz_qpr(s, v, coeffs)
            assert result.eps_used == QPR_EPS_FLOOR
            mixed = ((1 - result.eps_used) * v
                     + result.eps_used * uniform_vector(f.n))
            plain = petz_qpr(s, mixed, coeffs)
            assert plain.eps_used == 0.0
            assert np.array_equal(result.matrix, plain.matrix), seed

    @pytest.mark.parametrize("frame", ["dw", "sic", "custom"])
    def test_posterior_kernel_for_every_prior_meets_the_oracle(
            self, frame, custom_tetra):
        # a full swap with a pure ancilla replaces every state by the
        # ancilla: the posterior keeps its kernel after regularization and
        # both sides invert on its support.  The recovery then depends on
        # eps to first order (every column is the regularized prior), and
        # it takes the same two evaluations as any regularized one.
        for seed in range(30):
            rng = np.random.default_rng(seed)
            f, g = _frame_pair(frame, rng, custom_tetra)
            ancilla = projector(random_unitary(rng, 2)[:, 0])
            channel = builtin_channel("full_swap", ancilla=ancilla)
            prior = random_density(rng, 2)
            result = _recover(f, g, channel, prior)
            assert result.eps_used == QPR_EPS_FLOOR
            oracle = petz_hilbert(channel, prior, eps=result.eps_used)
            assert oracle.support_projected
            assert result.support_projected == oracle.support_projected
            assert len(result.root_routes) == 4
            assert max_abs(result.matrix - channel_to_qpr(oracle, f, g)) < ORACLE_TOL


def count_eigh(monkeypatch, tally):
    """Wrap np.linalg.eigh to add its calls to tally["eigh"] and the
    matrices they factor, a stack counting each of its own, to
    tally["matrices"]."""
    real = np.linalg.eigh
    tally.update(eigh=0, matrices=0)

    def eigh(a, *args, **kwargs):
        tally["eigh"] += 1
        tally["matrices"] += int(np.prod(np.shape(a)[:-2]))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", eigh)


def count_x_matrix(monkeypatch) -> list:
    """Wrap the `x_matrix` petz_qpr calls; the returned list gets the number
    of rows of each stack it is called on."""
    import qbret.qprcore as qc
    real, rows = qc.x_matrix, []

    def x_matrix(v, coeffs):
        rows.append(len(v))
        return real(v, coeffs)
    monkeypatch.setattr(qc, "x_matrix", x_matrix)
    return rows


class TestFactorizationCount:
    """Each matrix root factors its matrix once, by eigh, and the matrices
    that do not depend on each other share one eigh call: a full-rank
    recovery factors its prior and its posterior as one stack.  The SIC
    roots go through the frame Gram, so a full-rank SIC recovery factors
    two matrices in one call, as a dw recovery does.  The scipy counters
    stay at zero because no qbret module imports scipy (`TestImportCost`
    in test_cli.py)."""

    @staticmethod
    def _count_petz(pair, monkeypatch):
        import scipy.linalg

        import qbret.qprcore as qc
        f, g = pair
        xi = structure_coeffs(f, g)
        rng = np.random.default_rng(8)
        channel = channel_from_dilation(random_unitary(rng, 4),
                                        random_density(rng, 2))
        s = channel_to_qpr(channel, f, g)
        v = state_to_qpr(random_density(rng, 2, min_eig=0.05), f)

        tally = {}

        def count(owner, name):
            fn = getattr(owner, name)
            tally[name] = 0

            def wrapper(*args, **kwargs):
                tally[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        count(scipy.linalg, "schur")
        count(scipy.linalg, "fractional_matrix_power")
        count(qc.np.linalg, "eigvals")
        count_eigh(monkeypatch, tally)
        stacks = count_x_matrix(monkeypatch)
        result = petz_qpr(s, v, xi, kind=f.kind)
        assert result.eps_used == 0.0
        # one x_matrix call per recovery, on the stack of its two roots
        assert stacks == [2]
        return tally

    def test_full_rank_sic_runs_no_schur_form(self, sic, monkeypatch):
        assert self._count_petz(sic, monkeypatch) == {
            "schur": 0, "fractional_matrix_power": 0, "eigvals": 0, "eigh": 1,
            "matrices": 2}

    def test_dw_runs_no_schur_form(self, dw, monkeypatch):
        assert self._count_petz(dw, monkeypatch) == {
            "schur": 0, "fractional_matrix_power": 0, "eigvals": 0, "eigh": 1,
            "matrices": 2}

    @pytest.mark.parametrize("frame", ["dw", "sic", "custom"])
    @pytest.mark.parametrize("case, matrices", [
        ("regularized", 4), ("support-projected", 4)])
    def test_prior_is_factored_once(self, frame, case, matrices, custom_tetra,
                                    monkeypatch):
        # two eigh calls of two matrices each, 4 in all: the prior with the
        # support posterior, then the prior mixed at eps with its posterior,
        # whether or not that posterior keeps a kernel.  The full-rank count
        # (1 call, 2 matrices) is pinned by the two tests above.  Only the
        # roots settled on go through x_matrix: one call on a 2-row stack
        rng = np.random.default_rng(9)
        f, g = _frame_pair(frame, rng, custom_tetra)
        if case == "regularized":
            prior = projector(random_unitary(rng, 2)[:, 0])
            channel = KrausChannel.from_unitary(random_unitary(rng, 2))
        else:
            prior = random_density(rng, 2)
            channel = builtin_channel(
                "full_swap", ancilla=projector(random_unitary(rng, 2)[:, 0]))
        s, v = channel_to_qpr(channel, f, g), state_to_qpr(prior, f)
        coeffs = structure_coeffs(f, g)
        tally = {}
        count_eigh(monkeypatch, tally)
        stacks = count_x_matrix(monkeypatch)
        result = petz_qpr(s, v, coeffs)
        monkeypatch.undo()
        assert result.eps_used == QPR_EPS_FLOOR
        assert result.support_projected == (case == "support-projected")
        assert len(result.root_routes) == 4
        assert tally == {"eigh": 2, "matrices": matrices}
        assert stacks == [2]


def hilbert_power_matrix(alpha, r, f, g):
    """Tr[F_i a G_j a] with a = alpha^r, the power taken on the support of
    alpha (eigenvalues below 1e-12 of the largest get power zero)."""
    w, vec = np.linalg.eigh(alpha)
    keep = w >= 1e-12 * w.max()
    a = (vec[:, keep] * w[keep] ** r) @ vec[:, keep].conj().T
    return np.einsum("iab,bc,jcd,da->ij", f.ops, a, g.ops, a).real


class TestGramRoute:
    """The matrix J = P Q^{-1} of rho -> (alpha rho + rho alpha)/2 is
    similar, through the frame Gram Q, to the symmetric Q^{-1/2} P Q^{-1/2}:
    the matrix of the state power it gives by eigh must be the power of the
    prior or posterior matrix X itself, which scipy's Schur-Pade gives at
    full rank and the Hilbert-side power of the state gives for a pure
    prior."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), custom=st.booleans(),
           pure=st.booleans())
    def test_half_powers_match_independent_references(
            self, custom_tetra, seed, custom, pure):
        import scipy.linalg
        rng = np.random.default_rng(seed)
        f, g = custom_tetra(rng) if custom else build_sic_qubit()
        coeffs = structure_coeffs(f, g)
        assert coeffs.gram_roots is not None
        prior = (projector(random_unitary(rng, 2)[:, 0]) if pure
                 else random_density(rng, 2, min_eig=0.05))
        channel = channel_from_dilation(random_unitary(rng, 4),
                                        random_density(rng, 2))
        s = channel_to_qpr(channel, f, g)
        v = state_to_qpr(prior, f)
        for vec, alpha, rank_one in ((v, prior, pure),
                                     (s @ v, channel.apply(prior), False)):
            m = x_matrix(vec, coeffs)
            assert max_abs(m - m.T) > 1e-8  # symmetric only after the similarity
            # either route loses about eps * cond relative accuracy on the
            # support (at cond 5e4 both are ~2e-12 off an mpmath root), so
            # past cond 1e3 the bound grows with it
            w = np.abs(np.linalg.eigvals(m))
            w = w[w >= rank_threshold(w.max())]
            grow = max(1.0, w.max() / w.min() / 1e3)
            for r in (0.5, -0.5):
                expected = (hilbert_power_matrix(alpha, r, f, g) if rank_one
                            else scipy.linalg.fractional_matrix_power(m, r))
                (power,), (deficient,), _ = state_powers(vec[None], (r,), coeffs)
                assert deficient == rank_one
                power = x_matrix(power, coeffs)
                assert max_abs(power - expected) <= 1e-12 * grow * max_abs(expected)
        assert state_powers(v[None], (0.5,), coeffs)[1][0] == pure

        try:
            result = petz_qpr(s, v, coeffs, kind=f.kind)
        except errors.QbretError:
            return
        assert result.eps_used == 0.0
        oracle = channel_to_qpr(petz_hilbert(channel, prior), f, g)
        assert max_abs(result.matrix - oracle) < ORACLE_TOL


    def test_ill_conditioned_gram_raises(self, custom_tetra):
        # shrunk to 0.015 the tetrahedron's Gram has condition number
        # 1.3e4, past GRAM_COND_MAX: the pair is refused before any
        # recovery could return a matrix off the oracle
        f, g = custom_tetra(np.random.default_rng(4), 0.015)
        gram = np.einsum("jab,kba->jk", f.ops, f.ops).real
        assert np.linalg.cond(gram) > 1e4
        with pytest.raises(errors.IllConditioned, match="GRAM_COND_MAX"):
            structure_coeffs(f, g)

    def test_accepted_gram_near_the_bound_meets_the_oracle(self, custom_tetra):
        # shrunk to 0.03 the Gram has condition number 3.3e3, inside
        # GRAM_COND_MAX: each full-rank recovery must then meet the gate
        for seed in range(50):
            rng = np.random.default_rng(seed)
            f, g = custom_tetra(rng, 0.03)
            prior = random_density(rng, 2)
            channel = channel_from_dilation(random_unitary(rng, 4),
                                            random_density(rng, 2))
            result = _recover(f, g, channel, prior)
            assert result.eps_used == 0.0
            oracle = channel_to_qpr(petz_hilbert(channel, prior), f, g)
            assert max_abs(result.matrix - oracle) < ORACLE_TOL, seed


def lanczos_spectra(d: int) -> dict:
    """Eigenvalues of d x d states that stress a Krylov run from e: one
    distinct value, a pure and a half-rank flat state, two values 1e-6 to
    1e-15 apart, and half of them in a cluster near 1e-8."""
    half = max(d // 2, 1)
    out = {"mixed": np.full(d, 1.0 / d), "pure": np.eye(d)[0],
           "flat": np.r_[np.full(half, 1.0 / half), np.zeros(d - half)]}
    for gap in (1e-6, 1e-9, 1e-12, 1e-15):
        lam = np.linspace(1.0, 2.0, d)
        lam[1] = lam[0] + gap
        out[f"gap-{gap:.0e}"] = lam / lam.sum()
    lam = np.r_[np.linspace(1.0, 2.0, d - d // 2),
                1e-8 * (1 + 1e-3 * np.arange(d // 2))]
    out["tiny-cluster"] = lam / lam.sum()
    return out


# spectra whose runs must certify, so that the Lanczos route is exercised
CERTIFIED = ("mixed", "pure", "flat", "gap-1e-06", "gap-1e-09", "gap-1e-12",
             "gap-1e-15")


def _lanczos_case(frame, spectrum, custom_tetra):
    """(coeffs, v, exact power) for a state of the named spectrum in the
    named frame; the exact power of r is alpha^r on its support, taken on
    the Hilbert side (on the diagonal for the classical delta tensor)."""
    rng = np.random.default_rng(21)
    if frame == "classical":
        lam = lanczos_spectra(4)[spectrum]
        keep = lam >= 1e-12 * lam.max()
        return (classical_structure_coeffs(4), lam,
                lambda r: np.where(keep, np.where(keep, lam, 1.0) ** r, 0.0))
    f, g = {"dw": build_dw_qubit, "sic": build_sic_qubit,
            "custom": lambda: custom_tetra(rng),
            "dw2": lambda: build_dw_qubits(2),
            "dw3": lambda: build_dw_qubits(3)}[frame]()
    lam = lanczos_spectra(f.d)[spectrum]
    u = random_unitary(rng, f.d)
    keep = lam >= 1e-12 * lam.max()

    def exact(r):
        a = (u[:, keep] * lam[keep] ** r) @ u[:, keep].conj().T
        return state_to_qpr(a, f)
    return structure_coeffs(f, g), state_to_qpr((u * lam) @ u.conj().T, f), exact


def _lanczos_run(v, coeffs):
    """The `lanczos` run `state_powers` takes of v, certified or not."""
    return lanczos(symmetrized(state_matrix(v, coeffs)), coeffs.e_sym,
                   round(coeffs.e.sum()))


def _rank_state(rng, d, rank):
    """A random d x d density operator of the given rank."""
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# the routes of `TestLanczos._failing_case`: the prior, the support
# posterior and the mixed prior certify their runs, and the regularized
# posterior falls back to eigh
FAILING_ROUTES = ("lanczos",) * 3 + ("eigh",)


def _eigh_route(v, r, coeffs):
    """The n x n power of the state matrix applied to e, mapped back through
    the Gram roots: an eigh route that builds the power."""
    p, deficient = eigh_spectrum(symmetrized(state_matrix(v, coeffs))).power(r)
    if coeffs.gram_roots is None:
        return p @ coeffs.e, deficient
    half, inv_half = coeffs.gram_roots
    return half @ (p @ (inv_half @ coeffs.e)), deficient


class TestLanczos:
    """The Lanczos route of a state power: a run of at most d steps from e,
    used only when its error estimate certifies it, else the eigh route."""

    FRAMES = ["dw", "sic", "custom", "dw2", "dw3", "classical"]

    @pytest.mark.parametrize("spectrum", list(lanczos_spectra(2)))
    @pytest.mark.parametrize("frame", FRAMES)
    def test_certified_runs_match_the_hilbert_power(self, frame, spectrum,
                                                    custom_tetra):
        coeffs, v, exact = _lanczos_case(frame, spectrum, custom_tetra)
        run = _lanczos_run(v, coeffs)
        steps = run.values.size
        assert run.route == "lanczos" and steps <= round(coeffs.e.sum())
        assert max_abs(run.vectors.T @ run.vectors - np.eye(steps)) < 1e-13
        # the Krylov dimension is the number of distinct values, to roundoff
        if spectrum == "mixed":
            assert steps == 1
        if spectrum == "gap-1e-15":
            assert steps == round(coeffs.e.sum()) - 1
        for r in (0.5, -0.5):
            estimate = run.error_estimate(r)
            if spectrum in CERTIFIED:
                assert estimate <= LANCZOS_RTOL
            if estimate > LANCZOS_RTOL:
                continue
            power, deficient = run.power(r, coeffs)
            want = exact(r)
            reference, reference_deficient = _eigh_route(v, r, coeffs)
            assert max_abs(power - want) <= 1e-11 * max_abs(want), r
            assert max_abs(power - reference) <= 1e-11 * max_abs(want), r
            assert deficient == reference_deficient

    @pytest.mark.parametrize("spectrum", list(lanczos_spectra(2)))
    @pytest.mark.parametrize("frame", ["dw", "dw3"])
    def test_state_power_takes_the_certified_route(self, frame, spectrum,
                                                   custom_tetra, monkeypatch):
        # past LANCZOS_MIN_N a certified run gives the power, an uncertified
        # one falls back to the eigh route bit for bit; below it eigh always
        # runs.  That route is forced by raising LANCZOS_MIN_N, and held to
        # the n x n power applied to e.
        import qbret.qprcore as qc
        coeffs, v, exact = _lanczos_case(frame, spectrum, custom_tetra)
        for r in (0.5, -0.5):
            (power,), (deficient,), _ = state_powers(v[None], (r,), coeffs)
            with monkeypatch.context() as patch:
                patch.setattr(qc, "LANCZOS_MIN_N", np.inf)
                (reference,), (reference_deficient,), _ = state_powers(
                    v[None], (r,), coeffs)
            matrix_power, matrix_deficient = _eigh_route(v, r, coeffs)
            assert max_abs(reference - matrix_power) <= 1e-14 * max_abs(matrix_power)
            assert deficient == reference_deficient == matrix_deficient
            run = _lanczos_run(v, coeffs)
            if coeffs.n < LANCZOS_MIN_N or run.error_estimate(r) > LANCZOS_RTOL:
                assert np.array_equal(power, reference)
            else:
                want = exact(r)
                assert max_abs(power - want) <= 1e-11 * max_abs(want)

    @pytest.mark.parametrize("spectrum", ["mixed", "flat", "gap-1e-09",
                                          "tiny-cluster"])
    def test_recoveries_meet_the_oracle(self, spectrum, custom_tetra):
        # dw-qubits:3 priors through a Haar 16x16 dilation with a mixed
        # ancilla: the posterior has full rank (the pure prior's has rank 4,
        # `_failing_case`)
        f, g = build_dw_qubits(3)
        _, v, _ = _lanczos_case("dw3", spectrum, custom_tetra)
        rng = np.random.default_rng(22)
        channel = channel_from_dilation(random_unitary(rng, 16),
                                        np.diag([0.7, 0.3]))
        prior = reconstruct_state(v, g)
        result = petz_qpr(channel_to_qpr(channel, f, g), v,
                          structure_coeffs(f, g))
        assert result.eps_used == 0.0 and len(result.root_routes) == 2
        if spectrum != "tiny-cluster":
            assert result.root_routes == ("lanczos", "lanczos")
        oracle = channel_to_qpr(petz_hilbert(channel, prior), f, g)
        assert max_abs(result.matrix - oracle) < ORACLE_TOL

    def test_qubit_frames_keep_eigh(self, dw):
        f, g = dw
        rng = np.random.default_rng(23)
        channel = channel_from_dilation(random_unitary(rng, 4),
                                        random_density(rng, 2))
        s = channel_to_qpr(channel, f, g)
        v = state_to_qpr(projector(KET_PLUS), f)
        assert f.n < LANCZOS_MIN_N
        assert petz_qpr(s, v, structure_coeffs(f, g)).root_routes == ("eigh",) * 2
        pure = petz_qpr(channel_to_qpr(KrausChannel.from_unitary(
            random_unitary(rng, 2)), f, g), v, structure_coeffs(f, g))
        assert pure.eps_used > 0 and pure.root_routes == ("eigh",) * 4

    @staticmethod
    def _failing_case():
        # a pure prior through a Haar 16x16 dilation with a mixed ancilla:
        # the posterior has rank 4, and regularized its four other eigenvalues
        # lie near 1e-6, where d Lanczos steps stay far from invariant
        f, g = build_dw_qubits(3)
        rng = np.random.default_rng(0)
        channel = channel_from_dilation(random_unitary(rng, 16),
                                        np.diag([0.7, 0.3]))
        prior = projector(random_unitary(rng, 8)[:, 0])
        result = petz_qpr(channel_to_qpr(channel, f, g), state_to_qpr(prior, f),
                          structure_coeffs(f, g))
        oracle = petz_hilbert(channel, prior, eps=result.eps_used)
        return result, max_abs(result.matrix - channel_to_qpr(oracle, f, g))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           frame=st.sampled_from(["dw", "sic", "custom", "dw3"]),
           rows=st.lists(st.tuples(st.sampled_from([1, 2, 8]),
                                   st.sampled_from([0.5, -0.5, 1.0, -1.0, 0.25])),
                         min_size=1, max_size=4))
    def test_each_row_is_its_own_state_power(self, custom_tetra, seed, frame,
                                             rows):
        # a stack of states of rank 1, 2 or full and its exponents: each
        # row is the state power of that row at its exponent, with its
        # flag and its route
        rng = np.random.default_rng(seed)
        f, g = _frame_pair(frame, rng, custom_tetra)
        coeffs = structure_coeffs(f, g)
        v = np.array([state_to_qpr(_rank_state(rng, f.d, min(rank, f.d)), f)
                      for rank, _ in rows])
        exponents = [r for _, r in rows]
        powers, deficient, routes = state_powers(v, exponents, coeffs)
        assert len(powers) == len(deficient) == len(routes) == len(rows)
        for vec, r, power, flag, route in zip(v, exponents, powers, deficient,
                                              routes):
            (want,), (want_flag,), (want_route,) = state_powers(vec[None], (r,),
                                                                coeffs)
            assert max_abs(power - want) <= 1e-13 * max_abs(want)
            assert flag == want_flag
            assert route == want_route

    @pytest.mark.parametrize("frame", ["dw", "sic", "dw3"])
    def test_stack_gives_each_row_its_route_and_power(self, frame):
        # on dw3 the prior's run is certified and the regularized
        # posterior's is not: the stack mixes routes, and each row keeps
        # the power and the route it takes on its own
        f, g = {"dw": build_dw_qubit, "sic": build_sic_qubit,
                "dw3": lambda: build_dw_qubits(3)}[frame]()
        coeffs = structure_coeffs(f, g)
        rng = np.random.default_rng(0)
        channel = channel_from_dilation(random_unitary(rng, 2 * f.d),
                                        np.diag([0.7, 0.3]))
        prior = projector(random_unitary(rng, f.d)[:, 0])
        v = state_to_qpr(random_density(rng, f.d, min_eig=0.01), f)
        mixed = (1 - 1e-5) * state_to_qpr(prior, f) + 1e-5 * uniform_vector(f.n)
        stack = np.array([v, channel_to_qpr(channel, f, g) @ mixed])
        exponents = (0.5, -0.5)
        powers, deficient, routes = state_powers(stack, exponents, coeffs)
        if frame == "dw3":
            assert routes == ("lanczos", "eigh")
        else:
            assert routes == ("eigh", "eigh")
        for x, r, power, flag, route in zip(stack, exponents, powers, deficient,
                                            routes):
            (want,), (want_flag,), (want_route,) = state_powers(x[None], (r,),
                                                                coeffs)
            assert max_abs(power - want) <= 1e-13 * max_abs(want)
            assert flag == want_flag
            assert route == want_route

    def test_uncertified_posterior_falls_back_to_eigh(self):
        result, deviation = self._failing_case()
        assert result.eps_used == QPR_EPS_FLOOR
        assert result.root_routes == FAILING_ROUTES
        assert deviation < ORACLE_TOL

    def test_each_run_is_certified_once_at_its_exponent(self, monkeypatch):
        # every Lanczos run gets one error estimate, at the exponent of the
        # power taken from it: the prior's and the mixed prior's at 1/2
        # from their own runs, each posterior's at -1/2
        import qbret.qprcore as qc
        runs, estimates = [], []
        real_lanczos, real_estimate = qc.lanczos, qc.StateSpectrum.error_estimate

        def run(*args):
            runs.append(real_lanczos(*args))
            return runs[-1]

        def estimate(spec, r):
            estimates.append((spec.vectors, r))
            return real_estimate(spec, r)
        monkeypatch.setattr(qc, "lanczos", run)
        monkeypatch.setattr(qc.StateSpectrum, "error_estimate", estimate)
        result, _ = self._failing_case()
        assert len(runs) == len(estimates) == len(result.root_routes) == 4
        for spec, r in zip(runs, (0.5, -0.5, 0.5, -0.5)):
            assert [e for vectors, e in estimates if vectors is spec.vectors] == [r]

    def test_each_state_matrix_is_built_once(self, monkeypatch):
        # one state matrix per state, whichever route its power takes: the
        # prior, the mixed prior and their two posteriors, one of them past
        # a failed run; each stack of rows builds its matrices in one call
        # on either route, and a failed run's eigh reuses its row's matrix
        import qbret.qprcore as qc
        real, stacks = qc.state_matrix, []

        def counted(v, *args, **kwargs):
            stacks.append(int(np.prod(np.shape(v)[:-1])))
            return real(v, *args, **kwargs)
        monkeypatch.setattr(qc, "state_matrix", counted)
        result, _ = self._failing_case()
        assert result.root_routes == FAILING_ROUTES
        assert stacks == [2, 2]
        assert sum(stacks) == len(result.root_routes)

    @pytest.mark.parametrize("case", ["eigh", "fallback"])
    def test_each_state_matrix_is_symmetry_checked_once(self, case, sic,
                                                        monkeypatch):
        # `symmetrized` checks each state matrix, and neither route checks
        # it again: a recovery checks its four state matrices as two stacks
        # of two, whether a regularized sic-qubit one takes them all by eigh
        # or the failing dw-qubits:3 case takes three certified Lanczos runs
        # and one eigh fallback of one matrix
        import qbret.qprcore as qc
        tally = {name: [] for name in ("symmetrized", "hermitian_eig",
                                       "eigh_spectrum")}
        for name, stacks in tally.items():
            def counted(m, *args, _real=getattr(qc, name), _stacks=stacks,
                        **kwargs):
                _stacks.append(int(np.prod(np.shape(m)[:-2])))
                return _real(m, *args, **kwargs)
            monkeypatch.setattr(qc, name, counted)
        if case == "eigh":
            f, g = sic
            rng = np.random.default_rng(24)
            channel = KrausChannel.from_unitary(random_unitary(rng, 2))
            result = _recover(f, g, channel, projector(KET_PLUS))
            assert result.root_routes == ("eigh",) * 4
            assert tally["symmetrized"] == tally["eigh_spectrum"] == [2, 2]
        else:
            result, _ = self._failing_case()
            assert result.root_routes == FAILING_ROUTES
            assert tally["symmetrized"] == [2, 2]
            assert tally["eigh_spectrum"] == [1]
        assert tally["hermitian_eig"] == []
        assert sum(tally["symmetrized"]) == len(result.root_routes)

    def test_plain_lanczos_misses_the_oracle(self, monkeypatch):
        # without the certificate the same recovery is far off the oracle
        import qbret.qprcore as qc
        monkeypatch.setattr(qc, "LANCZOS_RTOL", np.inf)
        result, deviation = self._failing_case()
        assert result.root_routes == ("lanczos",) * 4
        assert deviation > 1e-6

    @pytest.mark.parametrize("frame", ["dw", "dw3"])
    def test_errors_raise_on_both_routes(self, frame, custom_tetra, monkeypatch):
        # a pure state's inverse root is no error: both routes give the same
        # power on the support, flagged deficient
        import qbret.qprcore as qc
        coeffs, v, _ = _lanczos_case(frame, "pure", custom_tetra)
        (power,), (deficient,), _ = state_powers(v[None], (-0.5,), coeffs)
        with monkeypatch.context() as patch:
            patch.setattr(qc, "LANCZOS_MIN_N", np.inf)
            (reference,), (reference_deficient,), _ = state_powers(
                v[None], (-0.5,), coeffs)
        assert deficient and reference_deficient
        assert max_abs(power - reference) <= 1e-12 * max_abs(reference)
        # 1.3 |psi><psi| - 0.3 (1/d) has the eigenvalue -0.3/d
        bad = 1.3 * v - 0.3 * uniform_vector(coeffs.n)
        with pytest.raises(errors.NotPSD):
            state_powers(bad[None], (0.5,), coeffs)
        nan = v.copy()
        nan[0] = np.nan
        with pytest.raises(errors.NotHermitian):
            state_powers(nan[None], (0.5,), coeffs)


def test_result_types_compare_by_identity():
    # frozen dataclasses holding arrays: the generated __eq__ would compare
    # arrays and raise, and __hash__ would hash them
    f, g = build_dw_qubit()
    coeffs = structure_coeffs(f, g)
    channel = builtin_channel("half_swap")
    v = state_to_qpr(projector(KET_PLUS), f)
    s = channel_to_qpr(channel, f, g)
    objects = [channel, petz_hilbert(channel, projector(KET_PLUS)),
               hermitian_eig(np.eye(2)), coeffs, petz_qpr(s, v, coeffs),
               m_power_check(v, 0.5, f, g, coeffs),
               _lanczos_run(v, coeffs)]
    assert isinstance(objects[4], PetzQprResult)
    assert isinstance(objects[5], MPowerReport)
    for obj in objects:
        assert obj == obj and hash(obj) == hash(obj)
        assert len({obj, obj}) == 1
    assert builtin_channel("half_swap") != builtin_channel("half_swap")


class TestClassicalBayes:
    def test_permutation_inverts_to_transpose(self):
        rng = np.random.default_rng(6)
        perm = np.eye(4)[rng.permutation(4)]
        p = rng.random(4) + 0.1
        p /= p.sum()
        np.testing.assert_allclose(classical_bayes(perm, p), perm.T,
                                   atol=1e-14)

    def test_fixes_prior(self):
        rng = np.random.default_rng(7)
        t = rng.random((4, 4)) + 0.1
        t /= t.sum(axis=0)
        p = rng.random(4) + 0.1
        p /= p.sum()
        shat = classical_bayes(t, p)
        np.testing.assert_allclose(shat @ (t @ p), p, atol=1e-14)
        np.testing.assert_allclose(shat.sum(axis=0), np.ones(4), atol=1e-14)

    def test_zero_posterior_entry(self):
        # an unreachable outcome keeps a zero posterior entry even after
        # mixing the prior, so the inversion stays undefined
        s = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(errors.SingularPosterior):
            classical_bayes(s, np.array([0.5, 0.5]), eps=0.0)
        with pytest.raises(errors.SingularPosterior):
            classical_bayes(s, np.array([0.5, 0.5]), eps=1e-8)

    @pytest.mark.parametrize("bad", ["channel", "prior"])
    def test_non_finite_input_raises(self, bad):
        # a NaN or infinite entry is refused, not turned into a NaN matrix
        s, p = np.eye(2), np.array([0.5, 0.5])
        if bad == "channel":
            s = np.array([[np.inf, 0.0], [0.0, 1.0]])
        else:
            p = np.array([np.nan, 1.0])
        with pytest.raises(errors.RepMismatch, match=bad):
            classical_bayes(s, p)

    def test_regularization_lifts_reachable_zero(self):
        s = np.array([[1.0, 0.5], [0.0, 0.5]])
        p = np.array([1.0, 0.0])  # posterior (1, 0) without mixing
        shat = classical_bayes(s, p, eps=1e-8)
        np.testing.assert_allclose(shat.sum(axis=0), np.ones(2), atol=1e-6)


class TestMPowerCheck:
    def test_mixed_state_inverse(self, dw):
        f, g = dw
        report = m_power_check(uniform_vector(4), -1.0, f, g)
        np.testing.assert_allclose(report.lhs, 4 * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(report.rhs, 4 * np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("r", [2.0, 0.5, -0.5, -1.0])
    def test_random_full_rank_states(self, r, dw, sic):
        rng = np.random.default_rng(8)
        for f, g in (dw, sic):
            for _ in range(10):
                rho = random_density(rng, 2, min_eig=0.05)
                report = m_power_check(state_to_qpr(rho, f), r, f, g)
                assert report.max_dev < 1e-8

    def test_square_matches_matrix_product(self, sic):
        f, g = sic
        xi = structure_coeffs(f, g)
        rng = np.random.default_rng(9)
        rho = random_density(rng, 2)
        v = state_to_qpr(rho, f)
        m = x_matrix(v, xi)
        report = m_power_check(v, 2.0, f, g, xi)
        np.testing.assert_allclose(report.rhs, m @ m, atol=1e-12)
        assert report.max_dev < 1e-10

    def test_singular_state_negative_power(self, dw, sic):
        # both sides take the inverse powers of a pure state on its support
        for f, g in (dw, sic):
            for ket in (KET0, KET_PLUS):
                v = state_to_qpr(projector(ket), f)
                for r in (-0.5, -1.0):
                    assert m_power_check(v, r, f, g).max_dev < 1e-10

    def test_pure_state_half_power(self, dw, sic):
        # the power identity holds on rank-deficient states too for r >= 0
        for f, g in (dw, sic):
            v = state_to_qpr(projector(KET_PLUS), f)
            assert m_power_check(v, 0.5, f, g).max_dev < 1e-10

    def test_near_pure_state_half_power(self, dw, sic):
        # an eigenvalue of 1e-14 is below the rank threshold: both sides
        # give it root zero, rather than one side keeping its root 1e-7
        rho = qubit_state(np.arcsin(1e-7), 0.7, 0.3)
        for f, g in (dw, sic):
            assert m_power_check(state_to_qpr(rho, f), 0.5, f, g).max_dev < 1e-12

    def test_invalid_vector_rejected(self, dw):
        f, g = dw
        bad = np.array([0.9, 0.9, -0.4, -0.4])  # normalized but not a state
        with pytest.raises(errors.NotPSD):
            m_power_check(bad, 0.5, f, g)

    def test_stack_checks_each_row(self, dw, sic):
        # a (k, n) stack, a pure state among full-rank ones, gives (k, n, n)
        # sides, each the report of its row alone
        rng = np.random.default_rng(10)
        states = np.array([random_density(rng, 2, min_eig=0.05) for _ in range(5)]
                          + [projector(KET_PLUS)])
        for f, g in (dw, sic):
            vectors = state_to_qpr(states, f)
            np.testing.assert_allclose(reconstruct_state(vectors, g), states,
                                       atol=1e-12)
            with pytest.raises(errors.RepMismatch):
                reconstruct_state(vectors[None], g)
            for r in (0.5, -1.0):
                report = m_power_check(vectors, r, f, g)
                rows = [m_power_check(v, r, f, g) for v in vectors]
                assert report.lhs.shape == report.rhs.shape == (6, 4, 4)
                for side in ("lhs", "rhs"):
                    np.testing.assert_allclose(
                        getattr(report, side),
                        [getattr(row, side) for row in rows], atol=1e-12)
                assert report.max_dev < 1e-10

    @given(st.floats(min_value=0.1, max_value=1.5),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_exponents_add_on_state_matrices(self, a, b):
        f, g = build_sic_qubit()
        xi = structure_coeffs(f, g)
        rng = np.random.default_rng(12)
        rho = random_density(rng, 2, min_eig=0.1)
        v = state_to_qpr(rho, f)

        def power(r):
            return x_matrix(state_powers(v[None], (r,), xi)[0][0], xi)
        assert max_abs(power(a) @ power(b) - power(a + b)) < 1e-9
