
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbret import errors
from qbret.frames import (
    StructureCoefficients,
    build_dw_qubit,
    build_dw_qubits,
    build_sic_qubit,
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
from qbret.matcore import ORACLE_TOL, max_abs, rank_threshold
from qbret.qprcore import (
    QPR_EPS_FLOOR,
    adjoint_qpr,
    born,
    channel_to_qpr,
    classical_bayes,
    k_matrix,
    m_power_check,
    petz_qpr,
    povm_to_qpr,
    reconstruct_state,
    state_power,
    state_to_qpr,
    uniform_vector,
    x_matrix,
)

SQ2, SQ3 = np.sqrt(2.0), np.sqrt(3.0)

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

    @pytest.mark.parametrize("frame_name", ["dw", "sic"])
    def test_hadamard_pattern(self, frame_name, dw, sic):
        f, g = dw if frame_name == "dw" else sic
        s = channel_to_qpr(builtin_channel("hadamard"), f, g)
        expected = 0.5 * np.array([[1, 1, 1, -1], [1, -1, 1, 1],
                                   [1, 1, -1, 1], [-1, 1, 1, 1]])
        np.testing.assert_allclose(s, expected, atol=1e-14)

    def test_example_gate_dw(self, dw):
        f, g = dw
        s = channel_to_qpr(builtin_channel("u_eg"), f, g)
        expected = np.array([
            [9, SQ3 - 6, 4 - 3 * SQ3, 2 * SQ3 + 9],
            [-SQ3 - 6, 9, 9 - 2 * SQ3, 3 * SQ3 + 4],
            [3 * SQ3 + 4, 2 * SQ3 + 9, -3, 6 - 5 * SQ3],
            [9 - 2 * SQ3, 4 - 3 * SQ3, 5 * SQ3 + 6, -3]]) / 16
        np.testing.assert_allclose(s, expected, atol=1e-13)

    def test_example_gate_sic(self, sic):
        f, g = sic
        s = channel_to_qpr(builtin_channel("u_eg"), f, g)
        expected = np.array([
            [-3, 5 * SQ3 + 6, 4 - 3 * SQ3, 9 - 2 * SQ3],
            [6 - 5 * SQ3, -3, 2 * SQ3 + 9, 3 * SQ3 + 4],
            [3 * SQ3 + 4, 9 - 2 * SQ3, 9, -SQ3 - 6],
            [2 * SQ3 + 9, 4 - 3 * SQ3, SQ3 - 6, 9]]) / 16
        np.testing.assert_allclose(s, expected, atol=1e-13)

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
        np.testing.assert_allclose(adjoint_qpr(s, "nq", None), reference,
                                   atol=1e-12)

    def test_sic_correction_matches_hilbert_adjoint(self, sic):
        f, g = sic
        ch = builtin_channel("half_swap")
        s = channel_to_qpr(ch, f, g)
        reference = channel_to_qpr(ch.adjoint, f, g)
        np.testing.assert_allclose(adjoint_qpr(s, "sp", None), reference,
                                   atol=1e-12)
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
            adjoint = adjoint_qpr(s, "custom", structure_coeffs(f, g).gram_roots)
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
            np.testing.assert_allclose(adjoint_qpr(s, "custom", dw_roots), s.T,
                                       atol=1e-13)
            s = channel_to_qpr(ch, *sic)
            np.testing.assert_allclose(adjoint_qpr(s, "custom", sic_roots),
                                       adjoint_qpr(s, "sp", None), atol=1e-13)

    def test_unital_sic_adjoint_is_plain_transpose(self, sic):
        f, g = sic
        s = channel_to_qpr(builtin_channel("hadamard"), f, g)
        np.testing.assert_allclose(adjoint_qpr(s, "sp", None), s.T, atol=1e-12)

    def test_half_swap_correction_rows(self, sic):
        f, g = sic
        s = channel_to_qpr(builtin_channel("half_swap"), f, g)
        k = k_matrix(s, 2)
        expected_row = np.array([-1, 1, -1, 1]) / (4 * SQ3)
        for row in k:
            np.testing.assert_allclose(row, expected_row, atol=1e-12)

    def test_k_zero_for_unitaries(self, sic):
        f, g = sic
        for name in ("identity", "hadamard", "pauli_x"):
            s = channel_to_qpr(builtin_channel(name), f, g)
            assert max_abs(k_matrix(s)) < 1e-12

    def test_k_rows_identical_and_tied_to_row_sums(self, dw):
        f, g = dw
        s = channel_to_qpr(builtin_channel("full_swap"), f, g)
        k = k_matrix(s, 2)
        assert max_abs(k - k[0][None, :]) == 0.0
        np.testing.assert_allclose(k[0], (s.sum(axis=1) - 1) / 2, atol=1e-15)


class TestPetzQpr:
    def test_half_swap_plus_prior_dw(self, dw):
        f, g = dw
        xi = structure_coeffs(f, g)
        s = channel_to_qpr(builtin_channel("half_swap"), f, g)
        v = state_to_qpr(projector(KET_PLUS), f)
        result = petz_qpr(s, v, xi, kind="nq")
        expected = 0.5 * np.array([[1, 1, 1, 1], [1, 1, 1, 1],
                                   [0, 0, 0, 0], [0, 0, 0, 0]])
        assert result.eps_used == 0.0
        np.testing.assert_allclose(result.matrix, expected, atol=1e-10)

    def test_half_swap_plus_prior_sic(self, sic):
        f, g = sic
        xi = structure_coeffs(f, g)
        s = channel_to_qpr(builtin_channel("half_swap"), f, g)
        v = state_to_qpr(projector(KET_PLUS), f)
        result = petz_qpr(s, v, xi, kind="sp")
        expected = np.array([[SQ3 + 3] * 4, [SQ3 + 3] * 4,
                             [3 - SQ3] * 4, [3 - SQ3] * 4]) / 12
        np.testing.assert_allclose(result.matrix, expected, atol=1e-10)

    def test_unitary_retrodicts_to_transpose(self, dw, sic):
        rng = np.random.default_rng(2)
        for f, g in (dw, sic):
            xi = structure_coeffs(f, g)
            s = channel_to_qpr(builtin_channel("pauli_z"), f, g)
            for _ in range(3):
                v = state_to_qpr(random_density(rng, 2, min_eig=0.05), f)
                result = petz_qpr(s, v, xi, kind=f.kind)
                np.testing.assert_allclose(result.matrix, s.T, atol=1e-9)

    def test_erasure_restores_prior_in_every_column(self, dw):
        f, g = dw
        xi = structure_coeffs(f, g)
        gamma = qubit_state(np.pi / 16, np.pi / 5, np.pi / 8)
        beta = qubit_state(7 * np.pi / 16, 3 * np.pi / 5, np.pi / 6)
        s = channel_to_qpr(builtin_channel("full_swap", ancilla=beta), f, g)
        v = state_to_qpr(gamma, f)
        result = petz_qpr(s, v, xi, kind="nq")
        np.testing.assert_allclose(result.matrix, np.tile(v, (4, 1)).T,
                                   atol=1e-9)

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
        assert result.extrapolation_dev is not None
        assert result.support_matrix is not None
        # the regularized route is the morphism of the equally regularized
        # Hilbert-side recovery map
        oracle = channel_to_qpr(petz_hilbert(ch, projector(KET1),
                                             eps=result.eps_used), f, g)
        assert max_abs(result.matrix - oracle) < ORACLE_TOL
        # regularized columns stay stochastic; the support route gives up
        # trace preservation off the posterior support, and the two routes
        # genuinely disagree there
        np.testing.assert_allclose(result.matrix.sum(axis=0), np.ones(4),
                                   atol=ORACLE_TOL)
        assert result.support_dev > 0.1

    def test_noncanonical_frame_still_commutes(self, dw, sic):
        # a labelwise blend of the two canonical frames is neither of the
        # two closed-form families; its dual comes from the Gram inverse
        # and its adjoint from the Gram rule
        from qbret.frames import Frame, DualFrame, structure_coeffs, validate_frame
        ops = 0.7 * dw[0].ops + 0.3 * sic[0].ops
        gram = np.einsum("jab,kba->jk", ops, ops).real
        dual_ops = np.einsum("jk,kab->jab", np.linalg.inv(gram), ops)
        f = Frame(name="blend", d=2, labels=tuple(range(4)), ops=ops,
                  kind="custom")
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
                assert max_abs(adjoint_qpr(s, "custom", xi.gram_roots)
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
def test_product_frame_recovery_stays_factored(n_qubits, monkeypatch):
    # dense xi would be 134 MB at three qubits and 34 GB at four
    f, g = build_dw_qubits(n_qubits)
    coeffs = structure_coeffs(f, g)
    monkeypatch.setattr(StructureCoefficients, "xi", property(
        lambda self: pytest.fail("petz_qpr built the dense xi tensor")))
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
    assert set(vars(coeffs)) == {"factors", "frame_name", "e", "kind",
                                 "gram_roots"}
    assert coeffs.gram_roots is None  # the dw Gram is a multiple of 1
    stored = [*coeffs.factors, coeffs.e, *(coeffs.gram_roots or ())]
    assert sum(t.nbytes for t in stored) < 2 ** 20


@pytest.mark.parametrize("frame", ["sic", "custom", "classical"])
def test_recovery_builds_no_xi(frame, custom_tetra, monkeypatch):
    # every pair, not only products, computes from eta alone
    monkeypatch.setattr(StructureCoefficients, "xi", property(
        lambda self: pytest.fail("petz_qpr built the dense xi tensor")))
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
        # regularization lifts; the primary must meet the oracle built at
        # the same eps and agree with the eps/10 probe
        for seed in range(draws):
            rng = np.random.default_rng(seed)
            f, g = _frame_pair(frame, rng, custom_tetra)
            prior = projector(random_unitary(rng, f.d)[:, 0])
            channel = KrausChannel.from_unitary(random_unitary(rng, f.d))
            result = _recover(f, g, channel, prior)
            assert result.eps_used == QPR_EPS_FLOOR
            assert result.converged, (seed, result.extrapolation_dev)
            oracle = petz_hilbert(channel, prior, eps=result.eps_used)
            assert result.support_projected == oracle.support_projected
            deviation = max_abs(result.matrix - channel_to_qpr(oracle, f, g))
            assert deviation < ORACLE_TOL, seed

    @pytest.mark.parametrize("frame", ["dw", "sic", "custom"])
    def test_posterior_kernel_for_every_prior_meets_the_oracle(
            self, frame, custom_tetra):
        # a full swap with a pure ancilla replaces every state by the
        # ancilla: the posterior keeps its kernel after regularization and
        # both sides invert on its support.  The recovery then depends on
        # eps to first order (every column is the regularized prior), so
        # no eps/10 probe is taken and the result counts as converged.
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
            assert result.extrapolation_dev is None and result.converged
            assert max_abs(result.matrix - channel_to_qpr(oracle, f, g)) < ORACLE_TOL


class TestFactorizationCount:
    """Each matrix root factors its matrix once, by eigh: the SIC roots go
    through the frame Gram, so a full-rank SIC recovery runs two eigh calls,
    as a dw recovery does.  The scipy counters stay at zero because no
    qbret module imports scipy (`TestImportCost` in test_cli.py)."""

    @staticmethod
    def _count_petz(pair, monkeypatch):
        import scipy.linalg

        import qbret.matcore as mc
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
        count(mc.np.linalg, "eigh")
        result = petz_qpr(s, v, xi, kind=f.kind)
        assert result.eps_used == 0.0
        return tally

    def test_full_rank_sic_runs_no_schur_form(self, sic, monkeypatch):
        assert self._count_petz(sic, monkeypatch) == {
            "schur": 0, "fractional_matrix_power": 0, "eigvals": 0, "eigh": 2}

    def test_dw_runs_no_schur_form(self, dw, monkeypatch):
        assert self._count_petz(dw, monkeypatch) == {
            "schur": 0, "fractional_matrix_power": 0, "eigvals": 0, "eigh": 2}


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
                power, deficient = state_power(vec, r, coeffs, singular="support")
                assert deficient == rank_one
                power = x_matrix(power, coeffs)
                assert max_abs(power - expected) <= 1e-12 * grow * max_abs(expected)
        assert state_power(v, 0.5, coeffs)[1] == pure

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


class TestClassicalBayes:
    def test_binary_symmetric_self_inverse(self):
        s = np.array([[0.75, 0.25], [0.25, 0.75]])
        np.testing.assert_allclose(classical_bayes(s, np.array([0.5, 0.5])),
                                   s, atol=1e-15)

    def test_permutation_inverts_to_transpose(self):
        rng = np.random.default_rng(6)
        perm = np.eye(4)[rng.permutation(4)]
        p = rng.random(4) + 0.1
        p /= p.sum()
        np.testing.assert_allclose(classical_bayes(perm, p), perm.T,
                                   atol=1e-14)

    def test_half_swap_quasi_input_dw(self, dw):
        f, g = dw
        s = channel_to_qpr(builtin_channel("half_swap"), f, g)
        v = state_to_qpr(projector(KET_PLUS), f)
        expected = np.array([
            [1, (3 - SQ2) / 7, 1, (SQ2 + 3) / 7],
            [0, (SQ2 + 4) / 7, 0, (4 - SQ2) / 7],
            [0, 0, 0, 0],
            [0, 0, 0, 0]])
        np.testing.assert_allclose(classical_bayes(s, v), expected, atol=1e-12)

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

    def test_regularization_lifts_reachable_zero(self):
        s = np.array([[1.0, 0.5], [0.0, 0.5]])
        p = np.array([1.0, 0.0])  # posterior (1, 0) without mixing
        shat = classical_bayes(s, p, eps=1e-8)
        np.testing.assert_allclose(shat.sum(axis=0), np.ones(2), atol=1e-6)


class TestBornViolations:
    def test_rotation_counterexample_dw(self, dw):
        f, g = dw
        u = 0.5j * np.array([[SQ3, -1], [1, SQ3]], dtype=complex)
        s = channel_to_qpr(KrausChannel.from_unitary(u), f, g)
        v_plus = state_to_qpr(projector(KET_PLUS), f)
        scl = classical_bayes(s, v_plus)
        value = born(scl @ v_plus, povm_to_qpr(projector(KET0), g))
        assert abs(value - (1 + SQ3) / 2) < 1e-12
        assert value > 1.0

    def test_rotation_counterexample_sic(self, sic):
        f, g = sic
        u = 0.5j * np.array([[SQ3, -1], [1, SQ3]], dtype=complex)
        s = channel_to_qpr(KrausChannel.from_unitary(u), f, g)
        v_plus = state_to_qpr(projector(KET_PLUS), f)
        scl = classical_bayes(s, v_plus)
        value = born(scl @ state_to_qpr(projector(KET0), f),
                     povm_to_qpr(projector(KET_PLUS), g))
        assert abs(value - (2 - 5 * SQ3) / 13) < 1e-12
        assert value < 0.0


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

    def test_singular_state_negative_power(self, dw):
        f, g = dw
        v = state_to_qpr(projector(KET0), f)
        with pytest.raises(errors.Singular):
            m_power_check(v, -0.5, f, g)

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
            return x_matrix(state_power(v, r, xi)[0], xi)
        assert max_abs(power(a) @ power(b) - power(a + b)) < 1e-9
