import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbret import errors
from qbret.hilbert import (
    BUILTIN_NAMES,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    KrausChannel,
    builtin_channel,
    builtin_gates,
    channel_from_dilation,
    petz_hilbert,
    projector,
    qubit_state,
    random_density,
    random_unitary,
)
from qbret.matcore import dagger, max_abs, psd_sqrt

angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi,
                   allow_nan=False, allow_infinity=False)


class TestQubitState:
    def test_north_pole(self):
        np.testing.assert_allclose(qubit_state(np.pi / 2, 0, 0),
                                   projector(KET0), atol=1e-15)

    def test_south_pole(self):
        np.testing.assert_allclose(qubit_state(0, 0, 0),
                                   projector(KET1), atol=1e-15)

    def test_generic_spectrum(self):
        omega = np.pi / 16
        beta = qubit_state(omega, np.pi / 5, np.pi / 3)
        assert max_abs(beta - dagger(beta)) < 1e-15
        assert abs(np.trace(beta) - 1) < 1e-15
        w = np.linalg.eigvalsh(beta)
        np.testing.assert_allclose(
            w, sorted([np.sin(omega) ** 2, np.cos(omega) ** 2]), atol=1e-14)

    @given(omega=angles, theta=angles, phi=angles)
    @settings(max_examples=50, deadline=None)
    def test_always_a_state(self, omega, theta, phi):
        beta = qubit_state(omega, theta, phi)
        assert abs(np.trace(beta) - 1) < 1e-12
        assert np.linalg.eigvalsh(beta)[0] > -1e-12


class TestDilation:
    def test_full_swap_is_replacement(self):
        rng = np.random.default_rng(0)
        ch = builtin_channel("full_swap", ancilla=projector(KET1))
        for _ in range(5):
            rho = random_density(rng, 2)
            np.testing.assert_allclose(ch.apply(rho), projector(KET1),
                                       atol=1e-12)

    def test_trivial_dilation_is_identity(self):
        rng = np.random.default_rng(1)
        beta = random_density(rng, 2)
        ch = channel_from_dilation(np.eye(4, dtype=complex), beta)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(ch.apply(rho), rho, atol=1e-12)

    def test_half_swap_computational_inputs(self):
        ch = builtin_channel("half_swap")  # ancilla defaults to |1><1|
        np.testing.assert_allclose(ch.apply(projector(KET1)), projector(KET1),
                                   atol=1e-12)
        np.testing.assert_allclose(ch.apply(projector(KET0)), np.eye(2) / 2,
                                   atol=1e-12)

    def test_matches_partial_trace_on_random_states(self):
        from qbret.matcore import partial_trace_b
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 4)
        beta = random_density(rng, 2)
        ch = channel_from_dilation(u, beta)
        for _ in range(20):
            rho = random_density(rng, 2)
            direct = partial_trace_b(u @ np.kron(rho, beta) @ dagger(u), 2, 2)
            np.testing.assert_allclose(ch.apply(rho), direct, atol=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(3)
        ch = channel_from_dilation(random_unitary(rng, 4),
                                   random_density(rng, 2))
        total = sum(dagger(k) @ k for k in ch.kraus)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(errors.NotUnitary):
            channel_from_dilation(np.ones((4, 4), dtype=complex),
                                  projector(KET0))

    def test_rejects_bad_ancilla(self):
        with pytest.raises(errors.BadAncilla):
            channel_from_dilation(np.eye(4, dtype=complex),
                                  np.diag([2.0, -1.0]).astype(complex))

    def test_rejects_a_non_square_unitary(self):
        # a 2 x 3 isometry passes U U^dag = 1 but dilates nothing
        isometry = np.eye(2, 3, dtype=complex)
        with pytest.raises(errors.DimensionMismatch):
            channel_from_dilation(isometry, np.eye(1, dtype=complex))
        with pytest.raises(errors.DimensionMismatch):
            KrausChannel.from_unitary(isometry)


class TestApplyAdjoint:
    def test_half_swap_plus_input(self):
        ch = builtin_channel("half_swap")
        out = ch.apply(projector(KET_PLUS))
        expected = np.array([[0.25, 1 / (2 * np.sqrt(2))],
                             [1 / (2 * np.sqrt(2)), 0.75]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_pauli_z_on_plus(self):
        ch = builtin_channel("pauli_z")
        np.testing.assert_allclose(ch.apply(projector(KET_PLUS)),
                                   projector(KET_MINUS), atol=1e-12)

    def test_adjoint_unital(self):
        rng = np.random.default_rng(4)
        ch = channel_from_dilation(random_unitary(rng, 4),
                                   random_density(rng, 2))
        np.testing.assert_allclose(ch.adjoint(np.eye(2)), np.eye(2), atol=1e-12)

    def test_unitary_adjoint_is_inverse_conjugation(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 2)
        ch = KrausChannel.from_unitary(u)
        sigma = random_density(rng, 2)
        np.testing.assert_allclose(ch.adjoint(sigma), dagger(u) @ sigma @ u,
                                   atol=1e-12)

    def test_defining_relation(self):
        # Tr[E[rho] sigma] = Tr[E^dag[sigma] rho] on random pairs
        rng = np.random.default_rng(6)
        for _ in range(5):
            ch = channel_from_dilation(random_unitary(rng, 4),
                                       random_density(rng, 2))
            for _ in range(10):
                rho = random_density(rng, 2)
                sigma = random_density(rng, 2)
                lhs = np.trace(ch.apply(rho) @ sigma)
                rhs = np.trace(ch.adjoint(sigma) @ rho)
                assert abs(lhs - rhs) < 1e-12

    def test_half_swap_adjoint_brute_force(self):
        ch = builtin_channel("half_swap")
        t = ch.adjoint(projector(KET1))
        assert max_abs(t - dagger(t)) < 1e-12
        rng = np.random.default_rng(7)
        for _ in range(10):
            rho = random_density(rng, 2)
            lhs = np.trace(ch.apply(rho) @ projector(KET1))
            rhs = np.trace(t @ rho)
            assert abs(lhs - rhs) < 1e-12

    def test_dimension_mismatch(self):
        ch = builtin_channel("hadamard")
        with pytest.raises(errors.DimensionMismatch):
            ch.apply(np.eye(3, dtype=complex))


class TestStacks:
    """Every map acts elementwise on a (m, d, d) stack."""

    @pytest.fixture(scope="class")
    def maps(self):
        rng = np.random.default_rng(8)
        ch = channel_from_dilation(random_unitary(rng, 8),
                                   random_density(rng, 2))
        recovery = petz_hilbert(ch, random_density(rng, 4))
        stack = np.array([random_density(rng, 4) for _ in range(6)])
        return {"apply": ch.apply, "adjoint": ch.adjoint,
                "petz": recovery.apply}, stack

    @pytest.mark.parametrize("name", ["apply", "adjoint", "petz"])
    def test_matches_each_element(self, maps, name):
        fns, stack = maps
        out = fns[name](stack)
        assert out.shape == stack.shape
        for x, y in zip(stack, out):
            assert max_abs(fns[name](x) - y) < 1e-15

    @pytest.mark.parametrize("name", ["apply", "adjoint", "petz"])
    def test_wrong_dimension_raises(self, maps, name):
        fns, _ = maps
        with pytest.raises(errors.DimensionMismatch):
            fns[name](np.zeros((3, 5, 5), dtype=complex))


class TestPetzSandwich:
    """`PetzMap.apply` against its per-matrix definition P E^dag(I x I) P,
    E^dag the adjoint of the channel, on one matrix, an (m, d, d) stack
    and a (2, m, d, d) stack, full-rank and regularized.  A regularized
    posterior's inverse root I reaches about eps^(-1/2), so the bound is
    relative to max|P|^2 max|I|^2 max|x|, the size of the terms summed."""

    @staticmethod
    def _recovery(d, regularized):
        rng = np.random.default_rng(30 + d)
        if regularized:
            # a pure prior through a unitary: a pure posterior
            ch = KrausChannel.from_unitary(random_unitary(rng, d))
            prior = projector(random_unitary(rng, d)[:, 0])
        else:
            ch = channel_from_dilation(random_unitary(rng, 2 * d),
                                       np.diag([0.7, 0.3]))
            prior = random_density(rng, d, min_eig=0.01)
        recovery = petz_hilbert(ch, prior, eps=1e-5)
        assert (recovery.eps_used > 0) == regularized
        return recovery, ch, rng

    @pytest.mark.parametrize("shape", [(), (5,), (2, 5)],
                             ids=["one", "stack", "stack-of-stacks"])
    @pytest.mark.parametrize("regularized", [False, True],
                             ids=["full-rank", "regularized"])
    @pytest.mark.parametrize("d", [2, 8])
    def test_matches_the_per_matrix_sandwich(self, d, regularized, shape):
        recovery, ch, rng = self._recovery(d, regularized)
        x = (rng.normal(size=(*shape, d, d))
             + 1j * rng.normal(size=(*shape, d, d)))
        p, i = recovery.sqrt_prior, recovery.inv_sqrt_post
        reference = np.array([p @ ch.adjoint(i @ m @ i) @ p
                              for m in x.reshape(-1, d, d)]).reshape(x.shape)
        out = recovery.apply(x)
        assert out.shape == x.shape
        # roundoff scales with the factors, not with the result: the
        # regularized inverse roots here reach 2.4e2 (d = 2) and 8.6e2 (d = 8)
        scale = max_abs(p) ** 2 * max_abs(i) ** 2 * max_abs(x)
        assert max_abs(out - reference) <= 1e-14 * scale


class TestPetzKraus:
    """The recovery's Kraus stack R_l = sqrt(g) k_l^dag P^{-1/2} is complete
    on the posterior's support: sum R^dag R is 1 for a full-rank and a
    regularized recovery (the cases of `TestPetzSandwich`), and the
    projector onto the support of E(g) for a support-projected one (a swap
    with a pure ancilla, whose posterior is that ancilla).  As in
    `TestPetzSandwich` the bound is relative to max|P|^2 max|I|^2 where
    that exceeds 1: the regularized sum deviates by 1.9e-12 (d = 2) and
    1.9e-10 (d = 8).  The inherited adjoint is tied to `apply` by
    Tr[R(x) y] = Tr[x R^dag(y)]."""

    @staticmethod
    def _recovery(d, case):
        if case != "support-projected":
            recovery, _, _ = TestPetzSandwich._recovery(d, case == "regularized")
            return recovery, np.eye(d)
        rng = np.random.default_rng(40 + d)
        ancilla = projector(random_unitary(rng, d)[:, 0])
        # the swap of system and ancilla, |a b> -> |b a>
        swap = np.eye(d * d).reshape((d,) * 4).transpose(1, 0, 2, 3).reshape(d * d, d * d)
        ch = channel_from_dilation(swap, ancilla)
        recovery = petz_hilbert(ch, random_density(rng, d, min_eig=0.01))
        assert recovery.support_projected
        return recovery, ancilla

    CASES = ["full-rank", "regularized", "support-projected"]

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("d", [2, 8])
    def test_complete_on_the_support(self, d, case):
        recovery, support = self._recovery(d, case)
        r = recovery.kraus
        assert r.shape[1:] == (d, d) and r.flags.c_contiguous
        scale = max_abs(recovery.sqrt_prior) ** 2 * max_abs(recovery.inv_sqrt_post) ** 2
        assert max_abs(np.einsum("lba,lbc->ac", r.conj(), r) - support) <= (
            1e-14 * max(1.0, scale))

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("d", [2, 8])
    def test_adjoint_is_dual_to_apply(self, d, case):
        recovery, _ = self._recovery(d, case)
        rng = np.random.default_rng(50 + d)
        x, y = rng.normal(size=(2, 5, d, d)) + 1j * rng.normal(size=(2, 5, d, d))
        lhs = np.einsum("...ab,...ba->...", recovery.apply(x), y)
        rhs = np.einsum("...ab,...ba->...", x, recovery.adjoint(y))
        assert max_abs(lhs - rhs) < 1e-12 * max(1.0, max_abs(lhs))


class TestKrausReference:
    """The superoperator products against the Kraus sums they replace,
    built here from `ch.kraus`: d = 2 with four Kraus operators, d = 8
    with four (a 16 x 16 dilation with a mixed qubit ancilla, the
    three-qubit shape) and a (2, 3, d, d) stack."""

    CASES = [(2, (5,)), (8, (5,)), (2, (2, 3)), (8, (2, 3))]

    @staticmethod
    def _case(d, shape):
        rng = np.random.default_rng(20 + d + len(shape))
        ch = channel_from_dilation(random_unitary(rng, 2 * d),
                                   random_density(rng, 2))
        assert len(ch.kraus) == 4
        x = (rng.normal(size=(*shape, d, d))
             + 1j * rng.normal(size=(*shape, d, d)))
        y = (rng.normal(size=(*shape, d, d))
             + 1j * rng.normal(size=(*shape, d, d)))
        return ch, x, y

    @pytest.mark.parametrize("d,shape", CASES)
    def test_apply_is_the_kraus_sum(self, d, shape):
        ch, x, _ = self._case(d, shape)
        reference = sum(k @ x @ k.conj().T for k in ch.kraus)
        assert max_abs(ch.apply(x) - reference) < 1e-14

    @pytest.mark.parametrize("d,shape", CASES)
    def test_adjoint_is_the_kraus_sum(self, d, shape):
        ch, x, _ = self._case(d, shape)
        reference = sum(k.conj().T @ x @ k for k in ch.kraus)
        assert max_abs(ch.adjoint(x) - reference) < 1e-14

    @pytest.mark.parametrize("d,shape", CASES)
    def test_duality_and_trace_preservation(self, d, shape):
        ch, x, y = self._case(d, shape)
        # Tr[E(x) y] = Tr[x E^dag(y)] elementwise, and Tr E(x) = Tr x
        lhs = np.einsum("...ab,...ba->...", ch.apply(x), y)
        rhs = np.einsum("...ab,...ba->...", x, ch.adjoint(y))
        assert max_abs(lhs - rhs) < 1e-12
        assert max_abs(np.trace(ch.apply(x), axis1=-2, axis2=-1)
                       - np.trace(x, axis1=-2, axis2=-1)) < 1e-12


class TestPetzHilbert:
    def test_unitary_inverts(self):
        rng = np.random.default_rng(8)
        u = random_unitary(rng, 2)
        ch = KrausChannel.from_unitary(u)
        recovery = petz_hilbert(ch, random_density(rng, 2, min_eig=0.1))
        for _ in range(5):
            sigma = random_density(rng, 2)
            np.testing.assert_allclose(recovery.apply(sigma),
                                       dagger(u) @ sigma @ u, atol=1e-10)

    def test_unitary_recovery_is_prior_independent(self):
        rng = np.random.default_rng(14)
        u = random_unitary(rng, 2)
        ch = KrausChannel.from_unitary(u)
        probes = [random_density(rng, 2) for _ in range(3)]
        reference = None
        for _ in range(5):
            recovery = petz_hilbert(ch, random_density(rng, 2, min_eig=0.05))
            images = [recovery.apply(p) for p in probes]
            if reference is None:
                reference = images
            else:
                for got, want in zip(images, reference):
                    assert max_abs(got - want) < 1e-8

    def test_erasure_recovers_prior(self):
        rng = np.random.default_rng(9)
        gamma = qubit_state(np.pi / 16, np.pi / 5, np.pi / 8)
        ch = builtin_channel("full_swap",
                             ancilla=qubit_state(7 * np.pi / 16, 3 * np.pi / 5,
                                                 np.pi / 6))
        recovery = petz_hilbert(ch, gamma)
        for _ in range(5):
            sigma = random_density(rng, 2)
            np.testing.assert_allclose(recovery.apply(sigma), gamma, atol=1e-10)

    def test_half_swap_pure_plus_prior_erases_back(self):
        ch = builtin_channel("half_swap")
        gamma = projector(KET_PLUS)
        recovery = petz_hilbert(ch, gamma)
        assert recovery.eps_used == 0.0  # the posterior is full rank here
        rng = np.random.default_rng(10)
        for _ in range(5):
            sigma = random_density(rng, 2)
            np.testing.assert_allclose(recovery.apply(sigma), gamma, atol=1e-10)

    def test_prior_is_fixed_point(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ch = channel_from_dilation(random_unitary(rng, 4),
                                       random_density(rng, 2))
            gamma = random_density(rng, 2, min_eig=0.05)
            recovery = petz_hilbert(ch, gamma)
            np.testing.assert_allclose(recovery.apply(ch.apply(gamma)), gamma,
                                       atol=1e-8)

    def test_singular_posterior_requires_regularization(self):
        ch = builtin_channel("full_swap", ancilla=projector(KET1))
        with pytest.raises(errors.SingularPosterior):
            petz_hilbert(ch, projector(KET0), eps=0.0)
        recovery = petz_hilbert(ch, projector(KET0), eps=1e-8)
        assert recovery.eps_used == 1e-8

    def test_trace_preserving_on_states(self):
        rng = np.random.default_rng(12)
        ch = channel_from_dilation(random_unitary(rng, 4),
                                   random_density(rng, 2))
        recovery = petz_hilbert(ch, random_density(rng, 2, min_eig=0.1))
        for _ in range(10):
            sigma = random_density(rng, 2)
            assert abs(np.trace(recovery.apply(sigma)) - 1.0) < 1e-9


class TestFactorizationCount:
    """The oracle factors each matrix once, and the prior with its
    posterior as one stack in one eigh call; a regularized prior shares the
    prior's eigenvectors, so only its posterior takes a second call.
    `_count_eigh` gives (eigh calls, matrices factored, result), a stack
    counting each of its matrices."""

    @staticmethod
    def _count_eigh(monkeypatch, build):
        real, stacks = np.linalg.eigh, []

        def eigh(a, *args, **kwargs):
            stacks.append(int(np.prod(np.shape(a)[:-2])))
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        result = build()
        monkeypatch.undo()
        return len(stacks), sum(stacks), result

    def test_full_rank_prior_takes_two(self, monkeypatch):
        rng = np.random.default_rng(15)
        ch = channel_from_dilation(random_unitary(rng, 4), random_density(rng, 2))
        prior = random_density(rng, 2, min_eig=0.05)
        calls, matrices, recovery = self._count_eigh(
            monkeypatch, lambda: petz_hilbert(ch, prior))
        assert recovery.eps_used == 0.0
        assert (calls, matrices) == (1, 2)

    def test_regularized_pure_prior_takes_three(self, monkeypatch):
        rng = np.random.default_rng(16)
        ch = KrausChannel.from_unitary(random_unitary(rng, 2))
        prior = projector(random_unitary(rng, 2)[:, 0])
        calls, matrices, recovery = self._count_eigh(
            monkeypatch, lambda: petz_hilbert(ch, prior, eps=1e-5))
        assert recovery.eps_used == 1e-5 and not recovery.support_projected
        assert (calls, matrices) == (2, 3)
        # the prior's own eigenvectors give the root of the mixed prior
        mixed = (1 - 1e-5) * prior + 1e-5 * np.eye(2) / 2
        assert max_abs(recovery.sqrt_prior - psd_sqrt(mixed)[0]) < 1e-13

    def test_dilation_takes_one(self, monkeypatch):
        rng = np.random.default_rng(17)
        u, beta = random_unitary(rng, 4), random_density(rng, 2)
        calls, matrices, ch = self._count_eigh(
            monkeypatch, lambda: channel_from_dilation(u, beta))
        assert len(ch.kraus) == 4
        assert (calls, matrices) == (1, 1)


class TestBuiltins:
    def test_hadamard_involution(self):
        u = builtin_gates()["hadamard"]
        np.testing.assert_allclose(u @ u, np.eye(2), atol=1e-15)

    def test_half_swap_fixes_11(self):
        u = builtin_gates()["half_swap"]
        ket11 = np.kron(KET1, KET1)
        np.testing.assert_allclose(u @ ket11, ket11, atol=1e-15)

    def test_example_gate_unitary(self):
        u = builtin_gates()["u_eg"]
        assert max_abs(u @ dagger(u) - np.eye(4)) < 1e-12

    def test_catalog_names(self):
        assert set(builtin_gates()) == {"identity", "pauli_x", "pauli_y",
                                        "pauli_z", "hadamard", "half_swap",
                                        "full_swap", "u_eg"}

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_channel("nope")

    @pytest.mark.parametrize("name", ["identity", "pauli_x", "pauli_y",
                                      "pauli_z", "hadamard"])
    def test_single_qubit_gate_refuses_an_ancilla(self, name):
        # an ancilla the gate would ignore is refused, not dropped
        with pytest.raises(errors.BadAncilla, match=name):
            builtin_channel(name, ancilla=projector(KET1))

    def test_catalog_gates_are_unitary(self):
        gates = builtin_gates()
        assert tuple(gates) == BUILTIN_NAMES
        for name, u in gates.items():
            assert max_abs(u @ dagger(u) - np.eye(u.shape[0])) <= 1e-12, name

    def test_builtin_gates_returns_copies(self):
        builtin_gates()["hadamard"][0, 0] = 7.0
        assert builtin_gates()["hadamard"][0, 0] == 1 / np.sqrt(2)

    def test_one_unitarity_check_per_builtin_channel(self, monkeypatch):
        # the channel constructor checks the chosen gate; the catalog is
        # not re-checked per call
        import qbret.hilbert as hb
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        real = hb.assert_unitary
        monkeypatch.setattr(hb, "assert_unitary", counted)
        for name in BUILTIN_NAMES:
            calls.clear()
            builtin_channel(name)
            assert len(calls) == 1, name


class TestFixedChannels:
    @pytest.mark.parametrize("build", [
        lambda ops: KrausChannel.from_unitary(ops[0]),
        lambda ops: KrausChannel.from_kraus(ops)], ids=["from_unitary", "from_kraus"])
    def test_a_channel_keeps_its_own_read_only_operators(self, build):
        u = random_unitary(np.random.default_rng(3), 2)
        original, rho = u.copy(), qubit_state(0.4, 1.1, 0.3)
        ch = build([u])
        before = ch.apply(rho)  # caches the superoperator
        u[:] = np.eye(2)
        assert np.array_equal(ch.kraus[0], original)
        assert np.array_equal(ch.apply(rho), before)
        for a in (ch.kraus[0], ch.superop):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0
