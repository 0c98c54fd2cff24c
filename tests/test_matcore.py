import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qbret import errors
from qbret.matcore import (
    DEFAULT_TOL,
    EYE2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    RANK_RTOL,
    eigh_spectrum,
    hermitian_eig,
    max_abs,
    partial_trace_b,
    power_values,
    principal_power,
    psd_sqrt,
    rank_threshold,
    symmetrized,
)

TOL = 1e-10


def sym_power(m, r, tol=DEFAULT_TOL):
    """m^r on the support of a real symmetric matrix, by the composition
    `principal_power` is: one `eigh_spectrum` of `symmetrized(m)`."""
    return eigh_spectrum(symmetrized(m, tol), tol).power(r, tol)


def bloch_mixture(omega, theta, phi):
    # independent construction of the parametrized qubit used across tests
    psi = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    perp = np.array([-np.exp(-1j * phi) * np.sin(theta / 2), np.cos(theta / 2)])
    return (np.sin(omega) ** 2 * np.outer(psi, psi.conj())
            + np.cos(omega) ** 2 * np.outer(perp, perp.conj()))


def eig2x2(h):
    # brute-force 2x2 Hermitian eigensolve: tr/2 +- sqrt((tr/2)^2 - det)
    half_tr = np.trace(h).real / 2
    det = np.linalg.det(h).real
    root = np.sqrt(max(half_tr ** 2 - det, 0.0))
    return np.array([half_tr - root, half_tr + root])


class TestHermitianEig:
    def test_diagonal(self):
        spec = hermitian_eig(np.diag([1.0, 3.0]).astype(complex), TOL)
        np.testing.assert_allclose(spec.values, [1.0, 3.0])
        np.testing.assert_allclose(np.abs(spec.vectors), np.eye(2), atol=1e-12)

    def test_pauli_x_spectrum(self):
        spec = hermitian_eig(PAULI_X, TOL)
        np.testing.assert_allclose(spec.values, [-1.0, 1.0], atol=1e-12)

    def test_parametrized_qubit_spectrum(self):
        omega = np.pi / 16
        gamma = bloch_mixture(omega, np.pi / 5, np.pi / 3)
        expected = np.sort([np.cos(omega) ** 2, np.sin(omega) ** 2])
        spec = hermitian_eig(gamma, TOL)
        np.testing.assert_allclose(spec.values, expected, atol=1e-12)
        np.testing.assert_allclose(spec.values, eig2x2(gamma), atol=1e-12)

    def test_ascending_and_residual(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = a + a.conj().T
        spec = hermitian_eig(h, TOL)
        assert np.all(np.diff(spec.values) >= 0)
        rebuilt = (spec.vectors * spec.values) @ spec.vectors.conj().T
        assert max_abs(rebuilt - h) <= 10 * TOL * max_abs(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(errors.NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex), TOL)

    def test_rejects_non_square(self):
        with pytest.raises(errors.DimensionMismatch):
            hermitian_eig(np.zeros((2, 3)), TOL)

    def test_nan_fails_the_hermiticity_check(self):
        with pytest.raises(errors.NotHermitian, match=r"H - H\^dag"):
            hermitian_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]), TOL)

    def test_checks_then_factors_by_eigh_spectrum(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        m = symmetrized(a + a.T)
        checked, factored = hermitian_eig(m, TOL), eigh_spectrum(m, TOL)
        assert np.array_equal(checked.values, factored.values)
        assert np.array_equal(checked.vectors, factored.vectors)

    @pytest.mark.parametrize("m", [np.array([[0.0, 1.0], [0.0, 0.0]]),
                                   np.array([[1.0, np.nan], [np.nan, 1.0]])],
                             ids=["non-symmetric", "nan"])
    def test_factorization_alone_fails_its_residual_check(self, m):
        # eigh reads one triangle; the reconstruction residual catches a
        # matrix that was not made symmetric, or NaN, as NoConvergence
        with pytest.raises(errors.NoConvergence):
            eigh_spectrum(m, TOL)


class TestPsdSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(
            psd_sqrt(np.diag([4.0, 9.0]).astype(complex))[0],
            np.diag([2.0, 3.0]), atol=1e-12)

    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3, dtype=complex))[0],
                                   np.eye(3), atol=1e-12)

    def test_diagonal_state(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        np.testing.assert_allclose(psd_sqrt(rho)[0],
                                   np.diag([np.sqrt(3) / 2, 0.5]), atol=1e-12)

    def test_square_recovers_input(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = a @ a.conj().T
            b, deficient = psd_sqrt(h, TOL)
            assert not deficient
            assert max_abs(b @ b - h) <= 10 * TOL * max(max_abs(h), 1.0)

    def test_clamps_numerical_negatives(self):
        h = np.diag([1.0, -1e-12]).astype(complex)
        b, deficient = psd_sqrt(h, TOL)
        assert deficient
        np.testing.assert_allclose(b, np.diag([1.0, 0.0]), atol=1e-12)

    def test_not_psd(self):
        with pytest.raises(errors.NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]).astype(complex), TOL)

    def test_inverse_variant_singular(self):
        # the inverse root on the support: a projector is its own
        out, deficient = psd_sqrt(np.diag([1.0, 0.0]).astype(complex), TOL,
                                  inverse=True)
        assert deficient
        np.testing.assert_array_equal(out, np.diag([1.0, 0.0]))

    def test_inverse_variant(self):
        h = np.diag([4.0, 9.0]).astype(complex)
        np.testing.assert_allclose(psd_sqrt(h, inverse=True)[0],
                                   np.diag([0.5, 1 / 3]), atol=1e-12)


class TestPrincipalPower:
    """The n x n power of a real symmetric matrix, taken as `sym_power`,
    the composition `principal_power` is (the `principal_power` ids name
    that composition)."""

    def test_identity_inverse_root(self):
        np.testing.assert_allclose(sym_power(np.eye(3), -0.5)[0],
                                   np.eye(3), atol=1e-12)

    def test_scaled_identity_root(self):
        # the matrix of the maximally mixed qubit state is I/4
        np.testing.assert_allclose(sym_power(np.eye(4) / 4, 0.5)[0],
                                   np.eye(4) / 2, atol=1e-12)

    def test_root_of_pure_state_matrix(self):
        # prior matrix of |0><0| in the phase-space qubit frame, built from
        # direct operator traces (independent of the frames module)
        labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
        f = np.array([(EYE2 + (-1) ** r * PAULI_X + (-1) ** s * PAULI_Z
                       + (-1) ** (r + s) * PAULI_Y) / 4 for r, s in labels])
        rho = np.diag([1.0, 0.0]).astype(complex)
        m = np.einsum("iab,bc,jcd,da->ij", f, rho, 2 * f, rho).real
        root, deficient = sym_power(m, 0.5, TOL)
        assert deficient
        assert max_abs(root @ root - m) < 1e-10

    def test_power_one_and_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        m = a @ a.T
        np.testing.assert_allclose(sym_power(m, 1.0)[0], m, atol=1e-12)
        np.testing.assert_allclose(sym_power(m, 0.0)[0], np.eye(3),
                                   atol=1e-12)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (0.25, -0.75), (1.5, -0.5)])
    def test_exponent_addition(self, a, b):
        rng = np.random.default_rng(11)
        g = rng.normal(size=(4, 4))
        m = g @ g.T + 0.5 * np.eye(4)
        lhs = sym_power(m, a, TOL)[0] @ sym_power(m, b, TOL)[0]
        rhs, _ = sym_power(m, a + b, TOL)
        assert max_abs(lhs - rhs) < 10 * 1e-10 * max_abs(rhs) + 1e-10

    def test_root_squared_recovers_state_matrices(self):
        # 100 random density operators mapped through the quasiprobability
        # prior matrix; the matrix of the root state must square back
        # entrywise
        from qbret.frames import build_dw_qubit, build_sic_qubit, structure_coeffs
        from qbret.qprcore import state_powers, state_to_qpr, x_matrix
        rng = np.random.default_rng(42)
        for f, g in (build_dw_qubit(), build_sic_qubit()):
            xi = structure_coeffs(f, g)
            for _ in range(50):
                a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                rho = a @ a.conj().T
                rho /= np.trace(rho).real
                v = state_to_qpr(rho, f)
                root = x_matrix(state_powers(v[None], (0.5,), xi, TOL)[0][0], xi)
                assert max_abs(root @ root - x_matrix(v, xi)) < 1e-9

    def test_root_of_nonsymmetric_rank_deficient_matrix(self):
        # matrix of a pure state in the tetrahedron frame: rank one and not
        # symmetric, so the root goes through the frame-Gram similarity
        # and the kernel route
        from qbret.frames import build_sic_qubit, structure_coeffs
        from qbret.qprcore import state_powers, state_to_qpr, x_matrix
        f, g = build_sic_qubit()
        xi = structure_coeffs(f, g)
        rho = np.array([[1, 1], [1, 1]], dtype=complex) / 2
        v = state_to_qpr(rho, f)
        m = x_matrix(v, xi)
        assert max_abs(m - m.T) > 1e-3
        w = np.sort(np.linalg.eigvals(m).real)
        np.testing.assert_allclose(w, [0, 0, 0, 1], atol=1e-12)
        (root_v,), (deficient,), _ = state_powers(v[None], (0.5,), xi, TOL)
        assert deficient
        root = x_matrix(root_v, xi)
        assert not np.iscomplexobj(root)
        assert max_abs(root @ root - m) < 1e-12

    def test_rejects_negative_spectrum(self):
        with pytest.raises(errors.NotPSD):
            sym_power(np.diag([1.0, -0.5]), 0.5)

    @pytest.mark.parametrize("factor", [
        lambda m: sym_power(m, 0.5), symmetrized, hermitian_eig],
        ids=["principal_power", "symmetrized", "hermitian_eig"])
    def test_rejects_nonsymmetric_input_as_not_hermitian(self, factor):
        # a rotation has a complex spectrum, but the symmetry test comes first
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(errors.NotHermitian):
            factor(rot)

    @pytest.mark.parametrize("factor", [
        lambda m: sym_power(m, 0.5), symmetrized],
        ids=["principal_power", "symmetrized"])
    def test_nan_fails_the_symmetry_check(self, factor):
        # NaN compares false, so the check must be `not dev <= bound`: the
        # symmetry test itself raises, not a later Hermiticity check
        with pytest.raises(errors.NotHermitian, match=r"M - M\^T"):
            factor(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_singular_negative_power(self):
        # a negative power of a deficient matrix is its inverse on the support
        out, deficient = sym_power(np.diag([1.0, 0.0]), -0.5)
        assert deficient
        np.testing.assert_array_equal(out, np.diag([1.0, 0.0]))

    def test_support_mode_inverts_on_support(self):
        m = np.diag([4.0, 0.0])
        out, deficient = sym_power(m, -0.5)
        assert deficient
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-12)


class TestSpectrumPower:
    """`Spectrum.power` holds the one rank policy, `power_values`, behind
    `psd_sqrt`, `principal_power` and the Hilbert-side oracle."""

    def test_psd_sqrt_and_principal_power_agree_bit_for_bit(self):
        # principal_power is pinned to the composition that replaces it
        rng = np.random.default_rng(21)
        for rank in (1, 2, 4):
            a = rng.normal(size=(4, rank))
            m = a @ a.T
            for r, inverse in ((0.5, False), (-0.5, True)):
                want = sym_power(m, r)
                for got in (principal_power(m, r), psd_sqrt(m, inverse=inverse)):
                    assert np.array_equal(got[0], want[0])
                    assert got[1] == want[1] == (rank < 4)

    def test_one_error_per_violation(self):
        # NotPSD is the one error; a deficient spectrum gets its power on
        # the support, flagged
        for fn in (lambda m, r: sym_power(m, r),
                   lambda m, r: psd_sqrt(m, inverse=r < 0),
                   lambda m, r: hermitian_eig(m).power(r)):
            with pytest.raises(errors.NotPSD):
                fn(np.diag([1.0, -0.5]), 0.5)
            out, deficient = fn(np.diag([1.0, 0.0]), -0.5)
            assert deficient
            np.testing.assert_array_equal(out, np.diag([1.0, 0.0]))

    def test_cut_eigenvalues_raise_no_floating_point_error(self):
        # 0 ** -0.5 would divide by zero; the cut values never reach it
        spec = hermitian_eig(np.diag([0.0, 1e-13, 4.0]))
        with np.errstate(all="raise"):
            out, deficient = spec.power(-0.5)
        assert deficient
        np.testing.assert_array_equal(out, np.diag([0.0, 0.0, 0.5]))

    def test_threshold_is_relative_to_the_largest_eigenvalue(self):
        out, deficient = hermitian_eig(np.diag([2e-12, 1.0])).power(0.5)
        assert not deficient and out[0, 0] == np.sqrt(2e-12)
        out, deficient = hermitian_eig(np.diag([2e-12, 4.0])).power(0.5)
        assert deficient and out[0, 0] == 0.0


def sic_prior_and_posterior(seed):
    # full-rank prior (spectrum floored at 0.05) through a Haar dilation
    # with a random ancilla, both as tetrahedron-frame vectors, with the
    # structure coefficients that build their matrices
    from qbret.frames import build_sic_qubit, structure_coeffs
    from qbret.hilbert import channel_from_dilation, random_density, random_unitary
    from qbret.qprcore import channel_to_qpr, state_to_qpr
    rng = np.random.default_rng(seed)
    f, g = build_sic_qubit()
    xi = structure_coeffs(f, g)
    rho = random_density(rng, 2, min_eig=0.05)
    channel = channel_from_dilation(random_unitary(rng, 4), random_density(rng, 2))
    v = state_to_qpr(rho, f)
    s = channel_to_qpr(channel, f, g)
    return (v, s @ v), xi


class TestNonsymmetricRoots:
    """Matrices of state roots (`state_powers`, through the frame Gram) are
    the roots of the non-symmetric SIC matrices: checked against scipy's
    roots of the raw matrix."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_half_powers_match_schur_pade(self, seed):
        from qbret.qprcore import state_powers, x_matrix
        vectors, xi = sic_prior_and_posterior(seed)
        for v in vectors:
            m = x_matrix(v, xi)
            assert max_abs(m - m.T) > 1e-8
            ref = scipy.linalg.sqrtm(m)
            for r in (0.5, -0.5):
                expected = scipy.linalg.fractional_matrix_power(m, r)
                (power_v,), (deficient,), _ = state_powers(v[None], (r,), xi, TOL)
                power = x_matrix(power_v, xi)
                assert not deficient
                assert not np.iscomplexobj(power)
                scale = max_abs(expected)
                assert max_abs(power - expected) <= 1e-12 * scale
                # independent reference: Schur square root, and its inverse
                back = ref if r > 0 else np.linalg.inv(ref)
                assert max_abs(power - back) <= 1e-12 * scale

    def test_deficient_flag_on_the_kernel_route(self):
        from qbret.frames import build_sic_qubit, structure_coeffs
        from qbret.qprcore import state_powers, state_to_qpr, x_matrix
        f, g = build_sic_qubit()
        xi = structure_coeffs(f, g)
        rho = np.array([[1, 1], [1, 1]], dtype=complex) / 2
        v = state_to_qpr(rho, f)
        m = x_matrix(v, xi)
        (inv_v,), (deficient,), _ = state_powers(v[None], (-0.5,), xi, TOL)
        inv = x_matrix(inv_v, xi)
        assert deficient
        # rank one with eigenvalue 1: the support inverse root is the
        # spectral projector, so it squares to itself and fixes m
        assert max_abs(inv @ inv - inv) < 1e-12
        assert max_abs(inv @ m - m) < 1e-12


class TestMaxAbs:
    def test_nan_propagates(self):
        # every `not dev <= tol` check relies on a NaN entry giving NaN
        for a in ([1.0, np.nan], [np.nan, 1.0], [[1.0, 2.0], [np.nan, 0.0]],
                  [1.0 + 0j, complex(0.0, np.nan)]):
            assert np.isnan(max_abs(np.array(a)))

    def test_empty_is_zero(self):
        assert max_abs(np.array([])) == 0.0
        assert max_abs(np.empty((0, 3))) == 0.0


class TestPowerValues:
    @pytest.mark.parametrize("w", [[np.nan, 1.0], [0.1, np.nan]])
    def test_nan_raises(self, w):
        # a NaN is no zero eigenvalue: its power is not silently zeroed
        with pytest.raises(errors.NotPSD):
            power_values(np.array(w), 0.5)

    def test_descending_ends_raise(self):
        with pytest.raises(errors.NotPSD):
            power_values(np.array([1.0, 0.5]), 0.5)

    def test_nan_between_the_ends_raises(self):
        # neither the smallest nor the largest: its power is not zeroed
        with pytest.raises(errors.NotPSD):
            power_values(np.array([0.1, np.nan, 1.0]), 0.5)

    def test_nan_in_a_later_row_raises(self):
        with pytest.raises(errors.NotPSD):
            power_values(np.array([[0.1, 0.5, 1.0], [0.1, np.nan, 1.0]]), 0.5)

    @pytest.mark.parametrize("m, r", [(np.zeros((2, 2)), -1.0),
                                      (np.zeros((1, 1)), -2.0)],
                             ids=["2x2-inverse", "1x1-inverse-square"])
    def test_zero_matrix_negative_power_is_zero(self, m, r):
        # every value is cut, so none is raised to r: no overflow warning
        # (an error in this suite), power zero on the empty support
        power, deficient = hermitian_eig(m).power(r)
        assert np.array_equal(power, np.zeros_like(m)) and deficient

    @settings(max_examples=200, deadline=None)
    @given(scale=st.floats(1e-6, 1e6),
           picks=st.lists(st.integers(0, 5), min_size=1, max_size=6),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
           r=st.sampled_from([0.5, -0.5, 1.0, -1.0]))
    def test_deficient_from_the_smallest(self, scale, picks, fractions, r):
        # ascending values at, just below and just above the cut, roundoff
        # negatives and zeros: the flag read from w[0] is the flag over all
        # values, and the powers are those of the np.clip form
        thr = rank_threshold(scale)
        near = [thr, np.nextafter(thr, 0.0), np.nextafter(thr, np.inf),
                0.0, -0.5 * TOL]
        w = np.sort([near[p] if p < 5 else fractions[i] * scale
                     for i, p in enumerate(picks)] + [scale])
        vals, deficient = power_values(w, r)
        clamped = np.maximum(w, 0.0)
        keep = clamped >= rank_threshold(clamped[-1])
        assert deficient == (not keep.all())
        want = np.where(keep, np.maximum(np.clip(w, 0.0, None), thr) ** r, 0.0)
        assert np.array_equal(vals, want)


def stack_strategy():
    """A (k, m, m) stack of symmetric PSD matrices, some of them nearly rank
    deficient (eigenvalues at, just below and just above the rank cut of
    their own largest), with their scales spread over twelve decades."""
    return st.builds(
        _psd_stack,
        seed=st.integers(0, 2 ** 32 - 1),
        k=st.integers(1, 4), m=st.integers(2, 5),
        scales=st.lists(st.floats(1e-6, 1e6), min_size=4, max_size=4),
        near=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e3]), min_size=4,
                      max_size=4))


def _psd_stack(seed, k, m, scales, near):
    rng = np.random.default_rng(seed)
    stack = []
    for i in range(k):
        q, _ = np.linalg.qr(rng.normal(size=(m, m)))
        w = rng.uniform(0.0, 1.0, size=m)
        w[-1] = 1.0
        # the smallest eigenvalue a multiple of the rank cut RANK_RTOL
        w[0] = near[i] * RANK_RTOL
        stack.append(scales[i] * (q * w) @ q.T)
    return np.array(stack)


class TestStacks:
    """A stack is the same code as one matrix: every check, factorization
    and power of a stack gives, row by row, what each matrix gives alone,
    and each matrix keeps its own tolerance scale and rank cut."""

    @settings(max_examples=200, deadline=None)
    @given(stack=stack_strategy(), r=st.sampled_from([0.5, -0.5, 1.0, -1.0]))
    def test_rows_match_single_calls(self, stack, r):
        sym = symmetrized(stack)
        assert np.array_equal(sym, np.array([symmetrized(a) for a in stack]))
        spec = eigh_spectrum(sym)
        singles = [eigh_spectrum(a) for a in sym]
        assert np.array_equal(spec.values, np.array([s.values for s in singles]))
        assert np.array_equal(spec.vectors, np.array([s.vectors for s in singles]))
        values = np.clip(spec.values, 0.0, None)
        vals, deficient = power_values(values, r)
        rows = [power_values(w, r) for w in values]
        assert np.array_equal(vals, np.array([v for v, _ in rows]))
        assert np.array_equal(deficient, [f for _, f in rows])
        # one exponent per row: numpy picks its power kernel by exponent
        # form and memory layout (sqrt for the number 0.5), so the values
        # are held to two units in the last place, the flags exactly
        rs = np.resize([r, -r], len(values))
        vals, deficient = power_values(values, rs)
        rows = [power_values(w, ri) for w, ri in zip(values, rs)]
        np.testing.assert_allclose(vals, np.array([v for v, _ in rows]),
                                   rtol=4.5e-16, atol=0.0)
        assert np.array_equal(deficient, [f for _, f in rows])

    def test_symmetry_tolerance_is_per_matrix(self):
        # off-symmetric by 1e-9 on a unit matrix fails tol = 1e-10; next to
        # a 1e6-scaled matrix a pooled scale would let it pass
        big = 1e6 * np.array([[2.0, 1.0], [1.0, 3.0]])
        skew = np.eye(2) + np.array([[0.0, 1e-9], [0.0, 0.0]])
        symmetrized(big)
        with pytest.raises(errors.NotHermitian):
            symmetrized(np.array([big, skew]))
        with pytest.raises(errors.NotHermitian):
            symmetrized(skew)

    def test_residual_bound_is_per_matrix(self):
        # eigh reads one triangle: a unit matrix off-symmetric by 1e-8 has a
        # reconstruction residual over 10 * tol; a pooled bound scaled by
        # the 1e6 matrix next to it would be 1e-3
        big = 1e6 * np.array([[2.0, 1.0], [1.0, 3.0]])
        skew = np.eye(2) + np.array([[0.0, 0.0], [1e-8, 0.0]])
        eigh_spectrum(big)
        with pytest.raises(errors.NoConvergence):
            eigh_spectrum(np.array([big, skew]))

    def test_rank_cut_is_per_row(self):
        # 1e-13 is below the cut of a row whose largest value is 1 and above
        # that of a row whose largest is 1e-3
        vals, deficient = power_values(np.array([[1e-13, 1.0], [1e-13, 1e-3]]), 0.5)
        assert deficient == [True, False]
        assert vals[0, 0] == 0.0 and vals[1, 0] == np.sqrt(1e-13)
        assert power_values(np.array([1e-13, 1.0]), 0.5)[1] is True
        assert power_values(np.array([1e-13, 1e-3]), 0.5)[1] is False

    def test_hermiticity_is_checked_per_matrix(self):
        with pytest.raises(errors.NotHermitian):
            hermitian_eig(np.array([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))


class TestRankThreshold:
    def test_relative_to_scale(self):
        assert rank_threshold(4.0) == 4.0 * RANK_RTOL

    def test_zero_scale_keeps_a_positive_cutoff(self):
        assert 0.0 < rank_threshold(0.0) < 1e-300


class TestPartialTrace:
    def test_product_state(self):
        rho = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).astype(complex)
        np.testing.assert_allclose(partial_trace_b(rho, 2, 2),
                                   np.diag([1.0, 0.0]), atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace_b(np.eye(4) / 4, 2, 2),
                                   np.eye(2) / 2, atol=1e-12)

    def test_entangling_gate_output(self):
        # |+>|1> through the partial swap, traced over the ancilla
        u = np.array([[np.sqrt(2), 0, 0, 0], [0, 1, 1, 0],
                      [0, 1, -1, 0], [0, 0, 0, np.sqrt(2)]]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        ket1 = np.array([0, 1])
        psi = u @ np.kron(plus, ket1)
        out = partial_trace_b(np.outer(psi, psi.conj()), 2, 2)
        expected = np.array([[0.25, 1 / (2 * np.sqrt(2))],
                             [1 / (2 * np.sqrt(2)), 0.75]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_linear_and_trace_preserving(self):
        rng = np.random.default_rng(5)
        w1 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        w2 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lhs = partial_trace_b(2.0 * w1 - 0.5 * w2, 2, 3)
        rhs = 2.0 * partial_trace_b(w1, 2, 3) - 0.5 * partial_trace_b(w2, 2, 3)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        assert abs(np.trace(partial_trace_b(w1, 2, 3)) - np.trace(w1)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            partial_trace_b(np.eye(6), 2, 2)
