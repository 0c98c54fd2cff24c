import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qbret import errors
from qbret.cli import main
from qbret.frames import (
    Frame,
    DualFrame,
    _pauli_orbit,
    _random_hermitian,
    build_dw_qubit,
    build_dw_qubits,
    build_sic_qubit,
    builtin_frame,
    classical_projectors,
    classical_structure_coeffs,
    decode_complex_matrix,
    encode_complex_matrix,
    frame_to_dict,
    load_frame,
    structure_coeffs,
    tensor_frames,
    validate_frame,
)
from qbret.hilbert import (
    KrausChannel,
    channel_from_dilation,
    petz_hilbert,
    projector,
    random_density,
    random_unitary,
)
from qbret.matcore import EYE2, ORACLE_TOL, PAULI_X, PAULI_Y, PAULI_Z, max_abs
from qbret.qprcore import QPR_EPS_FLOOR, channel_to_qpr, petz_qpr, state_to_qpr

SIGMA = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}


def direct_xi(f_ops, g_ops):
    """Re Tr[F_p G_q G_r G_s] straight from the operators, one p at a time
    so that no intermediate is bigger than the n^4 result."""
    return np.array([np.einsum("ab,qbc,rcd,sda->qrs", fp, g_ops, g_ops, g_ops,
                               optimize=True).real
                     for fp in f_ops])


def direct_eta(f_ops, g_ops):
    """Tr[F_i G_x G_j] straight from the operators, indexed [x, i, j]."""
    return np.einsum("iab,xbc,jca->xij", f_ops, g_ops, g_ops, optimize=True)


def xi_from_factors(coeffs):
    """The paper's 4-index Re xi[i,x,j,y] = Re sum_k eta[x,i,k] conj(eta[y,k,j])
    from the stored factors, eta their Kronecker product: n^4 float64, so
    for n <= 16 only."""
    eta = coeffs.factors[0]
    for f in coeffs.factors[1:]:
        n = eta.shape[0] * f.shape[0]
        eta = np.einsum("xij,ykl->xyikjl", eta, f).reshape(n, n, n)
    assert eta.shape[0] <= 16
    return np.einsum("xik,ykj->ixjy", eta, eta.conj()).real


def test_dw_first_operator():
    f, _ = build_dw_qubit()
    expected = (EYE2 + PAULI_X + PAULI_Z + PAULI_Y) / 4
    np.testing.assert_allclose(f.ops[0], expected, atol=1e-15)
    assert f.labels == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_dw_sums_to_identity():
    f, _ = build_dw_qubit()
    np.testing.assert_allclose(f.ops.sum(axis=0), np.eye(2), atol=1e-15)


def test_dw_cross_orthogonality():
    # direct trace of the first two phase-point operators against the dual
    f00 = (EYE2 + PAULI_X + PAULI_Z + PAULI_Y) / 4
    g01 = 2 * (EYE2 + PAULI_X - PAULI_Z - PAULI_Y) / 4
    assert abs(np.trace(f00 @ g01)) < 1e-15
    f, g = build_dw_qubit()
    assert abs(np.trace(f.ops[0] @ g.ops[1])) < 1e-15


def test_sic_first_operator():
    f, _ = build_sic_qubit()
    expected = (EYE2 + (PAULI_X - PAULI_Y + PAULI_Z) / np.sqrt(3)) / 4
    np.testing.assert_allclose(f.ops[0], expected, atol=1e-15)


def test_sic_equiangularity():
    f, _ = build_sic_qubit()
    proj = 2 * f.ops  # rank-1 projectors
    for j in range(4):
        for k in range(4):
            overlap = np.trace(proj[j].conj().T @ proj[k]).real
            assert abs(overlap - (2 * (j == k) + 1) / 3) < 1e-14


def test_sic_dual_traces():
    _, g = build_sic_qubit()
    for op in g.ops:
        assert abs(np.trace(op) - 1.0) < 1e-14


@pytest.mark.parametrize("builder", [build_dw_qubit, build_sic_qubit,
                                     lambda: build_dw_qubits(2)])
def test_builtin_frames_validate(builder):
    f, g = builder()
    report = validate_frame(f, g, tol=1e-10)
    assert report.passed
    assert max(report.checks.values()) < 1e-12


@pytest.mark.parametrize("name, builder", [
    ("dw-qubit", build_dw_qubit), ("sic-qubit", build_sic_qubit),
    ("dw-qubits:1", lambda: build_dw_qubits(1)),
    ("dw-qubits:2", lambda: build_dw_qubits(2)),
    ("dw-qubits:3", lambda: build_dw_qubits(3))])
def test_builtin_frame_is_its_builder(name, builder):
    f, g = builtin_frame(name)
    f0, g0 = builder()
    assert (f.name, f.kind, f.labels) == (f0.name, f0.kind, f0.labels)
    assert np.array_equal(f.ops, f0.ops) and np.array_equal(g.ops, g0.ops)


@pytest.mark.parametrize("name, message", [
    ("heptagon", "unknown"), ("dw-qubits", "unknown"), ("dw-qubit:2", "unknown"),
    ("sic-qubit:1", "unknown"), ("", "unknown"), ("dw-qubits:", "N >= 1"),
    ("dw-qubits:0", "N >= 1"), ("dw-qubits:-2", "N >= 1"),
    ("dw-qubits:2.0", "N >= 1"), ("dw-qubits:2:3", "N >= 1"),
    ("sic-qubits", "unknown"), ("sic-qubits:0", "N >= 1"),
    ("dw-qubits:2_0", "N >= 1"), ("dw-qubits:+2", "N >= 1"),
    ("dw-qubits: 2", "N >= 1"), ("dw-qubits:\u0663", "N >= 1")])
def test_builtin_frame_refuses_other_names(name, message):
    with pytest.raises(errors.ParseError, match=message):
        builtin_frame(name)


def test_builtin_frame_refuses_a_count_past_the_int_digit_limit():
    # int() and str() raise ValueError past 4300 digits, which would escape
    # the command line; the TooLarge message writes N + 1
    with pytest.raises(errors.ParseError, match="N >= 1"):
        builtin_frame("dw-qubits:" + "9" * 4300)
    with pytest.raises(errors.TooLarge, match="dw-qubits:9{4299} "):
        builtin_frame("dw-qubits:" + "9" * 4299)


def test_builtin_frame_size_bound_is_the_builders():
    with pytest.raises(errors.TooLarge, match="dw-qubits:7"):
        builtin_frame("dw-qubits:7")


@pytest.mark.parametrize("stem", ["dw-qubits", "sic-qubits"])
def test_qubit_power_is_refused_from_its_count(stem, monkeypatch):
    # from N alone: composing the parts would call the missing
    # tensor_frames, and forming d = 2^N would not end
    import qbret.frames
    monkeypatch.setattr(qbret.frames, "tensor_frames", None)
    with pytest.raises(errors.TooLarge, match=f"^{stem}:1000000000 "):
        builtin_frame(f"{stem}:1000000000")
    with pytest.raises(errors.TooLarge, match="^dw-qubits:1000000000 "):
        build_dw_qubits(10 ** 9)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_sic_qubits_is_the_tensor_power_of_sic_qubit(count):
    f, g = builtin_frame(f"sic-qubits:{count}")
    power = tensor_frames([build_sic_qubit()[0]] * count)
    assert f.name == ("sic-qubit" if count == 1 else f"sic-qubits:{count}")
    assert (f.kind, f.labels) == (power.kind, power.labels)
    assert f.kind == ("sp" if count == 1 else "custom")
    assert np.array_equal(f.ops, power.ops) and g is f.dual


def test_nqpr_dual_is_scaled_frame():
    f, g = build_dw_qubit()
    assert not hasattr(f, "c")  # the nq dual scale is always d
    np.testing.assert_allclose(g.ops, f.d * f.ops, atol=1e-15)


def test_sic_dual_affine_relation():
    f, g = build_sic_qubit()
    np.testing.assert_allclose(g.ops + np.eye(2), 6 * f.ops, atol=1e-14)


class TestTensorFrames:
    def test_two_qubit_traces(self):
        f, _ = build_dw_qubits(2)
        assert f.n == 16 and f.d == 4 and f.kind == "nq"
        for op in f.ops:
            assert abs(np.trace(op) - 0.25) < 1e-14

    def test_two_qubit_normalization(self):
        f, _ = build_dw_qubits(2)
        np.testing.assert_allclose(f.ops.sum(axis=0), np.eye(4), atol=1e-14)

    def test_two_qubit_orthogonality_all_pairs(self):
        f, g = build_dw_qubits(2)
        overlaps = np.einsum("jab,kba->jk", f.ops, g.ops)
        np.testing.assert_allclose(overlaps, np.eye(16), atol=1e-13)

    def test_label_order_last_factor_fastest(self):
        f, _ = build_dw_qubits(2)
        assert f.labels[0] == ((0, 0), (0, 0))
        assert f.labels[1] == ((0, 0), (0, 1))
        assert f.labels[4] == ((0, 1), (0, 0))


def _parts(spec, custom_tetra):
    """The single frames of a product written like `dw*custom-3`: dw-qubit,
    sic-qubit, or `custom_tetra` drawn at the seed after the dash."""
    builders = {"dw": build_dw_qubit, "sic": build_sic_qubit}
    return [builders[p]()[0] if p in builders
            else custom_tetra(np.random.default_rng(int(p.partition("-")[2])))[0]
            for p in spec.split("*")]


_PRODUCTS = ["sic*sic", "dw*sic", "sic*sic*sic",
             *(f"dw*custom-{seed}" for seed in range(5))]


class TestProductsOfAnyKinds:
    """`tensor_frames` composes frames of every kind.  The product is nq
    when every part is, custom otherwise; a custom product takes its dual
    from the Gram rule, keeps one structure-coefficient factor per part
    with the Gram roots set, and recovers as the oracle does."""

    @pytest.mark.parametrize("spec", ["dw*dw", *_PRODUCTS])
    def test_kind_validation_and_factors(self, spec, custom_tetra):
        parts = _parts(spec, custom_tetra)
        f = tensor_frames(parts)
        assert f.kind == ("nq" if spec == "dw*dw" else "custom")
        report = validate_frame(f, f.dual, tol=1e-12)
        assert report.passed, report.worst()
        coeffs = structure_coeffs(f, f.dual)
        assert [len(x) for x in coeffs.factors] == [4] * len(parts)
        assert (coeffs.gram_roots is None) == (spec == "dw*dw")

    @pytest.mark.parametrize("spec", _PRODUCTS)
    def test_recovery_meets_the_oracle(self, spec, custom_tetra):
        f = tensor_frames(_parts(spec, custom_tetra))
        g, coeffs = f.dual, structure_coeffs(f, f.dual)
        rng = np.random.default_rng(3)
        for _ in range(3):
            # full rank: a Haar 2d x 2d dilation with a mixed qubit ancilla;
            # then a pure prior through a Haar unitary, regularized
            cases = [(channel_from_dilation(random_unitary(rng, 2 * f.d),
                                            random_density(rng, 2)),
                      random_density(rng, f.d, min_eig=0.01), 1e-10),
                     (KrausChannel.from_unitary(random_unitary(rng, f.d)),
                      projector(random_unitary(rng, f.d)[:, 0]), ORACLE_TOL)]
            for channel, prior, tol in cases:
                result = petz_qpr(channel_to_qpr(channel, f, g),
                                  state_to_qpr(prior, f), coeffs)
                assert result.eps_used == (0.0 if tol == 1e-10 else QPR_EPS_FLOOR)
                oracle = petz_hilbert(channel, prior, eps=result.eps_used or 1e-8)
                assert max_abs(result.matrix - channel_to_qpr(oracle, f, g)) < tol

    @pytest.mark.parametrize("spec", ["sic*sic", "dw*sic"])
    def test_recovery_factors_over_the_parts(self, spec, custom_tetra):
        # petz(S1 x S2, v1 x v2) = petz(S1, v1) x petz(S2, v2), the product
        # axiom of Bayesian retrodiction
        parts = _parts(spec, custom_tetra)
        f = tensor_frames(parts)
        coeffs = structure_coeffs(f, f.dual)
        rng = np.random.default_rng(4)
        for _ in range(5):
            s, v, shat = [], [], []
            for p in parts:
                s.append(channel_to_qpr(channel_from_dilation(
                    random_unitary(rng, 4), random_density(rng, 2)), p, p.dual))
                v.append(state_to_qpr(random_density(rng, 2, min_eig=0.01), p))
                shat.append(petz_qpr(s[-1], v[-1], structure_coeffs(p, p.dual)).matrix)
            product = petz_qpr(np.kron(*s), np.kron(*v), coeffs).matrix
            assert max_abs(product - np.kron(*shat)) < 1e-10


def kron_powers(ops, count):
    """The Kronecker products of `count` copies of a stack, last factor
    fastest, by direct index arithmetic."""
    out = ops
    for _ in range(count - 1):
        n, d = len(out) * len(ops), out.shape[1] * ops.shape[1]
        out = np.einsum("iab,jcd->ijacbd", out, ops).reshape(n, d, d)
    return out


_BUILTIN_NAMES = ["dw-qubit", "sic-qubit", "dw-qubits:1", "dw-qubits:2",
                  "dw-qubits:3", "dw-qubits:4"]


class TestDerivedDual:
    """`Frame.dual`, derived from F and the kind, against the closed forms
    the builders and `tensor_frames` carried: 2F, 6F - 1, and the Kronecker
    products of 2F; and Q^{-1}F against the Gram-inverse construction."""

    @pytest.mark.parametrize("name", _BUILTIN_NAMES)
    def test_builtin_dual_is_the_closed_form(self, name):
        f, g = builtin_frame(name)
        assert g is f.dual
        dw = build_dw_qubit()[0].ops
        closed = (6 * f.ops - EYE2[None, :, :] if name == "sic-qubit"
                  else kron_powers(2 * dw, int(name.partition(":")[2] or 1)))
        assert np.array_equal(g.ops, closed)

    @pytest.mark.parametrize("seed", range(5))
    def test_custom_dual_is_the_gram_inverse(self, seed, custom_tetra):
        f, g = custom_tetra(np.random.default_rng(seed))
        gram = np.einsum("jab,kba->jk", f.ops, f.ops).real
        inverse = np.einsum("jk,kab->jab", np.linalg.inv(gram), f.ops)
        assert max_abs(g.ops - inverse) < 1e-14

    @pytest.mark.parametrize("name", _BUILTIN_NAMES[:5] + ["custom"])
    def test_document_without_g_loads_the_same_operators(self, name, custom_tetra):
        f, g = (custom_tetra(np.random.default_rng(6)) if name == "custom"
                else builtin_frame(name))
        doc = frame_to_dict(f)
        assert "G" not in doc
        for document in (doc, {**doc, "G": encode_complex_matrix(g.ops)}):
            f2, g2 = load_frame(json.dumps(document))
            assert g2 is f2.dual
            assert np.array_equal(f2.ops, f.ops) and np.array_equal(g2.ops, g.ops)

    @pytest.mark.parametrize("name", ["dw-qubit", "sic-qubit", "custom"])
    def test_perturbed_g_exits_1_naming_dual_relation(self, name, custom_tetra,
                                                      tmp_path, capsys):
        f, g = (custom_tetra(np.random.default_rng(7)) if name == "custom"
                else builtin_frame(name))
        doc = frame_to_dict(f)
        # Hermitian, so the first check it breaks is the dual relation
        nudge = 1e-6 * _random_hermitian(np.random.default_rng(8), f.d)
        doc["G"] = encode_complex_matrix(g.ops + nudge)
        path, out = tmp_path / "frame.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        assert main(["frame", "--frame", str(path), "--out", str(out)]) == 1
        assert "dual_relation" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_operator_without_g_raises_a_typed_error(self):
        f, _ = build_dw_qubit()
        repeated = Frame(name="repeated", d=2, labels=f.labels,
                         ops=f.ops[[0, 0, 2, 3]])
        with pytest.raises(errors.IllConditioned, match="singular Gram"):
            load_frame(frame_to_dict(repeated))

    def test_product_frame_builds_one_kronecker_stack(self, monkeypatch):
        # the operators of dw-qubits:3; its dual is 8F, not a second product
        import qbret.frames
        calls, kron = [], qbret.frames._kron_stack
        monkeypatch.setattr(qbret.frames, "_kron_stack",
                            lambda stacks: calls.append(len(stacks)) or kron(stacks))
        f, g = build_dw_qubits(3)
        assert calls == [3] and np.array_equal(g.ops, 8 * f.ops)


def haar_rotated(builder, seed):
    """The operators U F U^dag of the frame `builder` builds, for a Haar U
    drawn at `seed`, as a plain `Frame`: no builder vouches for them."""
    f = builder()[0]
    u = random_unitary(np.random.default_rng(seed), f.d)
    return Frame(name=f"rotated-{f.name}", d=f.d, labels=f.labels,
                 ops=u @ f.ops @ u.conj().T)


class TestDerivedKind:
    """`Frame.kind` is read from the Gram Q of F: nq where Q is a multiple
    of 1, sp where it has the SIC form, custom otherwise; a product reads
    its parts' kinds."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("builder, kind", [(build_dw_qubit, "nq"),
                                               (build_sic_qubit, "sp")])
    def test_rotated_frames_derive_their_family(self, builder, kind, seed):
        # the Gram is unitarily invariant; the dual is the family's closed form
        f = haar_rotated(builder, seed)
        assert f.kind == kind
        closed = 2 * f.ops if kind == "nq" else 6 * f.ops - EYE2
        assert np.array_equal(f.dual.ops, closed)
        assert validate_frame(f, f.dual, tol=1e-12).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_custom_tetra_derives_custom(self, seed, custom_tetra):
        assert custom_tetra(np.random.default_rng(seed))[0].kind == "custom"

    @pytest.mark.parametrize("spec, kind", [("dw*dw", "nq"), ("dw*sic", "custom"),
                                            ("sic*sic", "custom")])
    def test_products_read_their_parts(self, spec, kind, custom_tetra):
        # the parts' 4 x 4 Grams decide; the product's 16 x 16 one is not formed
        f = tensor_frames(_parts(spec, custom_tetra))
        assert f.kind == kind
        assert "gram" not in vars(f) and all("gram" in vars(p) for p in f.parts)

    def test_kind_is_no_argument(self):
        f, _ = build_dw_qubit()
        with pytest.raises(TypeError):
            Frame(name="dw", d=2, labels=f.labels, ops=f.ops, kind="nq")


class TestValidateFrame:
    def test_scaled_frame_fails(self):
        f, g = build_dw_qubit()
        bad_f = Frame(name="scaled", d=2, labels=f.labels, ops=1.01 * f.ops)
        bad_g = DualFrame(name="scaled", ops=1.01 * g.ops)
        report = validate_frame(bad_f, bad_g, tol=1e-10)
        assert not report.passed
        # sum of scaled operators overshoots the identity by exactly 1%
        assert abs(report.checks["normalization"] - 0.01) < 1e-12
        # reconstructing the identity from the scaled pair misses by
        # (1.01^2 - 1) * d ~ 0.04, the worst sum-trace deficit
        assert report.checks["sum_trace"] >= 0.0402 - 1e-9

    def test_report_lists_every_check(self):
        f, g = build_dw_qubit()
        report = validate_frame(f, g)
        # the first violated entry is the one load_frame names
        assert list(report.checks) == ["hermiticity", "normalization",
                                       "frame_trace", "dual_relation",
                                       "dual_trace", "orthogonality",
                                       "sum_trace"]

    def test_nan_operator_reads_nan_in_every_check_of_f(self):
        # a NaN probe trace once read as a sum_trace of 0.0
        f, g = build_dw_qubit()
        ops = f.ops.copy()
        ops[1, 0, 0] = np.nan
        report = validate_frame(Frame(name="nan", d=2, labels=f.labels, ops=ops), g)
        assert report.checks.pop("dual_trace") == 0.0
        assert all(np.isnan(v) for v in report.checks.values())

    @pytest.mark.parametrize("builder, kind_check", [
        (build_dw_qubit, "nq_dual_scaling"),
        (lambda: build_dw_qubits(2), "nq_dual_scaling"),
        (build_sic_qubit, "sp_dual_affine")])
    def test_kind_claim_checked(self, builder, kind_check):
        # `kind_check` names the closed form the kind claims, G = dF or
        # G = d(d+1)F - 1; one check, dual_relation, holds G to it
        f, g = builder()
        closed_form = {"nq_dual_scaling": f.d * f.ops,
                       "sp_dual_affine": f.d * (f.d + 1) * f.ops - np.eye(f.d)}
        report = validate_frame(f, DualFrame(name=f.name, ops=closed_form[kind_check]))
        assert report.checks["dual_relation"] == 0.0 and report.passed


class TestSumTrace:
    """The sum-trace probe, factored as (Tr[F_j a]) . (Tr[G_j b]), against
    the four-operand contraction sum_j Tr[F_j a] Tr[G_j b] taken whole."""

    @staticmethod
    def _four_operand(f, g, seed=0, n_random=20):
        # the probe pairs validate_frame draws, in the same order
        rng = np.random.default_rng(seed)
        pairs = [(np.eye(f.d), np.eye(f.d))]
        pairs += [(_random_hermitian(rng, f.d), _random_hermitian(rng, f.d))
                  for _ in range(n_random)]
        return max(abs(np.einsum("jab,jcd,ba,dc->", f.ops, g.ops, a, b)
                       - np.trace(a @ b)) for a, b in pairs)

    @pytest.mark.parametrize("name", ["dw", "sic", "custom"])
    def test_matches_four_operand_contraction(self, name, custom_tetra):
        f, g = {"dw": build_dw_qubit, "sic": build_sic_qubit,
                "custom": lambda: custom_tetra(np.random.default_rng(3))}[name]()
        report = validate_frame(f, g)
        assert report.passed
        assert abs(report.checks["sum_trace"] - self._four_operand(f, g)) < 1e-13

    @pytest.mark.parametrize("builder", [build_dw_qubit, build_sic_qubit])
    def test_flags_one_perturbed_dual_operator(self, builder):
        f, g = builder()
        ops = g.ops.copy()
        ops[2] += 1e-3 * _random_hermitian(np.random.default_rng(4), f.d)
        bad = DualFrame(name="perturbed", ops=ops)
        report = validate_frame(f, bad)
        expected = self._four_operand(f, bad)
        assert expected > 1e-4
        assert abs(report.checks["sum_trace"] - expected) < 1e-13
        # the n^2 traces Tr[F_j G_k], one product in validate_frame
        direct = np.einsum("jab,kba->jk", f.ops, bad.ops) - np.eye(f.n)
        assert report.checks["orthogonality"] > 1e-4
        assert abs(report.checks["orthogonality"] - max_abs(direct)) < 1e-14
        assert not report.passed


class TestLoadFrame:
    def test_round_trip(self):
        f, g = build_dw_qubit()
        doc = json.dumps(frame_to_dict(f))
        f2, g2 = load_frame(doc)
        np.testing.assert_allclose(f2.ops, f.ops, atol=1e-15)
        np.testing.assert_allclose(g2.ops, g.ops, atol=1e-15)
        assert f2.kind == "nq" and "c" not in frame_to_dict(f2)
        assert f2.labels == f.labels

    @pytest.mark.parametrize("count", [2, 3])
    def test_composite_labels_round_trip(self, count):
        # nested label lists come back as nested tuples, as built, so a
        # saved frame labels its graph nodes as the built one does
        f, g = build_dw_qubits(count)
        f2, _ = load_frame(json.dumps(frame_to_dict(f)))
        assert f2.labels == f.labels
        assert f2.labels[1] == ((0, 0),) * (count - 1) + ((0, 1),)
        assert [str(l) for l in f2.labels] == [str(l) for l in f.labels]

    @pytest.mark.parametrize("c", [2.0, None, 7.5])
    def test_c_field_is_ignored(self, c):
        # files written with the former nq scale field still load; the
        # scale is d whatever the field says
        f, g = build_dw_qubit()
        doc = {**frame_to_dict(f), "c": c}
        f2, g2 = load_frame(json.dumps(doc))
        assert f2.kind == "nq" and not hasattr(f2, "c")
        np.testing.assert_allclose(g2.ops, 2 * f2.ops, atol=1e-15)

    def test_bad_json(self):
        with pytest.raises(errors.ParseError):
            load_frame("{not json")

    @pytest.mark.parametrize("text", ["[" * 200_000, b'{"d": "\xff"}'],
                             ids=["nested-past-recursion-limit", "not-utf8"])
    def test_unreadable_text(self, text):
        # json's RecursionError and UnicodeDecodeError escaped untyped
        with pytest.raises(errors.ParseError, match="invalid JSON"):
            load_frame(text)

    def test_missing_field(self):
        with pytest.raises(errors.ParseError):
            load_frame({"d": 2, "F": []})

    def test_normalization_failure_named(self):
        f, g = build_dw_qubit()
        doc = frame_to_dict(f)
        doc["F"] = [[[[1.02 * z[0], 1.02 * z[1]] for z in row] for row in m]
                    for m in doc["F"]]
        with pytest.raises(errors.ValidationFailed) as exc:
            load_frame(doc)
        assert exc.value.check == "normalization"

    def test_duplicate_operator_fails_orthogonality(self):
        f, g = build_dw_qubit()
        # duplicating a dual operator keeps the sum and trace constraints
        # intact but breaks duality: Tr[F_0 G_1] = 0 != 1
        assert abs(np.trace(f.ops[0] @ g.ops[1])) < 1e-14
        report = validate_frame(f, DualFrame(name="duplicate", ops=g.ops[[1, 1, 2, 3]]))
        assert report.checks["dual_trace"] < 1e-14
        assert abs(report.checks["orthogonality"] - 1.0) < 1e-14
        # a document holding that G is off the derived dual, the check
        # before orthogonality that load_frame names
        doc = frame_to_dict(f)
        doc["G"] = encode_complex_matrix(g.ops)
        doc["G"][0] = doc["G"][1]
        with pytest.raises(errors.ValidationFailed) as exc:
            load_frame(doc)
        assert exc.value.check == "dual_relation"

    def test_nan_entry_is_named(self):
        # a NaN passes no check, so the first check it reaches is named
        doc = frame_to_dict(build_dw_qubit()[0])
        doc["F"][0][0][0] = [float("nan"), 0.0]
        with pytest.raises(errors.ValidationFailed) as exc:
            load_frame(doc)
        assert exc.value.check == "hermiticity"

    @pytest.mark.parametrize("builder, claim, rule", [
        # a SIC frame taken for nq would get the bare-transpose adjoint and a
        # wrong recovery matrix for every non-unital channel; `rule` names
        # the closed-form dual the false claim stands for
        (build_sic_qubit, "nq", "nq_dual_scaling"),
        (build_dw_qubit, "sp", "sp_dual_affine")])
    def test_false_kind_claim_fails(self, builder, claim, rule):
        f, g = builder()
        closed_form = {"nq_dual_scaling": f.d * f.ops,
                       "sp_dual_affine": f.d * (f.d + 1) * f.ops - np.eye(f.d)}
        assert not validate_frame(f, DualFrame(name=f.name, ops=closed_form[rule])).passed
        doc = frame_to_dict(f)
        doc["kind"] = claim
        # the frame derives its own kind and dual and passes; the claim,
        # with or without the true G, then fails `kind`
        for document in (doc, {**doc, "G": encode_complex_matrix(g.ops)}):
            with pytest.raises(errors.ValidationFailed) as exc:
                load_frame(document)
            assert exc.value.check == "kind"

    @pytest.mark.parametrize("seed", range(3))
    def test_rotated_sic_claiming_nq_fails_kind(self, seed):
        doc = frame_to_dict(haar_rotated(build_sic_qubit, seed))
        assert doc["kind"] == "sp"
        with pytest.raises(errors.ValidationFailed) as exc:
            load_frame({**doc, "kind": "nq"})
        # Q = (2 1 + J)/12 is 1/12 off Q[0,0] 1 at every off-diagonal entry
        assert exc.value.check == "kind"
        assert exc.value.violation == pytest.approx(1 / 3, abs=1e-14)

    def test_dw_claiming_sp_reports_the_gram_distance(self):
        # Q = 1/2 is 1/4 off the SIC form's diagonal of 1/4
        with pytest.raises(errors.ValidationFailed, match="kind") as exc:
            load_frame({**frame_to_dict(build_dw_qubit()[0]), "kind": "sp"})
        assert exc.value.violation == 0.5

    def test_custom_claim_loads_with_the_derived_kind(self):
        # custom names the general rules, which hold for every frame
        f, g = load_frame({**frame_to_dict(build_dw_qubit()[0]), "kind": "custom"})
        assert f.kind == "nq" and np.array_equal(g.ops, 2 * f.ops)


_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1.0])


def _shapes():
    """(d, d) and (k, d, d) shapes, with the [re, im] axis appended."""
    dims = st.integers(1, 4)
    return st.one_of(st.tuples(dims, dims).map(lambda s: (s[1], s[1], 2)),
                     st.tuples(dims, dims).map(lambda s: (s[0], s[1], s[1], 2)))


class TestCodec:
    @given(pairs=arrays(np.float64, _shapes(), elements=st.floats(
        allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    @example(pairs=_SPECIAL.reshape(2, 2, 2))
    @example(pairs=np.resize(_SPECIAL, (3, 2, 2, 2)))
    @settings(max_examples=200, deadline=None)
    def test_json_round_trip_is_bit_exact(self, pairs):
        m = pairs.view(complex)[..., 0]
        text = json.dumps(encode_complex_matrix(m))
        back = decode_complex_matrix(json.loads(text), (None,) * m.ndim)
        assert back.dtype == complex and back.shape == m.shape
        got, want = back.view(float), m.view(float)
        assert np.array_equal(got, want, equal_nan=True)
        # array_equal takes -0.0 for 0.0; the sign of every number survives
        number = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))

    @pytest.mark.parametrize("name", ["dw-qubit", "sic-qubit", "dw-qubits:2",
                                      "dw-qubits:3", "custom"])
    def test_frame_document_round_trip_is_exact(self, name, custom_tetra):
        f, g = {"dw-qubit": build_dw_qubit, "sic-qubit": build_sic_qubit,
                "dw-qubits:2": lambda: build_dw_qubits(2),
                "dw-qubits:3": lambda: build_dw_qubits(3),
                "custom": lambda: custom_tetra(np.random.default_rng(5))}[name]()
        text = json.dumps(frame_to_dict(f))
        f2, g2 = load_frame(text)
        assert np.array_equal(f2.ops, f.ops) and np.array_equal(g2.ops, g.ops)
        assert json.dumps(frame_to_dict(f2)) == text

    @pytest.mark.parametrize("data, shape", [
        ([[[1, 0], [0, 0]], [[0, 0], [1, 0]]], (None, None)),
        ([[[1, 0], [0, 0]]], (None, None)),
    ])
    def test_integers_decode_as_floats(self, data, shape):
        m = decode_complex_matrix(data, shape)
        assert m.dtype == complex and m.flags.c_contiguous
        assert np.array_equal(m, np.array([[complex(*z) for z in row] for row in data]))

    @pytest.mark.parametrize("data, shape", [
        ([[[1, 0], [0, 0]], [[0, 0], [1, 0]]], (3, None)),
        ([[["1", "0"]]], (None, None)),
        ([[[True, False]]], (None, None)),
        ([[[None, 0]]], (None, None)),
        ([[[1, 0]], [[1, 0], [0, 0]]], (None, None)),
        ([[[1, 0, 0]]], (None, None)),
        ([[1, 0]], (None, None)),
        (5, (None, None)),
        ({"re": 1}, (None, None)),
        ([[[2 ** 70, 0]]], (None, None)),
    ], ids=["wrong-length", "strings", "bools", "null", "ragged", "triple",
            "real", "scalar", "object", "huge-integer"])
    def test_malformed_arrays_raise_parse_error(self, data, shape):
        with pytest.raises(errors.ParseError):
            decode_complex_matrix(data, shape)


class TestStructureCoeffs:
    def test_classical_is_delta_tensor(self):
        pf, pg = classical_projectors(4)
        eta = classical_structure_coeffs(4).factors[0]
        np.testing.assert_array_equal(eta, direct_eta(pf, pg))
        # delta_xi delta_ij structure
        nonzero = np.argwhere(eta != 0)
        assert all(x == i == j for x, i, j in nonzero)

    def test_dw_concrete_entry(self):
        # eta[0,0,0] = Tr[F_0 G_0 G_0] and sum_k eta[0,0,k] eta[0,k,0]^* =
        # Tr[F_0 G_0 G_0 G_0], with G_0 = 2 F_0
        f, g = build_dw_qubit()
        eta = structure_coeffs(f, g).factors[0]
        g0 = 2 * f.ops[0]
        assert abs(eta[0, 0, 0] - np.trace(f.ops[0] @ g0 @ g0)) < 1e-14
        direct = np.trace(f.ops[0] @ np.linalg.matrix_power(g0, 3)).real
        assert abs((eta[0, 0] @ eta[0, :, 0].conj()).real - direct) < 1e-14

    def test_sic_uniform_contraction(self):
        # L(u) conj(L(u)) with L(u) = sum_x u_x eta[x], the maximally mixed
        # state's matrix of rho -> alpha rho alpha
        f, g = build_sic_qubit()
        eta = structure_coeffs(f, g).factors[0]
        left = np.einsum("x,xij->ij", np.full(4, 0.25), eta)
        np.testing.assert_allclose((left @ left.conj()).real, np.eye(4) / 4,
                                   atol=1e-14)

    def test_sum_over_first_index(self):
        # sum_i xi[i,q,r,s] = Re sum_ik eta[q,i,k] conj(eta[s,k,r])
        rng = np.random.default_rng(1)
        for f, g in (build_dw_qubit(), build_sic_qubit()):
            eta = structure_coeffs(f, g).factors[0]
            for _ in range(10):
                q, r, s = rng.integers(0, 4, size=3)
                direct = np.trace(g.ops[q] @ g.ops[r] @ g.ops[s]).real
                summed = (eta[q] @ eta[s].conj()).real[:, r].sum()
                assert abs(summed - direct) < 1e-13

    def test_cached_per_frame(self):
        f, g = build_dw_qubit()
        assert structure_coeffs(f, g) is structure_coeffs(f, g)

    def test_cached_per_dual(self):
        # the coefficients are the frame's alone: a dual within tol of its
        # own is served the same entry, and the sic dual is refused
        f, dw_g = build_dw_qubit()
        _, sic_g = build_sic_qubit()
        dw_xi = structure_coeffs(f, dw_g)
        near_g = DualFrame(name="near", ops=dw_g.ops + 1e-12)
        assert structure_coeffs(f, near_g) is dw_xi
        with pytest.raises(errors.RepMismatch, match="not the dual"):
            structure_coeffs(f, sic_g)
        assert structure_coeffs(f, dw_g) is dw_xi

    def test_cached_per_tol(self):
        # an entry checked at a loose tol served a later default-tol call,
        # which then skipped the ComplexResidue it raises on its own
        f, g = build_dw_qubit()
        skewed = Frame(name="skewed", d=2, labels=f.labels,
                       ops=f.ops + 1e-6j * PAULI_X)
        loose = structure_coeffs(skewed, skewed.dual, tol=1e-3)
        with pytest.raises(errors.ComplexResidue):
            structure_coeffs(skewed, skewed.dual)
        assert structure_coeffs(skewed, skewed.dual, tol=1e-3) is loose
        # the dw dual is 2e-6 off the skewed frame's: a claim the loose tol
        # accepts and the default refuses
        assert structure_coeffs(skewed, g, tol=1e-3) is loose
        with pytest.raises(errors.RepMismatch):
            structure_coeffs(skewed, g)

    def test_one_factor_per_single_frame(self, monkeypatch):
        # each part built its own factor, once per tol: dw-qubits:3 built
        # three, and three more at a second tol
        import qbret.frames
        calls = []
        build = qbret.frames._factor_tensor
        monkeypatch.setattr(qbret.frames, "_factor_tensor",
                            lambda *args: calls.append(1) or build(*args))
        f, g = build_dw_qubits(3)
        coeffs = structure_coeffs(f, g)
        assert len(calls) == 1
        assert coeffs.factors[0] is coeffs.factors[2]
        assert structure_coeffs(f, g, tol=1e-3) is coeffs
        assert structure_coeffs(f, g) is coeffs
        assert len(calls) == 1

    @pytest.mark.parametrize("builder", [build_dw_qubit, build_sic_qubit,
                                         lambda: build_dw_qubits(2)],
                             ids=["dw-qubit", "sic-qubit", "dw-qubits:2"])
    def test_one_object_at_every_tol(self, builder):
        f, g = builder()
        assert structure_coeffs(f, g, tol=1e-3) is structure_coeffs(f, g)

    @pytest.mark.parametrize("builder", [build_dw_qubit, build_sic_qubit,
                                         lambda: build_dw_qubits(2)])
    def test_dense_xi_matches_direct_traces(self, builder):
        # the sum-trace property, so only for a dual pair
        f, g = builder()
        np.testing.assert_allclose(xi_from_factors(structure_coeffs(f, g)),
                                   direct_xi(f.ops, g.ops), atol=1e-14)

    @pytest.mark.parametrize("builder", [
        lambda: build_dw_qubits(3)[0],
        lambda: tensor_frames([build_dw_qubits(2)[0], build_dw_qubit()[0]])])
    def test_product_frame_keeps_one_factor_per_qubit(self, builder):
        f = builder()
        np.testing.assert_array_equal(f.ops, build_dw_qubits(3)[0].ops)
        coeffs = structure_coeffs(f, f.dual)
        assert [t.shape for t in coeffs.factors] == [(4, 4, 4)] * 3
        assert max(np.abs(t.imag).max() for t in coeffs.factors) == pytest.approx(0.5)
        np.testing.assert_allclose(coeffs.e, np.full(64, 1 / 8), atol=1e-15)

    def test_foreign_dual_is_refused(self):
        # the coefficients come from the frame's own parts and duals, so the
        # dual of another product frame is a false claim, cached entry or not
        f, g = build_dw_qubits(2)
        _, sic2_g = builtin_frame("sic-qubits:2")
        with pytest.raises(errors.RepMismatch, match="not the dual"):
            structure_coeffs(f, sic2_g)
        structure_coeffs(f, g)
        with pytest.raises(errors.RepMismatch, match="not the dual"):
            structure_coeffs(f, sic2_g)
        with pytest.raises(errors.RepMismatch, match="not the dual"):
            structure_coeffs(f, build_dw_qubit()[1])

    def test_gram_roots_are_decided_once(self, near_dw):
        # dw-qubit nudged by 1e-7 (X, -X, Y, -Y): 4.0e-7 (relative) off a
        # multiple of 1, so custom, with Gram roots at every tol; deciding
        # them again at the caller's 1e-6 took them for a multiple of 1 and
        # gave the transpose adjoint, 3.5e-7 off the oracle
        f = near_dw
        assert f.kind == "custom"
        assert validate_frame(f, f.dual, tol=1e-10).passed
        q = f.gram
        assert max_abs(q - q[0, 0] * np.eye(4)) / max_abs(q) == pytest.approx(4e-7, rel=0.01)
        loose = structure_coeffs(f, f.dual, 1e-6)
        assert loose.gram_roots is not None
        assert loose.gram_roots is structure_coeffs(f, f.dual).gram_roots is f.gram_roots
        channel = channel_from_dilation(random_unitary(np.random.default_rng(5), 4),
                                        random_density(np.random.default_rng(6), 2))
        prior = random_density(np.random.default_rng(7), 2, min_eig=0.05)
        result = petz_qpr(channel_to_qpr(channel, f, f.dual), state_to_qpr(prior, f),
                          loose, tol=1e-6)
        assert result.eps_used == 0.0
        oracle = channel_to_qpr(petz_hilbert(channel, prior, tol=1e-6), f, f.dual)
        assert max_abs(result.matrix - oracle) < 1e-12

    def test_gram_roots(self):
        f, g = build_sic_qubit()
        half, inv_half = structure_coeffs(f, g).gram_roots
        gram = np.einsum("jab,kba->jk", f.ops, f.ops).real
        assert max_abs(half @ half - gram) < 1e-15
        assert max_abs(half @ inv_half - np.eye(4)) < 1e-14
        # a multiple of the identity needs no similarity
        assert structure_coeffs(*build_dw_qubit()).gram_roots is None
        assert classical_structure_coeffs(4).gram_roots is None
        # a repeated operator makes the Gram singular: no similarity
        # exists, and the message divides by no zero eigenvalue
        dw_f, dw_g = build_dw_qubit()
        repeated = Frame(name="repeated", d=2, labels=dw_f.labels,
                         ops=dw_f.ops[[0, 0, 2, 3]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(errors.IllConditioned, match="GRAM_COND_MAX"):
                structure_coeffs(repeated, dw_g)

    def test_complex_residue_on_invalid_operators(self):
        f, _ = build_dw_qubit()
        broken = Frame(name="broken", d=2, labels=f.labels,
                       ops=f.ops + 0.1j * np.eye(2))
        with pytest.raises(errors.ComplexResidue):
            structure_coeffs(broken, broken.dual)

    def test_complex_residue_on_invalid_tensor_factor(self):
        f, _ = build_dw_qubit()
        broken = Frame(name="broken", d=2, labels=f.labels,
                       ops=f.ops + 0.1j * np.eye(2))
        composite = tensor_frames([build_dw_qubit()[0], broken])
        assert len(composite.parts) == 2
        with pytest.raises(errors.ComplexResidue):
            structure_coeffs(composite, composite.dual)

    def test_refuses_a_factor_over_the_size_limit(self, monkeypatch):
        # a dense 16-operator factor takes 64 KiB, a one-qubit factor 1 KiB;
        # the limit is lowered so that no test allocates a large tensor
        import qbret.frames
        monkeypatch.setattr(qbret.frames, "MAX_TENSOR_BYTES", 2 ** 15)
        loaded = load_frame(json.dumps(frame_to_dict(build_dw_qubits(2)[0])))
        assert not loaded[0].parts
        with pytest.raises(errors.TooLarge):
            structure_coeffs(*loaded)
        f = tensor_frames([build_dw_qubit()[0], build_dw_qubit()[0]])
        assert len(structure_coeffs(f, f.dual).factors) == 2

    def test_refuses_an_operator_stack_over_the_size_limit(self, monkeypatch):
        # dw-qubits:3 stacks 64 operators of 8 x 8 complex entries in 64 KiB;
        # the limit is lowered so that no test allocates a large stack
        import qbret.frames
        monkeypatch.setattr(qbret.frames, "MAX_TENSOR_BYTES", 2 ** 15)
        calls = []
        monkeypatch.setattr(qbret.frames, "_kron_stack",
                            lambda stacks: calls.append(stacks))
        with pytest.raises(errors.TooLarge):
            build_dw_qubits(3)
        with pytest.raises(errors.TooLarge):
            tensor_frames([build_dw_qubit()[0]] * 3)
        assert calls == []
        # a huge N is refused from N alone, before its N parts or its
        # 2^N-digit d are formed
        monkeypatch.undo()
        for count in (10 ** 5, 10 ** 9):
            with pytest.raises(errors.TooLarge, match=f"dw-qubits:{count} .* "
                               f"{qbret.frames.MAX_TENSOR_BYTES}"):
                build_dw_qubits(count)


class TestFixedFrames:
    def test_qubit_frames_are_the_closed_forms(self):
        # the reference closed forms, term by term: the phase points
        # (1 +- X +- Z +- Y)/4 and the tetrahedron's Bloch vectors over sqrt 3
        labels = ((0, 0), (0, 1), (1, 0), (1, 1))
        dw = np.array([
            (EYE2 + (-1) ** r * PAULI_X + (-1) ** s * PAULI_Z
             + (-1) ** (r + s) * PAULI_Y) / 4
            for (r, s) in labels])
        axes = ((1, -1, 1), (1, 1, -1), (-1, 1, 1), (-1, -1, -1))
        sic = np.array([
            (EYE2 + (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z) / np.sqrt(3)) / 4
            for (nx, ny, nz) in axes])
        f, g = build_dw_qubit()
        assert f.labels == labels and np.array_equal(f.ops, dw)
        assert np.array_equal(g.ops, 2 * dw)
        f, g = build_sic_qubit()
        assert f.labels == (0, 1, 2, 3) and np.array_equal(f.ops, sic)
        assert np.array_equal(g.ops, 6 * sic - np.eye(2))
        orbit, _ = _pauli_orbit("orbit", np.array((1, -1, 1)) / np.sqrt(3), range(4))
        assert np.array_equal(orbit.ops, sic)

    @pytest.mark.parametrize("name", ["sic-qubit", "dw-qubits:2"])
    def test_built_frames_and_their_coefficients_are_read_only(self, name):
        f, g = builtin_frame(name)
        c = structure_coeffs(f, g)
        # relabeling the operators after the coefficients are cached would
        # give a recovery matrix in one frame from the coefficients of another
        with pytest.raises(ValueError, match="read-only"):
            f.ops[:] = np.roll(f.ops, 1, axis=0)
        arrays = [g.ops, c.factors[0], c.e] + list(c.gram_roots or ())
        assert (c.gram_roots is not None) == (name == "sic-qubit")
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.name = "relabeled"
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.ops = g.ops.copy()

    def test_product_frame_is_factored_without_a_kronecker_rebuild(self, monkeypatch):
        import qbret.frames
        f, g = build_dw_qubits(2)

        def rebuild(_):
            raise AssertionError("structure_coeffs rebuilt the Kronecker stack")
        monkeypatch.setattr(qbret.frames, "_kron_stack", rebuild)
        assert [t.shape for t in structure_coeffs(f, g).factors] == [(4, 4, 4)] * 2


@pytest.fixture(scope="module", params=[2, 3], ids=["dw-qubits:2", "dw-qubits:3"])
def product_coeffs(request):
    f, g = build_dw_qubits(request.param)
    return structure_coeffs(f, g), direct_eta(f.ops, g.ops), f.ops, g.ops


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_contract_matches_dense_contraction(product_coeffs, data):
    # L(v), built factor by factor, against sum_x v_x eta[x], and the prior
    # matrix L conj(L) against the direct traces Re Tr[F_i a G_j a] with
    # a = sum_x v_x G_x, which need no n^4 tensor
    from qbret.qprcore import x_matrix
    coeffs, eta, f_ops, g_ops = product_coeffs
    v = data.draw(arrays(np.float64, coeffs.n,
                         elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    # 1e-12 relative; the absolute floor only covers products that underflow
    dense = np.einsum("x,xij->ij", v, eta)
    assert max_abs(coeffs.left(v) - dense) <= 1e-12 * np.abs(dense).max() + 1e-300
    a = np.einsum("x,xab->ab", v, g_ops)
    dense = np.einsum("iab,bc,jcd,da->ij", f_ops, a, g_ops, a, optimize=True).real
    assert max_abs(x_matrix(v, coeffs) - dense) <= 1e-12 * np.abs(dense).max() + 1e-300


def per_factor_left(coeffs, v):
    """L(v) by the per-factor contraction: each factor in turn replaces the
    leading index of v, viewed as one index per factor, by its (i, j) pair,
    and the pairs are then put back in (i..., j...) order."""
    dims = tuple(f.shape[0] for f in coeffs.factors)
    n, k = int(np.prod(dims)), len(dims)
    t = np.asarray(v, dtype=float)
    for f in coeffs.factors:
        t = t.reshape(f.shape[0], -1).T @ f.reshape(f.shape[0], -1)
    return t.reshape(tuple(d for d in dims for _ in (0, 1))).transpose(
        tuple(range(0, 2 * k, 2)) + tuple(range(1, 2 * k, 2))).reshape(n, n)


@pytest.mark.parametrize("name", ["dw-qubit", "sic-qubit", "custom"])
def test_single_factor_left_is_the_per_factor_contraction(name, custom_tetra):
    # the one product of v with the flattened factor gives the same bits
    rng = np.random.default_rng(8)
    pair = {"dw-qubit": build_dw_qubit, "sic-qubit": build_sic_qubit,
            "custom": lambda: custom_tetra(rng)}[name]()
    coeffs = structure_coeffs(*pair)
    assert len(coeffs.factors) == 1
    for _ in range(20):
        v = rng.normal(size=coeffs.n)
        assert np.array_equal(coeffs.left(v), per_factor_left(coeffs, v))


def test_product_left_is_the_per_factor_contraction(product_coeffs):
    coeffs = product_coeffs[0]
    assert len(coeffs.factors) > 1
    rng = np.random.default_rng(9)
    for _ in range(5):
        v = rng.normal(size=coeffs.n)
        assert np.array_equal(coeffs.left(v), per_factor_left(coeffs, v))


@pytest.mark.parametrize("name", ["dw-qubit", "sic-qubit", "dw-qubits:2",
                                  "dw-qubits:3"])
def test_left_of_a_stack_is_left_of_each_row(name):
    # a (k, n) stack through the same loop, started from V^T, comes out
    # with the batch index in front and the rows' own matrices
    pair = {"dw-qubit": build_dw_qubit, "sic-qubit": build_sic_qubit,
            "dw-qubits:2": lambda: build_dw_qubits(2),
            "dw-qubits:3": lambda: build_dw_qubits(3)}[name]()
    coeffs = structure_coeffs(*pair)
    rng = np.random.default_rng(10)
    stack = rng.normal(size=(3, coeffs.n))
    rows = np.array([coeffs.left(v) for v in stack])
    left = coeffs.left(stack)
    assert left.shape == (3, coeffs.n, coeffs.n)
    assert max_abs(left - rows) <= 1e-15 * max_abs(rows)
    with pytest.raises(errors.RepMismatch):
        coeffs.left(stack[:, :-1])
    with pytest.raises(errors.RepMismatch):
        coeffs.left(stack[None])
