"""Seeded verification sweeps over the package's core identities.

Each suite returns a list of check results with the worst deviation seen
and the tolerance it was held to.  Tolerances are fixed here, not
user-tunable: they are the acceptance thresholds of the build.  Each of
the paper's checks is computed here and nowhere else; the acceptance
tests run these suites.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import frames as fr
from . import hilbert as hb
from . import qprcore as qp
from .matcore import max_abs

_SQ2 = np.sqrt(2.0)
_SQ3 = np.sqrt(3.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        extra = f"  ({self.note})" if self.note else ""
        return f"{self.name:<38s} max_dev={self.deviation:10.3e}  " \
               f"tol={self.tol:8.1e}  {status}{extra}"


def _canonical_pairs():
    return (("dw", *fr.build_dw_qubit()), ("sp", *fr.build_sic_qubit()))


def _random_states(rng, count, min_eig=0.0):
    return [hb.random_density(rng, 2, min_eig=min_eig) for _ in range(count)]


# --- suite: frames -----------------------------------------------------------

def suite_frames(seed: int = 0) -> list[CheckResult]:
    out = []
    dw_f, dw_g = fr.build_dw_qubit()
    sp_f, sp_g = fr.build_sic_qubit()
    dw2_f, dw2_g = fr.build_dw_qubits(2)
    for name, f, g in (("dw-qubit", dw_f, dw_g), ("sic-qubit", sp_f, sp_g),
                       ("dw-qubits:2", dw2_f, dw2_g)):
        # the kind check (G = dF for nq, G = d(d+1)F - 1 for sp) is among them
        rep = fr.validate_frame(f, g, tol=1e-12, seed=seed)
        out.append(CheckResult(f"frame-invariants-{name}",
                               max(rep.checks.values()), 1e-12))
    # delta tensor of the diagonal-projector representation, by direct trace
    pf, pg = fr.classical_projectors(3)
    eta_direct = np.einsum("iab,xbc,jca->xij", pf, pg, pg)
    out.append(CheckResult("classical-coeffs-are-deltas", max_abs(
        eta_direct - fr.classical_structure_coeffs(3).factors[0]), 0.0))
    # sum_i xi[i,q,r,s] against the three-operator trace, for the 4-index
    # Re xi[i,x,j,y] = Re Tr[F_i G_x G_j G_y] = Re sum_k eta[x,i,k] conj(eta[y,k,j])
    rng = np.random.default_rng(seed)
    for name, f, g in (("dw", dw_f, dw_g), ("sp", sp_f, sp_g)):
        eta = fr.structure_coeffs(f, g).factors[0]
        worst = 0.0
        for _ in range(10):
            q, r, s = rng.integers(0, f.n, size=3)
            direct = np.trace(g.ops[q] @ g.ops[r] @ g.ops[s]).real
            summed = (eta[q] @ eta[s].conj()).real[:, r].sum()
            worst = max(worst, abs(summed - direct))
        out.append(CheckResult(f"coeff-sum-consistency-{name}", worst, 1e-10))
    return out


# --- suite: mmatrix ----------------------------------------------------------

def suite_mmatrix(seed: int = 0) -> list[CheckResult]:
    out = []
    for name, f, g in _canonical_pairs():
        xi = fr.structure_coeffs(f, g)
        rng = np.random.default_rng(seed)
        worst_imag = worst_eig = worst_trace = worst_sym = 0.0
        for rho in _random_states(rng, 200):
            v = qp.state_to_qpr(rho, f)
            # pre-discard reality check straight from the operator traces
            m_direct = np.einsum("iab,bc,jcd,da->ij", f.ops, rho, g.ops, rho,
                                 optimize=True)
            worst_imag = max(worst_imag, max_abs(m_direct.imag))
            m = qp.x_matrix(v, xi)
            w = np.linalg.eigvals(m)
            worst_eig = max(worst_eig, -float(w.real.min()))
            worst_trace = max(worst_trace, abs(np.trace(m) - 1.0))
            if name == "dw":
                worst_sym = max(worst_sym, max_abs(m - m.T))
        out.append(CheckResult(f"m-entries-real-{name}", worst_imag, 1e-10))
        out.append(CheckResult(f"m-spectrum-nonneg-{name}", worst_eig, 1e-9))
        out.append(CheckResult(f"m-unit-trace-{name}", worst_trace, 1e-10))
        if name == "dw":
            out.append(CheckResult("m-symmetric-nqpr", worst_sym, 1e-10))
    # K correction: vanishes for every unital builtin, matches the derived
    # row pattern for the half-SWAP with a |1> ancilla in the SIC frame
    sp_f, sp_g = fr.build_sic_qubit()
    worst_k = 0.0
    for gate in ("identity", "pauli_x", "pauli_y", "pauli_z", "hadamard", "u_eg"):
        s = qp.channel_to_qpr(hb.builtin_channel(gate), sp_f, sp_g)
        worst_k = max(worst_k, max_abs(qp.k_matrix(s)))
    out.append(CheckResult("k-vanishes-unital", worst_k, 1e-12))
    s_hs = qp.channel_to_qpr(hb.builtin_channel("half_swap"), sp_f, sp_g)
    expected_row = np.array([-1, 1, -1, 1]) / (4 * _SQ3)
    out.append(CheckResult(
        "k-half-swap-row", max_abs(qp.k_matrix(s_hs) - expected_row[None, :]),
        1e-12))
    return out


# --- suite: powers -----------------------------------------------------------

def suite_powers(seed: int = 0) -> list[CheckResult]:
    out = []
    for name, f, g in (*_canonical_pairs(), ("dw-qubits:2", *fr.build_dw_qubits(2))):
        xi = fr.structure_coeffs(f, g)
        rng = np.random.default_rng(seed)
        states = [hb.random_density(rng, f.d, min_eig=0.05) for _ in range(50)]
        vectors = [qp.state_to_qpr(rho, f) for rho in states]
        for r in (2.0, 0.5, -0.5, -1.0):
            worst = max(qp.m_power_check(v, r, f, g, xi).max_dev for v in vectors)
            out.append(CheckResult(f"power-identity-{name}-r={r:g}", worst, 1e-8))
        # rho -> a rho a has trace (Tr a)^2, so Tr[M^(1/2)] = (Tr alpha^(1/2))^2
        worst = 0.0
        for rho, v in zip(states, vectors):
            tr_half = np.trace(qp.x_matrix(qp.state_power(v, 0.5, xi)[0], xi))
            root_trace = np.sqrt(np.linalg.eigvalsh(rho)).sum()
            worst = max(worst, abs(tr_half - root_trace ** 2))
        out.append(CheckResult(f"trace-of-root-{name}", worst, 1e-12))
    return out


# --- suite: commute ----------------------------------------------------------

def _random_channel(rng, d: int = 2) -> hb.KrausChannel:
    u = hb.random_unitary(rng, 2 * d)
    beta = hb.random_density(rng, 2)
    return hb.channel_from_dilation(u, beta)


def _retrodiction_axioms(seed: int) -> list[CheckResult]:
    """The axioms of Bayesian retrodiction (Parzygnat & Buscemi, Quantum 7,
    1013, 2023) on quasiprobability data alone: recovering the recovery
    gives the channel back, the recovery of a composite is the composite
    of the recoveries in reverse order, and it factors over products."""
    out = []
    dw2 = ("dw-qubits:2", *fr.build_dw_qubits(2))
    for name, f, g in (*_canonical_pairs(), dw2):
        coeffs = fr.structure_coeffs(f, g)
        rng = np.random.default_rng(seed + 4)
        worst_inv = worst_comp = 0.0
        for _ in range(50):
            s, t = (qp.channel_to_qpr(_random_channel(rng, f.d), f, g)
                    for _ in range(2))
            v = qp.state_to_qpr(hb.random_density(rng, f.d, min_eig=0.05), f)
            shat = qp.petz_qpr(s, v, coeffs).matrix
            worst_inv = max(worst_inv, max_abs(
                qp.petz_qpr(shat, s @ v, coeffs).matrix - s))
            worst_comp = max(worst_comp, max_abs(
                qp.petz_qpr(t @ s, v, coeffs).matrix
                - shat @ qp.petz_qpr(t, s @ v, coeffs).matrix))
        out.append(CheckResult(f"involutivity-{name}", worst_inv, 1e-10))
        out.append(CheckResult(f"compositionality-{name}", worst_comp, 1e-10))

    # dw-qubits:2 is the tensor square of dw-qubit, labels last-factor fastest
    f, g = fr.build_dw_qubit()
    coeffs, coeffs2 = fr.structure_coeffs(f, g), fr.structure_coeffs(*dw2[1:])
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for _ in range(20):
        s1, s2 = (qp.channel_to_qpr(_random_channel(rng), f, g) for _ in range(2))
        v1, v2 = (qp.state_to_qpr(hb.random_density(rng, 2, min_eig=0.05), f)
                  for _ in range(2))
        product = qp.petz_qpr(np.kron(s1, s2), np.kron(v1, v2), coeffs2).matrix
        worst = max(worst, max_abs(product - np.kron(
            qp.petz_qpr(s1, v1, coeffs).matrix, qp.petz_qpr(s2, v2, coeffs).matrix)))
    out.append(CheckResult("tensor-product-dw-qubits:2", worst, 1e-10))
    return out


def suite_commute(seed: int = 0) -> list[CheckResult]:
    out = []
    for name, f, g in _canonical_pairs():
        xi = fr.structure_coeffs(f, g)
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(200):
            channel = _random_channel(rng)
            prior = hb.random_density(rng, 2, min_eig=0.05)
            s = qp.channel_to_qpr(channel, f, g)
            v = qp.state_to_qpr(prior, f)
            lhs = qp.petz_qpr(s, v, xi).matrix
            rhs = qp.channel_to_qpr(hb.petz_hilbert(channel, prior), f, g)
            worst = max(worst, max_abs(lhs - rhs))
        out.append(CheckResult(f"petz-commutes-{name}", worst, 1e-9))

        # unitary channels retrodict to the transpose, prior-independently
        rng2 = np.random.default_rng(seed + 1)
        priors = [hb.random_density(rng2, 2, min_eig=0.05) for _ in range(5)]
        worst = 0.0
        for gate in ("pauli_x", "pauli_y", "pauli_z", "hadamard", "u_eg"):
            s = qp.channel_to_qpr(hb.builtin_channel(gate), f, g)
            for prior in priors:
                v = qp.state_to_qpr(prior, f)
                worst = max(worst, max_abs(qp.petz_qpr(s, v, xi).matrix
                                           - s.T))
        out.append(CheckResult(f"unitary-retrodiction-{name}", worst, 1e-9))

        # total erasure retrodicts every observation to the prior
        beta = hb.qubit_state(7 * np.pi / 16, 3 * np.pi / 5, np.pi / 6)
        gamma = hb.qubit_state(np.pi / 16, np.pi / 5, np.pi / 8)
        s = qp.channel_to_qpr(hb.builtin_channel("full_swap", ancilla=beta), f, g)
        v = qp.state_to_qpr(gamma, f)
        shat = qp.petz_qpr(s, v, xi).matrix
        out.append(CheckResult(f"erasure-retrodiction-{name}",
                               max_abs(shat - v[:, None]), 1e-9))

        # the reference prior is a fixed point of retrodiction-after-forward,
        # for the half-SWAP at the pure |+> prior and for random channels
        rng3 = np.random.default_rng(seed + 2)
        pairs = [(hb.builtin_channel("half_swap"), hb.projector(hb.KET_PLUS))]
        pairs += [(_random_channel(rng3), hb.random_density(rng3, 2, min_eig=0.05))
                  for _ in range(20)]
        worst_fix = worst_cols = 0.0
        for channel, prior in pairs:
            s = qp.channel_to_qpr(channel, f, g)
            v = qp.state_to_qpr(prior, f)
            shat = qp.petz_qpr(s, v, xi).matrix
            worst_fix = max(worst_fix, max_abs(shat @ (s @ v) - v))
            worst_cols = max(worst_cols, max_abs(shat.sum(axis=0) - 1.0))
        out.append(CheckResult(f"prior-fixed-point-{name}", worst_fix, 1e-10))
        out.append(CheckResult(f"column-stochastic-{name}", worst_cols, 1e-10))

        # outcome probabilities survive the morphism
        rng4 = np.random.default_rng(seed + 3)
        worst_born = 0.0
        for _ in range(20):
            channel = _random_channel(rng4)
            rho = hb.random_density(rng4, 2)
            h = rng4.normal(size=(2, 2)) + 1j * rng4.normal(size=(2, 2))
            h = (h + h.conj().T) / 2
            w, vec = np.linalg.eigh(h)
            effect = (vec * ((w - w.min()) / (w.max() - w.min()))) @ vec.conj().T
            s = qp.channel_to_qpr(channel, f, g)
            lhs = qp.born(s @ qp.state_to_qpr(rho, f), qp.povm_to_qpr(effect, g))
            rhs = np.trace(channel.apply(rho) @ effect).real
            worst_born = max(worst_born, abs(lhs - rhs))
        out.append(CheckResult(f"born-preservation-{name}", worst_born, 1e-12))
    return out + _retrodiction_axioms(seed)


# --- suite: classical --------------------------------------------------------

def _diagonal_embedding(t: np.ndarray) -> hb.KrausChannel:
    """Channel sum T(a'|a) |a'><a| rho |a><a'| of a column-stochastic T."""
    n = t.shape[0]
    kraus = []
    for a_out in range(n):
        for a_in in range(n):
            k = np.zeros((n, n), dtype=complex)
            k[a_out, a_in] = np.sqrt(t[a_out, a_in])
            kraus.append(k)
    return hb.KrausChannel.from_kraus(kraus)


def suite_classical(seed: int = 0) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    # diagonal channels with diagonal priors reduce the recovery map to the
    # classical Bayes inverse on the diagonal
    worst = 0.0
    for n in (2, 4):
        for _ in range(10):
            t = rng.random((n, n)) + 0.05
            t /= t.sum(axis=0)
            p = rng.random(n) + 0.1
            p /= p.sum()
            recovery = hb.petz_hilbert(_diagonal_embedding(t), np.diag(p).astype(complex))
            bayes = qp.classical_bayes(t, p)
            for a_out in range(n):
                basis = np.zeros((n, n), dtype=complex)
                basis[a_out, a_out] = 1.0
                back = recovery.apply(basis)
                worst = max(worst, max_abs(np.diag(back).real - bayes[:, a_out]))
    out.append(CheckResult("classical-reduction-diagonal", worst, 1e-8))

    # the generalized pipeline with delta coefficients is the same map
    worst = 0.0
    for n in (3, 4):
        for _ in range(10):
            t = rng.random((n, n)) + 0.05
            t /= t.sum(axis=0)
            p = rng.random(n) + 0.1
            p /= p.sum()
            via_pipeline = qp.petz_qpr(t, p, fr.classical_structure_coeffs(n)).matrix
            worst = max(worst, max_abs(via_pipeline - qp.classical_bayes(t, p)))
    out.append(CheckResult("pipeline-agreement", worst, 1e-13))

    # permutations invert to their transpose; the prior is always recovered
    # and every column sums to one
    worst_perm = worst_fix = worst_cols = 0.0
    for _ in range(10):
        n = 4
        perm = np.eye(n)[rng.permutation(n)]
        p = rng.random(n) + 0.1
        p /= p.sum()
        worst_perm = max(worst_perm, max_abs(qp.classical_bayes(perm, p) - perm.T))
        t = rng.random((n, n)) + 0.05
        t /= t.sum(axis=0)
        bayes = qp.classical_bayes(t, p)
        worst_fix = max(worst_fix, max_abs(bayes @ (t @ p) - p))
        worst_cols = max(worst_cols, max_abs(bayes.sum(axis=0) - 1.0))
    out.append(CheckResult("permutation-transpose", worst_perm, 1e-14))
    out.append(CheckResult("classical-prior-fixed-point", worst_fix, 1e-14))
    out.append(CheckResult("classical-column-stochastic", worst_cols, 1e-14))

    # binary symmetric channel at uniform prior inverts to itself
    bsc = np.array([[0.75, 0.25], [0.25, 0.75]])
    out.append(CheckResult(
        "binary-symmetric-self-inverse",
        max_abs(qp.classical_bayes(bsc, np.array([0.5, 0.5])) - bsc), 1e-15))
    return out


# --- suite: counterexamples --------------------------------------------------

def suite_counterexamples(seed: int = 0) -> list[CheckResult]:
    out = []
    dw_f, dw_g = fr.build_dw_qubit()
    sp_f, sp_g = fr.build_sic_qubit()
    half_swap = hb.builtin_channel("half_swap")
    plus = hb.projector(hb.KET_PLUS)

    # quantum recovery of the half-SWAP at a |+> prior: exact closed forms
    expected = {
        "dw": 0.5 * np.array([[1, 1, 1, 1], [1, 1, 1, 1],
                              [0, 0, 0, 0], [0, 0, 0, 0]]),
        "sp": np.array([[_SQ3 + 3] * 4, [_SQ3 + 3] * 4,
                        [3 - _SQ3] * 4, [3 - _SQ3] * 4]) / 12,
    }
    classical_dw = np.array([
        [1, (3 - _SQ2) / 7, 1, (_SQ2 + 3) / 7],
        [0, (_SQ2 + 4) / 7, 0, (4 - _SQ2) / 7],
        [0, 0, 0, 0],
        [0, 0, 0, 0]])
    classical_sp_3sf = np.array([
        [0.925, 0.183, -0.264, 0.353],
        [0.0744, 0.744, 0.275, 0.168],
        [-0.0191, 0.0491, 0.915, 0.0947],
        [0.0199, 0.0233, 0.0737, 0.384]])

    for name, f, g in (("dw", dw_f, dw_g), ("sp", sp_f, sp_g)):
        xi = fr.structure_coeffs(f, g)
        s = qp.channel_to_qpr(half_swap, f, g)
        v = qp.state_to_qpr(plus, f)
        shat = qp.petz_qpr(s, v, xi).matrix
        out.append(CheckResult(f"half-swap-recovery-{name}",
                               max_abs(shat - expected[name]), 1e-10))
        scl = qp.classical_bayes(s, v)
        differs = f"differs from the recovery by {max_abs(scl - shat):.4f}"
        if name == "dw":
            out.append(CheckResult("half-swap-classical-dw",
                                   max_abs(scl - classical_dw), 1e-12,
                                   note=differs))
        else:
            out.append(CheckResult("half-swap-classical-sp",
                                   max_abs(scl - classical_sp_3sf), 5e-4,
                                   note="against 3-significant-figure values; "
                                        + differs))

    # unitary channel matrices: the Hadamard pattern is the same in both
    # frames, the example gate's is not
    hadamard = 0.5 * np.array([[1, 1, 1, -1], [1, -1, 1, 1],
                               [1, 1, -1, 1], [-1, 1, 1, 1]])
    u_eg = {
        "dw": np.array([
            [9, _SQ3 - 6, 4 - 3 * _SQ3, 2 * _SQ3 + 9],
            [-_SQ3 - 6, 9, 9 - 2 * _SQ3, 3 * _SQ3 + 4],
            [3 * _SQ3 + 4, 2 * _SQ3 + 9, -3, 6 - 5 * _SQ3],
            [9 - 2 * _SQ3, 4 - 3 * _SQ3, 5 * _SQ3 + 6, -3]]) / 16,
        "sp": np.array([
            [-3, 5 * _SQ3 + 6, 4 - 3 * _SQ3, 9 - 2 * _SQ3],
            [6 - 5 * _SQ3, -3, 2 * _SQ3 + 9, 3 * _SQ3 + 4],
            [3 * _SQ3 + 4, 9 - 2 * _SQ3, 9, -_SQ3 - 6],
            [2 * _SQ3 + 9, 4 - 3 * _SQ3, _SQ3 - 6, 9]]) / 16,
    }
    for name, f, g in (("dw", dw_f, dw_g), ("sp", sp_f, sp_g)):
        s = qp.channel_to_qpr(hb.builtin_channel("hadamard"), f, g)
        out.append(CheckResult(f"hadamard-matrix-{name}",
                               max_abs(s - hadamard), 1e-14))
        s = qp.channel_to_qpr(hb.builtin_channel("u_eg"), f, g)
        out.append(CheckResult(f"u_eg-matrix-{name}",
                               max_abs(s - u_eg[name]), 1e-13))

    # grafting the classical rule onto a rotation yields outcome values
    # outside [0, 1]; a value inside counts as an infinite deviation
    u_rot = 0.5j * np.array([[_SQ3, -1], [1, _SQ3]], dtype=complex)
    rot = hb.KrausChannel.from_unitary(u_rot)
    ket0 = hb.projector(hb.KET0)

    def violation(name, val, closed_form):
        dev = abs(val - closed_form) if not 0.0 <= val <= 1.0 else np.inf
        return CheckResult(f"born-violation-{name}", dev, 1e-12,
                           note=f"value {val:.9f}, must lie outside [0, 1]")

    s = qp.channel_to_qpr(rot, dw_f, dw_g)
    scl = qp.classical_bayes(s, qp.state_to_qpr(plus, dw_f))
    val = qp.born(scl @ qp.state_to_qpr(plus, dw_f), qp.povm_to_qpr(ket0, dw_g))
    out.append(violation("dw", val, (1 + _SQ3) / 2))

    s = qp.channel_to_qpr(rot, sp_f, sp_g)
    scl = qp.classical_bayes(s, qp.state_to_qpr(plus, sp_f))
    val = qp.born(scl @ qp.state_to_qpr(ket0, sp_f), qp.povm_to_qpr(plus, sp_g))
    out.append(violation("sp", val, (2 - 5 * _SQ3) / 13))
    return out


_SUITE_FUNCS = {
    "frames": suite_frames,
    "mmatrix": suite_mmatrix,
    "powers": suite_powers,
    "commute": suite_commute,
    "classical": suite_classical,
    "counterexamples": suite_counterexamples,
}
SUITES = tuple(_SUITE_FUNCS)


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    picked = list(SUITES) if "all" in names else list(names)
    unknown = [name for name in picked if name not in _SUITE_FUNCS]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; "
                         f"expected one of {SUITES + ('all',)}")
    return [r for name in picked for r in _SUITE_FUNCS[name](seed)]
