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


# The built-in frames the sweeps run over, as (label in the check names,
# `frames.builtin_frame` name).  Each state, effect and dilation a sweep
# draws for a frame is drawn at that frame's d; the qubit closed forms (the
# counterexamples, the K correction, the builtin gates, erasure) stay on
# the qubit frames.  `_SWEPT` adds the tensor square of each qubit frame,
# in the order of `_QUBITS`.
_QUBITS = (("dw", "dw-qubit"), ("sp", "sic-qubit"))
_SWEPT = _QUBITS + (("dw-qubits:2", "dw-qubits:2"), ("sic-qubits:2", "sic-qubits:2"))


def _pairs(table) -> list:
    """(label, frame, dual) for each (label, name) of `table`."""
    return [(label, *fr.builtin_frame(name)) for label, name in table]


# --- suite: frames -----------------------------------------------------------

def suite_frames(seed: int = 0) -> list[CheckResult]:
    out = []
    for _, f, g in _pairs(_SWEPT):
        # dual_relation, G against the dual rule of the frame's derived kind,
        # is among them
        rep = fr.validate_frame(f, g, tol=1e-12, seed=seed)
        out.append(CheckResult(f"frame-invariants-{f.name}",
                               max(rep.checks.values()), 1e-12))
    # delta tensor of the diagonal-projector representation, by direct trace
    pf, pg = fr.classical_projectors(3)
    eta_direct = np.einsum("iab,xbc,jca->xij", pf, pg, pg)
    out.append(CheckResult("classical-coeffs-are-deltas", max_abs(
        eta_direct - fr.classical_structure_coeffs(3).factors[0]), 0.0))
    # sum_i xi[i,q,r,s] against the three-operator trace, for the 4-index
    # Re xi[i,x,j,y] = Re Tr[F_i G_x G_j G_y] = Re sum_k eta[x,i,k] conj(eta[y,k,j]),
    # on single-factor frames
    rng = np.random.default_rng(seed)
    for name, f, g in _pairs(_QUBITS):
        eta = fr.structure_coeffs(f, g).factors[0]
        q, r, s = np.array([rng.integers(0, f.n, size=3) for _ in range(10)]).T
        direct = np.einsum("mab,mbc,mca->m", g.ops[q], g.ops[r], g.ops[s]).real
        summed = np.einsum("mik,mk->m", eta[q], eta[s, :, r].conj()).real
        out.append(CheckResult(f"coeff-sum-consistency-{name}",
                               max_abs(summed - direct), 1e-10))
    return out


# --- suite: mmatrix ----------------------------------------------------------

def suite_mmatrix(seed: int = 0) -> list[CheckResult]:
    out = []
    for name, f, g in _pairs(_QUBITS):
        rng = np.random.default_rng(seed)
        rho = np.array([hb.random_density(rng, f.d) for _ in range(200)])
        # pre-discard reality check straight from the operator traces
        m_direct = np.einsum("iab,mbc,jcd,mda->mij", f.ops, rho, g.ops, rho,
                             optimize=True)
        m = qp.x_matrix(qp.state_to_qpr(rho, f), fr.structure_coeffs(f, g))
        worst_eig = max(0.0, -float(np.linalg.eigvals(m).real.min()))
        out.append(CheckResult(f"m-entries-real-{name}", max_abs(m_direct.imag),
                               1e-10))
        out.append(CheckResult(f"m-spectrum-nonneg-{name}", worst_eig, 1e-9))
        out.append(CheckResult(f"m-unit-trace-{name}",
                               max_abs(np.einsum("mii->m", m) - 1.0), 1e-10))
        if f.kind == fr.KIND_NQ:
            out.append(CheckResult("m-symmetric-nqpr",
                                   max_abs(m - m.transpose(0, 2, 1)), 1e-10))
    # K correction: vanishes for every unital builtin, matches the derived
    # row pattern for the half-SWAP with a |1> ancilla in the SIC frame
    sp_f, sp_g = fr.builtin_frame("sic-qubit")
    unital = [hb.builtin_channel(gate) for gate in
              ("identity", "pauli_x", "pauli_y", "pauli_z", "hadamard", "u_eg")]
    worst_k = max(max_abs(qp.k_matrix(qp.channel_to_qpr(ch, sp_f, sp_g)))
                  for ch in unital)
    out.append(CheckResult("k-vanishes-unital", worst_k, 1e-12))
    half_swap = hb.builtin_channel("half_swap")
    s_hs = qp.channel_to_qpr(half_swap, sp_f, sp_g)
    expected_row = np.array([-1, 1, -1, 1]) / (4 * _SQ3)
    out.append(CheckResult(
        "k-half-swap-row", max_abs(qp.k_matrix(s_hs) - expected_row[None, :]),
        1e-12))
    # the paper's SIC adjoint S^T + K, a closed form the library does not
    # take (`adjoint_qpr` is the Gram rule there), against the morphism of
    # the Hilbert adjoint, on the unital gates, the half-SWAP and seeded
    # Haar dilations
    rng = np.random.default_rng(seed)
    worst_adj = 0.0
    for ch in unital + [half_swap] + [_random_channel(rng, 2) for _ in range(20)]:
        s = qp.channel_to_qpr(ch, sp_f, sp_g)
        worst_adj = max(worst_adj, max_abs(
            s.T + qp.k_matrix(s) - qp.channel_to_qpr(ch.adjoint, sp_f, sp_g)))
    out.append(CheckResult("adjoint-rule-sp", worst_adj, 1e-12))
    return out


# --- suite: powers -----------------------------------------------------------

def suite_powers(seed: int = 0) -> list[CheckResult]:
    out = []
    for name, f, g in _pairs(_SWEPT):
        xi = fr.structure_coeffs(f, g)
        rng = np.random.default_rng(seed)
        states = np.array([hb.random_density(rng, f.d, min_eig=0.05)
                           for _ in range(50)])
        vectors = qp.state_to_qpr(states, f)
        for r in (2.0, 0.5, -0.5, -1.0):
            worst = qp.m_power_check(vectors, r, f, g, xi).max_dev
            out.append(CheckResult(f"power-identity-{name}-r={r:g}", worst, 1e-8))
        # rho -> a rho a has trace (Tr a)^2, so Tr[M^(1/2)] = (Tr alpha^(1/2))^2
        roots = qp.state_powers(vectors, (0.5,) * len(vectors), xi)[0]
        tr_half = np.einsum("mii->m", qp.x_matrix(roots, xi))
        root_trace = np.sqrt(np.linalg.eigvalsh(states)).sum(axis=1)
        out.append(CheckResult(f"trace-of-root-{name}",
                               max_abs(tr_half - root_trace ** 2), 1e-12))
    return out


# --- suite: commute ----------------------------------------------------------

def _random_channel(rng, d: int) -> hb.KrausChannel:
    """The channel of a Haar 2d x 2d dilation with a random qubit ancilla."""
    u = hb.random_unitary(rng, 2 * d)
    beta = hb.random_density(rng, 2)
    return hb.channel_from_dilation(u, beta)


def _retrodiction_axioms(seed: int) -> list[CheckResult]:
    """The axioms of Bayesian retrodiction (Parzygnat & Buscemi, Quantum 7,
    1013, 2023) on quasiprobability data alone: recovering the recovery
    gives the channel back, the recovery of a composite is the composite
    of the recoveries in reverse order, and it factors over products."""
    out = []
    pairs = _pairs(_SWEPT)
    for name, f, g in pairs:
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

    # each qubit frame with its tensor square, labels last-factor fastest
    for (_, f, g), (name, f2, g2) in zip(pairs, pairs[len(_QUBITS):]):
        coeffs, coeffs2 = fr.structure_coeffs(f, g), fr.structure_coeffs(f2, g2)
        rng = np.random.default_rng(seed + 5)
        worst = 0.0
        for _ in range(20):
            s1, s2 = (qp.channel_to_qpr(_random_channel(rng, f.d), f, g)
                      for _ in range(2))
            v1, v2 = qp.state_to_qpr(np.array(
                [hb.random_density(rng, f.d, min_eig=0.05) for _ in range(2)]), f)
            product = qp.petz_qpr(np.kron(s1, s2), np.kron(v1, v2), coeffs2).matrix
            worst = max(worst, max_abs(product - np.kron(
                qp.petz_qpr(s1, v1, coeffs).matrix, qp.petz_qpr(s2, v2, coeffs).matrix)))
        out.append(CheckResult(f"tensor-product-{name}", worst, 1e-10))
    return out


def suite_commute(seed: int = 0) -> list[CheckResult]:
    out = []
    for name, f, g in _pairs(_QUBITS):
        xi = fr.structure_coeffs(f, g)
        rng = np.random.default_rng(seed)
        channels, priors = zip(*[(_random_channel(rng, f.d),
                                  hb.random_density(rng, f.d, min_eig=0.05))
                                 for _ in range(200)])
        vectors = qp.state_to_qpr(np.array(priors), f)
        worst = 0.0
        for channel, prior, v in zip(channels, priors, vectors):
            lhs = qp.petz_qpr(qp.channel_to_qpr(channel, f, g), v, xi).matrix
            rhs = qp.channel_to_qpr(hb.petz_hilbert(channel, prior), f, g)
            worst = max(worst, max_abs(lhs - rhs))
        out.append(CheckResult(f"petz-commutes-{name}", worst, 1e-9))

        # unitary channels retrodict to the transpose, prior-independently
        rng2 = np.random.default_rng(seed + 1)
        vectors = qp.state_to_qpr(np.array(
            [hb.random_density(rng2, f.d, min_eig=0.05) for _ in range(5)]), f)
        worst = 0.0
        for gate in ("pauli_x", "pauli_y", "pauli_z", "hadamard", "u_eg"):
            s = qp.channel_to_qpr(hb.builtin_channel(gate), f, g)
            for v in vectors:
                worst = max(worst, max_abs(qp.petz_qpr(s, v, xi).matrix - s.T))
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
        cases = [(hb.builtin_channel("half_swap"), hb.projector(hb.KET_PLUS))]
        cases += [(_random_channel(rng3, f.d),
                   hb.random_density(rng3, f.d, min_eig=0.05)) for _ in range(20)]
        channels, priors = zip(*cases)
        worst_fix = worst_cols = 0.0
        for channel, v in zip(channels, qp.state_to_qpr(np.array(priors), f)):
            s = qp.channel_to_qpr(channel, f, g)
            shat = qp.petz_qpr(s, v, xi).matrix
            worst_fix = max(worst_fix, max_abs(shat @ (s @ v) - v))
            worst_cols = max(worst_cols, max_abs(shat.sum(axis=0) - 1.0))
        out.append(CheckResult(f"prior-fixed-point-{name}", worst_fix, 1e-10))
        out.append(CheckResult(f"column-stochastic-{name}", worst_cols, 1e-10))

        # outcome probabilities survive the morphism
        rng4 = np.random.default_rng(seed + 3)
        worst_born = 0.0
        for _ in range(20):
            channel = _random_channel(rng4, f.d)
            rho = hb.random_density(rng4, f.d)
            h = rng4.normal(size=(f.d, f.d)) + 1j * rng4.normal(size=(f.d, f.d))
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
    """Channel sum T(a'|a) |a'><a| rho |a><a'| of a column-stochastic T:
    one Kraus operator sqrt(T(a'|a)) |a'><a| per pair, a' slowest."""
    n = t.shape[0]
    a_out, a_in = np.indices((n, n))
    kraus = np.zeros((n, n, n, n), dtype=complex)
    kraus[a_out, a_in, a_out, a_in] = np.sqrt(t)
    return hb.KrausChannel.from_kraus(kraus.reshape(n * n, n, n))


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
            # back[a_out, a, a] is the retrodicted distribution of |a_out><a_out|
            back = recovery.apply(fr.classical_projectors(n)[0])
            worst = max(worst, max_abs(np.einsum("kaa->ak", back).real
                                       - qp.classical_bayes(t, p)))
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
    pairs = _pairs(_QUBITS)
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

    for name, f, g in pairs:
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
    for name, f, g in pairs:
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
    # at the |+> prior: the observed state, the effect and the closed form
    observations = {"dw": (plus, ket0, (1 + _SQ3) / 2),
                    "sp": (ket0, plus, (2 - 5 * _SQ3) / 13)}
    for name, f, g in pairs:
        observed, effect, closed_form = observations[name]
        scl = qp.classical_bayes(qp.channel_to_qpr(rot, f, g),
                                 qp.state_to_qpr(plus, f))
        val = qp.born(scl @ qp.state_to_qpr(observed, f), qp.povm_to_qpr(effect, g))
        dev = abs(val - closed_form) if not 0.0 <= val <= 1.0 else np.inf
        out.append(CheckResult(f"born-violation-{name}", dev, 1e-12,
                               note=f"value {val:.9f}, must lie outside [0, 1]"))
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
