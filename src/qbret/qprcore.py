"""Quasiprobability-side objects and the retrodiction algorithms.

Morphisms between the Hilbert picture and a representation, the
prior/posterior matrices built from structure coefficients, the adjoint
rule Q S^T Q^{-1} with its NQPR and SIC closed forms, the recovery map
assembled purely from quasiprobability data (no Hilbert-space channel),
and the classical Bayes inverse it is contrasted with.

Conventions: a channel matrix S has unit column sums with the column
indexing the input (S[a_out, a_in]), so distributions compose as S @ v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RepMismatch, SingularPosterior
from .frames import (
    KIND_NQ,
    KIND_SP,
    DualFrame,
    Frame,
    StructureCoefficients,
    structure_coeffs,
)
from .matcore import (
    DEFAULT_TOL,
    hermitian_eig,
    max_abs,
    principal_power,
    rank_threshold,
)

# Smaller regularization weights are floored to this, and the weight used
# is reported.  The oracle deviation grows as 1/eps: over 200 pure priors
# through Haar unitaries, the worst sic-qubit one is 3.8e-10 at 1e-5 and
# 3.6e-9 at 1e-6, and at 1e-7 184 of the 200 miss the 1e-8 gate.
QPR_EPS_FLOOR = 1e-5


def uniform_vector(n: int) -> np.ndarray:
    """Quasiprobability vector of the maximally mixed state, 1/n per entry."""
    return np.full(n, 1.0 / n)


def state_to_qpr(rho: np.ndarray, frame: Frame) -> np.ndarray:
    """v_a = Tr[rho F_a]."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (frame.d, frame.d):
        raise DimensionMismatch(
            f"state shape {rho.shape} does not match frame dimension {frame.d}")
    return np.einsum("jab,ba->j", frame.ops, rho).real


def povm_to_qpr(effect: np.ndarray, dual: DualFrame) -> np.ndarray:
    """Effect vector vbar_a = Tr[E G_a]."""
    effect = np.asarray(effect, dtype=complex)
    d = dual.ops.shape[1]
    if effect.shape != (d, d):
        raise DimensionMismatch(
            f"effect shape {effect.shape} does not match frame dimension {d}")
    return np.einsum("jab,ba->j", dual.ops, effect).real


def reconstruct_state(v: np.ndarray, dual: DualFrame) -> np.ndarray:
    """alpha = sum_x v_x G_x; left inverse of state_to_qpr on valid vectors."""
    v = np.asarray(v, dtype=float)
    if v.shape != (dual.ops.shape[0],):
        raise RepMismatch(
            f"vector length {v.shape} does not match frame size {dual.ops.shape[0]}")
    return np.einsum("j,jab->ab", v, dual.ops)


def channel_to_qpr(channel, frame: Frame, dual: DualFrame) -> np.ndarray:
    """Quasi-stochastic matrix S[a_out, a_in] = Tr[F_out E[G_in]].

    `channel` is anything exposing apply(matrix) -> matrix (a Kraus channel,
    a recovery map) or a bare callable such as a Kraus channel's adjoint.
    """
    apply = channel.apply if hasattr(channel, "apply") else channel
    d = getattr(channel, "d", None)
    if d is not None and d != frame.d:
        raise DimensionMismatch(
            f"channel dimension {d} does not match frame dimension {frame.d}")
    n = frame.n
    s = np.empty((n, n))
    for a in range(n):
        image = apply(dual.ops[a])
        s[:, a] = np.einsum("jab,ba->j", frame.ops, image).real
    return s


def born(v: np.ndarray, vbar: np.ndarray) -> float:
    """Outcome (quasi)probability v . vbar; in [0, 1] for valid pairs."""
    v = np.asarray(v, dtype=float)
    vbar = np.asarray(vbar, dtype=float)
    if v.shape != vbar.shape:
        raise RepMismatch(f"vector lengths differ: {v.shape} vs {vbar.shape}")
    return float(v @ vbar)


def x_matrix(v: np.ndarray, coeffs: StructureCoefficients) -> np.ndarray:
    """Matrix X[i, j] = Tr[F_i alpha G_j alpha] of rho -> alpha rho alpha
    for alpha reconstructed from v: L conj(L) with L = `coeffs.left(v)`,
    the matrix of rho -> alpha rho.  The classical delta tensor gives
    diag(v^2)."""
    left = coeffs.left(v)
    # the real part of L conj(L); its imaginary part cancels for real v
    return left.real @ left.real + left.imag @ left.imag


def state_power(v: np.ndarray, r: float, coeffs: StructureCoefficients,
                tol: float = DEFAULT_TOL, *,
                singular: str = "error") -> tuple[np.ndarray, bool]:
    """(vector of alpha^r, deficient) for the state alpha reconstructed from v.

    J = Re `coeffs.left(v)`, the matrix of rho -> (alpha rho + rho alpha)/2,
    maps each eigenprojector of alpha to its eigenvalue times itself, so
    J^r e = alpha^r for e = `coeffs.e`.  Its spectrum {(l_a + l_b)/2} keeps
    alpha's conditioning, which X(v) squares.  The power goes through the
    Gram similarity `coeffs` carries, if any (see StructureCoefficients);
    `singular` and `deficient` are those of `principal_power`.
    """
    j, roots = coeffs.left(v).real, coeffs.gram_roots
    if roots is None:
        p, deficient = principal_power(j, r, tol, singular=singular)
        return p @ coeffs.e, deficient
    half, inv_half = roots
    p, deficient = principal_power(inv_half @ j @ half, r, tol, singular=singular)
    return half @ (p @ (inv_half @ coeffs.e)), deficient


def k_matrix(s: np.ndarray, d: int | None = None) -> np.ndarray:
    """Rank-one correction K[i, j] = (sum_a S[j, a] - 1) / d, identical rows.

    Vanishes exactly when S is quasi-bistochastic (unital channel).
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if d is None:
        d = int(round(np.sqrt(n)))
    row = (s.sum(axis=1) - 1.0) / d
    return np.tile(row, (n, 1))


def adjoint_qpr(s: np.ndarray, kind: str,
                gram_roots: tuple | None) -> np.ndarray:
    """Representation S_adj[i, j] = Tr[F_i E^dag[G_j]] of the adjoint map,
    from the channel matrix alone.

    With d^2 frame operators the dual is G = Q^{-1} F for the frame Gram
    Q[i,j] = Tr[F_i F_j], so S_adj = Q S^T Q^{-1} for every frame.  NQPR
    frames (Q a multiple of 1) transpose and SIC frames add the K
    correction to the transpose; any other frame takes the Gram rule
    through `gram_roots` = (Q^{1/2}, Q^{-1/2}) of its
    `StructureCoefficients`, where None means Q is a multiple of 1.
    """
    s = np.asarray(s, dtype=float)
    if kind == KIND_SP:
        return s.T + k_matrix(s)
    if kind == KIND_NQ or gram_roots is None:
        return s.T.copy()
    half, inv_half = gram_roots
    return half @ (half @ s.T @ inv_half) @ inv_half


@dataclass(frozen=True)
class PetzQprResult:
    """Retrodiction matrix plus how a rank-deficient posterior was handled.

    For a full-rank posterior only `matrix` is meaningful (eps_used = 0).
    Otherwise `matrix` is the prior-regularized evaluation at `eps_used`,
    `extrapolation_dev` compares it against eps_used/10 (agreement within
    1e-6 is the convergence criterion), and `support_matrix` carries the
    alternative pseudo-inverse-root evaluation on the posterior support
    with its deviation from the regularized route.  The two routes are not
    guaranteed to agree; disagreement is reported, not resolved.
    `support_projected` marks, as on `PetzMap`, a posterior that keeps a
    kernel after regularization; the recovery then moves with eps to first
    order, so no eps/10 probe is taken.
    """

    matrix: np.ndarray
    eps_used: float = 0.0
    extrapolation_dev: float | None = None
    support_matrix: np.ndarray | None = None
    support_dev: float | None = None
    support_projected: bool = False

    @property
    def converged(self) -> bool:
        return self.extrapolation_dev is None or self.extrapolation_dev <= 1e-6


def petz_qpr(s: np.ndarray, v_prior: np.ndarray, coeffs: StructureCoefficients,
             kind: str | None = None, eps: float = 1e-8, *,
             tol: float = DEFAULT_TOL) -> PetzQprResult:
    """Recovery matrix M_prior^{1/2} S_adj M_post^{-1/2} from
    quasiprobability data alone.

    `coeffs` holds the structure coefficients of the representation (the
    classical delta tensor reduces this to the classical Bayes inverse for
    nonnegative priors).  The adjoint S_adj is `adjoint_qpr` of the kind
    and the Gram roots `coeffs` carries; a `kind` that contradicts
    `coeffs.kind` raises RepMismatch.

    A rank-deficient posterior matrix with eps = 0 raises
    SingularPosterior; otherwise the prior is mixed with the uniform vector
    at weight max(eps, QPR_EPS_FLOOR) and both the regularized and the
    support-restricted evaluations are reported.
    """
    s = np.asarray(s, dtype=float)
    v_prior = np.asarray(v_prior, dtype=float)
    n = v_prior.shape[0]
    if s.shape != (n, n) or coeffs.n != n:
        raise RepMismatch("channel matrix, prior and coefficients disagree in size")
    if kind not in (None, coeffs.kind):
        raise RepMismatch(f"kind {kind!r} contradicts the coefficients of "
                          f"{coeffs.frame_name!r}, whose kind is {coeffs.kind!r}")
    adjoint = adjoint_qpr(s, coeffs.kind, coeffs.gram_roots)

    def recovery(v: np.ndarray) -> tuple[np.ndarray, bool]:
        # X(prior^{1/2}) adj X(post^{-1/2}); the inverse root is taken on
        # the support of a rank-deficient posterior, and the same
        # factorization says whether it was
        inv_root, deficient = state_power(s @ v, -0.5, coeffs, tol,
                                          singular="support")
        root, _ = state_power(v, 0.5, coeffs, tol)
        return (x_matrix(root, coeffs) @ adjoint
                @ x_matrix(inv_root, coeffs)), deficient

    support, deficient = recovery(v_prior)
    if not deficient:
        return PetzQprResult(matrix=support)
    if eps <= 0.0:
        raise SingularPosterior(
            "posterior matrix is rank-deficient and regularization is disabled")

    eps_used = max(eps, QPR_EPS_FLOOR)
    u = uniform_vector(n)
    primary, projected = recovery((1 - eps_used) * v_prior + eps_used * u)
    extrapolation_dev = None
    if not projected:
        probe, _ = recovery((1 - eps_used / 10) * v_prior + eps_used / 10 * u)
        extrapolation_dev = max_abs(primary - probe)
    return PetzQprResult(
        matrix=primary,
        eps_used=eps_used,
        extrapolation_dev=extrapolation_dev,
        support_matrix=support,
        support_dev=max_abs(support - primary),
        support_projected=projected,
    )


def classical_bayes(s: np.ndarray, v_prior: np.ndarray,
                    eps: float = 1e-8) -> np.ndarray:
    """Classical Bayes inversion D_prior S^T D_post^{-1}.

    Accepts quasi-stochastic matrices and sign-indefinite "posteriors"
    without complaint: evaluating the formally invalid grafting of the
    classical rule onto quasiprobabilities is a supported mode.  Posterior
    entries at zero are escaped by mixing the prior with the uniform
    distribution at weight eps; if that cannot lift them, the inversion is
    genuinely undefined and SingularPosterior is raised.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v_prior, dtype=float)
    n = v.shape[0]
    if s.shape != (n, n):
        raise RepMismatch(f"matrix shape {s.shape} does not match prior length {n}")
    post = s @ v
    if np.abs(post).min() <= rank_threshold(np.abs(post).max()):
        if eps <= 0.0:
            raise SingularPosterior(
                "posterior has (near-)zero entries and regularization is disabled")
        v = (1 - eps) * v + eps * uniform_vector(n)
        post = s @ v
        if np.abs(post).min() <= rank_threshold(np.abs(post).max()):
            raise SingularPosterior(
                "posterior entries remain at zero after regularization")
    return (np.diag(v) @ s.T) / post[None, :]


@dataclass(frozen=True)
class MPowerReport:
    """Two-sided evaluation of the prior-matrix power identity."""

    r: float
    lhs: np.ndarray  # matrix of the state power, entries Tr[F_i a^r G_j a^r]
    rhs: np.ndarray  # matrix power of the state matrix
    max_dev: float


def m_power_check(v: np.ndarray, r: float, frame: Frame, dual: DualFrame,
                  coeffs: StructureCoefficients | None = None,
                  tol: float = DEFAULT_TOL) -> MPowerReport:
    """Check that powering the state commutes with powering its matrix.

    The left side builds alpha^r in Hilbert space from the reconstructed
    state and takes traces directly; the right side raises the
    quasiprobability-side matrix to the r-th power.  Both sides follow the
    rank policy of `Spectrum.power`, so they agree on deficient states too.
    """
    if coeffs is None:
        coeffs = structure_coeffs(frame, dual, tol)
    alpha_r, _ = hermitian_eig(reconstruct_state(v, dual), tol).power(r, tol)
    lhs = np.einsum("iab,bc,jcd,da->ij", frame.ops, alpha_r, dual.ops,
                    alpha_r, optimize=True).real
    rhs = x_matrix(state_power(v, r, coeffs, tol)[0], coeffs)
    return MPowerReport(r=r, lhs=lhs, rhs=rhs, max_dev=max_abs(lhs - rhs))
