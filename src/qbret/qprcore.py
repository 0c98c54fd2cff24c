"""Quasiprobability-side objects and the retrodiction algorithms.

Morphisms between the Hilbert picture and a representation, both ways
for states and channels, the prior/posterior matrices built from
structure coefficients, the adjoint rule Q S^T Q^{-1} (the transpose
where Q is a multiple of 1), the recovery map assembled purely from
quasiprobability data (no Hilbert-space channel), and the classical
Bayes inverse it is contrasted with.  No check lives here: the paper's
identities, among them the power identity and the K correction of the
SIC adjoint, are computed in `verify`.

Every trace Tr[F_i X] against the Hermitian frame is taken as one real
product (`_traces`).  A state power, the vector of alpha^r, comes from
the spectrum of the state's symmetric `state_matrix`: `state_powers`
builds and checks the state matrices of a whole stack of states at once,
with one exponent each, and chooses each power's route, one eigh of the
stack below LANCZOS_MIN_N operators and from there a Lanczos run per
state, certified at that state and exponent.  The recovery's X factors
are `x_matrix` of those vectors, one stacked product at every n.

Conventions: a channel matrix S has unit column sums with the column
indexing the input (S[a_out, a_in]), so distributions compose as S @ v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RepMismatch, SingularPosterior
from .frames import DualFrame, Frame, StructureCoefficients, check_dual
from .matcore import (
    DEFAULT_EPS,
    DEFAULT_TOL,
    ROOT_AND_INVERSE,
    eigh_spectrum,
    hermitian_eig,
    max_abs,
    mixing_weight,
    operator_stack,
    power_values,
    rank_threshold,
    support_powers,
    symmetrized,
)

# Smaller regularization weights are floored to this, and the weight used
# is reported.  The oracle deviation grows as 1/eps: over 200 pure priors
# through Haar unitaries, the worst sic-qubit one is 3.8e-10 at 1e-5 and
# 3.6e-9 at 1e-6, and at 1e-7 184 of the 200 miss the 1e-8 gate.
QPR_EPS_FLOOR = 1e-5

# Frames with fewer operators take state powers from one eigh of the state
# matrix, larger ones from a certified Lanczos run (`lanczos`).  A Lanczos
# run costs a fixed dozen small numpy calls per step, an eigh grows as n^3:
# `state_powers` of one random full-rank state (one BLAS thread, best of 5 x
# 300-2000 calls), eigh vs Lanczos, took 0.075 vs 0.135 ms at n = 4 (dw),
# 0.067 vs 0.119 (sic), 0.146 vs 0.239 at n = 16, 0.80 vs 0.38 at n = 64 and
# 15.3 vs 3.3 ms at n = 256.  qubit-sweep (n = 4) and dw3-product (n = 64)
# run on either side.
LANCZOS_MIN_N = 64
# A Lanczos run stops once its residual is this far below ||J||_max: the
# Krylov space is then invariant to roundoff.  Stopping late or early costs
# no accuracy, only certificates: the error estimate judges the run it gets.
LANCZOS_BREAK = 1e-10
# Largest `StateSpectrum.error_estimate` a run is used at; past it the power
# falls back to eigh.  Over the 6400 state powers of dw3-product's inputs at
# seeds 0-99 and 900-999 the estimate stays below 1.2e-13 (the powers are
# within 1.9e-14 of eigh's, relative), and over 20 at dw-qubits:4 below
# 9.4e-13.  A pure dw-qubits:3 prior through a Haar 16x16 dilation with
# ancilla diag(0.7, 0.3) has a rank-4 posterior; regularized at 1e-5 or
# 1e-6 its other eigenvalues lie near 1e-6 and 1e-7, and over 20 such priors
# at either weight the estimate reads 1.5e-2 or more, the relative error
# 1.8e-4 or more.  The residual alone does not tell these apart: it reaches
# 2.4e-11 ||J||_max on dw3-product and 1.7e-6 ||J||_max at dw-qubits:4.
LANCZOS_RTOL = 1e-10


def uniform_vector(n: int) -> np.ndarray:
    """Quasiprobability vector of the maximally mixed state, 1/n per entry."""
    return np.full(n, 1.0 / n)


def _traces(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Re Tr[ops_j x_p] as the (n, m) matrix [j, p] over the m matrices of
    a (..., d, d) stack x, in its C order.  The operators are Hermitian
    (`validate_frame` checks them to tol), so Re Tr[F x] = Re sum
    conj(F)_ab x_ab for any x: one real product of the flattened operators
    and matrices, each viewed as its interleaved real and imaginary parts."""
    n, d = ops.shape[0], ops.shape[-1]
    flat = np.ascontiguousarray(x, dtype=complex).reshape(-1, d * d).view(float)
    return ops.reshape(n, d * d).view(float) @ flat.T


def state_to_qpr(rho: np.ndarray, frame: Frame) -> np.ndarray:
    """v_a = Tr[rho F_a]; a stack (m, d, d) of states gives the (m, n)
    stack of their vectors, one row each, as `state_powers` and
    `x_matrix` take them."""
    rho = operator_stack(rho, frame.d, "state")
    return _traces(frame.ops, rho).T.reshape(rho.shape[:-2] + (-1,))


def povm_to_qpr(effect: np.ndarray, dual: DualFrame) -> np.ndarray:
    """Effect vector vbar_a = Tr[E G_a]; a stack (m, d, d) of effects gives
    the (m, n) stack of their vectors, one row each."""
    effect = operator_stack(effect, dual.ops.shape[1], "effect")
    return _traces(dual.ops, effect).T.reshape(effect.shape[:-2] + (-1,))


def reconstruct_state(v: np.ndarray, dual: DualFrame) -> np.ndarray:
    """alpha = sum_x v_x G_x; left inverse of state_to_qpr on valid vectors.
    A (k, n) stack of vectors gives the (k, d, d) stack of their states."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != dual.ops.shape[0]:
        raise RepMismatch(
            f"vector shape {v.shape} does not match frame size {dual.ops.shape[0]}")
    return np.einsum("...j,jab->...ab", v, dual.ops)


def channel_to_qpr(channel, frame: Frame, dual: DualFrame) -> np.ndarray:
    """Quasi-stochastic matrix S[a_out, a_in] = Tr[F_out E[G_in]].

    `channel` is anything exposing `apply` (a Kraus channel, a recovery
    map) or a bare callable such as a Kraus channel's adjoint.  Either is
    called once, on the whole (n, d, d) stack of dual operators, and must
    return the (n, d, d) stack of their images; any other shape raises
    DimensionMismatch, as the `apply` of a Kraus channel or recovery map
    of another dimension does.  Every trace is then one matrix product.
    `dual` is a claim, checked at DEFAULT_TOL (`frames.check_dual`).
    """
    if dual is not frame.dual:
        check_dual(frame, dual, DEFAULT_TOL)
    apply = channel.apply if hasattr(channel, "apply") else channel
    images = np.asarray(apply(dual.ops))
    if images.shape != dual.ops.shape:
        raise DimensionMismatch(
            f"channel maps the {dual.ops.shape} dual stack to shape {images.shape}")
    return _traces(frame.ops, images)


def channel_from_qpr(s: np.ndarray, frame: Frame, dual: DualFrame,
                     tol: float = DEFAULT_TOL) -> np.ndarray:
    """The (n, d, d) stack of Kraus operators of the channel
    E(X) = sum_{a,b} S[a,b] Tr[F_b X] G_a whose matrix in the frame is s:
    the inverse of `channel_to_qpr`, as `reconstruct_state` is of
    `state_to_qpr`.  `hilbert.KrausChannel.from_kraus` makes it a channel.

    s must be n x n with unit column sums, sum_a S[a, j] = Tr G_j = 1, as
    every channel matrix has in every frame (RepMismatch otherwise).  That
    is not enough: in a QPR such a matrix is the matrix of a channel only
    if its Choi matrix C[(i,k),(j,l)] = E(|i><j|)[k,l] = sum_a T_a[j,i]
    G_a[k,l], T_a = sum_b S[a,b] F_b, is PSD (Choi 1975).  C is two
    products and a reshape, and its eigenvalues go through `power_values`,
    which raises NotPSD below -tol: so the transpose map, positive but not
    completely positive, is refused.  The Kraus operators are C's
    eigenvectors, reshaped and weighted by the roots of their eigenvalues,
    as in `hilbert.channel_from_dilation`; those of eigenvalues under the
    rank cut are zero.  `dual` is a claim, checked at tol
    (`frames.check_dual`).
    """
    if dual is not frame.dual:
        check_dual(frame, dual, tol)
    s = np.asarray(s, dtype=float)
    n, d = frame.n, frame.d
    sums = s.sum(axis=0)
    if s.shape != (n, n) or not max_abs(sums - 1.0) <= tol:
        raise RepMismatch(f"not an {n} x {n} matrix [a_out, a_in] whose columns sum to 1: "
                          f"shape {s.shape}, column sums {sums.tolist()}")
    # the rows of S F are the T_a flattened as [j, i], so (S F)^T G is C as
    # [(j, i), (k, l)]
    choi = ((s @ frame.ops.reshape(n, n)).T @ dual.ops.reshape(n, n)).reshape(d, d, d, d)
    spec = hermitian_eig(choi.transpose(1, 2, 0, 3).reshape(n, n), tol)
    roots, _ = power_values(spec.values, 0.5, tol)
    # eigenvector k of C is vec(K_k^T), the input index first
    return (spec.vectors * roots).T.reshape(n, d, d).swapaxes(1, 2)


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
    diag(v^2).  A (k, n) stack of vectors gives the (k, n, n) stack of
    their matrices from one `left` call and two stacked products, at every
    n.  Minor page faults per operation: 0.025 on dw3-product, as when rows
    went one at a time from n = 64; 2240 per full-rank dw-qubits:4
    recovery on four Haar dilations, against 480-1696 a row at a time."""
    left = coeffs.left(v)
    # the real part of L conj(L); its imaginary part cancels for real v
    return left.real @ left.real + left.imag @ left.imag


def state_matrix(v: np.ndarray, coeffs: StructureCoefficients) -> np.ndarray:
    """J = Re `coeffs.left(v)`, the matrix of rho -> (alpha rho + rho alpha)/2
    for alpha reconstructed from v, as the symmetric Q^{-1/2} J Q^{1/2} if
    `coeffs` carries Gram roots.  J maps each eigenprojector of alpha to its
    eigenvalue times itself; its spectrum {(l_a + l_b)/2} keeps alpha's
    conditioning, which X(v) squares.  A (k, n) stack of vectors gives the
    (k, n, n) stack of their matrices."""
    j = coeffs.left(v).real
    roots = coeffs.gram_roots
    return j if roots is None else roots[1] @ j @ roots[0]


@dataclass(frozen=True, eq=False)
class StateSpectrum:
    """The powers J^r b = Y diag(values^r) c of the symmetric `state_matrix`
    A, b = `StructureCoefficients.e_sym` (e, or Q^{-1/2} e through the
    Gram roots): `vectors` Y has orthonormal columns and `weights`
    c = Y^T b.  On the "eigh" `route` they are A's eigenpairs, of one
    matrix or of a stack ((k, m) values and weights, (k, n, m) vectors);
    on the "lanczos" route the Ritz pairs of one run whose basis is
    invariant under A less a symmetric perturbation of norm `residual`,
    and `last` holds the Ritz vectors' last components."""

    values: np.ndarray
    vectors: np.ndarray
    weights: np.ndarray
    route: str
    residual: float = 0.0
    last: np.ndarray | None = None

    def power(self, r: float | np.ndarray, coeffs: StructureCoefficients,
              tol: float = DEFAULT_TOL) -> tuple[np.ndarray, bool | list[bool]]:
        """(Q^{1/2} Y values^r c, deficient): alpha^r on the support by
        `power_values`; for a stack the (k, n) rows, with r a number or one
        exponent per row, and a list of flags."""
        vals, deficient = power_values(self.values, r, tol)
        y = (self.vectors @ (vals * self.weights)[..., None])[..., 0]
        return (y if coeffs.gram_roots is None else y @ coeffs.gram_roots[0].T,
                deficient)

    def error_estimate(self, r: float) -> float:
        """Residual times derivative: the relative error of the power r, to
        first order; 0 on the eigh route.  The basis is exactly invariant
        under A - E, E = residual (q q_m^T + q_m q^T) with q_m its last
        vector and q the unit residual direction.  The derivative of x^r
        along E moves the power by residual * sum_j z_j (z_j . q) e_m^T
        f[mu_j, T] Z c over the eigenpairs (mu_j, z_j) off the basis, with
        T = Z diag(values) Z^T and f[mu, x] the divided difference of x^r,
        zero on the values the rank cut of `power_values` (its
        `support_powers`) sets to zero.  The mu_j are taken at the Ritz
        values; the estimate is the largest term over |values^r c|."""
        if self.last is None:
            return 0.0
        keep, safe, f = support_powers(self.values, r)
        size = math.hypot(*(f * self.weights))
        if size == 0.0:
            return 0.0
        # f[w_j, w_i] over the values with the cut ones at zero, or the
        # derivative r w_i^(r-1) where the quotient would cancel (w_j within
        # 1e-6 of w_i)
        w = np.where(keep, self.values, 0.0)
        gap = w[:, None] - w
        near = np.abs(gap) <= 1e-6 * w
        dd = np.where(near, r * f / safe, (f[:, None] - f) / np.where(near, 1.0, gap))
        return self.residual * max_abs(dd @ (self.weights * self.last)) / size


def lanczos(a: np.ndarray, b: np.ndarray, steps: int) -> StateSpectrum:
    """Lanczos run of the symmetric matrix a from b, of at most `steps`
    steps; J^r e lies in the span of the vectors of 1, alpha, ...,
    alpha^(d-1), so d = sum(e) steps reach it in exact arithmetic.  Each
    step orthogonalizes against the whole basis by two classical
    Gram-Schmidt passes, and the run stops early once the residual falls
    below LANCZOS_BREAK * ||a||_max."""
    norm = math.sqrt(b @ b)
    stop = LANCZOS_BREAK * max_abs(a)
    basis = np.empty((steps, a.shape[0]))
    t = np.zeros((steps, steps))
    q = b / norm
    for k in range(steps):
        basis[k] = q
        done = basis[:k + 1]
        # np.dot gives the runs of @ bit for bit (all 96 on dw3-product's
        # inputs at seeds 1-3) with less dispatch per call: 99 us a run
        # against 116 us at n = 64, one BLAS thread on a 2-core x86
        q = np.dot(a, q)
        h = np.dot(done, q)
        q -= np.dot(h, done)
        h2 = np.dot(done, q)
        q -= np.dot(h2, done)
        t[k, k] = h[k] + h2[k]
        residual = math.sqrt(q @ q)
        if residual <= stop or k == steps - 1:
            break
        t[k, k + 1] = t[k + 1, k] = residual
        q *= 1.0 / residual
    values, z = np.linalg.eigh(t[:k + 1, :k + 1])
    # b = norm q_1, so c = Y^T b = norm Z^T e_1
    return StateSpectrum(values, basis[:k + 1].T @ z, norm * z[0], "lanczos",
                         residual, z[-1])


def _eigh_spectrum_of(a: np.ndarray, b: np.ndarray, tol: float) -> StateSpectrum:
    """The "eigh" `StateSpectrum` of a symmetrized state matrix or stack."""
    spec = eigh_spectrum(a, tol)
    return StateSpectrum(spec.values, spec.vectors,
                         spec.vectors.swapaxes(-1, -2) @ b, "eigh")


def state_powers(v: np.ndarray, r: tuple | np.ndarray,
                 coeffs: StructureCoefficients, tol: float = DEFAULT_TOL
                 ) -> tuple[np.ndarray, list, tuple]:
    """(rows, deficient, routes) for a (k, n) stack of state vectors and
    one exponent r_i per row: the vector of alpha_i^{r_i} on the support,
    under the rank policy of `power_values`, its deficient flag and its
    route, for each row.  The one place a state power's route is chosen,
    and `symmetrized` is the one symmetry check on either route.

    At every n the rows' state matrices are built as one stack and
    checked by one `symmetrized` call.  Below LANCZOS_MIN_N operators
    their powers are one eigh call and one power.  From there each row
    takes a `lanczos` run of d = sum(e) steps, used if its
    `error_estimate` of the power r_i is within LANCZOS_RTOL, so each
    power is certified at the matrix and exponent it is taken at;
    otherwise the row takes the eigh spectrum of the same matrix."""
    b = coeffs.e_sym
    matrices = symmetrized(state_matrix(v, coeffs), tol)
    if b.size < LANCZOS_MIN_N:
        rows, deficient = _eigh_spectrum_of(matrices, b, tol).power(r, coeffs, tol)
        return rows, deficient, ("eigh",) * len(rows)
    out = []
    for a, exponent in zip(matrices, r):
        spec = lanczos(a, b, int(round(coeffs.e.sum())))
        if not spec.error_estimate(exponent) <= LANCZOS_RTOL:
            spec = _eigh_spectrum_of(a, b, tol)
        out.append((*spec.power(exponent, coeffs, tol), spec.route))
    rows, deficient, routes = zip(*out)
    return np.array(rows), list(deficient), routes


def adjoint_qpr(s: np.ndarray, gram_roots: tuple | None) -> np.ndarray:
    """Representation S_adj[i, j] = Tr[F_i E^dag[G_j]] of the adjoint map,
    from the channel matrix alone.

    With d^2 frame operators the dual is G = Q^{-1} F for the frame Gram
    Q[i,j] = Tr[F_i F_j], so S_adj = Q S^T Q^{-1} for every frame, taken
    through `gram_roots` = (Q^{1/2}, Q^{-1/2}) of its
    `StructureCoefficients`.  None means Q is a multiple of 1 (every nq
    frame), whose rule is a copy of the transpose.  The paper's SIC closed
    form S^T + K is no faster, and lives in `verify` as a check.
    """
    s = np.asarray(s, dtype=float)
    if gram_roots is None:
        return s.T.copy()
    half, inv_half = gram_roots
    return half @ (half @ s.T @ inv_half) @ inv_half


@dataclass(frozen=True, eq=False)
class PetzQprResult:
    """Retrodiction matrix plus how a rank-deficient posterior was handled,
    as the Hilbert-side `PetzMap` reports it.

    For a full-rank posterior eps_used = 0.  Otherwise `matrix` is the
    Petz map of the prior mixed with the uniform vector at `eps_used`, the
    map the Hilbert-side oracle regularizes to, and `support_projected`
    marks a posterior that keeps a kernel after regularization.
    `root_routes` names the `state_powers` route of each root, "lanczos"
    or "eigh", in the order taken: the prior and its support posterior,
    then, if regularized, the mixed prior and its posterior.
    """

    matrix: np.ndarray
    eps_used: float = 0.0
    support_projected: bool = False
    root_routes: tuple = ()


def petz_qpr(s: np.ndarray, v_prior: np.ndarray, coeffs: StructureCoefficients,
             kind: str | None = None, eps: float = DEFAULT_EPS, *,
             tol: float = DEFAULT_TOL) -> PetzQprResult:
    """Recovery matrix M_prior^{1/2} S_adj M_post^{-1/2} from
    quasiprobability data alone, X(v^{1/2}) S_adj X((S v)^{-1/2}).

    `coeffs` holds the structure coefficients of the representation (the
    classical delta tensor reduces this to the classical Bayes inverse for
    nonnegative priors).  The adjoint S_adj is `adjoint_qpr` of the Gram
    roots `coeffs` carries; `kind` is a claim, and one that contradicts the
    derived `coeffs.kind` raises RepMismatch.

    The roots of the prior and its posterior are one `state_powers` stack,
    which flags a rank-deficient posterior.  With eps = 0 that raises
    SingularPosterior; otherwise the prior is mixed with the uniform vector
    at weight eps_used = max(eps, QPR_EPS_FLOOR), eps in [0, 1] (ValueError
    outside), and the roots are taken again of that mixed prior and its
    posterior.  The roots settled on then go through one `x_matrix` call
    and one sandwich: a full-rank recovery is one eigh call on the eigh
    route, a regularized one two.
    """
    s = np.asarray(s, dtype=float)
    v_prior = np.asarray(v_prior, dtype=float)
    n = v_prior.shape[0]
    if s.shape != (n, n) or coeffs.n != n:
        raise RepMismatch("channel matrix, prior and coefficients disagree in size")
    if kind not in (None, coeffs.kind):
        raise RepMismatch(f"kind {kind!r} contradicts the coefficients of "
                          f"{coeffs.frame_name!r}, whose kind is {coeffs.kind!r}")
    adjoint = adjoint_qpr(s, coeffs.gram_roots)
    eps_used = max(mixing_weight(eps), QPR_EPS_FLOOR)
    roots, (_, deficient), routes = state_powers(
        np.array([v_prior, s @ v_prior]), ROOT_AND_INVERSE, coeffs, tol)
    projected = False
    if deficient:
        if eps <= 0.0:
            raise SingularPosterior(
                "posterior matrix is rank-deficient and regularization is disabled")
        mixed = (1 - eps_used) * v_prior + eps_used * uniform_vector(n)
        roots, (_, projected), mixed_routes = state_powers(
            np.array([mixed, s @ mixed]), ROOT_AND_INVERSE, coeffs, tol)
        routes += mixed_routes
    x = x_matrix(roots, coeffs)
    return PetzQprResult(matrix=x[0] @ adjoint @ x[1],
                         eps_used=eps_used if deficient else 0.0,
                         support_projected=projected, root_routes=routes)


def classical_bayes(s: np.ndarray, v_prior: np.ndarray,
                    eps: float = DEFAULT_EPS) -> np.ndarray:
    """Classical Bayes inversion D_prior S^T D_post^{-1}.

    Accepts quasi-stochastic matrices and sign-indefinite "posteriors"
    without complaint: evaluating the formally invalid grafting of the
    classical rule onto quasiprobabilities is a supported mode.  Posterior
    entries at zero are escaped by mixing the prior with the uniform
    distribution at weight eps in [0, 1] (ValueError outside); if that
    cannot lift them, the inversion is undefined and SingularPosterior is
    raised.  A non-finite entry in s or in the prior raises RepMismatch.
    """
    eps = mixing_weight(eps)
    s = np.asarray(s, dtype=float)
    v = np.asarray(v_prior, dtype=float)
    n = v.shape[0]
    if s.shape != (n, n):
        raise RepMismatch(f"matrix shape {s.shape} does not match prior length {n}")
    for name, x in (("channel matrix", s), ("prior", v)):
        if not np.isfinite(x).all():
            raise RepMismatch(f"{name} has a non-finite entry")
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
