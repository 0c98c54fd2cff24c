"""Dense matrix arithmetic for small Hilbert/quasiprobability dimensions.

Everything here operates on plain numpy arrays (complex for Hilbert-space
operators, real for quasiprobability objects) sized for Hilbert dimension
d <= 8, i.e. at most 64x64 on the quasiprobability side.

scipy is imported only inside the Schur route of `principal_power` (and
`schur_spectrum`), so neither importing this module nor the power of a
symmetric matrix loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexResidue,
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPSD,
    Singular,
    SingularForNegativePower,
    SpectrumNotNonnegative,
)

# Default tolerances: hermiticity/PSD checks at 1e-10, cross-checks against
# the Hilbert-space oracle at 1e-8, relative rank cutoff for inverses at
# 1e-12.  Conditioning is benign at these sizes.
DEFAULT_TOL = 1e-10
ORACLE_TOL = 1e-8
RANK_RTOL = 1e-12

# Fractional powers of non-symmetric matrices go through a complex Schur
# factorization; with (near-)degenerate eigenvalues the imaginary rounding
# noise can reach ~sqrt(machine eps) even though the real part stays at
# ~1e-14.  The residue check for discarded imaginary parts uses this floor.
IMAG_NOISE_FLOOR = 1e-7

EYE2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry (max norm)."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.abs(a).max())


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def rank_threshold(scale: float, rank_rtol: float = RANK_RTOL) -> float:
    """Absolute cutoff below which a value counts as zero next to `scale`
    (the largest eigenvalue or entry); never zero, so a zero `scale`
    still leaves every value at or below the cutoff."""
    return rank_rtol * max(float(scale), 1e-300)


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigendata of a square matrix plus the method that produced it.

    For "hermitian-eigen" the vectors are eigenvectors; for
    "general-schur" they are the unitary Schur factor and `triangular`
    holds the triangular one.
    """

    values: np.ndarray
    vectors: np.ndarray
    method: str  # "hermitian-eigen" | "general-schur"
    triangular: np.ndarray | None = None

    def reconstruct(self) -> np.ndarray:
        if self.method == "hermitian-eigen":
            return (self.vectors * self.values) @ dagger(self.vectors)
        return self.vectors @ self.triangular @ dagger(self.vectors)


def schur_spectrum(m: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Complex Schur factorization as a Spectrum (no symmetry assumed)."""
    from scipy.linalg import schur
    m = _require_square(m)
    t, z = schur(np.asarray(m, dtype=complex), output="complex")
    spec = Spectrum(values=np.diag(t).copy(), vectors=z,
                    method="general-schur", triangular=t)
    resid = max_abs(spec.reconstruct() - m)
    bound = 10 * tol * max(max_abs(m), 1.0)
    if resid > bound:
        raise NoConvergence(f"reconstruction residual {resid:.3e} > {bound:.3e}")
    return spec


def hermitian_eig(h: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian if ||H - H^dag||_max > tol and NoConvergence if the
    underlying iteration fails.  The reconstruction residual is checked
    against 10*tol*||H||_max.
    """
    h = _require_square(h)
    dev = max_abs(h - dagger(h))
    if dev > tol:
        raise NotHermitian(f"||H - H^dag||_max = {dev:.3e} > tol = {tol:.3e}")
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    resid = max_abs((v * w) @ dagger(v) - h)
    bound = 10 * tol * max(max_abs(h), 1.0)
    if resid > bound:
        raise NoConvergence(f"reconstruction residual {resid:.3e} > {bound:.3e}")
    return Spectrum(values=w, vectors=v, method="hermitian-eigen")


def psd_sqrt(h: np.ndarray, tol: float = DEFAULT_TOL, *,
             inverse: bool = False, rank_rtol: float = RANK_RTOL,
             singular: str = "error") -> np.ndarray:
    """Principal square root (or inverse square root) of a PSD matrix.

    Eigenvalues in [-tol, 0) are clamped to zero before the root, which
    keeps exactly-singular inputs (pure states) reproducible.  The inverse
    variant raises Singular when an eigenvalue falls below the relative
    rank threshold, unless singular="support" asks for the Moore-Penrose
    root on the support instead.
    """
    spec = hermitian_eig(h, tol)
    w = spec.values
    if w[0] < -tol:
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e} < -tol")
    w = np.clip(w, 0.0, None)
    if inverse:
        thr = rank_threshold(w[-1], rank_rtol)
        if w[0] < thr and singular != "support":
            raise Singular(f"eigenvalue {w[0]:.3e} below rank threshold {thr:.3e}")
        with np.errstate(divide="ignore"):
            vals = np.where(w < thr, 0.0, 1.0 / np.sqrt(np.maximum(w, thr)))
    else:
        vals = np.sqrt(w)
    v = spec.vectors
    b = (v * vals) @ dagger(v)
    return (b + dagger(b)) / 2


def _power_scalar(w: np.ndarray, r: float) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.power(w, r)


def _solve_upper(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^{-1} b for an invertible upper-triangular a (LAPACK trtrs)."""
    from scipy.linalg.lapack import ztrtrs
    x, info = ztrtrs(a, b)
    if info != 0:
        raise Singular(f"triangular factor has a zero pivot at {info}")
    return x


def _sqrt_triu(t: np.ndarray) -> np.ndarray:
    """Principal square root of an upper-triangular matrix with no zero on
    its diagonal (Bjorck-Hammarling recurrence).

    R_jj = sqrt(T_jj), and since sum_{i<=k<=j} R_ik R_kj = T_ij, column j
    above the diagonal solves (R[:j, :j] + R_jj I) x = T[:j, j].  The
    shifted diagonal R_ii + R_jj is a sum of principal roots, so it stays
    away from zero even for repeated eigenvalues.
    """
    n = t.shape[0]
    r = np.diag(np.sqrt(np.diag(t)))
    eye = np.eye(n)
    for j in range(1, n):
        r[:j, j] = _solve_upper(r[:j, :j] + r[j, j] * eye[:j, :j], t[:j, j])
    return r


def _triu_power(t: np.ndarray, r: float) -> np.ndarray:
    """t^r of an invertible upper-triangular matrix: the triangular root
    for r = 1/2, a triangular solve against it for r = -1/2, and
    Schur-Pade (which takes a triangle as already factored) otherwise."""
    from scipy.linalg import fractional_matrix_power
    if abs(r) == 0.5:
        root = _sqrt_triu(t)
        return root if r > 0 else _solve_upper(root, np.eye(t.shape[0]))
    return fractional_matrix_power(t, r)


def _schur_power(t: np.ndarray, z: np.ndarray, r: float,
                 keep: np.ndarray) -> np.ndarray:
    """x^r of the matrix Z T Z^H, zero on the eigenvalues not in `keep`.

    When some are dropped the Schur form is reordered (no second
    factorization) so the kept ones form the leading block T11 and the
    trailing block T22 holds the (numerically) semisimple kernel.  With
    f(T22) = 0 the commutation relation F T = T F fixes the coupling block
    as F12 = T11^{-1} f(T11) T12.  For r < 0 this realizes the root on the
    support (zero off it).
    """
    from scipy.linalg.lapack import ztrsen
    n = t.shape[0]
    k = int(keep.sum())
    if k < n:
        t, z, _w, _m, _s, _sep, info = ztrsen(keep.astype(np.int32), t, z,
                                              job="N")
        if info != 0:
            raise NoConvergence(f"Schur reordering failed (info={info})")
    f = np.zeros((n, n), dtype=complex)
    if k > 0:
        t11 = t[:k, :k]
        f[:k, :k] = _triu_power(t11, r)
        if k < n:
            f[:k, k:] = _solve_upper(t11, f[:k, :k] @ t[:k, k:])
    return z @ f @ dagger(z)


def principal_power(m: np.ndarray, r: float, tol: float = DEFAULT_TOL, *,
                    rank_rtol: float = RANK_RTOL, singular: str = "error",
                    return_deficient: bool = False):
    """Principal r-th power of a real matrix with nonnegative real spectrum.

    Each input is factored once.  Symmetric inputs take `hermitian_eig`;
    everything else one complex Schur form (no diagonalizability assumed),
    whose triangle yields the spectrum check, the square root by the
    triangular recurrence and the inverse root by a triangular solve
    against it.  Eigenvalues in [-tol, 0) are clamped to zero, and the
    imaginary residue of the Schur route is checked before being
    discarded.

    ``singular`` controls negative powers of rank-deficient input: "error"
    raises SingularForNegativePower, "support" inverts on the support only.
    With ``return_deficient`` the result is ``(power, deficient)``, where
    `deficient` says whether an eigenvalue fell below the rank threshold.
    """
    m = _require_square(np.asarray(m, dtype=float))
    sym = max_abs(m - m.T) <= tol * max(max_abs(m), 1.0)
    spec = hermitian_eig((m + m.T) / 2, tol) if sym else schur_spectrum(m, tol)
    w = spec.values
    if max_abs(w.imag) > tol:
        raise SpectrumNotNonnegative(
            f"max |Im eig| = {max_abs(w.imag):.3e} > tol")
    wr = w.real
    if wr.min() < -tol:
        raise SpectrumNotNonnegative(
            f"min Re eig = {wr.min():.3e} < -tol")
    wr = np.clip(wr, 0.0, None)
    thr = rank_threshold(wr.max(), rank_rtol)
    keep = wr >= thr
    deficient = not bool(keep.all())
    if r < 0 and deficient and singular == "error":
        raise SingularForNegativePower(
            f"min eigenvalue {wr.min():.3e} below rank threshold {thr:.3e}")

    if float(r).is_integer() and not (deficient and r < 0):
        p = np.linalg.matrix_power(m, int(r))
    elif sym:
        vals = np.where(keep, _power_scalar(wr, r), 0.0)
        v = spec.vectors
        p = (v * vals) @ v.T
    else:
        p = _schur_power(spec.triangular, spec.vectors, r, keep)
        imag = max_abs(np.imag(p))
        if imag > max(tol, IMAG_NOISE_FLOOR):
            raise ComplexResidue(
                f"imaginary residue {imag:.3e} exceeds tolerance")
        p = np.real(p)
    return (p, deficient) if return_deficient else p


def partial_trace_b(w: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Trace out the second factor of a composite operator.

    The composite basis |a> (x) |b> is ordered with b fastest, matching
    numpy's kron convention.
    """
    w = _require_square(w)
    if w.shape[0] != dim_a * dim_b:
        raise DimensionMismatch(
            f"matrix of size {w.shape[0]} incompatible with {dim_a}x{dim_b}")
    return np.einsum("abcb->ac", w.reshape(dim_a, dim_b, dim_a, dim_b))
