"""Dense matrix arithmetic for small Hilbert/quasiprobability dimensions.

Everything here operates on plain numpy arrays (complex for Hilbert-space
operators, real for quasiprobability objects) sized for Hilbert dimension
d <= 8, i.e. at most 64x64 on the quasiprobability side.

Every matrix power is taken by one Hermitian eigendecomposition and
`Spectrum.power`, which holds the one rank policy: clamp roundoff
negatives, give power zero below the relative rank threshold, refuse
negative powers of rank-deficient spectra unless asked for the inverse
on the support.  The state-side matrices of frames whose Gram is not a
multiple of the identity are not symmetric; `qprcore.state_power`
makes them so by a similarity through the frame Gram before they reach
`principal_power`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPSD,
    Singular,
)

# Default tolerances: hermiticity/PSD checks at 1e-10, cross-checks against
# the Hilbert-space oracle at 1e-8, relative rank cutoff for inverses at
# 1e-12.  Conditioning is benign at these sizes.
DEFAULT_TOL = 1e-10
ORACLE_TOL = 1e-8
RANK_RTOL = 1e-12

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
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ dagger(self.vectors)

    def power(self, r: float, tol: float = DEFAULT_TOL, *,
              singular: str = "error") -> tuple[np.ndarray, bool]:
        """(matrix^r, deficient) for a nonnegative spectrum.

        Eigenvalues in [-tol, 0) are clamped to zero, and those below
        `rank_threshold` of the largest get power zero (the power on the
        support); `deficient` says whether any did.  Raises NotPSD below
        -tol, and Singular for a negative power of a deficient spectrum
        unless singular="support" asks for the inverse on the support.
        """
        w = self.values
        if w[0] < -tol:
            raise NotPSD(f"smallest eigenvalue {w[0]:.3e} < -tol")
        w = np.clip(w, 0.0, None)
        thr = rank_threshold(w[-1])
        keep = w >= thr
        deficient = not bool(keep.all())
        if r < 0 and deficient and singular != "support":
            raise Singular(f"eigenvalue {w[0]:.3e} below rank threshold {thr:.3e}")
        vals = np.where(keep, np.maximum(w, thr) ** r, 0.0)
        v = self.vectors
        return (v * vals) @ dagger(v), deficient


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
    return Spectrum(values=w, vectors=v)


def psd_sqrt(h: np.ndarray, tol: float = DEFAULT_TOL, *,
             inverse: bool = False,
             singular: str = "error") -> tuple[np.ndarray, bool]:
    """(h^{1/2} or h^{-1/2}, deficient) of a PSD matrix by one
    `hermitian_eig`, under the rank policy of `Spectrum.power`: a pure
    state's root is its projector, and the inverse root of a deficient
    matrix raises Singular unless singular="support"."""
    return hermitian_eig(h, tol).power(-0.5 if inverse else 0.5, tol,
                                       singular=singular)


def principal_power(m: np.ndarray, r: float, tol: float = DEFAULT_TOL, *,
                    singular: str = "error") -> tuple[np.ndarray, bool]:
    """(m^r, deficient): the principal r-th power of a real symmetric
    matrix with nonnegative spectrum, by one `hermitian_eig` and
    `Spectrum.power`, whose rank policy and errors it shares.

    Raises NotHermitian unless ||m - m^T||_max <= tol * max(||m||_max, 1).
    """
    m = _require_square(np.asarray(m, dtype=float))
    dev = max_abs(m - m.T)
    if dev > tol * max(max_abs(m), 1.0):
        raise NotHermitian(f"||M - M^T||_max = {dev:.3e} exceeds tol")
    return hermitian_eig((m + m.T) / 2, tol).power(r, tol, singular=singular)


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
