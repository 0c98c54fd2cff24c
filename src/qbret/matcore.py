"""Dense matrix arithmetic for small Hilbert/quasiprobability dimensions.

Everything here operates on plain numpy arrays (complex for Hilbert-space
operators, real for quasiprobability objects).  Matrices are dense and
small: the quasiprobability side of a frame is n x n with n = d^2, and
n = 256 (dw-qubits:4) is the largest size run so far.

Every matrix power is taken from one spectrum under the one rank policy
of `power_values`: clamp roundoff negatives, give power zero below the
relative rank threshold, and return the power on the support with a
`deficient` flag, for negative powers too; the callers that need full
rank read the flag.  `Spectrum.power` applies it to an eigenbasis,
`qprcore.StateSpectrum` to the eigen- or Ritz values of a state matrix,
which it maps to the vector J^r e without building the n x n power, and
`hilbert.channel_from_dilation` to the ancilla spectrum.  The state-side
matrices of frames whose Gram is not a multiple of the identity are not
symmetric; `qprcore.state_matrix` makes them so by a similarity through
the frame Gram, and `symmetrized` checks them once; neither route of
`qprcore.state_spectrum` checks again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPSD,
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


def rank_threshold(scale: float) -> float:
    """Absolute cutoff below which a value counts as zero next to `scale`
    (the largest eigenvalue or entry); never zero, so a zero `scale`
    still leaves every value at or below the cutoff."""
    return RANK_RTOL * max(float(scale), 1e-300)


def mixing_weight(eps: float) -> float:
    """`eps` as a float if it lies in [0, 1]; ValueError otherwise, NaN too."""
    if not 0.0 <= float(eps) <= 1.0:
        raise ValueError(f"mixing weight {eps!r} is not in [0, 1]")
    return float(eps)


def _require_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def operator_stack(x: np.ndarray, d: int, what: str = "operator") -> np.ndarray:
    """`x` as a complex d x d operator or (..., d, d) stack of them, which
    every map and morphism accepts; any other shape raises
    DimensionMismatch naming `what`."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (d, d):
        raise DimensionMismatch(
            f"{what} shape {x.shape} does not match dimension {d}")
    return x


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""

    values: np.ndarray
    vectors: np.ndarray

    def power(self, r: float,
              tol: float = DEFAULT_TOL) -> tuple[np.ndarray, bool]:
        """(matrix^r on the support, deficient) for a nonnegative
        spectrum, by `power_values`."""
        vals, deficient = power_values(self.values, r, tol)
        return (self.vectors * vals) @ dagger(self.vectors), deficient


def power_values(w: np.ndarray, r: float,
                 tol: float = DEFAULT_TOL) -> tuple[np.ndarray, bool]:
    """(w^r on the support, deficient) for ascending eigenvalues w: the
    one rank policy.  Values in [-tol, 0) are clamped to zero, and those
    below `rank_threshold` of the largest get power zero, for negative r
    too (the inverse on the support); `deficient` says whether any did.
    Raises NotPSD below -tol."""
    if w[0] < -tol:
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e} < -tol")
    w = np.clip(w, 0.0, None)
    thr = rank_threshold(w[-1])
    keep = w >= thr
    return np.where(keep, np.maximum(w, thr) ** r, 0.0), not bool(keep.all())


def hermitian_eig(h: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """`eigh_spectrum` of h; NotHermitian unless ||H - H^dag||_max <= tol,
    so also on NaN entries."""
    h = _require_square(h)
    dev = max_abs(h - dagger(h))
    if not dev <= tol:
        raise NotHermitian(f"||H - H^dag||_max = {dev:.3e} > tol = {tol:.3e}")
    return eigh_spectrum(h, tol)


def eigh_spectrum(h: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues (ascending) and eigenvectors of a matrix already made
    Hermitian, checked no further.  Raises NoConvergence if eigh fails or
    the reconstruction residual exceeds 10*tol*||H||_max, NaN included."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    resid = max_abs((v * w) @ dagger(v) - h)
    bound = 10 * tol * max(max_abs(h), 1.0)
    if not resid <= bound:
        raise NoConvergence(f"reconstruction residual {resid:.3e} > {bound:.3e}")
    return Spectrum(values=w, vectors=v)


def psd_sqrt(h: np.ndarray, tol: float = DEFAULT_TOL, *,
             inverse: bool = False) -> tuple[np.ndarray, bool]:
    """(h^{1/2} or h^{-1/2} on the support, deficient) of a PSD matrix by
    one `hermitian_eig`, under the rank policy of `power_values`: a pure
    state's root and inverse root are both its projector."""
    return hermitian_eig(h, tol).power(-0.5 if inverse else 0.5, tol)


def symmetrized(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(m + m^T)/2 of a real square matrix.

    Raises NotHermitian unless ||m - m^T||_max <= tol * max(||m||_max, 1),
    so also on NaN entries.
    """
    m = _require_square(np.asarray(m, dtype=float))
    dev = max_abs(m - m.T)
    if not dev <= tol * max(max_abs(m), 1.0):
        raise NotHermitian(f"||M - M^T||_max = {dev:.3e} exceeds tol")
    return (m + m.T) / 2


def principal_power(m: np.ndarray, r: float,
                    tol: float = DEFAULT_TOL) -> tuple[np.ndarray, bool]:
    """(m^r on the support, deficient) of a real symmetric matrix with
    nonnegative spectrum: `Spectrum.power` of `eigh_spectrum(symmetrized(m))`,
    whose errors it shares.  Nothing in the package calls it."""
    return eigh_spectrum(symmetrized(m, tol), tol).power(r, tol)


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
