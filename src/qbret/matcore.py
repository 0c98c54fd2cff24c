"""Dense matrix arithmetic for small Hilbert/quasiprobability dimensions.

Everything here operates on plain numpy arrays (complex for Hilbert-space
operators, real for quasiprobability objects).  Matrices are dense and
small: the quasiprobability side of a frame is n x n with n = d^2, and
n = 256 (dw-qubits:4) is the largest size run so far.

The checks and factorizations take a square matrix or a (..., m, m)
stack of them, and a stack is the same code as a single matrix: one
call checks, factors or powers every matrix, and every tolerance that
scales with a matrix scales with that matrix alone, never with the
stack.  So independent matrices, such as a prior and its posterior, are
checked once and factored by one `eigh` call.

Every matrix power is taken from one spectrum under the one rank policy
of `power_values`: clamp roundoff negatives, give power zero below the
relative rank threshold, and return the power on the support with a
`deficient` flag, for negative powers too; the callers that need full
rank read the flag.  The values must be in ascending order, as `eigh`
gives them, because the flag is read from the smallest alone.
`Spectrum.power` applies it to an eigenbasis, `qprcore.StateSpectrum` to
the eigen- or Ritz values of a state matrix, which it maps to the vector
J^r e without building the n x n power, and
`hilbert.channel_from_dilation` to the ancilla spectrum.  Its cut and
powers are `support_powers`, which the Lanczos certificate
`qprcore.StateSpectrum.error_estimate` shares, so there is one rank cut.
The state-side matrices of frames whose Gram is not a multiple of the
identity are not symmetric; `qprcore.state_matrix` makes them so by a
similarity through the frame Gram, and `symmetrized` checks them once;
neither route of `qprcore.state_powers` checks again.
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
# The default regularization weight of every recovery and of classical
# Bayes, and of the command line's --eps when it is absent.
DEFAULT_EPS = 1e-8

# The exponents of a stacked (prior, posterior) spectrum, one per row: the
# root of the prior and the inverse root of the posterior.
ROOT_AND_INVERSE = np.array([0.5, -0.5])
ROOT_AND_INVERSE.setflags(write=False)

EYE2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry (max norm), NaN if any entry is NaN, and 0.0
    for an empty array."""
    a = np.asarray(a)
    return 0.0 if a.size == 0 else float(np.maximum.reduce(np.abs(a), axis=None))


def dagger(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).conj().T


def read_only(a: np.ndarray) -> np.ndarray:
    """`a` itself, made read-only in place."""
    a.setflags(write=False)
    return a


def _within_each(dev: np.ndarray, a: np.ndarray, rtol: float) -> bool:
    """Whether `max_abs` of each matrix of the (..., m, m) stack `dev` is
    at most rtol * max(`max_abs`, 1) of the same matrix of `a`, False on
    NaN.  Every bound is at least rtol, so a stack whose largest deviation
    is within rtol passes without its scales; otherwise one reduction of
    bound - deviation decides, exact because a float difference is zero
    only between equal floats."""
    dev = np.abs(dev)
    return bool(np.maximum.reduce(dev, axis=None) <= rtol or np.minimum.reduce(
        rtol * np.maximum.reduce(np.abs(a), axis=(-2, -1), initial=1.0)
        - np.maximum.reduce(dev, axis=(-2, -1)), axis=None) >= 0.0)


def rank_threshold(scale: float | np.ndarray) -> float | np.ndarray:
    """Absolute cutoff below which a value counts as zero next to `scale`
    (the largest eigenvalue or entry, or an array of them); never zero, so
    a zero `scale` still leaves every value at or below the cutoff."""
    return RANK_RTOL * np.maximum(scale, 1e-300)


def mixing_weight(eps: float) -> float:
    """`eps` as a float if it lies in [0, 1]; ValueError otherwise, NaN too."""
    if not 0.0 <= float(eps) <= 1.0:
        raise ValueError(f"mixing weight {eps!r} is not in [0, 1]")
    return float(eps)


def _require_square(a: np.ndarray, dtype=None) -> np.ndarray:
    """a as an array of `dtype` and shape (..., m, m); DimensionMismatch
    otherwise."""
    a = np.asarray(a, dtype=dtype)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
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
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix, or
    of each matrix of a stack: `values` (..., m), `vectors` (..., m, m)."""

    values: np.ndarray
    vectors: np.ndarray

    def power(self, r: float | np.ndarray, tol: float = DEFAULT_TOL
              ) -> tuple[np.ndarray, bool | list[bool]]:
        """(matrix^r on the support, deficient) for a nonnegative
        spectrum, by `power_values`, per matrix of a stack, with r a number
        or one exponent per matrix."""
        vals, deficient = power_values(self.values, r, tol)
        v = self.vectors
        return (v * vals[..., None, :]) @ v.conj().swapaxes(-1, -2), deficient


def power_values(w: np.ndarray, r: float | np.ndarray, tol: float = DEFAULT_TOL
                 ) -> tuple[np.ndarray, bool | list[bool]]:
    """(w^r on the support, deficient) for eigenvalues w, one row (m,) or a
    (k, m) stack, each row in ascending order: the one rank policy.  Values
    in [-tol, 0) count as zero, and those below `rank_threshold` of their
    row's largest get power zero, for negative r too (the inverse on the
    support); `deficient` says whether any did, read from the row's
    smallest value: a bool for one row, a list of bools for a stack.  r is
    a number or one exponent per row.  Raises NotPSD unless every value is
    >= -tol and each row's last >= its first, so also on a NaN anywhere."""
    # rows along the last axis, so a row's first and last values and its
    # exponent broadcast against all of its values
    wt = w.T
    if not np.minimum.reduce(np.minimum(wt + tol, wt[-1] - wt[0]), axis=None) >= 0.0:
        raise NotPSD(f"eigenvalues {w} are not ascending and >= -tol")
    keep, _, powers = support_powers(wt, r)
    return powers.T, (~keep[0]).tolist()


def support_powers(w: np.ndarray, r: float | np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(keep, safe, powers) of ascending eigenvalues w with the values of a
    row down the first axis (one row, or a transposed stack): the rank cut
    of `power_values`, unchecked.  `keep` marks the values at or above
    `rank_threshold` of their row's largest, `safe` holds them with 1.0
    elsewhere, and `powers` holds safe^r where kept and 0.0 elsewhere: no
    cut value is raised to r, so a zero spectrum cannot overflow."""
    keep = w >= rank_threshold(w[-1])
    safe = np.where(keep, w, 1.0)
    # times the mask, not a second where: x * 1.0 is x, and 1.0 ** r * 0.0
    # is 0.0
    return keep, safe, safe ** r * keep


def hermitian_eig(h: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """`eigh_spectrum` of h or of a stack of them; NotHermitian unless
    ||H - H^dag||_max <= tol for each matrix, so also on NaN entries."""
    h = _require_square(h)
    # tol is absolute, so the largest deviation over the stack checks each
    dev = max_abs(h - h.conj().swapaxes(-1, -2))
    if not dev <= tol:
        raise NotHermitian(f"||H - H^dag||_max = {dev:.3e} > tol = {tol:.3e}")
    return eigh_spectrum(h, tol)


def eigh_spectrum(h: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Eigenvalues (ascending) and eigenvectors of a matrix already made
    Hermitian, or of each matrix of a stack by one `eigh` call, checked no
    further.  Raises NoConvergence if eigh fails or a matrix's
    reconstruction residual exceeds 10*tol*||H||_max of that matrix, NaN
    included."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    resid = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2) - h
    if not _within_each(resid, h, 10 * tol):
        raise NoConvergence(
            f"reconstruction residual {max_abs(resid):.3e} over its bound")
    return Spectrum(values=w, vectors=v)


def psd_sqrt(h: np.ndarray, tol: float = DEFAULT_TOL, *,
             inverse: bool = False) -> tuple[np.ndarray, bool]:
    """(h^{1/2} or h^{-1/2} on the support, deficient) of a PSD matrix, or
    of each of a stack, by one `hermitian_eig`, under the rank policy of
    `power_values`: a pure state's root and inverse root are both its
    projector."""
    return hermitian_eig(h, tol).power(-0.5 if inverse else 0.5, tol)


def symmetrized(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """(m + m^T)/2 of a real square matrix or of each of a stack.

    Raises NotHermitian unless ||m - m^T||_max <= tol * max(||m||_max, 1)
    for each matrix, so also on NaN entries.
    """
    m = _require_square(m, float)
    t = m.swapaxes(-1, -2)
    if not _within_each(m - t, m, tol):
        raise NotHermitian(f"||M - M^T||_max = {max_abs(m - t):.3e} exceeds tol")
    return (m + t) * 0.5


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
    w = np.asarray(w)
    if w.shape != (dim_a * dim_b,) * 2:
        raise DimensionMismatch(
            f"matrix of shape {w.shape} incompatible with {dim_a}x{dim_b}")
    return np.einsum("abcb->ac", w.reshape(dim_a, dim_b, dim_a, dim_b))
