"""Hilbert-space side: states, channels, adjoints and the recovery-map oracle.

States and effects are plain complex numpy arrays; a channel is one
(l, d, d) stack of Kraus operators and the d^2 x d^2 superoperator built
from it by one product, and every map is one product with that
superoperator.  The recovery-map oracle is such a channel, in Kraus form.
This module is the ground truth that the quasiprobability computations
are cross-checked against.  Its roots follow the rank policy of
`matcore.power_values`: the dilation's ancilla roots decide which Kraus
operators exist, and the oracle's posterior inverse root is taken on the
support, its `deficient` flag deciding whether the prior is regularized.
The oracle factors its prior and posterior as one stack.
The gate catalog is one module-level table; each builtin channel checks
the unitarity of its gate once, in the channel constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadAncilla,
    DimensionMismatch,
    NotPSD,
    NotUnitary,
    SingularPosterior,
)
from .matcore import (
    DEFAULT_EPS,
    DEFAULT_TOL,
    EYE2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ROOT_AND_INVERSE,
    Spectrum,
    dagger,
    hermitian_eig,
    max_abs,
    mixing_weight,
    operator_stack,
    power_values,
    read_only,
)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def projector(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    return np.outer(ket, ket.conj())


def assert_density(rho: np.ndarray, tol: float = DEFAULT_TOL) -> Spectrum:
    """Check Hermiticity, unit trace and positivity of a density operator
    and return the spectrum the check computed."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2:
        raise DimensionMismatch(
            f"a density operator is a matrix, got shape {rho.shape}")
    spec = hermitian_eig(rho, tol)
    _density_checks(rho, spec.values, tol)
    return spec


def _density_checks(rho: np.ndarray, values: np.ndarray, tol: float) -> None:
    """NotPSD unless the Hermitian rho has unit trace and none of its
    ascending eigenvalues `values` lies below -tol."""
    if abs(rho.trace() - 1.0) > tol:
        raise NotPSD(f"trace {rho.trace().real:.12f} != 1")
    if values[0] < -tol:
        raise NotPSD(f"negative eigenvalue {values[0]:.3e}")


def assert_unitary(u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """u as a complex matrix; DimensionMismatch unless it is square, and
    NotUnitary unless ||U U^dag - 1||_max <= tol, so also on NaN entries."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"a unitary must be square, got shape {u.shape}")
    if not max_abs(u @ dagger(u) - np.eye(u.shape[0])) <= tol:
        raise NotUnitary("matrix fails U U^dag = 1 within tolerance")
    return u


def qubit_state(omega: float, theta: float, phi: float) -> np.ndarray:
    """Qubit density operator sin^2(w)|psi><psi| + cos^2(w)|psi_perp><psi_perp|
    with |psi> = cos(t/2)|0> + e^{i p} sin(t/2)|1> and |psi_perp> its
    orthogonal complement (so the eigenvalues are exactly sin^2 w, cos^2 w).
    """
    psi = np.array([np.cos(theta / 2),
                    np.exp(1j * phi) * np.sin(theta / 2)], dtype=complex)
    psi_perp = np.array([-np.exp(-1j * phi) * np.sin(theta / 2),
                         np.cos(theta / 2)], dtype=complex)
    s2, c2 = np.sin(omega) ** 2, np.cos(omega) ** 2
    return s2 * projector(psi) + c2 * projector(psi_perp)


def random_density(rng: np.random.Generator, d: int, *,
                   min_eig: float = 0.0) -> np.ndarray:
    """Ginibre-induced random density operator; `min_eig` floors the
    spectrum (relative to a uniform redistribution) to force full rank."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ dagger(g)
    rho /= np.trace(rho).real
    if min_eig > 0.0:
        rho = (1 - d * min_eig) * rho + min_eig * np.eye(d)
    return rho


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix with the
    phases of R's diagonal fixed."""
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map given by its Kraus stack; completeness is checked on build.

    `kraus` is one read-only C-contiguous complex (l, d, d) array, and
    every map is one product with the superoperator built from it.  A
    channel is fixed at construction: its constructors keep a read-only
    copy of the caller's operators, and the cached superoperator is
    read-only too.
    """

    kraus: np.ndarray
    d: int

    @classmethod
    def from_kraus(cls, kraus, tol: float = DEFAULT_TOL) -> "KrausChannel":
        """The channel of a sequence or stack of Kraus operators:
        DimensionMismatch unless they stack to one (l, d, d) array, and
        NotUnitary unless ||sum k^dag k - 1||_max <= tol, so also for an
        empty stack, whose sum is 0."""
        try:  # numpy refuses ragged input with a ValueError too
            ops = np.array(kraus, dtype=complex, order="C")
            if ops.ndim != 3 or ops.shape[1] != ops.shape[2]:
                raise ValueError(f"a stack of shape {ops.shape}")
        except ValueError as exc:
            raise DimensionMismatch(
                "Kraus operators must share one square shape") from exc
        d = ops.shape[1]
        # sum_l k_l^dag k_l as one product of the stacked rows
        flat = ops.reshape(-1, d)
        dev = max_abs(dagger(flat) @ flat - np.eye(d))
        # a NaN deviation fails too
        if not dev <= tol:
            raise NotUnitary(
                f"Kraus completeness violated: ||sum k^dag k - 1||_max = {dev:.3e}")
        return cls(kraus=read_only(ops), d=d)

    @classmethod
    def from_unitary(cls, u, tol: float = DEFAULT_TOL) -> "KrausChannel":
        u = assert_unitary(u, tol)
        return cls(kraus=read_only(u[None].copy()), d=u.shape[0])

    @cached_property
    def superop(self) -> np.ndarray:
        """sum_l k (x) conj(k): the d^2 x d^2 matrix of the channel on
        row-major vectorized operators, vec(k x k^dag) = (k (x) conj k) vec x.
        One product of the flattened stack, M^T conj(M) with M[l, (a, b)] =
        k_l[a, b], gives [(a, b), (c, d)], reordered to [(a, c), (b, d)]."""
        d = self.d
        flat = self.kraus.reshape(len(self.kraus), d * d)
        return read_only((flat.T @ flat.conj()).reshape(d, d, d, d).transpose(
            0, 2, 1, 3).reshape(d * d, d * d))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """sum_l k x k^dag, elementwise on a (..., d, d) stack: one product
        with the superoperator."""
        x = operator_stack(x, self.d)
        return (x.reshape(-1, self.d * self.d) @ self.superop.T).reshape(x.shape)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """Heisenberg-picture adjoint sum_l k^dag x k, elementwise on a
        (..., d, d) stack, whose superoperator is the conjugate transpose;
        unital by construction and tied to `apply` by
        Tr[E[rho] s] = Tr[E^dag[s] rho]."""
        x = operator_stack(x, self.d)
        return (x.reshape(-1, self.d * self.d) @ self.superop.conj()).reshape(x.shape)


def channel_from_dilation(u: np.ndarray, beta: np.ndarray,
                          tol: float = DEFAULT_TOL) -> KrausChannel:
    """Kraus form of rho -> Tr_B[U (rho (x) beta) U^dag].

    Each ancilla eigenvector is weighted by the root `power_values` gives
    its eigenvalue, and those with root zero are dropped, so pure ancillas
    yield a minimal Kraus set.  The stack is one product, ordered with the
    eigenvector slowest and the ancilla basis index fastest.
    """
    u = assert_unitary(u, tol)
    n = u.shape[0]
    beta = np.asarray(beta, dtype=complex)
    d_b = beta.shape[0]
    if n % d_b != 0:
        raise BadAncilla(f"ancilla dimension {d_b} does not divide {n}")
    d_a = n // d_b
    try:
        spec = assert_density(beta, tol)
    except Exception as exc:
        raise BadAncilla(f"ancilla is not a density operator: {exc}") from exc
    roots, _ = power_values(spec.values, 0.5, tol)
    keep = roots != 0.0
    # (1 (x) <i|) U (1 (x) |b_j>), weighted by sqrt(lambda_j)
    kraus = np.einsum("aisb,bj,j->jias", u.reshape(d_a, d_b, d_a, d_b),
                      spec.vectors[:, keep], roots[keep])
    return KrausChannel.from_kraus(kraus.reshape(-1, d_a, d_a), tol)


@dataclass(frozen=True, eq=False)
class PetzMap(KrausChannel):
    """Recovery map sqrt(g) E^dag[P^{-1/2} . P^{-1/2}] sqrt(g) for prior g
    and posterior P = E[g], in Kraus form: for the channel's operators k_l
    its own are sqrt(g) k_l^dag P^{-1/2} (Barnum and Knill, J. Math.
    Phys. 43, 2097, 2002), so `apply`, `adjoint` and `superop` are the
    channel's.  The superoperator (64 KB at d = 8) is built on the first
    map and freed with the recovery.

    `support_projected` marks the replacement-channel corner where the
    posterior keeps a kernel no matter how the prior is regularized; the
    inverse root is then Moore-Penrose on the posterior support and the
    map is trace-preserving only on states reaching that support:
    sum R^dag R is the projector onto that support, not 1.  `petz_hilbert`
    therefore builds the recovery directly; `from_kraus` would refuse it.
    """

    sqrt_prior: np.ndarray
    inv_sqrt_post: np.ndarray
    eps_used: float = 0.0
    support_projected: bool = False


def petz_hilbert(channel: KrausChannel, prior: np.ndarray,
                 eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL) -> PetzMap:
    """Build the recovery map for `channel` with respect to `prior`.

    A rank-deficient posterior is escaped by mixing the prior with the
    maximally mixed state at weight `eps` in [0, 1] (reported on the
    result; ValueError outside); with eps = 0 it raises SingularPosterior
    instead.  Each matrix is factored once, and the prior with its
    posterior as one stack: one Hermiticity check, one eigh and one power
    call, whose `deficient` flag says whether the posterior has a kernel.
    The prior then passes the checks of `assert_density`.  A regularized
    prior shares the prior's eigenvectors, so only its posterior is
    factored again.
    """
    eps = mixing_weight(eps)
    d = channel.d
    prior = np.asarray(prior, dtype=complex)
    if prior.shape != (d, d):
        raise DimensionMismatch(
            f"prior shape {prior.shape} does not match dimension {d}")
    spec = hermitian_eig(np.array([prior, channel.apply(prior)]), tol)
    _density_checks(prior, spec.values[0], tol)
    roots, deficient = spec.power(ROOT_AND_INVERSE, tol)
    eps_used = 0.0
    if deficient[1]:
        if eps <= 0.0:
            raise SingularPosterior(
                "posterior is rank-deficient and regularization is disabled")
        mixed = (1 - eps) * prior + eps * np.eye(d) / d
        # channels that erase whole directions keep a posterior kernel for
        # any prior; the inverse root is then taken on the support
        post = hermitian_eig(channel.apply(mixed), tol)
        spec = Spectrum(np.array([(1 - eps) * spec.values[0] + eps / d, post.values]),
                        np.array([spec.vectors[0], post.vectors]))
        roots, deficient = spec.power(ROOT_AND_INVERSE, tol)
        eps_used = eps
    # sqrt(g) k_l^dag P^{-1/2}, broadcast over the channel's stack
    kraus = roots[0] @ channel.kraus.conj().swapaxes(1, 2) @ roots[1]
    return PetzMap(kraus=read_only(kraus), d=d,
                   sqrt_prior=roots[0],
                   inv_sqrt_post=roots[1],
                   eps_used=eps_used,
                   support_projected=deficient[1])


# --- built-in gate catalog ---------------------------------------------------

_HALF_SWAP = np.array([
    [np.sqrt(2), 0, 0, 0],
    [0, 1, 1, 0],
    [0, 1, -1, 0],
    [0, 0, 0, np.sqrt(2)],
], dtype=complex) / np.sqrt(2)

_FULL_SWAP = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)

_SQ3 = np.sqrt(3)
_U_EG = np.array([
    [1j * (_SQ3 + 2j), 0, 3j, 0],
    [0, 1j * (_SQ3 + 2j), 0, 3j],
    [-3j, 0, 2 + 1j * _SQ3, 0],
    [0, -3j, 0, 2 + 1j * _SQ3],
], dtype=complex) / 4

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# The two-qubit entries (half_swap, full_swap, u_eg) act on system (x)
# ancilla with the ancilla index fastest.  Read-only, and checked by the
# channel constructors.
_GATES = {
    "identity": EYE2.copy(),
    "pauli_x": PAULI_X.copy(),
    "pauli_y": PAULI_Y.copy(),
    "pauli_z": PAULI_Z.copy(),
    "hadamard": _HADAMARD,
    "half_swap": _HALF_SWAP,
    "full_swap": _FULL_SWAP,
    "u_eg": _U_EG,
}
for _u in _GATES.values():
    _u.setflags(write=False)

BUILTIN_NAMES = tuple(_GATES)


def builtin_gates() -> dict:
    """Copies of the unitary matrices of the built-in catalog."""
    return {name: u.copy() for name, u in _GATES.items()}


def builtin_channel(name: str, ancilla: np.ndarray | None = None,
                    tol: float = DEFAULT_TOL) -> KrausChannel:
    """Qubit channel for a catalog entry.

    Single-qubit gates become unitary channels and take no ancilla
    (BadAncilla if one is given); the two-qubit gates are dilations and
    take an ancilla (default |1><1| for the swaps, |0><0| for u_eg, whose
    action is ancilla-independent).  KeyError for a name that is no
    catalog entry, a name that is not a string included.
    """
    if not isinstance(name, str) or name not in _GATES:
        raise KeyError(f"unknown builtin channel {name!r}; "
                       f"expected one of {BUILTIN_NAMES}")
    u = _GATES[name]
    if u.shape[0] == 2:
        if ancilla is not None:
            raise BadAncilla(f"builtin {name!r} is a single-qubit gate and "
                             "takes no ancilla")
        return KrausChannel.from_unitary(u, tol)
    if ancilla is None:
        ancilla = projector(KET0) if name == "u_eg" else projector(KET1)
    return channel_from_dilation(u, ancilla, tol)
