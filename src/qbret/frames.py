"""Frames and dual frames defining quasiprobability representations.

A frame is a set of d^2 Hermitian operators {F_j} summing to the identity
with Tr F_j = 1/d; its dual {G_j} satisfies Tr[F_j G_k] = delta_jk and the
sum-trace reconstruction property.  With d^2 operators that dual is
unique, and `Frame.dual` derives it from F and the frame's kind, the one
home of that rule.  Built-in constructors cover the
discrete-Wigner qubit frame (and tensor powers of it) and the canonical
SIC-POVM tetrahedron, each under the name `builtin_frame` takes (the one
table of built-in names, BUILTIN_FRAMES); anything else enters through
`load_frame`.
"""

from __future__ import annotations

import itertools
import json
import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import (
    ComplexResidue,
    IllConditioned,
    NotNQPR,
    ParseError,
    RepMismatch,
    TooLarge,
    ValidationFailed,
)
from .matcore import (
    DEFAULT_TOL,
    EYE2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    dagger,
    eigh_spectrum,
    max_abs,
)

KIND_NQ = "nq"
KIND_SP = "sp"
KIND_CUSTOM = "custom"
KNOWN_KINDS = (KIND_NQ, KIND_SP, KIND_CUSTOM)

# Largest complex tensor a frame allocates: a structure-coefficient factor
# of n operators (n^3 entries) is 4.2 MB at n = 64 and 268 MB at n = 256; the
# (n, d, d) operator stack of dw-qubits:N is 268 MB at N = 6, 4.3 GB at 7.
MAX_TENSOR_BYTES = 1 << 30
# Peak memory per float of a frame document, which holds F as 2 n d^2
# floats.  `qbret frame --kind dw-qubits:N` (x86-64 Linux, CPython 3.11,
# numpy 2.4) peaked at 53 MB RSS at N = 4 and 257 MB at N = 5, whose
# documents hold 2 * 16^4 and 2 * 32^4 floats: (257 - 53) MiB / 2.10e6 floats
# = 102 bytes each, as Python lists and JSON text.  `qbret frame` refuses a
# document over MAX_TENSOR_BYTES at 100 bytes a float: N = 5 takes 210 MB,
# N = 6 3.4 GB.
ENCODED_FLOAT_BYTES = 100
# Largest frame-Gram condition number `structure_coeffs` accepts.  Over 300
# seeded full-rank recoveries each on shrunk tetrahedra, none missed the
# 1e-8 oracle gate at cond(Q) = 9.9e3 (worst 9.4e-9), and 14 did at 1.9e4.
GRAM_COND_MAX = 1e4


@dataclass(eq=False)
class Frame:
    """d^2 Hermitian frame operators, stacked as a C-contiguous (n, d, d)
    complex array, which `qprcore` views as floats for its traces.

    Tuple labels are kept for display; all matrix indexing uses their
    flattened order 0..d^2-1.  `parts` holds the single frames that
    `tensor_frames` composed this frame from, so that `structure_coeffs`
    can keep one factor per part; it is empty for every other frame.
    """

    name: str
    d: int
    labels: tuple
    ops: np.ndarray
    kind: str = KIND_CUSTOM
    parts: tuple = ()
    # structure coefficients per dual frame, filled by structure_coeffs
    _coeffs: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False)

    def __post_init__(self):
        self.ops = np.ascontiguousarray(self.ops, dtype=complex)
        self.labels = tuple(self.labels)

    @property
    def n(self) -> int:
        return self.d * self.d

    @cached_property
    def dual(self) -> DualFrame:
        """The dual of this minimal frame, the one rule from F and the kind:
        G = dF for nq, G = d(d+1)F - 1 for sp, and G = Q^{-1}F, for the
        Gram Q[i,j] = Tr[F_i F_j], for custom (Ferrie and Emerson 2008).
        `validate_frame` checks the kind against Q through it: with G = dF,
        Tr[F_i G_j] = delta_ij needs Q = 1/d.  IllConditioned if Q is
        singular."""
        f, d = self.ops, self.d
        if self.kind == KIND_NQ:
            return DualFrame(name=self.name, ops=d * f)
        if self.kind == KIND_SP:
            return DualFrame(name=self.name, ops=d * (d + 1) * f - np.eye(d))
        try:
            g = np.linalg.solve(_gram(f), f.reshape(len(f), -1))
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"frame {self.name!r} has a singular Gram") from exc
        return DualFrame(name=self.name, ops=g.reshape(f.shape))


@dataclass(eq=False)
class DualFrame:
    """The dual operators G_j of a frame, stored as `Frame.ops` is."""

    name: str
    ops: np.ndarray

    def __post_init__(self):
        self.ops = np.ascontiguousarray(self.ops, dtype=complex)


@dataclass(frozen=True)
class FrameReport:
    """Max violation per frame invariant; `passed` is the overall verdict.

    `checks` holds the invariants in a fixed order: those of F, then
    `dual_relation`, the distance of G from `Frame.dual`, then those of the
    pair.  The kind selects the dual rule and the adjoint rule, so a false
    claim fails `orthogonality` on the derived dual, or `dual_relation` on
    a given one, rather than give a wrong recovery matrix.
    """

    checks: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.checks.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.checks, key=self.checks.get)
        return name, self.checks[name]


def build_dw_qubit() -> tuple[Frame, DualFrame]:
    """Discrete-Wigner qubit frame, phase-point labels (r,s) in row-major
    order (0,0),(0,1),(1,0),(1,1), and its dual."""
    labels = ((0, 0), (0, 1), (1, 0), (1, 1))
    ops = np.array([
        (EYE2 + (-1) ** r * PAULI_X + (-1) ** s * PAULI_Z
         + (-1) ** (r + s) * PAULI_Y) / 4
        for (r, s) in labels])
    frame = Frame(name="dw-qubit", d=2, labels=labels, ops=ops, kind=KIND_NQ)
    return frame, frame.dual


def build_sic_qubit() -> tuple[Frame, DualFrame]:
    """Canonical qubit SIC frame (tetrahedron) and its dual."""
    axes = ((1, -1, 1), (1, 1, -1), (-1, 1, 1), (-1, -1, -1))
    ops = np.array([
        (EYE2 + (nx * PAULI_X + ny * PAULI_Y + nz * PAULI_Z) / np.sqrt(3)) / 4
        for (nx, ny, nz) in axes])
    frame = Frame(name="sic-qubit", d=2, labels=(0, 1, 2, 3), ops=ops,
                  kind=KIND_SP)
    return frame, frame.dual


def _kron_stack(stacks: list[np.ndarray]) -> np.ndarray:
    """Kronecker products of every combination of operators from the
    (n_k, d_k, d_k) stacks, indexed lexicographically, last stack fastest."""
    out = stacks[0]
    for ops in stacks[1:]:
        n, d = out.shape[0] * ops.shape[0], out.shape[1] * ops.shape[1]
        out = np.einsum("iab,jcd->ijacbd", out, ops).reshape(n, d, d)
    return out


def tensor_frames(parts: list[Frame]) -> Frame:
    """Tensor-compose NQPR frames; composite labels run lexicographically
    with the last factor fastest.  Only the NQPR kind composes this way,
    and the composite's dual dF is the product of the parts' duals.

    The composite records its single frames in `parts` (a composite part
    contributes its own parts).  Raises TooLarge, before allocating, if its
    operator stack would exceed MAX_TENSOR_BYTES.
    """
    if not parts:
        raise ValueError("need at least one frame")
    for f in parts:
        if f.kind != KIND_NQ:
            raise NotNQPR(f"frame {f.name!r} has kind {f.kind!r}; "
                          "only NQPR frames tensor-compose")
    if len(parts) == 1:
        return parts[0]
    d = math.prod(f.d for f in parts)
    if 16 * d ** 4 > MAX_TENSOR_BYTES:  # n = d^2 complex128 d x d operators
        raise TooLarge(f"a product of {len(parts)} frames has an operator stack "
                       f"over {MAX_TENSOR_BYTES} bytes")
    return Frame(name="*".join(f.name for f in parts), d=d,
                 labels=tuple(itertools.product(*(f.labels for f in parts))),
                 ops=_kron_stack([f.ops for f in parts]), kind=KIND_NQ,
                 parts=tuple(q for f in parts for q in (f.parts or (f,))))


def build_dw_qubits(n_qubits: int) -> tuple[Frame, DualFrame]:
    """The N-fold `tensor_frames` of dw-qubit.  Its operator stack takes
    16^(N+1) = 2^(4N+4) bytes, over MAX_TENSOR_BYTES exactly when 4N+4
    reaches the bound's bit length; such an N raises TooLarge at once."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if 4 * n_qubits + 4 >= MAX_TENSOR_BYTES.bit_length():
        raise TooLarge(f"dw-qubits:{n_qubits} has an operator stack of "
                       f"16^{n_qubits + 1} bytes, over {MAX_TENSOR_BYTES}")
    frame = tensor_frames([build_dw_qubit()[0]] * n_qubits)
    if n_qubits > 1:
        frame.name = f"dw-qubits:{n_qubits}"
    return frame, frame.dual


# The built-in frames by name; a name ending in ":N" stands for the names
# with a count N >= 1 in its place, and its builder takes that count.
BUILTIN_FRAMES = {
    "dw-qubit": build_dw_qubit,
    "sic-qubit": build_sic_qubit,
    "dw-qubits:N": build_dw_qubits,
}


def builtin_frame(name: str) -> tuple[Frame, DualFrame]:
    """The built-in frame pair called `name`, a key of BUILTIN_FRAMES with
    any ":N" written as a count (dw-qubits:2).  ParseError for any other
    name; a builder's own errors pass through (TooLarge from
    `build_dw_qubits`)."""
    stem, colon, count = name.partition(":")
    build = BUILTIN_FRAMES.get(f"{stem}:N" if colon else name)
    if build is None:
        raise ParseError(f"unknown frame kind {name!r}; expected one of "
                         + ", ".join(BUILTIN_FRAMES))
    if not colon:
        return build()
    try:
        n = int(count)
    except ValueError:
        n = 0
    if n < 1:
        raise ParseError(f"frame kind {name!r} needs a count N >= 1")
    return build(n)


def _random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + dagger(a)) / 2


def _complex_traces(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T[j, p] = Tr[ops_j x_p] for two stacks of d x d matrices, as one
    product of the flattened `ops` with the flattened transposes of `x`.
    Unlike `qprcore._traces` it assumes no operator Hermitian, since it
    serves the checks that test that."""
    return ops.reshape(len(ops), -1) @ np.transpose(x, (0, 2, 1)).reshape(len(x), -1).T


def validate_frame(frame: Frame, dual: DualFrame, tol: float = DEFAULT_TOL,
                   seed: int = 0) -> FrameReport:
    """Check every frame/dual invariant and report the max violation each.

    The sum-trace reconstruction property is probed on the pair (1, 1) and
    on 20 seeded random Hermitian pairs: all n^2 traces Tr[F_j G_k] are one
    product, and so are the traces of the 21 probes against F and against G.
    `dual_relation` compares G with the dual `frame.dual` derives, for
    every kind; it raises IllConditioned where that needs a singular Gram.
    """
    f, g, d, n = frame.ops, dual.ops, frame.d, frame.n
    checks = {}
    if f.shape != (n, d, d) or g.shape != (n, d, d):
        raise ValidationFailed("shape", float("inf"), tol)
    checks["hermiticity"] = max(max_abs(f - np.conj(np.transpose(f, (0, 2, 1)))),
                                max_abs(g - np.conj(np.transpose(g, (0, 2, 1)))))
    checks["normalization"] = max_abs(f.sum(axis=0) - np.eye(d))
    checks["frame_trace"] = max_abs(np.einsum("jaa->j", f) - 1.0 / d)
    checks["dual_relation"] = max_abs(g - frame.dual.ops)
    checks["dual_trace"] = max_abs(np.einsum("jaa->j", g) - 1.0)
    checks["orthogonality"] = max_abs(_complex_traces(f, g) - np.eye(n))
    rng = np.random.default_rng(seed)
    pairs = [(np.eye(d, dtype=complex), np.eye(d, dtype=complex))]
    pairs += [(_random_hermitian(rng, d), _random_hermitian(rng, d))
              for _ in range(20)]
    a, b = (np.array(x) for x in zip(*pairs))
    lhs = np.einsum("jp,jp->p", _complex_traces(f, a), _complex_traces(g, b))
    checks["sum_trace"] = max_abs(lhs - np.einsum("pab,pba->p", a, b))
    return FrameReport(checks=checks, tol=tol)


# --- file format -----------------------------------------------------------
#
# Every numeric array in a document is nested lists of JSON numbers, read by
# `decode_array`; a complex array's innermost lists are [re, im] pairs.
# Frame file (JSON): {"d": int, "kind": "nq"|"sp"|"custom", "labels": [...],
#   "F": stack} where a stack is the (d^2, d, d) complex array of operators,
# each matrix a row-major list of rows.  An optional "G" stack is a claim
# about the dual, checked against `Frame.dual`.  A "c" field (the nq dual
# scale, always d) is ignored.

def decode_array(data, shape: tuple, what: str) -> np.ndarray:
    """`data` as one array of `shape`, where None leaves an axis free.

    The nested lists are read by one `np.array` call; ParseError, naming
    `what`, unless the entries are numbers and the lists are rectangular
    with that shape.  A string, a null or a bool is refused: numpy reads a
    bool among numbers as 0 or 1, so the entry types of a numeric array
    are taken by one `map` over its lists, chained `ndim` deep.
    """
    try:
        arr = np.array(data)
    except ValueError as exc:
        raise ParseError(f"{what}: nested lists are not rectangular") from exc
    entries = [data]
    for _ in range(arr.ndim):
        entries = itertools.chain.from_iterable(entries)
    if arr.dtype.kind not in "iuf" or bool in set(map(type, entries)):
        raise ParseError(f"{what} must be nested lists of numbers")
    if arr.ndim != len(shape) or any(w not in (None, k) for w, k in zip(shape, arr.shape)):
        raise ParseError(f"{what}: shape {arr.shape}, expected {shape} (None: any length)")
    return arr


def encode_complex_matrix(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs for a complex array of any shape."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def decode_complex_matrix(data, shape: tuple = (None, None),
                          what: str = "complex matrix") -> np.ndarray:
    """The complex array of `shape` (None for a free axis) whose entries
    `data` gives as [re, im] pairs, through `decode_array`; the pairs are
    viewed as complex numbers, bit for bit."""
    pairs = decode_array(data, (*shape, 2), what)
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def frame_to_dict(frame: Frame) -> dict:
    """The frame document of `frame`: F alone, since the kind gives G."""
    return {
        "d": frame.d,
        "kind": frame.kind,
        "name": frame.name,
        "labels": [list(l) if isinstance(l, tuple) else l for l in frame.labels],
        "F": encode_complex_matrix(frame.ops),
    }


def _tuples(x):
    """A document's nested lists as nested tuples, all the way down, as
    `tensor_frames` builds composite labels."""
    return tuple(map(_tuples, x)) if isinstance(x, list) else x


def load_frame(document, tol: float = DEFAULT_TOL) -> tuple[Frame, DualFrame]:
    """The validated frame of a frame document (dict or JSON text), and its
    derived dual.

    Fails loudly: ParseError for structural problems, ValidationFailed
    naming the first violated invariant otherwise.  `F`, and `G` if the
    document holds one, are each decoded as one (d^2, d, d) stack, before
    `labels` is read; a given G is the dual validated, so a G off
    `Frame.dual` fails `dual_relation`.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ParseError("frame document must be a JSON object")
    try:
        d, f_ops = document["d"], document["F"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ParseError(f"d must be a positive integer, got {d!r}")
    kind = document.get("kind", KIND_CUSTOM)
    if kind not in KNOWN_KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {KNOWN_KINDS}")
    f_ops = decode_complex_matrix(f_ops, (d * d, d, d), "F")
    g_ops = (decode_complex_matrix(document["G"], (d * d, d, d), "G")
             if "G" in document else None)
    labels = document.get("labels", list(range(d * d)))
    if not isinstance(labels, list) or len(labels) != d * d:
        raise ParseError(f"labels must be a list of {d * d} entries for d={d}")
    labels = _tuples(labels)
    frame = Frame(name=document.get("name", "custom"), d=d, labels=labels,
                  ops=f_ops, kind=kind)
    report = validate_frame(
        frame, frame.dual if g_ops is None else DualFrame(name=frame.name, ops=g_ops), tol)
    if not report.passed:
        # name the first violated invariant, in the report's order; a NaN
        # violates, as in `passed`
        check = next(name for name, v in report.checks.items()
                     if not v <= tol)
        raise ValidationFailed(check, report.checks[check], tol)
    return frame, frame.dual


# --- structure coefficients -------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructureCoefficients:
    """Structure coefficients eta[x,i,j] = Tr[F_i G_x G_j] of a frame pair,
    held as complex (n_k, n_k, n_k) factor tensors whose Kronecker product
    is eta, the vector e[i] = Tr F_i of the identity, and the kind of the
    frame, which selects the adjoint rule (`qprcore.adjoint_qpr`).

    A frame built by `tensor_frames` has one factor per part, because the
    trace of a Kronecker product is the product of the traces; every other
    frame is its own single factor.  For alpha = sum_x v_x G_x,
    L = `left(v)` is the matrix of rho -> alpha rho and conj(L) that of
    rho -> rho alpha.

    `gram_roots` holds (Q^{1/2}, Q^{-1/2}) for the frame Gram
    Q[i,j] = Tr[F_i F_j], or None where Q is a multiple of the identity
    (every nq frame and product of them, the classical delta tensor).
    With the dual G = Q^{-1} F of a minimal frame, Re L = P Q^{-1} with
    P[i,k] = Re Tr[F_i alpha F_k] symmetric, so Q^{-1/2} (Re L) Q^{1/2} is
    symmetric, and its powers come from one `eigh` or Lanczos run
    (`qprcore.state_powers`).  The same roots give the adjoint Q S^T Q^{-1}
    (`qprcore.adjoint_qpr`).
    """

    factors: tuple
    frame_name: str
    e: np.ndarray
    kind: str
    gram_roots: tuple | None = None

    @property
    def n(self) -> int:
        return math.prod(f.shape[0] for f in self.factors)

    def left(self, v: np.ndarray) -> np.ndarray:
        """L[i, j] = sum_x v_x eta[x, i, j] for a real vector v, or the
        (b, n, n) stack of them for a (b, n) stack of vectors.

        A single factor is one product of v with the flattened tensor.
        Otherwise v^T is viewed as a tensor with one index x_k per factor
        and the batch index last, and each factor in turn replaces its
        leading index by the trailing pair (i_k, j_k), as one matrix
        product; the batch index then comes out in front.
        """
        dims = tuple(f.shape[0] for f in self.factors)
        n, k = math.prod(dims), len(dims)
        t = np.asarray(v, dtype=float)
        batch = t.shape[:-1]
        if t.ndim not in (1, 2) or t.shape[-1] != n:
            raise RepMismatch(
                f"vector length {t.shape} does not match coefficients ({n})")
        if k == 1:
            return (t @ self.factors[0].reshape(n, n * n)).reshape(batch + (n, n))
        t = t.T
        for f in self.factors:
            t = t.reshape(f.shape[0], -1).T @ f.reshape(f.shape[0], -1)
        b = len(batch)
        return t.reshape(batch + tuple(d for d in dims for _ in (0, 1))).transpose(
            tuple(range(b)) + tuple(range(b, b + 2 * k, 2))
            + tuple(range(b + 1, b + 2 * k, 2))).reshape(batch + (n, n))


def _factor_tensor(f_ops: np.ndarray, g_ops: np.ndarray, tol: float) -> np.ndarray:
    """eta[x,i,j] = Tr[F_i G_x G_j], one x at a time so that no
    intermediate is bigger than the n^3 result."""
    n, d = f_ops.shape[0], f_ops.shape[1]
    f_flat = f_ops.reshape(n, d * d)
    eta = np.empty((n, n, n), dtype=complex)
    for x in range(n):  # Tr[F_i M_j] = sum F_i[a,b] M_j[b,a], M_j = G_x G_j
        eta[x] = f_flat @ (g_ops[x] @ g_ops).transpose(0, 2, 1).reshape(n, d * d).T
    # conj Tr[F_i G_x G_j] = Tr[G_j G_x F_i] for Hermitian operators; the
    # identity acts factor by factor, so a composite inherits it
    residue = max(max_abs(eta[x].conj() - eta[:, :, x].T) for x in range(n))
    if residue > tol:
        raise ComplexResidue(f"Hermiticity residue {residue:.3e} of eta > tol")
    return eta


def _gram(ops: np.ndarray) -> np.ndarray:
    """The symmetric real Gram Q[i,j] = Tr[F_i F_j] of Hermitian operators."""
    q = np.einsum("iab,jba->ij", ops, ops, optimize=True).real
    return (q + q.T) / 2


def _gram_roots(stacks: list[np.ndarray], tol: float) -> tuple | None:
    """(Q^{1/2}, Q^{-1/2}) of the Gram Q[i,j] = Tr[F_i F_j] of the frame
    whose operators are the Kronecker products of `stacks`; None only where
    every factor's Gram is a multiple of the identity (the similarity would
    be a scaling, and the adjoint is the transpose).  Raises IllConditioned
    past GRAM_COND_MAX, a rank-deficient Q included."""
    grams = [_gram(ops) for ops in stacks]
    if all(max_abs(q - q[0, 0] * np.eye(len(q))) <= tol * max_abs(q)
           for q in grams):
        return None
    # the Kronecker product of symmetric grams is the frame's symmetric Gram
    spec = eigh_spectrum(reduce(np.kron, grams), tol)
    w = spec.values
    if w[-1] > GRAM_COND_MAX * w[0]:
        raise IllConditioned(f"frame Gram eigenvalues span [{w[0]:.3e}, "
                             f"{w[-1]:.3e}]: condition number over "
                             f"GRAM_COND_MAX = {GRAM_COND_MAX:.0e}")
    return spec.power(0.5, tol)[0], spec.power(-0.5, tol)[0]


def structure_coeffs(frame: Frame, dual: DualFrame,
                     tol: float = DEFAULT_TOL) -> StructureCoefficients:
    """Compute (and cache per frame/dual pair) the structure coefficients.

    A frame from `tensor_frames` whose operators are still the Kronecker
    products of its recorded parts, given its own dual `frame.dual`, gets
    one factor per part, each from the part and its dual, so memory and
    work grow with the number of parts, not with n^3; any other pair, a
    foreign dual included, is a single factor.  The roots of the frame
    Gram are computed here too, once per pair (see
    `StructureCoefficients`).  Raises IllConditioned
    if cond(Q) exceeds GRAM_COND_MAX, TooLarge, before allocating, if a
    factor would exceed MAX_TENSOR_BYTES, and ComplexResidue if a factor
    breaks conj(eta[x,i,j]) = eta[j,i,x] by more than tol.
    """
    cached = frame._coeffs.get(dual)
    if cached is not None:
        return cached
    # a product frame with its own dual is factored by its parts while its
    # operators are still their Kronecker products
    parts = frame.parts if frame.parts and dual is frame.dual else ()
    kron = _kron_stack([p.ops for p in parts]) if parts else None
    own = (kron is not None and kron.shape == frame.ops.shape
           and max_abs(frame.ops - kron) <= tol)
    pairs = [(p.ops, p.dual.ops) for p in parts] if own else [(frame.ops, dual.ops)]
    for f, _ in pairs:
        if 16 * len(f) ** 3 > MAX_TENSOR_BYTES:  # complex128
            raise TooLarge(f"a structure-coefficient factor of {len(f)} operators "
                           f"exceeds {MAX_TENSOR_BYTES} bytes")
    coeffs = StructureCoefficients(  # an ill-conditioned Gram raises first
        gram_roots=_gram_roots([f for f, _ in pairs], tol),
        factors=tuple(_factor_tensor(f, g, tol) for f, g in pairs),
        frame_name=frame.name, e=np.einsum("jaa->j", frame.ops).real,
        kind=frame.kind)
    frame._coeffs[dual] = coeffs
    return coeffs


def classical_structure_coeffs(n: int) -> StructureCoefficients:
    """Delta tensor eta[x,i,j] = [x = i = j] of the classical (diagonal
    projector) representation on n outcomes, whose identity vector is all
    ones; it is the stack of `classical_projectors`."""
    return StructureCoefficients(factors=(classical_projectors(n)[0],),
                                 frame_name=f"classical:{n}",
                                 e=np.ones(n), kind=KIND_NQ)


def classical_projectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal projectors |j><j| used as both frame and dual on the
    classical side; their structure coefficients are the delta tensor."""
    ops = np.zeros((n, n, n), dtype=complex)
    ops[np.diag_indices(n, ndim=3)] = 1.0
    return ops, ops.copy()
