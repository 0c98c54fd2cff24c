"""Frames and dual frames defining quasiprobability representations.

A frame is a set of d^2 Hermitian operators {F_j} summing to the identity
with Tr F_j = 1/d; its dual {G_j} satisfies Tr[F_j G_k] = delta_jk and the
sum-trace reconstruction property.  With d^2 operators that dual is
unique, and `Frame.dual` derives it from F and the frame's kind, the one
home of that rule.  The kind is read from the Gram Q[i,j] = Tr[F_i F_j],
never given: a frame claims nothing, and a document's kind is a claim
checked against it.  The Gram is decided once, on the frame: its kind,
its dual and its roots (`Frame.gram_roots`) are cached there.  So are
the structure coefficients (`Frame.coeffs`), built once from the frame and
its own dual alone; a caller's tol only judges them (`structure_coeffs`).
A frame is fixed once built: its operators and the roots and coefficients
cached from them are read-only.  Built-in constructors cover the
discrete-Wigner qubit frame and the canonical SIC-POVM tetrahedron, both
Pauli orbits of one fiducial, and the tensor powers of each, every one
under the name `builtin_frame` takes (the one table of built-in names,
BUILTIN_FRAMES); anything else enters through `load_frame`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, partial, reduce

import numpy as np

from .errors import (
    ComplexResidue,
    IllConditioned,
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
    read_only,
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


@dataclass(frozen=True, eq=False)
class Frame:
    """d^2 Hermitian frame operators, stacked as a C-contiguous (n, d, d)
    complex array, which `qprcore` views as floats for its traces.

    A frame is fixed at construction: the stack is made read-only in place,
    uncopied, so the dual and the structure coefficients cached from it
    stay its own.  Every cache is a `cached_property`, filled once and
    never keyed on a caller's tol.  Tuple labels are kept for display; all
    matrix indexing uses their flattened order 0..d^2-1.  `parts` holds the
    single frames that `tensor_frames` composed this frame from, so that
    `coeffs` takes one `factor` per part, `kind` reads the parts' kinds
    and `gram_roots` the parts' Grams, without checking them against
    `ops`; it is empty for every other frame.  A frame whose parts disagree
    with its operators can only be made on purpose, with
    `Frame(..., parts=...)` or `replace(frame, ops=...)`.
    """

    name: str
    d: int
    labels: tuple
    ops: np.ndarray
    parts: tuple = ()

    def __post_init__(self):
        ops = np.ascontiguousarray(self.ops, dtype=complex)
        object.__setattr__(self, "ops", read_only(ops))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n(self) -> int:
        return self.d * self.d

    @cached_property
    def gram(self) -> np.ndarray:
        """The symmetric real Gram Q[i,j] = Tr[F_i F_j], read-only, formed
        once for `kind`, `dual` and `gram_roots`."""
        q = np.einsum("iab,jba->ij", self.ops, self.ops, optimize=True).real
        return read_only((q + q.T) / 2)

    @cached_property
    def kind(self) -> str:
        """The family the Gram Q[i,j] = Tr[F_i F_j] puts this frame in: nq
        where Q is a multiple of 1 (normal QPRs, discrete Wigner among
        them), sp where Q = (d 1 + J)/(d^2(d+1)), J the all-ones matrix
        (SIC QPRs), custom otherwise, each form to DEFAULT_TOL max|Q|.  A
        frame with `parts` is nq when every part is and custom otherwise,
        the answer of its Kronecker Gram, which is then not formed: a
        product of SICs is no SIC."""
        if self.parts:
            return KIND_NQ if all(p.kind == KIND_NQ for p in self.parts) else KIND_CUSTOM
        q = self.gram
        return next((k for k in (KIND_NQ, KIND_SP)
                     if max_abs(q - _gram_form(q, k)) <= DEFAULT_TOL * max_abs(q)), KIND_CUSTOM)

    @cached_property
    def gram_roots(self) -> tuple | None:
        """(Q^{1/2}, Q^{-1/2}) of the Gram Q, read-only, or None exactly
        where `kind` is nq: Q is then a multiple of 1, the similarity a
        scaling, and the adjoint the transpose.  A frame with `parts` takes
        Q as the Kronecker product of the parts' Grams.  Decided here once,
        at DEFAULT_TOL as `kind` is, whatever tol a caller runs at.  Raises
        IllConditioned past GRAM_COND_MAX, a rank-deficient Q included."""
        if self.kind == KIND_NQ:
            return None
        # the Kronecker product of symmetric Grams is the frame's symmetric Gram
        spec = eigh_spectrum(reduce(np.kron, [p.gram for p in self.parts] or [self.gram]))
        w = spec.values
        if w[-1] > GRAM_COND_MAX * w[0]:
            raise IllConditioned(f"frame Gram eigenvalues span [{w[0]:.3e}, {w[-1]:.3e}]: "
                                 f"condition number over GRAM_COND_MAX = {GRAM_COND_MAX:.0e}")
        return tuple(read_only(spec.power(r)[0]) for r in (0.5, -0.5))

    @cached_property
    def dual(self) -> DualFrame:
        """The dual of this minimal frame, the one rule from F and its
        derived kind: G = dF for nq, G = d(d+1)F - 1 for sp, and G = Q^{-1}F
        for custom (Ferrie and Emerson 2008), which holds for every frame;
        the closed forms keep their bits (Q^{-1}F misses 6F - 1 by 6.7e-16
        on sic-qubit).  IllConditioned if Q is singular."""
        f, d = self.ops, self.d
        if self.kind == KIND_NQ:
            return DualFrame(name=self.name, ops=d * f)
        if self.kind == KIND_SP:
            return DualFrame(name=self.name, ops=d * (d + 1) * f - np.eye(d))
        try:
            g = np.linalg.solve(self.gram, f.reshape(len(f), -1))
        except np.linalg.LinAlgError as exc:
            raise IllConditioned(f"frame {self.name!r} has a singular Gram") from exc
        return DualFrame(name=self.name, ops=g.reshape(f.shape))

    @cached_property
    def factor(self) -> tuple[np.ndarray, float]:
        """(eta, residue): `_factor_tensor` of this frame and its own dual,
        built once per frame, so that the repeated parts of a power share
        one array.  Raises TooLarge, before allocating, if eta would exceed
        MAX_TENSOR_BYTES."""
        if 16 * len(self.ops) ** 3 > MAX_TENSOR_BYTES:  # complex128
            raise TooLarge(f"a structure-coefficient factor of {len(self.ops)} operators "
                           f"exceeds {MAX_TENSOR_BYTES} bytes")
        return _factor_tensor(self.ops, self.dual.ops)

    @cached_property
    def residue(self) -> float:
        """The largest Hermiticity residue of the factors of `coeffs`, each
        measured once with its factor, which `structure_coeffs` holds to
        each caller's tol.  TooLarge as `factor` raises it."""
        return max(p.factor[1] for p in self.parts or (self,))

    @cached_property
    def coeffs(self) -> StructureCoefficients:
        """The structure coefficients of this frame and its own dual, built
        once, whatever tol callers judge them at: one `factor` per part,
        or this frame's own, carrying `gram_roots`; `residue` is theirs.
        IllConditioned or TooLarge as `gram_roots` and `factor` raise
        them."""
        roots, e = self.gram_roots, read_only(np.einsum("jaa->j", self.ops).real)
        return StructureCoefficients(
            factors=tuple(p.factor[0] for p in self.parts or (self,)), frame_name=self.name,
            e=e, e_sym=e if roots is None else read_only(roots[1] @ e), kind=self.kind,
            gram_roots=roots)


@dataclass(frozen=True, eq=False)
class DualFrame:
    """The dual operators G_j of a frame, stored as `Frame.ops` is."""

    name: str
    ops: np.ndarray

    def __post_init__(self):
        ops = np.ascontiguousarray(self.ops, dtype=complex)
        object.__setattr__(self, "ops", read_only(ops))


@dataclass(frozen=True)
class FrameReport:
    """Max violation per frame invariant; `passed` is the overall verdict.

    `checks` holds the invariants in a fixed order: those of F, then
    `dual_relation`, the distance of G from `Frame.dual`, then those of the
    pair.  The frame's kind is read from its Gram, so it needs no check
    here; a kind a document claims is checked by `load_frame`.
    """

    checks: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(v <= self.tol for v in self.checks.values())

    def worst(self) -> tuple[str, float]:
        name = max(self.checks, key=self.checks.get)
        return name, self.checks[name]


def _pauli_orbit(name: str, bloch, labels) -> tuple[Frame, DualFrame]:
    """The qubit frame P F0 P over P = 1, X, Z, Y, in label order, of the
    fiducial F0 = (1 + b.sigma)/4 with Bloch vector b = (b_x, b_y, b_z),
    and its dual: the Pauli (Weyl-Heisenberg) orbit of F0."""
    f0 = (EYE2 + np.tensordot(bloch, [PAULI_X, PAULI_Y, PAULI_Z], 1)) / 4
    paulis = np.array([EYE2, PAULI_X, PAULI_Z, PAULI_Y])
    frame = Frame(name=name, d=2, labels=labels, ops=paulis @ f0 @ paulis)
    return frame, frame.dual


def build_dw_qubit() -> tuple[Frame, DualFrame]:
    """Discrete-Wigner qubit frame (Wootters 1987), phase-point labels
    (r,s) in row-major order (0,0),(0,1),(1,0),(1,1), and its dual: the
    phase point (r,s) is (1 + (-1)^r X + (-1)^s Z + (-1)^(r+s) Y)/4."""
    return _pauli_orbit("dw-qubit", (1, 1, 1), ((0, 0), (0, 1), (1, 0), (1, 1)))


def build_sic_qubit() -> tuple[Frame, DualFrame]:
    """Canonical qubit SIC frame (tetrahedron) and its dual: Bloch vectors
    (1,-1,1), (1,1,-1), (-1,1,1), (-1,-1,-1) over sqrt 3."""
    return _pauli_orbit("sic-qubit", np.array((1, -1, 1)) / np.sqrt(3), (0, 1, 2, 3))


def _kron_stack(stacks: list[np.ndarray]) -> np.ndarray:
    """Kronecker products of every combination of operators from the
    (n_k, d_k, d_k) stacks, indexed lexicographically, last stack fastest."""
    out = stacks[0]
    for ops in stacks[1:]:
        n, d = out.shape[0] * ops.shape[0], out.shape[1] * ops.shape[1]
        out = np.einsum("iab,jcd->ijacbd", out, ops).reshape(n, d, d)
    return out


def tensor_frames(parts: list[Frame]) -> Frame:
    """Tensor-compose frames of any kinds; composite labels run
    lexicographically with the last factor fastest.  The composite's kind
    is read from its parts (`Frame.kind`): nq when every part is nq, and
    custom otherwise, so that `Frame.dual` gives it Q^{-1} F.

    The composite records its single frames in `parts` (a composite part
    contributes its own parts).  Raises TooLarge, before allocating, if its
    operator stack would exceed MAX_TENSOR_BYTES.
    """
    if not parts:
        raise ValueError("need at least one frame")
    if len(parts) == 1:
        return parts[0]
    d = math.prod(f.d for f in parts)
    if 16 * d ** 4 > MAX_TENSOR_BYTES:  # n = d^2 complex128 d x d operators
        raise TooLarge(f"a product of {len(parts)} frames has an operator stack "
                       f"over {MAX_TENSOR_BYTES} bytes")
    return Frame(name="*".join(f.name for f in parts), d=d,
                 labels=tuple(itertools.product(*(f.labels for f in parts))),
                 ops=_kron_stack([f.ops for f in parts]),
                 parts=tuple(q for f in parts for q in (f.parts or (f,))))


def _qubits_dimension(n_qubits: int, stem: str) -> int:
    """d = 2^N of `stem:N`, the N-qubit power of a qubit frame.  Its
    operator stack takes 16^(N+1) = 2^(4N+4) bytes, over MAX_TENSOR_BYTES
    exactly when 4N+4 reaches the bound's bit length; such an N raises
    TooLarge, naming `stem:N`, before d is formed."""
    if 4 * n_qubits + 4 >= MAX_TENSOR_BYTES.bit_length():
        raise TooLarge(f"{stem}:{n_qubits} has an operator stack of "
                       f"16^{n_qubits + 1} bytes, over {MAX_TENSOR_BYTES}")
    return 2 ** n_qubits


def _qubit_power(n_qubits: int, stem: str, build) -> tuple[Frame, DualFrame]:
    """`stem:N`, the N-fold `tensor_frames` of the qubit frame `build`
    builds, N >= 1 (ValueError from `tensor_frames` otherwise), and its
    dual; the TooLarge of `_qubits_dimension` is raised before any part is
    built."""
    _qubits_dimension(n_qubits, stem)
    frame = tensor_frames([build()[0]] * n_qubits)
    if n_qubits > 1:
        frame = replace(frame, name=f"{stem}:{n_qubits}")
    return frame, frame.dual


def build_dw_qubits(n_qubits: int) -> tuple[Frame, DualFrame]:
    """dw-qubits:N, the N-fold `tensor_frames` of dw-qubit, and its dual."""
    return _qubit_power(n_qubits, "dw-qubits", build_dw_qubit)


# The built-in frames by name, each with its builder and the dimension d
# of the frame it builds; a name ending in ":N" stands for the names with a
# count N >= 1 in its place, and its builder and d take that count and the
# name's stem (dw-qubits), which the power of a qubit frame is named by.
BUILTIN_FRAMES = {
    "dw-qubit": (build_dw_qubit, lambda: 2),
    "sic-qubit": (build_sic_qubit, lambda: 2),
    "dw-qubits:N": (partial(_qubit_power, build=build_dw_qubit), _qubits_dimension),
    "sic-qubits:N": (partial(_qubit_power, build=build_sic_qubit), _qubits_dimension),
}


def _builtin(name: str) -> tuple:
    """(builder, d, arguments) of the BUILTIN_FRAMES entry `name` names,
    with any ":N" written as a count in ASCII digits (dw-qubits:2), whose
    arguments are the count and the stem; ParseError for any other name."""
    stem, colon, count = name.partition(":")
    entry = BUILTIN_FRAMES.get(f"{stem}:N" if colon else name)
    if entry is None:
        raise ParseError(f"unknown frame kind {name!r}; expected one of "
                         + ", ".join(BUILTIN_FRAMES))
    # int() reads, and str() writes, at most 4300 digits (CPython's default
    # limit); the TooLarge of `_qubits_dimension` writes N + 1
    if colon and not (count.isascii() and count.isdigit() and len(count) < 4300
                      and int(count) >= 1):
        raise ParseError(f"frame kind {name!r} needs a count N >= 1")
    return (*entry, (int(count), stem) if colon else ())


def builtin_frame(name: str) -> tuple[Frame, DualFrame]:
    """The built-in frame pair called `name`; ParseError for a name
    `_builtin` refuses, and a builder's own errors pass through (TooLarge
    from `_qubits_dimension`)."""
    build, _, args = _builtin(name)
    return build(*args)


def builtin_dimension(name: str) -> int:
    """The d of `builtin_frame(name)`, read from the name without building
    anything; ParseError as there."""
    _, d, args = _builtin(name)
    return d(*args)


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
# each matrix a row-major list of rows.  The optional "kind" is a claim
# about the Gram of F: "nq" and "sp" are checked against `Frame.kind`, and
# "custom" names the general rules, which hold for every frame, so it is
# never false; the frame takes its derived kind either way.  An optional
# "G" stack is a claim about the dual, checked against `Frame.dual`.  A
# "c" field (the nq dual scale, always d) is ignored.

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
    """The frame document of `frame`: F alone, since the kind gives G, and
    the kind derived from F."""
    return {
        "d": frame.d,
        "kind": frame.kind,
        "name": frame.name,
        "labels": [list(l) if isinstance(l, tuple) else l for l in frame.labels],
        "F": encode_complex_matrix(frame.ops),
    }


def read_json(source, where: str = ""):
    """The JSON value of `source`, text (str or UTF-8 bytes) or a text file
    open for reading: the one JSON reader of documents.  Bytes are UTF-8,
    as the CLI reads files and RFC 8259 requires between systems; json
    would guess UTF-16 or UTF-32 from them.  ParseError, its message led
    by `where`, for all that json cannot read: malformed JSON, a byte-order
    mark and bytes that are not UTF-8 (ValueErrors all), and nesting past
    the recursion limit."""
    try:
        if isinstance(source, bytes):
            source = source.decode("utf-8")
        return json.loads(source) if isinstance(source, str) else json.load(source)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{where}invalid JSON: {exc}") from exc


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
    `Frame.dual` fails `dual_relation`.  A claimed kind nq or sp is checked
    once the frame has passed, so that a NaN frame is named by its first
    failing invariant: a claim the Gram does not bear out fails `kind`,
    with the Gram's relative distance from the claimed form.
    """
    if isinstance(document, (str, bytes)):
        document = read_json(document)
    if not isinstance(document, dict):
        raise ParseError("frame document must be a JSON object")
    try:
        d, f_ops = document["d"], document["F"]
    except KeyError as exc:
        raise ParseError(f"missing field {exc}") from exc
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ParseError(f"d must be a positive integer, got {d!r}")
    claim = document.get("kind", KIND_CUSTOM)
    if claim not in KNOWN_KINDS:
        raise ParseError(f"unknown kind {claim!r}; expected one of {KNOWN_KINDS}")
    f_ops = decode_complex_matrix(f_ops, (d * d, d, d), "F")
    g_ops = (decode_complex_matrix(document["G"], (d * d, d, d), "G")
             if "G" in document else None)
    labels = document.get("labels", list(range(d * d)))
    if not isinstance(labels, list) or len(labels) != d * d:
        raise ParseError(f"labels must be a list of {d * d} entries for d={d}")
    labels = _tuples(labels)
    frame = Frame(name=document.get("name", "custom"), d=d, labels=labels, ops=f_ops)
    report = validate_frame(
        frame, frame.dual if g_ops is None else DualFrame(name=frame.name, ops=g_ops), tol)
    if not report.passed:
        # name the first violated invariant, in the report's order; a NaN
        # violates, as in `passed`
        check = next(name for name, v in report.checks.items()
                     if not v <= tol)
        raise ValidationFailed(check, report.checks[check], tol)
    if claim not in (KIND_CUSTOM, frame.kind):
        q = frame.gram
        raise ValidationFailed("kind", max_abs(q - _gram_form(q, claim)) / max_abs(q),
                               DEFAULT_TOL)
    return frame, frame.dual


# --- structure coefficients -------------------------------------------------

@dataclass(frozen=True, eq=False)
class StructureCoefficients:
    """Structure coefficients eta[x,i,j] = Tr[F_i G_x G_j] of a frame and
    its own dual, held as complex (n_k, n_k, n_k) factor tensors whose
    Kronecker product is eta, the vector e[i] = Tr F_i of the identity, and
    the derived kind of the frame, against which `qprcore.petz_qpr` checks
    a claimed one.
    `e_sym` is the vector the state powers start from, e in the
    coordinates of the symmetric state matrix: e itself, or Q^{-1/2} e
    through the Gram roots, formed once here.

    A frame built by `tensor_frames` has one factor per part, from the part
    and its dual, because the trace of a Kronecker product is the product
    of the traces; every other frame is its own single factor.  A factor
    is the part's cached `Frame.factor`, so dw-qubits:N holds one array N
    times.  For alpha = sum_x v_x G_x, L = `left(v)` is the matrix of
    rho -> alpha rho and conj(L) that of rho -> rho alpha.

    `gram_roots` is the frame's `Frame.gram_roots`, (Q^{1/2}, Q^{-1/2}) for
    the frame Gram Q[i,j] = Tr[F_i F_j], or None where the frame is nq (Q a
    multiple of the identity) and for the classical delta tensor.
    With the dual G = Q^{-1} F of a minimal frame, Re L = P Q^{-1} with
    P[i,k] = Re Tr[F_i alpha F_k] symmetric, so Q^{-1/2} (Re L) Q^{1/2} is
    symmetric, and its powers come from one `eigh` or Lanczos run
    (`qprcore.state_powers`).  The same roots give the adjoint Q S^T Q^{-1}
    (`qprcore.adjoint_qpr`), the transpose where they are None.
    """

    factors: tuple
    frame_name: str
    e: np.ndarray
    e_sym: np.ndarray
    kind: str
    gram_roots: tuple | None = None

    @property
    def n(self) -> int:
        """The number of operators, the product of the factors' sizes."""
        return len(self.e)

    def left(self, v: np.ndarray) -> np.ndarray:
        """L[i, j] = sum_x v_x eta[x, i, j] for a real vector v, or the
        (b, n, n) stack of them for a (b, n) stack of vectors.

        A single factor is one product of v with the flattened tensor.  The
        general loop gives the same bits there, but the branch stays because
        it measured faster: 3.6 against 6.3 us on a 2-row stack at n = 4
        (best of 7 x 5000, one BLAS thread, 2-core x86 Xeon).  Otherwise
        v^T is viewed as a tensor with one index x_k per factor and the
        batch index last, and each factor in turn replaces its leading
        index by the trailing pair (i_k, j_k), as one matrix product; the
        batch index then comes out in front.
        """
        t = np.asarray(v, dtype=float)
        batch, n, k = t.shape[:-1], len(self.e), len(self.factors)
        if t.ndim not in (1, 2) or t.shape[-1] != n:
            raise RepMismatch(
                f"vector length {t.shape} does not match coefficients ({n})")
        if k == 1:
            return (t @ self.factors[0].reshape(n, n * n)).reshape(batch + (n, n))
        t = t.T
        for f in self.factors:
            t = t.reshape(f.shape[0], -1).T @ f.reshape(f.shape[0], -1)
        b = len(batch)
        return t.reshape(batch + tuple(f.shape[0] for f in self.factors
                                       for _ in (0, 1))).transpose(
            tuple(range(b)) + tuple(range(b, b + 2 * k, 2))
            + tuple(range(b + 1, b + 2 * k, 2))).reshape(batch + (n, n))


def _factor_tensor(f_ops: np.ndarray, g_ops: np.ndarray) -> tuple[np.ndarray, float]:
    """(eta, residue): eta[x,i,j] = Tr[F_i G_x G_j], read-only, built one
    x at a time so that no intermediate is bigger than the n^3 result, and
    the largest break of conj(eta[x,i,j]) = eta[j,i,x], an identity of
    Hermitian operators.  The residue is returned, not judged: each caller
    of `structure_coeffs` holds it to its own tol."""
    n, d = f_ops.shape[0], f_ops.shape[1]
    f_flat = f_ops.reshape(n, d * d)
    eta = np.empty((n, n, n), dtype=complex)
    for x in range(n):  # Tr[F_i M_j] = sum F_i[a,b] M_j[b,a], M_j = G_x G_j
        eta[x] = f_flat @ (g_ops[x] @ g_ops).transpose(0, 2, 1).reshape(n, d * d).T
    # conj Tr[F_i G_x G_j] = Tr[G_j G_x F_i] for Hermitian operators; the
    # identity acts factor by factor, so a composite inherits it
    return read_only(eta), max(max_abs(eta[x].conj() - eta[:, :, x].T) for x in range(n))


def _gram_form(q: np.ndarray, kind: str) -> np.ndarray:
    """The Gram of n = d^2 operators that `kind` names: Q[0,0] 1 for nq,
    (d 1 + J)/(d^2(d+1)) for sp."""
    n, d = len(q), math.isqrt(len(q))
    return q[0, 0] * np.eye(n) if kind == KIND_NQ else (d * np.eye(n) + 1) / (n * (d + 1))


def check_dual(frame: Frame, dual: DualFrame, tol: float) -> None:
    """The claim made wherever a frame and its dual are taken: `dual` is
    `frame.dual`, or lies within tol of it (`validate_frame`'s
    `dual_relation`); RepMismatch otherwise.  Callers test `dual is
    frame.dual` first and call this only when it fails, so that the usual
    case costs one `is` and no call."""
    if not (dual.ops.shape == frame.ops.shape and max_abs(dual.ops - frame.dual.ops) <= tol):
        raise RepMismatch(f"{dual.name!r} is not the dual of frame {frame.name!r} to {tol:.1e}")


def structure_coeffs(frame: Frame, dual: DualFrame,
                     tol: float = DEFAULT_TOL) -> StructureCoefficients:
    """The structure coefficients of the frame, `frame.coeffs`, built once
    and held to the caller's tol here.

    They come from the frame alone: a frame from `tensor_frames` gets one
    factor per recorded part, each from the part and its own dual, so
    memory and work grow with the number of parts, not with n^3; any other
    frame is its own single factor.  `dual` is a claim (`check_dual`).
    The arrays are read-only, as the frame's are, and carry
    `frame.gram_roots`.  Raises, in this order: IllConditioned if cond(Q)
    exceeds GRAM_COND_MAX, RepMismatch for a false dual, TooLarge, before
    allocating, if a factor would exceed MAX_TENSOR_BYTES, and
    ComplexResidue if a factor breaks conj(eta[x,i,j]) = eta[j,i,x] by
    more than tol.
    """
    frame.gram_roots  # IllConditioned first
    if dual is not frame.dual:
        check_dual(frame, dual, tol)
    if frame.residue > tol:
        raise ComplexResidue(f"Hermiticity residue {frame.residue:.3e} of eta > tol")
    return frame.coeffs


def classical_structure_coeffs(n: int) -> StructureCoefficients:
    """Delta tensor eta[x,i,j] = [x = i = j] of the classical (diagonal
    projector) representation on n outcomes, whose identity vector is all
    ones; it is the stack of `classical_projectors`."""
    e = np.ones(n)
    return StructureCoefficients(factors=(classical_projectors(n)[0],),
                                 frame_name=f"classical:{n}",
                                 e=e, e_sym=e, kind=KIND_NQ)


def classical_projectors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal projectors |j><j| used as both frame and dual on the
    classical side; their structure coefficients are the delta tensor."""
    ops = np.zeros((n, n, n), dtype=complex)
    ops[np.diag_indices(n, ndim=3)] = 1.0
    return ops, ops.copy()
