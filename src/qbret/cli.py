"""Command-line entry point.

Subcommands: frame (build/validate/save frames), repr (morph channels or
states into a representation), petz (recovery matrix with an always-on
Hilbert-side cross-check, for a bare channel matrix too, whose channel is
rebuilt from its Choi matrix), verify (seeded identity sweeps), compare
(recovery vs classical Bayes with an outcome-validity scan), graph
(DOT/SVG transition graphs).

Exit codes: 0 success, 1 validation or verification failure, 2 usage or
parse errors, a path that cannot be read or written (any OSError) among
them.  `--tol` sets the numerical tolerance (default 1e-10).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import frames as fr
from . import graphs as gr
from . import hilbert as hb
from . import qprcore as qp
from . import verify as vf
from .errors import OracleMismatch, ParseError, QbretError, TooLarge
from .matcore import DEFAULT_EPS, DEFAULT_TOL, ORACLE_TOL, max_abs, mixing_weight

_NAMED_KETS = {
    "0": hb.KET0, "ket0": hb.KET0,
    "1": hb.KET1, "ket1": hb.KET1,
    "plus": hb.KET_PLUS, "+": hb.KET_PLUS,
    "minus": hb.KET_MINUS, "-": hb.KET_MINUS,
}


def _finite_angles(angles: np.ndarray, source) -> tuple[float, float, float]:
    if not np.isfinite(angles).all():
        raise ParseError(f"angles must be finite, got {source!r}")
    return tuple(angles.tolist())  # type: ignore[return-value]


def _parse_angles(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"expected three comma-separated angles, got {text!r}")
    try:
        return _finite_angles(np.array(parts, dtype=float), text)
    except ValueError as exc:
        raise ParseError(f"bad angle in {text!r}: {exc}") from exc


def parse_state_spec(spec: str) -> np.ndarray:
    """Named ket ("0", "1", "plus", "minus") or an "omega,theta,phi" triple."""
    if spec in _NAMED_KETS:
        return hb.projector(_NAMED_KETS[spec])
    return hb.qubit_state(*_parse_angles(spec))


def positive(text: str) -> float:
    """`--tol` and `--bounds` as a float if it is finite and > 0;
    ValueError otherwise, NaN too, which argparse reports as a usage error
    (exit 2)."""
    value = float(text)
    if not 0.0 < value < np.inf:
        raise ValueError(f"{text!r} is not a finite number > 0")
    return value


def nonnegative(text: str) -> float:
    """`--cutoff` as a float if it is finite and >= 0; ValueError
    otherwise, NaN too (exit 2)."""
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{text!r} is not a finite number >= 0")
    return value


def seed(text: str) -> int:
    """`--seed` as an int >= 0, the seeds `np.random.default_rng` takes;
    ValueError otherwise (exit 2)."""
    value = int(text)
    if value < 0:
        raise ValueError(f"seed {text!r} is negative")
    return value


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = fr.read_json(fh, f"{path}: ")
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump(obj) -> str:
    # compact: with `indent` set, json falls back from its C encoder
    return json.dumps(obj, sort_keys=True)


# --- state / channel / QPR files ---------------------------------------------

def load_state_doc(doc: dict, tol: float) -> np.ndarray:
    """The density operator of a state document; a matrix that is not one
    raises NotHermitian or NotPSD (exit 1)."""
    kind = doc.get("kind")
    try:
        if kind == "matrix":
            rho = fr.decode_complex_matrix(doc["matrix"], what="state matrix")
            hb.assert_density(rho, tol)
            return rho
        if kind == "qubit_params":
            return hb.qubit_state(*_finite_angles(fr.decode_array(
                [doc["omega"], doc["theta"], doc["phi"]], (3,), "qubit angle"), doc))
    except KeyError as exc:
        raise ParseError(f"state document missing field {exc}") from exc
    raise ParseError(f"state kind must be 'matrix' or 'qubit_params', got {kind!r}")


def load_ancilla(doc, tol: float) -> np.ndarray:
    """A dilation's `beta` or a builtin's `ancilla`: a state document, an
    [re, im] matrix, or a state spec string (`parse_state_spec`)."""
    if isinstance(doc, dict):
        return load_state_doc(doc, tol)
    if isinstance(doc, str):
        return parse_state_spec(doc)
    return fr.decode_complex_matrix(doc, what="ancilla or beta")


def load_channel_doc(doc: dict, tol: float) -> tuple[hb.KrausChannel, str]:
    """A channel document; a Kraus list is decoded as one (k, d, d) stack,
    so operators of mixed shapes are a malformed document."""
    kind = doc.get("kind")
    if kind == "kraus":
        ops = fr.decode_complex_matrix(doc.get("kraus"), (None,) * 3, "kraus")
        return hb.KrausChannel.from_kraus(ops, tol), "kraus"
    if kind == "dilation":
        try:
            u = fr.decode_complex_matrix(doc["U"], what="U")
            beta = load_ancilla(doc["beta"], tol)
        except KeyError as exc:
            raise ParseError(f"dilation channel missing field {exc}") from exc
        return hb.channel_from_dilation(u, beta, tol), "dilation"
    if kind == "builtin":
        name, ancilla = doc.get("name"), doc.get("ancilla")
        if ancilla is not None:
            ancilla = load_ancilla(ancilla, tol)
        try:
            return hb.builtin_channel(name, ancilla, tol), f"builtin:{name}"
        except KeyError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(
        f"channel kind must be 'kraus', 'dilation' or 'builtin', got {kind!r}")


def qpr_object_dict(arr: np.ndarray, rep: str, kind: str, meta: dict) -> dict:
    arr = np.asarray(arr, dtype=float)
    return {
        "rep": rep,
        "kind": kind,
        "shape": list(arr.shape),
        "entries": arr.reshape(-1).tolist(),
        "meta": meta,
    }


def load_qpr_object(doc: dict) -> tuple[np.ndarray, str]:
    """The real array of a quasiprobability object and its `rep`; its
    `shape` must be non-negative integers whose product is the number of
    `entries`."""
    entries = fr.decode_array(doc.get("entries"), (None,), "entries")
    shape = fr.decode_array(doc.get("shape"), (None,), "shape").tolist()
    if not all(isinstance(s, int) and s >= 0 for s in shape) or math.prod(shape) != entries.size:
        raise ParseError(f"shape {doc['shape']} does not hold {entries.size} entries")
    return entries.astype(float).reshape(shape), doc.get("rep", "unknown")


# --- frame selection ----------------------------------------------------------

def _refuse(args, flags: tuple, context: str) -> None:
    """ParseError (exit 2) naming the first of `flags` on the command line,
    which the command ignores `context`, whatever its value: no flag is
    dropped silently.  A flag is on the command line when its value is not
    None: no refusable option has a parser default, and those of --tol,
    --eps and --label-style are applied where they are read."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_"), None) is not None:
            raise ParseError(f"{flag} is not used {context}")


def resolve_frame(args, tol: float) -> tuple[fr.Frame, fr.DualFrame]:
    """The frame of --frame or --kind; the qubit-only shorthand --angles,
    --builtin and --ancilla on a frame with d != 2 is a usage error."""
    if args.frame is None and args.kind is None:
        raise ParseError("need --frame PATH or --kind NAME")
    frame, dual = (fr.load_frame(_read_json(args.frame), tol) if args.frame is not None
                   else fr.builtin_frame(args.kind))
    if frame.d != 2:
        _refuse(args, ("--angles", "--builtin", "--ancilla"),
                f"with frame {frame.name} of d = {frame.d}: it is qubit-only")
    return frame, dual


def resolve_channel(args, tol: float) -> tuple[hb.KrausChannel, str]:
    if args.channel is not None:
        _refuse(args, ("--ancilla",), "with --channel")
        return load_channel_doc(_read_json(args.channel), tol)
    if args.builtin is not None:
        return load_channel_doc({"kind": "builtin", "name": args.builtin,
                                 "ancilla": args.ancilla}, tol)
    raise ParseError("need --channel PATH or --builtin NAME")


def resolve_prior(args, tol: float) -> np.ndarray:
    if args.prior is not None:
        return load_state_doc(_read_json(args.prior), tol)
    if args.angles is not None:
        return hb.qubit_state(*_parse_angles(args.angles))
    raise ParseError("need --prior PATH or --angles w,t,p")


def _gated_recovery(args, tol: float, frame: fr.Frame, dual: fr.DualFrame):
    """The recovery for the command line's channel and prior, held to the
    Hilbert-space oracle.  Returns (channel matrix, prior, result, channel
    description, gate); the gate is the deviation, its bound and
    `oracle_checked` as output metadata.  Raises OracleMismatch (exit 1)
    over the bound.

    petz's `--matrix` is one more channel source: the recovery is taken of
    the file's matrix, once its `rep` is checked, and the oracle of the
    channel it stands for (`channel_from_qpr`), which refuses (exit 1) a
    matrix whose columns do not sum to 1 (RepMismatch) or whose Choi
    matrix is not PSD (NotPSD), a map that is positive but not completely
    positive included."""
    if getattr(args, "matrix", None) is None:
        channel, desc = resolve_channel(args, tol)
        s = qp.channel_to_qpr(channel, frame, dual)
    else:
        _refuse(args, ("--channel", "--builtin", "--ancilla"), "with --matrix")
        s, rep = load_qpr_object(_read_json(args.matrix))
        if rep not in ("unknown", frame.name):
            raise QbretError(f"matrix file is in representation {rep!r}, frame is {frame.name!r}")
        channel = hb.KrausChannel.from_kraus(qp.channel_from_qpr(s, frame, dual, tol), tol)
        desc = "matrix"
    prior = resolve_prior(args, tol)
    eps = DEFAULT_EPS if args.eps is None else args.eps
    # the frame's own representation, whose Gram roots the structure
    # coefficients carry and which select the adjoint rule
    result = qp.petz_qpr(s, qp.state_to_qpr(prior, frame),
                         fr.structure_coeffs(frame, dual, tol), eps=eps, tol=tol)
    oracle = hb.petz_hilbert(channel, prior, eps=result.eps_used or eps, tol=tol)
    deviation = max_abs(result.matrix - qp.channel_to_qpr(oracle, frame, dual))
    if deviation > ORACLE_TOL:
        raise OracleMismatch(f"deviation from the Hilbert-side oracle "
                             f"{deviation:.3e} exceeds {ORACLE_TOL:.1e}")
    gate = {"oracle_checked": True, "oracle_deviation": deviation,
            "oracle_tol": ORACLE_TOL}
    return s, prior, result, desc, gate


# --- commands ------------------------------------------------------------------

def _document_bound(d: int, name: str) -> None:
    """TooLarge if the document of a frame of dimension d, F as [re, im]
    pairs (2 n d^2 = 2 d^4 floats), would exceed MAX_TENSOR_BYTES."""
    cost = 2 * d ** 4 * fr.ENCODED_FLOAT_BYTES
    if cost > fr.MAX_TENSOR_BYTES:
        raise TooLarge(f"the document of frame {name} would take about "
                       f"{cost} bytes to write, over {fr.MAX_TENSOR_BYTES}")


def cmd_frame(args, tol: float) -> int:
    # a built-in frame is refused by its name, before it is built
    if args.kind is not None:
        _document_bound(fr.builtin_dimension(args.kind), args.kind)
    frame, dual = resolve_frame(args, tol)
    _document_bound(frame.d, frame.name)
    report = fr.validate_frame(frame, dual, tol)
    doc = fr.frame_to_dict(frame)
    doc["validation"] = {
        "tol": tol,
        "passed": report.passed,
        "max_violation_per_check": report.checks,
    }
    _write_output(_dump(doc), args.out)
    worst_name, worst = report.worst()
    print(f"frame {frame.name}: {frame.n} operators, d={frame.d}, "
          f"validation {'passed' if report.passed else 'FAILED'} "
          f"(worst {worst_name} = {worst:.3e})", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_repr(args, tol: float) -> int:
    frame, dual = resolve_frame(args, tol)
    meta = {"convention": "columns index inputs; entry [a_out, a_in]",
            "frame_kind": frame.kind}
    if args.channel is not None or args.builtin is not None:
        _refuse(args, ("--prior", "--angles"), "with a channel")
        channel, desc = resolve_channel(args, tol)
        s = qp.channel_to_qpr(channel, frame, dual)
        meta["source"] = desc
        meta["column_sums"] = s.sum(axis=0).tolist()
        doc = qpr_object_dict(s, frame.name, "channel-matrix", meta)
    else:
        _refuse(args, ("--ancilla",), "without a channel")
        v = qp.state_to_qpr(resolve_prior(args, tol), frame)
        meta["source"] = "state"
        meta["sum"] = float(v.sum())
        doc = qpr_object_dict(v, frame.name, "state-vector", meta)
    _write_output(_dump(doc), args.out)
    return 0


def cmd_petz(args, tol: float) -> int:
    frame, dual = resolve_frame(args, tol)
    _, _, result, _, gate = _gated_recovery(args, tol, frame, dual)
    meta = {
        "eps_used": result.eps_used,
        "prior_kind": frame.kind,
        "support_projected": result.support_projected,
        "root_routes": list(result.root_routes),
        **gate,
    }
    doc = qpr_object_dict(result.matrix, frame.name, "retrodiction-matrix", meta)
    _write_output(_dump(doc), args.out)
    return 0


def cmd_verify(args, tol: float) -> int:
    _refuse(args, ("--tol",), "by verify, whose tolerances are fixed")
    results = vf.run_suites([args.suite], seed=args.seed)
    passed = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "seed": args.seed,
            "passed": bool(passed),
            "checks": [{"name": r.name, "max_deviation": float(r.deviation),
                        "tolerance": float(r.tol), "passed": bool(r.passed),
                        "note": r.note}
                       for r in results],
        }
        _write_output(_dump(payload), args.out)
    else:
        lines = [f"suite: {args.suite}   seed: {args.seed}"]
        lines += ["  " + r.line() for r in results]
        lines.append(f"overall: {'pass' if passed else 'FAIL'}")
        _write_output("\n".join(lines), args.out)
    return 0 if passed else 1


_QUBIT_SCAN = (("ket0", hb.KET0), ("ket1", hb.KET1), ("plus", hb.KET_PLUS),
               ("minus", hb.KET_MINUS),
               ("ket_i", np.array([1, 1j]) / np.sqrt(2)),
               ("ket_minus_i", np.array([1, -1j]) / np.sqrt(2)))


def _scan_kets(d: int) -> tuple:
    """Named kets of the outcome scan: the six Pauli eigenstates on a
    qubit; otherwise the basis kets and (|j> + |k>)/sqrt2 and
    (|j> + i|k>)/sqrt2 for j < k."""
    if d == 2:
        return _QUBIT_SCAN
    basis = np.eye(d, dtype=complex)
    kets = [(f"ket{j}", basis[j]) for j in range(d)]
    for j, k in itertools.combinations(range(d), 2):
        kets.append((f"plus_{j}_{k}", (basis[j] + basis[k]) / np.sqrt(2)))
        kets.append((f"plus_i_{j}_{k}", (basis[j] + 1j * basis[k]) / np.sqrt(2)))
    return tuple(kets)


def _born_scan(matrix: np.ndarray, frame: fr.Frame, dual: fr.DualFrame) -> list:
    """Born value of every scan effect (each scan projector, then the
    identity) on `matrix` applied to every scan state."""
    names, kets = zip(*_scan_kets(frame.d))
    projectors = np.einsum("ma,mb->mab", kets, np.conj(kets))
    states = qp.state_to_qpr(projectors, frame)
    effects = qp.povm_to_qpr(
        np.concatenate([projectors, np.eye(frame.d)[None]]), dual)
    values = (effects @ (matrix @ states.T)).T.tolist()  # [state][effect]
    return [{"state": sname, "effect": ename, "value": value,
             "valid": -1e-9 <= value <= 1.0 + 1e-9}
            for sname, row in zip(names, values)
            for ename, value in zip(names + ("identity",), row)]


def cmd_compare(args, tol: float) -> int:
    frame, dual = resolve_frame(args, tol)
    s, prior, result, desc, gate = _gated_recovery(args, tol, frame, dual)
    recovery = result.matrix
    classical = qp.classical_bayes(s, qp.state_to_qpr(prior, frame),
                                   eps=DEFAULT_EPS if args.eps is None else args.eps)
    scan = _born_scan(classical, frame, dual)
    # indices into the scan, whose rows carry the values
    flagged = [i for i, row in enumerate(scan) if not row["valid"]]
    payload = {
        "channel": desc,
        "rep": frame.name,
        "recovery": recovery.tolist(),
        "classical": classical.tolist(),
        "max_difference": max_abs(recovery - classical),
        "born_scan_classical": scan,
        "flagged": flagged,
        **gate,
    }
    _write_output(_dump(payload), args.out)
    if flagged:
        print(f"{len(flagged)} outcome value(s) outside [0, 1] under the "
              "classical inversion", file=sys.stderr)
    return 0


def cmd_graph(args, tol: float) -> int:
    bubbles = labels = None
    if args.matrix is not None:
        _refuse(args, ("--frame", "--kind", "--channel", "--builtin", "--ancilla",
                       "--prior", "--angles", "--eps", "--label-style", "--tol"),
                "with --matrix")
        s, _rep = load_qpr_object(_read_json(args.matrix))
        if args.bubbles is not None:
            bubbles, _ = load_qpr_object(_read_json(args.bubbles))
        elif args.direction == "retro":
            raise ParseError("retro graphs from a matrix file need "
                             "--bubbles (the prior vector file)")
    else:
        _refuse(args, ("--bubbles",), "without --matrix")
        frame, dual = resolve_frame(args, tol)
        if args.direction == "forward":
            _refuse(args, ("--prior", "--angles", "--eps"), "by a forward graph")
        if args.label_style != "index":
            labels = tuple(str(l) for l in frame.labels)
        if args.direction == "retro":
            _, prior, result, _, _ = _gated_recovery(args, tol, frame, dual)
            s, bubbles = result.matrix, qp.state_to_qpr(prior, frame)
        else:
            s = qp.channel_to_qpr(resolve_channel(args, tol)[0], frame, dual)
    build = gr.retro_graph if args.direction == "retro" else gr.forward_graph
    graph = build(s, bubbles, labels, args.cutoff)
    emit = gr.emit_svg if args.format == "svg" else gr.emit_dot
    _write_output(emit(graph, args.bounds), args.out)
    return 0


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbret",
        description="Quantum Bayesian retrodiction in quasiprobability "
                    "representations")
    parser.add_argument("--tol", type=positive, help="numerical tolerance (default 1e-10)")
    sub = parser.add_subparsers(dest="command", required=True)

    # option groups, each one extending the last
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    # each exclusive group is one choice of frame, channel or prior
    frame = argparse.ArgumentParser(add_help=False, parents=[out])
    choice = frame.add_mutually_exclusive_group()
    choice.add_argument("--frame", help="frame file (JSON)")
    choice.add_argument("--kind", help="builtin frame: "
                                       + ", ".join(fr.BUILTIN_FRAMES))
    inputs = argparse.ArgumentParser(add_help=False, parents=[frame])
    choice = inputs.add_mutually_exclusive_group()
    choice.add_argument("--channel", help="channel file (JSON)")
    choice.add_argument("--builtin", help="builtin channel name "
                                          f"({', '.join(hb.BUILTIN_NAMES)})")
    inputs.add_argument("--ancilla", help="ancilla for dilation builtins: "
                                          "0|1|plus|minus or omega,theta,phi")
    choice = inputs.add_mutually_exclusive_group()
    choice.add_argument("--prior", help="state file (JSON)")
    choice.add_argument("--angles", help="qubit state angles omega,theta,phi")
    recovery = argparse.ArgumentParser(add_help=False, parents=[inputs])
    recovery.add_argument("--eps", type=mixing_weight, help=(
        "regularization weight in [0, 1] (default 1e-8); the recovery raises a weight below "
        "QPR_EPS_FLOOR = 1e-5 to 1e-5, and 0 turns regularization off, so a rank-deficient "
        "posterior exits 1 (SingularPosterior); compare's classical inversion uses the value "
        "as it is"))

    sub.add_parser("frame", parents=[frame], help="build or validate a frame")
    sub.add_parser("repr", parents=[inputs],
                   help="morph a channel or state into a frame")

    p = sub.add_parser("petz", parents=[recovery],
                       help="recovery matrix with oracle cross-check")
    p.add_argument("--matrix", help="channel matrix file; the oracle runs on the "
                                    "channel it stands for, and exit 1 if it is none")

    p = sub.add_parser("verify", parents=[out], help="run verification suites")
    p.add_argument("--suite", default="all", choices=[*vf.SUITES, "all"])
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")

    sub.add_parser("compare", parents=[recovery],
                   help="recovery vs classical Bayes inversion")

    p = sub.add_parser("graph", parents=[recovery], help="emit a transition graph")
    p.add_argument("--matrix", help="precomputed matrix file to draw")
    p.add_argument("--bubbles", help="vector file for node bubbles")
    p.add_argument("--direction", choices=["forward", "retro"],
                   default="forward")
    p.add_argument("--cutoff", type=nonnegative, default=gr.DEFAULT_CUTOFF)
    p.add_argument("--bounds", type=positive)
    p.add_argument("--label-style", choices=["name", "index"])
    p.add_argument("--format", choices=["dot", "svg"], default="dot")

    return parser


_COMMANDS = {
    "frame": cmd_frame,
    "repr": cmd_repr,
    "petz": cmd_petz,
    "verify": cmd_verify,
    "compare": cmd_compare,
    "graph": cmd_graph,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, DEFAULT_TOL if args.tol is None else args.tol)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QbretError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
