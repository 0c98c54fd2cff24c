"""Command-line entry point.

Subcommands: frame (build/validate/save frames), repr (morph channels or
states into a representation), petz (recovery matrix with an always-on
Hilbert-side cross-check), verify (seeded identity sweeps), compare
(recovery vs classical Bayes with an outcome-validity scan), graph
(DOT/SVG transition graphs).

Exit codes: 0 success, 1 validation or verification failure, 2 usage or
parse errors.  The QBRET_TOL environment variable overrides the default
numerical tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import frames as fr
from . import graphs as gr
from . import hilbert as hb
from . import qprcore as qp
from . import verify as vf
from .errors import OracleMismatch, ParseError, QbretError
from .matcore import DEFAULT_TOL, ORACLE_TOL, max_abs

_NAMED_KETS = {
    "0": hb.KET0, "ket0": hb.KET0,
    "1": hb.KET1, "ket1": hb.KET1,
    "plus": hb.KET_PLUS, "+": hb.KET_PLUS,
    "minus": hb.KET_MINUS, "-": hb.KET_MINUS,
}


def _parse_angles(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError(f"expected three comma-separated angles, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise ParseError(f"bad angle in {text!r}: {exc}") from exc


def parse_state_spec(spec: str) -> np.ndarray:
    """Named ket ("0", "1", "plus", "minus") or an "omega,theta,phi" triple."""
    if spec in _NAMED_KETS:
        return hb.projector(_NAMED_KETS[spec])
    return hb.qubit_state(*_parse_angles(spec))


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
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
    return json.dumps(obj, indent=2, sort_keys=True)


# --- state / channel / QPR files ---------------------------------------------

def load_state_doc(doc: dict) -> np.ndarray:
    kind = doc.get("kind")
    try:
        if kind == "matrix":
            return fr.decode_complex_matrix(doc["matrix"])
        if kind == "qubit_params":
            return hb.qubit_state(float(doc["omega"]), float(doc["theta"]),
                                  float(doc["phi"]))
    except KeyError as exc:
        raise ParseError(f"state document missing field {exc}") from exc
    raise ParseError(f"state kind must be 'matrix' or 'qubit_params', got {kind!r}")


def load_channel_doc(doc: dict, tol: float) -> tuple[hb.KrausChannel, str]:
    kind = doc.get("kind")
    if kind == "kraus":
        ops = [fr.decode_complex_matrix(k) for k in doc.get("kraus", [])]
        if not ops:
            raise ParseError("kraus channel needs at least one operator")
        return hb.KrausChannel.from_kraus(ops, tol), "kraus"
    if kind == "dilation":
        try:
            u = fr.decode_complex_matrix(doc["U"])
            beta_doc = doc["beta"]
        except KeyError as exc:
            raise ParseError(f"dilation channel missing field {exc}") from exc
        beta = (load_state_doc(beta_doc) if isinstance(beta_doc, dict)
                else fr.decode_complex_matrix(beta_doc))
        return hb.channel_from_dilation(u, beta, tol), "dilation"
    if kind == "builtin":
        name = doc.get("name")
        ancilla = doc.get("ancilla")
        if isinstance(ancilla, dict):
            ancilla = load_state_doc(ancilla)
        elif isinstance(ancilla, str):
            ancilla = parse_state_spec(ancilla)
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
        "entries": [float(x) for x in arr.reshape(-1)],
        "meta": meta,
    }


def load_qpr_object(doc: dict) -> tuple[np.ndarray, str]:
    try:
        shape = tuple(int(s) for s in doc["shape"])
        arr = np.array([float(x) for x in doc["entries"]]).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed quasiprobability object: {exc}") from exc
    return arr, doc.get("rep", "unknown")


# --- frame selection ----------------------------------------------------------

def resolve_frame(args, tol: float) -> tuple[fr.Frame, fr.DualFrame]:
    if getattr(args, "frame", None):
        pair = fr.load_frame(_read_json(args.frame), tol)
        return pair
    kind = getattr(args, "kind", None)
    if not kind:
        raise ParseError("need --frame PATH or --kind NAME")
    if kind == "dw-qubit":
        return fr.build_dw_qubit()
    if kind == "sic-qubit":
        return fr.build_sic_qubit()
    if kind.startswith("dw-qubits:"):
        return fr.build_dw_qubits(int(kind.split(":", 1)[1]))
    raise ParseError(f"unknown frame kind {kind!r}; expected dw-qubit, "
                     "dw-qubits:N or sic-qubit")


def resolve_channel(args, tol: float) -> tuple[hb.KrausChannel, str]:
    if getattr(args, "channel", None):
        return load_channel_doc(_read_json(args.channel), tol)
    if getattr(args, "builtin", None):
        ancilla = parse_state_spec(args.ancilla) if args.ancilla else None
        try:
            return (hb.builtin_channel(args.builtin, ancilla, tol),
                    f"builtin:{args.builtin}")
        except KeyError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError("need --channel PATH or --builtin NAME")


def resolve_prior(args) -> np.ndarray:
    if getattr(args, "prior", None):
        return load_state_doc(_read_json(args.prior))
    if getattr(args, "angles", None):
        return hb.qubit_state(*_parse_angles(args.angles))
    raise ParseError("need --prior PATH or --angles w,t,p")


def _recover(s: np.ndarray, prior: np.ndarray, frame: fr.Frame,
             dual: fr.DualFrame, eps: float, tol: float) -> qp.PetzQprResult:
    """petz_qpr in the frame's own representation, whose validated kind
    the structure coefficients carry and which selects the adjoint rule."""
    return qp.petz_qpr(s, qp.state_to_qpr(prior, frame),
                       fr.structure_coeffs(frame, dual, tol), eps=eps, tol=tol)


def _oracle_gate(result: qp.PetzQprResult, channel: hb.KrausChannel,
                 prior: np.ndarray, frame: fr.Frame, dual: fr.DualFrame,
                 eps: float, tol: float) -> dict:
    """Hold a recovery matrix to the Hilbert-space oracle.

    Returns the deviation and the gate as output metadata, or raises
    OracleMismatch (exit 1) when the deviation is over the gate.
    """
    oracle = hb.petz_hilbert(channel, prior, eps=result.eps_used or eps, tol=tol)
    deviation = max_abs(result.matrix - qp.channel_to_qpr(oracle, frame, dual))
    if deviation > ORACLE_TOL:
        raise OracleMismatch(f"deviation from the Hilbert-side oracle "
                             f"{deviation:.3e} exceeds {ORACLE_TOL:.1e}")
    return {"oracle_deviation": deviation, "oracle_tol": ORACLE_TOL}


# --- commands ------------------------------------------------------------------

def cmd_frame(args, tol: float) -> int:
    frame, dual = resolve_frame(args, tol)
    report = fr.validate_frame(frame, dual, tol)
    doc = fr.frame_to_dict(frame, dual)
    doc["validation"] = {
        "tol": tol,
        "passed": report.passed,
        "max_violation_per_check": report.all_checks,
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
    if getattr(args, "channel", None) or getattr(args, "builtin", None):
        channel, desc = resolve_channel(args, tol)
        s = qp.channel_to_qpr(channel, frame, dual)
        meta["source"] = desc
        meta["column_sums"] = [float(x) for x in s.sum(axis=0)]
        doc = qpr_object_dict(s, frame.name, "channel-matrix", meta)
    else:
        rho = resolve_prior(args)
        v = qp.state_to_qpr(rho, frame)
        meta["source"] = "state"
        meta["sum"] = float(v.sum())
        doc = qpr_object_dict(v, frame.name, "state-vector", meta)
    _write_output(_dump(doc), args.out)
    return 0


def cmd_petz(args, tol: float) -> int:
    frame, dual = resolve_frame(args, tol)
    prior = resolve_prior(args)

    channel = None
    if getattr(args, "matrix", None):
        s, rep = load_qpr_object(_read_json(args.matrix))
        if rep not in ("unknown", frame.name):
            raise QbretError(f"matrix file is in representation {rep!r}, "
                             f"frame is {frame.name!r}")
        print("warning: channel given as a bare matrix; "
              "the Hilbert-side cross-check is disabled", file=sys.stderr)
    else:
        channel, _ = resolve_channel(args, tol)
        s = qp.channel_to_qpr(channel, frame, dual)

    result = _recover(s, prior, frame, dual, args.eps, tol)
    meta = {
        "eps_used": result.eps_used,
        "prior_kind": frame.kind,
        "converged": result.converged,
        "support_projected": result.support_projected,
    }
    if result.extrapolation_dev is not None:
        meta["extrapolation_dev"] = result.extrapolation_dev
    if result.support_dev is not None:
        meta["support_route_dev"] = result.support_dev
    if channel is not None:
        meta.update(_oracle_gate(result, channel, prior, frame, dual,
                                 args.eps, tol))
    doc = qpr_object_dict(result.matrix, frame.name, "retrodiction-matrix", meta)
    _write_output(_dump(doc), args.out)
    return 0


def cmd_verify(args, tol: float) -> int:
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


_SCAN_STATES = (("ket0", hb.KET0), ("ket1", hb.KET1), ("plus", hb.KET_PLUS),
                ("minus", hb.KET_MINUS),
                ("ket_i", np.array([1, 1j]) / np.sqrt(2)),
                ("ket_minus_i", np.array([1, -1j]) / np.sqrt(2)))


def _born_scan(matrix: np.ndarray, frame: fr.Frame, dual: fr.DualFrame) -> list:
    rows = []
    effects = [(name, hb.projector(k)) for name, k in _SCAN_STATES]
    effects.append(("identity", np.eye(frame.d, dtype=complex)))
    for sname, ket in _SCAN_STATES:
        v = qp.state_to_qpr(hb.projector(ket), frame)
        image = matrix @ v
        for ename, effect in effects:
            value = qp.born(image, qp.povm_to_qpr(effect, dual))
            valid = -1e-9 <= value <= 1.0 + 1e-9
            rows.append({"state": sname, "effect": ename,
                         "value": value, "valid": bool(valid)})
    return rows


def cmd_compare(args, tol: float) -> int:
    frame, dual = resolve_frame(args, tol)
    channel, desc = resolve_channel(args, tol)
    prior = resolve_prior(args)
    s = qp.channel_to_qpr(channel, frame, dual)
    result = _recover(s, prior, frame, dual, args.eps, tol)
    gate = _oracle_gate(result, channel, prior, frame, dual, args.eps, tol)
    recovery = result.matrix
    classical = qp.classical_bayes(s, qp.state_to_qpr(prior, frame), eps=args.eps)
    scan = _born_scan(classical, frame, dual)
    flagged = [row for row in scan if not row["valid"]]
    payload = {
        "channel": desc,
        "rep": frame.name,
        "recovery": [[float(x) for x in row] for row in recovery],
        "classical": [[float(x) for x in row] for row in classical],
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
    cutoff = args.cutoff if args.cutoff is not None else gr.DEFAULT_CUTOFF
    labels = None
    if getattr(args, "matrix", None):
        s, _rep = load_qpr_object(_read_json(args.matrix))
        if args.direction == "forward":
            if getattr(args, "bubbles", None):
                bubbles, _ = load_qpr_object(_read_json(args.bubbles))
            else:
                bubbles = s @ qp.uniform_vector(s.shape[0])
            graph = gr.forward_graph(s, bubbles, labels, cutoff)
        else:
            if not getattr(args, "bubbles", None):
                raise ParseError("retro graphs from a matrix file need "
                                 "--bubbles (the prior vector file)")
            bubbles, _ = load_qpr_object(_read_json(args.bubbles))
            graph = gr.retro_graph(s, bubbles, labels, cutoff)
    else:
        frame, dual = resolve_frame(args, tol)
        labels = tuple(str(l) for l in frame.labels)
        channel, _ = resolve_channel(args, tol)
        s = qp.channel_to_qpr(channel, frame, dual)
        if args.direction == "forward":
            graph = gr.forward_graph(s, s @ qp.uniform_vector(frame.n),
                                     labels, cutoff)
        else:
            prior = resolve_prior(args)
            result = _recover(s, prior, frame, dual, args.eps, tol)
            _oracle_gate(result, channel, prior, frame, dual, args.eps, tol)
            graph = gr.retro_graph(result.matrix, qp.state_to_qpr(prior, frame),
                                   labels, cutoff)
    opts = gr.GraphOptions(bounds=args.bounds, label_style=args.label_style)
    text = gr.emit_svg(graph, opts) if args.format == "svg" \
        else gr.emit_dot(graph, opts)
    _write_output(text, args.out)
    return 0


# --- parser --------------------------------------------------------------------

def _add_frame_args(p):
    p.add_argument("--frame", help="frame file (JSON)")
    p.add_argument("--kind", help="builtin frame: dw-qubit, dw-qubits:N, sic-qubit")


def _add_channel_args(p):
    p.add_argument("--channel", help="channel file (JSON)")
    p.add_argument("--builtin", help="builtin channel name "
                                     f"({', '.join(hb.BUILTIN_NAMES)})")
    p.add_argument("--ancilla", help="ancilla for dilation builtins: "
                                     "0|1|plus|minus or omega,theta,phi")


def _add_prior_args(p):
    p.add_argument("--prior", help="state file (JSON)")
    p.add_argument("--angles", help="qubit state angles omega,theta,phi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbret",
        description="Quantum Bayesian retrodiction in quasiprobability "
                    "representations")
    parser.add_argument("--tol", type=float, default=None,
                        help="numerical tolerance (default 1e-10, or QBRET_TOL)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frame", help="build or validate a frame")
    _add_frame_args(p)
    p.add_argument("--out")

    p = sub.add_parser("repr", help="morph a channel or state into a frame")
    _add_frame_args(p)
    _add_channel_args(p)
    _add_prior_args(p)
    p.add_argument("--out")

    p = sub.add_parser("petz", help="recovery matrix with oracle cross-check")
    _add_frame_args(p)
    _add_channel_args(p)
    _add_prior_args(p)
    p.add_argument("--matrix", help="precomputed channel matrix file "
                                    "(disables the oracle check)")
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--out")

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   choices=list(vf.SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out")

    p = sub.add_parser("compare", help="recovery vs classical Bayes inversion")
    _add_frame_args(p)
    _add_channel_args(p)
    _add_prior_args(p)
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--out")

    p = sub.add_parser("graph", help="emit a transition graph")
    _add_frame_args(p)
    _add_channel_args(p)
    _add_prior_args(p)
    p.add_argument("--matrix", help="precomputed matrix file to draw")
    p.add_argument("--bubbles", help="vector file for node bubbles")
    p.add_argument("--direction", choices=["forward", "retro"],
                   default="forward")
    p.add_argument("--eps", type=float, default=1e-8)
    p.add_argument("--cutoff", type=float, default=None)
    p.add_argument("--bounds", type=float, default=None)
    p.add_argument("--label-style", dest="label_style",
                   choices=["name", "index"], default="name")
    p.add_argument("--format", choices=["dot", "svg"], default="dot")
    p.add_argument("--out")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = args.tol
    if tol is None:
        tol = float(os.environ.get("QBRET_TOL", DEFAULT_TOL))
    try:
        return _COMMANDS[args.command](args, tol)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QbretError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
