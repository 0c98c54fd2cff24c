"""Output checks for cli-oneshot: does each invocation's output parse, and
do the recovery matrices it contains agree with the Hilbert-space oracle?

Runs after the timed phase, in the benchmark's own process.  The oracle is
rebuilt from the case's inputs with `petz_hilbert` and morphed into the
frame, and held to the CLI's gate: ORACLE_TOL when the posterior is full
rank, else 1e-5.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET

import numpy as np

from qbret import frames as fr, hilbert as hb, qprcore as qp
from qbret.graphs import DEFAULT_CUTOFF
from qbret.matcore import ORACLE_TOL, max_abs

REGULARIZED_GATE = 1e-5
# DOT edge labels carry 9 significant digits
DOT_ROUNDING = 1e-8
_PAIRS = {"dw-qubit": fr.build_dw_qubit, "sic-qubit": fr.build_sic_qubit}
_DOT_EDGE = re.compile(r'^\s*out(\d+) -> in(\d+) \[.*label="([^"]+)"\];$')


class BadOutput(Exception):
    """The invocation exited 0 but its output is wrong."""

    def __init__(self, message: str, deviation: tuple | None = None):
        super().__init__(message)
        self.deviation = deviation


def _oracle(inputs: dict) -> tuple[np.ndarray, float]:
    frame, dual = _PAIRS[inputs["kind"]]()
    if "builtin" in inputs:
        channel = hb.builtin_channel(inputs["builtin"], hb.projector(hb.KET1))
    else:
        channel = hb.channel_from_dilation(inputs["u"], inputs["beta"])
    prior = hb.qubit_state(*(float(a) for a in inputs["angles"].split(",")))
    recovery = hb.petz_hilbert(channel, prior, eps=qp.QPR_EPS_FLOOR)
    gate = ORACLE_TOL if recovery.eps_used == 0.0 else REGULARIZED_GATE
    return qp.channel_to_qpr(recovery, frame, dual), gate


def _held_to_oracle(matrix: np.ndarray, inputs: dict,
                    slack: float = 0.0) -> tuple[float, float]:
    expected, gate = _oracle(inputs)
    deviation = max_abs(matrix - expected)
    if deviation > gate + slack:
        raise BadOutput(f"oracle deviation {deviation:.3e} over gate {gate:.1e}",
                        (deviation, gate))
    return deviation, gate


def _qpr_array(doc: dict) -> np.ndarray:
    return np.array([float(x) for x in doc["entries"]]).reshape(doc["shape"])


def _retro_dot(text: str, n: int) -> np.ndarray:
    if not text.startswith("digraph") or not text.rstrip().endswith("}"):
        raise BadOutput("not a DOT digraph")
    s_hat = np.zeros((n, n))
    for line in text.splitlines():
        m = _DOT_EDGE.match(line)
        if m:
            s_hat[int(m.group(2)), int(m.group(1))] = float(m.group(3))
    return s_hat


def check(argv: list, inputs: dict, text: str) -> tuple[float, float] | None:
    """Raise BadOutput (or a parse error) if the output of a successful
    invocation is wrong; return (oracle deviation, gate) where one applies."""
    cmd = argv[0]
    if cmd == "graph" and "svg" in argv:
        if not ET.fromstring(text).tag.endswith("svg"):
            raise BadOutput("root element is not <svg>")
        return None
    if cmd == "graph":
        s_hat = _retro_dot(text, 4)
        # edges at or below the cutoff are not drawn
        expected, _ = _oracle(inputs)
        s_hat = np.where((s_hat == 0.0) & (np.abs(expected) <= DEFAULT_CUTOFF),
                         expected, s_hat)
        return _held_to_oracle(s_hat, inputs, DOT_ROUNDING)
    doc = json.loads(text)
    if cmd == "frame":
        if doc["validation"]["passed"] is not True or len(doc["F"]) != doc["d"] ** 2:
            raise BadOutput("frame document failed its own validation")
        return None
    if cmd == "verify":
        if doc["passed"] is not True:
            raise BadOutput("verification suite reported a failure")
        return None
    if cmd == "repr":
        arr = _qpr_array(doc)
        sums = arr.sum(axis=0) if arr.ndim == 2 else arr.sum()
        if max_abs(np.asarray(sums) - 1.0) > 1e-9:
            raise BadOutput("quasiprobability object does not sum to 1")
        return None
    if cmd == "petz":
        meta = doc["meta"]
        if meta["oracle_deviation"] > meta["oracle_tol"]:
            raise BadOutput("reported oracle deviation over its own gate")
        return _held_to_oracle(_qpr_array(doc), inputs)
    if cmd == "compare":
        return _held_to_oracle(np.array(doc["recovery"], dtype=float), inputs)
    raise BadOutput(f"no check for command {cmd!r}")
