"""The typed errors of the library that no other test reaches, one
violating input each, raised through the public function that checks it."""

import numpy as np
import pytest

from qbret import errors
from qbret.frames import (
    DualFrame,
    build_dw_qubit,
    encode_complex_matrix,
    load_frame,
    tensor_frames,
    validate_frame,
)
from qbret.graphs import forward_graph
from qbret.hilbert import (
    KrausChannel,
    assert_density,
    builtin_channel,
    channel_from_dilation,
    petz_hilbert,
)
from qbret.matcore import eigh_spectrum
from qbret.qprcore import classical_bayes
from qbret.verify import run_suites


def _frame_document(**fields):
    """The dw-qubit frame document with `fields` set (None deletes one)."""
    f, _ = build_dw_qubit()
    doc = {"d": 2, "kind": "nq", "F": encode_complex_matrix(f.ops)}
    doc.update(fields)
    return {k: v for k, v in doc.items() if v is not None}


def _short_dual():
    f, g = build_dw_qubit()
    return validate_frame(f, DualFrame(name="short", ops=g.ops[:3]))


CASES = {
    "tensor-of-no-frames": (lambda: tensor_frames([]), ValueError, "at least one"),
    "validate-shape": (_short_dual, errors.ValidationFailed, "shape"),
    "frame-document-not-an-object": (lambda: load_frame("[1, 2]"), errors.ParseError,
                                     "JSON object"),
    "frame-document-without-d": (lambda: load_frame(_frame_document(d=None)),
                                 errors.ParseError, "missing field 'd'"),
    "frame-document-without-F": (lambda: load_frame(_frame_document(F=None)),
                                 errors.ParseError, "missing field 'F'"),
    "frame-document-unknown-kind": (lambda: load_frame(_frame_document(kind="wigner")),
                                    errors.ParseError, "unknown kind"),
    "frame-document-false-kind": (lambda: load_frame(_frame_document(kind="sp")),
                                  errors.ValidationFailed, "failed: kind"),
    "graph-label-count": (lambda: forward_graph(np.eye(4), labels=("a", "b")),
                          errors.RepMismatch, "2 labels for 4 nodes"),
    "density-of-a-stack": (lambda: assert_density(np.eye(2)[None] / 2),
                           errors.DimensionMismatch, "is a matrix"),
    "kraus-of-mixed-shapes": (lambda: KrausChannel.from_kraus([np.eye(2), np.eye(3)]),
                              errors.DimensionMismatch, "one square shape"),
    "kraus-of-no-operators": (lambda: KrausChannel.from_kraus([]),
                              errors.DimensionMismatch, "one square shape"),
    "kraus-of-an-empty-stack": (lambda: KrausChannel.from_kraus(np.zeros((0, 2, 2))),
                                errors.NotUnitary, "completeness"),
    "ancilla-not-dividing": (lambda: channel_from_dilation(np.eye(4), np.eye(3) / 3),
                             errors.BadAncilla, "does not divide"),
    "prior-of-another-dimension": (
        lambda: petz_hilbert(builtin_channel("hadamard"), np.eye(4) / 4),
        errors.DimensionMismatch, "does not match dimension 2"),
    "classical-bayes-shapes": (lambda: classical_bayes(np.eye(4), np.ones(3) / 3),
                               errors.RepMismatch, "prior length 3"),
    "builtin-channel-of-a-list-name": (lambda: builtin_channel(["hadamard"]), KeyError,
                                       "unknown builtin channel"),
    "builtin-channel-of-a-dict-name": (lambda: builtin_channel({"hadamard": 1}), KeyError,
                                       "unknown builtin channel"),
    "unknown-suite": (lambda: run_suites(["nope"]), ValueError, "unknown suite"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_raises_its_typed_error(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call()


def test_eigh_failure_is_no_convergence(monkeypatch):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(errors.NoConvergence, match="did not converge"):
        eigh_spectrum(np.eye(2))
