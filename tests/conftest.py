import numpy as np
import pytest

from qbret.frames import DualFrame, Frame, build_dw_qubit
from qbret.matcore import PAULI_X, PAULI_Y, PAULI_Z

pytest_plugins = ["pytester"]

TETRAHEDRON = np.array([(1, -1, 1), (1, 1, -1), (-1, 1, 1), (-1, -1, -1)]) / np.sqrt(3)


def custom_tetra_pair(rng: np.random.Generator,
                      shrink: float | None = None) -> tuple[Frame, DualFrame]:
    """A minimal qubit frame of neither built-in family: a randomly
    rotated tetrahedron of Bloch vectors, shrunk by `shrink` (drawn from
    [0.6, 0.95] if not given), with its derived dual Q^{-1} F."""
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if shrink is None:
        shrink = rng.uniform(0.6, 0.95)
    bloch = shrink * TETRAHEDRON @ rot.T
    paulis = np.array([PAULI_X, PAULI_Y, PAULI_Z])
    ops = np.array([(np.eye(2) + np.einsum("k,kab->ab", b, paulis)) / 4
                    for b in bloch])
    frame = Frame(name="custom-tetra", d=2, labels=(0, 1, 2, 3), ops=ops)
    return frame, frame.dual


@pytest.fixture(scope="session")
def custom_tetra():
    """Builder of random minimal custom frame pairs, `custom_tetra_pair`."""
    return custom_tetra_pair


@pytest.fixture(scope="session")
def near_dw():
    """dw-qubit with its operators moved by 1e-7 (X, -X, Y, -Y): still a
    frame, of kind custom, its Gram 4.0e-7 (relative) off a multiple of 1."""
    f = build_dw_qubit()[0]
    return Frame(name="near-dw", d=2, labels=f.labels,
                 ops=f.ops + 1e-7 * np.array([PAULI_X, -PAULI_X, PAULI_Y, -PAULI_Y]))
