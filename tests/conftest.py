import numpy as np
import pytest

from qbret.frames import DualFrame, Frame
from qbret.matcore import PAULI_X, PAULI_Y, PAULI_Z

TETRAHEDRON = np.array([(1, -1, 1), (1, 1, -1), (-1, 1, 1), (-1, -1, -1)]) / np.sqrt(3)


def custom_tetra_pair(rng: np.random.Generator,
                      shrink: float | None = None) -> tuple[Frame, DualFrame]:
    """A minimal qubit frame of neither built-in family: a randomly
    rotated tetrahedron of Bloch vectors, shrunk by `shrink` (drawn from
    [0.6, 0.95] if not given), with the Gram-inverse dual."""
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if shrink is None:
        shrink = rng.uniform(0.6, 0.95)
    bloch = shrink * TETRAHEDRON @ rot.T
    paulis = np.array([PAULI_X, PAULI_Y, PAULI_Z])
    ops = np.array([(np.eye(2) + np.einsum("k,kab->ab", b, paulis)) / 4
                    for b in bloch])
    gram = np.einsum("jab,kba->jk", ops, ops).real
    frame = Frame(name="custom-tetra", d=2, labels=(0, 1, 2, 3), ops=ops,
                  kind="custom")
    dual = DualFrame(name="custom-tetra",
                     ops=np.einsum("jk,kab->jab", np.linalg.inv(gram), ops))
    return frame, dual


@pytest.fixture(scope="session")
def custom_tetra():
    """Builder of random minimal custom frame pairs, `custom_tetra_pair`."""
    return custom_tetra_pair
