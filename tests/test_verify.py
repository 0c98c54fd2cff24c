"""The inventory of `qbret verify`, and its sweeps at a frame's own d.

The inventory is a literal table: each suite's checks, in order, with the
tolerance each is held to, at two seeds.  A change to the suites cannot
drop, rename or loosen a check without changing this table.
"""

import pytest

from qbret import verify as vf
from qbret.verify import SUITES, run_suites

INVENTORY = {
    "frames": [
        ("frame-invariants-dw-qubit", 1e-12),
        ("frame-invariants-sic-qubit", 1e-12),
        ("frame-invariants-dw-qubits:2", 1e-12),
        ("frame-invariants-sic-qubits:2", 1e-12),
        ("classical-coeffs-are-deltas", 0.0),
        ("coeff-sum-consistency-dw", 1e-10),
        ("coeff-sum-consistency-sp", 1e-10),
    ],
    "mmatrix": [
        ("m-entries-real-dw", 1e-10),
        ("m-spectrum-nonneg-dw", 1e-09),
        ("m-unit-trace-dw", 1e-10),
        ("m-symmetric-nqpr", 1e-10),
        ("m-entries-real-sp", 1e-10),
        ("m-spectrum-nonneg-sp", 1e-09),
        ("m-unit-trace-sp", 1e-10),
        ("k-vanishes-unital", 1e-12),
        ("k-half-swap-row", 1e-12),
        ("adjoint-rule-sp", 1e-12),
    ],
    "powers": [
        ("power-identity-dw-r=2", 1e-08),
        ("power-identity-dw-r=0.5", 1e-08),
        ("power-identity-dw-r=-0.5", 1e-08),
        ("power-identity-dw-r=-1", 1e-08),
        ("trace-of-root-dw", 1e-12),
        ("power-identity-sp-r=2", 1e-08),
        ("power-identity-sp-r=0.5", 1e-08),
        ("power-identity-sp-r=-0.5", 1e-08),
        ("power-identity-sp-r=-1", 1e-08),
        ("trace-of-root-sp", 1e-12),
        ("power-identity-dw-qubits:2-r=2", 1e-08),
        ("power-identity-dw-qubits:2-r=0.5", 1e-08),
        ("power-identity-dw-qubits:2-r=-0.5", 1e-08),
        ("power-identity-dw-qubits:2-r=-1", 1e-08),
        ("trace-of-root-dw-qubits:2", 1e-12),
        ("power-identity-sic-qubits:2-r=2", 1e-08),
        ("power-identity-sic-qubits:2-r=0.5", 1e-08),
        ("power-identity-sic-qubits:2-r=-0.5", 1e-08),
        ("power-identity-sic-qubits:2-r=-1", 1e-08),
        ("trace-of-root-sic-qubits:2", 1e-12),
    ],
    "commute": [
        ("petz-commutes-dw", 1e-09),
        ("unitary-retrodiction-dw", 1e-09),
        ("erasure-retrodiction-dw", 1e-09),
        ("prior-fixed-point-dw", 1e-10),
        ("column-stochastic-dw", 1e-10),
        ("born-preservation-dw", 1e-12),
        ("petz-commutes-sp", 1e-09),
        ("unitary-retrodiction-sp", 1e-09),
        ("erasure-retrodiction-sp", 1e-09),
        ("prior-fixed-point-sp", 1e-10),
        ("column-stochastic-sp", 1e-10),
        ("born-preservation-sp", 1e-12),
        ("involutivity-dw", 1e-10),
        ("compositionality-dw", 1e-10),
        ("involutivity-sp", 1e-10),
        ("compositionality-sp", 1e-10),
        ("involutivity-dw-qubits:2", 1e-10),
        ("compositionality-dw-qubits:2", 1e-10),
        ("involutivity-sic-qubits:2", 1e-10),
        ("compositionality-sic-qubits:2", 1e-10),
        ("tensor-product-dw-qubits:2", 1e-10),
        ("tensor-product-sic-qubits:2", 1e-10),
    ],
    "classical": [
        ("classical-reduction-diagonal", 1e-08),
        ("pipeline-agreement", 1e-13),
        ("permutation-transpose", 1e-14),
        ("classical-prior-fixed-point", 1e-14),
        ("classical-column-stochastic", 1e-14),
        ("binary-symmetric-self-inverse", 1e-15),
    ],
    "counterexamples": [
        ("half-swap-recovery-dw", 1e-10),
        ("half-swap-classical-dw", 1e-12),
        ("half-swap-recovery-sp", 1e-10),
        ("half-swap-classical-sp", 0.0005),
        ("hadamard-matrix-dw", 1e-14),
        ("u_eg-matrix-dw", 1e-13),
        ("hadamard-matrix-sp", 1e-14),
        ("u_eg-matrix-sp", 1e-13),
        ("born-violation-dw", 1e-12),
        ("born-violation-sp", 1e-12),
    ],
}


def test_inventory_covers_every_suite():
    assert tuple(INVENTORY) == SUITES


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("suite", SUITES)
def test_inventory(suite, seed):
    assert [(r.name, r.tol) for r in run_suites([suite], seed)] == INVENTORY[suite]


@pytest.mark.parametrize("suite, table", [(vf.suite_mmatrix, "_QUBITS"),
                                          (vf.suite_powers, "_SWEPT")])
def test_sweeps_draw_at_the_frame_d(suite, table, monkeypatch):
    # on a d = 4 frame alone, a state drawn at d = 2 would raise
    # DimensionMismatch in state_to_qpr; the qubit closed forms stay put
    monkeypatch.setattr(vf, table, (("dw2", "dw-qubits:2"),))
    results = suite(3)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert sum("-dw2" in r.name for r in results) == {
        vf.suite_mmatrix: 3, vf.suite_powers: 5}[suite]
