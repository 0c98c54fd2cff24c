"""Seeded inputs for every workload; the same seed gives the same inputs.

Random states and unitaries come from the benchmark's own generator, so a
change to qbret's helpers cannot change what is measured.  Channels are
then built through the public API (`channel_from_dilation`), outside any
timed region.
"""

from __future__ import annotations

import json
import os

import numpy as np

QUBIT_CASES = 96     # a multiple of 8: whole blocks of the case pattern
DW3_CASES = 16


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r))).conj()


def full_rank_density(rng: np.random.Generator, d: int, floor: float) -> np.ndarray:
    """Ginibre density operator mixed with the identity so that every
    eigenvalue is at least `floor`."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (1 - d * floor) * rho + floor * np.eye(d)


def qubit_sweep(rng: np.random.Generator, pairs: dict) -> list:
    """Cases alternate dw-qubit / sic-qubit.  In every block of eight the
    last two (one per frame) take a pure prior through a Haar unitary, so
    the posterior is rank-deficient and petz_qpr regularizes; the rest take
    a full-rank prior through a Haar 4x4 dilation with a random ancilla."""
    from qbret import KrausChannel, channel_from_dilation
    cases = []
    for i in range(QUBIT_CASES):
        kind = ("dw-qubit", "sic-qubit")[i % 2]
        if i % 8 >= 6:
            psi = haar_unitary(rng, 2)[:, 0]
            prior = np.outer(psi, psi.conj())
            channel = KrausChannel.from_unitary(haar_unitary(rng, 2))
        else:
            prior = full_rank_density(rng, 2, 0.05)
            channel = channel_from_dilation(haar_unitary(rng, 4),
                                            full_rank_density(rng, 2, 0.0))
        cases.append((kind, *pairs[kind], channel, prior))
    return cases


def dw3_product(rng: np.random.Generator, pairs: dict) -> list:
    """Full-rank 8x8 priors through Haar 16x16 dilations (one ancilla qubit)."""
    from qbret import channel_from_dilation
    frame, dual = pairs["dw-qubits:3"]
    return [("dw-qubits:3", frame, dual,
             channel_from_dilation(haar_unitary(rng, 16),
                                   full_rank_density(rng, 2, 0.0)),
             full_rank_density(rng, 8, 0.01))
            for _ in range(DW3_CASES)]


# --- cli-oneshot ------------------------------------------------------------

_HALF_SWAP = ["--builtin", "half_swap", "--ancilla", "1", "--kind", "dw-qubit"]
_README_ANGLES = ["--angles", "1.5707963,1.5707963,0"]
# what the output checks need to rebuild the oracle of a README recovery
_README_RECOVERY = {"builtin": "half_swap", "kind": "dw-qubit",
                    "angles": _README_ANGLES[1]}

# The README's command-line examples, argument for argument, as (name, argv,
# oracle inputs).  The petz line is kept although its near-pure prior fails
# the 1e-8 oracle gate: that is a known defect the benchmark must count,
# not hide.
README = (
    ("readme-frame-dw", ["frame", "--kind", "dw-qubit", "--out", "frame.json"], {}),
    ("readme-frame-sic", ["frame", "--kind", "sic-qubit", "--out", "sic.json"], {}),
    ("readme-frame-dw2", ["frame", "--kind", "dw-qubits:2",
                          "--out", "two_qubits.json"], {}),
    ("readme-frame-custom", ["frame", "--frame", "my_custom_frame.json",
                             "--out", "validated.json"], {}),
    ("readme-repr-hadamard", ["repr", "--builtin", "hadamard", "--kind", "dw-qubit",
                              "--out", "S_H.json"], {}),
    ("readme-repr-half-swap", ["repr", *_HALF_SWAP, "--out", "S.json"], {}),
    ("readme-repr-state", ["repr", *_README_ANGLES, "--kind", "dw-qubit",
                           "--out", "v_plus.json"], {}),
    ("readme-petz", ["petz", *_HALF_SWAP, *_README_ANGLES, "--out", "S_hat.json"],
     _README_RECOVERY),
    ("readme-compare", ["compare", *_HALF_SWAP, *_README_ANGLES,
                        "--out", "report.json"], _README_RECOVERY),
    ("readme-verify-counterexamples", ["verify", "--suite", "counterexamples",
                                       "--format", "json", "--out", "report.json"], {}),
    ("readme-graph-forward", ["graph", *_HALF_SWAP, "--direction", "forward",
                              "--format", "svg", "--out", "forward.svg"], {}),
    ("readme-graph-retro", ["graph", *_HALF_SWAP, *_README_ANGLES,
                            "--direction", "retro", "--out", "retro.dot"],
     _README_RECOVERY),
)


def _complex_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def custom_frame_doc(rng: np.random.Generator) -> dict:
    """A minimal qubit frame of neither built-in family: a randomly rotated,
    shrunk tetrahedron of Bloch vectors, with the Gram-inverse dual."""
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    tetra = np.array([(1, -1, 1), (1, 1, -1), (-1, 1, 1), (-1, -1, -1)]) / np.sqrt(3)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    bloch = rng.uniform(0.6, 0.95) * tetra @ rot.T
    f = np.array([(np.eye(2) + np.einsum("k,kab->ab", b, paulis)) / 4 for b in bloch])
    gram = np.einsum("jab,kba->jk", f, f).real
    g = np.einsum("jk,kab->jab", np.linalg.inv(gram), f)
    return {"d": 2, "kind": "custom", "name": "custom-tetra",
            "labels": [0, 1, 2, 3],
            "F": [_complex_matrix(m) for m in f],
            "G": [_complex_matrix(m) for m in g]}


def _angles(rng: np.random.Generator) -> str:
    # omega away from 0 and pi/2 keeps both prior eigenvalues above ~0.09
    w = rng.uniform(0.3, 1.25)
    t = rng.uniform(0.0, np.pi)
    p = rng.uniform(0.0, 2 * np.pi)
    return f"{w!r},{t!r},{p!r}"


def cli_oneshot(rng: np.random.Generator, workdir: str) -> list:
    """Write the input files into `workdir` and return (name, argv, inputs)
    triples; `inputs` lets the checker rebuild the oracle for the case."""
    with open(os.path.join(workdir, "my_custom_frame.json"), "w", encoding="utf-8") as fh:
        json.dump(custom_frame_doc(rng), fh)
    cases = list(README)
    for kind in ("dw-qubit", "sic-qubit"):
        for cmd in ("petz", "compare", "graph"):
            u = haar_unitary(rng, 4)
            beta = full_rank_density(rng, 2, 0.0)
            chan = f"chan-{kind}-{cmd}.json"
            with open(os.path.join(workdir, chan), "w", encoding="utf-8") as fh:
                json.dump({"kind": "dilation", "U": _complex_matrix(u),
                           "beta": _complex_matrix(beta)}, fh)
            angles = _angles(rng)
            out = f"out-{kind}-{cmd}." + ("dot" if cmd == "graph" else "json")
            argv = [cmd, "--channel", chan, "--kind", kind, "--angles", angles]
            if cmd == "graph":
                argv += ["--direction", "retro"]
            cases.append((f"seeded-{cmd}-{kind}", argv + ["--out", out],
                          {"u": u, "beta": beta, "angles": angles, "kind": kind}))
    return cases
