"""Per-layer timings of one recovery, at n = 4 (dw and sic), 16 and 64.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest bench -q \\
        --benchmark-json BENCH_$(git rev-parse --short HEAD).json

Each layer runs alone, on inputs built outside the timed call: a cold
`structure_coeffs` (factor tensors and Gram roots) of a frame pair built
afresh for every round, the morphism of the channel (`channel_to_qpr`),
the morphism of the oracle back into the frame, `x_matrix` of the prior
root and the posterior inverse root, `state_powers` of the prior and its
posterior, the whole `petz_qpr` and the Hilbert-space oracle
`petz_hilbert`.  Every frame takes
one seeded case: a full-rank prior through a Haar 2d x 2d dilation with
ancilla diag(0.7, 0.3).  `petz_qpr` also takes a regularized case: a pure
prior through a Haar d x d unitary, whose posterior is pure.  The tier-1
run does not collect this directory (`testpaths`); `--benchmark-disable`
runs each layer once, as a smoke test.
"""

from __future__ import annotations

import numpy as np
import pytest

from qbret.frames import (
    build_dw_qubit,
    build_dw_qubits,
    build_sic_qubit,
    builtin_frame,
    structure_coeffs,
)
from qbret.hilbert import (
    KrausChannel,
    channel_from_dilation,
    petz_hilbert,
    projector,
    random_density,
    random_unitary,
)
from qbret.matcore import ORACLE_TOL, ROOT_AND_INVERSE, max_abs
from qbret.qprcore import (
    QPR_EPS_FLOOR,
    channel_to_qpr,
    petz_qpr,
    state_powers,
    state_to_qpr,
    x_matrix,
)

FRAMES = {
    "dw-4": build_dw_qubit,
    "sic-4": build_sic_qubit,
    "dw-16": lambda: build_dw_qubits(2),
    "dw-64": lambda: build_dw_qubits(3),
}


class Case:
    """A frame pair, its coefficients, a channel and a prior, with the
    quasiprobability data every layer takes as input."""

    def __init__(self, name: str):
        self.frame, self.dual = FRAMES[name]()
        self.coeffs = structure_coeffs(self.frame, self.dual)
        d = self.frame.d
        rng = np.random.default_rng(0)
        self.channel = channel_from_dilation(random_unitary(rng, 2 * d),
                                             np.diag([0.7, 0.3]))
        self.prior = random_density(rng, d, min_eig=0.01)
        self.s = channel_to_qpr(self.channel, self.frame, self.dual)
        self.v = state_to_qpr(self.prior, self.frame)
        self.stack = np.array([self.v, self.s @ self.v])
        self.roots = state_powers(self.stack, ROOT_AND_INVERSE, self.coeffs)[0]
        self.oracle = petz_hilbert(self.channel, self.prior)
        pure = projector(random_unitary(rng, d)[:, 0])
        unitary = KrausChannel.from_unitary(random_unitary(rng, d))
        self.pure_s = channel_to_qpr(unitary, self.frame, self.dual)
        self.pure_v = state_to_qpr(pure, self.frame)
        self.pure_oracle = petz_hilbert(unitary, pure, eps=QPR_EPS_FLOOR)


@pytest.fixture(scope="module", params=list(FRAMES))
def case(request):
    return Case(request.param)


def test_structure_coeffs_cold(benchmark, case):
    # a fresh pair every round, built untimed, so the per-pair cache is empty
    coeffs = benchmark.pedantic(
        structure_coeffs, setup=lambda: (builtin_frame(case.frame.name), {}),
        rounds=100, warmup_rounds=1)
    assert coeffs.n == case.frame.n and coeffs is not case.coeffs


def test_channel_to_qpr(benchmark, case):
    s = benchmark(channel_to_qpr, case.channel, case.frame, case.dual)
    assert s.shape == (case.frame.n,) * 2


def test_oracle_morph(benchmark, case):
    m = benchmark(channel_to_qpr, case.oracle, case.frame, case.dual)
    assert m.shape == (case.frame.n,) * 2


def test_x_matrix(benchmark, case):
    x = benchmark(x_matrix, case.roots, case.coeffs)
    assert x.shape == (2,) + (case.frame.n,) * 2


def test_state_powers(benchmark, case):
    rows, deficient, _ = benchmark(state_powers, case.stack, ROOT_AND_INVERSE,
                                   case.coeffs)
    assert rows.shape == case.stack.shape and deficient == [False, False]


def test_petz_qpr(benchmark, case):
    result = benchmark(petz_qpr, case.s, case.v, case.coeffs)
    assert result.eps_used == 0.0
    oracle = channel_to_qpr(case.oracle, case.frame, case.dual)
    assert max_abs(result.matrix - oracle) <= ORACLE_TOL


def test_petz_qpr_regularized(benchmark, case):
    result = benchmark(petz_qpr, case.pure_s, case.pure_v, case.coeffs)
    assert result.eps_used == QPR_EPS_FLOOR
    oracle = channel_to_qpr(case.pure_oracle, case.frame, case.dual)
    assert max_abs(result.matrix - oracle) <= ORACLE_TOL


def test_petz_hilbert(benchmark, case):
    recovery = benchmark(petz_hilbert, case.channel, case.prior)
    assert recovery.eps_used == 0.0
