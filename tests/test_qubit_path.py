"""The qubit recovery path through its public entry points.

Every check between a qubit state, channel and frame and the oracle-checked
recovery raises its typed error on one violating input, fed to
`channel_to_qpr`, `petz_qpr` or `petz_hilbert` on the dw-qubit and the
sic-qubit frame.  One recovery with its oracle check, the operation the
qubit-sweep benchmark times, also keeps to a budget of qbret's own Python
calls.
"""

import dataclasses
import os
import sys

import numpy as np
import pytest

import qbret
from qbret import errors
from qbret.frames import build_dw_qubit, build_sic_qubit, structure_coeffs
from qbret.hilbert import (
    KrausChannel,
    channel_from_dilation,
    petz_hilbert,
    projector,
    random_density,
    random_unitary,
)
from qbret.matcore import ORACLE_TOL, max_abs
from qbret.qprcore import channel_to_qpr, petz_qpr, state_to_qpr

FRAMES = {"dw-qubit": build_dw_qubit, "sic-qubit": build_sic_qubit}


def _case(name: str, regularized: bool = False):
    """(frame, dual, coefficients, channel, prior) as the qubit-sweep
    benchmark draws them: a full-rank prior through a Haar 4x4 dilation
    with a random ancilla, or a pure prior through a Haar unitary, whose
    posterior is pure, so that the recovery is regularized."""
    frame, dual = FRAMES[name]()
    rng = np.random.default_rng(3)
    if regularized:
        channel = KrausChannel.from_unitary(random_unitary(rng, 2))
        prior = projector(random_unitary(rng, 2)[:, 0])
    else:
        channel = channel_from_dilation(random_unitary(rng, 4),
                                        random_density(rng, 2))
        prior = random_density(rng, 2, min_eig=0.05)
    return frame, dual, structure_coeffs(frame, dual), channel, prior


def _recover_and_check(frame, dual, channel, prior):
    """The benchmark's operation: morph the prior and the channel, recover,
    build the oracle, morph it back and take the deviation."""
    coeffs = structure_coeffs(frame, dual)
    v = state_to_qpr(prior, frame)
    s = channel_to_qpr(channel, frame, dual)
    result = petz_qpr(s, v, coeffs, kind=frame.kind, eps=1e-8)
    oracle = petz_hilbert(channel, prior, eps=result.eps_used or 1e-8)
    return result, max_abs(result.matrix - channel_to_qpr(oracle, frame, dual))


@pytest.mark.parametrize("name", FRAMES)
class TestChecksOnTheQubitPath:
    def test_nonsymmetric_state_matrix(self, name):
        # one entry of every L(G_x) moves, so no state matrix is symmetric
        frame, dual, coeffs, channel, prior = _case(name)
        eta = coeffs.factors[0].copy()
        eta[:, 0, 1] += 1e-3
        bent = dataclasses.replace(coeffs, factors=(eta,))
        s, v = channel_to_qpr(channel, frame, dual), state_to_qpr(prior, frame)
        with pytest.raises(errors.NotHermitian):
            petz_qpr(s, v, bent)

    def test_nan_prior_vector(self, name):
        frame, dual, coeffs, channel, prior = _case(name)
        v = state_to_qpr(prior, frame)
        v[1] = np.nan
        with pytest.raises(errors.NotHermitian):
            petz_qpr(channel_to_qpr(channel, frame, dual), v, coeffs)

    def test_spectrum_below_tolerance(self, name):
        # unit trace, eigenvalues 1.15 and -0.15
        frame, dual, coeffs, channel, prior = _case(name, regularized=True)
        bad = 1.3 * prior - 0.15 * np.eye(2)
        with pytest.raises(errors.NotPSD):
            petz_qpr(channel_to_qpr(channel, frame, dual),
                     state_to_qpr(bad, frame), coeffs)
        with pytest.raises(errors.NotPSD, match="negative eigenvalue"):
            petz_hilbert(channel, bad)

    def test_reconstruction_residual_over_its_bound(self, name, monkeypatch):
        # eigenvalues off by 1e-6 leave a residual 1e4 times the bound
        frame, dual, coeffs, channel, prior = _case(name)
        s, v = channel_to_qpr(channel, frame, dual), state_to_qpr(prior, frame)
        eigh = np.linalg.eigh

        def shifted(h):
            w, vectors = eigh(h)
            return w + 1e-6, vectors
        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(errors.NoConvergence):
            petz_qpr(s, v, coeffs)
        with pytest.raises(errors.NoConvergence):
            petz_hilbert(channel, prior)

    def test_channel_images_of_the_wrong_shape(self, name):
        frame, dual = FRAMES[name]()
        with pytest.raises(errors.DimensionMismatch):
            channel_to_qpr(lambda ops: ops[:, :1], frame, dual)
        # a channel or recovery map of another dimension refuses the stack
        wide = channel_from_dilation(random_unitary(np.random.default_rng(4), 8),
                                     random_density(np.random.default_rng(5), 2))
        for other in (wide, petz_hilbert(wide, np.eye(4) / 4)):
            with pytest.raises(errors.DimensionMismatch):
                channel_to_qpr(other, frame, dual)

    def test_kind_contradicting_the_coefficients(self, name):
        frame, dual, coeffs, channel, prior = _case(name)
        s, v = channel_to_qpr(channel, frame, dual), state_to_qpr(prior, frame)
        for kind in [k for k in ("nq", "sp", "custom") if k != frame.kind]:
            with pytest.raises(errors.RepMismatch, match="contradicts"):
                petz_qpr(s, v, coeffs, kind=kind)

    @pytest.mark.parametrize("eps", [-1e-3, 1.5, np.nan])
    def test_eps_outside_the_unit_interval(self, name, eps):
        frame, dual, coeffs, channel, prior = _case(name, regularized=True)
        s, v = channel_to_qpr(channel, frame, dual), state_to_qpr(prior, frame)
        with pytest.raises(ValueError, match="not in"):
            petz_qpr(s, v, coeffs, eps=eps)


@pytest.mark.parametrize("prior, error", [
    (np.array([[0.5, 0.1], [0.0, 0.5]]), errors.NotHermitian),
    (np.diag([0.6, 0.5]), errors.NotPSD)], ids=["non-hermitian", "trace"])
def test_hilbert_prior_that_is_not_a_state(prior, error):
    _, _, _, channel, _ = _case("dw-qubit")
    with pytest.raises(error):
        petz_hilbert(channel, prior)


def _qbret_calls(operation) -> int:
    """The Python calls into qbret's own modules while `operation` runs:
    profile "call" events whose code lies in the package directory, less
    comprehensions and generator expressions (names starting with "<"),
    which Python 3.12 inlines and earlier versions call."""
    root = os.path.dirname(os.path.abspath(qbret.__file__)) + os.sep
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(root)
                and not code.co_name.startswith("<")):
            count += 1
    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return count


# qbret's own Python calls in one recovery and its oracle check, as
# measured when the budget was set; the code before it made 58, 59, 89 and 90.
# sic-qubit's adjoint is the Gram rule, as dw-qubit's is the transpose: no
# extra call for a K row
CALL_BUDGET = {("dw-qubit", False): 50, ("sic-qubit", False): 50,
               ("dw-qubit", True): 75, ("sic-qubit", True): 75}


@pytest.mark.parametrize("name, regularized", CALL_BUDGET,
                         ids=[f"{n}-{'regularized' if r else 'full-rank'}"
                              for n, r in CALL_BUDGET])
def test_recovery_and_oracle_check_keep_to_the_call_budget(name, regularized):
    frame, dual, _, channel, prior = _case(name, regularized)
    # the first run fills the channel's cached superoperator
    result, deviation = _recover_and_check(frame, dual, channel, prior)
    assert (result.eps_used > 0.0) == regularized
    assert deviation <= (1e-5 if regularized else ORACLE_TOL)
    calls = _qbret_calls(lambda: _recover_and_check(frame, dual, channel, prior))
    budget = CALL_BUDGET[name, regularized]
    assert calls <= budget, (
        f"one {name} recovery and its oracle check made {calls} calls into "
        f"qbret, over its budget of {budget}.  A change that needs them "
        "should say why in CHANGES.md, measure qubit-sweep before and after, "
        "and raise CALL_BUDGET to the new count")
