"""One in-process workload in a fresh interpreter (qubit-sweep, dw3-product).

Protocol with run.py: after set-up (import qbret, build the frame pairs,
first structure_coeffs) the worker prints `ready` and flushes, so the
parent can time a fresh process to ready.  With --probe it exits there.
Otherwise it generates its inputs, warms up, measures, and prints one JSON
object as its last line.

An operation mirrors `qbret petz`: morph the channel and the prior, run
petz_qpr(eps=1e-8), build the Hilbert-space oracle with petz_hilbert and
morph it back, and hold the deviation to the CLI's gate (ORACLE_TOL when
no regularization was needed, else 1e-5).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import qbret
from qbret import frames as fr, hilbert as hb, qprcore as qp
from qbret.matcore import ORACLE_TOL, max_abs

import tracer as tr

REGULARIZED_GATE = 1e-5
FRAMES = {
    "qubit-sweep": {"dw-qubit": fr.build_dw_qubit, "sic-qubit": fr.build_sic_qubit},
    "dw3-product": {"dw-qubits:3": lambda: fr.build_dw_qubits(3)},
}


def set_up(workload: str) -> dict:
    pairs = {}
    for kind, build in FRAMES[workload].items():
        frame, dual = build()
        fr.structure_coeffs(frame, dual)
        pairs[kind] = (frame, dual)
    return pairs


def operation(case) -> tuple[float, float]:
    """Return (oracle deviation, gate); raises QbretError on failure."""
    _kind, frame, dual, channel, prior = case
    xi = fr.structure_coeffs(frame, dual)
    v_prior = qp.state_to_qpr(prior, frame)
    s = qp.channel_to_qpr(channel, frame, dual)
    result = qp.petz_qpr(s, v_prior, xi, kind=frame.kind, eps=1e-8)
    oracle = hb.petz_hilbert(channel, prior, eps=result.eps_used or 1e-8)
    deviation = max_abs(result.matrix - qp.channel_to_qpr(oracle, frame, dual))
    return deviation, ORACLE_TOL if result.eps_used == 0.0 else REGULARIZED_GATE


class Run:
    """Outcome of a sequence of operations: latencies and failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.dev_max = 0.0
        self.dev_over_gate_max = 0.0

    def do(self, index: int, case) -> None:
        t0 = time.perf_counter()
        try:
            deviation, gate = operation(case)
        except qbret.QbretError as exc:
            deviation, gate = None, None
            reason = f"{type(exc).__name__}: {exc}"
        self.latencies.append(time.perf_counter() - t0)
        if deviation is None:
            self.failures.append(f"case {index} ({case[0]}): {reason}")
            return
        self.dev_max = max(self.dev_max, deviation)
        self.dev_over_gate_max = max(self.dev_over_gate_max, deviation / gate)
        if deviation > gate:
            self.failures.append(f"case {index} ({case[0]}): oracle deviation "
                                 f"{deviation:.3e} over gate {gate:.1e}")

    def pass_over(self, cases) -> float:
        t0 = time.perf_counter()
        for i, case in enumerate(cases):
            self.do(i, case)
        return time.perf_counter() - t0


def measure(cases, seconds: float) -> dict:
    """Closed loop, one client: cycle through the cases until `seconds` pass."""
    run = Run()
    t0 = time.perf_counter()
    i = 0
    while time.perf_counter() - t0 < seconds:
        run.do(i % len(cases), cases[i % len(cases)])
        i += 1
    elapsed = time.perf_counter() - t0
    return {"attempted": len(run.latencies), "failures": run.failures,
            "elapsed_s": elapsed, "latencies_s": run.latencies, "cases": len(cases),
            "dev_max": run.dev_max, "dev_over_gate_max": run.dev_over_gate_max}


def measure_traced(cases, seconds: float, tracer: tr.Tracer) -> dict:
    """Untraced passes for half the time, then one traced pass over the case
    list, so the counts repeat exactly for a seed.  The tracer already holds
    the set-up spans."""
    untraced = Run()
    walls = [untraced.pass_over(cases)]
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds / 2:
        walls.append(untraced.pass_over(cases))
    traced = Run()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, case in enumerate(cases):
            tracer.op = i
            traced.do(i, case)
        t_traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tr.summarize(tracer.spans, len(cases))
    metrics["oracle.dev_max"] = max(untraced.dev_max, traced.dev_max)
    metrics["oracle.dev_over_gate_max"] = max(untraced.dev_over_gate_max,
                                              traced.dev_over_gate_max)
    metrics["trace.ops"] = len(cases)
    metrics["trace.overhead_ratio"] = t_traced / statistics.median(walls)
    return {"attempted": len(untraced.latencies) + len(traced.latencies),
            "failures": untraced.failures + traced.failures,
            "per_layer": metrics}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(FRAMES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="exit once set-up is done")
    p.add_argument("--spans", help="file to write the traced spans to")
    args = p.parse_args()

    tracer = None
    if args.trace:
        tracer = tr.Tracer()
        tracer.op = "setup"
        tracer.install()
    pairs = set_up(args.workload)
    if tracer:
        tracer.uninstall()
    print("ready", flush=True)
    if args.probe:
        return 0

    import numpy as np
    import inputs
    rng = np.random.default_rng(args.seed)
    generate = {"qubit-sweep": inputs.qubit_sweep, "dw3-product": inputs.dw3_product}
    cases = generate[args.workload](rng, pairs)
    warm = Run()
    warm.pass_over(cases[:8])  # lazy imports and first-call costs

    if tracer:
        out = measure_traced(cases, args.seconds, tracer)
        if args.spans:
            tracer.dump(args.spans)
    else:
        out = measure(cases, args.seconds)
    out["failures"] = warm.failures + out["failures"]
    out["attempted"] += len(warm.latencies)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["qbret_file"] = os.path.abspath(qbret.__file__)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
