"""What the benchmark measures: workloads, metrics, units and bounds.

`manifest()` is the single source for `BENCHMARK.json`; `run.py --report`
writes it from here, so the file and the harness cannot drift apart.
"""

from __future__ import annotations

RUN_SECONDS = 25

WORKLOADS = (
    ("qubit-sweep",
     "n=4 dw and sic frames, a quarter of priors rank-deficient: matrix roots "
     "dominate and xi is free, so root and regularization changes show here"),
    ("dw3-product",
     "n=64 dw-qubits:3: the 134 MB xi tensor and x_matrix dominate op time, "
     "set-up and memory, so product-frame xi changes show here and roots do not"),
    ("cli-oneshot",
     "the README invocations plus seeded petz/compare/retro-graph runs as "
     "fresh processes: interpreter and import cost dominate, numerics barely show"),
)

# Workloads considered and left out, with the reason; printed by --report.
EXCLUDED = (
    ("verify --suite all in cli-oneshot",
     "about 4 s per call of seeded petz sweeps, which is qubit-sweep work "
     "under another name; the README's verify --suite counterexamples stands in"),
    ("dw-qubits:2 (n=16)",
     "exercises the same layers as dw3-product (xi build, x_matrix, eigh "
     "roots) at a size where none of them dominates"),
)

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    # the complement of the failure ratio: a metric that reads 0 on a
    # healthy workload cannot carry a relative bound
    ("success_ratio", "ratio", "higher", 0.01),
)

# Functions timed in the traced run, named after the module that defines
# them.  Each is wrapped at every qbret module attribute bound to it.
TRACED = (
    "frames.structure_coeffs",
    "qprcore.channel_to_qpr",
    "qprcore.x_matrix",
    "qprcore.petz_qpr",
    "matcore.principal_power",
    "matcore.psd_sqrt",
    "hilbert.petz_hilbert",
)

CLI_COMMANDS = ("frame", "repr", "petz", "compare", "verify", "graph")


def _per_layer() -> tuple:
    out = []
    for fn in TRACED:
        out += [(f"{fn}.busy_s", "s", "lower"),
                (f"{fn}.self_s", "s", "lower"),
                (f"{fn}.calls", "count", "lower")]
    out += [
        ("frames.xi_bytes", "B", "lower"),
        ("qprcore.x_matrix.bytes_computed", "B", "lower"),
        ("qprcore.petz_qpr.regularized_share", "ratio", "lower"),
        ("matcore.principal_power.calls_per_op", "count", "lower"),
        ("matcore.principal_power.nonsym_share", "ratio", "lower"),
        ("oracle.dev_max", "1", "lower"),
        ("oracle.dev_over_gate_max", "ratio", "lower"),
        ("cli.interpreter_s", "s", "lower"),
        ("cli.import_s", "s", "lower"),
    ]
    out += [(f"cli.wall.{cmd}_s", "s", "lower") for cmd in CLI_COMMANDS]
    out += [("trace.ops", "count", "higher"),
            ("trace.overhead_ratio", "ratio", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
