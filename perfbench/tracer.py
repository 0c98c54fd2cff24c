"""In-memory span recorder that wraps qbret functions from outside.

A traced function is wrapped at every attribute of every loaded qbret
module that is bound to it, because modules such as `qprcore` import
`principal_power` by name: patching `matcore` alone would miss those calls.
Spans are (name, start, end, parent, op, tag) tuples kept in a list and
written out once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from spec import TRACED


def _principal_power_tag(args, kwargs, _result):
    # mirrors the symmetry test principal_power uses to pick eigh over the
    # Schur route (default tolerance 1e-10)
    m = np.asarray(args[0], dtype=float)
    tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-10)
    scale = max(float(np.abs(m).max()), 1.0)
    return "eigh" if float(np.abs(m - m.T).max()) <= tol * scale else "schur"


def _petz_qpr_tag(_args, _kwargs, result):
    return "regularized" if result.eps_used > 0.0 else "full-rank"


def _x_matrix_tag(args, _kwargs, _result):
    return str(len(args[0]))


def _structure_coeffs_tag(args, _kwargs, _result):
    return f"{args[0].n} {args[0].name}"


_TAGGERS = {
    "matcore.principal_power": _principal_power_tag,
    "qprcore.petz_qpr": _petz_qpr_tag,
    "qprcore.x_matrix": _x_matrix_tag,
    "frames.structure_coeffs": _structure_coeffs_tag,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list = []

    def span(self, name: str, fn, tagger=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result, t0 = None, time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tag = tagger(args, kwargs, result) if tagger and result is not None else None
                spans[idx] = (name, t0, t1, parent, self.op, tag)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a qbret module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "qbret" or k.startswith("qbret."))]
        for name in TRACED:
            mod_name, attr = name.split(".")
            original = getattr(sys.modules[f"qbret.{mod_name}"], attr)
            wrapper = self.span(name, original, _TAGGERS.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([list(s) for s in self.spans], fh)


def summarize(spans: list, ops: int) -> dict:
    """Per-function busy (inclusive) and self time, calls, tag shares and
    the computed byte counts.

    Self time is a span's duration minus the time its direct children
    cover; spans of one process nest strictly, so children never overlap.
    `frames.xi_bytes` is the most structure-coefficient tensor bytes any one
    operation (or the set-up) asked for; `x_matrix.bytes_computed` counts
    n^4 float64 reads of the tensor per x_matrix call.  Both are computed
    from sizes, not measured.
    """
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _op, _tag in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, _parent, _op, tag) in enumerate(spans):
        rec = out.setdefault(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0,
                                    "tags": {}})
        rec["busy_s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - child_time[i]
        rec["calls"] += 1
        if tag is not None:
            rec["tags"][tag] = rec["tags"].get(tag, 0) + 1
    metrics = {}
    for name in TRACED:
        rec = out.get(name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0, "tags": {}})
        metrics[f"{name}.busy_s"] = rec["busy_s"]
        metrics[f"{name}.self_s"] = rec["self_s"]
        metrics[f"{name}.calls"] = rec["calls"]
    pp = out.get("matcore.principal_power", {"calls": 0, "tags": {}})
    pq = out.get("qprcore.petz_qpr", {"calls": 0, "tags": {}})
    metrics["matcore.principal_power.calls_per_op"] = pp["calls"] / ops if ops else 0.0
    metrics["matcore.principal_power.nonsym_share"] = (
        pp["tags"].get("schur", 0) / pp["calls"] if pp["calls"] else 0.0)
    metrics["qprcore.petz_qpr.regularized_share"] = (
        pq["tags"].get("regularized", 0) / pq["calls"] if pq["calls"] else 0.0)
    xi_per_op: dict = {}
    for name, _t0, _t1, _parent, op, tag in spans:
        if name == "frames.structure_coeffs" and tag is not None:
            xi_per_op.setdefault(op, set()).add(tag)
    metrics["frames.xi_bytes"] = max(
        (sum(int(t.split(" ", 1)[0]) ** 4 * 8 for t in tags)
         for tags in xi_per_op.values()), default=0)
    xm = out.get("qprcore.x_matrix", {"tags": {}})
    metrics["qprcore.x_matrix.bytes_computed"] = sum(
        int(n) ** 4 * 8 * count for n, count in xm["tags"].items())
    return metrics
