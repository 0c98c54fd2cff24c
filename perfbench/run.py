"""qbret benchmark: oracle-checked recovery throughput, latency, set-up and
memory on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Run from the root of a source checkout; the program is imported from its
`src/` directory, never from an installed copy.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it records the seed, the versions, the
BLAS build and thread count, the tail percentile and the failures.

--report runs every workload untraced and traced, prints every metric by
name with its unit, and writes BENCHMARK.json from perfbench/spec.py.

Every child process runs with one BLAS thread, so each workload is one
single-threaded process and the parent waits on it: nothing else competes
for the two cores of a small machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170.0
SETUP_SAMPLES = {"qubit-sweep": 9, "dw3-product": 5, "cli-oneshot": 9}
# cli-oneshot runs whole rounds of its case list, one per this many seconds
# asked for, so every run of a given length has the same case mix
CLI_ROUND_S = 8.0
BLAS_THREADS = "1"
T_BEGIN = time.monotonic()


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def remaining() -> float:
    """Seconds left before the run must give up; every wait is bounded by it."""
    return max(0.0, DEADLINE_S - (time.monotonic() - T_BEGIN))


def tail(samples: list) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it: the 11th
    largest sample, and the percentile it stands at.  Below 20 samples no
    such percentile lies above the median, and the median is reported."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def latency_metrics(latencies_s: list, cases: int, elapsed_s: float) -> tuple[dict, dict]:
    """Latency and throughput from the best of each case's repeats.

    The ops run the case list in order, again and again, so sample i is a
    repeat of case i % cases.  On a shared machine, other tenants slow
    whole stretches of a run by up to half, so each case is costed at the
    fastest of its repeats, as timeit does; the percentiles are then taken
    over cases and ops_per_s is cases over the summed best costs.  The raw
    figures over all samples are kept in the info line.
    """
    best = [min(latencies_s[i::cases]) for i in range(min(cases, len(latencies_s)))]
    value, pct = tail(best)
    metrics = {"ops_per_s": len(best) / sum(best),
               "latency_p50_ms": statistics.median(best) * 1e3,
               "latency_tail_ms": value * 1e3}
    raw_tail, raw_pct = tail(latencies_s)
    info = {"cases": len(best), "samples": len(latencies_s),
            "tail_percentile_over_cases": pct,
            "raw_ops_per_s": len(latencies_s) / elapsed_s,
            "raw_latency_p50_ms": statistics.median(latencies_s) * 1e3,
            "raw_latency_tail_ms": raw_tail * 1e3, "raw_tail_percentile": raw_pct}
    return metrics, info


# --- in-process workloads ----------------------------------------------------

def start_worker(workload: str, seed: int, seconds: float, trace: int,
                 extra: list) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its fresh-process-to-ready time."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), text=True)
    if not select.select([proc.stdout], [], [], remaining())[0]:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker set-up did not finish in time")
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _, err = finish(proc)
        raise BenchError(f"{workload} worker did not start: {err.strip()[-2000:]}")
    return proc, ready


def finish(proc: subprocess.Popen) -> tuple[str, str]:
    try:
        return proc.communicate(timeout=remaining())
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not finish in time")


def run_in_process(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES[workload] - 1):
            proc, ready = start_worker(workload, seed, seconds, 0, ["--probe"])
            finish(proc)
            if proc.returncode != 0:
                raise BenchError(f"{workload} set-up probe exited {proc.returncode}")
            setups.append(ready)
    extra = ["--spans", os.path.join(OUT, f"spans-{workload}-seed{seed}.json")] \
        if trace else []
    proc, ready = start_worker(workload, seed, seconds, trace, extra)
    setups.append(ready)
    out, err = finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    if not res["qbret_file"].startswith(SRC + os.sep):
        raise BenchError(f"imported qbret from {res['qbret_file']}, not {SRC}")
    result = {"attempted": res["attempted"], "failures": res["failures"], "info": {}}
    if trace:
        result["metrics"] = res["per_layer"]
        return result
    metrics, info = latency_metrics(res["latencies_s"], res["cases"], res["elapsed_s"])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    info.update(setup_samples_s=setups, oracle_dev_max=res["dev_max"])
    result.update(metrics=metrics, info=info)
    return result


# --- cli-oneshot -------------------------------------------------------------

def timed_process(argv: list, cwd: str | None = None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                              text=True, timeout=min(60.0, remaining()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:4]} timed out") from exc
    return time.perf_counter() - t0, done


def _out_path(argv: list) -> str:
    return argv[argv.index("--out") + 1]


def cli_round(cases: list, workdir: str, traced: bool, records: list) -> float:
    """One invocation per case, in order; returns the round's wall time."""
    t_round = time.perf_counter()
    for op, (name, argv, inputs) in enumerate(cases):
        out_file = os.path.join(workdir, _out_path(argv))
        if os.path.exists(out_file):
            os.remove(out_file)
        if traced:
            spans = os.path.join(workdir, f"spans-{op}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans, str(op),
                   "--", *argv]
        else:
            cmd = [sys.executable, "-m", "qbret.cli", *argv]
        wall, done = timed_process(cmd, workdir)
        text = None
        if os.path.exists(out_file):
            with open(out_file, encoding="utf-8") as fh:
                text = fh.read()
        records.append({"name": name, "argv": argv, "inputs": inputs, "wall": wall,
                        "rc": done.returncode, "stderr": done.stderr, "text": text})
    return time.perf_counter() - t_round


def check_records(records: list) -> tuple[list, float, float]:
    """Classify every invocation; returns (failures, the largest oracle
    deviation, the largest deviation over its gate)."""
    import check
    failures, devs = [], []
    for rec in records:
        reason, dev = None, None
        if rec["rc"] != 0:
            last = rec["stderr"].strip().splitlines()[-1:] or [""]
            reason = f"exit {rec['rc']}: {last[0]}"
        elif rec["text"] is None:
            reason = "no output file"
        else:
            try:
                dev = check.check(rec["argv"], rec["inputs"], rec["text"])
            except check.BadOutput as exc:
                reason, dev = str(exc), exc.deviation
            except (ValueError, KeyError, TypeError, IndexError,
                    check.ET.ParseError) as exc:
                reason = f"output does not parse: {type(exc).__name__}: {exc}"
            if dev is not None:
                devs.append(dev)
        if reason:
            failures.append(f"{rec['name']}: {reason}")
    return (failures, max((d for d, _ in devs), default=0.0),
            max((d / g for d, g in devs), default=0.0))


def probe_seconds(code: str, count: int) -> list:
    walls = []
    for _ in range(count):
        wall, done = timed_process([sys.executable, "-c", code])
        if done.returncode != 0:
            raise BenchError(f"python -c {code!r} failed: {done.stderr.strip()[-2000:]}")
        walls.append(wall)
    return walls


def run_cli(seed: int, seconds: float, trace: int) -> dict:
    import numpy as np
    import inputs
    workdir = os.path.join(OUT, f"cli-{os.getpid()}")
    os.makedirs(workdir)
    try:
        cases = inputs.cli_oneshot(np.random.default_rng(seed), workdir)
        if trace:
            return cli_traced(cases, workdir, seed)
        # a fresh `import qbret.cli` is the set-up every invocation pays
        setups = probe_seconds("import qbret.cli", SETUP_SAMPLES["cli-oneshot"])
        records: list = []
        t0 = time.perf_counter()
        for _ in range(max(1, int(seconds // CLI_ROUND_S))):
            cli_round(cases, workdir, False, records)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures, dev_max, _ = check_records(records)
    metrics, info = latency_metrics([r["wall"] for r in records], len(cases), elapsed)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    info.update(setup_samples_s=setups, rounds=len(records) // len(cases),
                oracle_dev_max=dev_max)
    return {"attempted": len(records), "failures": failures, "metrics": metrics,
            "info": info}


def cli_traced(cases: list, workdir: str, seed: int) -> dict:
    import tracer as tr
    count = SETUP_SAMPLES["cli-oneshot"]
    interp = statistics.median(probe_seconds("pass", count))
    imported = statistics.median(probe_seconds("import qbret.cli", count))
    plain: list = []
    t_plain = cli_round(cases, workdir, False, plain)
    traced: list = []
    t_traced = cli_round(cases, workdir, True, traced)
    spans: list = []
    for op in range(len(cases)):
        path = os.path.join(workdir, f"spans-{op}.json")
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        offset = len(spans)
        spans += [(n, t0, t1, p + offset if p >= 0 else -1, o, tag)
                  for n, t0, t1, p, o, tag in part]
    with open(os.path.join(OUT, f"spans-cli-oneshot-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(spans, fh)
    metrics = tr.summarize(spans, len(cases))
    failures, dev_max, ratio_max = check_records(plain + traced)
    metrics["oracle.dev_max"] = dev_max
    metrics["oracle.dev_over_gate_max"] = ratio_max
    metrics["cli.interpreter_s"] = interp
    metrics["cli.import_s"] = imported - interp
    for cmd in spec.CLI_COMMANDS:
        walls = [r["wall"] for r in plain if r["argv"][0] == cmd]
        metrics[f"cli.wall.{cmd}_s"] = statistics.median(walls)
    metrics["trace.ops"] = len(cases)
    metrics["trace.overhead_ratio"] = t_traced / t_plain
    return {"attempted": len(plain) + len(traced), "failures": failures,
            "metrics": metrics, "info": {}}


# --- driver ------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count()}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if workload == "cli-oneshot":
        result = run_cli(seed, seconds, trace)
    else:
        result = run_in_process(workload, seed, seconds, trace)
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {name: float(result["metrics"].get(name, 0.0)) for name, *_ in wanted}
    attempted, failed = result["attempted"], len(result["failures"])
    if not trace:
        metrics["success_ratio"] = (attempted - failed) / attempted
    result["metrics"] = metrics
    return result


def check_root() -> None:
    if not os.path.isfile(os.path.join(SRC, "qbret", "__init__.py")):
        raise BenchError(f"no qbret sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)  # for the output checks run in this process


def report(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, as separate processes; every
    metric by name and unit; then BENCHMARK.json from the spec."""
    ok = True
    for workload, why in spec.WORKLOADS:
        print(f"\n== {workload}: {why}")
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=200)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"   run failed (exit {done.returncode}): {done.stderr.strip()[-2000:]}")
                ok = False
                continue
            info, res = json.loads(lines[-2]), json.loads(lines[-1])
            ok &= res["correct"]
            print(f"   trace={trace} correct={res['correct']} attempted={res['attempted']}"
                  f" failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"   {name:<42s} {m['value']:>16.6g} {m['unit']}")
            for failure in info.get("failures", []):
                print(f"   failure: {failure}")
            if "cases" in info:
                print(f"   tail at p{info['tail_percentile_over_cases']:.2f} of "
                      f"{info['cases']} cases' best of {info['samples']} samples")
    print("\n== left out")
    for what, why in spec.EXCLUDED:
        print(f"   {what}: {why}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(spec.manifest(), fh, indent=2)
        fh.write("\n")
    print("\nwrote BENCHMARK.json")
    return 0 if ok else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[w for w, _ in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", action="store_true")
    args = p.parse_args()
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        check_root()
        if args.report:
            return report(args.seed, args.seconds)
        if not args.workload:
            p.error("--workload is required")
        os.makedirs(OUT, exist_ok=True)
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    units = spec.UNITS
    info = {"workload": args.workload, "trace": args.trace, **environment(args.seed),
            **result["info"], "failures": result["failures"]}
    print(json.dumps(info))
    # every operation was checked; a wrong or missing result is a failure,
    # counted in `failed` and in success_ratio, so `correct` stays true
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
