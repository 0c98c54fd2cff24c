"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest perfbench -q

They are not part of the package's test suite (`testpaths` names tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402

# counts computed from sizes and routes, which must not depend on timing
EXACT = ("frames.xi_bytes", "qprcore.x_matrix.bytes_computed",
         "matcore.principal_power.calls_per_op",
         "qprcore.petz_qpr.regularized_share")


def bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return done


def result(done):
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    return res


@pytest.mark.parametrize("workload", ["qubit-sweep", "dw3-product"])
def test_counts_repeat_exactly_for_a_seed(workload):
    runs = [result(bench("--workload", workload, "--seed", "5", "--seconds", "1",
                         "--trace", "1"))
            for _ in range(2)]
    for name in EXACT:
        assert runs[0]["metrics"][name]["value"] == runs[1]["metrics"][name]["value"], name
    assert list(runs[0]["metrics"]) == [n for n, *_ in spec.PER_LAYER]


def test_qubit_sweep_reports_every_end_to_end_metric():
    res = result(bench("--workload", "qubit-sweep", "--seed", "2", "--seconds", "1",
                       "--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert list(res["metrics"]) == [n for n, *_ in spec.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "qubit-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_manifest_matches_the_checked_in_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.manifest()
