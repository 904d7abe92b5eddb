"""Smoke test of the benchmark at tiny problem sizes.

    python3 -m pytest bench/test_smoke.py

Checks the output contract of `bench/run.py` for every workload, traced and
untraced, the exact duplication counts the traced run reports, and that the
benchmark refuses to run where the package source is missing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root, workload, trace):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_contract(workload):
    line = result_line(run_bench(ROOT, workload, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(line["metrics"]) == set(declared)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == declared[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_contract(workload):
    line = result_line(run_bench(ROOT, workload, 1))
    assert line["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(line["metrics"]) == set(declared)
    values = {name: m["value"] for name, m in line["metrics"].items()}
    if workload == "fd3-ladder":
        assert values["coordinate_fields.christoffel3_fd.per_residual"] == 2
        assert values["spacetime_verifier.christoffel_fd.calls"] == 0
    if workload == "dev4-cli":
        assert values["spacetime_verifier.christoffel_fd.per_metric"] == 4
        assert values["flow.diagonal_solution.per_flow_diag"] == 2
        assert values["cli.run.calls"] > 0
    if workload == "frame-stream":
        assert values["classifier.classify.calls"] > 0
        assert values["numpy.gradient.calls"] == 0


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
