"""Smoke test of the benchmark runner at a tiny size: one small op per
workload after the warm-up op, untraced and traced, checked against the
metric names and units declared in BENCHMARK.json."""

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


def _run(workload, trace, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_verifies_and_reports_every_layer_metric(workload):
    result = _result(_run(workload, 1))
    # the warm-up op, one untraced and one traced op
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0)
    assert _units(result["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["per_layer"]}


def test_tiny_untraced_run_reports_every_end_to_end_metric():
    result = _result(_run("verify", 0))
    # the warm-up op and one timed op
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert _units(result["metrics"]) == {m["name"]: m["unit"]
                                         for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("inflate", 0, cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
