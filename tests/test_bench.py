"""The benchmark's own checks: one round of each workload in BENCHMARK.json
runs on a copy of the repository and reports every output correct."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_is_correct(workload, tmp_path):
    if importlib.util.find_spec("numpy") is None:
        pytest.skip("the benchmark draws its inputs with numpy, which is not installed")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_work")
    for tree in ("bench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert (report["correct"], report["failed"]) == (True, 0), proc.stderr
