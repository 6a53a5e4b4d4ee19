"""Smoke test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("eig-large", "oracle-agreement", "cli-commands", "jordan-defective")
THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    summary = json.loads(
        next(line for line in lines if line.startswith("perfbench-summary ")).split(" ", 1)[1]
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["end_to_end" if trace == 0 else "per_layer"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in listed}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert summary["failed_frac"] == result["failed"] / result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    assert summary["environment"]["threads"] == THREADS
    assert len(summary["report_digest"]) == 64


def test_gated_workloads_exist():
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(WORKLOADS)
    assert "jordan-defective" not in names  # it fails by design (ROADMAP item 1)


def test_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", ".work", "__pycache__")
    )
    proc = run("eig-large", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
