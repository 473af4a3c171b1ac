"""Smoke mode: every workload end to end with one round (``--seconds 1``).

Each run builds, solves, checks its outputs and prints the metrics that
BENCHMARK.json declares for its trace mode.  About a minute in total.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # The only operation allowed to fail is the declared-modulus certificate,
    # one per nonmonotone experiment next to its single solver run.
    if workload == "nonmonotone-batch15":
        assert 2 * result["failed"] == result["attempted"]
    else:
        assert result["failed"] == 0


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
