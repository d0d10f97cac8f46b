"""Smoke test of the benchmark: every workload, both modes, tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

from common import Checks  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", str(trace), "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(
        tmp_path, "--workload", "paper-solve", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_answer_checks_reject_bad_blockers():
    checks = Checks()
    sources = [0, 1]
    assert checks.blockers("ok", [2, 3], sources, 2, 10)
    assert not checks.blockers("dup", [2, 2], sources, 5, 10)
    assert not checks.blockers("source", [1, 2], sources, 5, 10)
    assert not checks.blockers("budget", [2, 3, 4], sources, 2, 10)
    assert not checks.blockers("range", [2, 10], sources, 5, 10)
    assert not checks.block_answer(
        "worse", {"blockers": [2], "spread_unblocked": 3.0,
                  "spread_blocked": 3.5}, sources, 2, 10,
    )
    assert len(checks.failures) == 5
