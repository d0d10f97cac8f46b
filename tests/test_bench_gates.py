"""Calibrated benchmark gates (``check_bench_regression.py``).

The service, mmap-artifact and graph-update reports gate each path's
time in units of an in-run numpy calibration kernel (``per_calib``)
instead of a fast-path/cold-path ratio, so a faster cold path can no
longer read as a slower fast path — and both paths are protected.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench import calib_ms


def _load_checker():
    path = (
        Path(__file__).resolve().parents[1]
        / "benchmarks"
        / "check_bench_regression.py"
    )
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression_gates", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GRAPH_UPDATES = {
    "schema": 1,
    "params": {
        "n": 10000, "attach": 50, "theta": 1000, "seeds": 10, "rng": 7,
        "fractions": [0.0001, 0.001, 0.01], "workers": None,
    },
    "m": 997450,
    "rungs": [],
    "delta_speedup_vs_rebuild": 2.0,
    "identical": True,
    "calib_ms": {"start": 7.5, "end": 7.6},
    "per_calib": {"delta_s": 180.0, "rebuild_s": 360.0},
}


def run_gate(tmp_path, current: dict, baseline: dict) -> int:
    checker = _load_checker()
    cur = tmp_path / "current.json"
    base = tmp_path / "baseline.json"
    cur.write_text(json.dumps(current), encoding="utf-8")
    base.write_text(json.dumps(baseline), encoding="utf-8")
    return checker.main(
        [str(cur), "--baseline", str(base), "--tolerance", "0.5"]
    )


def with_costs(**costs) -> dict:
    report = copy.deepcopy(GRAPH_UPDATES)
    report["per_calib"].update(costs)
    return report


def test_calib_probe_is_positive():
    assert calib_ms() > 0


def test_matching_report_passes(tmp_path):
    assert run_gate(tmp_path, GRAPH_UPDATES, GRAPH_UPDATES) == 0


def test_ratio_drop_alone_no_longer_fails(tmp_path):
    # a 10x faster cold rebuild collapses the old speedup ratio but is
    # no regression of either path
    faster_cold = with_costs(rebuild_s=36.0)
    faster_cold["delta_speedup_vs_rebuild"] = 0.2
    assert run_gate(tmp_path, faster_cold, GRAPH_UPDATES) == 0


@pytest.mark.parametrize("path", ["delta_s", "rebuild_s"])
def test_either_path_regressing_fails(tmp_path, path, capsys):
    # tolerance 0.5: a cost may at most double
    slower = with_costs(**{path: GRAPH_UPDATES["per_calib"][path] * 2.2})
    assert run_gate(tmp_path, slower, GRAPH_UPDATES) == 1
    assert f"{path}/calib" in capsys.readouterr().out
    within = with_costs(**{path: GRAPH_UPDATES["per_calib"][path] * 1.9})
    assert run_gate(tmp_path, within, GRAPH_UPDATES) == 0


def test_identity_divergence_fails_hard(tmp_path):
    diverged = copy.deepcopy(GRAPH_UPDATES)
    diverged["identical"] = False
    assert run_gate(tmp_path, diverged, GRAPH_UPDATES) == 1


def test_missing_cost_fails(tmp_path):
    partial = copy.deepcopy(GRAPH_UPDATES)
    del partial["per_calib"]["delta_s"]
    assert run_gate(tmp_path, partial, GRAPH_UPDATES) == 1


def test_uncalibrated_baseline_is_unusable(tmp_path):
    old = copy.deepcopy(GRAPH_UPDATES)
    del old["per_calib"]
    with pytest.raises(SystemExit) as excinfo:
        run_gate(tmp_path, GRAPH_UPDATES, old)
    assert excinfo.value.code == 2


def test_adopt_records_calibrated_costs(tmp_path, monkeypatch):
    checker = _load_checker()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "benchmarks").mkdir()
    current = tmp_path / "current.json"
    current.write_text(json.dumps(GRAPH_UPDATES), encoding="utf-8")
    baseline = tmp_path / "benchmarks" / "BENCH_graph_updates.json"
    assert checker.main(
        [str(current), "--baseline", str(baseline), "--adopt"]
    ) == 0
    ledger = (tmp_path / "benchmarks" / "BASELINES.md").read_text(
        encoding="utf-8"
    )
    assert "delta_s=180.0, rebuild_s=360.0 calib units" in ledger
