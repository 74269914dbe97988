"""Every workload end to end and traced, with a tiny load."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "HEART_CONFIGS", workloads.HEART_CONFIGS[:2])
    monkeypatch.setattr(workloads.SynthLearn, "n_rows", 2000)
    monkeypatch.setattr(workloads.SynthQuery, "block", 30)
    monkeypatch.setattr(workloads.SynthQuery, "min_ops", 30)
    monkeypatch.setattr(workloads.Cli, "predicts", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)


def _run(mode, name):
    workload = workloads.WORKLOADS[name](run.ROOT, 7)
    try:
        return mode(workload, 7, 0.0, time.perf_counter())
    finally:
        workload.close()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_quick_run(tiny, name):
    values, check, _ = _run(run.end_to_end, name)
    assert check.failures == [] and check.attempted > 0
    assert {k: u for k, (_, u) in values.items()} == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v > 0 for v, _ in values.values())

    values, check, _ = _run(run.traced_run, name)
    assert check.failures == []
    assert {k: u for k, (_, u) in values.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert values["trace.accounted_share"][0] == pytest.approx(1.0)
    assert values["trace.wall_s"][0] > 0


def test_benchmark_json_lists_the_layer_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
