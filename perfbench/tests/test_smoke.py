"""A tiny-size run of every workload, untraced and traced."""

import json
import subprocess
import sys

import pytest

from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

#: Per-layer metrics only a pool worker or a child process can record.
FROM_OTHER_PROCESSES = {
    "batch": {"piuma.run_s", "runner.task_busy_s", "frontend.overhead_ms"},
    "serve": {"import_s", "frontend.overhead_ms", "piuma.events",
              "cache.put_ms"},
    "cli": {"import_s", "frontend.overhead_ms", "piuma.events",
            "cache.put_ms"},
}


def _run(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", str(seconds),
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload):
    result = _run(workload, 0, 1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run(workload):
    result = _run(workload, 1, 2)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == PER_LAYER
    for name in FROM_OTHER_PROCESSES[workload]:
        assert metrics[name]["value"] != 0, name
    for name, spec in ((m["name"], m) for m in SPEC["per_layer"]):
        assert metrics[name]["unit"] == spec["unit"], name
        if spec["unit"] in ("s", "ms"):
            assert metrics[name]["value"] > 0, name


def test_without_the_program_it_fails_without_a_result(tmp_path):
    import os
    import shutil

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
