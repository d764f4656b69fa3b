"""Minimal-size runs of every workload through the real command line.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_of(run(workload, 0))
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attribution(workload):
    metrics = {k: v["value"] for k, v in result_of(run(workload, 1))["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    if workload == "train-fusion":
        bilstm = metrics["layers.bilstm.fwd.s"] + metrics["layers.bilstm.bwd.s"]
        assert bilstm > 0.5 * metrics["training.train.s"]
    if workload == "train-mlp":
        for name, value in metrics.items():
            if name.startswith(("layers.bilstm.", "layers.attention.", "layers.lstm_step.")):
                assert value == 0, name
    if workload == "eval-bulk":
        assert metrics["parallel.ordered_map.s"] > 0
        assert metrics["training.train.s"] == 0
    if workload == "predict-cold":
        timed = {k: v for k, v in metrics.items()
                 if k.endswith(".s") and not k.startswith(("model.forward", "layers."))}
        assert max(timed, key=timed.get) == "embeddings.load_vec.s"


def test_same_seed_gives_the_same_inputs():
    lines = [next(line for line in run("train-mlp", 0).stdout.splitlines()
                  if line.startswith("inputs ")) for _ in range(2)]
    assert lines[0] == lines[1]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run("train-mlp", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
