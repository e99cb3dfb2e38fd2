"""Tests of the benchmark itself, in smoke mode (toy sizes, every check).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
from tracing import Recorder, self_time, span_cost  # noqa: E402


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("info "))[len("info "):])
    return info, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, result = parse(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, info["errors"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = info["env"]
    assert env["seri_threads"] is None
    assert env["blas_threads"] is None or env["blas_threads"] <= env["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_digests(workload):
    first_info, first = parse(run(workload, 1))
    second_info, second = parse(run(workload, 1))
    assert first["correct"] and second["correct"], first_info["errors"] + second_info["errors"]
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first_info["counts"] and first_info["digests"]
    assert (first_info["counts"], first_info["digests"]) == (second_info["counts"], second_info["digests"])
    for spec in SPEC["per_layer"]:
        if spec["unit"] == "count":
            assert first["metrics"][spec["name"]] == second["metrics"][spec["name"]]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_recorder_counts_failures_and_excludes_checks():
    rec = Recorder()
    rec.trace = True
    with rec.pass_span() as timing:
        rec.call("layer.ok", time.sleep, 0.01)
        assert rec.call("layer.bad", int, "not a number") is None
        with rec.paused():
            time.sleep(0.05)
    assert (rec.attempted, rec.failed) == (2, 1)
    names = [span[0] for span in rec.spans]
    assert names == ["bench.pass", "layer.ok", "layer.bad", "bench.check"]
    assert timing["wall_s"] < 0.05
    assert 0 <= self_time(rec.spans, 0) < 0.01


def test_span_cost_is_small():
    cost = span_cost(calls=2000, blocks=3)
    assert abs(cost) < 1e-4
