"""Tiny-size runs of every perfbench workload.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 7, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(bench(workload, trace=0))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_times_add_up(workload):
    runs = [bench(workload, trace=1) for _ in range(2)]
    metrics = [result_of(proc)["metrics"] for proc in runs]
    assert list(metrics[0]) == [m["name"] for m in SPEC["per_layer"]]
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert {k: metrics[0][k]["value"] for k in counted} == {k: metrics[1][k]["value"] for k in counted}
    assert metrics[0]["cli.startup_s"]["value"] > 0
    lines = runs[0].stdout.splitlines()
    sums = [i for i, line in enumerate(lines) if "= untraced median" in line]
    assert len(sums) == 2
    for i in sums:
        self_s = json.loads(lines[i - 1].split("self times ", 1)[1])
        numbers = [float(word) for word in lines[i].split(";")[0].split() if word[-1].isdigit()]
        spans, startup, unaccounted, untraced = numbers
        assert spans == pytest.approx(sum(self_s.values()), abs=1e-5)
        assert spans + startup + unaccounted == pytest.approx(untraced, abs=1e-5)


def test_child_deadline_grows_with_seconds():
    sys.path.insert(0, HERE)
    try:
        import run
    finally:
        sys.path.remove(HERE)
    # A long run keeps the whole margin for set-up, checks and the traced pass.
    for seconds in (1, 30, 200, 600):
        assert run.run_limit_s(seconds) == seconds + run.run_limit_s(0)
    assert run.run_limit_s(0) >= 60
    # At the benchmark's own run length the run ends within 180 s.
    assert run.run_limit_s(SPEC["run_seconds"]) <= 175


def test_check_rejects_a_wrong_total(tmp_path):
    instance = {"theta": 0.5, "horizon": {"finite": 2},
                "packages": [{"id": 0, "reward": 10.0, "rho": 0.9}, {"id": 1, "reward": 1.0, "rho": 0.6}]}
    report = {"values": [20.0, 0.0, 0.0], "thresholds": [1.0, 0.5], "total": 20.0,
              "plans": [[0], [0, 1]]}
    paths = {}
    for name, doc in (("instance", instance), ("report", report)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    csv_path = tmp_path / "report.csv"
    csv_path.write_text("header\nrow\nrow\n")
    spec = tmp_path / "checks.json"
    spec.write_text(json.dumps([{"kind": "finite_report", "op": "solve", "report": paths["report"],
                                 "instance": paths["instance"], "csv": str(csv_path), "epochs": 2}]))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(HERE, "check.py"), str(spec)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    errors = json.loads(proc.stdout)["solve"]
    assert len(errors) == 1 and "evaluate_mission" in errors[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
