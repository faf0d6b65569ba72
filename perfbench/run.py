"""End-to-end benchmark of the riskplan CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bulk-finite --seed 1 --seconds 35 --trace 0

Each workload is a closed loop from one client: its two timed operations
run one after the other, each in its own process, and the loop repeats
until the next iteration would overrun ``--seconds`` (at least one
iteration).  The operations are real ``riskplan`` CLI commands, except the
small-verify oracle batch, which is ``oracle_batch.py``.  Inputs are a pure
function of ``--seed``.  Each iteration opens with ``calibrate.py``, a fixed
job that moves only with the host's speed, and the end-to-end times are
reported as ratios to it.

This process imports only the standard library and never loads workload
data: set-up inputs are built by ``inputs.py``, outputs are checked by
``check.py`` and the traced run is ``tracing.py``, each in its own process.
A child's ``ru_maxrss`` includes the resident set of the process that
spawned it, so keeping this one small makes ``peak_rss_mb`` belong to the
measured command.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` also runs the untraced loop, then each operation once more
under ``tracing.py`` and reports the per-layer metrics.  The last line of
stdout is one JSON object; lines before it, prefixed ``#``, are for people.
The exit code is nonzero when any operation fails or any output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".perfbench-run")

SIZES = {
    "full": {
        "bulk_n": 50_000, "bulk_epochs": 1000,
        "n": 5000, "epochs": 100, "catalog_share": 0.5, "sim_trials": 20_000, "shards": 2,
        "team_packages": 20, "team_epochs": 3, "agents": 5, "team_trials": 2000,
        "finite_n_max": 4, "finite_k_max": 3, "finite_instances": 36,
        "infinite_n": 12, "infinite_instances": 4,
    },
    # Runs every workload and check in a few seconds; used by the tests.
    "tiny": {
        "bulk_n": 2000, "bulk_epochs": 20,
        "n": 300, "epochs": 10, "catalog_share": 0.5, "sim_trials": 2000, "shards": 2,
        "team_packages": 8, "team_epochs": 2, "agents": 3, "team_trials": 2000,
        "finite_n_max": 3, "finite_k_max": 2, "finite_instances": 12,
        "infinite_n": 6, "infinite_instances": 2,
    },
}
SETUP_REPEATS = 9
STARTUP_REPEATS = 5
# Set-up, checks, the traced pass and the last iteration's overrun of
# --seconds fit in this; at --seconds 35 the run ends within 175 s.
RUN_MARGIN_S = 140.0


@dataclass
class Op:
    """One timed operation; ``label`` names its metric in perfbench/README.md."""

    name: str
    label: str
    argv: list[str]
    outputs: list[str]
    inputs: list[str]
    runs: int = 0
    seconds: list[float] = field(default_factory=list)
    # Each run's seconds over the same iteration's calibrate.py seconds.
    per_cal: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    digests: list[str] | None = None
    failed: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Proc:
    seconds: float
    code: int
    rss_mb: float
    stdout: str


class Runner:
    """Runs children one at a time; none outlives ``deadline``."""

    def __init__(self, env: dict, deadline: float):
        self.env = env
        self.deadline = deadline

    def run(self, argv: list[str], capture: bool = False) -> Proc:
        # Captured output stays inside the checkout, like every other file.
        with tempfile.TemporaryFile(dir=WORK_ROOT) if capture else open(os.devnull, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=out, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            stdout = ""
            if capture:
                out.seek(0)
                stdout = out.read().decode()
        return Proc(seconds, proc.returncode, usage.ru_maxrss / 1024.0, stdout)


def run_limit_s(seconds: float) -> float:
    """Seconds after the start of a run at which a still-running child is killed."""
    return seconds + RUN_MARGIN_S


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_ops(workload: str, seed: int, p: dict, work: str, inputs: dict):
    """The workload's two timed operations and the checks on their outputs."""
    cli = [sys.executable, "-m", "riskplan.cli"]
    at = lambda name: os.path.join(work, name)  # noqa: E731
    if workload == "bulk-finite":
        instance = at("instance.json")
        ops = [
            Op("gen", "gen_s", cli + ["gen", "-n", str(p["bulk_n"]), "-K", str(p["bulk_epochs"]),
                                      "--theta-range", "3,3", "--seed", str(seed), "-o", instance],
               [instance], []),
            Op("solve", "solve_s", cli + ["solve", "finite", "-i", instance, "-o", at("report.json"),
                                          "--csv", at("report.csv")],
               [at("report.json"), at("report.csv")], [instance]),
        ]
        checks = [{"kind": "finite_report", "op": "solve", "report": at("report.json"),
                   "instance": instance, "csv": at("report.csv"), "epochs": p["bulk_epochs"]}]
    elif workload == "per-epoch":
        instance = inputs["instance"]
        ops = [
            Op("solve", "solve_s", cli + ["solve", "finite", "-i", instance, "-o", at("report.json"),
                                          "--csv", at("report.csv")],
               [at("report.json"), at("report.csv")], [instance]),
            Op("simulate", "simulate_s", cli + ["simulate", "-i", instance, "-p", at("report.json"),
                                                "--trials", str(p["sim_trials"]), "--seed", str(seed),
                                                "--shards", str(p["shards"]), "-o", at("sim.json")],
               [at("sim.json")], [instance, at("report.json")]),
        ]
        checks = [
            {"kind": "finite_report", "op": "solve", "report": at("report.json"),
             "instance": instance, "csv": at("report.csv"), "epochs": p["epochs"]},
            {"kind": "simulate", "op": "simulate", "sim": at("sim.json"), "report": at("report.json")},
        ]
    elif workload == "small-verify":
        ops = [
            Op("team", "team_s", cli + ["team", "greedy", "-i", inputs["team"], "--agents", str(p["agents"]),
                                        "--seed", str(seed), "--trials", str(p["team_trials"]),
                                        "-o", at("team_out.json")],
               [at("team_out.json")], [inputs["team"]]),
            Op("oracle", "oracle_s", [sys.executable, os.path.join(HERE, "oracle_batch.py"),
                                      "-i", inputs["batch"], "-o", at("oracle_out.json")],
               [at("oracle_out.json")], [inputs["batch"]]),
        ]
        checks = [
            {"kind": "team", "op": "team", "team": at("team_out.json")},
            {"kind": "oracle", "op": "oracle", "result": at("oracle_out.json"),
             "finite": p["finite_instances"], "infinite": p["infinite_instances"]},
        ]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return ops, checks


def run_iteration(runner: Runner, ops: list[Op], cal_seconds: float) -> None:
    for op in ops:
        proc = runner.run(op.argv)
        op.runs += 1
        if proc.code != 0:
            op.failed += 1
            op.errors.append(f"exit code {proc.code}")
            continue
        digests = [sha256(path) for path in op.outputs]
        if op.digests is None:
            op.digests = digests
        elif digests != op.digests:
            op.failed += 1
            op.errors.append("output bytes differ from the first iteration")
            continue
        op.seconds.append(proc.seconds)
        op.per_cal.append(proc.seconds / cal_seconds)
        op.rss_mb.append(proc.rss_mb)


def traced_run(runner: Runner, ops: list[Op], work: str) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics from one traced pass, its spans, and its errors."""
    startup = statistics.median(
        runner.run([sys.executable, "-c", "import riskplan.cli"]).seconds for _ in range(STARTUP_REPEATS))
    metrics = {"cli.startup_s": startup}
    spans: list[dict] = []
    errors: list[str] = []
    for k, op in enumerate(ops, start=1):
        if not op.seconds:
            errors.append(f"no untraced run of {op.name} succeeded")
            continue
        out = os.path.join(work, f"trace-{op.name}.json")
        proc = runner.run([sys.executable, os.path.join(HERE, "tracing.py"), out, op.name, "--"] + op.argv[1:])
        if proc.code != 0:
            errors.append(f"traced {op.name} exited with {proc.code}")
            continue
        if [sha256(p) for p in op.outputs] != op.digests:
            errors.append(f"traced {op.name} wrote different output bytes")
        with open(out, encoding="utf-8") as fh:
            traced = json.load(fh)
        spans.extend(traced["spans"])
        for name, seconds in traced["self_s"].items():
            metrics[name + "_s"] = metrics.get(name + "_s", 0.0) + seconds
        for name, value in list(traced["counts"].items()) + list(traced["extra"].items()):
            metrics[name] = metrics.get(name, 0) + value
        untraced = statistics.median(op.seconds)
        unaccounted = untraced - startup - traced["span_total_s"]
        metrics[f"trace.op{k}.unaccounted_s"] = unaccounted
        metrics[f"trace.op{k}.overhead_s"] = proc.seconds - untraced
        print(f"# trace {op.name}: self times {json.dumps(traced['self_s'], sort_keys=True)}")
        print(f"# trace {op.name}: sum of self times {traced['span_total_s']:.6f} s + cli.startup_s "
              f"{startup:.6f} s + trace.unaccounted_s {unaccounted:.6f} s = untraced median "
              f"{untraced:.6f} s; traced process {proc.seconds:.6f} s")
    return metrics, spans, errors


def run_info(args, ops: list[Op], numpy_version: str) -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True).stdout.strip() or None
        except OSError:
            pass
    if sha is None:
        # Outside git, a hash of the program's sources identifies the code.
        source = hashlib.sha256()
        pkg = os.path.join(ROOT, "src", "riskplan")
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                source.update(name.encode())
                source.update(sha256(os.path.join(pkg, name)).encode())
        sha = "sources " + source.hexdigest()
    input_bytes = {os.path.basename(path): os.path.getsize(path)
                   for op in ops for path in op.inputs if os.path.exists(path)}
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size, "seconds": args.seconds,
        "git_sha": sha, "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "input_bytes": input_bytes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=["bulk-finite", "per-epoch", "small-verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "riskplan", "cli.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from the root of a riskplan checkout (src/riskplan and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    # SIGTERM unwinds like an exception, so the running child is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ, RISKPLAN_LOG="off", PYTHONPATH=os.path.join(ROOT, "src"))
    runner = Runner(env, time.monotonic() + run_limit_s(args.seconds))
    # Untimed: fails fast on a broken checkout and leaves byte-code cached.
    if runner.run([sys.executable, "-c", "import riskplan.cli"]).code != 0:
        print("perfbench: cannot import riskplan from src/", file=sys.stderr)
        return 2

    params = SIZES[args.size]
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            proc = runner.run([sys.executable, os.path.join(HERE, "inputs.py"), args.workload,
                               str(args.seed), work, json.dumps(params)], capture=True)
            if proc.code != 0:
                print("perfbench: set-up failed", file=sys.stderr)
                return 1
            setup.append(proc.seconds)
        inputs = json.loads(proc.stdout.splitlines()[-1])
        ops, checks = build_ops(args.workload, args.seed, params, work, inputs)

        loop_start = time.perf_counter()
        iterations, calibrations = [], []
        while True:
            start = time.perf_counter()
            cal = runner.run([sys.executable, os.path.join(HERE, "calibrate.py"),
                              os.path.join(work, "calibrate.json")])
            if cal.code != 0:
                print(f"perfbench: calibrate.py exited with {cal.code}", file=sys.stderr)
                return 2
            calibrations.append(cal.seconds)
            run_iteration(runner, ops, cal.seconds)
            iterations.append(time.perf_counter() - start)
            spent = time.perf_counter() - loop_start
            if spent + statistics.median(iterations) > args.seconds:
                break

        check_spec = os.path.join(work, "checks.json")
        with open(check_spec, "w", encoding="utf-8") as fh:
            json.dump(checks, fh)
        proc = runner.run([sys.executable, os.path.join(HERE, "check.py"), check_spec], capture=True)
        verdict = json.loads(proc.stdout) if proc.code == 0 else {op.name: ["check.py failed"] for op in ops}
        for op in ops:
            if verdict.get(op.name):
                # Every run wrote the same bytes, so every run was wrong.
                op.failed = op.runs
                op.errors.extend(verdict[op.name])

        info = run_info(args, ops, inputs["numpy"])
        info["iterations"] = len(iterations)
        print(f"# perfbench {json.dumps(info, sort_keys=True)}")

        e2e = {"setup_s": statistics.median(setup),
               "peak_rss_mb": max((max(op.rss_mb) for op in ops if op.rss_mb), default=0.0)}
        print(f"# setup_s: median {e2e['setup_s']:.4f} s of {len(setup)} set-ups")
        print(f"# calibrate.py: median {statistics.median(calibrations):.4f} s, min {min(calibrations):.4f}, "
              f"max {max(calibrations):.4f}, n={len(calibrations)}")
        for k, op in enumerate(ops, start=1):
            if op.seconds:
                e2e[f"op{k}_per_cal"] = statistics.median(op.per_cal)
                print(f"# op{k}_per_cal = {op.label} ({op.name}) / calibrate.py: median "
                      f"{e2e[f'op{k}_per_cal']:.4f}, n={len(op.per_cal)}; {op.label} median "
                      f"{statistics.median(op.seconds):.4f} s, min {min(op.seconds):.4f}, "
                      f"max {max(op.seconds):.4f}; peak_rss_mb {max(op.rss_mb):.1f} MB")
        attempted = sum(op.runs for op in ops)
        failed = sum(op.failed for op in ops)
        print(f"# peak_rss_mb: {e2e['peak_rss_mb']:.1f} MB (highest timed process)")
        print(f"# error_rate: {failed}/{attempted} failed/attempted")
        for op in ops:
            for error in op.errors:
                print(f"# FAILED {op.name}: {error}")

        metrics = e2e
        trace_errors: list[str] = []
        if args.trace:
            metrics, spans, trace_errors = traced_run(runner, ops, work)
            for error in trace_errors:
                print(f"# FAILED {error}")
            os.makedirs(os.path.join(WORK_ROOT, "results"), exist_ok=True)
            with open(os.path.join(WORK_ROOT, "results", os.path.basename(work) + "-spans.jsonl"),
                      "w", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")

        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        out_metrics = {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in listed}
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in e2e]
        correct = failed == 0 and not trace_errors and not missing
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": out_metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
