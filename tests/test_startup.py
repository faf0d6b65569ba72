"""What a fresh interpreter loads, and the package's lazy exports.

Every other test runs in one process, where a subcommand can lean on a
module some earlier test happened to import.  Here each command runs in
its own interpreter, as the console script does: its output must still
match the golden bytes, and it must load only the riskplan modules it
executes.  By default that leaves out ``logging`` too: it is imported
only when ``RISKPLAN_LOG`` names a level.  ``main``, the console script's
entry point, freezes the heap before exit; its written files and exit
codes are checked here as well.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskplan
from test_golden import CASES, GOLDEN, case_argv

SRC = str(Path(riskplan.__file__).resolve().parent.parent)

RUN = """\
import json, sys
from riskplan.cli import run_cli
code = run_cli(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "riskplan"),
                  "logging" in sys.modules]))
"""

#: The console script's entry point.
MAIN = "from riskplan.cli import main; main()"

#: Runs ``main`` or ``run_cli`` (the first argument) on the rest of the
#: arguments, then prints its exit code and the count of frozen objects.
FREEZE = """\
import gc, json, sys
from riskplan.cli import main, run_cli
entry = sys.argv.pop(1)
try:
    code = run_cli(sys.argv[1:]) if entry == "run_cli" else main()
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, gc.get_freeze_count()]))
"""

#: riskplan modules each subcommand loads beyond ``cli``, ``errors`` and ``model``.
LOADS = {
    "gen": {"coltext"},
    "convert": set(),
    "solve finite": {"finite_solver", "coltext"},
    "solve infinite": {"infinite_solver"},
    "simulate": {"oracle_sim", "expectation"},
    "oracle": {"oracle_sim", "expectation"},
    "mdp-eval": {"mdp"},
    "team greedy": {"multiagent", "oracle_sim", "expectation"},
    "pbd": {"multiagent", "oracle_sim", "expectation"},
}

#: Subcommands no golden case runs.
EXTRA = {
    "convert": ["convert", "--rho", "0.5", "--phi", "0.5"],
    "pbd": ["pbd", "--probs", "0.5,0.25"],
}

#: The package's exports, by the submodule that defines each.
EXPORTS = {
    "errors": [
        "AlreadyAssignedError", "DegenerateQuotientError", "DomainError", "EmptyPlanError",
        "FiniteHorizonError", "HorizonMismatchError", "InfiniteHorizonError",
        "InvalidInstanceError", "InvalidPlanError", "InvalidRangeError", "OverlappingToursError",
        "RiskPlanError", "ScaleLimitError", "ScaleLimitExceededError", "SearchSpaceTooLargeError",
        "TooManyEpochsError", "TooManyPackagesError", "TooManyTrialsError",
        "UnboundedSimulationError", "UnboundedValueError", "UnknownPackageIdError",
        "ValidationError",
    ],
    "expectation": [
        "EpochEvaluation", "MissionEvaluation", "epoch_risk_ratio", "evaluate_epoch",
        "evaluate_mission",
    ],
    "finite_solver": ["SolveReport", "solve_finite"],
    "infinite_solver": ["InfiniteSolveReport", "solve_infinite"],
    "mdp": ["MdpModel", "best_stationary_policy", "build_model", "evaluate_policy"],
    "model": [
        "MAX_EPOCHS", "UNBOUNDED", "Horizon", "Instance", "MissionPlan", "PackageSpec",
        "Violation", "ViolationCode", "distance_to_probability", "ensure_valid",
        "instance_from_dict", "instance_to_dict", "plan_from_dict", "plan_to_dict",
        "probability_to_distance", "reward_to_risk", "validate_instance",
    ],
    "multiagent": [
        "PoissonBinomial", "TeamEpochPlan", "TeamSolveReport", "greedy_rtpd", "marginal_gain",
        "poisson_binomial_dft", "poisson_binomial_enum", "poisson_quotient_difference",
        "simulate_team_mission", "team_epoch_expectation",
    ],
    "oracle_sim": ["SimConfig", "SimResult", "brute_force_finite", "simulate_mission"],
}


def fresh(*args: str, log: str = "") -> subprocess.CompletedProcess:
    """Run ``python -c ARGS...`` in a new interpreter that imports riskplan
    from this tree, with ``RISKPLAN_LOG`` set to ``log`` (unset if empty)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    env.pop("RISKPLAN_LOG", None)
    if log:
        env["RISKPLAN_LOG"] = log
    return subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True,
                          text=True, timeout=120)


def run_fresh(argv: list[str]) -> tuple[int, set[str]]:
    """Exit code and loaded riskplan modules of one command in a fresh
    interpreter, which must not have loaded ``logging``."""
    proc = fresh(RUN, *argv)
    assert proc.returncode == 0, proc.stderr
    code, modules, logging_loaded = json.loads(proc.stdout)
    assert not logging_loaded
    return code, set(modules)


def command_of(argv: list[str]) -> str:
    return " ".join(argv[:2]) if argv[0] in ("solve", "team") else argv[0]


def expected_modules(argv: list[str]) -> set[str]:
    names = {"cli", "errors", "model"} | LOADS[command_of(argv)]
    return {"riskplan"} | {f"riskplan.{name}" for name in names}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_case_in_a_fresh_interpreter(case, tmp_path):
    argv, written = case_argv(case, tmp_path)
    code, modules = run_fresh(argv)
    assert code == 0
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert modules == expected_modules(argv)


@pytest.mark.parametrize("command", sorted(EXTRA))
def test_command_without_a_golden_in_a_fresh_interpreter(command, tmp_path):
    argv = EXTRA[command]
    code, modules = run_fresh([*argv, "-o", str(tmp_path / "out.json")])
    assert code == 0
    assert modules == expected_modules(argv)


@pytest.mark.parametrize("log", ["", "info"])
@pytest.mark.parametrize("argv, golden, line", [
    (["solve", "finite", "-i", "gen_finite.json"], "solve_finite.json",
     "INFO riskplan: solved finite horizon K=3, n=6, total="),
    (["simulate", "-i", "gen_finite.json", "-p", "solve_finite.json", "--trials", "2000", "--seed", "5"],
     "simulate.json", "INFO riskplan: simulated 2000 trials: mean="),
], ids=["solve-finite", "simulate"])
def test_log_lines_go_to_stderr_only(argv, golden, line, log):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    proc = fresh(MAIN, *argv, log=log)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / golden).read_text(encoding="utf-8")
    if log:
        assert proc.stderr.startswith(line) and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""


@pytest.mark.parametrize("case", ["gen_finite", "solve_finite"])
def test_main_writes_the_golden_bytes(case, tmp_path):
    argv, written = case_argv(case, tmp_path)
    proc = fresh(MAIN, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("argv, code, error", [
    (["convert", "--rho", "0.5", "--phi", "0.5"], 0, ""),
    (["convert", "--distance", "nan", "--phi", "0.5"], 1,
     "riskplan: error: distance must be non-negative, got nan\n"),
    (["simulate", "-i", "gen_finite.json", "-p", "solve_finite.json", "--trials", "10000001", "--seed", "1"], 2,
     "riskplan: scale limit: 10,000,001 trials exceed the limit of 10,000,000\n"),
    (["convert", "--phi", "0.5", "--bogus"], 64, None),
], ids=["ok", "error", "scale-limit", "usage"])
def test_main_exit_codes(argv, code, error):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    proc = fresh(MAIN, *argv)
    assert proc.returncode == code, proc.stderr
    if error is None:
        assert proc.stderr.splitlines()[-1].startswith("riskplan: error: unrecognized arguments: --bogus")
    else:
        assert proc.stderr == error


@pytest.mark.parametrize("entry, frozen", [("main", True), ("run_cli", False)])
def test_only_main_freezes_the_heap(entry, frozen, tmp_path):
    proc = fresh(FREEZE, entry, "convert", "--rho", "0.5", "--phi", "0.5", "-o", str(tmp_path / "out.json"))
    assert proc.returncode == 0, proc.stderr
    code, count = json.loads(proc.stdout)
    assert code == 0
    assert (count > 0) == frozen


def test_every_subcommand_is_run():
    argvs = [CASES[case].split() for case in CASES] + list(EXTRA.values())
    assert set(map(command_of, argvs)) == set(LOADS)


def test_import_riskplan_loads_no_submodule():
    proc = fresh("import sys, riskplan; print(sorted(m for m in sys.modules if m.startswith('riskplan')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['riskplan']"


def test_exports_are_the_submodules_own_objects():
    assert sorted(riskplan.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"riskplan.{module}")
        for name in names:
            assert getattr(riskplan, name) is getattr(sub, name), name
    assert set(riskplan.__all__) <= set(dir(riskplan))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        riskplan.no_such_name
    from riskplan import cli  # a submodule, not an export

    assert cli is sys.modules["riskplan.cli"]
