"""Byte-for-byte CLI outputs.

Each case runs one subcommand on inputs from ``tests/golden/`` and compares
every file it writes with the file of the same name there.  In a case,
``<name`` reads ``tests/golden/name`` and ``>name`` writes ``name`` to a
temporary directory, to be compared with ``tests/golden/name``.

The expected files pin the output format (layout, 17-significant-digit
floats, integral floats written as integers) and the numbers.  Regenerate
them only for a deliberate change of either, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from riskplan.cli import run_cli

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "gen_finite": "gen -n 6 -K 3 --seed 42 -o >gen_finite.json",
    "gen_infinite": "gen -n 5 --infinite --seed 7 --theta-range 0,2 -o >gen_infinite.json",
    "solve_finite": "solve finite -i <gen_finite.json -o >solve_finite.json --csv >solve_finite.csv",
    "solve_finite_per_epoch": ("solve finite -i <per_epoch_instance.json -o >solve_finite_per_epoch.json"
                               " --csv >solve_finite_per_epoch.csv"),
    "solve_infinite": "solve infinite -i <gen_infinite.json -o >solve_infinite.json",
    "simulate": ("simulate -i <gen_finite.json -p <solve_finite.json --trials 2000 --seed 5 --shards 2"
                 " -o >simulate.json"),
    "simulate_per_epoch": ("simulate -i <per_epoch_instance.json -p <solve_finite_per_epoch.json"
                           " --trials 3000 --seed 9 --shards 3 -o >simulate_per_epoch.json"),
    "simulate_stationary": ("simulate -i <gen_infinite.json -p <stationary_plan.json --trials 2000 --seed 4"
                            " -o >simulate_stationary.json"),
    "team_greedy": "team greedy -i <gen_finite.json --agents 2 --seed 3 --trials 500 -o >team_greedy.json",
    "team_greedy_per_epoch": ("team greedy -i <per_epoch_instance.json --agents 3 --seed 3 --trials 500"
                              " -o >team_greedy_per_epoch.json"),
    "oracle_per_epoch": "oracle -i <per_epoch_instance.json -o >oracle_per_epoch.json",
    "mdp_eval": "mdp-eval -i <mdp_instance.json -o >mdp_eval.json",
    "mdp_eval_action": "mdp-eval -i <mdp_instance.json --action 1100101 -o >mdp_eval_action.json",
}


def case_argv(case: str, out_dir: Path) -> tuple[list[str], list[str]]:
    """One case's arguments, writing into ``out_dir``, and the names it writes."""
    argv, written = [], []
    for token in CASES[case].split():
        if token.startswith("<"):
            token = str(GOLDEN / token[1:])
        elif token.startswith(">"):
            written.append(token[1:])
            token = str(out_dir / token[1:])
        argv.append(token)
    return argv, written


def run_case(case: str, out_dir: Path) -> list[str]:
    """Run one case, writing into ``out_dir``; return the written names."""
    argv, written = case_argv(case, out_dir)
    assert run_cli(argv) == 0
    return written


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_golden(case, tmp_path, capsys):
    for name in run_case(case, tmp_path):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
    assert capsys.readouterr().out == ""


def test_stdout_matches_golden(capsys):
    assert run_cli(["gen", "-n", "6", "-K", "3", "--seed", "42"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / "gen_finite.json").read_bytes()


if __name__ == "__main__":
    # Cases read earlier cases' outputs, so write them in declaration order.
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for name in run_case(case, Path(tmp)):
                shutil.copyfile(Path(tmp) / name, GOLDEN / name)
                print(f"wrote {GOLDEN / name}", file=sys.stderr)
