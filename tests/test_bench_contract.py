"""Names the benchmark's tracer relies on.

``perfbench/tracing.py`` times each layer by replacing module attributes,
looked up by name, with wrappers, and it reads a few attributes of the
values they return.  A rename, or a command that stops calling through
the module attribute, would not fail the benchmark: it would silently drop
that layer from the per-layer breakdown.  These tests pin the names and
check that ``gen`` and ``solve finite`` still route through them.
"""

from __future__ import annotations

import builtins
import inspect
from pathlib import Path

import pytest

from riskplan import cli, expectation, finite_solver, infinite_solver, mdp, model, multiagent, oracle_sim

WRAPPED = [
    (cli, "_load_json"),
    (cli, "_emit"),
    (cli, "generate_instance"),
    (cli, "instance_to_dict"),
    (cli, "instance_from_dict"),
    (cli, "ensure_valid"),
    (cli, "plan_to_dict"),
    (cli, "plan_from_dict"),
    (model, "instance_from_dict"),
    (model, "ensure_valid"),
    (finite_solver, "solve_finite"),
    (finite_solver, "solve_finite_heterogeneous"),
    (expectation, "evaluate_mission"),
    (oracle_sim, "simulate_mission"),
    (oracle_sim, "brute_force_finite"),
    (mdp, "best_stationary_policy"),
    (infinite_solver, "solve_infinite"),
    (multiagent, "greedy_rtpd"),
    (multiagent, "simulate_team_mission"),
]


def name_of(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


@pytest.mark.parametrize("module, attr", WRAPPED, ids=[name_of(m, a) for m, a in WRAPPED])
def test_wrapped_names_exist(module, attr):
    assert callable(getattr(module, attr))


def test_emit_takes_doc_and_output():
    # the tracer sizes the written file from the second positional argument
    assert list(inspect.signature(cli._emit).parameters) == ["doc", "output"]


@pytest.fixture
def calls(monkeypatch):
    """Record every call through the wrapped names, the way the tracer does."""
    log: list[tuple[str, tuple, object]] = []
    for module, attr in WRAPPED:
        fn = getattr(module, attr)

        def recorded(*args, _fn=fn, _name=name_of(module, attr), **kwargs):
            result = _fn(*args, **kwargs)
            log.append((_name, args, result))
            return result

        monkeypatch.setattr(module, attr, recorded)

    # The tracer shadows ``open`` in the cli module to time the --csv report.
    def recorded_open(*args, **kwargs):
        log.append(("cli.open", args, None))
        return builtins.open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", recorded_open, raising=False)
    return log


def test_gen_routes_through_wrapped_names(calls, tmp_path):
    out = tmp_path / "instance.json"
    assert cli.run_cli(["gen", "-n", "7", "-K", "3", "--seed", "1", "-o", str(out)]) == 0
    names = [name for name, _, _ in calls]
    assert names == ["cli.ensure_valid", "cli.generate_instance", "cli.instance_to_dict", "cli._emit"]
    _, emit_args, _ = calls[-1]
    assert emit_args[1] == str(out) and out.stat().st_size > 0
    _, (instance,), _ = calls[2]
    assert len(instance.packages) == 7


def test_solve_finite_routes_through_wrapped_names(calls, tmp_path):
    path = tmp_path / "instance.json"
    assert cli.run_cli(["gen", "-n", "7", "-K", "3", "--seed", "1", "-o", str(path)]) == 0
    # A homogeneous instance and one with per-epoch catalogs take the same
    # path: one call of the one solver.  The tracer still wraps the old
    # per-epoch name, which must resolve.
    per_epoch = Path(__file__).parent / "golden" / "per_epoch_instance.json"
    assert (finite_solver, "solve_finite_heterogeneous") in WRAPPED
    for instance_path, n in ((path, 7), (per_epoch, 6)):
        calls.clear()
        csv_path = tmp_path / "report.csv"
        assert cli.run_cli(["solve", "finite", "-i", str(instance_path), "-o", str(tmp_path / "out.json"),
                            "--csv", str(csv_path)]) == 0
        names = [name for name, _, _ in calls]
        for expected in ("cli._load_json", "cli.instance_from_dict", "cli.ensure_valid",
                         "cli.plan_to_dict", "cli._emit", "expectation.evaluate_mission"):
            assert expected in names
        assert names.count("finite_solver.solve_finite") == 1
        assert "finite_solver.solve_finite_heterogeneous" not in names
        assert [args for name, args, _ in calls if name == "cli.open"] == [(str(csv_path), "w")]
        instance = next(result for name, _, result in calls if name == "cli.instance_from_dict")
        assert len(instance.packages) == n
        report = next(result for name, _, result in calls if name == "finite_solver.solve_finite")
        assert len(report.plan.plans) == 3
    assert callable(finite_solver.solve_finite_heterogeneous)
