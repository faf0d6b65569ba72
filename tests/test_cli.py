import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from riskplan import (
    MAX_EPOCHS,
    Horizon,
    Instance,
    evaluate_mission,
    finite_solver,
    instance_from_dict,
    plan_from_dict,
)
from riskplan import cli, coltext, mdp, multiagent, oracle_sim
from riskplan.cli import GeneratorSpec, dump_json, generate_instance, run_cli
from riskplan.errors import InvalidRangeError
from riskplan.model import UNBOUNDED, PackageTable, instance_to_dict

SRC = str(Path(cli.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).parent / "golden"


def write_instance(tmp_path, doc, name="instance.json"):
    path = tmp_path / name
    path.write_text(dump_json(doc))
    return str(path)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SINGLE = {
    "theta": 1.0,
    "horizon": "infinite",
    "packages": [{"id": 0, "reward": 10.0, "rho": 0.9}],
}

FINITE2 = {
    "theta": 0.5,
    "horizon": {"finite": 2},
    "packages": [
        {"id": 0, "reward": 10.0, "rho": 0.9},
        {"id": 1, "reward": 1.0, "rho": 0.6},
    ],
}


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code = run_cli(["gen", "-n", "5", "-K", "3", "--seed", "42", "-o", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_catalog_is_valid(self):
        inst = generate_instance(GeneratorSpec(n=0, epochs=2, seed=1))
        assert inst.packages == ()

    def test_large_instance_validates(self):
        from riskplan import validate_instance
        inst = generate_instance(GeneratorSpec(n=1000, epochs=5, seed=42))
        assert validate_instance(inst) == []

    def test_bad_range_rejected(self):
        with pytest.raises(InvalidRangeError):
            generate_instance(GeneratorSpec(n=1, epochs=1, rho_range=(0.5, 1.5), seed=0))
        with pytest.raises(InvalidRangeError):
            generate_instance(GeneratorSpec(n=1, epochs=1, theta_range=(3.0, 2.0), seed=0))

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(InvalidRangeError, match="seed must be non-negative, got -5"):
            generate_instance(GeneratorSpec(n=3, epochs=2, seed=-5))
        assert run(capsys, "gen", "-n", "3", "-K", "2", "--seed", "-5") == (
            1, "", "riskplan: error: seed must be non-negative, got -5\n")

    def test_gen_requires_horizon_choice(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "-n", "2", "--seed", "1")
        assert code == 1
        assert "epochs" in err or "infinite" in err

    def test_package_count_beyond_the_limit_is_a_scale_limit(self, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("the generator drew")

        monkeypatch.setattr(np.random, "default_rng", never)
        limit = cli.MAX_GENERATED_PACKAGES
        for n in (limit + 1, 10**11):
            assert run(capsys, "gen", "-n", str(n), "-K", "1", "--seed", "1") == (
                2, "", f"riskplan: scale limit: {n:,} packages exceed the generator's limit of {limit:,}\n")

    def test_gen_rejects_both_horizons(self, capsys):
        code, out, err = run(capsys, "gen", "-n", "2", "-K", "2", "--infinite", "--seed", "1")
        assert (code, out) == (64, "")
        assert "--infinite: not allowed with argument -K/--epochs" in err


class TestSolveCommands:
    def test_solve_infinite_derived_value(self, tmp_path, capsys):
        path = write_instance(tmp_path, SINGLE)
        code, out, _ = run(capsys, "solve", "infinite", "-i", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["chosen"] == 0
        assert math.isclose(doc["total"], 9 / 0.19 - 1.0, rel_tol=1e-12)

    def test_solve_finite_report_and_roundtrip(self, tmp_path, capsys):
        path = write_instance(tmp_path, FINITE2)
        code, out, _ = run(capsys, "solve", "finite", "-i", path)
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["total"], 16.301758, rel_tol=1e-9)
        assert doc["plans"] == [[0], [0, 1]]
        assert len(doc["values"]) == 3
        assert len(doc["thresholds"]) == 2
        # re-read the emitted plan and reproduce the total
        inst = instance_from_dict(FINITE2)
        plan = plan_from_dict({"plans": doc["plans"]})
        assert math.isclose(evaluate_mission(plan, inst).total, doc["total"], rel_tol=1e-9)

    def test_solve_finite_csv(self, tmp_path, capsys):
        path = write_instance(tmp_path, FINITE2)
        csv_path = tmp_path / "report.csv"
        code, _, _ = run(capsys, "solve", "finite", "-i", path, "--csv", str(csv_path),
                         "-o", str(tmp_path / "out.json"))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "epoch,V_h,threshold,plan_size,epoch_survival"
        assert len(lines) == 1 + 2  # header + K rows

    def test_solve_finite_on_infinite_instance_fails(self, tmp_path, capsys):
        path = write_instance(tmp_path, SINGLE)
        code, _, err = run(capsys, "solve", "finite", "-i", path)
        assert code == 1
        assert "infinite" in err

    def test_unbounded_total_serializes(self, tmp_path, capsys):
        doc = {"theta": 0.0, "horizon": "infinite",
               "packages": [{"id": 0, "reward": 2.0, "rho": 1.0}]}
        path = write_instance(tmp_path, doc)
        code, out, _ = run(capsys, "solve", "infinite", "-i", path)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["total"] == "unbounded"
        assert parsed["gamma_max"] == "inf"


class TestSimulateAndOracle:
    def test_simulate_mean_matches_analytic(self, tmp_path, capsys):
        inst_doc = {
            "theta": 1.0,
            "horizon": {"finite": 1},
            "packages": [
                {"id": 0, "reward": 4.0, "rho": 0.9},
                {"id": 1, "reward": 2.0, "rho": 0.8},
            ],
        }
        ipath = write_instance(tmp_path, inst_doc)
        ppath = write_instance(tmp_path, {"plans": [[0, 1]]}, name="plan.json")
        code, out, _ = run(capsys, "simulate", "-i", ipath, "-p", ppath,
                           "--trials", "100000", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["mean"] - 4.4144) <= 4 * doc["std_error"]

    def test_simulate_requires_seed(self, tmp_path, capsys):
        ipath = write_instance(tmp_path, FINITE2)
        ppath = write_instance(tmp_path, {"plans": [[0], [0]]}, name="plan.json")
        code, _, _ = run(capsys, "simulate", "-i", ipath, "-p", ppath, "--trials", "10")
        assert code == 64

    def test_oracle_command(self, tmp_path, capsys):
        path = write_instance(tmp_path, FINITE2)
        code, out, _ = run(capsys, "oracle", "-i", path)
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["value"], 16.301758, rel_tol=1e-9)
        assert doc["plans"] == [[0], [0, 1]]

    def test_oracle_scale_limit_exit_code(self, tmp_path, capsys):
        doc = {
            "theta": 0.0,
            "horizon": {"finite": 3},
            "packages": [{"id": i, "reward": 1.0, "rho": 0.5} for i in range(5)],
        }
        path = write_instance(tmp_path, doc)
        code, _, err = run(capsys, "oracle", "-i", path)
        assert code == 2
        assert "scale limit" in err

    def test_trials_beyond_the_limit_exit_code(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("a team epoch plan was built")

        monkeypatch.setattr(multiagent, "_greedy_epoch_plan", never)  # team greedy refuses first
        ipath = write_instance(tmp_path, FINITE2)
        ppath = write_instance(tmp_path, {"plans": [[0], [0]]}, name="plan.json")
        limit = oracle_sim.MAX_TRIALS
        message = f"riskplan: scale limit: {limit + 1:,} trials exceed the limit of {limit:,}\n"
        for argv in (["simulate", "-p", ppath], ["team", "greedy", "--agents", "2"]):
            got = run(capsys, *argv, "-i", ipath, "--trials", str(limit + 1), "--seed", "1")
            assert got == (2, "", message)


class TestOtherCommands:
    def test_mdp_eval_single_action(self, tmp_path, capsys):
        path = write_instance(tmp_path, SINGLE)
        code, out, _ = run(capsys, "mdp-eval", "-i", path, "--action", "1")
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["value"], 8.81 / 0.19, rel_tol=1e-9)

    def test_mdp_eval_enumerates(self, tmp_path, capsys):
        path = write_instance(tmp_path, SINGLE)
        code, out, _ = run(capsys, "mdp-eval", "-i", path)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["actions"]) == 2
        assert doc["best"]["action"] == "1"

    def test_convert_forward_and_back(self, capsys):
        code, out, _ = run(capsys, "convert", "--rho", "0.7", "--phi", "0.9")
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["distance"], math.log(0.7) / math.log(0.9), rel_tol=1e-12)
        code, out, _ = run(capsys, "convert", "--distance", str(doc["distance"]), "--phi", "0.9")
        assert code == 0
        assert math.isclose(json.loads(out)["rho"], 0.7, rel_tol=0, abs_tol=1e-12)

    def test_convert_rejects_a_nan_distance(self, capsys):
        assert run(capsys, "convert", "--distance", "nan", "--phi", "0.5") == (
            1, "", "riskplan: error: distance must be non-negative, got nan\n")

    def test_convert_needs_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "convert", "--phi", "0.9")
        assert code == 1
        code, _, _ = run(capsys, "convert", "--rho", "0.5", "--distance", "1", "--phi", "0.9")
        assert code == 1

    def test_pbd_both_methods_agree(self, capsys):
        code, out_enum, _ = run(capsys, "pbd", "--probs", "0.3,0.7", "--method", "enum")
        assert code == 0
        code, out_dft, _ = run(capsys, "pbd", "--probs", "0.3,0.7", "--method", "dft")
        assert code == 0
        enum_doc = json.loads(out_enum)
        dft_doc = json.loads(out_dft)
        for a, b in zip(enum_doc["pmf"], dft_doc["pmf"]):
            assert abs(a - b) < 1e-10
        assert math.isclose(enum_doc["mean"], 1.0, rel_tol=1e-12)

    def test_team_greedy(self, tmp_path, capsys):
        path = write_instance(tmp_path, FINITE2)
        code, out, _ = run(capsys, "team", "greedy", "-i", path,
                           "--agents", "2", "--seed", "3", "--trials", "5000")
        assert code == 0
        doc = json.loads(out)
        assert "value" in doc and "plans" in doc
        assert abs(doc["value"] - doc["analytic_value"]) <= 6 * doc["sim"]["std_error"]

    def test_team_greedy_requires_seed(self, tmp_path, capsys):
        path = write_instance(tmp_path, FINITE2)
        code, _, _ = run(capsys, "team", "greedy", "-i", path, "--agents", "2")
        assert code == 64

    @pytest.mark.parametrize("agents, code, message", [
        ("0", 1, "riskplan: error: agents must be positive, got 0"),
        ("-1", 1, "riskplan: error: agents must be positive, got -1"),
        ("9", 2, "riskplan: scale limit: agents must be in 1..8, got 9"),
    ])
    def test_team_greedy_agent_count(self, tmp_path, capsys, agents, code, message):
        path = write_instance(tmp_path, FINITE2)
        got, out, err = run(capsys, "team", "greedy", "-i", path, "--agents", agents, "--seed", "1")
        assert (got, out, err) == (code, "", message + "\n")


class TestErrorPaths:
    def test_missing_input_file(self, capsys):
        code, out, err = run(capsys, "solve", "finite", "-i", "/nonexistent/x.json")
        assert code == 1
        assert "/nonexistent/x.json" in err
        assert out == ""

    def test_invalid_instance(self, tmp_path, capsys):
        doc = {"theta": -2.0, "horizon": {"finite": 1},
               "packages": [{"id": 0, "reward": 1.0, "rho": 0.5}]}
        path = write_instance(tmp_path, doc)
        code, _, err = run(capsys, "solve", "finite", "-i", path)
        assert code == 1
        assert "theta" in err

    @pytest.mark.parametrize("bad_id", [2**64, 2**63, True, -(2**63) - 1])
    def test_unrepresentable_id_is_a_violation(self, tmp_path, capsys, bad_id):
        doc = {"theta": 1.0, "horizon": {"finite": 1},
               "packages": [{"id": 0, "reward": 1.0, "rho": 0.5},
                            {"id": bad_id, "reward": 1.0, "rho": 0.5}]}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "finite", "-i", str(path))
        assert code == 1
        assert out == ""
        assert "invalid_id" in err and str(bad_id) in err
        assert "Traceback" not in err

    def test_largest_id_is_accepted(self, tmp_path, capsys):
        doc = {"theta": 0.0, "horizon": {"finite": 1},
               "packages": [{"id": 2**63 - 1, "reward": 1.0, "rho": 0.5}]}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "solve", "finite", "-i", str(path))
        assert code == 0
        assert json.loads(out)["plans"] == [[2**63 - 1]]

    @pytest.mark.parametrize("doc", [
        dict(FINITE2, packages=5),
        {key: value for key, value in FINITE2.items() if key != "horizon"},
    ], ids=["packages-not-a-list", "no-horizon"])
    def test_malformed_document_has_its_own_code(self, tmp_path, capsys, doc):
        path = write_instance(tmp_path, doc)
        code, out, err = run(capsys, "solve", "finite", "-i", path)
        assert code == 1
        assert out == ""
        assert "malformed_document: malformed instance document" in err
        assert "horizon_mismatch" not in err and "Traceback" not in err

    def test_theta_beyond_the_float_range_is_malformed(self, tmp_path, capsys):
        path = write_instance(tmp_path, dict(FINITE2, theta=10**400))
        code, out, err = run(capsys, "solve", "finite", "-i", path)
        assert code == 1 and out == ""
        assert "malformed_document" in err and "Traceback" not in err

    # theta follows the rule for ``reward``: a JSON int or float, never a
    # boolean or a string read through float().
    @pytest.mark.parametrize("theta", ["2.5", True, None, [1]])
    def test_theta_that_is_not_a_number_is_malformed(self, tmp_path, capsys, theta):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(dict(FINITE2, theta=theta)))
        code, out, err = run(capsys, "solve", "finite", "-i", str(path))
        assert code == 1 and out == ""
        assert "malformed_document" in err and f"theta must be a real number, got {theta!r}" in err
        assert "Traceback" not in err

    def test_integral_theta_solves_as_its_float(self, tmp_path, capsys):
        outputs = []
        for theta in (3, 3.0):
            path = tmp_path / "instance.json"
            path.write_text(json.dumps(dict(FINITE2, theta=theta)))
            code, out, _ = run(capsys, "solve", "finite", "-i", str(path))
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("horizon, plan, message", [
        ({"finite": 3}, {"plans": [[0]]}, "plan has 1 epochs but horizon is 3"),
        ("infinite", {"plans": [[0], [0, 1]]}, "finite plan cannot be evaluated on an infinite horizon"),
    ], ids=["short-plan", "finite-plan-infinite-horizon"])
    def test_simulated_plan_must_match_the_horizon(self, tmp_path, capsys, horizon, plan, message):
        # the checks evaluate_mission makes, for instances without catalogs
        ipath = write_instance(tmp_path, dict(FINITE2, horizon=horizon))
        ppath = tmp_path / "plan.json"
        ppath.write_text(json.dumps(plan))
        code, out, err = run(capsys, "simulate", "-i", ipath, "-p", str(ppath), "--trials", "10", "--seed", "1")
        assert code == 1 and out == ""
        assert f"riskplan: error: {message}" in err

    def test_plan_id_outside_its_epoch_catalog(self, tmp_path, capsys):
        # Package 2 exists, but epoch 1's catalog is [0, 1, 9].
        ppath = tmp_path / "plan.json"
        ppath.write_text(json.dumps({"plans": [[2], [], []]}))
        code, out, err = run(capsys, "simulate", "-i", str(GOLDEN / "per_epoch_instance.json"),
                             "-p", str(ppath), "--trials", "3", "--seed", "1")
        assert code == 1 and out == ""
        assert err == "riskplan: error: package 2 is not available in epoch 1\n"

    @pytest.mark.parametrize("flag", ["-i", "-p"])
    def test_deeply_nested_document_is_one_error_line(self, tmp_path, capsys, flag):
        paths = {"-i": tmp_path / "instance.json", "-p": tmp_path / "plan.json"}
        paths["-i"].write_text(json.dumps(FINITE2))
        paths["-p"].write_text(json.dumps({"plans": [[0], [1]]}))
        paths[flag].write_text(nested_text({}, "packages" if flag == "-i" else "plans", 10**5))
        code, out, err = run(capsys, "simulate", "-i", str(paths["-i"]), "-p", str(paths["-p"]),
                             "--trials", "3", "--seed", "1")
        assert code == 1 and out == ""
        assert err == f"riskplan: error: malformed JSON document {paths[flag]}: nested too deeply\n"

    def test_reader_that_closes_early_is_one_error_line(self):
        # Output that cannot be written is exit code 1, a broken pipe too.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-m", "riskplan.cli", "gen", "-n", "100000", "-K", "1",
                                 "--seed", "1"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(20)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert head.startswith(b"{")
        assert proc.returncode == 1
        assert err == b"riskplan: error: [Errno 32] Broken pipe\n"

    def test_stationary_plan_on_a_huge_horizon_is_a_scale_limit(self, tmp_path, capsys):
        # The stationary plan used to be copied K times before anything
        # looked at K: an OverflowError at K = 1e300, memory exhaustion at 1e9.
        ipath = write_instance(tmp_path, dict(FINITE2, horizon={"finite": 1e300}))
        ppath = tmp_path / "plan.json"
        ppath.write_text(json.dumps({"stationary": [0]}))
        code, out, err = run(capsys, "simulate", "-i", ipath, "-p", str(ppath), "--trials", "3", "--seed", "1")
        assert code == 2 and out == ""
        assert "scale limit" in err and f"{MAX_EPOCHS:,}" in err

    @pytest.mark.parametrize("epochs", [2.7, True, "2", 0, -1.0, float("nan")])
    def test_bad_horizon_is_rejected(self, tmp_path, capsys, epochs):
        doc = dict(FINITE2, horizon={"finite": epochs})
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "finite", "-i", str(path))
        assert code == 1
        assert out == ""
        assert "horizon" in err

    def test_integral_float_horizon_is_accepted(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(dict(FINITE2, horizon={"finite": 2.0})))
        code, out, _ = run(capsys, "solve", "finite", "-i", str(path))
        assert code == 0
        assert json.loads(out)["plans"] == [[0], [0, 1]]

    def test_huge_horizon_is_a_scale_limit(self, tmp_path, capsys, monkeypatch):
        # Stand-in for the first step after the check, so that a missing
        # check fails here instead of allocating 10^9-entry lists.
        def past_the_check(instance):
            raise AssertionError("solve finite went past the epoch limit")

        monkeypatch.setattr(finite_solver, "_sorted_package_arrays", past_the_check)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(dict(FINITE2, horizon={"finite": 1e9})))
        code, out, err = run(capsys, "solve", "finite", "-i", str(path))
        assert code == 2
        assert out == ""
        assert "scale limit" in err and f"{MAX_EPOCHS:,}" in err

    # Catalog and plan ids follow the package-id rule: an integer in int64
    # range, never a boolean, never a float or string read through int().
    BAD_LISTED_IDS = [True, 1.9, 1.0, "1", 2**63, -(2**63) - 1, None]

    @pytest.mark.parametrize("bad_id", BAD_LISTED_IDS)
    def test_bad_catalog_id_is_a_violation(self, tmp_path, capsys, bad_id):
        doc = dict(FINITE2, per_epoch_packages=[[0, bad_id], [1]])
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "solve", "finite", "-i", str(path))
        assert code == 1
        assert out == ""
        assert "invalid_id" in err and "epoch 1 catalog id" in err and f"got {bad_id!r}" in err
        assert "Traceback" not in err

    def test_good_catalog_ids_solve(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(dict(FINITE2, per_epoch_packages=[[1], [0, 1]])))
        code, out, _ = run(capsys, "solve", "finite", "-i", str(path))
        assert code == 0
        assert json.loads(out)["plans"] == [[], [0, 1]]

    @pytest.mark.parametrize("bad_id", BAD_LISTED_IDS)
    @pytest.mark.parametrize("key", ["plans", "stationary"])
    def test_bad_plan_id_is_rejected(self, tmp_path, capsys, bad_id, key):
        ipath = write_instance(tmp_path, FINITE2)
        plan = {"plans": [[0], [bad_id]]} if key == "plans" else {"stationary": [bad_id]}
        ppath = tmp_path / "plan.json"
        ppath.write_text(json.dumps(plan))
        code, out, err = run(capsys, "simulate", "-i", ipath, "-p", str(ppath),
                             "--trials", "10", "--seed", "1")
        assert code == 1
        assert out == ""
        where = "epoch 2 plan id" if key == "plans" else "stationary plan id"
        assert where in err and f"got {bad_id!r}" in err

    @pytest.mark.parametrize("plan", [{"plans": [0, 1]}, {"stationary": 3}, [1, 2]])
    def test_malformed_plan_is_rejected(self, tmp_path, capsys, plan):
        ipath = write_instance(tmp_path, FINITE2)
        ppath = tmp_path / "plan.json"
        ppath.write_text(json.dumps(plan))
        code, out, err = run(capsys, "simulate", "-i", ipath, "-p", str(ppath),
                             "--trials", "10", "--seed", "1")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err

    def test_output_path_that_is_a_directory(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "-n", "3", "-K", "1", "--seed", "1", "-o", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("riskplan: error: ") and str(tmp_path) in err

    def test_csv_path_that_is_a_directory(self, tmp_path, capsys):
        path = write_instance(tmp_path, FINITE2)
        code, out, err = run(capsys, "solve", "finite", "-i", path, "-o", str(tmp_path / "out.json"),
                             "--csv", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("riskplan: error: ") and str(tmp_path) in err

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "finite", "--bogus")
        assert code == 64

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 64

    @pytest.mark.parametrize("command, doc, module, name", [
        ("mdp-eval", SINGLE, mdp, "policy_values"),
        ("oracle", FINITE2, oracle_sim, "evaluate_mission"),
    ], ids=["mdp-eval", "oracle"])
    def test_numerical_failure_is_an_error(self, tmp_path, capsys, monkeypatch, command, doc, module, name):
        # Stands in for value iteration that does not converge, or a
        # brute-force fold that disagrees with evaluate_mission.
        def fail(*args, **kwargs):
            raise ArithmeticError("values disagree")

        monkeypatch.setattr(module, name, fail)
        code, out, err = run(capsys, command, "-i", write_instance(tmp_path, doc))
        assert code == 1
        assert out == ""
        assert err == "riskplan: error: values disagree\n"

    # Two rewards of 1.5e308 sum to inf: `oracle` used to report a value of
    # "inf", `solve finite` a total of "inf" with numpy warnings, and
    # `mdp-eval` swept for seconds before failing.
    OVERFLOWING = [{"id": 0, "reward": 1.5e308, "rho": 0.9}, {"id": 1, "reward": 1.5e308, "rho": 0.9},
                   {"id": 2, "reward": 1.0, "rho": 0.0}]
    REWARD_OVERFLOW = "invalid instance: reward_overflow: package rewards sum to inf"
    # One reward of 1e307 is valid, but a stationary plan collects it until
    # the totals pass the largest double: `simulate` used to report a mean
    # of "inf" and a std_error of "nan", with a numpy warning.
    ONE_LARGE = [{"id": 0, "reward": 1e307, "rho": 0.9999}]

    @pytest.mark.parametrize("command, horizon, packages, message", [
        (["solve", "finite"], {"finite": 2}, OVERFLOWING, REWARD_OVERFLOW),
        (["oracle"], {"finite": 2}, OVERFLOWING, REWARD_OVERFLOW),
        (["mdp-eval"], "infinite", OVERFLOWING, REWARD_OVERFLOW),
        (["simulate", "-p", "{plan}", "--trials", "20", "--seed", "1"], "infinite", ONE_LARGE,
         "simulated mission totals pass the largest double"),
    ], ids=["solve-finite", "oracle", "mdp-eval", "simulate-stationary"])
    def test_rewards_that_overflow_are_rejected(self, tmp_path, capsys, command, horizon, packages, message):
        path = write_instance(tmp_path, {"theta": 1.0, "horizon": horizon, "packages": packages})
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"stationary": [0]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *(arg.format(plan=plan) for arg in command), "-i", path)
        assert code == 1 and out == "" and not caught
        assert err.startswith(f"riskplan: error: {message}")
        assert "Traceback" not in err


# --- fuzzed documents through the CLI -------------------------------------------

# Numbers at the edges of what the documents accept, and values of the wrong
# JSON type.  Horizons stay at K <= 3 or above the epoch cap, so no command
# allocates per-epoch state for a long mission.
EDGE_VALUES = [0, 1, -1, 0.5, 1.0, 2.7, -0.0, 5e-324, 1e300, 2**63, -(2**63) - 1, 10**400,
               float("nan"), float("inf"), float("-inf"), True, False, "1", "", None, [], {}]
EDGE_EPOCHS = [0, -1, 1.0, 3.0, 2.7, 1e300, 2**63, 10**400, MAX_EPOCHS + 1, True, "2", None, float("nan")]

junk = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
odd_values = st.one_of(st.sampled_from(EDGE_VALUES), junk)


@st.composite
def mutated_instance_docs(draw):
    """A valid instance document (at most 20 packages, K <= 3) with up to
    three of its values replaced by edge values or junk, or keys dropped."""
    n = draw(st.integers(0, 20))
    doc = {
        "theta": draw(st.floats(0, 5)),
        "horizon": {"finite": draw(st.integers(1, 3))} if draw(st.integers(0, 4)) else "infinite",
        "packages": [{"id": i, "reward": draw(st.floats(0, 10)), "rho": draw(st.floats(0, 1))}
                     for i in range(n)],
    }
    if doc["horizon"] != "infinite" and draw(st.booleans()):
        doc["per_epoch_packages"] = [draw(st.lists(st.integers(0, n - 1), max_size=6)) if n else []
                                     for _ in range(doc["horizon"]["finite"])]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 1, 2, 3]))):
        where = draw(st.sampled_from(["theta", "horizon", "finite", "packages", "package", "field",
                                      "per_epoch_packages", "catalog"]))
        value = draw(st.sampled_from(EDGE_EPOCHS) if where == "finite" else odd_values)
        if where in ("theta", "horizon", "packages", "per_epoch_packages"):
            if draw(st.booleans()):
                doc[where] = value
            else:
                doc.pop(where, None)
        elif where == "finite" and isinstance(doc.get("horizon"), dict):
            doc["horizon"]["finite"] = value
        elif where in ("package", "field") and isinstance(doc.get("packages"), list) and doc["packages"]:
            i = draw(st.integers(0, len(doc["packages"]) - 1))
            if where == "package":
                doc["packages"][i] = value
            elif isinstance(doc["packages"][i], dict):
                doc["packages"][i][draw(st.sampled_from(["id", "reward", "rho"]))] = value
        elif where == "catalog" and isinstance(doc.get("per_epoch_packages"), list) and doc["per_epoch_packages"]:
            doc["per_epoch_packages"][draw(st.integers(0, len(doc["per_epoch_packages"]) - 1))] = value
    return doc


def nested_text(doc: dict, key: str, depth: int) -> str:
    """``doc`` as JSON text with ``key`` holding lists nested ``depth`` deep,
    which ``json.dumps`` cannot write past its recursion limit."""
    return json.dumps({**doc, key: "@"}).replace('"@"', "[" * depth + "]" * depth)


NESTING_DEPTHS = [2, 900, 1000, 3000, 10**5]
nested_instance_docs = st.builds(nested_text, st.just(FINITE2),
                                 st.sampled_from(["packages", "theta", "horizon", "per_epoch_packages"]),
                                 st.sampled_from(NESTING_DEPTHS))
instance_docs = st.one_of(mutated_instance_docs(), mutated_instance_docs(), mutated_instance_docs(), junk,
                          nested_instance_docs)


plan_ids = st.one_of(st.integers(0, 5), st.integers(0, 20), odd_values)
plan_docs = st.one_of(
    st.builds(lambda plans: {"plans": plans}, st.lists(st.lists(plan_ids, max_size=6, unique_by=repr), max_size=4)),
    st.builds(lambda ids: {"stationary": ids}, st.lists(plan_ids, max_size=6, unique_by=repr)),
    st.dictionaries(st.sampled_from(["plans", "stationary", "x"]), odd_values, max_size=2),
    junk,
    st.builds(nested_text, st.just({}), st.sampled_from(["plans", "stationary"]), st.sampled_from(NESTING_DEPTHS)),
)
COMMANDS = [
    ["solve", "finite"],
    ["simulate", "-p", "PLAN", "--trials", "3", "--seed", "1"],
    ["team", "greedy", "--agents", "2", "--trials", "3", "--seed", "1"],
]


class TestFuzzedDocuments:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instance=instance_docs, plan=plan_docs, command=st.sampled_from(COMMANDS))
    def test_every_exit_is_a_documented_code(self, tmp_path, capsys, instance, plan, command):
        ipath = tmp_path / "instance.json"
        ppath = tmp_path / "plan.json"
        ipath.write_text(instance if isinstance(instance, str) else json.dumps(instance))
        ppath.write_text(plan if isinstance(plan, str) else json.dumps(plan))
        argv = [str(ppath) if arg == "PLAN" else arg for arg in command] + ["-i", str(ipath)]
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2, 64)
        assert "Traceback" not in err
        if code == 0:
            json.loads(out)
        else:
            assert out == "" and err.startswith("riskplan: ")


def generic_flat_dump(seq) -> str:
    """A flat list as ``dump_json`` wrote it before its one-join path: one
    ``dump_json`` call per item."""
    seq = list(seq)
    if not seq:
        return "[]"
    assert all(isinstance(v, (int, float, np.integer, np.floating, str)) for v in seq)
    return "[" + ", ".join(dump_json(v) for v in seq) + "]"


EDGE_LIST_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e308, -1e308, 5e-324,
                    3.0, -7.0, 2.0**53, 0.1]
list_ints = st.integers(-(2**70), 2**70)
list_floats = st.one_of(st.sampled_from(EDGE_LIST_FLOATS), st.floats())
numpy_scalars = st.one_of(
    list_ints.filter(lambda x: -(2**63) <= x < 2**63).map(np.int64),
    list_floats.map(np.float64),
    st.integers(0, 255).map(np.uint8),
)
flat_lists = st.one_of(
    st.lists(list_ints, max_size=20),
    st.lists(list_floats, max_size=20),
    st.lists(st.one_of(list_ints, list_floats), max_size=20),
    st.lists(st.one_of(st.booleans(), list_ints, list_floats, numpy_scalars), max_size=20),
)


class TestDumpJson:
    def test_seventeen_digit_floats_round_trip(self):
        values = [0.1, 1 / 3, 9 / 0.19, 1e-300, 2.5e300]
        text = dump_json(values)
        parsed = json.loads(text)
        assert parsed == values

    def test_markers(self):
        assert dump_json(UNBOUNDED) == '"unbounded"'
        assert dump_json(float("inf")) == '"inf"'
        assert json.loads(dump_json({"a": (1, 2), "b": None})) == {"a": [1, 2], "b": None}

    @settings(deadline=None, max_examples=300)
    @given(seq=flat_lists, container=st.sampled_from([list, tuple]))
    def test_flat_lists_match_the_per_item_path(self, seq, container):
        assert dump_json(container(seq)) == generic_flat_dump(seq)
        # inside a document, at an indent
        assert dump_json({"a": [container(seq)]}) == "{\n  \"a\": [\n    " + generic_flat_dump(seq) + "\n  ]\n}"

    def test_flat_list_fast_path_edges(self):
        assert dump_json([1, 2, 3]) == "[1, 2, 3]"
        assert dump_json([3.0, -0.0, float("nan"), float("-inf")]) == '[3, -0, "nan", "-inf"]'
        assert dump_json([True, 1, 1.5]) == "[true, 1, 1.5]"
        assert dump_json(np.array([1, 2], dtype=np.int64)) == "[1, 2]"

    def test_instance_doc_round_trips(self):
        inst = generate_instance(GeneratorSpec(n=4, epochs=2, seed=9))
        doc = instance_to_dict(inst)
        assert instance_from_dict(json.loads(dump_json(doc))) == inst


# Edge values for the instance writer: integral floats (3.0 is written "3"),
# the smallest subnormal, a huge value, signed zero and the non-finite
# markers, which only invalid instances carry.
EDGE_FLOATS = [3.0, 0.0, -0.0, 1.0, 5e-324, 1e300, 2.5, float("nan"), float("inf"), float("-inf")]
EDGE_IDS = [0, 1, 2**63 - 2, 2**63 - 1]


def generic_dump(doc):
    """``dump_json`` of the document with ``packages`` as a plain list of dicts."""
    return dump_json(dict(doc, packages=list(doc["packages"])))


@st.composite
def edge_instances(draw):
    rows = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from(EDGE_IDS), st.integers(0, 2**63 - 1)),
        st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()),
        st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 0.5]), st.floats(0, 1)),
    ), max_size=12))
    ids, rewards, rhos = zip(*rows) if rows else ((), (), ())
    k = draw(st.one_of(st.none(), st.integers(1, 3)))
    per_epoch = None
    if k is not None and draw(st.booleans()):
        per_epoch = tuple(frozenset(draw(st.sets(st.sampled_from(ids)))) if ids else frozenset()
                          for _ in range(k))
    return Instance(theta=draw(st.sampled_from(EDGE_FLOATS)),
                    horizon=Horizon.infinite() if k is None else Horizon.finite(k),
                    packages=PackageTable(ids, rewards, rhos), per_epoch_packages=per_epoch)


class TestInstanceWriter:
    def test_edge_values(self):
        ids = EDGE_IDS + list(range(10, 10 + len(EDGE_FLOATS) - len(EDGE_IDS)))
        rhos = [0.0, 1.0] * (len(EDGE_FLOATS) // 2)
        inst = Instance(theta=3.0, horizon=Horizon.finite(2),
                        packages=PackageTable(ids, EDGE_FLOATS, rhos))
        doc = instance_to_dict(inst)
        text = dump_json(doc)
        assert text == generic_dump(doc)
        assert '"reward": 3,' in text and '"rho": 0\n' in text and '"rho": 1\n' in text
        assert '"reward": "nan",' in text and f'"id": {2**63 - 1},' in text

    @settings(deadline=None, max_examples=200)
    @given(inst=edge_instances())
    def test_bytes_equal_generic_dump(self, inst):
        doc = instance_to_dict(inst)
        assert dump_json(doc) == generic_dump(doc)
        # deeper indentation, as inside another document
        assert dump_json({"instances": [doc]}) == dump_json({"instances": [dict(doc, packages=list(doc["packages"]))]})

    @settings(deadline=None, max_examples=50)
    @given(inst=edge_instances())
    def test_finite_documents_read_back_equal(self, inst):
        assume(np.isfinite(inst.packages.rewards).all() and math.isfinite(inst.theta))
        assert instance_from_dict(json.loads(dump_json(instance_to_dict(inst)))) == inst


class TestEmitStream:
    """``_emit`` writes an instance's packages a chunk of rows at a time;
    the chunk size is lowered here so that small documents span chunks."""

    CHUNK = 3

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "PACKAGE_CHUNK_ROWS", self.CHUNK)

    @staticmethod
    def doc_of(n, row=None, column=None, value=None):
        rewards, rhos = np.linspace(0.5, 9.5, n), np.linspace(0.1, 0.9, n)
        if row is not None:
            {"reward": rewards, "rho": rhos}[column][row] = value
        inst = Instance(theta=0.25, horizon=Horizon.finite(2),
                        packages=PackageTable(np.arange(n) * 7, rewards, rhos))
        return instance_to_dict(inst)

    def check(self, doc, tmp_path, capsys):
        expected = generic_dump(doc) + "\n"
        path = tmp_path / "out.json"
        cli._emit(doc, str(path))
        assert path.read_text(encoding="utf-8") == expected
        capsys.readouterr()
        cli._emit(doc, None)
        assert capsys.readouterr().out == expected
        nested = {"instances": [doc]}
        assert dump_json(nested) == dump_json({"instances": [dict(doc, packages=list(doc["packages"]))]})

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_finite_values(self, n, tmp_path, capsys):
        self.check(self.doc_of(n), tmp_path, capsys)

    @pytest.mark.parametrize("row", [1, 2 * CHUNK], ids=["first-chunk", "last-chunk"])
    @pytest.mark.parametrize("column, value", [("reward", float("inf")), ("reward", float("nan")),
                                               ("rho", float("nan")), ("rho", float("-inf"))])
    def test_non_finite_value_in_one_chunk(self, row, column, value, tmp_path, capsys):
        doc = self.doc_of(2 * self.CHUNK + 1, row, column, value)
        self.check(doc, tmp_path, capsys)
        assert dump_json(doc).count(cli._fmt_float(value)) == 1

    def test_each_piece_holds_at_most_one_chunk(self):
        pieces = list(cli._json_pieces(self.doc_of(2 * self.CHUNK + 1)))
        counts = [piece.count('"id"') for piece in pieces]
        assert [c for c in counts if c] == [self.CHUNK, self.CHUNK, 1]


def test_emit_to_a_file_holds_one_chunk_not_the_document(tmp_path):
    doc = instance_to_dict(generate_instance(GeneratorSpec(n=50_000, epochs=10, seed=3)))
    path = tmp_path / "instance.json"
    tracemalloc.start()
    try:
        cli._emit(doc, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


def rows_text(rows: np.ndarray) -> list:
    """The text of each row of a NUL-padded byte matrix."""
    lines = np.concatenate((rows, np.full((len(rows), 1), ord("\n"), np.uint8)), axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def float_texts(values) -> list:
    return rows_text(coltext.float_slots(np.asarray(values, dtype=np.float64), cli._fmt_float))


class TestFloatKernel:
    """``coltext.float_slots`` formats values in [1e-4, 1e16) with numpy passes;
    its text must equal ``'%.17g' %`` (``_fmt_float`` elsewhere) exactly."""

    def check(self, values):
        values = np.asarray(values, dtype=np.float64)
        for start in range(0, len(values), 1 << 16):
            chunk = values[start:start + (1 << 16)]
            assert float_texts(chunk) == [cli._fmt_float(v) for v in chunk.tolist()]

    def test_every_exponent_of_the_fast_domain(self):
        rng = np.random.default_rng(20240601)
        exponents = np.repeat(np.arange(-4, 16), 25_000)
        scattered = rng.uniform(1, 10, exponents.size) * 10.0 ** exponents
        # and doubles uniform over their bit patterns, each exponent by its count of doubles
        bits = rng.integers(np.float64(1e-4).view(np.int64), np.float64(1e16).view(np.int64), 500_000)
        values = np.concatenate((scattered, bits.view(np.float64)))
        assert ((values >= 1e-4) & (values < 1e16)).all()
        assert set(np.floor(np.log10(values)).astype(int)) == set(range(-4, 16))
        self.check(values)

    def test_few_significant_bits_and_exact_ties(self):
        rng = np.random.default_rng(7)
        short = np.ldexp(rng.integers(1, 2**12, 100_000) | 1, rng.integers(-25, 50, 100_000)).astype(np.float64)
        short = short[(short >= 1e-4) & (short < 1e16)]
        # odd / 2**(p + 1) times 10**p is odd * 5**p / 2, a tie at the 17th digit
        ties = []
        for p in range(1, 21):
            low, high = -(-2 * 10**16 // 5**p), 2 * 10**17 // 5**p
            odd = np.unique(rng.integers(low, min(high, 2**53), 500)) | 1
            ties.extend(math.ldexp(int(m), -(p + 1)) for m in odd)
        assert all((Fraction(x) * 10**(16 - math.floor(math.log10(x)))).denominator == 2 for x in ties)
        self.check(np.concatenate((short, ties)))
        assert float_texts([1e15 + 0.25, 1e15 + 0.75]) == ["1000000000000000.2", "1000000000000000.8"]

    def test_powers_of_ten_integers_and_domain_edges(self):
        powers = np.array([float(f"1e{k}") for k in range(-6, 18)])
        values = np.concatenate((
            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
            np.arange(1.0, 1000.0), [3.0, 1e15, 2.0**53, 0.5, 0.25, 0.1, 1 / 3, 2 / 3],
            [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16, np.nextafter(1e16, 0),
             np.nextafter(1e16, np.inf)],
        ))
        self.check(values)
        self.check(-values)
        assert float_texts([1.0, 3.0, 1e15, 0.0, -0.0]) == ["1", "3", "1000000000000000", "0", "-0"]

    @settings(deadline=None, max_examples=300)
    @given(values=st.lists(st.one_of(
        st.floats(),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, float("nan"),
                         float("inf"), float("-inf"), 1e-4, 1e16]),
        st.floats(1e-4, 1e16, exclude_max=True)), min_size=1, max_size=40))
    def test_any_floats(self, values):
        self.check(values)


class TestIntKernel:
    @settings(deadline=None, max_examples=300)
    @given(ids=st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(0, 10**6),
                                  st.sampled_from([0, 9, 10, 2**63 - 1, -(2**63)])), min_size=1, max_size=40))
    def test_ids_are_written_as_str(self, ids):
        assert rows_text(coltext.int_slots(np.array(ids, dtype=np.int64))) == list(map(str, ids))


class TestEmitWholeInstances:
    """``_emit`` at the default chunk size against the per-item writer."""

    @pytest.mark.parametrize("seed", [5, 20240601])
    def test_generated_instance(self, seed, tmp_path):
        doc = instance_to_dict(generate_instance(GeneratorSpec(n=50_000, epochs=10, seed=seed)))
        path = tmp_path / "instance.json"
        cli._emit(doc, str(path))
        assert path.read_text(encoding="utf-8") == generic_dump(doc) + "\n"

    def test_values_below_one_only(self):
        # no value has an integer digit, so no chunk has a column for a point
        spec = GeneratorSpec(n=3000, epochs=2, reward_range=(0.0, 0.05), rho_range=(0.0, 0.05), seed=2)
        doc = instance_to_dict(generate_instance(spec))
        assert dump_json(doc) == generic_dump(doc)

    def test_edge_rows_in_the_first_and_the_last_chunk(self, capsys):
        n = 2 * cli.PACKAGE_CHUNK_ROWS + 5
        ids, rewards, rhos = np.arange(n) + 1, np.linspace(0.5, 9.5, n), np.linspace(0.1, 0.9, n)
        for row in (0, 1, n - 2, n - 1):
            ids[row] = (0, 2**63 - 1)[row % 2]
            rewards[row] = (0.0, 3e-5)[row % 2]
            rhos[row] = (0.0, 1.0)[row % 2]
        inst = Instance(theta=1.0, horizon=Horizon.finite(2), packages=PackageTable(ids, rewards, rhos))
        doc = instance_to_dict(inst)
        cli._emit(doc, None)
        out = capsys.readouterr().out
        assert out == generic_dump(doc) + "\n"
        assert out.count(f'"id": {2**63 - 1},') == 2 and out.count('"reward": 3.0000000000000001e-05,') == 2
        assert out.count('"reward": 0,') == 2 and out.count('"rho": 1\n') == 2
