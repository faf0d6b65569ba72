import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from riskplan.cli import GeneratorSpec, dump_json, generate_instance, run_cli
from riskplan.errors import InvalidRangeError
from riskplan.model import UNBOUNDED, PackageTable, instance_to_dict


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

    def test_gen_requires_horizon_choice(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "-n", "2", "--seed", "1")
        assert code == 1
        assert "epochs" in err or "infinite" in err


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

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "solve", "finite", "--bogus")
        assert code == 64

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 64


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
        ids, rewards, rhos = inst._arrays()
        assume(np.isfinite(rewards).all() and math.isfinite(inst.theta))
        assert instance_from_dict(json.loads(dump_json(instance_to_dict(inst)))) == inst
