"""Output checks for the perfbench workloads.

Usage: ``python3 perfbench/check.py SPEC.json``

SPEC is a list of checks, each naming the timed operation whose output it
checks.  Prints one JSON object mapping each operation to the list of
failed checks (empty when all hold).  Runs in its own process, after the
timed loop, so that loading the outputs never inflates a timed process.
"""

from __future__ import annotations

import json
import math
import sys

from riskplan import RiskPlanError, evaluate_mission, instance_from_dict, plan_from_dict


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def finite_report(spec):
    """total == values[0], evaluate_mission agrees to 1e-9, K CSV rows."""
    report = _load(spec["report"])
    errors = []
    if report["total"] != report["values"][0]:
        errors.append(f"total {report['total']!r} != values[0] {report['values'][0]!r}")
    instance = instance_from_dict(_load(spec["instance"]))
    exact = evaluate_mission(plan_from_dict(report), instance).total
    if not math.isclose(exact, report["total"], rel_tol=1e-9, abs_tol=1e-9):
        errors.append(f"evaluate_mission gives {exact!r}, report says {report['total']!r}")
    with open(spec["csv"], encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != spec["epochs"]:
        errors.append(f"CSV has {rows} rows, expected {spec['epochs']}")
    return errors


def _within_4_se(label, mean, std_error, exact):
    if abs(mean - exact) <= 4 * std_error:
        return []
    return [f"{label} {mean!r} is more than 4 x {std_error!r} from {exact!r}"]


def simulate(spec):
    sim = _load(spec["sim"])
    return _within_4_se("simulated mean", sim["mean"], sim["std_error"], _load(spec["report"])["total"])


def team(spec):
    doc = _load(spec["team"])
    std_error = doc["sim"]["std_error"] if "sim" in doc else 0.0
    return _within_4_se("team value", doc["value"], std_error, doc["analytic_value"])


def oracle(spec):
    result = _load(spec["result"])
    errors = []
    for kind in ("finite", "infinite"):
        for i, (solved, oracle_value) in enumerate(result[kind]):
            if not math.isclose(solved, oracle_value, rel_tol=1e-9, abs_tol=1e-9):
                errors.append(f"{kind} instance {i}: solver {solved!r} vs oracle {oracle_value!r}")
    if len(result["finite"]) != spec["finite"] or len(result["infinite"]) != spec["infinite"]:
        errors.append("oracle batch result has the wrong number of instances")
    return errors


CHECKS = {"finite_report": finite_report, "simulate": simulate, "team": team, "oracle": oracle}


def main(argv) -> int:
    verdict: dict[str, list[str]] = {}
    for spec in _load(argv[0]):
        try:
            errors = CHECKS[spec["kind"]](spec)
        except (OSError, ValueError, KeyError, TypeError, ArithmeticError, RiskPlanError) as exc:
            errors = [f"{spec['kind']} check could not run: {exc!r}"]
        verdict.setdefault(spec["op"], []).extend(errors)
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
