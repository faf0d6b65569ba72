"""Oracle batch: the small-verify workload's second timed operation.

Usage: ``python3 perfbench/oracle_batch.py -i BATCH.json -o RESULT.json``

Solves every finite instance in the batch with ``solve_finite`` and with
``brute_force_finite``, and every infinite instance with ``solve_infinite``
and with the MDP's ``best_stationary_policy``, then writes the value pairs.
The pairs are compared by ``check.py``, outside the timed process.

Library calls go through module attributes (``finite_solver.solve_finite``,
not an imported name) so that ``tracing.py`` can wrap them.
"""

from __future__ import annotations

import argparse
import json
import sys

from riskplan import finite_solver, infinite_solver, mdp, model, oracle_sim


def run(batch: dict) -> dict:
    finite = []
    for doc in batch["finite"]:
        instance = model.ensure_valid(model.instance_from_dict(doc))
        solved = finite_solver.solve_finite(instance).total
        oracle, _ = oracle_sim.brute_force_finite(instance)
        finite.append([solved, oracle])
    infinite = []
    for doc in batch["infinite"]:
        instance = model.ensure_valid(model.instance_from_dict(doc))
        solved = infinite_solver.solve_infinite(instance).total
        _, oracle = mdp.best_stationary_policy(mdp.build_model(instance))
        infinite.append([solved, oracle])
    return {"finite": finite, "infinite": infinite}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="oracle_batch")
    parser.add_argument("-i", "--input", required=True)
    parser.add_argument("-o", "--output", required=True)
    args = parser.parse_args(argv)
    with open(args.input, encoding="utf-8") as fh:
        batch = json.load(fh)
    result = run(batch)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
