"""Traced in-process run of one benchmark command.

Usage: ``python3 perfbench/tracing.py OUT.json COMMAND-ID -- ARGV...``

ARGV is what follows the interpreter in the untraced command: either
``-m riskplan.cli ...`` or ``perfbench/oracle_batch.py ...``.  The command
runs in this process with spans around the public riskplan functions that
``riskplan.cli``'s subcommands call.  The wrappers are installed on module
attributes from here; the program itself is not changed.  Spans and counts
are kept in memory and written to OUT.json when the command ends.

A span is (name, start, end, parent, command id).  Counts are recorded at
the same boundaries, once per outermost call of a span name, so that a
solver calling itself is not counted twice.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

from riskplan import cli, expectation, finite_solver, infinite_solver, mdp, model
from riskplan import multiagent, oracle_sim

# Unwrapped, so that the marginal-gain probe adds no span and no count.
_instance_from_dict = model.instance_from_dict


class Tracer:
    def __init__(self, command: str):
        self.command = command
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> bool:
        """Close a span; True when no enclosing span has the same name."""
        self.spans[index][2] = time.perf_counter()
        self._open.pop()
        name, parent = self.spans[index][0], self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def wrap(self, module, attr: str, name: str, count=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                outermost = self.end(index)
            if count is not None and outermost:
                count(self.counts, args, result)
            return result

        setattr(module, attr, traced)

    def span_open(self, name: str):
        """A replacement for ``open`` whose ``with`` block is one span."""

        @contextlib.contextmanager
        def traced_open(*args, **kwargs):
            with open(*args, **kwargs) as fh:
                index = self.begin(name)
                try:
                    yield fh
                finally:
                    self.end(index)

        return traced_open

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "command": self.command}
            for n, s, e, p in self.spans
        ]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus its children's."""
    out: dict[str, float] = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0.0) + span["end"] - span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]["name"]
            out[parent] -= span["end"] - span["start"]
    return out


def top_level_total(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)


# --- counts ------------------------------------------------------------------


def _count_packages(counts, args, result):
    instance = result if isinstance(result, model.Instance) else args[0]
    counts["model.packages"] += len(instance.packages)


def _count_finite_solve(counts, args, result):
    instance = args[0]
    k = instance.horizon.epochs
    if instance.per_epoch_packages is None:
        counts["finite_solver.catalog_entries"] += k * len(instance.packages)
    else:
        counts["finite_solver.catalog_entries"] += sum(len(c) for c in instance.per_epoch_packages)
    plans = result.plan.plans
    counts["finite_solver.plan_ids"] += sum(len(p) for p in plans)
    counts["finite_solver.distinct_plans"] += _distinct_plans(plans)


def _distinct_plans(plans) -> int:
    """Distinct epoch plans, compared by content within each plan length."""
    kept: dict[int, list] = {}
    for plan in plans:
        group = kept.setdefault(len(plan), [])
        if not any(_same(plan, other) for other in group):
            group.append(plan)
    return sum(len(group) for group in kept.values())


def _same(a, b) -> bool:
    # The homogeneous solver returns prefix views of one array; views of
    # the same memory are equal without a scan.
    if (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.strides == b.strides):
        return True
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


def _count_simulate(counts, args, result):
    trials = args[2].trials
    counts["oracle_sim.sim_trials"] += trials
    counts["oracle_sim.sim_epochs"] += sum(round(f * trials) for f in result.per_epoch_survival_freq)


def _count_brute_force(counts, args, result):
    instance = args[0]
    combos = 1
    for h in range(1, instance.horizon.epochs + 1):
        m = len(instance.allowed_ids(h))
        combos *= sum(math.perm(m, j) for j in range(m + 1))
    counts["oracle_sim.brute_force_combos"] += combos


def _count_actions(counts, args, result):
    counts["mdp.actions"] += 1 << args[0].n


def _count_scenarios(counts, args, result):
    counts["multiagent.greedy_scenarios"] += sum(1 for _, beta in result.plans if beta > 0)


def _count_bytes(key: str, arg: int):
    def count(counts, args, result):
        if args[arg]:  # None is stdout, which has no size
            counts[key] += os.path.getsize(args[arg])
    return count


def install(tracer: Tracer) -> None:
    wrap = tracer.wrap
    wrap(cli, "_load_json", "cli.load", _count_bytes("cli.load_bytes", 0))
    wrap(cli, "_emit", "cli.emit", _count_bytes("cli.emit_bytes", 1))
    wrap(cli, "generate_instance", "cli.generate")
    cli.open = tracer.span_open("cli.csv")  # cli opens files only for --csv
    for module in (cli, model):
        wrap(module, "instance_from_dict", "model.instance_from_dict", _count_packages)
        wrap(module, "ensure_valid", "model.validate")
    wrap(cli, "instance_to_dict", "model.instance_to_dict", _count_packages)
    wrap(cli, "plan_to_dict", "model.plan_to_dict")
    wrap(cli, "plan_from_dict", "model.plan_from_dict")
    wrap(finite_solver, "solve_finite", "finite_solver.solve", _count_finite_solve)
    wrap(finite_solver, "solve_finite_heterogeneous", "finite_solver.solve", _count_finite_solve)
    wrap(expectation, "evaluate_mission", "expectation.evaluate_mission")
    wrap(oracle_sim, "simulate_mission", "oracle_sim.simulate", _count_simulate)
    wrap(oracle_sim, "brute_force_finite", "oracle_sim.brute_force", _count_brute_force)
    wrap(mdp, "best_stationary_policy", "mdp.best_stationary", _count_actions)
    wrap(infinite_solver, "solve_infinite", "infinite_solver.solve")
    wrap(multiagent, "greedy_rtpd", "multiagent.greedy", _count_scenarios)
    wrap(multiagent, "simulate_team_mission", "multiagent.simulate_team")


def marginal_gain_us(instance_path: str, tours: int = 8, repeats: int = 301) -> float:
    """Median microseconds of one public ``marginal_gain`` call.

    The plan puts the catalog's first ``2 * tours`` packages two to a tour
    and offers the next package to the first agent.
    """
    with open(instance_path, encoding="utf-8") as fh:
        instance = _instance_from_dict(json.load(fh))
    tours = min(tours, (len(instance.packages) - 1) // 2)
    ids = [p.id for p in instance.packages]
    plan = multiagent.TeamEpochPlan.of([[ids[m], ids[m + tours]] for m in range(tours)])
    package = instance.packages[2 * tours]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        multiagent.marginal_gain(plan, 0, package, None, instance)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


def main(argv) -> int:
    out, command, sep, *cmd = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py OUT.json COMMAND-ID -- ARGV...")
    tracer = Tracer(command)
    install(tracer)
    if cmd[:2] == ["-m", "riskplan.cli"]:
        def run():
            return cli.run_cli(cmd[2:])
    else:
        import oracle_batch

        def run():
            return oracle_batch.main(cmd[1:])
    code = run()
    extra = {}
    if cmd[2:4] == ["team", "greedy"]:
        extra["multiagent.marginal_gain_us"] = marginal_gain_us(cmd[cmd.index("-i") + 1])
    spans = tracer.records()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"command": command, "self_s": self_times(spans), "span_total_s": top_level_total(spans),
                   "spans": spans, "counts": dict(tracer.counts), "extra": extra}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
