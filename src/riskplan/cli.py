"""Command-line surface, instance generation, and report files.

stdout carries machine-readable JSON only; human-readable logging goes to
stderr, gated by the RISKPLAN_LOG environment variable (off/info/debug).
Exit codes: 0 success, 1 validation error, 2 scale-limit error, 64 usage
error.  Every randomized subcommand requires an explicit --seed.

JSON floats are emitted with 17 significant digits so doubles round-trip
exactly; diverging values appear as the string "unbounded" (or "inf" for
bare ratios), never as a bare JSON Infinity.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import expectation, finite_solver, infinite_solver, mdp, multiagent, oracle_sim
from .errors import (
    InvalidRangeError,
    RiskPlanError,
    ScaleLimitError,
    UnboundedValueError,
)
from .model import (
    UNBOUNDED,
    Horizon,
    Instance,
    PackageRecords,
    PackageTable,
    distance_to_probability,
    ensure_valid,
    instance_from_dict,
    instance_to_dict,
    plan_from_dict,
    plan_to_dict,
    probability_to_distance,
)

__all__ = ["GeneratorSpec", "generate_instance", "dump_json", "run_cli", "main"]

log = logging.getLogger("riskplan")


# --- instance generation ------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """Uniform random-instance recipe; deterministic given the seed."""

    n: int
    epochs: Optional[int]  # None = infinite horizon
    theta_range: tuple[float, float] = (0.0, 5.0)
    reward_range: tuple[float, float] = (0.0, 10.0)
    rho_range: tuple[float, float] = (0.0, 1.0)
    seed: int = 0


def generate_instance(spec: GeneratorSpec) -> Instance:
    if spec.n < 0:
        raise InvalidRangeError(f"n must be non-negative, got {spec.n}")
    if spec.epochs is not None and spec.epochs < 1:
        raise InvalidRangeError(f"epochs must be positive, got {spec.epochs}")
    for name, (lo, hi), bounds in (
        ("theta", spec.theta_range, (0.0, float("inf"))),
        ("reward", spec.reward_range, (0.0, float("inf"))),
        ("rho", spec.rho_range, (0.0, 1.0)),
    ):
        if not (math.isfinite(lo) and math.isfinite(hi) and bounds[0] <= lo <= hi <= bounds[1]):
            raise InvalidRangeError(f"{name} range [{lo}, {hi}] is empty or out of bounds")

    rng = np.random.default_rng(spec.seed)
    theta = float(rng.uniform(*spec.theta_range))
    rewards = rng.uniform(*spec.reward_range, size=spec.n)
    rhos = rng.uniform(*spec.rho_range, size=spec.n)
    packages = PackageTable(np.arange(spec.n, dtype=np.int64), rewards, rhos)
    horizon = Horizon.infinite() if spec.epochs is None else Horizon.finite(spec.epochs)
    return ensure_valid(Instance(theta=theta, horizon=horizon, packages=packages))


# --- deterministic JSON emission ----------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is UNBOUNDED:
        return '"unbounded"'
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, PackageRecords):
        return _dump_packages(obj.table, indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dump_json(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating, str)) for v in seq)
        if flat:
            return "[" + ", ".join(dump_json(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {dump_json(v, indent + 2)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _dump_packages(table: PackageTable, indent: int) -> str:
    """An instance's ``packages`` list, as :func:`dump_json` lays out a list
    of ``{"id", "reward", "rho"}`` dicts, written from the columns."""
    if not len(table):
        return "[]"
    pad = " " * (indent + 2)
    template = f'{pad}{{\n{pad}  "id": %d,\n{pad}  "reward": %s,\n{pad}  "rho": %s\n{pad}}}'
    rewards, rhos = table.rewards.tolist(), table.rhos.tolist()
    if np.isfinite(table.rewards).all() and np.isfinite(table.rhos).all():
        template = template.replace("%s", "%.17g")  # what _fmt_float does for finite values
    else:
        rewards, rhos = map(_fmt_float, rewards), map(_fmt_float, rhos)
    body = ",\n".join(map(template.__mod__, zip(table.ids.tolist(), rewards, rhos)))
    return "[\n" + body + "\n" + " " * indent + "]"


# --- plumbing ------------------------------------------------------------------


def _setup_logging():
    level = os.environ.get("RISKPLAN_LOG", "off").strip().lower()
    if level in ("", "off"):
        logging.disable(logging.CRITICAL)
        return
    logging.disable(logging.NOTSET)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if level == "debug" else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(64)


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"input file not found: {path}")
    with p.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_instance(path: str) -> Instance:
    return ensure_valid(instance_from_dict(_load_json(path)))


def _emit(doc, output: Optional[str]):
    text = dump_json(doc) + "\n"
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidRangeError(f"range must be LO,HI, got {text!r}")
    return float(parts[0]), float(parts[1])


# --- subcommands ---------------------------------------------------------------


def _cmd_solve_finite(args) -> int:
    instance = _load_instance(args.input)
    report = finite_solver.solve_finite(instance)
    log.info("solved finite horizon K=%d, n=%d, total=%g",
             instance.horizon.epochs, len(instance.packages), report.total)
    doc = {
        "values": list(report.values),
        "thresholds": list(report.thresholds),
        "total": report.total,
        "plans": plan_to_dict(report.plan)["plans"],
    }
    _emit(doc, args.output)
    if args.csv:
        evaluation = expectation.evaluate_mission(report.plan, instance)
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "V_h", "threshold", "plan_size", "epoch_survival"])
            for h in range(instance.horizon.epochs):
                writer.writerow([
                    h + 1,
                    format(report.values[h], ".17g"),
                    format(report.thresholds[h], ".17g"),
                    len(report.plan.plans[h]),
                    format(evaluation.epoch_evals[h].epoch_survival, ".17g"),
                ])
    return 0


def _cmd_solve_infinite(args) -> int:
    instance = _load_instance(args.input)
    report = infinite_solver.solve_infinite(instance)
    _emit({"chosen": report.chosen, "gamma_max": report.gamma_max, "total": report.total},
          args.output)
    return 0


def _cmd_simulate(args) -> int:
    instance = _load_instance(args.input)
    plan = plan_from_dict(_load_json(args.plan))
    config = oracle_sim.SimConfig(trials=args.trials, seed=args.seed, parallel_shards=args.shards)
    result = oracle_sim.simulate_mission(plan, instance, config)
    log.info("simulated %d trials: mean=%g +- %g", args.trials, result.mean, result.std_error)
    _emit({
        "mean": result.mean,
        "std_error": result.std_error,
        "per_epoch_survival_freq": list(result.per_epoch_survival_freq),
        "failure_epoch_histogram": {str(k): v for k, v in result.failure_epoch_histogram.items()},
        "truncation_bias_bound": result.truncation_bias_bound,
    }, args.output)
    return 0


def _cmd_oracle(args) -> int:
    instance = _load_instance(args.input)
    value, plan = oracle_sim.brute_force_finite(instance)
    _emit({"value": value, "plans": plan_to_dict(plan)["plans"]}, args.output)
    return 0


def _cmd_mdp_eval(args) -> int:
    instance = _load_instance(args.input)
    model = mdp.build_model(instance)

    def value_of(mask: int):
        try:
            return mdp.evaluate_policy(model, mask)
        except UnboundedValueError:
            return UNBOUNDED

    if args.action is not None:
        if len(args.action) != model.n:
            raise InvalidRangeError(
                f"action has {len(args.action)} bits but the instance has {model.n} packages")
        mask = mdp.action_from_bits(args.action)
        _emit({"action": args.action, "value": value_of(mask)}, args.output)
        return 0

    entries = []
    best_mask, best_value = 0, 0.0
    for mask in model.actions():
        value = value_of(mask)
        entries.append({"action": mdp.bits_from_action(mask, model.n), "value": value})
        if value is not UNBOUNDED and value > best_value:
            best_mask, best_value = mask, value
    _emit({
        "actions": entries,
        "best": {"action": mdp.bits_from_action(best_mask, model.n), "value": best_value},
    }, args.output)
    return 0


def _cmd_team_greedy(args) -> int:
    instance = _load_instance(args.input)
    config = oracle_sim.SimConfig(trials=args.trials, seed=args.seed)
    report = multiagent.greedy_rtpd(instance, args.agents, sim_config=config)
    plans_doc = [
        {"epoch": h, "alive": beta, "tours": [list(t) for t in plan.tours]}
        for (h, beta), plan in sorted(report.plans.items())
    ]
    doc = {
        "value": report.value,
        "analytic_value": report.values[(1, args.agents)],
        "plans": plans_doc,
    }
    if report.sim is not None:
        doc["sim"] = {"mean": report.sim.mean, "std_error": report.sim.std_error}
    _emit(doc, args.output)
    return 0


def _cmd_pbd(args) -> int:
    probs = [float(p) for p in args.probs.split(",") if p != ""]
    fn = multiagent.poisson_binomial_enum if args.method == "enum" else multiagent.poisson_binomial_dft
    dist = fn(probs)
    _emit({
        "probs": list(dist.probs),
        "pmf": list(dist.pmf),
        "mean": dist.mean,
        "expected_failures": dist.expected_failures,
    }, args.output)
    return 0


def _cmd_convert(args) -> int:
    if (args.rho is None) == (args.distance is None):
        raise InvalidRangeError("pass exactly one of --rho or --distance")
    if args.rho is not None:
        distance = probability_to_distance(args.rho, args.phi)
        _emit({"rho": args.rho, "phi": args.phi, "distance": distance}, args.output)
    else:
        rho = distance_to_probability(args.distance, args.phi)
        _emit({"distance": args.distance, "phi": args.phi, "rho": rho}, args.output)
    return 0


def _cmd_gen(args) -> int:
    spec = GeneratorSpec(
        n=args.n,
        epochs=None if args.infinite else args.epochs,
        theta_range=_parse_range(args.theta_range),
        reward_range=_parse_range(args.reward_range),
        rho_range=_parse_range(args.rho_range),
        seed=args.seed,
    )
    if not args.infinite and args.epochs is None:
        raise InvalidRangeError("pass -K/--epochs or --infinite")
    instance = generate_instance(spec)
    _emit(instance_to_dict(instance), args.output)
    return 0


# --- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riskplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, plan=False):
        p.add_argument("-i", "--input", required=True, help="instance JSON file")
        if plan:
            p.add_argument("-p", "--plan", required=True, help="plan JSON file")
        p.add_argument("-o", "--output", default=None, help="write JSON here instead of stdout")

    solve = sub.add_parser("solve", help="optimal solvers")
    solve_sub = solve.add_subparsers(dest="kind", required=True)
    sf = solve_sub.add_parser("finite", help="finite-horizon backward induction")
    add_io(sf)
    sf.add_argument("--csv", default=None, help="also write a per-epoch CSV report")
    sf.set_defaults(func=_cmd_solve_finite)
    si = solve_sub.add_parser("infinite", help="infinite-horizon max-ratio solve")
    add_io(si)
    si.set_defaults(func=_cmd_solve_infinite)

    sim = sub.add_parser("simulate", help="Monte Carlo mission simulation")
    add_io(sim, plan=True)
    sim.add_argument("--trials", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--shards", type=int, default=1)
    sim.set_defaults(func=_cmd_simulate)

    orc = sub.add_parser("oracle", help="exhaustive brute-force optimum (small instances)")
    add_io(orc)
    orc.set_defaults(func=_cmd_oracle)

    me = sub.add_parser("mdp-eval", help="stationary-policy evaluation")
    add_io(me)
    me.add_argument("--action", default=None, help="bit-string selecting packages, e.g. 0101")
    me.set_defaults(func=_cmd_mdp_eval)

    team = sub.add_parser("team", help="experimental multi-agent tools")
    team_sub = team.add_subparsers(dest="kind", required=True)
    tg = team_sub.add_parser("greedy", help="greedy team allocation")
    add_io(tg)
    tg.add_argument("--agents", type=int, required=True)
    tg.add_argument("--seed", type=int, required=True)
    tg.add_argument("--trials", type=int, default=100_000)
    tg.set_defaults(func=_cmd_team_greedy)

    pbd = sub.add_parser("pbd", help="Poisson binomial pmf")
    pbd.add_argument("--probs", required=True, help="comma-separated probabilities")
    pbd.add_argument("--method", choices=["enum", "dft"], default="dft")
    pbd.add_argument("-o", "--output", default=None)
    pbd.set_defaults(func=_cmd_pbd)

    conv = sub.add_parser("convert", help="probability <-> distance conversion")
    conv.add_argument("--rho", type=float, default=None)
    conv.add_argument("--distance", type=float, default=None)
    conv.add_argument("--phi", type=float, required=True)
    conv.add_argument("-o", "--output", default=None)
    conv.set_defaults(func=_cmd_convert)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("-n", type=int, required=True)
    gen.add_argument("-K", "--epochs", type=int, default=None)
    gen.add_argument("--infinite", action="store_true")
    gen.add_argument("--theta-range", default="0,5")
    gen.add_argument("--reward-range", default="0,10")
    gen.add_argument("--rho-range", default="0,1")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(func=_cmd_gen)

    return parser


def run_cli(argv) -> int:
    """Parse and run; returns the process exit code."""
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ScaleLimitError as exc:
        print(f"riskplan: scale limit: {exc}", file=sys.stderr)
        return 2
    except (RiskPlanError, FileNotFoundError, json.JSONDecodeError, ValueError) as exc:
        print(f"riskplan: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
