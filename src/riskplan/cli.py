"""Command-line surface, instance generation, and report files.

stdout carries machine-readable JSON only; human-readable logging goes to
stderr, gated by the RISKPLAN_LOG environment variable (off/info/debug).
Exit codes: 0 success, 1 validation or numerical error, 2 scale-limit
error, 64 usage error.  Every randomized subcommand requires an explicit
--seed.

JSON floats are emitted with 17 significant digits so doubles round-trip
exactly; diverging values appear as the string "unbounded" (or "inf" for
bare ratios), never as a bare JSON Infinity.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    InvalidRangeError,
    RiskPlanError,
    ScaleLimitError,
    TooManyPackagesError,
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

# Each subcommand imports the solver or oracle module it runs, and calls
# through the module attribute, so that a process loads only what its
# command executes.

__all__ = ["GeneratorSpec", "generate_instance", "dump_json", "run_cli", "main"]

#: The "riskplan" logger while RISKPLAN_LOG names a level, else None; the
#: logging module is imported only then.
_log = None


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


#: Packages that :func:`generate_instance` draws at most: about 0.24 GB of
#: columns, and about 1 GB of JSON from ``riskplan gen``.
MAX_GENERATED_PACKAGES = 10_000_000


def generate_instance(spec: GeneratorSpec) -> Instance:
    if spec.n < 0:
        raise InvalidRangeError(f"n must be non-negative, got {spec.n}")
    if spec.n > MAX_GENERATED_PACKAGES:
        raise TooManyPackagesError(
            f"{spec.n:,} packages exceed the generator's limit of {MAX_GENERATED_PACKAGES:,}")
    if spec.epochs is not None and spec.epochs < 1:
        raise InvalidRangeError(f"epochs must be positive, got {spec.epochs}")
    if spec.seed < 0:
        raise InvalidRangeError(f"seed must be non-negative, got {spec.seed}")
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


#: Rows of an instance's ``packages`` list formatted per piece of output.
#: Each piece makes its own lists of the chunk's columns and its own string,
#: so writing an instance holds at most this many rows as Python objects.
PACKAGE_CHUNK_ROWS = 1024


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    return "".join(_json_pieces(obj, indent))


def _json_pieces(obj, indent: int = 0):
    """:func:`dump_json`'s text in pieces: dicts and non-flat lists item by
    item, an instance's packages in chunks of :data:`PACKAGE_CHUNK_ROWS`."""
    leaf = _leaf(obj)
    if leaf is not None:
        yield leaf
    elif isinstance(obj, PackageRecords):
        yield from _package_pieces(obj.table, indent)
    elif isinstance(obj, dict):
        yield from _item_pieces("{", "}", ((json.dumps(str(k)) + ": ", v) for k, v in obj.items()), indent)
    else:
        yield from _item_pieces("[", "]", (("", v) for v in obj), indent)


def _item_pieces(first: str, last: str, items, indent: int):
    """A non-empty dict or list from its ``(key prefix, value)`` items, one
    item per piece unless the value is itself written item by item."""
    pad = " " * (indent + 2)
    sep = first + "\n"
    for head, value in items:
        leaf = _leaf(value)
        if leaf is not None:
            yield sep + pad + head + leaf
        else:
            yield sep + pad + head
            yield from _json_pieces(value, indent + 2)
        sep = ",\n"
    yield "\n" + " " * indent + last


def _leaf(obj) -> Optional[str]:
    """The whole text of a scalar, an empty container or a flat list; None
    for a dict, an instance's packages or a list of containers, which
    :func:`_json_pieces` writes item by item."""
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
        return None if len(obj) else "[]"
    if isinstance(obj, dict):
        return None if obj else "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        # A flat list of exact ints or exact floats (bools and numpy
        # scalars are neither) is written in one join.
        kinds = set(map(type, seq))
        if kinds == {int}:
            return "[" + ", ".join(map(str, seq)) + "]"
        if kinds == {float}:
            return "[" + ", ".join(map(_fmt_float, seq)) + "]"
        if all(isinstance(v, (int, float, np.integer, np.floating, str)) for v in seq):
            return "[" + ", ".join(map(_leaf, seq)) + "]"
        return None
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _package_pieces(table: PackageTable, indent: int):
    """A non-empty ``packages`` list, as :func:`dump_json` lays out a list of
    ``{"id", "reward", "rho"}`` dicts, written from the columns a chunk of
    rows at a time.

    A chunk is one byte matrix with a row per package: the template's bytes
    around each value's text, which :func:`coltext.int_slots` and
    :func:`coltext.float_slots` pad with NULs to the chunk's widest.  The
    chunk's text is the matrix with its NULs deleted."""
    from . import coltext

    pad = " " * (indent + 2)
    head, mid, tail, end = (np.frombuffer(s.encode(), np.uint8) for s in (
        f',\n{pad}{{\n{pad}  "id": ', f',\n{pad}  "reward": ', f',\n{pad}  "rho": ', f"\n{pad}}}"))
    for start in range(0, len(table), PACKAGE_CHUNK_ROWS):
        rows = slice(start, start + PACKAGE_CHUNK_ROWS)
        ids = coltext.int_slots(table.ids[rows])
        values = coltext.float_slots(np.concatenate((table.rewards[rows], table.rhos[rows])), _fmt_float)
        n = len(ids)
        text = np.concatenate([np.broadcast_to(part, (n, part.shape[-1])) for part in (
            head, ids, mid, values[:n], tail, values[n:], end)], axis=1)
        if start == 0:
            text[0, 0] = ord("[")  # the list opens where later rows have a comma
        yield text.tobytes().translate(None, b"\0").decode("ascii")
    yield "\n" + " " * indent + "]"


# --- plumbing ------------------------------------------------------------------


def _setup_logging():
    global _log
    level = os.environ.get("RISKPLAN_LOG", "off").strip().lower()
    if level in ("", "off"):
        _log = None
        return
    import logging

    logging.disable(logging.NOTSET)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if level == "debug" else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    _log = logging.getLogger("riskplan")


def _info(msg: str, *args):
    if _log is not None:
        _log.info(msg, *args)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(64)


#: Input documents of at least this many bytes are first offered to
#: :func:`docscan.read_instance`; smaller ones, whose ``json.loads`` takes
#: about as long as importing the scanner, go straight to ``json``.
SCAN_MIN_BYTES = 1 << 18


class _DuplicateKey(ValueError):
    pass


def _unique_keys(pairs: list) -> dict:
    """``json``'s object hook: the object as a dict, or :class:`_DuplicateKey`
    naming the first key it repeats."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen.add(key)
    return doc


def _load_json(path: str) -> dict:
    """The JSON document at ``path``, which may be a pipe such as
    ``/dev/stdin``.  A repeated key in any object is an error.

    A document of :data:`SCAN_MIN_BYTES` or more is first offered to
    :func:`docscan.read_instance`, which reads an instance's ``packages``
    and ``per_epoch_packages`` arrays into columns where it can prove that
    they read as ``json`` reads them; any other document is parsed as text
    by ``json``, as a file opened for reading in UTF-8 reads."""
    try:
        with Path(path).open("rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"input file not found: {path}") from None
    try:
        if len(data) >= SCAN_MIN_BYTES:
            from . import docscan

            doc = docscan.read_instance(data, _unique_keys)
            if doc is not None:
                return doc
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        del data  # not held while json builds the objects
        return json.loads(text, object_pairs_hook=_unique_keys)
    except _DuplicateKey as exc:
        raise ValueError(f"malformed JSON document {path}: duplicate key {exc.args[0]!r}") from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError(f"malformed JSON document {path}: nested too deeply") from None


def _load_instance(path: str) -> Instance:
    return ensure_valid(instance_from_dict(_load_json(path)))


def _emit(doc, output: Optional[str]):
    """Write ``dump_json(doc)`` and a newline to ``output``, or to stdout,
    piece by piece as it is serialized."""
    if output:
        # Not the module's ``open``: that name is left to the --csv report.
        with Path(output).open("w", encoding="utf-8") as fh:
            fh.writelines(_json_pieces(doc))
            fh.write("\n")
    else:
        sys.stdout.writelines(_json_pieces(doc))
        sys.stdout.write("\n")


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidRangeError(f"range must be LO,HI, got {text!r}")
    return float(parts[0]), float(parts[1])


# --- subcommands ---------------------------------------------------------------


def _cmd_solve_finite(args) -> int:
    from . import finite_solver

    instance = _load_instance(args.input)
    report = finite_solver.solve_finite(instance)
    _info("solved finite horizon K=%d, n=%d, total=%g",
          instance.horizon.epochs, len(instance.packages), report.total)
    doc = {
        "values": list(report.values),
        "thresholds": list(report.thresholds),
        "total": report.total,
        "plans": plan_to_dict(report.plan)["plans"],
    }
    _emit(doc, args.output)
    if args.csv:
        import csv

        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "V_h", "threshold", "plan_size", "epoch_survival"])
            for h in range(instance.horizon.epochs):
                writer.writerow([
                    h + 1,
                    format(report.values[h], ".17g"),
                    format(report.thresholds[h], ".17g"),
                    len(report.plan.plans[h]),
                    format(report.epoch_survivals[h], ".17g"),
                ])
    return 0


def _cmd_solve_infinite(args) -> int:
    from . import infinite_solver

    instance = _load_instance(args.input)
    report = infinite_solver.solve_infinite(instance)
    _emit({"chosen": report.chosen, "gamma_max": report.gamma_max, "total": report.total},
          args.output)
    return 0


def _cmd_simulate(args) -> int:
    from . import oracle_sim

    instance = _load_instance(args.input)
    plan = plan_from_dict(_load_json(args.plan))
    config = oracle_sim.SimConfig(trials=args.trials, seed=args.seed, parallel_shards=args.shards)
    result = oracle_sim.simulate_mission(plan, instance, config)
    if not math.isfinite(result.mean):
        raise ArithmeticError("simulated mission totals pass the largest double")
    _info("simulated %d trials: mean=%g +- %g", args.trials, result.mean, result.std_error)
    _emit({
        "mean": result.mean,
        "std_error": result.std_error,
        "per_epoch_survival_freq": list(result.per_epoch_survival_freq),
        "failure_epoch_histogram": {str(k): v for k, v in result.failure_epoch_histogram.items()},
        "truncation_bias_bound": result.truncation_bias_bound,
    }, args.output)
    return 0


def _cmd_oracle(args) -> int:
    from . import oracle_sim

    instance = _load_instance(args.input)
    value, plan = oracle_sim.brute_force_finite(instance)
    _emit({"value": value, "plans": plan_to_dict(plan)["plans"]}, args.output)
    return 0


def _cmd_mdp_eval(args) -> int:
    from . import mdp

    instance = _load_instance(args.input)
    model = mdp.build_model(instance)

    def value_of(values: mdp.PolicyValues, i: int):
        return UNBOUNDED if values.unbounded[i] else values.value(i)

    if args.action is not None:
        if len(args.action) != model.n:
            raise InvalidRangeError(
                f"action has {len(args.action)} bits but the instance has {model.n} packages")
        values = mdp.policy_values(model, [mdp.action_from_bits(args.action)])
        _emit({"action": args.action, "value": value_of(values, 0)}, args.output)
        return 0

    values = mdp.policy_values(model)
    entries = [
        {"action": mdp.bits_from_action(mask, model.n), "value": value_of(values, mask)}
        for mask in model.actions()
    ]
    best_mask, best_value = values.best()
    _emit({
        "actions": entries,
        "best": {"action": mdp.bits_from_action(best_mask, model.n), "value": best_value},
    }, args.output)
    return 0


def _cmd_team_greedy(args) -> int:
    from . import multiagent, oracle_sim

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
    from . import multiagent

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
    horizon = gen.add_mutually_exclusive_group()
    horizon.add_argument("-K", "--epochs", type=int, default=None)
    horizon.add_argument("--infinite", action="store_true")
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
    except (RiskPlanError, OSError, json.JSONDecodeError, ValueError, ArithmeticError) as exc:
        print(f"riskplan: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The console script and ``python -m riskplan.cli``: run, then exit.

    Before exit the heap is frozen, so the collections that end the
    interpreter skip every object numpy, the stdlib and riskplan loaded:
    shutdown takes about 10 ms instead of 30 to 37.  This is safe because
    every file a command writes is closed inside :func:`run_cli` (``with``
    blocks), so no output waits on a collection to be flushed.  The rest of
    shutdown still runs: atexit handlers (``logging`` under RISKPLAN_LOG)
    and the flush of stdout and stderr.  ``run_cli`` itself never freezes,
    since tests and the benchmark's tracer call it in-process.
    """
    code = run_cli(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
