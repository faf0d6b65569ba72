"""Command-line surface, instance generation, and report files.

stdout carries machine-readable JSON only; human-readable logging goes to
stderr under RISKPLAN_LOG=info, and is off by default.
Exit codes: 0 success, 1 validation or numerical error, 2 scale-limit
error, 64 usage error.  Every randomized subcommand requires an explicit
--seed.

JSON floats are emitted with 17 significant digits so doubles round-trip
exactly; diverging values appear as the string "unbounded" (or "inf" for
bare ratios), never as a bare JSON Infinity.
"""

from __future__ import annotations

import argparse
import errno
import gc
import io
import json
import math
import os
import stat
import sys
from contextlib import ExitStack, contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

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
    MissionPlan,
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
    item, an instance's packages in chunks of :data:`PACKAGE_CHUNK_ROWS`,
    and a :class:`_Pieces` as its own writer gives it."""
    leaf = _leaf(obj)
    if leaf is not None:
        yield leaf
    elif isinstance(obj, PackageRecords):
        yield from _package_pieces(obj.table, indent)
    elif isinstance(obj, _Pieces):
        yield from obj.write(indent)
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
    for a dict, an instance's packages, a :class:`_Pieces` or a list of
    containers, which :func:`_json_pieces` writes piece by piece."""
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
    if isinstance(obj, _Pieces):
        return None
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
    chunk's text is the matrix with its NULs deleted (:func:`_rows_text`)."""
    from . import coltext

    pad = " " * (indent + 2)
    head, mid, tail, end = map(_ascii, (
        f',\n{pad}{{\n{pad}  "id": ', f',\n{pad}  "reward": ', f',\n{pad}  "rho": ', f"\n{pad}}}"))
    for start in range(0, len(table), PACKAGE_CHUNK_ROWS):
        rows = slice(start, start + PACKAGE_CHUNK_ROWS)
        ids = coltext.int_slots(table.ids[rows])
        values = coltext.float_slots(np.concatenate((table.rewards[rows], table.rhos[rows])), _fmt_float)
        n = len(ids)
        text = _rows_text((head, ids, mid, values[:n], tail, values[n:], end))
        # The list opens where later rows have a comma.
        yield "[" + text[1:] if start == 0 else text
    yield "\n" + " " * indent + "]"


def _ascii(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), np.uint8)


def _rows_text(parts) -> str:
    """The text of rows laid out side by side from ``parts``: byte matrices
    with a row per row, NUL-padded, and byte strings (1-D) that every row
    repeats; the NULs are deleted."""
    n = max(len(part) for part in parts if part.ndim == 2)
    return np.concatenate([np.broadcast_to(part, (n, part.shape[-1])) for part in parts], axis=1) \
        .tobytes().translate(None, b"\0").decode("ascii")


class _Pieces:
    """A JSON value whose text :func:`_json_pieces` takes from
    ``write(indent)``, piece by piece."""

    __slots__ = ("write",)

    def __init__(self, write):
        self.write = write


#: Epochs of a finite report formatted per piece of output: a piece holds
#: the text of at most this many values of a column, or of a run of equal
#: epoch plans at most this many ids long (one plan, if that is longer).
REPORT_CHUNK_EPOCHS = 1 << 14


def _csv_float(x: float) -> str:
    return format(x, ".17g")


def _float_list_pieces(values: Sequence[float]):
    """A non-empty flat list of floats, as :func:`dump_json` writes it, from
    one :func:`coltext.float_slots` call per :data:`REPORT_CHUNK_EPOCHS`
    values."""
    from . import coltext

    comma = _ascii(", ")
    opening = "["
    for start in range(0, len(values), REPORT_CHUNK_EPOCHS):
        chunk = np.array(values[start:start + REPORT_CHUNK_EPOCHS], np.float64)
        yield opening + _rows_text((coltext.float_slots(chunk, _fmt_float), comma))[:-2]
        opening = ", "
    yield "]"


def _plan_list_pieces(plan: MissionPlan, indent: int):
    """A finite plan's list of epoch plans, as :func:`dump_json` lays out a
    list of flat lists of ids, each run of epochs with one plan
    (:meth:`MissionPlan.runs`) written as one item's text repeated.

    One :func:`coltext.int_slots` call formats the ids of every array that
    the epoch plans are prefixes of (:meth:`MissionPlan.prefix_columns`),
    each id followed by ", "; an epoch's text is its array's text cut at
    the comma after the epoch's last id."""
    from . import coltext

    arrays, sources, sizes = plan.prefix_columns()
    firsts = np.cumsum([0] + [ids.size for ids in arrays]).tolist()  # each array's first id
    ids = np.concatenate(arrays)
    if ids.size:
        text = _rows_text((coltext.int_slots(ids), _ascii(", ")))
        ends = np.flatnonzero(np.frombuffer(text.encode("ascii"), np.uint8) == ord(","))  # each id's comma
    pad = ",\n" + " " * (indent + 2)
    opened = False
    for lo, hi in plan.runs():
        first, q = firsts[sources[lo]], int(sizes[lo])
        item = pad + "[" + (text[ends[first - 1] + 2 if first else 0:ends[first + q - 1]] if q else "") + "]"
        per_piece = max(1, REPORT_CHUNK_EPOCHS // max(q, 1))
        for at in range(lo, hi, per_piece):
            piece = item * min(per_piece, hi - at)
            yield piece if opened else "[" + piece[1:]  # the list opens where later items have a comma
            opened = True
    yield "\n" + " " * indent + "]"


def _finite_report_doc(report) -> dict:
    """The JSON report of a finite solve, its columns written by
    :func:`_float_list_pieces` and :func:`_plan_list_pieces`."""
    return {
        "values": _Pieces(lambda indent: _float_list_pieces(report.values)),
        "thresholds": _Pieces(lambda indent: _float_list_pieces(report.thresholds)),
        "total": report.total,
        "plans": _Pieces(lambda indent: _plan_list_pieces(report.plan, indent)),
    }


def _csv_pieces(report) -> Iterator[str]:
    """The per-epoch CSV report, as ``csv.writer`` writes its rows, from one
    :func:`coltext.float_slots` call per :data:`REPORT_CHUNK_EPOCHS` rows."""
    from . import coltext

    yield "epoch,V_h,threshold,plan_size,epoch_survival\r\n"
    sizes = report.plan.prefix_columns()[2]
    comma, end = _ascii(","), _ascii("\r\n")
    k = len(sizes)
    for start in range(0, k, REPORT_CHUNK_EPOCHS):
        stop = min(start + REPORT_CHUNK_EPOCHS, k)
        n = stop - start
        floats = coltext.float_slots(np.array(
            report.values[start:stop] + report.thresholds[start:stop] + report.epoch_survivals[start:stop],
            np.float64), _csv_float)
        yield _rows_text((
            coltext.int_slots(np.arange(start + 1, stop + 1, dtype=np.int64)), comma, floats[:n], comma,
            floats[n:2 * n], comma, coltext.int_slots(sizes[start:stop]), comma, floats[2 * n:], end))


# --- plumbing ------------------------------------------------------------------


def _setup_logging():
    global _log
    if os.environ.get("RISKPLAN_LOG", "off").strip().lower() in ("", "off"):
        _log = None
        return
    import logging

    logging.disable(logging.NOTSET)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
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
        with _output_file(output, io.open, encoding="utf-8") as fh:
            fh.writelines(_json_pieces(doc))
            fh.write("\n")
    else:
        sys.stdout.writelines(_json_pieces(doc))
        sys.stdout.write("\n")


#: Errors that mean a directory takes no new file beside an output path
#: (read-only, missing, or the new file's name too long), so that the path
#: is written directly; on any other error (a full disk, say) it is kept.
_NO_NEW_FILE = frozenset({errno.EACCES, errno.EPERM, errno.ENOENT, errno.EROFS, errno.ENAMETOOLONG})


@contextmanager
def _output_file(path: str, opener, **kwargs):
    """A text file for writing, opened by ``opener`` (``open``) with
    ``kwargs``, whose text becomes ``path`` only if the ``with`` block ends
    without an error.

    Where ``path`` is a regular file, or names nothing yet, the text goes
    to a new file beside it, which replaces ``path`` (``os.replace``) once
    it is written and closed; on an error that file is removed, and
    ``path`` keeps what it held.  Any other target (a symlink such as
    ``/dev/stdout``, a FIFO, a device), and a path whose directory takes no
    new file, is written directly."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is None or stat.S_ISREG(mode):
        if mode is not None and not os.access(path, os.W_OK):  # as opening it to write would fail
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        folder, name = os.path.split(path)
        temp = os.path.join(folder, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
        stack = ExitStack()
        try:
            # ``opener`` may return a context manager that opens on entry.
            fh = stack.enter_context(opener(temp, "x", **kwargs))  # a new file, made under the umask
        except OSError as err:
            if err.errno not in _NO_NEW_FILE:
                raise
        else:
            try:
                with stack:
                    if mode is not None:
                        os.chmod(temp, stat.S_IMODE(mode))
                    yield fh
                os.replace(temp, path)
            except BaseException:
                with suppress(FileNotFoundError):
                    os.unlink(temp)
                raise
            return
    with opener(path, "w", **kwargs) as fh:
        yield fh


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidRangeError(f"range must be LO,HI, got {text!r}")
    return float(parts[0]), float(parts[1])


# --- subcommands ---------------------------------------------------------------


def _checked_sim(result):
    """A Monte Carlo ``result``; ArithmeticError if its mean overflowed to inf."""
    if not math.isfinite(result.mean):
        raise ArithmeticError("simulated mission totals pass the largest double")
    return result


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them names nothing yet
        return os.path.realpath(a) == os.path.realpath(b)


def _cmd_solve_finite(args) -> int:
    from . import finite_solver

    if args.output and args.csv and _same_file(args.output, args.csv):
        print(f"riskplan: error: -o/--output and --csv name the same file: {args.csv}", file=sys.stderr)
        return 64
    instance = _load_instance(args.input)
    report = finite_solver.solve_finite(instance)
    _info("solved finite horizon K=%d, n=%d, total=%g",
          instance.horizon.epochs, len(instance.packages), report.total)
    _emit(_finite_report_doc(report), args.output)
    if args.csv:
        with _output_file(args.csv, open, newline="", encoding="utf-8") as fh:
            fh.writelines(_csv_pieces(report))
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
    result = _checked_sim(oracle_sim.simulate_mission(plan, instance, config))
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
    if report.sim is not None:
        _checked_sim(report.sim)
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
