"""Ground-truth machinery: exhaustive brute force and Monte Carlo.

``brute_force_finite`` enumerates every per-epoch (subset, ordering)
combination - orderings are enumerated explicitly rather than assuming the
ratio-ordering result - so it is an independent check of both the solver
and the ordering/threshold analysis.  Each distinct catalog is resolved
once, and each of its sequences folded once, by
:mod:`riskplan.expectation`.  A combination's value is the backward
recursion ``v_h = E_h + S_h * v_{h+1}`` from ``v_{K+1} = 0`` over those
cached (E, survival) pairs, folded for many combinations at once in numpy
arrays.  ``evaluate_mission`` then
re-evaluates the winning plan by its forward direct sum (the backward
recursion is only its internal cross-check), and the two totals must agree.
Independence comes from the enumeration, not from re-deriving the
arithmetic.

``simulate_mission`` draws every leg outcome from a counter-based RNG: the
uniform for (trial i, leg j) is a pure function of (seed, i, j) built from
the splitmix64 finalizer (Salmon et al., SC 2011; Steele, Lea & Flood,
OOPSLA 2014).  Results therefore depend only on (seed, trials) and are
bit-identical for any shard count or blocking of the work.  One kernel,
``_first_failures``, draws a block of legs for the live trials at once and
finds each trial's first failed leg by an exact integer compare; drawing
stops once every trial is dead.  A mission is one sequence of legs, so a
trial's first failed leg in it gives both its death epoch and its total.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfiniteHorizonError,
    SearchSpaceTooLargeError,
    TooManyTrialsError,
    UnboundedSimulationError,
)
from .expectation import _fold_epoch, _resolve_epoch, _resolve_plan, evaluate_mission
from .model import Instance, MissionPlan, check_epoch_limit, ensure_valid

__all__ = [
    "SimConfig",
    "SimResult",
    "brute_force_finite",
    "simulate_mission",
    "MAX_SEARCH_SPACE",
    "MAX_CATALOG_SEQUENCES",
    "MAX_TRIALS",
    "STATIONARY_EPOCH_CAP",
]

MAX_SEARCH_SPACE = 10_000_000
MAX_CATALOG_SEQUENCES = 1_000_000  # per catalog: 9 packages have 986,410
MAX_TRIALS = 10_000_000  # at about 60 bytes per trial, 0.6 GB
STATIONARY_EPOCH_CAP = 100_000


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings.  Results depend only on (seed, trials)."""

    trials: int
    seed: int
    #: Splits the trial range into this many passes, or ``trials`` if
    #: fewer, run one after another in this process; the split cannot
    #: change any result.
    parallel_shards: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.parallel_shards < 1:
            raise ValueError("parallel_shards must be positive")


@dataclass(frozen=True)
class SimResult:
    mean: float
    std_error: float
    per_epoch_survival_freq: tuple[float, ...]
    failure_epoch_histogram: dict[int, int] = field(default_factory=dict)
    truncation_bias_bound: float = 0.0


# --- brute force -------------------------------------------------------------


def _epoch_sequences(ids: list[int]) -> list[tuple[int, ...]]:
    """Every ordered selection (including empty), lexicographically sorted."""
    seqs: list[tuple[int, ...]] = [()]
    for k in range(1, len(ids) + 1):
        for subset in itertools.combinations(ids, k):
            seqs.extend(itertools.permutations(subset))
    seqs.sort()
    return seqs


def _sequence_count(n: int) -> int:
    """Ordered selections of n ids, counted only until past the per-catalog cap."""
    total = 1  # the empty selection; then a(m) = m * a(m - 1) + 1
    for m in range(1, n + 1):
        if total > MAX_CATALOG_SEQUENCES:
            break
        total = m * total + 1
    return total


#: Most values the brute-force fold holds in one array.
_FOLD_BLOCK = 1 << 16


@dataclass(frozen=True)
class _EpochTable:
    """One catalog's ordered selections and their (E, survival) columns."""

    seqs: list[tuple[int, ...]]
    expected: np.ndarray
    survival: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # as silent as float arithmetic
def _fold_product(tables: list[_EpochTable]) -> tuple[float, list[int]]:
    """Best ``value = E_1 + S_1*(E_2 + S_2*(... (E_K + S_K*0.0)))`` over
    the product of the epochs' selections; returns it with one index per
    epoch.

    Combinations are visited in ``itertools.product`` order (last epoch
    fastest) and the first maximum wins, as a strictly-greater scan would
    keep it, so exact ties resolve to the lexicographically smallest plan.
    Each value is the same chain of float operations, in the same order,
    as the per-combination backward loop.

    The trailing epochs whose product fits in ``_FOLD_BLOCK`` fold once
    into ``tail``.  The rest is walked block by block: each leading index
    tuple, in lexicographic order, with a chunk of the next epoch's
    selections, so no array holds more than about ``_FOLD_BLOCK`` values.
    """
    counts = [len(t.seqs) for t in tables]
    h = len(tables)
    tail, size = 0.0, 1  # a float while every folded epoch has one selection
    while h > 0 and size * counts[h - 1] <= _FOLD_BLOCK:
        h -= 1
        e, s = tables[h].expected, tables[h].survival
        # One selection folds with no numpy call on a float tail: 10^6 empty catalogs stay cheap.
        tail = float(e[0]) + float(s[0]) * tail if counts[h] == 1 else (e[:, None] + s[:, None] * tail).ravel()
        size *= counts[h]

    if h == 0:
        best_value, pos = _first_max(np.atleast_1d(tail))
        lead: tuple[int, ...] = ()
    else:
        # Epoch h (1-based) is split into chunks; epochs 1..h-1 lead.
        split = tables[h - 1]
        chunk = max(1, _FOLD_BLOCK // size)
        leaders = [(t.expected.tolist(), t.survival.tolist()) for t in tables[: h - 1]]
        best_value, pos, lead = -math.inf, 0, ()
        for idx in itertools.product(*(range(c) for c in counts[: h - 1])):
            for lo in range(0, counts[h - 1], chunk):
                e, s = split.expected[lo: lo + chunk], split.survival[lo: lo + chunk]
                block = (e[:, None] + s[:, None] * tail).ravel()
                for (es, ss), i in zip(reversed(leaders), reversed(idx)):
                    block = es[i] + ss[i] * block
                value, at = _first_max(block)
                if value > best_value:
                    best_value, pos, lead = value, lo * size + at, idx

    # Decode the winner's position in its block, last epoch first.
    choice = [0] * len(tables)
    for g in range(len(tables) - 1, h - 1, -1):
        pos, choice[g] = divmod(pos, counts[g])
    if h:
        choice[h - 1] = pos
        choice[: h - 1] = lead
    return best_value, choice


def _first_max(values: np.ndarray) -> tuple[float, int]:
    """(value, position) of the first maximum, skipping NaN as ``>`` does."""
    at = int(np.argmax(values))
    if values[at] != values[at]:
        at = int(np.argmax(np.where(np.isnan(values), -math.inf, values)))
    return float(values[at]), at


def brute_force_finite(instance: Instance) -> tuple[float, MissionPlan]:
    """Exhaustive optimum of a finite-horizon instance.

    Value ties resolve to the plan that is lexicographically smallest by
    (epoch, position, id).  The search space (product over epochs of the
    per-epoch ordered-selection counts) is capped at 10^7, and each
    catalog's own count at 10^6.
    """
    ensure_valid(instance)
    if not instance.horizon.is_finite:
        raise InfiniteHorizonError("brute force requires a finite horizon")
    check_epoch_limit(instance)
    k = instance.horizon.epochs

    space = 1
    epoch_ids = []
    for h in range(1, k + 1):
        ids = instance.catalog(h).tolist()
        epoch_ids.append(ids)
        count = _sequence_count(len(ids))
        if count > MAX_CATALOG_SEQUENCES:
            raise SearchSpaceTooLargeError(f"epoch {h}'s catalog exceeds {MAX_CATALOG_SEQUENCES:,} ordered selections")
        space *= count
        if space > MAX_SEARCH_SPACE:
            raise SearchSpaceTooLargeError(f"search space exceeds {MAX_SEARCH_SPACE:,} plan combinations")

    # Resolve each distinct catalog once and fold each of its sequences
    # from its columns; combinations only chain the cached (E, survival)
    # pairs.
    by_catalog: dict[tuple[int, ...], _EpochTable] = {}
    tables = []
    for h, ids in enumerate(epoch_ids, start=1):
        table = by_catalog.get(tuple(ids))
        if table is None:
            rewards, rhos = _resolve_epoch(ids, instance, epoch=h)
            reward_of, rho_of = dict(zip(ids, rewards)), dict(zip(ids, rhos))
            seqs = _epoch_sequences(ids)
            evals = [_fold_epoch([reward_of[i] for i in seq], [rho_of[i] for i in seq], instance.theta)
                     for seq in seqs]
            table = _EpochTable(
                seqs,
                np.array([ev.expected_reward for ev in evals]),
                np.array([ev.epoch_survival for ev in evals]),
            )
            by_catalog[tuple(ids)] = table
        tables.append(table)

    best_value, choice = _fold_product(tables)
    plan = MissionPlan.finite(t.seqs[i] for t, i in zip(tables, choice))
    check = evaluate_mission(plan, instance).total
    if not math.isclose(best_value, check, rel_tol=1e-9, abs_tol=1e-9):
        raise ArithmeticError(
            f"brute-force fold ({best_value!r}) disagrees with evaluate_mission ({check!r})")
    return best_value, plan


# --- counter-based RNG -------------------------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U64 = 1 << 64


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array, in place; returns ``z``."""
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= mult
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def trial_keys(seed: int, trial_ids: np.ndarray) -> np.ndarray:
    """Per-trial 64-bit keys derived from (seed, trial index)."""
    seed_u = np.uint64(seed % _U64)
    return _mix64(seed_u + _GOLDEN * (trial_ids.astype(np.uint64) + np.uint64(1)))


#: Most draws in one block of :func:`_first_failures` (its two uint64
#: arrays then take 1 MB), and most legs one block spans, since legs drawn
#: after a trial's death are wasted; at most 255, the kernel's uint8 weights.
_DRAW_BLOCK = 1 << 16
_BLOCK_LEGS = 64


def _leg_thresholds(rhos) -> np.ndarray:
    """Each package's two legs' pass marks, ``ceil(rho * 2^53)``, as uint64."""
    return np.repeat(np.ceil(np.asarray(rhos, dtype=np.float64) * 2.0 ** 53).astype(np.uint64), 2)


def _first_failures(keys: np.ndarray, offsets: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Each trial's first failed leg in one block, or ``len(offsets)``.

    Row j of the (legs x trials) block holds the raw draws
    ``mix(keys + offsets[j])``; draw index d has the offset ``(d + 1) *
    0x9E3779B97F4A7C15 mod 2^64`` and the uniform ``u = (raw >> 11) *
    2^-53`` in [0, 1).  Leg j fails where ``raw >> 11 >= thresholds[j]``.
    With thresholds ``ceil(rho * 2^53)`` that is exactly ``u >= rho``:
    ``u = k * 2^-53 < rho`` holds exactly when ``k < ceil(rho * 2^53)``.
    """
    raw = _mix64(offsets[:, None] + keys)
    raw >>= np.uint64(11)
    # The earliest failed leg has the largest weight n - j; none weighs 0.
    n = offsets.size
    fail = raw >= thresholds[:, None]
    weight = np.arange(n, 0, -1, dtype=np.uint8)[:, None]
    return n - (fail * weight).max(axis=0).astype(np.intp)


def _failed_legs(keys: np.ndarray, first_draw: int, thresholds: np.ndarray, legs: int) -> np.ndarray:
    """Each trial's first failed leg among ``legs`` legs drawn at
    ``first_draw``, ``first_draw + 1``, ...; ``legs`` for a trial that
    fails none.  Leg j's pass mark is ``thresholds[j % len(thresholds)]``,
    so a stationary plan passes one epoch's marks.

    Blocks hold at most ``_DRAW_BLOCK`` draws (one leg when more trials
    are alive); a trial leaves once it fails, and drawing stops once none
    is left.
    """
    first = np.full(keys.size, legs, dtype=np.intp)
    live = np.arange(keys.size)
    start = 0
    while start < legs and live.size:
        n = min(legs - start, _BLOCK_LEGS, max(1, _DRAW_BLOCK // live.size))
        d = first_draw + start
        offsets = np.arange(d + 1, d + n + 1, dtype=np.uint64) * _GOLDEN  # wraps mod 2^64
        marks = thresholds[np.arange(start, start + n) % thresholds.size]
        block = _first_failures(keys[live], offsets, marks)
        first[live] = start + block
        live = live[block == n]
        start += n
    return first


# --- Monte Carlo -------------------------------------------------------------


def _check_trials(config: SimConfig) -> None:
    """Raise :class:`TooManyTrialsError` for more than :data:`MAX_TRIALS` trials."""
    if config.trials > MAX_TRIALS:
        raise TooManyTrialsError(f"{config.trials:,} trials exceed the limit of {MAX_TRIALS:,}")


def _pass_keys(config: SimConfig):
    """Each pass's trial keys: at most ``min(parallel_shards, trials)``
    passes, none empty, in trial order.  Runs :func:`_check_trials` before
    it makes any key."""
    _check_trials(config)
    passes = min(config.parallel_shards, config.trials)
    for s in range(passes):
        lo, hi = s * config.trials // passes, (s + 1) * config.trials // passes
        yield trial_keys(config.seed, np.arange(lo, hi, dtype=np.uint64))


@np.errstate(over="ignore", invalid="ignore")  # as silent as float arithmetic
def _sim_result(totals: np.ndarray, deaths: np.ndarray, population: int, truncation_bias: float = 0.0) -> SimResult:
    """The result of the trials' ``totals`` when ``deaths[h]`` of
    ``population`` agents died in epoch h.  The deviations are squared at
    the power-of-two scale that puts the largest total in [0.5, 1), which
    is exact and keeps the standard error finite where the totals are."""
    std_error = 0.0
    if totals.size > 1:
        e = math.frexp(float(np.max(np.abs(totals))))[1]  # 0 for inf or NaN; ldexp cannot raise
        std_error = float(np.ldexp(np.std(np.ldexp(totals, -e), ddof=1) / math.sqrt(totals.size), e))
    alive = population - np.cumsum(deaths[:-1])  # at each epoch's start
    return SimResult(
        mean=float(np.mean(totals)),
        std_error=std_error,
        per_epoch_survival_freq=tuple((alive / population).tolist()),
        failure_epoch_histogram={int(h): int(deaths[h]) for h in np.flatnonzero(deaths)},
        truncation_bias_bound=truncation_bias,
    )


def _truncation_bias(rewards: list[float], rhos: list[float], theta: float) -> float:
    """Bound on what stopping a stationary plan at ``STATIONARY_EPOCH_CAP``
    epochs leaves out of its mean."""
    ev = _fold_epoch(rewards, rhos, theta)
    if ev.epoch_survival == 1.0:
        raise UnboundedSimulationError(
            "nonempty stationary plan with survival probability 1 never terminates")
    eps = ev.expected_reward / (1.0 - ev.epoch_survival)
    return ev.epoch_survival ** STATIONARY_EPOCH_CAP * abs(eps)


def simulate_mission(plan: MissionPlan, instance: Instance, config: SimConfig) -> SimResult:
    """Monte Carlo estimate of a plan's expected mission reward.

    Per trial, each cycle draws an outbound leg (reward on success, -theta
    and trial over on failure) then a return leg.  On an infinite horizon a
    stationary plan repeats until the agent dies or the 10^5-epoch cap,
    with the geometric truncation bias bound reported alongside the
    estimate; on a finite horizon it expands to one copy per epoch,
    matching ``evaluate_mission``.

    A mission is one sequence of legs, drawn on one counter: each epoch's
    legs in plan order, a stationary plan's repeated up to the cap.  All
    else follows from each trial's first failed leg f in it.  The trial
    died in the epoch whose legs hold f, and won the first ``(f + 1) // 2``
    rewards of the mission, whose sum is that prefix of one left fold, as
    the trial's own running total would be.
    """
    ensure_valid(instance)
    check_epoch_limit(instance)
    epochs, stationary = _resolve_plan(plan, instance)
    rewards = [r for epoch_rewards, _ in epochs for r in epoch_rewards]
    thresholds = _leg_thresholds([rho for _, rhos in epochs for rho in rhos])

    truncation_bias = 0.0
    if stationary:
        if not rewards:
            return SimResult(mean=0.0, std_error=0.0, per_epoch_survival_freq=(1.0,))
        truncation_bias = _truncation_bias(*epochs[0], instance.theta)
        ends = thresholds.size * np.arange(1, STATIONARY_EPOCH_CAP + 1)
    else:
        ends = np.cumsum([2 * len(epoch_rewards) for epoch_rewards, _ in epochs])
    legs = int(ends[-1])

    first = np.concatenate([_failed_legs(keys, 0, thresholds, legs) for keys in _pass_keys(config)])
    delivered = (first + 1) // 2
    won = np.array(rewards)[np.arange(delivered.max()) % len(rewards)]  # cycled on a stationary plan
    with np.errstate(over="ignore"):  # as silent as float arithmetic
        prefix = np.cumsum(np.concatenate(([0.0], won)))
    totals = prefix[delivered]
    died = first < legs
    totals[died] -= instance.theta

    death_epoch = np.searchsorted(ends, first[died], side="right") + 1
    n_epochs = ends.size
    if stationary and died.all():  # the mission ends with its last live trial
        n_epochs = int(death_epoch.max())
    deaths = np.bincount(death_epoch, minlength=n_epochs + 1)
    return _sim_result(totals, deaths, config.trials, truncation_bias)
