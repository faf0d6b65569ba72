"""Ground-truth machinery: exhaustive brute force and Monte Carlo.

``brute_force_finite`` enumerates every per-epoch (subset, ordering)
combination - orderings are enumerated explicitly rather than assuming the
ratio-ordering result - so it is an independent check of both the solver
and the ordering/threshold analysis.  Each distinct epoch sequence is
evaluated once through :mod:`riskplan.expectation` and combinations are
chained with the same backward recursion the evaluator uses; independence
comes from the enumeration, not from re-deriving the arithmetic.

``simulate_mission`` draws every leg outcome from a counter-based RNG: the
uniform for (trial i, leg j) is a pure function of (seed, i, j) built from
the splitmix64 finalizer.  Results therefore depend only on (seed, trials)
and are bit-identical for any shard count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    HorizonMismatchError,
    InfiniteHorizonError,
    InvalidPlanError,
    SearchSpaceTooLargeError,
    UnboundedSimulationError,
)
from .expectation import evaluate_epoch, evaluate_mission
from .model import Instance, MissionPlan, check_epoch_limit, ensure_valid

__all__ = [
    "SimConfig",
    "SimResult",
    "brute_force_finite",
    "simulate_mission",
    "MAX_SEARCH_SPACE",
    "STATIONARY_EPOCH_CAP",
]

MAX_SEARCH_SPACE = 10_000_000
STATIONARY_EPOCH_CAP = 100_000


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo settings.  Results depend only on (seed, trials)."""

    trials: int
    seed: int
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
    total = 0
    for k in range(n + 1):
        total += math.perm(n, k)
    return total


def brute_force_finite(instance: Instance) -> tuple[float, MissionPlan]:
    """Exhaustive optimum of a finite-horizon instance.

    Value ties resolve to the plan that is lexicographically smallest by
    (epoch, position, id).  The search space (product over epochs of the
    per-epoch ordered-selection counts) is capped at 10^7.
    """
    ensure_valid(instance)
    if not instance.horizon.is_finite:
        raise InfiniteHorizonError("brute force requires a finite horizon")
    check_epoch_limit(instance)
    k = instance.horizon.epochs

    space = 1
    epoch_ids = []
    for h in range(1, k + 1):
        ids = sorted(instance.allowed_ids(h))
        epoch_ids.append(ids)
        space *= _sequence_count(len(ids))
        if space > MAX_SEARCH_SPACE:
            raise SearchSpaceTooLargeError(
                f"search space exceeds {MAX_SEARCH_SPACE:,} plan combinations")

    # Evaluate each distinct epoch sequence once; combinations only chain
    # the cached (E, survival) pairs.
    epoch_entries = []
    for h, ids in enumerate(epoch_ids, start=1):
        entries = []
        for seq in _epoch_sequences(ids):
            ev = evaluate_epoch(seq, instance, epoch=h)
            entries.append((ev.expected_reward, ev.epoch_survival, seq))
        epoch_entries.append(entries)

    best_value = -math.inf
    best_combo = None
    for combo in itertools.product(*epoch_entries):
        value = 0.0
        for expected, survival, _ in reversed(combo):
            value = expected + survival * value
        # Strictly-greater keeps the first maximum; product() iterates in
        # lexicographic plan order, so exact ties resolve canonically.
        if value > best_value:
            best_value = value
            best_combo = combo

    plan = MissionPlan.finite(seq for _, _, seq in best_combo)
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
    """splitmix64 finalizer over a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def trial_keys(seed: int, trial_ids: np.ndarray) -> np.ndarray:
    """Per-trial 64-bit keys derived from (seed, trial index)."""
    seed_u = np.uint64(seed % _U64)
    return _mix64(seed_u + _GOLDEN * (trial_ids.astype(np.uint64) + np.uint64(1)))


def leg_uniforms(keys: np.ndarray, draw_index: int) -> np.ndarray:
    """Uniforms in [0, 1) for one leg across trials: mix(key, draw_index)."""
    # Scalar offset computed in Python ints to wrap mod 2^64 silently.
    offset = np.uint64(((draw_index + 1) * 0x9E3779B97F4A7C15) % _U64)
    raw = _mix64(keys + offset)
    return (raw >> np.uint64(11)) * (2.0 ** -53)


# --- Monte Carlo -------------------------------------------------------------


def _plan_epochs_for_sim(plan: MissionPlan, instance: Instance) -> tuple[list[list], bool]:
    """Resolve the plan into per-epoch package lists; True if stationary."""
    if plan.is_stationary:
        if len(set(map(int, plan.stationary))) != len(plan.stationary):
            raise InvalidPlanError("stationary plan repeats a package id")
        epoch = [instance.package_by_id(i) for i in plan.stationary]
        return [epoch], True
    pep = instance.per_epoch_packages
    if pep is not None and len(plan.plans) != len(pep):
        raise HorizonMismatchError(
            "finite plan length must match the per-epoch catalog list")
    epochs = []
    for h, epoch_plan in enumerate(plan.plans, start=1):
        if len(set(map(int, epoch_plan))) != len(epoch_plan):
            raise InvalidPlanError(f"epoch {h} plan repeats a package id")
        allowed = instance.allowed_ids(h) if pep is not None else None
        pkgs = []
        for pkg_id in epoch_plan:
            pkg = instance.package_by_id(int(pkg_id))
            if allowed is not None and pkg.id not in allowed:
                raise HorizonMismatchError(
                    f"package {pkg.id} is not available in epoch {h}")
            pkgs.append(pkg)
        epochs.append(pkgs)
    return epochs, False


def _run_shard(epochs, stationary, theta, seed, lo, hi):
    """Simulate trials [lo, hi); returns (totals, death_epochs, alive_counts)."""
    m = hi - lo
    ids = np.arange(lo, hi, dtype=np.uint64)
    keys = trial_keys(seed, ids)
    totals = np.zeros(m)
    death_epoch = np.zeros(m, dtype=np.int64)
    idx = np.arange(m)
    alive_counts: list[int] = []

    epoch_iter = itertools.repeat(epochs[0]) if stationary else iter(epochs)
    cap = STATIONARY_EPOCH_CAP if stationary else len(epochs)
    draw = 0
    for h in range(1, cap + 1):
        if stationary and idx.size == 0:
            break
        alive_counts.append(idx.size)
        for pkg in next(epoch_iter):
            rho = pkg.leg_success
            out_ok = leg_uniforms(keys[idx], draw) < rho
            draw += 1
            dead = idx[~out_ok]
            totals[dead] -= theta
            death_epoch[dead] = h
            idx = idx[out_ok]
            totals[idx] += pkg.reward
            ret_ok = leg_uniforms(keys[idx], draw) < rho
            draw += 1
            dead = idx[~ret_ok]
            totals[dead] -= theta
            death_epoch[dead] = h
            idx = idx[ret_ok]
    return totals, death_epoch, alive_counts


def simulate_mission(plan: MissionPlan, instance: Instance, config: SimConfig) -> SimResult:
    """Monte Carlo estimate of a plan's expected mission reward.

    Per trial, each cycle draws an outbound leg (reward on success, -theta
    and trial over on failure) then a return leg.  On an infinite horizon a
    stationary plan repeats until the agent dies or the 10^5-epoch cap,
    with the geometric truncation bias bound reported alongside the
    estimate; on a finite horizon it expands to one copy per epoch,
    matching ``evaluate_mission``.
    """
    ensure_valid(instance)
    if plan.is_stationary and instance.horizon.is_finite:
        plan = MissionPlan.finite([plan.stationary] * instance.horizon.epochs)
    epochs, stationary = _plan_epochs_for_sim(plan, instance)

    truncation_bias = 0.0
    if stationary:
        if not epochs[0]:
            return SimResult(mean=0.0, std_error=0.0, per_epoch_survival_freq=(1.0,))
        ev = evaluate_epoch(plan.stationary, instance)
        if ev.epoch_survival == 1.0:
            raise UnboundedSimulationError(
                "nonempty stationary plan with survival probability 1 never terminates")
        eps = ev.expected_reward / (1.0 - ev.epoch_survival)
        truncation_bias = ev.epoch_survival ** STATIONARY_EPOCH_CAP * abs(eps)

    bounds = np.linspace(0, config.trials, config.parallel_shards + 1).astype(int)
    totals_parts = []
    death_parts = []
    alive_parts: list[list[int]] = []
    for s in range(config.parallel_shards):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        if lo == hi:
            continue
        totals, deaths, alive_counts = _run_shard(
            epochs, stationary, instance.theta, config.seed, lo, hi)
        totals_parts.append(totals)
        death_parts.append(deaths)
        alive_parts.append(alive_counts)

    totals = np.concatenate(totals_parts)
    deaths = np.concatenate(death_parts)

    n_epochs = max(len(a) for a in alive_parts)
    alive_total = np.zeros(n_epochs, dtype=np.int64)
    for counts in alive_parts:
        alive_total[: len(counts)] += np.asarray(counts, dtype=np.int64)

    mean = float(np.mean(totals))
    std_error = float(np.std(totals, ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    hist_epochs, hist_counts = np.unique(deaths[deaths > 0], return_counts=True)
    return SimResult(
        mean=mean,
        std_error=std_error,
        per_epoch_survival_freq=tuple(float(c) / config.trials for c in alive_total),
        failure_epoch_histogram={int(e): int(c) for e, c in zip(hist_epochs, hist_counts)},
        truncation_bias_bound=truncation_bias,
    )
