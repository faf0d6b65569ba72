"""Optimal finite-horizon solver.

The backward value recursion is

    V_{K+1} = 0
    V_h     = max over epoch plans of  E(plan) + rho_bar(plan) * V_{h+1}

and the maximizing plan for epoch ``h`` is exactly the set of packages with
reward-to-risk ratio strictly above the threshold ``theta + V_{h+1}``,
executed in canonical (non-increasing gamma) order.  Packages whose ratio
equals the threshold leave the value unchanged; they are excluded so the
returned plan is canonical.

Homogeneous catalogs are solved with one O(n log n) sort plus an O(n + K)
backward sweep: thresholds are non-decreasing going backwards in time, so
each epoch's plan is a prefix of the sorted package array and the prefix
pointer only ever moves one way.  Epoch plans in the report are numpy views
into that single sorted array, which keeps memory at O(n + K) even for
million-package, thousand-epoch problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfiniteHorizonError,
    MissingPerEpochCatalogError,
    TooManyEpochsError,
)
from .model import (
    Instance,
    MissionPlan,
    canonical_delivery_order,
    ensure_valid,
    gamma_values,
    reward_to_risk,
)

__all__ = ["SolveReport", "solve_finite", "solve_finite_heterogeneous", "MAX_EPOCHS"]

#: Longest horizon either solver accepts.  Both keep O(K) state (values,
#: thresholds and one plan per epoch), so a larger K is refused before any
#: of it is allocated.
MAX_EPOCHS = 1_000_000


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Backward-induction solution summary.

    ``values`` holds ``V_1 .. V_{K+1}`` (``V_{K+1} = 0``); ``thresholds``
    holds ``theta + V_{h+1}`` for ``h = 1..K``; ``total`` equals ``V_1``.
    """

    values: tuple[float, ...]
    thresholds: tuple[float, ...]
    plan: MissionPlan
    total: float


def _sorted_package_arrays(instance: Instance):
    """ids/rewards/rhos/gammas permuted into canonical delivery order."""
    ids, rewards, rhos = instance._arrays()
    gammas = gamma_values(rewards, rhos)
    riskless = np.isinf(gammas)
    # Canonical order: riskless positive-reward packages first (by
    # descending reward), everything else by descending gamma; ties by
    # ascending id.  lexsort uses the last key as primary.
    secondary = np.where(riskless, -rewards, -gammas)
    order = np.lexsort((ids, secondary, np.where(riskless, 0, 1)))
    return ids[order], rewards[order], rhos[order], gammas[order]


def _prefix_tables(rewards: np.ndarray, rhos: np.ndarray):
    """Prefix aggregates along canonical order.

    ``survival[q]`` is the probability of completing the first ``q``
    cycles; ``reward_sum[q]`` is ``sum_{j<=q} r_j * psi_j``.
    """
    n = rewards.size
    survival = np.empty(n + 1)
    reward_sum = np.empty(n + 1)
    survival[0] = 1.0
    reward_sum[0] = 0.0
    if n:
        round_trip = rhos * rhos
        survival[1:] = np.cumprod(round_trip)
        psis = survival[:-1] * rhos
        reward_sum[1:] = np.cumsum(rewards * psis)
    return survival, reward_sum


def _check_horizon(instance: Instance) -> None:
    if not instance.horizon.is_finite:
        raise InfiniteHorizonError("use solve_infinite for infinite horizons")
    if instance.horizon.epochs > MAX_EPOCHS:
        raise TooManyEpochsError(
            f"horizon of {instance.horizon.epochs:,} epochs exceeds the finite solver's "
            f"limit of {MAX_EPOCHS:,} epochs")


def solve_finite(instance: Instance) -> SolveReport:
    """Optimal plan and values for a homogeneous finite-horizon instance."""
    ensure_valid(instance)
    _check_horizon(instance)
    if instance.per_epoch_packages is not None:
        return solve_finite_heterogeneous(instance)

    k = instance.horizon.epochs
    theta = instance.theta
    ids, rewards, rhos, gammas = _sorted_package_arrays(instance)
    survival, reward_sum = _prefix_tables(rewards, rhos)
    # Ascending keys for prefix search; -inf entries (riskless packages)
    # sort first and are included at any finite threshold.
    neg_gammas = -gammas

    values = [0.0] * (k + 1)
    thresholds = [0.0] * k
    sizes = [0] * k
    v_next = 0.0
    q = ids.size  # prefix pointer; thresholds only grow going backwards
    for h in range(k - 1, -1, -1):
        threshold = theta + v_next
        thresholds[h] = threshold
        q = int(np.searchsorted(neg_gammas[:q], -threshold, side="left"))
        sizes[h] = q
        rho_bar = survival[q]
        values[h] = float(reward_sum[q] - theta * (1.0 - rho_bar) + rho_bar * v_next)
        v_next = values[h]

    plan = MissionPlan.finite(ids[:size] for size in sizes)
    return SolveReport(
        values=tuple(values),
        thresholds=tuple(thresholds),
        plan=plan,
        total=values[0],
    )


def solve_finite_heterogeneous(instance: Instance) -> SolveReport:
    """Optimal plan when each epoch has its own package catalog.

    Thresholds and ordering work per epoch exactly as in the homogeneous
    case, but plans are not nested across epochs, so each epoch filters
    the global canonical order: O(K n) after one O(n log n) sort.
    """
    ensure_valid(instance)
    _check_horizon(instance)
    if instance.per_epoch_packages is None:
        raise MissingPerEpochCatalogError("instance has no per-epoch catalogs")

    k = instance.horizon.epochs
    theta = instance.theta
    ordered = canonical_delivery_order(instance.packages)
    ordered_gammas = [reward_to_risk(p) for p in ordered]

    values = [0.0] * (k + 1)
    thresholds = [0.0] * k
    plans: list[tuple[int, ...]] = [()] * k
    v_next = 0.0
    for h in range(k - 1, -1, -1):
        threshold = theta + v_next
        thresholds[h] = threshold
        allowed = instance.per_epoch_packages[h]
        chosen = [
            p for p, g in zip(ordered, ordered_gammas)
            if p.id in allowed and g > threshold
        ]
        rho_bar = 1.0
        reward_sum = 0.0
        for p in chosen:
            reward_sum += p.reward * rho_bar * p.leg_success
            rho_bar *= p.leg_success * p.leg_success
        values[h] = reward_sum - theta * (1.0 - rho_bar) + rho_bar * v_next
        plans[h] = tuple(p.id for p in chosen)
        v_next = values[h]

    return SolveReport(
        values=tuple(values),
        thresholds=tuple(thresholds),
        plan=MissionPlan.finite(plans),
        total=values[0],
    )
