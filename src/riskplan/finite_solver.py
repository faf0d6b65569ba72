"""Optimal finite-horizon solver.

The backward value recursion is

    V_{K+1} = 0
    V_h     = max over epoch plans of  E(plan) + rho_bar(plan) * V_{h+1}

and the maximizing plan for epoch ``h`` is exactly the set of packages in
that epoch's catalog with reward-to-risk ratio strictly above the threshold
``theta + V_{h+1}``, executed in canonical (non-increasing gamma) order.
Packages whose ratio equals the threshold leave the value unchanged; they
are excluded so the returned plan is canonical.

One O(n log n) sort puts the whole catalog in canonical order.  Thresholds
are non-decreasing going backwards in time, so within a run of epochs that
share one catalog each plan is a prefix of the run's first (latest) plan.
That plan is the catalog's members among the ``top`` packages of the whole
order above the run's first threshold.  The run's prefix tables of survival
and reward cover just those members, and each later plan is a shorter
prefix, found by binary search.  ``cumprod`` and ``cumsum`` build each
prefix in order from its own entries, so these tables hold the values that
tables over the whole catalog would.

A homogeneous instance has one catalog, the whole sorted array, and each
epoch plan is a numpy view into it: O(n log n + K log n) time and O(n + K)
memory, even for million-package, thousand-epoch problems.  Per-epoch
catalogs arrive as the instance's sorted int64 id arrays.  A new table is
built only where an epoch's catalog differs from the next epoch's
(compared as arrays), from whichever side is smaller: the ``top``
packages are looked up in the catalog, or, once a catalog holds no more
ids than ``top``, its rows in the package table's id index are mapped to
canonical positions by the canonical order's inverse, made once in O(n).
That is O(n log n + K log n) time plus ``m log n`` per distinct
consecutive catalog, where ``m`` is the smaller of ``top`` and the
catalog's size.  Such plans are copies of just the chosen ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfiniteHorizonError
from .model import Instance, MissionPlan, canonical_order, check_epoch_limit, ensure_valid, gamma_values

__all__ = ["SolveReport", "solve_finite"]


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Backward-induction solution summary.

    ``values`` holds ``V_1 .. V_{K+1}`` (``V_{K+1} = 0``); ``thresholds``
    holds ``theta + V_{h+1}`` for ``h = 1..K``; ``total`` equals ``V_1``.
    ``epoch_survivals`` holds each epoch plan's survival ``rho_bar_h``,
    the running product of ``rho**2`` in plan order: bit-identical to
    :func:`riskplan.expectation.evaluate_epoch`'s ``epoch_survival``.
    """

    values: tuple[float, ...]
    thresholds: tuple[float, ...]
    plan: MissionPlan
    total: float
    epoch_survivals: tuple[float, ...]


def _sorted_package_arrays(instance: Instance):
    """The canonical order of the rows, and ids/rewards/rhos/gammas permuted into it."""
    table = instance.packages
    gammas = gamma_values(table.rewards, table.rhos)
    order = canonical_order(table.ids, table.rewards, gammas)
    return order, table.ids[order], table.rewards[order], table.rhos[order], gammas[order]


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


def solve_finite(instance: Instance) -> SolveReport:
    """Optimal plan and values of a finite-horizon instance, with or
    without per-epoch catalogs."""
    ensure_valid(instance)
    if not instance.horizon.is_finite:
        raise InfiniteHorizonError(
            "instance has an infinite horizon; use `solve infinite` (solve_infinite)")
    check_epoch_limit(instance)

    k = instance.horizon.epochs
    theta = instance.theta
    order, ids, rewards, rhos, gammas = _sorted_package_arrays(instance)
    neg_gammas = -gammas  # ascending; -inf entries (riskless packages) sort first
    catalogs = instance.per_epoch_packages or (instance.catalog(1),) * k
    rank = None  # each row's canonical position, for the first catalog no larger than its ``top``

    values = [0.0] * (k + 1)
    thresholds = [0.0] * k
    survivals = [0.0] * k
    plans = [None] * k
    v_next = 0.0
    for h in range(k - 1, -1, -1):
        catalog = catalogs[h]
        threshold = theta + v_next
        thresholds[h] = threshold
        # ``is`` settles the homogeneous case (one shared array) without a call.
        if h == k - 1 or (catalog is not catalogs[h + 1] and not np.array_equal(catalog, catalogs[h + 1])):
            # Thresholds only grow going backwards, so every plan of this
            # run is among the ``top`` packages above its first threshold.
            top = int(np.searchsorted(neg_gammas, -threshold, side="left"))
            # Ids are unique and every catalog id is known, so a catalog as
            # large as the instance is the whole sorted array.
            whole = catalog.size == ids.size
            if whole:
                at = slice(top)
            elif catalog.size <= top:  # the catalog's ids at their canonical positions
                if rank is None:
                    rank = np.empty_like(order)
                    rank[order] = np.arange(order.size)
                at = rank[instance.packages.rows(catalog)]
                at = np.sort(at[at < top])
            else:  # the top packages that the catalog holds
                at = np.flatnonzero(instance.in_catalog(h + 1, ids[:top]))
            table_ids, table_neg_gammas = ids[at], neg_gammas[at]
            survival, reward_sum = _prefix_tables(rewards[at], rhos[at])
            q = table_ids.size  # the plan is the whole table
        else:
            q = int(np.searchsorted(table_neg_gammas[:q], -threshold, side="left"))
        plans[h] = table_ids[:q] if whole else table_ids[:q].copy()
        rho_bar = survivals[h] = float(survival[q])
        values[h] = float(reward_sum[q] - theta * (1.0 - rho_bar) + rho_bar * v_next)
        v_next = values[h]

    return SolveReport(
        values=tuple(values),
        thresholds=tuple(thresholds),
        plan=MissionPlan.finite(plans),
        total=values[0],
        epoch_survivals=tuple(survivals),
    )


# ``perfbench/tracing.py`` wraps this module attribute by name; it is the
# same solver, kept so that name still resolves.
solve_finite_heterogeneous = solve_finite
