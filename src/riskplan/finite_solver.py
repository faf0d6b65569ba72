"""Optimal finite-horizon solver.

The backward value recursion is

    V_{K+1} = 0
    V_h     = max over epoch plans of  E(plan) + rho_bar(plan) * V_{h+1}

and the maximizing plan for epoch ``h`` is exactly the set of packages in
that epoch's catalog with reward-to-risk ratio strictly above the threshold
``theta + V_{h+1}``, executed in canonical (non-increasing gamma) order.
Packages whose ratio equals the threshold leave the value unchanged; they
are excluded so the returned plan is canonical.

One O(n log n) sort puts the whole catalog in canonical order.  An epoch's
catalog, taken in that order, has prefix tables of survival and reward, and
its plan is the prefix of packages above the threshold, found by binary
search.  Thresholds are non-decreasing going backwards in time, so within
one catalog the prefix only ever shrinks.  A homogeneous instance has one
catalog, the whole sorted array, and each epoch plan is a numpy view into
it: O(n log n + K log n) time and O(n + K) memory, even for
million-package, thousand-epoch problems.  Per-epoch catalogs arrive as
the instance's sorted int64 id arrays, which index the canonical order
directly.  A new table is built only where an epoch's catalog differs from
the next epoch's (compared as arrays), for O(n log n + C n + K log n) time
over C distinct consecutive catalogs; such plans are copies of just the
chosen ids.
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
    """ids/rewards/rhos/gammas permuted into canonical delivery order."""
    table = instance.packages
    gammas = gamma_values(table.rewards, table.rhos)
    order = canonical_order(table.ids, table.rewards, gammas)
    return table.ids[order], table.rewards[order], table.rhos[order], gammas[order]


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
    ids, rewards, rhos, gammas = _sorted_package_arrays(instance)
    catalogs = instance.per_epoch_packages
    if catalogs is None:
        catalogs = (None,) * k  # None: the whole catalog
    else:
        by_id = np.argsort(ids)  # canonical positions in ascending id order
        ids_by_id = ids[by_id]

    values = [0.0] * (k + 1)
    thresholds = [0.0] * k
    survivals = [0.0] * k
    plans = [None] * k
    v_next = 0.0
    for h in range(k - 1, -1, -1):
        catalog = catalogs[h]
        # ``is`` settles the homogeneous case (None every epoch) without a call.
        if h == k - 1 or (catalog is not catalogs[h + 1] and not np.array_equal(catalog, catalogs[h + 1])):
            # Ids are unique and every catalog id is known, so a catalog as
            # large as the instance is the whole sorted array.
            whole = catalog is None or catalog.size == ids.size
            if whole:
                at = slice(None)
            else:
                at = np.sort(by_id[np.searchsorted(ids_by_id, catalog)])
            table_ids, neg_gammas = ids[at], -gammas[at]
            survival, reward_sum = _prefix_tables(rewards[at], rhos[at])
            q = table_ids.size  # prefix pointer; thresholds only grow going backwards
        threshold = theta + v_next
        thresholds[h] = threshold
        # Ascending keys; -inf entries (riskless packages) sort first and
        # are included at any finite threshold.
        q = int(np.searchsorted(neg_gammas[:q], -threshold, side="left"))
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
