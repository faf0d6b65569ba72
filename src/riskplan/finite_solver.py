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
and reward cover just those members.  ``cumprod`` and ``cumsum`` build each
prefix in order from its own entries, so these tables hold the values that
tables over the whole catalog would.

Consecutive epochs then share a prefix length q in runs: a length changes
at most once per package.  Within a run of equal q the solver steps
``V_h = c + b * V_{h+1}`` in Python floats, with the prefix's survival
``b`` and ``c = R - theta * (1 - b)`` (``R`` its reward sum) taken once per
run: the per-epoch expression with its association, so every value is
what one expression per epoch gave.  The run ends at the first threshold
that is not strictly below the gamma of the prefix's last package; one
``searchsorted`` over the shorter prefixes then finds the next q, so ties
at a threshold, infinite and nan thresholds resolve as the per-epoch
binary search resolved them.  The plan records, per epoch, its run's array
and its q (:meth:`MissionPlan.prefixes`), which every reader takes run by
run; :attr:`MissionPlan.plans` makes epoch plans as views when it is read.

A homogeneous instance has one catalog, the whole sorted array, and one
array of plan ids: O(n log n) time plus O(K) Python float steps and
O(log n) per change of q, and O(n + K) memory.  Per-epoch catalogs arrive
as the instance's sorted int64 id arrays.  A new table is built only where
an epoch's catalog differs from the next epoch's (compared as arrays), from
whichever side is smaller: the ``top`` packages are looked up in the
catalog, or, once a catalog holds no more ids than ``top``, its rows in the
package table's id index are mapped to canonical positions by the
canonical order's inverse, made once in O(n).  That adds ``m log n`` per
distinct consecutive catalog, where ``m`` is the smaller of ``top`` and the
catalog's size; each such table's ids, the chosen ids of the run's first
plan, are the array its epochs' plans are prefixes of.
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
    catalogs = instance.per_epoch_packages
    # The first epoch (0-based) of each run of equal consecutive catalogs;
    # ``is`` settles a repeated array without a call.
    starts = [0] if catalogs is None else [0] + [
        h for h in range(1, k)
        if catalogs[h] is not catalogs[h - 1] and not np.array_equal(catalogs[h], catalogs[h - 1])]
    rank = None  # each row's canonical position, for the first catalog no larger than its ``top``

    values = [0.0] * (k + 1)
    thresholds = [0.0] * k
    survivals = [0.0] * k
    arrays = [None] * len(starts)
    sources = np.empty(k, np.intp)
    sizes = np.empty(k, np.int64)
    v = 0.0
    end = k
    for run in range(len(starts) - 1, -1, -1):  # epochs start..end-1, latest first
        start = starts[run]
        h = end - 1
        threshold = theta + v
        # Thresholds only grow going backwards, so every plan of this run
        # is among the ``top`` packages above its first threshold.
        top = int(np.searchsorted(neg_gammas, -threshold, side="left"))
        catalog = None if catalogs is None else catalogs[h]
        # Ids are unique and every catalog id is known, so a catalog as
        # large as the instance is the whole sorted array.
        if catalog is None or catalog.size == ids.size:
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
        table_ids.flags.writeable = False  # every epoch of the run shares it
        survival, reward_sum = _prefix_tables(rewards[at], rhos[at])
        arrays[run] = table_ids
        sources[start:end] = run
        q = table_ids.size  # the run's first plan is the whole table
        while True:
            # Epochs h, h-1, ... keep the prefix q while the gamma of its
            # last package stays strictly above the threshold; where that
            # compare fails (a tie, an inf or a nan), searchsorted finds the
            # next prefix as it did for every epoch.  b and c are this
            # prefix's survival and constant term, so each value is the
            # per-epoch ``R - theta*(1 - b) + b*V`` with its association.
            b = float(survival[q])
            c = float(reward_sum[q]) - theta * (1.0 - b)
            gate = -float(table_neg_gammas[q - 1]) if q else 0.0
            last = h
            while True:
                thresholds[h] = threshold
                v = values[h] = c + b * v
                h -= 1
                if h < start:
                    break
                threshold = theta + v
                if q and not gate > threshold:
                    break
            sizes[h + 1:last + 1] = q
            survivals[h + 1:last + 1] = [b] * (last - h)
            if h < start:
                break
            q = int(np.searchsorted(table_neg_gammas[:q], -threshold, side="left"))
        end = start

    return SolveReport(
        values=tuple(values),
        thresholds=tuple(thresholds),
        plan=MissionPlan.prefixes(arrays, sources, sizes),
        total=values[0],
        epoch_survivals=tuple(survivals),
    )


# ``perfbench/tracing.py`` wraps this module attribute by name; it is the
# same solver, kept so that name still resolves.
solve_finite_heterogeneous = solve_finite
