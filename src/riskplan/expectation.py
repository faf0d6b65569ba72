"""Exact expected-reward evaluation of delivery plans.

For an epoch plan executing packages ``1..q`` in order, the probability of
completing the first ``j`` cycles is the running product of round-trip
survivals, ``rho_bar_j = prod_{i<=j} rho_i**2`` (``rho_bar_0 = 1``); the
probability of delivering the j-th package is ``psi_j = rho_bar_{j-1} *
rho_j`` (the agent must finish every prior cycle and the outbound leg).
The conditional expected reward of the epoch is then

    E = sum_j r_j * psi_j - theta * (1 - rho_bar_q)

and mission totals chain epochs through the survival products.  Survival
products are computed by plain sequential multiplication in plan order (the
psi values are needed individually anyway); underflow to exact 0 is
acceptable semantics - an astronomically risky tail is worthless.

Plan ids become package values in one place, :func:`_resolve` (one binary
search of the id index per call): :func:`_resolve_plan` for a mission plan,
one entry per run of epochs with one plan, and :func:`_resolve_epoch` for
one epoch's plans (an ``evaluate_epoch`` plan, a brute-force catalog, or a
team plan's tours, all in one call).  The simulator, brute force and the
team module share it with the evaluator, so each plan fault raises the same
error everywhere.  Every id must be an integer that int64 holds (no bools,
floats or strings), else :class:`InvalidPlanError` as in
:func:`riskplan.model.plan_from_dict`; a mission plan's are read when it is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    EmptyPlanError,
    HorizonMismatchError,
    InvalidPlanError,
    UnknownPackageIdError,
)
from .model import (
    UNBOUNDED,
    EpochPlan,
    Instance,
    MissionPlan,
    _plan_ids,
    _UnboundedType,
    check_epoch_limit,
)

__all__ = [
    "EpochEvaluation",
    "MissionEvaluation",
    "evaluate_epoch",
    "evaluate_mission",
    "epoch_risk_ratio",
]

#: Relative tolerance for the direct-sum vs backward-recursion cross-check.
_TELESCOPE_RTOL = 1e-12


@dataclass(frozen=True)
class EpochEvaluation:
    """Per-cycle delivery probabilities and the epoch's expected reward."""

    delivery_probs: tuple[float, ...]
    epoch_survival: float
    expected_reward: float


@dataclass(frozen=True)
class MissionEvaluation:
    """Epoch evaluations chained with epoch-start survival probabilities.

    ``total`` is the mission expectation; it is :data:`UNBOUNDED` only for
    a nonempty stationary plan whose epoch survival is exactly 1 (an
    all-riskless loop collects reward forever).
    """

    epoch_evals: tuple[EpochEvaluation, ...]
    survival_to_epoch: tuple[float, ...]
    total: Union[float, _UnboundedType]


def _resolve(epochs: list[tuple[Optional[int], str, np.ndarray]],
             instance: Instance) -> list[tuple[list[float], list[float]]]:
    """Each (epoch, where, ids) entry's (rewards, rhos), in plan order; no
    entries give ``[]``.

    The ids (int64 arrays) of every entry are found by one binary search of
    the id index, and an entry whose epoch is not None in that epoch's
    catalog.  The first entry at fault raises, naming ``where``: for repeated
    ids, else for its first id, in plan order, unknown or outside the catalog.
    """
    if not epochs:
        return []
    table = instance.packages
    rows = table.rows(epochs[0][2] if len(epochs) == 1 else np.concatenate([ids for _, _, ids in epochs]))
    out = []
    end = 0
    for h, where, ids in epochs:
        if len(set(ids.tolist())) != ids.size:
            raise InvalidPlanError(f"{where} repeats a package id")
        at = rows[end: end + ids.size]
        end += ids.size
        bad = at < 0
        if h is not None and instance.per_epoch_packages is not None:
            known = ~bad
            bad[known] = ~instance.in_catalog(h, ids[known])
        if bad.any():
            j = int(np.argmax(bad))
            if at[j] < 0:
                raise UnknownPackageIdError(f"unknown package id {ids[j]}")
            raise UnknownPackageIdError(f"package {ids[j]} is not available in epoch {h}")
        out.append((table.rewards[at].tolist(), table.rhos[at].tolist()))
    return out


def _resolve_epoch(plans: Sequence[EpochPlan], instance: Instance,
                   epoch: Optional[int] = None) -> list[tuple[list[float], list[float]]]:
    """Each of one epoch's plans' (rewards, rhos), in order, by one
    :func:`_resolve` call: ``[plan]``, or a team plan's tours.  Ids are
    checked against the catalog of 1-based ``epoch``, or of the whole
    instance when it is None."""
    where = "epoch plan" if epoch is None else f"epoch {epoch} plan"
    return _resolve([(epoch, where, _plan_ids(plan, where)) for plan in plans], instance)


def _resolve_plan(plan: MissionPlan, instance: Instance) -> tuple[list[tuple[list[float], list[float]]], list[int], bool]:
    """Each run's (rewards, rhos) in plan order, each run's epoch count, and
    True if stationary.  A run (:meth:`MissionPlan.runs`) is resolved
    as its first epoch's plan; a stationary plan on a finite horizon is one
    run, and with per-epoch catalogs each epoch is one.  A finite plan must
    match a finite horizon epoch for epoch."""
    horizon, stationary = instance.horizon, plan.is_stationary
    if not horizon.is_finite:
        if not stationary:
            raise HorizonMismatchError("finite plan cannot be evaluated on an infinite horizon")
        return _resolve([(None, "stationary plan", plan.stationary)], instance), [1], True
    k = horizon.epochs
    arrays, sources, sizes = plan.prefix_columns()
    if not stationary and len(sizes) != k:
        raise HorizonMismatchError(f"plan has {len(sizes)} epochs but horizon is {k}")
    every_epoch = instance.per_epoch_packages is not None  # each epoch checked against its own catalog
    runs = [(h, h + 1) for h in range(k)] if every_epoch else [(0, k)] if stationary else plan.runs()
    entries = [(h + 1, "stationary plan", plan.stationary) if stationary else
               (h + 1, f"epoch {h + 1} plan", arrays[sources[h]][:sizes[h]]) for h, _ in runs]
    return _resolve(entries, instance), [end - h for h, end in runs], False


def _fold_epoch(rewards: list[float], rhos: list[float], theta: float) -> EpochEvaluation:
    """An epoch's evaluation from its packages' rewards and rhos, in plan order."""
    psis: list[float] = []
    rho_bar = 1.0
    reward_sum = 0.0
    for reward, rho in zip(rewards, rhos):
        psi = rho_bar * rho
        psis.append(psi)
        reward_sum += reward * psi
        rho_bar *= rho * rho
    expected = reward_sum - theta * (1.0 - rho_bar)
    return EpochEvaluation(
        delivery_probs=tuple(psis),
        epoch_survival=rho_bar,
        expected_reward=expected,
    )


def evaluate_epoch(plan: EpochPlan, instance: Instance, *, epoch: int | None = None) -> EpochEvaluation:
    """Evaluate one epoch plan conditioned on the agent being alive.

    ``epoch`` (1-based) restricts ids to that epoch's catalog when the
    instance is heterogeneous; leave it ``None`` to allow the full catalog.
    An epoch outside the horizon is a :class:`DomainError`.
    """
    if epoch is not None:
        instance.check_epoch(epoch)
    return _fold_epoch(*_resolve_epoch([plan], instance, epoch)[0], instance.theta)


def _finite_total(evals: list[EpochEvaluation]) -> tuple[float, tuple[float, ...]]:
    """Mission total by direct sum, cross-checked against the backward
    recursion ``v_h = E_h + rho_bar_h * v_{h+1}`` (telescoping identity)."""
    survival = 1.0
    survivals = []
    direct = 0.0
    for ev in evals:
        survivals.append(survival)
        direct += ev.expected_reward * survival
        survival *= ev.epoch_survival

    backward = 0.0
    for ev in reversed(evals):
        backward = ev.expected_reward + ev.epoch_survival * backward

    if not math.isclose(direct, backward, rel_tol=_TELESCOPE_RTOL, abs_tol=_TELESCOPE_RTOL):
        raise ArithmeticError(
            f"telescoping identity violated: direct={direct!r} backward={backward!r}")
    return direct, tuple(survivals)


def evaluate_mission(plan: MissionPlan, instance: Instance) -> MissionEvaluation:
    """Evaluate a mission plan against an instance.

    Finite plans must match a finite horizon of at most ``MAX_EPOCHS``
    epochs epoch-for-epoch; each run of epochs with one plan is folded once.
    Stationary plans on an infinite horizon use the geometric closed form
    ``E / (1 - rho_bar)``; on a finite horizon they run in every epoch.
    """
    check_epoch_limit(instance)
    runs, counts, stationary = _resolve_plan(plan, instance)
    evals = [_fold_epoch(rewards, rhos, instance.theta) for rewards, rhos in runs]
    if stationary:
        ev = evals[0]
        if ev.epoch_survival == 1.0:
            # Riskless loop: diverges when it earns anything, else worth 0.
            total = UNBOUNDED if ev.expected_reward != 0.0 else 0.0
        else:
            total = ev.expected_reward / (1.0 - ev.epoch_survival)
        return MissionEvaluation(epoch_evals=(ev,), survival_to_epoch=(1.0,), total=total)
    evals = [ev for ev, count in zip(evals, counts) for _ in range(count)]  # one per epoch
    total, survivals = _finite_total(evals)
    return MissionEvaluation(epoch_evals=tuple(evals), survival_to_epoch=survivals, total=total)


def epoch_risk_ratio(plan: EpochPlan, instance: Instance) -> float:
    """Epoch risk ratio ``eps = E / (1 - rho_bar)`` of a nonempty plan.

    For a singleton plan this equals ``gamma - theta`` exactly.  When the
    plan is riskless (``rho_bar = 1``) the ratio diverges: returns
    ``+-math.inf`` matching the sign of ``E``, and 0.0 when ``E`` is also 0.
    """
    ev = evaluate_epoch(plan, instance)
    if not ev.delivery_probs:
        raise EmptyPlanError("epoch risk ratio requires a nonempty plan")
    denom = 1.0 - ev.epoch_survival
    if denom == 0.0:
        if ev.expected_reward == 0.0:
            return 0.0
        return math.inf if ev.expected_reward > 0 else -math.inf
    return ev.expected_reward / denom

