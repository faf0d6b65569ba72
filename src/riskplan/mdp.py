"""Markov-chain verification layer for the infinite-horizon problem.

The infinite-horizon problem maps onto a total-reward MDP: an alive state
``x_s``, an absorbing dead state ``x_d``, and per action ``a`` (an n-bit
package subset, executed in canonical gamma order) a family of virtual
outcome states - one partial-failure state per delivered prefix and one
full-success state.  From ``x_s`` the chain moves to the prefix-``j``
failure state with probability

    j = 0:      1 - rho_1
    0 < j < q:  psi_j * (1 - rho_j * rho_{j+1})  =  psi_j - psi_{j+1}
    j = q:      psi_q * (1 - rho_q)

and to full success with probability ``rho_bar = prod rho_i**2``; these
sum to 1.  Failure states pay the delivered prefix reward minus theta and
fall into ``x_d``; the full-success state pays the whole subset's reward
and returns to ``x_s``.

Outcome states are never materialized (the state space is exponential
in n).  :func:`policy_values` evaluates a batch of actions in one pass
over the canonical order, one array entry per action, and computes each
policy value two independent ways - closed form and fixed-point
iteration - which must agree.  Every entry is the same chain of float
operations, in the same order, as the per-action transition row and
fixed-point loop kept in ``tests/test_mdp.py`` as its reference.  This
module is the oracle for ``solve_infinite``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (
    FiniteHorizonError,
    TooManyPackagesError,
    UnboundedValueError,
)
from .model import Instance, canonical_sort_key, ensure_valid

__all__ = [
    "MdpModel",
    "PolicyValues",
    "build_model",
    "policy_values",
    "evaluate_policy",
    "best_stationary_policy",
    "action_from_bits",
    "bits_from_action",
]

_MAX_PACKAGES = 16

#: Relative tolerance for closed-form vs iterative value agreement.
_AGREEMENT_RTOL = 1e-10

#: Fixed-point steps allowed per action before it counts as diverging.
_MAX_STEPS = 50_000_000

#: Unconverged actions below which plain floats step faster than numpy.
_SCALAR_TAIL = 64


@dataclass(frozen=True, eq=False)
class MdpModel:
    """Action-indexed view of the chain for one instance.

    Actions are integer bitmasks over catalog positions: bit ``i`` selects
    ``instance.packages[i]``.
    """

    instance: Instance
    n: int

    def actions(self):
        return range(1 << self.n)


def build_model(instance: Instance) -> MdpModel:
    """Validate and wrap an infinite-horizon instance, n <= 16."""
    ensure_valid(instance)
    if instance.horizon.is_finite:
        raise FiniteHorizonError("the MDP models the infinite-horizon problem")
    n = len(instance.packages)
    if n > _MAX_PACKAGES:
        raise TooManyPackagesError(f"n={n} exceeds the 2^n enumeration limit ({_MAX_PACKAGES})")
    return MdpModel(instance=instance, n=n)


@dataclass(frozen=True, eq=False)
class PolicyValues:
    """A batch of stationary policies, evaluated by :func:`policy_values`.

    Entry ``i`` of each array belongs to action ``actions[i]``.
    ``closed`` is the policy value ``E_a / (1 - rho_bar)``, or 0 where
    ``rho_bar == 1``; ``unbounded`` marks riskless positive-reward
    actions, which have no finite value.
    """

    n: int
    actions: np.ndarray
    success_prob: np.ndarray
    epoch_reward: np.ndarray
    closed: np.ndarray
    unbounded: np.ndarray

    def value(self, i: int) -> float:
        """Value of entry ``i``; :class:`UnboundedValueError` if it has none."""
        if self.unbounded[i]:
            raise UnboundedValueError(
                f"action {int(self.actions[i]):0{self.n}b} is riskless with positive reward")
        return float(self.closed[i])

    def best(self) -> tuple[int, float]:
        """First (action, value) of highest value among the bounded entries."""
        values = np.where(self.unbounded | np.isnan(self.closed), -np.inf, self.closed)
        i = int(np.argmax(values))
        return int(self.actions[i]), float(self.closed[i])


@np.errstate(over="ignore", invalid="ignore")  # as silent as float arithmetic
def policy_values(model: MdpModel, actions: Iterable[int] | None = None) -> PolicyValues:
    """Evaluate the stationary policies ``actions`` (default: all 2^n).

    One walk over the canonical order builds every action's transition
    row at once, each action reading only the packages its mask selects.
    ``E_a`` sums ``rho_bar * R`` first, then the failure terms j = 0..q.
    Each action with ``rho_bar < 1`` then gets its value two ways: the
    closed form, and the fixed-point sweep ``v <- E_a + rho_bar * v`` from
    ``v = 0``.  The sweep stops when a step is below ``1e-12 * (1 -
    rho_bar)``: the contraction leaves a residual of (last step)/(1 -
    rho_bar), so the remaining error is below 1e-12 in absolute terms.

    Raises ``ArithmeticError`` for the first action, in request order,
    whose sweep does not converge in ``_MAX_STEPS`` steps or whose two
    values differ by more than ``_AGREEMENT_RTOL`` (relative); actions
    after a non-converging one are not swept to the end.
    """
    limit = 1 << model.n
    if actions is None:
        acts = np.arange(limit, dtype=np.int64)
    else:
        actions = list(actions)
        for action in actions:
            if not (0 <= action < limit):
                raise ValueError(f"action {action!r} out of range for n={model.n}")
        acts = np.array(actions, dtype=np.int64)
    table = model.instance.packages
    theta = model.instance.theta
    rhos, rewards = table.rhos.tolist(), table.rewards.tolist()
    order = sorted(range(model.n), key=lambda i: canonical_sort_key(table[i]))

    m = acts.size
    count = np.zeros(m, dtype=np.int64)  # packages selected so far
    rho_bar = np.ones(m)
    acc = np.zeros(m)                    # prefix reward
    psi = np.zeros(m)                    # delivery probability of the last package
    last_rho = np.zeros(m)
    terms = []  # (entries, p_j * (R_j - theta)); each entry's in j order
    for pos in order:
        rho, reward = rhos[pos], rewards[pos]
        idx = np.flatnonzero(acts >> pos & 1)
        prob = np.where(count[idx] == 0, 1.0 - rho, psi[idx] * (1.0 - last_rho[idx] * rho))
        terms.append((idx, prob * (acc[idx] - theta)))
        psi[idx] = rho_bar[idx] * rho
        rho_bar[idx] *= rho * rho
        acc[idx] += reward
        last_rho[idx] = rho
        count[idx] += 1
    busy = np.flatnonzero(count)
    terms.append((busy, psi[busy] * (1.0 - last_rho[busy]) * (acc[busy] - theta)))

    epoch_reward = rho_bar * acc
    for idx, term in terms:
        epoch_reward[idx] += term

    riskless = rho_bar == 1.0
    live = np.flatnonzero(~riskless)
    closed = np.zeros(m)
    closed[live] = epoch_reward[live] / (1.0 - rho_bar[live])
    iterative, stuck = _fixed_point(epoch_reward[live], rho_bar[live])
    swept = live[:stuck]
    gap = np.abs(closed[swept] - iterative[:stuck])
    disagree = np.flatnonzero(gap > _AGREEMENT_RTOL * np.maximum(1.0, np.abs(closed[swept])))
    if disagree.size:
        j = int(disagree[0])
        raise ArithmeticError(
            f"closed-form ({float(closed[swept[j]])!r}) and iterative ({float(iterative[j])!r}) "
            f"policy values disagree for action {int(acts[swept[j]]):#x}")
    if stuck < live.size:
        raise ArithmeticError("policy value iteration failed to converge")
    return PolicyValues(
        n=model.n,
        actions=acts,
        success_prob=rho_bar,
        epoch_reward=epoch_reward,
        closed=closed,
        unbounded=riskless & (acc > 0.0),
    )


def _fixed_point(epoch_reward: np.ndarray, success_prob: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-entry sweeps ``v <- E + S * v`` from 0, each until its step is
    below ``1e-12 * (1 - S)``, for at most ``_MAX_STEPS`` steps.

    Returns the converged iterates and the first entry that hit the cap
    (the entry count if none did); iterates from that entry on are NaN or
    converged.  Every step is elementwise over the entries not yet
    converged.  Once few remain, they finish one by one, in order, in
    Python floats: the same IEEE doubles, at less than a numpy call per
    step, and the sweep can stop at the first entry that fails.
    """
    out = np.full(epoch_reward.size, np.nan)
    live = np.arange(epoch_reward.size)
    e, s = epoch_reward, success_prob
    stop = 1e-12 * (1.0 - s)
    v = np.zeros(epoch_reward.size)
    steps = 0
    while live.size > _SCALAR_TAIL and steps < _MAX_STEPS:
        steps += 1
        nxt = e + s * v
        done = np.abs(nxt - v) < stop
        if done.any():
            out[live[done]] = nxt[done]
            keep = ~done
            live, e, s, stop, nxt = live[keep], e[keep], s[keep], stop[keep], nxt[keep]
        v = nxt
    for i, ei, si, stop_i, vi in zip(live.tolist(), e.tolist(), s.tolist(),
                                     stop.tolist(), v.tolist()):
        for _ in range(_MAX_STEPS - steps):
            nxt = ei + si * vi
            if abs(nxt - vi) < stop_i:
                out[i] = nxt
                break
            vi = nxt
        else:
            return out, i
    return out, epoch_reward.size


def evaluate_policy(model: MdpModel, action: int) -> float:
    """Value of the alive state under the stationary policy ``action``.

    Computed independently via the closed form ``E_a / (1 - rho_bar)`` and
    a fixed-point iteration; the two must agree to 1e-10 (relative).
    """
    return policy_values(model, [action]).value(0)


def best_stationary_policy(model: MdpModel) -> tuple[int, float]:
    """Exhaustively evaluate all 2^n actions; return the maximizer.

    Ties keep the lowest action mask (the idle action wins at value 0).
    Riskless positive-reward actions have no finite value and surface as
    :class:`UnboundedValueError`; like any error, the lowest action's is
    the one raised.
    """
    # The lowest unbounded action's error comes before any later action's,
    # so evaluate no further.  rho_bar is 1 only when every selected rho
    # is, so that action is the first riskless positive-reward package alone.
    table = model.instance.packages
    riskless = np.flatnonzero((table.rhos == 1.0) & (table.rewards > 0.0))
    end = (1 << int(riskless[0])) + 1 if riskless.size else 1 << model.n
    values = policy_values(model, range(end))
    unbounded = np.flatnonzero(values.unbounded)
    if unbounded.size:
        values.value(int(unbounded[0]))  # raises
    return values.best()


def action_from_bits(bits: str) -> int:
    """Parse a bit-string like ``"0101"``; char ``i`` selects package i."""
    if not bits or any(c not in "01" for c in bits):
        raise ValueError(f"action bit-string must be nonempty over {{0,1}}, got {bits!r}")
    mask = 0
    for i, c in enumerate(bits):
        if c == "1":
            mask |= 1 << i
    return mask


def bits_from_action(action: int, n: int) -> str:
    return "".join("1" if action >> i & 1 else "0" for i in range(n))
