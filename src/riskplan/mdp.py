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

Outcome states are computed on the fly per action (never materialized:
the state space is exponential in n), and policy values are computed two
independent ways - closed form and fixed-point iteration - which must
agree.  This module is the oracle for ``solve_infinite``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    FiniteHorizonError,
    TooManyPackagesError,
    UnboundedValueError,
)
from .model import Instance, PackageSpec, canonical_delivery_order, ensure_valid

__all__ = [
    "MdpModel",
    "ActionOutcomes",
    "build_model",
    "evaluate_policy",
    "best_stationary_policy",
    "action_from_bits",
    "bits_from_action",
]

_MAX_PACKAGES = 16

#: Relative tolerance for closed-form vs iterative value agreement.
_AGREEMENT_RTOL = 1e-10


@dataclass(frozen=True)
class ActionOutcomes:
    """One action's transition row out of the alive state.

    ``failure_probs[j]`` is the probability of reaching the failure state
    whose delivered prefix is the first ``j`` packages of ``ordered_ids``;
    ``failure_rewards[j]`` is that state's reward (prefix reward minus
    theta).  ``success_prob``/``success_reward`` describe the full-success
    state that loops back to the alive state.
    """

    ordered_ids: tuple[int, ...]
    failure_probs: tuple[float, ...]
    failure_rewards: tuple[float, ...]
    success_prob: float
    success_reward: float

    @property
    def expected_epoch_reward(self) -> float:
        """E_a: one-epoch expected reward out of the alive state."""
        total = self.success_prob * self.success_reward
        for p, r in zip(self.failure_probs, self.failure_rewards):
            total += p * r
        return total


@dataclass(frozen=True, eq=False)
class MdpModel:
    """Action-indexed view of the chain for one instance.

    Actions are integer bitmasks over catalog positions: bit ``i`` selects
    ``instance.packages[i]``.
    """

    instance: Instance
    n: int

    def action_outcomes(self, action: int) -> ActionOutcomes:
        if not (0 <= action < (1 << self.n)):
            raise ValueError(f"action {action!r} out of range for n={self.n}")
        selected = [
            p for i, p in enumerate(self.instance.packages) if action >> i & 1
        ]
        return _outcomes_for(selected, self.instance.theta)

    def actions(self):
        return range(1 << self.n)


def _outcomes_for(selected: list[PackageSpec], theta: float) -> ActionOutcomes:
    ordered = canonical_delivery_order(selected)
    q = len(ordered)
    rhos = [p.leg_success for p in ordered]

    # psi[j] = probability of delivering the j-th package (1-based).
    psis = []
    rho_bar = 1.0
    for rho in rhos:
        psis.append(rho_bar * rho)
        rho_bar *= rho * rho

    # failure with exactly j packages delivered, j = 0..q
    failure_probs = []
    if q:
        failure_probs.append(1.0 - rhos[0])
        for j in range(1, q):
            failure_probs.append(psis[j - 1] * (1.0 - rhos[j - 1] * rhos[j]))
        failure_probs.append(psis[q - 1] * (1.0 - rhos[q - 1]))

    prefix_rewards = [0.0]
    acc = 0.0
    for p in ordered:
        acc += p.reward
        prefix_rewards.append(acc)

    return ActionOutcomes(
        ordered_ids=tuple(p.id for p in ordered),
        failure_probs=tuple(failure_probs),
        failure_rewards=tuple(r - theta for r in prefix_rewards[: q + 1]) if q else (),
        success_prob=rho_bar,
        success_reward=prefix_rewards[q],
    )


def build_model(instance: Instance) -> MdpModel:
    """Validate and wrap an infinite-horizon instance, n <= 16."""
    ensure_valid(instance)
    if instance.horizon.is_finite:
        raise FiniteHorizonError("the MDP models the infinite-horizon problem")
    n = len(instance.packages)
    if n > _MAX_PACKAGES:
        raise TooManyPackagesError(f"n={n} exceeds the 2^n enumeration limit ({_MAX_PACKAGES})")
    return MdpModel(instance=instance, n=n)


def _iterative_value(epoch_reward: float, success_prob: float) -> float:
    """Fixed-point sweep v <- E_a + rho_bar * v from v = 0.

    The contraction leaves a residual of (last step)/(1 - rho_bar), so the
    stop threshold is scaled by (1 - rho_bar) to guarantee the remaining
    error is below 1e-12 in absolute terms.  Caller guarantees
    ``success_prob < 1``.
    """
    stop = 1e-12 * (1.0 - success_prob)
    v = 0.0
    for _ in range(50_000_000):
        nxt = epoch_reward + success_prob * v
        if abs(nxt - v) < stop:
            return nxt
        v = nxt
    raise ArithmeticError("policy value iteration failed to converge")


def evaluate_policy(model: MdpModel, action: int) -> float:
    """Value of the alive state under the stationary policy ``action``.

    Computed independently via the closed form ``E_a / (1 - rho_bar)`` and
    a fixed-point iteration; the two must agree to 1e-10 (relative).
    """
    outcomes = model.action_outcomes(action)
    rho_bar = outcomes.success_prob
    e_a = outcomes.expected_epoch_reward

    if rho_bar == 1.0:
        if outcomes.success_reward > 0.0:
            raise UnboundedValueError(
                f"action {action:0{model.n}b} is riskless with positive reward")
        return 0.0  # idle or zero-reward loop; both routes give 0

    closed = e_a / (1.0 - rho_bar)
    iterative = _iterative_value(e_a, rho_bar)
    scale = max(1.0, abs(closed))
    if abs(closed - iterative) > _AGREEMENT_RTOL * scale:
        raise ArithmeticError(
            f"closed-form ({closed!r}) and iterative ({iterative!r}) "
            f"policy values disagree for action {action:#x}")
    return closed


def best_stationary_policy(model: MdpModel) -> tuple[int, float]:
    """Exhaustively evaluate all 2^n actions; return the maximizer.

    Ties keep the lowest action mask (the idle action wins at value 0).
    Riskless positive-reward actions have no finite value and surface as
    :class:`UnboundedValueError`.
    """
    best_action = 0
    best_value = evaluate_policy(model, 0)
    for action in model.actions():
        if action == 0:
            continue
        value = evaluate_policy(model, action)
        if value > best_value:
            best_action, best_value = action, value
    return best_action, best_value


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
