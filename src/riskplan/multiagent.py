"""Experimental team extension: Poisson-binomial survival and greedy tours.

With several homogeneous agents running disjoint tours in one epoch, the
number of survivors follows a Poisson binomial distribution over the
per-tour survival probabilities.  The team path - team epoch expectation,
quotient differences, marginal gains, the greedy team solver - runs on one
O(m^2) recursion over the m tour survivals (Barlow & Heidtmann, 1984).  The
pmf is also computed two independent ways, exact subset enumeration and the
characteristic-function/DFT form (Hong, 2013); those are the ``pbd``
subcommand's methods and the recursion's test oracles, never on the team
path.

The greedy solver is experimental: it reconstructs an incompletely
specified procedure and is judged by its property suite (submodularity,
single-agent reduction, and the 2^-K approximation bound), not claimed
optimal.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    AlreadyAssignedError,
    DegenerateQuotientError,
    DomainError,
    InfiniteHorizonError,
    InvalidPlanError,
    InvalidRangeError,
    OverlappingToursError,
    ScaleLimitExceededError,
    TooManyTrialsError,
    ValidationError,
)
from .expectation import _fold_epoch, _resolve_epoch
from .model import (
    EpochPlan,
    Instance,
    PackageSpec,
    canonical_order,
    check_epoch_limit,
    ensure_valid,
    gamma_values,
    _plan_ids,
)
from .oracle_sim import (
    SimConfig,
    SimResult,
    _check_trials,
    _failed_legs,
    _leg_thresholds,
    _pass_keys,
    _sim_result,
)

__all__ = [
    "PoissonBinomial",
    "TeamEpochPlan",
    "TeamSolveReport",
    "poisson_binomial_enum",
    "poisson_binomial_dft",
    "team_epoch_expectation",
    "poisson_quotient_difference",
    "marginal_gain",
    "greedy_rtpd",
    "simulate_team_mission",
]

_MAX_ENUM_TRIALS = 20
_MAX_AGENTS = 8
_MAX_TEAM_PACKAGES = 20


@dataclass(frozen=True)
class PoissonBinomial:
    """Distribution of the number of successes over independent trials."""

    probs: tuple[float, ...]
    pmf: tuple[float, ...]

    @property
    def mean(self) -> float:
        return sum(b * p for b, p in enumerate(self.pmf))

    @property
    def expected_failures(self) -> float:
        n = len(self.probs)
        return sum((n - b) * p for b, p in enumerate(self.pmf))


def _check_probs(probs: Sequence[float]) -> list[float]:
    out = [float(p) for p in probs]
    for p in out:
        if not (0.0 <= p <= 1.0) or not math.isfinite(p):
            raise DomainError(f"trial probability must lie in [0, 1], got {p!r}")
    return out


def poisson_binomial_enum(probs: Sequence[float]) -> PoissonBinomial:
    """Exact pmf by enumerating every success subset (trials <= 20)."""
    ps = _check_probs(probs)
    n = len(ps)
    if n > _MAX_ENUM_TRIALS:
        raise TooManyTrialsError(f"{n} trials exceeds the 2^n enumeration limit ({_MAX_ENUM_TRIALS})")
    pmf = [0.0] * (n + 1)
    indices = range(n)
    for beta in range(n + 1):
        acc = 0.0
        for successes in itertools.combinations(indices, beta):
            chosen = set(successes)
            term = 1.0
            for i in indices:
                term *= ps[i] if i in chosen else 1.0 - ps[i]
            acc += term
        pmf[beta] = acc
    return PoissonBinomial(probs=tuple(ps), pmf=tuple(pmf))


def poisson_binomial_dft(probs: Sequence[float]) -> PoissonBinomial:
    """pmf via the characteristic function:

        P(j | k) = (1/(k+1)) * sum_l w^(-l j) * prod_m (1 + (w^l - 1) p_m)

    with ``w = exp(2 pi i / (k+1))``.  The outer sum is an unnormalized
    DFT; imaginary residue is discarded, tiny negative round-off is
    clamped to zero and the pmf renormalized.
    """
    ps = np.asarray(_check_probs(probs), dtype=np.float64)
    k = ps.size
    size = k + 1
    omega = np.exp(2j * np.pi / size)
    # x[l] = prod_m (1 + (w^l - 1) p_m); conjugate symmetry halves the work.
    xs = np.empty(size, dtype=np.complex128)
    for l in range(size // 2 + 1):
        xs[l] = np.prod(1.0 + (omega ** l - 1.0) * ps)
    for l in range(size // 2 + 1, size):
        xs[l] = np.conj(xs[size - l])
    pmf = np.fft.fft(xs) / size  # fft applies the w^(-l j) kernel
    pmf = np.real(pmf)
    np.clip(pmf, 0.0, None, out=pmf)
    total = pmf.sum()
    if total > 0:
        pmf /= total
    return PoissonBinomial(probs=tuple(float(p) for p in ps), pmf=tuple(float(p) for p in pmf))


@dataclass(frozen=True)
class TeamEpochPlan:
    """One epoch's disjoint tours, one per surviving agent."""

    tours: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # Each tour is read by the plan-id rule, then held as a tuple of ints.
        tours = tuple(tuple(_plan_ids(t, f"agent {m} tour").tolist()) for m, t in enumerate(self.tours))
        object.__setattr__(self, "tours", tours)
        seen: set[int] = set()
        for tour in tours:
            for pkg_id in tour:
                if pkg_id in seen:
                    raise OverlappingToursError(f"package {pkg_id} appears in more than one tour")
                seen.add(pkg_id)

    @classmethod
    def of(cls, tours: Iterable[EpochPlan]) -> "TeamEpochPlan":
        return cls(tours=tuple(tours))

    def assigned_ids(self) -> frozenset[int]:
        return frozenset(i for tour in self.tours for i in tour)


def _tour_stats(rewards: list[float], rhos: list[float]) -> tuple[float, float]:
    """(expected delivery reward, survival probability) of a tour, in tour
    order: with no loss charged, the fold's expected reward is its reward sum."""
    ev = _fold_epoch(rewards, rhos, 0.0)
    return ev.expected_reward, ev.epoch_survival


def _gain(reward, rho, loss):
    """Per-unit gain ``r*rho - (1 - rho**2) * loss`` of appending a package:
    scalars, or arrays elementwise with the same IEEE results."""
    return reward * rho - (1.0 - rho * rho) * loss


def _survivor_pmf(survivals: Sequence[float]) -> list[float]:
    """pmf of the number of surviving agents, by the O(m^2) recursion

        P_j(b) = P_{j-1}(b) * (1 - s_j) + P_{j-1}(b - 1) * s_j

    over the survivals in sorted order, so that the rounding, and with it
    every tie the greedy solver breaks, does not depend on agent order.
    """
    pmf = [1.0]
    for s in sorted(survivals):
        q = 1.0 - s
        pmf = [pmf[0] * q] + [pmf[b] * q + pmf[b - 1] * s for b in range(1, len(pmf))] + [pmf[-1] * s]
    return pmf


def _survivor_quotient(survivals: Sequence[float], agent_index: int) -> list[float]:
    """Survivor-pmf quotient difference for one agent.

    The pmf is affine in the agent's survival ``s``:
    ``P(b) = s * L(b - 1) + (1 - s) * L(b)`` with ``L`` the pmf of the other
    agents, so its rate of change is ``Q(b) = L(b - 1) - L(b)``, with
    ``L(-1) = L(alpha) = 0``.
    """
    others = _survivor_pmf([s for i, s in enumerate(survivals) if i != agent_index])
    return [lo - hi for lo, hi in zip([0.0] + others, others + [0.0])]


def _survivor_loss(survivals: Sequence[float], agent_index: int, values: Sequence[float], theta: float) -> float:
    """``sum_b Q(b) * (V(b) - theta*(alpha - b))`` for one agent's quotient
    ``Q``: what a lower survival of that agent costs per unit."""
    alpha = len(survivals)
    return sum(
        q * (values[b] - theta * (alpha - b))
        for b, q in enumerate(_survivor_quotient(survivals, agent_index))
    )


def _team_expectation(stats: Sequence[tuple[float, float]], theta: float) -> float:
    """Team epoch expectation from each tour's (reward, survival)."""
    rewards = failures = 0.0
    for reward, survival in stats:
        rewards += reward
        failures += 1.0 - survival
    return rewards - theta * failures


def team_epoch_expectation(team_plan: TeamEpochPlan, instance: Instance) -> float:
    """Expected epoch reward of a team conditioned on all agents alive.

    Delivery rewards add across tours; the loss term charges theta per
    expected failed agent, ``sum_i (1 - s_i)`` by linearity.
    """
    theta = instance.theta
    return _team_expectation([_tour_stats(*tour) for tour in _resolve_epoch(team_plan.tours, instance)], theta)


def poisson_quotient_difference(
    team_probs: Sequence[float], agent_index: int, new_prob: float
) -> tuple[float, ...]:
    """Rate of change of the survivor pmf in one agent's probability.

    Because the pmf is affine in each trial probability, the quotient
    ``(P' - P) / (p' - p)`` does not depend on which pair (p', p) is used;
    it is a function of the other agents' probabilities only, and is
    returned as such: ``L(b - 1) - L(b)`` for the pmf ``L`` of the others.
    """
    ps = _check_probs(team_probs)
    if not 0 <= agent_index < len(ps):
        raise DomainError(f"agent_index {agent_index} out of range")
    new = float(new_prob)
    if not (0.0 <= new <= 1.0):
        raise DomainError(f"new_prob must lie in [0, 1], got {new_prob!r}")
    if new == ps[agent_index]:
        raise DegenerateQuotientError("quotient difference needs two distinct probabilities")
    return tuple(_survivor_quotient(ps, agent_index))


def marginal_gain(
    team_plan: TeamEpochPlan,
    agent_index: int,
    package: PackageSpec,
    continuation_values: Optional[Sequence[float]],
    instance: Instance,
) -> float:
    """Net per-unit gain of appending ``package`` to one agent's tour.

        delta = r*rho - (1 - rho**2) * sum_b Ptilde(b) * (V(b) - theta*(alpha - b))

    where ``Ptilde`` is the survivor-pmf quotient difference for the
    appending agent and ``V`` the continuation values per surviving count
    (``None`` means all zero, the single-epoch case).  The change in team
    value from actually appending the package as the agent's last cycle is
    ``delta`` scaled by the agent's current tour survival.
    """
    alpha = len(team_plan.tours)
    if not 0 <= agent_index < alpha:
        raise DomainError(f"agent_index {agent_index} out of range for {alpha} tours")
    if package.id in team_plan.assigned_ids():
        raise AlreadyAssignedError(f"package {package.id} is already assigned")
    if continuation_values is None:
        values = [0.0] * (alpha + 1)
    else:
        values = [float(v) for v in continuation_values]
        if len(values) != alpha + 1:
            raise ValidationError(
                f"continuation_values needs {alpha + 1} entries (counts 0..{alpha}), got {len(values)}")

    survivals = [_tour_stats(*tour)[1] for tour in _resolve_epoch(team_plan.tours, instance)]
    loss = _survivor_loss(survivals, agent_index, values, instance.theta)
    return _gain(package.reward, package.leg_success, loss)


@dataclass(frozen=True, eq=False)
class TeamSolveReport:
    """Greedy team solution.

    ``plans[(h, beta)]`` is the tour set used in epoch ``h`` when ``beta``
    agents are alive; ``values`` the analytic backward values of those
    plans.  ``value`` follows the estimation convention: analytic for a
    single epoch, Monte Carlo otherwise (``sim`` then holds the run).
    """

    plans: dict[tuple[int, int], TeamEpochPlan]
    values: dict[tuple[int, int], float]
    value: float
    sim: Optional[SimResult] = None


def _greedy_epoch_plan(
    instance: Instance,
    epoch: int,
    beta: int,
    continuation: list[float],
) -> tuple[TeamEpochPlan, float]:
    """Build one epoch's tours greedily; return the plan and V_h(beta).

    The epoch's catalog is read once, as columns in id order.  Each step
    takes the loss term of :func:`marginal_gain` once per agent, from the
    tour survivals, then every (agent, package) gain as one array and its
    first maximum: a strictly-greater scan's pick, lowest agent then
    lowest id.  Each tour holds its packages' canonical ranks, sorted, and
    only the tour that grew has its (reward, survival) recomputed.
    """
    theta = instance.theta
    ids = instance.catalog(epoch)
    rewards, rhos = (np.array(c) for c in _resolve_epoch([ids], instance, epoch)[0])
    order = canonical_order(ids, rewards, gamma_values(rewards, rhos))
    rank = np.argsort(order)  # each catalog position's place in canonical order
    ranked_rewards, ranked_rhos = rewards[order].tolist(), rhos[order].tolist()
    free = np.ones(ids.size, dtype=bool)
    tours: list[list[int]] = [[] for _ in range(beta)]
    stats = [(0.0, 1.0)] * beta  # each tour's (reward, survival); empty ones earn 0 and survive

    while free.any():
        survivals = [s for _, s in stats]
        losses = [_survivor_loss(survivals, m, continuation, theta) for m in range(beta)]
        gains = np.array(survivals)[:, None] * _gain(rewards, rhos, np.array(losses)[:, None])
        gains = np.where(free, gains, 0.0)  # taken packages gain nothing
        m, at = divmod(int(np.argmax(gains)), ids.size)
        if not gains[m, at] > 0.0:
            break
        free[at] = False
        bisect.insort(tours[m], int(rank[at]))
        stats[m] = _tour_stats([ranked_rewards[j] for j in tours[m]], [ranked_rhos[j] for j in tours[m]])

    plan = TeamEpochPlan.of(ids[order[t]] for t in tours)
    value = _team_expectation(stats, theta) + sum(
        p * continuation[b] for b, p in enumerate(_survivor_pmf([s for _, s in stats]))
    )
    return plan, value


def greedy_rtpd(
    instance: Instance,
    agents: int,
    sim_config: Optional[SimConfig] = None,
) -> TeamSolveReport:
    """Greedy team plans for every (epoch, surviving count) scenario.

    Works backward over epochs; within each scenario it repeatedly assigns
    the (agent, package) pair with the largest positive scaled marginal
    gain (ties to the lowest agent index, then lowest package id), keeping
    each tour in canonical order.  For multi-epoch missions the headline
    ``value`` is a Monte Carlo estimate, so ``sim_config`` is required
    when the horizon exceeds one epoch; it and its trial limit are checked
    before any plan is built.
    """
    ensure_valid(instance)
    if not instance.horizon.is_finite:
        raise InfiniteHorizonError("the greedy team solver requires a finite horizon")
    if agents < 1:
        raise InvalidRangeError(f"agents must be positive, got {agents}")
    if agents > _MAX_AGENTS:
        raise ScaleLimitExceededError(f"agents must be in 1..{_MAX_AGENTS}, got {agents}")
    if len(instance.packages) > _MAX_TEAM_PACKAGES:
        raise ScaleLimitExceededError(
            f"team solver is limited to {_MAX_TEAM_PACKAGES} packages, got {len(instance.packages)}")
    check_epoch_limit(instance)
    k = instance.horizon.epochs
    if k > 1:  # the value is simulated: refuse its settings before any greedy work
        if sim_config is None:
            raise ValidationError("multi-epoch team value is estimated by simulation; pass sim_config")
        _check_trials(sim_config)

    plans: dict[tuple[int, int], TeamEpochPlan] = {}
    values: dict[tuple[int, int], float] = {}
    v_next = [0.0] * (agents + 1)  # V_{h+1}(beta) for beta = 0..agents
    for h in range(k, 0, -1):
        v_here = [0.0] * (agents + 1)
        plans[(h, 0)] = TeamEpochPlan.of([])
        values[(h, 0)] = 0.0
        for beta in range(1, agents + 1):
            plan, value = _greedy_epoch_plan(instance, h, beta, v_next)
            plans[(h, beta)] = plan
            values[(h, beta)] = value
            v_here[beta] = value
        v_next = v_here

    analytic = values[(1, agents)]
    if k == 1:
        return TeamSolveReport(plans=plans, values=values, value=analytic)
    sim = simulate_team_mission(plans, instance, agents, sim_config)
    return TeamSolveReport(plans=plans, values=values, value=sim.mean, sim=sim)


def simulate_team_mission(
    plans: Mapping[tuple[int, int], TeamEpochPlan],
    instance: Instance,
    agents: int,
    config: SimConfig,
) -> SimResult:
    """Monte Carlo mission estimate for per-(epoch, count) team plans.

    Same counter-based draws and kernel as the single-agent simulator: the
    uniform for (trial, epoch, agent slot, cycle, leg) is a pure function
    of the seed, so results are shard-invariant.  Each agent slot's tour
    takes its legs' draws from its own stretch of the stream.  Dead
    agents' packages are not reassigned.

    Only the simulated scenarios are read: ``plans[(h, beta)]`` for each
    epoch ``h`` in 1..K and alive count ``beta`` in 1..agents, each of at
    most ``beta`` tours, else :class:`InvalidPlanError` naming the
    scenario.  A scenario's tours are resolved together against epoch
    ``h``'s catalog, so an id outside it raises ``simulate_mission``'s
    :class:`UnknownPackageIdError`.
    """
    ensure_valid(instance)
    if not instance.horizon.is_finite:
        raise InfiniteHorizonError("team simulation requires a finite horizon")
    k = instance.horizon.epochs
    theta = instance.theta
    # Each simulated scenario's tours' (rewards, leg thresholds), resolved once.
    resolved = {}
    for h in range(1, k + 1):
        for beta in range(1, agents + 1):
            plan = plans.get((h, beta))
            if plan is None:
                raise InvalidPlanError(f"no team plan for scenario (epoch {h}, {beta} alive)")
            if len(plan.tours) > beta:
                raise InvalidPlanError(
                    f"team plan for scenario (epoch {h}, {beta} alive) has {len(plan.tours)} tours, more than {beta}")
            resolved[(h, beta)] = [(r, _leg_thresholds(rhos)) for r, rhos in _resolve_epoch(plan.tours, instance, h)]
    max_len = max((len(r) for tours in resolved.values() for r, _ in tours), default=0)
    stride_agent = 2 * max(max_len, 1)

    totals_parts = []
    deaths = np.zeros(k + 1, dtype=np.int64)  # agents lost in each epoch
    for keys in _pass_keys(config):
        totals = np.zeros(keys.size)
        alive = np.full(keys.size, agents, dtype=np.int64)
        for h in range(1, k + 1):
            for beta in range(1, agents + 1):
                sel = np.nonzero(alive == beta)[0]
                if sel.size == 0:
                    continue
                group_keys = keys[sel]
                lost = np.zeros(sel.size, dtype=np.int64)
                for m, (rewards, thresholds) in enumerate(resolved[(h, beta)]):
                    first = _failed_legs(group_keys, stride_agent * (m + agents * (h - 1)), thresholds,
                                         thresholds.size)
                    # Each trial's rewards, then -theta, one at a time in
                    # tour order, as a trial's own total would take them.
                    delivered = (first + 1) // 2
                    for pos, reward in enumerate(rewards):
                        won = sel[delivered > pos]
                        if won.size == 0:
                            break
                        totals[won] += reward
                    died = first < thresholds.size
                    totals[sel[died]] -= theta
                    lost += died
                deaths[h] += lost.sum()
                alive[sel] = beta - lost
        totals_parts.append(totals)

    return _sim_result(np.concatenate(totals_parts), deaths, config.trials * agents)
