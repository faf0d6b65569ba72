"""Experimental team extension: Poisson-binomial survival and greedy tours.

With several homogeneous agents running disjoint tours in one epoch, the
number of survivors follows a Poisson binomial distribution over the
per-tour survival probabilities.  The pmf is computed two independent
ways (exact subset enumeration, and the characteristic-function/DFT form)
and everything downstream - team epoch expectation, quotient differences,
marginal gains, the greedy team solver - is built on it.

The greedy solver is experimental: it reconstructs an incompletely
specified procedure and is judged by its property suite (submodularity,
single-agent reduction, and the 2^-K approximation bound), not claimed
optimal.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    AlreadyAssignedError,
    DegenerateQuotientError,
    DomainError,
    InfiniteHorizonError,
    OverlappingToursError,
    ScaleLimitExceededError,
    TooManyTrialsError,
    ValidationError,
)
from .expectation import evaluate_epoch
from .model import (
    EpochPlan,
    Instance,
    PackageSpec,
    canonical_sort_key,
    check_epoch_limit,
    ensure_valid,
)
from .oracle_sim import SimConfig, SimResult, leg_uniforms, trial_keys

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
        seen: set[int] = set()
        for tour in self.tours:
            for pkg_id in tour:
                if pkg_id in seen:
                    raise OverlappingToursError(f"package {pkg_id} appears in more than one tour")
                seen.add(pkg_id)

    @classmethod
    def of(cls, tours: Sequence[EpochPlan]) -> "TeamEpochPlan":
        return cls(tours=tuple(tuple(int(i) for i in t) for t in tours))

    def assigned_ids(self) -> frozenset[int]:
        return frozenset(i for tour in self.tours for i in tour)


def _tour_stats(tour: Sequence[int], instance: Instance) -> tuple[float, float]:
    """(expected delivery reward, tour survival probability)."""
    ev = evaluate_epoch(tour, instance)
    reward = 0.0
    for pkg_id, psi in zip(tour, ev.delivery_probs):
        reward += instance.package_by_id(int(pkg_id)).reward * psi
    return reward, ev.epoch_survival


def team_epoch_expectation(team_plan: TeamEpochPlan, instance: Instance) -> float:
    """Expected epoch reward of a team conditioned on all agents alive.

    Delivery rewards add across tours; the loss term charges theta per
    expected failed agent via the Poisson binomial over tour survivals.
    """
    rewards = 0.0
    survivals = []
    for tour in team_plan.tours:
        reward, survival = _tour_stats(tour, instance)
        rewards += reward
        survivals.append(survival)
    dist = poisson_binomial_enum(survivals)
    return rewards - instance.theta * dist.expected_failures


def poisson_quotient_difference(
    team_probs: Sequence[float], agent_index: int, new_prob: float
) -> tuple[float, ...]:
    """Rate of change of the survivor pmf in one agent's probability.

    Because the pmf is affine in each trial probability, the quotient
    ``(P' - P) / (p' - p)`` does not depend on which pair (p', p) is used;
    it is a function of the other agents' probabilities only.
    """
    ps = _check_probs(team_probs)
    if not 0 <= agent_index < len(ps):
        raise DomainError(f"agent_index {agent_index} out of range")
    new = float(new_prob)
    if not (0.0 <= new <= 1.0):
        raise DomainError(f"new_prob must lie in [0, 1], got {new_prob!r}")
    old = ps[agent_index]
    if new == old:
        raise DegenerateQuotientError("quotient difference needs two distinct probabilities")
    base = poisson_binomial_enum(ps).pmf
    ps[agent_index] = new
    changed = poisson_binomial_enum(ps).pmf
    return tuple((c - b) / (new - old) for c, b in zip(changed, base))


def _quotient_via_probes(survivals: list[float], agent_index: int) -> tuple[float, ...]:
    """Quotient difference computed from the probe pair (1, 0).

    Valid for any actual (old, new) pair by affineness; in particular it
    stays defined when appending a riskless package leaves the agent's
    survival unchanged.
    """
    hi = list(survivals)
    hi[agent_index] = 1.0
    lo = list(survivals)
    lo[agent_index] = 0.0
    p_hi = poisson_binomial_enum(hi).pmf
    p_lo = poisson_binomial_enum(lo).pmf
    return tuple(a - b for a, b in zip(p_hi, p_lo))


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

    survivals = [_tour_stats(tour, instance)[1] for tour in team_plan.tours]
    quotient = _quotient_via_probes(survivals, agent_index)
    theta = instance.theta
    loss = sum(
        q * (values[b] - theta * (alpha - b))
        for b, q in enumerate(quotient)
    )
    rho = package.leg_success
    return package.reward * rho - (1.0 - rho * rho) * loss


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
    """Build one epoch's tours greedily; return the plan and V_h(beta)."""
    available = {
        pkg_id: instance.package_by_id(pkg_id)
        for pkg_id in instance.allowed_ids(epoch)
    }
    tours: list[list[int]] = [[] for _ in range(beta)]

    while available:
        plan = TeamEpochPlan.of(tours)
        best_gain = 0.0
        best_pick = None
        for m in range(beta):
            scale = _tour_stats(tours[m], instance)[1]
            for pkg_id in sorted(available):
                delta = marginal_gain(plan, m, available[pkg_id], continuation[: beta + 1], instance)
                gain = scale * delta
                if gain > best_gain:
                    best_gain = gain
                    best_pick = (m, pkg_id)
        if best_pick is None:
            break
        m, pkg_id = best_pick
        tours[m].append(pkg_id)
        tours[m].sort(key=lambda i: canonical_sort_key(instance.package_by_id(i)))
        del available[pkg_id]

    plan = TeamEpochPlan.of(tours)
    survivals = [_tour_stats(t, instance)[1] for t in tours]
    pmf = poisson_binomial_enum(survivals).pmf
    value = team_epoch_expectation(plan, instance) + sum(
        p * continuation[b] for b, p in enumerate(pmf)
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
    when the horizon exceeds one epoch.
    """
    ensure_valid(instance)
    if not instance.horizon.is_finite:
        raise InfiniteHorizonError("the greedy team solver requires a finite horizon")
    if not 1 <= agents <= _MAX_AGENTS:
        raise ScaleLimitExceededError(f"agents must be in 1..{_MAX_AGENTS}, got {agents}")
    if len(instance.packages) > _MAX_TEAM_PACKAGES:
        raise ScaleLimitExceededError(
            f"team solver is limited to {_MAX_TEAM_PACKAGES} packages, got {len(instance.packages)}")
    check_epoch_limit(instance)

    k = instance.horizon.epochs
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
    if sim_config is None:
        raise ValidationError("multi-epoch team value is estimated by simulation; pass sim_config")
    sim = simulate_team_mission(plans, instance, agents, sim_config)
    return TeamSolveReport(plans=plans, values=values, value=sim.mean, sim=sim)


def simulate_team_mission(
    plans: Mapping[tuple[int, int], TeamEpochPlan],
    instance: Instance,
    agents: int,
    config: SimConfig,
) -> SimResult:
    """Monte Carlo mission estimate for per-(epoch, count) team plans.

    Same counter-based draws as the single-agent simulator: the uniform
    for (trial, epoch, agent slot, cycle, leg) is a pure function of the
    seed, so results are shard-invariant.  Dead agents' packages are not
    reassigned.
    """
    ensure_valid(instance)
    if not instance.horizon.is_finite:
        raise InfiniteHorizonError("team simulation requires a finite horizon")
    k = instance.horizon.epochs
    theta = instance.theta
    max_len = max((len(t) for p in plans.values() for t in p.tours), default=0)
    stride_agent = 2 * max(max_len, 1)

    def draw_index(h: int, m: int, pos: int, leg: int) -> int:
        return leg + 2 * pos + stride_agent * (m + agents * (h - 1))

    bounds = np.linspace(0, config.trials, config.parallel_shards + 1).astype(int)
    totals_parts = []
    alive_sums = [0] * k  # integer accumulation keeps shard splits exact
    deaths_by_epoch: dict[int, int] = {}
    for s in range(config.parallel_shards):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        if lo == hi:
            continue
        n_trials = hi - lo
        keys = trial_keys(config.seed, np.arange(lo, hi, dtype=np.uint64))
        totals = np.zeros(n_trials)
        alive = np.full(n_trials, agents, dtype=np.int64)
        for h in range(1, k + 1):
            alive_sums[h - 1] += int(alive.sum())
            for beta in range(1, agents + 1):
                sel = np.nonzero(alive == beta)[0]
                if sel.size == 0:
                    continue
                plan = plans[(h, beta)]
                group_keys = keys[sel]
                deaths = np.zeros(sel.size, dtype=np.int64)
                for m, tour in enumerate(plan.tours):
                    ok = np.ones(sel.size, dtype=bool)
                    for pos, pkg_id in enumerate(tour):
                        pkg = instance.package_by_id(int(pkg_id))
                        rho = pkg.leg_success
                        u_out = leg_uniforms(group_keys, draw_index(h, m, pos, 0))
                        died = ok & ~(u_out < rho)
                        totals[sel[died]] -= theta
                        ok &= u_out < rho
                        totals[sel[ok]] += pkg.reward
                        u_ret = leg_uniforms(group_keys, draw_index(h, m, pos, 1))
                        died = ok & ~(u_ret < rho)
                        totals[sel[died]] -= theta
                        ok &= u_ret < rho
                    deaths += ~ok
                if deaths.any():
                    deaths_by_epoch[h] = deaths_by_epoch.get(h, 0) + int(deaths.sum())
                    alive[sel] = beta - deaths
        totals_parts.append(totals)

    totals = np.concatenate(totals_parts)
    mean = float(np.mean(totals))
    std_error = float(np.std(totals, ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    return SimResult(
        mean=mean,
        std_error=std_error,
        per_epoch_survival_freq=tuple(s / (config.trials * agents) for s in alive_sums),
        failure_epoch_histogram=dict(sorted(deaths_by_epoch.items())),
    )
