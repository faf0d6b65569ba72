import itertools
import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from riskplan import (
    AlreadyAssignedError,
    DegenerateQuotientError,
    DomainError,
    Horizon,
    InfiniteHorizonError,
    Instance,
    InvalidPlanError,
    MissionPlan,
    OverlappingToursError,
    PackageSpec,
    ScaleLimitExceededError,
    SimConfig,
    TeamEpochPlan,
    TooManyTrialsError,
    UnknownPackageIdError,
    ValidationError,
    evaluate_epoch,
    greedy_rtpd,
    instance_from_dict,
    marginal_gain,
    poisson_binomial_dft,
    poisson_binomial_enum,
    poisson_quotient_difference,
    reward_to_risk,
    simulate_mission,
    simulate_team_mission,
    solve_finite,
    team_epoch_expectation,
)
from riskplan import multiagent
from riskplan.cli import run_cli
from riskplan.model import PackageTable, canonical_sort_key
from riskplan.multiagent import _survivor_pmf
from riskplan.oracle_sim import MAX_TRIALS, SimResult, trial_keys

from conftest import make_instance, package_of
from test_oracle_sim import count_passes, leg_uniforms


def inst_of(theta, k, *pkgs):
    return Instance(theta=theta, horizon=Horizon.finite(k), packages=tuple(pkgs))


def enum_quotient(probs, m, old, new):
    """(P' - P) / (p' - p) for agent ``m`` moving from ``old`` to ``new``,
    both pmfs by subset enumeration."""
    before, after = list(probs), list(probs)
    before[m], after[m] = old, new
    pmf_before = poisson_binomial_enum(before).pmf
    pmf_after = poisson_binomial_enum(after).pmf
    return [(a - b) / (new - old) for a, b in zip(pmf_after, pmf_before)]


def distinct_prob(rng, p, gap=0.25):
    """A probability at least ``gap`` from ``p``, so that dividing by the
    difference keeps the enumerated quotient accurate to 1e-15."""
    while True:
        q = rng.random()
        if abs(q - p) >= gap:
            return q


class TestPoissonBinomialEnum:
    def test_certain_survival(self):
        assert poisson_binomial_enum([1, 1]).pmf == (0.0, 0.0, 1.0)

    def test_fair_coins(self):
        pmf = poisson_binomial_enum([0.5, 0.5]).pmf
        assert pmf == (0.25, 0.5, 0.25)

    def test_hand_enumerated_pair(self):
        # 4 subsets: .7*.3, .3*.3+.7*.7, .3*.7
        pmf = poisson_binomial_enum([0.3, 0.7]).pmf
        for got, want in zip(pmf, (0.21, 0.58, 0.21)):
            assert math.isclose(got, want, rel_tol=1e-12)

    def test_empty(self):
        assert poisson_binomial_enum([]).pmf == (1.0,)

    def test_trial_cap(self):
        with pytest.raises(TooManyTrialsError):
            poisson_binomial_enum([0.5] * 21)

    def test_bad_probability(self):
        with pytest.raises(DomainError):
            poisson_binomial_enum([0.5, 1.2])


class TestPoissonBinomialDft:
    def test_matches_enum_up_to_twelve_trials(self):
        rng = random.Random(500)
        for alpha in range(13):
            for _ in range(4):
                probs = [rng.random() for _ in range(alpha)]
                enum_pmf = poisson_binomial_enum(probs).pmf
                dft_pmf = poisson_binomial_dft(probs).pmf
                assert max(
                    abs(a - b) for a, b in zip(enum_pmf, dft_pmf)
                ) < 1e-10 if probs else dft_pmf == (1.0,)

    def test_binomial_reduction(self):
        rng = random.Random(501)
        for alpha in (1, 3, 7, 12):
            p = rng.random()
            pmf = poisson_binomial_dft([p] * alpha).pmf
            for beta, got in enumerate(pmf):
                want = math.comb(alpha, beta) * p**beta * (1 - p) ** (alpha - beta)
                assert abs(got - want) < 1e-10

    def test_normalization_and_identities(self):
        rng = random.Random(502)
        for alpha in (0, 1, 5, 9, 12):
            probs = [rng.random() for _ in range(alpha)]
            for dist in (poisson_binomial_enum(probs), poisson_binomial_dft(probs)):
                assert abs(sum(dist.pmf) - 1.0) < 1e-12
                assert abs(dist.mean - sum(probs)) < 1e-10
                assert abs(dist.expected_failures - sum(1 - p for p in probs)) < 1e-10

    def test_large_alpha_smoke(self):
        rng = random.Random(503)
        probs = [rng.random() for _ in range(500)]
        dist = poisson_binomial_dft(probs)
        assert abs(sum(dist.pmf) - 1.0) < 1e-9
        assert abs(dist.mean - sum(probs)) < 1e-6


class TestSurvivorRecursion:
    """The team path's O(m^2) pmf against both oracles."""

    def test_matches_enum_and_dft_up_to_twelve_trials(self):
        rng = random.Random(520)
        for alpha in range(13):
            for _ in range(6):
                probs = [rng.choice([0.0, 1.0]) if rng.random() < 0.25 else rng.random()
                         for _ in range(alpha)]
                got = _survivor_pmf(probs)
                assert len(got) == alpha + 1
                for oracle, tol in ((poisson_binomial_enum, 1e-12), (poisson_binomial_dft, 1e-10)):
                    assert max(abs(a - b) for a, b in zip(got, oracle(probs).pmf)) < tol

    def test_certain_outcomes_are_exact(self):
        assert _survivor_pmf([]) == [1.0]
        assert _survivor_pmf([1.0, 0.0, 1.0]) == [0.0, 0.0, 1.0, 0.0]

    def test_agent_order_does_not_change_a_bit(self):
        rng = random.Random(521)
        probs = [rng.random() for _ in range(8)]
        want = _survivor_pmf(probs)
        for _ in range(20):
            rng.shuffle(probs)
            assert _survivor_pmf(probs) == want


class TestTeamEpochExpectation:
    def test_single_agent_reduces_exactly(self):
        rng = random.Random(504)
        for _ in range(30):
            inst = make_instance(rng.randrange(2**31), n_max=5)
            ids = [p.id for p in inst.packages]
            rng.shuffle(ids)
            tour = tuple(ids[: rng.randint(0, len(ids))])
            team = TeamEpochPlan.of([tour])
            assert team_epoch_expectation(team, inst) == evaluate_epoch(tour, inst).expected_reward

    def test_empty_tours_are_free(self):
        inst = inst_of(5.0, 1, PackageSpec(0, 1, 0.5))
        assert team_epoch_expectation(TeamEpochPlan.of([(), ()]), inst) == 0.0

    def test_separability_identity(self):
        rng = random.Random(505)
        for _ in range(60):
            inst = make_instance(rng.randrange(2**31), n_max=6)
            ids = [p.id for p in inst.packages]
            rng.shuffle(ids)
            cut = rng.randint(0, len(ids))
            tours = [tuple(ids[:cut]), tuple(ids[cut:])]
            team = TeamEpochPlan.of(tours)
            total = team_epoch_expectation(team, inst)
            split = sum(evaluate_epoch(t, inst).expected_reward for t in tours)
            assert math.isclose(total, split, rel_tol=1e-12, abs_tol=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingToursError):
            TeamEpochPlan.of([(0,), (0,)])

    @pytest.mark.parametrize("tours, message", [
        (((1, True),), f"agent 0 tour id must be an integer in 0..{2**63 - 1}, got True"),
        ((None,), "agent 0 tour must be a list of ids, got NoneType"),
    ], ids=["bool-id", "none-tour"])
    def test_a_directly_built_plan_reads_its_tours_by_the_id_rule(self, tours, message):
        """``True`` was once refused as an overlap with package 1, and a
        ``None`` tour raised TypeError."""
        with pytest.raises(InvalidPlanError, match=re.escape(message)):
            TeamEpochPlan(tours=tours)

    def test_a_directly_built_plan_holds_tuples_of_ints(self):
        team = TeamEpochPlan(tours=([2, 0], np.array([1], dtype=np.int64), ()))
        assert team == TeamEpochPlan.of([(2, 0), (1,), ()])
        assert all(type(i) is int for tour in team.tours for i in tour)


def count_rows(monkeypatch):
    """The list that each ``PackageTable.rows`` call appends its id count to."""
    calls = []
    rows = PackageTable.rows

    def counted(table, ids):
        calls.append(len(ids))
        return rows(table, ids)

    monkeypatch.setattr(PackageTable, "rows", counted)
    return calls


class TestOneResolverCallPerTeamPlan:
    """A team plan's tours are resolved together: one id-index search."""

    TEAM = TeamEpochPlan.of([(3, 0), (), (1,), (4, 5)])
    INST = inst_of(0.5, 1, *(PackageSpec(i, 1.0 + i, 0.9 - 0.1 * i) for i in range(7)))

    def test_team_epoch_expectation(self, monkeypatch):
        calls = count_rows(monkeypatch)
        value = team_epoch_expectation(self.TEAM, self.INST)
        assert calls == [5]
        assert value == sum(evaluate_epoch(t, self.INST).expected_reward for t in self.TEAM.tours)

    def test_marginal_gain(self, monkeypatch):
        calls = count_rows(monkeypatch)
        marginal_gain(self.TEAM, 1, self.INST.packages[6], [0.0, 0.5, 1.0, 1.5, 2.0], self.INST)
        assert calls == [5]


class TestQuotientDifference:
    def test_single_agent_quotient(self):
        assert poisson_quotient_difference([0.5], 0, 0.9) == (-1.0, 1.0)

    def test_invariance_across_probe_pairs(self):
        # The quotient depends only on the other agents' probabilities: the
        # enumerated (P' - P) / (p' - p) of two different pairs both match it.
        rng = random.Random(506)
        for _ in range(50):
            alpha = rng.randint(1, 6)
            probs = [rng.random() for _ in range(alpha)]
            m = rng.randrange(alpha)
            got = poisson_quotient_difference(probs, m, distinct_prob(rng, probs[m]))
            for _ in range(2):
                old = rng.random()
                new = distinct_prob(rng, old)
                want = enum_quotient(probs, m, old, new)
                assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12

    def test_quotient_sums_to_zero(self):
        rng = random.Random(507)
        for _ in range(50):
            alpha = rng.randint(1, 6)
            probs = [rng.random() for _ in range(alpha)]
            q = poisson_quotient_difference(probs, rng.randrange(alpha), rng.random())
            assert abs(sum(q)) < 1e-12

    def test_equal_survivals_share_one_quotient(self):
        # Agents 0 and 3 see the same other survivals, as a multiset, so
        # their quotients are the same bits and a tie between them is exact.
        survivals = [0.81, 0.3, 0.7, 0.81, 0.55]
        assert poisson_quotient_difference(survivals, 0, 0.5) == poisson_quotient_difference(survivals, 3, 0.5)

    def test_degenerate_pair_rejected(self):
        with pytest.raises(DegenerateQuotientError):
            poisson_quotient_difference([0.25, 0.5], 1, 0.5)


class TestMarginalGain:
    def test_finite_difference_oracle(self):
        # delta * rho_bar must equal the appended-last change in epoch value
        rng = random.Random(508)
        for _ in range(100):
            inst = make_instance(rng.randrange(2**31), n_max=6)
            ids = [p.id for p in inst.packages]
            if len(ids) < 2:
                continue
            rng.shuffle(ids)
            tour = tuple(ids[:-1][: rng.randint(0, len(ids) - 1)])
            pkg = package_of(inst, ids[-1])
            team = TeamEpochPlan.of([tour])
            delta = marginal_gain(team, 0, pkg, None, inst)
            rho_bar = evaluate_epoch(tour, inst).epoch_survival
            diff = (
                evaluate_epoch(tour + (pkg.id,), inst).expected_reward
                - evaluate_epoch(tour, inst).expected_reward
            )
            assert math.isclose(delta * rho_bar, diff, rel_tol=1e-10, abs_tol=1e-10)

    def test_free_reward_without_cost(self):
        inst = inst_of(0.0, 1, PackageSpec(0, 2, 0.6), PackageSpec(1, 1, 0.9))
        team = TeamEpochPlan.of([(0,)])
        pkg = inst.packages[1]
        assert marginal_gain(team, 0, pkg, None, inst) == pkg.reward * pkg.leg_success

    def test_delta_sign_matches_gamma_vs_bound(self):
        rng = random.Random(510)
        for _ in range(200):
            inst = make_instance(rng.randrange(2**31), n_max=5)
            pkg = inst.packages[0]
            if pkg.leg_success >= 1.0:
                continue
            alpha = rng.randint(1, 3)
            tours = [
                tuple(p.id for p in inst.packages[1:] if rng.random() < 0.4)
                for _ in range(alpha)
            ]
            seen = set()
            tours = [tuple(i for i in t if i not in seen and not seen.add(i)) for t in tours]
            team = TeamEpochPlan.of(tours)
            m = rng.randrange(alpha)
            values = [0.0] + [rng.uniform(0, 5) for _ in range(alpha)]
            delta = marginal_gain(team, m, pkg, values, inst)
            survivals = [evaluate_epoch(t, inst).epoch_survival for t in tours]
            quotient = enum_quotient(survivals, m, 0.0, 1.0)
            got = poisson_quotient_difference(survivals, m, 0.0 if survivals[m] else 1.0)
            assert max(abs(a - b) for a, b in zip(got, quotient)) < 1e-12
            bound = sum(
                q * (values[b] - inst.theta * (alpha - b))
                for b, q in enumerate(quotient)
            )
            gamma = reward_to_risk(pkg)
            if gamma > bound + 1e-9:
                assert delta > 0
            elif gamma < bound - 1e-9:
                assert delta < 0

    def test_already_assigned(self):
        inst = inst_of(0.0, 1, PackageSpec(0, 1, 0.5))
        with pytest.raises(AlreadyAssignedError):
            marginal_gain(TeamEpochPlan.of([(0,)]), 0, inst.packages[0], None, inst)


# --- greedy on subset enumeration, as it was -----------------------------------


def enum_greedy_epoch_plan(instance, epoch, beta, continuation):
    """``_greedy_epoch_plan`` as it was before the O(m^2) recursion, kept as a
    reference: the survivor-pmf quotient is the enumerated pmf at survival 1
    minus that at survival 0, and the expected failures come from the
    enumerated pmf.  The quotient is taken once per agent and step instead of
    once per (agent, package) pair; it does not depend on the package."""
    available = {pkg_id: package_of(instance, pkg_id) for pkg_id in instance.allowed_ids(epoch)}
    tours = [[] for _ in range(beta)]
    theta = instance.theta
    while available:
        survivals = [evaluate_epoch(t, instance).epoch_survival for t in tours]
        best_gain, best_pick = 0.0, None
        for m in range(beta):
            quotient = enum_quotient(survivals, m, 0.0, 1.0)
            loss = sum(q * (continuation[b] - theta * (beta - b)) for b, q in enumerate(quotient))
            for pkg_id in sorted(available):
                pkg = available[pkg_id]
                rho = pkg.leg_success
                gain = survivals[m] * (pkg.reward * rho - (1.0 - rho * rho) * loss)
                if gain > best_gain:
                    best_gain, best_pick = gain, (m, pkg_id)
        if best_pick is None:
            break
        m, pkg_id = best_pick
        tours[m].append(pkg_id)
        tours[m].sort(key=lambda i: canonical_sort_key(package_of(instance, i)))
        del available[pkg_id]

    survivals = [evaluate_epoch(t, instance).epoch_survival for t in tours]
    dist = poisson_binomial_enum(survivals)
    rewards = 0.0
    for tour in tours:
        for pkg_id, psi in zip(tour, evaluate_epoch(tour, instance).delivery_probs):
            rewards += package_of(instance, pkg_id).reward * psi
    expected = rewards - theta * dist.expected_failures
    return tours, expected + sum(p * continuation[b] for b, p in enumerate(dist.pmf))


def enum_greedy(instance, agents):
    """(plans, values) of ``greedy_rtpd`` by :func:`enum_greedy_epoch_plan`."""
    plans, values = {}, {}
    v_next = [0.0] * (agents + 1)
    for h in range(instance.horizon.epochs, 0, -1):
        v_here = [0.0] * (agents + 1)
        for beta in range(1, agents + 1):
            tours, v_here[beta] = enum_greedy_epoch_plan(instance, h, beta, v_next)
            plans[(h, beta)] = tuple(tuple(t) for t in tours)
            values[(h, beta)] = v_here[beta]
        v_next = v_here
    return plans, values


def walk_epoch_plan(instance, epoch, beta, continuation):
    """The paper's walk for one (epoch, beta) scenario, and its best prefix.

    ``W_{m+1} = v(W_m, t_j)`` appends ``t_j``, the (agent, package) pair of
    largest scaled gain over every package still free, as ``greedy_rtpd``
    picks it (first maximum: lowest agent, then lowest id), until the
    catalog runs out: past the greedy's stop at its first non-positive gain.
    ``C_i(W_n)`` is the first prefix of largest value ``v``.  Returns its
    tours (each in canonical order) and value, and the gain of every step.
    """
    theta = instance.theta
    ids = sorted(instance.allowed_ids(epoch))
    pkg = {i: package_of(instance, i) for i in ids}
    key = {i: canonical_sort_key(pkg[i]) for i in ids}

    def stats(tour):
        return multiagent._tour_stats([pkg[i].reward for i in tour], [pkg[i].leg_success for i in tour])

    def value(tours):
        tour_stats = [stats(t) for t in tours]
        pmf = _survivor_pmf([s for _, s in tour_stats])
        return multiagent._team_expectation(tour_stats, theta) + sum(p * continuation[b] for b, p in enumerate(pmf))

    tours = [[] for _ in range(beta)]
    walk, gains = [(tuple(map(tuple, tours)), value(tours))], []
    free = list(ids)
    while free:
        survivals = [stats(t)[1] for t in tours]
        best = None
        for m in range(beta):
            loss = multiagent._survivor_loss(survivals, m, continuation, theta)
            for i in free:
                gain = survivals[m] * multiagent._gain(pkg[i].reward, pkg[i].leg_success, loss)
                if best is None or gain > best[0]:
                    best = (gain, m, i)
        gain, m, i = best
        gains.append(gain)
        free.remove(i)
        tours[m] = sorted(tours[m] + [i], key=key.get)
        walk.append((tuple(map(tuple, tours)), value(tours)))
    values = [v for _, v in walk]
    return (*walk[values.index(max(values))], gains)


def random_team_instance(rng, ties=False):
    """Up to 12 packages, K <= 3; some instances restrict each epoch to a
    random catalog.  rho is drawn continuously, or with ``ties`` each
    package's (reward, rho) is one of three pairs and theta is 0 or 0.5,
    so that gains tie exactly."""
    if ties:
        pairs = [(rng.choice([0.0, 1.0, 2.0, 3.0]), rng.choice([0.0, 0.5, 0.75, 1.0])) for _ in range(3)]
        inst = Instance(theta=rng.choice([0.0, 0.5]), horizon=Horizon.finite(rng.randint(1, 3)),
                        packages=tuple(PackageSpec(i, *rng.choice(pairs)) for i in range(rng.randint(1, 12))))
    else:
        inst = make_instance(rng.randrange(2**31), n_max=12, k_max=3)
    if rng.random() < 0.3:
        ids = [p.id for p in inst.packages]
        catalogs = tuple(frozenset(i for i in ids if rng.random() < 0.6) for _ in range(inst.horizon.epochs))
        inst = Instance(theta=inst.theta, horizon=inst.horizon, packages=inst.packages,
                        per_epoch_packages=catalogs)
    return inst


# --- exhaustive team oracle ---------------------------------------------------


def team_assignments(ids, beta):
    """All ways to hand out disjoint ordered tours to beta agents."""
    if beta == 0:
        return [()]
    out = []

    def rec(remaining, tours):
        if len(tours) == beta:
            out.append(tuple(tours))
            return
        for size in range(len(remaining) + 1):
            for subset in itertools.combinations(remaining, size):
                rest = [i for i in remaining if i not in subset]
                for perm in itertools.permutations(subset):
                    rec(rest, tours + [perm])

    rec(list(ids), [])
    return out


def team_optimum(instance, agents):
    """Exact optimum over per-(epoch, count) plans by exhaustive DP."""
    k = instance.horizon.epochs
    ids = sorted(p.id for p in instance.packages)
    v_next = {beta: 0.0 for beta in range(agents + 1)}
    for h in range(k, 0, -1):
        v_here = {0: 0.0}
        for beta in range(1, agents + 1):
            best = -math.inf
            for tours in team_assignments(ids, beta):
                plan = TeamEpochPlan.of(tours)
                expected = team_epoch_expectation(plan, instance)
                survivals = [evaluate_epoch(t, instance).epoch_survival for t in tours]
                pmf = poisson_binomial_enum(survivals).pmf
                value = expected + sum(pmf[b] * v_next[b] for b in range(beta + 1))
                best = max(best, value)
            v_here[beta] = best
        v_next = v_here
    return v_next[agents]


class TestGreedy:
    def test_single_agent_matches_solver(self):
        rng = random.Random(511)
        compared = 0
        for _ in range(60):
            inst = make_instance(rng.randrange(2**31), n_max=4, k_max=3)
            report = solve_finite(inst)
            gammas = [reward_to_risk(p) for p in inst.packages]
            gaps_ok = all(
                abs(g - t) > 1e-9 for g in gammas for t in report.thresholds
            )
            if not gaps_ok:
                continue
            team = greedy_rtpd(inst, 1, sim_config=SimConfig(trials=10, seed=1))
            plans = tuple(
                team.plans[(h, 1)].tours[0] for h in range(1, inst.horizon.epochs + 1)
            )
            assert plans == report.plan.as_tuples()[1]
            assert math.isclose(team.values[(1, 1)], report.total, rel_tol=1e-9, abs_tol=1e-9)
            compared += 1
        assert compared > 30

    def test_zero_cost_assigns_everything(self):
        inst = inst_of(
            0.0, 1,
            PackageSpec(0, 1, 0.4), PackageSpec(1, 2, 0.6), PackageSpec(2, 3, 0.8),
        )
        report = greedy_rtpd(inst, 2)
        assigned = set()
        for tour in report.plans[(1, 2)].tours:
            assigned.update(tour)
        assert assigned == {0, 1, 2}

    def test_greedy_beats_two_to_the_minus_k_bound(self):
        rng = random.Random(512)
        for _ in range(8):
            k = rng.randint(1, 2)
            inst = make_instance(rng.randrange(2**31), n=3, k=k)
            report = greedy_rtpd(inst, 2, sim_config=SimConfig(trials=10, seed=1))
            optimum = team_optimum(inst, 2)
            assert report.values[(1, 2)] >= 2.0 ** (-k) * optimum - 1e-9

    def test_sim_value_consistent_with_analytic(self):
        inst = inst_of(
            1.0, 2,
            PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8), PackageSpec(2, 1, 0.7),
        )
        report = greedy_rtpd(inst, 2, sim_config=SimConfig(trials=60_000, seed=9))
        assert report.sim is not None
        assert abs(report.value - report.values[(1, 2)]) <= 5 * report.sim.std_error

    def test_team_sim_shard_invariance(self):
        inst = inst_of(1.0, 2, PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8))
        report = greedy_rtpd(inst, 2, sim_config=SimConfig(trials=2000, seed=3))
        results = [
            simulate_team_mission(report.plans, inst, 2,
                                  SimConfig(trials=2000, seed=3, parallel_shards=s))
            for s in (1, 4)
        ]
        assert results[0] == results[1]

    def test_shards_beyond_the_trial_count_cost_nothing(self, monkeypatch):
        inst = inst_of(1.0, 2, PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8))
        report = greedy_rtpd(inst, 2, sim_config=SimConfig(trials=10, seed=3))
        passes = count_passes(monkeypatch, multiagent)
        res = simulate_team_mission(report.plans, inst, 2, SimConfig(trials=10, seed=3, parallel_shards=10**7))
        assert passes == [1] * 10
        assert res == simulate_team_mission(report.plans, inst, 2, SimConfig(trials=10, seed=3))

    def test_trials_beyond_the_limit(self):
        inst = inst_of(1.0, 2, PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8))
        report = greedy_rtpd(inst, 2, sim_config=SimConfig(trials=10, seed=3))
        with pytest.raises(TooManyTrialsError, match="10,000,001 trials exceed the limit of 10,000,000"):
            simulate_team_mission(report.plans, inst, 2, SimConfig(trials=MAX_TRIALS + 1, seed=3))

    @pytest.mark.parametrize("config, error", [
        (SimConfig(trials=MAX_TRIALS + 1, seed=3), TooManyTrialsError),
        (None, ValidationError),
    ], ids=["too-many-trials", "no-sim-config"])
    def test_simulation_settings_are_checked_before_any_plan(self, monkeypatch, config, error):
        def never(*args):
            raise AssertionError("an epoch plan was built")

        monkeypatch.setattr(multiagent, "_greedy_epoch_plan", never)
        inst = inst_of(1.0, 2, PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8))
        with pytest.raises(error):
            greedy_rtpd(inst, 2, sim_config=config)

    def test_one_epoch_needs_no_simulation(self):
        inst = inst_of(1.0, 1, PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8))
        report = greedy_rtpd(inst, 2, sim_config=SimConfig(trials=MAX_TRIALS + 1, seed=3))
        assert report.sim is None and report.value == report.values[(1, 2)]

    def test_scale_and_horizon_errors(self):
        inst = inst_of(0.0, 1, PackageSpec(0, 1, 0.5))
        with pytest.raises(ScaleLimitExceededError):
            greedy_rtpd(inst, 9)
        many = inst_of(0.0, 1, *(PackageSpec(i, 1, 0.5) for i in range(21)))
        with pytest.raises(ScaleLimitExceededError):
            greedy_rtpd(many, 2)
        infinite = Instance(theta=0.0, horizon=Horizon.infinite(),
                            packages=(PackageSpec(0, 1, 0.5),))
        with pytest.raises(InfiniteHorizonError):
            greedy_rtpd(infinite, 1)
        two_epoch = inst_of(0.0, 2, PackageSpec(0, 1, 0.5))
        with pytest.raises(ValidationError):
            greedy_rtpd(two_epoch, 1)  # K > 1 needs a sim_config


# An exact tie seen through the CLI: when package 0 is handed out in the
# (epoch 1, 4 alive) scenario, agents 0 ([6, 9, 15, 21]) and 3 ([12]) both
# survive with probability exactly 0.81.  Enumeration in agent order rounded
# agent 3's gain above agent 0's.
TIE_INSTANCE = {
    "theta": 0.9327808263312948, "horizon": {"finite": 1},
    "packages": [
        {"id": 0, "reward": 1.0, "rho": 0.6913942924401034}, {"id": 3, "reward": 0.0, "rho": 1.0},
        {"id": 6, "reward": 1.0, "rho": 1.0}, {"id": 9, "reward": 1.0, "rho": 1.0},
        {"id": 12, "reward": 2.287010015467562, "rho": 0.9}, {"id": 15, "reward": 1.0, "rho": 1.0},
        {"id": 18, "reward": 0.0, "rho": 0.9955222567528874}, {"id": 21, "reward": 6.5751273289387555, "rho": 0.9},
        {"id": 24, "reward": 9.635905169472492, "rho": 0.422286085759491},
        {"id": 27, "reward": 4.255587375723699, "rho": 0.8128075905084795},
    ],
}


class TestGreedyTies:
    def test_exact_tie_goes_to_the_lowest_agent_index(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(TIE_INSTANCE))
        assert run_cli(["team", "greedy", "-i", str(path), "--agents", "6", "--seed", "1"]) == 0
        plans = json.loads(capsys.readouterr().out)["plans"]
        tours = next(p["tours"] for p in plans if p["alive"] == 4)
        assert tours == [[6, 9, 15, 21, 0], [24], [27], [12]]

    def test_equal_survival_agents_apart_in_the_order(self):
        # Packages 0..3 go to agents 0..3 in turn, leaving survivals
        # (0.64, 0.49, 0.64, 0.36).  Package 4 then gains exactly as much on
        # agent 0 as on agent 2, whose other survivals are the same multiset
        # in a different order; the tie goes to agent 0.
        inst = inst_of(
            1.5, 1,
            PackageSpec(0, 10.0, 0.8), PackageSpec(1, 9.5, 0.7), PackageSpec(2, 6.0, 0.8),
            PackageSpec(3, 4.0, 0.6), PackageSpec(4, 1.0, 0.95),
        )
        before = TeamEpochPlan.of([(0,), (1,), (2,), (3,)])
        survivals = [evaluate_epoch(t, inst).epoch_survival for t in before.tours]
        assert survivals[0] == survivals[2] and len(set(survivals)) == 3
        gains = [marginal_gain(before, m, inst.packages[4], None, inst) for m in (0, 2)]
        assert gains[0] == gains[1] > 0
        assert greedy_rtpd(inst, 4).plans[(1, 4)].tours == ((0, 4), (1,), (2,), (3,))


class TestGreedyAgainstEnumeration:
    def test_plans_and_values_match_the_enumeration_greedy(self):
        rng = random.Random(530)
        for ties in [False] * 300 + [True] * 300:
            inst = random_team_instance(rng, ties)
            agents = rng.randint(1, 6)
            plans, values = enum_greedy(inst, agents)
            report = greedy_rtpd(inst, agents, sim_config=SimConfig(trials=2, seed=1))
            for key, tours in plans.items():
                assert report.plans[key].tours == tours
                assert math.isclose(report.values[key], values[key], rel_tol=1e-12, abs_tol=0.0)

    def test_plans_are_the_best_prefixes_of_the_paper_walk(self):
        """The greedy's plans are ``C_i(W_n)``, with bit-identical values: it
        stops where the walk's best prefix ends.  The gains up to that stop
        never rise; past it they may (a scaled loss shrinks with the survival
        it scales), so the whole walk's gains are not asserted."""
        rng = random.Random(7)
        for ties in [False] * 150 + [True] * 150:
            inst = random_team_instance(rng, ties)
            agents = rng.randint(1, 3)
            report = greedy_rtpd(inst, agents, sim_config=SimConfig(trials=2, seed=1))
            for h in range(inst.horizon.epochs, 0, -1):
                continuation = [0.0] + [report.values[(h + 1, b)] if h < inst.horizon.epochs else 0.0
                                        for b in range(1, agents + 1)]
                for beta in range(1, agents + 1):
                    tours, value, gains = walk_epoch_plan(inst, h, beta, continuation)
                    assert report.plans[(h, beta)].tours == tours
                    assert report.values[(h, beta)].hex() == value.hex()
                    taken = [g for g in gains if g > 0.0]
                    assert gains[:len(taken)] == taken and sorted(taken, reverse=True) == taken

    def test_oracles_are_off_the_team_path(self, monkeypatch):
        def oracle(*args, **kwargs):
            raise AssertionError("a Poisson-binomial oracle ran on the team path")

        monkeypatch.setattr(multiagent, "poisson_binomial_enum", oracle)
        monkeypatch.setattr(multiagent, "poisson_binomial_dft", oracle)
        inst = make_instance(532, n=8, k=2)
        report = greedy_rtpd(inst, 4, sim_config=SimConfig(trials=50, seed=1))
        plan = report.plans[(1, 4)]
        team_epoch_expectation(plan, inst)
        for pkg in inst.packages:
            if pkg.id not in plan.assigned_ids():
                marginal_gain(plan, 0, pkg, [0.0, 1.0, 2.0, 3.0, 4.0], inst)
        poisson_quotient_difference([0.2, 0.5, 0.9], 1, 0.7)


class TestSubmodularity:
    def test_single_epoch_additions(self):
        rng = random.Random(513)
        checked = 0
        attempts = 0
        while checked < 300 and attempts < 5000:
            attempts += 1
            inst = make_instance(rng.randrange(2**31), n_max=6)
            ids = [p.id for p in inst.packages]
            if len(ids) < 2:
                continue
            rng.shuffle(ids)
            t_r, t_s = ids[0], ids[1]
            rest = ids[2:]
            alpha = rng.randint(1, 3)
            tours = [[] for _ in range(alpha)]
            for pkg_id in rest:
                if rng.random() < 0.5:
                    tours[rng.randrange(alpha)].append(pkg_id)
            m_r = rng.randrange(alpha)
            m_s = rng.randrange(alpha)

            def value(extra_r=False, extra_s=False):
                candidate = [list(t) for t in tours]
                if extra_r:
                    candidate[m_r].append(t_r)
                if extra_s:
                    candidate[m_s].append(t_s)
                return team_epoch_expectation(TeamEpochPlan.of(candidate), inst)

            base = value()
            mg_r = value(extra_r=True) - base
            mg_s = value(extra_s=True) - base
            if mg_r <= 0 or mg_s <= 0:
                continue
            mg_s_after_r = value(extra_r=True, extra_s=True) - value(extra_r=True)
            assert mg_s >= mg_s_after_r - 1e-10
            checked += 1
        assert checked == 300


# --- team Monte Carlo: block kernel vs the per-leg loop ----------------------


def per_leg_simulate_team(plans, instance, agents, config):
    """The per-leg team loop the block kernel replaced, kept as its
    reference: one ``leg_uniforms`` call per leg, rewards and -theta
    applied as each leg resolves."""
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
                        pkg = package_of(instance, int(pkg_id))
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


def random_team_plans(rng, instance, agents):
    """Random disjoint tours, some empty, for every (epoch, alive count)."""
    plans = {}
    for h in range(1, instance.horizon.epochs + 1):
        for beta in range(agents + 1):
            ids = sorted(instance.allowed_ids(h))
            rng.shuffle(ids)
            tours = [[] for _ in range(beta)]
            for pkg_id in ids:
                if beta and rng.random() < 0.8:
                    tours[rng.randrange(beta)].append(pkg_id)
            plans[(h, beta)] = TeamEpochPlan.of(tours)
    return plans


class TestTeamSimulationMatchesPerLegLoop:
    def test_random_plans(self):
        rng = random.Random(20261022)
        for _ in range(300):
            inst = random_team_instance(rng)
            if rng.random() < 0.3:  # rho 0 and 1 legs, and rho near 1
                pkgs = tuple(PackageSpec(p.id, p.reward, rng.choice([0.0, 1.0, 1 - 1e-9, p.leg_success]))
                             for p in inst.packages)
                inst = Instance(theta=inst.theta, horizon=inst.horizon, packages=pkgs,
                                per_epoch_packages=inst.per_epoch_packages)
            agents = rng.randint(1, 4)
            plans = random_team_plans(rng, inst, agents)
            config = SimConfig(trials=rng.randint(1, 300), seed=rng.randrange(2**64),
                               parallel_shards=rng.randint(1, 7))
            assert (simulate_team_mission(plans, inst, agents, config)
                    == per_leg_simulate_team(plans, inst, agents, config))

    def test_greedy_plans(self):
        rng = random.Random(20261023)
        for _ in range(20):
            inst = random_team_instance(rng)
            agents = rng.randint(1, 5)
            plans = greedy_rtpd(inst, agents, sim_config=SimConfig(trials=2, seed=1)).plans
            config = SimConfig(trials=500, seed=rng.randrange(2**64), parallel_shards=rng.randint(1, 3))
            assert (simulate_team_mission(plans, inst, agents, config)
                    == per_leg_simulate_team(plans, inst, agents, config))


PER_EPOCH_INSTANCE = Path(__file__).parent / "golden" / "per_epoch_instance.json"


class TestTeamSimulationChecksScenarios:
    INST = inst_of(1.0, 2, PackageSpec(0, 4, 0.5), PackageSpec(1, 2, 0.5), PackageSpec(2, 1, 0.5))
    CONFIG = SimConfig(trials=1000, seed=1)

    def test_a_tour_outside_its_epochs_catalog_is_refused_as_simulate_mission_refuses_it(self):
        """Package 2 is in the catalog, but not in epoch 1's: the tour once
        simulated to a mean of 1.0."""
        inst = instance_from_dict(json.loads(PER_EPOCH_INSTANCE.read_text()))
        config = SimConfig(trials=100, seed=1)
        message = "package 2 is not available in epoch 1"
        with pytest.raises(UnknownPackageIdError, match=re.escape(message)):
            simulate_mission(MissionPlan.finite([(2,), (), ()]), inst, config)
        plans = {(h, 1): TeamEpochPlan.of([(2,)] if h == 1 else [()]) for h in (1, 2, 3)}
        with pytest.raises(UnknownPackageIdError, match=re.escape(message)):
            simulate_team_mission(plans, inst, 1, config)

    def test_a_missing_scenario_is_named(self):
        """It was once a bare ``KeyError: (2, 1)``."""
        plans = {(1, 1): TeamEpochPlan.of([(0,)]), (1, 2): TeamEpochPlan.of([(0,), (1,)]),
                 (2, 2): TeamEpochPlan.of([(0,), (1,)])}
        with pytest.raises(InvalidPlanError, match=re.escape("no team plan for scenario (epoch 2, 1 alive)")):
            simulate_team_mission(plans, self.INST, 2, self.CONFIG)

    def test_more_tours_than_agents_alive_are_refused(self):
        """Three tours for one agent once lost 2231 agents in 1000 one-agent
        trials, a survival frequency of -1.231."""
        plans = {(1, 1): TeamEpochPlan.of([(0,), (1,), (2,)]), (2, 1): TeamEpochPlan.of([])}
        message = "team plan for scenario (epoch 1, 1 alive) has 3 tours, more than 1"
        with pytest.raises(InvalidPlanError, match=re.escape(message)):
            simulate_team_mission(plans, self.INST, 1, self.CONFIG)

    def test_only_the_simulated_scenarios_are_read(self):
        """A scenario past the horizon or past the team's size is never
        resolved, and its tours do not set the stride of the draws."""
        plans = greedy_rtpd(self.INST, 2, sim_config=SimConfig(trials=2, seed=1)).plans
        extra = {**plans, (3, 1): TeamEpochPlan.of([(99,)]), (1, 3): TeamEpochPlan.of([(2, 1, 0), (), ()])}
        assert simulate_team_mission(extra, self.INST, 2, self.CONFIG) == simulate_team_mission(
            plans, self.INST, 2, self.CONFIG)
