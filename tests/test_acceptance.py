"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; a failed assert marks the criterion failed.
"""

import itertools
import math
import random
import time

import pytest

from riskplan import (
    Horizon,
    Instance,
    MissionPlan,
    SimConfig,
    TeamEpochPlan,
    best_stationary_policy,
    brute_force_finite,
    build_model,
    evaluate_mission,
    greedy_rtpd,
    poisson_binomial_dft,
    poisson_binomial_enum,
    reward_to_risk,
    simulate_mission,
    solve_finite,
    solve_infinite,
    team_epoch_expectation,
    validate_instance,
)
from riskplan.cli import GeneratorSpec, generate_instance

from conftest import make_instance, package_of, random_mission_plan, with_horizon
from test_multiagent import team_optimum


def ok(num: int, detail: str):
    print(f"PASS criterion {num}: {detail}")


@pytest.fixture(scope="module")
def oracle_suite():
    """200 seeded instances (n <= 4, K <= 3) solved both ways, timed."""
    records = []
    start = time.perf_counter()
    for seed in range(200):
        inst = make_instance(1_000_000 + seed, n_max=4, k_max=3)
        report = solve_finite(inst)
        value, plan = brute_force_finite(inst)
        records.append((inst, report, value, plan))
    elapsed = time.perf_counter() - start
    return records, elapsed


def test_criterion_01_oracle_optimality(oracle_suite):
    records, elapsed = oracle_suite
    assert len(records) == 200
    plan_comparisons = 0
    for inst, report, oracle_value, oracle_plan in records:
        assert math.isclose(report.total, oracle_value, rel_tol=1e-9, abs_tol=1e-9)
        gammas = [reward_to_risk(p) for p in inst.packages]
        gaps_ok = all(
            abs(a - b) > 1e-9 for a, b in itertools.combinations(gammas, 2)
        )
        if gaps_ok:
            assert report.plan.as_tuples() == oracle_plan.as_tuples()
            plan_comparisons += 1
    assert elapsed < 300.0
    ok(1, f"solver matches brute force on 200 instances "
          f"({plan_comparisons} exact plan matches) in {elapsed:.1f}s")


def test_criterion_02_infinite_horizon_triangle():
    rng = random.Random(777)
    for _ in range(100):
        inst = make_instance(rng.randrange(2**31), n_max=6, infinite=True,
                             rho_range=(0.0, 0.95))
        report = solve_infinite(inst)
        model = build_model(inst)
        _, mdp_value = best_stationary_policy(model)

        if report.chosen is None:
            geometric = 0.0
        else:
            finite = with_horizon(inst, Horizon.finite(500))
            geometric = evaluate_mission(
                MissionPlan.from_stationary((report.chosen,)), finite).total
        assert abs(report.total - mdp_value) < 1e-6
        assert abs(report.total - geometric) < 1e-6
        assert abs(mdp_value - geometric) < 1e-6
        # the closed form is hit exactly by construction
        if report.chosen is not None:
            assert report.total == report.gamma_max - inst.theta
    ok(2, "solve_infinite, MDP search, and truncated geometric sum agree "
          "within 1e-6 on 100 instances")


def test_criterion_03_stationary_dominance():
    rng = random.Random(888)
    plans_checked = 0
    for _ in range(40):
        inst = make_instance(rng.randrange(2**31), n_max=5, infinite=True)
        total = solve_infinite(inst).total
        ids = [p.id for p in inst.packages]
        for size in range(len(ids) + 1):
            for subset in itertools.combinations(ids, size):
                for order in itertools.permutations(subset):
                    value = evaluate_mission(
                        MissionPlan.from_stationary(order), inst).total
                    assert total >= value - 1e-9
                    plans_checked += 1
    ok(3, f"max-ratio stationary plan dominates all {plans_checked} "
          f"enumerated stationary plans")


def test_criterion_04_ordering_lemma(oracle_suite):
    records, _ = oracle_suite
    violations = 0
    pairs = 0
    for inst, _, _, oracle_plan in records:
        for epoch in oracle_plan.plans:
            gammas = [reward_to_risk(package_of(inst, i)) for i in epoch]
            for a, b in zip(gammas, gammas[1:]):
                pairs += 1
                if a < b - 1e-9:
                    violations += 1
    assert violations == 0
    ok(4, f"brute-force optimal orderings non-increasing in gamma "
          f"({pairs} adjacent pairs, zero counterexamples)")


def test_criterion_05_threshold_lemmas(oracle_suite):
    records, _ = oracle_suite
    removals = appends = 0
    for inst, report, _, _ in records:
        plans = [tuple(int(i) for i in p) for p in report.plan.plans]
        base = evaluate_mission(MissionPlan.finite(plans), inst).total
        for h, epoch in enumerate(plans):
            for drop in range(len(epoch)):
                mutated = list(plans)
                mutated[h] = epoch[:drop] + epoch[drop + 1:]
                assert evaluate_mission(MissionPlan.finite(mutated), inst).total < base
                removals += 1
            for pkg in inst.packages:
                if pkg.id in epoch:
                    continue
                if reward_to_risk(pkg) < report.thresholds[h] - 1e-9:
                    mutated = list(plans)
                    mutated[h] = epoch + (pkg.id,)
                    assert evaluate_mission(MissionPlan.finite(mutated), inst).total < base
                    appends += 1
    ok(5, f"every removal ({removals}) and sub-threshold append ({appends}) "
          f"strictly decreased the mission total")


def test_criterion_06_subset_corollary(oracle_suite):
    records, _ = oracle_suite
    for _, report, _, _ in records:
        plans = [set(int(i) for i in p) for p in report.plan.plans]
        for earlier, later in zip(plans, plans[1:]):
            assert earlier <= later

    rng = random.Random(999)
    for _ in range(50):
        inst = make_instance(rng.randrange(2**31), n_max=6, infinite=True,
                             rho_range=(0.0, 0.95))
        infinite_total = solve_infinite(inst).total
        previous = -math.inf
        for k in (1, 2, 3, 5, 8, 12):
            total = solve_finite(with_horizon(inst, Horizon.finite(k))).total
            assert total >= previous - 1e-12
            previous = total
        at_200 = solve_finite(with_horizon(inst, Horizon.finite(200))).total
        assert abs(at_200 - infinite_total) < 1e-4
    ok(6, "plans nest across epochs; V1(K) non-decreasing and within 1e-4 "
          "of the infinite value at K=200")


def test_criterion_07_monte_carlo():
    rng = random.Random(4242)
    within = 0
    for i in range(100):
        inst = make_instance(rng.randrange(2**31), n_max=6, k_max=4)
        plan = random_mission_plan(rng, inst)
        analytic = evaluate_mission(plan, inst).total
        result = simulate_mission(plan, inst,
                                  SimConfig(trials=100_000, seed=rng.randrange(2**62)))
        if abs(result.mean - analytic) <= 4 * result.std_error:
            within += 1
    assert within >= 99

    shard_checks = 0
    rng = random.Random(4343)
    for _ in range(3):
        inst = make_instance(rng.randrange(2**31), n_max=5, k_max=3)
        plan = random_mission_plan(rng, inst)
        results = [
            simulate_mission(plan, inst,
                             SimConfig(trials=20_000, seed=11, parallel_shards=s))
            for s in (1, 4, 16)
        ]
        assert results[0] == results[1] == results[2]
        shard_checks += 1
    ok(7, f"{within}/100 simulations within 4 std-errors; shard invariance "
          f"bit-exact on {shard_checks} plans x shards (1,4,16)")


def test_criterion_08_poisson_binomial():
    rng = random.Random(555)
    max_gap = 0.0
    for alpha in range(13):
        for _ in range(5):
            probs = [rng.random() for _ in range(alpha)]
            enum_dist = poisson_binomial_enum(probs)
            dft_dist = poisson_binomial_dft(probs)
            gap = max(abs(a - b) for a, b in zip(enum_dist.pmf, dft_dist.pmf))
            max_gap = max(max_gap, gap)
            assert gap < 1e-10
            for dist in (enum_dist, dft_dist):
                assert abs(sum(dist.pmf) - 1.0) < 1e-12
                assert abs(dist.mean - sum(probs)) < 1e-10
                assert abs(dist.expected_failures - sum(1 - p for p in probs)) < 1e-10
    for alpha in (1, 4, 9, 12):
        p = rng.random()
        pmf = poisson_binomial_dft([p] * alpha).pmf
        for beta, got in enumerate(pmf):
            want = math.comb(alpha, beta) * p**beta * (1 - p) ** (alpha - beta)
            assert abs(got - want) < 1e-10
    ok(8, f"DFT matches enumeration (max gap {max_gap:.2e}); normalization, "
          f"moment identities, and binomial reduction hold")


def test_criterion_09_submodularity_and_greedy_bound():
    rng = random.Random(31415)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 40_000:
        attempts += 1
        inst = make_instance(rng.randrange(2**31), n_max=6)
        ids = [p.id for p in inst.packages]
        if len(ids) < 2:
            continue
        rng.shuffle(ids)
        t_r, t_s = ids[0], ids[1]
        alpha = rng.randint(1, 3)
        tours = [[] for _ in range(alpha)]
        for pkg_id in ids[2:]:
            if rng.random() < 0.5:
                tours[rng.randrange(alpha)].append(pkg_id)
        m_r, m_s = rng.randrange(alpha), rng.randrange(alpha)

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
        mg_s_after = value(extra_r=True, extra_s=True) - value(extra_r=True)
        assert mg_s >= mg_s_after - 1e-10
        checked += 1
    assert checked == 1000

    bound_checked = 0
    rng = random.Random(27182)
    for _ in range(50):
        k = rng.randint(1, 2)
        inst = make_instance(rng.randrange(2**31), n=3, k=k)
        report = greedy_rtpd(inst, 2, sim_config=SimConfig(trials=10, seed=1))
        optimum = team_optimum(inst, 2)
        assert report.values[(1, 2)] >= 2.0 ** (-k) * optimum - 1e-9
        bound_checked += 1
    ok(9, f"submodularity held on {checked} positive-gain additions; greedy "
          f">= 2^-K x optimum on {bound_checked} tiny team instances")


def test_criterion_10_performance():
    big = generate_instance(GeneratorSpec(
        n=1_000_000, epochs=1000, theta_range=(1.0, 5.0), seed=20_240_601))
    validate_instance(big)
    start = time.perf_counter()
    report = solve_finite(big)
    finite_elapsed = time.perf_counter() - start
    assert finite_elapsed < 5.0
    assert report.total > 0

    infinite = Instance(theta=big.theta, horizon=Horizon.infinite(), packages=big.packages)
    validate_instance(infinite)
    start = time.perf_counter()
    inf_report = solve_infinite(infinite)
    infinite_elapsed = time.perf_counter() - start
    assert infinite_elapsed < 0.1
    assert inf_report.chosen is not None
    ok(10, f"n=1e6: finite K=1e3 solve {finite_elapsed:.2f}s (< 5s), "
           f"infinite solve {infinite_elapsed * 1000:.1f}ms (< 100ms)")
