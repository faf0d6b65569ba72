import ast
import itertools
import math
import random
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from riskplan import (
    Horizon,
    InfiniteHorizonError,
    Instance,
    InvalidInstanceError,
    MissionPlan,
    PackageSpec,
    SearchSpaceTooLargeError,
    SimConfig,
    UnboundedSimulationError,
    brute_force_finite,
    evaluate_epoch,
    evaluate_mission,
    reward_to_risk,
    simulate_mission,
)
from riskplan import expectation, oracle_sim
from riskplan.cli import GeneratorSpec, generate_instance
from riskplan.errors import HorizonMismatchError, InvalidPlanError, UnknownPackageIdError
from riskplan.oracle_sim import STATIONARY_EPOCH_CAP, SimResult, _epoch_sequences, leg_uniforms, trial_keys

from conftest import make_instance, random_mission_plan, with_horizon

import numpy as np


def inst_of(theta, k, *pkgs):
    return Instance(theta=theta, horizon=Horizon.finite(k), packages=tuple(pkgs))


class TestBruteForce:
    def test_single_package_stays_home(self):
        value, plan = brute_force_finite(inst_of(1.0, 1, PackageSpec(0, 1, 0.5)))
        assert value == 0.0
        assert plan.as_tuples() == ("plans", ((),))

    def test_empty_catalog(self):
        value, plan = brute_force_finite(inst_of(1.0, 2))
        assert value == 0.0
        assert plan.as_tuples() == ("plans", ((), ()))

    def test_two_epoch_derived_example(self):
        inst = inst_of(0.5, 2, PackageSpec(0, 10, 0.9), PackageSpec(1, 1, 0.6))
        value, plan = brute_force_finite(inst)
        assert math.isclose(value, 16.301758, rel_tol=1e-9)
        assert plan.as_tuples() == ("plans", ((0,), (0, 1)))

    def test_value_tie_resolves_lexicographically(self):
        # gamma == theta exactly: including the package is worth exactly 0,
        # tying the empty plan; the empty plan is lexicographically smaller.
        value, plan = brute_force_finite(inst_of(1.0, 1, PackageSpec(0, 1.5, 0.5)))
        assert value == 0.0
        assert plan.as_tuples() == ("plans", ((),))

    def test_identical_packages_tie_by_id_order(self):
        inst = inst_of(0.0, 1, PackageSpec(1, 2, 0.7), PackageSpec(0, 2, 0.7))
        _, plan = brute_force_finite(inst)
        assert plan.as_tuples() == ("plans", ((0, 1),))

    def test_search_space_cap(self):
        pkgs = tuple(PackageSpec(i, 1, 0.5) for i in range(5))
        brute_force_finite(inst_of(0.0, 2, *pkgs))  # 326^2 is fine
        with pytest.raises(SearchSpaceTooLargeError):
            brute_force_finite(inst_of(0.0, 3, *pkgs))  # 326^3 > 1e7

    def test_infinite_horizon_rejected(self):
        inst = Instance(theta=0.0, horizon=Horizon.infinite(), packages=())
        with pytest.raises(InfiniteHorizonError):
            brute_force_finite(inst)

    def test_dominates_random_plans(self):
        rng = random.Random(42)
        for _ in range(15):
            inst = make_instance(rng.randrange(2**31))
            value, _ = brute_force_finite(inst)
            for _ in range(20):
                candidate = random_mission_plan(rng, inst)
                assert value >= evaluate_mission(candidate, inst).total - 1e-12

    def test_optimal_orderings_follow_gamma(self):
        rng = random.Random(43)
        for _ in range(15):
            inst = make_instance(rng.randrange(2**31))
            _, plan = brute_force_finite(inst)
            for epoch in plan.plans:
                gammas = [reward_to_risk(inst.package_by_id(i)) for i in epoch]
                for a, b in zip(gammas, gammas[1:]):
                    assert a >= b - 1e-9


class TestCounterRng:
    def test_pure_function_of_seed_trial_draw(self):
        ids = np.arange(100, dtype=np.uint64)
        keys = trial_keys(123, ids)
        a = leg_uniforms(keys, 7)
        b = leg_uniforms(trial_keys(123, ids), 7)
        assert (a == b).all()
        assert not (leg_uniforms(keys, 8) == a).all()
        assert not (leg_uniforms(trial_keys(124, ids), 7) == a).all()

    def test_uniform_range_and_moments(self):
        ids = np.arange(200_000, dtype=np.uint64)
        u = leg_uniforms(trial_keys(99, ids), 0)
        assert float(u.min()) >= 0.0
        assert float(u.max()) < 1.0
        assert abs(float(u.mean()) - 0.5) < 0.005
        assert abs(float(u.var()) - 1 / 12) < 0.005


class TestSimulateMission:
    def test_empty_plan_is_exact(self):
        inst = inst_of(3.0, 2, PackageSpec(0, 1, 0.5))
        res = simulate_mission(MissionPlan.finite([(), ()]), inst,
                               SimConfig(trials=1000, seed=1))
        assert res.mean == 0.0
        assert res.std_error == 0.0
        assert res.per_epoch_survival_freq == (1.0, 1.0)
        assert res.failure_epoch_histogram == {}

    def test_deterministic_success_is_exact(self):
        inst = inst_of(3.0, 1, PackageSpec(0, 1, 1.0))
        res = simulate_mission(MissionPlan.finite([(0,)]), inst,
                               SimConfig(trials=500, seed=1))
        assert res.mean == 1.0
        assert res.std_error == 0.0

    def test_derived_two_package_mean(self):
        inst = inst_of(1.0, 1, PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8))
        res = simulate_mission(MissionPlan.finite([(0, 1)]), inst,
                               SimConfig(trials=200_000, seed=11))
        assert abs(res.mean - 4.4144) <= 4 * res.std_error

    def test_shard_invariance_exact(self):
        rng = random.Random(44)
        inst = make_instance(rng.randrange(2**31), n_max=5, k_max=3)
        plan = random_mission_plan(rng, inst)
        results = [
            simulate_mission(plan, inst, SimConfig(trials=9_999, seed=77, parallel_shards=s))
            for s in (1, 4, 16)
        ]
        assert results[0] == results[1] == results[2]

    def test_shards_beyond_the_trial_count_cost_nothing(self):
        inst = inst_of(1.0, 2, PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8))
        plan = MissionPlan.finite([(0, 1), (1,)])
        start = time.perf_counter()
        res = simulate_mission(plan, inst, SimConfig(trials=10, seed=3, parallel_shards=10**7))
        assert time.perf_counter() - start < 1.0
        assert res == simulate_mission(plan, inst, SimConfig(trials=10, seed=3))

    def test_seed_determinism(self):
        inst = inst_of(1.0, 1, PackageSpec(0, 4, 0.9))
        a = simulate_mission(MissionPlan.finite([(0,)]), inst, SimConfig(trials=5000, seed=5))
        b = simulate_mission(MissionPlan.finite([(0,)]), inst, SimConfig(trials=5000, seed=5))
        c = simulate_mission(MissionPlan.finite([(0,)]), inst, SimConfig(trials=5000, seed=6))
        assert a == b
        assert a.mean != c.mean

    def test_survival_freq_tracks_analytic(self):
        inst = inst_of(0.0, 3, PackageSpec(0, 1, 0.8))
        plan = MissionPlan.finite([(0,), (0,), (0,)])
        res = simulate_mission(plan, inst, SimConfig(trials=100_000, seed=3))
        expected = evaluate_mission(plan, inst).survival_to_epoch
        for freq, exact in zip(res.per_epoch_survival_freq, expected):
            assert abs(freq - exact) < 0.01
        assert sum(res.failure_epoch_histogram.values()) <= 100_000

    def test_stationary_plan(self):
        inst = Instance(theta=1.0, horizon=Horizon.infinite(),
                        packages=(PackageSpec(0, 10, 0.9),))
        res = simulate_mission(MissionPlan.from_stationary((0,)), inst,
                               SimConfig(trials=30_000, seed=21))
        analytic = 8.81 / 0.19
        assert abs(res.mean - analytic) <= 5 * res.std_error
        assert res.truncation_bias_bound < 1e-300  # 0.81^1e5 underflows
        assert res.per_epoch_survival_freq[0] == 1.0

    def test_stationary_empty_plan(self):
        inst = Instance(theta=1.0, horizon=Horizon.infinite(),
                        packages=(PackageSpec(0, 10, 0.9),))
        res = simulate_mission(MissionPlan.from_stationary(()), inst,
                               SimConfig(trials=100, seed=1))
        assert res.mean == 0.0

    def test_stationary_riskless_rejected(self):
        inst = Instance(theta=1.0, horizon=Horizon.infinite(),
                        packages=(PackageSpec(0, 10, 1.0),))
        with pytest.raises(UnboundedSimulationError):
            simulate_mission(MissionPlan.from_stationary((0,)), inst,
                             SimConfig(trials=100, seed=1))

    def test_stationary_cap_is_respected(self):
        # rho close to 1 so many epochs survive; cap bounds the epoch count
        inst = Instance(theta=0.0, horizon=Horizon.infinite(),
                        packages=(PackageSpec(0, 1, 0.99999),))
        res = simulate_mission(MissionPlan.from_stationary((0,)), inst,
                               SimConfig(trials=50, seed=2))
        assert len(res.per_epoch_survival_freq) <= STATIONARY_EPOCH_CAP
        assert res.truncation_bias_bound > 0

    def test_stationary_plan_makes_no_package_records(self):
        # Plan ids resolve to rows of the package columns; a PackageSpec per
        # catalog package would cost seconds at n = 10^6.
        inst = generate_instance(GeneratorSpec(n=200_000, epochs=None, seed=3))
        simulate_mission(MissionPlan.from_stationary((5, 17, 99)), inst, SimConfig(trials=10, seed=1))
        assert "_specs" not in inst.packages.__dict__
        evaluate_mission(MissionPlan.from_stationary((5, 17, 99)), inst)
        assert "_specs" not in inst.packages.__dict__

    def test_truncation_bias_matches_evaluate_epoch(self):
        rng = random.Random(20261019)
        for _ in range(500):
            inst = random_sim_instance(rng, infinite=True)
            if not len(inst.packages):
                continue
            ids = rng.sample(inst.packages.ids.tolist(), rng.randint(1, min(len(inst.packages), 8)))
            ev = evaluate_epoch(ids, inst)
            epochs, stationary = expectation._resolve_plan(MissionPlan.from_stationary(ids), inst)
            assert stationary
            if ev.epoch_survival == 1.0:
                with pytest.raises(UnboundedSimulationError):
                    oracle_sim._truncation_bias(*epochs[0], inst.theta)
                continue
            eps = ev.expected_reward / (1.0 - ev.epoch_survival)
            expected = ev.epoch_survival ** STATIONARY_EPOCH_CAP * abs(eps)
            assert oracle_sim._truncation_bias(*epochs[0], inst.theta) == expected


# --- array fold vs the per-combination loop ----------------------------------


def epoch_entries(instance):
    """Each epoch's (E, survival, sequence) for every ordered selection of
    its catalog, as ``brute_force_finite`` tabulates them."""
    out = []
    for h in range(1, instance.horizon.epochs + 1):
        entries = []
        for seq in _epoch_sequences(sorted(instance.allowed_ids(h))):
            ev = evaluate_epoch(seq, instance, epoch=h)
            entries.append((ev.expected_reward, ev.epoch_survival, seq))
        out.append(entries)
    return out


def scalar_brute_force(instance):
    """The per-combination loop the array fold replaced, kept as its
    reference: every (E, survival) chain folded backwards in plan order,
    the first strictly greater value winning."""
    return scalar_fold(epoch_entries(instance))


def scalar_fold(epoch_entries):
    best_value, best_combo = -math.inf, None
    for combo in itertools.product(*epoch_entries):
        value = 0.0
        for expected, survival, _ in reversed(combo):
            value = expected + survival * value
        if value > best_value:
            best_value, best_combo = value, combo
    return best_value, tuple(tuple(seq) for _, _, seq in best_combo)


def random_oracle_instance(rng):
    """Small instance mixing exact ties, rho in {0, 1}, zero rewards,
    theta = 0 and per-epoch catalogs of unequal sizes."""
    while True:
        n = rng.randint(0, 4)
        k = rng.randint(1, 3)
        ids = rng.sample(range(20), n)
        pkgs = []
        for pkg_id in ids:
            reward = rng.choice([0.0, 1.0, 2.5, rng.uniform(0, 10), rng.uniform(0, 10)])
            rho = rng.choice([0.0, 1.0, 0.5, rng.random(), rng.random(), rng.random()])
            pkgs.append(PackageSpec(pkg_id, reward, rho))
        if n >= 2 and rng.random() < 0.25:
            pkgs[1] = PackageSpec(pkgs[1].id, pkgs[0].reward, pkgs[0].leg_success)
        theta = rng.choice([0.0, 1.0, rng.uniform(0, 5), rng.uniform(0, 5)])
        per_epoch = None
        if rng.random() < 0.4:
            per_epoch = tuple(frozenset(rng.sample(ids, rng.randint(0, n))) for _ in range(k))
        inst = Instance(theta=theta, horizon=Horizon.finite(k), packages=tuple(pkgs),
                        per_epoch_packages=per_epoch)
        space = math.prod(len(_epoch_sequences(sorted(inst.allowed_ids(h))))
                          for h in range(1, k + 1))
        if space <= 5000:
            return inst


def assert_same_optimum(inst):
    value, plan = brute_force_finite(inst)
    ref_value, ref_plan = scalar_brute_force(inst)
    assert value.hex() == ref_value.hex()
    assert tuple(tuple(int(i) for i in p) for p in plan.plans) == ref_plan


class TestBruteForceFold:
    # 1 folds nothing ahead and walks every combination alone; 7 and 100
    # split an epoch into chunks behind leading epochs.
    @pytest.mark.parametrize("block", [1, 7, 100, oracle_sim._FOLD_BLOCK])
    def test_matches_scalar_loop_on_random_instances(self, block, monkeypatch):
        monkeypatch.setattr(oracle_sim, "_FOLD_BLOCK", block)
        rng = random.Random(20261018 + block)
        for _ in range(300 if block == oracle_sim._FOLD_BLOCK else 75):
            assert_same_optimum(random_oracle_instance(rng))

    @pytest.mark.parametrize("block", [1, 7, oracle_sim._FOLD_BLOCK])
    @pytest.mark.parametrize("inst", [
        inst_of(0.0, 3, PackageSpec(0, 2, 0.7), PackageSpec(1, 2, 0.7), PackageSpec(2, 2, 0.7)),
        inst_of(1.0, 2, PackageSpec(0, 3, 0.0), PackageSpec(1, 3, 1.0), PackageSpec(2, 1, 0.5)),
        inst_of(1.0, 3, PackageSpec(0, 0, 0.6), PackageSpec(1, 0, 1.0), PackageSpec(2, 0, 0.0)),
        inst_of(0.0, 2, PackageSpec(0, 0, 0.3), PackageSpec(1, 4, 0.9), PackageSpec(2, 1.5, 0.5)),
        inst_of(0.0, 2, PackageSpec(0, 0, 0.0), PackageSpec(1, 0, 1.0)),
        Instance(theta=2.0, horizon=Horizon.finite(3),
                 packages=(PackageSpec(0, 3, 0.9), PackageSpec(4, 8, 0.5), PackageSpec(9, 1, 1.0),
                           PackageSpec(7, 0, 0.75)),
                 per_epoch_packages=(frozenset({0, 4, 9, 7}), frozenset(), frozenset({4, 9}))),
    ], ids=["duplicates", "rho-0-and-1", "zero-rewards", "theta-0", "all-zero", "unequal-catalogs"])
    def test_matches_scalar_loop_on_constructed_cases(self, inst, block, monkeypatch):
        monkeypatch.setattr(oracle_sim, "_FOLD_BLOCK", block)
        assert_same_optimum(inst)

    @pytest.mark.parametrize("block", [1, 7, oracle_sim._FOLD_BLOCK])
    def test_fold_matches_scalar_loop_past_overflow(self, block, monkeypatch):
        # Epoch 2's (0, 1) overflows E to inf; behind a rho = 0 epoch
        # 0 * inf is NaN, which never wins.  Validation rejects these
        # rewards (reward_overflow), so the fold is given their tables.
        inst = inst_of(1.0, 2, PackageSpec(0, 1.5e308, 0.9), PackageSpec(1, 1.5e308, 0.9),
                       PackageSpec(2, 1, 0.0))
        with pytest.raises(InvalidInstanceError, match="reward_overflow"):
            brute_force_finite(inst)
        entries = epoch_entries(inst)
        tables = [oracle_sim._EpochTable([seq for _, _, seq in es], np.array([e for e, _, _ in es]),
                                         np.array([s for _, s, _ in es])) for es in entries]
        monkeypatch.setattr(oracle_sim, "_FOLD_BLOCK", block)
        value, choice = oracle_sim._fold_product(tables)
        ref_value, ref_plan = scalar_fold(entries)
        assert value.hex() == ref_value.hex()
        assert tuple(t.seqs[i] for t, i in zip(tables, choice)) == ref_plan

    def test_plans_longer_than_64_epochs_decode(self, monkeypatch):
        # numpy's unravel_index stops at 64 dimensions; the fold does not.
        catalogs = [frozenset()] * 70
        catalogs[0], catalogs[40], catalogs[69] = frozenset({0}), frozenset({0, 1}), frozenset({1})
        inst = Instance(theta=0.5, horizon=Horizon.finite(70),
                        packages=(PackageSpec(0, 3, 0.8), PackageSpec(1, 2, 0.9)),
                        per_epoch_packages=tuple(catalogs))
        for block in (1, 3, oracle_sim._FOLD_BLOCK):
            monkeypatch.setattr(oracle_sim, "_FOLD_BLOCK", block)
            assert_same_optimum(inst)

    def test_peak_memory_stays_within_blocks(self):
        # 1957^2 = 3.8e6 combinations, 58 times the block: a fold over the
        # whole product would hold 30 MB per array.
        pkgs = tuple(PackageSpec(i, 1 + i, 0.5 + 0.05 * i) for i in range(6))
        inst = inst_of(0.5, 2, *pkgs)
        tracemalloc.start()
        try:
            value, plan = brute_force_finite(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert math.isclose(value, evaluate_mission(plan, inst).total, rel_tol=1e-12)


@pytest.mark.parametrize("module", ["mdp", "oracle_sim"])
def test_oracles_do_not_use_the_solvers(module):
    source = (Path(oracle_sim.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not names & {"finite_solver", "infinite_solver", "gamma_values"}


# --- block kernel vs the per-leg loop ----------------------------------------


def per_leg_run_shard(epochs, stationary, theta, seed, lo, hi):
    """Simulate trials [lo, hi); returns (totals, death_epochs, alive_counts)."""
    m = hi - lo
    ids = np.arange(lo, hi, dtype=np.uint64)
    keys = trial_keys(seed, ids)
    totals = np.zeros(m)
    death_epoch = np.zeros(m, dtype=np.int64)
    idx = np.arange(m)
    alive_counts: list[int] = []

    epoch_iter = itertools.repeat(epochs[0]) if stationary else iter(epochs)
    cap = STATIONARY_EPOCH_CAP if stationary else len(epochs)
    draw = 0
    for h in range(1, cap + 1):
        if stationary and idx.size == 0:
            break
        alive_counts.append(idx.size)
        for pkg in next(epoch_iter):
            rho = pkg.leg_success
            out_ok = leg_uniforms(keys[idx], draw) < rho
            draw += 1
            dead = idx[~out_ok]
            totals[dead] -= theta
            death_epoch[dead] = h
            idx = idx[out_ok]
            totals[idx] += pkg.reward
            ret_ok = leg_uniforms(keys[idx], draw) < rho
            draw += 1
            dead = idx[~ret_ok]
            totals[dead] -= theta
            death_epoch[dead] = h
            idx = idx[ret_ok]
    return totals, death_epoch, alive_counts


def per_leg_simulate(plan, inst, config):
    """``simulate_mission`` as it ran on the per-leg shard loop above, the
    one the block kernel replaced, kept as its reference: the trial range
    split by ``linspace``, each shard run in turn, and their totals,
    death epochs and alive counts merged."""
    if plan.is_stationary and inst.horizon.is_finite:
        plan = MissionPlan.finite([plan.stationary] * inst.horizon.epochs)
    stationary = plan.is_stationary
    plans = [plan.stationary] if stationary else plan.plans
    epochs = [[inst.package_by_id(int(i)) for i in p] for p in plans]
    truncation_bias = 0.0
    if stationary:
        if not epochs[0]:
            return SimResult(mean=0.0, std_error=0.0, per_epoch_survival_freq=(1.0,))
        truncation_bias = oracle_sim._truncation_bias(
            [p.reward for p in epochs[0]], [p.leg_success for p in epochs[0]], inst.theta)

    bounds = np.linspace(0, config.trials, config.parallel_shards + 1).astype(int)
    totals_parts = []
    death_parts = []
    alive_parts: list[list[int]] = []
    for s in range(config.parallel_shards):
        lo, hi = int(bounds[s]), int(bounds[s + 1])
        if lo == hi:
            continue
        totals, deaths, alive_counts = per_leg_run_shard(
            epochs, stationary, inst.theta, config.seed, lo, hi)
        totals_parts.append(totals)
        death_parts.append(deaths)
        alive_parts.append(alive_counts)

    totals = np.concatenate(totals_parts)
    deaths = np.concatenate(death_parts)

    n_epochs = max(len(a) for a in alive_parts)
    alive_total = np.zeros(n_epochs, dtype=np.int64)
    for counts in alive_parts:
        alive_total[: len(counts)] += np.asarray(counts, dtype=np.int64)

    mean = float(np.mean(totals))
    std_error = float(np.std(totals, ddof=1) / math.sqrt(config.trials)) if config.trials > 1 else 0.0
    hist_epochs, hist_counts = np.unique(deaths[deaths > 0], return_counts=True)
    return SimResult(
        mean=mean,
        std_error=std_error,
        per_epoch_survival_freq=tuple(float(c) / config.trials for c in alive_total),
        failure_epoch_histogram={int(e): int(c) for e, c in zip(hist_epochs, hist_counts)},
        truncation_bias_bound=truncation_bias,
    )


def random_sim_instance(rng, infinite=False):
    """Up to 30 packages over up to 5 epochs: rewards 0, rho 0, 1 and near
    1, theta 0, and per-epoch catalogs some of the time."""
    n = rng.randint(0, 30)
    k = rng.randint(1, 5)
    ids = rng.sample(range(100), n)
    pkgs = [
        PackageSpec(i, rng.choice([0.0, 1.0, rng.uniform(0, 10)]),
                    rng.choice([0.0, 1.0, rng.random(), 1 - 10 ** rng.uniform(-6, -1)]))
        for i in ids
    ]
    theta = rng.choice([0.0, rng.uniform(0, 5)])
    if infinite:
        return Instance(theta=theta, horizon=Horizon.infinite(), packages=tuple(pkgs))
    per_epoch = None
    if rng.random() < 0.4:
        per_epoch = tuple(frozenset(rng.sample(ids, rng.randint(0, n))) for _ in range(k))
    return Instance(theta=theta, horizon=Horizon.finite(k), packages=tuple(pkgs),
                    per_epoch_packages=per_epoch)


def random_sim_config(rng):
    return SimConfig(trials=rng.randint(1, 400), seed=rng.randrange(2**64),
                     parallel_shards=rng.randint(1, 7))


def leg_offsets(first_draw, count):
    return np.array([((d + 1) * 0x9E3779B97F4A7C15) % 2**64
                     for d in range(first_draw, first_draw + count)], dtype=np.uint64)


class TestFirstFailures:
    RHOS = [0.0, 5e-324, 2.0 ** -53, 0.5, 1 - 2.0 ** -53, 1.0]

    @pytest.mark.parametrize("draw", [0, 1, 977, 2**40 + 3])
    def test_one_leg_agrees_with_leg_uniforms(self, draw):
        keys = trial_keys(31, np.arange(100_000, dtype=np.uint64))
        u = leg_uniforms(keys, draw)
        assert u[0] > 0.0
        # rho = u[0] makes trial 0 draw u == rho exactly: a failure.
        for rho in self.RHOS + [float(u[0]), float(np.nextafter(u[0], 1.0))]:
            thresholds = oracle_sim._leg_thresholds([rho])[:1]
            first = oracle_sim._first_failures(keys, leg_offsets(draw, 1), thresholds)
            assert np.array_equal(first, (u < rho).astype(np.intp)), rho

    @pytest.mark.parametrize("draw", [0, 5, 2**40 + 3])
    def test_first_failed_leg_agrees_with_leg_uniforms(self, draw):
        keys = trial_keys(8, np.arange(100_000, dtype=np.uint64))
        rhos = [1.0, 1 - 2.0 ** -53, float(leg_uniforms(keys, draw + 4)[7]), 0.5, 0.9, 5e-324]
        thresholds = oracle_sim._leg_thresholds(rhos)  # each package's two legs
        legs = thresholds.size
        fails = np.array([leg_uniforms(keys, draw + j) >= rhos[j // 2] for j in range(legs)])
        expected = np.where(fails.any(axis=0), fails.argmax(axis=0), legs)
        first = oracle_sim._first_failures(keys, leg_offsets(draw, legs), thresholds)
        assert np.array_equal(first, expected)
        assert expected[7] == 4
        assert np.array_equal(oracle_sim._failed_legs(keys, draw, thresholds, legs), expected)

    # 3 packages make a 6-leg period, which does not divide a block of 64.
    @pytest.mark.parametrize("draws, legs", [
        (oracle_sim._DRAW_BLOCK, oracle_sim._BLOCK_LEGS), (1, 1), (50, 3)])
    @pytest.mark.parametrize("draw", [0, 2**40 + 3])
    def test_cycled_thresholds_equal_tiled_ones(self, draw, draws, legs, monkeypatch):
        monkeypatch.setattr(oracle_sim, "_DRAW_BLOCK", draws)
        monkeypatch.setattr(oracle_sim, "_BLOCK_LEGS", legs)
        keys = trial_keys(5, np.arange(2000, dtype=np.uint64))
        thresholds = oracle_sim._leg_thresholds([0.999, 0.99, 1 - 2.0 ** -53])
        for count in (7, 64, 65, 301):
            cycled = oracle_sim._failed_legs(keys, draw, thresholds, count)
            tiled = np.tile(thresholds, -(-count // thresholds.size))[:count]
            assert np.array_equal(cycled, oracle_sim._failed_legs(keys, draw, tiled, count))
            assert 0 < np.count_nonzero(cycled < count) < keys.size

    def test_draws_nothing_after_the_last_death(self, monkeypatch):
        # Every trial fails epoch 1's first leg (rho = 0).
        pkgs = (PackageSpec(0, 1, 0.0),) + tuple(PackageSpec(i, 1, 0.99) for i in range(1, 200))
        inst = inst_of(1.0, 3, *pkgs)
        plan = MissionPlan.finite([tuple(range(200))] * 3)
        blocks = []
        kernel = oracle_sim._first_failures
        monkeypatch.setattr(oracle_sim, "_first_failures",
                            lambda keys, *rest: blocks.append(keys.size) or kernel(keys, *rest))
        res = simulate_mission(plan, inst, SimConfig(trials=1000, seed=3, parallel_shards=2))
        assert blocks == [500, 500]  # one block per shard
        assert res.per_epoch_survival_freq == (1.0, 0.0, 0.0)
        assert res.failure_epoch_histogram == {1: 1000}
        assert res.mean == -1.0


class TestBlockKernelMatchesPerLegLoop:
    # (2^16, 64) is the kernel's own blocking; 1 leg per block and blocks
    # of up to 3 legs cut epochs and packages at every boundary.
    @pytest.mark.parametrize("draws, legs, cases", [
        (oracle_sim._DRAW_BLOCK, oracle_sim._BLOCK_LEGS, 300), (1, 1, 60), (50, 3, 60)])
    def test_random_finite_plans(self, draws, legs, cases, monkeypatch):
        monkeypatch.setattr(oracle_sim, "_DRAW_BLOCK", draws)
        monkeypatch.setattr(oracle_sim, "_BLOCK_LEGS", legs)
        rng = random.Random(20261019 + legs)
        for _ in range(cases):
            inst = random_sim_instance(rng)
            plan = random_mission_plan(rng, inst)
            config = random_sim_config(rng)
            assert simulate_mission(plan, inst, config) == per_leg_simulate(plan, inst, config)

    def test_oracle_instances_and_optimal_plans(self):
        rng = random.Random(20261020)
        for _ in range(40):
            inst = random_oracle_instance(rng)
            _, plan = brute_force_finite(inst)
            config = random_sim_config(rng)
            assert simulate_mission(plan, inst, config) == per_leg_simulate(plan, inst, config)

    @pytest.mark.parametrize("shards", range(1, 8))
    def test_stationary_plans(self, shards, monkeypatch):
        # A lower cap stands in for 10^5 epochs, in both loops.
        monkeypatch.setattr(oracle_sim, "STATIONARY_EPOCH_CAP", 500)
        monkeypatch.setitem(globals(), "STATIONARY_EPOCH_CAP", 500)
        rng = random.Random(20261021 + shards)
        done = 0
        while done < 12:
            inst = random_sim_instance(rng, infinite=True)
            if rng.random() < 0.2:  # expands to one copy per epoch
                inst = with_horizon(inst, Horizon.finite(rng.randint(1, 5)))
            ids = sorted(inst.allowed_ids(1))
            plan = MissionPlan.from_stationary(rng.sample(ids, rng.randint(0, min(len(ids), 6))))
            config = SimConfig(trials=rng.randint(1, 300), seed=rng.randrange(2**64),
                               parallel_shards=shards)
            try:
                expected = per_leg_simulate(plan, inst, config)
            except UnboundedSimulationError:
                continue
            assert simulate_mission(plan, inst, config) == expected
            done += 1

    @pytest.mark.parametrize("rho", [1 - 1e-4, 1 - 2.0 ** -53])
    def test_stationary_plans_that_reach_the_cap(self, rho, monkeypatch):
        monkeypatch.setattr(oracle_sim, "STATIONARY_EPOCH_CAP", 400)
        monkeypatch.setitem(globals(), "STATIONARY_EPOCH_CAP", 400)
        inst = Instance(theta=0.5, horizon=Horizon.infinite(),
                        packages=(PackageSpec(0, 1, rho), PackageSpec(1, 2.5, 0.999)))
        for shards in (1, 3, 7):
            config = SimConfig(trials=60, seed=12, parallel_shards=shards)
            res = simulate_mission(MissionPlan.from_stationary((1, 0)), inst, config)
            assert len(res.per_epoch_survival_freq) == 400
            assert res.per_epoch_survival_freq[-1] > 0
            assert res == per_leg_simulate(MissionPlan.from_stationary((1, 0)), inst, config)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_stationary_fold_past_overflow(self, monkeypatch):
        # Totals reach inf as the running float total does, and the fold
        # warns no more than float addition (the mean's own sum still does).
        monkeypatch.setattr(oracle_sim, "STATIONARY_EPOCH_CAP", 400)
        monkeypatch.setitem(globals(), "STATIONARY_EPOCH_CAP", 400)
        inst = Instance(theta=0.5, horizon=Horizon.infinite(),
                        packages=(PackageSpec(0, 1e306, 1 - 2.0 ** -53), PackageSpec(1, 1e306, 0.99)))
        plan = MissionPlan.from_stationary((0, 1))
        config = SimConfig(trials=200, seed=3, parallel_shards=2)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message="overflow encountered in accumulate")
            res = simulate_mission(plan, inst, config)
        expected = per_leg_simulate(plan, inst, config)
        assert res.mean == expected.mean == math.inf
        assert res.per_epoch_survival_freq == expected.per_epoch_survival_freq
        assert res.failure_epoch_histogram == expected.failure_epoch_histogram


# --- plan resolution for simulate --------------------------------------------


def reference_plan_epochs_for_sim(plan: MissionPlan, instance: Instance) -> tuple[list[list], bool]:
    """Resolve the plan into per-epoch package lists; True if stationary."""
    if plan.is_stationary:
        if len(set(map(int, plan.stationary))) != len(plan.stationary):
            raise InvalidPlanError("stationary plan repeats a package id")
        epoch = [instance.package_by_id(i) for i in plan.stationary]
        return [epoch], True
    # The checks and messages of ``evaluate_mission``; a valid instance
    # has one catalog per epoch, so they cover per-epoch catalogs too.
    horizon = instance.horizon
    if not horizon.is_finite:
        raise HorizonMismatchError("finite plan cannot be evaluated on an infinite horizon")
    if len(plan.plans) != horizon.epochs:
        raise HorizonMismatchError(
            f"plan has {len(plan.plans)} epochs but horizon is {horizon.epochs}")
    pep = instance.per_epoch_packages
    epochs = []
    for h, epoch_plan in enumerate(plan.plans, start=1):
        if len(set(map(int, epoch_plan))) != len(epoch_plan):
            raise InvalidPlanError(f"epoch {h} plan repeats a package id")
        allowed = instance.allowed_ids(h) if pep is not None else None
        pkgs = []
        for pkg_id in epoch_plan:
            pkg = instance.package_by_id(int(pkg_id))
            if allowed is not None and pkg.id not in allowed:
                raise UnknownPackageIdError(
                    f"package {pkg.id} is not available in epoch {h}")
            pkgs.append(pkg)
        epochs.append(pkgs)
    return epochs, False


def resolved(resolve, plan, inst):
    """(rewards, rhos) per epoch and the stationary flag, or the
    exception's (type, message)."""
    try:
        epochs, stationary = resolve(plan, inst)
    except Exception as exc:  # the comparison is of what each raises
        return type(exc), str(exc)
    if resolve is reference_plan_epochs_for_sim:
        epochs = [([p.reward for p in pkgs], [p.leg_success for p in pkgs]) for pkgs in epochs]
    return epochs, stationary


def raised(call, *args):
    """The (type, message) of what ``call(*args)`` raises, or None."""
    try:
        call(*args)
    except Exception as exc:  # the comparison is of what each raises
        return type(exc), str(exc)
    return None


def random_plan_ids(rng, inst, h):
    """An epoch plan of catalog ids with, some of the time, an unknown id,
    an id outside the epoch's catalog, a repeat, or nothing at all."""
    known = inst.packages.ids.tolist()
    allowed = sorted(inst.allowed_ids(h))
    ids = rng.sample(allowed, rng.randint(0, min(len(allowed), 6)))
    for _ in range(rng.choice([0, 0, 1, 2])):
        kind = rng.choice(["unknown", "outside", "repeat", "empty"])
        if kind == "unknown":
            extra = rng.choice([100 + rng.randrange(50), -1, 2**63 - 1, -(2**63), 2**64, 10**30])
        elif kind == "outside" and set(known) - set(allowed):
            extra = rng.choice(sorted(set(known) - set(allowed)))
        elif kind == "repeat" and ids:
            extra = rng.choice(ids)
        else:
            ids = []
            continue
        ids.insert(rng.randint(0, len(ids)), extra)
    if rng.random() < 0.5 and all(-(2**63) <= i < 2**63 for i in ids):
        return np.array(ids, dtype=np.int64)  # as the solver's plans are
    return tuple(ids)


class TestPlanResolution:
    def test_matches_the_per_package_resolver(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(1500):
            inst = random_sim_instance(rng, infinite=rng.random() < 0.2)
            k = inst.horizon.epochs or 1
            # simulate_mission expands a stationary plan on a finite horizon
            if not inst.horizon.is_finite and rng.random() < 0.8:
                plan = MissionPlan.from_stationary(random_plan_ids(rng, inst, 1))
            else:
                epochs = k + rng.choice([0, 0, 0, 0, 0, 0, -1, 1]) if inst.horizon.is_finite else k
                plan = MissionPlan.finite(random_plan_ids(rng, inst, min(h, k)) for h in range(1, max(epochs, 0) + 1))
            expected = resolved(reference_plan_epochs_for_sim, plan, inst)
            assert resolved(expectation._resolve_plan, plan, inst) == expected
            if isinstance(expected[0], type):
                # The evaluator and the simulator raise what the reference does.
                assert raised(evaluate_mission, plan, inst) == expected
                assert raised(simulate_mission, plan, inst, SimConfig(trials=2, seed=1)) == expected
            else:
                assert raised(evaluate_mission, plan, inst) is None
            seen.add(expected[0] if isinstance(expected[0], type) else "ok")
        assert seen == {"ok", InvalidPlanError, UnknownPackageIdError, HorizonMismatchError}
