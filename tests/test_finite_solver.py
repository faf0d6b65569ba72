import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskplan import (
    MAX_EPOCHS,
    Horizon,
    InfiniteHorizonError,
    Instance,
    InvalidInstanceError,
    PackageSpec,
    brute_force_finite,
    evaluate_mission,
    reward_to_risk,
    solve_finite,
)
from riskplan import finite_solver, model
from riskplan.errors import TooManyEpochsError
from riskplan.model import canonical_sort_key

from conftest import make_instance, package_of


def inst_of(theta, k, *pkgs, per_epoch=None):
    return Instance(
        theta=theta,
        horizon=Horizon.finite(k),
        packages=tuple(pkgs),
        per_epoch_packages=per_epoch,
    )


class TestExamples:
    def test_threshold_excludes_everything(self):
        report = solve_finite(inst_of(1.0, 1, PackageSpec(0, 1, 0.5)))
        assert report.total == 0.0
        assert report.plan.as_tuples() == ("plans", ((),))
        assert report.thresholds == (1.0,)
        assert report.values == (0.0, 0.0)

    def test_single_inclusion(self):
        report = solve_finite(inst_of(0.0, 1, PackageSpec(0, 1, 0.5)))
        assert math.isclose(report.total, 0.5, rel_tol=1e-12)
        assert report.plan.as_tuples() == ("plans", ((0,),))

    def test_two_epoch_derived_example(self):
        # Epoch 2 takes both packages (V2 = 9.1318); epoch 1's threshold
        # 0.5 + V2 admits only the high-ratio package.  Value pinned by the
        # brute-force oracle below.
        inst = inst_of(0.5, 2, PackageSpec(0, 10, 0.9), PackageSpec(1, 1, 0.6))
        report = solve_finite(inst)
        assert math.isclose(report.values[1], 9.1318, rel_tol=1e-12)
        assert math.isclose(report.total, 16.301758, rel_tol=1e-12)
        assert report.plan.as_tuples() == ("plans", ((0,), (0, 1)))
        assert math.isclose(report.thresholds[0], 0.5 + 9.1318, rel_tol=1e-12)

        oracle_value, oracle_plan = brute_force_finite(inst)
        assert math.isclose(report.total, oracle_value, rel_tol=1e-9)
        assert report.plan.as_tuples() == oracle_plan.as_tuples()

    def test_exact_threshold_equality_excluded(self):
        # gamma = 1.5*0.5/0.75 = 1.0 exactly equals theta: excluded, V = 0
        report = solve_finite(inst_of(1.0, 1, PackageSpec(0, 1.5, 0.5)))
        assert report.plan.as_tuples() == ("plans", ((),))
        assert report.total == 0.0
        # nudge theta below gamma: included
        report = solve_finite(inst_of(1.0 - 1e-9, 1, PackageSpec(0, 1.5, 0.5)))
        assert report.plan.as_tuples() == ("plans", ((0,),))

    def test_riskless_packages_lead_by_reward(self):
        inst = inst_of(
            0.1, 1,
            PackageSpec(0, 4, 0.9),
            PackageSpec(1, 2, 1.0),
            PackageSpec(2, 9, 1.0),
        )
        report = solve_finite(inst)
        assert report.plan.as_tuples() == ("plans", ((2, 1, 0),))

    def test_errors(self):
        infinite = Instance(theta=0.0, horizon=Horizon.infinite(), packages=())
        with pytest.raises(InfiniteHorizonError):
            solve_finite(infinite)
        bad = inst_of(0.0, 1, PackageSpec(0, -1, 0.5))
        with pytest.raises(InvalidInstanceError):
            solve_finite(bad)

    def test_epoch_limit_is_checked_before_allocating(self, monkeypatch):
        # Stand-in for the first step after the check, so that a missing
        # check fails here instead of allocating 10^9-entry lists.
        def past_the_check(instance):
            raise AssertionError("solve_finite went past the epoch limit")

        monkeypatch.setattr(finite_solver, "_sorted_package_arrays", past_the_check)
        inst = inst_of(1.0, 10**9, PackageSpec(0, 1, 0.5))
        tracemalloc.start()
        try:
            with pytest.raises(TooManyEpochsError, match=f"limit of {MAX_EPOCHS:,} epochs"):
                solve_finite(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_epoch_limit_heterogeneous(self, monkeypatch):
        monkeypatch.setattr(model, "MAX_EPOCHS", 2)
        inst = inst_of(1.0, 3, PackageSpec(0, 1, 0.5), per_epoch=(frozenset({0}),) * 3)
        with pytest.raises(TooManyEpochsError):
            solve_finite(inst)
        assert len(solve_finite(inst_of(1.0, 2, PackageSpec(0, 1, 0.5),
                                        per_epoch=(frozenset({0}),) * 2)).plan.plans) == 2

    def test_empty_catalog(self):
        report = solve_finite(inst_of(2.0, 3))
        assert report.total == 0.0
        assert report.plan.as_tuples() == ("plans", ((), (), ()))


class TestHeterogeneous:
    def test_empty_then_package(self):
        inst = inst_of(
            0.0, 2, PackageSpec(0, 1, 0.5),
            per_epoch=(frozenset(), frozenset({0})),
        )
        report = solve_finite(inst)
        assert report.plan.as_tuples() == ("plans", ((), (0,)))
        assert math.isclose(report.total, 0.5, rel_tol=1e-12)
        assert math.isclose(report.values[1], 0.5, rel_tol=1e-12)

    def test_package_then_empty(self):
        inst = inst_of(
            0.0, 2, PackageSpec(0, 1, 0.5),
            per_epoch=(frozenset({0}), frozenset()),
        )
        report = solve_finite(inst)
        assert report.plan.as_tuples() == ("plans", ((0,), ()))
        assert math.isclose(report.total, 0.5, rel_tol=1e-12)

    def test_solve_finite_dispatches(self):
        inst = inst_of(
            0.0, 2, PackageSpec(0, 1, 0.5),
            per_epoch=(frozenset(), frozenset({0})),
        )
        assert solve_finite(inst).plan.as_tuples() == ("plans", ((), (0,)))

    def test_matches_oracle_on_random_catalogs(self):
        rng = random.Random(2024)
        for _ in range(40):
            base = make_instance(rng.randrange(2**31), n_max=4, k_max=3)
            k = base.horizon.epochs
            ids = [p.id for p in base.packages]
            per_epoch = tuple(
                frozenset(i for i in ids if rng.random() < 0.7) for _ in range(k)
            )
            inst = Instance(
                theta=base.theta, horizon=base.horizon,
                packages=base.packages, per_epoch_packages=per_epoch,
            )
            report = solve_finite(inst)
            oracle_value, _ = brute_force_finite(inst)
            assert math.isclose(report.total, oracle_value, rel_tol=1e-9, abs_tol=1e-9)


def per_epoch_loop(instance):
    """(values, thresholds, plans) by the per-epoch solver that the prefix
    sweep replaced, kept as a reference: each epoch filters the global
    canonical order by its catalog and its threshold, O(K n) in Python."""
    k = instance.horizon.epochs
    theta = instance.theta
    ordered = sorted(instance.packages, key=canonical_sort_key)
    ordered_gammas = [reward_to_risk(p) for p in ordered]

    values = [0.0] * (k + 1)
    thresholds = [0.0] * k
    plans = [()] * k
    v_next = 0.0
    for h in range(k - 1, -1, -1):
        threshold = theta + v_next
        thresholds[h] = threshold
        allowed = instance.allowed_ids(h + 1)
        chosen = [p for p, g in zip(ordered, ordered_gammas) if p.id in allowed and g > threshold]
        rho_bar = 1.0
        reward_sum = 0.0
        for p in chosen:
            reward_sum += p.reward * rho_bar * p.leg_success
            rho_bar *= p.leg_success * p.leg_success
        values[h] = reward_sum - theta * (1.0 - rho_bar) + rho_bar * v_next
        plans[h] = tuple(p.id for p in chosen)
        v_next = values[h]
    return values, thresholds, plans


def random_catalog_instance(rng: random.Random, per_epoch: bool = True) -> Instance:
    """Scattered ids; riskless, zero-reward and tied packages; catalogs that
    are empty, the whole catalog, a repeat of the next epoch's, or random."""
    ids = rng.sample(range(10**6), rng.randint(0, 25))
    packages = []
    for pkg_id in ids:
        kind = rng.random()
        if kind < 0.1 and packages:
            reward, rho = packages[-1].reward, packages[-1].leg_success  # a tie
        else:
            reward = 0.0 if kind < 0.2 else rng.uniform(0.0, 10.0)
            rho = 1.0 if 0.2 <= kind < 0.3 else rng.uniform(0.0, 1.0)
        packages.append(PackageSpec(pkg_id, reward, rho))
    k = rng.randint(1, 8)
    catalogs = random_catalogs(rng, ids, k)
    return inst_of(rng.uniform(0.0, 5.0), k, *packages,
                   per_epoch=catalogs if per_epoch else None)


def random_catalogs(rng: random.Random, ids, k: int) -> tuple[frozenset, ...]:
    catalogs: list[frozenset] = []
    for _ in range(k):
        draw = rng.random()
        if catalogs and draw < 0.25:
            catalogs.append(catalogs[-1])
        elif draw < 0.4:
            catalogs.append(frozenset())
        elif draw < 0.55:
            catalogs.append(frozenset(ids))
        else:
            catalogs.append(frozenset(i for i in ids if rng.random() < 0.5))
    return tuple(catalogs)


class TestAgainstPerEpochLoop:
    def test_plans_equal_and_values_within_1e_12(self):
        rng = random.Random(20261018)
        for _ in range(300):
            inst = random_catalog_instance(rng)
            values, thresholds, plans = per_epoch_loop(inst)
            report = solve_finite(inst)
            assert report.plan.as_tuples() == ("plans", tuple(plans))
            for got, want in zip(report.values + report.thresholds, values + thresholds):
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
            assert report.total == report.values[0]

    def test_per_epoch_plans_hold_only_the_chosen_ids(self):
        inst = inst_of(0.0, 2, PackageSpec(0, 1, 0.5), PackageSpec(1, 1, 0.6), PackageSpec(2, 1, 0.7),
                       per_epoch=(frozenset({0, 2}), frozenset({1})))
        plan = solve_finite(inst).plan
        assert [p.tolist() for p in plan.plans] == [[2, 0], [1]]
        # Each epoch's plan is a view of its run's array, which holds the
        # run's first plan and nothing more.
        arrays, sources, sizes = plan.prefix_columns()
        assert [a.tolist() for a in arrays] == [[2, 0], [1]]
        assert sources.tolist() == [0, 1] and sizes.tolist() == [2, 1]
        assert all(p.base is a for p, a in zip(plan.plans, arrays))
        assert not any(a.flags.writeable for a in arrays)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_full_catalogs_equal_the_homogeneous_solve_bit_for_bit(self, seed):
        homogeneous = random_catalog_instance(random.Random(seed), per_epoch=False)
        k = homogeneous.horizon.epochs
        full = Instance(theta=homogeneous.theta, horizon=homogeneous.horizon, packages=homogeneous.packages,
                        per_epoch_packages=(frozenset(homogeneous.packages.ids.tolist()),) * k)
        expected, got = solve_finite(homogeneous), solve_finite(full)
        assert got.values == expected.values
        assert got.thresholds == expected.thresholds
        assert got.epoch_survivals == expected.epoch_survivals
        assert got.total == expected.total
        assert got.plan.as_tuples() == expected.plan.as_tuples()


def whole_catalog_sweep(instance):
    """(values, thresholds, epoch_survivals, plans) by the sweep that built
    each catalog run's prefix tables over every id of its catalog, kept as a
    reference for the solver's tables, which cover only the run's first
    plan."""
    k = instance.horizon.epochs
    theta = instance.theta
    _, ids, rewards, rhos, gammas = finite_solver._sorted_package_arrays(instance)
    catalogs = instance.per_epoch_packages or (None,) * k
    by_id = np.argsort(ids)  # canonical positions in ascending id order
    values, thresholds, survivals, plans = [0.0] * (k + 1), [0.0] * k, [0.0] * k, [()] * k
    v_next = 0.0
    for h in range(k - 1, -1, -1):
        catalog = catalogs[h]
        if h == k - 1 or not np.array_equal(catalog, catalogs[h + 1]):
            at = slice(None) if catalog is None else np.sort(by_id[np.searchsorted(ids[by_id], catalog)])
            table_ids, neg_gammas = ids[at], -gammas[at]
            survival, reward_sum = finite_solver._prefix_tables(rewards[at], rhos[at])
            q = table_ids.size
        threshold = thresholds[h] = theta + v_next
        q = int(np.searchsorted(neg_gammas[:q], -threshold, side="left"))
        plans[h] = tuple(table_ids[:q].tolist())
        rho_bar = survivals[h] = float(survival[q])
        values[h] = v_next = float(reward_sum[q] - theta * (1.0 - rho_bar) + rho_bar * v_next)
    return values, thresholds, survivals, plans


@st.composite
def sweep_instances(draw, per_epoch: bool) -> Instance:
    """Rewards and rhos from small sets, so that gammas tie, with riskless
    (rho = 1) and zero-reward packages; theta 0, or a package's own gamma,
    which ties at the last epoch's threshold; catalogs that are empty, hold
    every id, repeat the next epoch's, or hold some ids."""
    ids = draw(st.lists(st.integers(0, 10**6), max_size=12, unique=True))
    packages = [PackageSpec(pkg_id, draw(st.sampled_from([0.0, 1.0, 2.5, 6.0]) | st.floats(0.0, 10.0)),
                            draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)))
                for pkg_id in ids]
    gammas = [g for g in map(reward_to_risk, packages) if math.isfinite(g)]
    theta = draw(st.sampled_from([0.0, *gammas]) | st.floats(0.0, 5.0))
    k = draw(st.integers(1, 6))
    catalogs = None
    if per_epoch:
        catalogs = []
        for _ in range(k):
            kind = draw(st.sampled_from(["empty", "every", "repeat", "some"]))
            if kind == "repeat" and catalogs:
                catalogs.append(catalogs[-1])
            elif kind == "every":
                catalogs.append(frozenset(ids))
            elif kind == "some" and ids:
                catalogs.append(frozenset(draw(st.sets(st.sampled_from(ids)))))
            else:
                catalogs.append(frozenset())
    return inst_of(theta, k, *packages, per_epoch=catalogs)


@st.composite
def small_catalog_instances(draw) -> Instance:
    """Catalogs of up to three ids drawn from a pool of 20 to 60 packages,
    with theta 0 or small, so that many packages of the whole order lie above
    each threshold and the catalogs are smaller than that count."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=20, max_size=60, unique=True))
    packages = [PackageSpec(pkg_id, draw(st.sampled_from([0.0, 1.0, 6.0]) | st.floats(0.0, 10.0)),
                            draw(st.sampled_from([0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)))
                for pkg_id in ids]
    k = draw(st.integers(1, 8))
    catalogs = []
    for _ in range(k):
        if catalogs and draw(st.booleans()):
            catalogs.append(catalogs[-1])
        else:
            catalogs.append(frozenset(draw(st.sets(st.sampled_from(ids), max_size=3))))
    return inst_of(draw(st.sampled_from([0.0]) | st.floats(0.0, 0.5)), k, *packages, per_epoch=catalogs)


def bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


class TestAgainstWholeCatalogSweep:
    @pytest.mark.parametrize("kind", ["per-epoch", "homogeneous", "small-catalogs"])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_identical(self, kind, data):
        inst = data.draw(small_catalog_instances() if kind == "small-catalogs" else
                         sweep_instances(kind == "per-epoch"))
        values, thresholds, survivals, plans = whole_catalog_sweep(inst)
        report = solve_finite(inst)
        assert bits(report.values) == bits(values)
        assert bits(report.thresholds) == bits(thresholds)
        assert bits(report.epoch_survivals) == bits(survivals)
        assert report.plan.as_tuples() == ("plans", tuple(plans))


def survival_edge_instance(rng: random.Random) -> Instance:
    """Packages with rho = 0, 1 - 1e-9 and 1, zero rewards, and in one
    instance of four a long run of low-rho, high-reward packages whose plan
    survival underflows to 0; half the instances have per-epoch catalogs."""
    long = rng.random() < 0.25
    ids = rng.sample(range(10**6), rng.randint(150, 400) if long else rng.randint(0, 25))
    packages = []
    for pkg_id in ids:
        kind = rng.random()
        reward, rho = rng.uniform(0.0, 10.0), rng.uniform(0.0, 1.0)
        if long:
            reward, rho = rng.uniform(1e6, 1e8), rng.uniform(0.001, 0.05)
        elif kind < 0.1:
            rho = 0.0
        elif kind < 0.2:
            rho = 1.0 - 1e-9
        elif kind < 0.3:
            rho = 1.0
        elif kind < 0.4:
            reward = 0.0
        packages.append(PackageSpec(pkg_id, reward, rho))
    k = rng.randint(1, 8)
    catalogs = random_catalogs(rng, ids, k) if rng.random() < 0.5 else None
    return inst_of(rng.uniform(0.0, 5.0), k, *packages, per_epoch=catalogs)


class TestEpochSurvivals:
    def test_equal_to_evaluate_epoch_bit_for_bit(self):
        # np.cumprod and evaluate_epoch's ``rho_bar *= rho * rho`` are the
        # same left fold in plan order, so the survivals are equal, not close.
        rng = random.Random(20261019)
        seen = set()
        for _ in range(400):
            inst = survival_edge_instance(rng)
            report = solve_finite(inst)
            evaluation = evaluate_mission(report.plan, inst)
            assert len(report.epoch_survivals) == inst.horizon.epochs
            for plan, got, ev in zip(report.plan.plans, report.epoch_survivals, evaluation.epoch_evals):
                assert type(got) is float
                assert got == ev.epoch_survival
                rhos = {package_of(inst, int(i)).leg_success for i in plan}
                seen.add("per-epoch" if inst.per_epoch_packages else "homogeneous")
                seen.update(kind for kind, hit in (
                    ("empty", not len(plan)),
                    ("underflow", len(plan) and got == 0.0),
                    ("riskless", len(plan) and got == 1.0),
                    ("near 1", 1.0 - 1e-9 in rhos),
                ) if hit)
        assert seen == {"per-epoch", "homogeneous", "empty", "underflow", "riskless", "near 1"}

    def test_rho_zero_is_never_planned(self):
        # gamma = 0 is never above a threshold theta + V >= 0
        inst = inst_of(0.0, 2, PackageSpec(0, 5.0, 0.0), PackageSpec(1, 1.0, 0.5))
        report = solve_finite(inst)
        assert [p.tolist() for p in report.plan.plans] == [[1], [1]]
        assert report.epoch_survivals == (0.25, 0.25)


class TestInvariants:
    def test_oracle_equivalence_smoke(self):
        rng = random.Random(31337)
        for _ in range(60):
            inst = make_instance(rng.randrange(2**31))
            report = solve_finite(inst)
            oracle_value, _ = brute_force_finite(inst)
            assert math.isclose(report.total, oracle_value, rel_tol=1e-9, abs_tol=1e-9)

    def test_values_monotone_within_horizon(self):
        rng = random.Random(5)
        for _ in range(50):
            inst = make_instance(rng.randrange(2**31), k_max=6)
            report = solve_finite(inst)
            for earlier, later in zip(report.values, report.values[1:]):
                assert earlier >= later - 1e-12

    def test_value_monotone_in_horizon_length(self):
        rng = random.Random(6)
        for _ in range(25):
            base = make_instance(rng.randrange(2**31), k=1)
            previous = -math.inf
            for k in range(1, 8):
                inst = Instance(theta=base.theta, horizon=Horizon.finite(k), packages=base.packages)
                total = solve_finite(inst).total
                assert total >= previous - 1e-12
                previous = total

    def test_threshold_soundness_reevaluation(self):
        rng = random.Random(7)
        for _ in range(60):
            inst = make_instance(rng.randrange(2**31), n_max=6, k_max=5)
            report = solve_finite(inst)
            again = evaluate_mission(report.plan, inst).total
            assert math.isclose(report.total, again, rel_tol=1e-12, abs_tol=1e-12)

    def test_subset_chain(self):
        rng = random.Random(8)
        for _ in range(50):
            inst = make_instance(rng.randrange(2**31), n_max=8, k_max=6)
            report = solve_finite(inst)
            plans = [set(int(i) for i in p) for p in report.plan.plans]
            for earlier, later in zip(plans, plans[1:]):
                assert earlier <= later

    def test_plans_in_canonical_gamma_order(self):
        rng = random.Random(9)
        for _ in range(50):
            inst = make_instance(rng.randrange(2**31), n_max=8, k_max=4)
            report = solve_finite(inst)
            for epoch in report.plan.plans:
                gammas = [reward_to_risk(package_of(inst, int(i))) for i in epoch]
                for a, b in zip(gammas, gammas[1:]):
                    assert a >= b

    def test_inclusion_exclusion_perturbations(self):
        rng = random.Random(10)
        for _ in range(30):
            inst = make_instance(rng.randrange(2**31))
            report = solve_finite(inst)
            plans = [tuple(int(i) for i in p) for p in report.plan.plans]
            for h, epoch in enumerate(plans):
                for drop in range(len(epoch)):
                    mutated = list(plans)
                    mutated[h] = epoch[:drop] + epoch[drop + 1:]
                    from riskplan import MissionPlan
                    worse = evaluate_mission(MissionPlan.finite(mutated), inst).total
                    assert worse < report.total
                threshold = report.thresholds[h]
                for pkg in inst.packages:
                    if pkg.id in epoch:
                        continue
                    if reward_to_risk(pkg) < threshold - 1e-9:
                        mutated = list(plans)
                        mutated[h] = epoch + (pkg.id,)
                        from riskplan import MissionPlan
                        worse = evaluate_mission(MissionPlan.finite(mutated), inst).total
                        assert worse < report.total


def searchsorted_solve(instance):
    """(values, thresholds, epoch_survivals, plans) by the per-epoch loop that
    run stepping replaced, kept as a reference: one ``np.searchsorted`` per
    epoch into its run's prefix tables, and each value from numpy scalars."""
    k = instance.horizon.epochs
    theta = instance.theta
    order, ids, rewards, rhos, gammas = finite_solver._sorted_package_arrays(instance)
    neg_gammas = -gammas
    catalogs = instance.per_epoch_packages or (instance.catalog(1),) * k
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    values, thresholds, survivals, plans = [0.0] * (k + 1), [0.0] * k, [0.0] * k, [()] * k
    v_next = 0.0
    for h in range(k - 1, -1, -1):
        catalog = catalogs[h]
        threshold = thresholds[h] = theta + v_next
        if h == k - 1 or not np.array_equal(catalog, catalogs[h + 1]):
            top = int(np.searchsorted(neg_gammas, -threshold, side="left"))
            at = rank[instance.packages.rows(catalog)]
            at = np.sort(at[at < top])
            table_ids, table_neg_gammas = ids[at], neg_gammas[at]
            survival, reward_sum = finite_solver._prefix_tables(rewards[at], rhos[at])
            q = table_ids.size
        else:
            q = int(np.searchsorted(table_neg_gammas[:q], -threshold, side="left"))
        plans[h] = tuple(table_ids[:q].tolist())
        rho_bar = survivals[h] = float(survival[q])
        values[h] = v_next = float(reward_sum[q] - theta * (1.0 - rho_bar) + rho_bar * v_next)
    return values, thresholds, survivals, plans


def stepped_catalogs(rng: np.random.Generator, ids: np.ndarray, k: int) -> list:
    """Per-epoch catalogs whose neighbours are equal, differ, are empty or
    hold one id, each about as often."""
    catalogs = []
    for _ in range(k):
        kind = rng.integers(4)
        if kind == 0 and catalogs:
            catalogs.append(catalogs[-1])
        elif kind == 1 or not ids.size:
            catalogs.append(np.empty(0, np.int64))
        elif kind == 2:
            catalogs.append(rng.choice(ids, 1))
        else:
            catalogs.append(ids[rng.random(ids.size) < 0.6])
    return catalogs


def run_instance(rng: np.random.Generator, k: int, per_epoch: bool, ties: bool) -> Instance:
    """Up to 40 packages over K epochs.  With ``ties``, rewards and rhos
    come from small sets, so that gammas tie, and theta is 0 or a package's
    gamma; either way about one package in ten is riskless and one in ten
    has zero reward."""
    n = int(rng.integers(0, 41))
    ids = rng.choice(10**6, n, replace=False).astype(np.int64)
    if ties:
        rewards, rhos = rng.choice([0.0, 1.0, 2.5, 6.0], n), rng.choice([0.0, 0.5, 0.9, 1.0], n)
    else:
        rewards, rhos = rng.uniform(0.0, 10.0, n), rng.uniform(0.0, 1.0, n)
        rhos[rng.random(n) < 0.1] = 1.0
        rewards[rng.random(n) < 0.1] = 0.0
    gammas = model.gamma_values(rewards, rhos)
    finite_gammas = gammas[np.isfinite(gammas)]
    theta = float(rng.choice(np.concatenate(([0.0], finite_gammas)))) if ties else float(rng.uniform(0.0, 5.0))
    packages = model.PackageTable(ids, rewards, rhos)
    return Instance(theta=theta, horizon=Horizon.finite(k), packages=packages,
                    per_epoch_packages=stepped_catalogs(rng, ids, k) if per_epoch else None)


def gate_tie_instance(rng: random.Random):
    """A homogeneous instance, and an epoch h (0-based) whose threshold
    equals, bit for bit, the gamma of the last package of epoch h + 1's
    plan, so that run stepping's compare sees the tie; None if the search
    over theta's bit patterns finds no exact tie.  A threshold rises with
    theta, so a binary search over the bits finds the least theta whose
    threshold reaches that gamma."""
    base = make_instance(rng.randrange(2**31), n=rng.randint(2, 6), k=rng.randint(2, 4))
    _, _, _, plans = searchsorted_solve(base)
    h = rng.randrange(base.horizon.epochs - 1)
    if not plans[h + 1]:
        return None
    gamma = reward_to_risk(package_of(base, plans[h + 1][-1]))
    if not math.isfinite(gamma):
        return None

    def threshold(bits):
        inst = Instance(theta=float(np.int64(bits).view(np.float64)), horizon=base.horizon, packages=base.packages)
        return searchsorted_solve(inst)[1][h], inst

    low, high = 0, int(np.float64(gamma).view(np.int64))  # theta = gamma puts the threshold above it
    while low < high:
        mid = (low + high) // 2
        if threshold(mid)[0] < gamma:
            low = mid + 1
        else:
            high = mid
    reached, inst = threshold(low)
    if reached != gamma or plans[h + 1][-1] not in searchsorted_solve(inst)[3][h + 1]:
        return None
    return inst, h


class TestRunStepping:
    """``solve_finite`` steps each run of equal plans in Python floats; every
    number and plan equals :func:`searchsorted_solve`'s, with ``==``."""

    @staticmethod
    def check(inst):
        values, thresholds, survivals, plans = searchsorted_solve(inst)
        report = solve_finite(inst)
        assert report.values == tuple(values)
        assert report.thresholds == tuple(thresholds)
        assert report.epoch_survivals == tuple(survivals)
        assert report.plan.as_tuples() == ("plans", tuple(plans))
        assert report.total == values[0]

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    @pytest.mark.parametrize("per_epoch", [False, True], ids=["homogeneous", "per-epoch"])
    def test_equal_to_the_per_epoch_loop(self, per_epoch, ties):
        rng = np.random.default_rng(20261022 + 2 * per_epoch + ties)
        for k in [1, 2, 3, 5, 10, 40, 100, 1000, 10**4]:
            for _ in range(30 if k <= 100 else 2):
                self.check(run_instance(rng, k, per_epoch, ties))

    def test_thresholds_exactly_on_a_gamma(self):
        rng = random.Random(20261023)
        found = 0
        for _ in range(400):
            tie = gate_tie_instance(rng)
            if tie is not None:
                inst, h = tie
                found += 1
                self.check(inst)
                report = solve_finite(inst)
                assert len(report.plan.plans[h]) < len(report.plan.plans[h + 1])
        assert found >= 10

    def test_runs_share_their_arrays(self):
        inst = Instance(theta=0.5, horizon=Horizon.finite(1000), packages=tuple(
            PackageSpec(i, 1.0 + i, 0.5 + 0.04 * i) for i in range(10)))
        arrays, sources, sizes = solve_finite(inst).plan.prefix_columns()
        assert len(arrays) == 1 and set(sources.tolist()) == {0}
        assert sizes.tolist() == [len(p) for p in solve_finite(inst).plan.plans]
        assert 1 < len(set(sizes.tolist())) <= 10

    @pytest.mark.parametrize("theta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_thresholds_searchsorted_orders_last(self, theta, monkeypatch):
        """With validation bypassed, a nan threshold keeps every package, as
        ``searchsorted`` orders nan last, and an infinite one none, riskless
        packages included; so do the overflowing values of huge rewards."""
        monkeypatch.setattr(finite_solver, "ensure_valid", lambda instance: instance)
        packages = (PackageSpec(0, 1e308, 1.0), PackageSpec(1, 1e308, 0.9), PackageSpec(2, 3.0, 0.5))
        for inst in (inst_of(theta, 4, *packages), inst_of(0.0, 4, *packages)):
            with np.errstate(over="ignore"):  # the prefix sums of rewards overflow
                values, thresholds, survivals, plans = searchsorted_solve(inst)
                report = solve_finite(inst)
            assert bits(report.values) == bits(values)
            assert bits(report.thresholds) == bits(thresholds)
            assert bits(report.epoch_survivals) == bits(survivals)
            assert report.plan.as_tuples() == ("plans", tuple(plans))
