import math
import random
import tracemalloc

import pytest

from riskplan import (
    MAX_EPOCHS,
    Horizon,
    InfiniteHorizonError,
    Instance,
    InvalidInstanceError,
    MissingPerEpochCatalogError,
    PackageSpec,
    brute_force_finite,
    evaluate_mission,
    reward_to_risk,
    solve_finite,
    solve_finite_heterogeneous,
)
from riskplan import finite_solver
from riskplan.errors import TooManyEpochsError

from conftest import make_instance


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
        monkeypatch.setattr(finite_solver, "MAX_EPOCHS", 2)
        inst = inst_of(1.0, 3, PackageSpec(0, 1, 0.5), per_epoch=(frozenset({0}),) * 3)
        with pytest.raises(TooManyEpochsError):
            solve_finite_heterogeneous(inst)
        assert len(solve_finite_heterogeneous(inst_of(1.0, 2, PackageSpec(0, 1, 0.5),
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
        report = solve_finite_heterogeneous(inst)
        assert report.plan.as_tuples() == ("plans", ((), (0,)))
        assert math.isclose(report.total, 0.5, rel_tol=1e-12)
        assert math.isclose(report.values[1], 0.5, rel_tol=1e-12)

    def test_package_then_empty(self):
        inst = inst_of(
            0.0, 2, PackageSpec(0, 1, 0.5),
            per_epoch=(frozenset({0}), frozenset()),
        )
        report = solve_finite_heterogeneous(inst)
        assert report.plan.as_tuples() == ("plans", ((0,), ()))
        assert math.isclose(report.total, 0.5, rel_tol=1e-12)

    def test_requires_catalogs(self):
        with pytest.raises(MissingPerEpochCatalogError):
            solve_finite_heterogeneous(inst_of(0.0, 1, PackageSpec(0, 1, 0.5)))

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
            report = solve_finite_heterogeneous(inst)
            oracle_value, _ = brute_force_finite(inst)
            assert math.isclose(report.total, oracle_value, rel_tol=1e-9, abs_tol=1e-9)


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
                gammas = [reward_to_risk(inst.package_by_id(int(i))) for i in epoch]
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
