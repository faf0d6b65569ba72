import math
import random

import pytest

from riskplan import (
    EmptyPlanError,
    Horizon,
    HorizonMismatchError,
    Instance,
    InvalidPlanError,
    MissionPlan,
    PackageSpec,
    UNBOUNDED,
    UnknownPackageIdError,
    epoch_risk_ratio,
    evaluate_epoch,
    evaluate_mission,
    reward_to_risk,
)

from conftest import make_instance, package_of, random_mission_plan


def inst_of(theta, k, *pkgs, infinite=False):
    horizon = Horizon.infinite() if infinite else Horizon.finite(k)
    return Instance(theta=theta, horizon=horizon, packages=tuple(pkgs))


class TestEvaluateEpoch:
    def test_empty_plan(self):
        inst = inst_of(7.0, 1, PackageSpec(0, 1, 0.5))
        ev = evaluate_epoch((), inst)
        assert ev.epoch_survival == 1.0
        assert ev.expected_reward == 0.0
        assert ev.delivery_probs == ()

    def test_single_package_hand_computation(self):
        inst = inst_of(2.0, 1, PackageSpec(0, 1, 0.5))
        ev = evaluate_epoch((0,), inst)
        assert ev.delivery_probs == (0.5,)
        assert ev.epoch_survival == 0.25
        assert ev.expected_reward == -1.0

    def test_two_package_derived_value(self):
        # psi = (0.9, 0.648), survival 0.5184, E = 3.6 + 1.296 - 0.4816;
        # pinned against the Monte Carlo oracle in the acceptance suite.
        inst = inst_of(1.0, 1, PackageSpec(0, 4, 0.9), PackageSpec(1, 2, 0.8))
        ev = evaluate_epoch((0, 1), inst)
        assert math.isclose(ev.delivery_probs[0], 0.9, rel_tol=1e-12)
        assert math.isclose(ev.delivery_probs[1], 0.648, rel_tol=1e-12)
        assert math.isclose(ev.epoch_survival, 0.5184, rel_tol=1e-12)
        assert math.isclose(ev.expected_reward, 4.4144, rel_tol=1e-12)

    def test_psi_sequence_non_increasing(self, rng):
        for seed in range(30):
            inst = make_instance(seed, n_max=6)
            ids = [p.id for p in inst.packages]
            rng.shuffle(ids)
            ev = evaluate_epoch(tuple(ids), inst)
            for a, b in zip(ev.delivery_probs, ev.delivery_probs[1:]):
                assert b <= a + 1e-15
            if ev.delivery_probs:
                assert ev.epoch_survival <= ev.delivery_probs[0] + 1e-15

    def test_unknown_id(self):
        inst = inst_of(0.0, 1, PackageSpec(0, 1, 0.5))
        with pytest.raises(UnknownPackageIdError):
            evaluate_epoch((5,), inst)

    def test_repeated_id(self):
        inst = inst_of(0.0, 1, PackageSpec(0, 1, 0.5))
        with pytest.raises(InvalidPlanError):
            evaluate_epoch((0, 0), inst)

    def test_epoch_catalog_enforced(self):
        inst = Instance(
            theta=0.0,
            horizon=Horizon.finite(2),
            packages=(PackageSpec(0, 1, 0.5), PackageSpec(1, 1, 0.5)),
            per_epoch_packages=(frozenset({0}), frozenset({1})),
        )
        evaluate_epoch((0,), inst, epoch=1)
        with pytest.raises(UnknownPackageIdError):
            evaluate_epoch((1,), inst, epoch=1)


class TestEvaluateMission:
    def test_all_empty_plan(self):
        inst = inst_of(3.0, 3, PackageSpec(0, 1, 0.5))
        out = evaluate_mission(MissionPlan.finite([(), (), ()]), inst)
        assert out.total == 0.0
        assert out.survival_to_epoch == (1.0, 1.0, 1.0)

    def test_two_epoch_hand_computation(self):
        inst = inst_of(0.0, 2, PackageSpec(0, 1, 0.5))
        out = evaluate_mission(MissionPlan.finite([(0,), (0,)]), inst)
        assert math.isclose(out.total, 0.625, rel_tol=1e-12)
        assert out.survival_to_epoch == (1.0, 0.25)

    def test_stationary_derived_value(self):
        inst = inst_of(1.0, None, PackageSpec(0, 10, 0.9), infinite=True)
        out = evaluate_mission(MissionPlan.from_stationary((0,)), inst)
        assert math.isclose(out.total, 8.81 / 0.19, rel_tol=1e-12)

    def test_stationary_matches_truncated_geometric(self):
        packages = (PackageSpec(0, 10, 0.9),)
        infinite = inst_of(1.0, None, *packages, infinite=True)
        finite = inst_of(1.0, 500, *packages)
        stat = evaluate_mission(MissionPlan.from_stationary((0,)), infinite)
        trunc = evaluate_mission(MissionPlan.finite([(0,)] * 500), finite)
        assert math.isclose(stat.total, trunc.total, rel_tol=0, abs_tol=1e-9)

    def test_stationary_empty_plan(self):
        inst = inst_of(1.0, None, PackageSpec(0, 1, 0.5), infinite=True)
        out = evaluate_mission(MissionPlan.from_stationary(()), inst)
        assert out.total == 0.0

    def test_stationary_riskless_nonempty_is_unbounded(self):
        inst = inst_of(1.0, None, PackageSpec(0, 5, 1.0), infinite=True)
        out = evaluate_mission(MissionPlan.from_stationary((0,)), inst)
        assert out.total is UNBOUNDED

    def test_stationary_riskless_zero_reward_is_worth_nothing(self):
        inst = inst_of(1.0, None, PackageSpec(0, 0, 1.0), infinite=True)
        out = evaluate_mission(MissionPlan.from_stationary((0,)), inst)
        assert out.total == 0.0

    def test_horizon_mismatch(self):
        inst = inst_of(0.0, 2, PackageSpec(0, 1, 0.5))
        with pytest.raises(HorizonMismatchError):
            evaluate_mission(MissionPlan.finite([(0,)]), inst)
        infinite = inst_of(0.0, None, PackageSpec(0, 1, 0.5), infinite=True)
        with pytest.raises(HorizonMismatchError):
            evaluate_mission(MissionPlan.finite([(0,)]), infinite)

    def test_telescoping_identity_on_random_instances(self):
        # direct sum vs backward recursion, 1000 random (instance, plan) pairs
        rng = random.Random(1234)
        for trial in range(1000):
            inst = make_instance(rng.randrange(2**31), n_max=8, k_max=5)
            plan = random_mission_plan(rng, inst)
            out = evaluate_mission(plan, inst)
            backward = 0.0
            for ev in reversed(out.epoch_evals):
                backward = ev.expected_reward + ev.epoch_survival * backward
            assert math.isclose(out.total, backward, rel_tol=1e-12, abs_tol=1e-12)


class TestOrderingSwapProperty:
    def test_swapping_toward_gamma_order_never_hurts(self):
        rng = random.Random(99)
        strict_checked = 0
        for _ in range(400):
            inst = make_instance(rng.randrange(2**31), n_max=6)
            ids = [p.id for p in inst.packages]
            if len(ids) < 2:
                continue
            rng.shuffle(ids)
            i = rng.randrange(len(ids) - 1)
            g = [reward_to_risk(package_of(inst, x)) for x in ids]
            before = evaluate_epoch(tuple(ids), inst).expected_reward
            swapped = list(ids)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            after = evaluate_epoch(tuple(swapped), inst).expected_reward
            if g[i] < g[i + 1]:
                assert after >= before - 1e-12 * max(1.0, abs(before))
                # strictness needs a real gap and live prefix probability
                prefix = evaluate_epoch(tuple(ids[:i]), inst).epoch_survival
                if g[i + 1] - g[i] > 1e-9 and prefix > 1e-9:
                    assert after > before
                    strict_checked += 1
        assert strict_checked > 50

    def test_equal_gamma_swap_is_neutral(self):
        inst = inst_of(1.5, 1, PackageSpec(0, 2, 0.7), PackageSpec(1, 2, 0.7))
        a = evaluate_epoch((0, 1), inst).expected_reward
        b = evaluate_epoch((1, 0), inst).expected_reward
        assert math.isclose(a, b, rel_tol=1e-12)

    def test_survival_is_order_invariant(self, rng):
        for seed in range(40):
            inst = make_instance(seed, n_max=6)
            ids = [p.id for p in inst.packages]
            rng.shuffle(ids)
            base = evaluate_epoch(tuple(ids), inst).epoch_survival
            rng.shuffle(ids)
            assert math.isclose(
                evaluate_epoch(tuple(ids), inst).epoch_survival, base,
                rel_tol=1e-12, abs_tol=1e-300,
            )


class TestEpochRiskRatio:
    def test_derived_singleton(self):
        inst = inst_of(1.0, 1, PackageSpec(0, 10, 0.9))
        assert math.isclose(epoch_risk_ratio((0,), inst), 8.81 / 0.19, rel_tol=1e-12)

    def test_certain_failure_package(self):
        inst = inst_of(0.0, 1, PackageSpec(0, 1, 0.0))
        assert epoch_risk_ratio((0,), inst) == 0.0

    def test_singleton_identity_matches_gamma_minus_theta(self):
        rng = random.Random(7)
        for _ in range(200):
            inst = make_instance(rng.randrange(2**31), n_max=4)
            pkg = inst.packages[0]
            if pkg.leg_success == 1.0:
                continue
            eps = epoch_risk_ratio((pkg.id,), inst)
            assert math.isclose(eps, reward_to_risk(pkg) - inst.theta, rel_tol=1e-12, abs_tol=1e-12)

    def test_empty_plan_rejected(self):
        inst = inst_of(0.0, 1, PackageSpec(0, 1, 0.5))
        with pytest.raises(EmptyPlanError):
            epoch_risk_ratio((), inst)

    def test_riskless_positive_plan_is_infinite(self):
        inst = inst_of(1.0, 1, PackageSpec(0, 5, 1.0))
        assert epoch_risk_ratio((0,), inst) == math.inf

    def test_riskless_zero_reward_plan(self):
        inst = inst_of(1.0, 1, PackageSpec(0, 0, 1.0))
        assert epoch_risk_ratio((0,), inst) == 0.0
