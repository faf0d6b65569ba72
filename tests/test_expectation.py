import math
import random
import re

import numpy as np
import pytest

from riskplan import (
    DomainError,
    EmptyPlanError,
    Horizon,
    HorizonMismatchError,
    Instance,
    InvalidPlanError,
    MissionPlan,
    PackageSpec,
    SimConfig,
    TeamEpochPlan,
    UNBOUNDED,
    UnknownPackageIdError,
    epoch_risk_ratio,
    evaluate_epoch,
    evaluate_mission,
    marginal_gain,
    plan_from_dict,
    plan_to_dict,
    reward_to_risk,
    simulate_mission,
    team_epoch_expectation,
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

    @pytest.mark.parametrize("catalogs", [None, (frozenset({0}), frozenset({1}))])
    @pytest.mark.parametrize("epoch", [0, -1, 3])
    def test_an_epoch_outside_the_horizon_is_a_domain_error(self, catalogs, epoch):
        """Epoch 0 once checked the plan against epoch K's catalog."""
        inst = Instance(theta=0.0, horizon=Horizon.finite(2),
                        packages=(PackageSpec(0, 1, 0.5), PackageSpec(1, 1, 0.5)), per_epoch_packages=catalogs)
        with pytest.raises(DomainError, match=f"epoch {epoch} is outside 1..2"):
            evaluate_epoch((1,), inst, epoch=epoch)


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


# Every entry point that reads plan ids, as (where its message names the
# plan, a call on one epoch plan).  Each reads the plan's ids by one rule,
# plan_from_dict's.
ID_RULE_PACKAGES = tuple(PackageSpec(i, 1.0 + i, 0.5 + 0.1 * i) for i in range(4))
ID_RULE_FINITE = inst_of(0.75, 2, *ID_RULE_PACKAGES)
ID_RULE_INFINITE = inst_of(0.75, None, *ID_RULE_PACKAGES, infinite=True)
ID_RULE_ENTRY_POINTS = {
    "evaluate_epoch": ("epoch plan", lambda p: evaluate_epoch(p, ID_RULE_FINITE)),
    "evaluate_epoch(epoch=1)": ("epoch 1 plan", lambda p: evaluate_epoch(p, ID_RULE_FINITE, epoch=1)),
    "epoch_risk_ratio": ("epoch plan", lambda p: epoch_risk_ratio(p, ID_RULE_FINITE)),
    "evaluate_mission(finite)": ("epoch 1 plan", lambda p: evaluate_mission(MissionPlan.finite([p, ()]), ID_RULE_FINITE)),
    "evaluate_mission(stationary)": (
        "stationary plan", lambda p: evaluate_mission(MissionPlan.from_stationary(p), ID_RULE_INFINITE)),
    "evaluate_mission(stationary, finite horizon)": (
        "stationary plan", lambda p: evaluate_mission(MissionPlan.from_stationary(p), ID_RULE_FINITE)),
    "simulate_mission": ("epoch 1 plan", lambda p: simulate_mission(
        MissionPlan.finite([p, ()]), ID_RULE_FINITE, SimConfig(trials=16, seed=5))),
    # A MissionPlan reads its ids when it is made, naming the epoch.
    "plan_to_dict": ("epoch 1 plan", lambda p: plan_to_dict(MissionPlan.finite([p, ()]))),
    "plan_to_dict(stationary)": ("stationary plan", lambda p: plan_to_dict(MissionPlan.from_stationary(p))),
    "as_tuples": ("epoch 2 plan", lambda p: MissionPlan.finite([(), p]).as_tuples()),
    "TeamEpochPlan.of": ("agent 1 tour", lambda p: TeamEpochPlan.of([(0,), p])),
    "team_epoch_expectation": ("agent 0 tour", lambda p: team_epoch_expectation(TeamEpochPlan(tours=(p, ())), ID_RULE_FINITE)),
    "marginal_gain": ("agent 0 tour", lambda p: marginal_gain(
        TeamEpochPlan(tours=(p, ())), 1, ID_RULE_PACKAGES[0], [0.0, 0.5, 1.0], ID_RULE_FINITE)),
    # A document's plans are lists.
    "plan_from_dict": ("epoch 1 plan", lambda p: plan_from_dict(
        {"plans": [list(p) if isinstance(p, (tuple, np.ndarray)) else p, []]})),
}


class TestOnePlanIdRule:
    @pytest.mark.parametrize("entry", ID_RULE_ENTRY_POINTS)
    @pytest.mark.parametrize("bad_id", [2.7, 1.0, True, "1", None, 2**64, np.float64(2.0)],
                             ids=["2.7", "1.0", "True", "str", "None", "2**64", "np.float64"])
    def test_an_id_int64_cannot_hold_is_invalid(self, entry, bad_id):
        """No id is coerced: ``2.7`` once read as package 2, and ``True``,
        ``1.0`` and ``"1"`` as package 1."""
        where, call = ID_RULE_ENTRY_POINTS[entry]
        message = f"{where} id must be an integer in 0..{2**63 - 1}, got {bad_id!r}"
        with pytest.raises(InvalidPlanError, match=re.escape(message)):
            call((3, bad_id))

    @pytest.mark.parametrize("entry", ID_RULE_ENTRY_POINTS)
    @pytest.mark.parametrize("plan", [frozenset({1, 2}), {1: 2}, "12", b"12"], ids=["frozenset", "dict", "str", "bytes"])
    def test_a_plan_that_is_not_a_sequence_is_invalid(self, entry, plan):
        """A set has no order, and a string, bytes or dict would be read as
        characters, bytes or keys."""
        where, call = ID_RULE_ENTRY_POINTS[entry]
        with pytest.raises(InvalidPlanError, match=re.escape(f"{where} must be a list of ids, got {type(plan).__name__}")):
            call(plan)

    @pytest.mark.parametrize("entry", ID_RULE_ENTRY_POINTS)
    def test_valid_ids_in_any_form_give_bit_identical_results(self, entry):
        _, call = ID_RULE_ENTRY_POINTS[entry]
        expected = repr(call((3, 1)))
        for plan in ([3, 1], np.array([3, 1], dtype=np.int64), (np.int64(3), np.int32(1)),
                     np.array([3, 1], dtype=np.uint8), [np.uint64(3), 1]):
            assert repr(call(plan)) == expected

    @pytest.mark.parametrize("entry", [e for e in ID_RULE_ENTRY_POINTS if e != "plan_from_dict"])
    def test_a_2d_int64_plan_is_not_a_list_of_ids(self, entry):
        """Only a 1-D int64 array is taken as it is: ``[[0, 1]]`` was once
        written out as a plan of one id ``[0, 1]`` and raised numpy's
        IndexError when evaluated."""
        where, call = ID_RULE_ENTRY_POINTS[entry]
        with pytest.raises(InvalidPlanError, match=re.escape(f"{where} must be a list of ids, got ndarray")):
            call(np.array([[3, 1]], dtype=np.int64))
