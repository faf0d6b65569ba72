import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskplan import (
    MAX_EPOCHS,
    DomainError,
    Horizon,
    Instance,
    InvalidInstanceError,
    MissionPlan,
    PackageSpec,
    SimConfig,
    ViolationCode,
    brute_force_finite,
    canonical_delivery_order,
    distance_to_probability,
    ensure_valid,
    greedy_rtpd,
    instance_from_dict,
    instance_to_dict,
    plan_from_dict,
    plan_to_dict,
    probability_to_distance,
    reward_to_risk,
    validate_instance,
)
from riskplan import model, multiagent, oracle_sim
from riskplan.errors import TooManyEpochsError
from riskplan.model import PackageTable, gamma_values


def one_package_instance(r=1.0, rho=0.5, theta=1.0, k=1):
    return Instance(
        theta=theta,
        horizon=Horizon.finite(k),
        packages=(PackageSpec(0, r, rho),),
    )


class TestValidation:
    def test_valid_instance_passes(self):
        inst = one_package_instance()
        assert validate_instance(inst) == []
        assert ensure_valid(inst) is inst

    def test_probability_out_of_range(self):
        inst = one_package_instance(rho=1.2)
        codes = {v.code for v in validate_instance(inst)}
        assert codes == {ViolationCode.PROBABILITY_OUT_OF_RANGE}

    def test_negative_reward(self):
        inst = one_package_instance(r=-1.0)
        codes = {v.code for v in validate_instance(inst)}
        assert codes == {ViolationCode.NEGATIVE_REWARD}

    def test_negative_theta(self):
        inst = one_package_instance(theta=-0.5)
        codes = {v.code for v in validate_instance(inst)}
        assert codes == {ViolationCode.NEGATIVE_THETA}

    def test_duplicate_ids(self):
        inst = Instance(
            theta=0.0,
            horizon=Horizon.finite(1),
            packages=(PackageSpec(3, 1, 0.5), PackageSpec(3, 2, 0.6)),
        )
        codes = {v.code for v in validate_instance(inst)}
        assert ViolationCode.DUPLICATE_ID in codes

    def test_per_epoch_length_mismatch(self):
        inst = Instance(
            theta=0.0,
            horizon=Horizon.finite(3),
            packages=(PackageSpec(0, 1, 0.5),),
            per_epoch_packages=(frozenset({0}), frozenset({0})),
        )
        codes = {v.code for v in validate_instance(inst)}
        assert ViolationCode.HORIZON_MISMATCH in codes

    def test_per_epoch_unknown_id(self):
        inst = Instance(
            theta=0.0,
            horizon=Horizon.finite(1),
            packages=(PackageSpec(0, 1, 0.5),),
            per_epoch_packages=(frozenset({0, 7}),),
        )
        codes = {v.code for v in validate_instance(inst)}
        assert ViolationCode.UNKNOWN_PACKAGE_ID in codes

    def test_infinite_horizon_forbids_per_epoch(self):
        inst = Instance(
            theta=0.0,
            horizon=Horizon.infinite(),
            packages=(PackageSpec(0, 1, 0.5),),
            per_epoch_packages=(frozenset({0}),),
        )
        codes = {v.code for v in validate_instance(inst)}
        assert ViolationCode.HORIZON_MISMATCH in codes

    def test_ensure_valid_raises_with_all_violations(self):
        inst = Instance(
            theta=-1.0,
            horizon=Horizon.finite(1),
            packages=(PackageSpec(0, -2.0, 1.5),),
        )
        with pytest.raises(InvalidInstanceError) as err:
            ensure_valid(inst)
        assert len(err.value.violations) == 3

    def test_violation_list_is_complete(self):
        inst = one_package_instance(rho=2.0, r=-1.0)
        codes = [v.code for v in validate_instance(inst)]
        assert ViolationCode.NEGATIVE_REWARD in codes
        assert ViolationCode.PROBABILITY_OUT_OF_RANGE in codes


def reference_package_violations(instance):
    """The per-package walk that validate_instance vectorized, kept as its reference."""
    out, seen = [], set()
    for pkg in instance.packages:
        if pkg.id < 0:
            out.append((ViolationCode.INVALID_ID, f"package id must be a non-negative integer, got {pkg.id!r}"))
            continue
        if pkg.id in seen:
            out.append((ViolationCode.DUPLICATE_ID, f"package id {pkg.id} appears more than once"))
        seen.add(pkg.id)
        r = pkg.reward
        if not (math.isfinite(r) and r >= 0):
            out.append((ViolationCode.NEGATIVE_REWARD,
                        f"package {pkg.id}: reward must be a finite non-negative real, got {r!r}"))
        rho = pkg.leg_success
        if not (math.isfinite(rho) and 0.0 <= rho <= 1.0):
            out.append((ViolationCode.PROBABILITY_OUT_OF_RANGE,
                        f"package {pkg.id}: leg_success must lie in [0, 1], got {rho!r}"))
    return out


class TestVectorizedValidation:
    @settings(deadline=None, max_examples=200)
    @given(rows=st.lists(st.tuples(
        st.integers(-3, 6),
        st.one_of(st.floats(-2, 10), st.sampled_from([float("nan"), float("inf"), -0.0])),
        st.one_of(st.floats(-0.5, 1.5), st.sampled_from([float("nan"), float("-inf"), 0.0, 1.0])),
    ), max_size=12))
    def test_matches_per_package_walk(self, rows):
        inst = Instance(theta=1.0, horizon=Horizon.finite(1),
                        packages=tuple(PackageSpec(*row) for row in rows))
        got = [(v.code, v.message) for v in validate_instance(inst)]
        assert got == reference_package_violations(inst)

    def test_large_catalog_reports_each_package(self):
        n = 60_000
        rewards = np.ones(n)
        rewards[[7, 59_999]] = -1.0
        ids = np.arange(n)
        ids[30_000] = 5
        inst = Instance(theta=1.0, horizon=Horizon.finite(1),
                        packages=PackageTable(ids, rewards, np.full(n, 0.5)))
        assert [str(v) for v in validate_instance(inst)] == [
            "negative_reward: package 7: reward must be a finite non-negative real, got -1.0",
            "duplicate_id: package id 5 appears more than once",
            "negative_reward: package 59999: reward must be a finite non-negative real, got -1.0",
        ]

    def test_unknown_ids_per_epoch_in_order(self):
        inst = Instance(
            theta=0.0,
            horizon=Horizon.finite(2),
            packages=(PackageSpec(0, 1, 0.5), PackageSpec(-1, 1, 0.5)),
            per_epoch_packages=(frozenset({9, 0, 4}), frozenset({-1})),
        )
        assert [str(v) for v in validate_instance(inst)] == [
            "invalid_id: package id must be a non-negative integer, got -1",
            "unknown_package_id: epoch 1 references unknown package id 4",
            "unknown_package_id: epoch 1 references unknown package id 9",
            "unknown_package_id: epoch 2 references unknown package id -1",
        ]


class TestColumns:
    def test_instance_owns_read_only_columns(self):
        inst = Instance(theta=1.0, horizon=Horizon.finite(1),
                        packages=(PackageSpec(4, 1.5, 0.5), PackageSpec(2, 3, 0.25)))
        ids, rewards, rhos = inst._arrays()
        assert ids.dtype == np.int64 and rewards.dtype == rhos.dtype == np.float64
        assert ids.tolist() == [4, 2] and rewards.tolist() == [1.5, 3.0] and rhos.tolist() == [0.5, 0.25]
        assert inst._arrays()[0] is ids
        with pytest.raises(ValueError):
            rewards[0] = 2.0
        assert inst.packages[1] == PackageSpec(2, 3.0, 0.25)
        assert inst.package_by_id(2) is inst.package_by_id(2)
        assert len(inst.packages) == 2 and list(inst.packages[1:]) == [PackageSpec(2, 3.0, 0.25)]

    def test_sharing_a_table_shares_the_columns(self):
        inst = one_package_instance()
        other = Instance(theta=2.0, horizon=Horizon.infinite(), packages=inst.packages)
        assert other._arrays()[1] is inst._arrays()[1]

    def test_content_equality(self):
        a = one_package_instance(r=3.0)
        b = Instance(theta=1.0, horizon=Horizon.finite(1), packages=[PackageSpec(0, 3, 0.5)])
        assert a == b and hash(a) == hash(b)
        assert a != one_package_instance(r=3.5)
        assert a.packages == (PackageSpec(0, 3.0, 0.5),)

    @pytest.mark.parametrize("spec, code", [
        (PackageSpec(2**63, 1.0, 0.5), ViolationCode.INVALID_ID),
        (PackageSpec(True, 1.0, 0.5), ViolationCode.INVALID_ID),
        (PackageSpec(1.0, 1.0, 0.5), ViolationCode.INVALID_ID),
        (PackageSpec("7", 1.0, 0.5), ViolationCode.INVALID_ID),
        (PackageSpec(0, "x", 0.5), ViolationCode.NEGATIVE_REWARD),
        (PackageSpec(0, 10**400, 0.5), ViolationCode.NEGATIVE_REWARD),
        (PackageSpec(0, 1.0, None), ViolationCode.PROBABILITY_OUT_OF_RANGE),
        (PackageSpec(0, 1.0, False), ViolationCode.PROBABILITY_OUT_OF_RANGE),
    ])
    def test_values_the_columns_cannot_hold_are_rejected(self, spec, code):
        with pytest.raises(InvalidInstanceError) as err:
            Instance(theta=1.0, horizon=Horizon.finite(1), packages=(PackageSpec(5, 1.0, 0.5), spec))
        assert [v.code for v in err.value.violations] == [code]

    def test_numpy_scalars_are_accepted(self):
        inst = Instance(theta=1.0, horizon=Horizon.finite(1),
                        packages=(PackageSpec(np.int64(3), np.float32(0.5), np.float64(0.25)),))
        assert inst.packages[0] == PackageSpec(3, 0.5, 0.25)

    @pytest.mark.parametrize("k, epochs", [(2.0, 2), (np.int64(3), 3), (2.7, 2.7), (True, True)])
    def test_horizon_keeps_non_integral_values_for_validation(self, k, epochs):
        horizon = Horizon.finite(k)
        assert horizon.epochs == epochs and type(horizon.epochs) is type(epochs)
        codes = [v.code for v in validate_instance(Instance(theta=1.0, horizon=horizon, packages=()))]
        assert codes == ([] if isinstance(epochs, int) and not isinstance(epochs, bool)
                         else [ViolationCode.HORIZON_MISMATCH])


class TestRewardToRisk:
    def test_half_probability(self):
        assert math.isclose(reward_to_risk(PackageSpec(0, 1, 0.5)), 2 / 3, rel_tol=1e-12)

    def test_zero_reward(self):
        assert reward_to_risk(PackageSpec(0, 0, 0.9)) == 0.0

    def test_derived_value(self):
        # r=10, rho=0.9: 9/0.19, recomputed independently
        assert math.isclose(reward_to_risk(PackageSpec(0, 10, 0.9)), 9 / 0.19, rel_tol=1e-12)

    def test_riskless_positive_reward_is_infinite(self):
        assert reward_to_risk(PackageSpec(0, 1, 1.0)) == math.inf

    def test_riskless_zero_reward_is_zero(self):
        assert reward_to_risk(PackageSpec(0, 0, 1.0)) == 0.0

    def test_certain_failure_is_zero(self):
        assert reward_to_risk(PackageSpec(0, 5, 0.0)) == 0.0

    @settings(deadline=None)
    @given(
        r1=st.floats(0, 100),
        r2=st.floats(0, 100),
        rho=st.floats(0, 0.999),
    )
    def test_monotone_in_reward(self, r1, r2, rho):
        lo, hi = sorted([r1, r2])
        g_lo = reward_to_risk(PackageSpec(0, lo, rho))
        g_hi = reward_to_risk(PackageSpec(0, hi, rho))
        assert g_hi >= g_lo

    @settings(deadline=None)
    @given(
        r=st.floats(0.001, 100),
        p1=st.floats(0, 0.999),
        p2=st.floats(0, 0.999),
    )
    def test_monotone_in_probability(self, r, p1, p2):
        # a real gap keeps the strict claim clear of 1-ulp rounding noise
        assume(abs(p1 - p2) > 1e-9)
        lo, hi = sorted([p1, p2])
        g_lo = reward_to_risk(PackageSpec(0, r, lo))
        g_hi = reward_to_risk(PackageSpec(0, r, hi))
        assert g_hi > g_lo

    def test_vectorized_matches_scalar(self, rng):
        rewards, rhos = [], []
        for _ in range(200):
            rewards.append(rng.uniform(0, 10))
            rhos.append(rng.choice([0.0, 1.0, rng.random()]))
        rewards += [0.0, 5.0, 0.0]
        rhos += [1.0, 1.0, 0.0]
        vec = gamma_values(np.array(rewards), np.array(rhos))
        for r, rho, g in zip(rewards, rhos, vec):
            assert g == reward_to_risk(PackageSpec(0, r, rho))


class TestCanonicalOrder:
    def test_riskless_first_then_gamma_desc_ties_by_id(self):
        pkgs = [
            PackageSpec(0, 1, 0.6),    # gamma = 0.9375
            PackageSpec(1, 10, 0.9),   # gamma ~ 47.37
            PackageSpec(2, 3, 1.0),    # riskless
            PackageSpec(3, 7, 1.0),    # riskless, higher reward
            PackageSpec(4, 1, 0.6),    # tie with id 0
        ]
        ordered = canonical_delivery_order(pkgs)
        assert [p.id for p in ordered] == [3, 2, 1, 0, 4]


class TestConversion:
    def test_log_base_identity(self):
        assert probability_to_distance(0.9, 0.9) == 1.0

    def test_certain_traversal_is_zero_distance(self):
        assert probability_to_distance(1.0, 0.5) == 0.0

    def test_known_value(self):
        assert math.isclose(
            probability_to_distance(0.7, 0.9),
            math.log(0.7) / math.log(0.9),
            rel_tol=1e-15,
        )

    def test_round_trip(self):
        d = probability_to_distance(0.7, 0.9)
        assert math.isclose(distance_to_probability(d, 0.9), 0.7, rel_tol=0, abs_tol=1e-12)

    def test_rho_zero_is_domain_error(self):
        with pytest.raises(DomainError):
            probability_to_distance(0.0, 0.5)

    @pytest.mark.parametrize("phi", [0.0, 1.0, -0.1, 1.5])
    def test_phi_domain(self, phi):
        with pytest.raises(DomainError):
            probability_to_distance(0.5, phi)

    @settings(deadline=None)
    @given(
        rho=st.floats(1e-6, 1.0),
        phi=st.floats(0.01, 0.99),
    )
    def test_round_trip_property(self, rho, phi):
        back = distance_to_probability(probability_to_distance(rho, phi), phi)
        assert abs(back - rho) <= 1e-12


class TestJsonSchema:
    def test_instance_round_trip(self):
        inst = Instance(
            theta=1.25,
            horizon=Horizon.finite(2),
            packages=(PackageSpec(0, 1.5, 0.5), PackageSpec(2, 3.0, 0.9)),
            per_epoch_packages=(frozenset({0}), frozenset({0, 2})),
        )
        doc = instance_to_dict(inst)
        assert doc["horizon"] == {"finite": 2}
        assert doc["packages"][0] == {"id": 0, "reward": 1.5, "rho": 0.5}
        assert instance_from_dict(doc) == inst

    def test_infinite_horizon_round_trip(self):
        inst = Instance(theta=0.0, horizon=Horizon.infinite(), packages=())
        doc = instance_to_dict(inst)
        assert doc["horizon"] == "infinite"
        assert instance_from_dict(doc) == inst

    def test_plan_round_trip(self):
        plan = MissionPlan.finite([(0, 1), ()])
        doc = plan_to_dict(plan)
        assert doc == {"plans": [[0, 1], []]}
        assert plan_from_dict(doc).as_tuples() == plan.as_tuples()

        stat = MissionPlan.from_stationary((3,))
        doc = plan_to_dict(stat)
        assert doc == {"stationary": [3]}
        assert plan_from_dict(doc).as_tuples() == stat.as_tuples()

    def test_malformed_instance_document(self):
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"theta": 1.0, "packages": []})


class TestMissionPlanType:
    def test_needs_exactly_one_variant(self):
        with pytest.raises(ValueError):
            MissionPlan(plans=None, stationary=None)
        with pytest.raises(ValueError):
            MissionPlan(plans=((0,),), stationary=(0,))


# The oracles that keep per-epoch state, with the first step each takes after
# the epoch check.  A stand-in for that step makes a missing check fail the
# test instead of looping over 10^9 epochs.  tests/test_finite_solver.py
# checks the solver's call of the same cap.
EPOCH_LIMITED = {
    "brute_force_finite": (brute_force_finite, oracle_sim, "_sequence_count"),
    "greedy_rtpd": (lambda inst: greedy_rtpd(inst, 2, SimConfig(trials=50, seed=1)),
                    multiagent, "_greedy_epoch_plan"),
}


@pytest.mark.parametrize("entry", sorted(EPOCH_LIMITED))
class TestEpochLimit:
    def test_limit_is_checked_before_allocating(self, entry, monkeypatch):
        call, module, next_step = EPOCH_LIMITED[entry]

        def past_the_check(*args, **kwargs):
            raise AssertionError(f"{entry} went past the epoch limit")

        monkeypatch.setattr(module, next_step, past_the_check)
        # An empty catalog: brute force's search space stays 1 however long
        # the horizon is, so only the epoch limit stops it.
        inst = Instance(theta=1.0, horizon=Horizon.finite(10**9), packages=())
        tracemalloc.start()
        try:
            with pytest.raises(TooManyEpochsError, match=f"limit of {MAX_EPOCHS:,} epochs"):
                call(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limit_is_the_shared_cap(self, entry, monkeypatch):
        call, _, _ = EPOCH_LIMITED[entry]
        monkeypatch.setattr(model, "MAX_EPOCHS", 2)
        with pytest.raises(TooManyEpochsError, match="limit of 2 epochs"):
            call(one_package_instance(k=3))
        call(one_package_instance(k=2))
