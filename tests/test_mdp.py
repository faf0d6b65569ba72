import math
import random
from types import SimpleNamespace

import pytest

from riskplan import (
    FiniteHorizonError,
    Horizon,
    Instance,
    PackageSpec,
    TooManyPackagesError,
    UnboundedValueError,
    best_stationary_policy,
    build_model,
    evaluate_epoch,
    evaluate_policy,
    reward_to_risk,
    solve_infinite,
)
from riskplan import mdp
from riskplan.mdp import action_from_bits, bits_from_action
from riskplan.model import canonical_sort_key

from conftest import make_instance


def inst_of(theta, *pkgs):
    return Instance(theta=theta, horizon=Horizon.infinite(), packages=tuple(pkgs))


def action_outcomes(model, action):
    """One action's transition row out of the alive state, built one
    package at a time: the reference that ``mdp.policy_values``'s array
    pass must match bit for bit.

    ``failure_probs[j]`` is the probability of reaching the failure state
    whose delivered prefix is the first ``j`` packages of ``ordered_ids``;
    that state pays the prefix reward minus theta.  ``success_prob`` and
    ``success_reward`` describe the full-success state that loops back to
    the alive state, and ``expected_epoch_reward`` is E_a, the one-epoch
    expected reward out of the alive state.
    """
    ordered = sorted((p for i, p in enumerate(model.instance.packages) if action >> i & 1),
                     key=canonical_sort_key)
    q = len(ordered)
    rhos = [p.leg_success for p in ordered]

    # psi[j] = probability of delivering the j-th package (1-based).
    psis = []
    rho_bar = 1.0
    for rho in rhos:
        psis.append(rho_bar * rho)
        rho_bar *= rho * rho

    # failure with exactly j packages delivered, j = 0..q
    failure_probs = []
    if q:
        failure_probs.append(1.0 - rhos[0])
        for j in range(1, q):
            failure_probs.append(psis[j - 1] * (1.0 - rhos[j - 1] * rhos[j]))
        failure_probs.append(psis[q - 1] * (1.0 - rhos[q - 1]))

    prefix_rewards = [0.0]
    acc = 0.0
    for p in ordered:
        acc += p.reward
        prefix_rewards.append(acc)

    # E_a: the success term first, then the failure terms j = 0..q.
    expected = rho_bar * prefix_rewards[q]
    for p, r in zip(failure_probs, prefix_rewards):
        expected += p * (r - model.instance.theta)
    return SimpleNamespace(
        ordered_ids=tuple(p.id for p in ordered),
        failure_probs=tuple(failure_probs),
        success_prob=rho_bar,
        success_reward=prefix_rewards[q],
        expected_epoch_reward=expected,
    )


class TestTransitionRows:
    def test_single_package_example(self):
        model = build_model(inst_of(1.0, PackageSpec(0, 1, 0.5)))
        out = action_outcomes(model, 0b1)
        assert out.failure_probs == (0.5, 0.25)
        assert out.success_prob == 0.25
        assert math.isclose(sum(out.failure_probs) + out.success_prob, 1.0, rel_tol=1e-12)

    def test_idle_action_loops_home(self):
        model = build_model(inst_of(1.0, PackageSpec(0, 1, 0.5)))
        out = action_outcomes(model, 0)
        assert out.failure_probs == ()
        assert out.success_prob == 1.0
        assert out.success_reward == 0.0

    def test_two_package_derived_example(self):
        model = build_model(inst_of(0.5, PackageSpec(0, 1, 0.9), PackageSpec(1, 1, 0.8)))
        out = action_outcomes(model, 0b11)
        assert out.ordered_ids == (0, 1)  # gamma order: 0.9 first
        assert math.isclose(out.failure_probs[0], 0.1, rel_tol=1e-12)
        assert math.isclose(out.failure_probs[1], 0.252, rel_tol=1e-12)
        assert math.isclose(out.failure_probs[2], 0.1296, rel_tol=1e-12)
        assert math.isclose(out.success_prob, 0.5184, rel_tol=1e-12)
        assert math.isclose(sum(out.failure_probs) + out.success_prob, 1.0, rel_tol=1e-12)

    def test_rows_are_distributions_on_random_instances(self):
        rng = random.Random(11)
        for _ in range(25):
            inst = make_instance(rng.randrange(2**31), n_max=6, infinite=True)
            model = build_model(inst)
            for action in model.actions():
                out = action_outcomes(model, action)
                assert math.isclose(
                    sum(out.failure_probs) + out.success_prob, 1.0, rel_tol=1e-12)
                assert all(p >= -1e-15 for p in out.failure_probs)

    def test_epoch_reward_matches_expectation_module(self):
        rng = random.Random(12)
        for _ in range(25):
            inst = make_instance(rng.randrange(2**31), n_max=6, infinite=True)
            model = build_model(inst)
            for action in model.actions():
                out = action_outcomes(model, action)
                direct = evaluate_epoch(out.ordered_ids, inst).expected_reward
                assert math.isclose(out.expected_epoch_reward, direct,
                                    rel_tol=1e-12, abs_tol=1e-12)


class TestPolicyEvaluation:
    def test_idle_value_zero(self):
        model = build_model(inst_of(1.0, PackageSpec(0, 1, 0.5)))
        assert evaluate_policy(model, 0) == 0.0

    def test_derived_single_package_value(self):
        # E_a = -0.1 + 0.09*9 + 0.81*10 = 8.81; V = 8.81/0.19
        model = build_model(inst_of(1.0, PackageSpec(0, 10, 0.9)))
        value = evaluate_policy(model, 0b1)
        assert math.isclose(value, 8.81 / 0.19, rel_tol=1e-10)

    def test_unbounded_value(self):
        model = build_model(inst_of(1.0, PackageSpec(0, 2, 1.0)))
        with pytest.raises(UnboundedValueError):
            evaluate_policy(model, 0b1)

    def test_riskless_zero_reward_action_is_zero(self):
        model = build_model(inst_of(1.0, PackageSpec(0, 0, 1.0)))
        assert evaluate_policy(model, 0b1) == 0.0

    def test_negative_value_policies_converge(self):
        model = build_model(inst_of(50.0, PackageSpec(0, 1, 0.5)))
        value = evaluate_policy(model, 0b1)
        assert value < 0


class TestBestStationaryPolicy:
    def test_idle_when_gamma_below_theta(self):
        model = build_model(inst_of(2.0, PackageSpec(0, 1, 0.5)))
        action, value = best_stationary_policy(model)
        assert action == 0
        assert value == 0.0

    def test_winner_is_max_gamma_singleton(self):
        rng = random.Random(13)
        for _ in range(30):
            inst = make_instance(rng.randrange(2**31), n_max=6, infinite=True)
            gammas = [reward_to_risk(p) for p in inst.packages]
            gamma_max = max(gammas)
            if gamma_max <= inst.theta + 1e-9 or math.isinf(gamma_max):
                continue
            model = build_model(inst)
            action, value = best_stationary_policy(model)
            best_pos = min(i for i, g in enumerate(gammas) if g == gamma_max)
            assert action == (1 << best_pos)
            report = solve_infinite(inst)
            assert math.isclose(value, report.total, rel_tol=1e-8, abs_tol=1e-8)

    def test_equal_gamma_singletons_tie(self):
        model = build_model(inst_of(0.2, PackageSpec(0, 2, 0.7), PackageSpec(1, 2, 0.7)))
        v0 = evaluate_policy(model, 0b01)
        v1 = evaluate_policy(model, 0b10)
        assert math.isclose(v0, v1, rel_tol=1e-12)

    def test_scale_limit(self):
        pkgs = tuple(PackageSpec(i, 1, 0.5) for i in range(17))
        with pytest.raises(TooManyPackagesError):
            build_model(inst_of(0.0, *pkgs))

    def test_finite_horizon_rejected(self):
        inst = Instance(theta=0.0, horizon=Horizon.finite(2),
                        packages=(PackageSpec(0, 1, 0.5),))
        with pytest.raises(FiniteHorizonError):
            build_model(inst)


class TestActionBits:
    def test_round_trip(self):
        assert action_from_bits("0101") == 0b1010
        assert bits_from_action(0b1010, 4) == "0101"
        for mask in range(16):
            assert action_from_bits(bits_from_action(mask, 4)) == mask

    def test_malformed(self):
        with pytest.raises(ValueError):
            action_from_bits("01x1")
        with pytest.raises(ValueError):
            action_from_bits("")


# --- array pass vs the per-action loop ----------------------------------------


def scalar_policy_value(model, action):
    """The per-action evaluation the array pass replaced, kept as its
    reference: the action's transition row, its closed form and a
    fixed-point loop in plain floats."""
    out = action_outcomes(model, action)
    rho_bar = out.success_prob
    e_a = out.expected_epoch_reward
    if rho_bar == 1.0:
        if out.success_reward > 0.0:
            raise UnboundedValueError(
                f"action {action:0{model.n}b} is riskless with positive reward")
        return 0.0
    closed = e_a / (1.0 - rho_bar)
    stop = 1e-12 * (1.0 - rho_bar)
    v = 0.0
    for _ in range(mdp._MAX_STEPS):
        nxt = e_a + rho_bar * v
        if abs(nxt - v) < stop:
            break
        v = nxt
    else:
        raise ArithmeticError("policy value iteration failed to converge")
    if abs(closed - nxt) > mdp._AGREEMENT_RTOL * max(1.0, abs(closed)):
        raise ArithmeticError(
            f"closed-form ({closed!r}) and iterative ({nxt!r}) "
            f"policy values disagree for action {action:#x}")
    return closed


def scalar_best_stationary(model):
    """Every action in mask order; the first strictly greater value wins."""
    best_action, best_value = 0, scalar_policy_value(model, 0)
    for action in range(1, 1 << model.n):
        value = scalar_policy_value(model, action)
        if value > best_value:
            best_action, best_value = action, value
    return best_action, best_value


def outcome(fn, *args):
    """A result as comparable bits: float values by hex, errors by type
    and message."""
    try:
        result = fn(*args)
    except (ArithmeticError, UnboundedValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        return result[0], result[1].hex()
    if isinstance(result, mdp.PolicyValues):
        return "PolicyValues"
    return result.hex()


def random_mdp_instance(rng):
    """Small infinite instance mixing exact ties, rho in {0, 1}, zero
    rewards and theta = 0."""
    n = rng.randint(1, 7)
    pkgs = []
    for pkg_id in rng.sample(range(30), n):
        reward = rng.choice([0.0, 1.5, 3.75, rng.uniform(0, 10), rng.uniform(0, 10)])
        rho = rng.choice([0.0, 1.0, 0.5, 0.25, rng.random(), rng.random(), rng.random()])
        pkgs.append(PackageSpec(pkg_id, reward, rho))
    if n >= 2 and rng.random() < 0.3:
        pkgs[-1] = PackageSpec(pkgs[-1].id, pkgs[0].reward, pkgs[0].leg_success)
    theta = rng.choice([0.0, 0.5, rng.uniform(0, 5)])
    return inst_of(theta, *pkgs)


class TestPolicyArrayPass:
    # 0 steps every action in arrays to the end; 10^9 steps every action
    # in plain floats; the default mixes both.
    @pytest.mark.parametrize("tail", [0, mdp._SCALAR_TAIL, 10**9])
    def test_matches_scalar_loop_on_random_instances(self, tail, monkeypatch):
        monkeypatch.setattr(mdp, "_SCALAR_TAIL", tail)
        rng = random.Random(4100 + tail % 1000)
        for trial in range(300 if tail == mdp._SCALAR_TAIL else 60):
            model = build_model(random_mdp_instance(rng))
            assert outcome(best_stationary_policy, model) == outcome(scalar_best_stationary, model)
            expected = [outcome(scalar_policy_value, model, a) for a in model.actions()]
            failures = [e for e in expected if e[0] == "ArithmeticError"]
            if failures:  # the batch raises its first action's failure
                assert outcome(mdp.policy_values, model) == failures[0]
            else:
                values = mdp.policy_values(model)
                assert [outcome(values.value, a) for a in model.actions()] == expected
            if trial % 10 == 0:  # the one-action batch of evaluate_policy
                for action in model.actions():
                    assert outcome(evaluate_policy, model, action) == expected[action]

    @pytest.mark.parametrize("inst", [
        inst_of(0.2, PackageSpec(0, 2, 0.7), PackageSpec(1, 2, 0.7), PackageSpec(2, 2, 0.7)),
        inst_of(0.5, PackageSpec(0, 3, 0.0), PackageSpec(1, 0, 1.0), PackageSpec(2, 1, 0.5)),
        inst_of(0.5, PackageSpec(0, 0, 0.6), PackageSpec(1, 0, 1.0), PackageSpec(2, 0, 0.0)),
        inst_of(0.0, PackageSpec(0, 0, 0.3), PackageSpec(1, 4, 0.9), PackageSpec(2, 1.5, 0.5)),
        # gamma = 1 exactly three ways, a riskless package and a zero reward
        inst_of(0.5, PackageSpec(3, 1.5, 0.5), PackageSpec(1, 1.5, 0.5), PackageSpec(2, 3.75, 0.25),
                PackageSpec(4, 2, 1.0), PackageSpec(0, 0, 0.8)),
    ], ids=["duplicates", "rho-0-and-1", "zero-rewards", "theta-0", "tied-gammas"])
    def test_matches_scalar_loop_on_constructed_cases(self, inst):
        model = build_model(inst)
        assert outcome(best_stationary_policy, model) == outcome(scalar_best_stationary, model)
        values = mdp.policy_values(model)
        assert ([outcome(values.value, a) for a in model.actions()]
                == [outcome(scalar_policy_value, model, a) for a in model.actions()])

    def test_rows_match_action_outcomes(self):
        rng = random.Random(4200)
        for _ in range(40):
            model = build_model(random_mdp_instance(rng))
            values = mdp.policy_values(model)
            for action in model.actions():
                out = action_outcomes(model, action)
                assert values.success_prob[action].hex() == out.success_prob.hex()
                assert float(values.epoch_reward[action]).hex() == out.expected_epoch_reward.hex()

    def test_requested_actions_keep_their_order(self):
        model = build_model(make_instance(4300, n=5, infinite=True))
        everything = mdp.policy_values(model)
        some = mdp.policy_values(model, [9, 0, 31, 9])
        assert some.actions.tolist() == [9, 0, 31, 9]
        assert some.closed.tolist() == everything.closed[[9, 0, 31, 9]].tolist()

    def test_out_of_range_action(self):
        model = build_model(inst_of(1.0, PackageSpec(0, 1, 0.5)))
        with pytest.raises(ValueError, match="out of range"):
            evaluate_policy(model, 2)

    @pytest.mark.parametrize("riskless_first", [True, False])
    def test_lowest_action_error_wins(self, riskless_first, monkeypatch):
        # Every iterated action disagrees; the riskless positive package
        # makes one action unbounded.  Its mask decides which error is
        # raised, as in the per-action loop.
        monkeypatch.setattr(mdp, "_AGREEMENT_RTOL", -1.0)
        risky, riskless = PackageSpec(0, 2, 0.5), PackageSpec(1, 1, 1.0)
        pkgs = (riskless, risky) if riskless_first else (risky, riskless)
        model = build_model(inst_of(0.5, *pkgs))
        expected = outcome(scalar_best_stationary, model)
        assert expected[0] == ("UnboundedValueError" if riskless_first else "ArithmeticError")
        assert outcome(best_stationary_policy, model) == expected

    @pytest.mark.parametrize("tail", [0, 10**9])
    def test_non_convergence_keeps_its_message(self, tail, monkeypatch):
        monkeypatch.setattr(mdp, "_MAX_STEPS", 3)
        monkeypatch.setattr(mdp, "_SCALAR_TAIL", tail)
        model = build_model(inst_of(0.5, PackageSpec(0, 2, 0.5), PackageSpec(1, 1, 1.0)))
        expected = outcome(scalar_best_stationary, model)
        assert expected == ("ArithmeticError", "policy value iteration failed to converge")
        assert outcome(best_stationary_policy, model) == expected
