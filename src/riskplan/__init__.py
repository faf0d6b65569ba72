"""Risk-aware package-delivery planning toolkit.

Computes provably optimal delivery plans for a failure-prone agent over
finite and infinite horizons, verifies them against brute-force, MDP, and
Monte Carlo oracles, and ships an experimental multi-agent team module
built on Poisson-binomial survival distributions.

The names below are loaded on first use (PEP 562): ``import riskplan``
imports no submodule, and ``riskplan.solve_finite`` imports
:mod:`riskplan.finite_solver` and returns that module's own object.  So a
command-line run loads only the modules its subcommand executes.
"""

import importlib

_EXPORTS = {
    "errors": (
        "AlreadyAssignedError",
        "DegenerateQuotientError",
        "DomainError",
        "EmptyPlanError",
        "FiniteHorizonError",
        "HorizonMismatchError",
        "InfiniteHorizonError",
        "InvalidInstanceError",
        "InvalidPlanError",
        "InvalidRangeError",
        "OverlappingToursError",
        "RiskPlanError",
        "ScaleLimitError",
        "ScaleLimitExceededError",
        "SearchSpaceTooLargeError",
        "TooManyEpochsError",
        "TooManyPackagesError",
        "TooManyTrialsError",
        "UnboundedSimulationError",
        "UnboundedValueError",
        "UnknownPackageIdError",
        "ValidationError",
    ),
    "expectation": (
        "EpochEvaluation",
        "MissionEvaluation",
        "epoch_risk_ratio",
        "evaluate_epoch",
        "evaluate_mission",
    ),
    "finite_solver": ("SolveReport", "solve_finite"),
    "infinite_solver": ("InfiniteSolveReport", "solve_infinite"),
    "mdp": ("MdpModel", "best_stationary_policy", "build_model", "evaluate_policy"),
    "model": (
        "MAX_EPOCHS",
        "UNBOUNDED",
        "Horizon",
        "Instance",
        "MissionPlan",
        "PackageSpec",
        "Violation",
        "ViolationCode",
        "distance_to_probability",
        "ensure_valid",
        "instance_from_dict",
        "instance_to_dict",
        "plan_from_dict",
        "plan_to_dict",
        "probability_to_distance",
        "reward_to_risk",
        "validate_instance",
    ),
    "multiagent": (
        "PoissonBinomial",
        "TeamEpochPlan",
        "TeamSolveReport",
        "greedy_rtpd",
        "marginal_gain",
        "poisson_binomial_dft",
        "poisson_binomial_enum",
        "poisson_quotient_difference",
        "simulate_team_mission",
        "team_epoch_expectation",
    ),
    "oracle_sim": ("SimConfig", "SimResult", "brute_force_finite", "simulate_mission"),
}

#: Exported name -> the submodule that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        # Also what lets ``from riskplan import cli`` import the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
