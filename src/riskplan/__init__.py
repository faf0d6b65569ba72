"""Risk-aware package-delivery planning toolkit.

Computes provably optimal delivery plans for a failure-prone agent over
finite and infinite horizons, verifies them against brute-force, MDP, and
Monte Carlo oracles, and ships an experimental multi-agent team module
built on Poisson-binomial survival distributions.
"""

from .errors import (
    AlreadyAssignedError,
    DegenerateQuotientError,
    DomainError,
    EmptyPlanError,
    FiniteHorizonError,
    HorizonMismatchError,
    InfiniteHorizonError,
    InvalidInstanceError,
    InvalidPlanError,
    InvalidRangeError,
    MissingPerEpochCatalogError,
    OverlappingToursError,
    RiskPlanError,
    ScaleLimitError,
    ScaleLimitExceededError,
    SearchSpaceTooLargeError,
    TooManyEpochsError,
    TooManyPackagesError,
    TooManyTrialsError,
    UnboundedSimulationError,
    UnboundedValueError,
    UnknownPackageIdError,
    ValidationError,
)
from .expectation import (
    EpochEvaluation,
    MissionEvaluation,
    epoch_risk_ratio,
    evaluate_epoch,
    evaluate_mission,
)
from .finite_solver import MAX_EPOCHS, SolveReport, solve_finite, solve_finite_heterogeneous
from .infinite_solver import InfiniteSolveReport, solve_infinite
from .mdp import MdpModel, best_stationary_policy, build_model, evaluate_policy
from .model import (
    UNBOUNDED,
    Horizon,
    Instance,
    MissionPlan,
    PackageSpec,
    Violation,
    ViolationCode,
    canonical_delivery_order,
    distance_to_probability,
    ensure_valid,
    instance_from_dict,
    instance_to_dict,
    plan_from_dict,
    plan_to_dict,
    probability_to_distance,
    reward_to_risk,
    validate_instance,
)
from .multiagent import (
    PoissonBinomial,
    TeamEpochPlan,
    TeamSolveReport,
    greedy_rtpd,
    marginal_gain,
    poisson_binomial_dft,
    poisson_binomial_enum,
    poisson_quotient_difference,
    simulate_team_mission,
    team_epoch_expectation,
)
from .oracle_sim import SimConfig, SimResult, brute_force_finite, simulate_mission

__version__ = "0.1.0"
