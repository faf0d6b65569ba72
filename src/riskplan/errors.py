"""Exception hierarchy shared by every riskplan module.

Two broad families matter to callers:

* ``ValidationError`` subclasses — the input is malformed or inconsistent
  (bad instance, bad plan, bad argument domain).  The CLI maps these to
  exit code 1.
* ``ScaleLimitError`` subclasses — the input is well-formed but exceeds a
  documented enumeration/simulation limit.  The CLI maps these to exit
  code 2.
"""

from __future__ import annotations


class RiskPlanError(Exception):
    """Base class for all riskplan errors."""


class ValidationError(RiskPlanError):
    """Malformed or inconsistent input."""


class ScaleLimitError(RiskPlanError):
    """Input exceeds a documented enumeration or simulation limit."""


class InvalidInstanceError(ValidationError):
    """An instance failed validation; carries the full violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid instance: {lines}")


class DomainError(ValidationError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class UnknownPackageIdError(ValidationError):
    """A plan references a package id not available in that epoch."""


class InvalidPlanError(ValidationError):
    """A plan violates a structural invariant (e.g. repeated id in an epoch)."""


class HorizonMismatchError(ValidationError):
    """Plan shape does not match the instance horizon."""


class EmptyPlanError(ValidationError):
    """Operation requires a nonempty epoch plan."""


class InfiniteHorizonError(ValidationError):
    """Finite-horizon operation invoked on an infinite-horizon instance."""


class FiniteHorizonError(ValidationError):
    """Infinite-horizon operation invoked on a finite-horizon instance."""


class InvalidRangeError(ValidationError):
    """Generator range is empty or outside the type bounds."""


class OverlappingToursError(ValidationError):
    """Team tours must be pairwise disjoint in package ids."""


class DegenerateQuotientError(ValidationError):
    """Poisson quotient difference requires two distinct probabilities."""


class AlreadyAssignedError(ValidationError):
    """Package is already assigned to a tour in the team plan."""


class UnboundedValueError(RiskPlanError):
    """A policy/plan value diverges (riskless positive-reward loop)."""


class UnboundedSimulationError(ScaleLimitError):
    """Stationary simulation would never terminate (survival probability 1)."""


class TooManyPackagesError(ScaleLimitError):
    """Package count exceeds the 2^n action-enumeration limit."""


class TooManyTrialsError(ScaleLimitError):
    """Trial count exceeds the exact subset-enumeration limit."""


class TooManyEpochsError(ScaleLimitError):
    """Finite horizon exceeds the epoch limit, ``model.MAX_EPOCHS``."""


class SearchSpaceTooLargeError(ScaleLimitError):
    """Brute-force search space exceeds the enumeration budget."""


class ScaleLimitExceededError(ScaleLimitError):
    """Team solver invoked beyond its experimental scale."""
