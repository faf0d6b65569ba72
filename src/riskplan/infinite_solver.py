"""O(n) optimal solver for the infinite-horizon problem.

The optimal infinite-horizon plan is stationary and delivers only the
package with the maximal reward-to-risk ratio, every epoch, whenever that
ratio strictly exceeds the replacement cost ``theta``; its value is the
closed form ``gamma_max - theta``.  When ``gamma_max <= theta`` the empty
plan (value 0) is optimal; at exact equality either choice has value 0 and
the empty plan is returned for consistency with the finite solver's
exclusion rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import FiniteHorizonError
from .model import (
    UNBOUNDED,
    Instance,
    _UnboundedType,
    ensure_valid,
    gamma_values,
)

__all__ = ["InfiniteSolveReport", "solve_infinite"]


@dataclass(frozen=True)
class InfiniteSolveReport:
    """Solution of an infinite-horizon instance.

    ``chosen`` is the id of the package delivered every epoch, or ``None``
    for the empty stationary plan.  ``total`` is ``gamma_max - theta`` when
    a package is chosen, 0.0 otherwise, and :data:`UNBOUNDED` when the
    chosen package is riskless with positive reward.
    """

    chosen: Optional[int]
    gamma_max: float
    total: Union[float, _UnboundedType]


def solve_infinite(instance: Instance) -> InfiniteSolveReport:
    """Single pass over the catalog; ties on gamma go to the lowest id."""
    ensure_valid(instance)
    if instance.horizon.is_finite:
        raise FiniteHorizonError("use solve_finite for finite horizons")

    table = instance.packages
    if table.ids.size == 0:
        return InfiniteSolveReport(chosen=None, gamma_max=0.0, total=0.0)

    gammas = gamma_values(table.rewards, table.rhos)
    gamma_max = float(np.max(gammas))
    if gamma_max <= instance.theta:
        return InfiniteSolveReport(chosen=None, gamma_max=gamma_max, total=0.0)

    maximizers = table.ids[gammas == gamma_max]
    chosen = int(np.min(maximizers))
    if math.isinf(gamma_max):
        return InfiniteSolveReport(chosen=chosen, gamma_max=gamma_max, total=UNBOUNDED)
    return InfiniteSolveReport(chosen=chosen, gamma_max=gamma_max, total=gamma_max - instance.theta)
