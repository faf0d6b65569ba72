"""Domain types for risk-aware package-delivery planning.

A mission runs over epochs.  At the start of every epoch a catalog of
packages is available at the depot; the agent executes an ordered sequence
of delivery cycles (depot -> location -> depot).  Each leg of a cycle
succeeds independently with the package's per-leg probability ``rho``, so a
full cycle survives with probability ``rho**2``.  Losing the agent costs
``theta`` and ends the mission.

This module owns:

* the immutable problem/plan types and their validation,
* the reward-to-risk ratio ``gamma = r*rho / (1 - rho**2)``,
* the probability <-> distance conversion (``rho = phi**d``),
* the canonical execution order used by every planner,
* the JSON dict schema for instances and plans.

An instance stores its catalog as three columns (``ids`` int64, ``rewards``
and ``rhos`` float64) in a :class:`PackageTable`; :class:`PackageSpec`
objects are made from the columns only where code asks for one package at
a time.  Per-epoch catalogs are sorted, duplicate-free int64 arrays, one
per epoch.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import enum
import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    HorizonMismatchError,
    InvalidInstanceError,
    InvalidPlanError,
    TooManyEpochsError,
)

__all__ = [
    "PackageSpec",
    "PackageTable",
    "PackageRecords",
    "Horizon",
    "MAX_EPOCHS",
    "Instance",
    "EpochPlan",
    "MissionPlan",
    "UNBOUNDED",
    "ViolationCode",
    "Violation",
    "validate_instance",
    "ensure_valid",
    "check_epoch_limit",
    "reward_to_risk",
    "gamma_values",
    "canonical_sort_key",
    "canonical_order",
    "probability_to_distance",
    "distance_to_probability",
    "instance_to_dict",
    "instance_from_dict",
    "plan_to_dict",
    "plan_from_dict",
]

#: An epoch plan is an ordered sequence of package ids.  Hand-built plans
#: are plain tuples; the finite solver hands back int64 arrays, which
#: iterate identically: prefix views into one shared sorted-id array when
#: every epoch has the whole catalog.
EpochPlan = Sequence[int]


class _UnboundedType:
    """Singleton marker for a diverging (riskless, positive-reward) value."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNBOUNDED"


UNBOUNDED = _UnboundedType()


@dataclass(frozen=True, slots=True)
class PackageSpec:
    """One deliverable package.

    ``leg_success`` is the per-leg traversal probability; the round trip
    succeeds with ``leg_success**2``.  Slotted: catalogs can run to
    millions of packages.
    """

    id: int
    reward: float
    leg_success: float


@dataclass(frozen=True)
class Horizon:
    """Mission length: a positive epoch count, or unbounded."""

    epochs: Optional[int] = None

    @classmethod
    def finite(cls, k: int) -> "Horizon":
        """A ``k``-epoch horizon.

        Integral numbers become ``int`` (``2.0`` is 2 epochs); anything
        else, such as ``2.7`` or ``True``, is kept as given so that
        :func:`validate_instance` rejects it instead of truncating it.
        """
        if k is None:
            raise TypeError("a finite horizon needs an epoch count")
        if (isinstance(k, (int, np.integer)) and not isinstance(k, bool)
                or isinstance(k, float) and k.is_integer()):
            k = int(k)
        return cls(epochs=k)

    @classmethod
    def infinite(cls) -> "Horizon":
        return cls(epochs=None)

    @property
    def is_finite(self) -> bool:
        return self.epochs is not None


#: Largest package id; ids are stored as int64.
MAX_PACKAGE_ID = 2**63 - 1


def _is_int64(x) -> bool:
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and -MAX_PACKAGE_ID - 1 <= x <= MAX_PACKAGE_ID)


def _listed_ids(raw: Sequence) -> tuple[Optional[np.ndarray], list]:
    """The ids a catalog or plan lists, as an int64 array in their order,
    and the items of ``raw`` that fail :func:`_is_int64` (the array is None
    if any do)."""
    if isinstance(raw, np.ndarray) and raw.dtype == np.int64 and raw.ndim == 1:  # as docscan reads them
        return raw, []
    # Parsed JSON holds exact ints: a C-speed type scan, and numpy raises
    # OverflowError for an id beyond int64.
    if isinstance(raw, list) and set(map(type, raw)) <= {int}:
        try:
            return np.array(raw, dtype=np.int64), []
        except OverflowError:
            pass
    bad = [x for x in raw if not _is_int64(x)]
    return (None if bad else np.array([int(x) for x in raw], dtype=np.int64)), bad


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``ids`` sorted, with repeats dropped, as a read-only array."""
    # Sort and compare neighbours: np.unique hashes on numpy 2.x, which
    # costs more on many small catalogs.
    ids = np.sort(ids)
    if ids.size > 1:
        keep = ids[1:] != ids[:-1]
        if not keep.all():
            ids = ids[np.concatenate(([True], keep))]
    ids.flags.writeable = False
    return ids


def _catalog_arrays(catalogs: Iterable[Iterable]) -> tuple[np.ndarray, ...]:
    """Each epoch's catalog as a sorted, duplicate-free, read-only int64
    array; :class:`InvalidInstanceError` names every id the array cannot
    hold."""
    out, bad = [], []
    for h, raw in enumerate(catalogs, start=1):
        ids, rejected = _listed_ids(raw if isinstance(raw, (list, np.ndarray)) else list(raw))
        bad += [Violation(ViolationCode.INVALID_ID,
                          f"epoch {h} catalog id must be an integer in 0..{MAX_PACKAGE_ID}, got {x!r}")
                for x in rejected]
        if not bad:
            out.append(_sorted_unique(ids))
    if bad:
        raise InvalidInstanceError(bad)
    return tuple(out)


def _is_real(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        return False
    try:
        float(x)
    except OverflowError:  # an int beyond the float range
        return False
    return True


def _column(raw: Sequence, dtype, fast_types: set, accepts) -> tuple[Optional[np.ndarray], list[int]]:
    """``raw`` as an array of ``dtype``, or None and the rejected positions."""
    # Parsed JSON holds exact ints and floats: one C-speed type scan lets
    # numpy convert the whole column at once.
    if set(map(type, raw)) <= fast_types:
        try:
            return np.array(raw, dtype=dtype), []
        except OverflowError:
            pass
    rejected = [i for i, x in enumerate(raw) if not accepts(x)]
    if rejected:
        return None, rejected
    return np.array(raw, dtype=dtype), []


class PackageTable(SequenceABC):
    """A package catalog stored as three columns, read as a sequence.

    ``ids`` (int64), ``rewards`` and ``rhos`` (float64, the per-leg success
    probabilities) are parallel, read-only arrays.  Indexing and iteration
    yield :class:`PackageSpec` objects, made once from the columns on the
    first such access; ``len`` and the columns never make them.

    The constructor takes arrays as they are (the generator's, say) and
    marks them read-only; :meth:`from_columns` checks raw values first.
    """

    def __init__(self, ids, rewards, rhos):
        columns = (np.asarray(ids, dtype=np.int64), np.asarray(rewards, dtype=np.float64),
                   np.asarray(rhos, dtype=np.float64))
        if not all(c.ndim == 1 and c.size == columns[0].size for c in columns):
            raise ValueError("package columns must be one-dimensional and of equal length")
        for c in columns:
            c.flags.writeable = False
        self.ids, self.rewards, self.rhos = columns

    @classmethod
    def from_columns(cls, ids: Sequence, rewards: Sequence, rhos: Sequence) -> "PackageTable":
        """A table from parallel sequences of scalars, such as parsed JSON.

        Raises :class:`InvalidInstanceError` naming every value the columns
        cannot hold exactly: an id that is not an integer in int64 range
        (booleans are not integers here), or a reward or probability that
        is not a real number.  Range checks within the columns, such as
        negative ids, are left to :func:`validate_instance`.
        """
        id_col, bad_ids = _column(ids, np.int64, {int}, _is_int64)
        reward_col, bad_rewards = _column(rewards, np.float64, {int, float}, _is_real)
        rho_col, bad_rhos = _column(rhos, np.float64, {int, float}, _is_real)
        if bad_ids or bad_rewards or bad_rhos:
            bad_ids, bad_rewards, bad_rhos = set(bad_ids), set(bad_rewards), set(bad_rhos)
            out = []
            for i in sorted(bad_ids | bad_rewards | bad_rhos):
                if i in bad_ids:
                    out.append(Violation(
                        ViolationCode.INVALID_ID,
                        f"package id must be an integer in 0..{MAX_PACKAGE_ID}, got {ids[i]!r}"))
                    continue
                if i in bad_rewards:
                    out.append(_bad_reward(ids[i], rewards[i]))
                if i in bad_rhos:
                    out.append(_bad_rho(ids[i], rhos[i]))
            raise InvalidInstanceError(out)
        return cls(id_col, reward_col, rho_col)

    @cached_property
    def _id_order(self) -> np.ndarray:
        return np.argsort(self.ids, kind="stable")

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        """The row of each of ``ids`` (integers) by one binary search over
        the id column, or -1 for an id the table does not hold."""
        try:
            wanted = np.array(ids, dtype=np.int64)
            held = None
        except OverflowError:  # no table holds an id beyond int64
            held = np.array([_is_int64(i) for i in ids], dtype=bool)
            wanted = np.array([i if ok else 0 for i, ok in zip(ids, held.tolist())], dtype=np.int64)
        if not self.ids.size:
            return np.full(wanted.size, -1, dtype=np.intp)
        order = self._id_order
        at = order[np.minimum(np.searchsorted(self.ids, wanted, sorter=order), order.size - 1)]
        found = self.ids[at] == wanted
        if held is not None:
            found &= held
        return np.where(found, at, -1)

    @cached_property
    def _specs(self) -> tuple[PackageSpec, ...]:
        return tuple(map(PackageSpec, self.ids.tolist(), self.rewards.tolist(), self.rhos.tolist()))

    def __len__(self) -> int:
        return self.ids.size

    def __getitem__(self, index):
        return self._specs[index]

    def __iter__(self):
        return iter(self._specs)

    def __eq__(self, other):
        if isinstance(other, PackageTable):
            return (np.array_equal(self.ids, other.ids) and np.array_equal(self.rewards, other.rewards)
                    and np.array_equal(self.rhos, other.rhos))
        if isinstance(other, (tuple, list)):
            return self._specs == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"PackageTable(ids={self.ids!r}, rewards={self.rewards!r}, rhos={self.rhos!r})"


@dataclass(frozen=True, eq=False)
class Instance:
    """A full planning problem.

    ``packages`` may be given as any sequence of :class:`PackageSpec`; it
    is stored as a :class:`PackageTable`, whose columns are the source of
    truth for every solver.  Passing another instance's table shares its
    columns without a copy.

    ``per_epoch_packages`` (optional) restricts each epoch to a subset of
    the catalog; when present its length must equal the finite horizon.
    It may be given as any iterable of iterables of ids (frozensets, say)
    and is stored as a tuple of sorted, duplicate-free, read-only int64
    arrays, one per epoch; repeated ids collapse.

    Instances compare by content.
    """

    theta: float
    horizon: Horizon
    packages: PackageTable
    per_epoch_packages: Optional[tuple[np.ndarray, ...]] = None

    def __post_init__(self):
        if not isinstance(self.packages, PackageTable):
            specs = tuple(self.packages)
            table = PackageTable.from_columns([p.id for p in specs], [p.reward for p in specs],
                                              [p.leg_success for p in specs])
            object.__setattr__(self, "packages", table)
        if self.per_epoch_packages is not None:
            object.__setattr__(self, "per_epoch_packages", _catalog_arrays(self.per_epoch_packages))

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        mine, theirs = self.per_epoch_packages, other.per_epoch_packages
        if mine is None or theirs is None:
            same_catalogs = mine is theirs
        else:
            same_catalogs = len(mine) == len(theirs) and all(map(np.array_equal, mine, theirs))
        return (self.theta == other.theta and self.horizon == other.horizon
                and same_catalogs and self.packages == other.packages)

    def __hash__(self):
        return hash((self.theta, self.horizon, len(self.packages)))

    def catalog(self, epoch: int) -> np.ndarray:
        """Ids deliverable in 1-based ``epoch``, as a sorted int64 array."""
        if self.per_epoch_packages is None:
            return np.sort(self.packages.ids)
        return self.per_epoch_packages[epoch - 1]

    def allowed_ids(self, epoch: int) -> frozenset[int]:
        """:meth:`catalog` as a set; no library path uses it, but the
        benchmark's tracer (``perfbench/tracing.py``) does."""
        return frozenset(self.catalog(epoch).tolist())

    def in_catalog(self, epoch: int, ids: np.ndarray) -> np.ndarray:
        """Whether each of ``ids`` (int64) is deliverable in 1-based
        ``epoch``: :meth:`catalog` as one binary search."""
        catalog = self.catalog(epoch)
        if not catalog.size:
            return np.zeros(len(ids), dtype=bool)
        return catalog[np.minimum(np.searchsorted(catalog, ids), catalog.size - 1)] == ids

    @cached_property
    def _violations(self) -> tuple["Violation", ...]:
        return tuple(_find_violations(self))


@dataclass(frozen=True, eq=False)
class MissionPlan:
    """Delivery plan for a whole mission.

    Exactly one of ``plans`` (one epoch plan per finite epoch) or
    ``stationary`` (one epoch plan repeated forever) is set.  Equality is
    intentionally disabled; compare via :meth:`as_tuples`.
    """

    plans: Optional[tuple[EpochPlan, ...]] = None
    stationary: Optional[EpochPlan] = None

    def __post_init__(self):
        if (self.plans is None) == (self.stationary is None):
            raise ValueError("MissionPlan needs exactly one of plans/stationary")

    @classmethod
    def finite(cls, plans: Iterable[EpochPlan]) -> "MissionPlan":
        return cls(plans=tuple(plans), stationary=None)

    @classmethod
    def from_stationary(cls, plan: EpochPlan) -> "MissionPlan":
        return cls(plans=None, stationary=plan)

    @property
    def is_stationary(self) -> bool:
        return self.stationary is not None

    def as_tuples(self):
        """Canonical pure-tuple form, suitable for comparison."""
        if self.stationary is not None:
            return ("stationary", tuple(int(i) for i in self.stationary))
        return ("plans", tuple(tuple(int(i) for i in p) for p in self.plans))


class ViolationCode(str, enum.Enum):
    NEGATIVE_REWARD = "negative_reward"
    PROBABILITY_OUT_OF_RANGE = "probability_out_of_range"
    DUPLICATE_ID = "duplicate_id"
    HORIZON_MISMATCH = "horizon_mismatch"
    UNKNOWN_PACKAGE_ID = "unknown_package_id"
    NEGATIVE_THETA = "negative_theta"
    INVALID_ID = "invalid_id"
    MALFORMED_DOCUMENT = "malformed_document"
    REWARD_OVERFLOW = "reward_overflow"


@dataclass(frozen=True)
class Violation:
    code: ViolationCode
    message: str

    def __str__(self):
        return f"{self.code.value}: {self.message}"


def _bad_reward(pkg_id, reward) -> Violation:
    return Violation(ViolationCode.NEGATIVE_REWARD,
                     f"package {pkg_id}: reward must be a finite non-negative real, got {reward!r}")


def _bad_rho(pkg_id, rho) -> Violation:
    return Violation(ViolationCode.PROBABILITY_OUT_OF_RANGE,
                     f"package {pkg_id}: leg_success must lie in [0, 1], got {rho!r}")


def _package_violations(ids: np.ndarray, rewards: np.ndarray, rhos: np.ndarray) -> list[Violation]:
    """Per-package violations in catalog order, one vectorized pass.

    Per package the checks run in this order: a negative id (which skips
    the rest), an id seen earlier in the catalog, the reward, the
    probability.
    """
    valid_id = ids >= 0
    bad_reward = valid_id & ~(np.isfinite(rewards) & (rewards >= 0))
    bad_rho = valid_id & ~((rhos >= 0) & (rhos <= 1))  # False for nan
    # Later occurrences of a valid id: a stable sort keeps catalog order
    # within each run of equal ids, so all but a run's first are repeats.
    valid_pos = np.flatnonzero(valid_id)
    by_id = valid_pos[np.argsort(ids[valid_pos], kind="stable")]
    repeats = by_id[1:][ids[by_id[1:]] == ids[by_id[:-1]]]

    # (position, rank of the check, violation), sorted into catalog order
    found = [(i, 0, Violation(ViolationCode.INVALID_ID, f"package id must be a non-negative integer, got {int(ids[i])!r}"))
             for i in np.flatnonzero(~valid_id).tolist()]
    found += [(i, 1, Violation(ViolationCode.DUPLICATE_ID, f"package id {int(ids[i])} appears more than once"))
              for i in repeats.tolist()]
    found += [(i, 2, _bad_reward(int(ids[i]), float(rewards[i]))) for i in np.flatnonzero(bad_reward).tolist()]
    found += [(i, 3, _bad_rho(int(ids[i]), float(rhos[i]))) for i in np.flatnonzero(bad_rho).tolist()]
    found.sort(key=operator.itemgetter(0, 1))
    return [violation for _, _, violation in found]


def validate_instance(instance: Instance) -> list[Violation]:
    """Check every type invariant; return the complete violation list.

    An empty list means the instance is valid.  Use :func:`ensure_valid`
    to raise instead.  The result is cached on the (immutable) instance,
    so the CLI, solvers and evaluators can each validate for free.  Values
    the package columns cannot hold at all are rejected earlier, when the
    instance is built (see :meth:`PackageTable.from_columns`).
    """
    return list(instance._violations)


def _find_violations(instance: Instance) -> list[Violation]:
    out: list[Violation] = []

    theta = instance.theta
    if not (isinstance(theta, (int, float)) and math.isfinite(theta) and theta >= 0):
        out.append(Violation(ViolationCode.NEGATIVE_THETA, f"theta must be a finite non-negative real, got {theta!r}"))

    horizon = instance.horizon
    epochs = horizon.epochs
    counted = horizon.is_finite and isinstance(epochs, int) and not isinstance(epochs, bool) and epochs >= 1
    if horizon.is_finite and not counted:
        out.append(Violation(ViolationCode.HORIZON_MISMATCH, f"finite horizon must be a positive integer, got {epochs!r}"))

    table = instance.packages
    out.extend(_package_violations(table.ids, table.rewards, table.rhos))
    out.extend(_reward_overflow(table.rewards, epochs if counted else 1))

    pep = instance.per_epoch_packages
    if pep is not None:
        if not horizon.is_finite:
            out.append(Violation(ViolationCode.HORIZON_MISMATCH, "per_epoch_packages requires a finite horizon"))
        elif len(pep) != epochs:
            out.append(Violation(
                ViolationCode.HORIZON_MISMATCH,
                f"per_epoch_packages has {len(pep)} entries but horizon is {epochs}"))
        out.extend(_unknown_catalog_ids(pep, table.ids[table.ids >= 0]))

    return out


def _reward_overflow(rewards: np.ndarray, epochs: int) -> list[Violation]:
    """A violation if the valid rewards summed over ``epochs`` epochs are
    not a finite double.  ``V_h <= sum(r) + V_{h+1}``, so that sum bounds
    every value of a finite horizon."""
    with np.errstate(over="ignore"):
        total = float(rewards[np.isfinite(rewards) & (rewards >= 0)].sum())
    try:
        bound = total * epochs
    except OverflowError:  # an epoch count beyond the float range
        bound = math.inf if total else 0.0
    if math.isfinite(bound):
        return []
    return [Violation(ViolationCode.REWARD_OVERFLOW,
                      f"package rewards sum to {total!r} per epoch, which over {epochs} epoch(s) "
                      f"is beyond the double range")]


def _unknown_catalog_ids(catalogs: tuple[np.ndarray, ...], known: np.ndarray) -> list[Violation]:
    """Catalog ids that name no package, by epoch and then ascending id,
    from one membership test over every catalog."""
    listed = np.concatenate(catalogs) if catalogs else np.empty(0, dtype=np.int64)
    unknown = np.flatnonzero(~np.isin(listed, known))
    if not unknown.size:
        return []
    # Epoch h's entries start at ends[h - 1]; each catalog is sorted.
    ends = np.cumsum([c.size for c in catalogs])
    epochs = np.searchsorted(ends, unknown, side="right") + 1
    return [Violation(ViolationCode.UNKNOWN_PACKAGE_ID, f"epoch {h} references unknown package id {pkg_id}")
            for h, pkg_id in zip(epochs.tolist(), listed[unknown].tolist())]


def ensure_valid(instance: Instance) -> Instance:
    """Return ``instance`` unchanged, or raise with all violations."""
    violations = validate_instance(instance)
    if violations:
        raise InvalidInstanceError(violations)
    return instance


#: Longest finite horizon accepted by the solver and by the oracles that
#: keep per-epoch state (brute force, team greedy, simulation).  Each keeps
#: O(K) state, so a larger K is refused before any of it is allocated.
MAX_EPOCHS = 1_000_000


def check_epoch_limit(instance: Instance) -> None:
    """Raise :class:`TooManyEpochsError` if the finite horizon of a valid
    ``instance`` is longer than :data:`MAX_EPOCHS`."""
    epochs = instance.horizon.epochs
    if epochs is not None and epochs > MAX_EPOCHS:
        raise TooManyEpochsError(
            f"horizon of {epochs:,} epochs exceeds the limit of {MAX_EPOCHS:,} epochs")


def reward_to_risk(package: PackageSpec) -> float:
    """Reward-to-risk ratio ``gamma = r*rho / (1 - rho**2)``.

    The numerator is the expected delivery reward of the cycle, the
    denominator the probability of losing the agent during it.  Riskless
    positive-reward packages (rho = 1, r > 0) return ``math.inf``; zero
    reward or a certain-failure leg (rho = 0) returns 0.
    """
    r, rho = package.reward, package.leg_success
    if rho == 1.0:
        return math.inf if r > 0 else 0.0
    if r == 0.0 or rho == 0.0:
        return 0.0
    return r * rho / (1.0 - rho * rho)


def gamma_values(rewards: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Vectorized :func:`reward_to_risk` over parallel arrays."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = rewards * rhos / (1.0 - rhos * rhos)
    return np.where(rhos == 1.0, np.where(rewards > 0, np.inf, 0.0), raw)


def canonical_sort_key(package: PackageSpec) -> tuple:
    """Sort key yielding the canonical execution order.

    Riskless positive-reward packages go first (descending reward, then
    ascending id, since they contribute pure reward and no risk); all
    others follow in non-increasing reward-to-risk order with ties broken
    by ascending id.
    """
    gamma = reward_to_risk(package)
    if math.isinf(gamma):
        return (0, -package.reward, package.id)
    return (1, -gamma, package.id)


def canonical_order(ids: np.ndarray, rewards: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """The permutation that puts parallel columns in canonical order: the
    order of :func:`canonical_sort_key`, by one ``lexsort``."""
    riskless = np.isinf(gammas)
    # lexsort uses the last key as primary.
    return np.lexsort((ids, np.where(riskless, -rewards, -gammas), np.where(riskless, 0, 1)))


def probability_to_distance(rho: float, phi: float) -> float:
    """Distance whose traversal succeeds with probability ``rho``.

    ``phi`` is the per-unit-distance success probability, so ``rho =
    phi**d`` defines ``d = log(rho)/log(phi)`` (non-negative: both logs
    share a sign).  :func:`distance_to_probability` is the exact inverse.
    """
    if not (0.0 < phi < 1.0):
        raise DomainError(f"phi must lie strictly inside (0, 1), got {phi!r}")
    if rho == 0.0:
        raise DomainError("rho = 0 corresponds to an infinite distance")
    if not (0.0 < rho <= 1.0):
        raise DomainError(f"rho must lie in (0, 1], got {rho!r}")
    return math.log(rho) / math.log(phi) + 0.0  # +0.0 normalizes -0.0


def distance_to_probability(distance: float, phi: float) -> float:
    """Traversal success probability of ``distance`` units, ``phi**d``."""
    if not (0.0 < phi < 1.0):
        raise DomainError(f"phi must lie strictly inside (0, 1), got {phi!r}")
    if not distance >= 0:  # NaN too
        raise DomainError(f"distance must be non-negative, got {distance!r}")
    return phi ** distance


# --- JSON dict schema -------------------------------------------------------
#
# Instance: {"theta": number,
#            "horizon": {"finite": K} | "infinite",
#            "packages": [{"id": int, "reward": number, "rho": number}, ...],
#            "per_epoch_packages": [[int, ...], ...]}   (optional)
# Plan:     {"plans": [[id, ...], ...]} | {"stationary": [id, ...]}


class PackageRecords(SequenceABC):
    """The ``packages`` list of an instance document, over a table's columns.

    Items are ``{"id", "reward", "rho"}`` dicts made on access, so building
    a document makes no object per package.  ``cli.dump_json`` writes the
    list straight from the columns, and :func:`instance_from_dict` takes
    the columns back without a copy.
    """

    __slots__ = ("table",)

    def __init__(self, table: PackageTable):
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        t = self.table
        return {"id": int(t.ids[index]), "reward": float(t.rewards[index]), "rho": float(t.rhos[index])}

    def __iter__(self):
        t = self.table
        for pkg_id, reward, rho in zip(t.ids.tolist(), t.rewards.tolist(), t.rhos.tolist()):
            yield {"id": pkg_id, "reward": reward, "rho": rho}

    def __eq__(self, other):
        if isinstance(other, (PackageRecords, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def instance_to_dict(instance: Instance) -> dict:
    """The instance document; ``packages`` is a read-only
    :class:`PackageRecords` sequence (``list(...)`` of it gives plain dicts)."""
    doc: dict = {
        "theta": instance.theta,
        "horizon": {"finite": instance.horizon.epochs} if instance.horizon.is_finite else "infinite",
        "packages": PackageRecords(instance.packages),
    }
    if instance.per_epoch_packages is not None:
        doc["per_epoch_packages"] = [ids.tolist() for ids in instance.per_epoch_packages]
    return doc


def instance_from_dict(doc: dict) -> Instance:
    try:
        raw_horizon = doc["horizon"]
        if raw_horizon == "infinite":
            horizon = Horizon.infinite()
        else:
            horizon = Horizon.finite(raw_horizon["finite"])
        raw_packages = doc["packages"]
        if isinstance(raw_packages, PackageRecords):
            packages = raw_packages.table
        else:
            packages = PackageTable.from_columns([p["id"] for p in raw_packages],
                                                 [p["reward"] for p in raw_packages],
                                                 [p["rho"] for p in raw_packages])
        theta = doc["theta"]
        if not _is_real(theta):  # the rule for ``reward``: no bools, no strings
            raise TypeError(f"theta must be a real number, got {theta!r}")
        # Instance turns the catalogs into arrays; their ids follow the package-id rule.
        return Instance(theta=float(theta), horizon=horizon, packages=packages,
                        per_epoch_packages=doc.get("per_epoch_packages"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInstanceError([Violation(ViolationCode.MALFORMED_DOCUMENT, f"malformed instance document: {exc}")]) from exc


def _id_list(epoch: EpochPlan) -> list[int]:
    if isinstance(epoch, np.ndarray) and epoch.dtype == np.int64:  # the solver's plans
        return epoch.tolist()
    return [int(i) for i in epoch]


def plan_to_dict(plan: MissionPlan) -> dict:
    if plan.is_stationary:
        return {"stationary": _id_list(plan.stationary)}
    return {"plans": [_id_list(epoch) for epoch in plan.plans]}


def plan_from_dict(doc: dict) -> MissionPlan:
    """A plan from its document; ids follow the package-id rule."""
    try:
        if "stationary" in doc:
            return MissionPlan.from_stationary(_plan_ids(doc["stationary"], "stationary plan"))
        if "plans" in doc:
            return MissionPlan.finite(_plan_ids(epoch, f"epoch {h} plan")
                                      for h, epoch in enumerate(doc["plans"], start=1))
    except TypeError as exc:
        raise InvalidPlanError(f"malformed plan document: {exc}") from exc
    raise HorizonMismatchError("plan document needs a 'plans' or 'stationary' key")


def _plan_ids(raw: Sequence, where: str) -> tuple[int, ...]:
    ids, bad = _listed_ids(raw)
    if bad:
        raise InvalidPlanError(f"{where} id must be an integer in 0..{MAX_PACKAGE_ID}, got {bad[0]!r}")
    return tuple(ids.tolist())
