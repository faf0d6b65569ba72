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

#: An epoch plan is an ordered sequence of package ids, each an integer int64
#: holds (no bools, floats or strings; :func:`_plan_ids` raises InvalidPlanError
#: else).  A :class:`MissionPlan` holds its plans as int64 arrays.
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


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    """``ids`` sorted, with repeats dropped, as a read-only array: ``ids``
    itself where it is read-only and already strictly increasing, as the
    catalogs that riskplan's document reader makes are."""
    if not ids.flags.writeable and (ids[1:] > ids[:-1]).all():
        return ids
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
        if isinstance(raw, np.ndarray) and raw.dtype == np.int64 and raw.ndim == 1:  # as docscan reads them
            ids, rejected = raw, []
        else:
            raw = raw if isinstance(raw, (list, np.ndarray)) else list(raw)
            ids, rejected = _column(raw, np.int64, {int}, _is_int64)
        bad += [Violation(ViolationCode.INVALID_ID,
                          f"epoch {h} catalog id must be an integer in 0..{MAX_PACKAGE_ID}, got {raw[i]!r}")
                for i in rejected]
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


def _check_id_list(raw, where: str):
    """``raw``, if it is a list of ids (or an int64 array, as docscan reads
    them), else TypeError: not a string or an object that would iterate as
    characters or keys."""
    if not (isinstance(raw, list) or isinstance(raw, np.ndarray) and raw.dtype == np.int64):
        raise TypeError(f"{where} must be a list of ids, got {type(raw).__name__}")
    return raw


def _search(sorted_ids: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``ids`` is, or would go, in ascending ``sorted_ids``
    (the first of equal ids), by one binary search, and whether it is there."""
    at = np.searchsorted(sorted_ids, ids)
    if not sorted_ids.size:
        return at, np.zeros(at.shape, dtype=bool)
    return at, sorted_ids[np.minimum(at, sorted_ids.size - 1)] == ids


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
    def _id_index(self) -> tuple[Optional[np.ndarray], np.ndarray]:
        """Rows in ascending id order (equal ids in row order) and the ids in
        that order, read-only.  Strictly increasing ids, as ``gen`` writes
        them, are their own index: no row order (None) and the id column,
        so that a position in the index is a row."""
        if (self.ids[1:] > self.ids[:-1]).all():
            return None, self.ids
        order = np.argsort(self.ids, kind="stable")
        ids = self.ids[order]
        order.flags.writeable = ids.flags.writeable = False
        return order, ids

    def rows(self, ids: Sequence[int]) -> np.ndarray:
        """The row of each of ``ids`` (integers; a repeated id's first) by one
        binary search of the id index, or -1 for an id the table does not hold."""
        try:
            wanted = np.asarray(ids, dtype=np.int64)
            held = None
        except OverflowError:  # no table holds an id beyond int64
            held = np.array([_is_int64(i) for i in ids], dtype=bool)
            wanted = np.array([i if ok else 0 for i, ok in zip(ids, held.tolist())], dtype=np.int64)
        order, sorted_ids = self._id_index
        at, found = _search(sorted_ids, wanted)
        if held is not None:
            found &= held
        out = np.full(wanted.size, -1, dtype=np.intp)
        out[found] = at[found] if order is None else order[at[found]]
        return out

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
    arrays, one per epoch; repeated ids collapse.  A read-only, strictly
    increasing int64 array is kept as it is, without a copy.

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

    def check_epoch(self, epoch: int) -> None:
        """:class:`DomainError` unless 1-based ``epoch`` is in 1..K (any positive epoch if K is infinite)."""
        k = self.horizon.epochs
        if epoch < 1 or k is not None and epoch > k:
            raise DomainError(f"epoch {epoch} is outside 1..{'infinity' if k is None else k}")

    def catalog(self, epoch: int) -> np.ndarray:
        """Ids deliverable in 1-based ``epoch``, as a sorted, read-only int64
        array: without per-epoch catalogs, the id index's, shared by every
        epoch, which is the id column itself where the ids strictly increase."""
        self.check_epoch(epoch)
        if self.per_epoch_packages is None:
            return self.packages._id_index[1]
        return self.per_epoch_packages[epoch - 1]

    def allowed_ids(self, epoch: int) -> frozenset[int]:
        """:meth:`catalog` as a set; no library path uses it, but the
        benchmark's tracer (``perfbench/tracing.py``) does."""
        return frozenset(self.catalog(epoch).tolist())

    def in_catalog(self, epoch: int, ids: np.ndarray) -> np.ndarray:
        """Whether each of ``ids`` (int64) is deliverable in 1-based
        ``epoch``: :meth:`catalog` as one binary search."""
        return _search(self.catalog(epoch), ids)[1]

    @cached_property
    def _violations(self) -> tuple["Violation", ...]:
        return tuple(_find_violations(self))


class MissionPlan:
    """Delivery plan for a whole mission.

    Exactly one of ``plans`` (one epoch plan per finite epoch) or
    ``stationary`` (one epoch plan repeated forever) is set, and its ids
    are read (:func:`_plan_ids`) when the plan is made.  Epoch ``h``'s plan
    (0-based) is the first ``sizes[h]`` ids of ``arrays[sources[h]]``
    (:meth:`prefix_columns`): the solver's epochs share one array per run
    of equal catalogs (:meth:`prefixes`), given plans one per run of equal
    neighbours.  :attr:`plans` makes the epoch plans each time it is read.
    Equality is identity; compare via :meth:`as_tuples`.
    """

    __slots__ = ("_arrays", "_sources", "_sizes")

    def __init__(self, plans: Optional[Iterable[EpochPlan]] = None, stationary: Optional[EpochPlan] = None):
        if (plans is None) == (stationary is None):
            raise ValueError("MissionPlan needs exactly one of plans/stationary")
        if stationary is not None:  # the one form without sources
            self._arrays, self._sources, self._sizes = (_plan_ids(stationary, "stationary plan"),), None, None
            return
        arrays, sources, sizes = [], [], []
        for h, raw in enumerate(plans, start=1):
            ids = _plan_ids(raw, f"epoch {h} plan")
            if not (sizes and ids.size == sizes[-1] and ids.tobytes() == arrays[-1].tobytes()):
                arrays.append(ids)  # else the epoch shares the array of the epoch before
            sources.append(len(arrays) - 1)
            sizes.append(ids.size)
        self._arrays, self._sources, self._sizes = tuple(arrays), np.array(sources, np.intp), np.array(sizes, np.int64)

    @classmethod
    def finite(cls, plans: Iterable[EpochPlan]) -> "MissionPlan":
        return cls(plans=plans)

    @classmethod
    def prefixes(cls, arrays: Iterable[np.ndarray], sources: np.ndarray, sizes: np.ndarray) -> "MissionPlan":
        """The finite plan whose epoch ``h`` runs the first ``sizes[h]`` ids
        of ``arrays[sources[h]]``, int64 arrays as the solver makes them."""
        plan = cls.__new__(cls)
        plan._arrays, plan._sources, plan._sizes = tuple(arrays), sources, sizes
        return plan

    @classmethod
    def from_stationary(cls, plan: EpochPlan) -> "MissionPlan":
        return cls(stationary=plan)

    @property
    def stationary(self) -> Optional[np.ndarray]:
        return self._arrays[0] if self.is_stationary else None

    @property
    def is_stationary(self) -> bool:
        return self._sources is None

    @property
    def plans(self) -> Optional[tuple[np.ndarray, ...]]:
        """A view of each epoch's plan, or None for a stationary plan."""
        if self.is_stationary:
            return None
        return tuple(self._arrays[s][:q] for s, q in zip(self._sources.tolist(), self._sizes.tolist()))

    def prefix_columns(self) -> tuple[tuple[np.ndarray, ...], Optional[np.ndarray], Optional[np.ndarray]]:
        """``(arrays, sources, sizes)``: epoch ``h``'s plan is
        ``arrays[sources[h]][:sizes[h]]``; a stationary plan's is ``((ids,), None, None)``."""
        return self._arrays, self._sources, self._sizes

    def runs(self) -> list[tuple[int, int]]:
        """A finite plan's runs of epochs with one (source, size), each as
        its first epoch and the epoch after its last (0-based)."""
        starts = np.flatnonzero(np.diff(self._sources, prepend=-1) | np.diff(self._sizes, prepend=-1)).tolist()
        return list(zip(starts, [*starts[1:], len(self._sizes)]))

    def __repr__(self):
        return f"MissionPlan(plans={self.plans!r}, stationary={self.stationary!r})"

    def as_tuples(self):
        """Canonical pure-tuple form, suitable for comparison."""
        if self.is_stationary:
            return ("stationary", tuple(self.stationary.tolist()))
        return ("plans", tuple(tuple(p.tolist()) for p in self.plans))


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


def _package_violations(table: PackageTable) -> list[Violation]:
    """Per-package violations in catalog order, one vectorized pass.

    Per package the checks run in this order: a negative id (which skips
    the rest), an id seen earlier in the catalog, the reward, the
    probability.
    """
    ids, rewards, rhos = table.ids, table.rewards, table.rhos
    valid_id = ids >= 0
    bad_reward = valid_id & ~(np.isfinite(rewards) & (rewards >= 0))
    bad_rho = valid_id & ~((rhos >= 0) & (rhos <= 1))  # False for nan
    # Later occurrences of a valid id: the id index keeps catalog order
    # within each run of equal ids, so all but a run's first are repeats.
    order, sorted_ids = table._id_index
    repeats = np.flatnonzero((sorted_ids[1:] == sorted_ids[:-1]) & (sorted_ids[1:] >= 0)) + 1
    if order is not None:
        repeats = order[repeats]

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
    if not (_is_real(theta) and math.isfinite(theta) and theta >= 0):  # instance_from_dict's rule
        out.append(Violation(ViolationCode.NEGATIVE_THETA, f"theta must be a finite non-negative real, got {theta!r}"))

    horizon = instance.horizon
    epochs = horizon.epochs
    counted = horizon.is_finite and isinstance(epochs, int) and not isinstance(epochs, bool) and epochs >= 1
    if horizon.is_finite and not counted:
        out.append(Violation(ViolationCode.HORIZON_MISMATCH, f"finite horizon must be a positive integer, got {epochs!r}"))

    table = instance.packages
    out.extend(_package_violations(table))
    out.extend(_reward_overflow(table.rewards, epochs if counted else 1))

    pep = instance.per_epoch_packages
    if pep is not None:
        if not horizon.is_finite:
            out.append(Violation(ViolationCode.HORIZON_MISMATCH, "per_epoch_packages requires a finite horizon"))
        elif len(pep) != epochs:
            out.append(Violation(
                ViolationCode.HORIZON_MISMATCH,
                f"per_epoch_packages has {len(pep)} entries but horizon is {epochs}"))
        out.extend(_unknown_catalog_ids(pep, table))

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


def _unknown_catalog_ids(catalogs: tuple[np.ndarray, ...], table: PackageTable) -> list[Violation]:
    """Catalog ids that name no valid (non-negative) package id, by epoch
    and then ascending id: one binary search of the id index per catalog.
    Where the valid ids are consecutive, as ``gen`` writes them, a sorted
    catalog whose ends lie among them needs none."""
    sorted_ids = table._id_index[1]
    known = sorted_ids[np.searchsorted(sorted_ids, 0):]  # negative ids sort first
    low, high = (int(known[0]), int(known[-1])) if known.size else (0, -1)
    consecutive = high - low == known.size - 1  # in a sorted array, so no id repeats
    out = []
    for h, catalog in enumerate(catalogs, start=1):
        if not catalog.size or consecutive and low <= catalog[0] and catalog[-1] <= high:
            continue
        listed = _search(known, catalog)[1]
        if not listed.all():
            out += [Violation(ViolationCode.UNKNOWN_PACKAGE_ID, f"epoch {h} references unknown package id {pkg_id}")
                    for pkg_id in catalog[~listed].tolist()]
    return out


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
    order of :func:`canonical_sort_key`, for ``gammas`` as
    :func:`gamma_values` gives them (non-negative or inf).

    One sort by ``-gammas`` puts the riskless (inf) first; only the rows in
    runs of equal keys are then sorted again, by run and then by the rest
    of the key: ``-reward`` for the riskless, ``-gamma`` for the others
    (a nan last), the id and the row, as a stable sort keeps equal keys."""
    keys = -gammas
    order = np.argsort(keys)
    keys = keys[order]
    tied = ~(keys[1:] > keys[:-1])  # nan, which sorts last, is tied with what is before it
    if not tied.any():
        return order
    at = np.flatnonzero(np.concatenate(([False], tied)) | np.concatenate((tied, [False])))
    run = np.cumsum(np.concatenate(([0], ~tied)))[at]
    rows = order[at]
    g = gammas[rows]
    order[at] = rows[np.lexsort((rows, ids[rows], np.where(np.isinf(g), -rewards[rows], -g), run))]
    return order


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
        # Instance turns the catalogs into arrays, from any iterables of ids;
        # a document's are lists.
        catalogs = doc.get("per_epoch_packages")
        if catalogs is not None and not isinstance(catalogs, list):
            raise TypeError(f"per_epoch_packages must be a list of catalogs, got {type(catalogs).__name__}")
        for h, ids in enumerate(catalogs or (), start=1):
            _check_id_list(ids, f"epoch {h} catalog")
        return Instance(theta=float(theta), horizon=horizon, packages=packages, per_epoch_packages=catalogs)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInstanceError([Violation(ViolationCode.MALFORMED_DOCUMENT, f"malformed instance document: {exc}")]) from exc


def plan_to_dict(plan: MissionPlan) -> dict:
    if plan.is_stationary:
        return {"stationary": plan.stationary.tolist()}
    return {"plans": [epoch.tolist() for epoch in plan.plans]}


def plan_from_dict(doc: dict) -> MissionPlan:
    """A plan from its document, which holds exactly one of ``plans`` and
    ``stationary``; each is a list of ids, read as :class:`MissionPlan` reads them."""
    try:
        if not isinstance(doc, dict):  # a string holds "plans" as a substring
            raise TypeError(f"plan document must be an object, got {type(doc).__name__}")
        if "plans" in doc and "stationary" in doc:
            raise InvalidPlanError("plan document holds both 'plans' and 'stationary'; a plan is one or the other")
        if "stationary" in doc:
            return MissionPlan.from_stationary(_check_id_list(doc["stationary"], "stationary plan"))
        if "plans" in doc:
            plans = doc["plans"]
            if not isinstance(plans, list):
                raise TypeError(f"plans must be a list of epoch plans, got {type(plans).__name__}")
            return MissionPlan.finite(_check_id_list(epoch, f"epoch {h} plan") for h, epoch in enumerate(plans, start=1))
    except TypeError as exc:
        raise InvalidPlanError(f"malformed plan document: {exc}") from exc
    raise HorizonMismatchError("plan document needs a 'plans' or 'stationary' key")


def _plan_ids(raw: EpochPlan, where: str) -> np.ndarray:
    """A plan's ids in plan order as an int64 array (an int64 array as it is), else InvalidPlanError
    naming ``where``: for a plan not a list, tuple or 1-D array (a string, dict or set), or an id not int64."""
    if isinstance(raw, np.ndarray) and raw.dtype.type is np.int64 and raw.ndim == 1:  # the solver's plans
        return raw
    if not (isinstance(raw, (list, tuple)) or isinstance(raw, np.ndarray) and raw.ndim == 1):
        raise InvalidPlanError(f"{where} must be a list of ids, got {type(raw).__name__}")
    ids, bad = _column(raw, np.int64, {int}, _is_int64)
    if bad:
        raise InvalidPlanError(f"{where} id must be an integer in 0..{MAX_PACKAGE_ID}, got {raw[bad[0]]!r}")
    return ids
