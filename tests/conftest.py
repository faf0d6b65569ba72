"""Shared helpers: seeded random instances and plans."""

from __future__ import annotations

import random

import pytest

from riskplan import Horizon, Instance, MissionPlan, PackageSpec, UnknownPackageIdError
from riskplan.cli import GeneratorSpec, generate_instance


def make_instance(
    seed: int,
    *,
    n: int | None = None,
    n_max: int = 4,
    k: int | None = None,
    k_max: int = 3,
    infinite: bool = False,
    theta_range=(0.0, 5.0),
    reward_range=(0.0, 10.0),
    rho_range=(0.0, 1.0),
) -> Instance:
    """Uniform random instance, deterministic in ``seed``."""
    rng = random.Random(seed)
    if n is None:
        n = rng.randint(1, n_max)
    if k is None and not infinite:
        k = rng.randint(1, k_max)
    spec = GeneratorSpec(
        n=n,
        epochs=None if infinite else k,
        theta_range=theta_range,
        reward_range=reward_range,
        rho_range=rho_range,
        seed=rng.randrange(2**63),
    )
    return generate_instance(spec)


def package_of(instance: Instance, pkg_id: int) -> PackageSpec:
    """The package with id ``pkg_id``, by ``PackageTable.rows``; raises
    what the library raises for a plan's unknown id."""
    (row,) = instance.packages.rows([int(pkg_id)]).tolist()
    if row < 0:
        raise UnknownPackageIdError(f"unknown package id {pkg_id}")
    return instance.packages[row]


def random_epoch_plan(rng: random.Random, ids: list[int], max_len: int | None = None) -> tuple[int, ...]:
    limit = len(ids) if max_len is None else min(max_len, len(ids))
    size = rng.randint(0, limit)
    return tuple(rng.sample(ids, size))


def random_mission_plan(rng: random.Random, instance: Instance) -> MissionPlan:
    k = instance.horizon.epochs
    plans = [
        random_epoch_plan(rng, sorted(instance.allowed_ids(h)))
        for h in range(1, k + 1)
    ]
    return MissionPlan.finite(plans)


def with_horizon(instance: Instance, horizon: Horizon) -> Instance:
    return Instance(
        theta=instance.theta,
        horizon=horizon,
        packages=instance.packages,
        per_epoch_packages=None,
    )


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
