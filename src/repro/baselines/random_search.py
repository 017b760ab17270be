"""Random-sampling configuration search.

Samples configurations uniformly from the space and keeps the cheapest
feasible one — the simplest possible search, and the natural lower bar
for the ablation: how many samples does it take to get close to the
exhaustive optimum that CELIA computes exactly?
"""

from __future__ import annotations

import numpy as np

from repro.cloud.catalog import Catalog
from repro.core.capacity import configuration_capacity
from repro.core.costmodel import canonical_cost, configuration_unit_cost
from repro.core.optimizer import OptimizerAnswer
from repro.errors import InfeasibleError, ValidationError
from repro.units import SECONDS_PER_HOUR

__all__ = ["random_search_min_cost"]


def random_search_min_cost(
    catalog: Catalog,
    capacities_gips: np.ndarray,
    demand_gi: float,
    deadline_hours: float,
    *,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> OptimizerAnswer:
    """Cheapest deadline-meeting configuration among random samples.

    Raises :class:`InfeasibleError` when no sampled configuration meets
    the deadline (which may happen even when feasible configurations
    exist — the defining weakness of sampling).
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    if demand_gi <= 0 or deadline_hours <= 0:
        raise ValidationError("demand and deadline must be positive")
    rng = rng or np.random.default_rng()

    quotas = catalog.quota_vector
    samples = rng.integers(0, quotas + 1, size=(n_samples, len(catalog)))
    nonempty = samples.sum(axis=1) > 0
    samples = samples[nonempty]
    if samples.shape[0] == 0:
        raise InfeasibleError("all random samples were empty configurations")

    capacity = configuration_capacity(samples, capacities_gips)
    unit_cost = configuration_unit_cost(samples, catalog.prices)
    times = demand_gi / capacity / SECONDS_PER_HOUR
    costs = canonical_cost(demand_gi, capacity, unit_cost)
    feasible = times < deadline_hours
    if not feasible.any():
        raise InfeasibleError(
            f"none of {n_samples} random samples met the "
            f"{deadline_hours:g} h deadline",
            deadline_hours=deadline_hours,
        )
    best = int(np.flatnonzero(feasible)[np.argmin(costs[feasible])])
    return OptimizerAnswer(
        configuration=tuple(int(v) for v in samples[best]),
        time_hours=float(times[best]),
        cost_dollars=float(costs[best]),
        capacity_gips=float(capacity[best]),
        unit_cost_per_hour=float(unit_cost[best]),
    )
