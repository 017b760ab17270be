"""Greedy cost-efficiency packing.

Adds nodes in descending capacity-per-dollar order until the deadline's
required capacity is met.  This is the "obvious" heuristic the exhaustive
search is measured against: it is near-optimal while one category has
spare quota, but over-shoots at category boundaries because it can only
add whole nodes of the current best type — exactly where the paper's
cost-gradient breaks (Observation 2) live.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.catalog import Catalog
from repro.core.costmodel import canonical_cost
from repro.core.optimizer import OptimizerAnswer
from repro.core.sweepkernel import canonical_sums
from repro.errors import InfeasibleError, ValidationError
from repro.units import SECONDS_PER_HOUR

__all__ = ["greedy_min_cost"]


def greedy_min_cost(
    catalog: Catalog,
    capacities_gips: np.ndarray,
    demand_gi: float,
    deadline_hours: float,
) -> OptimizerAnswer:
    """Pack capacity greedily by GI/s-per-dollar until the deadline fits."""
    if demand_gi <= 0 or deadline_hours <= 0:
        raise ValidationError("demand and deadline must be positive")
    capacities = np.asarray(capacities_gips, dtype=float)
    if capacities.shape != (len(catalog),):
        raise ValidationError("capacities must align with the catalog")

    required = demand_gi / (deadline_hours * SECONDS_PER_HOUR)
    prices = catalog.prices
    efficiency = capacities / prices
    order = np.argsort(efficiency)[::-1]  # best GI/s per dollar first

    config = np.zeros(len(catalog), dtype=np.int64)
    row = config[None, :]  # a view: Eq. 3 of the growing configuration
    total_capacity = 0.0
    for type_index in order:
        quota = catalog.quotas[type_index]
        while config[type_index] < quota and total_capacity < required:
            config[type_index] += 1
            total_capacity = float(canonical_sums(row, capacities)[0])
        if total_capacity >= required:
            break
    if total_capacity < required:
        raise InfeasibleError(
            f"even the full quota provides {total_capacity:.1f} GI/s, "
            f"below the required {required:.1f} GI/s",
            deadline_hours=deadline_hours,
        )

    unit_cost = float(canonical_sums(row, prices)[0])
    time_h = demand_gi / total_capacity / SECONDS_PER_HOUR
    return OptimizerAnswer(
        configuration=tuple(int(v) for v in config),
        time_hours=time_h,
        cost_dollars=canonical_cost(demand_gi, total_capacity, unit_cost),
        capacity_gips=total_capacity,
        unit_cost_per_hour=unit_cost,
    )
