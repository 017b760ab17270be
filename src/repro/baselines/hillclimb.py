"""Local search in configuration space (CherryPick-flavoured).

Sequential optimizers for cloud configuration (CherryPick and kin)
evaluate a handful of configurations and move locally.  This baseline
captures that shape: start from a random feasible configuration, try
single-node moves (add one node, remove one node, swap a node of one
type for a node of another), accept strict cost improvements that keep
the deadline, repeat until no move helps, with random restarts.

Against CELIA's exhaustive search this quantifies how often local search
strands in a local optimum of the discrete cost landscape.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.catalog import Catalog
from repro.core.costmodel import canonical_cost
from repro.core.optimizer import OptimizerAnswer
from repro.core.sweepkernel import canonical_sums
from repro.errors import InfeasibleError, ValidationError
from repro.units import SECONDS_PER_HOUR

__all__ = ["hillclimb_min_cost"]


def _evaluate(configs: np.ndarray, capacities: np.ndarray, prices: np.ndarray,
              demand_gi: float) -> tuple[np.ndarray, np.ndarray]:
    """(time_hours, cost) of each configuration row, as Algorithm 1
    computes them; ``inf`` for an empty configuration."""
    capacity = canonical_sums(configs, capacities)
    unit_cost = canonical_sums(configs, prices)
    with np.errstate(divide="ignore", invalid="ignore"):
        time_h = demand_gi / capacity / SECONDS_PER_HOUR
        cost = canonical_cost(demand_gi, capacity, unit_cost)
    empty = capacity == 0
    time_h[empty] = cost[empty] = np.inf
    return time_h, cost


def _neighbors(config: np.ndarray, quotas: np.ndarray):
    """Yield all single-change neighbors (add / remove / swap one node)."""
    m = config.size
    for i in range(m):
        if config[i] < quotas[i]:
            up = config.copy()
            up[i] += 1
            yield up
        if config[i] > 0:
            down = config.copy()
            down[i] -= 1
            if down.sum() > 0:
                yield down
            for j in range(m):
                if j != i and config[j] < quotas[j]:
                    swap = config.copy()
                    swap[i] -= 1
                    swap[j] += 1
                    yield swap


def hillclimb_min_cost(
    catalog: Catalog,
    capacities_gips: np.ndarray,
    demand_gi: float,
    deadline_hours: float,
    *,
    restarts: int = 5,
    max_steps: int = 500,
    rng: np.random.Generator | None = None,
) -> OptimizerAnswer:
    """Best configuration found by restarted steepest-descent local search."""
    if demand_gi <= 0 or deadline_hours <= 0:
        raise ValidationError("demand and deadline must be positive")
    if restarts < 1 or max_steps < 1:
        raise ValidationError("restarts and max_steps must be >= 1")
    rng = rng or np.random.default_rng()
    capacities = np.asarray(capacities_gips, dtype=float)
    prices = catalog.prices
    quotas = catalog.quota_vector

    best_config: np.ndarray | None = None
    best_cost = float("inf")
    for _ in range(restarts):
        # Start from a random feasible point; fall back to the full quota.
        current = rng.integers(0, quotas + 1, size=len(catalog))
        (t,), (current_cost,) = _evaluate(current[None, :], capacities,
                                          prices, demand_gi)
        if not (t < deadline_hours):
            current = quotas.copy()
            (t,), (current_cost,) = _evaluate(current[None, :], capacities,
                                              prices, demand_gi)
            if not (t < deadline_hours):
                continue  # even the full space cannot meet the deadline

        for _ in range(max_steps):
            improved = False
            cands = np.array(list(_neighbors(current, quotas)))
            times, costs = _evaluate(cands, capacities, prices, demand_gi)
            for cand, t, c in zip(cands, times.tolist(), costs.tolist()):
                if t < deadline_hours and c < current_cost - 1e-12:
                    current, current_cost = cand, c
                    improved = True
            if not improved:
                break
        if current_cost < best_cost:
            best_cost = current_cost
            best_config = current

    if best_config is None:
        raise InfeasibleError(
            "no feasible configuration found from any restart",
            deadline_hours=deadline_hours,
        )
    row = best_config[None, :]
    capacity = float(canonical_sums(row, capacities)[0])
    unit_cost = float(canonical_sums(row, prices)[0])
    return OptimizerAnswer(
        configuration=tuple(int(v) for v in best_config),
        time_hours=demand_gi / capacity / SECONDS_PER_HOUR,
        cost_dollars=canonical_cost(demand_gi, capacity, unit_cost),
        capacity_gips=capacity,
        unit_cost_per_hour=unit_cost,
    )
