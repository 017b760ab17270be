"""Sensitivity of the selected configuration to characterization error.

Why does CELIA work despite ≤17% prediction error?  Because the cost
landscape near the optimum is flat: many configurations share almost the
same capacity-per-dollar, so a selection made with *perturbed* capacity
estimates lands on a configuration whose *true* cost is only slightly
above the true optimum.  This module quantifies that:

* perturb the capacity vector ``W`` multiplicatively (per-type noise of
  relative scale ε),
* re-select the min-cost configuration under the perturbed beliefs,
* evaluate the chosen configuration under the *true* capacities,
* report the regret (true cost of the chosen config / true optimal cost
  − 1) and the deadline-violation rate, as functions of ε.

This is an analysis the paper does not run but its validation section
implicitly relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cloud.catalog import Catalog
from repro.core.capacity import configuration_capacity
from repro.core.configspace import ConfigurationSpace
from repro.core.costmodel import canonical_cost, configuration_unit_cost
from repro.core.optimizer import MinCostIndex
from repro.errors import InfeasibleError, ValidationError
from repro.units import SECONDS_PER_HOUR
from repro.utils.rng import derive_rng

__all__ = ["SensitivityPoint", "SensitivityResult", "capacity_sensitivity"]


@dataclass(frozen=True)
class SensitivityPoint:
    """Aggregated outcome of many perturbation trials at one error scale."""

    epsilon: float
    trials: int
    mean_regret: float
    p95_regret: float
    max_regret: float
    deadline_violation_rate: float


@dataclass(frozen=True)
class SensitivityResult:
    """Regret-vs-error curve for one (demand, deadline) problem."""

    demand_gi: float
    deadline_hours: float
    true_optimal_cost: float
    points: tuple[SensitivityPoint, ...]

    def render(self) -> str:
        """Small table of regret statistics per error level."""
        lines = [
            f"capacity-error sensitivity (deadline {self.deadline_hours:g} h, "
            f"true optimum ${self.true_optimal_cost:.2f})",
            f"{'eps':>6} {'mean regret':>12} {'p95 regret':>11} "
            f"{'max regret':>11} {'deadline miss':>14}",
        ]
        for p in self.points:
            lines.append(
                f"{p.epsilon:>6.0%} {p.mean_regret:>12.2%} "
                f"{p.p95_regret:>11.2%} {p.max_regret:>11.2%} "
                f"{p.deadline_violation_rate:>14.0%}"
            )
        return "\n".join(lines)


def capacity_sensitivity(
    catalog: Catalog,
    true_capacities: np.ndarray,
    demand_gi: float,
    deadline_hours: float,
    *,
    epsilons: tuple[float, ...] = (0.02, 0.05, 0.10, 0.17, 0.25),
    trials: int = 30,
    seed: int = 0,
) -> SensitivityResult:
    """Regret of min-cost selection under noisy capacity beliefs.

    Each trial draws per-type multiplicative noise
    ``W' = W · (1 + eps · U(-1, 1))``, selects the min-cost configuration
    believing ``W'``, then scores it under the true ``W``.  A trial whose
    chosen configuration truly misses the deadline counts as a violation
    (its regret still enters the statistics, using true cost).
    """
    capacities = np.asarray(true_capacities, dtype=float)
    if capacities.shape != (len(catalog),):
        raise ValidationError("capacities must align with the catalog")
    if demand_gi <= 0 or deadline_hours <= 0:
        raise ValidationError("demand and deadline must be positive")
    if trials < 1:
        raise ValidationError("need at least one trial")

    space = ConfigurationSpace(catalog)
    true_eval = space.evaluate(capacities)
    true_index = MinCostIndex(true_eval)
    optimum = true_index.query(demand_gi, deadline_hours)
    true_optimal_cost = optimum.cost_dollars
    prices = catalog.prices

    points = []
    for eps in epsilons:
        if eps < 0:
            raise ValidationError("epsilon must be non-negative")
        regrets = []
        violations = 0
        for k in range(trials):
            rng = derive_rng(seed, "sensitivity", eps, k)
            noisy = capacities * (1.0 + eps * rng.uniform(-1, 1,
                                                          capacities.size))
            noisy = np.maximum(noisy, 1e-9)
            noisy_index = MinCostIndex(space.evaluate(noisy))
            try:
                believed = noisy_index.query(demand_gi, deadline_hours)
            except InfeasibleError:
                violations += 1
                continue
            config = np.asarray(believed.configuration)
            true_capacity = float(configuration_capacity(config, capacities)[0])
            true_time = demand_gi / true_capacity / SECONDS_PER_HOUR
            unit_cost = float(configuration_unit_cost(config, prices)[0])
            true_cost = canonical_cost(demand_gi, true_capacity, unit_cost)
            regrets.append(true_cost / true_optimal_cost - 1.0)
            if true_time > deadline_hours:
                violations += 1
        regrets_arr = np.asarray(regrets) if regrets else np.zeros(1)
        points.append(
            SensitivityPoint(
                epsilon=eps,
                trials=trials,
                mean_regret=float(regrets_arr.mean()),
                p95_regret=float(np.quantile(regrets_arr, 0.95)),
                max_regret=float(regrets_arr.max()),
                deadline_violation_rate=violations / trials,
            )
        )
    return SensitivityResult(
        demand_gi=demand_gi,
        deadline_hours=deadline_hours,
        true_optimal_cost=true_optimal_cost,
        points=tuple(points),
    )
