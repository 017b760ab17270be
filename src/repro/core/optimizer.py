"""Logarithmic-time optimal-configuration queries over the full space.

The sweep analyses (Figures 5 and 6, Observation 3) ask the same question
hundreds of times: *the minimum cost over all configurations meeting a
deadline* (or minimum time within a budget) for varying demand.  Scanning
10M configurations per query is wasteful; instead both questions reduce
to a 1-D structure because predicted time and cost depend on a
configuration only through ``(U_j, C_{j,u})``:

* min cost s.t. ``T ≤ T'``  ⇔  minimize ``C_u / U`` over ``U ≥ D/T'``
  → sort by ``U``, take a suffix-minimum of the ratio; each query is a
  binary search.
* min time s.t. ``C ≤ C'``  ⇔  maximize ``U`` over ``C_u/U ≤ C'/D·(1/3600)``
  → sort by the ratio, take a prefix-maximum of ``U``.

Both indexes are built once per (application, catalog) in O(S log S) and
answer queries in O(log S), including which configuration achieves the
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.configspace import SpaceEvaluation
from repro.core.costmodel import canonical_cost
from repro.errors import InfeasibleError, ValidationError
from repro.units import SECONDS_PER_HOUR

__all__ = ["OptimizerAnswer", "MinCostIndex", "MinTimeIndex"]


@dataclass(frozen=True, slots=True)
class OptimizerAnswer:
    """An optimal configuration and its predicted time and cost."""

    configuration: tuple[int, ...]
    time_hours: float
    cost_dollars: float
    capacity_gips: float
    unit_cost_per_hour: float


class MinCostIndex:
    """Answers "cheapest configuration meeting deadline ``T'``" queries."""

    def __init__(self, evaluation: SpaceEvaluation):
        self.evaluation = evaluation
        capacity = evaluation.capacity_gips
        ratio = evaluation.cost_ratio()  # $/h per GI/s

        order = evaluation.capacity_order()
        self._capacity_sorted = capacity[order]
        # Suffix minimum of the ratio over configurations with capacity >= u,
        # plus the row achieving it — both fully vectorized (10M entries).
        ratio_sorted = ratio[order]
        n = ratio_sorted.size
        rev = ratio_sorted[::-1]
        rev_cummin = np.minimum.accumulate(rev)
        self._suffix_min_ratio = rev_cummin[::-1].copy()
        is_new_min = rev <= rev_cummin  # positions establishing/tying the min
        rev_arg = np.maximum.accumulate(np.where(is_new_min, np.arange(n), 0))
        self._suffix_best_row = order[(n - 1) - rev_arg[::-1]]

    @property
    def max_capacity_gips(self) -> float:
        """The largest configuration capacity in the space."""
        return float(self._capacity_sorted[-1])

    def query(self, demand_gi: float, deadline_hours: float,
              *, budget_dollars: float | None = None) -> OptimizerAnswer:
        """Cheapest configuration executing ``demand_gi`` within the deadline.

        Raises :class:`InfeasibleError` when even the largest
        configuration misses the deadline, or when the cheapest
        deadline-meeting configuration exceeds the optional budget.
        """
        if demand_gi <= 0 or deadline_hours <= 0:
            raise ValidationError("demand and deadline must be positive")
        required_capacity = demand_gi / (deadline_hours * SECONDS_PER_HOUR)
        pos = int(np.searchsorted(self._capacity_sorted, required_capacity,
                                  side="left"))
        if pos >= self._capacity_sorted.size:
            raise InfeasibleError(
                f"no configuration reaches the {required_capacity:.1f} GI/s "
                f"needed for a {deadline_hours:g} h deadline",
                deadline_hours=deadline_hours,
            )
        row = int(self._suffix_best_row[pos])
        capacity = float(self.evaluation.capacity_gips[row])
        unit_cost = float(self.evaluation.unit_cost_per_hour[row])
        time_h = demand_gi / capacity / SECONDS_PER_HOUR
        cost = canonical_cost(demand_gi, capacity, unit_cost)
        if budget_dollars is not None and cost >= budget_dollars:
            raise InfeasibleError(
                f"cheapest deadline-meeting configuration costs "
                f"${cost:.2f}, over the ${budget_dollars:.2f} budget",
                deadline_hours=deadline_hours,
                budget_dollars=budget_dollars,
            )
        return OptimizerAnswer(
            configuration=self.evaluation.configuration_at(row),
            time_hours=time_h,
            cost_dollars=cost,
            capacity_gips=capacity,
            unit_cost_per_hour=unit_cost,
        )

    def sweep(self, demands_gi: np.ndarray, deadline_hours: float
              ) -> np.ndarray:
        """Vectorized minimum cost for many demands at one deadline.

        Returns costs (``inf`` where infeasible) without materializing the
        winning configurations — the fast path for Figure 5/6 curves.
        """
        demands = np.asarray(demands_gi, dtype=np.float64)
        if np.any(demands <= 0):
            raise ValidationError("demands must be positive")
        required = demands / (deadline_hours * SECONDS_PER_HOUR)
        pos = np.searchsorted(self._capacity_sorted, required, side="left")
        costs = np.full(demands.shape, np.inf)
        ok = pos < self._capacity_sorted.size
        # cost = D * min_ratio / 3600 (ratio already $/h per GI/s).
        costs[ok] = demands[ok] * self._suffix_min_ratio[pos[ok]] / SECONDS_PER_HOUR
        return costs


class MinTimeIndex:
    """Answers "fastest configuration within budget ``C'``" queries."""

    def __init__(self, evaluation: SpaceEvaluation):
        self.evaluation = evaluation
        capacity = evaluation.capacity_gips
        ratio = evaluation.cost_ratio()

        order = np.argsort(ratio, kind="stable")
        self._ratio_sorted = ratio[order]
        capacity_sorted = capacity[order]
        self._prefix_max_capacity = np.maximum.accumulate(capacity_sorted)
        # Row achieving each prefix maximum, vectorized.
        n = capacity_sorted.size
        is_new_max = capacity_sorted >= self._prefix_max_capacity
        self._prefix_best_row = order[
            np.maximum.accumulate(np.where(is_new_max, np.arange(n), 0))
        ]

    def query(self, demand_gi: float, budget_dollars: float,
              *, deadline_hours: float | None = None) -> OptimizerAnswer:
        """Fastest configuration whose predicted cost fits the budget."""
        if demand_gi <= 0 or budget_dollars <= 0:
            raise ValidationError("demand and budget must be positive")
        # C = D * ratio / 3600 <= C'  ⇔  ratio <= C' * 3600 / D.
        max_ratio = budget_dollars * SECONDS_PER_HOUR / demand_gi
        pos = int(np.searchsorted(self._ratio_sorted, max_ratio, side="right")) - 1
        if pos < 0:
            raise InfeasibleError(
                f"no configuration runs {demand_gi:.0f} GI within "
                f"${budget_dollars:.2f}",
                budget_dollars=budget_dollars,
            )
        row = int(self._prefix_best_row[pos])
        capacity = float(self.evaluation.capacity_gips[row])
        unit_cost = float(self.evaluation.unit_cost_per_hour[row])
        time_h = demand_gi / capacity / SECONDS_PER_HOUR
        cost = canonical_cost(demand_gi, capacity, unit_cost)
        if deadline_hours is not None and time_h >= deadline_hours:
            raise InfeasibleError(
                f"fastest budget-fitting configuration needs "
                f"{time_h:.1f} h, over the {deadline_hours:g} h deadline",
                deadline_hours=deadline_hours,
                budget_dollars=budget_dollars,
            )
        return OptimizerAnswer(
            configuration=self.evaluation.configuration_at(row),
            time_hours=time_h,
            cost_dollars=cost,
            capacity_gips=capacity,
            unit_cost_per_hour=unit_cost,
        )
