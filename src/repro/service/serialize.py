"""Canonical JSON shapes for planning results.

One serializer per result type, shared by ``celia ... --json``, the
planning service's responses and the client — so a scripted caller sees
the same schema whether it shells out to the CLI or talks HTTP, and
tests can assert bit-identical payloads across the two paths.

All functions return plain ``dict``/``list``/``float`` trees ready for
``json.dumps``; nothing here depends on the service runtime.
:func:`selection_to_dict` is the select schema.  The service writes the
same text without building the tree: :class:`SelectionEncoder` keeps
each frontier point's JSON around its two demand-dependent numbers.
"""

from __future__ import annotations

import json
import math

import numpy as np

from repro.core.celia import Prediction
from repro.core.optimizer import OptimizerAnswer
from repro.core.planner import Plan
from repro.core.selection import (
    FrontierIndex,
    FrontierSlice,
    ParetoPoint,
    SelectionResult,
)

__all__ = [
    "SelectionEncoder",
    "pareto_point_to_dict",
    "selection_to_dict",
    "prediction_to_dict",
    "optimizer_answer_to_dict",
    "plan_to_dict",
]


def pareto_point_to_dict(point: ParetoPoint) -> dict:
    """One frontier point with its predictions."""
    return {
        "configuration": list(point.configuration),
        "time_hours": point.time_hours,
        "cost_dollars": point.cost_dollars,
        "capacity_gips": point.capacity_gips,
        "unit_cost_per_hour": point.unit_cost_per_hour,
    }


def selection_to_dict(result: SelectionResult, *, top: int = 0) -> dict:
    """An Algorithm-1 result; ``top`` > 0 trims the frontier list.

    ``pareto_count`` always reflects the full frontier even when the
    list is trimmed; ``cost_span``/``max_saving_fraction`` are ``None``
    for infeasible selections instead of raising.
    """
    points = result.pareto[:top] if top else result.pareto
    feasible = bool(result.pareto)
    return {
        "demand_gi": result.demand_gi,
        "deadline_hours": result.deadline_hours,
        "budget_dollars": result.budget_dollars,
        "total_configurations": result.total_configurations,
        "feasible_count": result.feasible_count,
        "pareto_count": result.pareto_count,
        "pareto": [pareto_point_to_dict(p) for p in points],
        "cost_span": list(result.cost_span) if feasible else None,
        "max_saving_fraction": (result.max_saving_fraction
                                if feasible else None),
    }


def _number(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    return repr(value) if math.isfinite(value) else json.dumps(value)


class SelectionEncoder:
    """:func:`selection_to_dict` as JSON text, from fragments per index.

    A frontier point's configuration, capacity and unit cost are fixed
    per index; only its time and cost depend on the demand.  The encoder
    keeps each frontier position's text around those two numbers, built
    the first time a query shows that position, so a query's text costs
    two float ``repr`` calls per point and a join.
    ``encode(answer, top=k)`` equals
    ``json.dumps(selection_to_dict(index.materialize(answer), top=k))``
    byte for byte.  (The times and costs of a kept point are finite —
    they passed a strict ``<`` — so ``repr`` is the JSON form.)
    """

    def __init__(self, index: FrontierIndex):
        self._index = index
        self._total = index.space.size
        self._heads: "list[str | None]" = [None] * index.frontier_size
        self._tails: "list[str | None]" = [None] * index.frontier_size

    def _build(self, positions: "list[int]") -> None:
        """Write the fragments of frontier ``positions``."""
        index = self._index
        at = np.asarray(positions, dtype=np.int64)
        for i, config, u, p in zip(
                positions,
                index.space.decode(index.frontier_rows[at] + 1).tolist(),
                index.frontier_capacity[at].tolist(),
                index.frontier_unit_cost[at].tolist()):
            self._heads[i] = f'{{"configuration": {config}, "time_hours": '
            self._tails[i] = (f', "capacity_gips": {u!r}, '
                              f'"unit_cost_per_hour": {p!r}}}')

    def encode(self, answer: FrontierSlice, *, top: int = 0) -> str:
        """One query's ``result`` text; ``top`` as in
        :func:`selection_to_dict`."""
        heads, tails = self._heads, self._tails
        shown = (answer.positions[:top] if top else answer.positions).tolist()
        unbuilt = [i for i in shown if heads[i] is None]
        if unbuilt:
            self._build(unbuilt)
        costs = answer.costs.tolist()
        points = ", ".join([
            f'{heads[i]}{t!r}, "cost_dollars": {c!r}{tails[i]}'
            for i, t, c in zip(shown, answer.times.tolist(), costs)])
        if costs:
            low, high = min(costs), max(costs)
            span = f"[{low!r}, {high!r}]"
            saving = repr(1.0 - low / high)
        else:
            span = saving = "null"
        return (f'{{"demand_gi": {_number(answer.demand_gi)}, '
                f'"deadline_hours": {_number(answer.deadline_hours)}, '
                f'"budget_dollars": {_number(answer.budget_dollars)}, '
                f'"total_configurations": {self._total}, '
                f'"feasible_count": {answer.feasible_count}, '
                f'"pareto_count": {len(costs)}, "pareto": [{points}], '
                f'"cost_span": {span}, "max_saving_fraction": {saving}}}')


def prediction_to_dict(prediction: Prediction) -> dict:
    """Eq. 2/5 prediction for one configuration."""
    return {
        "configuration": list(prediction.configuration),
        "demand_gi": prediction.demand_gi,
        "capacity_gips": prediction.capacity_gips,
        "unit_cost_per_hour": prediction.unit_cost_per_hour,
        "time_hours": prediction.time_hours,
        "cost_dollars": prediction.cost_dollars,
    }


def optimizer_answer_to_dict(answer: OptimizerAnswer) -> dict:
    """A min-cost/min-time optimum."""
    return {
        "configuration": list(answer.configuration),
        "time_hours": answer.time_hours,
        "cost_dollars": answer.cost_dollars,
        "capacity_gips": answer.capacity_gips,
        "unit_cost_per_hour": answer.unit_cost_per_hour,
    }


def plan_to_dict(plan: Plan) -> dict:
    """A planned run (best affordable accuracy or problem size)."""
    return {
        "knob": plan.knob,
        "value": plan.value,
        "fixed_value": plan.fixed_value,
        "deadline_hours": plan.deadline_hours,
        "budget_dollars": plan.budget_dollars,
        "answer": optimizer_answer_to_dict(plan.answer),
    }
