"""CELIA's core: analytical models, configuration space, selection.

Implements Section III of the paper:

* Eq. 1 — configuration-space size (:mod:`~repro.core.configspace`)
* Eq. 2 — time model ``T = D / U`` (:mod:`~repro.core.timemodel`)
* Eq. 3/4 — capacity model (:mod:`~repro.core.capacity`)
* Eq. 5/6 — cost model ``C = T · C_u`` (:mod:`~repro.core.costmodel`)
* Algorithm 1 — exhaustive selection + Pareto filter
  (:mod:`~repro.core.selection`)

plus the analyses behind the evaluation section: resource
characterization (:mod:`~repro.core.characterization`), fast min-cost /
min-time indexes over the full space (:mod:`~repro.core.optimizer`),
fixed-time scaling (:mod:`~repro.core.scaling`) and deadline tightening
(:mod:`~repro.core.deadline`).  The :class:`~repro.core.celia.Celia`
facade wires the full Figure 1 pipeline together.
"""

from repro.core.capacity import (
    capacity_per_type,
    configuration_capacity,
    capacity_from_per_vcpu,
)
from repro.core.timemodel import predict_time_hours, predict_time_seconds
from repro.core.costmodel import configuration_unit_cost, predict_cost
from repro.core.configspace import ConfigurationSpace, SpaceEvaluation
from repro.core.selection import (
    FrontierIndex,
    ParetoPoint,
    SelectionResult,
    StructuredIndex,
    select_configurations,
    select_configurations_batch,
)
from repro.core.characterization import (
    CharacterizationResult,
    TypeCharacterization,
    characterize_resources,
)
from repro.core.optimizer import MinCostIndex, MinTimeIndex, OptimizerAnswer
from repro.core.scaling import ScalingCurve, fixed_time_scaling
from repro.core.deadline import DeadlineStudy, deadline_tightening_study
from repro.core.planner import Plan, max_accuracy_plan, max_problem_size_plan
from repro.core.robust import (
    MarginSelection,
    MissEstimate,
    calibrate_margin,
    deadline_miss_probability,
    select_with_margin,
)
from repro.core.sensitivity import SensitivityResult, capacity_sensitivity
from repro.core.celia import Celia, Prediction

__all__ = [
    "capacity_per_type",
    "configuration_capacity",
    "capacity_from_per_vcpu",
    "predict_time_hours",
    "predict_time_seconds",
    "configuration_unit_cost",
    "predict_cost",
    "ConfigurationSpace",
    "SpaceEvaluation",
    "FrontierIndex",
    "StructuredIndex",
    "ParetoPoint",
    "SelectionResult",
    "select_configurations",
    "select_configurations_batch",
    "CharacterizationResult",
    "TypeCharacterization",
    "characterize_resources",
    "MinCostIndex",
    "MinTimeIndex",
    "OptimizerAnswer",
    "ScalingCurve",
    "fixed_time_scaling",
    "DeadlineStudy",
    "deadline_tightening_study",
    "Plan",
    "max_accuracy_plan",
    "max_problem_size_plan",
    "MarginSelection",
    "MissEstimate",
    "select_with_margin",
    "deadline_miss_probability",
    "calibrate_margin",
    "SensitivityResult",
    "capacity_sensitivity",
    "Celia",
    "Prediction",
]
