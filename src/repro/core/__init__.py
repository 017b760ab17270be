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

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.core.capacity": [
        "capacity_per_type", "configuration_capacity",
        "capacity_from_per_vcpu",
    ],
    "repro.core.timemodel": ["predict_time_hours", "predict_time_seconds"],
    "repro.core.costmodel": ["configuration_unit_cost", "predict_cost"],
    "repro.core.configspace": ["ConfigurationSpace", "SpaceEvaluation"],
    "repro.core.selection": [
        "FrontierIndex", "StructuredIndex", "ParetoPoint", "SelectionResult",
        "select_configurations", "select_configurations_batch",
    ],
    "repro.core.characterization": [
        "CharacterizationResult", "TypeCharacterization",
        "characterize_resources",
    ],
    "repro.core.optimizer": [
        "MinCostIndex", "MinTimeIndex", "OptimizerAnswer",
    ],
    "repro.core.scaling": ["ScalingCurve", "fixed_time_scaling"],
    "repro.core.deadline": ["DeadlineStudy", "deadline_tightening_study"],
    "repro.core.planner": [
        "Plan", "max_accuracy_plan", "max_problem_size_plan",
    ],
    "repro.core.robust": [
        "MarginSelection", "MissEstimate", "select_with_margin",
        "deadline_miss_probability", "calibrate_margin",
    ],
    "repro.core.sensitivity": ["SensitivityResult", "capacity_sensitivity"],
    "repro.core.celia": ["Celia", "Prediction"],
})
