"""Pareto-optimality machinery.

The paper filters feasible configurations through the ``pareto.py``
ε-nondomination sorting routine of Woodruff & Herman [27].  This package
reimplements that routine from scratch (:mod:`repro.pareto.epsilon`) and
adds a fast 2-D frontier scan plus frontier summary metrics
(:mod:`repro.pareto.frontier`) used on the multi-million point
configuration spaces of Figure 4.

All objectives are *minimized*; callers with maximization objectives
negate them first (same convention as pareto.py).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.pareto.epsilon": ["eps_sort", "EpsilonArchive"],
    "repro.pareto.frontier": [
        "pareto_mask_2d", "pareto_indices_2d", "dominates",
        "frontier_cost_span", "hypervolume_2d", "knee_point_2d",
        "attainment_surface",
    ],
})
