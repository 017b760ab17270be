"""Elastic applications: the workloads whose accuracy scales with resources.

The paper evaluates three applications with qualitatively different demand
shapes (Section IV-A / Figure 2):

========  ===================  ======================  =====================
app       domain               demand vs problem size  demand vs accuracy
========  ===================  ======================  =====================
x264      video compression    linear in n (videos)    quadratic in f (rate)
galaxy    n-body simulation    quadratic in n (masses) linear in s (steps)
sand      genome assembly      linear in n (sequences) logarithmic in t
========  ===================  ======================  =====================

Each application object bundles:

* a *ground-truth demand function* ``D(n, a)`` in giga-instructions (GI),
  calibrated so magnitudes land on the paper's figures (see DESIGN.md §4);
* a *performance profile* — per-resource-category instructions-per-cycle,
  the hidden truth the measurement layer estimates (Figure 3);
* a *task decomposition* for the discrete-event engine (independent tasks,
  BSP steps, or a master–worker queue);
* an *accuracy semantics* mapping the accuracy knob to output quality;
* optional *reference kernels* (:mod:`repro.apps.kernels`) — real NumPy
  computations demonstrating the elasticity on actual code.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.apps.demand": [
        "DemandTerm", "ConstantTerm", "LinearTerm", "AffineTerm",
        "QuadraticTerm", "PowerTerm", "LogTerm", "SeparableDemand",
    ],
    "repro.apps.base": [
        "ElasticApplication", "ExecutionStyle", "PerformanceProfile",
        "Workload",
    ],
    "repro.apps.x264": ["X264App"],
    "repro.apps.galaxy": ["GalaxyApp"],
    "repro.apps.sand": ["SandApp"],
    "repro.apps.synthetic": ["SyntheticApp"],
    "repro.apps.registry": ["paper_applications", "application_by_name"],
})
