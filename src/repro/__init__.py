"""repro — reproduction of *CELIA: Cost-time Performance of Elastic
Applications on Cloud* (Rathnayake, Loghin, Teo — ICPP 2017).

Quick start::

    from repro import Celia, ec2_catalog, GalaxyApp

    celia = Celia(ec2_catalog())
    app = GalaxyApp()
    result = celia.select(app, n=65536, a=8000,
                          deadline_hours=24, budget_dollars=350)
    for point in result.pareto:
        print(point.configuration, point.time_hours, point.cost_dollars)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from repro._lazy import attach

__version__ = "1.0.0"

# Names resolve on first access, so ``import repro`` loads no submodule;
# ``repro.cache`` imports whatever of ``repro.core`` it needs itself.
__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.apps": [
        "ElasticApplication", "ExecutionStyle", "X264App", "GalaxyApp",
        "SandApp", "SyntheticApp", "paper_applications",
        "application_by_name",
    ],
    "repro.cloud": [
        "Catalog", "InstanceType", "CloudProvider", "ec2_catalog",
        "make_catalog",
    ],
    "repro.core": [
        "Celia", "Prediction", "ConfigurationSpace", "FrontierIndex",
        "StructuredIndex", "SelectionResult", "select_configurations",
        "MinCostIndex", "MinTimeIndex", "characterize_resources",
        "fixed_time_scaling", "deadline_tightening_study",
    ],
    "repro.cache": ["EvaluationCache"],
    "repro.engine": ["EngineConfig", "ExecutionReport", "run_on_configuration"],
    "repro.measurement": [
        "PerfCounter", "measure_demand_grid", "fit_separable_demand",
    ],
    "repro.pareto": ["eps_sort", "pareto_mask_2d"],
    "repro.errors": ["ReproError", "InfeasibleError"],
})
__all__ = ["__version__", *__all__]
