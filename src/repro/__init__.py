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

from repro.apps import (
    ElasticApplication,
    ExecutionStyle,
    GalaxyApp,
    SandApp,
    SyntheticApp,
    X264App,
    application_by_name,
    paper_applications,
)
from repro.cloud import Catalog, CloudProvider, InstanceType, ec2_catalog, make_catalog
from repro.core import (
    Celia,
    ConfigurationSpace,
    FrontierIndex,
    MinCostIndex,
    MinTimeIndex,
    Prediction,
    SelectionResult,
    StructuredIndex,
    characterize_resources,
    deadline_tightening_study,
    fixed_time_scaling,
    select_configurations,
)

# After repro.core: repro.cache depends on repro.core.configspace, which
# the core package's own import of the Celia facade already initialized.
from repro.cache import EvaluationCache
from repro.engine import EngineConfig, ExecutionReport, run_on_configuration
from repro.errors import InfeasibleError, ReproError
from repro.measurement import PerfCounter, fit_separable_demand, measure_demand_grid
from repro.pareto import eps_sort, pareto_mask_2d

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # applications
    "ElasticApplication",
    "ExecutionStyle",
    "X264App",
    "GalaxyApp",
    "SandApp",
    "SyntheticApp",
    "paper_applications",
    "application_by_name",
    # cloud
    "Catalog",
    "InstanceType",
    "CloudProvider",
    "ec2_catalog",
    "make_catalog",
    # core
    "Celia",
    "Prediction",
    "ConfigurationSpace",
    "EvaluationCache",
    "FrontierIndex",
    "StructuredIndex",
    "SelectionResult",
    "select_configurations",
    "MinCostIndex",
    "MinTimeIndex",
    "characterize_resources",
    "fixed_time_scaling",
    "deadline_tightening_study",
    # engine
    "EngineConfig",
    "ExecutionReport",
    "run_on_configuration",
    # measurement
    "PerfCounter",
    "measure_demand_grid",
    "fit_separable_demand",
    # pareto
    "eps_sort",
    "pareto_mask_2d",
    # errors
    "ReproError",
    "InfeasibleError",
]
