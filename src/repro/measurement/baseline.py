"""Baseline executions: demand grids and capacity measurements.

Implements Section III-A's measurement protocol:

* :func:`measure_demand_grid` — run scale-down ``P(n', a')`` sweeps under
  the local perf counter to sample the demand surface (Figure 2's data).
* :func:`measure_capacities` — run one scale-down baseline per instance
  type on the cloud, divide measured instructions by measured time to get
  per-type rates ``W_i`` (Section IV-B).
* :func:`measure_capacities_by_category` — the Section IV-C optimization:
  profile *one* type per category and extrapolate within the category by
  price, exploiting the near-constant GI/s-per-dollar within a family.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

import numpy as np

from repro.apps.base import ElasticApplication
from repro.cloud.catalog import Catalog
from repro.cloud.instance import ResourceCategory
from repro.engine.runner import EngineConfig, time_single_node_run
from repro.errors import MeasurementError
from repro.measurement.perf import PerfCounter

__all__ = [
    "DemandSamples",
    "CapacityMeasurement",
    "measure_demand_grid",
    "measure_capacities",
    "measure_capacities_by_category",
    "default_cloud_baseline",
]


@dataclass(frozen=True)
class DemandSamples:
    """Measured demand surface over a (sizes × accuracies) grid."""

    app_name: str
    sizes: np.ndarray  # (S,)
    accuracies: np.ndarray  # (A,)
    demand_gi: np.ndarray  # (S, A)

    def __post_init__(self) -> None:
        if self.demand_gi.shape != (self.sizes.size, self.accuracies.size):
            raise MeasurementError(
                "demand grid shape must be (len(sizes), len(accuracies))"
            )
        if np.any(self.demand_gi <= 0):
            raise MeasurementError("measured demand must be positive")

    def size_slice(self, accuracy_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(sizes, demand) at one fixed accuracy — a Figure 2 panel row."""
        return self.sizes, self.demand_gi[:, accuracy_index]

    def accuracy_slice(self, size_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(accuracies, demand) at one fixed size."""
        return self.accuracies, self.demand_gi[size_index, :]


@dataclass(frozen=True)
class CapacityMeasurement:
    """One instance type's measured execution rate for one application."""

    type_name: str
    rate_gips: float
    instructions_gi: float
    elapsed_seconds: float
    extrapolated: bool = False  # True when derived via the IV-C shortcut

    @property
    def normalized_per_dollar(self) -> float | None:
        """Set lazily by callers that know the price; None here."""
        return None


def measure_demand_grid(app: ElasticApplication, perf: PerfCounter,
                        *, sizes: np.ndarray | None = None,
                        accuracies: np.ndarray | None = None,
                        repeat: int = 1) -> DemandSamples:
    """Measure the demand surface of ``app`` on its scale-down grid."""
    grid_sizes, grid_accs = app.scale_down_grid()
    if sizes is None:
        sizes = grid_sizes
    if accuracies is None:
        accuracies = grid_accs
    sizes = np.asarray(sizes, dtype=float)
    accuracies = np.asarray(accuracies, dtype=float)
    demand = np.empty((sizes.size, accuracies.size))
    for i, n in enumerate(sizes):
        for j, a in enumerate(accuracies):
            demand[i, j] = perf.measure(app, float(n), float(a),
                                        repeat=repeat).instructions_gi
    return DemandSamples(app_name=app.name, sizes=sizes,
                         accuracies=accuracies, demand_gi=demand)


def default_cloud_baseline(app: ElasticApplication) -> tuple[float, float]:
    """The scale-down ``(n', a')`` used to time cloud instances.

    Sized so a baseline run lasts tens of minutes on the slowest type:
    long enough to amortize startup effects, short enough to be cheap.
    """
    presets = {
        "x264": (32.0, 30.0),
        "galaxy": (8192.0, 1000.0),
        "sand": (4.0e6, 0.32),
    }
    if app.name in presets:
        return presets[app.name]
    sizes, accs = app.scale_down_grid()
    return float(sizes[-1]), float(accs[len(accs) // 2])


def _median_elapsed(app: ElasticApplication, n_prime: float, a_prime: float,
                    itype, engine_config: EngineConfig | None,
                    seed: int, instances_per_type: int) -> float:
    """Median baseline wall time over several freshly launched instances.

    One instance can land on an unusually contended host; practitioners
    (and the paper's authors, who ran repeated baselines) take a median
    over a few launches so the measured rate reflects a typical host.
    """
    times = [
        time_single_node_run(app, n_prime, a_prime, itype,
                             config=engine_config, seed=seed + 1000 * rep)
        for rep in range(instances_per_type)
    ]
    # Same value as np.median, which imports numpy.ma on first use.
    return float(median(times))


def measure_capacities(
    app: ElasticApplication,
    catalog: Catalog,
    perf: PerfCounter,
    *,
    engine_config: EngineConfig | None = None,
    seed: int = 0,
    baseline: tuple[float, float] | None = None,
    instances_per_type: int = 3,
) -> tuple[np.ndarray, list[CapacityMeasurement]]:
    """Measure ``W_i`` for every type by timing scale-down runs on each.

    Returns the capacity vector (GI/s, catalog order) and the individual
    measurements.  The instruction count comes from ONE local perf run of
    the same ``P(n', a')`` — exactly the paper's protocol, where the local
    count stands in for all cloud runs (same ISA and micro-architecture).
    """
    n_prime, a_prime = baseline or default_cloud_baseline(app)
    reading = perf.measure(app, n_prime, a_prime)
    measurements: list[CapacityMeasurement] = []
    rates = np.empty(len(catalog))
    for i, itype in enumerate(catalog):
        elapsed = _median_elapsed(app, n_prime, a_prime, itype,
                                  engine_config, seed, instances_per_type)
        rate = reading.instructions_gi / elapsed
        rates[i] = rate
        measurements.append(
            CapacityMeasurement(
                type_name=itype.name,
                rate_gips=rate,
                instructions_gi=reading.instructions_gi,
                elapsed_seconds=elapsed,
            )
        )
    return rates, measurements


def measure_capacities_by_category(
    app: ElasticApplication,
    catalog: Catalog,
    perf: PerfCounter,
    *,
    engine_config: EngineConfig | None = None,
    seed: int = 0,
    baseline: tuple[float, float] | None = None,
    representative: dict[ResourceCategory, str] | None = None,
    instances_per_type: int = 3,
) -> tuple[np.ndarray, list[CapacityMeasurement]]:
    """The Section IV-C shortcut: profile one type per category.

    Measures the representative type of each category (by default the
    cheapest), computes its GI/s per dollar, and extrapolates every other
    type in the category as ``W_i = (W_rep / c_rep) × c_i`` — valid
    because normalized performance is near-constant within a category
    (Figure 3).  Cuts measurement cost from M runs to one per category.
    """
    n_prime, a_prime = baseline or default_cloud_baseline(app)
    reading = perf.measure(app, n_prime, a_prime)

    reps: dict[ResourceCategory, str] = {}
    if representative:
        reps.update(representative)
    for category in {t.category for t in catalog}:
        if category not in reps:
            cheapest = min(catalog.types_in_category(category),
                           key=lambda t: t.price_per_hour)
            reps[category] = cheapest.name

    norm_by_category: dict[ResourceCategory, float] = {}
    rep_measurements: dict[str, CapacityMeasurement] = {}
    for category, rep_name in reps.items():
        itype = catalog.type_named(rep_name)
        if itype.category is not category:
            raise MeasurementError(
                f"representative {rep_name} is not in category {category}"
            )
        elapsed = _median_elapsed(app, n_prime, a_prime, itype,
                                  engine_config, seed, instances_per_type)
        rate = reading.instructions_gi / elapsed
        norm_by_category[category] = rate / itype.price_per_hour
        rep_measurements[rep_name] = CapacityMeasurement(
            type_name=itype.name,
            rate_gips=rate,
            instructions_gi=reading.instructions_gi,
            elapsed_seconds=elapsed,
        )

    rates = np.empty(len(catalog))
    measurements: list[CapacityMeasurement] = []
    for i, itype in enumerate(catalog):
        if itype.name in rep_measurements:
            m = rep_measurements[itype.name]
        else:
            rate = norm_by_category[itype.category] * itype.price_per_hour
            m = CapacityMeasurement(
                type_name=itype.name,
                rate_gips=rate,
                instructions_gi=reading.instructions_gi,
                elapsed_seconds=float("nan"),
                extrapolated=True,
            )
        rates[i] = m.rate_gips
        measurements.append(m)
    return rates, measurements
