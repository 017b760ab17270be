"""The CELIA facade — the full Figure 1 pipeline in one object.

Given a catalog and a measurement harness, :class:`Celia`:

1. characterizes an application's demand (local perf runs + fitting) and
   the cloud's capacities (timed baselines) — cached per application;
2. answers Algorithm-1 selections from the sum structure of Eq. 3 /
   Eq. 6 (:class:`~repro.core.selection.StructuredIndex`: a pruned
   per-type frontier and a meet-in-the-middle feasible count, built in
   milliseconds with no pass over the space) and predictions (Eq. 2/5)
   in the same canonical arithmetic;
3. evaluates the full configuration space (``U_j``, ``C_{j,u}`` for all
   S configurations) only for what needs every row — the exhaustive
   streamed scan, the optimal-configuration indexes and the Figure-4
   scatter — cached in memory and on disk.

Everything downstream of the cached artefacts is deterministic pure
math, so one ``Celia`` instance can drive all figures of the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.apps.base import ElasticApplication
from repro.cache import EvaluationCache
from repro.cloud.catalog import Catalog
from repro.core.characterization import (
    CharacterizationResult,
    characterize_resources,
)
from repro.core.configspace import ConfigurationSpace, SpaceEvaluation
from repro.core.costmodel import canonical_cost
from repro.core.optimizer import MinCostIndex, MinTimeIndex, OptimizerAnswer
from repro.core.selection import (
    SelectionResult,
    StructuredIndex,
    select_configurations,
)
from repro.core.sweepkernel import canonical_sums
from repro.engine.runner import EngineConfig
from repro.errors import ValidationError
from repro.measurement.baseline import measure_demand_grid
from repro.measurement.fitting import FittedDemand, fit_separable_demand
from repro.measurement.perf import PerfCounter
from repro.measurement.profiles import ApplicationProfile
from repro.units import SECONDS_PER_HOUR

__all__ = ["Prediction", "Celia"]


@dataclass(frozen=True, slots=True)
class Prediction:
    """Predicted time and cost of one run on one configuration."""

    configuration: tuple[int, ...]
    demand_gi: float
    capacity_gips: float
    unit_cost_per_hour: float
    time_hours: float
    cost_dollars: float


class Celia:
    """Measurement-driven cost-time optimizer for elastic applications.

    Selections (:meth:`select`, :meth:`selection_index`) never sweep the
    space: they run on a per-application
    :class:`~repro.core.selection.StructuredIndex` and neither read nor
    write index snapshots.  Only :meth:`evaluation` (and what is built on
    it: ``method="streamed"``, :meth:`min_cost`, :meth:`min_time`)
    sweeps, persisting the arrays in the evaluation cache.

    Parameters
    ----------
    catalog:
        Cloud resource types and quotas (Table III by default upstream).
    perf:
        Local instruction-counting harness; a default PerfCounter on the
        paper's Xeon server is created if omitted.
    engine_config:
        Realism knobs for the simulated baseline timings.
    characterization_method:
        ``"full"`` (time every type) or ``"by-category"`` (Section IV-C).
    seed:
        Root seed for all measurement randomness.
    cache_dir:
        Where full-space evaluations persist across processes.  ``None``
        (the default) resolves ``$CELIA_CACHE_DIR`` then
        ``~/.cache/celia``; a path overrides both; ``False`` disables
        persistence entirely (in-memory caching still applies).
    workers:
        Parallelism of the space sweep (:meth:`evaluation` only), forwarded to
        :meth:`ConfigurationSpace.evaluate` — ``"auto"`` (default),
        ``None``/1 for serial, or an explicit process count.
    """

    def __init__(
        self,
        catalog: Catalog,
        *,
        perf: PerfCounter | None = None,
        engine_config: EngineConfig | None = None,
        characterization_method: str = "full",
        seed: int = 0,
        cache_dir: "str | Path | bool | None" = None,
        workers: int | str | None = "auto",
    ):
        self.catalog = catalog
        self.perf = perf or PerfCounter(seed=seed)
        self.engine_config = engine_config or EngineConfig()
        self.characterization_method = characterization_method
        self.seed = seed
        self.workers = workers
        if cache_dir is False:
            self.evaluation_cache: EvaluationCache | None = None
        else:
            self.evaluation_cache = EvaluationCache(
                None if cache_dir in (None, True) else cache_dir
            )
        self.space = ConfigurationSpace(catalog)
        self._demand_cache: dict[str, FittedDemand] = {}
        self._characterization_cache: dict[str, CharacterizationResult] = {}
        self._evaluation_cache: dict[str, SpaceEvaluation] = {}
        self._min_cost_cache: dict[str, MinCostIndex] = {}
        self._min_time_cache: dict[str, MinTimeIndex] = {}
        self._structured_cache: dict[tuple[str, tuple[int, ...]],
                                     StructuredIndex] = {}
        #: Kept for service metrics: the structured index is never read
        #: from a snapshot, so these stay ``False`` / ``0.0``.
        self.last_index_from_snapshot = False
        self.last_index_load_s = 0.0

    # -- characterization (cached) ---------------------------------------------

    def demand_model(self, app: ElasticApplication) -> FittedDemand:
        """Fitted demand model of ``app`` (measures on first call)."""
        if app.name not in self._demand_cache:
            samples = measure_demand_grid(app, self.perf)
            self._demand_cache[app.name] = fit_separable_demand(samples)
        return self._demand_cache[app.name]

    def characterization(self, app: ElasticApplication) -> CharacterizationResult:
        """Per-type capacity characterization of ``app`` (cached)."""
        if app.name not in self._characterization_cache:
            self._characterization_cache[app.name] = characterize_resources(
                app,
                self.catalog,
                self.perf,
                method=self.characterization_method,
                engine_config=self.engine_config,
                seed=self.seed,
            )
        return self._characterization_cache[app.name]

    def adopt_measurements(self, app: ElasticApplication,
                           characterization: CharacterizationResult,
                           demand: FittedDemand) -> None:
        """Reuse ``app``'s measurements taken by an equivalent ``Celia``.

        ``characterization`` and ``demand`` are what
        :meth:`characterization` and :meth:`demand_model` returned on an
        instance with the same catalog, harness and seed.  Both are
        frozen, so this instance shares them and never runs Section IV's
        measurements for ``app``; every later answer is bit-identical to
        one measured here.  The planning service uses this to rebuild an
        evicted warm state from its kept measurements.
        """
        if characterization.app_name != app.name or demand.app_name != app.name:
            raise ValidationError(
                f"measurements of {characterization.app_name!r}/"
                f"{demand.app_name!r} cannot serve {app.name!r}")
        if len(characterization.entries) != len(self.catalog):
            raise ValidationError(
                f"characterization covers {len(characterization.entries)} "
                f"types, the catalog {len(self.catalog)}")
        self._characterization_cache[app.name] = characterization
        self._demand_cache[app.name] = demand

    def capacities(self, app: ElasticApplication) -> np.ndarray:
        """Measured per-type capacity vector ``W`` (GI/s, catalog order)."""
        return self.characterization(app).capacity_vector()

    def profile(self, app: ElasticApplication) -> ApplicationProfile:
        """Bundle demand model + capacities for persistence."""
        fitted = self.demand_model(app)
        capacities = self.capacities(app)
        return ApplicationProfile(
            app_name=app.name,
            demand=fitted.model,
            capacities_gips={
                t.name: float(w) for t, w in zip(self.catalog, capacities)
            },
        )

    # -- space evaluation (cached) -----------------------------------------------

    def evaluation(self, app: ElasticApplication) -> SpaceEvaluation:
        """``U_j`` / ``C_{j,u}`` over the full space for ``app``.

        Parameters
        ----------
        app:
            The application whose measured capacity vector parameterizes
            the sweep.

        Returns
        -------
        SpaceEvaluation
            Capacity and unit-cost vectors covering linear indices
            ``1..S`` (row ``r`` ↔ index ``r + 1``).

        Cached at two levels: in memory per application name, and — when
        persistence is enabled — on disk keyed by a content hash of the
        catalog and the measured capacity vector, so a second process
        with a warm cache memory-maps the arrays instead of sweeping.

        When persistence is enabled the sweep also runs against a
        :class:`~repro.cache.SweepCheckpoint`: an earlier interrupted
        sweep's completed spans are restored from their shards and only
        the missing spans are evaluated, after which the checkpoint is
        replaced by the final cached artefact.
        """
        if app.name not in self._evaluation_cache:
            capacities = self.capacities(app)
            evaluation = None
            if self.evaluation_cache is not None:
                evaluation = self.evaluation_cache.load(self.space, capacities)
            if evaluation is None:
                checkpoint = None
                if self.evaluation_cache is not None:
                    checkpoint = self.evaluation_cache.sweep_checkpoint(
                        self.space, capacities)
                evaluation = self.space.evaluate(capacities,
                                                 workers=self.workers,
                                                 checkpoint=checkpoint)
                if self.evaluation_cache is not None:
                    self.evaluation_cache.store(evaluation, capacities)
                    checkpoint.discard()
            self._evaluation_cache[app.name] = evaluation
        return self._evaluation_cache[app.name]

    def selection_index(self, app: ElasticApplication,
                        *, excluded_types: "tuple[int, ...]" = ()
                        ) -> StructuredIndex:
        """Algorithm-1 index for ``app`` (built once per exclusion, cached).

        A :class:`~repro.core.selection.StructuredIndex` over the
        measured capacity vector: no sweep, no evaluation and no
        snapshot — the frontier is built here in milliseconds and the
        feasible-count tables on the first query.  ``excluded_types``
        pins those types' node counts to zero (the memory constraint).
        """
        key = (app.name, tuple(sorted({int(i) for i in excluded_types})))
        index = self._structured_cache.get(key)
        if index is None:
            index = StructuredIndex(self.space, self.capacities(app),
                                    excluded_types=key[1])
            self._structured_cache[key] = index
        return index

    def min_cost_index(self, app: ElasticApplication) -> MinCostIndex:
        """Deadline-query index over the space for ``app`` (cached)."""
        if app.name not in self._min_cost_cache:
            self._min_cost_cache[app.name] = MinCostIndex(self.evaluation(app))
        return self._min_cost_cache[app.name]

    def min_time_index(self, app: ElasticApplication) -> MinTimeIndex:
        """Budget-query index over the space for ``app`` (cached)."""
        if app.name not in self._min_time_cache:
            self._min_time_cache[app.name] = MinTimeIndex(self.evaluation(app))
        return self._min_time_cache[app.name]

    # -- queries -------------------------------------------------------------------

    def demand_gi(self, app: ElasticApplication, n: float, a: float) -> float:
        """Estimated demand of ``P(n, a)`` from the fitted model (GI)."""
        app.validate_params(n, a)
        return self.demand_model(app).gi(n, a)

    def predict(self, app: ElasticApplication, n: float, a: float,
                configuration: tuple[int, ...] | list[int]) -> Prediction:
        """Eq. 2 and Eq. 5 for one run on one explicit configuration.

        Computed exactly as Algorithm 1 computes a configuration — the
        canonical Eq. 3 / Eq. 6 sums, time ``fl(fl(D/U)/3600)`` and cost
        ``fl(fl(D·fl(C_u/U))/3600)`` — so the prediction equals the
        :class:`~repro.core.selection.ParetoPoint` of the same
        configuration bit for bit.
        """
        vec = np.asarray(configuration, dtype=np.int64)
        if vec.shape != (len(self.catalog),):
            raise ValidationError(
                f"configuration needs {len(self.catalog)} entries"
            )
        if vec.sum() == 0:
            raise ValidationError("configuration must contain at least one node")
        demand = self.demand_gi(app, n, a)
        capacity = float(canonical_sums(vec[None, :], self.capacities(app))[0])
        unit_cost = float(canonical_sums(vec[None, :], self.catalog.prices)[0])
        return Prediction(
            configuration=tuple(int(v) for v in vec),
            demand_gi=demand,
            capacity_gips=capacity,
            unit_cost_per_hour=unit_cost,
            time_hours=demand / capacity / SECONDS_PER_HOUR,
            cost_dollars=canonical_cost(demand, capacity, unit_cost),
        )

    def memory_infeasible_types(self, app: ElasticApplication,
                                n: float, a: float) -> list[int]:
        """Catalog indices whose memory cannot host ``P(n, a)``.

        A type is infeasible when ``memory_gb < vcpus × per-vCPU working
        set`` (one worker per vCPU, the paper's execution model).
        """
        app.validate_params(n, a)
        per_vcpu = app.min_memory_gb_per_vcpu(n, a)
        return [
            i for i, t in enumerate(self.catalog)
            if t.memory_gb < t.vcpus * per_vcpu
        ]

    def select(self, app: ElasticApplication, n: float, a: float,
               deadline_hours: float, budget_dollars: float,
               *, enforce_memory: bool = False,
               method: str = "auto") -> SelectionResult:
        """Algorithm 1: all feasible configurations → Pareto frontier.

        Parameters
        ----------
        app:
            The elastic application; its demand model and capacity
            vector are measured on first use and cached.
        n, a:
            Problem size and accuracy of the run being planned.
        deadline_hours, budget_dollars:
            The constraints ``T'`` and ``C'`` (strict, per Algorithm 1).
        enforce_memory:
            Exclude configurations using any type whose memory cannot
            hold the application's working set — an extension beyond the
            paper, which treats all applications as compute-bound
            (matching its evaluation; the default preserves that).
        method:
            ``"auto"`` and ``"indexed"`` answer from the structured
            index (:meth:`selection_index`); ``"streamed"`` runs the
            exhaustive one-pass scan over :meth:`evaluation` — the
            paper-faithful oracle.  All three give identical results.

        Returns
        -------
        SelectionResult
            Feasible/total counts plus the cost-time Pareto frontier
            (empty ``pareto`` means no feasible configuration).

        Raises
        ------
        ValidationError
            If ``(n, a)`` is outside the application's valid parameter
            range, or ``method`` is not one of ``auto`` / ``streamed`` /
            ``indexed``.
        """
        if method not in ("auto", "streamed", "indexed"):
            raise ValidationError(
                f"method must be 'auto', 'streamed' or 'indexed', "
                f"got {method!r}")
        demand = self.demand_gi(app, n, a)
        excluded = (tuple(self.memory_infeasible_types(app, n, a))
                    if enforce_memory else ())
        if method != "streamed":
            return self.selection_index(app, excluded_types=excluded).select(
                demand, deadline_hours, budget_dollars)
        exclude_mask = (self.space.mask_using_types(excluded) if excluded
                        else None)
        return select_configurations(
            self.evaluation(app), demand, deadline_hours, budget_dollars,
            exclude_mask=exclude_mask, method="streamed",
        )

    def min_cost(self, app: ElasticApplication, n: float, a: float,
                 deadline_hours: float,
                 *, budget_dollars: float | None = None) -> OptimizerAnswer:
        """Cheapest configuration meeting the deadline."""
        demand = self.demand_gi(app, n, a)
        return self.min_cost_index(app).query(
            demand, deadline_hours, budget_dollars=budget_dollars
        )

    def min_time(self, app: ElasticApplication, n: float, a: float,
                 budget_dollars: float,
                 *, deadline_hours: float | None = None) -> OptimizerAnswer:
        """Fastest configuration within the budget."""
        demand = self.demand_gi(app, n, a)
        return self.min_time_index(app).query(
            demand, budget_dollars, deadline_hours=deadline_hours
        )
