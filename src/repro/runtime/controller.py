"""The closed-loop adaptive execution controller.

CELIA up to now *plans*: Algorithm 1 picks a configuration whose
predicted time and cost fit ``(T', C')``.  This module *executes* the
plan against the simulated cloud and keeps the promise when the cloud
misbehaves:

1. **provision** the configuration through :class:`CloudProvider`, with
   bounded retries, capped-exponential deterministic-jitter backoff and
   Pareto-adjacent type fallback (:mod:`repro.runtime.retry`) — waiting
   burns simulated deadline, and is accounted as such;
2. **monitor** execution progress (instructions retired, current
   aggregate rate, projected finish and bill) on a fixed cadence;
3. on **deviation** — a crash, a straggler-induced lag, a projected
   deadline or budget breach — terminate the lease, **re-plan** over
   residual state (remaining estimated demand, ``T' − t`` deadline,
   ``C' − spent`` budget) with the same min-cost index Algorithm 1
   uses, and migrate;
4. when no configuration is feasible, pull the app's **elasticity
   knob**: bisect the accuracy down to the *largest* value whose
   residual demand fits the residual envelope, recording a typed
   :class:`~repro.runtime.events.DegradationDecision`;
5. when even the accuracy floor is infeasible, stop with an explicit
   :class:`~repro.runtime.events.InfeasiblePlan` — never a silent
   overrun.

With a :class:`~repro.market.MarketPolicy` the controller additionally
buys **mixed on-demand + spot capacity**: each planned configuration is
split into a purchasing vector (:func:`repro.market.purchase_plan`),
the on-demand part goes through :class:`CloudProvider` as before and
the spot part through a :class:`~repro.market.SpotFleet`, billed at the
integrated market price.  A spot kill re-enters the same replan loop
with residual demand; after too many interruptions (or with the
residual slack too thin) the controller *falls back to pure on-demand*
for the rest of the run.  Budget projections always price plans at
on-demand rates — realized spot cost can only undercut them — so a
market run can never silently overrun the budget either.

The controller only ever sees what a real one could: measured progress
and the *model's* demand estimates.  Ground truth (true demand, hidden
straggler factors, future crash times) lives in the execution substrate
(:mod:`repro.runtime.execution`).  All stochastic draws key off the
root seed, so a (seed, scenario) pair reproduces the identical event
timeline, replan decisions and bill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.base import ElasticApplication
from repro.cloud.provider import CloudProvider, Lease
from repro.core.capacity import configuration_capacity
from repro.core.celia import Celia
from repro.errors import InfeasibleError, ProvisioningError, ValidationError
from repro.obs.metrics import global_registry
from repro.obs.profile import profile_block
from repro.obs.trace import get_tracer
from repro.runtime.chaos import ChaosScenario
from repro.runtime.events import (
    DegradationDecision,
    ExecutionTimeline,
    FallbackToOnDemand,
    InfeasiblePlan,
    Migration,
    NodeCrash,
    ProvisionAttempt,
    ReplanDecision,
    RuntimeEvent,
    SpotInterruption,
    SpotPurchase,
    event_to_dict,
)
from repro.runtime.execution import LeaseExecution
from repro.runtime.retry import RetryPolicy, provision_with_retry
from repro.units import SECONDS_PER_HOUR
from repro.utils.rng import derive_rng, spawn_seed

__all__ = ["RuntimeConfig", "RuntimeReport", "AdaptiveController",
           "degraded_accuracy_search"]

#: Residual demand floor (GI): keeps optimizer queries well-posed when
#: the model believes the work is already done but ground truth disagrees.
_MIN_RESIDUAL_GI = 1e-6


def _delivered_rate(config: tuple[int, ...], capacities: np.ndarray,
                    efficiency: float) -> float:
    """Rate (GI/s) a configuration delivers at the observed efficiency.

    ``U`` is Eq. 3 in the canonical arithmetic, the value its plan (and
    :meth:`~repro.core.celia.Celia.predict`) computed, bit for bit.
    """
    return float(configuration_capacity(np.asarray(config),
                                        capacities)[0]) * efficiency


def degraded_accuracy_search(demand_fn, index, *, floor: float,
                             current: float, integral: bool,
                             residual_deadline_hours: float,
                             residual_budget_dollars: float,
                             work_done_gi: float = 0.0,
                             efficiency: float = 1.0,
                             deadline_safety: float = 1.0):
    """Largest accuracy whose residual demand fits the residual envelope.

    Demand is monotone in the accuracy knob, so the feasible accuracies
    form a prefix of ``[floor, current]`` and bisection finds its upper
    end.  ``demand_fn(accuracy)`` returns total estimated demand in GI;
    ``work_done_gi`` is subtracted to get the residual, and the query is
    inflated by ``1 / efficiency`` for fleets observed running below
    nominal.  Integral knobs (galaxy's step count) bisect on integers.

    Returns ``(accuracy, OptimizerAnswer)`` for the minimal degradation,
    or ``None`` when even the floor is infeasible.  Shared by the
    runtime controller and the planning service's ``replan`` endpoint so
    both degrade identically.
    """

    def attempt(accuracy: float):
        residual = max(demand_fn(accuracy) - work_done_gi, _MIN_RESIDUAL_GI)
        try:
            return index.query(
                residual / efficiency,
                residual_deadline_hours * deadline_safety,
                budget_dollars=residual_budget_dollars)
        except InfeasibleError:
            return None

    if (residual_deadline_hours <= 0 or residual_budget_dollars <= 0
            or floor >= current):
        return None
    floor_answer = attempt(floor)
    if floor_answer is None:
        return None
    lo, hi = floor, current  # lo feasible, hi infeasible
    best_accuracy, best_answer = floor, floor_answer
    while (hi - lo > 1 if integral
           else (hi - lo) > 1e-4 * max(abs(hi), 1.0)):
        mid = (lo + hi) // 2 if integral else 0.5 * (lo + hi)
        answer = attempt(mid)
        if answer is None:
            hi = mid
        else:
            lo = mid
            best_accuracy, best_answer = mid, answer
    return float(best_accuracy), best_answer


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the closed-loop controller."""

    #: Whether deviations trigger re-planning (False = static baseline).
    replan: bool = True
    #: Monitoring cadence; deviations are detected at tick boundaries.
    monitor_interval_hours: float = 0.25
    #: Boot time per provisioning epoch (billed, burns deadline).
    node_startup_seconds: float = 180.0
    #: Plans target this fraction of the residual deadline, leaving
    #: slack for boot, migration and monitoring latency.
    deadline_safety: float = 0.9
    #: Projected overrun fraction tolerated before declaring deviation
    #: (1.0 = re-plan as soon as the projection exceeds the envelope;
    #: the planning safety margin already absorbs model noise).
    deviation_tolerance: float = 1.0
    #: Re-planning budget; exceeding it yields an explicit infeasible
    #: verdict rather than thrashing forever.  Sustained crash hazards
    #: legitimately cost one migration per lost node, so the bound is
    #: generous.
    max_replans: int = 16
    #: Accuracy floor for graceful degradation; ``None`` uses the
    #: smallest accuracy of the app's characterization grid.
    min_accuracy: float | None = None
    #: Provisioning retry schedule.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.monitor_interval_hours <= 0:
            raise ValidationError("monitor interval must be positive")
        if not 0 < self.deadline_safety <= 1:
            raise ValidationError("deadline_safety must be in (0, 1]")
        if self.deviation_tolerance < 1:
            raise ValidationError("deviation_tolerance must be >= 1")
        if self.max_replans < 0:
            raise ValidationError("max_replans must be non-negative")
        if self.node_startup_seconds < 0:
            raise ValidationError("node_startup_seconds must be non-negative")


@dataclass(frozen=True)
class RuntimeReport:
    """Outcome and full audit trail of one closed-loop execution."""

    app_name: str
    n: float
    initial_accuracy: float
    final_accuracy: float
    deadline_hours: float
    budget_dollars: float
    scenario: str
    seed: int
    adaptive: bool
    #: "met" | "degraded" | "missed_deadline" | "over_budget" |
    #: "infeasible" | "failed"
    verdict: str
    elapsed_hours: float
    cost_dollars: float
    work_done_gi: float
    remaining_gi: float
    replans: int
    degradations: int
    migrations: int
    crashes: int
    provision_attempts: int
    timeline: tuple[RuntimeEvent, ...]
    #: Whether the run bought capacity on the spot market.
    market: bool = False
    #: Spot nodes reclaimed by the market during the run.
    spot_interruptions: int = 0
    #: Dollars of ``cost_dollars`` billed at spot (market) prices.
    spot_cost_dollars: float = 0.0
    #: Whether the controller fell back to pure on-demand purchasing.
    ondemand_fallback: bool = False

    @property
    def deadline_met(self) -> bool:
        return self.verdict in ("met", "degraded") \
            and self.elapsed_hours <= self.deadline_hours

    @property
    def budget_met(self) -> bool:
        return self.cost_dollars <= self.budget_dollars

    @property
    def completed(self) -> bool:
        return self.remaining_gi <= 0

    def to_dict(self) -> dict:
        return {
            "app": self.app_name,
            "n": self.n,
            "initial_accuracy": self.initial_accuracy,
            "final_accuracy": self.final_accuracy,
            "deadline_hours": self.deadline_hours,
            "budget_dollars": self.budget_dollars,
            "scenario": self.scenario,
            "seed": self.seed,
            "adaptive": self.adaptive,
            "verdict": self.verdict,
            "elapsed_hours": self.elapsed_hours,
            "cost_dollars": self.cost_dollars,
            "work_done_gi": self.work_done_gi,
            "remaining_gi": self.remaining_gi,
            "deadline_met": self.deadline_met,
            "budget_met": self.budget_met,
            "replans": self.replans,
            "degradations": self.degradations,
            "migrations": self.migrations,
            "crashes": self.crashes,
            "provision_attempts": self.provision_attempts,
            "market": self.market,
            "spot_interruptions": self.spot_interruptions,
            "spot_cost_dollars": self.spot_cost_dollars,
            "ondemand_fallback": self.ondemand_fallback,
            "timeline": [event_to_dict(e) for e in self.timeline],
        }


class _RunState:
    """Mutable bookkeeping of one execution (kept off the controller so
    a controller instance can run many executions)."""

    def __init__(self, n: float, accuracy: float, deadline_hours: float,
                 budget_dollars: float) -> None:
        self.n = n
        self.accuracy = accuracy
        self.initial_accuracy = accuracy
        self.deadline_hours = deadline_hours
        self.budget_dollars = budget_dollars
        self.now_hours = 0.0
        self.last_lease_bill = 0.0
        self.work_done_gi = 0.0
        self.remaining_true_gi = 0.0  # set by the controller
        self.spent_dollars = 0.0
        self.rate_efficiency = 1.0
        self.replans = 0
        self.degradations = 0
        self.migrations = 0
        self.crashes = 0
        self.spot_interruptions = 0
        self.spot_cost_dollars = 0.0
        self.spot_fallback = False
        self.epoch = 0
        self.timeline = ExecutionTimeline()


class AdaptiveController:
    """Closed-loop executor of one CELIA plan on a chaotic cloud.

    Parameters
    ----------
    celia:
        The planning stack; its min-cost index answers every re-plan,
        its demand model supplies residual-demand estimates.
    app:
        The elastic application to run.
    scenario:
        Chaos to inject (:class:`~repro.runtime.chaos.ChaosScenario`).
    config:
        Controller knobs; ``replan=False`` gives the static baseline.
    seed:
        Root seed of every stochastic draw in the run.
    market:
        A :class:`~repro.market.SpotMarket` to buy spot capacity on.
        Omitted but with a ``market_policy`` given, a market is built
        from the scenario's :meth:`~ChaosScenario.market_config` and a
        seed derived off the root seed.
    market_policy:
        How to split purchases between on-demand and spot
        (:class:`~repro.market.MarketPolicy`).  Defaults when a
        ``market`` is given.  With neither, the controller buys pure
        on-demand capacity exactly as before.
    """

    def __init__(self, celia: Celia, app: ElasticApplication, *,
                 scenario: ChaosScenario, config: RuntimeConfig | None = None,
                 seed: int = 0, market=None, market_policy=None):
        self.celia = celia
        self.app = app
        self.scenario = scenario
        self.config = config or RuntimeConfig()
        self.seed = seed
        self._capacities = celia.capacities(app)
        self._index = celia.min_cost_index(app)
        self.market = None
        self.market_policy = None
        self._fleet = None
        self._bid = None
        if market is not None or market_policy is not None:
            # Imported lazily so pure on-demand runs never touch the
            # market subsystem.
            from repro.market import MarketPolicy, SpotFleet, SpotMarket
            if market is None:
                market = SpotMarket(celia.catalog, scenario.market_config(),
                                    seed=spawn_seed(seed, "spot-market"))
            self.market = market
            self.market_policy = market_policy or MarketPolicy()
            self._fleet = SpotFleet(
                market,
                virtualization=celia.engine_config.virtualization,
                seed=spawn_seed(seed, "spot-fleet"))
            self._bid = self.market_policy.make_bid_policy()

    # -- model-side estimates ----------------------------------------------------

    def _estimated_remaining_gi(self, state: _RunState,
                                accuracy: float) -> float:
        """Model-estimated residual demand at a given accuracy knob."""
        total = self.celia.demand_gi(self.app, state.n, accuracy)
        return max(total - state.work_done_gi, _MIN_RESIDUAL_GI)

    def _accuracy_floor(self) -> float:
        if self.config.min_accuracy is not None:
            return self.config.min_accuracy
        _, accuracies = self.app.scale_down_grid()
        return float(np.min(accuracies))

    # -- planning ----------------------------------------------------------------

    def _plan(self, state: _RunState, reason: str):
        """Re-run selection over residual state; degrade if needed.

        Returns the chosen configuration, or ``None`` after recording an
        :class:`InfeasiblePlan` (the caller must stop).
        """
        with get_tracer().span("runtime.replan", {"reason": reason}) as span:
            residual_t = state.deadline_hours - state.now_hours
            residual_c = state.budget_dollars - state.spent_dollars
            est_remaining = self._estimated_remaining_gi(state,
                                                         state.accuracy)
            answer = None
            if residual_t > 0 and residual_c > 0:
                answer = self._affordable(state, est_remaining, residual_t,
                                          residual_c)
            state.timeline.record(ReplanDecision(
                at_hours=state.now_hours, reason=reason,
                remaining_gi=est_remaining,
                residual_deadline_hours=max(residual_t, 0.0),
                residual_budget_dollars=max(residual_c, 0.0),
                feasible=answer is not None,
                configuration=answer.configuration if answer else None,
                projected_time_hours=answer.time_hours if answer else None,
                projected_cost_dollars=answer.cost_dollars
                if answer else None,
            ))
            span.set_attribute("feasible", answer is not None)
            if answer is not None:
                return answer.configuration
            return self._degrade(state, residual_t, residual_c, reason)

    def _affordable(self, state: _RunState, demand_gi: float,
                    residual_t: float, residual_c: float):
        """Cheapest configuration fitting the safety-margined envelope.

        The demand is inflated by the measured rate efficiency — a fleet
        observed running at 80% of nominal (hidden stragglers) needs 25%
        more planned capacity, or the next lease deviates identically.
        """
        try:
            return self._index.query(
                demand_gi / state.rate_efficiency,
                residual_t * self.config.deadline_safety,
                budget_dollars=residual_c)
        except InfeasibleError:
            return None

    def _degrade(self, state: _RunState, residual_t: float,
                 residual_c: float, reason: str):
        """Minimal accuracy degradation restoring feasibility.

        Bisects the accuracy knob over ``[floor, current]`` for the
        largest value whose residual demand fits the residual envelope
        (demand is monotone in accuracy, so the feasible set is a
        prefix).  Integral knobs (galaxy's step count) bisect on
        integers.  Returns the configuration for the degraded plan, or
        ``None`` after recording :class:`InfeasiblePlan`.
        """
        with get_tracer().span("runtime.degrade", {"reason": reason}):
            return self._degrade_inner(state, residual_t, residual_c,
                                       reason)

    def _degrade_inner(self, state: _RunState, residual_t: float,
                       residual_c: float, reason: str):
        floor = self._accuracy_floor()
        infeasible = InfeasiblePlan(
            at_hours=state.now_hours,
            remaining_gi=self._estimated_remaining_gi(state, state.accuracy),
            residual_deadline_hours=max(residual_t, 0.0),
            residual_budget_dollars=max(residual_c, 0.0),
            accuracy_floor=floor,
            detail=f"no feasible configuration after {reason}, even at "
                   f"the accuracy floor {floor:g}",
        )
        found = degraded_accuracy_search(
            lambda acc: self.celia.demand_gi(self.app, state.n, acc),
            self._index, floor=floor, current=state.accuracy,
            integral=self.app.accuracy_integral,
            residual_deadline_hours=residual_t,
            residual_budget_dollars=residual_c,
            work_done_gi=state.work_done_gi,
            efficiency=state.rate_efficiency,
            deadline_safety=self.config.deadline_safety)
        if found is None:
            state.timeline.record(infeasible)
            return None
        best_accuracy, best_answer = found

        before = state.accuracy
        remaining_before = state.remaining_true_gi
        state.accuracy = float(best_accuracy)
        state.remaining_true_gi = max(
            self.app.demand_gi(state.n, state.accuracy)
            - state.work_done_gi, 0.0)
        state.degradations += 1
        state.timeline.record(DegradationDecision(
            at_hours=state.now_hours,
            from_accuracy=before,
            to_accuracy=state.accuracy,
            score_before=self.app.accuracy_score(before),
            score_after=self.app.accuracy_score(state.accuracy),
            remaining_gi_before=remaining_before,
            remaining_gi_after=state.remaining_true_gi,
            configuration=best_answer.configuration,
            reason=reason,
        ))
        return best_answer.configuration

    # -- mixed purchasing --------------------------------------------------------

    def _purchase_split(self, state: _RunState, config: tuple[int, ...]):
        """Split one planned configuration into purchasing vectors.

        Returns ``(ondemand, spot)`` in catalog order; ``spot`` is
        ``None`` when everything is bought on-demand — no market, the
        run has fallen back, or the policy's spot fraction rounds every
        type to zero.  A live split is priced against the market over
        the projected residual duration and recorded as a
        :class:`SpotPurchase`; fallback (interruption tolerance
        exhausted, or residual slack below the policy's floor) is
        permanent for the run and recorded once as a
        :class:`FallbackToOnDemand`.
        """
        if self.market is None:
            return config, None
        from repro.market import purchase_plan

        policy = self.market_policy
        residual_t = max(state.deadline_hours - state.now_hours, 0.0)
        rate = _delivered_rate(config, self._capacities,
                               state.rate_efficiency)
        est_remaining = self._estimated_remaining_gi(state, state.accuracy)
        projected = (est_remaining / rate / SECONDS_PER_HOUR
                     if rate > 0 else float("inf"))
        if not state.spot_fallback:
            reason = None
            if state.spot_interruptions >= policy.fallback_after_interruptions:
                reason = (f"{state.spot_interruptions} spot interruptions "
                          f"reached the tolerance of "
                          f"{policy.fallback_after_interruptions}")
            elif (residual_t <= 0
                  or (residual_t - projected) / residual_t
                  < policy.min_slack_fraction):
                reason = (f"residual deadline slack below "
                          f"{policy.min_slack_fraction:.0%}; not gambling "
                          f"on spot capacity")
            if reason is not None:
                state.spot_fallback = True
                state.timeline.record(FallbackToOnDemand(
                    at_hours=state.now_hours,
                    interruptions=state.spot_interruptions,
                    reason=reason))
        if state.spot_fallback:
            return config, None
        plan = purchase_plan(self.market, config, policy,
                             duration_hours=min(projected, residual_t),
                             start_hours=state.now_hours, bid=self._bid)
        if not any(plan.spot):
            return config, None
        state.timeline.record(SpotPurchase(
            at_hours=state.now_hours,
            configuration=plan.configuration,
            ondemand=plan.ondemand,
            spot=plan.spot,
            bid_policy=plan.bid_policy,
            expected_cost_dollars=plan.expected_cost_dollars,
            ondemand_cost_dollars=plan.ondemand_cost_dollars,
            interruption_risk=plan.interruption_risk,
        ))
        return plan.ondemand, plan.spot

    # -- execution ---------------------------------------------------------------

    def execute(self, n: float, a: float, deadline_hours: float,
                budget_dollars: float,
                *, configuration: tuple[int, ...] | None = None
                ) -> RuntimeReport:
        """Run ``app(n, a)`` under ``(T', C')`` on the chaotic cloud.

        Arguments:
            n: Problem size (app-specific units, e.g. particles).
            a: Initial accuracy knob value; degradation may lower it,
                never below the floor (``config.min_accuracy`` or the
                app's characterization-grid minimum).
            deadline_hours: The envelope deadline ``T'`` (> 0).
            budget_dollars: The envelope budget ``C'`` (> 0).
            configuration: Pins the initial plan (e.g. a frontier point
                chosen by the caller); omitted, the controller plans the
                cheapest deadline-meeting configuration itself.

        Returns a :class:`RuntimeReport` whose ``verdict`` is one of
        ``"met"``, ``"degraded"``, ``"missed_deadline"``,
        ``"over_budget"``, ``"infeasible"`` or ``"failed"`` — the
        controller never raises on chaos; it stops with an explicit
        verdict and a full audit ``timeline``.

        Raises:
            ValidationError: On a non-positive deadline/budget or
                parameters outside the app's valid range.

        The run is wrapped in a ``runtime.execute`` trace span (with
        ``runtime.provision`` / ``runtime.replan`` / ``runtime.degrade``
        children) and its outcome feeds the global ``runtime_*``
        metrics; ``CELIA_PROFILE=1`` additionally profiles the loop
        under the ``runtime.controller`` phase.
        """
        with get_tracer().span("runtime.execute",
                               {"app": self.app.name,
                                "scenario": self.scenario.name,
                                "adaptive": self.config.replan}) as span:
            with profile_block("runtime.controller"):
                report = self._execute(n, a, deadline_hours,
                                       budget_dollars,
                                       configuration=configuration)
            span.set_attribute("verdict", report.verdict)
        registry = global_registry()
        registry.counter("runtime_runs_total").increment()
        registry.counter("runtime_verdicts_total",
                         labels={"verdict": report.verdict}).increment()
        registry.counter("runtime_replans_total").increment(report.replans)
        registry.counter("runtime_degradations_total").increment(
            report.degradations)
        registry.counter("runtime_crashes_total").increment(report.crashes)
        registry.counter("runtime_migrations_total").increment(
            report.migrations)
        registry.counter("runtime_spot_interruptions_total").increment(
            report.spot_interruptions)
        return report

    def _execute(self, n: float, a: float, deadline_hours: float,
                 budget_dollars: float,
                 *, configuration: tuple[int, ...] | None = None
                 ) -> RuntimeReport:
        self.app.validate_params(n, a)
        if deadline_hours <= 0 or budget_dollars <= 0:
            raise ValidationError("deadline and budget must be positive")
        state = _RunState(n, float(a), deadline_hours, budget_dollars)
        state.remaining_true_gi = self.app.demand_gi(n, a)

        provider = CloudProvider(
            self.celia.catalog,
            virtualization=self.celia.engine_config.virtualization,
            billing_model=self.celia.engine_config.billing,
            fault_model=self.scenario.provisioning_faults(self.seed),
            seed=spawn_seed(self.seed, "runtime-provider"),
        )

        if configuration is None:
            config = self._plan(state, reason="initial")
            if config is None:
                return self._report(state, "infeasible")
        else:
            config = tuple(int(v) for v in configuration)

        while True:
            ondemand, spot = self._purchase_split(state, config)
            # -- provision (with retries; backoff burns deadline) --------------
            lease = None
            try:
                if any(ondemand):
                    with get_tracer().span("runtime.provision",
                                           {"epoch": state.epoch}):
                        lease, state.now_hours = provision_with_retry(
                            provider, ondemand, self._capacities,
                            policy=self.config.retry,
                            now_hours=state.now_hours,
                            seed=spawn_seed(self.seed, "retry", state.epoch),
                            timeline=state.timeline)
            except ProvisioningError:
                config = self._next_plan_or_none(state, "provisioning")
                if config is None:
                    return self._report(state, "infeasible")
                continue
            spot_alloc = None
            if spot is not None:
                spot_alloc = self._fleet.launch(
                    spot, self._bid, now_hours=state.now_hours,
                    lease_key=state.epoch)

            outcome = self._run_lease(state, provider, lease, spot_alloc)
            if outcome == "completed":
                return self._final_verdict(state)
            # "stall" | "deviation" | "crash": lease is already terminated
            # (billed); static controllers stop, adaptive ones re-plan.
            if not self.config.replan:
                state.timeline.record(InfeasiblePlan(
                    at_hours=state.now_hours,
                    remaining_gi=state.remaining_true_gi,
                    residual_deadline_hours=max(
                        state.deadline_hours - state.now_hours, 0.0),
                    residual_budget_dollars=max(
                        state.budget_dollars - state.spent_dollars, 0.0),
                    accuracy_floor=self._accuracy_floor(),
                    detail=f"static execution cannot continue after {outcome}",
                ))
                return self._report(state, "failed")
            previous = config
            config = self._next_plan_or_none(state, outcome)
            if config is None:
                return self._report(state, "infeasible")
            state.migrations += 1
            state.timeline.record(Migration(
                at_hours=state.now_hours,
                from_configuration=tuple(previous),
                to_configuration=tuple(config),
                lease_bill_dollars=state.last_lease_bill,
            ))

    def _next_plan_or_none(self, state: _RunState, reason: str):
        """One re-plan, bounded by ``max_replans``."""
        if state.replans >= self.config.max_replans:
            state.timeline.record(InfeasiblePlan(
                at_hours=state.now_hours,
                remaining_gi=state.remaining_true_gi,
                residual_deadline_hours=max(
                    state.deadline_hours - state.now_hours, 0.0),
                residual_budget_dollars=max(
                    state.budget_dollars - state.spent_dollars, 0.0),
                accuracy_floor=self._accuracy_floor(),
                detail=f"re-plan budget ({self.config.max_replans}) "
                       f"exhausted after {reason}",
            ))
            return None
        state.replans += 1
        state.epoch += 1
        return self._plan(state, reason)

    def _run_lease(self, state: _RunState, provider: CloudProvider,
                   lease: Lease | None,
                   spot_alloc=None) -> str:
        """Execute on one lease (plus optional spot allocation) until
        completion or a deviation.

        Returns "completed", "crash", "spot-interruption", "deviation"
        or "stall"; in every non-completed case the lease and the spot
        allocation have been terminated and billed.  Without a spot
        allocation the execution is built exactly as before (same RNG
        keys), so pure on-demand runs replay the seed's legacy
        timeline bit-for-bit.
        """
        cfg = self.config
        ready = state.now_hours + cfg.node_startup_seconds / SECONDS_PER_HOUR
        od_instances = list(lease.instances) if lease is not None else []
        interrupted = None
        if spot_alloc is None:
            instances = od_instances
            nominal = np.array([
                self.app.true_rate_gips(inst.itype) * inst.contention_factor
                for inst in instances
            ])
            execution = LeaseExecution.launch(
                nominal, start_hours=ready,
                fault_model=self.scenario.fault_model(),
                straggler_fraction=self.scenario.straggler_fraction,
                straggler_slowdown=self.scenario.straggler_slowdown,
                seed=self.seed, lease_id=lease.lease_id)
        else:
            # Mixed fleet: the on-demand nodes first, the spot nodes
            # after, sharing one execution so progress and crash order
            # interleave exactly once.  Crash/straggler draws reuse the
            # launch() key shapes; spot nodes additionally die at their
            # pool's market interruption, whichever comes first.
            instances = od_instances + spot_alloc.instances
            nominal = np.array([
                self.app.true_rate_gips(inst.itype) * inst.contention_factor
                for inst in instances
            ])
            n = nominal.size
            lease_key = (lease.lease_id if lease is not None
                         else -(state.epoch + 1))
            fault_model = self.scenario.fault_model()
            crash_rng = derive_rng(self.seed, "crash", lease_key)
            crash_at = (ready
                        + fault_model.sample_crash_seconds(crash_rng, n)
                        / SECONDS_PER_HOUR)
            rates = nominal.astype(float).copy()
            if (self.scenario.straggler_fraction > 0
                    and self.scenario.straggler_slowdown > 1):
                straggler_rng = derive_rng(self.seed, "straggler", lease_key)
                mask = (straggler_rng.uniform(size=n)
                        < self.scenario.straggler_fraction)
                rates[mask] /= self.scenario.straggler_slowdown
            interrupted = np.zeros(n, dtype=bool)
            offset = len(od_instances)
            for j, spot_node in enumerate(spot_alloc.nodes):
                # An interruption during boot still counts: clamp it
                # just past readiness so the node dies on the first
                # advance instead of silently never existing.
                kill = max(spot_node.interruption_at_hours, ready + 1e-9)
                if kill < crash_at[offset + j]:
                    crash_at[offset + j] = kill
                    interrupted[offset + j] = True
            execution = LeaseExecution(rates, crash_at, ready)

        monitoring = cfg.replan
        interrupted_this_advance = False
        while True:
            tick_start = execution.now_hours
            until = (tick_start + cfg.monitor_interval_hours
                     if monitoring else np.inf)
            result = execution.advance(until, state.remaining_true_gi)
            state.work_done_gi += result.work_done_gi
            state.remaining_true_gi -= result.work_done_gi
            state.now_hours = result.now_hours
            crashed_this_advance = bool(result.crashed)
            interrupted_this_advance = False
            for node in result.crashed:
                inst = instances[node]
                if interrupted is not None and interrupted[node]:
                    interrupted_this_advance = True
                    spot_node = spot_alloc.nodes[node - len(od_instances)]
                    state.spot_interruptions += 1
                    state.timeline.record(SpotInterruption(
                        at_hours=float(execution.crash_at[node]),
                        instance_id=inst.instance_id,
                        type_name=inst.itype.name,
                        bid_price=spot_node.bid_price,
                        market_price=self.market.price_at(
                            inst.itype.name,
                            float(execution.crash_at[node])),
                        surviving_nodes=execution.surviving_nodes,
                    ))
                    continue
                state.crashes += 1
                state.timeline.record(NodeCrash(
                    at_hours=float(execution.crash_at[node]),
                    instance_id=inst.instance_id,
                    type_name=inst.itype.name,
                    surviving_nodes=execution.surviving_nodes,
                ))
            if result.completed:
                self._terminate(state, provider, lease, spot_alloc)
                return "completed"
            if result.stalled:
                self._terminate(state, provider, lease, spot_alloc)
                return "stall"
            if not monitoring:
                continue
            if not crashed_this_advance:
                # Measured rate efficiency over a clean tick: retired
                # work vs what the surviving fleet should nominally
                # retire.  This is the observable feedback that lets
                # re-plans buy headroom against hidden stragglers.
                dt_s = (result.now_hours - tick_start) * SECONDS_PER_HOUR
                nominal_alive = float(nominal[execution.alive_mask].sum())
                if dt_s > 0 and nominal_alive > 0:
                    observed = result.work_done_gi / dt_s / nominal_alive
                    state.rate_efficiency = float(
                        np.clip(observed, 0.25, 1.0))
            if self._deviated(state, provider, lease, execution, spot_alloc):
                self._terminate(state, provider, lease, spot_alloc)
                if interrupted_this_advance:
                    return "spot-interruption"
                return "crash" if crashed_this_advance else "deviation"

    def _deviated(self, state: _RunState, provider: CloudProvider,
                  lease: Lease | None, execution: LeaseExecution,
                  spot_alloc=None) -> bool:
        """Projected envelope check at one monitor tick.

        Projections use the *estimated* residual demand and the billing
        model applied to the projected uptime — what a real monitor
        could compute from observables.  Spot capacity is projected at
        the integrated market price up to the projected finish, which
        its bid caps from above.
        """
        est_remaining = self._estimated_remaining_gi(state, state.accuracy)
        finish = execution.projected_finish_hours(est_remaining)
        tol = self.config.deviation_tolerance
        if finish > state.deadline_hours * tol:
            return True
        projected_bill = (self._lease_bill_at(provider, lease, finish)
                          if lease is not None else 0.0)
        if spot_alloc is not None:
            projected_bill += self._fleet.bill_at(spot_alloc, finish)
        return (state.spent_dollars + projected_bill
                > state.budget_dollars * tol)

    @staticmethod
    def _lease_bill_at(provider: CloudProvider, lease: Lease,
                       at_hours: float) -> float:
        return sum(
            provider.billing_model.amount_due(
                inst.itype.price_per_hour, inst.uptime_hours(at_hours))
            for inst in lease.instances
        )

    def _terminate(self, state: _RunState, provider: CloudProvider,
                   lease: Lease | None, spot_alloc=None) -> None:
        bill = 0.0
        if lease is not None:
            bill += provider.terminate(lease, now_hours=state.now_hours)
        if spot_alloc is not None:
            spot_bill = self._fleet.terminate(spot_alloc,
                                              now_hours=state.now_hours)
            state.spot_cost_dollars += spot_bill
            bill += spot_bill
        state.spent_dollars += bill
        state.last_lease_bill = bill

    def _final_verdict(self, state: _RunState) -> RuntimeReport:
        if state.now_hours > state.deadline_hours:
            verdict = "missed_deadline"
        elif state.spent_dollars > state.budget_dollars:
            verdict = "over_budget"
        elif state.degradations:
            verdict = "degraded"
        else:
            verdict = "met"
        return self._report(state, verdict)

    def _report(self, state: _RunState, verdict: str) -> RuntimeReport:
        return RuntimeReport(
            app_name=self.app.name,
            n=state.n,
            initial_accuracy=state.initial_accuracy,
            final_accuracy=state.accuracy,
            deadline_hours=state.deadline_hours,
            budget_dollars=state.budget_dollars,
            scenario=self.scenario.name,
            seed=self.seed,
            adaptive=self.config.replan,
            verdict=verdict,
            elapsed_hours=state.now_hours,
            cost_dollars=state.spent_dollars,
            work_done_gi=state.work_done_gi,
            remaining_gi=state.remaining_true_gi,
            replans=state.replans,
            degradations=state.degradations,
            migrations=state.migrations,
            crashes=state.crashes,
            provision_attempts=state.timeline.count(ProvisionAttempt),
            timeline=state.timeline.events,
            market=self.market is not None,
            spot_interruptions=state.spot_interruptions,
            spot_cost_dollars=state.spot_cost_dollars,
            ondemand_fallback=state.spot_fallback,
        )
