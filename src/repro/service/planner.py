"""`PlannerService` — warm, batched, metered Algorithm-1 serving.

The pipeline's artefacts (catalog → characterization →
:class:`~repro.core.selection.StructuredIndex`, plus the full-space
evaluation and min-cost index once a ``plan``/``replan`` needs them) are
pure functions of a *space signature* ``(app, quota, seed)``; once
built, every query against them is about a millisecond.  A one-shot
process pays the whole chain per request.  This service keeps the chain
**warm** — built once per signature, behind an async lock — and answers
``select`` / ``predict`` / ``plan`` requests from it.

Three serving mechanics sit on top of the warm state:

* **micro-batching** — concurrent ``select`` requests that share a space
  signature are coalesced (for at most ``batch_window_s``, up to
  ``max_batch``) into one vectorized
  :meth:`~repro.core.selection.FrontierIndex.select_batch` pass over the
  structured index, whose
  per-query results are bit-identical to individual calls;
* **admission control** — at most ``max_queue_depth`` requests may be
  admitted-but-unfinished; the next one is rejected immediately with
  :class:`ServiceSaturatedError` (backpressure, not an unbounded queue),
  and each admitted request carries a deadline after which it resolves to
  :class:`RequestTimeoutError`;
* **metering** — every decision increments a
  :class:`~repro.service.metrics.MetricsRegistry` counter, moves a gauge
  or lands in a latency histogram, snapshotted by the ``/metrics``
  endpoint.

Identical requests are answered from a bounded LRU result cache without
consuming queue capacity.  All heavy computation runs in executor
threads, so the event loop — and with it admission control — stays
responsive while a batch is being evaluated.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.apps import application_by_name
from repro.cloud.catalog import Catalog, ec2_catalog
from repro.core.celia import Celia
from repro.core.optimizer import MinCostIndex
from repro.core.planner import max_accuracy_plan, max_problem_size_plan
from repro.errors import ReproError, ValidationError
from repro.obs.trace import get_tracer
from repro.service.faults import ServiceFaults
from repro.service.metrics import MetricsRegistry
from repro.service.serialize import (
    plan_to_dict,
    prediction_to_dict,
    selection_to_dict,
)

__all__ = [
    "KNOWN_APPS",
    "PlannerService",
    "RequestTimeoutError",
    "ServiceConfig",
    "ServiceSaturatedError",
    "SpaceSignature",
]

#: Applications the service will warm state for.
KNOWN_APPS = ("x264", "galaxy", "sand")


class ServiceSaturatedError(ReproError):
    """The admission queue is full; the request was rejected unstarted."""

    def __init__(self, message: str, *, queue_depth: int, max_queue_depth: int):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.max_queue_depth = max_queue_depth


class RequestTimeoutError(ReproError):
    """An admitted request missed its deadline before completing."""

    def __init__(self, message: str, *, timeout_s: float):
        super().__init__(message)
        self.timeout_s = timeout_s


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`PlannerService` instance."""

    #: Admitted-but-unfinished request cap (backpressure threshold).
    max_queue_depth: int = 64
    #: How long a select request may wait for peers to share its batch.
    batch_window_s: float = 0.002
    #: Hard cap on requests coalesced into one vectorized pass.
    max_batch: int = 32
    #: Entries kept in the canonical-request result cache.
    result_cache_size: int = 1024
    #: LRU cap on warm signatures (None = unbounded).  With a fleet of
    #: shards serving an open tenant population this is the RAM bound:
    #: the least-recently-used signature's state is dropped and lazily
    #: rebuilt on its next request — characterization plus a
    #: millisecond structured build, bit-identical either way.
    max_warm_states: "int | None" = None
    #: Deadline applied when a request does not carry its own.
    default_timeout_s: float = 30.0
    #: Catalog quota used for signatures that do not override it.
    default_quota: int = 5
    #: Measurement seed used for signatures that do not override it.
    default_seed: int = 0
    #: Space-sweep parallelism forwarded to :class:`Celia`.
    workers: "int | str | None" = "auto"
    #: Evaluation-cache directory forwarded to :class:`Celia`.
    cache_dir: "str | bool | None" = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValidationError("max_queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if self.batch_window_s < 0:
            raise ValidationError("batch_window_s must be non-negative")
        if self.result_cache_size < 0:
            raise ValidationError("result_cache_size must be non-negative")
        if self.default_timeout_s <= 0:
            raise ValidationError("default_timeout_s must be positive")
        if self.max_warm_states is not None and self.max_warm_states < 1:
            raise ValidationError("max_warm_states must be >= 1 (or None)")


@dataclass(frozen=True, slots=True)
class SpaceSignature:
    """What the warm state depends on — the micro-batching key."""

    app: str
    quota: int
    seed: int


class _WarmState:
    """Everything needed to answer queries for one signature.

    Selections need only the structured index (milliseconds, no sweep),
    built with the state.  The full-space evaluation and its min-cost
    index serve ``plan``/``replan`` alone, so they are built on the
    first such request, under a lock, and published last: executor
    threads see either nothing or the finished index.
    """

    def __init__(self, celia: Celia, app, metrics: MetricsRegistry) -> None:
        self.celia = celia
        self.app = app
        self.metrics = metrics
        # Force the selection artefacts now, inside the executor thread
        # that builds the state, so queries never pay for them.
        self.index = celia.selection_index(app)
        self.index.ensure_feasibility()
        self.demand_model = celia.demand_model(app)
        self._min_cost: "MinCostIndex | None" = None
        self._min_cost_lock = threading.Lock()

    @property
    def min_cost(self) -> MinCostIndex:
        """The deadline-query index over the full space (built lazily)."""
        if self._min_cost is None:
            with self._min_cost_lock:
                if self._min_cost is None:
                    sweep = self.celia.evaluation(self.app).sweep_stats()
                    if sweep is not None:
                        # The sweep found checkpoint shards and resumed
                        # from them instead of re-sweeping; surface it.
                        self.metrics.counter("warm_spans_resumed").increment(
                            sweep.spans_resumed)
                        self.metrics.counter("warm_spans_swept").increment(
                            sweep.spans_evaluated)
                    self._min_cost = self.celia.min_cost_index(self.app)
        return self._min_cost


class _PendingSelect:
    """One select query waiting for its batch to flush."""

    __slots__ = ("demand_gi", "deadline_hours", "budget_dollars", "top",
                 "cache_key", "future")

    def __init__(self, demand_gi: float, deadline_hours: float,
                 budget_dollars: float, top: int, cache_key: str,
                 future: asyncio.Future):
        self.demand_gi = demand_gi
        self.deadline_hours = deadline_hours
        self.budget_dollars = budget_dollars
        self.top = top
        self.cache_key = cache_key
        self.future = future


class PlannerService:
    """Asyncio planning service over warm CELIA state.

    Parameters
    ----------
    config:
        Queueing/batching/caching tunables (:class:`ServiceConfig`).
    faults:
        Optional induced slowness (:class:`ServiceFaults`) for tests and
        load studies.
    metrics:
        A registry to record into; a private one is created if omitted.
    catalog_factory:
        Maps a quota to a :class:`Catalog`; defaults to the paper's
        Table III catalog.  Lets tests serve tiny spaces.
    """

    def __init__(
        self,
        *,
        config: ServiceConfig | None = None,
        faults: ServiceFaults | None = None,
        metrics: MetricsRegistry | None = None,
        catalog_factory: Callable[[int], Catalog] | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.faults = faults or ServiceFaults()
        self.metrics = metrics or MetricsRegistry()
        self._catalog_factory = catalog_factory or (
            lambda quota: ec2_catalog(max_nodes_per_type=quota))
        self._states: OrderedDict[SpaceSignature, _WarmState] = OrderedDict()
        self._state_locks: dict[SpaceSignature, asyncio.Lock] = {}
        self._pending: dict[SpaceSignature, list[_PendingSelect]] = {}
        self._flush_handles: dict[SpaceSignature, asyncio.TimerHandle] = {}
        self._result_cache: OrderedDict[str, dict] = OrderedDict()
        self._in_flight = 0

    # -- signatures and warm state ---------------------------------------------

    def signature(self, app: str, *, quota: int | None = None,
                  seed: int | None = None) -> SpaceSignature:
        """The space signature a request resolves to."""
        if app not in KNOWN_APPS:
            raise ValidationError(
                f"unknown application {app!r}; expected one of {KNOWN_APPS}")
        return SpaceSignature(
            app=app,
            quota=self.config.default_quota if quota is None else int(quota),
            seed=self.config.default_seed if seed is None else int(seed),
        )

    @property
    def warm_signatures(self) -> tuple[SpaceSignature, ...]:
        """Signatures whose state is currently warm."""
        return tuple(self._states)

    async def warm(self, app: str, *, quota: int | None = None,
                   seed: int | None = None) -> SpaceSignature:
        """Build (or reuse) the warm state for one signature."""
        signature = self.signature(app, quota=quota, seed=seed)
        await self._ensure_state(signature)
        return signature

    async def _ensure_state(self, signature: SpaceSignature) -> _WarmState:
        state = self._states.get(signature)
        if state is not None:
            self._states.move_to_end(signature)  # LRU touch
            return state
        lock = self._state_locks.setdefault(signature, asyncio.Lock())
        async with lock:
            state = self._states.get(signature)  # racing warmers: reuse
            if state is not None:
                self._states.move_to_end(signature)
            if state is None:
                t0 = time.perf_counter()
                state = await asyncio.get_running_loop().run_in_executor(
                    None, self._build_state, signature)
                self._states[signature] = state
                self.metrics.gauge("warm_signatures").set(len(self._states))
                self.metrics.histogram("warm_build_s").observe(
                    time.perf_counter() - t0)
                if state.celia.last_index_from_snapshot:
                    # Never true on the structured path, which reads no
                    # snapshot: the series stays at zero.
                    self.metrics.counter("warm_from_snapshot").increment()
                    self.metrics.histogram("warm_load_s").observe(
                        state.celia.last_index_load_s)
                self._evict_excess()
        return state

    def _evict_excess(self) -> None:
        """Drop least-recently-used warm states over ``max_warm_states``.

        Signatures with a pending micro-batch are skipped — their flush
        callback still needs the state — and picked up by a later
        eviction pass.  An evicted signature rebuilds lazily (and
        bit-identically) on its next request.
        """
        limit = self.config.max_warm_states
        if limit is None:
            return
        while len(self._states) > limit:
            # Never the most-recent entry (the state just ensured for the
            # caller) and never one with a pending micro-batch — its
            # flush callback still resolves through ``self._states``.
            candidates = list(self._states)[:-1]
            victim = next((s for s in candidates if s not in self._pending),
                          None)
            if victim is None:
                return  # everything old is mid-batch; try again later
            del self._states[victim]
            self._state_locks.pop(victim, None)
            self.metrics.counter("warm_evictions").increment()
            self.metrics.gauge("warm_signatures").set(len(self._states))

    def _build_state(self, signature: SpaceSignature) -> _WarmState:
        self.faults.on_warm()
        celia = Celia(
            self._catalog_factory(signature.quota),
            seed=signature.seed,
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
        )
        return _WarmState(celia, application_by_name(signature.app,
                                                     seed=signature.seed),
                          self.metrics)

    # -- admission, caching, timeouts ------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently admitted and unfinished."""
        return self._in_flight

    def _admit(self) -> None:
        if self._in_flight >= self.config.max_queue_depth:
            self.metrics.counter("rejected_saturated").increment()
            raise ServiceSaturatedError(
                f"queue full ({self._in_flight} in flight, "
                f"max {self.config.max_queue_depth}); retry later",
                queue_depth=self._in_flight,
                max_queue_depth=self.config.max_queue_depth,
            )
        self._in_flight += 1
        self.metrics.gauge("queue_depth").set(self._in_flight)

    def _release(self) -> None:
        self._in_flight -= 1
        self.metrics.gauge("queue_depth").set(self._in_flight)

    @staticmethod
    def _cache_key(kind: str, signature: SpaceSignature, **fields) -> str:
        payload = {"kind": kind, "app": signature.app,
                   "quota": signature.quota, "seed": signature.seed}
        payload.update(fields)
        return json.dumps(payload, sort_keys=True)

    def _cache_get(self, key: str) -> dict | None:
        cached = self._result_cache.get(key)
        if cached is None:
            self.metrics.counter("cache_misses").increment()
            return None
        self._result_cache.move_to_end(key)
        self.metrics.counter("cache_hits").increment()
        return cached

    def _cache_put(self, key: str, payload: dict) -> None:
        if self.config.result_cache_size == 0:
            return
        self._result_cache[key] = payload
        self._result_cache.move_to_end(key)
        while len(self._result_cache) > self.config.result_cache_size:
            self._result_cache.popitem(last=False)

    async def _with_deadline(self, awaitable, timeout_s: float | None,
                             kind: str):
        timeout = (self.config.default_timeout_s
                   if timeout_s is None else float(timeout_s))
        if timeout <= 0:
            raise ValidationError("timeout_s must be positive")
        try:
            return await asyncio.wait_for(awaitable, timeout)
        except asyncio.TimeoutError:
            self.metrics.counter("rejected_timeout").increment()
            raise RequestTimeoutError(
                f"{kind} request missed its {timeout:g}s deadline",
                timeout_s=timeout,
            ) from None

    def _respond(self, kind: str, payload: dict, *, cached: bool,
                 t0: float) -> dict:
        latency = time.perf_counter() - t0
        self.metrics.counter("requests_total").increment()
        self.metrics.counter(f"requests_{kind}").increment()
        self.metrics.histogram(f"latency_{kind}_s").observe(latency)
        return {"kind": kind, "cached": cached, "result": payload}

    # -- select: micro-batched -------------------------------------------------

    async def select(self, app: str, n: float, a: float,
                     deadline_hours: float, budget_dollars: float,
                     *, top: int = 0, quota: int | None = None,
                     seed: int | None = None,
                     timeout_s: float | None = None) -> dict:
        """Algorithm 1 under (deadline, budget), batched across callers."""
        t0 = time.perf_counter()
        signature = self.signature(app, quota=quota, seed=seed)
        key = self._cache_key("select", signature, n=float(n), a=float(a),
                              deadline_hours=float(deadline_hours),
                              budget_dollars=float(budget_dollars),
                              top=int(top))
        cached = self._cache_get(key)
        if cached is not None:
            return self._respond("select", cached, cached=True, t0=t0)
        self._admit()
        try:
            payload = await self._with_deadline(
                self._select_uncached(signature, key, float(n), float(a),
                                      float(deadline_hours),
                                      float(budget_dollars), int(top)),
                timeout_s, "select")
        finally:
            self._release()
        return self._respond("select", payload, cached=False, t0=t0)

    async def _select_uncached(self, signature: SpaceSignature, key: str,
                               n: float, a: float, deadline_hours: float,
                               budget_dollars: float, top: int) -> dict:
        state = await self._ensure_state(signature)
        demand = state.celia.demand_gi(state.app, n, a)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _PendingSelect(demand, deadline_hours, budget_dollars,
                                 top, key, future)
        batch = self._pending.setdefault(signature, [])
        batch.append(pending)
        if len(batch) >= self.config.max_batch:
            self._flush(signature)
        elif len(batch) == 1:
            self._flush_handles[signature] = \
                asyncio.get_running_loop().call_later(
                    self.config.batch_window_s,
                    self._flush, signature)
        return await future

    def _flush(self, signature: SpaceSignature) -> None:
        """Move the signature's pending queries into one executor batch."""
        handle = self._flush_handles.pop(signature, None)
        if handle is not None:
            handle.cancel()
        batch = self._pending.pop(signature, [])
        if not batch:
            return
        state = self._states[signature]
        self.metrics.counter("batches_total").increment()
        self.metrics.histogram("batch_size").observe(len(batch))
        loop = asyncio.get_running_loop()
        task = loop.run_in_executor(None, self._compute_batch, state, batch)
        task.add_done_callback(lambda t: self._resolve_batch(t, batch))

    def _compute_batch(self, state: _WarmState,
                       batch: list[_PendingSelect]) -> list[dict]:
        self.faults.on_compute()
        results = state.index.select_batch(
            [p.demand_gi for p in batch],
            [p.deadline_hours for p in batch],
            [p.budget_dollars for p in batch],
        )
        return [selection_to_dict(result, top=p.top)
                for result, p in zip(results, batch)]

    def _resolve_batch(self, task, batch: list[_PendingSelect]) -> None:
        error = task.exception()
        payloads = None if error is not None else task.result()
        for i, p in enumerate(batch):
            if p.future.done():  # timed out and cancelled while computing
                continue
            if error is not None:
                p.future.set_exception(error)
            else:
                self._cache_put(p.cache_key, payloads[i])
                p.future.set_result(payloads[i])

    # -- predict / plan: per-request compute -----------------------------------

    async def predict(self, app: str, n: float, a: float,
                      configuration: "list[int] | tuple[int, ...]",
                      *, quota: int | None = None, seed: int | None = None,
                      timeout_s: float | None = None) -> dict:
        """Eq. 2/5 prediction for one explicit configuration."""
        t0 = time.perf_counter()
        signature = self.signature(app, quota=quota, seed=seed)
        config = [int(v) for v in configuration]
        key = self._cache_key("predict", signature, n=float(n), a=float(a),
                              configuration=config)
        cached = self._cache_get(key)
        if cached is not None:
            return self._respond("predict", cached, cached=True, t0=t0)
        self._admit()
        try:
            payload = await self._with_deadline(
                self._compute_simple(signature, key, self._predict_payload,
                                     float(n), float(a), tuple(config)),
                timeout_s, "predict")
        finally:
            self._release()
        return self._respond("predict", payload, cached=False, t0=t0)

    def _predict_payload(self, state: _WarmState, n: float, a: float,
                         configuration: tuple[int, ...]) -> dict:
        return prediction_to_dict(
            state.celia.predict(state.app, n, a, configuration))

    async def plan(self, app: str, deadline_hours: float,
                   budget_dollars: float, *, fix_size: float | None = None,
                   fix_accuracy: float | None = None,
                   knob_range: tuple[float, float],
                   integral: bool = False, quota: int | None = None,
                   seed: int | None = None,
                   timeout_s: float | None = None) -> dict:
        """Best affordable accuracy (or problem size) under (T', C')."""
        t0 = time.perf_counter()
        if (fix_size is None) == (fix_accuracy is None):
            raise ValidationError(
                "exactly one of fix_size / fix_accuracy must be given")
        signature = self.signature(app, quota=quota, seed=seed)
        lo, hi = (float(knob_range[0]), float(knob_range[1]))
        key = self._cache_key(
            "plan", signature, deadline_hours=float(deadline_hours),
            budget_dollars=float(budget_dollars), fix_size=fix_size,
            fix_accuracy=fix_accuracy, range=[lo, hi],
            integral=bool(integral))
        cached = self._cache_get(key)
        if cached is not None:
            return self._respond("plan", cached, cached=True, t0=t0)
        self._admit()
        try:
            payload = await self._with_deadline(
                self._compute_simple(signature, key, self._plan_payload,
                                     float(deadline_hours),
                                     float(budget_dollars), fix_size,
                                     fix_accuracy, (lo, hi), bool(integral)),
                timeout_s, "plan")
        finally:
            self._release()
        return self._respond("plan", payload, cached=False, t0=t0)

    def _plan_payload(self, state: _WarmState, deadline_hours: float,
                      budget_dollars: float, fix_size: float | None,
                      fix_accuracy: float | None,
                      knob_range: tuple[float, float],
                      integral: bool) -> dict:
        if fix_size is not None:
            plan = max_accuracy_plan(
                state.demand_model, state.min_cost, float(fix_size),
                knob_range, deadline_hours, budget_dollars,
                integral=integral)
        else:
            plan = max_problem_size_plan(
                state.demand_model, state.min_cost, float(fix_accuracy),
                knob_range, deadline_hours, budget_dollars,
                integral=integral)
        return plan_to_dict(plan)

    async def replan(self, app: str, remaining_gi: float,
                     residual_deadline_hours: float,
                     residual_budget_dollars: float, *,
                     n: float | None = None, accuracy: float | None = None,
                     min_accuracy: float | None = None,
                     work_done_gi: float = 0.0, efficiency: float = 1.0,
                     quota: int | None = None, seed: int | None = None,
                     timeout_s: float | None = None) -> dict:
        """Re-plan over residual state for a closed-loop runtime.

        Finds the cheapest configuration finishing ``remaining_gi`` GI
        within the residual envelope.  When none exists and the caller
        supplies its run parameters (``n``, current ``accuracy``), the
        accuracy knob is degraded minimally
        (:func:`repro.runtime.controller.degraded_accuracy_search`) —
        the same search the in-process controller runs, exposed over
        HTTP.  Not cached: residual states are effectively unique.
        Every call lands in ``replans_total``; degraded answers also in
        ``degradations_total``.
        """
        t0 = time.perf_counter()
        if remaining_gi <= 0:
            raise ValidationError("remaining_gi must be positive")
        if not 0 < efficiency <= 1:
            raise ValidationError("efficiency must be in (0, 1]")
        signature = self.signature(app, quota=quota, seed=seed)
        self._admit()
        try:
            payload = await self._with_deadline(
                self._compute_replan(signature, float(remaining_gi),
                                     float(residual_deadline_hours),
                                     float(residual_budget_dollars),
                                     n, accuracy, min_accuracy,
                                     float(work_done_gi), float(efficiency)),
                timeout_s, "replan")
        finally:
            self._release()
        self.metrics.counter("replans_total").increment()
        if payload.get("degraded"):
            self.metrics.counter("degradations_total").increment()
        return self._respond("replan", payload, cached=False, t0=t0)

    async def _compute_replan(self, signature: SpaceSignature,
                              remaining_gi: float, residual_t: float,
                              residual_c: float, n: float | None,
                              accuracy: float | None,
                              min_accuracy: float | None,
                              work_done_gi: float,
                              efficiency: float) -> dict:
        state = await self._ensure_state(signature)

        def compute() -> dict:
            self.faults.on_compute()
            return self._replan_payload(state, remaining_gi, residual_t,
                                        residual_c, n, accuracy,
                                        min_accuracy, work_done_gi,
                                        efficiency)

        return await asyncio.get_running_loop().run_in_executor(None, compute)

    def _replan_payload(self, state: _WarmState, remaining_gi: float,
                        residual_t: float, residual_c: float,
                        n: float | None, accuracy: float | None,
                        min_accuracy: float | None, work_done_gi: float,
                        efficiency: float) -> dict:
        from repro.errors import InfeasibleError
        from repro.runtime.controller import degraded_accuracy_search

        base = {
            "remaining_gi": remaining_gi,
            "residual_deadline_hours": residual_t,
            "residual_budget_dollars": residual_c,
            "efficiency": efficiency,
        }
        try:
            answer = state.min_cost.query(remaining_gi / efficiency,
                                          residual_t,
                                          budget_dollars=residual_c)
        except InfeasibleError:
            answer = None
        if answer is not None:
            return {**base, "feasible": True, "degraded": False,
                    "configuration": list(answer.configuration),
                    "time_hours": answer.time_hours,
                    "cost_dollars": answer.cost_dollars}
        if n is None or accuracy is None:
            return {**base, "feasible": False, "degraded": False,
                    "detail": "no feasible configuration; supply n and "
                              "accuracy to search degraded plans"}
        floor = (float(min_accuracy) if min_accuracy is not None
                 else float(min(state.app.scale_down_grid()[1])))
        found = degraded_accuracy_search(
            lambda acc: state.celia.demand_gi(state.app, float(n), acc),
            state.min_cost, floor=floor, current=float(accuracy),
            integral=state.app.accuracy_integral,
            residual_deadline_hours=residual_t,
            residual_budget_dollars=residual_c,
            work_done_gi=work_done_gi, efficiency=efficiency)
        if found is None:
            return {**base, "feasible": False, "degraded": False,
                    "accuracy_floor": floor,
                    "detail": "infeasible even at the accuracy floor"}
        degraded_accuracy, degraded_answer = found
        return {**base, "feasible": True, "degraded": True,
                "accuracy": degraded_accuracy,
                "accuracy_score": state.app.accuracy_score(degraded_accuracy),
                "configuration": list(degraded_answer.configuration),
                "time_hours": degraded_answer.time_hours,
                "cost_dollars": degraded_answer.cost_dollars}

    async def _compute_simple(self, signature: SpaceSignature, key: str,
                              fn, *args) -> dict:
        """Warm the state, run ``fn`` in an executor, cache its payload."""
        state = await self._ensure_state(signature)

        def compute() -> dict:
            self.faults.on_compute()
            return fn(state, *args)

        payload = await asyncio.get_running_loop().run_in_executor(
            None, compute)
        self._cache_put(key, payload)
        return payload

    # -- generic request dispatch (used by the HTTP front-end) -----------------

    async def handle(self, request: dict) -> dict:
        """Dispatch one decoded JSON request by its ``kind`` field.

        Arguments:
            request: The decoded JSON body; must be an object whose
                ``kind`` is one of ``select``/``predict``/``plan``/
                ``replan``, plus that kind's fields (see ``docs/api.md``).

        Returns the response envelope ``{"kind", "cached", "result"}``.

        Raises:
            ValidationError: Malformed or unknown-kind requests.
            ServiceSaturatedError: Admission queue full.
            RequestTimeoutError: Deadline missed while queued/running.
            InfeasibleError: No configuration satisfies the envelope.
        """
        if not isinstance(request, dict):
            raise ValidationError("request body must be a JSON object")
        kind = request.get("kind")
        with get_tracer().span(f"service.{kind}"):
            return await self._handle_inner(kind, request)

    async def _handle_inner(self, kind, request: dict) -> dict:
        common = {k: request.get(k) for k in ("quota", "seed", "timeout_s")}
        try:
            if kind == "select":
                return await self.select(
                    request["app"], float(request["n"]), float(request["a"]),
                    float(request["deadline_hours"]),
                    float(request["budget_dollars"]),
                    top=int(request.get("top", 0)), **common)
            if kind == "predict":
                return await self.predict(
                    request["app"], float(request["n"]), float(request["a"]),
                    request["configuration"], **common)
            if kind == "plan":
                knob_range = request["range"]
                if not (isinstance(knob_range, (list, tuple))
                        and len(knob_range) == 2):
                    raise ValidationError("range must be [lo, hi]")
                return await self.plan(
                    request["app"], float(request["deadline_hours"]),
                    float(request["budget_dollars"]),
                    fix_size=request.get("fix_size"),
                    fix_accuracy=request.get("fix_accuracy"),
                    knob_range=(float(knob_range[0]), float(knob_range[1])),
                    integral=bool(request.get("integral", False)), **common)
            if kind == "replan":
                return await self.replan(
                    request["app"], float(request["remaining_gi"]),
                    float(request["residual_deadline_hours"]),
                    float(request["residual_budget_dollars"]),
                    n=request.get("n"), accuracy=request.get("accuracy"),
                    min_accuracy=request.get("min_accuracy"),
                    work_done_gi=float(request.get("work_done_gi", 0.0)),
                    efficiency=float(request.get("efficiency", 1.0)),
                    **common)
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed {kind} request: {exc}") from exc
        raise ValidationError(
            f"unknown request kind {kind!r}; "
            f"expected select/predict/plan/replan")
