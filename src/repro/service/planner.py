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

* **micro-batching** — ``select`` requests that share a space signature
  are coalesced (up to ``max_batch``) into one vectorized
  :meth:`~repro.core.selection.FrontierIndex.slices` pass over the
  structured index, whose per-query results are bit-identical to
  individual calls.  There is no timer: a request for an idle signature
  flushes on the next event-loop tick, together with whatever arrived in
  the same tick, and requests that arrive while a signature's batch runs
  queue behind it and flush when it resolves.  A lone request never
  waits, and under load batches grow by themselves;
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
consuming queue capacity.

Answers are encoded once, when they are produced: the result cache holds
each payload as JSON text, and a request's :class:`Envelope` wraps that
text.  A select's text comes from the warm state's
:class:`~repro.service.serialize.SelectionEncoder` — per-frontier-point
fragments, each built the first time a query shows its point — so a
select builds no :class:`~repro.core.selection.ParetoPoint` and no dict
tree; it is the same text as ``json.dumps(selection_to_dict(...))``.
:meth:`handle` and the per-kind methods decode the envelope back to a
dict for in-process callers; the shard worker sends its bytes as they
are.

Where the work runs: a select batch is a fraction of a millisecond of
NumPy, so it runs in a task on the event loop — a thread hop would cost
more than the batch.  State builds and ``plan``/``replan`` (which may
sweep the full space) run in executor threads, so the loop, and with it
admission control, stays responsive meanwhile.  A signature's
measurements (Section IV's characterization and demand fit) outlive its
warm state in a bounded table, so an evicted signature rebuilds only its
structured index, in about 2 ms.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from repro.apps import application_by_name
from repro.cloud.catalog import Catalog, ec2_catalog
from repro.core.celia import Celia
from repro.core.characterization import CharacterizationResult
from repro.core.optimizer import MinCostIndex
from repro.core.planner import max_accuracy_plan, max_problem_size_plan
from repro.errors import ReproError, ValidationError
from repro.measurement.fitting import FittedDemand
from repro.obs.trace import get_tracer
from repro.service.faults import ServiceFaults
from repro.service.metrics import MetricsRegistry
from repro.service.serialize import (
    SelectionEncoder,
    plan_to_dict,
    prediction_to_dict,
    # Unused here since selects are encoded from fragments; the
    # benchmark ledger (benchmarks/suite/ledger.py) still wraps this
    # binding as its ``service.serialize`` layer.
    selection_to_dict,  # noqa: F401
)

__all__ = [
    "KNOWN_APPS",
    "Envelope",
    "PlannerService",
    "RequestTimeoutError",
    "ServiceConfig",
    "ServiceSaturatedError",
    "SpaceSignature",
]

#: Applications the service will warm state for.
KNOWN_APPS = ("x264", "galaxy", "sand")

#: Evicted signatures whose measurements the service keeps (the oldest
#: eviction dropped first).  An entry — a ``CharacterizationResult`` and a
#: ``FittedDemand``, both frozen — is ~1.1 KB pickled and ~2.3 KB as live
#: objects, against 35 KB (quota 3) to 223 KB (quota 5) pickled for one
#: structured index: 1,024 entries hold ~2.3 MB, about what ten quota-5
#: indexes take, for a tenant population far beyond ``max_warm_states``.
MAX_KEPT_MEASUREMENTS = 1024


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
    #: Hard cap on requests coalesced into one vectorized pass.
    max_batch: int = 32
    #: Entries kept in the canonical-request result cache.
    result_cache_size: int = 1024
    #: LRU cap on warm signatures (None = unbounded).  With a fleet of
    #: shards serving an open tenant population this is the RAM bound:
    #: the least-recently-used signature's structured index (and any
    #: ``plan``/``replan`` evaluation arrays) is dropped and lazily
    #: rebuilt on its next request from the kept measurements — about
    #: 2 ms, bit-identical either way.
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
        if self.result_cache_size < 0:
            raise ValidationError("result_cache_size must be non-negative")
        if self.default_timeout_s <= 0:
            raise ValidationError("default_timeout_s must be positive")
        if self.max_warm_states is not None and self.max_warm_states < 1:
            raise ValidationError("max_warm_states must be >= 1 (or None)")


class Envelope(NamedTuple):
    """One answered request, its result already JSON text.

    :meth:`to_bytes` is what ``json.dumps`` writes for the response
    ``{"kind", "cached", "result"}``, built around ``result`` without
    re-encoding it; :meth:`to_dict` is the same response decoded.
    """

    kind: str
    cached: bool
    result: str

    def to_bytes(self) -> bytes:
        """The response as UTF-8 JSON (``json.dumps`` spacing)."""
        cached = "true" if self.cached else "false"
        return (f'{{"kind": "{self.kind}", "cached": {cached}, '
                f'"result": {self.result}}}').encode("utf-8")

    def to_dict(self) -> dict:
        """The response as a dict (the result decoded from its text)."""
        return {"kind": self.kind, "cached": self.cached,
                "result": json.loads(self.result)}


def _decoded(method):
    """The public face of an :class:`Envelope` method: the same call,
    answering the envelope decoded to a dict."""

    @functools.wraps(method)
    async def decoded(self, *args, **kwargs) -> dict:
        return (await method(self, *args, **kwargs)).to_dict()

    return decoded


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
        self.encoder = SelectionEncoder(self.index)
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
        #: Measurements of evicted signatures, oldest eviction first (at
        #: most ``MAX_KEPT_MEASUREMENTS``); a rebuild takes its entry.
        self._measurements: OrderedDict[
            SpaceSignature, tuple[CharacterizationResult, FittedDemand]] = \
            OrderedDict()
        #: Select queries waiting for their signature's next batch.
        self._pending: dict[SpaceSignature, list[_PendingSelect]] = {}
        #: Signatures with a batch in flight.
        self._running: set[SpaceSignature] = set()
        #: Canonical request → result JSON text.
        self._result_cache: OrderedDict[str, str] = OrderedDict()
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
                    None, self._build_state, signature,
                    self._measurements.pop(signature, None))
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

        Signatures with a queued or running micro-batch are skipped —
        their flush still needs the state — and picked up by a later
        eviction pass.  An evicted signature keeps its measurements and
        rebuilds lazily (and bit-identically) on its next request.
        """
        limit = self.config.max_warm_states
        if limit is None:
            return
        while len(self._states) > limit:
            # Never the most-recent entry (the state just ensured for the
            # caller) and never one with a queued or running micro-batch —
            # its next flush still resolves through ``self._states``.
            candidates = list(self._states)[:-1]
            victim = next((s for s in candidates if s not in self._pending
                           and s not in self._running), None)
            if victim is None:
                return  # everything old is mid-batch; try again later
            self._keep_measurements(victim, self._states.pop(victim))
            self._state_locks.pop(victim, None)
            self.metrics.counter("warm_evictions").increment()
            self.metrics.gauge("warm_signatures").set(len(self._states))

    def _build_state(self, signature: SpaceSignature,
                     kept: "tuple[CharacterizationResult, FittedDemand] | None"
                     ) -> _WarmState:
        self.faults.on_warm()
        celia = Celia(
            self._catalog_factory(signature.quota),
            seed=signature.seed,
            workers=self.config.workers,
            cache_dir=self.config.cache_dir,
        )
        app = application_by_name(signature.app, seed=signature.seed)
        if kept is not None:
            celia.adopt_measurements(app, *kept)
        return _WarmState(celia, app, self.metrics)

    def _keep_measurements(self, signature: SpaceSignature,
                           state: _WarmState) -> None:
        """Remember an evicted state's measurements for its rebuild."""
        self._measurements[signature] = (
            state.celia.characterization(state.app), state.demand_model)
        while len(self._measurements) > MAX_KEPT_MEASUREMENTS:
            self._measurements.popitem(last=False)

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

    def _cache_get(self, key: str) -> str | None:
        cached = self._result_cache.get(key)
        if cached is None:
            self.metrics.counter("cache_misses").increment()
            return None
        self._result_cache.move_to_end(key)
        self.metrics.counter("cache_hits").increment()
        return cached

    def _cache_put(self, key: str, payload: str) -> None:
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

    async def _serve(self, kind: str, key: "str | None", compute,
                     timeout_s: float | None) -> Envelope:
        """Answer from the result cache, or admit ``compute()``.

        ``compute`` returns an awaitable of the result's JSON text, run
        under the request's deadline; a ``key`` of None skips the cache.
        """
        t0 = time.perf_counter()
        cached = None if key is None else self._cache_get(key)
        if cached is None:
            self._admit()
            try:
                payload = await self._with_deadline(compute(), timeout_s,
                                                    kind)
            finally:
                self._release()
        else:
            payload = cached
        self.metrics.counter("requests_total").increment()
        self.metrics.counter(f"requests_{kind}").increment()
        self.metrics.histogram(f"latency_{kind}_s").observe(
            time.perf_counter() - t0)
        return Envelope(kind, cached is not None, payload)

    # -- select: micro-batched -------------------------------------------------

    async def _select(self, app: str, n: float, a: float,
                      deadline_hours: float, budget_dollars: float,
                      *, top: int = 0, quota: int | None = None,
                      seed: int | None = None,
                      timeout_s: float | None = None) -> Envelope:
        """Algorithm 1 under (deadline, budget), batched across callers."""
        signature = self.signature(app, quota=quota, seed=seed)
        key = self._cache_key("select", signature, n=float(n), a=float(a),
                              deadline_hours=float(deadline_hours),
                              budget_dollars=float(budget_dollars),
                              top=int(top))
        return await self._serve("select", key, lambda: self._select_uncached(
            signature, key, float(n), float(a), float(deadline_hours),
            float(budget_dollars), int(top)), timeout_s)

    select = _decoded(_select)

    async def _select_uncached(self, signature: SpaceSignature, key: str,
                               n: float, a: float, deadline_hours: float,
                               budget_dollars: float, top: int) -> str:
        state = await self._ensure_state(signature)
        demand = state.celia.demand_gi(state.app, n, a)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        pending = _PendingSelect(demand, deadline_hours, budget_dollars,
                                 top, key, future)
        queue = self._pending.setdefault(signature, [])
        queue.append(pending)
        if len(queue) == 1 and signature not in self._running:
            # Idle signature: flush next tick, with this tick's arrivals.
            asyncio.get_running_loop().call_soon(self._flush, signature)
        return await future

    def _flush(self, signature: SpaceSignature) -> None:
        """Start the signature's next batch, unless one is running.

        A batch takes at most ``max_batch`` queued queries; the rest stay
        queued and go when it resolves.
        """
        queue = self._pending.get(signature)
        if not queue or signature in self._running:
            return
        batch = queue[:self.config.max_batch]
        del queue[:self.config.max_batch]
        if not queue:
            del self._pending[signature]
        self._running.add(signature)
        state = self._states[signature]
        self.metrics.counter("batches_total").increment()
        self.metrics.histogram("batch_size").observe(len(batch))
        task = asyncio.get_running_loop().create_task(
            self._compute_batch(state, batch))
        task.add_done_callback(
            lambda t: self._resolve_batch(signature, t, batch))

    async def _compute_batch(self, state: _WarmState,
                             batch: list[_PendingSelect]) -> list[str]:
        """One batch, on the event loop: cheaper than an executor hop.

        The index hands back each query's frontier slice as it is, and
        the encoder writes its text: no points, no dicts.
        """
        await self.faults.on_compute()
        answers = state.index.slices(
            [p.demand_gi for p in batch],
            [p.deadline_hours for p in batch],
            [p.budget_dollars for p in batch],
        )
        return [state.encoder.encode(answer, top=p.top)
                for answer, p in zip(answers, batch)]

    def _resolve_batch(self, signature: SpaceSignature, task,
                       batch: list[_PendingSelect]) -> None:
        self._running.discard(signature)
        self._flush(signature)  # queries that queued behind this batch
        cancelled = task.cancelled()  # only when the loop shuts down
        error = None if cancelled else task.exception()
        payloads = None if cancelled or error is not None else task.result()
        for i, p in enumerate(batch):
            if p.future.done():  # timed out and cancelled while computing
                continue
            if cancelled:
                p.future.cancel()
            elif error is not None:
                p.future.set_exception(error)
            else:
                self._cache_put(p.cache_key, payloads[i])
                p.future.set_result(payloads[i])

    # -- predict / plan: per-request compute -----------------------------------

    async def _predict(self, app: str, n: float, a: float,
                       configuration: "list[int] | tuple[int, ...]",
                       *, quota: int | None = None, seed: int | None = None,
                       timeout_s: float | None = None) -> Envelope:
        """Eq. 2/5 prediction for one explicit configuration."""
        signature = self.signature(app, quota=quota, seed=seed)
        config = [int(v) for v in configuration]
        key = self._cache_key("predict", signature, n=float(n), a=float(a),
                              configuration=config)
        return await self._serve("predict", key, lambda: self._compute_simple(
            signature, key, self._predict_payload, float(n), float(a),
            tuple(config)), timeout_s)

    predict = _decoded(_predict)

    def _predict_payload(self, state: _WarmState, n: float, a: float,
                         configuration: tuple[int, ...]) -> str:
        return json.dumps(prediction_to_dict(
            state.celia.predict(state.app, n, a, configuration)))

    async def _plan(self, app: str, deadline_hours: float,
                    budget_dollars: float, *, fix_size: float | None = None,
                    fix_accuracy: float | None = None,
                    knob_range: tuple[float, float],
                    integral: bool = False, quota: int | None = None,
                    seed: int | None = None,
                    timeout_s: float | None = None) -> Envelope:
        """Best affordable accuracy (or problem size) under (T', C')."""
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
        return await self._serve("plan", key, lambda: self._compute_simple(
            signature, key, self._plan_payload, float(deadline_hours),
            float(budget_dollars), fix_size, fix_accuracy, (lo, hi),
            bool(integral)), timeout_s)

    plan = _decoded(_plan)

    def _plan_payload(self, state: _WarmState, deadline_hours: float,
                      budget_dollars: float, fix_size: float | None,
                      fix_accuracy: float | None,
                      knob_range: tuple[float, float],
                      integral: bool) -> str:
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
        return json.dumps(plan_to_dict(plan))

    async def _replan(self, app: str, remaining_gi: float,
                      residual_deadline_hours: float,
                      residual_budget_dollars: float, *,
                      n: float | None = None, accuracy: float | None = None,
                      min_accuracy: float | None = None,
                      work_done_gi: float = 0.0, efficiency: float = 1.0,
                      quota: int | None = None, seed: int | None = None,
                      timeout_s: float | None = None) -> Envelope:
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
        if remaining_gi <= 0:
            raise ValidationError("remaining_gi must be positive")
        if not 0 < efficiency <= 1:
            raise ValidationError("efficiency must be in (0, 1]")
        signature = self.signature(app, quota=quota, seed=seed)
        return await self._serve("replan", None, lambda: self._compute_replan(
            signature, float(remaining_gi), float(residual_deadline_hours),
            float(residual_budget_dollars), n, accuracy, min_accuracy,
            float(work_done_gi), float(efficiency)), timeout_s)

    replan = _decoded(_replan)

    async def _compute_replan(self, signature: SpaceSignature,
                              remaining_gi: float, residual_t: float,
                              residual_c: float, n: float | None,
                              accuracy: float | None,
                              min_accuracy: float | None,
                              work_done_gi: float,
                              efficiency: float) -> str:
        state = await self._ensure_state(signature)
        await self.faults.on_compute()
        payload = await asyncio.get_running_loop().run_in_executor(
            None, self._replan_payload, state, remaining_gi, residual_t,
            residual_c, n, accuracy, min_accuracy, work_done_gi, efficiency)
        self.metrics.counter("replans_total").increment()
        if payload["degraded"]:
            self.metrics.counter("degradations_total").increment()
        return json.dumps(payload)

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
                              fn, *args) -> str:
        """Warm the state, run ``fn`` in an executor, cache its text."""
        state = await self._ensure_state(signature)
        await self.faults.on_compute()
        payload = await asyncio.get_running_loop().run_in_executor(
            None, fn, state, *args)
        self._cache_put(key, payload)
        return payload

    # -- generic request dispatch (used by the HTTP front-end) -----------------

    async def handle(self, request: dict) -> dict:
        """:meth:`answer`, decoded to a dict."""
        return (await self.answer(request)).to_dict()

    async def answer(self, request: dict) -> Envelope:
        """Dispatch one decoded JSON request by its ``kind`` field.

        Arguments:
            request: The decoded JSON body; must be an object whose
                ``kind`` is one of ``select``/``predict``/``plan``/
                ``replan``, plus that kind's fields (see ``docs/api.md``).

        Returns the response :class:`Envelope` (``kind``, ``cached``,
        ``result`` as JSON text).

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

    async def _handle_inner(self, kind, request: dict) -> Envelope:
        common = {k: request.get(k) for k in ("quota", "seed", "timeout_s")}
        try:
            if kind == "select":
                return await self._select(
                    request["app"], float(request["n"]), float(request["a"]),
                    float(request["deadline_hours"]),
                    float(request["budget_dollars"]),
                    top=int(request.get("top", 0)), **common)
            if kind == "predict":
                return await self._predict(
                    request["app"], float(request["n"]), float(request["a"]),
                    request["configuration"], **common)
            if kind == "plan":
                knob_range = request["range"]
                if not (isinstance(knob_range, (list, tuple))
                        and len(knob_range) == 2):
                    raise ValidationError("range must be [lo, hi]")
                return await self._plan(
                    request["app"], float(request["deadline_hours"]),
                    float(request["budget_dollars"]),
                    fix_size=request.get("fix_size"),
                    fix_accuracy=request.get("fix_accuracy"),
                    knob_range=(float(knob_range[0]), float(knob_range[1])),
                    integral=bool(request.get("integral", False)), **common)
            if kind == "replan":
                return await self._replan(
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
