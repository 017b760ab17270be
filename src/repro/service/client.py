"""Blocking stdlib client for the planning service.

A thin convenience wrapper over :mod:`http.client` that speaks the
server's JSON schema and raises the same typed exceptions the in-process
service raises — so a caller can swap `PlannerService` for a remote
`PlannerClient` without changing its error handling::

    client = PlannerClient(port=8337)
    response = client.select("galaxy", n=65536, a=8000,
                             deadline_hours=24, budget_dollars=350)
    for point in response["result"]["pareto"]:
        print(point["configuration"], point["cost_dollars"])

Transient failures — refused/dropped connections, socket timeouts, and
503 responses (admission-control saturation or a draining server) — are
retried with capped exponential backoff and deterministic jitter, but
only for idempotent requests (every built-in endpoint is a pure query).
Definitive answers (2xx, 4xx, 504) are never retried.  When the retry
budget runs out the client raises a typed
:class:`~repro.errors.ServiceUnavailableError` recording how many
attempts were made — transport errors are always wrapped, never
re-raised raw.

A fleet's 503 ``worker_lost`` envelope (the owning shard died
mid-request) gets special treatment: one immediate idempotency-gated
replay with no backoff — the dead worker has already left routing, so
the replay lands on the re-routed shard — then a typed
:class:`~repro.errors.WorkerLostError` if the replay fails too.

Three mechanisms keep a retrying client from amplifying a fleet-wide
incident (see :mod:`repro.service.resilience`):

* shed responses (503 ``overloaded`` / 429 ``too_many_requests``)
  carry a ``Retry-After`` hint, and the client honors it — the sleep
  before the next attempt is at least the hint (with the same
  deterministic jitter), never an immediate hammer;
* a **retry budget** caps the ratio of retries to requests, so a broad
  outage degrades to ~10% extra traffic instead of
  ``max_attempts``-fold;
* a **circuit breaker** opens after consecutive fully-failed request
  cycles and fails fast (:class:`~repro.errors.CircuitOpenError`,
  no network I/O) until a half-open probe proves the service back.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

from repro.errors import (
    CircuitOpenError,
    FleetOverloadedError,
    InfeasibleError,
    ReproError,
    ServiceUnavailableError,
    ValidationError,
    WorkerLostError,
)
from repro.service.planner import RequestTimeoutError, ServiceSaturatedError
from repro.service.resilience import CircuitBreaker, RetryBudget
from repro.utils.rng import derive_rng

__all__ = ["PlannerClient"]

_ERROR_TYPES = {
    "saturated": lambda msg: ServiceSaturatedError(
        msg, queue_depth=-1, max_queue_depth=-1),
    "draining": lambda msg: ServiceUnavailableError(msg, attempts=1),
    "deadline_exceeded": lambda msg: RequestTimeoutError(msg, timeout_s=-1.0),
    "infeasible": lambda msg: InfeasibleError(msg),
    "invalid_request": ValidationError,
    "worker_lost": lambda msg: WorkerLostError(msg),
    "overloaded": lambda msg: FleetOverloadedError(msg),
    "too_many_requests": lambda msg: FleetOverloadedError(msg),
}

#: Connection-level failures that are safe to retry for idempotent
#: requests: the server never started (refused), or the socket died in
#: transit.  HTTP errors with definitive status codes are NOT here.
_TRANSIENT_ERRORS = (ConnectionError, socket.timeout, TimeoutError,
                     http.client.HTTPException, OSError)


class PlannerClient:
    """One service endpoint; a fresh connection per call.

    The server keeps connections alive, but the client closes each one
    after its response, so a retry never inherits a half-read stream.

    Parameters
    ----------
    max_attempts:
        Total tries per request (1 = no retries).
    backoff_base_s / backoff_cap_s:
        Exponential backoff schedule between attempts, capped.
    jitter_fraction:
        Deterministic ±jitter/2 spread on each backoff, derived from
        ``retry_seed`` so test runs reproduce their exact sleep pattern.

    Raises
    ------
    ValidationError
        From the constructor when ``max_attempts < 1``; from any
        endpoint when the server rejects the request as invalid (400).
    InfeasibleError
        When the requested plan has no feasible configuration (422).
    ServiceSaturatedError / RequestTimeoutError
        Admission-control rejection (503) after retries run out, or a
        missed per-request deadline (504).
    ServiceUnavailableError
        When the retry budget is exhausted on transient transport
        failures or a draining server.
    WorkerLostError
        When a fleet shard died mid-request and the single re-routed
        replay failed as well (idempotent requests only; non-idempotent
        ones surface it on the first failure).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8337,
                 *, timeout_s: float = 60.0, max_attempts: int = 4,
                 backoff_base_s: float = 0.05, backoff_cap_s: float = 2.0,
                 jitter_fraction: float = 0.25, retry_seed: int = 0,
                 sleep=time.sleep, breaker_failures: int = 5,
                 breaker_reset_s: float = 5.0,
                 retry_budget_ratio: float = 0.1,
                 retry_budget_initial: float = 10.0,
                 clock=time.monotonic):
        if max_attempts < 1:
            raise ValidationError("max_attempts must be >= 1")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.jitter_fraction = jitter_fraction
        self.retry_seed = retry_seed
        self._sleep = sleep
        #: Circuit breaker over whole request cycles (0 disables).
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_failures,
            reset_timeout_s=breaker_reset_s,
            clock=clock) if breaker_failures > 0 else None
        #: Retry budget shared by every request this client makes
        #: (ratio <= 0 disables).
        self.retry_budget = RetryBudget(
            ratio=retry_budget_ratio,
            initial=retry_budget_initial) if retry_budget_ratio > 0 else None

    # -- transport -------------------------------------------------------------

    def _backoff_s(self, attempt: int) -> float:
        """Capped exponential backoff with deterministic jitter."""
        base = min(self.backoff_base_s * (2.0 ** (attempt - 1)),
                   self.backoff_cap_s)
        rng = derive_rng(self.retry_seed, "client-backoff", attempt)
        jitter = 1.0 + self.jitter_fraction * (float(rng.uniform()) - 0.5)
        return base * jitter

    def _retry_delay_s(self, attempt: int, last_error) -> float:
        """Backoff for ``attempt``, honoring a server ``Retry-After``.

        A shed response's hint is a floor, not a replacement: the sleep
        is the larger of the exponential backoff and the (jittered)
        hint, so clients neither hammer a shedding fleet immediately
        nor synchronize their retries on the exact hint boundary.
        """
        base = self._backoff_s(attempt)
        hinted = getattr(last_error, "retry_after_s", None)
        if not hinted:
            return base
        rng = derive_rng(self.retry_seed, "client-retry-after", attempt)
        jitter = 1.0 + self.jitter_fraction * (float(rng.uniform()) - 0.5)
        return max(base, float(hinted) * jitter)

    def _request(self, method: str, path: str, body: dict | None = None,
                 *, idempotent: bool = True) -> dict:
        """One HTTP exchange, with bounded retries of transient failures.

        Non-idempotent requests are attempted exactly once — a dropped
        connection leaves the outcome unknown, and replaying it could
        apply the effect twice.  4xx/422/504 responses are definitive
        and never retried regardless.

        The circuit breaker scores whole request cycles, not attempts:
        only a cycle that exhausts its retries counts as a failure, and
        any response from the service — including definitive errors —
        counts as a success.  The retry budget is spent per retry (the
        ``worker_lost`` replay excepted: the fleet has already rerouted,
        so the replay is the cheap path, not amplification).
        """
        if self.breaker is not None and not self.breaker.allow():
            raise CircuitOpenError(
                f"{method} {path} not sent: circuit open for another "
                f"{self.breaker.remaining_s():.3f}s",
                retry_after_s=self.breaker.remaining_s())
        if self.retry_budget is not None:
            self.retry_budget.deposit()
        attempts = self.max_attempts if idempotent else 1
        worker_lost_retry = idempotent  # one dedicated replay, ever
        last_error: Exception | None = None
        budget_dry = False
        attempt = 0
        total = 0
        while True:
            total += 1
            try:
                result = self._request_once(method, path, body)
            except WorkerLostError as exc:
                # A fleet shard died holding the request.  The front end
                # has already dropped it from routing, so an immediate
                # replay lands on the re-routed shard — but only once,
                # and only for idempotent requests.
                if worker_lost_retry:
                    worker_lost_retry = False
                    continue
                self._record_failure()
                raise WorkerLostError(str(exc), attempts=total) from exc
            except (ServiceSaturatedError, ServiceUnavailableError) as exc:
                last_error = exc  # 503: the server asked us to back off
            except _TRANSIENT_ERRORS as exc:
                last_error = exc
            except ReproError:
                # Definitive typed answer (400/422/504): the service is
                # alive and responding, so the breaker resets.
                self._record_success()
                raise
            else:
                self._record_success()
                return result
            attempt += 1
            if attempt >= attempts:
                break
            if self.retry_budget is not None \
                    and not self.retry_budget.spend():
                budget_dry = True
                break
            self._sleep(self._retry_delay_s(attempt, last_error))
        self._record_failure()
        if attempts == 1 and isinstance(last_error, ReproError):
            raise last_error  # no retry budget: surface the typed original
        suffix = " (retry budget exhausted)" if budget_dry else ""
        raise ServiceUnavailableError(
            f"{method} {path} failed after {total} attempt(s){suffix}: "
            f"{last_error}", attempts=total) from last_error

    def _record_success(self) -> None:
        if self.breaker is not None:
            self.breaker.record_success()

    def _record_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    def _request_once(self, method: str, path: str,
                      body: dict | None = None) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout_s)
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None \
                else None
            headers = {"Content-Type": "application/json"} if payload else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            retry_after = response.getheader("Retry-After")
            decoded = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        if response.status == 200:
            return decoded
        error = decoded.get("error", {}) if isinstance(decoded, dict) else {}
        code = error.get("code", "error")
        message = error.get("message", f"HTTP {response.status}")
        exc = _ERROR_TYPES.get(code, ReproError)(message)
        if retry_after is not None:
            try:
                exc.retry_after_s = float(retry_after)
            except (TypeError, ValueError):
                pass  # unparsable hint; exponential backoff still applies
        raise exc

    # -- endpoints -------------------------------------------------------------

    def select(self, app: str, *, n: float, a: float, deadline_hours: float,
               budget_dollars: float, top: int = 0,
               quota: int | None = None, seed: int | None = None,
               timeout_s: float | None = None) -> dict:
        """POST /v1/select — the Pareto frontier under (T', C')."""
        body = {"app": app, "n": n, "a": a,
                "deadline_hours": deadline_hours,
                "budget_dollars": budget_dollars, "top": top}
        body.update(self._common(quota, seed, timeout_s))
        return self._request("POST", "/v1/select", body)

    def predict(self, app: str, *, n: float, a: float,
                configuration: "list[int] | tuple[int, ...]",
                quota: int | None = None, seed: int | None = None,
                timeout_s: float | None = None) -> dict:
        """POST /v1/predict — time/cost of one configuration."""
        body = {"app": app, "n": n, "a": a,
                "configuration": list(configuration)}
        body.update(self._common(quota, seed, timeout_s))
        return self._request("POST", "/v1/predict", body)

    def plan(self, app: str, *, deadline_hours: float,
             budget_dollars: float, knob_range: tuple[float, float],
             fix_size: float | None = None,
             fix_accuracy: float | None = None, integral: bool = False,
             quota: int | None = None, seed: int | None = None,
             timeout_s: float | None = None) -> dict:
        """POST /v1/plan — best affordable accuracy or problem size."""
        body = {"app": app, "deadline_hours": deadline_hours,
                "budget_dollars": budget_dollars,
                "range": list(knob_range), "integral": integral}
        if fix_size is not None:
            body["fix_size"] = fix_size
        if fix_accuracy is not None:
            body["fix_accuracy"] = fix_accuracy
        body.update(self._common(quota, seed, timeout_s))
        return self._request("POST", "/v1/plan", body)

    def replan(self, app: str, *, remaining_gi: float,
               residual_deadline_hours: float,
               residual_budget_dollars: float,
               n: float | None = None, accuracy: float | None = None,
               min_accuracy: float | None = None,
               work_done_gi: float = 0.0, efficiency: float = 1.0,
               quota: int | None = None, seed: int | None = None,
               timeout_s: float | None = None) -> dict:
        """POST /v1/replan — re-plan over residual state; degrade if
        ``n`` and the current ``accuracy`` are supplied."""
        body = {"app": app, "remaining_gi": remaining_gi,
                "residual_deadline_hours": residual_deadline_hours,
                "residual_budget_dollars": residual_budget_dollars,
                "work_done_gi": work_done_gi, "efficiency": efficiency}
        if n is not None:
            body["n"] = n
        if accuracy is not None:
            body["accuracy"] = accuracy
        if min_accuracy is not None:
            body["min_accuracy"] = min_accuracy
        body.update(self._common(quota, seed, timeout_s))
        return self._request("POST", "/v1/replan", body)

    def metrics(self) -> dict:
        """GET /metrics — the live metrics snapshot."""
        return self._request("GET", "/metrics")

    def health(self) -> dict:
        """GET /healthz — liveness and warm signatures."""
        return self._request("GET", "/healthz")

    @staticmethod
    def _common(quota, seed, timeout_s) -> dict:
        out = {}
        if quota is not None:
            out["quota"] = quota
        if seed is not None:
            out["seed"] = seed
        if timeout_s is not None:
            out["timeout_s"] = timeout_s
        return out
