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

One retry policy covers every request.  Each attempt's outcome is
classified exactly once:

* **success** (2xx) or a **definitive error** (4xx, 422, 504) — returned
  or raised as-is, never retried;
* **retryable** — refused/dropped connections, socket timeouts, 503s
  (saturation, draining, a shed ``overloaded`` / 429
  ``too_many_requests``), and malformed replies (a non-JSON body such as
  a proxy's HTML 502, or a non-object ``error`` field).  Only idempotent
  requests retry (every built-in endpoint is a pure query).  Each retry
  costs one token from a bucket that earns ``retry_budget_ratio`` per
  request, so a broad outage degrades to ~10% extra traffic instead of
  ``max_attempts``-fold; the sleep before it is capped exponential
  backoff with one deterministic jitter draw per attempt, floored by the
  server's ``Retry-After`` hint (a hint counts only if finite and ≥ 0,
  and is clamped to ``backoff_cap_s``);
* a fleet's 503 ``worker_lost`` (the owning shard died mid-request) —
  retryable once, immediately and free: the dead worker has already left
  routing, so the replay lands on the re-routed shard.  A second loss
  raises :class:`~repro.errors.WorkerLostError`.

When retries run out the client raises a typed
:class:`~repro.errors.ServiceUnavailableError` recording the attempts
made, with the last underlying error as ``__cause__`` — transport and
decode errors are always wrapped, never re-raised raw.

A circuit breaker scores whole request cycles: after
``breaker_failures`` consecutive failed cycles it opens and requests
fail fast (:class:`~repro.errors.CircuitOpenError`, no network I/O) for
``breaker_reset_s``; then one half-open probe goes out, and its outcome
closes or re-opens the breaker.  Every request admitted past the breaker
records exactly one outcome, whatever it raises, so a probe can never
leave the breaker stuck half-open.  The breaker counters and the token
bucket share one lock: the client is safe to use from thread pools.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
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

#: Retryable attempt outcomes: a typed 503 (the server asked us to back
#: off), a refused or dropped connection (``OSError`` covers socket
#: timeouts), or a reply that is not a well-formed envelope
#: (``ValueError`` covers JSON and UTF-8 decode errors).  Definitive
#: HTTP status codes are NOT here.
_RETRYABLE = (ServiceSaturatedError, ServiceUnavailableError, OSError,
              http.client.HTTPException, ValueError)

#: Most retry tokens the budget bucket can hold.
RETRY_BUDGET_CAP = 100.0


class PlannerClient:
    """One service endpoint; a fresh connection per call.

    The server keeps connections alive, but the client closes each one
    after its response, so a retry never inherits a half-read stream.

    Parameters
    ----------
    max_attempts:
        Total tries per request (1 = no retries).
    backoff_base_s / backoff_cap_s:
        Exponential backoff schedule between attempts, capped; the cap
        also bounds a server's ``Retry-After`` hint.
    jitter_fraction:
        Deterministic ±jitter/2 spread on each backoff, derived from
        ``retry_seed`` so test runs reproduce their exact sleep pattern.
    breaker_failures / breaker_reset_s:
        Consecutive failed request cycles that open the circuit breaker
        (0 disables it), and how long it stays open before a probe.
    retry_budget_ratio / retry_budget_initial:
        Retry tokens earned per request (0 disables the budget) and the
        bucket's starting balance.

    Raises
    ------
    ValidationError
        From the constructor when ``max_attempts < 1``, the breaker is
        enabled with ``breaker_reset_s <= 0``, or the budget is enabled
        with ``retry_budget_initial < 0``; from any endpoint when the
        server rejects the request as invalid (400).
    InfeasibleError
        When the requested plan has no feasible configuration (422).
    ServiceSaturatedError / RequestTimeoutError
        Admission-control rejection (503) after retries run out, or a
        missed per-request deadline (504).
    ServiceUnavailableError
        When retries (or the retry budget) are exhausted on transient
        transport failures, malformed replies or a draining server.
    WorkerLostError
        When a fleet shard died mid-request and the single re-routed
        replay failed as well (idempotent requests only; non-idempotent
        ones surface it on the first failure).
    CircuitOpenError
        When the circuit breaker is open: the request was not sent.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

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
        if breaker_failures > 0 and breaker_reset_s <= 0:
            raise ValidationError("breaker_reset_s must be positive")
        if retry_budget_ratio > 0 and retry_budget_initial < 0:
            raise ValidationError("retry_budget_initial must be >= 0")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.jitter_fraction = jitter_fraction
        self.retry_seed = retry_seed
        self.breaker_failures = breaker_failures
        self.breaker_reset_s = breaker_reset_s
        self.retry_budget_ratio = retry_budget_ratio
        self._sleep = sleep
        self._clock = clock
        # Breaker state and token bucket, guarded by one lock.
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._tokens = min(float(retry_budget_initial), RETRY_BUDGET_CAP)

    @property
    def breaker_state(self) -> str | None:
        """``closed``, ``open`` or ``half-open``; None when disabled."""
        return self._state if self.breaker_failures > 0 else None

    @property
    def retry_tokens(self) -> float | None:
        """Retry tokens in the budget bucket; None when disabled."""
        return self._tokens if self.retry_budget_ratio > 0 else None

    # -- retry policy ----------------------------------------------------------

    def _backoff_s(self, attempt: int, last_error=None) -> float:
        """Sleep before retry ``attempt``: capped exponential backoff,
        floored by a valid server ``Retry-After`` hint, times one
        deterministic jitter draw.

        The hint is a floor, not a replacement, so clients neither
        hammer a shedding fleet nor synchronize on the hint boundary.
        It counts only if finite and >= 0, and is clamped to
        ``backoff_cap_s`` so a hostile or broken hint cannot stall the
        caller.
        """
        delay = min(self.backoff_base_s * (2.0 ** (attempt - 1)),
                    self.backoff_cap_s)
        hint = getattr(last_error, "retry_after_s", None)
        if hint is not None and math.isfinite(hint) and hint >= 0:
            delay = max(delay, min(hint, self.backoff_cap_s))
        rng = derive_rng(self.retry_seed, "client-backoff", attempt)
        return delay * (1.0 + self.jitter_fraction
                        * (float(rng.uniform()) - 0.5))

    def _admit(self, method: str, path: str) -> None:
        """Pass the breaker (or raise) and earn the request's tokens."""
        with self._lock:
            if self._state != self.CLOSED:  # never leaves it if disabled
                remaining = 0.0
                if self._state == self.OPEN:
                    remaining = max(0.0, self.breaker_reset_s
                                    - (self._clock() - self._opened_at))
                if remaining > 0.0 or self._state == self.HALF_OPEN:
                    raise CircuitOpenError(
                        f"{method} {path} not sent: circuit open for "
                        f"another {remaining:.3f}s", retry_after_s=remaining)
                self._state = self.HALF_OPEN  # this request is the probe
            if self.retry_budget_ratio > 0:
                self._tokens = min(RETRY_BUDGET_CAP,
                                   self._tokens + self.retry_budget_ratio)

    def _spend(self) -> bool:
        """Take one retry token; False means the budget is dry."""
        if self.retry_budget_ratio <= 0:
            return True
        with self._lock:
            if self._tokens < 1.0:
                return False
            self._tokens -= 1.0
            return True

    def _record(self, alive: bool) -> None:
        """Score one request cycle on the breaker."""
        if self.breaker_failures <= 0:
            return
        with self._lock:
            if alive:
                self._failures = 0
                self._state = self.CLOSED
            elif self._state == self.HALF_OPEN:
                # The probe failed; back to open for a fresh timeout.
                self._state = self.OPEN
                self._opened_at = self._clock()
            else:
                self._failures += 1
                if self._failures >= self.breaker_failures:
                    self._state = self.OPEN
                    self._opened_at = self._clock()

    def _request(self, method: str, path: str, body: dict | None = None,
                 *, idempotent: bool = True) -> dict:
        """One HTTP exchange under the retry policy.

        Non-idempotent requests are attempted exactly once — a dropped
        connection leaves the outcome unknown, and replaying it could
        apply the effect twice.

        The breaker scores the whole cycle, once, on every exit: any
        answer from the service — including a definitive error — counts
        as alive; exhausted retries, a lost worker, or any exception the
        policy does not classify count as a failure.
        """
        self._admit(method, path)
        attempts = self.max_attempts if idempotent else 1
        replay = idempotent  # the one free worker_lost replay
        alive = False
        last_error: Exception | None = None
        budget_dry = False
        retries = 0
        total = 0
        try:
            while True:
                total += 1
                try:
                    result = self._request_once(method, path, body)
                except WorkerLostError as exc:
                    if replay:
                        replay = False
                        continue
                    raise WorkerLostError(str(exc), attempts=total) from exc
                except _RETRYABLE as exc:
                    last_error = exc
                except ReproError:
                    alive = True  # a definitive answer: the service is up
                    raise
                else:
                    alive = True
                    return result
                retries += 1
                if retries >= attempts:
                    break
                if not self._spend():
                    budget_dry = True
                    break
                self._sleep(self._backoff_s(retries, last_error))
        finally:
            self._record(alive)
        if attempts == 1 and isinstance(last_error, ReproError):
            raise last_error  # no retries: surface the typed original
        suffix = " (retry budget exhausted)" if budget_dry else ""
        raise ServiceUnavailableError(
            f"{method} {path} failed after {total} attempt(s){suffix}: "
            f"{last_error}", attempts=total) from last_error

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
        code = error.get("code", "error") if isinstance(error, dict) else None
        if not isinstance(code, str):
            raise ValueError(f"HTTP {response.status}: malformed error "
                             f"envelope {error!r:.200}")
        message = error.get("message", f"HTTP {response.status}")
        exc = _ERROR_TYPES.get(code, ReproError)(message)
        if retry_after is not None:
            try:
                exc.retry_after_s = float(retry_after)
            except ValueError:
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
