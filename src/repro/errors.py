"""Exception hierarchy for the CELIA reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still distinguishing configuration errors from runtime simulation failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CatalogError",
    "QuotaExceededError",
    "ProvisioningError",
    "TransientProvisioningError",
    "InsufficientCapacityError",
    "ApiThrottledError",
    "ProvisioningExhaustedError",
    "MeasurementError",
    "FittingError",
    "InfeasibleError",
    "SimulationError",
    "ValidationError",
    "ServiceUnavailableError",
    "WorkerLostError",
    "FleetOverloadedError",
    "CircuitOpenError",
]


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An invalid cloud configuration was constructed or requested.

    Raised, for example, when a configuration vector has negative node
    counts, has the wrong dimensionality for its catalog, or is the empty
    (all-zero) configuration where a non-empty one is required.
    """


class CatalogError(ReproError):
    """A resource catalog is malformed (duplicate types, bad prices...)."""


class QuotaExceededError(ConfigurationError):
    """A configuration requests more nodes of a type than its quota allows."""


class ProvisioningError(ReproError):
    """The simulated provider could not satisfy a provisioning request."""


class TransientProvisioningError(ProvisioningError):
    """A provisioning failure that may succeed on retry.

    Real IaaS APIs fail transiently all the time (capacity shortfalls,
    request throttling); callers are expected to back off and retry
    rather than give up.  Subclasses identify the retry-relevant cause.
    """


class InsufficientCapacityError(TransientProvisioningError):
    """The provider is temporarily out of capacity for one instance type.

    Mirrors EC2's ``InsufficientInstanceCapacity``: the account quota
    allows the request but the underlying pool cannot place it right
    now.  Retrying later — or substituting a different type — may
    succeed.
    """

    def __init__(self, message: str, *, type_index: int, type_name: str):
        super().__init__(message)
        self.type_index = type_index
        self.type_name = type_name


class ApiThrottledError(TransientProvisioningError):
    """The provisioning API rejected the call for rate limiting.

    Throttling is request-scoped, not type-scoped: backing off and
    replaying the identical request is the only remedy (substituting
    types does not help).
    """


class ProvisioningExhaustedError(ProvisioningError):
    """A bounded retry loop gave up without obtaining a lease."""

    def __init__(self, message: str, *, attempts: int,
                 elapsed_seconds: float):
        super().__init__(message)
        self.attempts = attempts
        self.elapsed_seconds = elapsed_seconds


class MeasurementError(ReproError):
    """A baseline measurement could not be performed or is inconsistent."""


class FittingError(ReproError):
    """Demand-model fitting failed (rank deficiency, too few samples...)."""


class InfeasibleError(ReproError):
    """No configuration satisfies the given deadline and budget."""

    def __init__(self, message: str, *, deadline_hours: float | None = None,
                 budget_dollars: float | None = None):
        super().__init__(message)
        self.deadline_hours = deadline_hours
        self.budget_dollars = budget_dollars


class SimulationError(ReproError):
    """The discrete-event execution engine reached an inconsistent state."""


class ValidationError(ReproError):
    """An input value failed validation (out of the meaningful range)."""


class ServiceUnavailableError(ReproError):
    """A remote planning service stayed unreachable through bounded retries.

    Raised by :class:`~repro.service.client.PlannerClient` when its
    attempts or its retry budget run out on connection failures, 503
    responses or malformed (non-JSON) replies; the last underlying error
    — a socket error, a typed 503, a JSON decode error — is attached as
    ``__cause__``.
    """

    def __init__(self, message: str, *, attempts: int):
        super().__init__(message)
        self.attempts = attempts


class WorkerLostError(ServiceUnavailableError):
    """A fleet shard worker died while holding this request.

    The fleet front end returns this as a 503 ``worker_lost`` envelope
    when the owning shard dropped mid-request and the one fallback
    attempt failed too.  :class:`~repro.service.client.PlannerClient`
    replays an idempotent request exactly once, immediately and without
    spending a retry token — the dead worker has already left routing,
    so the replay lands on the re-routed shard — and raises this (never
    a raw ``ConnectionError``) if a second ``worker_lost`` follows;
    ``attempts`` counts every transport call, the replay included.
    """

    def __init__(self, message: str, *, attempts: int = 1):
        super().__init__(message, attempts=attempts)


class FleetOverloadedError(ServiceUnavailableError):
    """The fleet shed this request at an in-flight cap.

    Returned as a typed 503 ``overloaded`` (per-worker cap) or 429
    ``too_many_requests`` (fleet-wide cap) envelope carrying a
    ``Retry-After`` hint; ``retry_after_s`` mirrors that hint so
    :class:`~repro.service.client.PlannerClient` can pace its retry
    instead of hammering a saturated fleet.
    """

    def __init__(self, message: str, *, attempts: int = 1,
                 retry_after_s: float | None = None):
        super().__init__(message, attempts=attempts)
        self.retry_after_s = retry_after_s


class CircuitOpenError(ServiceUnavailableError):
    """The client's circuit breaker is open: the request was not sent.

    After ``failure_threshold`` consecutive failed request cycles the
    breaker stops traffic locally for ``reset_timeout_s``, then lets a
    single half-open probe through; ``retry_after_s`` says how long
    until that probe slot opens.
    """

    def __init__(self, message: str, *, retry_after_s: float = 0.0):
        super().__init__(message, attempts=0)
        self.retry_after_s = retry_after_s
