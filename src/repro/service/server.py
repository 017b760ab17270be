"""The service's request dispatch and error contract.

:func:`dispatch_request` runs one decoded request against a
:class:`PlannerService` and maps library errors to typed JSON error
envelopes::

    {"error": {"code": "saturated", "message": "..."}}

with the status codes a load balancer expects: 400 for invalid
requests, 422 for infeasible plans, 503 when admission control rejects,
504 for missed request deadlines.  Every serving path answers through
it — the shard worker of :mod:`repro.fleet.worker`, which backs both
``celia serve`` and ``celia fleet serve`` — so a request answers
byte-identically whichever way it arrived.  The HTTP layer lives in
:mod:`repro.fleet.frontend`.
"""

from __future__ import annotations

from repro.errors import InfeasibleError, ReproError, ValidationError
from repro.service.planner import (
    PlannerService,
    RequestTimeoutError,
    ServiceSaturatedError,
)

__all__ = ["dispatch_request"]

#: ``(error type, status, code)``, most specific type first.
_ERROR_CONTRACT = (
    (ServiceSaturatedError, 503, "saturated"),
    (RequestTimeoutError, 504, "deadline_exceeded"),
    (InfeasibleError, 422, "infeasible"),
    (ValidationError, 400, "invalid_request"),
    (ReproError, 400, "error"),
)


async def dispatch_request(service: PlannerService,
                           request: dict) -> tuple[int, dict]:
    """Run one decoded request; map library errors to (status, envelope)."""
    try:
        return 200, await service.handle(request)
    except ReproError as exc:
        status, code = next((status, code)
                            for error_type, status, code in _ERROR_CONTRACT
                            if isinstance(exc, error_type))
        return status, {"error": {"code": code, "message": str(exc)}}
