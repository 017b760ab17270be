"""The service's request dispatch and error contract.

:func:`dispatch` runs one decoded request against a
:class:`PlannerService` and maps library errors to typed JSON error
envelopes::

    {"error": {"code": "saturated", "message": "..."}}

with the status codes a load balancer expects: 400 for invalid
requests, 422 for infeasible plans, 503 when admission control rejects,
504 for missed request deadlines.  Every serving path answers through
it — the shard worker of :mod:`repro.fleet.worker`, which backs both
``celia serve`` and ``celia fleet serve`` — so a request answers
byte-identically whichever way it arrived.  A successful answer is an
:class:`~repro.service.planner.Envelope` whose result is already JSON
text, so the worker writes its bytes without encoding the result again;
:func:`dispatch_request` is the same call with the envelope decoded to a
dict, for in-process callers.  The HTTP layer lives in
:mod:`repro.fleet.frontend`.
"""

from __future__ import annotations

from repro.errors import InfeasibleError, ReproError, ValidationError
from repro.service.planner import (
    Envelope,
    PlannerService,
    RequestTimeoutError,
    ServiceSaturatedError,
)

__all__ = ["dispatch", "dispatch_request"]

#: ``(error type, status, code)``, most specific type first.
_ERROR_CONTRACT = (
    (ServiceSaturatedError, 503, "saturated"),
    (RequestTimeoutError, 504, "deadline_exceeded"),
    (InfeasibleError, 422, "infeasible"),
    (ValidationError, 400, "invalid_request"),
    (ReproError, 400, "error"),
)


async def dispatch(service: PlannerService,
                   request: dict) -> "tuple[int, Envelope | dict]":
    """Run one decoded request: ``(200, envelope)`` or ``(status, error)``."""
    try:
        return 200, await service.answer(request)
    except ReproError as exc:
        status, code = next((status, code)
                            for error_type, status, code in _ERROR_CONTRACT
                            if isinstance(exc, error_type))
        return status, {"error": {"code": code, "message": str(exc)}}


async def dispatch_request(service: PlannerService,
                           request: dict) -> tuple[int, dict]:
    """:func:`dispatch`, with a successful envelope decoded to a dict."""
    status, body = await dispatch(service, request)
    return status, body.to_dict() if isinstance(body, Envelope) else body
