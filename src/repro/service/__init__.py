"""repro.service — a batched, metered planning service over warm state.

The serving layer of the reproduction: keep the expensive pipeline
artefacts (catalog → evaluation cache → frontier index) warm in one
long-lived process, coalesce concurrent selections into vectorized
batches, apply admission control, and answer typed JSON error
envelopes (:func:`repro.service.server.dispatch_request`).  The HTTP
layer is the fleet front end (:mod:`repro.fleet.frontend`): ``celia
serve`` runs it over one in-process shard of this service.

    service = PlannerService()
    response = await service.select("galaxy", 65536, 8000, 24, 350)

    # or over the wire:
    #   celia serve --port 8337
    client = PlannerClient(port=8337)
    response = client.select("galaxy", n=65536, a=8000,
                             deadline_hours=24, budget_dollars=350)
"""

from repro.service.client import PlannerClient
from repro.service.faults import ServiceFaults
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.planner import (
    KNOWN_APPS,
    PlannerService,
    RequestTimeoutError,
    ServiceConfig,
    ServiceSaturatedError,
    SpaceSignature,
)
from repro.service.serialize import (
    optimizer_answer_to_dict,
    pareto_point_to_dict,
    plan_to_dict,
    prediction_to_dict,
    selection_to_dict,
)

__all__ = [
    "KNOWN_APPS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PlannerClient",
    "PlannerService",
    "RequestTimeoutError",
    "ServiceConfig",
    "ServiceFaults",
    "ServiceSaturatedError",
    "SpaceSignature",
    "optimizer_answer_to_dict",
    "pareto_point_to_dict",
    "plan_to_dict",
    "prediction_to_dict",
    "selection_to_dict",
]
