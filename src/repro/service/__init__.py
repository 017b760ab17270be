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

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.service.client": ["PlannerClient"],
    "repro.service.faults": ["ServiceFaults"],
    "repro.service.metrics": [
        "Counter", "Gauge", "Histogram", "MetricsRegistry",
    ],
    "repro.service.planner": [
        "KNOWN_APPS", "PlannerService", "RequestTimeoutError",
        "ServiceConfig", "ServiceSaturatedError", "SpaceSignature",
    ],
    "repro.service.serialize": [
        "optimizer_answer_to_dict", "pareto_point_to_dict", "plan_to_dict",
        "prediction_to_dict", "selection_to_dict",
    ],
})
