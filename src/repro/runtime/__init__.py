"""Closed-loop adaptive execution of CELIA plans.

The planning stack (:mod:`repro.core`) answers *what to buy*; this
package keeps the answer honest at run time: provisioning with retries
and fallback (:mod:`repro.runtime.retry`), fluid-rate execution under
crashes and stragglers (:mod:`repro.runtime.execution`), seeded chaos
scenarios (:mod:`repro.runtime.chaos`), a typed audit trail
(:mod:`repro.runtime.events`), and the re-planning / degrading
controller itself (:mod:`repro.runtime.controller`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.runtime.chaos": [
        "ChaosScenario", "SCENARIOS", "chaos_scenario", "scenario_names",
    ],
    "repro.runtime.controller": [
        "AdaptiveController", "RuntimeConfig", "RuntimeReport",
        "degraded_accuracy_search",
    ],
    "repro.runtime.events": [
        "ExecutionTimeline", "ProvisionAttempt", "NodeCrash",
        "ReplanDecision", "DegradationDecision", "Migration",
        "InfeasiblePlan", "SpotPurchase", "SpotInterruption",
        "FallbackToOnDemand", "event_to_dict",
    ],
    "repro.runtime.execution": ["LeaseExecution", "AdvanceResult"],
    "repro.runtime.retry": ["RetryPolicy", "provision_with_retry"],
})
