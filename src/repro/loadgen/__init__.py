"""Trace-driven multi-tenant load generation and replay.

The package closes ROADMAP item 5's loop: CELIA plans cost-time
frontiers for elastic applications, and :mod:`repro.loadgen` applies the
same discipline to the planner *service* itself —

* :mod:`repro.loadgen.trace` — reproducible request traces (dataclass
  records, byte-stable JSONL round-trip);
* :mod:`repro.loadgen.tenants` — the seeded generator: Zipf-weighted
  tenants, non-homogeneous Poisson sessions (diurnal + burst modulated),
  heavy-tail think times, per-app feasible demand envelopes;
* :mod:`repro.loadgen.replay` — the open-loop asyncio replayer
  (coordinated-omission-free latency, typed shed classification,
  per-tenant ``repro.obs`` metrics);
* :mod:`repro.loadgen.report` — deterministic replay reports with
  per-tenant percentiles and structural invariants.

The ``capacity`` experiment (:mod:`repro.experiments.capacity_exp`)
sweeps fleet shard count against trace intensity and selects the
cheapest fleet meeting a p99 SLO — CELIA's frontier selection pointed at
the service that hosts it.  See ``docs/loadgen.md``.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.loadgen.replay": [
        "Observation", "ReplayResult", "SHED_CODES", "prewarm",
        "replay_trace", "replay_trace_sync",
    ],
    "repro.loadgen.report": [
        "ReplayReport", "TenantStats", "check_invariants",
    ],
    "repro.loadgen.tenants": [
        "APP_ENVELOPES", "TenantProfile", "WorkloadConfig", "generate_trace",
        "tenant_mix",
    ],
    "repro.loadgen.trace": [
        "TRACE_FORMAT_VERSION", "Trace", "TraceRequest", "merge_sorted",
    ],
})
