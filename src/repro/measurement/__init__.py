"""Measurement-driven characterization — the "measurement" in CELIA.

The paper cannot read hardware performance counters on virtualized cloud
instances, so it splits characterization in two (Section III-A):

1. **Demand** — run scale-down versions ``P(n', a')`` on a *local server*
   with the same micro-architecture and read the instruction count with
   Linux ``perf`` (simulated by :class:`~repro.measurement.perf.PerfCounter`).
2. **Capacity** — run the same scale-down versions on each cloud instance
   type and divide the measured instruction count by measured wall time
   (:mod:`repro.measurement.baseline`), which bakes virtualization
   overhead into the rate, so it needs no separate model.

The fitted relationship between parameters and demand
(:mod:`repro.measurement.fitting`) turns the sampled grid into the
continuous ``D(n, a)`` the time model needs; fitted artefacts round-trip
through JSON (:mod:`repro.measurement.profiles`).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.measurement.machines": ["MachineSpec", "LOCAL_XEON_E5_2630_V4"],
    "repro.measurement.perf": ["PerfCounter", "PerfReading"],
    "repro.measurement.baseline": [
        "DemandSamples", "measure_demand_grid", "measure_capacities",
        "measure_capacities_by_category", "CapacityMeasurement",
    ],
    "repro.measurement.fitting": [
        "TermFit", "FittedDemand", "fit_term", "fit_separable_demand",
    ],
    "repro.measurement.profiles": ["ApplicationProfile"],
})
