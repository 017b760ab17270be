"""``repro.obs`` — the unified observability layer.

Everything the stack reports about itself flows through this package:

* :mod:`repro.obs.trace` — spans and the process tracer; span context
  propagates across the sweep's process boundary so one JSONL file
  holds the whole story (``celia --trace out.jsonl ...``);
* :mod:`repro.obs.metrics` — counters/gauges/histograms with a
  process-global registry shared by the sweep supervisor, evaluation
  cache, runtime controller and planning service;
* :mod:`repro.obs.profile` — opt-in ``CELIA_PROFILE=1`` cProfile hooks
  aggregated into per-phase top-N tables (``celia profile``);
* :mod:`repro.obs.export` — Chrome ``trace_event`` conversion and trace
  summaries (``celia trace export`` / ``celia trace summary``).

The package is dependency-light by design (stdlib only) and free when
idle: disabled tracers hand out a shared no-op span, the profile hook is
a bare ``yield``, and metrics cost one dict lookup plus a lock.

See ``docs/observability.md`` for the operator guide (span taxonomy,
metric catalog, viewer walkthroughs).
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.obs.export": [
        "export_chrome_trace", "read_trace", "spans_only", "to_chrome_trace",
        "trace_summary",
    ],
    "repro.obs.metrics": [
        "Counter", "Gauge", "Histogram", "MetricsRegistry", "global_registry",
        "group_by_label", "label_snapshot", "merge_snapshots", "parse_series",
        "render_text", "reset_global_registry",
    ],
    "repro.obs.profile": [
        "PROFILE_ENV", "ProfileStore", "get_store", "profile_block",
        "profiling_enabled", "reset_store",
    ],
    "repro.obs.trace": [
        "TRACE_ENV", "Span", "SpanContext", "Tracer", "configure_tracing",
        "get_tracer", "make_span_record", "reset_tracing", "tracing_enabled",
    ],
})
