"""Process-parallel, fault-tolerant configuration-space evaluation.

The full-space sweep (``ConfigurationSpace.evaluate``) is embarrassingly
parallel: every linear index decodes and reduces independently, and the
two outputs are disjoint writes.  This package partitions the index
range ``1..S`` into chunk-aligned *spans* and fans them out to worker
processes that write decoded-chunk reductions directly into
``multiprocessing.shared_memory``-backed float64 arrays, so no result
pickling or concatenation happens on the way back.

Since PR 3 the fan-out is supervised rather than pooled
(:mod:`repro.parallel.supervisor`): per-span leases, chunk-level
heartbeats, crash/hang detection with capped-exponential-backoff
re-dispatch, speculative straggler duplication, and shard-level
checkpointing via :class:`repro.cache.SweepCheckpoint` — so a sweep
survives worker loss and an interrupted sweep resumes from its
completed spans.  A deterministic fault harness
(:mod:`repro.parallel.faults`) drives the failure paths in tests and
``benchmarks/bench_faults.py``.

Bit-identity with the serial path is guaranteed by construction: worker
spans are aligned to the *same* chunk grid the serial loop uses, so
every chunk is decoded into an identical ``(k, M)`` int16 matrix and
reduced by an identical matmul — each output row is the same
floating-point reduction regardless of which process computed it, how
often it was retried, or whether it was restored from a shard.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.parallel.faults": ["FAULT_KINDS", "FaultPlan", "WorkerFault"],
    "repro.parallel.partition": [
        "TASKS_PER_WORKER", "available_workers", "missing_ranges",
        "partition_chunks", "partition_ranges", "resolve_workers",
    ],
    "repro.parallel.supervisor": [
        "SupervisorConfig", "SweepError", "SweepInterrupted", "SweepStats",
        "evaluate_parallel", "evaluate_resilient",
    ],
})
