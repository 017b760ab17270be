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

from repro.parallel.faults import FAULT_KINDS, FaultPlan, WorkerFault
from repro.parallel.partition import (
    TASKS_PER_WORKER,
    available_workers,
    missing_ranges,
    partition_chunks,
    partition_ranges,
    resolve_workers,
)
from repro.parallel.supervisor import (
    SupervisorConfig,
    SweepError,
    SweepInterrupted,
    SweepStats,
    evaluate_parallel,
    evaluate_resilient,
)

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "SupervisorConfig",
    "SweepError",
    "SweepInterrupted",
    "SweepStats",
    "TASKS_PER_WORKER",
    "WorkerFault",
    "available_workers",
    "evaluate_parallel",
    "evaluate_resilient",
    "missing_ranges",
    "partition_chunks",
    "partition_ranges",
    "resolve_workers",
]
