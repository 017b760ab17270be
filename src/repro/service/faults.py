"""Induced service slowness — the serving-side analog of `engine.faults`.

The execution engine injects node crashes to study how a cluster degrades;
the planning service needs the equivalent for *itself*: what happens to
admission control, queue depth and deadlines when computation is suddenly
slow (a cold cache, a noisy neighbor, a stop-the-world hiccup)?

:class:`ServiceFaults` adds deterministic delays at the two points where
real slowness appears — state warming and per-batch compute — so tests
and benchmarks can saturate the service on purpose and assert the typed
rejection / deadline behavior without relying on machine speed.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.errors import ValidationError

__all__ = ["ServiceFaults"]


@dataclass(frozen=True)
class ServiceFaults:
    """Deterministic delays on the service's two compute paths.

    ``warm_delay_s`` stretches the per-signature state build, inside the
    executor thread that builds it.  ``compute_delay_s`` delays every
    select batch and every ``predict``/``plan``/``replan`` computation
    as an awaited pause on the event loop, before the work starts: a
    select batch runs on the loop itself, so a blocking sleep there
    would stall admission control and deadlines with it.  Zero (the
    default) disables the fault entirely.
    """

    warm_delay_s: float = 0.0
    compute_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.warm_delay_s < 0 or self.compute_delay_s < 0:
            raise ValidationError("fault delays must be non-negative")

    def on_warm(self) -> None:
        """Apply the warm-path delay (runs in an executor thread)."""
        if self.warm_delay_s > 0:
            time.sleep(self.warm_delay_s)

    async def on_compute(self) -> None:
        """Apply the compute-path delay (awaited on the event loop)."""
        if self.compute_delay_s > 0:
            await asyncio.sleep(self.compute_delay_s)
