"""How fast the host runs right now, from a fixed reference kernel.

On a shared machine the same code runs up to 1.6 times slower in
stretches of one to several seconds when neighbours are busy, and every
timing of every workload moves with it.  A run therefore times, between
its phases, a reference kernel that uses none of the planner's code:
NumPy sorting and scanning (the sweep's and the feasibility scan's kind
of work) and pure-Python JSON handling (the serving path's kind of
work).  A measured interval is scaled by the kernel's speed in the
samples that bracket it, relative to the kernel's frozen nominal time::

    normalized = measured × REFERENCE_NOMINAL_S / mean(bracketing samples)

which is the time the interval would have taken on a host running at
the nominal speed.  A change to the planner moves the measured time and
not the kernel, so it shows in full; a slow stretch of the host moves
both, and cancels.  The kernel only runs while the planner is idle, so
it never competes with the work it calibrates.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np

__all__ = ["REFERENCE_NOMINAL_S", "HostSpeed", "Sample", "reference_pass"]

#: Median seconds of one :func:`reference_pass` on the sizing host (a
#: 2-vCPU Linux VM, Python 3.11, NumPy 2.4) in a fast stretch.
REFERENCE_NOMINAL_S = 0.04
#: CPUs a sample visits (one pass each).
MAX_CPUS = 4
_DOC = {"app": "galaxy", "n": 65536.0, "a": 4000.0, "deadline_hours": 48.0,
        "budget_dollars": 350.0, "quota": 5, "seed": 0}


def reference_pass() -> float:
    """Seconds one pass of the fixed reference kernel takes now.

    The cyclic collector is paused so that the kernel's time does not
    depend on how many objects the planner left alive in this process.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = np.random.default_rng(7).random(1 << 19)
        for _ in range(3):
            y = np.cumsum(np.sort(x) * 1.0001)
            int((y > 0.5).sum())
        for i in range(1500):
            text = json.dumps(_DOC, sort_keys=True)
            doc = json.loads(text)
            doc["n"] = i
            "".join(sorted(text.split(","))).encode("utf-8")
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass(frozen=True)
class Sample:
    """One sample: when it ran, and its mean seconds per kernel pass."""

    start: float
    end: float
    seconds: float


class HostSpeed:
    """Reference-kernel samples taken through one run.

    Times are ``time.perf_counter()`` readings, the clock the workloads
    time their intervals with.
    """

    def __init__(self) -> None:
        self.samples: list[Sample] = []

    def sample(self) -> None:
        """Time the kernel now (call it while the planner is idle).

        Neighbours slow each CPU on their own, so the kernel runs once
        pinned to each of the first ``MAX_CPUS`` CPUs this process may
        use, and the sample is the mean.
        """
        allowed = os.sched_getaffinity(0)
        start = time.perf_counter()
        passes = []
        try:
            for cpu in sorted(allowed)[:MAX_CPUS]:
                os.sched_setaffinity(0, {cpu})
                passes.append(reference_pass())
        finally:
            os.sched_setaffinity(0, allowed)
        self.samples.append(Sample(start, time.perf_counter(),
                                   statistics.fmean(passes)))

    def factor(self, start: float, end: float) -> float:
        """Nominal ÷ kernel time around ``[start, end]``: below 1 when slow.

        The samples used are the last one before ``start``, any taken
        inside the interval, and the first one after ``end``.
        """
        before = [s for s in self.samples if s.end <= start][-1:]
        inside = [s for s in self.samples if start < s.end and s.start < end]
        after = [s for s in self.samples if s.start >= end][:1]
        chosen = before + inside + after
        if not chosen:
            raise ValueError("no host-speed sample near the interval")
        return REFERENCE_NOMINAL_S / statistics.fmean(s.seconds
                                                      for s in chosen)

    def normalize(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured over ``[start, end]``, at nominal speed."""
        return seconds * self.factor(start, end)

    def record(self) -> dict:
        """The samples and the run's overall factor, for the run record."""
        return {"factor": REFERENCE_NOMINAL_S / statistics.fmean(
                    s.seconds for s in self.samples),
                "samples_s": [s.seconds for s in self.samples]}
