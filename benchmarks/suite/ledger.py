"""Per-layer spans recorded from outside the program.

The suite does not edit the code it measures.  For a traced run it
replaces a fixed set of public functions with thin wrappers that record
a span (name, start, end, parent) around each call, then restores the
originals.  A layer's *self time* is its span's duration minus the time
covered by its child spans, so the self times of every span under one
root add up to the root's duration minus the root's own uncovered time.

Spans of one thread nest (a child starts and ends inside its parent),
so parents are tracked with a per-thread stack; the planning service
runs its batches on executor threads, which is why the stack is not a
single list.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Span", "Recorder", "instrument", "patch_points"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, threading.get_ident())
            self.spans.append(span)
        stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> list[float]:
        """Self time of every span, by span index."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def descendants(self, root: int) -> list[int]:
        """Indices of every span below ``root``."""
        children = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(i)
        out, todo = [], list(children[root])
        while todo:
            i = todo.pop()
            out.append(i)
            todo.extend(children[i])
        return sorted(out)

    def layer_totals(self, root: "int | None" = None) -> dict[str, float]:
        """Summed self time per span name (below ``root`` when given)."""
        own = self.self_times()
        indices = (range(len(self.spans)) if root is None
                   else self.descendants(root))
        totals: dict[str, float] = defaultdict(float)
        for i in indices:
            totals[self.spans[i].name] += own[i]
        return dict(totals)

    def layer_means(self) -> dict[str, float]:
        """Mean self time per call, per span name, over every span."""
        own = self.self_times()
        sums: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        for span, value in zip(self.spans, own):
            sums[span.name] += value
            counts[span.name] += 1
        return {name: sums[name] / counts[name] for name in sums}

    def write_jsonl(self, path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": span.id, "name": span.name, "parent": span.parent,
                    "thread": span.thread, "start_s": span.start,
                    "duration_s": span.duration, "self_s": own[i],
                }) + "\n")


def patch_points() -> "list[tuple[str, object, str]]":
    """``(layer, owner, attribute)`` for every wrapped public function.

    Module-level functions are patched where the caller looks them up
    (``repro.core.celia`` imports ``characterize_resources`` by name, so
    that is the binding to replace).
    """
    from repro.cache import EvaluationCache
    from repro.core import celia
    from repro.core.configspace import ConfigurationSpace
    from repro.core.selection import FrontierIndex
    from repro.service import planner

    return [
        ("characterization.characterize", celia, "characterize_resources"),
        ("measurement.demand_grid", celia, "measure_demand_grid"),
        ("measurement.demand_fit", celia, "fit_separable_demand"),
        ("configspace.sweep", ConfigurationSpace, "evaluate"),
        ("selection.frontier_build", FrontierIndex, "__init__"),
        ("selection.feasibility_build", FrontierIndex, "ensure_feasibility"),
        ("selection.select", FrontierIndex, "select"),
        ("selection.select_batch", FrontierIndex, "select_batch"),
        ("selection.feasible_count", FrontierIndex, "feasible_count"),
        ("cache.load", EvaluationCache, "load"),
        ("cache.store", EvaluationCache, "store"),
        ("cache.load_index", EvaluationCache, "load_index"),
        ("cache.store_index", EvaluationCache, "store_index"),
        ("service.demand", celia.Celia, "demand_gi"),
        ("service.serialize", planner, "selection_to_dict"),
    ]


@contextmanager
def instrument(recorder: Recorder):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for layer, owner, attr in patch_points():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(layer, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
