"""Benchmark the configuration-space hot paths at three space sizes.

Times, per space size (Table III catalog at quotas 2, 3 and 5 —
19,682 / 262,143 / 10,077,695 configurations):

* the full-space sweep, serial (one broadcast outer sum per type) vs
  process-parallel (:meth:`ConfigurationSpace.evaluate` with
  ``workers``);
* the structured Algorithm-1 path that needs no sweep at all
  (:class:`StructuredIndex`): its build (frontier plus feasible-count
  tables, ``structured_build_s``) and its per-query select, asserted
  equal — frontier rows and every ``SelectionResult`` — to the swept
  :class:`FrontierIndex` and the streamed scan;
* Algorithm-1 selection, streamed vs the demand-invariant
  :class:`FrontierIndex` fast path (build cost amortized over queries),
  with the index built cold from the value arrays
  (``frontier_index_build_s``) and by merging the candidates the fused
  sweep already produced (``fused_frontier_build_s``);
* index-snapshot persistence: save, mmap'd load, and the end-to-end
  warm start (evaluation load + snapshot load — what a fresh
  ``celia serve`` process pays when the cache is primed).

Run directly (not via pytest)::

    PYTHONPATH=src python benchmarks/bench_configspace.py [--quick]
        [--output PATH]

``--quick`` stops at quota 3 (the 10M-configuration quota-5 space takes
tens of seconds) — the mode the CI benchmark-smoke job runs and compares
against the committed baseline with ``compare_bench.py``.  Results land
in ``BENCH_configspace.json`` at the repository root, including the
machine's core count — the parallel speedup is only meaningful with
multiple cores available.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.cache import EvaluationCache
from repro.cloud.catalog import ec2_catalog
from repro.core.configspace import ConfigurationSpace
from repro.core.selection import (
    FrontierIndex,
    StructuredIndex,
    select_configurations,
)
from repro.parallel import available_workers

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT = REPO_ROOT / "BENCH_configspace.json"

QUOTAS = (2, 3, 5)
QUICK_QUOTAS = (2, 3)
N_QUERIES = 10
#: Synthetic but realistic per-type capacities (GI/s).
CAPACITIES = np.linspace(2.0, 8.0, 9)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def bench_evaluate(space, workers):
    serial, t_serial = _timed(space.evaluate, CAPACITIES)
    t_parallel = None
    if workers > 1:
        parallel, t_parallel = _timed(space.evaluate, CAPACITIES,
                                      workers=workers)
        assert serial.capacity_gips.tobytes() == \
            parallel.capacity_gips.tobytes(), "parallel sweep not bit-identical"
        assert serial.unit_cost_per_hour.tobytes() == \
            parallel.unit_cost_per_hour.tobytes()
    return serial, t_serial, t_parallel


def bench_select(evaluation):
    # Demands spanning light to heavy load against fixed constraints, so
    # queries hit empty, partial and near-full feasible sets.
    max_capacity = float(evaluation.capacity_gips.max())
    demands = np.geomspace(0.01, 10.0, N_QUERIES) * max_capacity * 3600.0
    deadline, budget = 24.0, 350.0

    t0 = time.perf_counter()
    streamed = [
        select_configurations(evaluation, float(d), deadline, budget,
                              method="streamed")
        for d in demands
    ]
    t_streamed = (time.perf_counter() - t0) / N_QUERIES

    # Cold build (no candidates: rescans the value arrays) vs the fused
    # build that merges the per-chunk candidates the sweep shipped back.
    index, t_build = _timed(FrontierIndex, evaluation)
    candidates = evaluation.frontier_candidates()
    t_fused = None
    if candidates is not None:
        fused, t_fused = _timed(FrontierIndex, evaluation,
                                candidates=candidates)
        assert fused.frontier_rows.tobytes() == \
            index.frontier_rows.tobytes(), "fused build not bit-identical"
    _, t_feasibility = _timed(index.ensure_feasibility)
    t0 = time.perf_counter()
    indexed = [
        index.select(float(d), deadline, budget) for d in demands
    ]
    t_indexed = (time.perf_counter() - t0) / N_QUERIES

    for a, b in zip(streamed, indexed):
        assert a.feasible_count == b.feasible_count, "paths disagree"
        assert [p.configuration for p in a.pareto] == \
            [p.configuration for p in b.pareto]
    return (t_streamed, t_build, t_fused, t_feasibility, t_indexed, index,
            demands, indexed)


def bench_structured(space, index, demands, indexed):
    """Build the structured index from the capacities alone and check it
    against the swept index: same frontier rows, same answers."""
    deadline, budget = 24.0, 350.0
    t0 = time.perf_counter()
    structured = StructuredIndex(space, CAPACITIES)
    structured.ensure_feasibility()
    t_build = time.perf_counter() - t0
    assert structured.frontier_rows.tobytes() == \
        index.frontier_rows.tobytes(), "structured frontier differs"
    t0 = time.perf_counter()
    answers = [structured.select(float(d), deadline, budget) for d in demands]
    t_query = (time.perf_counter() - t0) / N_QUERIES
    assert answers == indexed, "structured answers differ from the index"
    return t_build, t_query


def bench_snapshot(space, evaluation, index):
    """Snapshot round-trip in a throwaway cache dir, plus the end-to-end
    warm start a fresh process pays: mmap the evaluation, mmap the index."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = EvaluationCache(tmp)
        cache.store(evaluation, CAPACITIES)
        _, t_save = _timed(cache.store_index, index, CAPACITIES)
        warm_eval, t_eval_load = _timed(cache.load, space, CAPACITIES)
        assert warm_eval is not None
        warm_index, t_load = _timed(cache.load_index, warm_eval, CAPACITIES)
        assert warm_index is not None, "snapshot did not round-trip"
        assert warm_index.frontier_rows.tobytes() == \
            index.frontier_rows.tobytes()
    return t_save, t_load, t_eval_load + t_load


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help=f"only quotas {QUICK_QUOTAS} (CI smoke mode)")
    parser.add_argument("--output", type=Path, default=OUTPUT,
                        help=f"report path (default {OUTPUT.name})")
    args = parser.parse_args()
    workers = available_workers()
    report = {
        "cpu_cores_available": workers,
        "queries_per_select_benchmark": N_QUERIES,
        "spaces": [],
    }
    for quota in (QUICK_QUOTAS if args.quick else QUOTAS):
        space = ConfigurationSpace(ec2_catalog(max_nodes_per_type=quota))
        print(f"quota {quota}: {space.size:,} configurations")
        evaluation, t_serial, t_parallel = bench_evaluate(space, workers)
        (t_streamed, t_build, t_fused, t_feasibility, t_indexed,
         index, demands, indexed) = bench_select(evaluation)
        t_structured, t_structured_query = bench_structured(
            space, index, demands, indexed)
        t_save, t_load, t_warm = bench_snapshot(space, evaluation, index)
        frontier = index.frontier_size
        entry = {
            "quota": quota,
            "space_size": space.size,
            "evaluate_serial_s": round(t_serial, 4),
            "evaluate_parallel_s": (round(t_parallel, 4)
                                    if t_parallel is not None else None),
            "evaluate_parallel_workers": workers if workers > 1 else None,
            "evaluate_speedup": (round(t_serial / t_parallel, 2)
                                 if t_parallel else None),
            "select_streamed_s_per_query": round(t_streamed, 6),
            "frontier_index_build_s": round(t_build, 4),
            "fused_frontier_build_s": (round(t_fused, 4)
                                       if t_fused is not None else None),
            "index_feasibility_build_s": round(t_feasibility, 4),
            "snapshot_save_s": round(t_save, 4),
            "snapshot_load_s": round(t_load, 4),
            "warm_start_s": round(t_warm, 4),
            "select_indexed_s_per_query": round(t_indexed, 6),
            "select_speedup_per_query": round(t_streamed / t_indexed, 1),
            "structured_build_s": round(t_structured, 4),
            "select_structured_s_per_query": round(t_structured_query, 6),
            "frontier_size": frontier,
        }
        report["spaces"].append(entry)
        print(f"  evaluate: serial {t_serial:.3f}s"
              + (f", parallel {t_parallel:.3f}s "
                 f"({t_serial / t_parallel:.2f}x, {workers} workers)"
                 if t_parallel else " (single core; parallel skipped)"))
        print(f"  frontier: cold build {t_build:.3f}s, fused merge "
              + (f"{t_fused:.3f}s" if t_fused is not None else "n/a")
              + f", feasibility {t_feasibility:.3f}s")
        print(f"  snapshot: save {t_save:.3f}s, load {t_load * 1e3:.1f} ms, "
              f"warm start {t_warm * 1e3:.1f} ms")
        print(f"  select:   streamed {t_streamed * 1e3:.2f} ms/query, "
              f"indexed {t_indexed * 1e3:.3f} ms/query "
              f"({t_streamed / t_indexed:.0f}x after a {t_build:.2f}s build, "
              f"frontier {frontier})")
        print(f"  structured: build {t_structured * 1e3:.1f} ms (no sweep), "
              f"select {t_structured_query * 1e3:.3f} ms/query")
    args.output.write_text(json.dumps(report, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
