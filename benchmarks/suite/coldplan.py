"""The cold-plan workload: the paper's own job at the paper's scale.

Each cold plan runs Algorithm 1's whole pipeline for one application at
quota 5 (10,077,695 configurations) into an empty snapshot cache —
characterize, sweep, harvest the frontier, build the feasibility
structure, store both snapshots — and answers one query.  Plans cycle
through galaxy, x264 and sand, one per ``NOMINAL_PLAN_S`` of
``--seconds`` (at least one each).  Warm starts then open a fresh
:class:`Celia` on the primed galaxy cache and answer the Figure-4 query
again.

No HTTP or fleet code runs; this is the writer side of the snapshot
cache, which the serving workloads read.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from ledger import Recorder, instrument
from serving import BUDGET_USD, DEADLINE_H, demand_point, nearest_rank

APPS = ("galaxy", "x264", "sand")
#: Figure 4: galaxy P(65536, 8000) under T' = 24 h, C' = $350.
FIGURE4_QUERY = (65536.0, 8000.0, 24.0, 350.0)
FIGURE4_FEASIBLE = 5_560_701
FIGURE4_FRONTIER = 59
#: ``--seconds`` buys one cold plan per this many seconds (at least one
#: per app): a frozen count, so every run takes the same samples.
NOMINAL_PLAN_S = 5.0
WARM_STARTS = 30
SETUP_REPS = 3
_SETUP_CODE = ("from repro import Celia, ec2_catalog; "
               "Celia(ec2_catalog(max_nodes_per_type={quota}), cache_dir=False)")


def _queries(seed: int) -> dict:
    """Galaxy asks the Figure-4 query; x264 and sand a seeded feasible one."""
    rng = random.Random(f"cold-plan:{seed}")
    queries = {"galaxy": FIGURE4_QUERY}
    for app in ("x264", "sand"):
        n, a = demand_point(rng, app)
        queries[app] = (n, a, DEADLINE_H, BUDGET_USD)
    return queries


def _setup_s(root: Path, quota: int) -> float:
    """Fresh interpreter → planning stack imported and constructed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE.format(quota=quota)],
                   cwd=root, env=env, check=True)
    return time.perf_counter() - t0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _plan(app_name: str, query, cache_dir: Path, quota: int):
    """A fresh ``Celia`` on ``cache_dir`` answers ``query``: a cold plan
    when the directory is empty, a warm start when it is primed."""
    from repro import Celia, application_by_name, ec2_catalog

    t0 = time.perf_counter()
    celia = Celia(ec2_catalog(max_nodes_per_type=quota), cache_dir=cache_dir,
                  workers="auto")
    app = application_by_name(app_name)
    index = celia.selection_index(app)
    result = celia.select(app, *query)
    return time.perf_counter() - t0, index.frontier_rows.copy(), result


class _Answers:
    """First answer per app; every later one must match it exactly."""

    def __init__(self) -> None:
        self.first: dict = {}
        self.mismatches: list[str] = []

    def check(self, app: str, rows, result, where: str) -> None:
        if app not in self.first:
            self.first[app] = (rows, result)
            return
        rows0, result0 = self.first[app]
        if not (rows0.shape == rows.shape and (rows0 == rows).all()
                and result0 == result):
            self.mismatches.append(f"{app} {where}")


def _plans(apps, queries, workdir: Path, quota: int, count: int,
           answers: _Answers, keep: Path, recorder: "Recorder | None" = None,
           host: "HostSpeed | None" = None):
    """``count`` cold plans cycling through ``apps``; per-plan records.

    ``host`` is sampled after each plan, once its memory is released.
    """
    records = []
    for k in range(count):
        app = apps[k % len(apps)]
        cache_dir = keep if app == "galaxy" and not keep.exists() \
            else workdir / f"cold-{k}"
        shutil.rmtree(cache_dir, ignore_errors=True)
        start = time.perf_counter()
        if recorder is None:
            elapsed, rows, result = _plan(app, queries[app], cache_dir, quota)
            root = None
        else:
            with recorder.span("cold_plan") as span:
                _, rows, result = _plan(app, queries[app], cache_dir, quota)
            elapsed, root = span.duration, span.id
        end = time.perf_counter()
        answers.check(app, rows, result, f"cold plan {k}")
        records.append({"app": app, "seconds": elapsed, "root": root,
                        "start": start, "end": end,
                        "bytes": _dir_bytes(cache_dir),
                        "feasible": result.feasible_count,
                        "frontier": len(result.pareto)})
        if cache_dir != keep:
            shutil.rmtree(cache_dir, ignore_errors=True)
        del rows, result
        gc.collect()
        if host is not None:
            host.sample()
    return records


def _oracle(keep: Path, quota: int, answers: _Answers) -> "tuple[bool, str]":
    """One streamed full scan of the space: the indexed answer's referee."""
    from repro import Celia, application_by_name, ec2_catalog, \
        select_configurations

    celia = Celia(ec2_catalog(max_nodes_per_type=quota), cache_dir=keep)
    app = application_by_name("galaxy")
    n, a, deadline, budget = FIGURE4_QUERY
    streamed = select_configurations(
        celia.evaluation(app), celia.demand_gi(app, n, a), deadline, budget,
        method="streamed")
    _, indexed = answers.first["galaxy"]
    return streamed == indexed, (
        f"streamed {streamed.feasible_count} feasible / "
        f"{len(streamed.pareto)} frontier")


def _sweep_speedup(keep: Path, quota: int) -> "tuple[float, float]":
    """Serial and nproc-worker ``evaluate`` of galaxy's capacities."""
    from repro import Celia, ConfigurationSpace, application_by_name, \
        ec2_catalog

    catalog = ec2_catalog(max_nodes_per_type=quota)
    capacities = Celia(catalog, cache_dir=keep).capacities(
        application_by_name("galaxy"))
    space = ConfigurationSpace(catalog)
    times = []
    for workers in (None, "auto"):
        t0 = time.perf_counter()
        space.evaluate(capacities, workers=workers)
        times.append(time.perf_counter() - t0)
        gc.collect()
    return times[0], times[1]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(workload: str, *, root: Path, workdir: Path, seed: int,
        seconds: float, quota: "int | None",
        spans: "Path | None") -> dict:
    """One run; ``spans`` (the traced run's span file) adds the ledger."""
    quota = 5 if quota is None else quota
    queries = _queries(seed)
    shift = seed % len(APPS)
    apps = APPS[shift:] + APPS[:shift]
    keep = workdir / "cold-galaxy"
    shutil.rmtree(keep, ignore_errors=True)
    answers = _Answers()
    host = HostSpeed()
    try:
        host.sample()
        setups = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            setups.append((_setup_s(root, quota), start, time.perf_counter()))
            host.sample()
        count = max(len(APPS), round(seconds / NOMINAL_PLAN_S))
        plans = _plans(apps, queries, workdir, quota, count, answers, keep,
                       host=host)
        warm = []
        for i in range(WARM_STARTS):
            elapsed, rows, result = _plan("galaxy", FIGURE4_QUERY, keep,
                                          quota)
            answers.check("galaxy", rows, result, f"warm start {i}")
            warm.append(elapsed)
        oracle_ok, oracle_detail = _oracle(keep, quota, answers)
        rss_mb = _peak_rss_mb()
        layers = {}
        if spans is not None:
            layers = _traced_layers(apps, queries, workdir, quota, answers,
                                    keep, plans, spans)
    finally:
        shutil.rmtree(keep, ignore_errors=True)

    galaxy = [p for p in plans if p["app"] == "galaxy"]
    checks = [
        ("answers identical across cold plans and warm starts",
         not answers.mismatches,
         "; ".join(answers.mismatches) or f"{len(plans)} plans, "
                                          f"{len(warm)} warm starts"),
        ("indexed answer equals the streamed oracle", oracle_ok,
         oracle_detail),
    ]
    if quota == 5:
        pinned = all(p["feasible"] == FIGURE4_FEASIBLE
                     and p["frontier"] == FIGURE4_FRONTIER for p in galaxy)
        checks.append(("Figure 4 pin: 5,560,701 feasible, 59 frontier points",
                       pinned, f"{galaxy[0]['feasible']} feasible, "
                               f"{galaxy[0]['frontier']} frontier"))
    setup_s = [s for s, _, _ in setups]
    plan_s = [p["seconds"] for p in plans]
    scaled_setup_s = [host.normalize(*s) for s in setups]
    scaled_plan_s = [host.normalize(p["seconds"], p["start"], p["end"])
                     for p in plans]
    return {
        "end_to_end": {
            "setup_s": statistics.median(scaled_setup_s),
            "p50_ms": statistics.median(scaled_plan_s) * 1e3,
            "p95_ms": nearest_rank(scaled_plan_s, 95.0) * 1e3,
            "rss_mb": rss_mb,
        },
        "measured": {
            "setup_s": statistics.median(setup_s),
            "p50_ms": statistics.median(plan_s) * 1e3,
            "p95_ms": nearest_rank(plan_s, 95.0) * 1e3,
            "rss_mb": rss_mb,
        },
        "host": host.record(),
        "layers": {**layers,
                   "celia.warm_start_ms": statistics.median(warm) * 1e3},
        "attempted": len(plans) + len(warm) + 1,
        "failed": 0,
        "checks": checks,
        "notes": {
            "cold_plans": [(p["app"], p["seconds"]) for p in plans],
            "setup_samples_s": setup_s,
            "cache_bytes_per_plan": statistics.median(p["bytes"]
                                                      for p in plans),
        },
    }


def _traced_layers(apps, queries, workdir: Path, quota: int,
                   answers: _Answers, keep: Path, untraced: list,
                   spans: Path) -> dict:
    """One traced cold plan per app, traced warm starts, sweep speedup."""
    recorder = Recorder()
    with instrument(recorder):
        plans = _plans(apps, queries, workdir, quota, len(APPS), answers,
                       workdir / "cold-galaxy-traced", recorder)
        shutil.rmtree(workdir / "cold-galaxy-traced", ignore_errors=True)
        warm_roots = []
        for i in range(10):
            with recorder.span("warm_start") as span:
                _, rows, result = _plan("galaxy", FIGURE4_QUERY, keep,
                                        quota)
            answers.check("galaxy", rows, result, f"traced warm start {i}")
            warm_roots.append(span.id)
    recorder.write_jsonl(spans)
    serial_s, parallel_s = _sweep_speedup(keep, quota)

    per_plan = [recorder.layer_totals(p["root"]) for p in plans]
    per_warm = [recorder.layer_totals(r) for r in warm_roots]

    def median_of(rows, name: str) -> float:
        return statistics.median(row.get(name, 0.0) for row in rows)

    covered = [sum(totals.values()) / p["seconds"]
               for totals, p in zip(per_plan, plans)]
    first_untraced = {}
    for p in untraced:
        first_untraced.setdefault(p["app"], p["seconds"])
    overhead = sum(p["seconds"] for p in plans) / \
        sum(first_untraced[p["app"]] for p in plans)
    layers = {
        "characterization.characterize_s":
            median_of(per_plan, "characterization.characterize"),
        "measurement.demand_fit_s": statistics.median(
            row.get("measurement.demand_grid", 0.0)
            + row.get("measurement.demand_fit", 0.0) for row in per_plan),
        "configspace.sweep_s": median_of(per_plan, "configspace.sweep"),
        "parallel.serial_sweep_s": serial_s,
        "parallel.sweep_speedup": serial_s / parallel_s,
        "selection.frontier_build_s":
            median_of(per_plan, "selection.frontier_build"),
        "selection.feasibility_build_s":
            median_of(per_plan, "selection.feasibility_build"),
        "selection.select_ms": median_of(per_plan, "selection.select") * 1e3,
        "cache.store_s": median_of(per_plan, "cache.store"),
        "cache.store_index_s": median_of(per_plan, "cache.store_index"),
        "cache.bytes": statistics.median(p["bytes"] for p in plans),
        "cache.load_s": median_of(per_warm, "cache.load"),
        "cache.load_index_s": median_of(per_warm, "cache.load_index"),
        "ledger.sum_ratio": statistics.median(covered),
        "ledger.trace_overhead": overhead,
    }
    return layers
