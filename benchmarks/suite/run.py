"""Run the CELIA benchmark suite and print every metric with its unit.

Four workloads (see README.md next to this file for why each exists):

* ``cold-plan``    — Algorithm 1 at quota 5 into an empty snapshot cache;
* ``serve-repeat`` — a re-polled query catalog against a 2-worker fleet;
* ``serve-unique`` — distinct multi-tenant selects against the same fleet;
* ``serve-churn``  — 12 quota-3 signatures through 2 warm slots per worker.

Run from the repository root::

    python3 benchmarks/suite/run.py --workload serve-unique --seed 7 \\
        --seconds 15 --trace 0 [--out runs.jsonl]

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer ledger instead.  End-to-end timings are scaled to a host of
nominal speed (``hostspeed.py``); the values as measured are printed and
recorded beside them.  Every answer the system gives during a run is
checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
``--out`` appends the full run record (checks, notes, environment) as
one JSON line, the input of ``compare.py``.  Without ``--workload`` every
workload runs in turn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 20170843


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _filesystem(path: Path) -> str:
    """Type of the filesystem mounted at the longest prefix of ``path``."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        return "unknown: /proc/mounts unreadable"
    return fstype


def environment(workdir: Path) -> dict:
    import numpy

    from repro.parallel import available_workers

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "available_workers": available_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cache_fs": _filesystem(workdir.resolve()),
    }


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"metric {name} is not finite: {value}")
    return value


def stop_helper_processes() -> None:
    """Stop and reap the helper processes ``multiprocessing`` started.

    The parallel sweep's shared memory starts a resource-tracker process
    that would otherwise outlive this one by a moment and, where nothing
    reaps orphans, stay behind as a zombie.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=10.0)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(name: str, args, spec: dict, workdir: Path) -> dict:
    import coldplan
    import serving

    module = coldplan if name == "cold-plan" else serving
    spans = workdir / f"spans-{name}-{args.seed}.jsonl" if args.trace \
        else None
    result = module.run(name, root=ROOT, workdir=workdir, seed=args.seed,
                        seconds=args.seconds, quota=args.quota, spans=spans)
    if spans is not None:
        result["notes"]["spans"] = str(spans)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result["end_to_end"]
    metrics = {
        m["name"]: {"value": _finite(float(source.get(m["name"], 0.0)),
                                     m["name"]),
                    "unit": m["unit"]}
        for m in declared
    }
    correct = all(ok for _, ok, _ in result["checks"])
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "quota": args.quota,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": result["failed"] / result["attempted"],
        "metrics": metrics,
        "end_to_end": result["end_to_end"],
        "measured": result["measured"],
        "host": result["host"],
        "layers": result["layers"],
        "checks": [{"check": c, "ok": ok, "detail": d}
                   for c, ok, d in result["checks"]],
        "notes": result["notes"],
    }


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed {record['seed']}  "
          f"{record['seconds']:g} s  trace {record['trace']}")
    for check in record["checks"]:
        mark = "ok" if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['check']}: {check['detail']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"error_rate {record['error_rate']:.4f}")
    if record["notes"].get("valid") is False:
        print(f"  INVALID: generator lag p99 "
              f"{record['notes']['generator_lag_p99_ms']:.2f} ms > 5 ms")
    if "spans" in record["notes"]:
        print(f"  spans written to {record['notes']['spans']}")
    print(f"  host speed factor {record['host']['factor']:.4f} over "
          f"{len(record['host']['samples_s'])} samples; as measured: "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["measured"].items()))
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")


def main(argv: "list[str] | None" = None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 prints the per-layer ledger instead of the "
                             "end-to-end metrics")
    parser.add_argument("--out", type=Path,
                        help="append the full run record here as JSON lines")
    parser.add_argument("--quota", type=int,
                        help="override every workload's quota (self-test)")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".benchwork",
                        help="scratch directory for caches, logs and spans")
    args = parser.parse_args(argv)

    # Measure this checkout's code, never an installed copy.
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the planner from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"error: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workdir = args.workdir.resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment(workdir)
    records = []
    try:
        for name in ([args.workload] if args.workload else names):
            record = run_workload(name, args, spec, workdir)
            record["env"] = env
            print_record(record)
            records.append(record)
            if args.out is not None:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
    finally:
        stop_helper_processes()
    print("env " + json.dumps(env))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
