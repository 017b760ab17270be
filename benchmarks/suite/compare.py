"""Compare two sets of suite runs under the rule in ``BENCHMARK.json``.

Usage::

    python3 benchmarks/suite/compare.py A.jsonl [B.jsonl] [--json]

Each file holds run records, one JSON object per line, as written by
``run.py --out``.  For every workload and every end-to-end metric the
report gives each side's median and quartiles (``statistics.quantiles``
with ``n=4``) and their spread, the distance between the quartiles as a
share of the median.  With two sets, B is compared with A:

* ``unresolved`` — either side's spread exceeds the metric's bound, and
  not every run of B reads better than every run of A;
* ``regression`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the bound;
* ``ok`` — otherwise.

With one set only the spreads are judged (``unresolved`` when a spread
exceeds its bound).  The values compared are the records' end-to-end
numbers, timings scaled to a host of nominal speed as ``run.py`` prints
them.  Each side also reports its failure share and its environment;
a value a run could not produce is shown with the stated reason, never
as a bare null.  Exit status: 0 when every row is ``ok`` or ``better``,
1 otherwise, 2 for unreadable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


class InputError(Exception):
    """A report file is missing, unreadable or malformed."""


def load_runs(path: Path) -> list[dict]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    runs = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}:{number}: not JSON ({exc})") from None
        if not isinstance(record, dict) or "workload" not in record \
                or "end_to_end" not in record:
            raise InputError(f"{path}:{number}: not a suite run record")
        # End-to-end numbers come from untraced runs only.
        if not record.get("trace"):
            runs.append(record)
    if not runs:
        raise InputError(f"{path}: no untraced run records")
    return runs


def summarize(values: list[float]) -> dict:
    """Median, quartiles and spread (IQR ÷ median) of one metric."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def _worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def _all_better(a: list[float], b: list[float], better: str) -> bool:
    if better == "lower":
        return max(b) < min(a)
    return min(b) > max(a)


def judge(metric: dict, a: list[float], b: "list[float] | None") -> dict:
    """One row: summaries, the bound, and the verdict."""
    bound = metric["bound"]
    row = {"metric": metric["name"], "unit": metric["unit"], "bound": bound,
           "a": summarize(a)}
    wide = row["a"]["spread"] > bound
    if b is None:
        row["verdict"] = "unresolved" if wide else "ok"
        return row
    row["b"] = summarize(b)
    wide = wide or row["b"]["spread"] > bound
    worse = _worse_by(row["a"]["median"], row["b"]["median"], metric["better"])
    row["worse_by"] = worse
    if wide and not _all_better(a, b, metric["better"]):
        row["verdict"] = "unresolved"
    elif worse > bound:
        row["verdict"] = "regression"
    elif -worse > bound:
        row["verdict"] = "better"
    else:
        row["verdict"] = "ok"
    return row


def _failure_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def _environment(runs: list[dict]) -> dict:
    env = dict(runs[0].get("env") or {})
    for key, value in env.items():
        if value is None:
            env[key] = "n/a: not recorded by this run"
    if env.get("nproc") == 1:
        env["parallel.sweep_speedup"] = ("n/a: 1 core, so 'auto' workers "
                                         "resolve to a serial sweep")
    return env


def compare(spec: dict, runs_a: list[dict],
            runs_b: "list[dict] | None" = None) -> dict:
    report = {"workloads": {}, "env": {"a": _environment(runs_a)}}
    if runs_b is not None:
        report["env"]["b"] = _environment(runs_b)
    for workload in [w["name"] for w in spec["workloads"]]:
        side_a = [r for r in runs_a if r["workload"] == workload]
        side_b = None if runs_b is None else \
            [r for r in runs_b if r["workload"] == workload]
        if not side_a or side_b == []:
            continue
        rows = []
        for metric in spec["end_to_end"]:
            values_a = [r["end_to_end"][metric["name"]] for r in side_a]
            values_b = None if side_b is None else \
                [r["end_to_end"][metric["name"]] for r in side_b]
            rows.append(judge(metric, values_a, values_b))
        entry = {"rows": rows,
                 "failure_share": {"a": _failure_share(side_a)},
                 "incorrect_runs": {"a": sum(not r["correct"]
                                             for r in side_a)}}
        if side_b is not None:
            entry["failure_share"]["b"] = _failure_share(side_b)
            entry["incorrect_runs"]["b"] = sum(not r["correct"]
                                               for r in side_b)
        report["workloads"][workload] = entry
    return report


def render(report: dict) -> str:
    out = []
    for workload, entry in report["workloads"].items():
        shares = "  ".join(f"{side}: {share:.4f}"
                           for side, share in entry["failure_share"].items())
        out.append(f"== {workload}  failure share {shares}")
        for row in entry["rows"]:
            a = row["a"]
            line = (f"  {row['metric']:<14} A {a['median']:>11.4g} "
                    f"[{a['q1']:.4g}, {a['q3']:.4g}] spread {a['spread']:.3f}")
            if "b" in row:
                b = row["b"]
                line += (f" | B {b['median']:>11.4g} [{b['q1']:.4g}, "
                         f"{b['q3']:.4g}] spread {b['spread']:.3f} "
                         f"worse {row['worse_by']:+.3f}")
            line += f"  bound {row['bound']:g}  {row['verdict']}"
            out.append(line)
    for side, env in report["env"].items():
        out.append(f"env {side}: " + json.dumps(env, sort_keys=True))
    return "\n".join(out)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline run records (JSONL)")
    parser.add_argument("b", type=Path, nargs="?",
                        help="candidate run records (JSONL)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON")
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
        runs_a = load_runs(args.a)
        runs_b = load_runs(args.b) if args.b is not None else None
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare(spec, runs_a, runs_b)
    print(json.dumps(report, indent=2) if args.json else render(report))
    verdicts = [row["verdict"] for entry in report["workloads"].values()
                for row in entry["rows"]]
    return 0 if all(v in ("ok", "better") for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
