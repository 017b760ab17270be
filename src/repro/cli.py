"""``celia`` — command-line interface to the CELIA pipeline.

Subcommands mirror how a practitioner would use the system:

* ``characterize`` — measure an application's demand model and per-type
  capacities, optionally saving the profile as JSON for reuse;
* ``select`` — run Algorithm 1 and print the Pareto frontier;
* ``predict`` — time/cost of one run on one explicit configuration;
* ``plan`` — best affordable accuracy (or problem size) under a deadline
  and budget;
* ``validate`` — compare a prediction against a simulated execution;
* ``execute`` — run a plan closed-loop under a chaos scenario, optionally
  buying mixed on-demand+spot capacity (``--market``);
* ``market`` — inspect the seeded spot market's per-type price streams
  and the available bid policies;
* ``sweep`` — run (or resume) the fault-tolerant full-space sweep and
  persist its artefacts; interrupted sweeps leave checkpoint shards that
  ``sweep --resume`` picks up instead of starting over;
* ``cache`` — inspect or clear the persistent space-evaluation cache;
* ``serve`` — run the batched JSON-over-HTTP planning service (the
  fleet's keep-alive front end over one in-process shard);
* ``fleet`` — run the sharded multi-process planner fleet (an asyncio
  keep-alive front end consistent-hashing warm keys over N shard
  workers — see ``docs/ops.md``);
* ``loadgen`` — generate seeded multi-tenant request traces, replay
  them open-loop against a running service, and render replay reports
  (see ``docs/loadgen.md``);
* ``trace`` — summarize a ``--trace`` JSONL file or export it to the
  Chrome ``trace_event`` format (``chrome://tracing`` / Perfetto);
* ``profile`` — render the per-phase ``CELIA_PROFILE=1`` cProfile
  tables recorded into a trace.

``select``, ``predict`` and ``plan`` accept ``--json`` for
machine-readable output using the same serializers as the service, so
scripted callers see one schema whether they shell out or talk HTTP.
With ``--json``, stdout carries exactly one JSON document; every
diagnostic goes to stderr.

The global ``--trace PATH`` flag records every phase of the invocation
(including sweep workers in other processes) as spans into a JSONL
file — see ``docs/observability.md``.

All commands operate on the paper's Table III catalog (quota adjustable
with ``--quota``) and the three built-in applications.  Full-space
sweeps run in parallel for large spaces (``--workers``) and persist
their results under ``--cache-dir`` (default ``$CELIA_CACHE_DIR`` or
``~/.cache/celia``; ``--no-cache`` disables persistence).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from repro.errors import InfeasibleError, ReproError

if TYPE_CHECKING:
    from repro.core.celia import Celia

__all__ = ["build_parser", "main"]

APP_CHOICES = ("x264", "galaxy", "sand")


def package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version``, resolved only when given: looking the installed
    version up loads ``importlib.metadata`` and scans the install paths,
    which every other command would pay at start-up."""

    def __init__(self, option_strings, dest=argparse.SUPPRESS,
                 default=argparse.SUPPRESS,
                 help="show program's version number and exit"):
        super().__init__(option_strings, dest=dest, default=default,
                         nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {package_version()}")
        parser.exit()


def _parse_workers(raw: str) -> "int | str":
    if raw == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--workers must be an integer or 'auto', got {raw!r}"
        ) from None


_BATCH_WINDOW_REMOVED = (
    "a select batch no longer waits for a window: it flushes on the next "
    "event-loop tick, or queues behind its signature's running batch")


def _removed_flag(parser: argparse.ArgumentParser, flag: str,
                  reason: str) -> None:
    """Keep a deleted flag known, so passing it is a usage error naming why."""

    class Removed(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            parser.error(f"{option_string} was removed: {reason}")

    parser.add_argument(flag, action=Removed, nargs="?",
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="celia",
        description="Cost-time optimal cloud configurations for elastic "
                    "applications (CELIA, ICPP 2017).",
    )
    parser.add_argument("--version", action=_VersionAction)
    parser.add_argument("--seed", type=int, default=0,
                        help="measurement seed (default 0)")
    parser.add_argument("--quota", type=int, default=5,
                        help="max nodes per instance type (default 5)")
    parser.add_argument("--workers", type=_parse_workers, default="auto",
                        help="space-sweep processes: an integer or 'auto' "
                             "(default: auto)")
    parser.add_argument("--cache-dir",
                        help="evaluation cache directory (default: "
                             "$CELIA_CACHE_DIR or ~/.cache/celia)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the persistent evaluation cache")
    parser.add_argument("--trace", metavar="PATH",
                        help="record a JSONL trace of this invocation "
                             "(inspect with `celia trace`)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize",
                       help="measure demand model and capacities")
    p.add_argument("app", choices=APP_CHOICES)
    p.add_argument("--method", choices=("full", "by-category"),
                   default="full")
    p.add_argument("--output", help="write the profile JSON here")

    p = sub.add_parser("select", help="Pareto-optimal configurations")
    p.add_argument("app", choices=APP_CHOICES)
    p.add_argument("n", type=float, help="problem size")
    p.add_argument("a", type=float, help="accuracy")
    p.add_argument("--deadline", type=float, required=True,
                   help="deadline T' in hours")
    p.add_argument("--budget", type=float, required=True,
                   help="budget C' in dollars")
    p.add_argument("--top", type=int, default=0,
                   help="print only the first K frontier points")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (service schema)")

    p = sub.add_parser("predict", help="time/cost on one configuration")
    p.add_argument("app", choices=APP_CHOICES)
    p.add_argument("n", type=float)
    p.add_argument("a", type=float)
    p.add_argument("--config", required=True,
                   help="comma-separated node counts, catalog order")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (service schema)")

    p = sub.add_parser("plan", help="best affordable accuracy or size")
    p.add_argument("app", choices=APP_CHOICES)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--budget", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--fix-size", type=float,
                       help="fixed n; plan max accuracy")
    group.add_argument("--fix-accuracy", type=float,
                       help="fixed a; plan max problem size")
    p.add_argument("--range", required=True,
                   help="lo,hi search range for the planned knob")
    p.add_argument("--integral", action="store_true",
                   help="knob takes integer values")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (service schema)")

    p = sub.add_parser("validate",
                       help="prediction vs simulated execution")
    p.add_argument("app", choices=APP_CHOICES)
    p.add_argument("n", type=float)
    p.add_argument("a", type=float)
    p.add_argument("--config", required=True)

    p = sub.add_parser("execute",
                       help="closed-loop execution of a plan under chaos")
    p.add_argument("app", nargs="?", choices=APP_CHOICES)
    p.add_argument("n", nargs="?", type=float)
    p.add_argument("a", nargs="?", type=float)
    p.add_argument("--deadline", type=float,
                   help="deadline T' in hours")
    p.add_argument("--budget", type=float,
                   help="budget C' in dollars")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--replan", dest="replan", action="store_true",
                      default=True,
                      help="adaptive closed-loop control (default)")
    mode.add_argument("--static", dest="replan", action="store_false",
                      help="provision once and never re-plan (baseline)")
    p.add_argument("--chaos", default="calm", metavar="SCENARIO",
                   help="chaos scenario to inject (default: calm; "
                        "see `celia execute --list-chaos`)")
    p.add_argument("--list-chaos", action="store_true",
                   help="print the scenario catalog and exit")
    p.add_argument("--config", default=None,
                   help="pin the initial configuration "
                        "(comma-separated node counts, catalog order)")
    p.add_argument("--max-replans", type=int, default=None,
                   help="re-planning budget before giving up")
    p.add_argument("--market", action="store_true",
                   help="buy mixed on-demand+spot capacity against the "
                        "scenario's spot market")
    p.add_argument("--spot-fraction", type=float, default=None,
                   metavar="FRACTION",
                   help="fraction of each type bought on the spot market "
                        "(implies --market; default 0.6)")
    p.add_argument("--bid-policy", default=None, metavar="NAME",
                   help="spot bid policy (implies --market; see "
                        "`celia market policies`)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report with the full timeline")

    p = sub.add_parser("market",
                       help="inspect the seeded spot market")
    msub = p.add_subparsers(dest="market_command", required=True)
    m = msub.add_parser("prices",
                        help="per-type spot price streams vs on-demand")
    m.add_argument("--chaos", default="calm", metavar="SCENARIO",
                   help="scenario whose market surges to apply "
                        "(default: calm)")
    m.add_argument("--json", action="store_true",
                   help="machine-readable per-type summaries")
    m = msub.add_parser("policies", help="available bid policies")
    m.add_argument("--json", action="store_true",
                   help="machine-readable policy list")

    p = sub.add_parser("spot",
                       help="spot-vs-on-demand Monte-Carlo study")
    p.add_argument("app", choices=APP_CHOICES)
    p.add_argument("n", type=float)
    p.add_argument("a", type=float)
    p.add_argument("--deadline", type=float, required=True)
    p.add_argument("--bid", type=float, default=0.5,
                   help="bid as a fraction of the on-demand price")
    p.add_argument("--trials", type=int, default=30)

    p = sub.add_parser("sweep",
                       help="run or resume the checkpointed full-space sweep")
    p.add_argument("app", choices=APP_CHOICES)
    p.add_argument("--resume", action="store_true",
                   help="pick up checkpoint shards from an interrupted "
                        "sweep instead of starting fresh")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="configurations decoded per chunk (advanced; "
                        "resume requires the interrupted sweep's value)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable sweep statistics")

    p = sub.add_parser("snapshot",
                       help="build or inspect mmap'd frontier-index "
                            "snapshots")
    ssub = p.add_subparsers(dest="snapshot_command", required=True)
    s = ssub.add_parser("build",
                        help="prewarm: evaluate the space (or load it "
                             "from cache) and persist its frontier index "
                             "for millisecond warm starts")
    s.add_argument("app", choices=APP_CHOICES)
    s.add_argument("--block-size", type=int, default=None,
                   help="feasibility-structure rows per block "
                        "(default 4096; advanced)")
    s.add_argument("--json", action="store_true",
                   help="machine-readable result")
    s = ssub.add_parser("info",
                        help="list index snapshots on disk")
    s.add_argument("--json", action="store_true",
                   help="machine-readable listing")

    p = sub.add_parser("cache",
                       help="inspect or clear the evaluation cache")
    p.add_argument("action", choices=("info", "clear"))

    p = sub.add_parser("trace",
                       help="inspect or convert a --trace JSONL file")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    t = tsub.add_parser("export",
                        help="convert to Chrome trace_event JSON "
                             "(chrome://tracing, ui.perfetto.dev)")
    t.add_argument("input", help="JSONL trace written by --trace")
    t.add_argument("--output",
                   help="output path (default: <input>.chrome.json)")
    t = tsub.add_parser("summary",
                        help="per-span aggregates and wall-clock coverage")
    t.add_argument("input", help="JSONL trace written by --trace")
    t.add_argument("--json", action="store_true",
                   help="machine-readable summary")

    p = sub.add_parser("profile",
                       help="render CELIA_PROFILE tables from a trace")
    p.add_argument("input", help="JSONL trace holding profile records "
                                 "(run with CELIA_PROFILE=1 --trace PATH)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable tables")

    p = sub.add_parser("serve",
                       help="run the batched JSON-over-HTTP planning service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8337)
    p.add_argument("--warm", action="append", choices=APP_CHOICES,
                   default=None, metavar="APP",
                   help="pre-warm an application's state before "
                        "accepting requests (repeatable)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission-control queue depth (default 64)")
    _removed_flag(p, "--batch-window-ms", _BATCH_WINDOW_REMOVED)
    p.add_argument("--max-batch", type=int, default=32,
                   help="max requests per vectorized batch (default 32)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="default per-request deadline in seconds")

    p = sub.add_parser("fleet",
                       help="run the sharded multi-process planner fleet")
    fsub = p.add_subparsers(dest="fleet_command", required=True)
    f = fsub.add_parser("serve",
                        help="asyncio front end routing over N shard "
                             "worker processes")
    f.add_argument("--workers", dest="fleet_workers", type=int, default=2,
                   help="shard worker processes (default 2)")
    f.add_argument("--host", default="127.0.0.1")
    f.add_argument("--port", type=int, default=8337)
    f.add_argument("--warm", action="append", choices=APP_CHOICES,
                   default=None, metavar="APP",
                   help="pre-warm an application's state on its owning "
                        "shard before accepting requests (repeatable)")
    f.add_argument("--max-warm", type=int, default=None,
                   help="LRU cap on warm signatures per worker "
                        "(default: unbounded)")
    f.add_argument("--max-queue", type=int, default=64,
                   help="admission-control queue depth per worker "
                        "(default 64)")
    _removed_flag(f, "--batch-window-ms", _BATCH_WINDOW_REMOVED)
    f.add_argument("--max-batch", type=int, default=32,
                   help="max requests per vectorized batch (default 32)")
    f.add_argument("--timeout", type=float, default=30.0,
                   help="default per-request deadline in seconds")
    f.add_argument("--call-timeout", type=float, default=None,
                   help="front-end deadline per routed worker call; a "
                        "hung worker trips a reroute instead of stalling "
                        "its shard (default: unbounded)")
    f.add_argument("--max-inflight", type=int, default=None,
                   help="per-worker in-flight cap; excess requests are "
                        "shed with a typed 503 + Retry-After "
                        "(default: unbounded)")
    f.add_argument("--max-total-inflight", type=int, default=None,
                   help="fleet-wide in-flight cap; excess requests get "
                        "a typed 429 (default: unbounded)")
    f.add_argument("--retry-after", type=float, default=1.0,
                   help="Retry-After hint in seconds on shed responses "
                        "(default 1)")
    f.add_argument("--drain-timeout", type=float, default=10.0,
                   help="seconds to wait for in-flight requests on "
                        "SIGTERM before force-closing connections")
    f.add_argument("--no-health-probes", action="store_true",
                   help="disable heartbeat probing (hung-worker "
                        "ejection and re-admission)")
    f.add_argument("--probe-interval", type=float, default=0.5,
                   help="seconds between heartbeat probes per worker "
                        "(default 0.5)")
    f.add_argument("--probe-timeout", type=float, default=2.0,
                   help="seconds before an unanswered probe counts as "
                        "a miss (default 2)")
    f.add_argument("--probe-max-missed", type=int, default=2,
                   help="consecutive probe misses before a worker is "
                        "ejected from the ring (default 2)")
    f.add_argument("--chaos", default=None, metavar="SCENARIO",
                   help="inject a named fleet chaos scenario once the "
                        "fleet is ready (see --list-chaos)")
    f.add_argument("--chaos-seed", type=int, default=0,
                   help="seed for the chaos plan's randomness "
                        "(frame-drop pattern)")
    f.add_argument("--list-chaos", action="store_true",
                   help="list the named fleet chaos scenarios and exit")

    p = sub.add_parser("loadgen",
                       help="seeded multi-tenant load generation, open-loop "
                            "replay and replay reports")
    lsub = p.add_subparsers(dest="loadgen_command", required=True)
    lg = lsub.add_parser("generate",
                         help="emit a deterministic JSONL request trace")
    lg.add_argument("--tenants", type=int, default=6,
                    help="number of tenants (Zipf-weighted, default 6)")
    lg.add_argument("--duration", type=float, default=30.0,
                    help="trace length in seconds (default 30)")
    lg.add_argument("--rps", type=float, default=20.0,
                    help="target aggregate request rate (default 20)")
    lg.add_argument("--apps", default="galaxy,x264,sand",
                    help="comma-separated app mix cycled across tenants")
    lg.add_argument("--planner-seeds", default="0",
                    help="comma-separated measurement seeds cycled across "
                         "tenants (each (app, quota, seed) is one warm "
                         "state)")
    lg.add_argument("--trace-quota", type=int, default=2,
                    help="catalog quota stamped on every request "
                         "(default 2; match the serving fleet's --quota)")
    lg.add_argument("--diurnal-amplitude", type=float, default=0.4,
                    help="relative diurnal swing in [0, 1) (default 0.4)")
    lg.add_argument("--diurnal-period", type=float, default=60.0,
                    help="synthetic day length in seconds (default 60)")
    lg.add_argument("--bursts-per-minute", type=float, default=1.0,
                    help="expected burst episodes per tenant-minute")
    lg.add_argument("--burst-multiplier", type=float, default=4.0,
                    help="arrival-rate multiplier inside bursts")
    lg.add_argument("--think-alpha", type=float, default=1.6,
                    help="Pareto tail exponent for think times")
    lg.add_argument("--name", default="loadgen",
                    help="trace name recorded in the header")
    lg.add_argument("--output", metavar="PATH",
                    help="write the JSONL trace here ('-' for stdout; "
                         "default: store in the evaluation cache and "
                         "print the key)")
    lg.add_argument("--json", action="store_true",
                    help="print the trace summary as JSON")

    lr = lsub.add_parser("replay",
                         help="fire a trace open-loop at a running "
                              "`celia serve` or `celia fleet serve`")
    # dest avoids the global --trace observability flag (same namespace).
    lr.add_argument("trace_input", metavar="trace",
                    help="JSONL trace path or an evaluation-cache trace key")
    lr.add_argument("--host", default="127.0.0.1")
    lr.add_argument("--port", type=int, default=8337)
    lr.add_argument("--time-scale", type=float, default=1.0,
                    help="replay speed-up: 2.0 compresses trace time 2x "
                         "(default 1.0)")
    lr.add_argument("--timeout", type=float, default=30.0,
                    help="per-request response timeout in seconds")
    lr.add_argument("--no-prewarm", action="store_true",
                    help="skip the untimed warm-state priming pass "
                         "(first contact then pays the state build)")
    lr.add_argument("--output", metavar="PATH",
                    help="write the replay report JSON here")
    lr.add_argument("--json", action="store_true",
                    help="print the replay report as JSON")

    lp = lsub.add_parser("report",
                         help="render a saved replay report")
    lp.add_argument("report", help="replay report JSON path")
    lp.add_argument("--json", action="store_true",
                    help="print the report as JSON")
    return parser


def _parse_config(raw: str, width: int) -> tuple[int, ...]:
    try:
        values = tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise SystemExit(f"--config must be comma-separated integers, "
                         f"got {raw!r}") from None
    if len(values) != width:
        raise SystemExit(f"--config needs {width} entries, got {len(values)}")
    return values


def _parse_range(raw: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in raw.split(","))
    except ValueError:
        raise SystemExit(f"--range must be 'lo,hi', got {raw!r}") from None
    return lo, hi


def _app(celia: Celia, name: str):
    """The named paper application, seeded like ``celia``."""
    from repro.apps import application_by_name

    return application_by_name(name, seed=celia.seed)


def _cmd_characterize(celia: Celia, args) -> int:
    from repro.utils.tables import TextTable

    app = _app(celia, args.app)
    celia.characterization_method = args.method
    fitted = celia.demand_model(app)
    print(fitted.describe())
    print()
    characterization = celia.characterization(app)
    table = TextTable(["Type", "W [GI/s]", "GI/s per $/h"], aligns="lrr",
                      float_format="{:.2f}")
    for entry in characterization.entries:
        table.add_row([entry.type_name, entry.rate_gips,
                       entry.normalized_performance])
    print(table.render())
    if args.output:
        celia.profile(app).save(args.output)
        print(f"\nprofile written to {args.output}")
    return 0


def _cmd_select(celia: Celia, args) -> int:
    from repro.utils.tables import TextTable

    app = _app(celia, args.app)
    result = celia.select(app, args.n, args.a, args.deadline, args.budget)
    if args.json:
        from repro.service.serialize import selection_to_dict

        print(json.dumps(selection_to_dict(result, top=args.top), indent=2))
        return 0 if result.pareto else 1
    print(f"{result.feasible_count:,} of {result.total_configurations:,} "
          f"configurations feasible; {result.pareto_count} Pareto-optimal")
    if not result.pareto:
        print("no feasible configuration — relax the deadline or budget")
        return 1
    points = result.pareto[:args.top] if args.top else result.pareto
    table = TextTable(["Configuration", "T (h)", "C ($)"], aligns="lrr",
                      float_format="{:.2f}")
    for p in points:
        table.add_row([str(list(p.configuration)), p.time_hours,
                       p.cost_dollars])
    print(table.render())
    lo, hi = result.cost_span
    print(f"frontier cost span ${lo:.2f}-${hi:.2f} "
          f"(cheapest saves {result.max_saving_fraction:.0%})")
    return 0


def _cmd_predict(celia: Celia, args) -> int:
    app = _app(celia, args.app)
    config = _parse_config(args.config, len(celia.catalog))
    pred = celia.predict(app, args.n, args.a, config)
    if args.json:
        from repro.service.serialize import prediction_to_dict

        print(json.dumps(prediction_to_dict(pred), indent=2))
        return 0
    print(f"demand   : {pred.demand_gi:,.0f} GI")
    print(f"capacity : {pred.capacity_gips:.2f} GI/s")
    print(f"time     : {pred.time_hours:.2f} h")
    print(f"cost     : ${pred.cost_dollars:.2f} "
          f"(${pred.unit_cost_per_hour:.3f}/h)")
    return 0


def _cmd_plan(celia: Celia, args) -> int:
    from repro.core.planner import max_accuracy_plan, max_problem_size_plan

    app = _app(celia, args.app)
    demand = celia.demand_model(app)
    index = celia.min_cost_index(app)
    knob_range = _parse_range(args.range)
    if args.fix_size is not None:
        plan = max_accuracy_plan(demand, index, args.fix_size, knob_range,
                                 args.deadline, args.budget,
                                 integral=args.integral)
    else:
        plan = max_problem_size_plan(demand, index, args.fix_accuracy,
                                     knob_range, args.deadline, args.budget,
                                     integral=args.integral)
    if args.json:
        from repro.service.serialize import plan_to_dict

        print(json.dumps(plan_to_dict(plan), indent=2))
        return 0
    print(plan.describe())
    return 0


def _cmd_validate(celia: Celia, args) -> int:
    from repro.engine.runner import run_on_configuration
    from repro.utils.mathutil import percent_error

    app = _app(celia, args.app)
    config = _parse_config(args.config, len(celia.catalog))
    pred = celia.predict(app, args.n, args.a, config)
    report = run_on_configuration(app, args.n, args.a, config, celia.catalog,
                                  config=celia.engine_config,
                                  seed=celia.seed)
    t_err = percent_error(pred.time_hours, report.time_hours)
    c_err = percent_error(pred.cost_dollars, report.cost_dollars)
    print(f"predicted: {pred.time_hours:.2f} h / ${pred.cost_dollars:.2f}")
    print(f"actual   : {report.time_hours:.2f} h / "
          f"${report.cost_dollars:.2f} (simulated, billed hourly)")
    print(f"error    : time {t_err:.1f}%, cost {c_err:.1f}%")
    return 0


def _cmd_execute(celia: Celia, args) -> int:
    from repro.runtime import (
        SCENARIOS,
        AdaptiveController,
        RuntimeConfig,
        chaos_scenario,
    )
    from repro.utils.tables import TextTable

    if args.list_chaos:
        table = TextTable(
            ["Scenario", "Capacity", "Throttle", "Crash/h", "Stragglers"],
            aligns="lrrrr", float_format="{:.2f}")
        for scenario in SCENARIOS.values():
            table.add_row([
                scenario.name,
                scenario.insufficient_capacity_rate,
                scenario.throttle_rate,
                scenario.crash_rate_per_hour,
                f"{scenario.straggler_fraction:.0%}@"
                f"{scenario.straggler_slowdown:g}x",
            ])
        print(table.render())
        return 0
    if args.app is None or args.n is None or args.a is None:
        raise SystemExit("execute needs app, n and a (or --list-chaos)")
    if args.deadline is None or args.budget is None:
        raise SystemExit("execute needs --deadline and --budget")

    app = _app(celia, args.app)
    overrides = {"replan": args.replan}
    if args.max_replans is not None:
        overrides["max_replans"] = args.max_replans
    market_policy = None
    if args.market or args.spot_fraction is not None or args.bid_policy:
        from repro.market import MarketPolicy

        policy_overrides = {}
        if args.spot_fraction is not None:
            policy_overrides["spot_fraction"] = args.spot_fraction
        if args.bid_policy:
            policy_overrides["bid_policy"] = args.bid_policy
        market_policy = MarketPolicy(**policy_overrides)
    controller = AdaptiveController(
        celia, app, scenario=chaos_scenario(args.chaos),
        config=RuntimeConfig(**overrides), seed=celia.seed,
        market_policy=market_policy)
    configuration = (_parse_config(args.config, len(celia.catalog))
                     if args.config else None)
    report = controller.execute(args.n, args.a, args.deadline, args.budget,
                                configuration=configuration)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        mode = "adaptive" if report.adaptive else "static"
        print(f"{report.app_name}({args.n:g}, {args.a:g}) under "
              f"'{report.scenario}' [{mode}]: {report.verdict}")
        print(f"  elapsed : {report.elapsed_hours:.2f} h "
              f"(deadline {report.deadline_hours:g} h, "
              f"{'met' if report.deadline_met else 'MISSED'})")
        print(f"  cost    : ${report.cost_dollars:.2f} "
              f"(budget ${report.budget_dollars:g}, "
              f"{'met' if report.budget_met else 'EXCEEDED'})")
        print(f"  work    : {report.work_done_gi:,.0f} GI done, "
              f"{report.remaining_gi:,.0f} GI remaining")
        if report.final_accuracy != report.initial_accuracy:
            print(f"  accuracy: degraded {report.initial_accuracy:g} -> "
                  f"{report.final_accuracy:g}")
        print(f"  events  : {report.provision_attempts} provision attempts, "
              f"{report.crashes} crashes, {report.replans} replans, "
              f"{report.migrations} migrations, "
              f"{report.degradations} degradations")
        if report.market:
            fallback = (", fell back to on-demand"
                        if report.ondemand_fallback else "")
            print(f"  market  : ${report.spot_cost_dollars:.2f} of the bill "
                  f"at spot prices, {report.spot_interruptions} "
                  f"spot interruption(s){fallback}")
    return 0 if report.verdict in ("met", "degraded") else 1


def _cmd_market(celia: Celia, args) -> int:
    from repro.market import SpotMarket, bid_policy, bid_policy_names
    from repro.runtime import chaos_scenario
    from repro.utils.rng import spawn_seed
    from repro.utils.tables import TextTable

    if args.market_command == "policies":
        rows = [(name, bid_policy(name).describe())
                for name in bid_policy_names()]
        if args.json:
            print(json.dumps([{"name": n, "description": d}
                              for n, d in rows], indent=2))
            return 0
        table = TextTable(["Policy", "Description"], aligns="ll")
        for name, description in rows:
            table.add_row([name, description])
        print(table.render())
        return 0

    scenario = chaos_scenario(args.chaos)
    market = SpotMarket(celia.catalog, scenario.market_config(),
                        seed=spawn_seed(celia.seed, "spot-market"))
    rows = [market.describe(itype.name) for itype in celia.catalog]
    if args.json:
        print(json.dumps({"scenario": scenario.name, "seed": celia.seed,
                          "horizon_hours": market.config.horizon_hours,
                          "types": rows}, indent=2))
        return 0
    print(f"spot market under '{scenario.name}' (seed {celia.seed}, "
          f"{market.config.horizon_hours:g} h horizon)")
    table = TextTable(
        ["Type", "On-demand $/h", "Mean $/h", "Min", "Max", "h > on-demand"],
        aligns="lrrrrr", float_format="{:.4f}")
    for row in rows:
        table.add_row([row["type"], row["on_demand_price"],
                       row["mean_price"], row["min_price"], row["max_price"],
                       f"{row['hours_above_on_demand']:.1f}"])
    print(table.render())
    return 0


def _cmd_spot(celia: Celia, args) -> int:
    from repro.spot import compare_spot_vs_ondemand

    app = _app(celia, args.app)
    demand = celia.demand_gi(app, args.n, args.a)
    ondemand = celia.min_cost_index(app).query(demand, args.deadline)
    study = compare_spot_vs_ondemand(
        ondemand, demand, celia.catalog, args.deadline,
        bid_fraction=args.bid, trials=args.trials, seed=celia.seed)
    print(study.render())
    return 0


def _cmd_sweep(celia: Celia, args) -> int:
    from repro.core.configspace import DEFAULT_CHUNK, SpaceEvaluation
    from repro.parallel import evaluate_resilient, resolve_workers

    cache = celia.evaluation_cache
    if cache is None:
        print("sweep persists artefacts and needs the cache; "
              "drop --no-cache", file=sys.stderr)
        return 2
    app = _app(celia, args.app)
    capacities = celia.capacities(app)
    if cache.load(celia.space, capacities) is not None:
        from repro.cache import evaluation_cache_key

        key = evaluation_cache_key(celia.catalog, capacities)
        if args.json:
            # stdout must stay one parseable JSON document; the human
            # notice would otherwise corrupt scripted callers.
            print(json.dumps({"app": args.app, "key": key,
                              "space_size": celia.space.size,
                              "cached": True}, indent=2))
            return 0
        print(f"evaluation already cached (key {key[:12]}, "
              f"{celia.space.size:,} configurations); nothing to sweep")
        return 0
    chunk_size = args.chunk_size or DEFAULT_CHUNK
    checkpoint = cache.sweep_checkpoint(celia.space, capacities,
                                        chunk_size=chunk_size)
    if not args.resume:
        checkpoint.discard()
    workers = max(1, resolve_workers(celia.workers, celia.space.size))
    try:
        capacity, unit_cost, stats = evaluate_resilient(
            celia.space, capacities, workers=workers, chunk_size=chunk_size,
            checkpoint=checkpoint)
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        print(f"\ninterrupted; completed spans are checkpointed under "
              f"{checkpoint.directory}\nresume with: "
              f"celia sweep {args.app} --resume", file=sys.stderr)
        return 130
    evaluation = SpaceEvaluation(space=celia.space, capacity_gips=capacity,
                                 unit_cost_per_hour=unit_cost)
    key = cache.store(evaluation, capacities)
    checkpoint.discard()
    if args.json:
        print(json.dumps({"app": args.app, "key": key,
                          "space_size": celia.space.size, "cached": False,
                          "workers": workers, **stats.to_dict()}, indent=2))
        return 0
    print(f"swept {celia.space.size:,} configurations with {workers} "
          f"worker(s) in {stats.wall_s:.2f}s")
    print(f"  spans: {stats.spans_resumed} resumed from checkpoint, "
          f"{stats.spans_evaluated} evaluated"
          + (f", {stats.retries} retried" if stats.retries else "")
          + (f", {stats.workers_lost} worker(s) lost"
             if stats.workers_lost else ""))
    print(f"  cached under key {key[:12]} in {cache.cache_dir}")
    return 0


def _cmd_snapshot(celia: Celia, args) -> int:
    import time

    from repro.utils.tables import TextTable

    cache = celia.evaluation_cache
    if cache is None:  # snapshots live in the cache directory
        print("snapshots live in the persistent cache; drop --no-cache",
              file=sys.stderr)
        return 2
    if args.snapshot_command == "info":
        snapshots = cache.index_snapshots()
        if args.json:
            print(json.dumps([{
                "key": s.key, "block_size": s.block_size,
                "space_size": s.space_size, "frontier_size": s.frontier_size,
                "bytes": s.bytes_on_disk} for s in snapshots], indent=2))
            return 0
        print(f"cache directory: {cache.cache_dir}")
        if not snapshots:
            print("no index snapshots (build one with `celia snapshot "
                  "build <app>`)")
            return 0
        table = TextTable(["Key", "Block", "Space size", "Frontier",
                           "Bytes"], aligns="lrrrr")
        for s in snapshots:
            table.add_row([s.key[:12], str(s.block_size),
                           f"{s.space_size:,}", f"{s.frontier_size:,}",
                           f"{s.bytes_on_disk:,}"])
        print(table.render())
        return 0

    from repro.cache import evaluation_cache_key
    from repro.core.selection import DEFAULT_FEASIBILITY_BLOCK, FrontierIndex

    app = _app(celia, args.app)
    capacities = celia.capacities(app)
    block_size = args.block_size or DEFAULT_FEASIBILITY_BLOCK
    t0 = time.perf_counter()
    evaluation = celia.evaluation(app)
    evaluate_s = time.perf_counter() - t0
    key = evaluation_cache_key(celia.catalog, capacities)
    t0 = time.perf_counter()
    index = cache.load_index(evaluation, capacities, block_size=block_size)
    loaded = index is not None
    if not loaded:
        index = FrontierIndex(evaluation, block_size=block_size,
                              candidates=evaluation.frontier_candidates())
        cache.store_index(index, capacities)
    snapshot_s = time.perf_counter() - t0
    if args.json:
        print(json.dumps({
            "app": args.app, "key": key, "block_size": block_size,
            "space_size": evaluation.space.size,
            "frontier_size": int(index.frontier_rows.size),
            "loaded": loaded, "evaluate_s": evaluate_s,
            "snapshot_s": snapshot_s}, indent=2))
        return 0
    verb = "loaded existing snapshot" if loaded else "built and persisted"
    print(f"{verb} for {args.app} (key {key[:12]}, block {block_size}) "
          f"in {snapshot_s:.3f}s")
    print(f"  space   : {evaluation.space.size:,} configurations "
          f"(evaluated/loaded in {evaluate_s:.3f}s)")
    print(f"  frontier: {index.frontier_rows.size:,} configurations")
    print(f"  cache   : {cache.cache_dir}")
    return 0


def _cmd_cache(celia: Celia, args) -> int:
    from repro.utils.tables import TextTable

    cache = celia.evaluation_cache
    if cache is None:  # --no-cache with the cache command is a user error
        print("persistent cache is disabled (--no-cache)", file=sys.stderr)
        return 2
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached evaluation(s) and any index "
              f"snapshots from {cache.cache_dir}")
        return 0
    entries = cache.entries()
    checkpoints = cache.sweep_checkpoints()
    snapshots = cache.index_snapshots()
    traces = cache.trace_entries()
    print(f"cache directory: {cache.cache_dir}")
    if not entries and not checkpoints and not snapshots and not traces:
        print("no cached evaluations")
        return 0
    if entries:
        table = TextTable(["Key", "Space size", "Types", "Bytes"],
                          aligns="lrrr")
        for entry in entries:
            table.add_row([entry.key[:12], f"{entry.space_size:,}",
                           str(len(entry.type_names)),
                           f"{entry.bytes_on_disk:,}"])
        print(table.render())
    print(f"total: {len(entries)} entries, {cache.total_bytes():,} bytes")
    if snapshots:
        print("index snapshots (mmap'd warm starts):")
        for s in snapshots:
            print(f"  {s.key[:12]}: block {s.block_size}, "
                  f"{s.frontier_size:,} frontier row(s), "
                  f"{s.bytes_on_disk:,} bytes")
    if checkpoints:
        print("interrupted sweeps (resume with `celia sweep --resume`):")
        for key, n_shards, size in checkpoints:
            print(f"  {key[:12]}: {n_shards} checkpointed span(s), "
                  f"{size:,} bytes")
    if traces:
        print("loadgen traces (replay with `celia loadgen replay KEY`):")
        for t in traces:
            print(f"  {t.key[:12]}: {t.name} seed {t.seed}, "
                  f"{t.requests:,} request(s) over {t.duration_s:g}s, "
                  f"{t.bytes_on_disk:,} bytes")
    return 0


def _cmd_trace(_celia: "Celia | None", args) -> int:
    from repro.obs import export_chrome_trace, read_trace, trace_summary
    from repro.utils.tables import TextTable

    if args.trace_command == "export":
        output = args.output or f"{args.input}.chrome.json"
        events = export_chrome_trace(args.input, output)
        print(f"wrote {events} trace event(s) to {output}")
        print("open chrome://tracing or https://ui.perfetto.dev "
              "and load the file", file=sys.stderr)
        return 0
    summary = trace_summary(read_trace(args.input))
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    print(f"{summary['spans']} span(s), {summary['errors']} error(s), "
          f"{summary['profile_records']} profile record(s)")
    print(f"window {summary['window_s']:.3f}s, span coverage "
          f"{summary['coverage']:.1%}")
    if summary["by_name"]:
        table = TextTable(["Span", "Count", "Wall (s)", "CPU (s)",
                           "Max (s)"], aligns="lrrrr",
                          float_format="{:.4f}")
        for name, row in summary["by_name"].items():
            table.add_row([name, str(row["count"]), row["wall_s"],
                           row["cpu_s"], row["max_wall_s"]])
        print(table.render())
    return 0


def _cmd_profile(_celia: "Celia | None", args) -> int:
    from repro.obs import read_trace
    from repro.obs.profile import ProfileStore, render_tables

    store = ProfileStore()
    for record in read_trace(args.input):
        if record.get("kind") == "profile":
            store.add(record.get("phase", "?"), record.get("rows", []))
    tables = store.tables()
    if args.json:
        print(json.dumps(tables, indent=2))
        return 0
    print(render_tables(tables), end="")
    return 0


def _cmd_serve(celia: Celia, args) -> int:
    from repro.fleet import FleetFrontend, LocalFleet, run_frontend
    from repro.service import PlannerService, ServiceConfig

    config = ServiceConfig(
        max_queue_depth=args.max_queue,
        max_batch=args.max_batch,
        default_timeout_s=args.timeout,
        default_quota=args.quota,
        default_seed=args.seed,
        workers=args.workers,
        cache_dir=False if args.no_cache else args.cache_dir,
    )
    service = PlannerService(config=config)
    frontend = FleetFrontend(LocalFleet(service), host=args.host,
                             port=args.port,
                             expected_warm=tuple(args.warm or ()))
    run_frontend(
        frontend,
        ready_callback=lambda frontend: print(
            f"celia service listening on http://{frontend.host}:"
            f"{frontend.port} (quota {args.quota}, "
            f"{len(service.warm_signatures)} warm)",
            flush=True),
    )
    return 0


def _cmd_fleet(celia: Celia, args) -> int:
    # The fleet front end serves HTTP only and loads no numpy; the chaos
    # tooling (seeded through numpy) is imported only when asked for.
    from repro.fleet.supervisor import FleetConfig, run_fleet

    if args.list_chaos:
        from repro.fleet.chaos import fleet_chaos_names

        for name in fleet_chaos_names():
            print(name)
        return 0
    chaos_plan = None
    if args.chaos is not None:
        from repro.fleet.chaos import fleet_chaos_plan

        chaos_plan = fleet_chaos_plan(args.chaos,
                                      workers=args.fleet_workers,
                                      seed=args.chaos_seed)
    config = FleetConfig(
        workers=args.fleet_workers,
        host=args.host,
        port=args.port,
        quota=args.quota,
        seed=args.seed,
        max_warm=args.max_warm,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        timeout_s=args.timeout,
        cache_dir=False if args.no_cache else args.cache_dir,
        warm_apps=tuple(args.warm or ()),
        call_timeout_s=args.call_timeout,
        max_inflight=args.max_inflight,
        max_total_inflight=args.max_total_inflight,
        shed_retry_after_s=args.retry_after,
        health_probes=not args.no_health_probes,
        probe_interval_s=args.probe_interval,
        probe_timeout_s=args.probe_timeout,
        probe_max_missed=args.probe_max_missed,
    )
    run_fleet(
        config,
        drain_timeout_s=args.drain_timeout,
        chaos_plan=chaos_plan,
        ready_callback=lambda frontend: print(
            f"celia fleet listening on http://{frontend.host}:"
            f"{frontend.port} ({config.workers} workers, quota "
            f"{config.quota})"
            + (f" [chaos: {args.chaos}]" if args.chaos else ""),
            flush=True),
    )
    return 0


def _load_trace_argument(raw: str, cache_dir, no_cache: bool):
    """Resolve a replay's trace argument: file path first, cache key second."""
    import os

    from repro.cache import EvaluationCache
    from repro.loadgen import Trace

    if os.path.isfile(raw):
        return Trace.read(raw)
    if not no_cache:
        cache = EvaluationCache(cache_dir)
        text = cache.load_trace(raw)
        if text is None:
            # accept a unique key prefix (cache info prints key[:12])
            matches = [e.key for e in cache.trace_entries()
                       if e.key.startswith(raw)]
            if len(matches) == 1:
                text = cache.load_trace(matches[0])
            elif len(matches) > 1:
                raise SystemExit(
                    f"trace key prefix {raw!r} is ambiguous "
                    f"({len(matches)} matches)")
        if text is not None:
            return Trace.from_jsonl(text)
    raise SystemExit(f"no trace file or cached trace key {raw!r}")


def _cmd_loadgen(_celia: "Celia | None", args) -> int:
    import asyncio

    from repro.cache import EvaluationCache
    from repro.loadgen import (ReplayReport, WorkloadConfig, check_invariants,
                               generate_trace, prewarm, replay_trace)

    if args.loadgen_command == "generate":
        config = WorkloadConfig(
            tenants=args.tenants,
            duration_s=args.duration,
            mean_rps=args.rps,
            seed=args.seed,
            apps=tuple(a for a in args.apps.split(",") if a),
            quota=args.trace_quota,
            planner_seeds=tuple(
                int(s) for s in args.planner_seeds.split(",")),
            diurnal_amplitude=args.diurnal_amplitude,
            diurnal_period_s=args.diurnal_period,
            bursts_per_minute=args.bursts_per_minute,
            burst_multiplier=args.burst_multiplier,
            think_alpha=args.think_alpha,
            name=args.name,
        )
        trace = generate_trace(config)
        text = trace.to_jsonl()
        summary = {
            "name": trace.name,
            "seed": trace.seed,
            "requests": len(trace),
            "duration_s": trace.duration_s,
            "offered_rps": trace.offered_rps(),
            "tenants": list(trace.tenants),
            "warm_keys": [list(k) for k in trace.warm_keys],
        }
        if args.output == "-":
            sys.stdout.write(text)
            return 0
        if args.output:
            trace.write(args.output)
            summary["path"] = args.output
        elif args.no_cache:
            print("loadgen generate needs --output when the cache is "
                  "disabled (--no-cache)", file=sys.stderr)
            return 2
        else:
            cache = EvaluationCache(args.cache_dir)
            summary["cache_key"] = cache.store_trace(
                text, name=trace.name, seed=trace.seed,
                requests=len(trace), duration_s=trace.duration_s)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"trace {trace.name}: {len(trace)} request(s) from "
                  f"{len(trace.tenants)} tenant(s) over "
                  f"{trace.duration_s:g}s "
                  f"({trace.offered_rps():.1f} offered rps)")
            if "path" in summary:
                print(f"written to {summary['path']}")
            else:
                print(f"stored trace {summary['cache_key']} "
                      f"(replay with `celia loadgen replay "
                      f"{summary['cache_key'][:12]}`)")
        return 0

    if args.loadgen_command == "replay":
        trace = _load_trace_argument(args.trace_input, args.cache_dir,
                                     args.no_cache)

        async def run():
            if not args.no_prewarm:
                statuses = await prewarm(trace, host=args.host,
                                         port=args.port)
                cold = {k: v for k, v in statuses.items() if v != 200}
                if cold:
                    print(f"warning: prewarm got non-200 for {cold}",
                          file=sys.stderr)
            return await replay_trace(
                trace, host=args.host, port=args.port,
                time_scale=args.time_scale, timeout_s=args.timeout)

        report = ReplayReport.from_result(asyncio.run(run()))
        if args.output:
            report.save(args.output)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        problems = check_invariants(report)
        if problems:
            print("report invariant violations: " + "; ".join(problems),
                  file=sys.stderr)
            return 2
        return 0

    report = ReplayReport.load(args.report)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


_COMMANDS = {
    "characterize": _cmd_characterize,
    "select": _cmd_select,
    "predict": _cmd_predict,
    "plan": _cmd_plan,
    "validate": _cmd_validate,
    "execute": _cmd_execute,
    "market": _cmd_market,
    "spot": _cmd_spot,
    "sweep": _cmd_sweep,
    "snapshot": _cmd_snapshot,
    "cache": _cmd_cache,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "loadgen": _cmd_loadgen,
}

#: Commands that never build the planning stack in this process — trace
#: readers, the fleet supervisor (each shard worker builds its own
#: service), and the load generator (it talks to a service over HTTP) —
#: so they dispatch without constructing a :class:`Celia`.
_OFFLINE_COMMANDS = ("trace", "profile", "fleet", "loadgen")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    from repro.obs import configure_tracing, get_tracer

    args = build_parser().parse_args(argv)
    if args.trace:
        configure_tracing(args.trace)
    try:
        if args.command in _OFFLINE_COMMANDS:
            return _COMMANDS[args.command](None, args)
        from repro.cloud.catalog import ec2_catalog
        from repro.core.celia import Celia

        celia = Celia(
            ec2_catalog(max_nodes_per_type=args.quota),
            seed=args.seed,
            workers=args.workers,
            cache_dir=False if args.no_cache else args.cache_dir,
        )
        with get_tracer().span(f"cli.{args.command}",
                               {"quota": args.quota, "seed": args.seed}):
            status = _COMMANDS[args.command](celia, args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(inspect with `celia trace summary {args.trace}`)",
              file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
