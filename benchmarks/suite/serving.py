"""The three fleet traffic mixes: serve-repeat, serve-unique, serve-churn.

Each workload boots ``celia fleet serve`` as a subprocess on a primed
snapshot cache and drives it from this process with the open-loop
client.  Fleet layers come from ``/metrics`` deltas scraped around the
open loop; a traced run adds closed-loop capacity, measured on requests
the open loop never sent, and compute layers from a traced
:class:`PlannerService` hosted in this process on the same cache and fed
the same request bodies.

Every rate, duration share and mix below is a frozen constant: a run
never calibrates itself, so two commits always face the same traffic.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import client
from hostspeed import HostSpeed
from ledger import Recorder, instrument

#: Per-app demand envelopes ``(n_lo, n_hi, a_lo, a_hi)`` known feasible
#: at quota >= 2 under 48 h / $350 (copied from ``repro.loadgen`` so a
#: change there cannot change the benchmark's traffic).
APP_ENVELOPES = {
    "x264": (600.0, 1800.0, 1.0, 40.0),
    "galaxy": (65536.0, 65536.0, 2000.0, 8000.0),
    "sand": (4.0e6, 6.4e7, 0.04, 0.04),
}
_INTEGER_FIELDS = {"x264": ("n",), "galaxy": ("n", "a"), "sand": ("n",)}
APPS = ("galaxy", "x264", "sand")
DEADLINE_H = 48.0
BUDGET_USD = 350.0
#: Prewarm queries use a deadline no workload query uses, so prewarm
#: never seeds the result caches with a measured request.
PREWARM_DEADLINE_H = 47.5


@dataclass(frozen=True)
class ServeSpec:
    """Frozen shape of one serving workload (why each exists: README.md)."""

    quota: int
    rate_rps: float
    max_warm: "int | None"


WORKLOADS = {
    "serve-repeat": ServeSpec(quota=5, rate_rps=300.0, max_warm=None),
    "serve-unique": ServeSpec(quota=5, rate_rps=20.0, max_warm=None),
    "serve-churn": ServeSpec(quota=3, rate_rps=15.0, max_warm=2),
}

FLEET_WORKERS = 2
#: A traced run follows the open loop (``--seconds`` long) with a
#: closed-loop capacity phase and an in-process replay of the open
#: loop's first requests, each this share of ``--seconds``.
TRACED_SHARE = 0.25
#: Capacity is the median completion rate over this many slices of its
#: phase, so a neighbour's burst on a shared host moves one slice only.
CAPACITY_WINDOWS = 5
#: The open loop runs in this many equal pieces.  Between two the fleet
#: idles while the host speed is sampled, so each request's latency is
#: scaled by the host's speed over its own few seconds (hostspeed.py).
SEGMENTS = 4
SETUP_REPS = 3
PARITY_SAMPLE = 100
REQUEST_TIMEOUT_S = 10.0
#: serve-repeat's catalog size (plus as many fresh queries for capacity).
CATALOG = 64
TENANTS = 6
#: Zipf exponent over the 6 tenants of serve-unique.
TENANT_SKEW = 1.1
CHURN_SEEDS = (0, 1, 2, 3)
#: Zipf exponent over serve-churn's 12 signatures: steep enough that
#: most requests find their state warm (p50 is the select path) while
#: about one in eight reloads it from the snapshot (p99 is the reload).
CHURN_SKEW = 2.5


# -- traffic ------------------------------------------------------------------


def _body(app: str, n: float, a: float, quota: int, seed: int,
          deadline: float = DEADLINE_H) -> bytes:
    return json.dumps({"app": app, "n": n, "a": a,
                       "deadline_hours": deadline,
                       "budget_dollars": BUDGET_USD,
                       "quota": quota, "seed": seed},
                      sort_keys=True).encode("utf-8")


def demand_point(rng: random.Random, app: str) -> "tuple[float, float]":
    """A log-uniform ``(n, a)`` inside the app's envelope."""
    n_lo, n_hi, a_lo, a_hi = APP_ENVELOPES[app]

    def log_uniform(lo: float, hi: float) -> float:
        if lo == hi:
            return lo
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    values = {"n": log_uniform(n_lo, n_hi), "a": log_uniform(a_lo, a_hi)}
    for field in _INTEGER_FIELDS[app]:
        values[field] = float(round(values[field]))
    return values["n"], values["a"]


@dataclass
class Traffic:
    """Request bodies of one run: prewarm, open loop, capacity phase."""

    signatures: "list[tuple[str, int, int]]"
    #: One select per signature: the prewarm that ``setup_s`` includes.
    prewarm: list[bytes]
    #: Answered (untimed) just before the open loop and the capacity
    #: phase respectively.
    open_warm: list[bytes]
    capacity_warm: list[bytes]
    open_bodies: list[bytes]
    capacity: "Iterator[bytes]"


def make_traffic(workload: str, seed: int, quota: int,
                 open_count: int) -> Traffic:
    """Seeded request bodies; capacity bodies never appear in the open loop.

    Two random streams: ``mix`` (a frozen seed) decides which tenant,
    signature or catalog slot each request goes to, and ``rng`` (the
    run's seed) decides the request's contents.  The seed therefore
    changes the queries but never the traffic's shape — the share of
    requests that reload state or land on one shard stays put.
    """
    mix = random.Random(f"{workload}:mix")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "serve-repeat":
        signatures = [("galaxy", quota, 0)]
        a_lo, a_hi = int(APP_ENVELOPES["galaxy"][2]), \
            int(APP_ENVELOPES["galaxy"][3])
        picks = rng.sample(range(a_lo, a_hi + 1), 2 * CATALOG)
        catalog = [_body("galaxy", 65536.0, float(a), quota, 0)
                   for a in picks[:CATALOG]]
        fresh = [_body("galaxy", 65536.0, float(a), quota, 0)
                 for a in picks[CATALOG:]]
        open_bodies = [mix.choice(catalog) for _ in range(open_count)]

        def capacity() -> "Iterator[bytes]":
            while True:
                yield mix.choice(fresh)
        # Each catalog is the warm set of its phase: every query is
        # answered twice first, so every measured request is a memo hit.
        open_warm = catalog + catalog
        capacity_warm = fresh + fresh
    else:
        if workload == "serve-unique":
            signatures = [(app, quota, 0) for app in APPS]
            tenants = [signatures[k % len(APPS)] for k in range(TENANTS)]
            skew = TENANT_SKEW
        elif workload == "serve-churn":
            signatures = [(app, quota, s) for s in CHURN_SEEDS for app in APPS]
            tenants = signatures
            skew = CHURN_SKEW
        else:
            raise ValueError(f"unknown serving workload {workload!r}")
        weights = [1.0 / (k + 1) ** skew for k in range(len(tenants))]
        open_warm, capacity_warm = [], []

        def draw() -> bytes:
            app, q, s = mix.choices(tenants, weights)[0]
            n, a = demand_point(rng, app)
            return _body(app, n, a, q, s)

        open_bodies = [draw() for _ in range(open_count)]
        sent = set(open_bodies)

        def capacity() -> "Iterator[bytes]":
            while True:
                body = draw()
                if body not in sent:
                    yield body
    prewarm = []
    for app, q, s in signatures:
        n, a = demand_point(random.Random(f"prewarm:{app}"), app)
        prewarm.append(_body(app, n, a, q, s, deadline=PREWARM_DEADLINE_H))
    return Traffic(signatures, prewarm, open_warm, capacity_warm, open_bodies,
                   capacity())


# -- the fleet subprocess -----------------------------------------------------


class Fleet:
    """One ``celia fleet serve`` process tree, started and stopped here."""

    def __init__(self, root: Path, workdir: Path, cache_dir: Path,
                 quota: int, max_warm: "int | None"):
        self.root = root
        self.workdir = workdir
        self.cache_dir = cache_dir
        self.quota = quota
        self.max_warm = max_warm
        self.process: "subprocess.Popen | None" = None
        self.port = 0
        self.worker_pids: list[int] = []

    def _env(self) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        # Worker sockets go under the checkout when the path fits a
        # Unix socket address (108 bytes, with room for the fleet's
        # own ``celia-fleet-XXXXXXXX/w0.sock`` suffix).
        tmp = self.workdir / "tmp"
        if len(str(tmp)) < 70:
            tmp.mkdir(parents=True, exist_ok=True)
            env["TMPDIR"] = str(tmp)
        return env

    def start(self, timeout_s: float = 120.0) -> None:
        argv = [sys.executable, "-m", "repro.cli", "--quota", str(self.quota),
                "--cache-dir", str(self.cache_dir), "fleet", "serve",
                "--workers", str(FLEET_WORKERS), "--port", "0"]
        if self.max_warm is not None:
            argv += ["--max-warm", str(self.max_warm)]
        log = open(self.workdir / "fleet.log", "ab")
        try:
            self.process = subprocess.Popen(
                argv, cwd=self.root, env=self._env(), stdout=subprocess.PIPE,
                stderr=log, text=True)
        finally:
            log.close()
        deadline = time.monotonic() + timeout_s
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        max(left, 0.0))
            line = self.process.stdout.readline() if ready else ""
            if "listening on http://" in line:
                self.port = int(line.split("http://", 1)[1]
                                .split()[0].rsplit(":", 1)[1])
                break
            if not line or left <= 0:
                self.stop()
                raise RuntimeError(
                    f"fleet did not become ready (see {self.workdir}/fleet.log)")
        topology = self.get_json("/fleet")
        self.worker_pids = [w["pid"] for w in topology["workers"]]

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path, headers={"Connection": "close"})
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the front end and workers."""
        total_kb = 0
        for pid in [self.process.pid, *self.worker_pids]:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (the fleet drains and stops its workers), then make sure."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None
        for pid in self.worker_pids:
            _reap_orphan(pid)
        self.worker_pids = []


def _reap_orphan(pid: int) -> None:
    """Kill a worker the front end failed to stop, and wait for it."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- metrics deltas -------------------------------------------------------------


def _series_total(snapshot: dict, section: str, base: str,
                  field: "str | None" = None) -> float:
    total = 0.0
    for name, value in snapshot.get(section, {}).items():
        if name.partition("{")[0] == base:
            total += value[field] if field else value
    return total


def _delta(before: dict, after: dict, section: str, base: str,
           field: "str | None" = None) -> float:
    return (_series_total(after, section, base, field)
            - _series_total(before, section, base, field))


def _routed_shares(before: dict, after: dict) -> list[float]:
    counts = {}
    for name, value in after["counters"].items():
        if name.startswith("fleet_routed{"):
            counts[name] = value - before["counters"].get(name, 0)
    total = sum(counts.values())
    return [c / total for c in counts.values()] if total else [0.0]


def _hist_mean(before: dict, after: dict, base: str) -> float:
    """Mean of the observations a histogram took between two snapshots."""
    count = _delta(before, after, "histograms", base, "count")
    if count <= 0:
        return 0.0
    return _delta(before, after, "histograms", base, "sum") / count


def fleet_layers(before: dict, after: dict, outcomes: list,
                 sent: int) -> dict:
    """Per-layer fleet numbers from ``/metrics`` deltas and the client."""
    ok = [o for o in outcomes if o.ok]
    latency = statistics.fmean(o.latency_ms for o in ok) if ok else 0.0
    lag = statistics.fmean(o.lag_ms for o in outcomes)
    queue = statistics.fmean(o.queue_ms for o in outcomes)
    frontend = _hist_mean(before, after, "fleet_request_latency_s") * 1e3
    worker = _delta(before, after, "histograms", "latency_select_s",
                    "sum") / sent * 1e3
    return {
        "fleet.frontend_ms": frontend,
        "fleet.worker_ms": worker,
        "fleet.rpc_ms": frontend - worker,
        "fleet.net_ms": latency - lag - queue - frontend,
        "fleet.raw_memo_hit_ratio":
            _delta(before, after, "counters", "raw_response_hits") / sent,
        "fleet.max_shard_share": max(_routed_shares(before, after)),
        "fleet.shed": _delta(before, after, "counters", "fleet_shed_total"),
        "fleet.reroutes":
            _delta(before, after, "counters", "fleet_reroutes_total"),
        "fleet.worker_lost":
            _delta(before, after, "counters", "fleet_worker_lost_total"),
        "service.snapshot_reloads":
            _delta(before, after, "counters", "warm_from_snapshot"),
        "service.warm_evictions":
            _delta(before, after, "counters", "warm_evictions"),
        "service.state_build_ms":
            _hist_mean(before, after, "warm_build_s") * 1e3,
        "client.queue_ms": queue,
        "client.lag_ms": nearest_rank([o.lag_ms for o in outcomes], 99.0),
        "ledger.sum_ratio": (lag + queue + frontend) / latency
        if latency else 0.0,
    }


def nearest_rank(values: "list[float]", p: float) -> float:
    """The nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


# -- in-process service: answer checks and the traced replay ------------------


def _service(cache_dir: Path, quota: int, max_warm: "int | None"):
    """An in-process service configured like one fleet worker."""
    from repro.service.planner import PlannerService, ServiceConfig

    return PlannerService(config=ServiceConfig(
        default_quota=quota, max_warm_states=max_warm, workers=1,
        cache_dir=str(cache_dir), default_timeout_s=60.0))


async def _dispatch(service, body: bytes) -> "tuple[int, dict]":
    from repro.service.server import dispatch_request

    request = json.loads(body)
    request["kind"] = "select"
    return await dispatch_request(service, request)


def _result_bytes(raw: bytes) -> bytes:
    """The ``result`` field's bytes: the last key of every response."""
    marker = b'"result": '
    return raw[raw.index(marker) + len(marker):]


async def _answers(service, bodies: "list[bytes]") -> list[bytes]:
    """Each body's response envelope, dispatched one after another.

    Sequential on purpose: concurrent state builds in one process race
    inside ``np.load``'s header parser on CPython 3.11 (a ``SystemError``
    from ``ast``), and the check is about answers, not concurrency.
    """
    out = []
    for body in bodies:
        status, envelope = await _dispatch(service, body)
        if status != 200:
            raise RuntimeError(f"in-process dispatch returned {status}")
        out.append(json.dumps(envelope).encode("utf-8"))
    return out


def parity_check(cache_dir: Path, spec: ServeSpec, quota: int,
                 sampled: "list[tuple[bytes, bytes]]") -> "tuple[bool, str]":
    """Fleet ``result`` bytes equal in-process ``dispatch_request`` ones."""
    service = _service(cache_dir, quota, spec.max_warm)
    expected = asyncio.run(_answers(service, [b for b, _ in sampled]))
    mismatched = sum(_result_bytes(fleet) != _result_bytes(local)
                     for (_, fleet), local in zip(sampled, expected))
    return mismatched == 0, (f"{len(sampled) - mismatched}/{len(sampled)} "
                             f"sampled results byte-identical")


async def _replay(service, schedule,
                  concurrency: int) -> "tuple[float, list, int]":
    """Open-loop in-process replay: (mean latency ms, results, errors).

    At most ``concurrency`` requests are dispatched at once; a request
    due while that many are in flight waits for one to finish.
    """
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.01
    gate = asyncio.Semaphore(concurrency)
    latencies: list[float] = []
    results: list[dict] = []
    errors = 0

    async def one(offset: float, body: bytes) -> None:
        nonlocal errors
        await asyncio.sleep(max(0.0, start + offset - loop.time()))
        t0 = loop.time()
        try:
            async with gate:
                status, envelope = await _dispatch(service, body)
        except Exception:  # the replay keeps going; the failure is counted
            traceback.print_exc()
            status, envelope = 500, {}
        latencies.append((loop.time() - t0) * 1e3)
        if status == 200:
            results.append(envelope["result"])
        else:
            errors += 1

    await asyncio.gather(*(one(off, body) for off, _, body in schedule))
    return statistics.fmean(latencies), results, errors


def traced_replay(cache_dir: Path, spec: ServeSpec, quota: int,
                  prewarm: "list[bytes]", schedule,
                  spans_path: Path) -> "tuple[dict, int]":
    """Compute-layer numbers from an in-process service, plus overhead.

    The same bodies are replayed on the same schedule twice, each time
    on a fresh service given the fleet's prewarm: untraced, then with
    the wrappers installed; the ratio of the two is the overhead.
    Returns the layers and the number of replayed requests that failed.

    With a warm-state limit, evicted states are rebuilt during the
    replay, and two rebuilds at once in one process can race inside
    ``np.load``'s header parser (see :func:`_answers`); such a replay
    therefore dispatches one request at a time.
    """
    concurrency = 1 if spec.max_warm is not None else len(schedule)
    plain = _service(cache_dir, quota, spec.max_warm)
    asyncio.run(_answers(plain, prewarm))
    untraced_ms, _, plain_errors = asyncio.run(
        _replay(plain, schedule, concurrency))
    service = _service(cache_dir, quota, spec.max_warm)
    asyncio.run(_answers(service, prewarm))
    before = service.metrics.snapshot()
    recorder = Recorder()
    with instrument(recorder):
        traced_ms, results, errors = asyncio.run(
            _replay(service, schedule, concurrency))
    recorder.write_jsonl(spans_path)
    means = recorder.layer_means()
    after = service.metrics.snapshot()
    hits = _delta(before, after, "counters", "cache_hits")
    misses = _delta(before, after, "counters", "cache_misses")
    layers = {
        "selection.select_batch_ms":
            means.get("selection.select_batch", 0.0) * 1e3,
        "selection.feasible_count_ms":
            means.get("selection.feasible_count", 0.0) * 1e3,
        "service.serialize_ms": means.get("service.serialize", 0.0) * 1e3,
        "service.demand_ms": means.get("service.demand", 0.0) * 1e3,
        "service.select_ms":
            _hist_mean(before, after, "latency_select_s") * 1e3,
        "service.batch_size_mean": _hist_mean(before, after, "batch_size"),
        "service.cache_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "service.feasible_fraction_mean": statistics.fmean(
            r["feasible_count"] / r["total_configurations"] for r in results)
        if results else 0.0,
        "cache.load_s": means.get("cache.load", 0.0),
        "cache.load_index_s": means.get("cache.load_index", 0.0),
        "characterization.characterize_s":
            means.get("characterization.characterize", 0.0),
        "measurement.demand_fit_s": means.get("measurement.demand_grid", 0.0)
        + means.get("measurement.demand_fit", 0.0),
        "ledger.trace_overhead": traced_ms / untraced_ms,
    }
    return layers, plain_errors + errors


# -- one serving run ------------------------------------------------------------


def prime(cache_dir: Path, signatures) -> None:
    """Make sure every signature has an evaluation and index snapshot.

    A no-op (a few milliseconds per signature) once the cache is primed;
    the first serving run in a checkout pays the quota-5 sweeps here,
    outside every timed phase.
    """
    from repro import Celia, application_by_name, ec2_catalog

    for app, quota, seed in signatures:
        celia = Celia(ec2_catalog(max_nodes_per_type=quota), seed=seed,
                      cache_dir=cache_dir, workers="auto")
        celia.selection_index(application_by_name(app, seed=seed))


def _prewarm(fleet: Fleet, bodies: list[bytes]) -> None:
    if not bodies:
        return
    schedule = [(0.0, "/v1/select", b) for b in bodies]
    outcomes = client.open_loop("127.0.0.1", fleet.port, schedule,
                                connections=1, timeout_s=120.0)
    bad = [o.status for o in outcomes if not o.ok]
    if bad:
        raise RuntimeError(f"prewarm failed with statuses {bad}")


def _segmented_open_loop(fleet: Fleet, schedule, keep: "list[int]",
                         host: HostSpeed, nproc: int):
    """The open loop in ``SEGMENTS`` equal pieces, ``host`` sampled after each.

    Returns the outcomes in schedule order, each outcome's segment
    index, and each segment's ``(start, end)`` clock readings.
    """
    bounds = [k * len(schedule) // SEGMENTS for k in range(SEGMENTS + 1)]
    outcomes, segment_of, segments = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        if lo == hi:
            continue
        first = schedule[lo][0]
        piece = [(offset - first, path, body)
                 for offset, path, body in schedule[lo:hi]]
        start = time.perf_counter()
        outcomes += client.open_loop(
            "127.0.0.1", fleet.port, piece, connections=nproc,
            timeout_s=REQUEST_TIMEOUT_S,
            keep=[i - lo for i in keep if lo <= i < hi])
        segments.append((start, time.perf_counter()))
        segment_of += [len(segments) - 1] * (hi - lo)
        host.sample()
    return outcomes, segment_of, segments


def run(workload: str, *, root: Path, workdir: Path, seed: int,
        seconds: float, quota: "int | None",
        spans: "Path | None") -> dict:
    """One run; ``spans`` (the traced run's span file) adds the ledger."""
    spec = WORKLOADS[workload]
    quota = spec.quota if quota is None else quota
    nproc = len(os.sched_getaffinity(0))
    open_count = max(1, int(spec.rate_rps * seconds))
    traffic = make_traffic(workload, seed, quota, open_count)
    schedule = [(i / spec.rate_rps, "/v1/select", body)
                for i, body in enumerate(traffic.open_bodies)]
    keep = sorted(random.Random(f"parity:{workload}:{seed}").sample(
        range(open_count), min(PARITY_SAMPLE, open_count)))

    cache_dir = workdir / f"cache-q{quota}"
    prime(cache_dir, traffic.signatures)

    host = HostSpeed()
    host.sample()
    setups = []
    fleet = None
    try:
        for _ in range(SETUP_REPS):
            if fleet is not None:
                fleet.stop()
            fleet = Fleet(root, workdir, cache_dir, quota, spec.max_warm)
            t0 = time.perf_counter()
            fleet.start()
            _prewarm(fleet, traffic.prewarm)
            t1 = time.perf_counter()
            setups.append((t1 - t0, t0, t1))
            host.sample()

        _prewarm(fleet, traffic.open_warm)
        before = fleet.get_json("/metrics")
        outcomes, segment_of, segments = _segmented_open_loop(
            fleet, schedule, keep, host, nproc)
        after = fleet.get_json("/metrics")
        rss_mb = fleet.peak_rss_mb()
        completions, cap_failed = [], 0
        if spans is not None:
            _prewarm(fleet, traffic.capacity_warm)
            completions, cap_failed = client.closed_loop(
                "127.0.0.1", fleet.port,
                (("/v1/select", b) for b in traffic.capacity),
                connections=nproc, duration_s=seconds * TRACED_SHARE,
                timeout_s=REQUEST_TIMEOUT_S)
    finally:
        if fleet is not None:
            fleet.stop()

    sampled = [(traffic.open_bodies[i], outcomes[i].body) for i in keep
               if outcomes[i].ok]
    parity_ok, parity_detail = parity_check(cache_dir, spec, quota, sampled)
    failed = sum(not o.ok for o in outcomes) + cap_failed
    # A failed request misses every latency limit: it counts as taking
    # the whole timeout.
    latencies = [min(o.latency_ms, REQUEST_TIMEOUT_S * 1e3) for o in outcomes]
    factors = [host.factor(start, end) for start, end in segments]
    scaled = [latency * factors[k]
              for latency, k in zip(latencies, segment_of)]
    width = seconds * TRACED_SHARE / CAPACITY_WINDOWS
    rates = [sum(k * width <= t < (k + 1) * width for t in completions) / width
             for k in range(CAPACITY_WINDOWS)]
    layers = fleet_layers(before, after, outcomes, len(schedule))
    layers["fleet.capacity_rps"] = statistics.median(rates)
    layers["client.p99_ms"] = nearest_rank(scaled, 99.0)
    lag_p99 = layers["client.lag_ms"]
    setup_s = [s for s, _, _ in setups]
    notes = {
        "rate_rps": spec.rate_rps,
        "open_loop_requests": len(schedule),
        "capacity_requests": len(completions) + cap_failed,
        "connections": nproc,
        "generator_lag_p99_ms": lag_p99,
        "valid": lag_p99 <= 5.0,
        "setup_samples_s": setup_s,
        "segment_factors": factors,
        "window_capacity_rps": rates,
    }
    checks = [("result byte parity vs in-process dispatch_request",
               parity_ok and len(sampled) >= min(100, open_count),
               parity_detail)]
    end_to_end = {
        "setup_s": statistics.median(host.normalize(*s) for s in setups),
        "p50_ms": nearest_rank(scaled, 50.0),
        "p95_ms": nearest_rank(scaled, 95.0),
        "rss_mb": rss_mb,
    }
    measured = {
        "setup_s": statistics.median(setup_s),
        "p50_ms": nearest_rank(latencies, 50.0),
        "p95_ms": nearest_rank(latencies, 95.0),
        "p99_ms": nearest_rank(latencies, 99.0),
        "rss_mb": rss_mb,
    }
    if spans is not None:
        replay_count = max(1, int(spec.rate_rps * seconds * TRACED_SHARE))
        replayed, replay_errors = traced_replay(
            cache_dir, spec, quota, traffic.prewarm + traffic.open_warm,
            schedule[:replay_count], spans)
        layers.update(replayed)
        checks.append(("in-process replay answered every request",
                       replay_errors == 0,
                       f"{replay_errors} of {2 * replay_count} failed"))
    return {
        "end_to_end": end_to_end,
        "measured": measured,
        "host": host.record(),
        "layers": layers,
        "attempted": len(schedule) + len(completions) + cap_failed,
        "failed": failed,
        "checks": checks,
        "notes": notes,
    }
