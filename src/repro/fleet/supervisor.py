"""Fleet lifecycle: spawn shard workers, keep them alive, restart them.

:class:`PlannerFleet` owns the moving parts the front end routes over:

* one **subprocess per worker** running ``python -m repro.fleet.worker``
  (each with its own :class:`~repro.service.planner.PlannerService` and
  Unix-domain socket in a private temp directory);
* one persistent :class:`~repro.fleet.rpc.WorkerLink` per worker;
* the consistent-hash :class:`~repro.fleet.hashing.HashRing` mapping
  warm keys onto workers;
* a **monitor task** that respawns any worker whose process dies, and
  re-admits it to routing once its socket answers a ping.

Restarts are graceful: :meth:`PlannerFleet.restart_worker` first drops
the worker from routing (the front end's fallback path covers requests
in flight), sends SIGTERM so the worker drains, waits for exit, spawns
the replacement, and re-admits it once connected.  Warm state for that
shard is rebuilt lazily on the next routed request: characterization
plus a millisecond structured index build, with no sweep and no
snapshot read.

The front end itself plans nothing: it imports no numpy and no planning
module, so a fleet boots at the cost of its workers' imports.

:class:`LocalFleet` is the one-shard, in-process counterpart behind
``celia serve``: the same routing surface over a single
:class:`~repro.fleet.worker.ShardWorker` reached through a direct-call
:class:`LocalLink` instead of a subprocess and a socket.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import repro
from repro.errors import ValidationError
from repro.fleet.frontend import FleetFrontend, run_frontend
from repro.fleet.hashing import DEFAULT_VNODES, HashRing, warm_key
from repro.fleet.health import FleetTimeline, HealthMonitor
from repro.fleet.rpc import WorkerGone, WorkerLink
from repro.obs.metrics import global_registry

if TYPE_CHECKING:
    from repro.fleet.worker import ShardWorker
    from repro.service.planner import PlannerService

__all__ = ["FleetConfig", "LocalFleet", "LocalLink", "PlannerFleet",
           "run_fleet"]


@dataclass(frozen=True)
class FleetConfig:
    """Everything needed to stand up a planner fleet."""

    #: Number of shard worker processes.
    workers: int = 2
    #: Front-end bind address.
    host: str = "127.0.0.1"
    port: int = 8337
    #: Defaults forwarded to every worker's ``ServiceConfig`` (and used
    #: by the router to complete partial warm keys).
    quota: int = 5
    seed: int = 0
    #: LRU cap on warm signatures per worker (None → unbounded).
    max_warm: "int | None" = None
    max_queue: int = 64
    max_batch: int = 32
    timeout_s: float = 30.0
    #: Space-sweep parallelism inside each shard.  Defaults to 1: the
    #: fleet's processes are the parallelism.
    sweep_workers: "int | str" = 1
    #: Shared evaluation cache directory (None → library default,
    #: False → disabled), used by the ``plan`` path's sweeps.
    cache_dir: "str | bool | None" = None
    #: Apps warmed on their owning shard before the fleet reports ready.
    warm_apps: tuple = field(default_factory=tuple)
    vnodes: int = DEFAULT_VNODES
    #: Seconds a worker gets to drain on SIGTERM.
    drain_timeout_s: float = 10.0
    #: Seconds to wait for a spawned worker's socket + ping.
    connect_timeout_s: float = 30.0
    #: Monitor poll interval for crashed-worker respawn.
    monitor_interval_s: float = 0.5
    #: Front-end deadline per routed worker call (None → unbounded).
    #: The backstop for hung workers: a stalled call turns into
    #: :class:`WorkerGone` and the request reroutes.
    call_timeout_s: "float | None" = None
    #: Per-worker in-flight cap; excess requests are shed with a typed
    #: 503 + ``Retry-After`` (None → unbounded).
    max_inflight: "int | None" = None
    #: Fleet-wide in-flight cap; excess requests get a typed 429
    #: (None → unbounded).
    max_total_inflight: "int | None" = None
    #: ``Retry-After`` hint (seconds) on shed responses.
    shed_retry_after_s: float = 1.0
    #: Heartbeat probing (hung-worker ejection + re-admission).
    health_probes: bool = True
    probe_interval_s: float = 0.5
    probe_timeout_s: float = 2.0
    #: Consecutive missed probes before a worker is ejected.
    probe_max_missed: int = 2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValidationError("fleet needs at least one worker")
        if self.connect_timeout_s <= 0:
            raise ValidationError("connect_timeout_s must be positive")
        if self.call_timeout_s is not None and self.call_timeout_s <= 0:
            raise ValidationError("call_timeout_s must be positive")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValidationError("max_inflight must be >= 1")
        if self.max_total_inflight is not None \
                and self.max_total_inflight < 1:
            raise ValidationError("max_total_inflight must be >= 1")
        if self.shed_retry_after_s <= 0:
            raise ValidationError("shed_retry_after_s must be positive")
        if self.probe_interval_s <= 0 or self.probe_timeout_s <= 0:
            raise ValidationError("probe intervals must be positive")
        if self.probe_max_missed < 1:
            raise ValidationError("probe_max_missed must be >= 1")


class WorkerHandle:
    """One shard worker subprocess and its socket path."""

    def __init__(self, worker_id: str, socket_path: str):
        self.worker_id = worker_id
        self.socket_path = socket_path
        self.process: "subprocess.Popen | None" = None

    @property
    def pid(self) -> "int | None":
        return self.process.pid if self.process is not None else None

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def spawn(self, config: FleetConfig) -> None:
        # A -c shim instead of ``-m repro.fleet.worker``: runpy would
        # warn about re-executing a module the package already imported.
        shim = ("import sys; from repro.fleet.worker import main; "
                "sys.exit(main(sys.argv[1:]))")
        argv = [sys.executable, "-c", shim,
                "--socket", self.socket_path,
                "--worker-id", self.worker_id,
                "--quota", str(config.quota),
                "--seed", str(config.seed),
                "--max-queue", str(config.max_queue),
                "--max-batch", str(config.max_batch),
                "--timeout", str(config.timeout_s),
                "--sweep-workers", str(config.sweep_workers),
                "--drain-timeout", str(config.drain_timeout_s)]
        if config.max_warm is not None:
            argv += ["--max-warm", str(config.max_warm)]
        if config.cache_dir is False:
            argv += ["--no-cache"]
        elif config.cache_dir is not None:
            argv += ["--cache-dir", str(config.cache_dir)]
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root + (os.pathsep + existing
                                        if existing else "")
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead worker
        self.process = subprocess.Popen(argv, env=env)

    def terminate(self, *, timeout_s: float) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL on timeout."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None


class PlannerFleet:
    """The worker processes, their links, and the routing ring."""

    def __init__(self, config: "FleetConfig | None" = None):
        self.config = config or FleetConfig()
        self.ring = HashRing(vnodes=self.config.vnodes)
        self._handles: dict[str, WorkerHandle] = {}
        self._links: dict[str, WorkerLink] = {}
        self._down: set[str] = set()
        self._restart_locks: dict[str, asyncio.Lock] = {}
        self._socket_dir: "str | None" = None
        self._monitor_task: "asyncio.Task | None" = None
        self._health_task: "asyncio.Task | None" = None
        self._stopping = False
        #: Resilience audit trail (faults, ejections, re-admissions).
        self.timeline = FleetTimeline()
        #: Apps warmed via :meth:`warm` — the front end's readiness
        #: contract checks ``expected_warm`` against this.
        self.warmed_apps: set = set()
        registry = global_registry()
        self._ejections = registry.counter("fleet_ejections_total")
        self._readmissions = registry.counter("fleet_readmissions_total")
        # key → owner memo for the healthy-ring fast path.  Ring
        # membership is fixed after start(), so entries stay valid for
        # the fleet's whole life; the memo is simply bypassed while any
        # worker is down (exclusions change the answer).
        self._route_memo: dict[str, str] = {}

    # -- routing surface (used by FleetFrontend) -------------------------------

    @property
    def worker_ids(self) -> tuple:
        return tuple(sorted(self._handles))

    @property
    def default_quota(self) -> int:
        return self.config.quota

    @property
    def default_seed(self) -> int:
        return self.config.seed

    def route(self, key: str, *, exclude=frozenset()) -> str:
        """The live owner of ``key`` (down workers are skipped)."""
        if not exclude and not self._down:
            worker = self._route_memo.get(key)
            if worker is None:
                worker = self.ring.route(key)
                if len(self._route_memo) >= 4096:
                    self._route_memo.clear()
                self._route_memo[key] = worker
            return worker
        return self.ring.route(key, exclude=self._down | set(exclude))

    def link(self, worker_id: str) -> WorkerLink:
        return self._links[worker_id]

    @property
    def down(self) -> frozenset:
        """Workers currently ejected from routing."""
        return frozenset(self._down)

    def worker_pid(self, worker_id: str) -> "int | None":
        handle = self._handles.get(worker_id)
        return handle.pid if handle is not None else None

    def restarting(self, worker_id: str) -> bool:
        """True while an explicit restart owns this worker's state."""
        lock = self._restart_locks.get(worker_id)
        return lock is not None and lock.locked()

    def eject(self, worker_id: str, *, reason: str = "") -> None:
        """Drop a worker from routing (its keys fall to ring neighbors).

        Idempotent: only the closed→open transition is recorded, so
        concurrent detectors (health prober, crash monitor, in-flight
        ``WorkerGone``) produce one timeline event per incident.
        """
        if worker_id not in self._handles or worker_id in self._down:
            return
        self._down.add(worker_id)
        self._ejections.increment()
        self.timeline.record("ejected", worker_id, detail=reason)

    def readmit(self, worker_id: str, *, reason: str = "") -> None:
        """Return an ejected worker to routing (state transitions only)."""
        if worker_id not in self._down:
            return
        self._down.discard(worker_id)
        self._readmissions.increment()
        self.timeline.record("readmitted", worker_id, detail=reason)

    def note_lost(self, worker_id: str) -> None:
        """Drop a worker from routing; probes/monitor re-admit it."""
        self.eject(worker_id, reason="lost mid-request")

    def describe(self) -> dict:
        """Topology for ``GET /fleet``."""
        return {
            "workers": [
                {"id": wid,
                 "pid": self._handles[wid].pid,
                 "socket": self._handles[wid].socket_path,
                 "alive": self._handles[wid].alive(),
                 "routable": wid not in self._down and
                             self._links[wid].up}
                for wid in self.worker_ids
            ],
            "vnodes": self.config.vnodes,
            "quota": self.config.quota,
            "seed": self.config.seed,
        }

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker, connect its link, join it to the ring."""
        self._socket_dir = tempfile.mkdtemp(prefix="celia-fleet-")
        try:
            for index in range(self.config.workers):
                wid = f"w{index}"
                handle = WorkerHandle(
                    wid, os.path.join(self._socket_dir, f"{wid}.sock"))
                handle.spawn(self.config)
                self._handles[wid] = handle
                self._restart_locks[wid] = asyncio.Lock()
            for wid, handle in self._handles.items():
                link = WorkerLink(wid, handle.socket_path)
                await link.connect(timeout_s=self.config.connect_timeout_s)
                self._links[wid] = link
                self.ring.add_worker(wid)
        except BaseException:
            await self.stop()
            raise
        self._monitor_task = asyncio.ensure_future(self._monitor())
        if self.config.health_probes:
            monitor = HealthMonitor(
                self, interval_s=self.config.probe_interval_s,
                timeout_s=self.config.probe_timeout_s,
                max_missed=self.config.probe_max_missed)
            self._health_task = asyncio.ensure_future(monitor.run())

    async def stop(self) -> None:
        """Tear the whole fleet down (drain, close links, rm sockets)."""
        self._stopping = True
        for attr in ("_monitor_task", "_health_task"):
            task = getattr(self, attr)
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
                setattr(self, attr, None)
        for link in self._links.values():
            await link.close()
        self._links.clear()
        for handle in self._handles.values():
            handle.terminate(timeout_s=self.config.drain_timeout_s)
        self._handles.clear()
        self._down.clear()
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)
            self._socket_dir = None

    async def warm(self, app: str, *, quota: "int | None" = None,
                   seed: "int | None" = None) -> str:
        """Warm one signature's state on its owning shard; returns owner."""
        q = self.config.quota if quota is None else int(quota)
        s = self.config.seed if seed is None else int(seed)
        worker = self.route(warm_key(app, q, s))
        status, body = await self._links[worker].call(
            {"kind": "__warm__", "app": app, "quota": q, "seed": s},
            timeout_s=self.config.connect_timeout_s * 4)
        if status != 200:
            raise ValidationError(
                f"warm({app!r}) failed on {worker}: {body}")
        self.warmed_apps.add(app)
        return worker

    async def restart_worker(self, worker_id: str) -> None:
        """Gracefully restart one worker and wait for it to rejoin.

        The worker leaves routing first (its keys fall back to the ring's
        next owner), drains on SIGTERM, and is re-admitted once the
        replacement process answers a ping.  Warm state rebuilds lazily
        on the next routed request.
        """
        if worker_id not in self._handles:
            raise ValidationError(f"no worker {worker_id!r} in the fleet")
        async with self._restart_locks[worker_id]:
            self.eject(worker_id, reason="restart requested")
            handle = self._handles[worker_id]
            link = self._links.get(worker_id)
            if link is not None:
                await link.close()
            # terminate() blocks on the drain; run it off-loop so the
            # front end keeps serving rerouted requests meanwhile.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: handle.terminate(
                    timeout_s=self.config.drain_timeout_s))
            handle.spawn(self.config)
            link = WorkerLink(worker_id, handle.socket_path)
            await link.connect(timeout_s=self.config.connect_timeout_s)
            self._links[worker_id] = link
            self.readmit(worker_id, reason="respawned and answering")

    async def _monitor(self) -> None:
        """Respawn workers whose process died (crash, OOM-kill...)."""
        while not self._stopping:
            await asyncio.sleep(self.config.monitor_interval_s)
            for wid, handle in list(self._handles.items()):
                if self._restart_locks[wid].locked():
                    continue  # an explicit restart is already in charge
                link = self._links.get(wid)
                if handle.alive() and (link is None or link.up):
                    continue
                self.eject(wid, reason="process died"
                           if not handle.alive() else "link down")
                try:
                    await self.restart_worker(wid)
                except (WorkerGone, ValidationError, OSError):
                    continue  # still down; retried on the next tick


class LocalLink:
    """:class:`WorkerLink` for an in-process shard: no socket, no frames.

    :meth:`call_raw` hands the request bytes straight to
    :meth:`ShardWorker.answer`; the shard shares the front end's event
    loop, so the link is up for as long as the process is.
    """

    up = True

    def __init__(self, worker: ShardWorker):
        self.worker = worker
        self.worker_id = worker.worker_id

    async def call_raw(self, kind: str, payload: bytes = b"",
                       *, timeout_s: "float | None" = None
                       ) -> tuple[int, bytes]:
        """``(status, raw response bytes)`` for one request.

        ``timeout_s`` is accepted for :class:`WorkerLink` parity and
        unused: the shard runs on this loop and cannot be lost.
        """
        return await self.worker.answer(kind, payload)

    # Dict in, ``(status, dict)`` out — defined on call_raw alone.
    call = WorkerLink.call


class LocalFleet:
    """One in-process shard behind the front end: ``celia serve``.

    The routing surface :class:`FleetFrontend` consumes, over a single
    :class:`ShardWorker` (id ``w0``) running in the front end's own
    process and event loop.  Every request routes to ``w0``; its link is
    a direct call, so ``celia serve`` pays no socket hop.
    """

    worker_ids = ("w0",)
    #: Nothing is ever ejected: the shard lives and dies with the process.
    down = frozenset()

    def __init__(self, service: PlannerService):
        # Imported here: ``celia fleet serve`` builds no LocalFleet, so
        # its front end never loads the planning stack.
        from repro.fleet.worker import ShardWorker

        self.service = service
        self.worker = ShardWorker(service, worker_id="w0")
        self._link = LocalLink(self.worker)

    @property
    def default_quota(self) -> int:
        return self.service.config.default_quota

    @property
    def default_seed(self) -> int:
        return self.service.config.default_seed

    @property
    def warmed_apps(self) -> set:
        """Apps with warm state (an evicted app stops counting)."""
        return {signature.app for signature in self.service.warm_signatures}

    def route(self, key: str, *, exclude=frozenset()) -> str:
        return "w0"

    def link(self, worker_id: str) -> LocalLink:
        return self._link

    def note_lost(self, worker_id: str) -> None:
        pass  # nothing to eject: the shard is this process

    def describe(self) -> dict:
        """Topology for ``GET /fleet``."""
        return {
            "workers": [{"id": "w0", "pid": os.getpid(), "socket": None,
                         "alive": True, "routable": True}],
            "quota": self.default_quota,
            "seed": self.default_seed,
        }

    async def start(self) -> None:
        pass

    async def stop(self) -> None:
        pass

    async def warm(self, app: str, *, quota: "int | None" = None,
                   seed: "int | None" = None) -> str:
        """Warm one signature's state; returns the owner (``w0``)."""
        await self.service.warm(app, quota=quota, seed=seed)
        return "w0"

    async def restart_worker(self, worker_id: str) -> None:
        raise ValidationError(
            "the in-process shard restarts with its process")


def run_fleet(config: FleetConfig, *, ready_callback=None,
              drain_timeout_s: float = 10.0, chaos_plan=None) -> None:
    """Blocking entry point used by ``celia fleet serve``.

    Stands the fleet up behind a :class:`FleetFrontend` and serves it
    through :func:`~repro.fleet.frontend.run_frontend`, which warms
    ``config.warm_apps`` on their owning shards and drains on
    SIGTERM/SIGINT before the workers are terminated.

    ``chaos_plan`` (a :class:`repro.fleet.chaos.FleetChaosPlan`) starts
    a fault injector against the fleet's own workers once it is ready —
    ``celia fleet serve --chaos S`` for resilience rehearsal.
    """
    fleet = PlannerFleet(config)
    frontend = FleetFrontend(
        fleet, host=config.host, port=config.port,
        call_timeout_s=config.call_timeout_s,
        max_inflight=config.max_inflight,
        max_total_inflight=config.max_total_inflight,
        shed_retry_after_s=config.shed_retry_after_s,
        expected_warm=tuple(config.warm_apps))
    background = None
    if chaos_plan is not None:
        from repro.fleet.chaos import ChaosInjector

        def background():
            return ChaosInjector(fleet, chaos_plan).run()
    run_frontend(frontend, ready_callback=ready_callback,
                 drain_timeout_s=drain_timeout_s, background=background)
