"""``repro.fleet`` — the sharded planner fleet.

A multi-process deployment of :class:`~repro.service.planner.
PlannerService`: an asyncio keep-alive HTTP front end
(:mod:`~repro.fleet.frontend`) consistent-hashes each request's warm key
``(app, quota, seed)`` (:mod:`~repro.fleet.hashing`) onto one of N shard
worker processes (:mod:`~repro.fleet.worker`), reached over persistent
framed Unix-domain links (:mod:`~repro.fleet.rpc`) and supervised —
spawn, monitor, graceful restart — by :mod:`~repro.fleet.supervisor`.

``celia serve`` is the same front end over one in-process shard
(:class:`~repro.fleet.supervisor.LocalFleet`): no sockets, no worker
processes, the same HTTP contract and answer bytes.

Sharding keeps each tenant signature's warm state on exactly one
worker, bounded by an LRU (``max_warm``) and rebuilt lazily from the
shared content-addressed snapshot cache, so fleet RAM scales with the
*active* tenant set, not the historical one.  Start one with::

    celia fleet serve --workers 2 --warm small --port 8337

See ``docs/ops.md`` for the operator runbook.
"""

from repro.fleet.chaos import (
    FLEET_FAULT_KINDS,
    ChaosInjector,
    FleetChaosPlan,
    FleetFault,
    LinkFaults,
    fleet_chaos_names,
    fleet_chaos_plan,
)
from repro.fleet.frontend import FleetFrontend, run_frontend
from repro.fleet.hashing import DEFAULT_VNODES, HashRing, ring_hash, warm_key
from repro.fleet.health import FleetTimeline, HealthMonitor, TimelineEvent
from repro.fleet.rpc import WorkerGone, WorkerLink, encode_frame
from repro.fleet.supervisor import (
    FleetConfig,
    LocalFleet,
    LocalLink,
    PlannerFleet,
    run_fleet,
)
from repro.fleet.worker import ShardWorker

__all__ = [
    "DEFAULT_VNODES",
    "FLEET_FAULT_KINDS",
    "ChaosInjector",
    "FleetChaosPlan",
    "FleetConfig",
    "FleetFault",
    "FleetFrontend",
    "FleetTimeline",
    "HashRing",
    "HealthMonitor",
    "LinkFaults",
    "LocalFleet",
    "LocalLink",
    "PlannerFleet",
    "ShardWorker",
    "TimelineEvent",
    "WorkerGone",
    "WorkerLink",
    "encode_frame",
    "fleet_chaos_names",
    "fleet_chaos_plan",
    "ring_hash",
    "run_fleet",
    "run_frontend",
    "warm_key",
]
