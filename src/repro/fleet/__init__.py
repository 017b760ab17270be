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
worker, bounded by an LRU (``max_warm``) and rebuilt lazily in about
2 ms (the worker keeps each signature's measurements, so a rebuild is
only the structured index build), so
fleet RAM scales with the *active* tenant set, not the historical one.
Start one with::

    celia fleet serve --workers 2 --warm small --port 8337

See ``docs/ops.md`` for the operator runbook.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "repro.fleet.chaos": [
        "FLEET_FAULT_KINDS", "ChaosInjector", "FleetChaosPlan", "FleetFault",
        "LinkFaults", "fleet_chaos_names", "fleet_chaos_plan",
    ],
    "repro.fleet.frontend": ["FleetFrontend", "run_frontend"],
    "repro.fleet.hashing": [
        "DEFAULT_VNODES", "HashRing", "ring_hash", "warm_key",
    ],
    "repro.fleet.health": ["FleetTimeline", "HealthMonitor", "TimelineEvent"],
    "repro.fleet.rpc": ["WorkerGone", "WorkerLink", "encode_frame"],
    "repro.fleet.supervisor": [
        "FleetConfig", "LocalFleet", "LocalLink", "PlannerFleet", "run_fleet",
    ],
    "repro.fleet.worker": ["ShardWorker"],
})
