"""Differential serving test: one request set, three serving paths.

The same requests — select, predict, plan, replan, a 400 (unknown app)
and a 422 (infeasible plan) — go through

* the in-process ``celia serve`` stack (the front end over a
  :class:`~repro.fleet.LocalFleet`), over HTTP;
* a 2-worker :class:`~repro.fleet.PlannerFleet` behind the same front
  end, over HTTP;
* :func:`repro.service.server.dispatch_request` on a bare service,

and every status and response body must be byte-identical across the
three.  The in-process stack's ``/metrics`` must also report each
series exactly once: the process-global and front-end series
unlabelled, the shard's service series only as ``{worker="w0"}``.
"""

import asyncio
import json

from repro.fleet import (
    FleetConfig,
    FleetFrontend,
    LocalFleet,
    PlannerFleet,
    warm_key,
)
from repro.obs.metrics import global_registry, labeled_name, parse_series
from repro.service.planner import PlannerService, ServiceConfig
from repro.service.server import dispatch_request
from tests.test_fleet import http

SELECT = {"app": "galaxy", "n": 65536, "a": 2000, "deadline_hours": 48,
          "budget_dollars": 350}

#: ``(path, body)``; seeds 0 and 4 land on different workers of the
#: two-worker ring, so both shards answer part of the set.
REQUESTS = [
    ("/v1/select", {**SELECT, "seed": 0}),
    ("/v1/select", {**SELECT, "seed": 4, "top": 3}),
    ("/v1/predict", {"app": "galaxy", "n": 65536, "a": 2000,
                     "configuration": [1, 1, 0, 0, 0, 0, 0, 0, 0]}),
    ("/v1/plan", {"app": "galaxy", "deadline_hours": 24,
                  "budget_dollars": 50, "fix_size": 65536,
                  "range": [100, 20000], "integral": True}),
    ("/v1/replan", {"app": "galaxy", "remaining_gi": 1.0e6,
                    "residual_deadline_hours": 48,
                    "residual_budget_dollars": 350}),
    ("/v1/select", {**SELECT, "app": "hadoop"}),
    ("/v1/plan", {"app": "galaxy", "deadline_hours": 0.001,
                  "budget_dollars": 0.01, "fix_size": 65536,
                  "range": [100, 20000]}),
]


def make_service() -> PlannerService:
    return PlannerService(config=ServiceConfig(default_quota=2,
                                               cache_dir=False))


async def over_http(port: int) -> list:
    return [await http(port, "POST", path, body)
            for path, body in REQUESTS]


async def in_process() -> "tuple[list, dict, dict]":
    service = make_service()
    frontend = FleetFrontend(LocalFleet(service))
    await frontend.start()
    try:
        answers = await over_http(frontend.port)
        _, raw = await http(frontend.port, "GET", "/metrics")
        return answers, json.loads(raw), service.metrics.snapshot()
    finally:
        await frontend.drain(timeout_s=1.0)


async def two_worker_fleet() -> list:
    fleet = PlannerFleet(FleetConfig(workers=2, port=0, quota=2,
                                     cache_dir=False,
                                     connect_timeout_s=60.0))
    await fleet.start()
    frontend = FleetFrontend(fleet)
    await frontend.start()
    try:
        assert {fleet.route(warm_key("galaxy", 2, seed))
                for seed in (0, 4)} == set(fleet.worker_ids)
        return await over_http(frontend.port)
    finally:
        await frontend.drain(timeout_s=1.0)
        await fleet.stop()


async def direct() -> list:
    service = make_service()
    answers = []
    for path, body in REQUESTS:
        request = {**body, "kind": path.rsplit("/", 1)[1]}
        status, envelope = await dispatch_request(service, request)
        answers.append((status, json.dumps(envelope).encode("utf-8")))
    return answers


def test_three_serving_paths_answer_byte_identically():
    global_registry().counter("sweep_runs_total").increment()
    local, metrics, service_snapshot = asyncio.run(in_process())
    sharded = asyncio.run(two_worker_fleet())
    reference = asyncio.run(direct())

    assert [status for status, _ in reference] == \
        [200, 200, 200, 200, 200, 400, 422]
    assert json.loads(reference[5][1])["error"]["code"] == "invalid_request"
    assert json.loads(reference[6][1])["error"]["code"] == "infeasible"
    for index, expected in enumerate(reference):
        assert local[index] == expected, REQUESTS[index]
        assert sharded[index] == expected, REQUESTS[index]

    # Each series exactly once on the in-process stack.
    exported = {name for section in metrics.values() for name in section}
    service_series = {name for section in service_snapshot.values()
                      for name in section}
    assert service_series
    for name in service_series:
        base, labels = parse_series(name)
        assert name not in exported, name
        assert labeled_name(base, {**labels, "worker": "w0"}) in exported
    process_series = {name for name in exported
                      if parse_series(name)[0].startswith(
                          ("sweep_", "eval_cache_", "fleet_"))}
    assert "sweep_runs_total" in process_series
    assert "fleet_requests_total" in process_series
    for name in process_series:
        base, labels = parse_series(name)
        if "worker" in labels:
            # The front end's own per-worker routing counter.
            assert base == "fleet_routed", name
            continue
        assert labeled_name(base, {**labels, "worker": "w0"}) \
            not in exported, name
