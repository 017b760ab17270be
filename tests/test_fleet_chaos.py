"""Fleet chaos: plan determinism, shedding, drain, and live ejection.

Three layers of coverage, cheapest first:

* pure units — fault/plan validation, step expansion, seeded
  frame-drop determinism;
* stub-fleet tests against :class:`FleetFrontend` (no subprocesses) —
  typed shed envelopes at the in-flight caps, the timeline endpoint,
  drain force-closing hung connections, and the worker's narrowed
  ``CancelledError`` handling;
* one end-to-end boot — a SIGSTOP hang on a real worker flows through
  probe ejection and SIGCONT re-admission exactly as the timeline
  contract promises.
"""

import asyncio
import json
import time

import pytest

from repro.errors import ValidationError
from repro.fleet.chaos import (
    FLEET_FAULT_KINDS,
    ChaosInjector,
    FleetChaosPlan,
    FleetFault,
    LinkFaults,
    fleet_chaos_names,
    fleet_chaos_plan,
)
from repro.fleet.frontend import FleetFrontend
from repro.fleet.health import FleetTimeline
from repro.fleet.rpc import WorkerGone
from repro.service.planner import PlannerService, ServiceConfig


class TestFleetFault:
    def test_kind_catalog(self):
        assert FLEET_FAULT_KINDS == ("kill", "hang", "slow", "delay",
                                     "drop")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            FleetFault("w0", "explode", 1.0)

    def test_windowed_kinds_need_duration(self):
        with pytest.raises(ValidationError):
            FleetFault("w0", "hang", 1.0)  # no duration
        with pytest.raises(ValidationError):
            FleetFault("w0", "slow", 1.0, duration_s=1.0)  # no delay
        with pytest.raises(ValidationError):
            FleetFault("w0", "drop", 1.0, duration_s=1.0)  # no rate
        with pytest.raises(ValidationError):
            FleetFault("w0", "drop", 1.0, duration_s=1.0, drop_rate=1.5)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValidationError):
            FleetFault("w0", "kill", -1.0)


class TestChaosPlan:
    def test_named_scenarios_build_for_any_fleet_size(self):
        for name in fleet_chaos_names():
            for workers in (1, 2, 3, 5):
                plan = fleet_chaos_plan(name, workers=workers, seed=3)
                assert plan.name == name
                assert plan.seed == 3
                assert all(int(f.worker[1:]) < workers
                           for f in plan.faults)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValidationError):
            fleet_chaos_plan("nope")

    def test_kill_hang_slow_is_the_bench_chain(self):
        plan = fleet_chaos_plan("kill-hang-slow", workers=3)
        assert [f.kind for f in plan.faults] == ["kill", "hang", "slow"]
        assert [f.worker for f in plan.faults] == ["w1", "w2", "w0"]
        assert plan.horizon_s == pytest.approx(7.5)

    def test_steps_expand_windows_in_time_order(self):
        plan = fleet_chaos_plan("kill-hang-slow", workers=3)
        steps = plan.steps()
        assert [(t, action) for t, action, _ in steps] == [
            (1.0, "kill"), (3.5, "hang-start"), (5.5, "hang-end"),
            (6.0, "slow-start"), (7.5, "slow-end")]

    def test_plans_compose(self):
        combined = fleet_chaos_plan("worker-kill") + \
            fleet_chaos_plan("slow-shard")
        assert combined.name == "worker-kill+slow-shard"
        assert len(combined.faults) == 2

    def test_to_dict_round_trip(self):
        plan = fleet_chaos_plan("frame-loss", seed=9)
        data = plan.to_dict()
        rebuilt = FleetChaosPlan(
            name=data["name"], seed=data["seed"],
            faults=tuple(FleetFault(**f) for f in data["faults"]))
        assert rebuilt == plan


class TestLinkFaults:
    def test_drop_pattern_is_seeded_per_worker(self):
        def pattern(seed, worker):
            faults = LinkFaults(drop_rate=0.3, seed=seed,
                                worker_id=worker)
            return [faults.drop() for _ in range(64)]

        assert pattern(0, "w1") == pattern(0, "w1")
        assert pattern(0, "w1") != pattern(1, "w1")
        assert pattern(0, "w1") != pattern(0, "w2")
        assert any(pattern(0, "w1"))
        assert not all(pattern(0, "w1"))

    def test_zero_rate_never_drops(self):
        faults = LinkFaults(delay_s=0.01)
        assert not any(faults.drop() for _ in range(32))


class FakeLink:
    """A controllable worker link for stub-fleet frontend tests."""

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.up = True
        self.faults = None
        self.gate: "asyncio.Event | None" = None
        self.calls = []

    async def call_raw(self, kind, payload=b"", *, timeout_s=None):
        self.calls.append((kind, payload))
        if self.gate is not None:
            await self.gate.wait()
        return 200, b'{"ok": true}'

    async def call(self, request, *, timeout_s=None):
        self.calls.append((request.get("kind"), request))
        return 200, {"ok": True}


class FakeFleet:
    """Single-worker routing surface with a timeline, no processes."""

    def __init__(self):
        self.links = {"w0": FakeLink("w0")}
        self.timeline = FleetTimeline()
        self.default_quota = 2
        self.default_seed = 0
        self.down = frozenset()
        self.warmed_apps = set()
        self.lost = []

    @property
    def worker_ids(self):
        return tuple(sorted(self.links))

    def route(self, key, *, exclude=frozenset()):
        return "w0"

    def link(self, worker_id):
        return self.links[worker_id]

    def note_lost(self, worker_id):
        self.lost.append(worker_id)

    def describe(self):
        return {"workers": []}


class DeadLink(FakeLink):
    """A link whose worker drops every request it is handed."""

    async def call_raw(self, kind, payload=b"", *, timeout_s=None):
        self.calls.append((kind, payload))
        raise WorkerGone(self.worker_id, "dead")


class DeadFirstFleet(FakeFleet):
    """Two workers; every key's first owner is w1, whose link drops."""

    def __init__(self):
        super().__init__()
        self.links["w1"] = DeadLink("w1")

    def route(self, key, *, exclude=frozenset()):
        return "w0" if "w1" in exclude else "w1"


SELECT_RAW = json.dumps({"app": "galaxy", "n": 1024, "a": 100,
                         "deadline_hours": 4,
                         "budget_dollars": 10}).encode()


class TestFrontendShedding:
    def test_worker_cap_sheds_with_typed_503(self):
        async def run():
            fleet = FakeFleet()
            frontend = FleetFrontend(fleet, max_inflight=1,
                                     shed_retry_after_s=0.25)
            gate = asyncio.Event()
            fleet.links["w0"].gate = gate
            first = asyncio.ensure_future(
                frontend._handle_request("POST", "/v1/select",
                                         SELECT_RAW))
            await asyncio.sleep(0)  # let it occupy the worker slot
            status, body = await frontend._handle_request(
                "POST", "/v1/select", SELECT_RAW)
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            assert body["error"]["retry_after_s"] == 0.25
            assert "in-flight cap 1" in body["error"]["message"]
            gate.set()
            status, raw = await first
            assert status == 200
            snapshot = frontend.metrics.snapshot()["counters"]
            assert snapshot["fleet_shed_total"] == 1

        asyncio.run(run())

    def test_total_cap_sheds_with_typed_429(self):
        async def run():
            fleet = FakeFleet()
            frontend = FleetFrontend(fleet, max_total_inflight=2)
            frontend._in_flight = 3  # as _serve_one would have set it
            status, body = await frontend._handle_request(
                "POST", "/v1/select", SELECT_RAW)
            assert status == 429
            assert body["error"]["code"] == "too_many_requests"
            assert body["error"]["retry_after_s"] == 1.0

        asyncio.run(run())

    def test_unbounded_by_default(self):
        async def run():
            fleet = FakeFleet()
            frontend = FleetFrontend(fleet)
            gate = asyncio.Event()
            fleet.links["w0"].gate = gate
            tasks = [asyncio.ensure_future(
                frontend._handle_request("POST", "/v1/select",
                                         SELECT_RAW))
                for _ in range(8)]
            await asyncio.sleep(0)
            gate.set()
            for task in tasks:
                status, _ = await task
                assert status == 200

        asyncio.run(run())

    def test_fallback_owner_is_also_capped(self):
        async def run():
            fleet = DeadFirstFleet()
            frontend = FleetFrontend(fleet, max_inflight=1)
            # Every request's first owner (w1) drops; the reroute to w0
            # holds w0's only slot, so the next reroute is shed.
            gate = asyncio.Event()
            fleet.links["w0"].gate = gate
            holder = asyncio.ensure_future(
                frontend._handle_request("POST", "/v1/select",
                                         SELECT_RAW))
            await asyncio.sleep(0)
            status, body = await frontend._handle_request(
                "POST", "/v1/select", SELECT_RAW)
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            gate.set()
            status, _ = await holder
            assert status == 200
            assert fleet.lost == ["w1", "w1"]
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["fleet_reroutes_total"] == 2
            assert counters["fleet_shed_total"] == 1
            assert "fleet_worker_lost_total" not in counters

        asyncio.run(run())

    def test_fallback_loss_is_a_typed_worker_lost(self):
        async def run():
            fleet = DeadFirstFleet()
            fleet.links["w0"] = DeadLink("w0")
            frontend = FleetFrontend(fleet)
            status, body = await frontend._handle_request(
                "POST", "/v1/select", SELECT_RAW)
            assert status == 503
            assert body["error"]["code"] == "worker_lost"
            assert "fallback failed" in body["error"]["message"]
            assert fleet.lost == ["w1", "w0"]
            counters = frontend.metrics.snapshot()["counters"]
            assert counters["fleet_reroutes_total"] == 1
            assert counters["fleet_worker_lost_total"] == 1

        asyncio.run(run())


class TestFrontendTimelineAndHealth:
    def test_timeline_endpoint_serves_events_and_normalized(self):
        async def run():
            fleet = FakeFleet()
            fleet.timeline.record("fault-kill", "w1", at_s=1.0)
            fleet.timeline.record("ejected", "w1")
            frontend = FleetFrontend(fleet)
            status, body = await frontend._handle_request(
                "GET", "/fleet/timeline", b"")
            assert status == 200
            assert [e["kind"] for e in body["events"]] == \
                ["fault-kill", "ejected"]
            assert body["normalized"] == {
                "w1": ["fault-kill", "ejected"]}

        asyncio.run(run())

    def test_timeline_endpoint_tolerates_plain_fleets(self):
        async def run():
            fleet = FakeFleet()
            del fleet.timeline
            frontend = FleetFrontend(fleet)
            status, body = await frontend._handle_request(
                "GET", "/fleet/timeline", b"")
            assert status == 200
            assert body == {"events": [], "normalized": {}}

        asyncio.run(run())

    def test_ready_requires_expected_warm_and_no_ejections(self):
        async def run():
            fleet = FakeFleet()
            frontend = FleetFrontend(fleet, expected_warm=("galaxy",))
            health = await frontend._healthz()
            assert health["ready"] is False  # galaxy not warmed yet
            assert health["warm_ok"] is False
            fleet.warmed_apps.add("galaxy")
            health = await frontend._healthz()
            assert health["ready"] is True
            fleet.down = frozenset({"w0"})
            health = await frontend._healthz()
            assert health["ready"] is False
            assert health["ejected"] == ["w0"]

        asyncio.run(run())


class TestFrontendDrain:
    async def _open_client(self, frontend):
        return await asyncio.open_connection("127.0.0.1", frontend.port)

    def test_drain_force_closes_hung_connections(self):
        async def run():
            fleet = FakeFleet()
            fleet.links["w0"].gate = asyncio.Event()  # never set: hung
            frontend = FleetFrontend(fleet)
            await frontend.start()
            reader, writer = await self._open_client(frontend)
            writer.write(b"POST /v1/select HTTP/1.1\r\n"
                         b"Content-Length: %d\r\n\r\n%s"
                         % (len(SELECT_RAW), SELECT_RAW))
            deadline = time.monotonic() + 5
            while frontend.in_flight == 0:
                assert time.monotonic() < deadline
                await asyncio.sleep(0.01)
            completed = await frontend.drain(timeout_s=0.2)
            assert completed is False
            assert not frontend._conn_tasks  # nothing leaked
            assert await reader.read() == b""  # connection closed
            writer.close()

        asyncio.run(run())

    def test_drain_closes_idle_keepalive_connections(self):
        async def run():
            fleet = FakeFleet()
            frontend = FleetFrontend(fleet)
            await frontend.start()
            reader, writer = await self._open_client(frontend)
            writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await reader.readuntil(b"\r\n\r\n")  # response head
            completed = await frontend.drain(timeout_s=5.0)
            assert completed is True
            assert not frontend._conn_tasks
            writer.close()

        asyncio.run(run())


class TestWorkerCancellation:
    """Satellite fix: CancelledError only swallowed while draining."""

    class FakeWriter:
        def __init__(self):
            self.closed = False

        def close(self):
            self.closed = True

        async def wait_closed(self):
            pass

    def make_worker(self):
        from repro.fleet.worker import ShardWorker

        service = PlannerService(config=ServiceConfig(
            default_quota=1, cache_dir=False))
        return ShardWorker(service, worker_id="w0",
                           socket_path="/nonexistent.sock")

    def test_midstream_cancellation_propagates(self):
        async def run():
            worker = self.make_worker()
            writer = self.FakeWriter()
            task = asyncio.ensure_future(
                worker._handle_connection(asyncio.StreamReader(), writer))
            await asyncio.sleep(0.01)  # parked on readline
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert task.cancelled()
            assert writer.closed  # cleanup still ran

        asyncio.run(run())

    def test_drain_cancellation_is_absorbed(self):
        async def run():
            worker = self.make_worker()
            worker._draining = True  # as stop() sets before teardown
            writer = self.FakeWriter()
            task = asyncio.ensure_future(
                worker._handle_connection(asyncio.StreamReader(), writer))
            await asyncio.sleep(0.01)
            task.cancel()
            await task  # completes normally: cancellation absorbed
            assert not task.cancelled()
            assert writer.closed

        asyncio.run(run())


class RecordingFleet(FakeFleet):
    """FakeFleet + the supervisor surface ChaosInjector needs."""

    def __init__(self):
        super().__init__()
        self.links["w1"] = FakeLink("w1")
        self.pids = {"w0": None, "w1": None}

    def worker_pid(self, worker_id):
        return self.pids[worker_id]


class TestChaosInjector:
    def test_slow_delay_drop_steps_drive_links_and_timeline(self):
        async def run():
            fleet = RecordingFleet()
            plan = FleetChaosPlan(name="net", seed=5, faults=(
                FleetFault("w1", "slow", 0.0, duration_s=0.01,
                           delay_s=0.05),
                FleetFault("w0", "delay", 0.0, duration_s=0.01,
                           delay_s=0.02),
                FleetFault("w0", "drop", 0.05, duration_s=0.01,
                           drop_rate=0.5),
            ))
            await ChaosInjector(fleet, plan).run()
            # The slow fault flipped the worker's __chaos__ knob on/off.
            chaos_calls = [req for kind, req in fleet.links["w1"].calls
                           if kind == "__chaos__"]
            assert [c["slow_s"] for c in chaos_calls] == [0.05, 0.0]
            # Link faults were installed and removed again.
            assert fleet.links["w0"].faults is None
            assert fleet.timeline.normalized() == {
                "w1": ("fault-slow", "fault-slow-end"),
                "w0": ("fault-delay", "fault-delay-end", "fault-drop",
                       "fault-drop-end"),
            }
            # Scheduled offsets, not wall times, land in the events.
            offsets = {e.kind: e.at_s for e in fleet.timeline.events()}
            assert offsets["fault-drop"] == pytest.approx(0.05)
            assert offsets["fault-drop-end"] == pytest.approx(0.06)

        asyncio.run(run())

    def test_vanished_target_is_recorded_not_fatal(self):
        async def run():
            fleet = RecordingFleet()  # pids are None: nothing to kill
            plan = FleetChaosPlan(name="k", faults=(
                FleetFault("w1", "kill", 0.0),))
            await ChaosInjector(fleet, plan).run()
            kinds = fleet.timeline.normalized()["w1"]
            assert kinds == ("fault-kill", "fault-kill-missed")

        asyncio.run(run())


class TestHangEjectionEndToEnd:
    def test_sigstop_worker_is_ejected_then_readmitted(self):
        from tests.test_fleet import boot_fleet, fleet_config

        async def run():
            config = fleet_config(
                workers=2, probe_interval_s=0.1, probe_timeout_s=0.3,
                probe_max_missed=2, call_timeout_s=2.0)
            fleet, frontend = await boot_fleet(config)
            try:
                plan = FleetChaosPlan(name="hang-test", faults=(
                    FleetFault("w1", "hang", 0.0, duration_s=1.5),))
                await ChaosInjector(fleet, plan).run()
                # The hang window has passed; probes must now readmit.
                deadline = time.monotonic() + 30
                want = ("fault-hang", "ejected", "fault-hang-end",
                        "readmitted")
                while time.monotonic() < deadline:
                    if fleet.timeline.normalized().get("w1") == want:
                        break
                    await asyncio.sleep(0.1)
                assert fleet.timeline.normalized()["w1"] == want
                # The worker was never killed: same pid throughout.
                assert fleet.describe()["workers"][1]["alive"]
            finally:
                await frontend.stop()
                await fleet.stop()

        asyncio.run(run())
