"""Tests for the ``celia serve`` HTTP stack and the client.

The stack is the fleet front end over one in-process shard
(``FleetFrontend(LocalFleet(service))``).  It runs on the test's own
event loop; client calls are blocking stdlib HTTP, so they run in an
executor thread — exactly how a real caller would hit a live service.
"""

import asyncio
import gc
import json

import pytest

from repro.cloud.catalog import make_catalog
from repro.errors import ReproError, ServiceUnavailableError, ValidationError
from repro.fleet import FleetFrontend, LocalFleet
from repro.service import (
    PlannerClient,
    PlannerService,
    ServiceConfig,
    ServiceFaults,
    ServiceSaturatedError,
    SpaceSignature,
)

ROWS = [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
        ("b.small", 2, 2.5, 0.16)]


def make_service(*, faults=None, **overrides) -> PlannerService:
    overrides.setdefault("default_quota", 2)
    overrides.setdefault("cache_dir", False)
    return PlannerService(
        config=ServiceConfig(**overrides),
        faults=faults,
        catalog_factory=lambda quota: make_catalog(ROWS, quota=quota),
    )


def serve_in_process(service: PlannerService, **kwargs) -> FleetFrontend:
    """The ``celia serve`` stack: the front end over one in-process shard."""
    return FleetFrontend(LocalFleet(service), **kwargs)


def with_server(service: PlannerService, fn):
    """Start the server, run blocking ``fn(client)`` in a thread, stop."""

    async def run():
        server = serve_in_process(service)
        await server.start()
        try:
            client = PlannerClient(port=server.port)
            return await asyncio.get_running_loop().run_in_executor(
                None, fn, client)
        finally:
            await server.stop()

    return asyncio.run(run())


class TestEndpoints:
    def test_select_round_trip(self):
        service = make_service()

        def call(client):
            return client.select("galaxy", n=65536, a=2000,
                                 deadline_hours=48, budget_dollars=350)

        response = with_server(service, call)
        assert response["kind"] == "select"
        assert response["result"]["pareto_count"] > 0

    def test_http_response_matches_in_process_result(self):
        service = make_service()

        def call(client):
            return client.select("galaxy", n=65536, a=2000,
                                 deadline_hours=48, budget_dollars=350)

        http_response = with_server(service, call)
        direct = asyncio.run(service.select(
            "galaxy", 65536.0, 2000.0, 48.0, 350.0))
        assert http_response["result"] == direct["result"]

    def test_predict_and_plan(self):
        service = make_service()

        def call(client):
            predicted = client.predict("galaxy", n=65536, a=2000,
                                       configuration=[1, 1, 0])
            planned = client.plan("galaxy", deadline_hours=24,
                                  budget_dollars=50, fix_size=65536,
                                  knob_range=(100, 20000), integral=True)
            return predicted, planned

        predicted, planned = with_server(service, call)
        assert predicted["result"]["configuration"] == [1, 1, 0]
        assert planned["result"]["knob"] == "accuracy"

    def test_health_and_metrics(self):
        service = make_service()

        def call(client):
            client.select("galaxy", n=65536, a=2000, deadline_hours=48,
                          budget_dollars=350)
            return client.health(), client.metrics()

        health, metrics = with_server(service, call)
        assert health["status"] == "ok"
        assert health["workers"] == {"w0": True}
        assert service.warm_signatures == (SpaceSignature("galaxy", 2, 0),)
        # Service series carry the shard's worker label, exactly once.
        assert metrics["counters"]['requests_total{worker="w0"}'] == 1
        assert "requests_total" not in metrics["counters"]
        assert metrics["histograms"][
            'latency_select_s{worker="w0"}']["count"] == 1


def raw_exchange(client, method, path, body=None):
    """One stdlib HTTP exchange, bypassing the client's error mapping."""
    import http.client

    conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
    try:
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestErrorMapping:
    def test_unknown_app_is_invalid_request(self):
        def call(client):
            with pytest.raises(ValidationError):
                client.select("hadoop", n=1, a=1, deadline_hours=1,
                              budget_dollars=1)
            return True

        assert with_server(make_service(), call)

    def test_unknown_route_404(self):
        def call(client):
            with pytest.raises(ReproError):
                client._request("POST", "/v1/teleport", {})
            return True

        assert with_server(make_service(), call)

    def test_get_on_post_route_405(self):
        def call(client):
            return [raw_exchange(client, method, path)
                    for method, path in (("GET", "/v1/select"),
                                         ("GET", "/fleet/restart"),
                                         ("POST", "/healthz"),
                                         ("PUT", "/v1/plan"))]

        for status, body in with_server(make_service(), call):
            assert status == 405
            assert body["error"]["code"] == "method_not_allowed"

    def test_bad_json_body_400(self):
        def call(client):
            return raw_exchange(client, "POST", "/v1/select", b"{not json")

        status, body = with_server(make_service(), call)
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_saturated_maps_to_typed_client_error(self):
        service = make_service(faults=ServiceFaults(compute_delay_s=0.4),
                               max_queue_depth=1, max_batch=1)

        async def run():
            server = serve_in_process(service)
            await server.start()
            try:
                await service.warm("galaxy")
                blocker = asyncio.create_task(service.select(
                    "galaxy", 65536.0, 2000.0, 48.0, 350.0))
                await asyncio.sleep(0.1)

                def overflow(client):
                    with pytest.raises(ServiceSaturatedError):
                        client.select("galaxy", n=65536, a=3000,
                                      deadline_hours=48, budget_dollars=350)
                    return True

                client = PlannerClient(port=server.port, max_attempts=1)
                rejected = await asyncio.get_running_loop().run_in_executor(
                    None, overflow, client)
                await blocker
                return rejected
            finally:
                await server.stop()

        assert asyncio.run(run())


def framing_exchange(service: PlannerService, *payloads: bytes):
    """Send each raw payload on its own connection, half-close, and read
    the reply to EOF; returns the replies and any error the event loop
    reported (an exception escaping a connection handler lands there)."""

    async def run():
        loop = asyncio.get_running_loop()
        errors = []
        loop.set_exception_handler(lambda _loop, context: errors.append(
            context.get("message")))
        server = serve_in_process(service)
        await server.start()
        try:
            replies = []
            for payload in payloads:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                writer.write(payload)
                writer.write_eof()
                replies.append(await asyncio.wait_for(reader.read(), 10))
                writer.close()
            await asyncio.sleep(0.05)  # let handler tasks finish
            gc.collect()  # surfaces never-retrieved task exceptions
            return replies, errors
        finally:
            await server.stop()

    return asyncio.run(run())


HEALTH = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"


def status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def padded_head(size: int) -> bytes:
    """A ``GET /healthz`` head block of exactly ``size`` bytes."""
    head = b"GET /healthz HTTP/1.1\r\nConnection: close\r\nX-Pad: "
    return head + b"a" * (size - len(head) - 4) + b"\r\n\r\n"


class TestHttpFraming:
    @pytest.mark.parametrize("length", [b"-5", b"ten", b""])
    def test_malformed_content_length_is_typed_400(self, length):
        request = (b"POST /v1/select HTTP/1.1\r\nContent-Length: "
                   + length + b"\r\n\r\n{}")
        (reply, after), errors = framing_exchange(make_service(), request,
                                                  HEALTH)
        assert status_of(reply) == 400
        body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert body["error"] == {"code": "invalid_request",
                                 "message": "bad Content-Length"}
        assert b"Connection: close" in reply
        assert status_of(after) == 200  # the listener is unharmed
        assert errors == []

    def test_truncated_body_closes_quietly(self):
        request = (b"POST /v1/select HTTP/1.1\r\nContent-Length: 100"
                   b"\r\n\r\n{\"app\": \"galaxy\"")
        (reply, after), errors = framing_exchange(make_service(), request,
                                                  HEALTH)
        assert reply == b""  # nothing to answer: the request never ended
        assert status_of(after) == 200
        assert errors == []

    @pytest.mark.parametrize("extra", [b"", b"Content-Length: 91\r\n"])
    def test_transfer_encoding_is_one_typed_501_and_closed(self, extra):
        body = (b'{"app": "galaxy", "n": 65536, "a": 2000, '
                b'"deadline_hours": 48, "budget_dollars": 350}')
        request = (b"POST /v1/select HTTP/1.1\r\n"
                   b"Transfer-Encoding: chunked\r\n" + extra + b"\r\n"
                   + b"%x\r\n" % len(body) + body + b"\r\n0\r\n\r\n")
        (reply, after), errors = framing_exchange(make_service(), request,
                                                  HEALTH)
        # One response, then EOF: the chunk stream is never parsed as a
        # body or as a next request.
        assert reply.count(b"HTTP/1.1 ") == 1
        assert reply.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert b"Connection: close" in reply
        body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert body["error"]["code"] == "unsupported_transfer_encoding"
        assert status_of(after) == 200
        assert errors == []

    def test_head_over_limit_is_400_and_closed(self):
        (reply, after), errors = framing_exchange(
            make_service(), padded_head(17 * 1024), HEALTH)
        assert status_of(reply) == 400
        body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
        assert body["error"]["code"] == "invalid_request"
        assert "over 16384 bytes" in body["error"]["message"]
        assert b"Connection: close" in reply
        assert status_of(after) == 200
        assert errors == []

    def test_head_under_limit_is_served(self):
        (reply,), errors = framing_exchange(make_service(),
                                            padded_head(15 * 1024))
        assert status_of(reply) == 200
        assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["status"] == "ok"
        assert errors == []

    def test_keep_alive_serves_sequential_requests(self):
        async def run():
            server = serve_in_process(make_service())
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                statuses = []
                for _ in range(3):
                    writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                    head = await reader.readuntil(b"\r\n\r\n")
                    assert b"Connection: keep-alive" in head
                    length = int(head.split(b"Content-Length: ")[1]
                                 .split(b"\r\n")[0])
                    await reader.readexactly(length)
                    statuses.append(status_of(head))
                writer.close()
                return statuses
            finally:
                await server.drain(timeout_s=1.0)

        assert asyncio.run(run()) == [200, 200, 200]


class TestHealthReadiness:
    def test_unready_until_expected_state_is_warm(self):
        service = make_service()

        async def run():
            server = serve_in_process(service, expected_warm=("galaxy",))
            await server.start()
            try:
                client = PlannerClient(port=server.port)
                loop = asyncio.get_running_loop()
                before = await loop.run_in_executor(None, client.health)
                await service.warm("galaxy")
                after = await loop.run_in_executor(None, client.health)
                return before, after
            finally:
                await server.stop()

        before, after = asyncio.run(run())
        assert before["status"] == "ok"  # alive...
        assert before["ready"] is False  # ...but not routable yet
        assert before["expected_warm"] == ["galaxy"]
        assert after["ready"] is True


class TestGracefulDrain:
    def test_draining_rejects_posts_but_keeps_health_observable(self):
        service = make_service()

        async def run():
            server = serve_in_process(service)
            await server.start()
            try:
                # The drain window: flag up, listener still accepting
                # (exactly the state between drain()'s first two steps).
                server._draining = True
                client = PlannerClient(port=server.port, max_attempts=1)
                loop = asyncio.get_running_loop()

                def probe():
                    from repro.errors import ServiceUnavailableError

                    with pytest.raises(ServiceUnavailableError):
                        client.select("galaxy", n=65536, a=2000,
                                      deadline_hours=48, budget_dollars=350)
                    return client.health(), client.metrics()

                return await loop.run_in_executor(None, probe)
            finally:
                await server.stop()

        health, metrics = asyncio.run(run())
        assert health["status"] == "draining"
        assert health["ready"] is False
        assert "counters" in metrics  # observability survives the drain

    def test_idle_drain_completes_and_stops_listening(self):
        service = make_service()

        async def run():
            server = serve_in_process(service)
            await server.start()
            port = server.port
            drained = await server.drain(timeout_s=1.0)

            def connect():
                # Transport failures surface as the typed service error,
                # never a raw ConnectionError (clients catch one type).
                with pytest.raises(ServiceUnavailableError):
                    PlannerClient(port=port, max_attempts=1).health()
                return True

            refused = await asyncio.get_running_loop().run_in_executor(
                None, connect)
            return drained, refused

        drained, refused = asyncio.run(run())
        assert drained and refused

    def test_drain_waits_for_in_flight_requests(self):
        service = make_service(faults=ServiceFaults(compute_delay_s=0.3))

        async def run():
            server = serve_in_process(service)
            await server.start()
            await service.warm("galaxy")
            client = PlannerClient(port=server.port, timeout_s=10.0)
            loop = asyncio.get_running_loop()
            request = loop.run_in_executor(
                None, lambda: client.select(
                    "galaxy", n=65536, a=2000, deadline_hours=48,
                    budget_dollars=350))
            while server.in_flight == 0:  # request definitely admitted
                await asyncio.sleep(0.01)
            drained = await server.drain(timeout_s=5.0)
            response = await request
            return drained, response, server.in_flight

        drained, response, in_flight = asyncio.run(run())
        assert drained  # drain outwaited the slow request...
        assert response["result"]["feasible_count"] > 0  # ...which completed
        assert in_flight == 0

    def test_drain_timeout_reports_failure(self):
        """A request still running when the drain timeout expires is cut
        off: drain reports failure and the client sees a typed error."""
        service = make_service(faults=ServiceFaults(compute_delay_s=0.5))

        async def run():
            server = serve_in_process(service)
            await server.start()
            try:
                await service.warm("galaxy")
                client = PlannerClient(port=server.port, timeout_s=10.0,
                                       max_attempts=1)
                loop = asyncio.get_running_loop()

                def cut_off():
                    with pytest.raises(ServiceUnavailableError):
                        client.select("galaxy", n=65536, a=2000,
                                      deadline_hours=48, budget_dollars=350)
                    return True

                request = loop.run_in_executor(None, cut_off)
                while server.in_flight == 0:
                    await asyncio.sleep(0.01)
                drained = await server.drain(timeout_s=0.05)
                return drained, await request, server.in_flight
            finally:
                await server.stop()

        drained, cut, in_flight = asyncio.run(run())
        assert drained is False
        assert cut
        assert in_flight == 0


class TestClientRetry:
    """Transport-level retry behaviour, exercised against a stub."""

    def make_client(self, outcomes, *, max_attempts=3, sleeps=None):
        """A client whose _request_once pops scripted outcomes."""
        client = PlannerClient(port=1, max_attempts=max_attempts,
                               backoff_base_s=0.01,
                               sleep=(sleeps.append if sleeps is not None
                                      else lambda s: None))
        script = list(outcomes)

        def fake_request_once(method, path, body=None):
            outcome = script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = fake_request_once
        return client

    def test_transient_failures_retried_to_success(self):
        sleeps = []
        client = self.make_client(
            [ConnectionRefusedError("boom"), TimeoutError(), {"ok": True}],
            sleeps=sleeps)
        assert client._request("GET", "/healthz") == {"ok": True}
        assert sleeps == [client._backoff_s(1), client._backoff_s(2)]

    def test_503_retried_then_succeeds(self):
        saturated = ServiceSaturatedError("full", queue_depth=1,
                                          max_queue_depth=1)
        client = self.make_client([saturated, {"ok": True}])
        assert client._request("POST", "/v1/select", {}) == {"ok": True}

    def test_exhaustion_raises_typed_error_with_cause(self):
        from repro.errors import ServiceUnavailableError

        client = self.make_client([ConnectionRefusedError("boom")] * 3)
        with pytest.raises(ServiceUnavailableError) as err:
            client._request("GET", "/healthz")
        assert err.value.attempts == 3
        assert isinstance(err.value.__cause__, ConnectionRefusedError)

    def test_single_attempt_wraps_transport_error(self):
        client = self.make_client([ConnectionRefusedError("boom")],
                                  max_attempts=1)
        with pytest.raises(ServiceUnavailableError) as err:
            client._request("GET", "/healthz")
        assert err.value.attempts == 1
        assert isinstance(err.value.__cause__, ConnectionRefusedError)

    def test_single_attempt_surfaces_typed_service_error(self):
        saturated = ServiceSaturatedError("full", queue_depth=1,
                                          max_queue_depth=1)
        client = self.make_client([saturated], max_attempts=1)
        with pytest.raises(ServiceSaturatedError):
            client._request("POST", "/v1/select", {})

    def test_non_idempotent_never_retried(self):
        sleeps = []
        client = self.make_client(
            [ConnectionRefusedError("boom"), {"ok": True}], sleeps=sleeps)
        with pytest.raises(ServiceUnavailableError) as err:
            client._request("POST", "/v1/mutate", {}, idempotent=False)
        assert sleeps == []
        assert isinstance(err.value.__cause__, ConnectionRefusedError)

    def test_worker_lost_replayed_once_without_backoff(self):
        """A fleet shard died mid-request: the dead worker has already
        left routing, so one immediate replay lands on the re-routed
        shard — no backoff sleep, no retry-budget spend."""
        from repro.errors import WorkerLostError

        sleeps = []
        client = self.make_client(
            [WorkerLostError("w0 died"), {"ok": True}], sleeps=sleeps)
        assert client._request("POST", "/v1/select", {}) == {"ok": True}
        assert sleeps == []

    def test_worker_lost_replay_fails_raises_typed_error(self):
        from repro.errors import WorkerLostError

        client = self.make_client(
            [WorkerLostError("w0 died"), WorkerLostError("w1 died")])
        with pytest.raises(WorkerLostError) as err:
            client._request("POST", "/v1/select", {})
        assert err.value.attempts == 2
        assert isinstance(err.value.__cause__, WorkerLostError)
        # Still catchable by callers handling generic unavailability.
        assert isinstance(err.value, ServiceUnavailableError)

    def test_worker_lost_non_idempotent_never_replayed(self):
        from repro.errors import WorkerLostError

        sleeps = []
        client = self.make_client(
            [WorkerLostError("w0 died"), {"ok": True}], sleeps=sleeps)
        with pytest.raises(WorkerLostError) as err:
            client._request("POST", "/v1/mutate", {}, idempotent=False)
        assert err.value.attempts == 1
        assert sleeps == []

    def test_definitive_errors_never_retried(self):
        client = self.make_client([ValidationError("bad"), {"ok": True}])
        with pytest.raises(ValidationError):
            client._request("POST", "/v1/select", {})

    def test_backoff_deterministic_and_capped(self):
        client = PlannerClient(port=1, backoff_base_s=1.0, backoff_cap_s=3.0,
                               jitter_fraction=0.5, retry_seed=4)
        waits = [client._backoff_s(k) for k in (1, 2, 3, 4)]
        assert waits == [PlannerClient(
            port=1, backoff_base_s=1.0, backoff_cap_s=3.0,
            jitter_fraction=0.5, retry_seed=4)._backoff_s(k)
            for k in (1, 2, 3, 4)]
        for k, wait in enumerate(waits, start=1):
            nominal = min(1.0 * 2 ** (k - 1), 3.0)
            assert 0.75 * nominal <= wait <= 1.25 * nominal

    def test_zero_attempts_rejected(self):
        with pytest.raises(ValidationError):
            PlannerClient(max_attempts=0)


class TestSmoke:
    def test_start_request_metrics_shutdown(self):
        """The CI smoke sequence: start, one request, metrics, clean stop."""
        service = make_service()

        async def run():
            server = serve_in_process(service)
            await server.start()
            client = PlannerClient(port=server.port)
            loop = asyncio.get_running_loop()
            response = await loop.run_in_executor(
                None, lambda: client.select(
                    "galaxy", n=65536, a=2000, deadline_hours=48,
                    budget_dollars=350))
            snapshot = await loop.run_in_executor(None, client.metrics)
            await server.stop()
            return response, snapshot

        response, snapshot = asyncio.run(run())
        assert response["result"]["feasible_count"] > 0
        assert snapshot["counters"]['requests_select{worker="w0"}'] == 1
