"""Client-side resilience: the one retry policy inside ``PlannerClient``.

Most tests script ``PlannerClient._request_once`` (no sockets) with a
fake clock and assert the request loop honors its bounds: shed hints
pace the retry (clamped to the backoff cap), the token budget caps
retries, the breaker fails fast after consecutive dead cycles and its
half-open probe can never wedge it.  A stdlib ``http.server`` stub
covers the replies a proxy or a broken server sends (HTML 502s,
malformed envelopes, out-of-range ``Retry-After`` headers).
"""

import json
import math
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CircuitOpenError,
    FleetOverloadedError,
    ReproError,
    ServiceUnavailableError,
    ValidationError,
    WorkerLostError,
)
from repro.service.client import RETRY_BUDGET_CAP, PlannerClient
from repro.service.planner import ServiceSaturatedError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_client(outcomes, *, sleeps=None, **overrides):
    """A client whose ``_request_once`` replays ``outcomes``.

    Each outcome is an exception instance (raised), a callable (called,
    its result returned) or a dict (returned); sleeps are recorded
    instead of slept.
    """
    defaults = dict(max_attempts=3, retry_seed=7)
    if sleeps is not None:
        defaults["sleep"] = sleeps.append
    defaults.update(overrides)
    client = PlannerClient("127.0.0.1", 1, **defaults)
    script = list(outcomes)
    calls = {"n": 0}

    def fake_request_once(method, path, body=None):
        calls["n"] += 1
        outcome = script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        if callable(outcome):
            return outcome()
        return outcome

    client._request_once = fake_request_once
    client._calls = calls
    return client


def shed_error(retry_after_s=2.0):
    exc = FleetOverloadedError("worker w0 at in-flight cap 4")
    exc.retry_after_s = retry_after_s
    return exc


class TestRetryAfterHonored:
    def test_shed_hint_floors_the_backoff(self):
        sleeps = []
        client = make_client([shed_error(2.0), {"ok": True}],
                             sleeps=sleeps)
        assert client._request("POST", "/v1/select", {}) == {"ok": True}
        assert sleeps == [client._backoff_s(1, shed_error(2.0))]
        # The hint (2s) dominates the small exponential base (50ms).
        assert sleeps[0] >= 2.0 * (1 - client.jitter_fraction / 2)
        assert sleeps[0] > client._backoff_s(1)

    def test_hinted_delay_is_deterministic(self):
        def run():
            sleeps = []
            client = make_client([shed_error(), shed_error(),
                                  {"ok": True}], sleeps=sleeps)
            client._request("POST", "/v1/select", {})
            return sleeps

        assert run() == run()

    def test_backoff_without_hint_is_unchanged(self):
        sleeps = []
        client = make_client(
            [ServiceUnavailableError("draining", attempts=1),
             {"ok": True}], sleeps=sleeps)
        client._request("POST", "/v1/select", {})
        assert sleeps == [client._backoff_s(1)]

    def test_large_backoff_still_wins_over_small_hint(self):
        sleeps = []
        client = make_client([shed_error(0.001), {"ok": True}],
                             sleeps=sleeps, backoff_base_s=1.0)
        client._request("POST", "/v1/select", {})
        assert sleeps[0] >= 1.0 * (1 - client.jitter_fraction / 2)


class TestClientRetryBudget:
    def test_dry_budget_stops_retries(self):
        sleeps = []
        client = make_client([shed_error()] * 3, sleeps=sleeps,
                             max_attempts=3, retry_budget_ratio=0.1,
                             retry_budget_initial=1.0)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client._request("POST", "/v1/select", {})
        # initial=1 token: first retry granted, second refused.
        assert client._calls["n"] == 2
        assert excinfo.value.attempts == 2
        assert "retry budget exhausted" in str(excinfo.value)
        assert len(sleeps) == 1

    def test_healthy_traffic_replenishes_budget(self):
        client = make_client([{"ok": True}] * 20 + [shed_error(),
                                                    {"ok": True}],
                             retry_budget_ratio=0.1,
                             retry_budget_initial=0.0)
        for _ in range(20):
            client._request("GET", "/healthz")
        # 20 deposits at 0.1 = 2 tokens: the retry is affordable.
        assert client._request("POST", "/v1/select", {}) == {"ok": True}

    def test_zero_ratio_disables_the_budget(self):
        client = make_client([shed_error(), {"ok": True}],
                             retry_budget_ratio=0.0)
        assert client.retry_tokens is None
        assert client._request("POST", "/v1/select", {}) == {"ok": True}


class TestRetryBudget:
    """Counterparts of the retired token-bucket unit tests, through the
    client: deposit per request, spend per retry, capped."""

    def test_spend_draws_down_initial_funding(self):
        sleeps = []
        client = make_client([ConnectionError("refused")] * 10,
                             sleeps=sleeps, max_attempts=10,
                             retry_budget_ratio=0.1,
                             retry_budget_initial=2.0)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client._request("POST", "/v1/select", {})
        # 2 + 0.1 deposited: two retries granted, the third refused.
        assert client._calls["n"] == 3
        assert len(sleeps) == 2
        assert "retry budget exhausted" in str(excinfo.value)
        assert client.retry_tokens == pytest.approx(0.1)

    def test_deposits_refund_the_bucket(self):
        client = make_client(
            [ConnectionError("refused"), shed_error(), {"ok": True}],
            retry_budget_ratio=0.5, retry_budget_initial=0.0)
        with pytest.raises(ServiceUnavailableError) as excinfo:
            client._request("POST", "/v1/select", {})
        assert "retry budget exhausted" in str(excinfo.value)
        # The second request's deposit makes one whole token.
        assert client._request("POST", "/v1/select", {}) == {"ok": True}
        assert client._calls["n"] == 3

    def test_cap_bounds_the_bucket(self):
        client = make_client([{"ok": True}] * 300,
                             retry_budget_ratio=1.0,
                             retry_budget_initial=0.0)
        for _ in range(300):
            client._request("GET", "/healthz")
        assert client.retry_tokens == RETRY_BUDGET_CAP
        assert make_client([], retry_budget_initial=1e9).retry_tokens \
            == RETRY_BUDGET_CAP

    def test_ratio_bounds_retry_fraction_under_outage(self):
        """1000 failing requests with ratio 0.1 get ~100 retries, not
        1000 * (max_attempts - 1)."""
        sleeps = []
        client = make_client([ConnectionError("refused")] * 2000,
                             sleeps=sleeps, max_attempts=2,
                             retry_budget_ratio=0.1,
                             retry_budget_initial=0.0,
                             breaker_failures=0)
        for _ in range(1000):
            with pytest.raises(ServiceUnavailableError):
                client._request("POST", "/v1/select", {})
        assert 90 <= len(sleeps) <= 110
        assert client._calls["n"] == 1000 + len(sleeps)

    def test_concurrent_requests_lose_no_token_update(self):
        """Eight threads share one bucket: every deposit and every spend
        lands, so the balance ends exactly where the arithmetic says."""
        local = threading.local()
        sleeps = []

        def fake_request_once(method, path, body=None):
            calls = getattr(local, "calls", 0)
            local.calls = calls + 1
            if calls % 5 == 0:  # every 4th request retries once
                raise ConnectionError("refused")
            return {"ok": True}

        client = PlannerClient(port=1, retry_budget_ratio=0.25,
                               retry_budget_initial=50.0,
                               sleep=sleeps.append)
        client._request_once = fake_request_once

        def worker():
            for _ in range(500):
                client._request("GET", "/healthz")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sleeps) == 8 * 125
        assert client.retry_tokens == 50.0 + 0.25 * 4000 - 1000
        assert client.breaker_state == PlannerClient.CLOSED

    def test_validation(self):
        with pytest.raises(ValidationError):
            PlannerClient(retry_budget_initial=-1.0)
        # A disabled budget ignores its funding.
        assert PlannerClient(retry_budget_ratio=0.0,
                             retry_budget_initial=-1.0).retry_tokens is None


class TestClientCircuitBreaker:
    def make_failing_client(self, cycles, clock, **overrides):
        """Each cycle = max_attempts transient failures (one request)."""
        defaults = dict(max_attempts=2, breaker_failures=2,
                        breaker_reset_s=10.0, clock=clock,
                        retry_budget_initial=100.0)
        defaults.update(overrides)
        return make_client([ConnectionError("refused")] * cycles * 2,
                           **defaults)

    def test_opens_after_consecutive_failed_cycles(self):
        clock = FakeClock()
        client = self.make_failing_client(2, clock)
        for _ in range(2):
            with pytest.raises(ServiceUnavailableError):
                client._request("POST", "/v1/select", {})
        with pytest.raises(CircuitOpenError) as excinfo:
            client._request("POST", "/v1/select", {})
        # The breaker fails locally: no further transport attempts.
        assert client._calls["n"] == 4
        assert excinfo.value.retry_after_s == pytest.approx(10.0)

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        client = make_client(
            [ConnectionError("refused")] * 4 + [{"ok": True}] * 2,
            max_attempts=2, breaker_failures=2, breaker_reset_s=10.0,
            clock=clock, retry_budget_initial=100.0)
        for _ in range(2):
            with pytest.raises(ServiceUnavailableError):
                client._request("POST", "/v1/select", {})
        clock.advance(10.0)
        assert client._request("POST", "/v1/select", {}) == {"ok": True}
        assert client.breaker_state == PlannerClient.CLOSED
        assert client._request("POST", "/v1/select", {}) == {"ok": True}

    def test_definitive_errors_count_as_service_alive(self):
        clock = FakeClock()
        client = make_client(
            [ValidationError("bad app")] * 5, max_attempts=2,
            breaker_failures=2, clock=clock)
        for _ in range(5):
            with pytest.raises(ValidationError):
                client._request("POST", "/v1/select", {})
        assert client.breaker_state == PlannerClient.CLOSED

    def test_zero_threshold_disables_the_breaker(self):
        client = make_client([ConnectionError("x")] * 10,
                             max_attempts=1, breaker_failures=0)
        assert client.breaker_state is None
        for _ in range(10):
            with pytest.raises(ServiceUnavailableError):
                client._request("POST", "/v1/select", {})

    def test_saturated_retry_path_still_surfaces_typed_original(self):
        """The pre-existing max_attempts=1 contract survives the new
        machinery: the typed 503 comes through, not a wrapper."""
        client = make_client(
            [ServiceSaturatedError("full", queue_depth=9,
                                   max_queue_depth=8)], max_attempts=1)
        with pytest.raises(ServiceSaturatedError):
            client._request("POST", "/v1/select", {})


def open_breaker(outcomes, clock, **overrides):
    """A single-attempt client over ``outcomes`` whose breaker opens
    after three failed cycles (the first three outcomes)."""
    defaults = dict(max_attempts=1, breaker_failures=3,
                    breaker_reset_s=10.0, clock=clock)
    defaults.update(overrides)
    client = make_client([ConnectionError("refused")] * 3 + list(outcomes),
                         **defaults)
    for _ in range(3):
        with pytest.raises(ServiceUnavailableError):
            client._request("POST", "/v1/select", {})
    return client


class TestCircuitBreaker:
    """Counterparts of the retired breaker unit tests, through the
    client: closed → open → half-open → (closed | open)."""

    def test_stays_closed_below_threshold(self):
        client = make_client([ConnectionError("refused")] * 2
                             + [{"ok": True}], max_attempts=1,
                             breaker_failures=3, clock=FakeClock())
        for _ in range(2):
            with pytest.raises(ServiceUnavailableError):
                client._request("POST", "/v1/select", {})
        assert client.breaker_state == PlannerClient.CLOSED
        assert client._request("POST", "/v1/select", {}) == {"ok": True}
        assert client._calls["n"] == 3

    def test_opens_at_threshold_and_refuses(self):
        client = open_breaker([], FakeClock())
        assert client.breaker_state == PlannerClient.OPEN
        with pytest.raises(CircuitOpenError) as excinfo:
            client._request("POST", "/v1/select", {})
        assert excinfo.value.retry_after_s == pytest.approx(10.0)
        assert excinfo.value.attempts == 0
        assert client._calls["n"] == 3

    def test_success_resets_the_consecutive_count(self):
        refused = ConnectionError("refused")
        client = make_client([refused, refused, {"ok": True}, refused,
                              refused], max_attempts=1,
                             breaker_failures=3, clock=FakeClock())
        for outcome_ok in (False, False, True, False, False):
            if outcome_ok:
                client._request("POST", "/v1/select", {})
            else:
                with pytest.raises(ServiceUnavailableError):
                    client._request("POST", "/v1/select", {})
        assert client.breaker_state == PlannerClient.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        seen = {}

        def probe():
            # While the probe is out, everyone else waits for its verdict.
            seen["state"] = client.breaker_state
            with pytest.raises(CircuitOpenError):
                client._request("POST", "/v1/select", {})
            return {"ok": True}

        client = open_breaker([probe], clock)
        clock.advance(10.0)
        assert client._request("POST", "/v1/select", {}) == {"ok": True}
        assert seen["state"] == PlannerClient.HALF_OPEN
        assert client._calls["n"] == 4  # the refused call never went out

    def test_probe_success_closes(self):
        clock = FakeClock()
        client = open_breaker([{"ok": True}] * 2, clock)
        clock.advance(10.0)
        assert client._request("POST", "/v1/select", {}) == {"ok": True}
        assert client.breaker_state == PlannerClient.CLOSED
        assert client._request("POST", "/v1/select", {}) == {"ok": True}

    def test_probe_failure_reopens_for_a_fresh_timeout(self):
        clock = FakeClock()
        client = open_breaker([ConnectionError("still down"),
                               {"ok": True}], clock)
        clock.advance(10.0)
        with pytest.raises(ServiceUnavailableError):
            client._request("POST", "/v1/select", {})
        assert client.breaker_state == PlannerClient.OPEN
        clock.advance(5.0)
        with pytest.raises(CircuitOpenError):  # timeout restarted
            client._request("POST", "/v1/select", {})
        clock.advance(5.0)
        assert client._request("POST", "/v1/select", {}) == {"ok": True}

    def test_unclassified_probe_exception_cannot_wedge_half_open(self):
        """An exception the policy does not classify still reaches the
        caller and still scores the probe as failed."""
        clock = FakeClock()
        client = make_client([ConnectionError("refused"),
                              RuntimeError("bug in transport"),
                              {"ok": True}], max_attempts=1,
                             breaker_failures=1, breaker_reset_s=10.0,
                             clock=clock)
        with pytest.raises(ServiceUnavailableError):
            client._request("POST", "/v1/select", {})
        clock.advance(10.5)
        with pytest.raises(RuntimeError):
            client._request("POST", "/v1/select", {})
        assert client.breaker_state == PlannerClient.OPEN
        clock.advance(10.5)
        assert client._request("POST", "/v1/select", {}) == {"ok": True}
        assert client._calls["n"] == 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            PlannerClient(breaker_reset_s=0.0)
        # A disabled breaker ignores its timeout.
        assert PlannerClient(breaker_failures=0,
                             breaker_reset_s=0.0).breaker_state is None


# -- malformed replies over real sockets ---------------------------------------

@contextmanager
def stub_server(status, body, headers=()):
    """A stdlib HTTP server answering every request with one reply."""

    class Handler(BaseHTTPRequestHandler):
        def _reply(self):
            length = int(self.headers.get("Content-Length") or 0)
            self.rfile.read(length)
            self.send_response(status)
            for name, value in headers:
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        do_GET = do_POST = _reply

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


HTML_502 = b"<html><body><h1>502 Bad Gateway</h1></body></html>"


class TestMalformedReplies:
    def test_html_502_retries_then_raises_typed_error(self):
        sleeps = []
        with stub_server(502, HTML_502,
                         [("Content-Type", "text/html")]) as port:
            client = PlannerClient(port=port, max_attempts=3,
                                   sleep=sleeps.append)
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.health()
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, json.JSONDecodeError)
        assert len(sleeps) == 2

    def test_non_json_reply_scores_the_breaker(self):
        with stub_server(502, HTML_502) as port:
            client = PlannerClient(port=port, max_attempts=1,
                                   breaker_failures=1)
            with pytest.raises(ServiceUnavailableError):
                client.health()
            assert client.breaker_state == PlannerClient.OPEN
            with pytest.raises(CircuitOpenError):
                client.health()

    @pytest.mark.parametrize("envelope", [{"error": "boom"},
                                          {"error": ["boom"]},
                                          {"error": {"code": ["x"]}}])
    def test_malformed_error_envelope_is_a_failed_attempt(self, envelope):
        with stub_server(500, json.dumps(envelope).encode()) as port:
            client = PlannerClient(port=port, max_attempts=2,
                                   sleep=lambda s: None)
            with pytest.raises(ServiceUnavailableError) as excinfo:
                client.health()
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("hint", ["inf", "nan", "-1", "1e12", "3600",
                                      "soon"])
    def test_retry_after_header_sleeps_stay_bounded(self, hint):
        sleeps = []
        body = json.dumps({"error": {"code": "overloaded",
                                     "message": "shed"}}).encode()
        with stub_server(503, body, [("Retry-After", hint)]) as port:
            client = PlannerClient(port=port, max_attempts=3,
                                   sleep=sleeps.append)
            with pytest.raises(ReproError) as excinfo:
                client.health()
        assert type(excinfo.value) is ServiceUnavailableError
        assert isinstance(excinfo.value.__cause__, FleetOverloadedError)
        bound = client.backoff_cap_s * (1 + client.jitter_fraction / 2)
        assert len(sleeps) == 2
        assert all(math.isfinite(s) and 0 <= s <= bound for s in sleeps)


# -- the policy as a whole ------------------------------------------------------

OUTCOMES = {
    "transient": lambda: ConnectionError("refused"),
    "shed": lambda: shed_error(1.0),
    "shed-hostile": lambda: shed_error(math.inf),
    "worker_lost": lambda: WorkerLostError("w0 died"),
    "definitive": lambda: ValidationError("bad app"),
    "crash": lambda: RuntimeError("unclassified"),
    "success": lambda: {"ok": True},
}

REQUESTS = st.lists(
    st.tuples(st.lists(st.sampled_from(sorted(OUTCOMES)), min_size=6,
                       max_size=6),
              st.booleans(),
              st.sampled_from([0.0, 0.5, 3.0, 6.0])),
    min_size=1, max_size=25)


@settings(settings.get_profile("ci"), max_examples=150)
@given(requests=REQUESTS)
def test_policy_invariants_over_scripted_outcomes(requests):
    """Whatever the service answers, one request makes at most
    ``max_attempts`` transport calls (plus one after a ``worker_lost``),
    sleeps exactly once per budgeted retry, keeps the bucket in
    [0, cap], and never leaves the breaker stuck half-open."""
    clock = FakeClock()
    sleeps = []
    client = PlannerClient(port=1, max_attempts=4, breaker_failures=2,
                           breaker_reset_s=5.0, retry_budget_ratio=0.5,
                           retry_budget_initial=2.0, clock=clock,
                           sleep=sleeps.append)
    for names, idempotent, advance in requests:
        clock.advance(advance)
        script = [OUTCOMES[name]() for name in names]
        calls = []

        def fake_request_once(method, path, body=None):
            calls.append(names[len(calls)])
            outcome = script[len(calls) - 1]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client._request_once = fake_request_once
        tokens_before = client.retry_tokens
        slept_before = len(sleeps)
        try:
            client._request("POST", "/v1/select", {},
                            idempotent=idempotent)
        except CircuitOpenError as exc:
            assert calls == []
            assert 0.0 <= exc.retry_after_s <= 5.0
            assert client.retry_tokens == tokens_before
            continue
        except (ReproError, RuntimeError):
            pass
        replayed = idempotent and "worker_lost" in calls[:-1]
        limit = client.max_attempts if idempotent else 1
        assert len(calls) <= limit + replayed
        slept = len(sleeps) - slept_before
        assert len(calls) == 1 + slept + replayed
        # 2 + 0.5 * 25 tokens at most: the cap never clips a deposit.
        assert slept == round(tokens_before + client.retry_budget_ratio
                              - client.retry_tokens)
        assert 0.0 <= client.retry_tokens <= RETRY_BUDGET_CAP
        assert client.breaker_state != PlannerClient.HALF_OPEN
        assert all(math.isfinite(s) and 0.0 <= s for s in sleeps)

    clock.advance(5.0)
    client._request_once = lambda method, path, body=None: {"ok": True}
    assert client._request("GET", "/healthz") == {"ok": True}
    assert client.breaker_state == PlannerClient.CLOSED
