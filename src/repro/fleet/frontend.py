"""The HTTP front end: keep-alive listener and shard router.

Both ``celia serve`` and ``celia fleet serve`` are this front end; they
differ only in the routing backend behind it.  ``celia fleet serve``
routes over N shard worker processes
(:class:`~repro.fleet.supervisor.PlannerFleet`), one framed write/read
per request on a persistent Unix-domain link (:mod:`repro.fleet.rpc`).
``celia serve`` routes over one in-process shard
(:class:`~repro.fleet.supervisor.LocalFleet`) called directly, with no
socket hop.  Connections are **keep-alive** (HTTP/1.1 pipelining of
sequential requests over one socket).

Routing is deterministic: the request's warm key ``(app, quota, seed)``
hashes onto the consistent ring (:mod:`repro.fleet.hashing`), so every
request for one tenant signature lands on the worker holding that
signature's warm state.  When a worker drops mid-request the router
retries **once** against the fallback owner — the worker the ring would
pick if the dead one left — and surfaces a typed ``worker_lost`` (503)
envelope if the retry fails too.

Routes:

* ``POST /v1/select`` / ``/v1/predict`` / ``/v1/plan`` / ``/v1/replan``
  — routed to the owning shard, whose answer bytes are forwarded
  verbatim; every shard answers through
  :func:`repro.service.server.dispatch_request`, so the bytes do not
  depend on the backend;
* ``GET  /healthz``     — liveness, readiness and per-worker link status;
* ``GET  /fleet``       — topology: workers, sockets, routing counts;
* ``GET  /fleet/timeline`` — the resilience audit trail;
* ``GET  /metrics``     — every worker's snapshot relabeled with
  ``{worker="..."}`` and merged with the router's own series and the
  process-global registry;
* ``GET  /metrics.txt`` — the same, as a flat text exposition;
* ``POST /fleet/restart`` — gracefully restart one worker
  (``{"worker": "w1"}``) and wait for it to rejoin.

Errors are typed JSON envelopes (``{"error": {"code": ..., "message":
...}}``): 400 for a malformed request, 404 for an unknown route, 405
for a known route under the wrong method, 413 for an oversized body,
503/429 (+ ``Retry-After``) when shedding or draining.

:func:`run_frontend` is the blocking entry point both commands share:
signals, warm-up, the ready callback and the graceful drain.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
import time
from collections import OrderedDict

from repro.errors import ValidationError
from repro.fleet.hashing import warm_key
from repro.fleet.rpc import WorkerGone
from repro.obs.metrics import (
    MetricsRegistry,
    global_registry,
    label_snapshot,
    merge_snapshots,
    render_text,
)

__all__ = ["FleetFrontend", "run_frontend"]

_MAX_HEAD_BYTES = 1 << 14
_MAX_BODY_BYTES = 1 << 20
_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            422: "Unprocessable Entity", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}

_POST_ROUTES = {"/v1/select": "select", "/v1/predict": "predict",
                "/v1/plan": "plan", "/v1/replan": "replan"}
_POST_PATHS = frozenset({*_POST_ROUTES, "/fleet/restart"})
_GET_PATHS = frozenset({"/healthz", "/fleet", "/fleet/timeline",
                        "/metrics", "/metrics.txt"})


def _error_body(code: str, message: str) -> dict:
    return {"error": {"code": code, "message": message}}


class FleetFrontend:
    """Keep-alive HTTP listener that routes requests to shard workers.

    ``fleet`` is the routing surface — a
    :class:`repro.fleet.supervisor.PlannerFleet` or the in-process
    :class:`repro.fleet.supervisor.LocalFleet` — and must provide:
    ``worker_ids``, ``default_quota``, ``default_seed``, ``down``,
    ``warmed_apps``, ``route(key, exclude=...)``, ``link(worker_id)``,
    ``note_lost(worker_id)``, ``restart_worker(worker_id)`` and
    ``describe()`` (plus ``start``/``stop``/``warm`` for
    :func:`run_frontend`).
    """

    def __init__(self, fleet, *, host: str = "127.0.0.1", port: int = 0,
                 call_timeout_s: "float | None" = None,
                 max_inflight: "int | None" = None,
                 max_total_inflight: "int | None" = None,
                 shed_retry_after_s: float = 1.0,
                 expected_warm: tuple = ()):
        self.fleet = fleet
        self.host = host
        self.port = port  # 0 → ephemeral; replaced by the bound port
        #: ``None`` (the default) trusts the worker's own request
        #: timeout (``ServiceConfig.default_timeout_s`` → 504) and the
        #: link's crash detection (:class:`WorkerGone`); a float adds a
        #: per-call ``wait_for`` on top, which costs ~60µs per request.
        #: It is also the hung-worker backstop: a SIGSTOPped worker
        #: holds the frame forever, and only this deadline turns that
        #: into a :class:`WorkerGone` reroute.
        self.call_timeout_s = call_timeout_s
        #: Per-worker in-flight cap.  A worker already serving this many
        #: routed calls sheds further ones with a typed 503
        #: ``overloaded`` envelope + ``Retry-After`` instead of queueing
        #: without bound behind a slow shard.
        self.max_inflight = max_inflight
        #: Fleet-wide cap across all routed calls; beyond it requests
        #: get a typed 429 ``too_many_requests``.
        self.max_total_inflight = max_total_inflight
        self.shed_retry_after_s = shed_retry_after_s
        #: Apps that must be warmed before ``/healthz`` reports ready.
        self.expected_warm = tuple(expected_warm)
        self.metrics = MetricsRegistry()
        self._server: asyncio.AbstractServer | None = None
        self._in_flight = 0
        self._worker_inflight: dict = {}
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()
        self._conn_tasks: set = set()
        # Raw body bytes → warm key, so repeat planning requests skip
        # the JSON parse entirely (routing is the only reason the front
        # end ever looks inside a body).  Small bodies only, LRU-bounded.
        self._route_keys: "OrderedDict[bytes, str]" = OrderedDict()
        # Hot-path metric objects, resolved once — each registry lookup
        # costs a lock and a label format, too much at thousands of rps.
        self._requests_total = self.metrics.counter("fleet_requests_total")
        self._shed_total = self.metrics.counter("fleet_shed_total")
        self._request_latency = \
            self.metrics.histogram("fleet_request_latency_s")
        self._routed_counters: dict = {}
        # Head-block parse memo: keep-alive clients repeat the same few
        # header blocks verbatim, so parsing each distinct block once
        # covers virtually all requests.
        self._head_cache: dict = {}

    @property
    def in_flight(self) -> int:
        """Requests currently being served."""
        return self._in_flight

    @property
    def draining(self) -> bool:
        """True once graceful shutdown has begun."""
        return self._draining

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_HEAD_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, *, timeout_s: float = 10.0) -> bool:
        """Refuse new work, finish in-flight requests, close connections.

        Returns True when every in-flight request finished inside the
        timeout.  Either way the surviving connection tasks — idle
        keep-alive readers and, on timeout, requests hung behind a dead
        shard — are cancelled, so drain always leaves the front end
        fully quiesced instead of leaking tasks that outlive it.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        completed = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout_s)
        except asyncio.TimeoutError:
            completed = False
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        return completed

    # -- connection handling ---------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - non-TCP transport
            pass
        try:
            while True:
                keep_alive = await self._serve_one(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, OSError):
            pass  # client went away mid-stream
        except asyncio.CancelledError:
            # drain() cancels connection tasks once in-flight work is
            # done (or timed out); any other cancellation propagates.
            if not self._draining:
                raise
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_one(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        """Serve one request on the connection; True to keep it open."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return False  # clean EOF between requests
        except asyncio.LimitOverrunError:
            await self._write_response(
                writer, 400,
                _error_body("invalid_request",
                            f"header block over {_MAX_HEAD_BYTES} bytes"),
                keep_alive=False)
            return False

        parsed = self._head_cache.get(head)
        if parsed is None:
            parsed = self._parse_head(head)
            if parsed[4] is None and len(head) <= 1024:
                if len(self._head_cache) >= 256:
                    self._head_cache.clear()
                self._head_cache[head] = parsed
        method, path, want_keep_alive, content_length, parse_error = parsed
        if parse_error is not None:
            await self._write_response(writer, 400,
                                       _error_body("invalid_request",
                                                   parse_error),
                                       keep_alive=False)
            return False
        if content_length > _MAX_BODY_BYTES:
            await self._write_response(
                writer, 413,
                _error_body("payload_too_large",
                            f"body over {_MAX_BODY_BYTES} bytes"),
                keep_alive=False)
            return False
        try:
            raw = await reader.readexactly(content_length) \
                if content_length else b""
        except asyncio.IncompleteReadError:
            return False  # body cut short by EOF: nobody to answer

        self._in_flight += 1
        self._idle.clear()
        started = time.monotonic()
        try:
            try:
                status, body = await self._handle_request(method, path, raw)
            except Exception as exc:  # last-resort: never kill the router
                status, body = 500, _error_body("internal", str(exc))
            self._requests_total.increment()
            self._request_latency.observe(time.monotonic() - started)
            keep = want_keep_alive and not self._draining
            await self._write_response(writer, status, body, keep_alive=keep)
            return keep
        finally:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()

    @staticmethod
    def _parse_head(head: bytes
                    ) -> "tuple[str, str, bool, int, str | None]":
        """``(method, path, keep_alive, content_length, error)``."""
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3:
            return "", "", False, 0, f"malformed request line {lines[0]!r}"
        method, path, version = parts
        keep_alive = not version.endswith("/1.0")
        content_length = 0
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    return method, path, keep_alive, 0, "bad Content-Length"
            elif name == "connection":
                token = value.strip().lower()
                if token == "close":
                    keep_alive = False
                elif token == "keep-alive":
                    keep_alive = True
        return method, path, keep_alive, content_length, None

    async def _write_response(self, writer: asyncio.StreamWriter, status: int,
                              body, *, keep_alive: bool) -> None:
        if isinstance(body, str):  # text exposition (/metrics.txt)
            content_type = "text/plain; charset=utf-8"
            payload = body.encode("utf-8")
        elif isinstance(body, bytes):  # worker response, forwarded verbatim
            content_type = "application/json"
            payload = body
        else:
            content_type = "application/json"
            payload = json.dumps(body).encode("utf-8")
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                + (f"Retry-After: {self.shed_retry_after_s:g}\r\n"
                   if status in (503, 429) else "")
                + ("Connection: keep-alive\r\n" if keep_alive
                   else "Connection: close\r\n")
                + "\r\n").encode("ascii")
        writer.write(head + payload)
        # drain() is a no-op below the transport's high-water mark but
        # still costs a coroutine round trip; only pay it when the
        # buffer actually backed up (a slow-reading client).
        if writer.transport.get_write_buffer_size() > (1 << 16):
            await writer.drain()

    # -- request handling ------------------------------------------------------

    async def _handle_request(self, method: str, path: str,
                              raw: bytes) -> tuple[int, dict]:
        if method == "GET":
            if path == "/healthz":
                return 200, await self._healthz()
            if path == "/fleet":
                return 200, self.fleet.describe()
            if path == "/fleet/timeline":
                return 200, self._timeline_view()
            if path == "/metrics":
                return 200, await self._metrics_snapshot()
            if path == "/metrics.txt":
                return 200, render_text(await self._metrics_snapshot())
        if method != "POST" or path in _GET_PATHS:
            if path in _GET_PATHS or path in _POST_PATHS:
                return 405, _error_body(
                    "method_not_allowed", f"{method} {path} not supported")
            return 404, _error_body("not_found", f"no route {path!r}")
        if self._draining:
            return 503, _error_body(
                "draining", "fleet is shutting down; retry elsewhere")
        if self.max_total_inflight is not None \
                and self._in_flight > self.max_total_inflight:
            self._shed_total.increment()
            return 429, self._shed_body(
                "too_many_requests",
                f"fleet at in-flight cap {self.max_total_inflight}")

        kind = _POST_ROUTES.get(path)
        if kind is not None:
            key = self._route_keys.get(raw)
            if key is not None:
                self._route_keys.move_to_end(raw)
                return await self._route_request(kind, key, raw)

        try:
            request = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return 400, _error_body("invalid_request", f"bad JSON: {exc}")
        if not isinstance(request, dict):
            return 400, _error_body("invalid_request",
                                    "body must be a JSON object")

        if path == "/fleet/restart":
            return await self._restart(request)
        if kind is None:
            return 404, _error_body("not_found", f"no route {path!r}")
        key = warm_key(str(request.get("app", "")),
                       request.get("quota", self.fleet.default_quota),
                       request.get("seed", self.fleet.default_seed))
        if len(raw) <= 4096:  # memo small bodies only
            self._route_keys[raw] = key
            while len(self._route_keys) > 1024:
                self._route_keys.popitem(last=False)
        return await self._route_request(kind, key, raw)

    async def _healthz(self) -> dict:
        links = {wid: self.fleet.link(wid).up for wid in self.fleet.worker_ids}
        ejected = sorted(self.fleet.down)
        warm_ok = set(self.expected_warm) <= set(self.fleet.warmed_apps)
        return {
            "status": "draining" if self._draining else "ok",
            "ready": not self._draining and all(links.values())
            and not ejected and warm_ok,
            "draining": self._draining,
            "in_flight": self._in_flight,
            "workers": links,
            "ejected": ejected,
            "expected_warm": list(self.expected_warm),
            "warm_ok": warm_ok,
        }

    def _timeline_view(self) -> dict:
        """``GET /fleet/timeline``: the resilience audit trail."""
        timeline = getattr(self.fleet, "timeline", None)
        if timeline is None:
            return {"events": [], "normalized": {}}
        return {
            "events": timeline.to_dicts(),
            "normalized": {worker: list(kinds) for worker, kinds
                           in sorted(timeline.normalized().items())},
        }

    def _shed_body(self, code: str, message: str) -> dict:
        """Typed shed envelope; the hint rides in body and header both."""
        body = _error_body(code, message)
        body["error"]["retry_after_s"] = self.shed_retry_after_s
        return body

    async def _metrics_snapshot(self) -> dict:
        """Router series + every worker's snapshot tagged ``{worker=…}``."""
        per_worker: list[dict] = []
        for wid in self.fleet.worker_ids:
            try:
                status, body = await self.fleet.link(wid).call(
                    {"kind": "__metrics__"}, timeout_s=self.call_timeout_s)
            except WorkerGone:
                self.metrics.counter("fleet_scrape_errors_total").increment()
                continue
            if status == 200:
                per_worker.append(label_snapshot(body, {"worker": wid}))
        return merge_snapshots(global_registry().snapshot(),
                               self.metrics.snapshot(), *per_worker)

    async def _restart(self, request: dict) -> tuple[int, dict]:
        worker = request.get("worker")
        if worker not in self.fleet.worker_ids:
            return 404, _error_body("not_found",
                                    f"no worker {worker!r} in the fleet")
        try:
            await self.fleet.restart_worker(worker)
        except ValidationError as exc:
            return 400, _error_body("invalid_request", str(exc))
        return 200, {"restarted": worker}

    async def _route_request(self, kind: str, key: str,
                             raw: bytes) -> tuple[int, bytes]:
        """Route by warm key; forward ``raw`` body bytes verbatim.

        The body is parsed (at most once per distinct body — see
        ``_route_keys``) only to derive the warm key; the payload
        crossing the worker hop (and the response bytes coming back
        into the HTTP reply) never re-serialize.

        At most two owners are tried: if the first one's link drops
        (:class:`WorkerGone`), the request is rerouted once to the
        fallback owner with the lost worker excluded.
        """
        lost: WorkerGone | None = None
        excluded = frozenset()
        while True:
            try:
                worker = self.fleet.route(key, exclude=excluded)
            except ValidationError as exc:
                self.metrics.counter("fleet_worker_lost_total").increment()
                message = str(exc) if lost is None else f"{lost}; {exc}"
                return 503, _error_body("worker_lost", message)
            shed = self._shed_check(worker)
            if shed is not None:
                return shed
            counts = self._worker_inflight
            counts[worker] = counts.get(worker, 0) + 1
            try:
                status, body = await self.fleet.link(worker).call_raw(
                    kind, raw, timeout_s=self.call_timeout_s)
            except WorkerGone as exc:
                self.fleet.note_lost(exc.worker_id)
                if lost is not None:
                    self.metrics.counter(
                        "fleet_worker_lost_total").increment()
                    return 503, _error_body(
                        "worker_lost", f"{lost} and fallback failed: {exc}")
                lost, excluded = exc, {exc.worker_id}
                self.metrics.counter("fleet_reroutes_total").increment()
                continue
            finally:
                counts[worker] -= 1
            self._routed(worker).increment()
            return status, body

    def _shed_check(self, worker: str) -> "tuple[int, dict] | None":
        """Deterministic load shedding at the per-worker in-flight cap.

        Shedding at admission (rather than queueing) keeps a slow or
        stalling shard from absorbing the whole front end's concurrency
        budget: the 503 + ``Retry-After`` pushes the wait onto clients,
        whose retry backoff spreads the load in time.
        """
        limit = self.max_inflight
        if limit is None \
                or self._worker_inflight.get(worker, 0) < limit:
            return None
        self._shed_total.increment()
        return 503, self._shed_body(
            "overloaded", f"worker {worker} at in-flight cap {limit}")

    def _routed(self, worker: str):
        counter = self._routed_counters.get(worker)
        if counter is None:
            counter = self.metrics.counter("fleet_routed",
                                           labels={"worker": worker})
            self._routed_counters[worker] = counter
        return counter


def run_frontend(frontend: FleetFrontend, *, ready_callback=None,
                 drain_timeout_s: float = 10.0, background=None) -> None:
    """Blocking entry point of ``celia serve`` and ``celia fleet serve``.

    Starts the routing backend (``frontend.fleet``) and the listener,
    warms ``frontend.expected_warm`` on their owning shards (so
    ``/healthz`` reports unready until they are warm), calls
    ``ready_callback(frontend)``, then serves until SIGTERM/SIGINT.  The
    signal drains the front end — stop accepting, give in-flight
    requests up to ``drain_timeout_s``, cut off whatever still runs —
    before the backend stops.

    ``background`` is a coroutine factory started once the warm-up is
    done (``celia fleet serve --chaos`` runs its fault injector there).
    """

    async def _run() -> None:
        fleet = frontend.fleet
        await fleet.start()
        loop = asyncio.get_running_loop()
        installed: list = []
        tasks: list = []
        try:
            await frontend.start()
            shutdown = asyncio.Event()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, shutdown.set)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass  # platform without signal support
            for app in frontend.expected_warm:
                await fleet.warm(app)
            if background is not None:
                tasks.append(asyncio.create_task(background()))
            if ready_callback is not None:
                ready_callback(frontend)
            tasks.append(asyncio.create_task(frontend.serve_forever()))
            await shutdown.wait()
            if not await frontend.drain(timeout_s=drain_timeout_s):
                print(f"drain timeout ({drain_timeout_s:g}s) expired; "
                      f"closing hung connections", file=sys.stderr,
                      flush=True)
        finally:
            for task in tasks:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
            for sig in installed:
                loop.remove_signal_handler(sig)
            await fleet.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        pass
