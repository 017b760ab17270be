"""One planner shard: a :class:`PlannerService` answering framed requests.

Each shard owns the warm state for the warm-key shard the router
assigns it.  A fleet worker process answers framed requests (see
:mod:`repro.fleet.rpc`) over a Unix-domain socket; ``celia serve`` runs
one shard in the front end's own process and calls it directly.  Both
answer through :meth:`ShardWorker.answer`, and planning requests flow
through :func:`repro.service.server.dispatch`, so a select is
byte-identical whichever way it was served.  A planning answer arrives
as an :class:`~repro.service.planner.Envelope` whose result the service
encoded once, when it produced it (a select from per-frontier-point
fragments); the worker writes the envelope's bytes around that text and
never runs ``json.dumps`` over a result.

Beyond the planning kinds the worker answers control frames:

* ``__ping__``    — liveness (the router's readiness probe);
* ``__health__``  — worker id, pid and warm signatures;
* ``__metrics__`` — the worker's service registry (merged with its
  process-global one in a worker process), for the front end's
  ``/metrics`` merge;
* ``__warm__``    — build one signature's state.

Repeated planning requests ride a second-level memo: once the service
answers a request from its result cache the worker remembers the
response bytes (LRU, same capacity as the result cache) and replays the
frame without decoding the request or dispatching it — with the shard
router pinning each warm key to one worker, a shard's repeat traffic is
a dict lookup.

Warm state is bounded: ``--max-warm`` forwards to
``ServiceConfig.max_warm_states``, so an unbounded tenant population
evicts least-recently-used shard state instead of exhausting RAM.  The
service keeps each signature's measurements past the eviction, so a
rebuild is only the structured index (about 2 ms, in an executor
thread), with no measurement, sweep or snapshot read.  Select batches
run on the worker's event loop itself.

Run as ``python -m repro.fleet.worker --socket PATH --worker-id w0 ...``
(normally by :class:`repro.fleet.supervisor.PlannerFleet`, not by hand).
SIGTERM drains: in-flight frames finish, then the process exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from collections import OrderedDict

from repro.fleet.rpc import encode_reply_frame
from repro.obs.metrics import global_registry, merge_snapshots
from repro.service.planner import Envelope, PlannerService, ServiceConfig
from repro.service.server import dispatch

__all__ = ["ShardWorker", "build_service", "main"]


class _ReplyStream:
    """Coalesces reply frames written within one event-loop tick.

    Concurrent frames on a connection resolve independently; queuing
    their replies and flushing once per tick turns N ``send`` syscalls
    into one.  Worst-case buffering is bounded by the in-flight window
    (the front end's admission control), so no drain is needed here.
    """

    def __init__(self, writer: asyncio.StreamWriter):
        self._writer = writer
        self._out: list[bytes] = []
        self._scheduled = False

    def send(self, data: bytes) -> None:
        self._out.append(data)
        if not self._scheduled:
            self._scheduled = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        self._scheduled = False
        data = b"".join(self._out)
        self._out.clear()
        if not data:
            return
        try:
            self._writer.write(data)
        except (ConnectionError, OSError, RuntimeError):
            pass  # link died mid-reply; the router re-routes


class ShardWorker:
    """Answers framed requests for one :class:`PlannerService`.

    With a ``socket_path`` the frames arrive over a Unix-domain socket
    (a fleet worker process, :func:`main`); without one the worker is
    the in-process shard behind ``celia serve``, called directly by
    :class:`repro.fleet.supervisor.LocalLink`.  Both transports answer
    through :meth:`answer`.
    """

    def __init__(self, service: PlannerService, *, worker_id: str,
                 socket_path: "str | None" = None):
        self.service = service
        self.worker_id = worker_id
        self.socket_path = socket_path
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        # Response-bytes memo for the raw-byte hot path: once the
        # service answers a planning request from its result cache
        # (``"cached": true``) the response bytes are stable for every
        # repeat, so the worker can skip the request decode, the
        # dispatch and the envelope build and replay the frame verbatim.
        # Keyed by the request payload bytes and LRU-bounded by the same
        # ``result_cache_size`` as the service cache it shadows.
        self._raw_responses: OrderedDict[tuple[str, bytes], bytes] = \
            OrderedDict()
        self._raw_hits = service.metrics.counter("raw_response_hits")
        self._draining = False
        # Injected per-frame latency (chaos ``slow`` fault); set via the
        # ``__chaos__`` control frame, 0 in normal operation.
        self._slow_s = 0.0

    async def start(self) -> None:
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path)

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, *, drain_timeout_s: float = 10.0) -> None:
        """Stop accepting frames, let in-flight ones finish, close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._tasks:
            await asyncio.wait(self._tasks, timeout=drain_timeout_s)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        replies = _ReplyStream(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                header = json.loads(line)
                kind = header.get("kind", "")
                length = header.get("len", 0)
                payload = await reader.readexactly(length) if length else b""
                # Serve raw-memo hits inline: no task spawn, no dispatch,
                # no re-encode — the repeat path is a dict lookup.
                raw = self._memo_hit(kind, payload)
                if raw is not None:
                    replies.send(encode_reply_frame(header["id"], 200, raw))
                    continue
                task = asyncio.ensure_future(
                    self._reply(header["id"], kind, payload, replies))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionError, OSError, ValueError, KeyError,
                asyncio.IncompleteReadError):
            pass  # router went away; the supervisor decides what's next
        except asyncio.CancelledError:
            # Only swallow cancellation during drain (loop teardown on
            # shutdown).  Mid-operation cancellation must propagate, or
            # the caller's cancel silently drops an in-flight reply and
            # leaves the task looking finished.
            if not self._draining:
                raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _reply(self, frame_id: int, kind: str, payload: bytes,
                     replies: _ReplyStream) -> None:
        status, raw = await self.answer(kind, payload)
        replies.send(encode_reply_frame(frame_id, status, raw))

    def _memo_hit(self, kind: str, payload: bytes) -> "bytes | None":
        """Serialized-response memo hit for a planning frame, or None."""
        if kind.startswith("__") or self._slow_s > 0:
            return None  # control frame, or an injected-slow shard
        raw = self._raw_responses.get((kind, payload))
        if raw is not None:
            self._raw_responses.move_to_end((kind, payload))
            self._raw_hits.increment()
        return raw

    async def answer(self, kind: str, payload: bytes) -> tuple[int, bytes]:
        """One frame's ``(status, response bytes)``.

        ``payload`` is the request JSON as raw bytes and the reply bytes
        go out verbatim, so a front end forwarding them never re-encodes
        a response.  Cached planning answers are memoized as bytes.
        """
        raw = self._memo_hit(kind, payload)
        if raw is not None:
            return 200, raw
        try:
            if self._slow_s > 0 and not kind.startswith("__"):
                await asyncio.sleep(self._slow_s)
            request = json.loads(payload) if payload else {}
            if not isinstance(request, dict):
                raise ValueError("request payload must be a JSON object")
            request["kind"] = kind
            status, body = await self._dispatch(request)
        except Exception as exc:  # never kill the worker on one frame
            status, body = 500, {"error": {"code": "internal",
                                           "message": str(exc)}}
        if not isinstance(body, Envelope):
            # Control answers and error envelopes: small dicts, encoded
            # with default (spaced) separators like every envelope.
            return status, json.dumps(body).encode("utf-8")
        raw = body.to_bytes()
        limit = self.service.config.result_cache_size
        if body.cached and limit > 0:
            self._raw_responses[(kind, payload)] = raw
            while len(self._raw_responses) > limit:
                self._raw_responses.popitem(last=False)
        return status, raw

    async def _dispatch(self, request: dict
                        ) -> "tuple[int, Envelope | dict]":
        kind = request.get("kind")
        if kind == "__ping__":
            return 200, {"ok": True, "worker": self.worker_id}
        if kind == "__health__":
            return 200, {
                "worker": self.worker_id,
                "warm_signatures": [
                    {"app": s.app, "quota": s.quota, "seed": s.seed}
                    for s in self.service.warm_signatures],
            }
        if kind == "__chaos__":
            self._slow_s = max(0.0, float(request.get("slow_s", 0.0)))
            return 200, {"worker": self.worker_id, "slow_s": self._slow_s}
        if kind == "__metrics__":
            service = self.service.metrics.snapshot()
            if self.socket_path is None:
                # In-process: the front end already reports this
                # process's global registry, unlabelled and once.
                return 200, service
            return 200, merge_snapshots(global_registry().snapshot(),
                                        service)
        if kind == "__warm__":
            signature = await self.service.warm(
                request["app"], quota=request.get("quota"),
                seed=request.get("seed"))
            return 200, {"worker": self.worker_id, "app": signature.app,
                         "quota": signature.quota, "seed": signature.seed}
        return await dispatch(self.service, request)


def build_service(args: argparse.Namespace) -> PlannerService:
    config = ServiceConfig(
        max_queue_depth=args.max_queue,
        max_batch=args.max_batch,
        default_timeout_s=args.timeout,
        default_quota=args.quota,
        default_seed=args.seed,
        max_warm_states=args.max_warm,
        workers=args.sweep_workers,
        cache_dir=False if args.no_cache else args.cache_dir,
    )
    return PlannerService(config=config)


def _parse_sweep_workers(raw: str) -> "int | str":
    if raw == "auto":
        return "auto"
    try:
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--sweep-workers must be an integer or 'auto', got {raw!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.fleet.worker",
        description="One planner-fleet shard worker (spawned by "
                    "`celia fleet serve`).")
    parser.add_argument("--socket", required=True,
                        help="Unix-domain socket path to serve on")
    parser.add_argument("--worker-id", default="w0")
    parser.add_argument("--quota", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-warm", type=int, default=None,
                        help="LRU cap on warm signatures (default unbounded)")
    parser.add_argument("--max-queue", type=int, default=64)
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--sweep-workers", type=_parse_sweep_workers,
                        default=1,
                        help="space-sweep parallelism inside the shard "
                             "(default 1: the fleet is the parallelism)")
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--drain-timeout", type=float, default=10.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    async def _run() -> None:
        worker = ShardWorker(build_service(args), worker_id=args.worker_id,
                             socket_path=args.socket)
        await worker.start()
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, shutdown.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        print(f"fleet worker {args.worker_id} serving on {args.socket}",
              file=sys.stderr, flush=True)
        await shutdown.wait()
        await worker.stop(drain_timeout_s=args.drain_timeout)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive interrupt
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
