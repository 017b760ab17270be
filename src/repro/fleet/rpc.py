"""Framed RPC between the fleet front end and its shard workers.

One frame is a compact JSON header line followed by a raw payload of
``len`` bytes over a persistent Unix-domain stream::

    front end -> worker   {"id":7,"kind":"select","len":132}\n<132 bytes>
    worker -> front end   {"id":7,"status":200,"len":22913}\n<22913 bytes>

The payload is the request/response JSON **as raw bytes**: the front
end forwards the client's HTTP body without re-serializing it, and
streams the worker's response bytes straight into the HTTP response
without a decode/encode round trip.  Quota-5 select responses run to
10–23 KB (by frontier size); the worker writes them from text the
service encoded once (a select's from per-frontier-point fragments), so
no side of the hop runs a JSON pass over a response.

The link stays open for the worker's whole life, so a routed request
costs one write and one read — no per-request connection setup, no HTTP
re-parse on the hop.  Requests are dispatched concurrently on the worker
and responses may come back out of order; the ``id`` correlates them.

:class:`WorkerLink` is the front-end side: it multiplexes concurrent
calls over the stream and fails every pending call with
:class:`WorkerGone` the moment the stream drops (worker crash or
restart), which is the signal the router uses to re-route the shard.
"""

from __future__ import annotations

import asyncio
import json
import time

__all__ = ["WorkerGone", "WorkerLink", "encode_frame",
           "encode_reply_frame", "encode_request_frame"]


class WorkerGone(Exception):
    """The worker's stream dropped with this request un-answered."""

    def __init__(self, worker_id: str, detail: str = "stream closed"):
        super().__init__(f"worker {worker_id} lost: {detail}")
        self.worker_id = worker_id


def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Header line + raw payload.  ``len`` is derived, never passed."""
    header = {**header, "len": len(payload)}
    line = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return line + b"\n" + payload


def encode_request_frame(frame_id: int, kind: str, payload: bytes) -> bytes:
    """Hot-path :func:`encode_frame` for request headers.

    ``kind`` comes from the route table / control vocabulary (plain
    ASCII identifiers), so the header can be built with an f-string
    instead of ``json.dumps`` — worth ~25µs on every routed request.
    """
    return (f'{{"id":{frame_id},"kind":"{kind}","len":{len(payload)}}}\n'
            .encode("ascii") + payload)


def encode_reply_frame(frame_id: int, status: int, payload: bytes) -> bytes:
    """Hot-path :func:`encode_frame` for integer-keyed reply headers."""
    return (f'{{"id":{frame_id},"status":{status},"len":{len(payload)}}}\n'
            .encode("ascii") + payload)


class WorkerLink:
    """Persistent multiplexed connection to one shard worker."""

    def __init__(self, worker_id: str, socket_path: str):
        self.worker_id = worker_id
        self.socket_path = socket_path
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._read_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self.up = False
        #: Injected network faults (:class:`repro.fleet.chaos.LinkFaults`
        #: or None).  Consulted per call; chaos-only, never set in
        #: normal operation.
        self.faults = None
        # Outbound frames queued within one loop tick coalesce into a
        # single ``send`` syscall — at high concurrency that is one
        # write per batch of routed requests instead of one per request.
        self._out: list[bytes] = []
        self._flush_scheduled = False

    async def connect(self, *, timeout_s: float = 30.0,
                      poll_s: float = 0.05) -> None:
        """Connect (retrying until the socket exists) and start reading."""
        deadline = time.monotonic() + timeout_s
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                self._reader, self._writer = \
                    await asyncio.open_unix_connection(self.socket_path)
                break
            except (ConnectionError, FileNotFoundError, OSError) as exc:
                last_error = exc
                await asyncio.sleep(poll_s)
        else:
            raise WorkerGone(self.worker_id,
                             f"no socket after {timeout_s:g}s "
                             f"({last_error})") from last_error
        self.up = True
        self._read_task = asyncio.ensure_future(self._read_loop())
        # A ping proves the worker is actually serving, not just bound.
        await self.call({"kind": "__ping__"}, timeout_s=timeout_s)

    async def _read_loop(self) -> None:
        assert self._reader is not None
        detail = "stream closed"
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                header = json.loads(line)
                length = header.get("len", 0)
                payload = await self._reader.readexactly(length) if length \
                    else b""
                future = self._pending.pop(header["id"], None)
                if future is not None and not future.done():
                    future.set_result((header["status"], payload))
        except (ConnectionError, OSError, ValueError, KeyError,
                asyncio.IncompleteReadError) as exc:
            detail = f"read failed: {exc}"
        self.up = False
        error = WorkerGone(self.worker_id, detail)
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    async def call_raw(self, kind: str, payload: bytes = b"",
                       *, timeout_s: float | None = None
                       ) -> tuple[int, bytes]:
        """Send one frame; await ``(status, raw response bytes)``.

        The hot path: ``payload`` is the client's JSON body verbatim and
        the returned bytes go into the HTTP response verbatim — no JSON
        decode/encode on the front-end side of the hop.
        """
        if not self.up or self._writer is None:
            raise WorkerGone(self.worker_id, "link is down")
        faults = self.faults
        if faults is not None:
            if faults.delay_s > 0:
                await asyncio.sleep(faults.delay_s)
            if faults.drop():
                # The frame is never written.  With a deadline the
                # caller sees exactly what a lost frame looks like (no
                # reply until the timeout); without one, failing fast
                # beats awaiting a reply that can never arrive.
                if timeout_s is None:
                    raise WorkerGone(self.worker_id,
                                     "frame dropped (injected fault)")
                await asyncio.sleep(timeout_s)
                raise WorkerGone(self.worker_id,
                                 f"no reply in {timeout_s:g}s")
        self._next_id += 1
        frame_id = self._next_id
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[frame_id] = future
        self._out.append(encode_request_frame(frame_id, kind, payload))
        if not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._flush)
        try:
            if timeout_s is None:
                return await future
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            self._pending.pop(frame_id, None)
            raise WorkerGone(self.worker_id,
                             f"no reply in {timeout_s:g}s") from None

    def _flush(self) -> None:
        """Write every frame queued this tick in one transport write.

        A write failure just marks the link down; the read loop notices
        the broken stream immediately and fails all pending calls with
        :class:`WorkerGone`, which is the normal crash path.
        """
        self._flush_scheduled = False
        data = b"".join(self._out)
        self._out.clear()
        if not data or self._writer is None:
            return
        try:
            self._writer.write(data)
        except (ConnectionError, OSError):
            self.up = False

    async def call(self, request: dict,
                   *, timeout_s: float | None = None) -> tuple[int, dict]:
        """Structured convenience: dict in, ``(status, dict)`` out."""
        request = dict(request)
        kind = request.pop("kind", "")
        payload = json.dumps(request,
                             separators=(",", ":")).encode("utf-8") \
            if request else b""
        status, raw = await self.call_raw(kind, payload,
                                          timeout_s=timeout_s)
        return status, json.loads(raw) if raw else {}

    async def close(self) -> None:
        """Tear the link down; pending calls fail with :class:`WorkerGone`."""
        self.up = False
        self._out.clear()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, Exception):
                pass
            self._read_task = None
