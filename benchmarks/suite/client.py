"""Open-loop and closed-loop HTTP/1.1 load client for the benchmark suite.

One process, one thread (an asyncio event loop) and at most
``connections`` keep-alive sockets.  The open loop sends every request
at its due time whatever the server is doing: a request that finds
every connection busy waits in the client's queue, and that wait is
part of its latency, because latency is measured from the due time,
not from the moment the bytes left.  A closed loop that only sends
after the previous reply would instead slow down with the server and
hide a stall (coordinated omission).

Each open-loop request records three times, all in milliseconds:

* ``lag_ms``     — how late the generator itself fired (scheduler lag);
* ``queue_ms``   — how long it then waited for a free connection;
* ``latency_ms`` — completion minus due time (``inf`` when it failed).

A request that times out, or gets any status other than 200, counts as
a failure; a timed-out connection is closed and replaced.
"""

from __future__ import annotations

import asyncio
import gc
import math
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Outcome", "open_loop", "closed_loop", "request_bytes"]

#: Extra delay before the first due time, so connection set-up and task
#: creation never count as lag.
_LEAD_S = 0.05


@dataclass
class Outcome:
    """What happened to one open-loop request."""

    lag_ms: float
    queue_ms: float
    latency_ms: float
    status: int
    body: "bytes | None" = None

    @property
    def ok(self) -> bool:
        return self.status == 200


def request_bytes(path: str, body: bytes) -> bytes:
    """One keep-alive ``POST`` of a JSON body."""
    head = (f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


@contextmanager
def _collector_paused():
    """No cyclic garbage collection while requests are timed.

    A full collection over the schedule's objects stalls the one client
    thread for tens of milliseconds, which would show up as generator
    lag and as server latency that the server never caused.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Connection:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.reader: "asyncio.StreamReader | None" = None
        self.writer: "asyncio.StreamWriter | None" = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None

    async def exchange(self, payload: bytes) -> "tuple[int, bytes]":
        if self.writer is None:
            await self.open()
        self.writer.write(payload)
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        body = await self.reader.readexactly(length) if length else b""
        if close:
            self.close()
        return status, body


async def _exchange_or_fail(conn: _Connection, payload: bytes,
                            timeout_s: float) -> "tuple[int, bytes]":
    """Status 0 for a timeout or a broken connection (then replaced)."""
    try:
        return await asyncio.wait_for(conn.exchange(payload), timeout_s)
    except (asyncio.TimeoutError, ConnectionError, OSError,
            asyncio.IncompleteReadError, ValueError, IndexError):
        conn.close()
        return 0, b""


async def _open_loop(host: str, port: int,
                     schedule: "list[tuple[float, str, bytes]]", *,
                     connections: int, timeout_s: float,
                     keep: "frozenset[int]") -> list[Outcome]:
    loop = asyncio.get_running_loop()
    idle: asyncio.Queue = asyncio.Queue()
    conns = [_Connection(host, port) for _ in range(connections)]
    for conn in conns:
        await conn.open()
        idle.put_nowait(conn)
    outcomes: "list[Outcome | None]" = [None] * len(schedule)
    tasks: set[asyncio.Task] = set()
    finished = asyncio.Event()
    remaining = len(schedule)

    async def run_one(index: int, due: float, fired: float,
                      payload: bytes) -> None:
        nonlocal remaining
        conn = await idle.get()
        got = loop.time()
        try:
            status, body = await _exchange_or_fail(conn, payload, timeout_s)
        finally:
            idle.put_nowait(conn)
        done = loop.time()
        outcomes[index] = Outcome(
            lag_ms=(fired - due) * 1e3,
            queue_ms=(got - fired) * 1e3,
            latency_ms=(done - due) * 1e3 if status == 200 else math.inf,
            status=status,
            body=body if index in keep else None,
        )
        remaining -= 1
        if remaining == 0:
            finished.set()

    def fire(index: int, due: float, payload: bytes) -> None:
        task = loop.create_task(run_one(index, due, loop.time(), payload))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    start = loop.time() + _LEAD_S
    for index, (offset, path, body) in enumerate(schedule):
        due = start + offset
        loop.call_at(due, fire, index, due, request_bytes(path, body))
    try:
        if schedule:
            await finished.wait()
    finally:
        for conn in conns:
            conn.close()
    return outcomes  # type: ignore[return-value]


def open_loop(host: str, port: int,
              schedule: "list[tuple[float, str, bytes]]", *,
              connections: int, timeout_s: float = 10.0,
              keep: "Iterable[int]" = ()) -> list[Outcome]:
    """Send ``(offset_s, path, body)`` requests at their due offsets.

    Response bodies are kept only for the indices in ``keep`` (the
    sampled answer checks), so long runs do not hold every reply.
    """
    with _collector_paused():
        return asyncio.run(_open_loop(host, port, schedule,
                                      connections=connections,
                                      timeout_s=timeout_s,
                                      keep=frozenset(keep)))


async def _closed_loop(host: str, port: int,
                       requests: "Iterator[tuple[str, bytes]]", *,
                       connections: int, duration_s: float,
                       timeout_s: float) -> "tuple[list[float], int]":
    loop = asyncio.get_running_loop()
    completions: list[float] = []
    failed = 0
    started = loop.time()
    stop_at = started + duration_s

    async def worker() -> None:
        nonlocal failed
        conn = _Connection(host, port)
        await conn.open()
        try:
            while loop.time() < stop_at:
                try:
                    path, body = next(requests)
                except StopIteration:
                    return
                status, _ = await _exchange_or_fail(
                    conn, request_bytes(path, body), timeout_s)
                if status == 200:
                    completions.append(loop.time() - started)
                else:
                    failed += 1
        finally:
            conn.close()

    await asyncio.gather(*(worker() for _ in range(connections)))
    return completions, failed


def closed_loop(host: str, port: int,
                requests: "Iterator[tuple[str, bytes]]", *,
                connections: int, duration_s: float,
                timeout_s: float = 10.0) -> "tuple[list[float], int]":
    """Back-to-back requests on ``connections`` sockets for ``duration_s``.

    Returns ``(completion offsets in seconds, failed count)``; each
    connection sends its next request only after the previous reply, so
    the completion rate is the server's capacity at that concurrency.
    """
    with _collector_paused():
        return asyncio.run(_closed_loop(host, port, iter(requests),
                                        connections=connections,
                                        duration_s=duration_s,
                                        timeout_s=timeout_s))
