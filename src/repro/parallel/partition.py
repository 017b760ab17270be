"""Worker-count resolution and chunk-aligned span partitioning.

Spans are the unit of dispatch, lease, retry and checkpointing: a
contiguous run of linear indices whose boundaries always fall on the
serial chunk grid (``1 + k·chunk_size``).  Any decomposition of the
space along that grid reduces every chunk to the identical ``(k, M)``
int16 matrix and the identical matmul, which is what makes re-execution,
duplication and resume all bit-identical to the serial sweep.
"""

from __future__ import annotations

import os

from repro.errors import ConfigurationError

__all__ = [
    "available_workers",
    "resolve_workers",
    "partition_chunks",
    "partition_ranges",
    "missing_ranges",
]

#: Contiguous spans handed out per worker; mild oversubscription keeps the
#: pool busy if one worker is descheduled, and bounds how much work a
#: crashed worker can lose (one span, not a 1/N slice of the space).
TASKS_PER_WORKER = 4


def available_workers() -> int:
    """Number of CPUs this process may actually run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | str | None, size: int) -> int:
    """Normalize the ``workers`` knob to an explicit worker count.

    ``None``, 1 and ``"auto"`` mean serial; an explicit integer is used
    as given.  ``"auto"`` is serial at every size because the broadcast
    serial sweep beats the supervised fan-out: at quota 5 (10M
    configurations, 2 vCPUs) it takes 0.5 s against 1.35 s for two
    workers, and no child process doubles the peak memory.  ``size`` (the
    space size) no longer changes the answer.
    """
    if workers is None:
        return 1
    if isinstance(workers, str):
        if workers != "auto":
            raise ConfigurationError(
                f"workers must be an integer, None or 'auto', got {workers!r}"
            )
        return 1
    count = int(workers)
    if count < 1:
        raise ConfigurationError("workers must be >= 1")
    return count


def partition_chunks(total: int, chunk_size: int,
                     n_parts: int) -> list[tuple[int, int]]:
    """Split linear indices ``1..total`` into contiguous ``(start, stop)`` spans.

    Span boundaries always fall on the serial chunk grid (``1 + k·chunk``)
    so a worker sweeping its span chunk-by-chunk reproduces exactly the
    matrices the serial loop would build — the bit-identity invariant.
    """
    if total < 1:
        raise ConfigurationError("cannot partition an empty space")
    if chunk_size < 1:
        raise ConfigurationError("chunk size must be >= 1")
    n_chunks = -(-total // chunk_size)
    n_parts = max(1, min(n_parts, n_chunks))
    base, extra = divmod(n_chunks, n_parts)
    spans: list[tuple[int, int]] = []
    chunk = 0
    for part in range(n_parts):
        take = base + (1 if part < extra else 0)
        start = 1 + chunk * chunk_size
        chunk += take
        stop = min(1 + chunk * chunk_size, total + 1)
        spans.append((start, stop))
    return spans


def missing_ranges(completed: list[tuple[int, int]],
                   total: int) -> list[tuple[int, int]]:
    """Complement of ``completed`` spans within linear indices ``[1, total]``.

    Overlapping or adjacent completed spans are merged first, so the
    result is a minimal list of disjoint ``(start, stop)`` gaps still to
    be evaluated.
    """
    if total < 1:
        raise ConfigurationError("cannot compute gaps of an empty space")
    gaps: list[tuple[int, int]] = []
    cursor = 1
    for start, stop in sorted(completed):
        if stop <= cursor:
            continue
        if start > cursor:
            gaps.append((cursor, min(start, total + 1)))
        cursor = stop
        if cursor > total:
            break
    if cursor <= total:
        gaps.append((cursor, total + 1))
    return gaps


def partition_ranges(ranges: list[tuple[int, int]], chunk_size: int,
                     n_parts: int) -> list[tuple[int, int]]:
    """Split arbitrary chunk-aligned index ranges into dispatchable spans.

    The resume analogue of :func:`partition_chunks`: each range is cut on
    the chunk grid into spans of roughly ``total_chunks / n_parts``
    chunks, never crossing a range boundary.  Every range start must lie
    on the grid (``1 + k·chunk_size``) — checkpointed spans guarantee
    this by construction.
    """
    if chunk_size < 1:
        raise ConfigurationError("chunk size must be >= 1")
    if n_parts < 1:
        raise ConfigurationError("need at least one part")
    total_chunks = 0
    for start, stop in ranges:
        if start >= stop:
            raise ConfigurationError(f"empty range ({start}, {stop})")
        if (start - 1) % chunk_size != 0:
            raise ConfigurationError(
                f"range start {start} is off the chunk grid "
                f"(chunk size {chunk_size})"
            )
        total_chunks += -(-(stop - start) // chunk_size)
    if total_chunks == 0:
        return []
    span_chunks = max(1, -(-total_chunks // n_parts))
    spans: list[tuple[int, int]] = []
    for start, stop in ranges:
        cursor = start
        while cursor < stop:
            nxt = min(cursor + span_chunks * chunk_size, stop)
            spans.append((cursor, nxt))
            cursor = nxt
    return spans
