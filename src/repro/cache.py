"""Persistent, memory-mapped cache of full-space evaluation artefacts.

Sweeping the paper's 10,077,695-configuration space produces two S-length
float64 arrays (``U_j`` and ``C_{j,u}``) that are pure functions of the
catalog and the measured capacity vector.  Re-deriving them in every
process is the single largest repeated cost of the pipeline, so this
module persists them as ``.npy`` files under a cache directory and
memory-maps them back on the next run — a warm start costs two ``mmap``
calls instead of a sweep.

Entries are content-addressed: the key is a SHA-256 hash of the catalog
(types, quotas, prices) and the capacity vector, so any change to either
simply misses and re-sweeps — stale artefacts can never be returned.

Besides the raw evaluation arrays the cache also persists *index
snapshots* — the full precomputed state of a
:class:`~repro.core.selection.FrontierIndex` (frontier rows, capacity
order, ratios in capacity order, ratio blocks), keyed by the same content
hash plus the feasibility block size.  Snapshots turn the index's sorts
into a one-time build cost: every later process memory-maps four
``.npy`` files and is query-ready in milliseconds, with N processes
sharing one copy through the page cache.

Every ``np.load`` here runs under one process-wide lock: on CPython 3.11
the ``.npy`` header parser (``ast.literal_eval``) is not safe when two
threads run it at once.  Only the header read is serialized — mmap'd
pages still fault in lazily, outside the lock.

The cache directory resolves, in order: an explicit ``cache_dir``
argument, the ``CELIA_CACHE_DIR`` environment variable, then
``~/.cache/celia``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.cloud.catalog import Catalog
from repro.core.configspace import DEFAULT_CHUNK, ConfigurationSpace, SpaceEvaluation
from repro.obs.metrics import global_registry
from repro.obs.trace import get_tracer

__all__ = [
    "CACHE_DIR_ENV",
    "CacheEntry",
    "EvaluationCache",
    "IndexSnapshotEntry",
    "SweepCheckpoint",
    "TraceEntry",
    "default_cache_dir",
    "evaluation_cache_key",
]

CACHE_DIR_ENV = "CELIA_CACHE_DIR"

#: Bumped whenever the cached values would change.  Version 2: the
#: sweep reduces Eq. 3 / Eq. 6 in the canonical position-independent
#: arithmetic, so version-1 (BLAS-rounded) arrays, snapshots and
#: checkpoint shards are misses.
_FORMAT_VERSION = 2

_NP_LOAD_LOCK = threading.Lock()


def _np_load(path: Path, **kwargs) -> np.ndarray:
    """``np.load`` serialized process-wide (see the module docstring)."""
    with _NP_LOAD_LOCK:
        return np.load(path, **kwargs)


def default_cache_dir() -> Path:
    """``$CELIA_CACHE_DIR`` if set, else ``~/.cache/celia``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "celia"


def evaluation_cache_key(catalog: Catalog, capacities_gips: np.ndarray) -> str:
    """SHA-256 content hash of everything the sweep depends on.

    Covers every field of every instance type (order-sensitive — type
    order defines the configuration code), the quotas, and the exact
    float64 bytes of the capacity vector.
    """
    payload = {
        "version": _FORMAT_VERSION,
        "types": [
            [t.name, t.category.name, t.vcpus, t.frequency_ghz, t.memory_gb,
             t.storage.name, t.local_storage_gb, t.price_per_hour]
            for t in catalog
        ],
        "quotas": list(catalog.quotas),
    }
    digest = hashlib.sha256()
    digest.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
    digest.update(
        np.ascontiguousarray(
            np.asarray(capacities_gips, dtype=np.float64)
        ).tobytes()
    )
    return digest.hexdigest()


@dataclass(frozen=True, slots=True)
class CacheEntry:
    """One cached evaluation on disk."""

    key: str
    space_size: int
    type_names: tuple[str, ...]
    bytes_on_disk: int


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One stored loadgen request trace on disk."""

    key: str
    name: str
    seed: int
    requests: int
    duration_s: float
    bytes_on_disk: int


@dataclass(frozen=True, slots=True)
class IndexSnapshotEntry:
    """One persisted frontier-index snapshot on disk."""

    key: str
    block_size: int
    space_size: int
    frontier_size: int
    bytes_on_disk: int


#: Arrays of one index snapshot, in write order (the metadata file lands
#: last and marks the snapshot valid).  Older snapshots also carry
#: ``capacity_sorted`` and ``ratio_sorted`` files; loads ignore them, and
#: ``clear`` and ``index_snapshots`` still see them.
_INDEX_ARRAYS = ("frontier_rows", "capacity_order", "ratio_by_capacity",
                 "ratio_blocks")


_SPAN_FILE_RE = re.compile(r"^span-(\d{12})-(\d{12})\.npy$")


class SweepCheckpoint:
    """Shard manifest of a partially-completed space sweep.

    The supervised sweep (:func:`repro.parallel.evaluate_resilient`)
    flushes every completed span into this directory as one ``.npy``
    shard holding a ``(2, span_length)`` float64 array — capacity row 0,
    unit-cost row 1 — written atomically (tmp + rename).  A killed sweep
    therefore leaves a crash-consistent set of shards; the next run
    loads them back and evaluates only the missing spans.

    Keying matches :class:`EvaluationCache` exactly: the directory name
    embeds the same SHA-256 content hash of (catalog, capacity vector),
    and the manifest pins the chunk grid, so shards can never be resumed
    against a different space, measurement, or chunk alignment — any
    mismatch discards the checkpoint and the sweep starts fresh.
    """

    MANIFEST = "manifest.json"

    def __init__(self, directory: str | Path, *, key: str, space_size: int,
                 chunk_size: int = DEFAULT_CHUNK):
        if space_size < 1:
            raise ValueError("space_size must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.directory = Path(directory)
        self.key = key
        self.space_size = int(space_size)
        self.chunk_size = int(chunk_size)

    # -- manifest --------------------------------------------------------------

    def _manifest_path(self) -> Path:
        return self.directory / self.MANIFEST

    def _manifest_matches(self) -> bool:
        try:
            meta = json.loads(self._manifest_path().read_text(
                encoding="utf-8"))
        except (OSError, ValueError):
            return False
        return (meta.get("version") == _FORMAT_VERSION
                and meta.get("key") == self.key
                and meta.get("space_size") == self.space_size
                and meta.get("chunk_size") == self.chunk_size)

    def ensure(self) -> None:
        """Create the directory and manifest; wipe a mismatched leftover."""
        if self.directory.exists() and not self._manifest_matches():
            shutil.rmtree(self.directory, ignore_errors=True)
        self.directory.mkdir(parents=True, exist_ok=True)
        if not self._manifest_path().exists():
            manifest = {
                "version": _FORMAT_VERSION,
                "key": self.key,
                "space_size": self.space_size,
                "chunk_size": self.chunk_size,
            }
            tmp = self._manifest_path().with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
            os.replace(tmp, self._manifest_path())

    # -- spans -----------------------------------------------------------------

    def _span_path(self, start: int, stop: int) -> Path:
        return self.directory / f"span-{start:012d}-{stop:012d}.npy"

    def _cand_path(self, start: int, stop: int) -> Path:
        return self.directory / f"cand-{start:012d}-{stop:012d}.npy"

    def _span_is_aligned(self, start: int, stop: int) -> bool:
        if not (1 <= start < stop <= self.space_size + 1):
            return False
        if (start - 1) % self.chunk_size != 0:
            return False
        return stop == self.space_size + 1 or \
            (stop - 1) % self.chunk_size == 0

    def write_span(self, start: int, stop: int, capacity: np.ndarray,
                   unit_cost: np.ndarray,
                   candidates: np.ndarray | None = None) -> None:
        """Atomically persist one completed span's two output slices.

        ``candidates`` — the span's fused frontier-candidate rows
        (global 0-based) — lands in a sibling ``cand-*.npy`` shard
        *before* the span shard: the span shard's presence marks
        completion, so a crash between the two writes leaves an
        orphaned candidate file that is never read (and is overwritten
        when the span eventually completes).
        """
        if not self._span_is_aligned(start, stop):
            raise ValueError(
                f"span [{start}, {stop}) is off the chunk grid "
                f"(chunk size {self.chunk_size}, space {self.space_size})")
        shard = np.vstack([
            np.asarray(capacity, dtype=np.float64),
            np.asarray(unit_cost, dtype=np.float64),
        ])
        if shard.shape != (2, stop - start):
            raise ValueError("span slices do not match the span length")
        if candidates is not None:
            cand_target = self._cand_path(start, stop)
            tmp = cand_target.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "wb") as fh:
                np.save(fh, np.ascontiguousarray(candidates,
                                                 dtype=np.int64))
            os.replace(tmp, cand_target)
        target = self._span_path(start, stop)
        tmp = target.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "wb") as fh:
            np.save(fh, np.ascontiguousarray(shard))
        os.replace(tmp, target)

    def load_candidates(self, start: int, stop: int) -> np.ndarray | None:
        """The span's checkpointed candidate rows, or ``None``.

        Any inconsistency — missing file, wrong dtype/shape, rows
        outside the span, non-ascending order — deletes the file and
        returns ``None``; the caller recomputes from the restored
        values (progress lost, correctness never)."""
        path = self._cand_path(start, stop)
        try:
            rows = _np_load(path)
            if rows.ndim != 1 or rows.dtype != np.int64:
                raise ValueError("malformed candidate shard")
            if rows.size and (
                    rows[0] < start - 1 or rows[-1] > stop - 2
                    or np.any(np.diff(rows) <= 0)):
                raise ValueError("candidate rows outside span or unsorted")
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            path.unlink(missing_ok=True)
            return None
        return rows

    def completed_spans(self) -> list[tuple[int, int]]:
        """Chunk-aligned spans with shards on disk (sorted by start)."""
        if not self._manifest_matches():
            return []
        spans: list[tuple[int, int]] = []
        for path in self.directory.iterdir():
            match = _SPAN_FILE_RE.match(path.name)
            if not match:
                continue
            start, stop = int(match.group(1)), int(match.group(2))
            if self._span_is_aligned(start, stop):
                spans.append((start, stop))
        return sorted(spans)

    def has_shards(self) -> bool:
        """Whether a resumable partial sweep is on disk."""
        return bool(self.completed_spans())

    def load_into(self, capacity: np.ndarray,
                  unit_cost: np.ndarray) -> list[tuple[int, int]]:
        """Restore every valid shard into the output arrays.

        Returns the spans actually restored.  A shard that cannot be
        read or has the wrong shape is deleted and simply re-evaluated —
        corruption can cost progress, never correctness.
        """
        loaded: list[tuple[int, int]] = []
        for start, stop in self.completed_spans():
            path = self._span_path(start, stop)
            try:
                shard = _np_load(path)
                if shard.shape != (2, stop - start) or \
                        shard.dtype != np.float64:
                    raise ValueError("malformed shard")
            except (OSError, ValueError):
                path.unlink(missing_ok=True)
                self._cand_path(start, stop).unlink(missing_ok=True)
                continue
            capacity[start - 1:stop - 1] = shard[0]
            unit_cost[start - 1:stop - 1] = shard[1]
            loaded.append((start, stop))
        return loaded

    def bytes_on_disk(self) -> int:
        """Current disk footprint of the checkpoint directory."""
        if not self.directory.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.directory.iterdir()
                   if p.is_file())

    def discard(self) -> None:
        """Delete the whole checkpoint directory (idempotent)."""
        shutil.rmtree(self.directory, ignore_errors=True)


class EvaluationCache:
    """Content-addressed store of :class:`SpaceEvaluation` arrays.

    ``load`` returns memory-mapped (read-only) arrays, so a warm start
    pays I/O lazily, page by page, as analyses touch the space.  ``hits``
    and ``misses`` count this instance's lookups; the same events also
    feed the process-global ``eval_cache_hits_total`` /
    ``eval_cache_misses_total`` counters (see ``docs/observability.md``).

    Arguments:
        cache_dir: Directory holding the ``.npy`` / ``.meta.json``
            artefacts.  ``None`` resolves via ``$CELIA_CACHE_DIR``, then
            ``~/.cache/celia``.  Created when the cache is opened, so it
            exists even while nothing has been stored (selections write
            nothing).

    The cache never raises on corrupt or missing entries — every
    inconsistency is a miss and the caller re-sweeps.  ``store`` may
    raise ``OSError`` if the cache directory cannot be written.
    """

    def __init__(self, cache_dir: str | Path | None = None):
        self.cache_dir = (Path(cache_dir).expanduser()
                          if cache_dir is not None else default_cache_dir())
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass  # an unwritable directory surfaces on the first store
        self.hits = 0
        self.misses = 0

    # -- layout ----------------------------------------------------------------

    def _meta_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.meta.json"

    def _array_path(self, key: str, which: str) -> Path:
        return self.cache_dir / f"{key}.{which}.npy"

    # -- lookup ----------------------------------------------------------------

    def _entry_is_valid(self, key: str, space_size: int) -> bool:
        """Whether a complete, size-consistent entry for ``key`` is on disk."""
        try:
            meta = json.loads(self._meta_path(key).read_text(encoding="utf-8"))
            if meta.get("version") != _FORMAT_VERSION or \
                    meta.get("space_size") != space_size:
                return False
            for which in ("capacity", "unit_cost"):
                array = _np_load(self._array_path(key, which),
                                 mmap_mode="r")
                if array.shape != (space_size,):
                    return False
        except (OSError, ValueError, KeyError):
            return False
        return True

    def load(self, space: ConfigurationSpace,
             capacities_gips: np.ndarray) -> SpaceEvaluation | None:
        """The cached evaluation for (catalog, capacities), or ``None``.

        Arguments:
            space: The configuration space the arrays must cover; its
                catalog contributes to the content-hash key.
            capacities_gips: Measured per-type capacity vector — the
                other half of the key.

        Returns the memory-mapped :class:`SpaceEvaluation` on a hit.
        Any inconsistency — missing files, unreadable metadata, an array
        whose length does not cover the space — counts as a miss; the
        caller re-sweeps and overwrites the entry.  Never raises.
        """
        with get_tracer().span("cache.load") as span:
            key = evaluation_cache_key(space.catalog, capacities_gips)
            meta_path = self._meta_path(key)
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                if meta.get("version") != _FORMAT_VERSION or \
                        meta.get("space_size") != space.size:
                    raise ValueError("stale cache entry")
                capacity = _np_load(self._array_path(key, "capacity"),
                                    mmap_mode="r")
                unit_cost = _np_load(self._array_path(key, "unit_cost"),
                                     mmap_mode="r")
                if capacity.shape != (space.size,) or \
                        unit_cost.shape != (space.size,):
                    raise ValueError("cached arrays do not cover the space")
            except (OSError, ValueError, KeyError):
                self.misses += 1
                global_registry().counter("eval_cache_misses_total") \
                    .increment()
                span.set_attribute("hit", False)
                return None
            self.hits += 1
            global_registry().counter("eval_cache_hits_total").increment()
            span.set_attribute("hit", True)
            return SpaceEvaluation(space=space, capacity_gips=capacity,
                                   unit_cost_per_hour=unit_cost)

    def store(self, evaluation: SpaceEvaluation,
              capacities_gips: np.ndarray) -> str:
        """Persist one evaluation; returns its content-hash key.

        Arguments:
            evaluation: The swept arrays plus the space they cover.
            capacities_gips: The capacity vector the sweep used (half of
                the content-hash key).

        Raises ``OSError`` if the cache directory cannot be created or
        written.

        Arrays are written to temporaries and renamed into place, and the
        metadata file — whose presence marks the entry valid — lands
        last, so a crash mid-write can only leave an invisible partial
        entry, never a readable corrupt one.

        Safe under concurrent writers: temporaries are suffixed with the
        writer's PID, every rename is atomic, and the key is a content
        hash — racing processes write byte-identical artefacts, so
        whichever replacement lands last changes nothing.  A writer that
        finds a valid entry already present (it lost the warm-up race)
        skips the ~160 MB rewrite and reuses the winner's artefact.
        """
        with get_tracer().span("cache.store"):
            key = evaluation_cache_key(evaluation.space.catalog,
                                       capacities_gips)
            if self._entry_is_valid(key, evaluation.space.size):
                return key
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            for which, array in (("capacity", evaluation.capacity_gips),
                                 ("unit_cost",
                                  evaluation.unit_cost_per_hour)):
                target = self._array_path(key, which)
                tmp = target.with_suffix(f".tmp{os.getpid()}")
                with open(tmp, "wb") as fh:
                    np.save(fh, np.ascontiguousarray(array))
                os.replace(tmp, target)
            meta = {
                "version": _FORMAT_VERSION,
                "key": key,
                "space_size": evaluation.space.size,
                "type_names": evaluation.space.catalog.names,
                "quotas": list(evaluation.space.catalog.quotas),
            }
            meta_path = self._meta_path(key)
            tmp = meta_path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
            os.replace(tmp, meta_path)
            return key

    # -- index snapshots -------------------------------------------------------

    def _index_base(self, key: str, block_size: int) -> str:
        return f"{key}.index-b{block_size}"

    def _index_meta_path(self, key: str, block_size: int) -> Path:
        return self.cache_dir / f"{self._index_base(key, block_size)}.meta.json"

    def _index_array_path(self, key: str, block_size: int,
                          which: str) -> Path:
        return self.cache_dir / f"{self._index_base(key, block_size)}.{which}.npy"

    def _index_is_valid(self, key: str, block_size: int,
                        space_size: int) -> bool:
        """Whether a complete, consistent snapshot for ``key`` is on disk."""
        try:
            self._load_index_arrays(key, block_size, space_size)
        except (OSError, ValueError, KeyError):
            return False
        return True

    def _load_index_arrays(self, key: str, block_size: int,
                           space_size: int) -> dict[str, np.ndarray]:
        """Memory-map and validate one snapshot's arrays (raises on any
        inconsistency — shapes, dtypes, stale metadata, rows out of
        range; the public entry points translate that into a miss)."""
        meta = json.loads(self._index_meta_path(key, block_size)
                          .read_text(encoding="utf-8"))
        if meta.get("version") != _FORMAT_VERSION or \
                meta.get("space_size") != space_size or \
                meta.get("block_size") != block_size:
            raise ValueError("stale index snapshot")
        frontier_size = int(meta["frontier_size"])
        arrays = {
            which: _np_load(self._index_array_path(key, block_size, which),
                            mmap_mode="r")
            for which in _INDEX_ARRAYS
        }
        n_blocks = -(-space_size // block_size)
        expected = {
            "frontier_rows": ((frontier_size,), np.int64),
            "capacity_order": ((space_size,), np.int64),
            "ratio_by_capacity": ((space_size,), np.float64),
            "ratio_blocks": ((n_blocks, block_size), np.float64),
        }
        for which, (shape, dtype) in expected.items():
            if arrays[which].shape != shape or \
                    arrays[which].dtype != dtype:
                raise ValueError(f"malformed snapshot array {which!r}")
        rows = arrays["frontier_rows"]
        if rows.size and (
                rows[0] < 0 or rows[-1] >= space_size
                or np.any(np.diff(rows) <= 0)):
            raise ValueError("frontier rows out of range or unsorted")
        return arrays

    def load_index(self, evaluation: SpaceEvaluation,
                   capacities_gips: np.ndarray, *,
                   block_size: int | None = None):
        """The persisted :class:`~repro.core.selection.FrontierIndex`
        for this evaluation, or ``None``.

        A hit memory-maps all four snapshot arrays (``mmap_mode="r"``) and
        rehydrates the index without any pass over the space — the
        millisecond warm-start path.  The evaluation's ``capacity_order``
        cache is primed from the snapshot too, so downstream index
        builds (e.g. ``MinCostIndex``) skip their O(S log S) argsort.
        Any inconsistency is a miss and the caller rebuilds; never
        raises.
        """
        from repro.core.selection import DEFAULT_FEASIBILITY_BLOCK, FrontierIndex

        if block_size is None:
            block_size = DEFAULT_FEASIBILITY_BLOCK
        with get_tracer().span("snapshot.load",
                               {"block_size": block_size}) as span:
            key = evaluation_cache_key(evaluation.space.catalog,
                                       capacities_gips)
            try:
                arrays = self._load_index_arrays(key, block_size,
                                                 evaluation.space.size)
            except (OSError, ValueError, KeyError):
                global_registry().counter(
                    "index_snapshot_misses_total").increment()
                span.set_attribute("hit", False)
                return None
            global_registry().counter(
                "index_snapshot_hits_total").increment()
            span.set_attribute("hit", True)
            span.set_attribute("frontier",
                               int(arrays["frontier_rows"].size))
            if "_capacity_order" not in evaluation.__dict__:
                object.__setattr__(evaluation, "_capacity_order",
                                   arrays["capacity_order"])
            return FrontierIndex.from_arrays(
                evaluation,
                frontier_rows=arrays["frontier_rows"],
                capacity_order=arrays["capacity_order"],
                ratio_by_capacity=arrays["ratio_by_capacity"],
                ratio_blocks=arrays["ratio_blocks"],
                block_size=block_size,
            )

    def store_index(self, index, capacities_gips: np.ndarray) -> str:
        """Persist one frontier index; returns its content-hash key.

        Forces the feasibility structure (its sorts must exist to be
        saved — that cost is paid once here, never again by loaders).
        Uses the same crash-safe discipline as :meth:`store`: arrays are
        renamed into place first, the metadata file that marks the
        snapshot valid lands last, temporaries are PID-suffixed, and a
        writer that finds a valid snapshot already present skips the
        rewrite.
        """
        with get_tracer().span("snapshot.store",
                               {"block_size": index.block_size}):
            evaluation = index.evaluation
            key = evaluation_cache_key(evaluation.space.catalog,
                                       capacities_gips)
            block_size = index.block_size
            if self._index_is_valid(key, block_size,
                                    evaluation.space.size):
                return key
            index.ensure_feasibility()
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            arrays = {
                "frontier_rows": index.frontier_rows,
                "capacity_order": index._capacity_order,
                "ratio_by_capacity": index._ratio_by_capacity,
                "ratio_blocks": index._ratio_blocks,
            }
            for which in _INDEX_ARRAYS:
                target = self._index_array_path(key, block_size, which)
                tmp = target.with_suffix(f".tmp{os.getpid()}")
                with open(tmp, "wb") as fh:
                    np.save(fh, np.ascontiguousarray(arrays[which]))
                os.replace(tmp, target)
            meta = {
                "version": _FORMAT_VERSION,
                "key": key,
                "space_size": evaluation.space.size,
                "block_size": block_size,
                "frontier_size": int(index.frontier_rows.size),
                "type_names": evaluation.space.catalog.names,
            }
            meta_path = self._index_meta_path(key, block_size)
            tmp = meta_path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
            os.replace(tmp, meta_path)
            return key

    def index_snapshots(self) -> list[IndexSnapshotEntry]:
        """All readable index snapshots currently on disk.

        ``bytes_on_disk`` counts every file of the snapshot, including
        arrays that only older layouts wrote."""
        found: list[IndexSnapshotEntry] = []
        if not self.cache_dir.is_dir():
            return found
        for meta_path in sorted(self.cache_dir.glob("*.index-b*.meta.json")):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                key = meta["key"]
                block_size = int(meta["block_size"])
                for which in _INDEX_ARRAYS:  # incomplete: skipped
                    self._index_array_path(key, block_size, which).stat()
                base = self._index_base(key, block_size)
                size = sum(p.stat().st_size
                           for p in self.cache_dir.glob(f"{base}.*")
                           if p.is_file())
                found.append(IndexSnapshotEntry(
                    key=key,
                    block_size=block_size,
                    space_size=int(meta["space_size"]),
                    frontier_size=int(meta["frontier_size"]),
                    bytes_on_disk=size,
                ))
            except (OSError, ValueError, KeyError):
                continue
        return found

    # -- sweep checkpoints -----------------------------------------------------

    def sweep_checkpoint(self, space: ConfigurationSpace,
                         capacities_gips: np.ndarray,
                         *, chunk_size: int = DEFAULT_CHUNK
                         ) -> SweepCheckpoint:
        """The shard checkpoint for (catalog, capacities) sweeps.

        Lives beside the final artefacts under ``<key>.sweep/`` with the
        same content-hash key, so a resumed sweep can only ever pick up
        shards produced for the identical space and measurement.
        """
        key = evaluation_cache_key(space.catalog, capacities_gips)
        return SweepCheckpoint(self.cache_dir / f"{key}.sweep", key=key,
                               space_size=space.size, chunk_size=chunk_size)

    def sweep_checkpoints(self) -> list[tuple[str, int, int]]:
        """``(key, n_shards, bytes)`` for every checkpoint dir on disk."""
        if not self.cache_dir.is_dir():
            return []
        found: list[tuple[str, int, int]] = []
        for path in sorted(self.cache_dir.glob("*.sweep")):
            if not path.is_dir():
                continue
            shards = [p for p in path.iterdir()
                      if _SPAN_FILE_RE.match(p.name)]
            size = sum(p.stat().st_size for p in path.iterdir()
                       if p.is_file())
            found.append((path.name[:-len(".sweep")], len(shards), size))
        return found

    # -- loadgen traces --------------------------------------------------------

    def _trace_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.trace.jsonl"

    def _trace_meta_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.trace.meta.json"

    def store_trace(self, jsonl: str, *, name: str, seed: int,
                    requests: int, duration_s: float) -> str:
        """Persist one loadgen trace document; returns its content key.

        The key is the SHA-256 of the JSONL text itself, so a trace is
        stored once no matter how often it is regenerated — the
        determinism contract of :mod:`repro.loadgen.trace` made concrete.
        Takes the serialized text rather than a ``Trace`` object to keep
        this module free of upward imports (the cache sits below
        ``repro.loadgen`` in the layering).

        Write discipline matches evaluations: payload first (tmp + atomic
        rename), the ``.trace.meta.json`` marker last.
        """
        key = hashlib.sha256(jsonl.encode("utf-8")).hexdigest()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        target = self._trace_path(key)
        tmp = target.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(jsonl, encoding="utf-8")
        os.replace(tmp, target)
        meta = {
            "version": _FORMAT_VERSION,
            "key": key,
            "kind": "trace",
            "name": name,
            "seed": int(seed),
            "requests": int(requests),
            "duration_s": float(duration_s),
        }
        meta_path = self._trace_meta_path(key)
        tmp = meta_path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(meta, indent=2), encoding="utf-8")
        os.replace(tmp, meta_path)
        return key

    def load_trace(self, key: str) -> "str | None":
        """The stored JSONL text for ``key`` (None when absent/invalid)."""
        meta_path = self._trace_meta_path(key)
        trace_path = self._trace_path(key)
        if not (meta_path.is_file() and trace_path.is_file()):
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if meta.get("version") != _FORMAT_VERSION or meta.get("key") != key:
            return None
        return trace_path.read_text(encoding="utf-8")

    def trace_entries(self) -> list[TraceEntry]:
        """All valid stored traces currently on disk."""
        found: list[TraceEntry] = []
        if not self.cache_dir.is_dir():
            return found
        for meta_path in sorted(self.cache_dir.glob("*.trace.meta.json")):
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                key = meta["key"]
                size = (self._trace_path(key).stat().st_size
                        + meta_path.stat().st_size)
                found.append(TraceEntry(
                    key=key,
                    name=str(meta.get("name", "trace")),
                    seed=int(meta.get("seed", 0)),
                    requests=int(meta["requests"]),
                    duration_s=float(meta["duration_s"]),
                    bytes_on_disk=size,
                ))
            except (OSError, ValueError, KeyError):
                continue
        return found

    # -- maintenance -----------------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """All valid *evaluation* entries currently on disk.

        Index snapshots and loadgen traces share the cache directory and
        the ``.meta.json`` marker convention but are distinct artifact
        kinds — both are filtered out here (and listed by
        :meth:`index_snapshots` / :meth:`trace_entries` instead), so a
        directory full of replay traces never inflates the evaluation
        count ``cache info`` reports.
        """
        found: list[CacheEntry] = []
        if not self.cache_dir.is_dir():
            return found
        for meta_path in sorted(self.cache_dir.glob("*.meta.json")):
            if ".index-b" in meta_path.name:  # index snapshots, not entries
                continue
            if ".trace." in meta_path.name:  # loadgen traces, not entries
                continue
            try:
                meta = json.loads(meta_path.read_text(encoding="utf-8"))
                key = meta["key"]
                size = sum(
                    self._array_path(key, which).stat().st_size
                    for which in ("capacity", "unit_cost")
                ) + meta_path.stat().st_size
                found.append(CacheEntry(
                    key=key,
                    space_size=int(meta["space_size"]),
                    type_names=tuple(meta.get("type_names", ())),
                    bytes_on_disk=size,
                ))
            except (OSError, ValueError, KeyError):
                continue
        return found

    def total_bytes(self) -> int:
        """Disk footprint of all valid entries."""
        return sum(e.bytes_on_disk for e in self.entries())

    def clear(self) -> int:
        """Delete every entry, index snapshot, trace and sweep checkpoint.

        Returns the number of evaluation entries removed (snapshots,
        traces and checkpoints are removed alongside, uncounted)."""
        removed = 0
        for entry in self.entries():
            for path in (self._meta_path(entry.key),
                         self._array_path(entry.key, "capacity"),
                         self._array_path(entry.key, "unit_cost")):
                try:
                    path.unlink()
                except OSError:
                    pass
            removed += 1
        if self.cache_dir.is_dir():
            for pattern in ("*.index-b*", "*.trace.*"):
                for path in self.cache_dir.glob(pattern):
                    try:
                        path.unlink()
                    except OSError:
                        pass
            for path in self.cache_dir.glob("*.sweep"):
                shutil.rmtree(path, ignore_errors=True)
        return removed
