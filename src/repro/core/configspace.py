"""Configuration-space enumeration — Equation 1 and the vectorized sweep.

A configuration is a tuple ``<m_1, ..., m_M>`` with ``0 <= m_i <=
m_i,max`` and not all zero; the space has ``S = Π (m_i,max + 1) − 1``
members (Eq. 1) — 10,077,695 for the paper's catalog.  Configurations are
identified with *linear indices* in ``[1, S]`` under a mixed-radix code
(first catalog type most significant), so the space never needs to exist
as Python objects: the serial sweep builds the capacity/unit-cost
vectors as one broadcast outer sum per type, and index spans (parallel
workers, checkpoint resume) are decoded into small integer matrices and
reduced in the same canonical arithmetic
(:mod:`repro.core.sweepkernel`), keeping the hot path free of per-item
Python work.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cloud.catalog import Catalog
from repro.core.capacity import capacity_per_type
from repro.core.sweepkernel import frontier_candidates_from_values, outer_sums
from repro.errors import ConfigurationError
from repro.obs.trace import get_tracer
from repro.parallel.partition import resolve_workers

__all__ = ["ConfigurationSpace", "SpaceEvaluation"]

#: Default number of configurations decoded per chunk (~160 MB peak for
#: the paper's nine-type space at int16).
DEFAULT_CHUNK = 1 << 21


class ConfigurationSpace:
    """The set of all non-empty configurations over a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.radices = catalog.quota_vector + 1  # m_i,max + 1 values per slot
        # Mixed-radix strides, first type most significant.
        strides = np.ones(len(catalog), dtype=np.int64)
        for i in range(len(catalog) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.radices[i + 1]
        self.strides = strides

    @property
    def size(self) -> int:
        """Eq. 1: number of non-empty configurations ``S``."""
        return self.catalog.configuration_count()

    # -- index <-> configuration codecs --------------------------------------

    def decode(self, indices: np.ndarray | int) -> np.ndarray:
        """Decode linear indices (1..S) into an (k, M) node-count matrix."""
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        if np.any(idx < 1) or np.any(idx > self.size):
            raise ConfigurationError(
                f"indices must be in [1, {self.size}]"
            )
        return self._decode_unchecked(idx)

    def _decode_unchecked(self, idx: np.ndarray) -> np.ndarray:
        """Decode without the two validity scans.

        For callers whose indices are valid by construction (the chunk
        iterators and the sweep kernel): the two ``np.any`` range checks
        in :meth:`decode` are full passes over the chunk and were paid
        on every chunk of every sweep.
        """
        return ((idx[:, None] // self.strides[None, :])
                % self.radices[None, :]).astype(np.int16)

    def encode(self, configuration: np.ndarray) -> int:
        """Linear index of one configuration vector."""
        vec = np.asarray(configuration, dtype=np.int64)
        if vec.shape != (len(self.catalog),):
            raise ConfigurationError(
                f"configuration must have {len(self.catalog)} entries"
            )
        if np.any(vec < 0) or np.any(vec > self.catalog.quota_vector):
            raise ConfigurationError("configuration violates quotas")
        index = int(np.sum(vec * self.strides))
        if index == 0:
            raise ConfigurationError("the empty configuration has no index")
        return index

    # -- enumeration -----------------------------------------------------------

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK
                    ) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(start_index, matrix)`` covering indices 1..S in order.

        ``matrix[r]`` is the configuration with linear index
        ``start_index + r``.
        """
        if chunk_size < 1:
            raise ConfigurationError("chunk size must be >= 1")
        total = self.size
        # One reusable index buffer: chunk indices are valid by
        # construction, so each chunk is an in-place add on the arange
        # template plus one unchecked decode (the yielded matrix is
        # freshly allocated; only the index buffer is reused).
        buf = np.arange(1, min(chunk_size, total) + 1, dtype=np.int64)
        start = 1
        while start <= total:
            stop = min(start + chunk_size, total + 1)
            idx = buf[:stop - start]
            if start > 1:
                np.add(idx, chunk_size, out=idx)
            yield start, self._decode_unchecked(idx)
            start = stop

    def mask_using_types(self, type_indices: Sequence[int] | np.ndarray,
                         *, chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
        """Boolean array: which configurations use any of the given types.

        Supports constrained selections (e.g. memory feasibility: mark
        every configuration that places nodes on a type whose memory
        cannot hold the application's working set).  Row ``r`` is linear
        index ``r + 1``.
        """
        indices = np.asarray(type_indices, dtype=np.int64)
        if indices.size and (indices.min() < 0
                             or indices.max() >= len(self.catalog)):
            raise ConfigurationError("type index out of range")
        out = np.zeros(self.size, dtype=bool)
        if indices.size == 0:
            return out
        for start, matrix in self.iter_chunks(chunk_size):
            stop = start + matrix.shape[0]
            out[start - 1:stop - 1] = (matrix[:, indices] > 0).any(axis=1)
        return out

    def evaluate(self, capacities_gips: np.ndarray,
                 *, chunk_size: int = DEFAULT_CHUNK,
                 workers: int | str | None = None,
                 checkpoint=None,
                 collect_candidates: bool = True) -> "SpaceEvaluation":
        """Reduce the whole space to capacity and unit-cost vectors.

        The serial sweep is a broadcast outer sum per type in radix
        order (:func:`repro.core.sweepkernel.outer_sums`): no decode,
        and peak memory is the two S-length float64 outputs plus one
        sixth of one of them.  Every strategy computes each row in the
        canonical arithmetic, so the arrays are bit-identical whatever
        ``chunk_size``, ``workers`` or checkpoint resume point is used.

        ``workers`` selects the execution strategy: ``None``, 1 and
        ``"auto"`` run the serial loop (the fastest strategy at every
        quota, see :func:`repro.parallel.resolve_workers`), and an
        integer above 1 fans the sweep out over that many supervised
        processes via :mod:`repro.parallel`.  All strategies produce
        bit-identical arrays.

        ``checkpoint`` (a :class:`repro.cache.SweepCheckpoint`) makes a
        supervised sweep flush completed spans to disk and resume from
        whatever a previous interrupted sweep left behind.  A checkpoint
        holding shards forces the supervised path even for ``workers=1``,
        so a resumed sweep never re-evaluates completed spans.

        ``collect_candidates`` (default on) attaches each chunk's local
        Pareto candidates over ``(−capacity, cost_ratio)`` to the
        returned evaluation (harvested inside the workers of a
        supervised sweep), so a later
        :meth:`SpaceEvaluation.frontier_index` build is a merge over a
        few hundred rows instead of a second full pass over the space.
        The candidate harvest never changes the evaluation arrays.
        """
        if chunk_size < 1:
            raise ConfigurationError("chunk size must be >= 1")
        n_workers = 1
        if workers is not None:
            n_workers = resolve_workers(workers, self.size)
        if n_workers > 1 or (checkpoint is not None
                             and checkpoint.has_shards()):
            from repro.parallel import evaluate_resilient

            capacity, unit_cost, stats = evaluate_resilient(
                self, capacities_gips, workers=max(n_workers, 1),
                chunk_size=chunk_size, checkpoint=checkpoint,
                collect_candidates=collect_candidates,
            )
            evaluation = SpaceEvaluation(space=self, capacity_gips=capacity,
                                         unit_cost_per_hour=unit_cost)
            object.__setattr__(evaluation, "_sweep_stats", stats)
            if stats.frontier_candidates is not None:
                object.__setattr__(evaluation, "_frontier_candidates",
                                   stats.frontier_candidates)
            return evaluation
        span_name = "sweep.fused" if collect_candidates else "sweep.serial"
        with get_tracer().span(span_name,
                               {"size": self.size,
                                "chunk_size": chunk_size}) as span:
            w = capacity_per_type(capacities_gips)
            # Element 0 of each broadcast sum is the empty configuration,
            # so the views from 1 on are rows 0..S-1.
            capacity = outer_sums(w, self.radices)[1:]
            unit_cost = outer_sums(self.catalog.prices, self.radices)[1:]
            evaluation = SpaceEvaluation(space=self, capacity_gips=capacity,
                                         unit_cost_per_hour=unit_cost)
            if collect_candidates:
                rows = frontier_candidates_from_values(
                    capacity, unit_cost, chunk_size=chunk_size)
                span.set_attribute("candidates", int(rows.size))
                object.__setattr__(evaluation, "_frontier_candidates", rows)
            return evaluation


@dataclass(frozen=True)
class SpaceEvaluation:
    """Precomputed ``U_j`` and ``C_{j,u}`` for every configuration.

    Row ``r`` corresponds to linear index ``r + 1`` (the empty
    configuration is excluded).  This is the reusable artefact behind all
    sweep analyses: computing it costs one pass over the space; every
    (demand, deadline, budget) query afterwards is a cheap vector
    operation or an indexed lookup.
    """

    space: ConfigurationSpace
    capacity_gips: np.ndarray
    unit_cost_per_hour: np.ndarray

    def __post_init__(self) -> None:
        if self.capacity_gips.shape != (self.space.size,) or \
                self.unit_cost_per_hour.shape != (self.space.size,):
            raise ConfigurationError("evaluation arrays must cover the space")

    def configuration_at(self, row: int) -> tuple[int, ...]:
        """Node-count tuple for evaluation row ``row`` (0-based)."""
        return tuple(int(v) for v in self.space.decode(row + 1)[0])

    def configurations_at(self, rows: np.ndarray | Sequence[int]) -> np.ndarray:
        """Node-count matrix for many evaluation rows (0-based) at once.

        One vectorized decode instead of one per row — the way frontier
        points are materialized after a selection.
        """
        idx = np.asarray(rows, dtype=np.int64)
        return self.space.decode(idx + 1)

    # -- shared lazy artefacts -------------------------------------------------
    #
    # These are derived purely from the two arrays, are expensive at the
    # 10M-configuration scale, and are needed by several consumers
    # (MinCostIndex, MinTimeIndex, FrontierIndex), so they are computed
    # once and cached on the instance (frozen dataclasses still allow
    # object.__setattr__).

    def sweep_stats(self):
        """The :class:`~repro.parallel.SweepStats` of the supervised sweep
        that produced this evaluation, or ``None`` (serial or cached)."""
        return self.__dict__.get("_sweep_stats")

    def frontier_candidates(self) -> "np.ndarray | None":
        """Fused-sweep frontier candidate rows, or ``None`` (cached load).

        Ascending global 0-based rows: the union of every chunk's local
        Pareto set over ``(−capacity, cost_ratio)``, harvested while the
        sweep streamed (see :mod:`repro.core.sweepkernel`).  A superset
        of the demand-invariant frontier, so ``frontier_index`` can
        merge these few hundred rows instead of rescanning the space."""
        return self.__dict__.get("_frontier_candidates")

    def capacity_order(self) -> np.ndarray:
        """Stable argsort of ``capacity_gips`` (cached).

        With pairwise distinct keys every correct sort yields the one
        stable permutation, so the faster unstable default runs unless a
        cheap value sort finds equal neighbours (ties).
        """
        cached = self.__dict__.get("_capacity_order")
        if cached is None:
            ordered = np.sort(self.capacity_gips)
            ties = bool(np.any(ordered[1:] == ordered[:-1]))
            cached = np.argsort(self.capacity_gips,
                                kind="stable" if ties else None)
            object.__setattr__(self, "_capacity_order", cached)
        return cached

    def cost_ratio(self) -> np.ndarray:
        """Demand-invariant cost rate ``C_u / U`` per row ($/h per GI/s, cached).

        Predicted cost is ``D · (C_u/U) / 3600`` for every demand, so this
        single vector carries the whole cost ordering of the space.
        """
        cached = self.__dict__.get("_cost_ratio")
        if cached is None:
            cached = self.unit_cost_per_hour / self.capacity_gips
            object.__setattr__(self, "_cost_ratio", cached)
        return cached

    def has_frontier_index(self) -> bool:
        """Whether :meth:`frontier_index` has already been built."""
        return "_frontier_index" in self.__dict__

    def frontier_index(self, *, chunk_size: int = DEFAULT_CHUNK):
        """The demand-invariant :class:`~repro.core.selection.FrontierIndex`.

        Built on first call (one pass over the space) and cached; every
        subsequent Algorithm-1 query against this evaluation can then run
        in O(|frontier| + log S) instead of O(S).
        """
        cached = self.__dict__.get("_frontier_index")
        if cached is None:
            from repro.core.selection import FrontierIndex

            cached = FrontierIndex(self, chunk_size=chunk_size,
                                   candidates=self.frontier_candidates())
            object.__setattr__(self, "_frontier_index", cached)
        return cached

    def times_hours(self, demand_gi: float) -> np.ndarray:
        """Predicted execution time of every configuration (Eq. 2)."""
        if demand_gi <= 0:
            raise ConfigurationError("demand must be positive")
        return demand_gi / self.capacity_gips / 3600.0

    def costs(self, demand_gi: float) -> np.ndarray:
        """Predicted execution cost of every configuration (Eq. 5)."""
        return self.times_hours(demand_gi) * self.unit_cost_per_hour
