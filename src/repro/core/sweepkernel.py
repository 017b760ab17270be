"""Fused sweep kernel — decode, reduce and harvest frontier candidates.

Every Eq. 3 / Eq. 6 reduction in the package — the sweep tiles here,
the broadcast full sweep, the structured selection path, the band check
of its feasible count and :meth:`repro.core.celia.Celia.predict` — uses
one *canonical* arithmetic: a left-to-right sum in catalog order,

    ``acc = fl(acc + fl(m_i · W_i))`` for ``i = 0 .. M−1``,

implemented once by :func:`canonical_sums` (rows of node counts) and
:func:`outer_sums` (every digit combination at once, by
``np.add.outer`` per type).  The two apply the same two IEEE roundings
per type in the same order, so a configuration's ``U`` and ``P`` are
functions of the configuration alone: no chunk grid, tile width, span
partitioning, resume point or BLAS kernel can change a bit of them.
(A ``matmul`` reduction is *not* such a function: the rounding of a
row depends on its position in the kernel's tile and on the CPU's BLAS
build.)

The supervised workers and the checkpoint-resume path evaluate index
spans through one :class:`ChunkKernel` (the serial sweep needs no
decode: it is :func:`outer_sums` of the whole space), which owns a
set of preallocated tile-sized buffers (:data:`KERNEL_TILE` rows, for
cache locality): the linear indices are written into a reused
``arange`` template, the mixed-radix decode runs in-place with
``floor_divide``/``remainder`` into a type-major buffer, and
:func:`canonical_sums` reduces it straight into the caller's output
slices.

On top of the evaluation, :func:`chunk_frontier_candidates` harvests
each chunk's local Pareto candidates over ``(−capacity, cost_ratio)``
— the demand-invariant objective pair of
:class:`repro.core.selection.FrontierIndex` — cheaply enough to run
inside a sweep worker.  A full per-chunk nondomination scan would cost a
2M-element ``lexsort`` per chunk; instead :func:`local_frontier` prunes
the chunk first with an exact *capacity-binned prefilter*:

1. bin every row by capacity, ``b = floor((U − Umin)·k)`` with the
   positive constant ``k = (B−1)/(Umax − Umin)``, clamped to ``B−1``
   (one bin when ``Umax == Umin``);
2. take each bin's minimum ratio (``np.minimum.at``), then the suffix
   minimum over the *strictly higher* bins;
3. a row survives iff that suffix minimum is ``>=`` its own ratio;
4. the exact ``pareto_mask_2d`` then runs on the ~100 survivors.

IEEE subtraction, multiplication by a positive constant, ``floor`` and
the clamp are all monotone non-decreasing, so a strictly higher bin
always holds a strictly greater capacity.  A dropped row
therefore has a row in its own chunk with strictly greater capacity AND
strictly smaller ratio — a strict dominator — so it was never on the
chunk's frontier.  Survivors are a superset of that frontier, and the
Pareto set of any superset-of-the-frontier subset equals the frontier
exactly (every strict-dominator chain ends at a nondominated point,
which is itself a survivor), so the candidate rows are *identical* to a
full per-chunk scan.  For the same reason the final merge over all
candidates is bit-identical to the two-pass full-space scan regardless
of chunk grid, span partitioning, duplicated spans or resume
granularity.  The streamed Algorithm-1 scan in
:mod:`repro.core.selection` runs the same :func:`local_frontier` on each
chunk's feasible rows.
"""

from __future__ import annotations

import numpy as np

from repro.pareto.frontier import pareto_mask_2d

__all__ = [
    "KERNEL_TILE",
    "ChunkKernel",
    "canonical_sums",
    "chunk_frontier_candidates",
    "frontier_candidates_from_values",
    "local_frontier",
    "outer_sums",
]

#: Capacity bins of the prefilter.  More bins mean fewer survivors for
#: the exact Pareto pass; the per-bin reductions stay negligible.
_PREFILTER_BINS = 1 << 12

#: Rows per internal decode/reduce tile.  A full 2M-row chunk drags
#: ~300 MB of work buffers through memory; tiling keeps the decode's
#: working set near the cache.  Purely an execution detail: the
#: canonical arithmetic makes every row's value independent of the tile
#: it falls in.
KERNEL_TILE = 1 << 17


def canonical_sums(counts: np.ndarray, weights: np.ndarray,
                   out: "np.ndarray | None" = None) -> np.ndarray:
    """Eq. 3 / Eq. 6 of configuration rows in the canonical arithmetic.

    ``counts`` is a ``(k, M)`` node-count matrix (any integer dtype, or
    floats holding small integers); ``weights`` the ``M`` per-type
    capacities or prices.  Returns ``acc`` with
    ``acc = fl(acc + fl(m_i · W_i))`` folded left to right over the
    types, written into ``out`` when given.
    """
    counts = np.asarray(counts)
    weights = np.asarray(weights, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[1] != weights.size:
        raise ValueError("counts must be a (k, M) matrix matching weights")
    if out is None:
        out = np.empty(counts.shape[0], dtype=np.float64)
    np.multiply(counts[:, 0], weights[0], out=out, dtype=np.float64)
    term = np.empty_like(out)
    for i in range(1, weights.size):
        np.multiply(counts[:, i], weights[i], out=term, dtype=np.float64)
        np.add(out, term, out=out)
    return out


def outer_sums(weights: np.ndarray, radices: np.ndarray,
               start: "np.ndarray | None" = None) -> np.ndarray:
    """Canonical sums of every digit combination, in mixed-radix order.

    Element ``Σ d_i·stride_i`` (first type most significant, strides of
    ``radices``) holds the :func:`canonical_sums` value of the node
    counts ``d``: each type contributes ``np.add.outer`` of the running
    sums with its terms ``fl(m·W_i)``, ``m = 0 .. radix−1``.  ``start``
    (default ``[0.0]``) seeds the fold with partial sums of types that
    precede ``weights``; element ``j·Π radices + …`` then continues
    ``start[j]``.  Index 0 is the empty configuration.
    """
    acc = np.zeros(1) if start is None else np.asarray(start, dtype=np.float64)
    for w, r in zip(np.asarray(weights, dtype=np.float64), radices):
        acc = np.add.outer(acc, np.arange(int(r)) * w).ravel()
    return acc


class ChunkKernel:
    """Reusable buffers + fused decode/canonical reduce for index spans.

    Parameters
    ----------
    strides, radices:
        The space's mixed-radix code (``ConfigurationSpace.strides`` /
        ``.radices``).
    weights, prices:
        Per-type capacity vector ``W`` (GI/s) and hourly prices — the
        two reduction vectors.
    max_chunk:
        Largest chunk length this kernel will see; buffer sizes.
    """

    def __init__(self, strides: np.ndarray, radices: np.ndarray,
                 weights: np.ndarray, prices: np.ndarray, *, max_chunk: int):
        if max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        self.strides = np.ascontiguousarray(strides, dtype=np.int64)
        self.radices = np.ascontiguousarray(radices, dtype=np.int64)
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.prices = np.ascontiguousarray(prices, dtype=np.float64)
        m = self.strides.size
        self.max_chunk = int(max_chunk)
        self._tile_rows = min(self.max_chunk, KERNEL_TILE)
        self._base = np.arange(self._tile_rows, dtype=np.int64)
        self._idx = np.empty(self._tile_rows, dtype=np.int64)
        self._work = np.empty((m, self._tile_rows), dtype=np.int64)
        self._ratio = np.empty(self.max_chunk, dtype=np.float64)

    def evaluate_into(self, start: int, stop: int, capacity_out: np.ndarray,
                      unit_cost_out: np.ndarray) -> None:
        """Reduce linear indices ``[start, stop)`` into the output slices.

        ``capacity_out`` / ``unit_cost_out`` must be contiguous float64
        views of length ``stop - start`` (e.g. slices of the S-length
        output arrays at offset ``start - 1``).  Internally processed in
        :data:`KERNEL_TILE`-row tiles for cache locality.
        """
        for s in range(start, stop, self._tile_rows):
            e = min(s + self._tile_rows, stop)
            self._evaluate_tile(s, e, capacity_out[s - start:e - start],
                                unit_cost_out[s - start:e - start])

    def _evaluate_tile(self, start: int, stop: int, capacity_out: np.ndarray,
                       unit_cost_out: np.ndarray) -> None:
        k = stop - start
        idx = self._idx[:k]
        np.add(self._base[:k], start, out=idx)
        work = self._work[:, :k]  # type-major: each type's digits contiguous
        np.floor_divide(idx[None, :], self.strides[:, None], out=work)
        np.remainder(work, self.radices[:, None], out=work)
        canonical_sums(work.T, self.weights, out=capacity_out)
        canonical_sums(work.T, self.prices, out=unit_cost_out)

    def frontier_candidates(self, start: int, capacity: np.ndarray,
                            unit_cost: np.ndarray) -> np.ndarray:
        """Local Pareto candidate rows of one just-evaluated chunk.

        ``start`` is the chunk's first linear index; the returned rows
        are global 0-based evaluation rows (``linear index − 1``).
        """
        k = capacity.size
        ratio = self._ratio[:k]
        np.divide(unit_cost, capacity, out=ratio)
        return local_frontier(capacity, ratio) + (start - 1)


def local_frontier(capacity: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Ascending positions of the nondominated rows over ``(−capacity, ratio)``.

    Exactly the rows ``pareto_mask_2d(-capacity, ratio)`` marks, found
    through the capacity-binned prefilter described in the module
    docstring: only rows without a strict dominator in a strictly
    higher capacity bin reach the exact scan.
    """
    k = capacity.size
    if k == 0:
        return np.empty(0, dtype=np.int64)
    lo = capacity.min()
    span = capacity.max() - lo
    if span > 0:
        scaled = capacity - lo
        scaled *= (_PREFILTER_BINS - 1) / span
        np.minimum(scaled, _PREFILTER_BINS - 1, out=scaled)
        bins = scaled.astype(np.intp)  # non-negative: truncation is floor
    else:
        bins = np.zeros(k, dtype=np.intp)
    bin_min = np.full(_PREFILTER_BINS + 1, np.inf)
    np.minimum.at(bin_min, bins, ratio)
    # higher[b] = min ratio over bins strictly above b (inf for the top).
    higher = np.minimum.accumulate(bin_min[::-1])[::-1][1:]
    survivors = np.flatnonzero(higher[bins] >= ratio)
    local = pareto_mask_2d(-capacity[survivors], ratio[survivors])
    return survivors[local]


def chunk_frontier_candidates(capacity: np.ndarray, unit_cost: np.ndarray,
                              base_row: int) -> np.ndarray:
    """Buffer-free variant of :meth:`ChunkKernel.frontier_candidates`.

    Used where no kernel is alive: recomputing candidates for resumed
    checkpoint spans and the cold (no-candidates) ``FrontierIndex``
    scan.  ``base_row`` is the global 0-based row of ``capacity[0]``.
    """
    return local_frontier(capacity, unit_cost / capacity) + base_row


def frontier_candidates_from_values(capacity: np.ndarray,
                                    unit_cost: np.ndarray,
                                    base_row: int = 0,
                                    *, chunk_size: int) -> np.ndarray:
    """Candidate rows of a whole value range, chunk by chunk.

    The chunk grid does not affect the final merged frontier (see the
    module docstring), so callers may pass any positive ``chunk_size``.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    total = capacity.size
    parts = [
        chunk_frontier_candidates(capacity[s:min(s + chunk_size, total)],
                                  unit_cost[s:min(s + chunk_size, total)],
                                  base_row + s)
        for s in range(0, total, chunk_size)
    ]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)
