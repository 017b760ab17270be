"""Algorithm 1 — resource configuration selection.

Enumerate every configuration, predict its time and cost, keep those with
``T < T'`` and ``C < C'``, and pass the survivors through the
Pareto-optimal filter.  Because the whole space is explored, *all*
optimal configurations are found (the paper's exhaustiveness guarantee).

Two execution strategies produce identical results:

* **streamed** — one pass over the space in chunks: each chunk
  contributes its feasible count and its local Pareto candidates; the
  candidates are merged and re-filtered at the end (the Pareto set of a
  union is a subset of the union of per-chunk Pareto sets, so this is
  exact).  Needed whenever an ``exclude_mask`` carves arbitrary holes in
  the space.
* **indexed** — the demand-invariance fast path.  Predicted time
  ``D/U/3600`` and cost ``D·(C_u/U)/3600`` both scale linearly in the
  demand ``D``, so the Pareto-optimal *set of rows* is the same for every
  demand: it is the nondominated set over the demand-free pair
  ``(1/U, C_u/U)``.  :class:`FrontierIndex` precomputes that set once per
  :class:`SpaceEvaluation`; afterwards each query filters the (tiny)
  precomputed frontier by the constraints and counts feasibility with
  binary searches over a capacity-sorted block structure — O(|frontier| +
  √S·log S) instead of O(S).

Exactness across the two paths is bit-level, not just mathematical.
Both compute times as ``fl(fl(D/U)/3600)`` and costs as
``fl(fl(D·r)/3600)`` with ``r = fl(C_u/U)`` — the factored cost form
makes cost exactly monotone in ``r`` and time exactly monotone in ``U``
under IEEE rounding, so feasibility is exactly a capacity suffix
intersected with a ratio prefix.  The Pareto filter runs on the exact
pair ``(−U, r)`` in both paths (order-isomorphic to ``(T, C)`` for every
demand in real arithmetic, and immune to rounding collisions), so the
surviving rows coincide row-for-row.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.configspace import DEFAULT_CHUNK, ConfigurationSpace, SpaceEvaluation
from repro.core.sweepkernel import frontier_candidates_from_values, local_frontier
from repro.errors import ValidationError
from repro.pareto.frontier import pareto_mask_2d
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "ParetoPoint",
    "SelectionResult",
    "FrontierIndex",
    "select_configurations",
    "select_configurations_batch",
]

#: Rows per block of the feasibility-count structure (√S-ish for the
#: paper's space; a single block for small spaces).
DEFAULT_FEASIBILITY_BLOCK = 4096

#: Bit pattern of +inf: every non-negative double's pattern lies in
#: ``[0, _INF_BITS]`` and orders the same way as its value.
_INF_BITS = 0x7FF0000000000000


def _double_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bits_from_double(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


@dataclass(frozen=True, slots=True)
class ParetoPoint:
    """One Pareto-optimal configuration with its predictions."""

    configuration: tuple[int, ...]
    time_hours: float
    cost_dollars: float
    capacity_gips: float
    unit_cost_per_hour: float


@dataclass(frozen=True)
class SelectionResult:
    """Output of Algorithm 1 for one (application run, deadline, budget)."""

    demand_gi: float
    deadline_hours: float
    budget_dollars: float
    total_configurations: int
    feasible_count: int
    pareto: tuple[ParetoPoint, ...]

    @property
    def pareto_count(self) -> int:
        """Number of Pareto-optimal configurations."""
        return len(self.pareto)

    @property
    def cost_span(self) -> tuple[float, float]:
        """(min, max) cost across the Pareto frontier."""
        if not self.pareto:
            raise ValidationError("no Pareto points: selection was infeasible")
        costs = [p.cost_dollars for p in self.pareto]
        return min(costs), max(costs)

    @property
    def max_saving_fraction(self) -> float:
        """Cost saved choosing the cheapest frontier point vs the dearest.

        The paper's Observation 1 headline: up to ~30% for galaxy
        (frontier spans $126–$167 → 1 − 126/167 ≈ 0.25, "up to 30%").
        """
        lo, hi = self.cost_span
        return 1.0 - lo / hi

    def cheapest(self) -> ParetoPoint:
        """The minimum-cost Pareto point."""
        if not self.pareto:
            raise ValidationError("no Pareto points: selection was infeasible")
        return min(self.pareto, key=lambda p: p.cost_dollars)

    def fastest(self) -> ParetoPoint:
        """The minimum-time Pareto point."""
        if not self.pareto:
            raise ValidationError("no Pareto points: selection was infeasible")
        return min(self.pareto, key=lambda p: p.time_hours)


def _validate_query(demand_gi: float, deadline_hours: float,
                    budget_dollars: float) -> None:
    if demand_gi <= 0:
        raise ValidationError("demand must be positive")
    if deadline_hours <= 0 or budget_dollars <= 0:
        raise ValidationError("deadline and budget must be positive")


def _materialize(
    evaluation: SpaceEvaluation,
    all_t: np.ndarray,
    all_c: np.ndarray,
    all_rows: np.ndarray,
    epsilons: tuple[float, float] | None,
) -> list[ParetoPoint]:
    """Order the surviving frontier, optionally ε-thin it, build the points.

    Shared verbatim by the streamed and indexed paths so ordering,
    ε-filtering and decoding are identical: inputs arrive in ascending
    evaluation-row order, output is sorted by time (stable, so ties keep
    row order), and all configurations decode in one vectorized call.
    """
    if all_rows.size == 0:
        return []
    if epsilons is not None:
        from repro.pareto.epsilon import eps_sort

        points = np.column_stack([all_t, all_c])
        _, kept_tags = eps_sort(points, epsilons=list(epsilons),
                                tags=list(range(all_t.size)))
        eps_mask = np.zeros(all_t.size, dtype=bool)
        eps_mask[np.asarray(kept_tags, dtype=np.int64)] = True
        all_t, all_c, all_rows = all_t[eps_mask], all_c[eps_mask], \
            all_rows[eps_mask]
    order = np.argsort(all_t, kind="stable")
    sel_t = all_t[order]
    sel_c = all_c[order]
    sel_rows = all_rows[order]
    matrix = evaluation.configurations_at(sel_rows)
    capacity = evaluation.capacity_gips
    unit_cost = evaluation.unit_cost_per_hour
    return [
        ParetoPoint(
            configuration=tuple(int(v) for v in matrix[k]),
            time_hours=float(sel_t[k]),
            cost_dollars=float(sel_c[k]),
            capacity_gips=float(capacity[row]),
            unit_cost_per_hour=float(unit_cost[row]),
        )
        for k, row in enumerate(sel_rows.tolist())
    ]


class FrontierIndex:
    """Demand-invariant Algorithm-1 accelerator over one evaluation.

    Holds two artefacts:

    * ``frontier_rows`` — the nondominated rows over ``(−U, C_u/U)``,
      which *is* the Pareto frontier for every demand (see module
      docstring).  A query keeps the rows meeting ``T < T'`` and
      ``C < C'``; the restriction is exact because any dominator of a
      feasible point is itself feasible (both objectives only improve).
      When the evaluation came from a fused sweep its harvested
      candidates are merged directly (a few hundred rows); otherwise one
      prefiltered pass over the value arrays recovers them.
    * the feasibility structure: the capacity order, the ratios in that
      order, and the same ratios sorted inside fixed-size blocks —
      ``feasible_count`` then needs one binary search for the capacity
      cutoff, one data-free bisection for the ratio cutoff, and one
      ``searchsorted`` per block instead of an O(S) chunk loop.  Built
      lazily on first use (one S-length argsort plus the per-block
      sorts), or rehydrated from a persisted snapshot via
      :meth:`from_arrays` without any sort.
    """

    def __init__(self, evaluation: SpaceEvaluation,
                 *, chunk_size: int = DEFAULT_CHUNK,
                 block_size: int = DEFAULT_FEASIBILITY_BLOCK,
                 candidates: np.ndarray | None = None):
        if block_size < 1:
            raise ValidationError("block size must be >= 1")
        self.evaluation = evaluation
        self._block_size = block_size
        capacity = evaluation.capacity_gips
        unit_cost = evaluation.unit_cost_per_hour

        # Demand-invariant frontier: chunked local Pareto + exact merge,
        # the same idiom the streamed path uses per query.  A fused sweep
        # hands its harvested candidates in; otherwise one prefiltered
        # pass over the value arrays recovers them.  Either way
        # the final merge yields the identical frontier (the Pareto set
        # of any candidate superset of the frontier is the frontier).
        from repro.obs.trace import get_tracer

        fused = candidates is not None
        with get_tracer().span("frontier.build",
                               {"fused": fused}) as span:
            if candidates is None:
                candidates = frontier_candidates_from_values(
                    capacity, unit_cost, chunk_size=chunk_size)
            rows = np.asarray(candidates, dtype=np.int64)
            cand_capacity = capacity[rows]
            cand_ratio = unit_cost[rows] / cand_capacity
            final = pareto_mask_2d(-cand_capacity, cand_ratio)
            self.frontier_rows = rows[final]  # ascending row order
            self._frontier_capacity = cand_capacity[final]
            self._frontier_ratio = cand_ratio[final]
            span.set_attribute("candidates", int(rows.size))
            span.set_attribute("frontier", int(self.frontier_rows.size))

        # The feasibility-count structure (one S-length argsort plus the
        # per-block sorts) is built lazily on the first
        # ``feasible_count`` — frontier-only consumers and snapshot
        # stores that load it from disk never pay the sorts.
        self._capacity_order: np.ndarray | None = None
        self._ratio_by_capacity: np.ndarray | None = None
        self._ratio_blocks: np.ndarray | None = None

    @classmethod
    def from_arrays(cls, evaluation: SpaceEvaluation, *,
                    frontier_rows: np.ndarray,
                    capacity_order: np.ndarray,
                    ratio_by_capacity: np.ndarray,
                    ratio_blocks: np.ndarray,
                    block_size: int) -> "FrontierIndex":
        """Rehydrate an index from persisted (typically mmap'd) arrays.

        No pass over the space and no sorts: the frontier's capacity and
        ratio vectors are tiny gathers from the evaluation arrays, and
        the feasibility structure arrives prebuilt — this is the
        millisecond warm-start path behind
        :meth:`repro.cache.EvaluationCache.load_index`.  Callers are
        responsible for validating shapes/keys (the cache does).
        """
        index = cls.__new__(cls)
        index.evaluation = evaluation
        index._block_size = int(block_size)
        index.frontier_rows = np.asarray(frontier_rows, dtype=np.int64)
        capacity = evaluation.capacity_gips
        index._frontier_capacity = capacity[index.frontier_rows]
        index._frontier_ratio = \
            evaluation.unit_cost_per_hour[index.frontier_rows] \
            / index._frontier_capacity
        index._capacity_order = capacity_order
        index._ratio_by_capacity = ratio_by_capacity
        index._ratio_blocks = ratio_blocks
        return index

    def ensure_feasibility(self) -> None:
        """Build the feasibility-count structure if not yet present.

        Idempotent; called automatically by :meth:`feasible_count` and
        eagerly by snapshot stores (the sorts must exist to persist).
        Keeps three arrays: the evaluation's capacity order, the ratios
        in that order, and those ratios sorted within each block.
        """
        if self._capacity_order is not None:
            return
        evaluation = self.evaluation
        total = evaluation.space.size
        order = evaluation.capacity_order()
        ratio_by_capacity = evaluation.cost_ratio()[order]
        block_size = self._block_size
        n_blocks = -(-total // block_size)
        padded = np.full(n_blocks * block_size, np.inf)
        padded[:total] = ratio_by_capacity
        ratio_blocks = padded.reshape(n_blocks, block_size)
        ratio_blocks.sort(axis=1)
        self._ratio_by_capacity = ratio_by_capacity
        self._ratio_blocks = ratio_blocks
        # Published LAST: concurrent callers (the service computes
        # batches on executor threads) gate on this attribute, so every
        # other array must be visible before it is.  A racing duplicate
        # build is benign — the inputs are deterministic, so both builds
        # produce identical arrays.
        self._capacity_order = order

    @property
    def block_size(self) -> int:
        """Rows per block of the feasibility-count structure."""
        return self._block_size

    @property
    def frontier_size(self) -> int:
        """Number of rows on the demand-invariant frontier."""
        return int(self.frontier_rows.size)

    # -- exact feasibility cutoffs ---------------------------------------------

    def _capacity_cutoff(self, demand_gi: float, deadline_hours: float) -> int:
        """First capacity-sorted position whose predicted time beats ``T'``.

        ``fl(fl(D/U)/3600)`` is monotone non-increasing in ``U`` (IEEE
        division is monotone), so the feasible set is exactly the suffix
        from this position; the binary search evaluates the *same*
        floating-point predicate the streamed path applies elementwise.
        """
        capacity = self.evaluation.capacity_gips
        order = self._capacity_order
        lo, hi = 0, order.size
        while lo < hi:
            mid = (lo + hi) // 2
            if demand_gi / capacity.item(order.item(mid)) / SECONDS_PER_HOUR \
                    < deadline_hours:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @staticmethod
    def _ratio_cutoff(demand_gi: float, budget_dollars: float) -> float:
        """Smallest non-negative double whose predicted cost reaches ``C'``.

        ``fl(fl(D·r)/3600)`` is monotone non-decreasing in ``r``, so a row
        is cost-feasible iff its ratio is strictly below the returned
        value.  Non-negative doubles order like their bit patterns, so
        the cutoff is a bisection over patterns in ``[0, +inf]`` (no data
        touched); the predicate fails at ``+inf``.  The real-valued
        threshold ``C'·3600/D`` lands a few ulps from the cutoff, so a
        bracket around it usually leaves four steps instead of 64.
        """
        def feasible(bits: int) -> bool:
            return demand_gi * _double_from_bits(bits) / SECONDS_PER_HOUR \
                < budget_dollars

        lo, hi = 0, _INF_BITS
        guess = _bits_from_double(budget_dollars * SECONDS_PER_HOUR
                                  / demand_gi)
        below, above = max(guess - 8, lo), min(guess + 8, hi)
        if feasible(below):
            lo = below + 1
        if not feasible(above):
            hi = above
        while lo < hi:
            mid = (lo + hi) // 2
            if feasible(mid):
                lo = mid + 1
            else:
                hi = mid
        return _double_from_bits(lo)

    def feasible_count(self, demand_gi: float, deadline_hours: float,
                       budget_dollars: float) -> int:
        """How many configurations satisfy ``T < T'`` and ``C < C'``.

        Exactly equal to the streamed count: the two cutoffs reduce the
        conjunction to "capacity-suffix AND ratio < cutoff", counted with
        one partial-block scan plus one ``searchsorted`` per full block.
        """
        _validate_query(demand_gi, deadline_hours, budget_dollars)
        self.ensure_feasibility()
        p = self._capacity_cutoff(demand_gi, deadline_hours)
        total = self._capacity_order.size
        if p >= total:
            return 0
        r_cut = self._ratio_cutoff(demand_gi, budget_dollars)
        block = self._block_size
        first_full = -(-p // block)  # first block fully inside the suffix
        head_stop = min(first_full * block, total)
        count = int(np.count_nonzero(self._ratio_by_capacity[p:head_stop]
                                     < r_cut))
        blocks = self._ratio_blocks
        for b in range(first_full, blocks.shape[0]):
            count += int(np.searchsorted(blocks[b], r_cut, side="left"))
        return count

    # -- the fast path ----------------------------------------------------------

    def select(self, demand_gi: float, deadline_hours: float,
               budget_dollars: float,
               *, epsilons: tuple[float, float] | None = None
               ) -> SelectionResult:
        """Algorithm 1 via the precomputed index (no pass over the space)."""
        _validate_query(demand_gi, deadline_hours, budget_dollars)
        times = demand_gi / self._frontier_capacity / SECONDS_PER_HOUR
        costs = demand_gi * self._frontier_ratio / SECONDS_PER_HOUR
        keep = (times < deadline_hours) & (costs < budget_dollars)
        pareto_points = _materialize(
            self.evaluation, times[keep], costs[keep],
            self.frontier_rows[keep], epsilons,
        )
        return SelectionResult(
            demand_gi=demand_gi,
            deadline_hours=deadline_hours,
            budget_dollars=budget_dollars,
            total_configurations=self.evaluation.space.size,
            feasible_count=self.feasible_count(demand_gi, deadline_hours,
                                               budget_dollars),
            pareto=tuple(pareto_points),
        )

    def select_batch(
        self,
        demands_gi: "np.ndarray | Sequence[float]",
        deadlines_hours: "np.ndarray | Sequence[float]",
        budgets_dollars: "np.ndarray | Sequence[float]",
        *,
        epsilons: tuple[float, float] | None = None,
    ) -> list[SelectionResult]:
        """Algorithm 1 for many (demand, deadline, budget) queries at once.

        One vectorized pass computes every query's frontier times, costs
        and feasibility mask as 2-D ``(queries, frontier)`` arrays; only
        the per-query materialization loops in Python.  Division and
        multiplication are applied elementwise under the same IEEE
        rounding as the scalar path, so each returned result is
        bit-identical to ``select(d, t, c)`` for the matching query —
        this is what lets the planning service coalesce concurrent
        requests without changing any answer.
        """
        demands = np.asarray(demands_gi, dtype=np.float64)
        deadlines = np.asarray(deadlines_hours, dtype=np.float64)
        budgets = np.asarray(budgets_dollars, dtype=np.float64)
        if not (demands.ndim == deadlines.ndim == budgets.ndim == 1) or \
                not (demands.shape == deadlines.shape == budgets.shape):
            raise ValidationError(
                "batch queries need equal-length 1-D demand, deadline and "
                "budget vectors"
            )
        for d, t, c in zip(demands, deadlines, budgets):
            _validate_query(float(d), float(t), float(c))
        times = demands[:, None] / self._frontier_capacity[None, :] \
            / SECONDS_PER_HOUR
        costs = demands[:, None] * self._frontier_ratio[None, :] \
            / SECONDS_PER_HOUR
        keep = (times < deadlines[:, None]) & (costs < budgets[:, None])
        results: list[SelectionResult] = []
        for q in range(demands.size):
            mask = keep[q]
            pareto_points = _materialize(
                self.evaluation, times[q][mask], costs[q][mask],
                self.frontier_rows[mask], epsilons,
            )
            results.append(SelectionResult(
                demand_gi=float(demands[q]),
                deadline_hours=float(deadlines[q]),
                budget_dollars=float(budgets[q]),
                total_configurations=self.evaluation.space.size,
                feasible_count=self.feasible_count(
                    float(demands[q]), float(deadlines[q]),
                    float(budgets[q])),
                pareto=tuple(pareto_points),
            ))
        return results


def select_configurations_batch(
    evaluation: SpaceEvaluation,
    demands_gi: "np.ndarray | Sequence[float]",
    deadlines_hours: "np.ndarray | Sequence[float]",
    budgets_dollars: "np.ndarray | Sequence[float]",
    *,
    epsilons: tuple[float, float] | None = None,
) -> list[SelectionResult]:
    """Batched Algorithm 1 over one evaluation (the service's entry point).

    Builds (or reuses) the evaluation's :class:`FrontierIndex` and answers
    all queries in one vectorized pass; results are bit-identical to
    calling :func:`select_configurations` once per query.
    """
    return evaluation.frontier_index().select_batch(
        demands_gi, deadlines_hours, budgets_dollars, epsilons=epsilons,
    )


def select_configurations(
    evaluation: SpaceEvaluation,
    demand_gi: float,
    deadline_hours: float,
    budget_dollars: float,
    *,
    chunk_size: int = DEFAULT_CHUNK,
    exclude_mask: np.ndarray | None = None,
    epsilons: tuple[float, float] | None = None,
    method: str = "auto",
) -> SelectionResult:
    """Run Algorithm 1 against a precomputed space evaluation.

    Parameters
    ----------
    evaluation:
        ``U_j`` / ``C_{j,u}`` for the whole space
        (from :meth:`ConfigurationSpace.evaluate`).
    demand_gi:
        Application resource demand ``D_{P(n,a)}`` in GI.
    deadline_hours, budget_dollars:
        The constraints ``T'`` and ``C'`` (strict, per Algorithm 1).
    exclude_mask:
        Optional boolean array over the space (row ``r`` ↔ linear index
        ``r + 1``); ``True`` rows are treated as infeasible regardless of
        time and cost — used for memory-feasibility and similar hard
        constraints (see :meth:`ConfigurationSpace.mask_using_types`).
        Forces the streamed path.
    epsilons:
        Optional ``(time_hours, cost_dollars)`` box sizes for an
        ε-nondomination final filter — the paper's actual pareto.py
        configuration, thinning near-duplicate frontier points.  ``None``
        keeps exact nondomination.
    method:
        ``"streamed"`` forces the exact one-pass scan, ``"indexed"``
        forces the demand-invariant fast path (building the
        :class:`FrontierIndex` on first use; incompatible with
        ``exclude_mask``), and ``"auto"`` uses the index when the
        evaluation already carries one and streams otherwise.

    Returns
    -------
    SelectionResult
        Feasibility counts and the cost-time Pareto frontier; an empty
        ``pareto`` list means no configuration satisfies both bounds.

    Raises
    ------
    ValidationError
        If ``method`` names an unknown strategy, ``"indexed"`` is
        combined with ``exclude_mask`` (hard constraints require the
        streamed scan), or any of demand/deadline/budget is not
        positive.
    """
    if method not in ("auto", "streamed", "indexed"):
        raise ValidationError(
            f"method must be 'auto', 'streamed' or 'indexed', got {method!r}"
        )
    if method == "indexed" and exclude_mask is not None:
        raise ValidationError(
            "the indexed fast path cannot honour exclude_mask; "
            "use method='streamed' (or 'auto')"
        )
    _validate_query(demand_gi, deadline_hours, budget_dollars)

    use_index = method == "indexed" or (
        method == "auto" and exclude_mask is None
        and evaluation.has_frontier_index()
    )
    if use_index:
        return evaluation.frontier_index().select(
            demand_gi, deadline_hours, budget_dollars, epsilons=epsilons,
        )

    space: ConfigurationSpace = evaluation.space
    total = space.size
    if exclude_mask is not None and exclude_mask.shape != (total,):
        raise ValidationError("exclude_mask must cover the whole space")
    feasible_count = 0
    cand_index: list[np.ndarray] = []

    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        capacity = evaluation.capacity_gips[start:stop]
        unit_cost = evaluation.unit_cost_per_hour[start:stop]
        ratio = unit_cost / capacity
        times = demand_gi / capacity / SECONDS_PER_HOUR
        costs = demand_gi * ratio / SECONDS_PER_HOUR
        mask = (times < deadline_hours) & (costs < budget_dollars)
        if exclude_mask is not None:
            mask &= ~exclude_mask[start:stop]
        n_feasible = int(np.count_nonzero(mask))
        feasible_count += n_feasible
        if n_feasible == 0:
            continue
        rows = np.flatnonzero(mask)
        local = local_frontier(capacity[rows], ratio[rows])
        cand_index.append(rows[local] + start)

    pareto_points: list[ParetoPoint] = []
    if cand_index:
        all_rows = np.concatenate(cand_index)
        all_capacity = evaluation.capacity_gips[all_rows]
        all_ratio = evaluation.unit_cost_per_hour[all_rows] / all_capacity
        final = pareto_mask_2d(-all_capacity, all_ratio)
        sel_rows = all_rows[final]
        all_t = demand_gi / all_capacity[final] / SECONDS_PER_HOUR
        all_c = demand_gi * all_ratio[final] / SECONDS_PER_HOUR
        pareto_points = _materialize(evaluation, all_t, all_c, sel_rows,
                                     epsilons)

    return SelectionResult(
        demand_gi=demand_gi,
        deadline_hours=deadline_hours,
        budget_dollars=budget_dollars,
        total_configurations=total,
        feasible_count=feasible_count,
        pareto=tuple(pareto_points),
    )
