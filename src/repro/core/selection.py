"""Algorithm 1 — resource configuration selection.

Enumerate every configuration, predict its time and cost, keep those with
``T < T'`` and ``C < C'``, and pass the survivors through the
Pareto-optimal filter.  *All* optimal configurations are found (the
paper's exhaustiveness guarantee) — by an exhaustive scan, or by an
exact argument that rules whole groups of configurations in or out.

Three execution strategies produce identical results:

* **streamed** — one pass over a :class:`SpaceEvaluation` in chunks:
  each chunk contributes its feasible count and its local Pareto
  candidates; the candidates are merged and re-filtered at the end (the
  Pareto set of a union is a subset of the union of per-chunk Pareto
  sets, so this is exact).  The paper-faithful oracle, and the only
  strategy that honours an arbitrary ``exclude_mask``.
* **indexed** — the demand-invariance fast path over an evaluation.
  Predicted time ``D/U/3600`` and cost ``D·(C_u/U)/3600`` both scale
  linearly in the demand ``D``, so the Pareto-optimal *set of rows* is
  the same for every demand: it is the nondominated set over the
  demand-free pair ``(1/U, C_u/U)``.  :class:`FrontierIndex` precomputes
  that set once per evaluation; afterwards each query filters the
  (tiny) frontier by the constraints and counts feasibility with binary
  searches over a capacity-sorted block structure.
* **structured** — :class:`StructuredIndex`, the answer path of
  :class:`~repro.core.celia.Celia` and the planning service.  It needs
  no evaluation at all: ``U = m·W`` (Eq. 3) and ``P = m·p`` (Eq. 6) are
  sums over instance types, so the frontier comes from a pruned
  per-type Minkowski sum and the feasible count from a meet in the
  middle over two halves of the catalog.

Exactness across the paths is bit-level, not just mathematical.  Every
``U`` and ``P`` is the canonical left-to-right sum of
:mod:`repro.core.sweepkernel` (``acc = fl(acc + fl(m_i·W_i))``), a
function of the configuration alone.  All paths compute times as
``fl(fl(D/U)/3600)`` and costs as ``fl(fl(D·r)/3600)`` with
``r = fl(C_u/U)`` — the factored cost form makes cost exactly monotone
in ``r`` and time exactly monotone in ``U`` under IEEE rounding, so
feasibility is exactly ``U ≥ u_cut`` and ``r < r_cut`` for two
per-query doubles found by bisection over bit patterns.  The Pareto
filter runs on the exact pair ``(−U, r)`` (order-isomorphic to
``(T, C)`` for every demand in real arithmetic, and immune to rounding
collisions), so the surviving rows coincide row-for-row.

Why the structured path is exact
--------------------------------
Write ``M`` for the number of catalog types, ``U*``/``P*`` for the
largest sums (those of the configuration with every quota full: the
canonical sum is monotone in each node count) and ``ε = 2⁻⁵²``.  One
canonical addition rounds by at most ``ε·U*/2``, so a sum continued
from a partial value over the remaining types differs from the partial
plus the exact sum of the remaining terms by at most ``M·ε·U*/2`` — and
the terms ``fl(m·W_i)`` themselves are identical for any two sums that
share the remaining node counts.  The slack is ``δ_U = M·2⁻⁴⁴·U*``
(``δ_P`` alike), 256 times the per-type bound, so it also absorbs the
roundings of computing the thresholds themselves.

*Frontier.*  After each type the partial sums (every digit combination
of the types so far) are pruned: a partial ``a`` is dropped when some
partial ``b`` has ``U_b ≥ U_a + δ_U`` and ``P_b ≤ P_a − δ_P``.  Extend
both by the same remaining node counts: ``b``'s sum ends with strictly
greater ``U`` and strictly smaller ``P``, so ``r_b ≤ r_a`` after the
(monotone) rounded division — ``b`` strictly dominates ``a`` over
``(−U, r)``, and no completion of ``a`` is on the frontier.  (``b``'s
completion is never the empty configuration: ``U_b ≥ δ_U > 0``.)  The
survivors are therefore a superset of the frontier, their values are
exactly the canonical sums (each step is ``fl(partial + term)``), and
the exact ``pareto_mask_2d`` over them returns the frontier itself —
the Pareto set of any superset of the frontier is the frontier.  At
the paper's quota 5 no intermediate set exceeds a few hundred rows.

*Count.*  The first ``k`` types form the left half ``L`` and the rest
the right half ``R`` (1,296 × 7,776 half-sums for the paper's catalog).
A configuration is a pair ``(l, r)``; its canonical ``U`` continues
``U_l`` over ``r``'s types, so ``|U − (U_l + U_r)| ≤ M·ε·U*`` and the
same for ``P``.  With ``V = P − r_cut·U`` and the slack
``δ_V = M·2⁻⁴⁴·(P* + r_cut·U*)``:

* ``U_l + U_r ≥ u_cut + δ_U`` makes the pair certainly time-feasible,
  ``U_l + U_r < u_cut − δ_U`` certainly not;
* ``V_l + V_r < −δ_V`` gives ``P/U < r_cut·(1 − 2⁻⁵¹)``, below the
  double before ``r_cut``, so ``fl(P/U) < r_cut`` — certainly
  cost-feasible; ``V_l + V_r ≥ δ_V`` gives ``P/U > r_cut`` — certainly
  not.

The certain pairs are a 2-D dominance count — ``R`` sorted by ``U``
once, ``V`` sorted inside blocks per query, one vectorized
``searchsorted`` per block.  Every pair in the band between the two
bounds of either test is summed in full and checked with the exact
predicates ``fl(fl(D/U)/3600) < T'`` and ``fl(fl(D·r)/3600) < C'``.
The band is empty for almost every query; a band of more than
``_BAND_LIMIT`` pairs falls back to the exhaustive count.  A cutoff
beyond the space (``u_cut > U*``, ``r_cut = 0``, or ``r_cut`` above the
largest per-type ratio, which bounds every sum's ratio) is decided
without the tables.
"""

from __future__ import annotations

import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.capacity import capacity_per_type
from repro.core.configspace import DEFAULT_CHUNK, ConfigurationSpace, SpaceEvaluation
from repro.core.sweepkernel import (
    canonical_sums,
    frontier_candidates_from_values,
    local_frontier,
    outer_sums,
)
from repro.errors import ValidationError
from repro.obs.trace import get_tracer
from repro.pareto.epsilon import eps_sort
from repro.pareto.frontier import pareto_mask_2d
from repro.units import SECONDS_PER_HOUR

__all__ = [
    "FrontierSlice",
    "ParetoPoint",
    "SelectionResult",
    "FrontierIndex",
    "StructuredIndex",
    "select_configurations",
    "select_configurations_batch",
]

#: Rows per block of the feasibility-count structure (√S-ish for the
#: paper's space; a single block for small spaces).
DEFAULT_FEASIBILITY_BLOCK = 4096

#: Slack of the structured path per catalog type, relative to the
#: largest value a sum (or ``V``) can take: ``δ = M · _SLACK · max``.
#: 2⁻⁴⁴ is 256 ulps of that maximum per type, far above every rounding
#: the exactness argument (module docstring) has to absorb.
_SLACK = 2.0 ** -44

#: Band pairs the structured count resolves one by one; a larger band
#: falls back to the exhaustive scan.
_BAND_LIMIT = 1 << 16

#: Positions per block of the structured count's ``V`` structure.
_HALF_BLOCK = 64

#: Bit pattern of +inf: every non-negative double's pattern lies in
#: ``[0, _INF_BITS]`` and orders the same way as its value.
_INF_BITS = 0x7FF0000000000000


def _double_from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _bits_from_double(value: float) -> int:
    return struct.unpack("<q", struct.pack("<d", value))[0]


def _first_double(holds: "Callable[[float], bool]", guess: float) -> float:
    """Smallest double in ``[0, +inf]`` at which ``holds`` is true.

    ``holds`` must be monotone (false, then true) over non-negative
    doubles; ``+inf`` is returned when it holds nowhere below.
    Non-negative doubles order like their bit patterns, so this is a
    bisection over patterns (no data touched).  The real-valued
    threshold ``guess`` lands a few ulps from the answer, so a bracket
    around it usually leaves four steps instead of 64.
    """
    def at(bits: int) -> bool:
        return holds(_double_from_bits(bits))

    lo, hi = 0, _INF_BITS
    guess_bits = _bits_from_double(guess)
    below, above = max(guess_bits - 8, lo), min(guess_bits + 8, hi)
    if not at(below):
        lo = below + 1
    if at(above):
        hi = above
    while lo < hi:
        mid = (lo + hi) // 2
        if at(mid):
            hi = mid
        else:
            lo = mid + 1
    return _double_from_bits(lo)


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


class FrontierSlice(NamedTuple):
    """One query's answer as positions on the demand-invariant frontier.

    Everything of a :class:`SelectionResult` that depends on the query:
    ``positions`` index the index's frontier arrays (``frontier_rows``
    and its capacity/unit-cost vectors) in the answer's time order, and
    ``times``/``costs`` are the predictions at those positions, in the
    same order.  The configurations, capacities and unit costs behind
    the positions never change, so a caller can encode them once per
    index (:class:`repro.service.serialize.SelectionEncoder`).
    """

    demand_gi: float
    deadline_hours: float
    budget_dollars: float
    feasible_count: int
    positions: np.ndarray
    times: np.ndarray
    costs: np.ndarray


def _time_order(times: np.ndarray, costs: np.ndarray,
                epsilons: tuple[float, float] | None) -> np.ndarray:
    """Positions of the surviving points, sorted by time.

    Shared by every path so ordering and ε-filtering are identical:
    inputs arrive in ascending evaluation-row order, ``epsilons`` first
    ε-thins them (the filter sees that order), and the sort is stable,
    so ties on time keep row order.
    """
    kept = np.arange(times.size)
    if epsilons is not None and times.size:
        _, kept_tags = eps_sort(np.column_stack([times, costs]),
                                epsilons=list(epsilons),
                                tags=list(range(times.size)))
        kept = np.sort(np.asarray(kept_tags, dtype=np.int64))
    return kept[np.argsort(times[kept], kind="stable")]


def _points(space: ConfigurationSpace, rows: np.ndarray, times: np.ndarray,
            costs: np.ndarray, capacity: np.ndarray,
            unit_cost: np.ndarray) -> tuple[ParetoPoint, ...]:
    """Build the points of an ordered frontier.

    All configurations decode in one vectorized call, and each array
    converts to Python values with one ``tolist()`` (the same ints and
    floats as per-element ``int()``/``float()``).
    """
    return tuple(
        ParetoPoint(configuration=tuple(config), time_hours=t,
                    cost_dollars=c, capacity_gips=u, unit_cost_per_hour=p)
        for config, t, c, u, p in zip(
            space.decode(rows + 1).tolist(), times.tolist(), costs.tolist(),
            capacity.tolist(), unit_cost.tolist())
    )


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
        self.space = evaluation.space
        self._block_size = block_size
        capacity = evaluation.capacity_gips
        unit_cost = evaluation.unit_cost_per_hour

        # Demand-invariant frontier: chunked local Pareto + exact merge,
        # the same idiom the streamed path uses per query.  A fused sweep
        # hands its harvested candidates in; otherwise one prefiltered
        # pass over the value arrays recovers them.  Either way
        # the final merge yields the identical frontier (the Pareto set
        # of any candidate superset of the frontier is the frontier).
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
            self._frontier_unit_cost = unit_cost[self.frontier_rows]
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
        index.space = evaluation.space
        index._block_size = int(block_size)
        index.frontier_rows = np.asarray(frontier_rows, dtype=np.int64)
        index._frontier_capacity = \
            evaluation.capacity_gips[index.frontier_rows]
        index._frontier_unit_cost = \
            evaluation.unit_cost_per_hour[index.frontier_rows]
        index._frontier_ratio = \
            index._frontier_unit_cost / index._frontier_capacity
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
    def frontier_capacity(self) -> np.ndarray:
        """``U`` (GIPS) of each frontier row, aligned with ``frontier_rows``."""
        return self._frontier_capacity

    @property
    def frontier_unit_cost(self) -> np.ndarray:
        """``C_u`` ($/h) of each frontier row, aligned with ``frontier_rows``."""
        return self._frontier_unit_cost

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
        value (``+inf`` when every finite ratio is).
        """
        return _first_double(
            lambda r: not demand_gi * r / SECONDS_PER_HOUR < budget_dollars,
            budget_dollars * SECONDS_PER_HOUR / demand_gi)

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
        (answer,) = self.slices([demand_gi], [deadline_hours],
                                [budget_dollars], epsilons=epsilons)
        return self.materialize(answer._replace(
            demand_gi=demand_gi, deadline_hours=deadline_hours,
            budget_dollars=budget_dollars))

    def select_batch(
        self,
        demands_gi: "np.ndarray | Sequence[float]",
        deadlines_hours: "np.ndarray | Sequence[float]",
        budgets_dollars: "np.ndarray | Sequence[float]",
        *,
        epsilons: tuple[float, float] | None = None,
    ) -> list[SelectionResult]:
        """Algorithm 1 for many (demand, deadline, budget) queries at once.

        Each result is bit-identical to ``select(d, t, c)`` for the
        matching query — this is what lets the planning service coalesce
        concurrent requests without changing any answer.
        """
        return [self.materialize(answer) for answer in
                self.slices(demands_gi, deadlines_hours, budgets_dollars,
                            epsilons=epsilons)]

    def slices(
        self,
        demands_gi: "np.ndarray | Sequence[float]",
        deadlines_hours: "np.ndarray | Sequence[float]",
        budgets_dollars: "np.ndarray | Sequence[float]",
        *,
        epsilons: tuple[float, float] | None = None,
    ) -> list[FrontierSlice]:
        """The demand-dependent half of Algorithm 1, for a batch.

        One vectorized pass computes every query's frontier times, costs
        and feasibility mask (the strict ``T < T'`` and ``C < C'``) as
        2-D ``(queries, frontier)`` arrays, under the same IEEE rounding
        as elementwise scalar code; only the per-query time order and
        feasible count loop in Python.  :meth:`materialize` turns a
        slice into its :class:`SelectionResult`.
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
        slices = []
        for q in range(demands.size):
            kept = np.flatnonzero(keep[q])
            kept_times, kept_costs = times[q][kept], costs[q][kept]
            order = _time_order(kept_times, kept_costs, epsilons)
            d, t, c = (float(demands[q]), float(deadlines[q]),
                       float(budgets[q]))
            slices.append(FrontierSlice(
                d, t, c, self.feasible_count(d, t, c), kept[order],
                kept_times[order], kept_costs[order]))
        return slices

    def materialize(self, answer: FrontierSlice) -> SelectionResult:
        """The :class:`SelectionResult` of one query's frontier slice."""
        at = answer.positions
        return SelectionResult(
            demand_gi=answer.demand_gi,
            deadline_hours=answer.deadline_hours,
            budget_dollars=answer.budget_dollars,
            total_configurations=self.space.size,
            feasible_count=answer.feasible_count,
            pareto=_points(self.space, self.frontier_rows[at], answer.times,
                           answer.costs, self._frontier_capacity[at],
                           self._frontier_unit_cost[at]),
        )


class StructuredIndex(FrontierIndex):
    """Algorithm 1 from the sum structure of Eq. 3 / Eq. 6, with no sweep.

    A :class:`FrontierIndex` whose two artefacts come from the per-type
    terms instead of an S-row evaluation (see the module docstring for
    the exactness argument):

    * the frontier — the per-type Minkowski sum of ``(U, P)``, pruned
      after each type with the slack ``δ``, then the exact
      ``pareto_mask_2d`` over ``(−U, C_u/U)`` on the survivors;
    * the feasible count — a meet in the middle over two halves of the
      catalog, whose tables are built on the first
      :meth:`feasible_count` (or by :meth:`ensure_feasibility`).

    ``excluded_types`` pins those types' node counts to zero (the
    memory constraint): the answer covers exactly the configurations
    that use none of them, rows stay full-space linear indices and
    ``total_configurations`` stays ``S``.  Every value is the canonical
    arithmetic of :mod:`repro.core.sweepkernel`, so answers are
    bit-identical to the streamed scan over a sweep.
    """

    def __init__(self, space: ConfigurationSpace,
                 capacities_gips: np.ndarray,
                 *, excluded_types: "Sequence[int]" = ()):
        weights = capacity_per_type(capacities_gips)
        if weights.size != len(space.catalog):
            raise ValidationError("one capacity per catalog type is needed")
        excluded = sorted({int(i) for i in excluded_types})
        if excluded and (excluded[0] < 0 or excluded[-1] >= weights.size):
            raise ValidationError("excluded type index out of range")
        self.space = space
        self._weights = weights
        self._prices = np.asarray(space.catalog.prices, dtype=np.float64)
        self._radices = space.radices.copy()
        self._radices[excluded] = 1
        top = (self._radices - 1)[None, :]
        # Sums are monotone in every node count, so the full
        # configuration holds the largest U and P of the (sub)space.
        self._u_max = float(canonical_sums(top, weights)[0])
        self._p_max = float(canonical_sums(top, self._prices)[0])
        used = self._radices > 1
        self._r_max = float(np.max(self._prices[used] / weights[used])) \
            if used.any() else 0.0
        self._slack = weights.size * _SLACK
        self._block_size = _HALF_BLOCK
        self._halves: "_Halves | None" = None
        with get_tracer().span("frontier.structured",
                               {"excluded": len(excluded)}) as span:
            codes, u, p = self._pruned_sum()
            ratio = p / u
            final = pareto_mask_2d(-u, ratio)
            order = np.argsort(codes[final])
            self.frontier_rows = codes[final][order] - 1
            self._frontier_capacity = u[final][order]
            self._frontier_unit_cost = p[final][order]
            self._frontier_ratio = ratio[final][order]
            span.set_attribute("candidates", int(codes.size))
            span.set_attribute("frontier", int(self.frontier_rows.size))

    def _sums(self, i: int, j: int, u: "np.ndarray | None" = None,
              p: "np.ndarray | None" = None):
        """``U``, ``P`` and linear-index codes of every digit combination
        of types ``i..j−1``, continuing the partial sums ``u``/``p``
        (``None``: from zero) and codes ``0``."""
        code = np.zeros(1, dtype=np.int64)
        for k in range(i, j):
            code = np.add.outer(
                code, np.arange(self._radices[k]) * self.space.strides[k]
            ).ravel()
        return (outer_sums(self._weights[i:j], self._radices[i:j], start=u),
                outer_sums(self._prices[i:j], self._radices[i:j], start=p),
                code)

    def _pruned_sum(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Codes, U and P of the non-empty sums that survive the prune."""
        du = self._slack * self._u_max
        dp = self._slack * self._p_max
        codes = np.zeros(1, dtype=np.int64)
        u = p = np.zeros(1)
        for i in range(self._weights.size):
            u, p, code = self._sums(i, i + 1, u, p)
            codes = np.add.outer(codes, code).ravel()
            keep = _slack_survivors(u, p, du, dp)
            codes, u, p = codes[keep], u[keep], p[keep]
        nonempty = codes > 0
        return codes[nonempty], u[nonempty], p[nonempty]

    # -- the feasible count ------------------------------------------------------

    def ensure_feasibility(self) -> None:
        """Build the two half tables of the count if not yet present.

        The first ``k`` catalog types form the left half and the rest
        the right half, with ``k`` the largest split whose left half is
        no bigger than the right; the right half is kept sorted by
        ``U``.  Idempotent, and published last like the parent's
        structure, so concurrent executor threads see either nothing or
        the complete tables.
        """
        if self._halves is not None:
            return
        m = self._radices.size
        sizes = np.cumprod(self._radices.astype(np.float64))
        k = int(np.searchsorted(sizes * sizes, sizes[-1], side="right"))
        left_u, left_p, left_code = self._sums(0, k)
        right_u, right_p, right_code = self._sums(k, m)
        order = np.argsort(right_u, kind="stable")
        self._halves = _Halves(left_u, left_p, left_code, right_u[order],
                               right_p[order], right_code[order])

    @staticmethod
    def _capacity_cutoff_value(demand_gi: float,
                               deadline_hours: float) -> float:
        """Smallest double ``U`` whose predicted time beats ``T'``.

        ``fl(fl(D/U)/3600)`` is monotone non-increasing in ``U``, so a
        row is time-feasible iff its capacity is at least the returned
        value (``+inf`` when no finite capacity is).
        """
        return _first_double(
            lambda u: u > 0 and demand_gi / u / SECONDS_PER_HOUR
            < deadline_hours,
            demand_gi / (deadline_hours * SECONDS_PER_HOUR))

    def feasible_count(self, demand_gi: float, deadline_hours: float,
                       budget_dollars: float) -> int:
        """How many configurations satisfy ``T < T'`` and ``C < C'``.

        Exactly the streamed count: certain pairs of half-sums are
        counted with one ``searchsorted`` per block, pairs inside the
        slack band are summed in full and tested with the exact
        predicates, and a band of more than :data:`_BAND_LIMIT` pairs
        falls back to the exhaustive count.
        """
        _validate_query(demand_gi, deadline_hours, budget_dollars)
        self.ensure_feasibility()
        u_cut = self._capacity_cutoff_value(demand_gi, deadline_hours)
        if u_cut > self._u_max:
            return 0
        r_cut = self._ratio_cutoff(demand_gi, budget_dollars)
        if r_cut == 0.0:
            return 0
        h = self._halves
        du = self._slack * self._u_max
        # Time: certain from position time_sure on, impossible before
        # time_band.
        time_sure = np.searchsorted(h.right_u, (u_cut + du) - h.left_u)
        time_band = np.searchsorted(h.right_u, (u_cut - du) - h.left_u)
        band = [_expand_ranges(time_band, time_sure)]
        n_band = int((time_sure - time_band).sum())
        if r_cut > self._r_max * (1.0 + self._slack):
            # Every ratio is below the cutoff: time alone decides.
            sure = int((h.right_u.size - time_sure).sum())
        else:
            dv = self._slack * (self._p_max + r_cut * self._u_max)
            left_v = h.left_p - r_cut * h.left_u
            right_v = h.right_p - r_cut * h.right_u
            cost_sure = -dv - left_v  # V_R below: certainly affordable
            cost_none = dv - left_v   # V_R at or above: certainly not
            sure = _count_below(right_v, time_sure, cost_sure)
            ordered = np.sort(right_v)
            lo = np.searchsorted(ordered, cost_sure)
            hi = np.searchsorted(ordered, cost_none)
            n_band += int((hi - lo).sum())
            if n_band <= _BAND_LIMIT and (hi > lo).any():
                owner, k = _expand_ranges(lo, hi)
                position = np.argsort(right_v, kind="stable")[k]
                in_time = position >= time_sure[owner]
                band.append((owner[in_time], position[in_time]))
        if n_band > _BAND_LIMIT:
            return self._exhaustive_count(demand_gi, deadline_hours,
                                          budget_dollars)
        left = np.concatenate([b[0] for b in band])
        if left.size == 0:
            return sure
        right = np.concatenate([b[1] for b in band])
        digits = self.space._decode_unchecked(h.left_code[left]
                                              + h.right_code[right])
        return sure + _count_feasible(
            canonical_sums(digits, self._weights),
            canonical_sums(digits, self._prices),
            demand_gi, deadline_hours, budget_dollars)

    def _exhaustive_count(self, demand_gi: float, deadline_hours: float,
                          budget_dollars: float) -> int:
        """The streamed count over the (sub)space, one first-type digit
        at a time: the fallback for an oversized band."""
        m = self._radices.size
        count = 0
        for u0, p0 in zip(*self._sums(0, 1)[:2]):
            capacity, unit_cost, _ = self._sums(1, m, [u0], [p0])
            count += _count_feasible(capacity, unit_cost, demand_gi,
                                     deadline_hours, budget_dollars)
        return count


def _count_feasible(capacity: np.ndarray, unit_cost: np.ndarray,
                    demand_gi: float, deadline_hours: float,
                    budget_dollars: float) -> int:
    """Rows meeting Algorithm 1's exact predicates (the empty
    configuration, ``U = 0``, never does)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        times = demand_gi / capacity / SECONDS_PER_HOUR
        costs = demand_gi * (unit_cost / capacity) / SECONDS_PER_HOUR
    return int(np.count_nonzero((times < deadline_hours)
                                & (costs < budget_dollars)))


def _slack_survivors(u: np.ndarray, p: np.ndarray, du: float,
                     dp: float) -> np.ndarray:
    """Mask of partial sums with no slack dominator.

    A partial ``a`` is dropped iff some ``b`` has ``U_b ≥ U_a + δ_U``
    and ``P_b ≤ P_a − δ_P``: one sort by ``U``, a suffix minimum of
    ``P`` and one ``searchsorted``.
    """
    order = np.argsort(u, kind="stable")
    us, ps = u[order], p[order]
    suffix_min = np.append(np.minimum.accumulate(ps[::-1])[::-1], np.inf)
    first = np.searchsorted(us, us + du, side="left")
    keep = np.ones(u.size, dtype=bool)
    keep[order[suffix_min[first] <= ps - dp]] = False
    return keep


class _Halves(NamedTuple):
    """Half-sum tables of :class:`StructuredIndex`'s count: every digit
    combination of the first types (``left_*``) and of the rest sorted
    by ``U`` (``right_*``); ``*_code`` are linear-index contributions."""

    left_u: np.ndarray
    left_p: np.ndarray
    left_code: np.ndarray
    right_u: np.ndarray
    right_p: np.ndarray
    right_code: np.ndarray


def _count_below(values: np.ndarray, start: np.ndarray,
                 limit: np.ndarray) -> int:
    """``Σ_L #{position ≥ start[L] : values[position] < limit[L]}``.

    Positions are cut into blocks of :data:`_HALF_BLOCK`, each sorted by
    value.  Block ``b`` is searched (one vectorized ``searchsorted``)
    only for the ``L`` whose suffix covers it whole; the partial head
    of each suffix is compared directly.
    """
    size, block = values.size, _HALF_BLOCK
    n_blocks = -(-size // block)
    padded = np.full((n_blocks + 1) * block, np.inf)
    padded[:size] = values
    blocks = np.sort(padded[:n_blocks * block].reshape(n_blocks, block),
                     axis=1)
    first_full = -(-start // block)
    by_first = np.argsort(first_full, kind="stable")
    covering = np.searchsorted(first_full[by_first], np.arange(n_blocks),
                               side="right")
    limits = limit[by_first]
    count = sum(int(np.searchsorted(blocks[b], limits[:covering[b]]).sum())
                for b in range(n_blocks))
    head = start[:, None] + np.arange(block)
    in_head = head < np.minimum(first_full * block, size)[:, None]
    return count + int(np.count_nonzero(in_head
                                        & (padded[head] < limit[:, None])))


def _expand_ranges(starts: np.ndarray,
                   stops: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(i, v)`` for every ``v`` in ``[starts[i], stops[i])``, by ``i``."""
    widths = stops - starts
    owner = np.repeat(np.arange(widths.size), widths)
    offsets = np.arange(owner.size) - np.repeat(np.cumsum(widths) - widths,
                                                widths)
    return owner, starts[owner] + offsets


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

    pareto_points: tuple[ParetoPoint, ...] = ()
    if cand_index:
        all_rows = np.concatenate(cand_index)
        all_capacity = evaluation.capacity_gips[all_rows]
        all_ratio = evaluation.unit_cost_per_hour[all_rows] / all_capacity
        final = pareto_mask_2d(-all_capacity, all_ratio)
        sel_rows = all_rows[final]
        all_t = demand_gi / all_capacity[final] / SECONDS_PER_HOUR
        all_c = demand_gi * all_ratio[final] / SECONDS_PER_HOUR
        order = _time_order(all_t, all_c, epsilons)
        sel_rows = sel_rows[order]
        pareto_points = _points(
            space, sel_rows, all_t[order], all_c[order],
            all_capacity[final][order],
            evaluation.unit_cost_per_hour[sel_rows])

    return SelectionResult(
        demand_gi=demand_gi,
        deadline_hours=deadline_hours,
        budget_dollars=budget_dollars,
        total_configurations=total,
        feasible_count=feasible_count,
        pareto=pareto_points,
    )
