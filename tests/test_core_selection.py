"""Tests for Algorithm 1 (feasibility + Pareto selection)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import make_catalog
from repro.core.configspace import ConfigurationSpace
from repro.core.selection import (
    select_configurations,
    select_configurations_batch,
)
from repro.errors import ValidationError
from repro.pareto.frontier import pareto_mask_2d
from tests.conftest import brute_force_space, canonical_sums_brute


def brute_force_selection(catalog, capacities, demand, deadline, budget):
    """Reference implementation of Algorithm 1 by direct enumeration.

    Sums use the canonical Eq. 3 / Eq. 6 arithmetic; times, costs and
    dominance use the library's canonical forms: ``T = fl(fl(D/U)/3600)``,
    ``C = fl(fl(D·r)/3600)`` with ``r = fl(C_u/U)``, and nondomination
    over the demand-free proxies ``(−U, r)`` — the exact real-arithmetic
    (time, cost) ordering.  Filtering rounded ``(T, C)`` values instead
    would occasionally collapse distinct configurations into spurious
    ties (e.g. capacities one summation-order ulp apart whose times round
    equal), making the "frontier" depend on rounding noise rather than
    on dominance.
    """
    configs = brute_force_space(catalog)
    capacity = canonical_sums_brute(configs, capacities)
    unit_cost = canonical_sums_brute(configs, catalog.prices)
    ratio = unit_cost / capacity
    times = demand / capacity / 3600.0
    costs = demand * ratio / 3600.0
    feasible = (times < deadline) & (costs < budget)
    f_configs = configs[feasible]
    mask = pareto_mask_2d(-capacity[feasible], ratio[feasible])
    return feasible.sum(), {tuple(c) for c in f_configs[mask]}


class TestSelection:
    def test_matches_brute_force(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities, chunk_size=4)
        demand = 50_000.0
        result = select_configurations(evaluation, demand, 5.0, 3.0,
                                       chunk_size=4)
        expected_count, expected_pareto = brute_force_selection(
            small_catalog, small_capacities, demand, 5.0, 3.0)
        assert result.feasible_count == expected_count
        assert {p.configuration for p in result.pareto} == expected_pareto

    def test_strict_inequalities(self, small_catalog, small_capacities):
        """Algorithm 1 uses T < T' and C < C' (strict)."""
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        # Pick a demand such that one configuration lands exactly on T'.
        row = 0
        demand = evaluation.capacity_gips[row] * 3600.0  # exactly 1 hour
        result = select_configurations(evaluation, demand, 1.0, 1e9)
        times = evaluation.times_hours(demand)
        assert result.feasible_count == int(np.sum(times < 1.0))

    def test_infeasible_constraints_empty(self, small_catalog,
                                          small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        result = select_configurations(evaluation, 1e12, 0.001, 0.001)
        assert result.feasible_count == 0
        assert result.pareto_count == 0
        with pytest.raises(ValidationError):
            result.cost_span

    def test_pareto_points_sorted_by_time(self, small_catalog,
                                          small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        result = select_configurations(evaluation, 50_000.0, 10.0, 10.0)
        times = [p.time_hours for p in result.pareto]
        assert times == sorted(times)
        costs = [p.cost_dollars for p in result.pareto]
        assert costs == sorted(costs, reverse=True)

    def test_cheapest_and_fastest(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        result = select_configurations(evaluation, 50_000.0, 10.0, 10.0)
        assert result.cheapest().cost_dollars == min(
            p.cost_dollars for p in result.pareto)
        assert result.fastest().time_hours == min(
            p.time_hours for p in result.pareto)

    def test_max_saving_fraction(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        result = select_configurations(evaluation, 50_000.0, 10.0, 10.0)
        lo, hi = result.cost_span
        assert result.max_saving_fraction == pytest.approx(1 - lo / hi)

    def test_invalid_inputs(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        with pytest.raises(ValidationError):
            select_configurations(evaluation, 0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            select_configurations(evaluation, 1.0, 0.0, 1.0)
        with pytest.raises(ValidationError):
            select_configurations(evaluation, 1.0, 1.0, 0.0)

    def test_chunking_invariance(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        big = select_configurations(evaluation, 50_000.0, 5.0, 3.0,
                                    chunk_size=10_000)
        tiny = select_configurations(evaluation, 50_000.0, 5.0, 3.0,
                                     chunk_size=3)
        assert big.feasible_count == tiny.feasible_count
        assert {p.configuration for p in big.pareto} == \
            {p.configuration for p in tiny.pareto}

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.5, 10.0), min_size=2, max_size=4),
        st.floats(1e3, 1e6),
        st.floats(0.5, 50.0),
        st.floats(0.1, 100.0),
    )
    def test_random_catalogs_match_brute_force(self, rates, demand,
                                               deadline, budget):
        rows = [(f"t{k}", 2, 2.0, 0.05 * (k + 1)) for k in range(len(rates))]
        catalog = make_catalog(rows, quota=2)
        capacities = np.asarray(rates)
        space = ConfigurationSpace(catalog)
        evaluation = space.evaluate(capacities)
        result = select_configurations(evaluation, demand, deadline, budget,
                                       chunk_size=5)
        expected_count, expected_pareto = brute_force_selection(
            catalog, capacities, demand, deadline, budget)
        assert result.feasible_count == expected_count
        assert {p.configuration for p in result.pareto} == expected_pareto


class TestIndexedSelection:
    """The demand-invariant fast path must match the streamed scan exactly."""

    # The fixtures are deterministic and read-only, so sharing them across
    # generated examples is sound.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        demand=st.floats(1e2, 1e8),
        deadline=st.floats(0.01, 200.0),
        budget=st.floats(0.01, 500.0),
    )
    def test_indexed_equals_streamed(self, small_catalog, small_capacities,
                                     demand, deadline, budget):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        streamed = select_configurations(evaluation, demand, deadline, budget,
                                         method="streamed", chunk_size=7)
        indexed = select_configurations(evaluation, demand, deadline, budget,
                                        method="indexed")
        assert indexed.feasible_count == streamed.feasible_count
        assert [p.configuration for p in indexed.pareto] == \
            [p.configuration for p in streamed.pareto]
        assert [p.time_hours for p in indexed.pareto] == \
            [p.time_hours for p in streamed.pareto]
        assert [p.cost_dollars for p in indexed.pareto] == \
            [p.cost_dollars for p in streamed.pareto]

    @settings(max_examples=15, deadline=None)
    @given(
        rates=st.lists(st.floats(0.5, 10.0), min_size=2, max_size=4),
        demand=st.floats(1e3, 1e6),
        deadline=st.floats(0.5, 50.0),
        budget=st.floats(0.1, 100.0),
    )
    def test_random_catalogs_indexed_equals_streamed(self, rates, demand,
                                                     deadline, budget):
        rows = [(f"t{k}", 2, 2.0, 0.05 * (k + 1)) for k in range(len(rates))]
        catalog = make_catalog(rows, quota=3)
        space = ConfigurationSpace(catalog)
        evaluation = space.evaluate(np.asarray(rates))
        streamed = select_configurations(evaluation, demand, deadline, budget,
                                         method="streamed", chunk_size=13)
        indexed = select_configurations(evaluation, demand, deadline, budget,
                                        method="indexed")
        assert indexed.feasible_count == streamed.feasible_count
        assert [p.configuration for p in indexed.pareto] == \
            [p.configuration for p in streamed.pareto]

    def test_small_feasibility_blocks(self, small_catalog, small_capacities):
        """Block decomposition is exact for any block size."""
        from repro.core.selection import FrontierIndex

        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        reference = select_configurations(evaluation, 50_000.0, 5.0, 3.0,
                                          method="streamed")
        for block in (1, 2, 3, 26, 1000):
            index = FrontierIndex(evaluation, block_size=block)
            assert index.feasible_count(50_000.0, 5.0, 3.0) == \
                reference.feasible_count

    def test_concurrent_feasibility_builds_are_safe(self, small_catalog,
                                                    small_capacities):
        """The lazy feasibility structure publishes its guard attribute
        last, so threads racing through `feasible_count` (the service
        computes batches on executor threads) never observe a
        half-built index."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.selection import FrontierIndex

        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        reference = select_configurations(evaluation, 50_000.0, 5.0, 3.0,
                                          method="streamed")
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(50):
                index = FrontierIndex(evaluation)
                counts = list(pool.map(
                    lambda _i, idx=index: idx.feasible_count(
                        50_000.0, 5.0, 3.0), range(4)))
                assert counts == [reference.feasible_count] * 4

    def test_epsilons_equivalent(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        streamed = select_configurations(evaluation, 50_000.0, 10.0, 10.0,
                                         method="streamed",
                                         epsilons=(2.0, 2.0))
        indexed = select_configurations(evaluation, 50_000.0, 10.0, 10.0,
                                        method="indexed", epsilons=(2.0, 2.0))
        assert [p.configuration for p in indexed.pareto] == \
            [p.configuration for p in streamed.pareto]

    def test_infeasible_query(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        result = select_configurations(evaluation, 1e12, 0.001, 0.001,
                                       method="indexed")
        assert result.feasible_count == 0
        assert result.pareto_count == 0

    def test_indexed_rejects_exclude_mask(self, small_catalog,
                                          small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        mask = np.zeros(space.size, dtype=bool)
        mask[0] = True
        with pytest.raises(ValidationError):
            select_configurations(evaluation, 1e5, 5.0, 3.0,
                                  exclude_mask=mask, method="indexed")

    def test_auto_streams_with_exclude_mask(self, small_catalog,
                                            small_capacities):
        """auto + exclude_mask must stream, even with an index built."""
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        evaluation.frontier_index()  # force the index into the cache
        mask = np.ones(space.size, dtype=bool)
        result = select_configurations(evaluation, 1e5, 1e9, 1e9,
                                       exclude_mask=mask)
        assert result.feasible_count == 0

    def test_auto_uses_index_when_present(self, small_catalog,
                                          small_capacities, monkeypatch):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        index = evaluation.frontier_index()
        called = {}
        original = index.select

        def spy(*args, **kwargs):
            called["yes"] = True
            return original(*args, **kwargs)

        monkeypatch.setattr(index, "select", spy)
        select_configurations(evaluation, 1e5, 5.0, 3.0)
        assert called

    def test_frontier_rows_are_demand_invariant(self, small_catalog,
                                                small_capacities):
        """One frontier serves wildly different demands."""
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        frontier = set(evaluation.frontier_index().frontier_rows.tolist())
        for demand in (1e2, 1e5, 1e9):
            unconstrained = select_configurations(
                evaluation, demand, 1e12, 1e12, method="streamed")
            rows = {
                space.encode(np.asarray(p.configuration)) - 1
                for p in unconstrained.pareto
            }
            assert rows == frontier


class TestBatchedSelection:
    """The service's vectorized entry point must change no answer."""

    QUERIES = [
        (50_000.0, 5.0, 3.0),       # partial feasible set
        (1_000.0, 24.0, 50.0),      # everything feasible
        (1e12, 0.001, 0.001),       # nothing feasible
        (123_456.789, 7.5, 1.25),   # irrational-ish floats
    ]

    def test_batch_equals_scalar_indexed(self, small_catalog,
                                         small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        demands, deadlines, budgets = zip(*self.QUERIES)
        batch = select_configurations_batch(evaluation, demands, deadlines,
                                            budgets)
        for (d, t, c), result in zip(self.QUERIES, batch):
            single = select_configurations(evaluation, d, t, c,
                                           method="indexed")
            assert result == single  # dataclass equality: bit-identical

    def test_batch_equals_streamed(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        demands, deadlines, budgets = zip(*self.QUERIES)
        batch = select_configurations_batch(evaluation, demands, deadlines,
                                            budgets)
        for (d, t, c), result in zip(self.QUERIES, batch):
            streamed = select_configurations(evaluation, d, t, c,
                                             method="streamed")
            assert result.feasible_count == streamed.feasible_count
            assert result.pareto == streamed.pareto

    def test_single_query_batch(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        batch = select_configurations_batch(evaluation, [50_000.0], [5.0],
                                            [3.0])
        assert len(batch) == 1
        assert batch[0] == select_configurations(evaluation, 50_000.0, 5.0,
                                                 3.0, method="indexed")

    def test_mismatched_lengths_rejected(self, small_catalog,
                                         small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        with pytest.raises(ValidationError):
            select_configurations_batch(evaluation, [1.0, 2.0], [5.0], [3.0])

    def test_invalid_query_rejected(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        with pytest.raises(ValidationError):
            select_configurations_batch(evaluation, [1.0, -1.0], [5.0, 5.0],
                                        [3.0, 3.0])

    @settings(deadline=None, max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        demands=st.lists(st.floats(min_value=1e2, max_value=1e9),
                         min_size=1, max_size=8),
        deadline=st.floats(min_value=0.1, max_value=100.0),
        budget=st.floats(min_value=0.1, max_value=1000.0),
    )
    def test_random_batches_match_scalar(self, demands, deadline, budget):
        catalog = make_catalog(
            [("a", 2, 2.0, 0.10), ("b", 4, 2.0, 0.21), ("c", 2, 2.5, 0.16)],
            quota=2,
        )
        space = ConfigurationSpace(catalog)
        evaluation = space.evaluate(np.array([2.0, 4.2, 1.5]))
        batch = select_configurations_batch(
            evaluation, demands, [deadline] * len(demands),
            [budget] * len(demands))
        for d, result in zip(demands, batch):
            assert result == select_configurations(evaluation, d, deadline,
                                                   budget, method="indexed")


class TestEpsilonSelection:
    def test_epsilon_filter_thins_frontier(self, small_catalog,
                                           small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        exact = select_configurations(evaluation, 50_000.0, 10.0, 10.0)
        coarse = select_configurations(evaluation, 50_000.0, 10.0, 10.0,
                                       epsilons=(5.0, 5.0))
        assert coarse.pareto_count <= exact.pareto_count
        assert coarse.pareto_count >= 1

    def test_epsilon_points_subset_of_feasible(self, small_catalog,
                                               small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        coarse = select_configurations(evaluation, 50_000.0, 10.0, 10.0,
                                       epsilons=(2.0, 2.0))
        for p in coarse.pareto:
            assert p.time_hours < 10.0
            assert p.cost_dollars < 10.0

    def test_tiny_epsilon_matches_exact(self, small_catalog,
                                        small_capacities):
        space = ConfigurationSpace(small_catalog)
        evaluation = space.evaluate(small_capacities)
        exact = select_configurations(evaluation, 50_000.0, 10.0, 10.0)
        fine = select_configurations(evaluation, 50_000.0, 10.0, 10.0,
                                     epsilons=(1e-9, 1e-9))
        assert {p.configuration for p in fine.pareto} == \
            {p.configuration for p in exact.pareto}


def _cutoff_space_evaluation():
    """A 4-type quota-3 space (255 rows) with irregular capacities."""
    rows = [("p", 2, 2.0, 0.13), ("q", 4, 2.0, 0.29), ("r", 2, 2.5, 0.17),
            ("s", 8, 2.5, 0.61)]
    space = ConfigurationSpace(make_catalog(rows, quota=3))
    return space.evaluate(np.array([1.7, 3.9, 2.3, 6.1]))


_CUTOFF_EVALUATION = _cutoff_space_evaluation()


def _stepped(value: float, step: int) -> float:
    """``value`` moved ``step`` ulps (-1, 0 or +1) with ``math.nextafter``."""
    import math

    if step == 0:
        return value
    return math.nextafter(value, math.inf if step > 0 else -math.inf)


class TestFeasibilityCutoffs:
    """The capacity and ratio cutoffs behind ``feasible_count`` are exact
    at the boundary: thresholds placed on a row's own predicted time or
    cost, and one ulp either side, count exactly what the streamed scan
    counts."""

    @settings(max_examples=120, deadline=None)
    @given(
        row=st.integers(0, _CUTOFF_EVALUATION.space.size - 1),
        demand=st.floats(1e2, 1e8),
        bound=st.sampled_from(["budget", "deadline", "both"]),
        budget_step=st.sampled_from([-1, 0, 1]),
        deadline_step=st.sampled_from([-1, 0, 1]),
    )
    def test_boundary_thresholds_match_streamed(self, row, demand, bound,
                                                budget_step, deadline_step):
        from repro.core.selection import FrontierIndex

        evaluation = _CUTOFF_EVALUATION
        capacity = float(evaluation.capacity_gips[row])
        ratio = float(evaluation.cost_ratio()[row])
        budget = deadline = 1e12
        if bound in ("budget", "both"):
            budget = _stepped(demand * ratio / 3600.0, budget_step)
        if bound in ("deadline", "both"):
            deadline = _stepped(demand / capacity / 3600.0, deadline_step)
        streamed = select_configurations(evaluation, demand, deadline,
                                         budget, method="streamed",
                                         chunk_size=17)
        for block in (1, 5, 4096):
            index = FrontierIndex(evaluation, block_size=block)
            assert index.feasible_count(demand, deadline, budget) == \
                streamed.feasible_count

    @pytest.mark.parametrize("demand, budget, expected", [
        # Even the largest finite ratio costs less than $1: the cutoff is
        # +inf and every row counts.
        (5e-324, 1.0, "all"),
        # C'·3600/D overflows; the cutoff is finite, far above every row.
        (5e-324, 1e-300, "all"),
        # C'·3600/D underflows to zero; no row is affordable.
        (1e300, 5e-324, "none"),
    ])
    def test_extreme_thresholds_match_streamed(self, demand, budget,
                                               expected):
        evaluation = _CUTOFF_EVALUATION
        streamed = select_configurations(evaluation, demand, 1e300, budget,
                                         method="streamed")
        assert streamed.feasible_count == \
            (evaluation.space.size if expected == "all" else 0)
        assert evaluation.frontier_index().feasible_count(
            demand, 1e300, budget) == streamed.feasible_count


class TestCapacityOrder:
    """``capacity_order`` sorts unstably and falls back to a stable sort
    on ties; either way it equals the stable argsort."""

    def check(self, capacities, catalog, expect_ties):
        evaluation = ConfigurationSpace(catalog).evaluate(capacities)
        stable = np.argsort(evaluation.capacity_gips, kind="stable")
        ordered = evaluation.capacity_gips[stable]
        assert bool(np.any(ordered[1:] == ordered[:-1])) == expect_ties
        assert np.array_equal(evaluation.capacity_order(), stable)

    def test_tied_linspace_space_takes_the_stable_path(self):
        from repro.cloud.catalog import ec2_catalog

        self.check(np.linspace(2.0, 8.0, 9), ec2_catalog(max_nodes_per_type=3),
                   expect_ties=True)

    def test_paper_space_has_no_ties(self):
        from repro import Celia, application_by_name, ec2_catalog

        catalog = ec2_catalog(max_nodes_per_type=3)
        celia = Celia(catalog, cache_dir=False)
        capacities = celia.capacities(application_by_name("galaxy"))
        self.check(capacities, catalog, expect_ties=False)
