"""Tests for the baseline strategies and the comparison harness."""

import numpy as np
import pytest

from repro.baselines.comparison import compare_baselines
from repro.baselines.greedy import greedy_min_cost
from repro.baselines.hillclimb import hillclimb_min_cost
from repro.baselines.random_search import random_search_min_cost
from repro.baselines.specbound import spec_capacities, spec_prediction_error
from repro.core.configspace import ConfigurationSpace
from repro.core.optimizer import MinCostIndex
from repro.errors import InfeasibleError, ValidationError


@pytest.fixture()
def index(small_catalog, small_capacities):
    evaluation = ConfigurationSpace(small_catalog).evaluate(small_capacities)
    return MinCostIndex(evaluation)


class TestSpecBound:
    def test_capacities_from_frequency(self, small_catalog):
        spec = spec_capacities(small_catalog)
        np.testing.assert_allclose(spec, [4.0, 8.0, 5.0])

    def test_ipc_scaling(self, small_catalog):
        np.testing.assert_allclose(spec_capacities(small_catalog, instructions_per_cycle=0.5),
                                   [2.0, 4.0, 2.5])

    def test_error_vs_measured(self, small_catalog, small_capacities):
        errors = spec_prediction_error(None, small_catalog, small_capacities)
        # spec [4, 8, 5] vs measured [2, 4.2, 1.5].
        np.testing.assert_allclose(errors, [1.0, 8 / 4.2 - 1, 5 / 1.5 - 1])

    def test_spec_overestimates_low_ipc_apps(self, ec2, galaxy):
        """The paper's point: frequency alone over-promises for galaxy."""
        truths = np.array([galaxy.true_rate_gips(t) for t in ec2])
        errors = spec_prediction_error(galaxy, ec2, truths)
        assert np.all(errors > 0.5)  # spec >1.5x the real galaxy rate

    def test_shape_mismatch_rejected(self, small_catalog):
        with pytest.raises(ValidationError):
            spec_prediction_error(None, small_catalog, np.array([1.0]))

    def test_invalid_ipc(self, small_catalog):
        with pytest.raises(ValidationError):
            spec_capacities(small_catalog, instructions_per_cycle=0)


class TestGreedy:
    def test_meets_deadline(self, small_catalog, small_capacities):
        answer = greedy_min_cost(small_catalog, small_capacities, 2e5, 8.0)
        assert answer.time_hours <= 8.0

    def test_never_beats_exhaustive(self, small_catalog, small_capacities,
                                    index):
        for demand in (2e4, 1e5, 3e5):
            optimal = index.query(demand, 8.0)
            answer = greedy_min_cost(small_catalog, small_capacities,
                                     demand, 8.0)
            assert answer.cost_dollars >= optimal.cost_dollars - 1e-9

    def test_uses_most_efficient_type_first(self, small_catalog,
                                            small_capacities):
        # Efficiencies: [20, 20, 9.375] GI/s per $: type 0/1 first.
        answer = greedy_min_cost(small_catalog, small_capacities, 1e4, 8.0)
        assert answer.configuration[2] == 0

    def test_infeasible(self, small_catalog, small_capacities):
        with pytest.raises(InfeasibleError):
            greedy_min_cost(small_catalog, small_capacities, 1e13, 1.0)

    def test_invalid_inputs(self, small_catalog, small_capacities):
        with pytest.raises(ValidationError):
            greedy_min_cost(small_catalog, small_capacities, 0.0, 1.0)
        with pytest.raises(ValidationError):
            greedy_min_cost(small_catalog, np.array([1.0]), 1.0, 1.0)


class TestRandomSearch:
    def test_feasible_answer(self, small_catalog, small_capacities):
        rng = np.random.default_rng(0)
        answer = random_search_min_cost(small_catalog, small_capacities,
                                        1e5, 8.0, n_samples=500, rng=rng)
        assert answer.time_hours < 8.0

    def test_never_beats_exhaustive(self, small_catalog, small_capacities,
                                    index):
        rng = np.random.default_rng(1)
        optimal = index.query(1e5, 8.0)
        answer = random_search_min_cost(small_catalog, small_capacities,
                                        1e5, 8.0, n_samples=2000, rng=rng)
        assert answer.cost_dollars >= optimal.cost_dollars - 1e-9

    def test_enough_samples_on_tiny_space_finds_optimum(
            self, small_catalog, small_capacities, index):
        # 26 configurations: 5000 uniform samples cover them all w.h.p.
        rng = np.random.default_rng(2)
        optimal = index.query(1e5, 8.0)
        answer = random_search_min_cost(small_catalog, small_capacities,
                                        1e5, 8.0, n_samples=5000, rng=rng)
        assert answer.cost_dollars == pytest.approx(optimal.cost_dollars)

    def test_infeasible_deadline(self, small_catalog, small_capacities):
        rng = np.random.default_rng(3)
        with pytest.raises(InfeasibleError):
            random_search_min_cost(small_catalog, small_capacities,
                                   1e13, 0.1, n_samples=100, rng=rng)

    def test_invalid_inputs(self, small_catalog, small_capacities):
        with pytest.raises(ValidationError):
            random_search_min_cost(small_catalog, small_capacities,
                                   1e4, 1.0, n_samples=0)


class TestHillClimb:
    def test_feasible_answer(self, small_catalog, small_capacities):
        rng = np.random.default_rng(0)
        answer = hillclimb_min_cost(small_catalog, small_capacities,
                                    1e5, 8.0, rng=rng)
        assert answer.time_hours < 8.0 + 1e-12

    def test_local_optimum_quality(self, small_catalog, small_capacities,
                                   index):
        """On the tiny space restarted hill climbing finds the optimum."""
        rng = np.random.default_rng(1)
        optimal = index.query(1e5, 8.0)
        answer = hillclimb_min_cost(small_catalog, small_capacities,
                                    1e5, 8.0, restarts=10, rng=rng)
        assert answer.cost_dollars == pytest.approx(optimal.cost_dollars,
                                                    rel=1e-6)

    def test_infeasible(self, small_catalog, small_capacities):
        rng = np.random.default_rng(2)
        with pytest.raises(InfeasibleError):
            hillclimb_min_cost(small_catalog, small_capacities,
                               1e13, 0.1, rng=rng)

    def test_invalid_inputs(self, small_catalog, small_capacities):
        with pytest.raises(ValidationError):
            hillclimb_min_cost(small_catalog, small_capacities, 1e4, 1.0,
                               restarts=0)


class TestComparison:
    def test_all_strategies_reported(self, small_catalog, small_capacities,
                                     index):
        outcomes = compare_baselines(small_catalog, small_capacities, index,
                                     1e5, 8.0, random_samples=500, seed=0)
        names = [o.strategy for o in outcomes]
        assert names == ["exhaustive", "greedy", "random-search", "hill-climb"]

    def test_exhaustive_gap_zero(self, small_catalog, small_capacities,
                                 index):
        outcomes = compare_baselines(small_catalog, small_capacities, index,
                                     1e5, 8.0, seed=0)
        assert outcomes[0].optimality_gap == pytest.approx(0.0)

    def test_gaps_nonnegative(self, small_catalog, small_capacities, index):
        outcomes = compare_baselines(small_catalog, small_capacities, index,
                                     1e5, 8.0, seed=0)
        for o in outcomes:
            assert o.optimality_gap >= -1e-9

    def test_missing_answer_infinite_gap(self, small_catalog,
                                         small_capacities, index):
        from repro.baselines.comparison import BaselineOutcome

        outcome = BaselineOutcome(strategy="x", answer=None,
                                  optimal_cost=1.0, wall_seconds=0.0)
        assert not outcome.found
        assert outcome.optimality_gap == float("inf")


class TestCanonicalArithmetic:
    """Eq. 3 / Eq. 6 outside the sweep use Algorithm 1's arithmetic."""

    def test_helpers_equal_canonical_sums_bitwise(self, ec2, galaxy):
        from repro.core.capacity import configuration_capacity
        from repro.core.costmodel import configuration_unit_cost
        from repro.core.sweepkernel import canonical_sums

        rng = np.random.default_rng(0)
        rows = rng.integers(0, 6, size=(20_000, len(ec2)))
        weights = np.array([galaxy.true_rate_gips(t) for t in ec2])
        np.testing.assert_array_equal(configuration_capacity(rows, weights),
                                      canonical_sums(rows, weights))
        np.testing.assert_array_equal(configuration_unit_cost(rows, ec2.prices),
                                      canonical_sums(rows, ec2.prices))

    def test_baseline_answers_are_predictions(self, galaxy):
        from repro.cloud.catalog import ec2_catalog
        from repro.core.celia import Celia

        celia = Celia(ec2_catalog(max_nodes_per_type=3), cache_dir=False)
        capacities = celia.capacities(galaxy)
        n, a, deadline = 20000.0, 4000.0, 6.0
        demand = celia.demand_gi(galaxy, n, a)
        rng = np.random.default_rng(5)
        answers = [
            greedy_min_cost(celia.catalog, capacities, demand, deadline),
            hillclimb_min_cost(celia.catalog, capacities, demand, deadline,
                               rng=rng),
            random_search_min_cost(celia.catalog, capacities, demand,
                                   deadline, n_samples=2000, rng=rng),
        ]
        for answer in answers:
            pred = celia.predict(galaxy, n, a, answer.configuration)
            assert answer.capacity_gips == pred.capacity_gips
            assert answer.unit_cost_per_hour == pred.unit_cost_per_hour
            assert answer.time_hours == pred.time_hours
            assert answer.cost_dollars == pred.cost_dollars
