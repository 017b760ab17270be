"""Tests for the min-cost / min-time query indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import make_catalog
from repro.core.configspace import ConfigurationSpace
from repro.core.optimizer import MinCostIndex, MinTimeIndex
from repro.errors import InfeasibleError, ValidationError
from tests.conftest import brute_force_space


def brute_force_min_cost(catalog, capacities, demand, deadline):
    configs = brute_force_space(catalog)
    capacity = configs @ capacities
    unit_cost = configs @ catalog.prices
    times = demand / capacity / 3600.0
    costs = times * unit_cost
    ok = times <= deadline
    if not ok.any():
        return None
    return float(costs[ok].min())


def brute_force_min_time(catalog, capacities, demand, budget):
    configs = brute_force_space(catalog)
    capacity = configs @ capacities
    unit_cost = configs @ catalog.prices
    times = demand / capacity / 3600.0
    costs = times * unit_cost
    ok = costs <= budget
    if not ok.any():
        return None
    return float(times[ok].min())


@pytest.fixture()
def evaluation(small_catalog, small_capacities):
    return ConfigurationSpace(small_catalog).evaluate(small_capacities)


class TestMinCostIndex:
    def test_matches_brute_force(self, small_catalog, small_capacities,
                                 evaluation):
        index = MinCostIndex(evaluation)
        for demand in (1e4, 1e5, 3e5):
            for deadline in (1.0, 5.0, 24.0):
                expected = brute_force_min_cost(
                    small_catalog, small_capacities, demand, deadline)
                if expected is None:
                    with pytest.raises(InfeasibleError):
                        index.query(demand, deadline)
                else:
                    answer = index.query(demand, deadline)
                    assert answer.cost_dollars == pytest.approx(expected)
                    assert answer.time_hours <= deadline * (1 + 1e-12)

    def test_answer_configuration_consistent(self, small_capacities,
                                             small_catalog, evaluation):
        index = MinCostIndex(evaluation)
        answer = index.query(1e5, 5.0)
        config = np.asarray(answer.configuration)
        assert float(config @ small_capacities) == pytest.approx(
            answer.capacity_gips)
        assert float(config @ small_catalog.prices) == pytest.approx(
            answer.unit_cost_per_hour)

    def test_budget_guard(self, evaluation):
        index = MinCostIndex(evaluation)
        answer = index.query(1e5, 5.0)
        with pytest.raises(InfeasibleError):
            index.query(1e5, 5.0, budget_dollars=answer.cost_dollars / 2)

    def test_sweep_matches_query(self, evaluation):
        index = MinCostIndex(evaluation)
        demands = np.array([1e4, 5e4, 2e5])
        costs = index.sweep(demands, 5.0)
        for d, c in zip(demands, costs):
            if np.isfinite(c):
                assert c == pytest.approx(index.query(float(d), 5.0).cost_dollars)
            else:
                with pytest.raises(InfeasibleError):
                    index.query(float(d), 5.0)

    def test_sweep_infeasible_is_inf(self, evaluation):
        index = MinCostIndex(evaluation)
        costs = index.sweep(np.array([1e12]), 0.01)
        assert np.isinf(costs[0])

    def test_invalid_inputs(self, evaluation):
        index = MinCostIndex(evaluation)
        with pytest.raises(ValidationError):
            index.query(0.0, 1.0)
        with pytest.raises(ValidationError):
            index.sweep(np.array([0.0]), 1.0)

    def test_cost_nonincreasing_in_deadline(self, evaluation):
        """Relaxing the deadline can never raise the optimum."""
        index = MinCostIndex(evaluation)
        prev = np.inf
        for deadline in (0.5, 1.0, 2.0, 8.0, 64.0):
            try:
                cost = index.query(2e5, deadline).cost_dollars
            except InfeasibleError:
                continue
            assert cost <= prev + 1e-12
            prev = cost

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.5, 8.0), min_size=2, max_size=4),
        st.floats(1e3, 1e7),
        st.floats(0.2, 100.0),
    )
    def test_random_spaces(self, rates, demand, deadline):
        rows = [(f"t{k}", 2, 2.0, 0.05 + 0.07 * k) for k in range(len(rates))]
        catalog = make_catalog(rows, quota=2)
        capacities = np.asarray(rates)
        evaluation = ConfigurationSpace(catalog).evaluate(capacities)
        index = MinCostIndex(evaluation)
        expected = brute_force_min_cost(catalog, capacities, demand, deadline)
        if expected is None:
            with pytest.raises(InfeasibleError):
                index.query(demand, deadline)
        else:
            assert index.query(demand, deadline).cost_dollars == \
                pytest.approx(expected, rel=1e-9)


class TestMinTimeIndex:
    def test_matches_brute_force(self, small_catalog, small_capacities,
                                 evaluation):
        index = MinTimeIndex(evaluation)
        for demand in (1e4, 1e5, 3e5):
            for budget in (0.05, 1.0, 50.0):
                expected = brute_force_min_time(
                    small_catalog, small_capacities, demand, budget)
                if expected is None:
                    with pytest.raises(InfeasibleError):
                        index.query(demand, budget)
                else:
                    answer = index.query(demand, budget)
                    assert answer.time_hours == pytest.approx(expected)
                    assert answer.cost_dollars <= budget * (1 + 1e-12)

    def test_deadline_guard(self, evaluation):
        index = MinTimeIndex(evaluation)
        answer = index.query(1e5, 50.0)
        with pytest.raises(InfeasibleError):
            index.query(1e5, 50.0, deadline_hours=answer.time_hours / 2)

    def test_time_nonincreasing_in_budget(self, evaluation):
        index = MinTimeIndex(evaluation)
        prev = np.inf
        for budget in (0.02, 0.1, 1.0, 10.0):
            try:
                t = index.query(2e5, budget).time_hours
            except InfeasibleError:
                continue
            assert t <= prev + 1e-12
            prev = t

    def test_invalid_inputs(self, evaluation):
        index = MinTimeIndex(evaluation)
        with pytest.raises(ValidationError):
            index.query(1.0, 0.0)


@pytest.fixture(scope="module")
def quota3():
    from repro.apps import GalaxyApp, SandApp, X264App
    from repro.cloud.catalog import ec2_catalog
    from repro.core.celia import Celia

    celia = Celia(ec2_catalog(max_nodes_per_type=3), cache_dir=False)
    return celia, {"galaxy": GalaxyApp(), "x264": X264App(),
                   "sand": SandApp()}


#: (n, a) draws per app, inside each app's parameter domain.
_POINTS = {
    "galaxy": st.tuples(st.integers(8192, 131072).map(float),
                        st.integers(500, 8000).map(float)),
    "x264": st.tuples(st.integers(100, 2000).map(float),
                      st.floats(1.0, 40.0)),
    "sand": st.tuples(st.integers(10**6, 64 * 10**6).map(float),
                      st.floats(0.02, 0.5)),
}


class TestAgreesWithPredict:
    """An index answer is ``Celia.predict`` of its configuration, bit for bit."""

    @staticmethod
    def _assert_is_prediction(celia, app, n, a, answer):
        pred = celia.predict(app, n, a, answer.configuration)
        assert answer.capacity_gips == pred.capacity_gips
        assert answer.unit_cost_per_hour == pred.unit_cost_per_hour
        assert answer.time_hours == pred.time_hours
        assert answer.cost_dollars == pred.cost_dollars

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_POINTS)).flatmap(
               lambda name: st.tuples(st.just(name), _POINTS[name])),
           st.floats(0.5, 500.0), st.floats(5.0, 5000.0))
    def test_min_cost_and_min_time(self, quota3, app_point, deadline, budget):
        celia, apps = quota3
        name, (n, a) = app_point
        app = apps[name]
        demand = celia.demand_gi(app, n, a)
        try:
            answer = celia.min_cost_index(app).query(demand, deadline)
        except InfeasibleError:
            pass
        else:
            self._assert_is_prediction(celia, app, n, a, answer)
            # The budget test compares that same cost.
            with pytest.raises(InfeasibleError):
                celia.min_cost_index(app).query(
                    demand, deadline, budget_dollars=answer.cost_dollars)
        try:
            answer = celia.min_time_index(app).query(demand, budget)
        except InfeasibleError:
            pass
        else:
            self._assert_is_prediction(celia, app, n, a, answer)
