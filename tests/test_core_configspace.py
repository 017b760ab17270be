"""Tests for configuration-space enumeration (Eq. 1 + the codec)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import make_catalog
from repro.core.configspace import ConfigurationSpace
from repro.errors import ConfigurationError
from tests.conftest import brute_force_space


class TestSize:
    def test_eq1_small(self, small_space):
        assert small_space.size == 3**3 - 1 == 26

    def test_eq1_paper(self, ec2):
        assert ConfigurationSpace(ec2).size == 10_077_695


class TestCodec:
    def test_decode_covers_space_exactly(self, small_catalog, small_space):
        decoded = small_space.decode(np.arange(1, small_space.size + 1))
        expected = brute_force_space(small_catalog)
        assert {tuple(r) for r in decoded} == {tuple(r) for r in expected}
        assert decoded.shape[0] == small_space.size

    def test_encode_decode_round_trip(self, small_space):
        for index in range(1, small_space.size + 1):
            config = small_space.decode(index)[0]
            assert small_space.encode(config) == index

    def test_first_type_most_significant(self, small_space):
        # Index 1 is <0,0,1>; the largest index is the full quota.
        np.testing.assert_array_equal(small_space.decode(1)[0], [0, 0, 1])
        np.testing.assert_array_equal(
            small_space.decode(small_space.size)[0], [2, 2, 2])

    def test_out_of_range_rejected(self, small_space):
        with pytest.raises(ConfigurationError):
            small_space.decode(0)
        with pytest.raises(ConfigurationError):
            small_space.decode(small_space.size + 1)

    def test_encode_rejects_empty_and_overquota(self, small_space):
        with pytest.raises(ConfigurationError):
            small_space.encode(np.array([0, 0, 0]))
        with pytest.raises(ConfigurationError):
            small_space.encode(np.array([3, 0, 0]))
        with pytest.raises(ConfigurationError):
            small_space.encode(np.array([1, 1]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5),
           st.integers(0, 10**6))
    def test_round_trip_random_catalogs(self, quotas, raw_index):
        rows = [(f"t{k}", 2, 2.0, 0.1 * (k + 1)) for k in range(len(quotas))]
        catalog = make_catalog(rows, quota=1)
        catalog = catalog.__class__(types=catalog.types, quotas=tuple(quotas))
        space = ConfigurationSpace(catalog)
        index = 1 + raw_index % space.size
        config = space.decode(index)[0]
        assert space.encode(config) == index
        assert np.all(config <= np.array(quotas))


class TestChunking:
    def test_chunks_cover_space_in_order(self, small_space):
        seen = []
        for start, matrix in small_space.iter_chunks(chunk_size=7):
            assert matrix.shape[1] == 3
            seen.extend(range(start, start + matrix.shape[0]))
        assert seen == list(range(1, small_space.size + 1))

    def test_chunk_contents_match_decode(self, small_space):
        for start, matrix in small_space.iter_chunks(chunk_size=5):
            np.testing.assert_array_equal(
                matrix,
                small_space.decode(
                    np.arange(start, start + matrix.shape[0])))

    def test_bad_chunk_size(self, small_space):
        with pytest.raises(ConfigurationError):
            next(small_space.iter_chunks(chunk_size=0))


class TestEvaluation:
    def test_matches_brute_force(self, small_catalog, small_space,
                                 small_capacities):
        evaluation = small_space.evaluate(small_capacities, chunk_size=4)
        expected = brute_force_space(small_catalog)
        # Row r of the evaluation is linear index r+1.
        for r in range(small_space.size):
            config = small_space.decode(r + 1)[0]
            assert evaluation.capacity_gips[r] == pytest.approx(
                float(config @ small_capacities))
            assert evaluation.unit_cost_per_hour[r] == pytest.approx(
                float(config @ small_catalog.prices))
        assert evaluation.capacity_gips.shape[0] == expected.shape[0]

    def test_times_and_costs(self, small_space, small_capacities):
        evaluation = small_space.evaluate(small_capacities)
        demand = 3600.0  # GI
        times = evaluation.times_hours(demand)
        np.testing.assert_allclose(
            times, demand / evaluation.capacity_gips / 3600.0)
        costs = evaluation.costs(demand)
        np.testing.assert_allclose(costs,
                                   times * evaluation.unit_cost_per_hour)

    def test_configuration_at(self, small_space, small_capacities):
        evaluation = small_space.evaluate(small_capacities)
        assert evaluation.configuration_at(0) == (0, 0, 1)

    def test_nonpositive_demand_rejected(self, small_space, small_capacities):
        evaluation = small_space.evaluate(small_capacities)
        with pytest.raises(ConfigurationError):
            evaluation.times_hours(0.0)


class TestPositionIndependence:
    def test_chunk_grid_and_workers_do_not_change_a_bit(self):
        """Each row's U and P are functions of the configuration alone,
        so ``celia sweep --chunk-size`` cannot store different arrays
        under the same cache key."""
        from repro.apps import application_by_name
        from repro.cloud.catalog import ec2_catalog
        from repro.core.celia import Celia

        celia = Celia(ec2_catalog(max_nodes_per_type=3), cache_dir=False)
        capacities = celia.capacities(application_by_name("galaxy"))
        reference = celia.space.evaluate(capacities)
        for kwargs in ({"chunk_size": 1001},
                       {"chunk_size": 1001, "workers": 2}):
            other = celia.space.evaluate(capacities, **kwargs)
            assert other.capacity_gips.tobytes() == \
                reference.capacity_gips.tobytes()
            assert other.unit_cost_per_hour.tobytes() == \
                reference.unit_cost_per_hour.tobytes()
