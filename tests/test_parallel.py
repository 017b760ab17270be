"""Tests for the process-parallel space sweep (:mod:`repro.parallel`).

The headline property — parallel evaluation is *bit-identical* to the
serial sweep — is checked byte-for-byte on randomized catalogs, because
the cache and the selection equivalence proofs both rely on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.catalog import make_catalog
from repro.core.configspace import ConfigurationSpace
from repro.errors import ConfigurationError
from repro.parallel import (
    evaluate_parallel,
    partition_chunks,
    resolve_workers,
)


class TestResolveWorkers:
    def test_none_and_one_are_serial(self):
        assert resolve_workers(None, 10**9) == 1
        assert resolve_workers(1, 10**9) == 1

    def test_explicit_count_is_kept(self):
        assert resolve_workers(7, 10) == 7

    def test_auto_is_serial_at_every_size(self):
        # The broadcast serial sweep beats the supervised fan-out at
        # every quota, so "auto" never starts a worker process.
        for size in (1, 19_682, 10_077_695, 10**12):
            assert resolve_workers("auto", size) == 1

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers("many", 10)
        with pytest.raises(ConfigurationError):
            resolve_workers(0, 10)
        with pytest.raises(ConfigurationError):
            resolve_workers(-2, 10)


class TestPartitionChunks:
    @given(total=st.integers(1, 5000), chunk=st.integers(1, 257),
           parts=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_partition_covers_exactly(self, total, chunk, parts):
        spans = partition_chunks(total, chunk, parts)
        assert spans[0][0] == 1
        assert spans[-1][1] == total + 1
        for (s0, e0), (s1, _) in zip(spans, spans[1:]):
            assert e0 == s1
            assert s0 < e0

    @given(total=st.integers(1, 5000), chunk=st.integers(1, 257),
           parts=st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_boundaries_on_chunk_grid(self, total, chunk, parts):
        """Every span starts at 1 + k*chunk — the bit-identity invariant."""
        for start, _ in partition_chunks(total, chunk, parts):
            assert (start - 1) % chunk == 0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            partition_chunks(0, 10, 2)
        with pytest.raises(ConfigurationError):
            partition_chunks(10, 0, 2)


# Randomized small catalogs: 2-3 types, quota 2-4 (spaces of 8..124).
@st.composite
def catalogs(draw):
    n_types = draw(st.integers(2, 3))
    quota = draw(st.integers(2, 4))
    rows = []
    for i in range(n_types):
        vcpus = draw(st.sampled_from([1, 2, 4, 8]))
        freq = draw(st.floats(1.0, 4.0, allow_nan=False))
        price = draw(st.floats(0.01, 2.0, allow_nan=False))
        rows.append((f"t{i}.x", vcpus, freq, price))
    caps = [draw(st.floats(0.5, 10.0, allow_nan=False))
            for _ in range(n_types)]
    return make_catalog(rows, quota=quota), np.array(caps)


class TestParallelEvaluate:
    @given(data=catalogs(), workers=st.integers(2, 4),
           chunk=st.sampled_from([1, 3, 7, 64]))
    @settings(max_examples=10, deadline=None)
    def test_bit_identical_to_serial(self, data, workers, chunk):
        catalog, caps = data
        space = ConfigurationSpace(catalog)
        serial = space.evaluate(caps, chunk_size=chunk)
        parallel = space.evaluate(caps, chunk_size=chunk, workers=workers)
        assert serial.capacity_gips.tobytes() == \
            parallel.capacity_gips.tobytes()
        assert serial.unit_cost_per_hour.tobytes() == \
            parallel.unit_cost_per_hour.tobytes()

    def test_more_workers_than_chunks(self, small_catalog, small_capacities):
        """Worker count above the chunk count must not break coverage."""
        space = ConfigurationSpace(small_catalog)  # 26 configurations
        serial = space.evaluate(small_capacities)
        parallel = space.evaluate(small_capacities, chunk_size=5, workers=16)
        assert serial.capacity_gips.tobytes() == \
            parallel.capacity_gips.tobytes()

    def test_evaluate_parallel_requires_two_workers(self, small_catalog,
                                                    small_capacities):
        space = ConfigurationSpace(small_catalog)
        with pytest.raises(ConfigurationError):
            evaluate_parallel(space, small_capacities, workers=1,
                              chunk_size=8)

    def test_workers_knob_validated(self, small_catalog, small_capacities):
        space = ConfigurationSpace(small_catalog)
        with pytest.raises(ConfigurationError):
            space.evaluate(small_capacities, workers="turbo")
