"""Tests for the fused sweep→frontier pipeline (:mod:`repro.core.sweepkernel`).

The contract under test is *bit-identity*: the fused kernel must write
the same bytes the straightforward decode-then-matmul sweep writes, the
prefiltered per-chunk candidates must equal an exact per-chunk Pareto
scan, and the frontier merged from candidates must match the
cold full-scan :class:`FrontierIndex` no matter how the sweep was
chunked, parallelised, fault-injected or resumed.
"""

import numpy as np
import pytest

from repro.cache import SweepCheckpoint, evaluation_cache_key
from repro.cloud.catalog import make_catalog
from repro.core import sweepkernel
from repro.core.capacity import capacity_per_type
from repro.core.configspace import ConfigurationSpace, SpaceEvaluation
from repro.core.selection import FrontierIndex
from repro.core.sweepkernel import (
    ChunkKernel,
    chunk_frontier_candidates,
    frontier_candidates_from_values,
)
from repro.parallel import FaultPlan, SupervisorConfig, evaluate_resilient
from repro.parallel.supervisor import SweepInterrupted
from repro.pareto.frontier import pareto_mask_2d
from tests.conftest import canonical_sums_brute

ROWS = [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
        ("b.small", 2, 2.5, 0.16)]


def space_and_caps(quota=3):
    catalog = make_catalog(ROWS, quota=quota)
    return ConfigurationSpace(catalog), np.array([2.0, 4.2, 1.5])


def fast_config(**overrides) -> SupervisorConfig:
    knobs = dict(poll_interval_s=0.02, backoff_base_s=0.01,
                 backoff_cap_s=0.05, shutdown_grace_s=0.5)
    knobs.update(overrides)
    return SupervisorConfig(**knobs)


def reference_sweep(space, caps):
    """The canonical arithmetic by definition, one decoded row at a time."""
    matrix = space.decode(np.arange(1, space.size + 1))
    return (canonical_sums_brute(matrix, capacity_per_type(caps)),
            canonical_sums_brute(matrix, space.catalog.prices))


def brute_candidates(capacity, unit_cost, base_row):
    """Exact local Pareto rows by the O(k^2) definition."""
    ratio = unit_cost / capacity
    rows = []
    for i in range(capacity.size):
        dominated = np.any(
            (capacity >= capacity[i]) & (ratio <= ratio[i])
            & ((capacity > capacity[i]) | (ratio < ratio[i])))
        if not dominated:
            rows.append(i + base_row)
    return np.asarray(rows, dtype=np.int64)


class TestChunkKernel:
    def test_evaluate_matches_reference_sweep(self):
        space, caps = space_and_caps()
        evaluation = space.evaluate(caps)
        ref_cap, ref_cost = reference_sweep(space, caps)
        assert evaluation.capacity_gips.tobytes() == ref_cap.tobytes()
        assert evaluation.unit_cost_per_hour.tobytes() == ref_cost.tobytes()

    def test_internal_tiling_is_invisible(self, monkeypatch):
        """KERNEL_TILE is an execution detail: a tiny tile must produce
        the same bytes as one covering the whole space."""
        space, caps = space_and_caps()
        w = capacity_per_type(caps)
        prices = space.catalog.prices
        wide = ChunkKernel(space.strides, space.radices, w, prices,
                           max_chunk=space.size)
        monkeypatch.setattr(sweepkernel, "KERNEL_TILE", 7)
        narrow = ChunkKernel(space.strides, space.radices, w, prices,
                             max_chunk=space.size)
        assert narrow._tile_rows == 7
        out = [np.empty(space.size) for _ in range(4)]
        wide.evaluate_into(1, space.size + 1, out[0], out[1])
        narrow.evaluate_into(1, space.size + 1, out[2], out[3])
        assert out[0].tobytes() == out[2].tobytes()
        assert out[1].tobytes() == out[3].tobytes()

    def test_rejects_empty_chunks(self):
        space, caps = space_and_caps(quota=2)
        with pytest.raises(ValueError):
            ChunkKernel(space.strides, space.radices,
                        capacity_per_type(caps), space.catalog.prices,
                        max_chunk=0)


def pareto_scan_candidates(capacity, unit_cost, base_row):
    """Exact local Pareto rows by one unfiltered ``pareto_mask_2d`` scan."""
    ratio = unit_cost / capacity
    return np.flatnonzero(pareto_mask_2d(-capacity, ratio)) + base_row


def _chunk(kind, rng):
    """One (capacity, unit_cost) test chunk of the named shape."""
    if kind == "random":
        return rng.uniform(1.0, 50.0, 500), rng.uniform(0.1, 5.0, 500)
    if kind == "heavily_tied":
        capacity = rng.choice([2.0, 4.0, 8.0, 16.0], size=3000)
        return capacity, capacity * rng.choice([0.25, 0.5, 1.0], size=3000)
    if kind == "equal_ratio":
        capacity = rng.choice([1.0, 2.0, 4.0, 8.0, 32.0], size=400)
        return capacity, capacity * 0.5
    if kind == "constant_capacity":
        return np.full(300, 6.0), rng.choice([1.0, 2.0, 3.0], size=300)
    if kind == "k1":
        return np.array([3.0]), np.array([1.5])
    if kind == "k2":
        return np.array([3.0, 5.0]), np.array([1.5, 1.0])
    raise AssertionError(kind)


class TestWitnessFilterExactness:
    """The capacity-binned prefilter: each bin's minimum-ratio row is a
    witness, and a row is dropped only when a witness in a strictly
    higher bin strictly dominates it."""

    @pytest.mark.parametrize("bins", [1, 2, 7, 64, 10_000])
    def test_matches_brute_force(self, bins, monkeypatch):
        """Exact for any bin count, including one bin (no pruning)."""
        monkeypatch.setattr(sweepkernel, "_PREFILTER_BINS", bins)
        rng = np.random.default_rng(7)
        capacity = rng.uniform(1.0, 50.0, size=500)
        unit_cost = rng.uniform(0.1, 5.0, size=500)
        got = chunk_frontier_candidates(capacity, unit_cost, 123)
        expected = brute_candidates(capacity, unit_cost, 123)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("bins", [1, 3, 4096])
    @pytest.mark.parametrize("kind", ["random", "heavily_tied",
                                      "equal_ratio", "constant_capacity",
                                      "k1", "k2"])
    def test_matches_unfiltered_pareto_scan(self, kind, bins, monkeypatch):
        monkeypatch.setattr(sweepkernel, "_PREFILTER_BINS", bins)
        capacity, unit_cost = _chunk(kind, np.random.default_rng(11))
        got = chunk_frontier_candidates(capacity, unit_cost, 40)
        assert got.dtype == np.int64
        assert np.array_equal(got, pareto_scan_candidates(capacity,
                                                          unit_cost, 40))
        assert np.array_equal(got, brute_candidates(capacity, unit_cost, 40))

    def test_prefilter_prunes_before_the_exact_scan(self, monkeypatch):
        """Only a small superset of the frontier reaches pareto_mask_2d."""
        seen = []

        def spy(first, second):
            seen.append(first.size)
            return pareto_mask_2d(first, second)

        monkeypatch.setattr(sweepkernel, "pareto_mask_2d", spy)
        rng = np.random.default_rng(3)
        capacity = rng.uniform(1.0, 50.0, size=200_000)
        unit_cost = rng.uniform(0.1, 5.0, size=200_000)
        got = chunk_frontier_candidates(capacity, unit_cost, 0)
        assert np.array_equal(got, pareto_scan_candidates(capacity,
                                                          unit_cost, 0))
        assert seen and seen[0] < 1000

    def test_ties_keep_duplicates(self):
        """Equal (capacity, ratio) points are mutually nondominating; the
        filter must keep all of them, exactly like the full scan."""
        capacity = np.array([4.0, 4.0, 4.0, 2.0, 8.0])
        unit_cost = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
        got = chunk_frontier_candidates(capacity, unit_cost, 0)
        expected = brute_candidates(capacity, unit_cost, 0)
        assert np.array_equal(got, expected)

    def test_empty_chunk(self):
        got = chunk_frontier_candidates(np.empty(0), np.empty(0), 0)
        assert got.size == 0 and got.dtype == np.int64

    def test_from_values_is_chunk_grid_invariant(self):
        space, caps = space_and_caps()
        evaluation = space.evaluate(caps, collect_candidates=False)
        capacity = evaluation.capacity_gips
        unit_cost = evaluation.unit_cost_per_hour
        frontiers = []
        for chunk_size in (5, 64, space.size):
            rows = frontier_candidates_from_values(
                capacity, unit_cost, chunk_size=chunk_size)
            index = FrontierIndex(evaluation, candidates=rows)
            frontiers.append(index.frontier_rows.tobytes())
        assert len(set(frontiers)) == 1


class TestFusedSweepIdentity:
    """The merged frontier equals the cold two-pass build, byte for byte,
    however the sweep ran."""

    def expected_frontier(self, space, caps, chunk_size):
        evaluation = space.evaluate(caps, chunk_size=chunk_size,
                                    collect_candidates=False)
        assert evaluation.frontier_candidates() is None
        return FrontierIndex(evaluation)

    def index_from(self, space, capacity, unit_cost, candidates):
        evaluation = SpaceEvaluation(space=space, capacity_gips=capacity,
                                     unit_cost_per_hour=unit_cost)
        return FrontierIndex(evaluation, candidates=candidates)

    def assert_same_frontier(self, a, b):
        assert a.frontier_rows.tobytes() == b.frontier_rows.tobytes()
        assert a._frontier_capacity.tobytes() == b._frontier_capacity.tobytes()
        assert a._frontier_ratio.tobytes() == b._frontier_ratio.tobytes()

    def test_serial_fused(self):
        space, caps = space_and_caps()
        evaluation = space.evaluate(caps, chunk_size=16)
        candidates = evaluation.frontier_candidates()
        assert candidates is not None and candidates.size
        fused = FrontierIndex(evaluation, candidates=candidates)
        self.assert_same_frontier(fused,
                                  self.expected_frontier(space, caps, 16))

    def test_supervised_fused(self):
        space, caps = space_and_caps()
        capacity, unit_cost, stats = evaluate_resilient(
            space, caps, workers=2, chunk_size=8, config=fast_config())
        assert stats.frontier_candidates is not None
        fused = self.index_from(space, capacity, unit_cost,
                                stats.frontier_candidates)
        self.assert_same_frontier(fused,
                                  self.expected_frontier(space, caps, 8))

    def test_supervised_fused_with_killed_worker(self):
        space, caps = space_and_caps()
        capacity, unit_cost, stats = evaluate_resilient(
            space, caps, workers=2, chunk_size=4,
            faults=FaultPlan.kill_worker(0, at_span=0, at_chunk=1),
            config=fast_config())
        assert stats.workers_lost >= 1
        fused = self.index_from(space, capacity, unit_cost,
                                stats.frontier_candidates)
        self.assert_same_frontier(fused,
                                  self.expected_frontier(space, caps, 4))

    def test_checkpoint_resume_fused(self, tmp_path):
        space, caps = space_and_caps()
        key = evaluation_cache_key(space.catalog, caps)
        cp = SweepCheckpoint(tmp_path / "cp", key=key,
                             space_size=space.size, chunk_size=4)
        with pytest.raises(SweepInterrupted):
            evaluate_resilient(space, caps, workers=2, chunk_size=4,
                               checkpoint=cp,
                               config=fast_config(stop_after_spans=2))
        capacity, unit_cost, stats = evaluate_resilient(
            space, caps, workers=2, chunk_size=4, checkpoint=cp,
            config=fast_config())
        assert stats.spans_resumed == 2
        fused = self.index_from(space, capacity, unit_cost,
                                stats.frontier_candidates)
        self.assert_same_frontier(fused,
                                  self.expected_frontier(space, caps, 4))

    def test_resume_without_candidate_shards_recomputes(self, tmp_path):
        """Candidate shards from an older layout (or lost to corruption)
        must be recomputed from the restored values, not trusted."""
        space, caps = space_and_caps()
        key = evaluation_cache_key(space.catalog, caps)
        cp = SweepCheckpoint(tmp_path / "cp", key=key,
                             space_size=space.size, chunk_size=4)
        with pytest.raises(SweepInterrupted):
            evaluate_resilient(space, caps, workers=2, chunk_size=4,
                               checkpoint=cp,
                               config=fast_config(stop_after_spans=2))
        for cand in (tmp_path / "cp").glob("cand-*.npy"):
            cand.unlink()
        capacity, unit_cost, stats = evaluate_resilient(
            space, caps, workers=2, chunk_size=4, checkpoint=cp,
            config=fast_config())
        fused = self.index_from(space, capacity, unit_cost,
                                stats.frontier_candidates)
        self.assert_same_frontier(fused,
                                  self.expected_frontier(space, caps, 4))

    def test_collect_candidates_off_still_selects(self):
        space, caps = space_and_caps(quota=2)
        evaluation = space.evaluate(caps, collect_candidates=False)
        index = evaluation.frontier_index()
        reference = self.expected_frontier(space, caps, 16)
        self.assert_same_frontier(index, reference)


class TestEvaluationPlumbs:
    def test_frontier_index_uses_fused_candidates(self):
        space, caps = space_and_caps(quota=2)
        evaluation = space.evaluate(caps)
        index = evaluation.frontier_index()
        cold = FrontierIndex(space.evaluate(caps, collect_candidates=False))
        assert index.frontier_rows.tobytes() == cold.frontier_rows.tobytes()

    def test_decode_still_validates_range(self):
        space, _ = space_and_caps(quota=2)
        with pytest.raises(Exception):
            space.decode(np.array([0], dtype=np.int64))
        with pytest.raises(Exception):
            space.decode(np.array([space.size + 1], dtype=np.int64))
