"""Tests for sweep checkpointing and resume (:class:`SweepCheckpoint`).

The ISSUE's acceptance criterion drives the central test: interrupt a
sweep after ``k`` spans, then resume and assert that exactly the
remaining spans are evaluated and the final ``U_j`` / ``C_{j,u}`` arrays
are bit-identical to an uninterrupted serial sweep.  Around it sit the
shard-format unit tests (manifest pinning, grid alignment, corruption
recovery) and the integration paths: ``ConfigurationSpace.evaluate``,
``Celia.evaluation``, the ``celia sweep`` CLI, and ``PlannerService``
warmup.
"""

import asyncio

import numpy as np
import pytest

from repro.cache import EvaluationCache, SweepCheckpoint, evaluation_cache_key
from repro.cloud.catalog import ec2_catalog, make_catalog
from repro.core.celia import Celia
from repro.core.configspace import ConfigurationSpace
from repro.errors import ConfigurationError
from repro.parallel import (
    TASKS_PER_WORKER,
    SupervisorConfig,
    SweepInterrupted,
    evaluate_resilient,
    missing_ranges,
    partition_ranges,
)
from repro.service import PlannerService, ServiceConfig

ROWS = [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
        ("b.small", 2, 2.5, 0.16)]


def space_and_caps(quota=3):
    catalog = make_catalog(ROWS, quota=quota)
    return ConfigurationSpace(catalog), np.array([2.0, 4.2, 1.5])


def fast_config(**overrides) -> SupervisorConfig:
    knobs = dict(poll_interval_s=0.02, backoff_base_s=0.01,
                 shutdown_grace_s=0.5)
    knobs.update(overrides)
    return SupervisorConfig(**knobs)


class TestSweepCheckpointFormat:
    def test_ensure_writes_manifest(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp", key="k1", space_size=26,
                             chunk_size=4)
        cp.ensure()
        assert (tmp_path / "cp" / SweepCheckpoint.MANIFEST).exists()
        assert cp.completed_spans() == []
        assert not cp.has_shards()

    def test_mismatched_manifest_wipes_leftover(self, tmp_path):
        old = SweepCheckpoint(tmp_path / "cp", key="k1", space_size=26,
                              chunk_size=4)
        old.ensure()
        old.write_span(1, 5, np.ones(4), np.ones(4))
        assert old.has_shards()
        # Same directory, different chunk grid: resume must not trust it.
        new = SweepCheckpoint(tmp_path / "cp", key="k1", space_size=26,
                              chunk_size=8)
        new.ensure()
        assert new.completed_spans() == []
        assert old.completed_spans() == []  # shards are actually gone

    def test_write_span_rejects_off_grid(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp", key="k", space_size=26,
                             chunk_size=4)
        cp.ensure()
        with pytest.raises(ValueError):
            cp.write_span(2, 6, np.ones(4), np.ones(4))  # start off grid
        with pytest.raises(ValueError):
            cp.write_span(1, 7, np.ones(6), np.ones(6))  # stop off grid
        with pytest.raises(ValueError):
            cp.write_span(1, 5, np.ones(3), np.ones(3))  # wrong length

    def test_roundtrip_restores_slices(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp", key="k", space_size=10,
                             chunk_size=4)
        cp.ensure()
        cp.write_span(1, 5, np.arange(4.0), np.arange(4.0) + 10)
        cp.write_span(9, 11, np.array([8.0, 9.0]), np.array([18.0, 19.0]))
        capacity = np.zeros(10)
        unit_cost = np.zeros(10)
        loaded = cp.load_into(capacity, unit_cost)
        assert loaded == [(1, 5), (9, 11)]
        assert capacity[:4].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert unit_cost[8:].tolist() == [18.0, 19.0]
        assert capacity[4:8].tolist() == [0.0] * 4  # gap untouched

    def test_corrupt_shard_is_deleted_not_trusted(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp", key="k", space_size=10,
                             chunk_size=4)
        cp.ensure()
        cp.write_span(1, 5, np.ones(4), np.ones(4))
        cp.write_span(5, 9, np.ones(4), np.ones(4))
        shard = cp._span_path(5, 9)
        shard.write_bytes(b"not a npy file")
        capacity = np.zeros(10)
        unit_cost = np.zeros(10)
        assert cp.load_into(capacity, unit_cost) == [(1, 5)]
        assert not shard.exists()  # corruption costs progress, not safety

    def test_foreign_files_are_ignored(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp", key="k", space_size=26,
                             chunk_size=4)
        cp.ensure()
        (tmp_path / "cp" / "span-junk.npy").write_bytes(b"x")
        (tmp_path / "cp" / "span-000000000003-000000000007.npy").write_bytes(
            b"x")  # parsable but off the chunk grid
        assert cp.completed_spans() == []

    def test_discard_is_idempotent(self, tmp_path):
        cp = SweepCheckpoint(tmp_path / "cp", key="k", space_size=26,
                             chunk_size=4)
        cp.ensure()
        assert cp.bytes_on_disk() > 0
        cp.discard()
        assert not cp.directory.exists()
        cp.discard()  # second discard is a no-op
        assert cp.bytes_on_disk() == 0

    def test_invalid_construction_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepCheckpoint(tmp_path, key="k", space_size=0)
        with pytest.raises(ValueError):
            SweepCheckpoint(tmp_path, key="k", space_size=5, chunk_size=0)


class TestInterruptAndResume:
    """The acceptance criterion: interrupt after k spans, resume the rest."""

    def test_resume_evaluates_exactly_the_missing_spans(self, tmp_path):
        space, caps = space_and_caps()  # 63 configurations
        chunk, workers, k = 4, 2, 3
        key = evaluation_cache_key(space.catalog, caps)
        cp = SweepCheckpoint(tmp_path / "cp", key=key,
                            space_size=space.size, chunk_size=chunk)

        with pytest.raises(SweepInterrupted) as excinfo:
            evaluate_resilient(space, caps, workers=workers,
                               chunk_size=chunk, checkpoint=cp,
                               config=fast_config(stop_after_spans=k))
        assert excinfo.value.spans_completed == k
        shards = cp.completed_spans()
        assert len(shards) == k  # exactly k spans were persisted

        gaps = missing_ranges(shards, space.size)
        expected_spans = partition_ranges(gaps, chunk,
                                          workers * TASKS_PER_WORKER)
        capacity, unit_cost, stats = evaluate_resilient(
            space, caps, workers=workers, chunk_size=chunk,
            checkpoint=cp, config=fast_config())
        assert stats.spans_resumed == k
        assert stats.spans_evaluated == len(expected_spans)
        assert stats.spans_total == k + len(expected_spans)

        serial = space.evaluate(caps, chunk_size=chunk)
        assert serial.capacity_gips.tobytes() == capacity.tobytes()
        assert serial.unit_cost_per_hour.tobytes() == unit_cost.tobytes()

    def test_fully_checkpointed_sweep_spawns_no_workers(self, tmp_path):
        space, caps = space_and_caps(quota=2)
        serial = space.evaluate(caps, chunk_size=8)
        cp = SweepCheckpoint(tmp_path / "cp", key="k",
                             space_size=space.size, chunk_size=8)
        cp.ensure()
        cp.write_span(1, space.size + 1, serial.capacity_gips,
                      serial.unit_cost_per_hour)
        capacity, unit_cost, stats = evaluate_resilient(
            space, caps, workers=2, chunk_size=8, checkpoint=cp)
        assert stats.workers_spawned == 0
        assert stats.spans_resumed == 1
        assert stats.spans_evaluated == 0
        assert serial.capacity_gips.tobytes() == capacity.tobytes()
        assert serial.unit_cost_per_hour.tobytes() == unit_cost.tobytes()

    def test_chunk_size_mismatch_is_rejected(self, tmp_path):
        space, caps = space_and_caps(quota=2)
        cp = SweepCheckpoint(tmp_path / "cp", key="k",
                             space_size=space.size, chunk_size=8)
        with pytest.raises(ConfigurationError):
            evaluate_resilient(space, caps, workers=2, chunk_size=4,
                               checkpoint=cp)

    def test_evaluate_with_shards_resumes_even_serially(self, tmp_path):
        """A checkpoint holding shards forces the supervised path so a
        ``workers=None`` caller still resumes instead of re-sweeping."""
        space, caps = space_and_caps(quota=2)
        serial = space.evaluate(caps)
        cp = SweepCheckpoint(tmp_path / "cp",
                             key=evaluation_cache_key(space.catalog, caps),
                             space_size=space.size)
        cp.ensure()
        cp.write_span(1, space.size + 1, serial.capacity_gips,
                      serial.unit_cost_per_hour)
        resumed = space.evaluate(caps, checkpoint=cp)
        stats = resumed.sweep_stats()
        assert stats is not None
        assert stats.spans_resumed == 1 and stats.spans_evaluated == 0
        assert resumed.capacity_gips.tobytes() == \
            serial.capacity_gips.tobytes()
        assert serial.sweep_stats() is None  # plain serial has no stats


class TestEvaluationCacheCheckpoints:
    def test_checkpoint_is_content_addressed(self, tmp_path):
        space, caps = space_and_caps(quota=2)
        cache = EvaluationCache(tmp_path)
        cp = cache.sweep_checkpoint(space, caps)
        assert cp.key == evaluation_cache_key(space.catalog, caps)
        assert cp.directory == tmp_path / f"{cp.key}.sweep"
        other = cache.sweep_checkpoint(space, caps + 1.0)
        assert other.directory != cp.directory

    def test_sweep_checkpoints_listing_and_clear(self, tmp_path):
        space, caps = space_and_caps(quota=2)
        cache = EvaluationCache(tmp_path)
        assert cache.sweep_checkpoints() == []
        cp = cache.sweep_checkpoint(space, caps, chunk_size=8)
        cp.ensure()
        cp.write_span(1, 9, np.ones(8), np.ones(8))
        ((key, n_shards, size),) = cache.sweep_checkpoints()
        assert key == cp.key
        assert n_shards == 1
        assert size > 0
        cache.clear()
        assert cache.sweep_checkpoints() == []
        assert not cp.directory.exists()


class TestCeliaResume:
    def test_evaluation_resumes_from_checkpoint_then_discards(self, tmp_path):
        catalog = make_catalog(ROWS, quota=2)
        warm = Celia(catalog, seed=7, cache_dir=tmp_path)
        from repro.apps import application_by_name

        app = application_by_name("galaxy", seed=7)
        caps = warm.capacities(app)
        serial = warm.space.evaluate(caps)
        cp = warm.evaluation_cache.sweep_checkpoint(warm.space, caps)
        cp.ensure()
        cp.write_span(1, warm.space.size + 1, serial.capacity_gips,
                      serial.unit_cost_per_hour)

        evaluation = warm.evaluation(app)
        stats = evaluation.sweep_stats()
        assert stats is not None
        assert stats.spans_resumed == 1 and stats.spans_evaluated == 0
        assert evaluation.capacity_gips.tobytes() == \
            serial.capacity_gips.tobytes()
        assert not cp.directory.exists()  # discarded after store()
        # A fresh instance now warm-starts from the stored artefact.
        cold = Celia(catalog, seed=7, cache_dir=tmp_path)
        assert cold.evaluation(app).sweep_stats() is None
        assert cold.evaluation_cache.hits == 1


class TestServiceWarmResume:
    def test_first_plan_resumes_and_reports_metrics(self, tmp_path):
        def tiny_catalog(quota):
            return make_catalog(ROWS, quota=quota)

        # Seed the cache dir with a full-space checkpoint for the exact
        # signature the service will warm (galaxy, quota 2, seed 0).
        celia = Celia(tiny_catalog(2), seed=0, cache_dir=tmp_path)
        from repro.apps import application_by_name

        caps = celia.capacities(application_by_name("galaxy", seed=0))
        serial = celia.space.evaluate(caps)
        cp = celia.evaluation_cache.sweep_checkpoint(celia.space, caps)
        cp.ensure()
        cp.write_span(1, celia.space.size + 1, serial.capacity_gips,
                      serial.unit_cost_per_hour)

        service = PlannerService(
            config=ServiceConfig(default_quota=2,
                                 cache_dir=str(tmp_path)),
            catalog_factory=tiny_catalog,
        )
        asyncio.run(service.warm("galaxy"))
        # Warming builds the structured index only: nothing is swept.
        assert cp.directory.exists()
        # The first plan needs the full-space evaluation and resumes it.
        asyncio.run(service.plan("galaxy", 48.0, 350.0, fix_size=65536.0,
                                 knob_range=(1000.0, 8000.0),
                                 integral=True))
        assert service.metrics.counter("warm_spans_resumed").value == 1
        assert service.metrics.counter("warm_spans_swept").value == 0
        assert not cp.directory.exists()


class TestCliSweep:
    def test_sweep_then_cached(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["--quota", "2", "--workers", "2",
                "--cache-dir", str(tmp_path), "sweep", "galaxy"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "swept 19,682 configurations" in out
        assert main(argv) == 0
        assert "already cached" in capsys.readouterr().out

    def test_sweep_resume_reports_resumed_spans(self, tmp_path, capsys):
        from repro.apps import application_by_name
        from repro.cli import main

        celia = Celia(ec2_catalog(max_nodes_per_type=2), seed=0,
                      cache_dir=tmp_path)
        app = application_by_name("galaxy", seed=0)
        caps = celia.capacities(app)
        serial = celia.space.evaluate(caps)
        cp = celia.evaluation_cache.sweep_checkpoint(celia.space, caps)
        cp.ensure()
        cp.write_span(1, celia.space.size + 1, serial.capacity_gips,
                      serial.unit_cost_per_hour)

        rc = main(["--quota", "2", "--cache-dir", str(tmp_path),
                   "sweep", "galaxy", "--resume", "--json"])
        assert rc == 0
        import json

        stats = json.loads(capsys.readouterr().out)
        assert stats["spans_resumed"] == 1
        assert stats["spans_evaluated"] == 0
        assert stats["space_size"] == celia.space.size

    def test_interrupted_checkpoint_shows_in_cache_info(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        space, caps = space_and_caps(quota=2)
        cache = EvaluationCache(tmp_path)
        cp = cache.sweep_checkpoint(space, caps, chunk_size=8)
        cp.ensure()
        cp.write_span(1, 9, np.ones(8), np.ones(8))
        assert main(["--cache-dir", str(tmp_path), "cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "interrupted sweeps" in out
        assert cp.key[:12] in out

    def test_sweep_requires_cache(self, capsys):
        from repro.cli import main

        assert main(["--no-cache", "sweep", "galaxy"]) == 2
        assert "drop --no-cache" in capsys.readouterr().err
