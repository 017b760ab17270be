"""Tests for the persistent evaluation cache (:mod:`repro.cache`)."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cache import (
    CACHE_DIR_ENV,
    EvaluationCache,
    default_cache_dir,
    evaluation_cache_key,
)
from repro.cloud.catalog import make_catalog
from repro.core.celia import Celia
from repro.core.configspace import ConfigurationSpace
from repro.core.selection import FrontierIndex


@pytest.fixture()
def evaluated(small_catalog, small_capacities):
    space = ConfigurationSpace(small_catalog)
    return space, space.evaluate(small_capacities)


class TestCacheDir:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert default_cache_dir() == tmp_path / "env"
        assert EvaluationCache().cache_dir == tmp_path / "env"

    def test_explicit_dir_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        cache = EvaluationCache(tmp_path / "explicit")
        assert cache.cache_dir == tmp_path / "explicit"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir() == Path.home() / ".cache" / "celia"


class TestCacheKey:
    def test_key_depends_on_capacities(self, small_catalog, small_capacities):
        k1 = evaluation_cache_key(small_catalog, small_capacities)
        k2 = evaluation_cache_key(small_catalog, small_capacities * 1.0001)
        assert k1 != k2

    def test_key_depends_on_catalog(self, small_catalog, small_capacities):
        other = make_catalog(
            [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
             ("b.small", 2, 2.5, 0.17)],  # one price changed
            quota=2,
        )
        assert evaluation_cache_key(small_catalog, small_capacities) != \
            evaluation_cache_key(other, small_capacities)

    def test_key_depends_on_quota(self, small_capacities):
        rows = [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
                ("b.small", 2, 2.5, 0.16)]
        assert evaluation_cache_key(make_catalog(rows, quota=2),
                                    small_capacities) != \
            evaluation_cache_key(make_catalog(rows, quota=3),
                                 small_capacities)

    def test_key_is_stable(self, small_catalog, small_capacities):
        k1 = evaluation_cache_key(small_catalog, small_capacities)
        k2 = evaluation_cache_key(small_catalog, small_capacities.copy())
        assert k1 == k2


class TestRoundTrip:
    def test_store_then_load(self, evaluated, small_capacities, tmp_path):
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        assert cache.load(space, small_capacities) is None
        cache.store(evaluation, small_capacities)
        loaded = cache.load(space, small_capacities)
        assert loaded is not None
        assert (cache.misses, cache.hits) == (1, 1)
        assert loaded.capacity_gips.tobytes() == \
            evaluation.capacity_gips.tobytes()
        assert loaded.unit_cost_per_hour.tobytes() == \
            evaluation.unit_cost_per_hour.tobytes()

    def test_version_1_entry_is_not_served(self, evaluated,
                                           small_capacities, tmp_path,
                                           monkeypatch):
        """Version-1 entries hold BLAS-rounded sums, which differ from the
        canonical arithmetic in the last ulp: they must miss."""
        import repro.cache as cache_module

        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        monkeypatch.setattr(cache_module, "_FORMAT_VERSION", 1)
        cache.store(evaluation, small_capacities)
        assert cache.load(space, small_capacities) is not None
        monkeypatch.undo()
        assert cache.load(space, small_capacities) is None

    def test_loaded_arrays_are_memory_mapped(self, evaluated,
                                             small_capacities, tmp_path):
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        cache.store(evaluation, small_capacities)
        loaded = cache.load(space, small_capacities)
        assert isinstance(loaded.capacity_gips, np.memmap)

    def test_hash_mismatch_is_a_miss(self, evaluated, small_capacities,
                                     tmp_path):
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        cache.store(evaluation, small_capacities)
        assert cache.load(space, small_capacities * 2.0) is None

    def test_corrupt_meta_is_a_miss(self, evaluated, small_capacities,
                                    tmp_path):
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        key = cache.store(evaluation, small_capacities)
        (tmp_path / f"{key}.meta.json").write_text("{not json")
        assert cache.load(space, small_capacities) is None

    def test_truncated_array_is_a_miss(self, evaluated, small_capacities,
                                       tmp_path):
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        key = cache.store(evaluation, small_capacities)
        short = np.zeros(space.size - 1)
        with open(tmp_path / f"{key}.capacity.npy", "wb") as fh:
            np.save(fh, short)
        assert cache.load(space, small_capacities) is None

    def test_entries_and_clear(self, evaluated, small_capacities, tmp_path):
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        key = cache.store(evaluation, small_capacities)
        entries = cache.entries()
        assert [e.key for e in entries] == [key]
        assert entries[0].space_size == space.size
        assert cache.total_bytes() == entries[0].bytes_on_disk > 0
        assert cache.clear() == 1
        assert cache.entries() == []


class TestConcurrentWriters:
    def test_second_store_reuses_existing_entry(self, evaluated,
                                                small_capacities, tmp_path):
        """The loser of a warm-up race must not rewrite the artefacts."""
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        key = cache.store(evaluation, small_capacities)
        paths = [tmp_path / f"{key}.meta.json",
                 tmp_path / f"{key}.capacity.npy",
                 tmp_path / f"{key}.unit_cost.npy"]
        before = [p.stat().st_mtime_ns for p in paths]
        assert cache.store(evaluation, small_capacities) == key
        assert [p.stat().st_mtime_ns for p in paths] == before

    def test_stale_entry_is_rewritten(self, evaluated, small_capacities,
                                      tmp_path):
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        key = cache.store(evaluation, small_capacities)
        short = np.zeros(space.size - 1)
        with open(tmp_path / f"{key}.capacity.npy", "wb") as fh:
            np.save(fh, short)
        assert cache.store(evaluation, small_capacities) == key
        assert cache.load(space, small_capacities) is not None

    def test_two_processes_race_without_corruption(self, evaluated,
                                                   small_capacities,
                                                   tmp_path):
        """Two processes warming the same key concurrently: the entry
        stays valid and bit-identical to a locally computed evaluation."""
        space, evaluation = evaluated
        cache_dir = tmp_path / "cache"
        latch = tmp_path / "latch"
        latch.mkdir()
        program = """
import sys, time
from pathlib import Path
import numpy as np
from repro.cache import EvaluationCache
from repro.cloud.catalog import make_catalog
from repro.core.configspace import ConfigurationSpace

cache_dir, latch, who = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
catalog = make_catalog(
    [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
     ("b.small", 2, 2.5, 0.16)], quota=2)
space = ConfigurationSpace(catalog)
caps = np.array([2.0, 4.2, 1.5])
evaluation = space.evaluate(caps)
cache = EvaluationCache(cache_dir)
(latch / f"ready-{who}").touch()
while not (latch / "go").exists():
    time.sleep(0.002)
for _ in range(3):  # several rounds widen the race window
    key = cache.store(evaluation, caps)
loaded = cache.load(space, caps)
assert loaded is not None, "racing store corrupted the entry"
assert loaded.capacity_gips.tobytes() == evaluation.capacity_gips.tobytes()
print(key)
"""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", program, str(cache_dir), str(latch),
                 who],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env)
            for who in ("a", "b")
        ]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not all(
                (latch / f"ready-{w}").exists() for w in ("a", "b")):
            time.sleep(0.01)
        (latch / "go").touch()
        outputs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), \
            [err for _, err in outputs]
        keys = {out.strip() for out, _ in outputs}
        assert len(keys) == 1  # both resolved the same content hash

        # The surviving entry round-trips bit-identically.
        cache = EvaluationCache(cache_dir)
        loaded = cache.load(space, small_capacities)
        assert loaded is not None
        assert loaded.capacity_gips.tobytes() == \
            evaluation.capacity_gips.tobytes()
        assert loaded.unit_cost_per_hour.tobytes() == \
            evaluation.unit_cost_per_hour.tobytes()
        assert len(cache.entries()) == 1


class TestCeliaIntegration:
    def test_second_instance_reuses_cache(self, small_catalog, simple_app,
                                          tmp_path, monkeypatch):
        first = Celia(small_catalog, seed=7, cache_dir=tmp_path)
        first.evaluation(simple_app)
        assert first.evaluation_cache.misses == 1

        # A fresh instance (fresh in-memory caches) must hit the disk
        # cache; forbid the sweep outright to prove no recompute happens.
        second = Celia(small_catalog, seed=7, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("swept despite a warm cache")

        monkeypatch.setattr(ConfigurationSpace, "evaluate", boom)
        evaluation = second.evaluation(simple_app)
        assert second.evaluation_cache.hits == 1
        assert evaluation.capacity_gips.shape == (second.space.size,)

    def test_cache_disabled(self, small_catalog, simple_app, tmp_path):
        celia = Celia(small_catalog, seed=7, cache_dir=False)
        assert celia.evaluation_cache is None
        celia.evaluation(simple_app)  # must not raise nor write anywhere
        assert list(tmp_path.iterdir()) == []

    def test_fresh_process_warm_start_skips_sweep(self, small_catalog,
                                                  tmp_path):
        """Acceptance check: a second *process* performs no sweep."""
        program = """
import sys
from repro.apps.synthetic import SyntheticApp
from repro.apps.base import PerformanceProfile
from repro.apps.demand import LinearTerm, QuadraticTerm, SeparableDemand
from repro.cloud.catalog import make_catalog
from repro.cloud.instance import ResourceCategory
from repro.core.celia import Celia
import repro.core.configspace as cs

app = SyntheticApp(
    SeparableDemand(size_term=LinearTerm(slope=1.0),
                    accuracy_term=QuadraticTerm(a=1.0, b=0.0, c=0.5),
                    scale=1.0),
    profile=PerformanceProfile(
        ipc_by_category={ResourceCategory.COMPUTE: 1.0,
                         ResourceCategory.GENERAL: 0.8,
                         ResourceCategory.MEMORY: 0.6},
        local_ipc=1.0),
    name="simple", task_size_sigma=0.0)
catalog = make_catalog(
    [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
     ("b.small", 2, 2.5, 0.16)], quota=2)
celia = Celia(catalog, seed=7)
if sys.argv[1] == "warm":
    def boom(*args, **kwargs):
        raise AssertionError("swept despite a warm cache")
    cs.ConfigurationSpace.evaluate = boom
celia.evaluation(app)
print("hits", celia.evaluation_cache.hits,
      "misses", celia.evaluation_cache.misses)
"""
        env = dict(os.environ, CELIA_CACHE_DIR=str(tmp_path),
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        cold = subprocess.run([sys.executable, "-c", program, "cold"],
                              capture_output=True, text=True, env=env)
        assert cold.returncode == 0, cold.stderr
        assert "hits 0 misses 1" in cold.stdout
        warm = subprocess.run([sys.executable, "-c", program, "warm"],
                              capture_output=True, text=True, env=env)
        assert warm.returncode == 0, warm.stderr
        assert "hits 1 misses 0" in warm.stdout


class TestIndexSnapshots:
    """Persistence of the frontier index (mmap'd warm starts)."""

    def build_index(self, evaluation):
        index = FrontierIndex(
            evaluation, candidates=evaluation.frontier_candidates())
        index.ensure_feasibility()
        return index

    def test_round_trip_is_bit_identical_and_mmapped(
            self, evaluated, small_capacities, tmp_path):
        space, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        cache.store(evaluation, small_capacities)
        index = self.build_index(evaluation)
        cache.store_index(index, small_capacities)

        warm_eval = cache.load(space, small_capacities)
        loaded = cache.load_index(warm_eval, small_capacities)
        assert loaded is not None
        assert isinstance(loaded._ratio_blocks, np.memmap)
        assert loaded.frontier_rows.tobytes() == \
            index.frontier_rows.tobytes()
        assert loaded._frontier_capacity.tobytes() == \
            index._frontier_capacity.tobytes()
        demand = float(evaluation.capacity_gips.max()) * 3600.0
        a = index.select(demand, 24.0, 350.0)
        b = loaded.select(demand, 24.0, 350.0)
        assert a.feasible_count == b.feasible_count
        assert [p.configuration for p in a.pareto] == \
            [p.configuration for p in b.pareto]

    def test_missing_snapshot_is_a_miss(self, evaluated, small_capacities,
                                        tmp_path):
        _, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        assert cache.load_index(evaluation, small_capacities) is None

    def test_block_size_mismatch_is_a_miss(self, evaluated,
                                           small_capacities, tmp_path):
        _, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        cache.store_index(self.build_index(evaluation), small_capacities)
        assert cache.load_index(evaluation, small_capacities,
                                block_size=7) is None

    @pytest.mark.parametrize("damage", ["truncate", "corrupt_meta",
                                        "delete_array"])
    def test_damaged_snapshot_falls_back_to_rebuild(
            self, evaluated, small_capacities, tmp_path, damage):
        _, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        cache.store_index(self.build_index(evaluation), small_capacities)
        arrays = sorted(tmp_path.glob("*.index-b*.ratio_blocks.npy"))
        metas = sorted(tmp_path.glob("*.index-b*.meta.json"))
        assert arrays and metas
        if damage == "truncate":
            raw = arrays[0].read_bytes()
            arrays[0].write_bytes(raw[:len(raw) // 2])
        elif damage == "corrupt_meta":
            metas[0].write_text("{not json", encoding="utf-8")
        else:
            arrays[0].unlink()
        assert cache.load_index(evaluation, small_capacities) is None

    def test_info_and_clear_cover_snapshots(self, evaluated,
                                            small_capacities, tmp_path):
        _, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        cache.store(evaluation, small_capacities)
        cache.store_index(self.build_index(evaluation), small_capacities)
        (snap,) = cache.index_snapshots()
        assert snap.key == evaluation_cache_key(
            ConfigurationSpace(evaluation.space.catalog).catalog,
            small_capacities)
        assert snap.space_size == evaluation.space.size
        assert snap.bytes_on_disk > 0
        # snapshot metas must not masquerade as evaluation entries
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert cache.index_snapshots() == []
        assert cache.load_index(evaluation, small_capacities) is None

    def write_retired_arrays(self, index, tmp_path):
        """Add the two arrays older snapshots also stored."""
        evaluation = index.evaluation
        (order,) = tmp_path.glob("*.index-b*.capacity_order.npy")
        base = order.name[:-len("capacity_order.npy")]
        retired = {
            "capacity_sorted":
                evaluation.capacity_gips[evaluation.capacity_order()],
            "ratio_sorted": np.sort(evaluation.cost_ratio(), kind="stable"),
        }
        for which, array in retired.items():
            np.save(tmp_path / f"{base}{which}.npy", array)
        return [tmp_path / f"{base}{which}.npy" for which in retired]

    def test_old_six_array_layout_loads_identically(
            self, evaluated, small_capacities, tmp_path):
        _, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        index = self.build_index(evaluation)
        cache.store_index(index, small_capacities)
        self.write_retired_arrays(index, tmp_path)
        loaded = cache.load_index(evaluation, small_capacities)
        assert loaded is not None
        for demand in (1e3, 5e4, 2e6):
            for deadline, budget in ((24.0, 350.0), (2.0, 3.0), (0.5, 1.0)):
                assert loaded.select(demand, deadline, budget) == \
                    index.select(demand, deadline, budget)

    def test_info_counts_and_clear_removes_retired_arrays(
            self, evaluated, small_capacities, tmp_path):
        _, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        index = self.build_index(evaluation)
        cache.store_index(index, small_capacities)
        retired = self.write_retired_arrays(index, tmp_path)
        (snap,) = cache.index_snapshots()
        on_disk = sum(p.stat().st_size for p in tmp_path.glob("*.index-b*"))
        assert snap.bytes_on_disk == on_disk
        assert all(p.exists() for p in retired)
        cache.clear()
        assert not any(p.exists() for p in retired)
        assert not list(tmp_path.glob("*.index-b*"))

    def test_threaded_loads_of_distinct_snapshots(self, small_catalog,
                                                  tmp_path):
        """Eight threads loading eight snapshots at once: no errors from
        the ``.npy`` header parser, and every load answers like its
        source index.

        The parser's race needs a thread switch inside
        ``ast.literal_eval``; frequent switches plus garbage collections
        that run finalizers make one likely, as they are under load.
        """
        import gc
        import threading

        class Finalized:
            def __del__(self):
                sum(range(50))

        space = ConfigurationSpace(small_catalog)
        cache = EvaluationCache(tmp_path)
        sources = []
        for k in range(8):
            capacities = np.array([2.0, 4.2, 1.5]) * (1.0 + 0.125 * k)
            evaluation = space.evaluate(capacities)
            cache.store(evaluation, capacities)
            index = self.build_index(evaluation)
            cache.store_index(index, capacities)
            sources.append((capacities, index.select(4e4, 3.0, 2.0)))
        errors, mismatches = [], []
        barrier = threading.Barrier(len(sources))

        def load_repeatedly(capacities, expected):
            evaluation = cache.load(space, capacities)
            barrier.wait()
            try:
                for _ in range(50):
                    for _ in range(6):
                        cycle = Finalized()
                        cycle.self = cycle
                        del cycle
                    loaded = cache.load_index(evaluation, capacities)
                    if loaded is None or \
                            loaded.select(4e4, 3.0, 2.0) != expected:
                        mismatches.append(capacities[0])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        threads = [threading.Thread(target=load_repeatedly, args=source)
                   for source in sources]
        interval, thresholds = sys.getswitchinterval(), gc.get_threshold()
        sys.setswitchinterval(1e-6)
        gc.set_threshold(20, 10, 10)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            gc.set_threshold(*thresholds)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []

    def test_store_is_idempotent(self, evaluated, small_capacities,
                                 tmp_path):
        _, evaluation = evaluated
        cache = EvaluationCache(tmp_path)
        index = self.build_index(evaluation)
        cache.store_index(index, small_capacities)
        before = sorted((p.name, p.stat().st_mtime_ns)
                        for p in tmp_path.glob("*.index-b*"))
        cache.store_index(index, small_capacities)
        after = sorted((p.name, p.stat().st_mtime_ns)
                       for p in tmp_path.glob("*.index-b*"))
        assert before == after  # valid snapshot -> no rewrite


class TestCeliaSnapshotWarmStart:
    def test_selection_index_neither_sweeps_nor_persists(
            self, small_catalog, simple_app, tmp_path, monkeypatch):
        """The structured index needs no sweep, so selecting writes
        nothing to the cache and reads no snapshot."""
        def no_sweep(*args, **kwargs):
            raise AssertionError("selection swept the space")

        monkeypatch.setattr(ConfigurationSpace, "evaluate", no_sweep)
        first = Celia(small_catalog, seed=7, cache_dir=tmp_path)
        index = first.selection_index(simple_app)
        result = first.select(simple_app, 1000.0, 1.0, 10.0, 50.0)
        assert result.total_configurations == first.space.size
        assert first.last_index_from_snapshot is False
        assert first.last_index_load_s == 0.0
        assert first.evaluation_cache.entries() == []
        assert first.evaluation_cache.index_snapshots() == []
        assert list(tmp_path.iterdir()) == []

        second = Celia(small_catalog, seed=7, cache_dir=tmp_path)
        assert second.selection_index(simple_app).frontier_rows.tobytes() \
            == index.frontier_rows.tobytes()
        assert second.last_index_from_snapshot is False