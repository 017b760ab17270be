"""Integration tests for the observability layer.

The properties the tentpole promises:

* worker span records cross the process boundary with their parent
  links intact (the supervisor's span context survives pickling);
* tracing never perturbs results — supervised sweeps are bit-identical
  with tracing on and off;
* the sweep, cache and runtime report into the global metrics registry;
* every ``--json`` CLI output is exactly one parseable JSON document on
  stdout, with diagnostics on stderr;
* a traced CLI run yields ≥95% span coverage and a loadable Chrome
  export.
"""

import json
import os

import numpy as np
import pytest

from repro.cli import main
from repro.obs.export import read_trace, trace_summary
from repro.obs.metrics import global_registry, reset_global_registry
from repro.obs.profile import get_store, reset_store
from repro.obs.trace import configure_tracing, get_tracer, reset_tracing
from repro.parallel import evaluate_resilient


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    monkeypatch.delenv("CELIA_TRACE", raising=False)
    monkeypatch.delenv("CELIA_PROFILE", raising=False)
    reset_tracing()
    reset_global_registry()
    reset_store()
    yield
    reset_tracing()
    reset_global_registry()
    reset_store()


class TestWorkerSpanPropagation:
    def test_parent_ids_survive_the_process_boundary(
            self, tmp_path, small_space, small_capacities):
        configure_tracing(tmp_path / "sweep.jsonl")
        with get_tracer().span("test.root"):
            evaluate_resilient(small_space, small_capacities, workers=2,
                               chunk_size=4)
        records = read_trace(tmp_path / "sweep.jsonl")
        supervised = [r for r in records if r["name"] == "sweep.supervised"]
        worker_spans = [r for r in records if r["name"] == "sweep.span"]
        assert len(supervised) == 1
        assert worker_spans, "workers produced no span records"
        # Every worker span is parented on the supervisor span it was
        # dispatched under, in the same trace.
        for span in worker_spans:
            assert span["parent_id"] == supervised[0]["span_id"]
            assert span["trace_id"] == supervised[0]["trace_id"]
            assert span["attrs"]["stop"] > span["attrs"]["start"]
        # The records were produced in the worker processes themselves.
        assert all(s["pid"] != 0 for s in worker_spans)
        assert any(s["pid"] != os.getpid() for s in worker_spans)
        # Worker spans cover the whole index range exactly once per
        # evaluated span (no gaps: spans tile [1, S+1)).
        edges = sorted((s["attrs"]["start"], s["attrs"]["stop"])
                       for s in worker_spans)
        assert edges[0][0] == 1
        assert edges[-1][1] == small_space.size + 1
        for (_, prev_stop), (start, _) in zip(edges, edges[1:]):
            assert start == prev_stop

    def test_sweep_is_bit_identical_with_tracing_on_and_off(
            self, tmp_path, small_space, small_capacities):
        cap_off, cost_off, _ = evaluate_resilient(
            small_space, small_capacities, workers=2, chunk_size=4)
        configure_tracing(tmp_path / "t.jsonl")
        cap_on, cost_on, _ = evaluate_resilient(
            small_space, small_capacities, workers=2, chunk_size=4)
        assert cap_on.tobytes() == cap_off.tobytes()
        assert cost_on.tobytes() == cost_off.tobytes()
        serial = small_space.evaluate(small_capacities)
        assert np.array_equal(serial.capacity_gips, cap_on)

    def test_sweep_metrics_reach_global_registry(
            self, small_space, small_capacities):
        _, _, stats = evaluate_resilient(small_space, small_capacities,
                                         workers=2, chunk_size=4)
        counters = global_registry().snapshot()["counters"]
        assert counters["sweep_runs_total"] == 1
        assert counters["sweep_spans_evaluated_total"] == \
            stats.spans_evaluated
        assert counters["sweep_workers_spawned_total"] >= 2
        hist = global_registry().snapshot()["histograms"]["sweep_wall_s"]
        assert hist["count"] == 1

    def test_worker_profiles_ship_back_at_drain(
            self, monkeypatch, small_space, small_capacities):
        monkeypatch.setenv("CELIA_PROFILE", "1")
        evaluate_resilient(small_space, small_capacities, workers=2,
                           chunk_size=4)
        store = get_store()
        assert store.blocks("sweep.worker") >= 1
        rows = store.tables()["sweep.worker"]
        assert rows and rows[0]["cumulative_s"] >= 0.0


class TestCacheAndRuntimeInstrumentation:
    def test_cache_spans_and_counters(self, tmp_path, small_space,
                                      small_capacities):
        from repro.cache import EvaluationCache

        configure_tracing()
        cache = EvaluationCache(tmp_path / "cache")
        assert cache.load(small_space, small_capacities) is None
        evaluation = small_space.evaluate(small_capacities)
        cache.store(evaluation, small_capacities)
        assert cache.load(small_space, small_capacities) is not None
        counters = global_registry().snapshot()["counters"]
        assert counters["eval_cache_misses_total"] == 1
        assert counters["eval_cache_hits_total"] == 1
        loads = [r for r in get_tracer().records()
                 if r["name"] == "cache.load"]
        assert [r["attrs"]["hit"] for r in loads] == [False, True]

    def test_runtime_execute_emits_span_and_verdict_counter(self):
        from repro.apps import application_by_name
        from repro.cloud.catalog import ec2_catalog
        from repro.core.celia import Celia
        from repro.runtime import AdaptiveController, chaos_scenario

        configure_tracing()
        celia = Celia(ec2_catalog(max_nodes_per_type=2), seed=1,
                      cache_dir=False)
        controller = AdaptiveController(
            celia, application_by_name("galaxy", seed=1),
            scenario=chaos_scenario("calm"), seed=1)
        report = controller.execute(65536, 8000, 40.0, 400.0)
        span = next(r for r in get_tracer().records()
                    if r["name"] == "runtime.execute")
        assert span["attrs"]["verdict"] == report.verdict
        assert span["attrs"]["scenario"] == "calm"
        counters = global_registry().snapshot()["counters"]
        assert counters["runtime_runs_total"] == 1
        verdict_series = f'runtime_verdicts_total{{verdict="{report.verdict}"}}'
        assert counters[verdict_series] == 1


class TestCliJsonContract:
    """Every ``--json`` path: stdout is one JSON document, nothing else."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CELIA_CACHE_DIR", str(tmp_path / "cache"))

    def _run_json(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, json.loads(captured.out), captured.err

    def test_sweep_json_fresh_and_cached(self, capsys):
        argv = ["--quota", "2", "--workers", "2", "sweep", "galaxy",
                "--json"]
        code, fresh, _ = self._run_json(capsys, argv)
        assert code == 0
        assert fresh["cached"] is False
        assert fresh["spans_evaluated"] >= 1
        code, cached, _ = self._run_json(capsys, argv)
        assert code == 0
        assert cached["cached"] is True
        assert cached["key"] == fresh["key"]

    def test_sweep_human_notice_stays_on_stdout(self, capsys):
        # The CI smoke pipeline greps this exact phrase from stdout.
        assert main(["--quota", "2", "sweep", "galaxy"]) == 0
        capsys.readouterr()
        assert main(["--quota", "2", "sweep", "galaxy"]) == 0
        assert "already cached" in capsys.readouterr().out

    def test_trace_summary_and_profile_json(self, capsys, monkeypatch,
                                            tmp_path):
        monkeypatch.setenv("CELIA_PROFILE", "1")
        trace = tmp_path / "run.jsonl"
        code = main(["--quota", "2", "--workers", "2", "--trace",
                     str(trace), "sweep", "galaxy"])
        captured = capsys.readouterr()
        assert code == 0
        assert "trace written" in captured.err  # diagnostic on stderr
        code, summary, _ = self._run_json(
            capsys, ["trace", "summary", str(trace), "--json"])
        assert code == 0
        assert summary["spans"] >= 3
        assert summary["coverage"] >= 0.95  # the acceptance bar
        assert "cli.sweep" in summary["by_name"]
        assert "sweep.span" in summary["by_name"]
        code, tables, _ = self._run_json(
            capsys, ["profile", str(trace), "--json"])
        assert code == 0
        assert "sweep.worker" in tables

    def test_trace_export_writes_loadable_chrome_json(self, capsys,
                                                      tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["--quota", "2", "--trace", str(trace), "sweep",
                     "galaxy"]) == 0
        capsys.readouterr()
        out = tmp_path / "run.chrome.json"
        assert main(["trace", "export", str(trace), "--output",
                     str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        names = {e["name"] for e in doc["traceEvents"]}
        assert "cli.sweep" in names

    def test_trace_export_default_output_path(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps({
            "kind": "span", "name": "a", "trace_id": "t", "span_id": "s",
            "parent_id": None, "start_s": 0.0, "wall_s": 1.0,
            "cpu_s": 0.5, "status": "ok", "pid": 1, "attrs": {}}) + "\n")
        assert main(["trace", "export", str(trace)]) == 0
        capsys.readouterr()
        assert (tmp_path / "t.jsonl.chrome.json").exists()

    def test_trace_commands_fail_cleanly_on_missing_file(self, capsys,
                                                         tmp_path):
        code = main(["trace", "summary", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_execute_json_with_trace(self, capsys, tmp_path):
        trace = tmp_path / "exec.jsonl"
        code = main(["--seed", "1", "--quota", "2", "--trace", str(trace),
                     "execute", "galaxy", "65536", "8000",
                     "--deadline", "40", "--budget", "400", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)  # stdout is pure JSON
        assert report["verdict"] == "met"
        names = {r["name"] for r in read_trace(trace)}
        assert {"cli.execute", "runtime.execute",
                "runtime.provision"} <= names


class TestServiceMetricsMerge:
    def test_server_merges_global_registry(self):
        import asyncio

        from repro.fleet import FleetFrontend, LocalFleet
        from repro.service import PlannerService, ServiceConfig

        global_registry().counter("sweep_runs_total").increment(3)
        service = PlannerService(config=ServiceConfig(default_quota=2,
                                                      cache_dir=False))
        service.metrics.counter("requests_total").increment()

        async def snapshot():
            server = FleetFrontend(LocalFleet(service))
            return await server._metrics_snapshot()

        merged = asyncio.run(snapshot())
        # Service series carry the shard's worker label; the process-
        # global series ride along unlabelled, each exactly once.
        counters = merged["counters"]
        assert counters['requests_total{worker="w0"}'] == 1
        assert "requests_total" not in counters
        assert counters["sweep_runs_total"] == 3
        assert 'sweep_runs_total{worker="w0"}' not in counters
