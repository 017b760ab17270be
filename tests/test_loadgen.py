"""Tests for :mod:`repro.loadgen` — generator, replayer, report, capacity.

The determinism tests are the heart: a trace must be byte-identical for
the same seed (including across a fresh interpreter), and a replay
report must not depend on the concurrency interleaving that produced its
observations.  The e2e tests replay short traces against a real
in-process ``celia serve`` stack (the front end over a
:class:`~repro.fleet.LocalFleet`) on a tiny catalog.
"""

import asyncio
import json
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import EvaluationCache
from repro.cloud.catalog import make_catalog
from repro.errors import ValidationError
from repro.loadgen import (
    APP_ENVELOPES,
    ReplayReport,
    Trace,
    TraceRequest,
    WorkloadConfig,
    check_invariants,
    generate_trace,
    merge_sorted,
    prewarm,
    replay_trace,
    tenant_mix,
)
from repro.loadgen.replay import Observation, ReplayResult
from repro.obs.metrics import MetricsRegistry, group_by_label, parse_series
from repro.fleet import FleetFrontend, LocalFleet
from repro.service import PlannerService, ServiceConfig

ROWS = [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
        ("b.small", 2, 2.5, 0.16)]

SMALL = WorkloadConfig(tenants=3, duration_s=4.0, mean_rps=6.0, seed=11,
                       name="small")


def make_service(**overrides) -> PlannerService:
    overrides.setdefault("default_quota", 2)
    overrides.setdefault("cache_dir", False)
    return PlannerService(
        config=ServiceConfig(**overrides),
        catalog_factory=lambda quota: make_catalog(ROWS, quota=quota),
    )


# ---------------------------------------------------------------------------
# generator determinism
# ---------------------------------------------------------------------------


class TestGeneratorDeterminism:
    def test_same_seed_byte_identical(self):
        assert (generate_trace(SMALL).to_jsonl()
                == generate_trace(SMALL).to_jsonl())

    def test_different_seed_differs(self):
        other = WorkloadConfig(tenants=3, duration_s=4.0, mean_rps=6.0,
                               seed=12, name="small")
        assert generate_trace(SMALL).to_jsonl() != generate_trace(other).to_jsonl()

    def test_byte_identical_across_processes(self):
        """A fresh interpreter reproduces the exact same bytes."""
        script = (
            "from repro.loadgen import WorkloadConfig, generate_trace\n"
            "import sys\n"
            "cfg = WorkloadConfig(tenants=3, duration_s=4.0, mean_rps=6.0,"
            " seed=11, name='small')\n"
            "sys.stdout.write(generate_trace(cfg).to_jsonl())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True)
        assert out.stdout == generate_trace(SMALL).to_jsonl()

    def test_trace_name_does_not_feed_rng(self):
        """Renaming a trace must not perturb any stochastic choice."""
        renamed = WorkloadConfig(tenants=3, duration_s=4.0, mean_rps=6.0,
                                 seed=11, name="renamed")
        a = generate_trace(SMALL)
        b = generate_trace(renamed)
        assert [r.to_dict() for r in a.requests] == \
            [r.to_dict() for r in b.requests]

    def test_tenant_streams_are_independent(self):
        """Equal-rate tenants still draw from distinct keyed streams."""
        cfg = WorkloadConfig(tenants=2, duration_s=10.0, mean_rps=8.0,
                             seed=4, tenant_skew=0.0, apps=("x264",))
        trace = generate_trace(cfg)
        by_tenant = {}
        for req in trace.requests:
            by_tenant.setdefault(req.tenant, []).append(req.arrival_s)
        assert set(by_tenant) == {"t00", "t01"}
        assert by_tenant["t00"] != by_tenant["t01"]

    def test_demand_points_respect_envelope_and_integrality(self):
        trace = generate_trace(WorkloadConfig(
            tenants=6, duration_s=6.0, mean_rps=20.0, seed=3))
        assert trace.requests, "trace unexpectedly empty"
        for req in trace.requests:
            n_lo, n_hi, a_lo, a_hi = APP_ENVELOPES[req.app]
            assert n_lo <= req.n <= max(n_hi, round(n_hi))
            assert a_lo <= req.a <= max(a_hi, round(a_hi))
            if req.app in ("x264", "galaxy", "sand"):
                assert req.n == round(req.n)
            if req.app == "galaxy":
                assert req.a == round(req.a)
                assert req.a >= 1

    def test_arrivals_sorted_and_ids_dense(self):
        trace = generate_trace(SMALL)
        arrivals = [r.arrival_s for r in trace.requests]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in trace.requests] == list(
            range(len(trace.requests)))
        assert all(0.0 <= a < trace.duration_s for a in arrivals)

    def test_tenant_mix_round_robin_and_zipf(self):
        profiles = tenant_mix(WorkloadConfig(tenants=4, seed=0))
        assert [p.app for p in profiles] == [
            "galaxy", "x264", "sand", "galaxy"]
        rates = [p.request_rate_per_s for p in profiles]
        assert rates == sorted(rates, reverse=True)
        assert rates[0] > rates[-1]
        assert abs(sum(rates) - 20.0) < 1e-9

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_seed_determinism(self, seed):
        cfg = WorkloadConfig(tenants=2, duration_s=2.0, mean_rps=4.0,
                             seed=seed)
        assert generate_trace(cfg).to_jsonl() == generate_trace(cfg).to_jsonl()

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            WorkloadConfig(tenants=0)
        with pytest.raises(ValidationError):
            WorkloadConfig(mean_rps=0.0)
        with pytest.raises(ValidationError):
            WorkloadConfig(diurnal_amplitude=1.0)
        with pytest.raises(ValidationError):
            WorkloadConfig(think_alpha=1.0)
        with pytest.raises(ValidationError):
            WorkloadConfig(apps=("hadoop",))


# ---------------------------------------------------------------------------
# trace container
# ---------------------------------------------------------------------------


class TestTrace:
    def test_jsonl_round_trip(self):
        trace = generate_trace(SMALL)
        again = Trace.from_jsonl(trace.to_jsonl())
        assert again == trace
        assert again.to_jsonl() == trace.to_jsonl()

    def test_write_read(self, tmp_path):
        trace = generate_trace(SMALL)
        path = trace.write(tmp_path / "t.jsonl")
        assert Trace.read(path) == trace

    def test_validate_rejects_unsorted(self):
        req = TraceRequest(request_id=0, arrival_s=2.0, tenant="t00",
                           app="x264", quota=2, seed=0, n=600.0, a=10.0,
                           deadline_hours=48.0, budget_dollars=350.0)
        req2 = TraceRequest(request_id=1, arrival_s=1.0, tenant="t00",
                            app="x264", quota=2, seed=0, n=600.0, a=10.0,
                            deadline_hours=48.0, budget_dollars=350.0)
        with pytest.raises(ValidationError):
            Trace(name="bad", seed=0, duration_s=4.0,
                  requests=(req, req2), config={})

    def test_merge_sorted_reassigns_dense_ids(self):
        def req(arrival, tenant):
            return TraceRequest(request_id=0, arrival_s=arrival,
                                tenant=tenant, app="x264", quota=2, seed=0,
                                n=600.0, a=10.0, deadline_hours=48.0,
                                budget_dollars=350.0)

        merged = merge_sorted([[req(0.5, "a"), req(2.0, "a")],
                               [req(1.0, "b")]])
        assert [r.request_id for r in merged] == [0, 1, 2]
        assert [r.tenant for r in merged] == ["a", "b", "a"]

    def test_offered_rps_and_tenants(self):
        trace = generate_trace(SMALL)
        assert trace.offered_rps() == pytest.approx(
            len(trace.requests) / trace.duration_s)
        assert trace.tenants == tuple(sorted({r.tenant
                                              for r in trace.requests}))


# ---------------------------------------------------------------------------
# report determinism + invariants
# ---------------------------------------------------------------------------


def _synthetic_result(n=40, seed=5) -> ReplayResult:
    rng = random.Random(seed)
    observations = []
    for i in range(n):
        status = rng.choices(["ok", "shed", "error"], [8, 1, 1])[0]
        observations.append(Observation(
            request_id=i, tenant=f"t{i % 3:02d}", arrival_s=i * 0.1,
            status=status,
            http_status=200 if status == "ok" else 503,
            code="" if status == "ok" else "saturated",
            latency_s=rng.uniform(0.01, 0.5),
            service_s=rng.uniform(0.01, 0.4),
            lag_s=rng.uniform(0.0, 0.005), burst=bool(i % 7 == 0)))
    return ReplayResult(trace_name="synthetic", trace_seed=seed,
                        duration_s=n * 0.1, time_scale=1.0, wall_s=n * 0.1,
                        observations=tuple(observations), peak_inflight=4)


class TestReport:
    def test_order_independent(self):
        """Same observations in any completion order => identical report."""
        result = _synthetic_result()
        report = ReplayReport.from_result(result)
        for shuffle_seed in range(5):
            shuffled = list(result.observations)
            random.Random(shuffle_seed).shuffle(shuffled)
            other = ReplayReport.from_result(ReplayResult(
                trace_name=result.trace_name, trace_seed=result.trace_seed,
                duration_s=result.duration_s, time_scale=result.time_scale,
                wall_s=result.wall_s, observations=tuple(shuffled),
                peak_inflight=result.peak_inflight))
            assert json.dumps(other.to_dict(), sort_keys=True) == \
                json.dumps(report.to_dict(), sort_keys=True)

    def test_counts_and_availability(self):
        report = ReplayReport.from_result(_synthetic_result())
        assert report.ok + report.shed + report.infeasible + report.errors \
            == report.requests
        answered = report.ok + report.errors
        assert report.availability == pytest.approx(report.ok / answered)
        assert check_invariants(report) == []

    def test_round_trip_and_save_load(self, tmp_path):
        report = ReplayReport.from_result(_synthetic_result())
        again = ReplayReport.from_dict(report.to_dict())
        assert again == report
        report.save(tmp_path / "r.json")
        assert ReplayReport.load(tmp_path / "r.json") == report

    def test_render_mentions_tenants(self):
        text = ReplayReport.from_result(_synthetic_result()).render()
        assert "t00" in text and "availability" in text

    def test_invariants_catch_bad_counts(self):
        report = ReplayReport.from_result(_synthetic_result())
        broken = ReplayReport.from_dict({**report.to_dict(), "ok":
                                         report.ok + 1})
        assert any("sum" in p for p in check_invariants(broken))

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValidationError):
            ReplayReport.from_dict({"trace_name": "x"})


# ---------------------------------------------------------------------------
# metrics label grouping (satellite: per-tenant snapshots)
# ---------------------------------------------------------------------------


class TestMetricsGrouping:
    def test_parse_series(self):
        name, labels = parse_series('lat_s{tenant="t01",status="ok"}')
        assert name == "lat_s"
        assert labels == {"tenant": "t01", "status": "ok"}

    def test_group_by_label(self):
        registry = MetricsRegistry()
        registry.counter("req_total",
                         labels={"tenant": "a", "status": "ok"}).increment(3)
        registry.counter("req_total",
                         labels={"tenant": "b", "status": "ok"}).increment(5)
        registry.gauge("inflight").set(2)
        groups = group_by_label(registry.snapshot(), "tenant")
        assert sorted(groups) == ["a", "b"]
        assert groups["a"]["counters"]['req_total{status="ok"}'] == 3
        assert groups["b"]["counters"]['req_total{status="ok"}'] == 5
        assert "inflight" not in groups["a"]["gauges"]


# ---------------------------------------------------------------------------
# cache trace artifacts (satellite: cache info counts traces distinctly)
# ---------------------------------------------------------------------------


class TestCacheTraces:
    def test_store_load_round_trip(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        trace = generate_trace(SMALL)
        key = cache.store_trace(trace.to_jsonl(), name=trace.name,
                                seed=trace.seed,
                                requests=len(trace.requests),
                                duration_s=trace.duration_s)
        assert cache.load_trace(key) == trace.to_jsonl()
        assert Trace.from_jsonl(cache.load_trace(key)) == trace

    def test_store_is_content_addressed(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        trace = generate_trace(SMALL)
        args = dict(name=trace.name, seed=trace.seed,
                    requests=len(trace.requests),
                    duration_s=trace.duration_s)
        assert cache.store_trace(trace.to_jsonl(), **args) == \
            cache.store_trace(trace.to_jsonl(), **args)

    def test_trace_entries_distinct_from_entries(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        trace = generate_trace(SMALL)
        cache.store_trace(trace.to_jsonl(), name=trace.name,
                          seed=trace.seed, requests=len(trace.requests),
                          duration_s=trace.duration_s)
        traces = cache.trace_entries()
        assert len(traces) == 1
        entry = traces[0]
        assert entry.name == "small"
        assert entry.seed == 11
        assert entry.requests == len(trace.requests)
        assert entry.bytes_on_disk > 0
        # evaluation entries() must NOT count trace artifacts
        assert cache.entries() == []

    def test_clear_removes_traces(self, tmp_path):
        cache = EvaluationCache(tmp_path)
        trace = generate_trace(SMALL)
        cache.store_trace(trace.to_jsonl(), name=trace.name,
                          seed=trace.seed, requests=len(trace.requests),
                          duration_s=trace.duration_s)
        cache.clear()
        assert cache.trace_entries() == []

    def test_load_unknown_key_returns_none(self, tmp_path):
        assert EvaluationCache(tmp_path).load_trace("0" * 64) is None


# ---------------------------------------------------------------------------
# end-to-end replay against a live in-process server
# ---------------------------------------------------------------------------


class TestReplayEndToEnd:
    def _replay(self, trace, *, registry=None, time_scale=4.0,
                prewarm_first=True):
        async def run():
            server = FleetFrontend(LocalFleet(make_service()))
            await server.start()
            try:
                if prewarm_first:
                    await prewarm(trace, port=server.port)
                return await replay_trace(
                    trace, port=server.port, time_scale=time_scale,
                    registry=registry, fetch_server_metrics=True)
            finally:
                await server.stop()

        return asyncio.run(run())

    def test_replay_all_ok_and_invariants(self):
        trace = generate_trace(SMALL)
        registry = MetricsRegistry()
        result = self._replay(trace, registry=registry)
        report = ReplayReport.from_result(result)
        assert report.requests == len(trace.requests)
        assert report.errors == 0
        assert report.ok == report.requests
        assert report.availability == 1.0
        assert check_invariants(report) == []
        # open-loop accounting: latency measured from intended arrival
        assert all(o.latency_s >= o.service_s - 1e-9
                   for o in result.observations)
        # server-side metrics were scraped
        assert 'requests_total{worker="w0"}' in \
            report.server_metrics.get("counters", {})

    def test_per_tenant_metrics_labels(self):
        trace = generate_trace(SMALL)
        registry = MetricsRegistry()
        self._replay(trace, registry=registry)
        groups = group_by_label(registry.snapshot(), "tenant")
        assert sorted(groups) == list(trace.tenants)
        for tenant, series in groups.items():
            assert series["counters"]['loadgen_requests_total{status="ok"}'] > 0

    def test_report_stable_under_replay_concurrency(self):
        """Replaying at different time scales answers the same requests;
        the per-tenant status counts must match (latency obviously
        differs, the *aggregation* must not depend on interleaving)."""
        trace = generate_trace(WorkloadConfig(
            tenants=2, duration_s=2.0, mean_rps=5.0, seed=21))
        fast = ReplayReport.from_result(self._replay(trace, time_scale=8.0))
        slow = ReplayReport.from_result(self._replay(trace, time_scale=2.0))
        assert fast.requests == slow.requests == len(trace.requests)
        assert [t.tenant for t in fast.tenants] == \
            [t.tenant for t in slow.tenants]
        assert [(t.tenant, t.requests, t.ok) for t in fast.tenants] == \
            [(t.tenant, t.requests, t.ok) for t in slow.tenants]

    def test_replay_against_dead_port_records_errors(self):
        trace = generate_trace(WorkloadConfig(
            tenants=1, duration_s=1.0, mean_rps=3.0, seed=2))

        async def run():
            return await replay_trace(trace, port=1, time_scale=8.0,
                                      timeout_s=2.0,
                                      fetch_server_metrics=False)

        report = ReplayReport.from_result(asyncio.run(run()))
        assert report.errors == report.requests
        assert report.availability == 0.0
        assert check_invariants(report) == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestLoadgenCli:
    def test_generate_to_file_deterministic(self, tmp_path, capsys):
        from repro.cli import main

        args = ["--seed", "11", "loadgen", "generate", "--tenants", "3",
                "--duration", "4", "--rps", "6", "--name", "small"]
        code = main(args + ["--output", str(tmp_path / "a.jsonl")])
        assert code == 0
        code = main(args + ["--output", str(tmp_path / "b.jsonl")])
        assert code == 0
        capsys.readouterr()
        a = (tmp_path / "a.jsonl").read_bytes()
        assert a == (tmp_path / "b.jsonl").read_bytes()
        assert a.decode() == generate_trace(SMALL).to_jsonl()

    def test_generate_to_cache_and_info(self, tmp_path, capsys):
        from repro.cli import main

        cache = str(tmp_path / "cache")
        code = main(["--seed", "11", "--cache-dir", cache, "loadgen",
                     "generate", "--tenants", "3", "--duration", "4",
                     "--rps", "6", "--name", "small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "stored trace" in out
        code = main(["--cache-dir", cache, "cache", "info"])
        assert code == 0
        out = capsys.readouterr().out
        assert "loadgen traces" in out
        assert "small" in out

    def test_generate_json_summary(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["--seed", "11", "--cache-dir",
                     str(tmp_path / "cache"), "loadgen", "generate",
                     "--tenants", "3", "--duration", "4", "--rps", "6",
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests"] > 0
        assert payload["seed"] == 11
        assert len(payload["cache_key"]) == 64

    def test_report_render(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "report.json"
        ReplayReport.from_result(_synthetic_result()).save(path)
        code = main(["loadgen", "report", str(path)])
        assert code == 0
        assert "availability" in capsys.readouterr().out

    def test_replay_missing_trace_errors(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["--cache-dir", str(tmp_path / "cache"), "loadgen",
                  "replay", "no-such-trace"])

    def test_trace_argument_accepts_unique_key_prefix(self, tmp_path):
        from repro.cli import _load_trace_argument

        cache = EvaluationCache(tmp_path)
        trace = generate_trace(SMALL)
        key = cache.store_trace(trace.to_jsonl(), name=trace.name,
                                seed=trace.seed,
                                requests=len(trace.requests),
                                duration_s=trace.duration_s)
        resolved = _load_trace_argument(key[:12], tmp_path, False)
        assert resolved == trace
        with pytest.raises(SystemExit):
            _load_trace_argument("ffff", tmp_path, False)


# ---------------------------------------------------------------------------
# capacity experiment (tiny sweep: 1 shard count x 1 intensity)
# ---------------------------------------------------------------------------


class TestCapacityExperiment:
    def test_small_sweep(self, tmp_path):
        from repro.experiments import capacity_exp
        from repro.experiments.common import ExperimentContext

        result = capacity_exp.run(
            ExperimentContext(seed=7),
            shard_counts=(1,), intensities_rps=(4.0,), duration_s=2.0,
            tenants=2, slo_p99_s=5.0, cache_dir=str(tmp_path))
        assert len(result.cells) == 1
        cell = result.cells[0]
        assert cell.shards == 1
        assert cell.errors == 0
        assert cell.feasible
        assert result.cheapest[4.0] == 1
        assert result.frontier[4.0] == (1,)
        rendered = result.render()
        assert "cheapest fleet" in rendered
        series = result.to_series()
        assert series["cheapest_shards_by_rps"]["4"] == 1

    def test_registered(self):
        from repro.experiments.registry import EXPERIMENTS

        assert "capacity" in EXPERIMENTS
