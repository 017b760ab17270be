"""Tests for the planning service's replan endpoint and metrics."""

import asyncio

import pytest

from repro.cloud.catalog import make_catalog
from repro.errors import ValidationError
from repro.fleet import FleetFrontend, LocalFleet
from repro.service import (
    PlannerClient,
    PlannerService,
    ServiceConfig,
)

ROWS = [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
        ("b.small", 2, 2.5, 0.16)]

#: galaxy(65536, 8000) demand under the test catalog's measurement —
#: large enough that tight envelopes force degradation.
FULL_DEMAND_GI = 1.067e7


def make_service(**overrides) -> PlannerService:
    overrides.setdefault("default_quota", 2)
    overrides.setdefault("cache_dir", False)
    return PlannerService(
        config=ServiceConfig(**overrides),
        catalog_factory=lambda quota: make_catalog(ROWS, quota=quota),
    )


def replan(service, *args, **kwargs):
    return asyncio.run(service.replan(*args, **kwargs))


class TestReplanPayloads:
    def test_feasible_residual_plan(self):
        service = make_service()
        response = replan(service, "galaxy", 1e6, 1000.0, 10_000.0)
        result = response["result"]
        assert response["kind"] == "replan"
        assert result["feasible"] and not result["degraded"]
        assert sum(result["configuration"]) >= 1
        assert result["time_hours"] <= 1000.0
        assert result["cost_dollars"] <= 10_000.0

    def test_degraded_answer_when_infeasible_with_params(self):
        service = make_service()
        response = replan(service, "galaxy", FULL_DEMAND_GI, 48.0, 350.0,
                          n=65536, accuracy=8000)
        result = response["result"]
        assert result["feasible"] and result["degraded"]
        assert result["accuracy"] < 8000
        assert 0 < result["accuracy_score"] < 1
        assert result["time_hours"] <= 48.0
        assert result["cost_dollars"] <= 350.0

    def test_infeasible_without_params_says_how_to_degrade(self):
        service = make_service()
        response = replan(service, "galaxy", FULL_DEMAND_GI, 48.0, 350.0)
        result = response["result"]
        assert not result["feasible"] and not result["degraded"]
        assert "supply n and accuracy" in result["detail"]

    def test_infeasible_even_at_floor_is_explicit(self):
        service = make_service()
        response = replan(service, "galaxy", FULL_DEMAND_GI, 0.001, 0.5,
                          n=65536, accuracy=8000)
        result = response["result"]
        assert not result["feasible"]
        assert result["accuracy_floor"] == 1000.0
        assert "accuracy floor" in result["detail"]

    def test_efficiency_inflates_the_query(self):
        service = make_service()
        full = replan(service, "galaxy", 1e6, 1000.0, 10_000.0)
        slow = replan(service, "galaxy", 1e6, 1000.0, 10_000.0,
                      efficiency=0.5)
        # Half-efficiency fleets need roughly double the planned time on
        # the same cheapest configuration.
        assert slow["result"]["time_hours"] > full["result"]["time_hours"]

    def test_validation(self):
        service = make_service()
        with pytest.raises(ValidationError):
            replan(service, "galaxy", 0.0, 10.0, 100.0)
        with pytest.raises(ValidationError):
            replan(service, "galaxy", 1e6, 10.0, 100.0, efficiency=0.0)
        with pytest.raises(ValidationError):
            replan(service, "galaxy", 1e6, 10.0, 100.0, efficiency=1.5)


class TestReplanMetrics:
    def test_counters_track_replans_and_degradations(self):
        service = make_service()
        replan(service, "galaxy", 1e6, 1000.0, 10_000.0)
        replan(service, "galaxy", FULL_DEMAND_GI, 48.0, 350.0,
               n=65536, accuracy=8000)
        counters = service.metrics.snapshot()["counters"]
        assert counters["replans_total"] == 2
        assert counters["degradations_total"] == 1
        assert counters["requests_replan"] == 2

    def test_replans_are_not_cached(self):
        service = make_service()
        first = replan(service, "galaxy", 1e6, 1000.0, 10_000.0)
        second = replan(service, "galaxy", 1e6, 1000.0, 10_000.0)
        assert first["cached"] is False
        assert second["cached"] is False
        assert first["result"] == second["result"]


class TestReplanOverHttp:
    def test_round_trip_matches_in_process(self):
        service = make_service()

        async def run():
            server = FleetFrontend(LocalFleet(service))
            await server.start()
            try:
                client = PlannerClient(port=server.port)
                loop = asyncio.get_running_loop()
                http = await loop.run_in_executor(
                    None, lambda: client.replan(
                        "galaxy", remaining_gi=FULL_DEMAND_GI,
                        residual_deadline_hours=48.0,
                        residual_budget_dollars=350.0,
                        n=65536, accuracy=8000))
                direct = await service.replan(
                    "galaxy", FULL_DEMAND_GI, 48.0, 350.0,
                    n=65536.0, accuracy=8000.0)
                return http, direct
            finally:
                await server.stop()

        http, direct = asyncio.run(run())
        assert http["result"] == direct["result"]
        assert http["result"]["degraded"]
