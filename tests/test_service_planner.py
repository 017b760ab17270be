"""Tests for :class:`repro.service.PlannerService`.

Covers warm-state reuse, micro-batching (including bit-identity against
direct `select_configurations` calls — the service must never change an
answer), the LRU result cache, admission control and per-request
deadlines under induced slowness (`ServiceFaults`).

All service state lives on an asyncio loop; each test drives one with
``asyncio.run``.
"""

import asyncio

import pytest

from repro.cloud.catalog import make_catalog
from repro.core.selection import select_configurations
from repro.errors import ValidationError
from repro.service import (
    PlannerService,
    RequestTimeoutError,
    ServiceConfig,
    ServiceFaults,
    ServiceSaturatedError,
    selection_to_dict,
)

ROWS = [("a.small", 2, 2.0, 0.10), ("a.big", 4, 2.0, 0.21),
        ("b.small", 2, 2.5, 0.16)]


def tiny_catalog(quota: int):
    return make_catalog(ROWS, quota=quota)


def make_service(*, faults: ServiceFaults | None = None,
                 **config_overrides) -> PlannerService:
    config_overrides.setdefault("default_quota", 2)
    config_overrides.setdefault("cache_dir", False)
    return PlannerService(
        config=ServiceConfig(**config_overrides),
        faults=faults,
        catalog_factory=tiny_catalog,
    )


SELECT_ARGS = dict(n=65536.0, a=2000.0, deadline_hours=48.0,
                   budget_dollars=350.0)


class TestWarmState:
    def test_state_built_once_across_requests(self):
        service = make_service()

        async def run():
            for a in (2000.0, 2100.0, 2200.0):
                await service.select("galaxy", 65536.0, a, 48.0, 350.0)

        asyncio.run(run())
        snap = service.metrics.snapshot()
        assert snap["histograms"]["warm_build_s"]["count"] == 1
        assert snap["gauges"]["warm_signatures"] == 1.0
        assert service.warm_signatures[0].app == "galaxy"

    def test_distinct_signatures_get_distinct_states(self):
        service = make_service()

        async def run():
            await service.warm("galaxy")
            await service.warm("galaxy", quota=1)
            await service.warm("x264")

        asyncio.run(run())
        assert len(service.warm_signatures) == 3

    def test_racing_warmers_share_one_build(self):
        service = make_service()

        async def run():
            await asyncio.gather(*[service.warm("galaxy") for _ in range(8)])

        asyncio.run(run())
        assert service.metrics.snapshot(
        )["histograms"]["warm_build_s"]["count"] == 1

    def test_unknown_app_rejected(self):
        service = make_service()
        with pytest.raises(ValidationError):
            asyncio.run(service.select("hadoop", 1.0, 1.0, 1.0, 1.0))


class TestWarmStateEviction:
    def test_max_warm_states_validated(self):
        with pytest.raises(ValidationError):
            ServiceConfig(max_warm_states=0)
        assert ServiceConfig(max_warm_states=1).max_warm_states == 1
        assert ServiceConfig().max_warm_states is None

    def test_lru_eviction_and_bit_identical_rebuild(self):
        """Over the cap, the least-recently-used signature's state is
        dropped — and its next request rebuilds it lazily with the exact
        same answer (the fleet's restart/eviction guarantee)."""
        service = make_service(max_warm_states=2, result_cache_size=0)

        async def run():
            first = await service.select("galaxy", seed=0, **SELECT_ARGS)
            await service.select("galaxy", seed=1, **SELECT_ARGS)
            await service.select("galaxy", seed=2, **SELECT_ARGS)
            survivors = {s.seed for s in service.warm_signatures}
            again = await service.select("galaxy", seed=0, **SELECT_ARGS)
            return first, survivors, again

        first, survivors, again = asyncio.run(run())
        # Seed 0 was the LRU victim; the newest two stayed resident.
        assert survivors == {1, 2}
        assert again["cached"] is False
        assert again["result"] == first["result"]
        snap = service.metrics.snapshot()
        assert snap["counters"]["warm_evictions"] == 2  # 0 out, then 1
        assert snap["gauges"]["warm_signatures"] == 2.0
        assert snap["histograms"]["warm_build_s"]["count"] == 4
        assert {s.seed for s in service.warm_signatures} == {2, 0}

    def test_warm_respects_the_cap(self):
        service = make_service(max_warm_states=1)

        async def run():
            await service.warm("galaxy", seed=0)
            await service.warm("galaxy", seed=1)

        asyncio.run(run())
        assert [s.seed for s in service.warm_signatures] == [1]
        assert service.metrics.snapshot(
        )["counters"]["warm_evictions"] == 1

    def test_unbounded_by_default(self):
        service = make_service()

        async def run():
            for seed in range(4):
                await service.warm("galaxy", seed=seed)

        asyncio.run(run())
        assert len(service.warm_signatures) == 4
        assert "warm_evictions" not in \
            service.metrics.snapshot()["counters"]


class TestBatching:
    def test_concurrent_requests_coalesce(self):
        service = make_service(batch_window_s=0.05)

        async def run():
            return await asyncio.gather(*[
                service.select("galaxy", 65536.0, 2000.0 + i, 48.0, 350.0)
                for i in range(6)
            ])

        responses = asyncio.run(run())
        assert all(r["kind"] == "select" for r in responses)
        snap = service.metrics.snapshot()
        assert snap["counters"]["batches_total"] == 1
        assert snap["histograms"]["batch_size"]["max"] == 6.0

    def test_max_batch_flushes_without_waiting_for_window(self):
        # A 30 s window would time the test out unless hitting max_batch
        # flushes immediately.
        service = make_service(batch_window_s=30.0, max_batch=2,
                               default_timeout_s=20.0)

        async def run():
            return await asyncio.gather(
                service.select("galaxy", 65536.0, 2000.0, 48.0, 350.0),
                service.select("galaxy", 65536.0, 2500.0, 48.0, 350.0),
            )

        responses = asyncio.run(run())
        assert len(responses) == 2
        assert service.metrics.snapshot()["counters"]["batches_total"] == 1

    def test_batched_responses_bit_identical_to_single_query(self):
        """Acceptance criterion: a batched response equals the direct
        `select_configurations` result for the same query, bit for bit."""
        service = make_service(batch_window_s=0.05)
        queries = [(65536.0, 2000.0 + 137.0 * i, 48.0 - i, 350.0 - 10.0 * i)
                   for i in range(5)]

        async def run():
            return await asyncio.gather(*[
                service.select("galaxy", n, a, t, c)
                for n, a, t, c in queries
            ])

        responses = asyncio.run(run())
        assert service.metrics.snapshot()["counters"]["batches_total"] == 1

        signature = service.signature("galaxy")
        state = service._states[signature]
        for (n, a, t, c), response in zip(queries, responses):
            demand = state.celia.demand_gi(state.app, n, a)
            direct = select_configurations(
                state.celia.evaluation(state.app), demand, t, c)
            assert response["result"] == selection_to_dict(direct)

    def test_different_signatures_do_not_share_batches(self):
        service = make_service(batch_window_s=0.05)

        async def run():
            return await asyncio.gather(
                service.select("galaxy", 65536.0, 2000.0, 48.0, 350.0),
                service.select("x264", 4096.0, 30.0, 48.0, 350.0),
            )

        asyncio.run(run())
        assert service.metrics.snapshot()["counters"]["batches_total"] == 2


class TestResultCache:
    def test_repeat_request_is_cached(self):
        service = make_service()

        async def run():
            first = await service.select("galaxy", **SELECT_ARGS)
            second = await service.select("galaxy", **SELECT_ARGS)
            return first, second

        first, second = asyncio.run(run())
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["result"] == second["result"]
        snap = service.metrics.snapshot()
        assert snap["counters"]["cache_hits"] == 1

    def test_lru_evicts_oldest(self):
        service = make_service(result_cache_size=2)

        async def run():
            await service.select("galaxy", 65536.0, 2000.0, 48.0, 350.0)
            await service.select("galaxy", 65536.0, 2100.0, 48.0, 350.0)
            await service.select("galaxy", 65536.0, 2200.0, 48.0, 350.0)
            # 2000 was evicted; 2200 is still resident.
            evicted = await service.select("galaxy", 65536.0, 2000.0,
                                           48.0, 350.0)
            resident = await service.select("galaxy", 65536.0, 2200.0,
                                            48.0, 350.0)
            return evicted, resident

        evicted, resident = asyncio.run(run())
        assert evicted["cached"] is False
        assert resident["cached"] is True

    def test_top_is_part_of_the_key(self):
        service = make_service()

        async def run():
            full = await service.select("galaxy", top=0, **SELECT_ARGS)
            trimmed = await service.select("galaxy", top=1, **SELECT_ARGS)
            return full, trimmed

        full, trimmed = asyncio.run(run())
        assert trimmed["cached"] is False
        assert len(trimmed["result"]["pareto"]) == 1
        assert trimmed["result"]["pareto_count"] == \
            full["result"]["pareto_count"]


class TestAdmissionControl:
    def test_saturated_queue_returns_typed_rejection(self):
        """With compute slowed down, the queue fills and overflow requests
        are rejected with `ServiceSaturatedError` — while every admitted
        request still completes within its deadline."""
        service = make_service(
            faults=ServiceFaults(compute_delay_s=0.3),
            max_queue_depth=2, batch_window_s=0.0, max_batch=1,
            default_timeout_s=30.0)

        async def run():
            await service.warm("galaxy")
            admitted = [
                asyncio.create_task(service.select(
                    "galaxy", 65536.0, 2000.0 + i, 48.0, 350.0))
                for i in range(2)
            ]
            await asyncio.sleep(0.1)  # both admitted, batches in flight
            with pytest.raises(ServiceSaturatedError) as exc_info:
                await service.select("galaxy", 65536.0, 9000.0, 48.0, 350.0)
            assert exc_info.value.max_queue_depth == 2
            return await asyncio.gather(*admitted)

        responses = asyncio.run(run())
        assert all(r["result"]["pareto_count"] > 0 for r in responses)
        snap = service.metrics.snapshot()
        assert snap["counters"]["rejected_saturated"] == 1
        assert snap["counters"]["requests_select"] == 2
        assert snap["gauges"]["queue_depth"] == 0.0

    def test_capacity_recovers_after_drain(self):
        service = make_service(max_queue_depth=1)

        async def run():
            first = await service.select("galaxy", 65536.0, 2000.0,
                                         48.0, 350.0)
            # The queue drained, so the next uncached request is admitted.
            second = await service.select("galaxy", 65536.0, 2100.0,
                                          48.0, 350.0)
            return first, second

        first, second = asyncio.run(run())
        assert first["cached"] is False and second["cached"] is False

    def test_cache_hits_bypass_admission(self):
        service = make_service(
            faults=ServiceFaults(compute_delay_s=0.3),
            max_queue_depth=1, batch_window_s=0.0, max_batch=1)

        async def run():
            cached_response = await service.select("galaxy", **SELECT_ARGS)
            assert cached_response["cached"] is False
            blocker = asyncio.create_task(service.select(
                "galaxy", 65536.0, 7777.0, 48.0, 350.0))
            await asyncio.sleep(0.1)  # blocker owns the only queue slot
            hit = await service.select("galaxy", **SELECT_ARGS)
            assert hit["cached"] is True
            await blocker
            return hit

        asyncio.run(run())


class TestDeadlines:
    def test_slow_compute_times_out_with_typed_error(self):
        service = make_service(faults=ServiceFaults(compute_delay_s=0.5),
                               batch_window_s=0.0, max_batch=1)

        async def run():
            await service.warm("galaxy")
            with pytest.raises(RequestTimeoutError) as exc_info:
                await service.select("galaxy", timeout_s=0.05, **SELECT_ARGS)
            assert exc_info.value.timeout_s == pytest.approx(0.05)

        asyncio.run(run())
        snap = service.metrics.snapshot()
        assert snap["counters"]["rejected_timeout"] == 1
        assert snap["gauges"]["queue_depth"] == 0.0

    def test_generous_deadline_completes_despite_slowness(self):
        service = make_service(faults=ServiceFaults(compute_delay_s=0.1),
                               batch_window_s=0.0, max_batch=1)

        async def run():
            return await service.select("galaxy", timeout_s=20.0,
                                        **SELECT_ARGS)

        response = asyncio.run(run())
        assert response["result"]["pareto_count"] > 0

    def test_slow_warm_counts_against_the_deadline(self):
        service = make_service(faults=ServiceFaults(warm_delay_s=0.5))

        async def run():
            with pytest.raises(RequestTimeoutError):
                await service.select("galaxy", timeout_s=0.05, **SELECT_ARGS)

        asyncio.run(run())


class TestPredictAndPlan:
    def test_predict_matches_direct_computation(self):
        service = make_service()
        config = [1, 2, 0]

        async def run():
            return await service.predict("galaxy", 65536.0, 2000.0, config)

        response = asyncio.run(run())
        state = service._states[service.signature("galaxy")]
        direct = state.celia.predict(state.app, 65536.0, 2000.0, config)
        assert response["result"]["cost_dollars"] == direct.cost_dollars
        assert response["result"]["configuration"] == config

    def test_plan_requires_exactly_one_knob(self):
        service = make_service()
        with pytest.raises(ValidationError):
            asyncio.run(service.plan("galaxy", 24.0, 50.0,
                                     knob_range=(1.0, 2.0)))
        with pytest.raises(ValidationError):
            asyncio.run(service.plan("galaxy", 24.0, 50.0, fix_size=1.0,
                                     fix_accuracy=2.0,
                                     knob_range=(1.0, 2.0)))

    def test_plan_returns_serialized_plan(self):
        service = make_service()

        async def run():
            return await service.plan(
                "galaxy", 24.0, 50.0, fix_size=65536.0,
                knob_range=(100.0, 20000.0), integral=True)

        response = asyncio.run(run())
        result = response["result"]
        assert result["knob"] == "accuracy"
        assert result["answer"]["cost_dollars"] < 50.0


class TestHandleDispatch:
    def test_select_request_round_trip(self):
        service = make_service()
        request = {"kind": "select", "app": "galaxy", "n": 65536, "a": 2000,
                   "deadline_hours": 48, "budget_dollars": 350, "top": 2}

        async def run():
            return await service.handle(request)

        response = asyncio.run(run())
        assert response["kind"] == "select"
        assert len(response["result"]["pareto"]) <= 2

    def test_unknown_kind_rejected(self):
        service = make_service()
        with pytest.raises(ValidationError):
            asyncio.run(service.handle({"kind": "teleport"}))

    def test_missing_field_rejected(self):
        service = make_service()
        with pytest.raises(ValidationError):
            asyncio.run(service.handle({"kind": "select", "app": "galaxy"}))

    def test_non_dict_rejected(self):
        service = make_service()
        with pytest.raises(ValidationError):
            asyncio.run(service.handle([1, 2, 3]))
