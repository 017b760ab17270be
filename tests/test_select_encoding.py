"""Differential test: served select text against the schema oracle.

The service writes a select's ``result`` from per-frontier-point
fragments (:class:`repro.service.serialize.SelectionEncoder`).  The
oracle is the schema itself: ``json.dumps(selection_to_dict(result))``
over the :class:`~repro.core.selection.SelectionResult` of
``index.select`` — the points and dicts the encoder never builds.  Every
text must equal the oracle's byte for byte.  The last test pins the
point of the encoder: a select miss on a shard worker builds no point,
no schema dict and runs no ``json.dumps`` over a result.
"""

import asyncio
import json
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import application_by_name
from repro.cloud.catalog import ec2_catalog
from repro.core import selection
from repro.core.celia import Celia
from repro.fleet.worker import ShardWorker
from repro.service import planner, serialize
from repro.service.planner import PlannerService, ServiceConfig
from repro.service.serialize import SelectionEncoder, selection_to_dict

APPS = ("galaxy", "x264", "sand")
#: Per-app ``(n_lo, n_hi, a_lo, a_hi)`` envelopes of the serve-unique
#: benchmark traffic (48 h / $350 queries at quota 5).
SERVE_UNIQUE_ENVELOPES = {
    "x264": (600.0, 1800.0, 1.0, 40.0),
    "galaxy": (65536.0, 65536.0, 2000.0, 8000.0),
    "sand": (4.0e6, 6.4e7, 0.04, 0.04),
}
#: ``(n, a)`` inside each envelope; the first is feasible under
#: 48 h / $350.
RUNS = {"galaxy": [(65536.0, 2000.0), (65536.0, 3500.0), (65536.0, 8000.0)],
        "x264": [(1200.0, 20.0), (600.0, 1.0), (1800.0, 40.0)],
        "sand": [(1.6e7, 0.04), (4.0e6, 0.04), (6.4e7, 0.04)]}

_STATE: dict = {}


def warm(app: str, quota: int):
    """``(celia, app object, index, encoder)`` for one signature (seed 0)."""
    key = (app, quota)
    if key not in _STATE:
        celia = Celia(ec2_catalog(max_nodes_per_type=quota), cache_dir=False)
        application = application_by_name(app, seed=0)
        index = celia.selection_index(application)
        _STATE[key] = (celia, application, index, SelectionEncoder(index))
    return _STATE[key]


def encoded(app: str, quota: int, demand: float, deadline: float,
            budget: float, top: int = 0) -> str:
    _, _, index, encoder = warm(app, quota)
    (answer,) = index.slices([demand], [deadline], [budget])
    return encoder.encode(answer, top=top)


def oracle(app: str, quota: int, demand: float, deadline: float,
           budget: float, top: int = 0) -> str:
    index = warm(app, quota)[2]
    return json.dumps(selection_to_dict(index.select(demand, deadline, budget),
                                        top=top))


def demand_of(app: str, quota: int, n: float, a: float) -> float:
    celia, application, _, _ = warm(app, quota)
    return celia.demand_gi(application, n, a)


def result_bytes(raw: bytes) -> bytes:
    """The ``result`` field of an envelope: its last key."""
    marker = b'"result": '
    return raw[raw.index(marker) + len(marker):-1]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(app=st.sampled_from(APPS), quota=st.integers(1, 3),
       log_demand=st.floats(2.0, 12.0), log_deadline=st.floats(-3.0, 4.0),
       log_budget=st.floats(-2.0, 5.0), top=st.integers(-3, 140))
def test_encoded_text_equals_the_schema_oracle(app, quota, log_demand,
                                               log_deadline, log_budget,
                                               top):
    query = (10 ** log_demand, 10 ** log_deadline, 10 ** log_budget)
    assert encoded(app, quota, *query, top=top) == \
        oracle(app, quota, *query, top=top)


@pytest.mark.parametrize("app", APPS)
def test_top_zero_one_and_beyond_the_frontier(app):
    demand = demand_of(app, 3, *RUNS[app][0])
    full = json.loads(oracle(app, 3, demand, 48.0, 350.0))
    assert full["pareto_count"] > 1
    beyond = warm(app, 3)[2].frontier_size + 7
    for top in (0, 1, beyond):
        text = encoded(app, 3, demand, 48.0, 350.0, top=top)
        assert text == oracle(app, 3, demand, 48.0, 350.0, top=top)
        shown = json.loads(text)["pareto"]
        assert len(shown) == (1 if top == 1 else full["pareto_count"])


@pytest.mark.parametrize("app", APPS)
def test_infeasible_query_has_empty_frontier_and_null_span(app):
    demand = demand_of(app, 3, *RUNS[app][0])
    text = encoded(app, 3, demand, 1e-6, 350.0)
    assert text == oracle(app, 3, demand, 1e-6, 350.0)
    result = json.loads(text)
    assert result["pareto"] == [] and result["pareto_count"] == 0
    assert result["cost_span"] is None
    assert result["max_saving_fraction"] is None


@pytest.mark.parametrize("query", [
    (2.6e6, float("inf"), 350.0), (2.6e6, 48.0, float("inf")),
    (2.6e6, float("nan"), 350.0), (2.6e6, 48.0, float("nan")),
    (float("inf"), 48.0, 350.0)])
def test_non_finite_request_values_encode_like_json(query):
    # Parity only: while non-finite values pass validation, the encoder
    # writes what the oracle writes.  That output (Infinity, NaN in a
    # 200) is a known defect, not a contract: see the FOUND line on
    # non-finite request values in CHANGES.md.
    assert encoded("galaxy", 2, *query) == oracle("galaxy", 2, *query)


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("bound", ["deadline", "budget"])
def test_bound_equal_to_a_point_excludes_it(app, bound):
    demand = demand_of(app, 3, *RUNS[app][0])
    everything = json.loads(oracle(app, 3, demand, 1e9, 1e9))["pareto"]
    point = everything[len(everything) // 2]
    deadline, budget = (point["time_hours"], 1e9) if bound == "deadline" \
        else (1e9, point["cost_dollars"])
    text = encoded(app, 3, demand, deadline, budget)
    assert text == oracle(app, 3, demand, deadline, budget)
    kept = [p["configuration"] for p in json.loads(text)["pareto"]]
    assert kept and point["configuration"] not in kept  # strict ``<``


@pytest.mark.parametrize("app", APPS)
@pytest.mark.parametrize("demand", [1e-318, 1e-317, 1e-316])
def test_equal_rounded_times_keep_row_order(app, demand):
    # Subnormal demands round the times of distinct frontier points to
    # the same double (while costs stay non-zero), so the stable time
    # sort decides their order.
    text = encoded(app, 3, demand, 1.0, 1.0)
    assert text == oracle(app, 3, demand, 1.0, 1.0)
    space = warm(app, 3)[2].space
    keys = [(p["time_hours"], space.encode(p["configuration"]))
            for p in json.loads(text)["pareto"]]
    assert len({t for t, _ in keys}) < len(keys)  # ties exist
    assert keys == sorted(keys)  # time order, ties by row


def test_mixed_signature_batches_match_the_oracle():
    service = PlannerService(config=ServiceConfig(default_quota=2,
                                                  cache_dir=False))
    rng = random.Random(5)
    requests = []
    for i in range(18):
        app, quota = APPS[i % 3], 2 + i % 2
        n, a = rng.choice(RUNS[app])
        requests.append({"kind": "select", "app": app, "quota": quota,
                         "n": n, "a": a,
                         "deadline_hours": rng.uniform(5.0, 80.0),
                         "budget_dollars": rng.uniform(50.0, 600.0),
                         "top": rng.choice([0, 0, 1, 4])})

    async def run():
        for app in APPS:
            for quota in (2, 3):
                await service.warm(app, quota=quota)
        return await asyncio.gather(*(service.answer(r) for r in requests))

    envelopes = asyncio.run(run())
    batches = service.metrics.snapshot()["counters"]["batches_total"]
    assert batches < len(requests)  # queries shared batches
    for request, envelope in zip(requests, envelopes):
        demand = demand_of(request["app"], request["quota"], request["n"],
                           request["a"])
        assert envelope.result == oracle(
            request["app"], request["quota"], demand,
            request["deadline_hours"], request["budget_dollars"],
            top=request["top"])


def test_quota5_serve_unique_sample_through_the_worker():
    worker = ShardWorker(PlannerService(config=ServiceConfig(
        default_quota=5, cache_dir=False)), worker_id="w0")
    rng = random.Random("serve-unique sample")
    bodies = []
    for app in APPS:
        n_lo, n_hi, a_lo, a_hi = SERVE_UNIQUE_ENVELOPES[app]
        for _ in range(4):
            n = float(round(rng.uniform(n_lo, n_hi)))
            a = rng.uniform(a_lo, a_hi)
            a = float(round(a)) if app == "galaxy" else a
            bodies.append((app, n, a))

    async def run():
        return [await worker.answer("select", json.dumps(
            {"app": app, "n": n, "a": a, "deadline_hours": 48.0,
             "budget_dollars": 350.0, "quota": 5}).encode())
            for app, n, a in bodies]

    for (app, n, a), (status, raw) in zip(bodies, asyncio.run(run())):
        assert status == 200
        assert json.dumps(json.loads(raw)).encode() == raw
        expected = oracle(app, 5, demand_of(app, 5, n, a), 48.0, 350.0)
        assert result_bytes(raw) == expected.encode()
        assert json.loads(expected)["pareto_count"] > 0


def test_worker_select_miss_encodes_from_fragments(monkeypatch):
    """A select miss builds no point, no schema dict and dumps no result;
    a raw-memo hit skips dispatch altogether."""
    worker = ShardWorker(PlannerService(config=ServiceConfig(
        default_quota=2, cache_dir=False)), worker_id="w0")
    body = json.dumps({"app": "galaxy", "n": 65536, "a": 2000,
                       "deadline_hours": 48, "budget_dollars": 350}).encode()
    asyncio.run(worker.service.warm("galaxy"))
    calls = Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    real_dumps = json.dumps

    def dumps(obj, *args, **kwargs):
        if isinstance(obj, dict) and ({"pareto", "result"} & obj.keys()):
            calls["json.dumps(result)"] += 1
        return real_dumps(obj, *args, **kwargs)

    for module in (serialize, planner):
        monkeypatch.setattr(module, "selection_to_dict", counting(
            "selection_to_dict", serialize.selection_to_dict))
    monkeypatch.setattr(selection, "ParetoPoint",
                        counting("ParetoPoint", selection.ParetoPoint))
    monkeypatch.setattr(json, "dumps", dumps)
    dispatch = worker._dispatch
    monkeypatch.setattr(worker, "_dispatch",
                        counting("dispatch", dispatch))

    async def run():
        return [await worker.answer("select", body) for _ in range(3)]

    (s1, miss), (s2, hit), (s3, memo) = asyncio.run(run())
    assert (s1, s2, s3) == (200, 200, 200)
    assert calls == {"dispatch": 2}  # the third answer was the memo's
    assert b'"cached": false' in miss and hit == memo
    assert result_bytes(miss) == result_bytes(hit)
    assert worker.service.metrics.snapshot()["counters"][
        "raw_response_hits"] == 1
    monkeypatch.undo()
    demand = demand_of("galaxy", 2, 65536.0, 2000.0)
    assert result_bytes(miss) == oracle("galaxy", 2, demand, 48.0,
                                        350.0).encode()
