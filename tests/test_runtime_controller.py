"""Tests for the closed-loop adaptive controller
(:mod:`repro.runtime.controller`).

The quota-2 catalog keeps index builds cheap; the envelope
(galaxy(65536, 8000) under 40 h / $400) is the experiment's — reachable
when calm, genuinely threatened under chaos.
"""

import numpy as np
import pytest

from repro.apps import application_by_name
from repro.cloud.catalog import ec2_catalog
from repro.core.celia import Celia
from repro.errors import ValidationError
from repro.runtime import (
    AdaptiveController,
    RuntimeConfig,
    degraded_accuracy_search,
)
from repro.runtime.chaos import chaos_scenario, scenario_names
from repro.runtime.controller import _delivered_rate
from repro.runtime.events import (
    DegradationDecision,
    InfeasiblePlan,
    Migration,
    NodeCrash,
    ReplanDecision,
)

PROBLEM = (65536, 8000, 40.0, 400.0)

#: Verdicts that mean "inside the envelope"; everything else must be an
#: explicit failure, never a silent overrun.
GOOD = ("met", "degraded")
BAD = ("missed_deadline", "over_budget", "infeasible", "failed")


@pytest.fixture(scope="module")
def celia2():
    return Celia(ec2_catalog(max_nodes_per_type=2), seed=42)


@pytest.fixture(scope="module")
def galaxy_app():
    return application_by_name("galaxy", seed=42)


def run(celia2, galaxy_app, scenario, *, adaptive=True, seed=0, config=None,
        problem=PROBLEM):
    controller = AdaptiveController(
        celia2, galaxy_app, scenario=chaos_scenario(scenario),
        config=config or RuntimeConfig(replan=adaptive), seed=seed)
    return controller.execute(*problem)


class TestCalm:
    def test_static_meets_envelope(self, celia2, galaxy_app):
        report = run(celia2, galaxy_app, "calm", adaptive=False)
        assert report.verdict == "met"
        assert report.completed and report.deadline_met and report.budget_met
        assert report.replans == 0 and report.crashes == 0
        assert report.final_accuracy == report.initial_accuracy

    def test_adaptive_matches_static_when_nothing_goes_wrong(
            self, celia2, galaxy_app):
        static = run(celia2, galaxy_app, "calm", adaptive=False)
        adaptive = run(celia2, galaxy_app, "calm", adaptive=True)
        assert adaptive.verdict == "met"
        assert adaptive.cost_dollars == pytest.approx(static.cost_dollars)


class TestCrashy:
    def test_adaptive_replans_through_crashes(self, celia2, galaxy_app):
        report = run(celia2, galaxy_app, "crashy", seed=0)
        assert report.verdict == "met"
        assert report.crashes > 0 and report.replans > 0
        assert report.migrations == report.replans
        crash_events = [e for e in report.timeline if isinstance(e, NodeCrash)]
        assert len(crash_events) == report.crashes
        # Replans happen over residual state: monotone in time, shrinking
        # residual deadline.
        replans = [e for e in report.timeline if isinstance(e, ReplanDecision)]
        hours = [e.at_hours for e in replans]
        assert hours == sorted(hours)

    def test_static_fails_explicitly_not_silently(self, celia2, galaxy_app):
        report = run(celia2, galaxy_app, "crashy", adaptive=False, seed=0)
        assert report.verdict in BAD
        if report.verdict == "failed":
            assert any(isinstance(e, InfeasiblePlan) for e in report.timeline)


class TestDegradation:
    def test_perfect_storm_degrades_minimally_with_audit_trail(
            self, celia2, galaxy_app):
        report = run(celia2, galaxy_app, "perfect-storm", seed=0)
        assert report.verdict == "degraded"
        assert report.completed and report.deadline_met and report.budget_met
        assert report.final_accuracy < report.initial_accuracy
        decisions = [e for e in report.timeline
                     if isinstance(e, DegradationDecision)]
        assert len(decisions) == report.degradations > 0
        for d in decisions:
            assert d.to_accuracy < d.from_accuracy
            assert d.score_after <= d.score_before
            assert d.remaining_gi_after <= d.remaining_gi_before
        # Each degradation continues from the previous one's accuracy.
        assert decisions[0].from_accuracy == report.initial_accuracy
        assert decisions[-1].to_accuracy == report.final_accuracy

    def test_replan_budget_exhaustion_is_explicit(self, celia2, galaxy_app):
        config = RuntimeConfig(replan=True, max_replans=0)
        report = run(celia2, galaxy_app, "crashy", seed=0, config=config)
        assert report.verdict == "infeasible"
        assert any(isinstance(e, InfeasiblePlan) for e in report.timeline)


class TestNoSilentOverruns:
    """The acceptance criterion, checked across the whole catalog."""

    @pytest.mark.parametrize("scenario", scenario_names())
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_verdict_is_honest(self, celia2, galaxy_app, scenario, adaptive):
        report = run(celia2, galaxy_app, scenario, adaptive=adaptive, seed=3)
        assert report.verdict in GOOD + BAD
        if report.verdict in GOOD:
            assert report.completed
            assert report.elapsed_hours <= report.deadline_hours
            assert report.cost_dollars <= report.budget_dollars
        else:
            # Explicit failure: either terminal accounting says why, or
            # an InfeasiblePlan event names the unreachable envelope.
            assert (report.verdict in ("missed_deadline", "over_budget")
                    or any(isinstance(e, InfeasiblePlan)
                           for e in report.timeline))


class TestDeterminism:
    @pytest.mark.parametrize("scenario", ["crashy", "perfect-storm"])
    def test_identical_seeds_identical_reports(self, celia2, galaxy_app,
                                               scenario):
        first = run(celia2, galaxy_app, scenario, seed=1)
        second = run(celia2, galaxy_app, scenario, seed=1)
        assert first.to_dict() == second.to_dict()

    def test_different_seeds_diverge(self, celia2, galaxy_app):
        a = run(celia2, galaxy_app, "crashy", seed=1)
        b = run(celia2, galaxy_app, "crashy", seed=2)
        assert a.to_dict() != b.to_dict()


class TestReportShape:
    def test_to_dict_serializes_timeline(self, celia2, galaxy_app):
        import json

        report = run(celia2, galaxy_app, "crashy", seed=0)
        data = report.to_dict()
        json.dumps(data)  # JSON-clean end to end
        assert data["scenario"] == "crashy"
        assert data["provision_attempts"] >= data["replans"] + 1
        kinds = {e["kind"] for e in data["timeline"]}
        assert {"provision_attempt", "node_crash", "replan",
                "migration"} <= kinds
        migrations = [e for e in report.timeline if isinstance(e, Migration)]
        assert len(migrations) == report.migrations

    def test_validation(self, celia2, galaxy_app):
        controller = AdaptiveController(
            celia2, galaxy_app, scenario=chaos_scenario("calm"))
        with pytest.raises(ValidationError):
            controller.execute(65536, 8000, -1.0, 400.0)
        with pytest.raises(ValidationError):
            controller.execute(65536, 8000, 40.0, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RuntimeConfig(monitor_interval_hours=0.0)
        with pytest.raises(ValidationError):
            RuntimeConfig(deadline_safety=1.5)
        with pytest.raises(ValidationError):
            RuntimeConfig(deviation_tolerance=0.9)
        with pytest.raises(ValidationError):
            RuntimeConfig(max_replans=-1)


class TestDegradedAccuracySearch:
    def test_returns_largest_feasible_accuracy(self, celia2, galaxy_app):
        index = celia2.min_cost_index(galaxy_app)
        demand = lambda acc: celia2.demand_gi(galaxy_app, 65536, acc)  # noqa: E731
        found = degraded_accuracy_search(
            demand, index, floor=100, current=8000,
            integral=galaxy_app.accuracy_integral,
            residual_deadline_hours=10.0, residual_budget_dollars=200.0)
        assert found is not None
        accuracy, answer = found
        assert 100 <= accuracy < 8000
        assert answer.time_hours <= 10.0
        assert answer.cost_dollars <= 200.0
        # One knob step up must be infeasible (minimality), unless the
        # search stopped at the current accuracy itself.
        from repro.errors import InfeasibleError
        with pytest.raises(InfeasibleError):
            index.query(demand(accuracy + 1), 10.0, budget_dollars=200.0)

    def test_tighter_envelope_degrades_further(self, celia2, galaxy_app):
        index = celia2.min_cost_index(galaxy_app)
        demand = lambda acc: celia2.demand_gi(galaxy_app, 65536, acc)  # noqa: E731

        def best(hours):
            found = degraded_accuracy_search(
                demand, index, floor=100, current=8000,
                integral=galaxy_app.accuracy_integral,
                residual_deadline_hours=hours,
                residual_budget_dollars=200.0)
            return found[0] if found else None

        assert best(20.0) >= best(10.0) >= best(5.0)

    def test_infeasible_floor_returns_none(self, celia2, galaxy_app):
        index = celia2.min_cost_index(galaxy_app)
        demand = lambda acc: celia2.demand_gi(galaxy_app, 65536, acc)  # noqa: E731
        assert degraded_accuracy_search(
            demand, index, floor=100, current=8000,
            integral=True, residual_deadline_hours=0.01,
            residual_budget_dollars=0.5) is None
        # Degenerate range and non-positive residuals short-circuit.
        assert degraded_accuracy_search(
            demand, index, floor=8000, current=8000, integral=True,
            residual_deadline_hours=10.0,
            residual_budget_dollars=200.0) is None
        assert degraded_accuracy_search(
            demand, index, floor=100, current=8000, integral=True,
            residual_deadline_hours=-1.0,
            residual_budget_dollars=200.0) is None


class TestDeliveredRate:
    @pytest.mark.parametrize("app_name", ["galaxy", "x264", "sand"])
    def test_rate_is_the_predicted_capacity(self, app_name):
        """The spot path projects a residual duration from the same ``U``
        its plan used: ``Celia.predict``'s capacity, bit for bit."""
        celia = Celia(ec2_catalog(max_nodes_per_type=5), seed=42,
                      cache_dir=False)
        app = application_by_name(app_name, seed=42)
        n, a = (float(grid[0]) for grid in app.scale_down_grid())
        capacities = celia.capacities(app)
        rng = np.random.default_rng(2017)
        configs = rng.integers(0, 6, size=(2000, len(celia.catalog)))
        for config in configs[configs.sum(axis=1) > 0].tolist():
            predicted = celia.predict(app, n, a, config).capacity_gips
            for efficiency in (1.0, 0.87):
                assert _delivered_rate(tuple(config), capacities,
                                       efficiency) == predicted * efficiency
