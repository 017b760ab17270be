"""Tests for the CELIA facade (integration of the Figure 1 pipeline).

These run against the full Table III catalog using the session-scoped
``celia_ec2`` fixture so the 10M-configuration evaluation happens once.
"""

import numpy as np
import pytest

from repro.errors import ValidationError


class TestDemandModel:
    def test_fitted_shapes_match_paper(self, celia_ec2, galaxy, sand, x264):
        """Figure 2: the fitted shapes are the paper's."""
        g = celia_ec2.demand_model(galaxy)
        assert g.size_fit.kind in ("power", "quadratic")
        assert g.accuracy_fit.kind == "linear"
        s = celia_ec2.demand_model(sand)
        assert s.size_fit.kind == "linear"
        assert s.accuracy_fit.kind == "log"
        x = celia_ec2.demand_model(x264)
        assert x.size_fit.kind == "linear"
        assert x.accuracy_fit.kind == "quadratic"

    def test_fit_quality(self, celia_ec2, galaxy):
        assert celia_ec2.demand_model(galaxy).grid_r2 > 0.999

    def test_fitted_demand_close_to_truth_at_scale(self, celia_ec2, galaxy):
        """Extrapolation from the scale-down grid stays accurate."""
        estimated = celia_ec2.demand_gi(galaxy, 262_144, 1_000)
        truth = galaxy.demand_gi(262_144, 1_000)
        assert estimated == pytest.approx(truth, rel=0.05)

    def test_demand_model_cached(self, celia_ec2, galaxy):
        assert celia_ec2.demand_model(galaxy) is celia_ec2.demand_model(galaxy)


class TestPrediction:
    def test_predict_matches_models(self, celia_ec2, galaxy):
        config = (5, 5, 5, 3, 0, 0, 0, 0, 0)
        pred = celia_ec2.predict(galaxy, 65_536, 8_000, config)
        w = celia_ec2.capacities(galaxy)
        expected_capacity = float(np.asarray(config) @ w)
        assert pred.capacity_gips == pytest.approx(expected_capacity)
        assert pred.time_hours == pytest.approx(
            pred.demand_gi / pred.capacity_gips / 3600.0)
        assert pred.cost_dollars == pytest.approx(
            pred.time_hours * pred.unit_cost_per_hour)

    def test_predict_equals_the_selected_pareto_point(self, galaxy):
        """A prediction and Algorithm 1's point for the same
        configuration are the same numbers, bit for bit."""
        from repro.cloud.catalog import ec2_catalog
        from repro.core.celia import Celia

        celia = Celia(ec2_catalog(max_nodes_per_type=3), cache_dir=False)
        result = celia.select(galaxy, 65_536, 8_000, 48.0, 350.0)
        assert result.pareto
        for point in result.pareto:
            pred = celia.predict(galaxy, 65_536, 8_000, point.configuration)
            assert (pred.capacity_gips, pred.unit_cost_per_hour,
                    pred.time_hours, pred.cost_dollars) == \
                (point.capacity_gips, point.unit_cost_per_hour,
                 point.time_hours, point.cost_dollars)

    def test_paper_validation_cell(self, celia_ec2, galaxy):
        """galaxy(65536, 8000) on [5,5,5,3,...]: ~24 h and ~$126."""
        pred = celia_ec2.predict(galaxy, 65_536, 8_000,
                                 (5, 5, 5, 3, 0, 0, 0, 0, 0))
        assert pred.time_hours == pytest.approx(24.0, rel=0.06)
        assert pred.cost_dollars == pytest.approx(126.0, rel=0.06)

    def test_bad_configuration_rejected(self, celia_ec2, galaxy):
        with pytest.raises(ValidationError):
            celia_ec2.predict(galaxy, 65_536, 8_000, (1, 2))
        with pytest.raises(ValidationError):
            celia_ec2.predict(galaxy, 65_536, 8_000, (0,) * 9)


class TestSelection:
    @pytest.mark.slow
    def test_figure4_galaxy_headlines(self, celia_ec2, galaxy):
        """Feasible count ~5.8M, frontier span ratio ~1.3 (paper Fig. 4)."""
        result = celia_ec2.select(galaxy, 65_536, 8_000, 24.0, 350.0)
        assert result.total_configurations == 10_077_695
        assert 4_500_000 < result.feasible_count < 7_000_000
        lo, hi = result.cost_span
        assert hi / lo == pytest.approx(1.3, abs=0.15)
        assert 110 < lo < 145  # paper: $126

    @pytest.mark.slow
    def test_figure4_sand_headlines(self, celia_ec2, sand):
        result = celia_ec2.select(sand, 8_192e6, 0.32, 24.0, 350.0)
        assert 1_000_000 < result.feasible_count < 3_500_000
        lo, hi = result.cost_span
        assert hi / lo == pytest.approx(1.2, abs=0.15)

    @pytest.mark.slow
    def test_pareto_configs_meet_constraints(self, celia_ec2, galaxy):
        result = celia_ec2.select(galaxy, 65_536, 8_000, 24.0, 350.0)
        for p in result.pareto:
            assert p.time_hours < 24.0
            assert p.cost_dollars < 350.0


class TestOptimalQueries:
    @pytest.mark.slow
    def test_min_cost_consistent_with_selection(self, celia_ec2, galaxy):
        result = celia_ec2.select(galaxy, 65_536, 8_000, 24.0, 350.0)
        answer = celia_ec2.min_cost(galaxy, 65_536, 8_000, 24.0)
        assert answer.cost_dollars == pytest.approx(
            result.cheapest().cost_dollars, rel=1e-9)

    @pytest.mark.slow
    def test_min_time_consistent_with_selection(self, celia_ec2, galaxy):
        result = celia_ec2.select(galaxy, 65_536, 8_000, 24.0, 350.0)
        answer = celia_ec2.min_time(galaxy, 65_536, 8_000, 350.0)
        assert answer.time_hours <= result.fastest().time_hours + 1e-9

    def test_min_cost_budget_guard(self, celia_ec2, galaxy):
        from repro.errors import InfeasibleError

        with pytest.raises(InfeasibleError):
            celia_ec2.min_cost(galaxy, 65_536, 8_000, 24.0, budget_dollars=10.0)

    def test_profile_round_trip(self, celia_ec2, galaxy, tmp_path):
        profile = celia_ec2.profile(galaxy)
        path = tmp_path / "galaxy.json"
        profile.save(path)
        from repro.measurement.profiles import ApplicationProfile

        restored = ApplicationProfile.load(path)
        assert restored.capacity_vector(celia_ec2.catalog.names).shape == (9,)
        assert restored.demand.gi(65_536, 8_000) == pytest.approx(
            celia_ec2.demand_gi(galaxy, 65_536, 8_000))

    def test_evaluation_cached(self, celia_ec2, galaxy):
        assert celia_ec2.evaluation(galaxy) is celia_ec2.evaluation(galaxy)
