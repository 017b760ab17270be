"""Tests for the ``celia`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main, package_version


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(["select", "galaxy", "100", "10",
                                  "--deadline", "24", "--budget", "350"])
        assert args.command == "select"
        assert args.app == "galaxy"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize", "hadoop"])

    def test_plan_mutually_exclusive_knobs(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([
                "plan", "galaxy", "--deadline", "24", "--budget", "100",
                "--fix-size", "100", "--fix-accuracy", "10",
                "--range", "1,2",
            ])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert package_version() in out
        assert out.startswith("celia ")

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 8337
        assert args.max_queue == 64
        assert args.warm is None

    @pytest.mark.parametrize("argv", [
        ["serve", "--batch-window-ms", "2"],
        ["fleet", "serve", "--batch-window-ms", "0"],
        ["serve", "--batch-window-ms"],
    ])
    def test_batch_window_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "--batch-window-ms was removed" in err
        assert "next event-loop tick" in err

    def test_serve_warm_repeatable(self):
        args = build_parser().parse_args(
            ["serve", "--warm", "galaxy", "--warm", "x264"])
        assert args.warm == ["galaxy", "x264"]


@pytest.mark.parametrize("quota", ["2"])
class TestCommands:
    """End-to-end CLI runs on a reduced quota (3^9-1 = 19k configs)."""

    def test_predict(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "predict", "galaxy",
                     "65536", "4000", "--config", "2,2,0,0,0,0,0,0,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "demand" in out and "cost" in out

    def test_predict_bad_config(self, quota):
        with pytest.raises(SystemExit):
            main(["--quota", quota, "predict", "galaxy", "65536", "4000",
                  "--config", "1,2"])
        with pytest.raises(SystemExit):
            main(["--quota", quota, "predict", "galaxy", "65536", "4000",
                  "--config", "a,b,c,d,e,f,g,h,i"])

    def test_select(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "select", "galaxy",
                     "65536", "2000", "--deadline", "48", "--budget", "350",
                     "--top", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Pareto-optimal" in out
        assert "frontier cost span" in out

    def test_select_infeasible(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "select", "galaxy",
                     "65536", "8000", "--deadline", "0.001",
                     "--budget", "0.001"])
        assert code == 1

    def test_characterize_with_profile_output(self, capsys, tmp_path, quota):
        out_file = tmp_path / "galaxy.json"
        code = main(["--seed", "1", "--quota", quota, "characterize",
                     "galaxy", "--output", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "GI/s per $/h" in out
        assert out_file.exists()
        from repro.measurement.profiles import ApplicationProfile

        profile = ApplicationProfile.load(out_file)
        assert profile.app_name == "galaxy"

    def test_plan_accuracy(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "plan", "galaxy",
                     "--deadline", "24", "--budget", "50",
                     "--fix-size", "65536", "--range", "100,20000",
                     "--integral"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max accuracy" in out

    def test_plan_infeasible_returns_one(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "plan", "galaxy",
                     "--deadline", "0.0001", "--budget", "0.0001",
                     "--fix-size", "65536", "--range", "1000,2000"])
        err = capsys.readouterr().err
        assert code == 1
        assert "infeasible" in err

    def test_plan_bad_range(self, quota):
        with pytest.raises(SystemExit):
            main(["--quota", quota, "plan", "galaxy", "--deadline", "24",
                  "--budget", "50", "--fix-size", "65536",
                  "--range", "oops"])

    def test_validate(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "validate", "x264",
                     "256", "20", "--config", "2,0,0,0,0,0,0,0,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted" in out and "error" in out


@pytest.mark.parametrize("quota", ["2"])
class TestJsonOutput:
    """``--json`` must emit the service schema, parseable and complete."""

    def test_select_json(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "select", "galaxy",
                     "65536", "2000", "--deadline", "48", "--budget", "350",
                     "--top", "3", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["feasible_count"] > 0
        assert len(data["pareto"]) <= 3
        assert data["pareto_count"] >= len(data["pareto"])
        point = data["pareto"][0]
        assert set(point) == {"configuration", "time_hours", "cost_dollars",
                              "capacity_gips", "unit_cost_per_hour"}

    def test_select_json_infeasible(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "select", "galaxy",
                     "65536", "8000", "--deadline", "0.001",
                     "--budget", "0.001", "--json"])
        out = capsys.readouterr().out
        assert code == 1
        data = json.loads(out)
        assert data["pareto"] == []
        assert data["cost_span"] is None
        assert data["max_saving_fraction"] is None

    def test_predict_json(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "predict", "galaxy",
                     "65536", "4000", "--config", "2,2,0,0,0,0,0,0,0",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["configuration"] == [2, 2, 0, 0, 0, 0, 0, 0, 0]
        assert data["cost_dollars"] > 0

    def test_plan_json(self, capsys, quota):
        code = main(["--seed", "1", "--quota", quota, "plan", "galaxy",
                     "--deadline", "24", "--budget", "50",
                     "--fix-size", "65536", "--range", "100,20000",
                     "--integral", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        data = json.loads(out)
        assert data["knob"] == "accuracy"
        assert data["answer"]["cost_dollars"] < 50

    def test_json_matches_service_serializer(self, capsys, quota):
        """CLI --json and the service serializer are the same code path;
        the output must round-trip through the serializer unchanged."""
        from repro.apps import application_by_name
        from repro.cloud.catalog import ec2_catalog
        from repro.core.celia import Celia
        from repro.service.serialize import selection_to_dict

        code = main(["--seed", "1", "--quota", quota, "select", "galaxy",
                     "65536", "2000", "--deadline", "48", "--budget", "350",
                     "--json"])
        assert code == 0
        cli_data = json.loads(capsys.readouterr().out)
        celia = Celia(ec2_catalog(max_nodes_per_type=int(quota)), seed=1)
        result = celia.select(application_by_name("galaxy", seed=1),
                              65536, 2000, 48, 350)
        assert cli_data == selection_to_dict(result)


class TestSpotCommand:
    def test_spot_study(self, capsys):
        code = main(["--seed", "1", "--quota", "2", "spot", "galaxy",
                     "65536", "2000", "--deadline", "48", "--bid", "0.6",
                     "--trials", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spot vs on-demand" in out
        assert "on-time" in out

    def test_spot_infeasible_deadline(self, capsys):
        code = main(["--seed", "1", "--quota", "2", "spot", "galaxy",
                     "65536", "8000", "--deadline", "0.001"])
        assert code == 1


class TestExecuteCommand:
    def test_list_chaos_catalog(self, capsys):
        code = main(["execute", "--list-chaos"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("calm", "flaky-control-plane", "crashy", "stragglers",
                     "perfect-storm"):
            assert name in out

    def test_execute_calm_meets_envelope(self, capsys):
        code = main(["--seed", "1", "--quota", "2", "execute", "galaxy",
                     "65536", "8000", "--deadline", "40", "--budget", "400"])
        out = capsys.readouterr().out
        assert code == 0
        assert "met" in out
        assert "0 replans" in out

    def test_execute_json_is_deterministic(self, capsys):
        argv = ["--seed", "1", "--quota", "2", "execute", "galaxy",
                "65536", "8000", "--deadline", "40", "--budget", "400",
                "--chaos", "crashy", "--json"]
        code = main(argv)
        first = capsys.readouterr().out
        assert code in (0, 1)
        assert main(argv) == code
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["scenario"] == "crashy"
        assert report["verdict"] in ("met", "degraded", "missed_deadline",
                                     "over_budget", "infeasible", "failed")
        assert report["timeline"]

    def test_static_flag_disables_replanning(self, capsys):
        code = main(["--seed", "1", "--quota", "2", "execute", "galaxy",
                     "65536", "8000", "--deadline", "40", "--budget", "400",
                     "--static", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0  # calm: static also succeeds
        assert report["adaptive"] is False

    def test_execute_needs_problem_and_envelope(self):
        with pytest.raises(SystemExit, match="needs app"):
            main(["execute"])
        with pytest.raises(SystemExit, match="deadline"):
            main(["execute", "galaxy", "65536", "8000"])

    def test_unknown_scenario_rejected(self, capsys):
        code = main(["--quota", "2", "execute", "galaxy", "65536", "8000",
                     "--deadline", "40", "--budget", "400",
                     "--chaos", "volcano"])
        assert code != 0
        assert "unknown chaos scenario" in capsys.readouterr().err

    def test_execute_market_json_is_deterministic(self, capsys):
        argv = ["--seed", "1", "--quota", "2", "execute", "galaxy",
                "65536", "8000", "--deadline", "40", "--budget", "400",
                "--market", "--chaos", "spot-squeeze", "--json"]
        code = main(argv)
        first = capsys.readouterr().out
        assert main(argv) == code
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["market"] is True
        assert report["scenario"] == "spot-squeeze"
        assert report["cost_dollars"] <= report["budget_dollars"]
        assert 0.0 <= report["spot_cost_dollars"] <= report["cost_dollars"]
        kinds = {event["kind"] for event in report["timeline"]}
        assert "spot_purchase" in kinds

    def test_spot_fraction_implies_market(self, capsys):
        code = main(["--seed", "1", "--quota", "2", "execute", "galaxy",
                     "65536", "8000", "--deadline", "40", "--budget", "400",
                     "--spot-fraction", "1.0", "--bid-policy", "adaptive",
                     "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code in (0, 1)
        assert report["market"] is True

    def test_execute_market_human_summary(self, capsys):
        code = main(["--seed", "1", "--quota", "2", "execute", "galaxy",
                     "65536", "8000", "--deadline", "40", "--budget", "400",
                     "--market"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "market  :" in out and "spot interruption" in out

    def test_invalid_market_policy_rejected(self, capsys):
        code = main(["--quota", "2", "execute", "galaxy", "65536", "8000",
                     "--deadline", "40", "--budget", "400",
                     "--spot-fraction", "1.5"])
        assert code == 2
        assert "spot_fraction" in capsys.readouterr().err
        code = main(["--quota", "2", "execute", "galaxy", "65536", "8000",
                     "--deadline", "40", "--budget", "400",
                     "--bid-policy", "yolo"])
        assert code == 2
        assert "unknown bid policy" in capsys.readouterr().err


class TestMarketCommand:
    def test_policies_table(self, capsys):
        code = main(["market", "policies"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("fixed-fraction", "on-demand-cap", "adaptive"):
            assert name in out

    def test_policies_json(self, capsys):
        code = main(["market", "policies", "--json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [row["name"] for row in rows] == \
            ["fixed-fraction", "on-demand-cap", "adaptive"]
        assert all(row["description"] for row in rows)

    def test_prices_json_covers_catalog(self, capsys):
        code = main(["--seed", "3", "market", "prices", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["scenario"] == "calm"
        assert len(payload["types"]) == 9
        for row in payload["types"]:
            assert row["min_price"] <= row["mean_price"] <= row["max_price"]

    def test_prices_surged_scenario(self, capsys):
        code = main(["--seed", "3", "market", "prices",
                     "--chaos", "price-spike", "--json"])
        spiked = json.loads(capsys.readouterr().out)
        assert code == 0
        main(["--seed", "3", "market", "prices", "--json"])
        calm = json.loads(capsys.readouterr().out)
        spiked_mean = {r["type"]: r["long_run_mean"]
                       for r in spiked["types"]}
        for row in calm["types"]:
            assert spiked_mean[row["type"]] > row["long_run_mean"]

    def test_prices_human_table(self, capsys):
        code = main(["market", "prices"])
        out = capsys.readouterr().out
        assert code == 0
        assert "spot market under 'calm'" in out
        assert "c4.large" in out

    def test_prices_unknown_scenario(self, capsys):
        code = main(["market", "prices", "--chaos", "volcano"])
        assert code == 2
        assert "unknown chaos scenario" in capsys.readouterr().err


class TestRegistryJsonExport:
    def test_figure5_series_written(self, tmp_path):
        from repro.experiments.registry import main as reg_main

        code = reg_main(["figure5", "--output-dir", str(tmp_path)])
        assert code == 0
        import json

        data = json.loads((tmp_path / "figure5.json").read_text())
        assert "galaxy" in data and "sand" in data
        assert "24" in data["galaxy"]["min_cost_by_deadline"]
        # Infeasible points serialize as null.
        six_hr = data["galaxy"]["min_cost_by_deadline"]["6"]
        assert six_hr[-1] is None
