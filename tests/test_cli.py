"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_predict_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["predict", "--method", "bogus"])


class TestCommands:
    def test_characterize(self, capsys):
        assert main(["characterize", "--boxes", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Ticket characterization" in out
        assert "inter_pair" in out

    def test_resize(self, capsys):
        assert main(["resize", "--boxes", "5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Oracle resizing" in out
        assert "stingy" in out

    def test_predict_with_cheap_model(self, capsys):
        code = main(
            [
                "predict",
                "--boxes", "3",
                "--seed", "3",
                "--method", "cbc",
                "--temporal", "seasonal_mean",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean APE" in out

    def test_generate_and_reload(self, tmp_path, capsys):
        target = tmp_path / "fleet.csv"
        assert main(["generate", str(target), "--boxes", "2", "--days", "1"]) == 0
        assert target.exists()
        assert main(["characterize", "--input", str(target)]) == 0

    def test_testbed(self, capsys):
        assert main(["testbed", "--hours", "4"]) == 0
        out = capsys.readouterr().out
        assert "MediaWiki testbed" in out
        assert "wiki-two" in out

    def test_tickets(self, capsys):
        assert main(["tickets", "--boxes", "6", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Ticket operations" in out
        assert "Routing" in out
        assert "assignment digest" in out
        assert "evidence digest" in out

    def test_tickets_strategy_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tickets", "--strategy", "lottery"])

    def test_tickets_serial_parallel_digests_match(self, capsys):
        assert main(["tickets", "--boxes", "6", "--seed", "3"]) == 0
        serial = capsys.readouterr().out
        assert main(["tickets", "--boxes", "6", "--seed", "3", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out

        def digests(out):
            return [
                line for line in out.splitlines() if "digest" in line
            ]

        assert digests(serial) == digests(parallel)

    def test_tickets_env_knobs(self, capsys):
        assert main(["tickets", "--boxes", "4", "--seed", "3", "--queues", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 queues" in out

    def test_scenario_flag(self, capsys):
        assert main(
            ["characterize", "--boxes", "4", "--seed", "3", "--scenario", "spiky"]
        ) == 0
        spiky = capsys.readouterr().out
        assert main(["characterize", "--boxes", "4", "--seed", "3"]) == 0
        assert spiky != capsys.readouterr().out

    def test_scenario_paper_fig2_is_default(self, capsys):
        argv = ["characterize", "--boxes", "4", "--seed", "3"]
        assert main(argv + ["--scenario", "paper-fig2"]) == 0
        explicit = capsys.readouterr().out
        assert main(argv) == 0
        assert explicit == capsys.readouterr().out

    def test_scenario_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="paper-fig2"):
            main(["characterize", "--boxes", "4", "--scenario", "nope"])

    def test_tickets_atm_evidence_requires_store(self):
        with pytest.raises(SystemExit, match="store"):
            main(["tickets", "--boxes", "4", "--seed", "3", "--atm-evidence"])

    def test_tickets_atm_evidence(self, tmp_path, capsys, monkeypatch):
        from repro.store import STORE_ENV_VAR

        store = tmp_path / "store"
        monkeypatch.setenv(STORE_ENV_VAR, str(store))
        assert main(
            [
                "tickets", "--boxes", "4", "--seed", "3", "--days", "6",
                "--store", str(store), "--atm-evidence",
                "--temporal", "seasonal_mean",
            ]
        ) == 0
        assert "Ticket operations" in capsys.readouterr().out

    def test_tickets_resume_round_trip(self, tmp_path, capsys, monkeypatch):
        from repro.store import STORE_ENV_VAR

        store = tmp_path / "store"
        # --store installs REPRO_STORE process-wide (workers inherit it);
        # scope it to this test so later tests run store-free.
        monkeypatch.setenv(STORE_ENV_VAR, str(store))
        argv = [
            "tickets", "--boxes", "5", "--seed", "3", "--store", str(store)
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        digest_lines = [l for l in first.splitlines() if "digest" in l]
        assert digest_lines == [l for l in resumed.splitlines() if "digest" in l]


class TestJobsFlag:
    def test_jobs_flag_parsed(self):
        args = build_parser().parse_args(["predict", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["resize", "--jobs", "0"])
        assert args.jobs == 0

    def test_jobs_defaults_to_none(self):
        # None -> resolve_jobs falls back to $REPRO_JOBS, then serial.
        assert build_parser().parse_args(["predict"]).jobs is None
        assert build_parser().parse_args(["resize"]).jobs is None

    def test_predict_with_parallel_jobs(self, capsys):
        code = main(
            [
                "predict",
                "--boxes", "3",
                "--seed", "3",
                "--method", "cbc",
                "--temporal", "seasonal_mean",
                "--jobs", "2",
            ]
        )
        assert code == 0
        assert "mean APE" in capsys.readouterr().out

    def test_resize_with_parallel_jobs(self, capsys):
        assert main(["resize", "--boxes", "4", "--seed", "3", "--jobs", "2"]) == 0
        assert "stingy" in capsys.readouterr().out


class TestMetricsJson:
    def test_flag_defaults_to_none(self):
        assert build_parser().parse_args(["predict"]).metrics_json is None
        assert build_parser().parse_args(["resize"]).metrics_json is None

    def test_resize_writes_schema_valid_metrics(self, tmp_path, capsys):
        import json

        from repro import obs

        path = tmp_path / "metrics.json"
        code = main(
            ["resize", "--boxes", "3", "--seed", "3", "--metrics-json", str(path)]
        )
        assert code == 0
        assert f"wrote metrics to {path}" in capsys.readouterr().out

        data = json.loads(path.read_text())
        assert data["schema"] == obs.METRICS_SCHEMA
        assert set(data) == {"schema", "counters", "spans", "gauges"}
        assert data["counters"]["resize.boxes"] == 3
        assert data["gauges"]["proc.peak_rss_bytes"] > 0
        for stat in data["spans"].values():
            assert set(stat) == {"count", "total_s", "max_s"}
            assert stat["count"] >= 1

    def test_metrics_written_when_command_raises(self, tmp_path, capsys):
        # Regression: the snapshot used to be written only on clean return,
        # so a failing run left no metrics on disk — exactly the run whose
        # counters are worth inspecting.  The write now lives in a
        # ``finally`` block.
        import json

        from repro import obs

        path = tmp_path / "metrics.json"
        with pytest.raises(FileNotFoundError):
            main(
                [
                    "resize",
                    "--input", str(tmp_path / "does-not-exist.csv"),
                    "--metrics-json", str(path),
                ]
            )
        assert path.exists()
        data = json.loads(path.read_text())
        assert data["schema"] == obs.METRICS_SCHEMA

    def test_tickets_metrics_counters(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        code = main(
            ["tickets", "--boxes", "6", "--seed", "3",
             "--metrics-json", str(path)]
        )
        assert code == 0
        data = json.loads(path.read_text())
        counters = data["counters"]
        assert counters["ops.boxes"] == 6
        assert "sla.breaches" in counters
        assert "route.assignments" in counters
        assert "sla.open_incidents" in data["gauges"]
        assert "ops.fleet" in data["spans"]

    def test_predict_reports_degraded_boxes(self, tmp_path, capsys, monkeypatch):
        # One injected primary-fit failure: the command still exits 0, the
        # box falls back to the seasonal rung, and the table says so.
        monkeypatch.setenv("REPRO_FAULTS", "fit_error:p=1.0")
        path = tmp_path / "metrics.json"
        code = main(
            [
                "predict",
                "--boxes", "2",
                "--seed", "3",
                "--temporal", "seasonal_mean",
                "--metrics-json", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Degraded boxes" in out
        assert "seasonal_mean" in out
        import json

        data = json.loads(path.read_text())
        assert data["counters"]["pipeline.fallback.seasonal"] == 2
