"""Tests for the benchmark harness helpers (repro.benchhelpers)."""

import pytest

from repro.benchhelpers.fleetcache import characterization_fleet, pipeline_fleet
from repro.benchhelpers.tables import format_row, print_series, print_table


class TestTables:
    def test_format_row_alignment(self):
        row = format_row(["abc", 1.5, 7], [5, 8, 4])
        assert row == "  abc      1.50     7"

    def test_print_table(self, capsys):
        print_table("Title", ["a", "b"], [[1, 2.0], ["x", 3.5]])
        out = capsys.readouterr().out
        assert "== Title" in out
        assert "3.50" in out
        assert "--------" in out

    def test_print_series(self, capsys):
        print_series("CDF", [(0.0, 0.1), (1.0, 0.9)], "x", "F")
        out = capsys.readouterr().out
        assert "== CDF" in out
        assert "0.900" in out


class TestFleetCache:
    def test_characterization_fleet_cached(self):
        a = characterization_fleet(10)
        b = characterization_fleet(10)
        assert a is b  # lru_cache identity
        assert a.n_boxes == 10
        assert a.boxes[0].n_windows == 96  # one day

    def test_pipeline_fleet_six_days(self):
        fleet = pipeline_fleet(3)
        assert fleet.boxes[0].n_windows == 6 * 96

    def test_different_scales_different_fleets(self):
        assert characterization_fleet(10) is not characterization_fleet(11)


class TestScalingHelpers:
    def test_bench_jobs_follows_env(self, monkeypatch):
        from repro.benchhelpers import bench_jobs

        monkeypatch.setenv("REPRO_JOBS", "2")
        assert bench_jobs() == 2
        monkeypatch.delenv("REPRO_JOBS")
        assert bench_jobs() == 1

    def test_quick_scaling_report_smoke(self):
        # The --quick mode of benchmarks/bench_parallel_scaling.py, wired in
        # here so the fast suite exercises the full scaling harness end to
        # end (timing, speedup math, and the equivalence assertion).
        from repro.benchhelpers import quick_scaling_report

        rows, results = quick_scaling_report(jobs_list=(1, 2))
        assert [int(row[0]) for row in rows] == [1, 2]
        assert all(row[1] > 0 for row in rows)
        assert rows[0][2] == 1.0  # baseline speedup is exactly 1x
        assert len(results) == 2

    def test_fingerprint_nan_safe(self):
        from repro.benchhelpers.scaling import _nan_safe

        assert _nan_safe(float("nan")) == "nan"
        assert _nan_safe(1.5) == 1.5
