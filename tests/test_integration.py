"""End-to-end integration tests: the whole ATM system on small inputs."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import AtmConfig, run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import ResizingAlgorithm
from repro.trace import FleetConfig, Resource, generate_fleet

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in ("AtmConfig", "FleetConfig", "generate_fleet",
                     "run_fleet_atm", "TicketPolicy", "Resource"):
            assert hasattr(repro, name)
        assert not hasattr(repro, "AtmController")


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def fleet(self):
        return generate_fleet(FleetConfig(n_boxes=6, days=6, seed=77))

    @pytest.mark.parametrize("method", list(ClusteringMethod))
    def test_full_pipeline_both_clusterings(self, fleet, method):
        config = AtmConfig.with_clustering(method, temporal_model="seasonal_mean")
        result = run_fleet_atm(fleet, config)
        assert 0.0 < result.mean_signature_ratio() <= 1.0
        assert np.isfinite(result.mean_ape())
        atm_cpu = result.mean_reduction(Resource.CPU, ResizingAlgorithm.ATM)
        stingy_cpu = result.mean_reduction(Resource.CPU, ResizingAlgorithm.STINGY)
        assert atm_cpu > stingy_cpu

    def test_neural_pipeline_smoke(self, fleet):
        config = AtmConfig.with_clustering(ClusteringMethod.DTW, temporal_model="neural")
        result = run_fleet_atm(fleet, config)
        assert np.isfinite(result.mean_ape())


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "characterize_fleet.py",
        "compare_predictors.py",
        "trace_roundtrip.py",
        "mediawiki_resizing.py",
        "online_management.py",
    ],
)
def test_example_scripts_run(script):
    """Every shipped example must execute cleanly end to end."""
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "examples must print their findings"
