"""Evidence bundles that carry the forecast.

When the ops run rides on a completed ATM run (``OpsConfig.atm`` set and
a persistent store present), every incident that overlaps the forecast
horizon gets the controller's predicted demands and allocations attached
to its evidence bundle — the operator sees *why* the controller did or
did not avert the incident.  Incidents outside the horizon, runs without
a store, and runs without ``atm`` keep the legacy ``None`` fields, and
the forecast provenance is folded into the evidence fingerprint so
enriched bundles never collide with plain ones.
"""

import pytest

from repro import obs
from repro.core import AtmConfig, run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.tickets.ops import OpsConfig, resolve_evidence, run_box_ops, run_fleet_ops
from repro.trace.generator import FleetConfig, generate_fleet

CFG = FleetConfig(n_boxes=4, days=2, seed=13)


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset_metrics()
    yield
    obs.reset_metrics()


@pytest.fixture
def store_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    return tmp_path


def _atm_config():
    return AtmConfig.with_clustering(
        ClusteringMethod.CBC,
        temporal_model="seasonal_mean",
        training_windows=96,
        horizon_windows=96,
    )


def _load_bundles(result):
    bundles = []
    for data_fp, config_fp in result.evidence_refs:
        payload = resolve_evidence(data_fp, config_fp)
        assert payload is not None
        bundles.append(payload)
    return bundles


class TestForecastEvidence:
    def test_in_horizon_incidents_carry_the_forecast(self, store_env):
        fleet = generate_fleet(CFG)
        atm = _atm_config()
        run_fleet_atm(fleet, atm)  # populate box-result artifacts

        config = OpsConfig(atm=atm)
        enriched = 0
        lo = atm.training_windows
        for box in fleet.boxes:
            result = run_box_ops(box, config)
            for bundle in _load_bundles(result):
                if bundle.predicted is None:
                    assert bundle.allocations is None
                    continue
                enriched += 1
                assert bundle.allocations is not None
                # Per-VM forecast rows: CPU block stacked on RAM block.
                assert bundle.predicted.shape[0] == 2 * box.n_vms
                hi = lo + bundle.predicted.shape[1]
                assert bundle.end_window >= lo
                assert bundle.start_window < hi
        assert enriched > 0
        counters = obs.metrics_snapshot()["counters"]
        assert counters["ops.evidence.forecasts"] == enriched

    def test_without_atm_config_stays_legacy(self, store_env):
        fleet = generate_fleet(CFG)
        run_fleet_atm(fleet, _atm_config())
        for box in fleet.boxes:
            result = run_box_ops(box, OpsConfig())
            assert all(b.predicted is None for b in _load_bundles(result))
        assert "ops.evidence.forecasts" not in obs.metrics_snapshot()["counters"]

    def test_missing_forecast_artifacts_degrade_gracefully(self, store_env):
        """atm configured but no ATM run cached: bundles stay plain."""
        fleet = generate_fleet(CFG)
        for box in fleet.boxes:
            result = run_box_ops(box, OpsConfig(atm=_atm_config()))
            assert all(b.predicted is None for b in _load_bundles(result))

    def test_forecast_provenance_changes_evidence_keys(self, store_env):
        """The same incident must key differently with a forecast attached:
        resuming an enriched run from plain bundles would silently drop
        the forecast."""
        fleet = generate_fleet(CFG)
        box = fleet.boxes[0]
        plain = run_box_ops(box, OpsConfig())
        run_fleet_atm(fleet, _atm_config())
        enriched = run_box_ops(box, OpsConfig(atm=_atm_config()))
        plain_refs = set(plain.evidence_refs)
        enriched_refs = set(enriched.evidence_refs)
        assert plain_refs != enriched_refs

    def test_resume_after_atm_run_attaches_the_forecast(self, store_env):
        """An ops outcome stored before its ATM run must not serve a later
        resume: the forecast materialized since changes the bundles."""
        fleet = generate_fleet(CFG)
        config = OpsConfig(atm=_atm_config())
        run_fleet_ops(fleet, config)  # no forecasts to attach yet
        run_fleet_atm(fleet, config.atm)
        obs.reset_metrics()
        resumed = run_fleet_ops(fleet, config, resume=True)
        counters = obs.metrics_snapshot()["counters"]
        assert counters.get("ops.resume.hits", 0) == 0
        assert counters["ops.evidence.forecasts"] > 0
        fresh = run_fleet_ops(fleet, config)
        assert resumed.evidence_digest == fresh.evidence_digest
        # The enriched outcome resumes in its turn.
        obs.reset_metrics()
        again = run_fleet_ops(fleet, config, resume=True)
        assert obs.metrics_snapshot()["counters"]["ops.resume.hits"] == len(fleet.boxes)
        assert again.evidence_digest == fresh.evidence_digest

    def test_probe_and_run_key_each_box_once(self, store_env, monkeypatch):
        """The engine's resume probe and the box's run share one keying:
        one ``ticket_ops`` key and one stat of the stored ATM outcome."""
        from pathlib import Path

        from repro.tickets.ops import pipeline

        fleet = generate_fleet(CFG)
        config = OpsConfig(atm=_atm_config())
        run_fleet_atm(fleet, config.atm)
        keyed, stats = [], []
        key, exists = pipeline._OpsKeys._key, Path.exists
        monkeypatch.setattr(
            pipeline._OpsKeys, "_key", lambda self, box: keyed.append(box.box_id) or key(self, box)
        )
        monkeypatch.setattr(
            Path, "exists",
            lambda path: (stats.append(path) if "box_result" in path.parts else None)
            or exists(path),
        )
        run_fleet_ops(fleet, config)
        assert keyed == [box.box_id for box in fleet.boxes]
        # Per box: the key's stat, then the stored outcome's read.
        assert len(stats) == 2 * fleet.n_boxes
