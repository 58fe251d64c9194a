"""Tests of the consolidated ``REPRO_*`` environment gates."""

import pytest

from repro.core import executor, faults, runtime
from repro import obs
from repro.store import STORE_ENV_VAR
from repro.trace import model


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in (
        runtime.JOBS_ENV_VAR,
        runtime.METRICS_ENV_VAR,
        runtime.FAULTS_ENV_VAR,
        runtime.FAULTS_SEED_ENV_VAR,
        runtime.STORE_ENV_VAR,
        runtime.FORBID_GENERATION_ENV_VAR,
    ):
        monkeypatch.delenv(name, raising=False)


class TestFlags:
    @pytest.mark.parametrize("raw", ["0", "false", "OFF", "No", " 0 "])
    def test_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(runtime.METRICS_ENV_VAR, raw)
        assert not runtime.metrics_enabled()

    @pytest.mark.parametrize("raw", ["1", "on", "yes", "anything-else"])
    def test_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv(runtime.METRICS_ENV_VAR, raw)
        assert runtime.metrics_enabled()

    def test_unset_means_default_on(self):
        assert runtime.metrics_enabled()

    def test_gates_parse_independently(self, monkeypatch):
        # A broken jobs value must not take down unrelated gates.
        monkeypatch.setenv(runtime.JOBS_ENV_VAR, "not-a-number")
        assert runtime.metrics_enabled()
        assert runtime.store_dir() is None
        with pytest.raises(ValueError, match="REPRO_JOBS must be an integer"):
            runtime.env_jobs()


class TestIntegers:
    def test_env_jobs_unset(self):
        assert runtime.env_jobs() is None

    def test_env_jobs_value(self, monkeypatch):
        monkeypatch.setenv(runtime.JOBS_ENV_VAR, " 4 ")
        assert runtime.env_jobs() == 4

    def test_faults_seed_default(self):
        assert runtime.faults_seed() == 0

    def test_faults_seed_invalid(self, monkeypatch):
        monkeypatch.setenv(runtime.FAULTS_SEED_ENV_VAR, "7.5")
        with pytest.raises(ValueError, match="REPRO_FAULTS_SEED must be an integer"):
            runtime.faults_seed()


class TestStrings:
    def test_store_dir_unset(self):
        assert runtime.store_dir() is None

    def test_store_dir_value(self, monkeypatch):
        monkeypatch.setenv(runtime.STORE_ENV_VAR, "/tmp/artifacts")
        assert runtime.store_dir() == "/tmp/artifacts"

    def test_faults_spec_default_empty(self):
        assert runtime.faults_spec() == ""


class TestLegacyConstantsAgree:
    """The owning modules re-export the same variable names they always had."""

    def test_constants(self):
        assert executor.JOBS_ENV_VAR == runtime.JOBS_ENV_VAR == "REPRO_JOBS"
        assert faults.FAULTS_ENV_VAR == runtime.FAULTS_ENV_VAR == "REPRO_FAULTS"
        assert faults.FAULTS_SEED_ENV_VAR == runtime.FAULTS_SEED_ENV_VAR
        assert obs.METRICS_ENV_VAR == runtime.METRICS_ENV_VAR == "REPRO_METRICS"
        assert STORE_ENV_VAR == runtime.STORE_ENV_VAR == "REPRO_STORE"
        assert model.FORBID_GENERATION_ENV_VAR == runtime.FORBID_GENERATION_ENV_VAR

    def test_gate_functions_delegate(self, monkeypatch):
        monkeypatch.setenv(runtime.METRICS_ENV_VAR, "off")
        assert not obs.metrics_enabled()
        monkeypatch.setenv(runtime.FAULTS_ENV_VAR, "fit_error:p=1")
        assert faults.active_plan().rule("fit_error") is not None
