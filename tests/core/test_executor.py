"""Tests for the parallel fleet execution engine (repro.core.executor).

The headline guarantee: ``jobs=N`` produces results numerically identical
to the serial ``jobs=1`` path, in the same (box) order, without workers
ever regenerating fleets.
"""

import os

import numpy as np
import pytest

from repro.benchhelpers.scaling import fingerprint_result
from repro.core.config import AtmConfig
from repro.core.executor import (
    JOBS_ENV_VAR,
    FleetExecutor,
    default_chunksize,
    resolve_jobs,
)
from repro.core.pipeline import run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import evaluate_fleet_resizing
from repro.tickets.policy import TicketPolicy
from repro.trace.generator import (
    FORBID_GENERATION_ENV_VAR,
    FleetConfig,
    generate_fleet,
)


def _square(x):
    """Module-level so pool workers can unpickle it."""
    return x * x


def _scale(x, factor):
    return x * factor


def _maybe_fail(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def _poison_or_sleep(item, out_dir):
    """First item raises immediately; the rest sleep, then leave a marker."""
    import time as _time

    if item == 0:
        raise RuntimeError("poisoned box")
    _time.sleep(0.5)
    with open(os.path.join(out_dir, f"done-{item}"), "w") as fh:
        fh.write("1")
    return item


def _fail_until_marked(item, out_dir):
    """Item 2 fails on its first call, then would succeed (file-based state
    so a second call would be visible across pool worker processes)."""
    marker = os.path.join(out_dir, f"tried-{item}")
    if item == 2 and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("1")
        raise RuntimeError("transient glitch")
    return item * 10


@pytest.fixture()
def atm_config():
    return AtmConfig.with_clustering(ClusteringMethod.CBC, temporal_model="seasonal_mean")


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(FleetConfig(n_boxes=5, days=6, seed=21), name="exec-test")


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(None) == 3

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(2) == 2

    def test_nonpositive_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ValueError, match=JOBS_ENV_VAR):
            resolve_jobs(None)

    def test_default_chunksize(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(100, 4) == 7  # ~4 chunks per worker
        assert default_chunksize(3, 8) == 1


class TestFleetExecutorMap:
    def test_serial_matches_comprehension(self):
        items = list(range(10))
        assert FleetExecutor(jobs=1).map(_square, items) == [x * x for x in items]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(23))
        serial = FleetExecutor(jobs=1).map(_square, items)
        parallel = FleetExecutor(jobs=2).map(_square, items)
        assert parallel == serial

    def test_common_args_are_forwarded(self):
        assert FleetExecutor(jobs=2).map(_scale, [1, 2, 3], 10) == [10, 20, 30]

    def test_explicit_chunksize(self):
        result = FleetExecutor(jobs=2, chunksize=1).map(_square, list(range(7)))
        assert result == [x * x for x in range(7)]

    def test_invalid_chunksize(self):
        with pytest.raises(ValueError, match="chunksize"):
            FleetExecutor(jobs=2, chunksize=0)

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            FleetExecutor(jobs=2).map(_maybe_fail, list(range(6)))

    def test_worker_exception_cancels_pending_chunks(self, tmp_path):
        # Fail fast: a poisoned first item must not let every other chunk
        # run to completion.  One-chunk items + 2 workers: the poisoned
        # chunk fails immediately while at most one other chunk is already
        # running; the rest are still queued and must be cancelled.
        items = list(range(10))
        with pytest.raises(RuntimeError, match="poisoned box"):
            FleetExecutor(jobs=2, chunksize=1).map(
                _poison_or_sleep, items, str(tmp_path)
            )
        completed = len(list(tmp_path.glob("done-*")))
        assert completed < len(items) - 1

    def test_single_item_stays_in_process(self):
        # len(items) <= 1 short-circuits to the serial path even with jobs>1.
        assert FleetExecutor(jobs=4).map(_square, [5]) == [25]


class TestFleetExecutorImap:
    """The one chunk dispatch `map` is built on: ordered, windowed, lazy."""

    def test_parallel_order_preserved(self):
        items = list(range(23))
        streamed = list(FleetExecutor(jobs=3, chunksize=2).imap(_square_chunk, items))
        assert streamed == [x * x for x in items]

    def test_matches_map(self):
        items = list(range(17))
        executor = FleetExecutor(jobs=2, chunksize=4)
        assert list(executor.imap(_square_chunk, items)) == executor.map(_square, items)

    def test_serial_consumption_is_lazy(self):
        # jobs=1 runs in-process (no pickling), so a closure can observe
        # that chunks are computed one `next()` at a time, not up front.
        calls = []

        def record(chunk):
            calls.extend(chunk)
            return chunk

        iterator = FleetExecutor(jobs=1, chunksize=1).imap(record, range(5))
        assert next(iterator) == 0
        assert calls == [0]
        assert list(iterator) == [1, 2, 3, 4]

    def test_exception_fails_fast(self, tmp_path):
        iterator = FleetExecutor(jobs=2, chunksize=1).imap(
            _poison_or_sleep_chunk, list(range(10)), str(tmp_path)
        )
        with pytest.raises(RuntimeError, match="poisoned box"):
            list(iterator)
        assert len(list(tmp_path.glob("done-*"))) < 9

    def test_abandoned_iterator_releases_pool(self):
        # Closing mid-stream must cancel queued chunks and shut the pool
        # down (promptly — queued work is dropped, not drained).
        iterator = FleetExecutor(jobs=2, chunksize=1).imap(
            _square_chunk, list(range(12))
        )
        assert next(iterator) == 0
        iterator.close()


class TestRetries:
    def test_no_retries_keeps_fail_fast_contract(self, tmp_path):
        # Nothing is retried: a failure that a second call would clear
        # still propagates, serially and from a pool.
        for jobs in (1, 2):
            out_dir = tmp_path / f"jobs{jobs}"
            out_dir.mkdir()
            with pytest.raises(RuntimeError, match="transient glitch"):
                FleetExecutor(jobs=jobs, chunksize=1).map(
                    _fail_until_marked, list(range(4)), str(out_dir)
                )


class TestParallelSerialEquivalence:
    """Satellite: same fleet, jobs=1 vs jobs>1, identical everything."""

    def test_run_fleet_atm_identical(self, fleet, atm_config):
        serial = run_fleet_atm(fleet, atm_config, jobs=1)
        parallel = run_fleet_atm(fleet, atm_config, jobs=4, chunksize=1)

        # Box ordering and per-box accuracies.  Dataclass equality would
        # choke on legitimately-nan metrics, so compare the nan-aware
        # fingerprint (covers accuracies, reductions, and fleet means).
        assert [a.box_id for a in parallel.accuracies] == [
            a.box_id for a in serial.accuracies
        ]
        assert fingerprint_result(parallel) == fingerprint_result(serial)

        # Per-box reduction records, in order.
        assert parallel.reduction.results == serial.reduction.results

        # Fleet-level aggregates.
        for peak in (False, True):
            s, p = serial.mean_ape(peak=peak), parallel.mean_ape(peak=peak)
            assert (s == p) or (np.isnan(s) and np.isnan(p))
        assert parallel.mean_signature_ratio() == serial.mean_signature_ratio()
        from repro.resizing.evaluate import ResizingAlgorithm
        from repro.trace.model import Resource

        for resource in (Resource.CPU, Resource.RAM):
            for algorithm in ResizingAlgorithm:
                s = serial.mean_reduction(resource, algorithm)
                p = parallel.mean_reduction(resource, algorithm)
                assert (s == p) or (np.isnan(s) and np.isnan(p))

    def test_evaluate_fleet_resizing_identical(self, fleet):
        policy = TicketPolicy(60.0)
        serial = evaluate_fleet_resizing(fleet, policy, eval_windows=96, jobs=1)
        parallel = evaluate_fleet_resizing(fleet, policy, eval_windows=96, jobs=3)
        assert parallel.results == serial.results

    def test_jobs_env_var_drives_pipeline(self, fleet, atm_config, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        parallel = run_fleet_atm(fleet, atm_config)  # jobs=None -> env
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        serial = run_fleet_atm(fleet, atm_config)
        assert fingerprint_result(parallel) == fingerprint_result(serial)


class TestWorkersNeverGenerateFleets:
    """Satellite: workers receive pickled boxes, never rebuild fleets."""

    def test_guard_raises_when_set(self, monkeypatch):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        with pytest.raises(RuntimeError, match="forbidden"):
            generate_fleet(FleetConfig(n_boxes=1, days=1, seed=1))

    def test_guard_off_for_zero(self, monkeypatch):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "0")
        fleet = generate_fleet(FleetConfig(n_boxes=1, days=1, seed=1))
        assert fleet.n_boxes == 1

    @pytest.mark.parametrize("raw", ["false", "OFF", "no", " 0 "])
    def test_guard_off_for_every_falsy_spelling(self, monkeypatch, raw):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, raw)
        fleet = generate_fleet(FleetConfig(n_boxes=1, days=1, seed=1))
        assert fleet.n_boxes == 1

    def test_parallel_run_with_generation_forbidden(self, fleet, atm_config, monkeypatch):
        # Workers inherit the environment (fork); if any of them tried to
        # regenerate a fleet, the guard would raise inside the pool and the
        # run would fail.
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        result = run_fleet_atm(fleet, atm_config, jobs=2)
        assert len(result.accuracies) == fleet.n_boxes


def _square_chunk(items):
    """Chunk-granular twin of _square (module-level for pool pickling)."""
    return [x * x for x in items]


def _scale_chunk(items, factor):
    return [x * factor for x in items]


def _poison_or_sleep_chunk(items, out_dir):
    return [_poison_or_sleep(item, out_dir) for item in items]


def _drop_last_chunk(items):
    return [x * x for x in items][:-1]  # one result short: a contract bug


def _one_extra_chunk(items):
    return [x * x for x in items] + [0]  # one result too many


class TestChunkFn:
    """Chunk-granular execution: ``imap``'s function sees a whole chunk."""

    def test_serial_map_matches_item_path(self):
        items = list(range(11))
        chunked = list(FleetExecutor(jobs=1, chunksize=3).imap(_square_chunk, items))
        assert chunked == FleetExecutor(jobs=1).map(_square, items)

    def test_serial_imap_streams_in_order(self):
        items = list(range(10))
        streamed = list(FleetExecutor(jobs=1, chunksize=4).imap(_square_chunk, items))
        assert streamed == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(17))
        serial = list(FleetExecutor(jobs=1, chunksize=4).imap(_square_chunk, items))
        parallel = list(FleetExecutor(jobs=2, chunksize=4).imap(_square_chunk, items))
        assert parallel == serial == [x * x for x in items]

    def test_common_args_forwarded(self):
        result = list(FleetExecutor(jobs=1, chunksize=2).imap(_scale_chunk, [1, 2, 3], 10))
        assert result == [10, 20, 30]

    def test_result_count_contract_enforced(self):
        for jobs in (1, 2):
            for chunk_fn in (_drop_last_chunk, _one_extra_chunk):
                executor = FleetExecutor(jobs=jobs, chunksize=4)
                with pytest.raises(RuntimeError, match="chunk function returned"):
                    list(executor.imap(chunk_fn, list(range(8))))
