"""The shared fleet engine: one fan-out, resume and fold path for four drivers.

``run_fleet_atm``, ``run_online_fleet``, ``evaluate_fleet_resizing`` and
``run_fleet_ops`` all go through :func:`repro.core.executor.run_fleet`.
The differential matrix below pins that each driver gives one aggregate
digest whatever the worker count, the fleet's backing (in RAM or a shard
store) and, for the three resumable drivers, whether its boxes were
computed or served from the store.  One failure contract follows: with
a ``REPRO_FAULTS`` plan that fails exactly one box, or with one box's
shard file gone, each driver completes, reports only that box as failed
and folds every other box as the fault-free run does; an empty fleet is
reported by every driver.  ATM runs twice: with its fused
chunk function (a neural model) and per box (a model without a fleet
fitter).  The engine pieces — :func:`fleet_items` and
:func:`resume_probe` — are unit-tested at the end.
"""

import ast
import hashlib
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

import pytest

from repro import obs
from repro.benchhelpers.scaling import fingerprint_result
from repro.core import faults
from repro.core.config import AtmConfig
from repro.core.executor import fleet_items, resume_probe
from repro.core.online import run_online_fleet
from repro.core.pipeline import run_fleet_atm
from repro.prediction.spatial.signatures import ClusteringMethod
from repro.resizing.evaluate import ResizingAlgorithm, evaluate_fleet_resizing
from repro.store import clear_memory_tiers
from repro.store.shards import (
    BoxShardRef,
    ShardedFleet,
    ShardManifest,
    load_fleet_shards,
    write_fleet_shards,
)
from repro.tickets.ops import FleetOpsResult, OpsConfig, run_box_ops, run_fleet_ops
from repro.tickets.ops import pipeline as ops_pipeline
from repro.tickets.policy import TicketPolicy
from repro.trace import model
from repro.trace.generator import FleetConfig, generate_fleet
from repro.trace.model import FORBID_GENERATION_ENV_VAR
from tests.store.shard_oracle import materialize

#: Neural, so ATM's chunks fuse their fits; three days is exactly the
#: training + horizon span, so every box is eligible for ATM and online.
ATM = AtmConfig.with_clustering(
    ClusteringMethod.CBC,
    temporal_model="neural",
    training_windows=192,
    horizon_windows=96,
)
#: A model without a multi-series kernel: ATM's chunks fit box by box.
ATM_PER_BOX = AtmConfig.with_clustering(
    ClusteringMethod.CBC,
    temporal_model="seasonal_mean",
    training_windows=192,
    horizon_windows=96,
)
POLICY = TicketPolicy(60.0)
N_BOXES = 3


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    model._SHARD_TIER_ACTIVE = False
    clear_memory_tiers()
    obs.reset_metrics()
    yield
    model._SHARD_TIER_ACTIVE = False
    clear_memory_tiers()
    obs.reset_metrics()


@pytest.fixture(scope="module")
def in_ram():
    return generate_fleet(FleetConfig(n_boxes=N_BOXES, days=3, seed=5), name="engine")


@pytest.fixture(scope="module")
def sharded(in_ram, tmp_path_factory):
    root = tmp_path_factory.mktemp("engine-shards")
    write_fleet_shards(in_ram, root)
    return load_fleet_shards(root)


def _digest(*parts) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=12).hexdigest()


def _chunksize(jobs):
    return 1 if jobs > 1 else None


def _atm(fleet, jobs, resume=False, config=ATM):
    return run_fleet_atm(
        fleet, config, jobs=jobs, chunksize=_chunksize(jobs), resume=resume
    )


def _atm_per_box(fleet, jobs, **kwargs):
    return _atm(fleet, jobs, config=ATM_PER_BOX, **kwargs)


def _atm_digest(result):
    return _digest(fingerprint_result(result), result.report)


def _atm_rows(result):
    # repr keeps every float bit, NaN included.
    return [(a.box_id, repr(a)) for a in result.accuracies] + [
        (r.box_id, repr((r.resource, r.algorithm, r.tickets_before, r.tickets_after)))
        for r in result.reduction.results
    ]


def _online(fleet, jobs, resume=False):
    # No resume option: online has no per-box outcome artifact.  No
    # chunksize option: the default already gives one box per chunk.
    return run_online_fleet(fleet, ATM, jobs=jobs)


def _online_rows(result):
    return [
        (r.box_id, repr((r.total_tickets(static=True), r.total_tickets(), r.mean_ape())))
        for r in result.values()
    ]


def _online_digest(result):
    return _digest(_online_rows(result), result.report)


def _resize(fleet, jobs, resume=False):
    # No chunksize option: the default already gives one box per chunk.
    return evaluate_fleet_resizing(
        fleet,
        POLICY,
        (ResizingAlgorithm.ATM, ResizingAlgorithm.STINGY),
        eval_windows=96,
        jobs=jobs,
        resume=resume,
    )


def _resize_rows(summary):
    # ``feasible`` is a NumPy bool when computed and a bool when decoded
    # from the store: compare values, not reprs.
    return [
        (r.box_id, (r.resource, r.algorithm, r.tickets_before, r.tickets_after,
                    bool(r.feasible)))
        for r in summary.results
    ]


def _resize_digest(summary):
    return _digest(_resize_rows(summary), summary.report)


class _RecordedOps(FleetOpsResult):
    """The ops aggregate, also keeping each folded box's row, in fold order.

    The fold runs in the parent at every worker count, so this sees
    exactly what ``run_fleet_ops`` folds.
    """

    def __post_init__(self):
        super().__post_init__()
        self.rows = []

    def fold(self, result):
        super().fold(result)
        self.rows.append(
            (result.box_id, (result.n_tickets, result.assignment_digest, result.evidence_refs))
        )


def _ops(fleet, jobs, resume=False):
    # No chunksize option: the default already gives one box per chunk.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops_pipeline, "FleetOpsResult", _RecordedOps)
        return run_fleet_ops(fleet, OpsConfig(), jobs=jobs, resume=resume)


def _ops_rows(result):
    return result.rows


def _ops_digest(result):
    return _digest(
        result.boxes,
        result.tickets,
        result.incidents,
        result.assignment_digest,
        result.evidence_digest,
        result.queue_counts,
        result.top_incidents,
        result.report,
    )


class Driver(NamedTuple):
    run: Callable
    digest: Callable[..., str]
    #: Counter namespace of its resume hits; ``None`` = not resumable.
    resume_ns: Optional[str]
    #: Fault kinds that, all firing for one box, send it to rung ``failed``.
    failure_kinds: Tuple[str, ...]
    #: ``(box_id, result)`` rows of the aggregate, in fold order.
    rows: Callable[..., list]

    def digest_of(self, fleet, jobs, **kwargs) -> str:
        return self.digest(self.run(fleet, jobs, **kwargs))

    def box_ids(self, result) -> list:
        return list(dict.fromkeys(box_id for box_id, _ in self.rows(result)))


_ATM_FAILS = ("fit_error", "fallback_error")

DRIVERS = {
    "atm": Driver(_atm, _atm_digest, "pipeline", _ATM_FAILS, _atm_rows),
    "atm_per_box": Driver(_atm_per_box, _atm_digest, "pipeline", _ATM_FAILS, _atm_rows),
    "online": Driver(_online, _online_digest, None, ("box_error",), _online_rows),
    "resize": Driver(_resize, _resize_digest, "resize", ("box_error",), _resize_rows),
    "ops": Driver(_ops, _ops_digest, "ops", ("box_error",), _ops_rows),
}

MATRIX = [
    pytest.param(name, jobs, backing, mode, id=f"{name}-jobs{jobs}-{backing}-{mode}")
    for name, driver in DRIVERS.items()
    for jobs in (1, 2)
    for backing in ("ram", "sharded")
    for mode in (("fresh", "resume") if driver.resume_ns else ("fresh",))
]

#: Reference result per driver: in RAM, serial, no store, no faults.
_REFERENCE = {}


def _reference(name, in_ram):
    if name not in _REFERENCE:
        _REFERENCE[name] = DRIVERS[name].run(in_ram, 1)
        obs.reset_metrics()
    return _REFERENCE[name]


@pytest.mark.parametrize("name,jobs,backing,mode", MATRIX)
def test_one_digest_per_driver(
    name, jobs, backing, mode, in_ram, sharded, tmp_path, monkeypatch
):
    driver = DRIVERS[name]
    expected = driver.digest(_reference(name, in_ram))
    fleet = in_ram if backing == "ram" else sharded
    if mode == "resume":
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        assert driver.digest_of(fleet, 1) == expected  # populates the store
        clear_memory_tiers()
    obs.reset_metrics()
    result = driver.run(fleet, jobs, resume=mode == "resume")
    assert driver.digest(result) == expected
    assert driver.box_ids(result) == [box.box_id for box in in_ram.boxes]
    counters = obs.metrics_snapshot()["counters"]
    if jobs > 1:
        assert counters["executor.chunks"] >= 2
    if mode == "resume":
        assert counters[f"{driver.resume_ns}.resume.hits"] == N_BOXES


def _victim_spec(kinds, fleet, victim=1):
    """A ``REPRO_FAULTS`` spec and seed firing every kind for one box only.

    Scans seeds for one where box ``victim`` draws the lowest hash for
    every kind in ``kinds``, then picks the probability between its draws
    and everyone else's, so the whole rule set fires for that box alone.
    """
    ids = [box.box_id for box in fleet]
    for seed in range(1000):
        units = {kind: [faults._hash_unit(seed, kind, b) for b in ids] for kind in kinds}
        hit = max(units[kind][victim] for kind in kinds)
        miss = min(u for kind in kinds for i, u in enumerate(units[kind]) if i != victim)
        if miss - hit > 1e-6:
            p = (hit + miss) / 2.0
            return ";".join(f"{kind}:p={p!r}" for kind in kinds), seed, ids[victim]
    raise AssertionError("no seed isolates the victim box")


#: Fault states per driver: ``off``, ``on`` (its ``failure_kinds``), and
#: for ATM also ``box_error``, the engine's hook outside its ladder.
FAULT_AXIS = [
    pytest.param(name, jobs, state, id=f"{name}-jobs{jobs}-faults-{state}")
    for name in DRIVERS
    for jobs in (1, 2)
    for state in ("off", "on") + (("box_error",) if name == "atm" else ())
]


def _assert_only_victim_failed(driver, result, reference, victim):
    assert result.report.failed_boxes == [victim]
    assert result.report.degraded_boxes == [victim]
    assert driver.rows(result) == [
        row for row in driver.rows(reference) if row[0] != victim
    ]


@pytest.mark.parametrize("name,jobs,state", FAULT_AXIS)
def test_one_failure_contract(name, jobs, state, in_ram, monkeypatch):
    """Faults off: the reference digest.  On: one box fails, the rest fold as before."""
    driver = DRIVERS[name]
    reference = _reference(name, in_ram)
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    if state == "off":
        result = driver.run(in_ram, jobs)
        assert driver.digest(result) == driver.digest(reference)
        assert result.report.ok
        return
    kinds = driver.failure_kinds if state == "on" else (state,)
    spec, seed, victim = _victim_spec(kinds, in_ram)
    monkeypatch.setenv(faults.FAULTS_ENV_VAR, spec)
    monkeypatch.setenv(faults.FAULTS_SEED_ENV_VAR, str(seed))
    _assert_only_victim_failed(driver, driver.run(in_ram, jobs), reference, victim)


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("name", list(DRIVERS))
def test_missing_shard_fails_only_its_box(name, jobs, in_ram, tmp_path):
    """A box whose shard file is gone is reported ``failed``; the rest fold as before."""
    driver = DRIVERS[name]
    reference = _reference(name, in_ram)
    write_fleet_shards(in_ram, tmp_path)
    fleet = load_fleet_shards(tmp_path)
    victim = fleet.manifest.boxes[1]
    (tmp_path / victim.path).unlink()
    result = driver.run(fleet, jobs)
    _assert_only_victim_failed(driver, result, reference, victim.box_id)
    (event,) = result.report.events
    assert (event.stage, event.rung) == ("run", "failed")
    assert "FileNotFoundError" in event.reason


@pytest.mark.parametrize("name", list(DRIVERS))
def test_empty_fleet_rule(name, tmp_path):
    """Every driver reports an empty fleet as one fleet-level event."""
    driver = DRIVERS[name]
    empty = ShardedFleet(tmp_path, manifest=ShardManifest(name="void", boxes=[]))
    result = driver.run(empty, 1)
    (event,) = result.report.events
    assert (event.box_id, event.stage, event.rung) == ("fleet:void", "fleet", "failed")
    assert "'void'" in event.reason
    assert driver.rows(result) == []
    counters = obs.metrics_snapshot()["counters"]
    assert sum(v for k, v in counters.items() if k.endswith(".fleets_empty")) == 1
    assert counters.get("executor.items", 0) == 0


def test_no_failure_knobs():
    """The contract above is the only one: nothing in ``src/repro`` can
    switch the ladder off, retry a box or time a pool out."""
    package = Path(__file__).resolve().parents[2] / "src" / "repro"
    knobs = {"degrade", "retries", "timeout", "mp_context"}
    found = [
        f"{path.relative_to(package)}:{node.lineno} {node.name}({arg.arg})"
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in node.args.args + node.args.kwonlyargs
        if arg.arg in knobs
    ]
    assert not found, found


def test_one_demand_read_per_box_with_a_store(in_ram, tmp_path, monkeypatch):
    """The engine keys each box right before its chunk runs it: one matrix read each."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path))
    reads = []
    original = model.BoxTrace.demand_matrix

    def counted(box, resource=None):
        reads.append((box.box_id, resource))
        return original(box, resource)

    monkeypatch.setattr(model.BoxTrace, "demand_matrix", counted)
    run_fleet_atm(in_ram, ATM_PER_BOX, jobs=1)
    assert sorted(reads) == sorted((box.box_id, None) for box in in_ram)
    reads.clear()
    run_fleet_ops(in_ram, OpsConfig(atm=ATM_PER_BOX), jobs=1)
    assert sorted(reads) == sorted((box.box_id, None) for box in in_ram)


def test_ops_folds_in_box_order(in_ram):
    oracle = FleetOpsResult(config=OpsConfig())
    for box in in_ram.boxes:
        oracle.fold(run_box_ops(box, OpsConfig()))
    assert _ops_digest(_ops(in_ram, 2)) == _ops_digest(oracle)


class TestFleetItems:
    def test_in_ram_boxes_filtered_by_length(self, in_ram):
        assert fleet_items(in_ram) == list(in_ram.boxes)
        assert fleet_items(in_ram, in_ram.boxes[0].n_windows + 1) == []

    def test_sharded_refs_from_the_manifest_alone(self, sharded, monkeypatch):
        monkeypatch.setenv(FORBID_GENERATION_ENV_VAR, "1")
        items = fleet_items(sharded, ATM.training_windows + ATM.horizon_windows)
        assert [type(item) for item in items] == [BoxShardRef] * N_BOXES
        assert [item.box_id for item in items] == [
            meta.box_id for meta in sharded.manifest.boxes
        ]
        assert fleet_items(sharded, 10**6) == []
        # No shard was opened in this process: the tier flag is still
        # clear, so materializing trips the guard only once it marks it.
        assert not model.shard_tier_active()
        with pytest.raises(RuntimeError, match="materialization is forbidden"):
            materialize(sharded)


class _FakeStore:
    def __init__(self, persistent, stored=None):
        self.persistent = persistent
        self.stored = dict(stored or {})
        self.calls = []

    def get(self, key, memory=True):
        self.calls.append(("get", key, memory))
        return self.stored.get(key)

    def put(self, key, value, memory=True):
        self.calls.append(("put", key, memory))
        self.stored[key] = value


class TestResumeProbe:
    """The one probe/put every resumable per-box unit goes through."""

    def _unit(self, store, monkeypatch, resume=True):
        """A resumable unit as the drivers write it; returns its value."""
        monkeypatch.setattr("repro.store.default_store", lambda: store)
        self.computed = 0

        def compute():
            self.computed += 1
            return "fresh"

        cached, save = resume_probe("unit", lambda: "k", resume)
        if cached is not None:
            return cached
        value = compute()
        save(value)
        return value

    def test_miss_computes_and_puts(self, monkeypatch):
        store = _FakeStore(persistent=True)
        assert self._unit(store, monkeypatch) == "fresh"
        assert self.computed == 1
        assert store.calls == [("get", "k", False), ("put", "k", False)]
        assert "unit.resume.hits" not in obs.metrics_snapshot()["counters"]

    def test_hit_counts_and_skips_compute(self, monkeypatch):
        store = _FakeStore(persistent=True, stored={"k": "stored"})
        assert self._unit(store, monkeypatch) == "stored"
        assert self.computed == 0
        assert store.calls == [("get", "k", False)]
        assert obs.metrics_snapshot()["counters"]["unit.resume.hits"] == 1

    def test_without_resume_recomputes_and_puts(self, monkeypatch):
        store = _FakeStore(persistent=True, stored={"k": "stored"})
        assert self._unit(store, monkeypatch, resume=False) == "fresh"
        assert store.calls == [("put", "k", False)]

    def test_memory_only_store_is_never_touched(self, monkeypatch):
        store = _FakeStore(persistent=False, stored={"k": "stored"})
        monkeypatch.setattr("repro.store.default_store", lambda: store)
        cached, save = resume_probe("unit", lambda: pytest.fail("keyed"), True)
        assert cached is None
        save("fresh")
        assert store.calls == []
