"""The incident-operations fleet loop: monitor → incidents → route → resolve.

This is the operational half the ROADMAP names: per box, raw tickets are
extracted (:mod:`repro.tickets.monitor`), collapsed into incidents
(:mod:`repro.tickets.incidents`), scored and dealt to responder queues
(:mod:`~repro.tickets.ops.scoring` / :mod:`~repro.tickets.ops.assign`),
played through the SLA-clock schedule (:mod:`~repro.tickets.ops.route`),
and explained by content-addressed evidence bundles
(:mod:`~repro.tickets.ops.evidence`).

The fleet loop reuses the whole scaling substrate:

* per-box work fans out through :func:`repro.core.executor.run_fleet`
  (``jobs``), accepting :class:`~repro.store.shards.ShardedFleet` refs so
  workers memory-map their boxes;
* results stream through :meth:`~repro.core.executor.FleetExecutor.imap`
  and fold into fixed-size reducers — per-box payloads (ticket records,
  usage slices) never accumulate in the parent, so the loop is
  constant-memory at 6k boxes;
* each box's outcome is a ``ticket_ops`` artifact in :mod:`repro.store`
  (``--resume`` serves finished boxes), and the evidence bundles of a
  box's incidents persist as one evidence pack under the same key, each
  bundle resolvable from its own fingerprints
  (:func:`~repro.tickets.ops.evidence.resolve_evidence`);
* breach/assignment telemetry lands in :mod:`repro.obs`
  (``sla.breaches``, ``sla.ack_breaches``, ``sla.resolve_breaches``,
  ``route.assignments``, ``sla.open_incidents``) inside the workers, and
  the executor merges worker snapshots — ``jobs=N`` reports the same
  counters as serial.

Determinism: scoring, assignment and the SLA schedule are pure functions
of one box's trace and the :class:`OpsConfig`, and the fleet digests fold
per-box digests in fleet box order — so the assignment and evidence
digests are bit-identical at any worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.core.executor import fleet_items, resume_probe, run_fleet
from repro.store import (
    ArtifactKey,
    canonical,
    config_fingerprint,
    default_store,
    register_codec,
)
from repro.tickets.incidents import group_incidents
from repro.tickets.monitor import tickets_for_box
from repro.tickets.ops.assign import AssignPolicy
from repro.tickets.ops.evidence import (
    EVIDENCE_LAYOUT,
    EVIDENCE_STAGE,
    EvidencePack,
    build_evidence,
    evidence_key,
)
from repro.tickets.ops.route import SlaPolicy, route_incidents
from repro.tickets.ops.scoring import ScoringPolicy
from repro.tickets.policy import DEFAULT_POLICY, TicketPolicy
from repro.trace.model import FleetTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import AtmConfig
    from repro.store.shards import ShardedFleet

__all__ = [
    "TICKET_OPS_STAGE",
    "TOP_INCIDENTS_KEPT",
    "BoxOpsResult",
    "FleetOpsResult",
    "IncidentRow",
    "OpsConfig",
    "run_box_ops",
    "run_fleet_ops",
]

#: Artifact-store stage of one box's complete ops outcome.
TICKET_OPS_STAGE = "ticket_ops"

#: Fleet-level "worst incidents" leaderboard size (a bounded reducer: the
#: fleet fold keeps the top N rows, never a per-incident list).
TOP_INCIDENTS_KEPT = 10


@dataclass(frozen=True)
class OpsConfig:
    """Everything the operations loop is parameterized by.

    Frozen so it fingerprints through :func:`repro.store.config_fingerprint`
    — the ``ticket_ops`` and ``evidence`` artifact keys both fold it in.
    """

    policy: TicketPolicy = DEFAULT_POLICY
    max_gap_windows: int = 1
    scoring: ScoringPolicy = ScoringPolicy()
    assign: AssignPolicy = AssignPolicy()
    sla: SlaPolicy = SlaPolicy()
    #: Usage windows of context captured on each side of an incident in
    #: its evidence bundle.
    context_windows: int = 4
    #: When set, :func:`run_box_ops` probes the persistent store for this
    #: ATM configuration's ``box_result`` artifact (a prior ``predict``
    #: run against the same store) and attaches its forecast and resize
    #: allocations to the evidence bundles of incidents inside the
    #: forecast horizon; which artifact it found is part of the
    #: ``ticket_ops`` key.  ``None`` (the default) keeps bundles and keys
    #: exactly as before.
    atm: Optional["AtmConfig"] = None

    def __post_init__(self) -> None:
        if self.max_gap_windows < 0:
            raise ValueError("max_gap_windows must be non-negative")
        if self.context_windows < 0:
            raise ValueError("context_windows must be non-negative")


@dataclass(frozen=True)
class IncidentRow:
    """One routed incident's summary line (the leaderboard/table unit)."""

    box_id: str
    start_window: int
    end_window: int
    n_tickets: int
    n_vms: int
    score: float
    queue: int
    ack_window: int
    resolve_window: int
    ack_breached: bool
    resolve_breached: bool

    def to_dict(self) -> dict:
        return {
            "box_id": self.box_id,
            "start_window": self.start_window,
            "end_window": self.end_window,
            "n_tickets": self.n_tickets,
            "n_vms": self.n_vms,
            "score": self.score,
            "queue": self.queue,
            "ack_window": self.ack_window,
            "resolve_window": self.resolve_window,
            "ack_breached": self.ack_breached,
            "resolve_breached": self.resolve_breached,
        }

    @staticmethod
    def from_dict(raw: dict) -> "IncidentRow":
        return IncidentRow(
            box_id=str(raw["box_id"]),
            start_window=int(raw["start_window"]),
            end_window=int(raw["end_window"]),
            n_tickets=int(raw["n_tickets"]),
            n_vms=int(raw["n_vms"]),
            score=float(raw["score"]),
            queue=int(raw["queue"]),
            ack_window=int(raw["ack_window"]),
            resolve_window=int(raw["resolve_window"]),
            ack_breached=bool(raw["ack_breached"]),
            resolve_breached=bool(raw["resolve_breached"]),
        )


@dataclass(frozen=True)
class BoxOpsResult:
    """One box's complete ops outcome — small, picklable, store-codable.

    Carries counts, digests and evidence *keys* only; the heavy evidence
    payloads live in the artifact store, resolvable through
    :func:`~repro.tickets.ops.evidence.resolve_evidence` from the
    ``(data_fp, config_fp)`` pairs here.
    """

    box_id: str
    n_tickets: int
    n_incidents: int
    n_spatial: int
    queue_counts: Tuple[int, ...]
    ack_breaches: int
    resolve_breaches: int
    breached_incidents: int
    max_open: int
    assignment_digest: str
    #: ``(data_fp, config_fp)`` per incident, rank order.
    evidence_refs: Tuple[Tuple[str, str], ...]
    rows: Tuple[IncidentRow, ...]


def _assignment_digest(rows: Tuple[IncidentRow, ...]) -> str:
    payload = json.dumps([row.to_dict() for row in rows], sort_keys=True)
    return hashlib.blake2b(payload.encode(), digest_size=20).hexdigest()


def _max_open_incidents(routed) -> int:
    """Peak number of concurrently open incidents (start → resolve)."""
    events: List[Tuple[int, int]] = []
    for item in routed:
        events.append((item.incident.start_window, 1))
        events.append((item.clock.resolve_window, -1))
    # Close before open at the same window: resolution frees the slot.
    events.sort(key=lambda e: (e[0], e[1]))
    open_now = peak = 0
    for _, delta in events:
        open_now += delta
        peak = max(peak, open_now)
    return peak


def _box_ops_key(box, config: OpsConfig, atm_key: Optional[ArtifactKey]) -> ArtifactKey:
    """The box's ``ticket_ops`` key; its evidence pack shares the fingerprints."""
    from repro.core.stages import box_fingerprint

    payload = {"ops": config_fingerprint(config), "evidence": EVIDENCE_LAYOUT}
    if config.atm is not None:
        # Which stored ATM outcome the evidence attaches (``atm_key``, or
        # none) changes the bundles, so it is part of the key.
        payload["forecast"] = (
            None if atm_key is None else f"{atm_key.data_fp}:{atm_key.config_fp}"
        )
    return ArtifactKey(
        stage=TICKET_OPS_STAGE,
        data_fp=box_fingerprint(box),
        config_fp=config_fingerprint(payload),
    )


def _probe_forecast_evidence(key: ArtifactKey, store):
    """Fetch one box's stored ATM outcome for evidence attachment.

    Returns ``(predicted, allocations, forecast_fp)`` — the ``(2M, H)``
    forecast matrix and ``(2M,)`` allocation vector stacked CPU-then-RAM
    (the :meth:`BoxTrace.usage_matrix` row order evidence bundles use) —
    or ``(None, None, None)`` when no complete artifact is materialized.
    Ops runs never *compute* forecasts; they only explain incidents with
    whatever a prior ATM run already persisted.
    """
    from repro.trace.model import Resource

    cached = store.get(key, memory=False)
    if cached is None:
        return None, None, None
    result, _events = cached
    if result is None:
        return None, None, None
    resources = (Resource.CPU, Resource.RAM)
    if any(
        r not in result.predicted or r not in result.allocations
        for r in resources
    ):
        return None, None, None
    predicted = np.vstack([np.asarray(result.predicted[r], float) for r in resources])
    allocations = np.concatenate(
        [np.asarray(result.allocations[r], float).ravel() for r in resources]
    )
    return predicted, allocations, f"{key.data_fp}:{key.config_fp}"


def run_box_ops(box, config: OpsConfig, resume: bool = False) -> BoxOpsResult:
    """The per-box unit of work; module-level so pool workers can pickle it.

    ``box`` may be a :class:`repro.store.shards.BoxShardRef` — the shard
    is memory-mapped here in the worker.  With a persistent store the
    complete outcome is materialized as a ``ticket_ops`` artifact and the
    box's incidents' evidence bundles as one
    :class:`~repro.tickets.ops.evidence.EvidencePack` under the same
    fingerprints; ``resume=True`` serves finished boxes from the store
    (counted as ``ops.resume.hits``) with identical digests and evidence
    keys.
    """
    from repro.core.stages import box_result_key
    from repro.store.shards import resolve_box

    box = resolve_box(box)
    store = default_store()
    atm_key = None  # the stored ATM outcome to explain incidents with
    if config.atm is not None and store.persistent:
        atm_key = box_result_key(box, config.atm)
        if not store.path_for(atm_key).exists():
            atm_key = None
    ops_key = _box_ops_key(box, config, atm_key) if store.persistent else None
    cached, save = resume_probe("ops", lambda: ops_key, resume)
    if cached is not None:
        _record_box_metrics(cached)
        return cached

    predicted = allocations = forecast_fp = None
    if atm_key is not None:
        predicted, allocations, forecast_fp = _probe_forecast_evidence(atm_key, store)
    # Windows the stored forecast actually covers: incidents outside the
    # horizon get forecast-free bundles (the forecast says nothing there).
    forecast_lo = forecast_hi = -1
    if predicted is not None:
        forecast_lo = config.atm.training_windows
        forecast_hi = forecast_lo + predicted.shape[1]

    with obs.span("ops.box_run"):
        records = tickets_for_box(box, config.policy)
        incidents = group_incidents(records, max_gap_windows=config.max_gap_windows)
        routed = route_incidents(
            incidents,
            config.policy,
            config.scoring,
            config.assign,
            config.sla,
            n_vms=box.n_vms,
        )

        queue_counts = [0] * config.assign.n_queues
        ack_breaches = resolve_breaches = breached = 0
        rows: List[IncidentRow] = []
        bundles = []
        evidence_refs: List[Tuple[str, str]] = []
        # One config canonicalization per box, not one per incident.
        evidence_config = canonical(config) if routed else None
        # Chronological index per routed incident: evidence keys must not
        # collide for distinct incidents sharing a span.
        chrono_index = {id(incident): i for i, incident in enumerate(incidents)}
        for item in routed:
            queue_counts[item.queue] += 1
            ack_breaches += item.clock.ack_breached
            resolve_breaches += item.clock.resolve_breached
            breached += item.clock.breached
            rows.append(
                IncidentRow(
                    box_id=box.box_id,
                    start_window=item.incident.start_window,
                    end_window=item.incident.end_window,
                    n_tickets=item.incident.n_tickets,
                    n_vms=item.incident.n_vms,
                    score=item.score,
                    queue=item.queue,
                    ack_window=item.clock.ack_window,
                    resolve_window=item.clock.resolve_window,
                    ack_breached=item.clock.ack_breached,
                    resolve_breached=item.clock.resolve_breached,
                )
            )
            in_horizon = (
                predicted is not None
                and item.incident.end_window >= forecast_lo
                and item.incident.start_window < forecast_hi
            )
            if in_horizon:
                obs.inc("ops.evidence.forecasts")
            bundle = build_evidence(
                box,
                item,
                config.policy.threshold_pct,
                config.context_windows,
                predicted=predicted if in_horizon else None,
                allocations=allocations if in_horizon else None,
            )
            ev_key = evidence_key(
                bundle.usage_context,
                evidence_config,
                box.box_id,
                item.incident.start_window,
                item.incident.end_window,
                chrono_index[id(item.incident)],
                forecast_fp=forecast_fp if in_horizon else None,
            )
            bundles.append(bundle)
            evidence_refs.append((ev_key.data_fp, ev_key.config_fp))
        if bundles and ops_key is not None:
            pack_key = ArtifactKey(EVIDENCE_STAGE, ops_key.data_fp, ops_key.config_fp)
            store.put(
                pack_key, EvidencePack(tuple(evidence_refs), tuple(bundles)),
                memory=False,
            )

        result_rows = tuple(rows)
        result = BoxOpsResult(
            box_id=box.box_id,
            n_tickets=len(records),
            n_incidents=len(incidents),
            n_spatial=sum(1 for i in incidents if i.is_spatial),
            queue_counts=tuple(queue_counts),
            ack_breaches=ack_breaches,
            resolve_breaches=resolve_breaches,
            breached_incidents=breached,
            max_open=_max_open_incidents(routed),
            assignment_digest=_assignment_digest(result_rows),
            evidence_refs=tuple(evidence_refs),
            rows=result_rows,
        )
    save(result)
    _record_box_metrics(result)
    return result


def _record_box_metrics(result: BoxOpsResult) -> None:
    """Publish one box's ops telemetry (in the worker; merged by the executor)."""
    obs.inc("ops.boxes")
    obs.inc("ops.tickets", result.n_tickets)
    obs.inc("ops.incidents", result.n_incidents)
    obs.inc("route.assignments", result.n_incidents)
    obs.inc("sla.breaches", result.breached_incidents)
    obs.inc("sla.ack_breaches", result.ack_breaches)
    obs.inc("sla.resolve_breaches", result.resolve_breaches)
    obs.gauge_max("sla.open_incidents", float(result.max_open))


@dataclass
class FleetOpsResult:
    """Streaming-folded fleet aggregate of the operations loop."""

    config: OpsConfig
    boxes: int = 0
    tickets: int = 0
    incidents: int = 0
    spatial_incidents: int = 0
    queue_counts: List[int] = field(default_factory=list)
    queue_breaches: List[int] = field(default_factory=list)
    ack_breaches: int = 0
    resolve_breaches: int = 0
    breached_incidents: int = 0
    max_open: int = 0
    evidence_bundles: int = 0
    #: Fleet-order folds of the per-box digests (bit-identical at any
    #: worker count; the serial-vs-parallel acceptance check).
    assignment_digest: str = ""
    evidence_digest: str = ""
    #: The fleet's worst incidents by score (bounded leaderboard).
    top_incidents: List[IncidentRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.config.assign.n_queues
        if not self.queue_counts:
            self.queue_counts = [0] * n
        if not self.queue_breaches:
            self.queue_breaches = [0] * n

    # ------------------------------------------------------------- ratios
    def tickets_per_incident(self) -> Optional[float]:
        """Dedup ratio, ``None`` on an incident-free fleet (JSON-safe)."""
        return self.tickets / self.incidents if self.incidents else None

    def spatial_incident_share(self) -> Optional[float]:
        return self.spatial_incidents / self.incidents if self.incidents else None

    # --------------------------------------------------------------- fold
    def fold(self, result: BoxOpsResult) -> None:
        """Fold one box's outcome in (fleet box order)."""
        self.boxes += 1
        self.tickets += result.n_tickets
        self.incidents += result.n_incidents
        self.spatial_incidents += result.n_spatial
        for queue, count in enumerate(result.queue_counts):
            self.queue_counts[queue] += count
        for row in result.rows:
            if row.ack_breached or row.resolve_breached:
                self.queue_breaches[row.queue] += 1
        self.ack_breaches += result.ack_breaches
        self.resolve_breaches += result.resolve_breaches
        self.breached_incidents += result.breached_incidents
        self.max_open = max(self.max_open, result.max_open)
        self.evidence_bundles += len(result.evidence_refs)
        self._fold_digests(result)
        self._fold_top(result.rows)

    def _fold_digests(self, result: BoxOpsResult) -> None:
        assignment = hashlib.blake2b(digest_size=20)
        assignment.update(self.assignment_digest.encode())
        assignment.update(result.assignment_digest.encode())
        self.assignment_digest = assignment.hexdigest()
        evidence = hashlib.blake2b(digest_size=20)
        evidence.update(self.evidence_digest.encode())
        for data_fp, config_fp in result.evidence_refs:
            evidence.update(data_fp.encode())
            evidence.update(config_fp.encode())
        self.evidence_digest = evidence.hexdigest()

    def _fold_top(self, rows: Tuple[IncidentRow, ...]) -> None:
        merged = self.top_incidents + list(rows)
        merged.sort(
            key=lambda row: (-row.score, row.box_id, row.start_window, row.queue)
        )
        self.top_incidents = merged[:TOP_INCIDENTS_KEPT]


def run_fleet_ops(
    fleet: Union[FleetTrace, "ShardedFleet"],
    config: Optional[OpsConfig] = None,
    jobs: Optional[int] = None,
    resume: bool = False,
) -> FleetOpsResult:
    """Run the monitor → incident → route → resolve loop over a fleet.

    Every box is eligible (the loop needs no training windows); a fleet
    without boxes raises :class:`ValueError`.  Results are folded in fleet
    order as chunks land, so serial, parallel and sharded runs produce
    identical aggregates and digests.
    """
    cfg = config or OpsConfig()
    out = FleetOpsResult(config=cfg)
    run_fleet(
        run_box_ops, fleet_items(fleet), cfg, resume,
        fold=out.fold, span="ops.fleet", fleet=fleet, jobs=jobs,
    )
    return out


# ----------------------------------------------------------------- codec
def _encode_box_ops(result: BoxOpsResult):
    meta = {
        "box_id": result.box_id,
        "n_tickets": result.n_tickets,
        "n_incidents": result.n_incidents,
        "n_spatial": result.n_spatial,
        "queue_counts": list(result.queue_counts),
        "ack_breaches": result.ack_breaches,
        "resolve_breaches": result.resolve_breaches,
        "breached_incidents": result.breached_incidents,
        "max_open": result.max_open,
        "assignment_digest": result.assignment_digest,
        "evidence_refs": [list(pair) for pair in result.evidence_refs],
        "rows": [row.to_dict() for row in result.rows],
    }
    return {}, meta


def _decode_box_ops(arrays, meta) -> BoxOpsResult:
    return BoxOpsResult(
        box_id=str(meta["box_id"]),
        n_tickets=int(meta["n_tickets"]),
        n_incidents=int(meta["n_incidents"]),
        n_spatial=int(meta["n_spatial"]),
        queue_counts=tuple(int(c) for c in meta["queue_counts"]),
        ack_breaches=int(meta["ack_breaches"]),
        resolve_breaches=int(meta["resolve_breaches"]),
        breached_incidents=int(meta["breached_incidents"]),
        max_open=int(meta["max_open"]),
        assignment_digest=str(meta["assignment_digest"]),
        evidence_refs=tuple(
            (str(pair[0]), str(pair[1])) for pair in meta["evidence_refs"]
        ),
        rows=tuple(IncidentRow.from_dict(raw) for raw in meta["rows"]),
    )


register_codec(TICKET_OPS_STAGE, _encode_box_ops, _decode_box_ops)
