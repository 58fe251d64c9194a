"""Per-incident evidence bundles, stored as one evidence pack per box.

An operator opening an incident needs to see *why it fired*: the ticket
records, the usage context around the incident's windows, the policy that
tripped, and — when an ATM run produced them — the forecast and resize
decisions that were (or were not) in force.  An :class:`EvidenceBundle`
packages exactly that.

Storage follows a truth/render split: the box's usage is the truth and a
bundle is a view of it.  :func:`~repro.tickets.ops.pipeline.run_box_ops`
writes one :class:`EvidencePack` per box with incidents, under the box's
ops key, and the pack stores

* the box's usage once, over the union of its incidents' context windows,
* each incident's records, clock, rank, score, queue, threshold and
  context span, with its evidence ref,
* the forecast and allocations once, flagging the incidents they explain.

Every bundle keeps its own content address (:func:`evidence_key`):

* the **data fingerprint** hashes the usage context slice the bundle
  explains (a poisoned or different trace can never serve the bundle),
* the **config fingerprint** canonicalizes the ops configuration plus the
  incident's identity (box, span, chronological index),

and :func:`resolve_evidence` serves the bundle from that
``(data_fp, config_fp)`` pair, bit-equal to what :func:`build_evidence`
built, through an index over the pack headers built lazily on first use.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.store import (
    ArtifactKey,
    ArtifactStore,
    config_fingerprint,
    data_fingerprint,
    default_store,
    register_codec,
)
from repro.tickets.monitor import TicketRecord
from repro.tickets.ops.route import RoutedIncident, SlaClock
from repro.trace.model import BoxTrace, Resource

__all__ = [
    "EVIDENCE_LAYOUT",
    "EVIDENCE_STAGE",
    "EvidenceBundle",
    "EvidencePack",
    "build_evidence",
    "evidence_key",
    "resolve_evidence",
]

#: Artifact-store stage name of evidence packs.
EVIDENCE_STAGE = "evidence"

#: Version of the stored evidence layout.  It is folded into the
#: ``ticket_ops`` and pack keys, so a stored outcome whose refs point at
#: another layout misses under ``--resume`` and is recomputed.
EVIDENCE_LAYOUT = "pack/v1"


@dataclass(frozen=True)
class EvidenceBundle:
    """Everything that explains one routed incident.

    ``usage_context`` is the box's full ``(2M, W)`` usage slice over
    ``[context_lo, context_hi)`` — the incident's windows plus the
    surrounding context — in :meth:`BoxTrace.usage_matrix` row order.
    ``predicted`` / ``allocations`` are optional: populated when the ops
    run rides on an ATM run whose forecast and resize decisions explain
    why the tickets fired anyway (or were averted), absent in pure
    monitoring runs.
    """

    box_id: str
    start_window: int
    end_window: int
    rank: int
    score: float
    queue: int
    clock: SlaClock
    threshold_pct: float
    records: Tuple[TicketRecord, ...]
    context_lo: int
    context_hi: int
    usage_context: np.ndarray
    predicted: Optional[np.ndarray] = None
    allocations: Optional[np.ndarray] = None

    @property
    def n_tickets(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class EvidencePack:
    """One box's evidence bundles and their ``(data_fp, config_fp)`` refs.

    Bundles are in rank order, one ref each; the store keeps the pack as
    one artifact (see the codec below).  All bundles come from one box,
    and those carrying a forecast carry the same one.
    """

    refs: Tuple[Tuple[str, str], ...]
    bundles: Tuple[EvidenceBundle, ...]


def evidence_key(usage_context: np.ndarray, config, box_id: str,
                 start_window: int, end_window: int, index: int,
                 forecast_fp: Optional[str] = None) -> ArtifactKey:
    """Content address of one incident's evidence bundle.

    ``config`` is the governing :class:`~repro.tickets.ops.pipeline.OpsConfig`,
    or its :func:`repro.store.canonical` form when one config keys many
    bundles (its JSON text is then spliced in, not serialized again); ``index`` the incident's chronological index on its box
    (distinct incidents with identical spans — different resources, say —
    must not collide).  ``forecast_fp`` identifies the ATM box-result
    artifact whose forecast/allocations ride in the bundle; folded in only
    when present, so forecast-free bundles keep their historical keys.
    """
    payload = {
        "config": config,
        "box_id": box_id,
        "span": [start_window, end_window],
        "index": index,
    }
    if forecast_fp is not None:
        payload["forecast_fp"] = forecast_fp
    return ArtifactKey(
        stage=EVIDENCE_STAGE,
        data_fp=data_fingerprint(usage_context),
        config_fp=config_fingerprint(payload),
    )


def build_evidence(
    box: BoxTrace,
    routed: RoutedIncident,
    threshold_pct: float,
    context_windows: int,
    predicted: Optional[np.ndarray] = None,
    allocations: Optional[np.ndarray] = None,
) -> EvidenceBundle:
    """Assemble the evidence bundle for one routed incident on ``box``."""
    incident = routed.incident
    lo = max(0, incident.start_window - context_windows)
    hi = min(box.n_windows, incident.end_window + context_windows + 1)
    return EvidenceBundle(
        box_id=box.box_id,
        start_window=incident.start_window,
        end_window=incident.end_window,
        rank=routed.rank,
        score=routed.score,
        queue=routed.queue,
        clock=routed.clock,
        threshold_pct=threshold_pct,
        records=incident.tickets,
        context_lo=lo,
        context_hi=hi,
        usage_context=np.ascontiguousarray(box.usage[:, lo:hi], dtype=float),
        predicted=None if predicted is None else np.asarray(predicted, dtype=float),
        allocations=(
            None if allocations is None else np.asarray(allocations, dtype=float)
        ),
    )


# ------------------------------------------------------------- resolving
class _PackIndex:
    """Evidence ref → ``(pack key, row)`` over the pack headers on disk."""

    def __init__(self) -> None:
        self.rows: Dict[Tuple[str, str], Tuple[ArtifactKey, int]] = {}
        self.seen: Set[Path] = set()

    def refresh(self, store: ArtifactStore) -> bool:
        """Index packs written since the last scan; whether any were."""
        found = False
        for path, key, meta in store.headers(EVIDENCE_STAGE, skip=self.seen):
            self.seen.add(path)
            if not isinstance(meta, dict) or meta.get("layout") != EVIDENCE_LAYOUT:
                continue  # another layout's file: never resolvable
            for row, (data_fp, config_fp) in enumerate(meta["refs"]):
                self.rows[(data_fp, config_fp)] = (key, row)
            found = True
        return found


_INDEXES: "weakref.WeakKeyDictionary[ArtifactStore, _PackIndex]" = (
    weakref.WeakKeyDictionary()
)


def resolve_evidence(
    data_fp: str, config_fp: str, store: Optional[ArtifactStore] = None
) -> Optional[EvidenceBundle]:
    """The evidence bundle stored under ``(data_fp, config_fp)``, or ``None``.

    The operator's cold path: the first call (and any miss) scans the
    headers of packs not yet indexed in ``store`` (default: the
    configured store); the ops loop itself writes no index.  A store
    without a disk tier holds no evidence.
    """
    store = store or default_store()
    if not store.persistent:
        return None
    index = _INDEXES.setdefault(store, _PackIndex())
    while True:
        hit = index.rows.get((data_fp, config_fp))
        if hit is not None:
            pack = store.get(hit[0])
            if pack is not None:
                return pack.bundles[hit[1]]
        if not index.refresh(store):
            return None


# ----------------------------------------------------------------- codec
#: Ticket-record resource codes: the index in ``Resource``'s member order
#: (a reorder changes the layout, so it needs a new ``EVIDENCE_LAYOUT``).
_RESOURCES = tuple(Resource)
_RESOURCE_CODES = {resource: code for code, resource in enumerate(_RESOURCES)}


#: ``SlaClock`` field names, in declaration order: a clock's fields are
#: ints, so reading them equals ``dataclasses.asdict``'s deep copy.
_CLOCK_FIELDS = tuple(f.name for f in fields(SlaClock))


def _encode_records(bundles, arrays: dict) -> list:
    """Every bundle's ticket records as columns in ``arrays``; returns the vm ids.

    A record's box is its bundle's, so it is not stored per record.
    """
    records = [record for bundle in bundles for record in bundle.records]
    if any(r.box_id != bundle.box_id for bundle in bundles for r in bundle.records):
        raise ValueError("an evidence bundle holds another box's ticket records")
    vm_ids = sorted({record.vm_id for record in records})
    vm_codes = {vm_id: code for code, vm_id in enumerate(vm_ids)}
    arrays["record_vm"] = np.array([vm_codes[r.vm_id] for r in records], dtype=np.int64)
    arrays["record_resource"] = np.array(
        [_RESOURCE_CODES[r.resource] for r in records], dtype=np.int64
    )
    arrays["record_window"] = np.array([r.window for r in records], dtype=np.int64)
    arrays["record_usage"] = np.array([r.usage_pct for r in records], dtype=float)
    return vm_ids


def _attach_forecast(arrays: dict, bundle: EvidenceBundle) -> bool:
    """Store ``bundle``'s forecast once per pack; whether it has one."""
    if bundle.predicted is None and bundle.allocations is None:
        return False
    if "predicted" not in arrays:
        arrays["predicted"] = np.asarray(bundle.predicted, dtype=float)
        arrays["allocations"] = np.asarray(bundle.allocations, dtype=float)
    elif not (
        np.array_equal(arrays["predicted"], bundle.predicted)
        and np.array_equal(arrays["allocations"], bundle.allocations)
    ):
        raise ValueError("an evidence pack carries one forecast")
    return True


def _encode_pack(pack: EvidencePack):
    bundles = pack.bundles
    covered = np.zeros(max(b.context_hi for b in bundles), dtype=bool)
    for bundle in bundles:
        covered[bundle.context_lo:bundle.context_hi] = True
    windows = np.flatnonzero(covered)
    usage = np.empty((bundles[0].usage_context.shape[0], windows.size))
    arrays = {"windows": windows, "usage": usage}
    rows = []
    for bundle in bundles:
        at = int(np.searchsorted(windows, bundle.context_lo))
        usage[:, at:at + bundle.context_hi - bundle.context_lo] = bundle.usage_context
        rows.append({
            "box_id": bundle.box_id,
            "start_window": int(bundle.start_window),
            "end_window": int(bundle.end_window),
            "rank": int(bundle.rank),
            "score": float(bundle.score),
            "queue": int(bundle.queue),
            "clock": {name: getattr(bundle.clock, name) for name in _CLOCK_FIELDS},
            "threshold_pct": float(bundle.threshold_pct),
            "n_records": len(bundle.records),
            "context_lo": int(bundle.context_lo),
            "context_hi": int(bundle.context_hi),
            "forecast": _attach_forecast(arrays, bundle),
        })
    meta = {
        "layout": EVIDENCE_LAYOUT,
        "refs": [list(ref) for ref in pack.refs],
        "vm_ids": _encode_records(bundles, arrays),
        "bundles": rows,
    }
    return arrays, meta


def _decode_bundle(arrays, row: dict, records) -> EvidenceBundle:
    lo, hi = int(row["context_lo"]), int(row["context_hi"])
    at = int(np.searchsorted(arrays["windows"], lo))
    forecast = bool(row["forecast"])
    box_id = str(row["box_id"])
    return EvidenceBundle(
        box_id=box_id,
        start_window=int(row["start_window"]),
        end_window=int(row["end_window"]),
        rank=int(row["rank"]),
        score=float(row["score"]),
        queue=int(row["queue"]),
        clock=SlaClock(**row["clock"]),
        threshold_pct=float(row["threshold_pct"]),
        records=tuple(
            TicketRecord(box_id, vm_id, resource, window, usage_pct)
            for vm_id, resource, window, usage_pct in itertools.islice(
                records, int(row["n_records"])
            )
        ),
        context_lo=lo,
        context_hi=hi,
        usage_context=np.array(arrays["usage"][:, at:at + hi - lo], dtype=float),
        predicted=np.array(arrays["predicted"], dtype=float) if forecast else None,
        allocations=np.array(arrays["allocations"], dtype=float) if forecast else None,
    )


def _decode_pack(arrays, meta) -> EvidencePack:
    vm_ids = [str(vm_id) for vm_id in meta["vm_ids"]]
    records = zip(
        [vm_ids[code] for code in arrays["record_vm"].tolist()],
        [_RESOURCES[code] for code in arrays["record_resource"].tolist()],
        arrays["record_window"].tolist(),
        arrays["record_usage"].tolist(),
    )
    return EvidencePack(
        refs=tuple((str(ref[0]), str(ref[1])) for ref in meta["refs"]),
        bundles=tuple(_decode_bundle(arrays, row, records) for row in meta["bundles"]),
    )


register_codec(EVIDENCE_STAGE, _encode_pack, _decode_pack)
