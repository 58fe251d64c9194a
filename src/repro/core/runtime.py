"""Consolidated runtime settings — the single home of every ``REPRO_*`` gate.

Historically each subsystem read its own environment variable with its own
parsing and its own notion of falsiness.  This module replaces those
ad-hoc ``os.environ`` reads with one parse-and-validate path; the owning
modules keep their public gate functions but delegate here.

==========================  =========  =========================================
Variable                    Default    Meaning
==========================  =========  =========================================
``REPRO_JOBS``              ``1``      Worker processes for fleet fan-out
                                       (``<= 0`` = all cores).
``REPRO_SIGNATURE_CACHE``   on         In-process memory tier of the signature
                                       search (``0`` disables memoization).
``REPRO_METRICS``           on         :mod:`repro.obs` counters/span timers
                                       (``0`` turns recording into no-ops).
``REPRO_FAULTS``            unset      Fault-injection spec
                                       (see :mod:`repro.core.faults`).
``REPRO_FAULTS_SEED``       ``0``      Seed of the fault plan's hash decisions.
``REPRO_STORE``             unset      Directory of the persistent artifact
                                       store's disk tier
                                       (see :mod:`repro.store`).
``REPRO_WARM_REFIT``        on         Warm-started temporal refits in the
                                       online controller (``0`` forces cold
                                       per-step fits, the bit-identical
                                       legacy path).
``REPRO_ROUTE_QUEUES``      ``2``      Responder queues the ticket-operations
                                       loop routes incidents into (CLI
                                       ``tickets --queues`` overrides).
``REPRO_SCENARIO``          unset      Default trace scenario (a name from
                                       :data:`repro.trace.NAMED_SCENARIOS`
                                       or a JSON spec path); CLI
                                       ``--scenario`` overrides.  Unset means
                                       the calibrated ``paper-fig2`` profile.
``REPRO_SLA_ACK_WINDOWS``   ``1``      Ack deadline of the incident SLA clock,
                                       in ticketing windows.
``REPRO_SLA_RESOLVE_WINDOWS`` ``4``    Resolve deadline of the incident SLA
                                       clock, in ticketing windows.
==========================  =========  =========================================

Boolean gates share one falsy set: ``0``, ``false``, ``off``, ``no``
(case-insensitive); anything else — including unset — means the default.
Reads are live (no import-time snapshot), so tests can monkeypatch the
environment per case.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = [
    "FAULTS_ENV_VAR",
    "FAULTS_SEED_ENV_VAR",
    "JOBS_ENV_VAR",
    "METRICS_ENV_VAR",
    "ROUTE_QUEUES_ENV_VAR",
    "SCENARIO_ENV_VAR",
    "SIGNATURE_CACHE_ENV_VAR",
    "SLA_ACK_ENV_VAR",
    "SLA_RESOLVE_ENV_VAR",
    "STORE_ENV_VAR",
    "WARM_REFIT_ENV_VAR",
    "env_jobs",
    "faults_seed",
    "faults_spec",
    "metrics_enabled",
    "route_queues",
    "scenario_name",
    "signature_cache_enabled",
    "sla_ack_windows",
    "sla_resolve_windows",
    "store_dir",
    "warm_refit_enabled",
]

JOBS_ENV_VAR = "REPRO_JOBS"
SIGNATURE_CACHE_ENV_VAR = "REPRO_SIGNATURE_CACHE"
METRICS_ENV_VAR = "REPRO_METRICS"
FAULTS_ENV_VAR = "REPRO_FAULTS"
FAULTS_SEED_ENV_VAR = "REPRO_FAULTS_SEED"
STORE_ENV_VAR = "REPRO_STORE"
WARM_REFIT_ENV_VAR = "REPRO_WARM_REFIT"
ROUTE_QUEUES_ENV_VAR = "REPRO_ROUTE_QUEUES"
SCENARIO_ENV_VAR = "REPRO_SCENARIO"
SLA_ACK_ENV_VAR = "REPRO_SLA_ACK_WINDOWS"
SLA_RESOLVE_ENV_VAR = "REPRO_SLA_RESOLVE_WINDOWS"

#: The one spelling of "disabled" every boolean gate accepts.
_FALSY = frozenset({"0", "false", "off", "no"})


def _flag(name: str, default: bool = True) -> bool:
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return default
    return raw not in _FALSY


def _int_or_error(name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def env_jobs() -> Optional[int]:
    """``REPRO_JOBS`` as an int, ``None`` when unset; invalid values raise."""
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return None
    return _int_or_error(JOBS_ENV_VAR, raw)


def signature_cache_enabled() -> bool:
    """Whether the signature search's memory tier is active (default on)."""
    return _flag(SIGNATURE_CACHE_ENV_VAR)


def metrics_enabled() -> bool:
    """Whether :mod:`repro.obs` recording is active (default on)."""
    return _flag(METRICS_ENV_VAR)


def faults_spec() -> str:
    """The raw ``REPRO_FAULTS`` spec string ("" when unset)."""
    return os.environ.get(FAULTS_ENV_VAR, "").strip()


def faults_seed() -> int:
    """``REPRO_FAULTS_SEED`` as an int (default 0); invalid values raise."""
    raw = os.environ.get(FAULTS_SEED_ENV_VAR, "0").strip() or "0"
    return _int_or_error(FAULTS_SEED_ENV_VAR, raw)


def store_dir() -> Optional[str]:
    """Directory of the artifact store's disk tier; ``None`` when unset."""
    raw = os.environ.get(STORE_ENV_VAR, "").strip()
    return raw or None


def warm_refit_enabled() -> bool:
    """Whether online temporal refits warm-start from stored parameters
    (default on)."""
    return _flag(WARM_REFIT_ENV_VAR)


def _int_env(name: str, default: int, minimum: int) -> int:
    raw = os.environ.get(name, "").strip()
    value = _int_or_error(name, raw) if raw else default
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def scenario_name() -> Optional[str]:
    """Default trace scenario (``REPRO_SCENARIO``); ``None`` when unset.

    Resolution to a :class:`repro.trace.ScenarioSpec` happens in
    :func:`repro.trace.resolve_scenario`; this accessor only owns the
    environment read.
    """
    raw = os.environ.get(SCENARIO_ENV_VAR, "").strip()
    return raw or None


def route_queues() -> int:
    """Default responder-queue count of the ops loop (``REPRO_ROUTE_QUEUES``)."""
    return _int_env(ROUTE_QUEUES_ENV_VAR, default=2, minimum=1)


def sla_ack_windows() -> int:
    """Default ack deadline in ticketing windows (``REPRO_SLA_ACK_WINDOWS``)."""
    return _int_env(SLA_ACK_ENV_VAR, default=1, minimum=0)


def sla_resolve_windows() -> int:
    """Default resolve deadline in windows (``REPRO_SLA_RESOLVE_WINDOWS``)."""
    return _int_env(SLA_RESOLVE_ENV_VAR, default=4, minimum=0)

