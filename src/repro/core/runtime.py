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
``REPRO_METRICS``           on         :mod:`repro.obs` counters/span timers
                                       (``0`` turns recording into no-ops).
``REPRO_FAULTS``            unset      Fault-injection spec
                                       (see :mod:`repro.core.faults`).
``REPRO_FAULTS_SEED``       ``0``      Seed of the fault plan's hash decisions.
``REPRO_STORE``             unset      Directory of the persistent artifact
                                       store's disk tier
                                       (see :mod:`repro.store`).
``REPRO_FORBID_FLEET_``     off        Worker guard: fleet generation and,
``GENERATION``                         once shards are open, fleet
                                       materialization raise
                                       (see :mod:`repro.trace.model`).
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
    "FORBID_GENERATION_ENV_VAR",
    "JOBS_ENV_VAR",
    "METRICS_ENV_VAR",
    "STORE_ENV_VAR",
    "env_jobs",
    "faults_seed",
    "faults_spec",
    "fleet_generation_forbidden",
    "metrics_enabled",
    "store_dir",
]

JOBS_ENV_VAR = "REPRO_JOBS"
METRICS_ENV_VAR = "REPRO_METRICS"
FAULTS_ENV_VAR = "REPRO_FAULTS"
FAULTS_SEED_ENV_VAR = "REPRO_FAULTS_SEED"
STORE_ENV_VAR = "REPRO_STORE"
FORBID_GENERATION_ENV_VAR = "REPRO_FORBID_FLEET_GENERATION"

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


def fleet_generation_forbidden() -> bool:
    """Whether the worker guard ``REPRO_FORBID_FLEET_GENERATION`` is on (default off)."""
    return _flag(FORBID_GENERATION_ENV_VAR, default=False)
