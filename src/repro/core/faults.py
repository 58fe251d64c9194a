"""Seeded fault injection for the fleet pipeline (testing the ladder).

Graceful degradation is only trustworthy if it is exercised: this harness
injects the production failure modes the degradation ladders must
survive — fit exceptions, NaN-poisoned training slices and per-box
errors — deterministically, so CI can assert that a faulted fleet run
completes with the degraded boxes reported and the healthy boxes
untouched.

Activation is env-gated (``REPRO_FAULTS`` holds the spec, off by default)
or programmatic (:func:`fault_plan` for tests).  Every injection decision
is a pure hash of ``(seed, kind, key)`` — no shared RNG stream is consumed
— which gives two properties the acceptance tests rely on:

* **Determinism across processes.**  Worker processes make the same
  decisions as a serial run, for any worker count.
* **Isolation.**  Whether box A is faulted cannot perturb box B's results;
  healthy boxes are bit-identical to a no-faults run.

Spec format (``;``-separated rules, ``,``-separated options)::

    REPRO_FAULTS="fit_error:p=1.0;nan_train:p=0.3,fraction=0.2"
    REPRO_FAULTS_SEED=7

Fault kinds and the pipeline hook that honours each:

``fit_error``
    Raise :class:`InjectedFault` from the *primary* model fit
    (exercises the seasonal-mean fallback rung).
``fallback_error``
    Raise from the fallback fit (exercises the hold rung).
``nan_train``
    Poison a deterministic fraction of the training slice with NaN
    (the primary fit rejects non-finite history; the fallback sanitizes).
``box_error``
    Raise from the fleet engine's per-box contract
    (:func:`repro.core.executor.run_fleet`), outside any ladder, in all
    four fleet drivers (exercises the partial-results error report).

Every rule is sticky: a box it fires for fails the same way on every
call, which is why the fleet executor retries nothing.  A spec naming an
unknown kind or option raises :class:`ValueError` rather than being
ignored.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.core import runtime

__all__ = [
    "FAULTS_ENV_VAR",
    "FAULTS_SEED_ENV_VAR",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "fault_plan",
    "inject_fault",
    "parse_fault_spec",
    "poison_training",
    "set_fault_plan",
]

FAULTS_ENV_VAR = runtime.FAULTS_ENV_VAR
FAULTS_SEED_ENV_VAR = runtime.FAULTS_SEED_ENV_VAR

FAULT_KINDS = ("fit_error", "fallback_error", "nan_train", "box_error")


class InjectedFault(RuntimeError):
    """Raised by the harness at an injection point."""


@dataclass(frozen=True)
class FaultRule:
    """One fault kind with its firing probability and options."""

    kind: str
    probability: float
    fraction: float = 0.1   # "nan_train" only: fraction of samples poisoned

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")


def _hash_unit(seed: int, kind: str, key: str) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, kind, key)."""
    digest = hashlib.sha256(f"{seed}:{kind}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of fault rules plus the decision seed."""

    rules: Tuple[FaultRule, ...]
    seed: int = 0

    def rule(self, kind: str) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.kind == kind:
                return rule
        return None

    def should_inject(self, kind: str, key: str) -> bool:
        """Pure decision: does fault ``kind`` fire for ``key``?"""
        rule = self.rule(kind)
        if rule is None or rule.probability <= 0.0:
            return False
        return _hash_unit(self.seed, kind, key) < rule.probability


def parse_fault_spec(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    rules = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, raw_opts = chunk.partition(":")
        kind = kind.strip()
        options: Dict[str, object] = {}
        for opt in raw_opts.split(","):
            opt = opt.strip()
            if not opt:
                continue
            name, sep, value = opt.partition("=")
            if not sep:
                raise ValueError(
                    f"bad fault option {opt!r} in {chunk!r}; expected name=value"
                )
            name = name.strip()
            if name == "p":
                options["probability"] = float(value)
            elif name == "fraction":
                options[name] = float(value)
            else:
                raise ValueError(f"unknown fault option {name!r} in {chunk!r}")
        options.setdefault("probability", 1.0)
        rules.append(FaultRule(kind=kind, **options))  # type: ignore[arg-type]
    return FaultPlan(rules=tuple(rules), seed=seed)


# The programmatic override; None means "consult the environment".
_ACTIVE: Optional[FaultPlan] = None
# Cache of the parsed environment spec, keyed by the raw (spec, seed) strings.
_ENV_CACHE: Tuple[Optional[Tuple[str, str]], Optional[FaultPlan]] = (None, None)


def set_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Install (or with ``None`` clear) a programmatic fault plan."""
    global _ACTIVE
    _ACTIVE = plan


@contextmanager
def fault_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Temporarily install a fault plan (test helper)."""
    previous = _ACTIVE
    set_fault_plan(plan)
    try:
        yield plan
    finally:
        set_fault_plan(previous)


def active_plan() -> Optional[FaultPlan]:
    """The plan in force: programmatic override, else the environment spec."""
    if _ACTIVE is not None:
        return _ACTIVE
    spec = runtime.faults_spec()
    if not spec:
        return None
    seed = runtime.faults_seed()
    global _ENV_CACHE
    cache_key = (spec, str(seed))
    if _ENV_CACHE[0] == cache_key:
        return _ENV_CACHE[1]
    plan = parse_fault_spec(spec, seed=seed)
    _ENV_CACHE = (cache_key, plan)
    return plan


# ------------------------------------------------------------ injection API


def inject_fault(kind: str, key: str) -> None:
    """Raise :class:`InjectedFault` when the active plan fires for ``key``."""
    plan = active_plan()
    if plan is not None and plan.should_inject(kind, key):
        raise InjectedFault(f"injected {kind} for {key!r}")


def poison_training(key: str, matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` with a deterministic NaN poisoning when firing.

    The input is never modified; when the ``nan_train`` rule fires a copy
    with ``fraction`` of its entries set to NaN is returned.  Poisoned
    positions derive from the same (seed, kind, key) hash, so repeated
    calls (e.g. the fallback rung re-reading the slice) see the identical
    corruption.
    """
    plan = active_plan()
    if plan is None or not plan.should_inject("nan_train", key):
        return matrix
    rule = plan.rule("nan_train")
    assert rule is not None
    poisoned = np.array(matrix, dtype=float)
    n_poison = max(1, int(round(rule.fraction * poisoned.size)))
    digest = hashlib.sha256(f"{plan.seed}:nan_train:pos:{key}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    flat = rng.choice(poisoned.size, size=min(n_poison, poisoned.size), replace=False)
    poisoned.ravel()[flat] = np.nan
    return poisoned
