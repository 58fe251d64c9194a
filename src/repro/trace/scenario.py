"""Scenario diversity engine: the truth/render split of the trace layer.

The calibrated generator (:mod:`repro.trace.generator`) answers one
question — "does ATM work on the fleet it was tuned for?" — because every
knob is hard-wired to the paper's Fig. 2/3 profile.  This module separates
what a workload *is* (truth) from how it is *statistically expressed*
(render), so the same pipeline can be stressed off the calibrated happy
path:

* **Truth** — a tuple of :class:`CohortSpec` entries assigning each box
  cohort a workload *archetype* (``web-diurnal``, ``batch``, ``spiky``,
  ``ramp``, ``weekend-heavy``, or the calibrated ``paper-fig2`` profile),
  optionally with a mid-trace :class:`RegimeShift` where the cohort
  switches archetype at a seeded window — the stress case for the online
  controller's drift gate.
* **Render** — a :class:`RenderSpec` scaling the statistical knobs the
  generator hard-wires: noise level, factor couplings, capacity
  heterogeneity, and the culprit-VM share.

A :class:`ScenarioSpec` is declarative (plain frozen dataclasses, JSON
round-trippable), seeded (every draw still flows through the fleet seed),
and fingerprinted (:meth:`ScenarioSpec.fingerprint`, the same BLAKE2b
canonical hash the artifact store uses) — the fingerprint rides on every
rendered box/fleet as ``scenario_fp`` and is folded into
:func:`repro.core.stages.box_fingerprint`, so two scenarios sharing a
fleet seed can never share store artifacts, shard manifests, or
``--resume`` state.

Rendering is *compositional*, not a fork of the generator: an archetype is
a set of value-knob overrides on :class:`FleetConfig` plus a multiplicative
per-VM usage envelope composed from :mod:`repro.trace.workloads`
primitives.  Overrides are restricted to knobs that do not perturb the
generator's RNG stream before capacity assignment (enforced by
:func:`_check_overrides`), which is what makes regime shifts splice
cleanly: the pre- and post-shift archetypes produce the *same* VMs with
the same capacities and culprit identities, and only the usage statistics
change at the switch window.

The default ``paper-fig2`` scenario is the identity: it renders the
calibrated generator's boxes unchanged, bit for bit (pinned by
``tests/trace/test_scenario.py``), with ``scenario_fp`` left ``None`` so
pre-scenario artifact keys keep resolving.  Every scenario renders through
the generator's block renderer (:func:`render_boxes`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.store.fingerprint import config_fingerprint
from repro.trace.generator import (
    FleetConfig,
    check_generation_allowed,
    generate_box_groups,
)
from repro.trace.model import BoxTrace, FleetTrace, Resource
from repro.trace.workloads import bursts, daily_spikes, diurnal, linear_ramp, weekly

__all__ = [
    "ARCHETYPES",
    "NAMED_SCENARIOS",
    "PAPER_ARCHETYPE",
    "CohortSpec",
    "RegimeShift",
    "RenderSpec",
    "ScenarioSpec",
    "render_box",
    "render_boxes",
    "render_fleet",
    "resolve_scenario",
]

#: The calibrated legacy profile — the identity archetype.
PAPER_ARCHETYPE = "paper-fig2"

# Seed-sequence salts: envelopes and switch windows draw from their own
# streams so the core generator's draws stay byte-identical under a spec.
_ENVELOPE_SALT = 0x5CE9A210
_SHIFT_SALT = 0x5CE9A211

#: FleetConfig fields an archetype override must never touch: they change
#: either the fleet geometry or the number/order of RNG draws *before*
#: capacity assignment, which would break the regime-shift splice (the
#: pre- and post-shift configs must produce identical VM identities).
_PROTECTED_FIELDS = frozenset(
    {
        "n_boxes",
        "mean_vms_per_box",
        "min_vms_per_box",
        "max_vms_per_box",
        "days",
        "windows_per_day",
        "interval_minutes",
        "seed",
        "cpu_hot_box_fraction",
        "ram_hot_box_fraction",
        "cpu_second_hot_probability",
        "ram_second_hot_probability",
        "replica_probability",
    }
)


# ------------------------------------------------------------------ render
@dataclass(frozen=True)
class RenderSpec:
    """How a scenario's truth is statistically expressed.

    Each knob is a multiplicative scale on the corresponding hard-wired
    :class:`FleetConfig` group; ``1.0`` everywhere is the identity render
    (the calibrated profile's statistics).
    """

    #: Scales the idiosyncratic noise (cool-VM log-normal tails, loading
    #: jitter): < 1 = cleaner series, > 1 = noisier.
    noise_scale: float = 1.0
    #: Scales the factor-model loadings (shared/group/pair couplings):
    #: < 1 decorrelates the fleet, > 1 tightens it.
    coupling_scale: float = 1.0
    #: Scales the spread of the box headroom range around its midpoint:
    #: 0 = homogeneous capacity, > 1 = more heterogeneous.
    capacity_spread: float = 1.0
    #: Scales the fraction of boxes hosting culprit VMs.
    culprit_share_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "noise_scale",
            "coupling_scale",
            "capacity_spread",
            "culprit_share_scale",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 10.0:
                raise ValueError(f"{name} must be in [0, 10], got {value}")

    @property
    def is_identity(self) -> bool:
        return (
            self.noise_scale == 1.0
            and self.coupling_scale == 1.0
            and self.capacity_spread == 1.0
            and self.culprit_share_scale == 1.0
        )

    def to_dict(self) -> dict:
        return {
            "noise_scale": self.noise_scale,
            "coupling_scale": self.coupling_scale,
            "capacity_spread": self.capacity_spread,
            "culprit_share_scale": self.culprit_share_scale,
        }

    @staticmethod
    def from_dict(raw: dict) -> "RenderSpec":
        return RenderSpec(
            noise_scale=float(raw.get("noise_scale", 1.0)),
            coupling_scale=float(raw.get("coupling_scale", 1.0)),
            capacity_spread=float(raw.get("capacity_spread", 1.0)),
            culprit_share_scale=float(raw.get("culprit_share_scale", 1.0)),
        )


# -------------------------------------------------------------- archetypes
# An envelope builder returns an (n_vms, n_windows) multiplicative factor
# applied to CPU usage (attenuated on RAM), or None for the identity.
EnvelopeFn = Callable[[np.random.Generator, int, int, int], np.ndarray]


def _env_web_diurnal(
    rng: np.random.Generator, n: int, wpd: int, m: int
) -> np.ndarray:
    """Business-hours boost: a sharpened, per-VM-phased diurnal bump."""
    env = np.empty((m, n))
    box_phase = rng.uniform(0.0, 1.0)
    for i in range(m):
        amp = rng.uniform(0.45, 0.75)
        phase = box_phase + rng.uniform(-0.06, 0.06)
        shape = diurnal(n, wpd, phase=phase, sharpness=rng.uniform(2.0, 3.0))
        bump = np.clip(shape, 0.0, None)
        env[i] = 1.0 + amp * (bump - bump.mean())
    return np.clip(env, 0.05, None)


def _env_batch(rng: np.random.Generator, n: int, wpd: int, m: int) -> np.ndarray:
    """Nightly plateaus over a damped daytime base (cron/ETL fleets)."""
    env = np.empty((m, n))
    for i in range(m):
        base = rng.uniform(0.55, 0.8)
        plateau = daily_spikes(
            rng,
            n,
            wpd,
            spikes_per_day=1,
            height_range=(1.2, 2.4),
            max_duration=max(2, wpd // 12),
        )
        env[i] = base + plateau
    return env


def _env_spiky(rng: np.random.Generator, n: int, wpd: int, m: int) -> np.ndarray:
    """Independent per-VM burst trains dominating a damped base load."""
    env = np.empty((m, n))
    for i in range(m):
        base = rng.uniform(0.7, 0.9)
        train = bursts(
            rng, n, rate_per_window=0.02, mean_duration=2.0, amplitude=1.1
        )
        env[i] = base + train
    return env


def _env_ramp(rng: np.random.Generator, n: int, wpd: int, m: int) -> np.ndarray:
    """Slow organic growth: per-VM-jittered linear ramps."""
    env = np.empty((m, n))
    for i in range(m):
        start = rng.uniform(0.55, 0.75)
        stop = rng.uniform(1.35, 1.75)
        env[i] = linear_ramp(n, start=start, stop=stop)
    return env


def _env_weekend(rng: np.random.Generator, n: int, wpd: int, m: int) -> np.ndarray:
    """Weekend-heavy load: a weekly mask boosts Saturday/Sunday."""
    mask = weekly(n, wpd)
    env = np.empty((m, n))
    for i in range(m):
        boost = rng.uniform(0.5, 0.9)
        damp = rng.uniform(0.1, 0.2)
        env[i] = (1.0 - damp) + (boost + damp) * mask
    return env


@dataclass(frozen=True)
class _Archetype:
    """Internal: how one archetype renders — config overrides + envelope."""

    name: str
    overrides: Tuple[Tuple[str, object], ...] = ()
    envelope: Optional[EnvelopeFn] = None


#: The named workload archetypes a cohort can take.
ARCHETYPES: Dict[str, _Archetype] = {
    PAPER_ARCHETYPE: _Archetype(PAPER_ARCHETYPE),
    "web-diurnal": _Archetype(
        "web-diurnal",
        overrides=(("loading_shared_cpu", 0.56), ("cpu_spikes_per_day", 1)),
        envelope=_env_web_diurnal,
    ),
    "batch": _Archetype(
        "batch",
        overrides=(("cpu_spikes_per_day", 3), ("spike_participation", 0.9)),
        envelope=_env_batch,
    ),
    "spiky": _Archetype(
        "spiky",
        overrides=(("burst_rate", 0.02), ("burst_amplitude", 28.0)),
        envelope=_env_spiky,
    ),
    "ramp": _Archetype("ramp", envelope=_env_ramp),
    "weekend-heavy": _Archetype("weekend-heavy", envelope=_env_weekend),
}


def _check_overrides() -> None:
    valid = {f for f in FleetConfig.__dataclass_fields__}
    for arch in ARCHETYPES.values():
        for field_name, _ in arch.overrides:
            if field_name not in valid:
                raise AssertionError(
                    f"archetype {arch.name!r} overrides unknown FleetConfig "
                    f"field {field_name!r}"
                )
            if field_name in _PROTECTED_FIELDS:
                raise AssertionError(
                    f"archetype {arch.name!r} overrides protected field "
                    f"{field_name!r} (would perturb fleet geometry or the "
                    f"pre-capacity RNG stream)"
                )


_check_overrides()


# ------------------------------------------------------------------- truth
@dataclass(frozen=True)
class RegimeShift:
    """A mid-trace archetype switch for one cohort.

    ``at_fraction`` pins the switch window as a fraction of the trace;
    ``None`` draws it from a seeded stream in [0.35, 0.65] — different
    fleet seeds shift at different (but reproducible) windows.
    """

    archetype: str
    at_fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if self.archetype not in ARCHETYPES:
            raise ValueError(
                f"unknown shift archetype {self.archetype!r}; "
                f"known: {sorted(ARCHETYPES)}"
            )
        if self.at_fraction is not None and not 0.0 < self.at_fraction < 1.0:
            raise ValueError(
                f"at_fraction must be in (0, 1), got {self.at_fraction}"
            )

    def to_dict(self) -> dict:
        return {"archetype": self.archetype, "at_fraction": self.at_fraction}

    @staticmethod
    def from_dict(raw: dict) -> "RegimeShift":
        at = raw.get("at_fraction")
        return RegimeShift(
            archetype=str(raw["archetype"]),
            at_fraction=None if at is None else float(at),
        )


@dataclass(frozen=True)
class CohortSpec:
    """One box cohort: an archetype, its share of the fleet, optional shift.

    Boxes are assigned to cohorts in contiguous index stripes proportional
    to ``weight`` — deterministic, independent of any RNG stream.
    """

    archetype: str
    weight: float = 1.0
    shift: Optional[RegimeShift] = None

    def __post_init__(self) -> None:
        if self.archetype not in ARCHETYPES:
            raise ValueError(
                f"unknown archetype {self.archetype!r}; known: {sorted(ARCHETYPES)}"
            )
        if self.weight <= 0:
            raise ValueError(f"cohort weight must be positive, got {self.weight}")

    def to_dict(self) -> dict:
        return {
            "archetype": self.archetype,
            "weight": self.weight,
            "shift": None if self.shift is None else self.shift.to_dict(),
        }

    @staticmethod
    def from_dict(raw: dict) -> "CohortSpec":
        shift = raw.get("shift")
        return CohortSpec(
            archetype=str(raw["archetype"]),
            weight=float(raw.get("weight", 1.0)),
            shift=None if shift is None else RegimeShift.from_dict(shift),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative, seeded, fingerprinted scenario: truth plus render."""

    name: str
    cohorts: Tuple[CohortSpec, ...] = (CohortSpec(PAPER_ARCHETYPE),)
    render: RenderSpec = RenderSpec()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if not self.cohorts:
            raise ValueError("scenario must declare at least one cohort")

    @property
    def is_identity(self) -> bool:
        """Whether rendering this spec is exactly the legacy generator."""
        return self.render.is_identity and all(
            c.archetype == PAPER_ARCHETYPE and c.shift is None
            for c in self.cohorts
        )

    def fingerprint(self) -> str:
        """Canonical BLAKE2b content hash of the spec (store-key material)."""
        return config_fingerprint(self)

    # ------------------------------------------------------------- JSON io
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cohorts": [c.to_dict() for c in self.cohorts],
            "render": self.render.to_dict(),
        }

    def to_json(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n")
        return path

    @staticmethod
    def from_dict(raw: dict) -> "ScenarioSpec":
        cohorts = raw.get("cohorts")
        return ScenarioSpec(
            name=str(raw["name"]),
            cohorts=(
                (CohortSpec(PAPER_ARCHETYPE),)
                if not cohorts
                else tuple(CohortSpec.from_dict(c) for c in cohorts)
            ),
            render=RenderSpec.from_dict(raw.get("render", {})),
        )

    @staticmethod
    def from_json(path: Union[str, Path]) -> "ScenarioSpec":
        with Path(path).open(encoding="utf-8") as handle:
            return ScenarioSpec.from_dict(json.load(handle))


#: Named scenarios the CLI accepts by name; a JSON spec path covers the rest.
NAMED_SCENARIOS: Dict[str, ScenarioSpec] = {
    PAPER_ARCHETYPE: ScenarioSpec(PAPER_ARCHETYPE),
    "web-diurnal": ScenarioSpec("web-diurnal", (CohortSpec("web-diurnal"),)),
    "batch": ScenarioSpec("batch", (CohortSpec("batch"),)),
    "spiky": ScenarioSpec("spiky", (CohortSpec("spiky"),)),
    "ramp": ScenarioSpec("ramp", (CohortSpec("ramp"),)),
    "weekend-heavy": ScenarioSpec(
        "weekend-heavy", (CohortSpec("weekend-heavy"),)
    ),
    "mixed": ScenarioSpec(
        "mixed",
        (
            CohortSpec("web-diurnal", weight=2.0),
            CohortSpec("batch", weight=1.0),
            CohortSpec("spiky", weight=1.0),
        ),
    ),
    "regime-shift": ScenarioSpec(
        "regime-shift",
        (CohortSpec("web-diurnal", shift=RegimeShift("spiky")),),
    ),
}


def resolve_scenario(
    spec: Union[None, str, ScenarioSpec],
) -> ScenarioSpec:
    """Turn a CLI scenario argument into a :class:`ScenarioSpec`.

    ``None`` means the identity ``paper-fig2`` scenario; a string resolves
    as a named scenario first, then as a path to a JSON spec.
    """
    if spec is None:
        spec = PAPER_ARCHETYPE
    if isinstance(spec, ScenarioSpec):
        return spec
    if spec in NAMED_SCENARIOS:
        return NAMED_SCENARIOS[spec]
    path = Path(spec)
    if spec.endswith(".json") or path.exists():
        if not path.exists():
            raise ValueError(f"scenario spec file not found: {spec}")
        return ScenarioSpec.from_json(path)
    raise ValueError(
        f"unknown scenario {spec!r}: expected one of "
        f"{sorted(NAMED_SCENARIOS)} or a path to a JSON spec"
    )


# --------------------------------------------------------------- rendering
def _apply_render(cfg: FleetConfig, render: RenderSpec) -> FleetConfig:
    """Scale the generator's hard-wired statistical knobs by the render."""
    if render.is_identity:
        return cfg

    def _load(value: float) -> float:
        return float(np.clip(value * render.coupling_scale, 0.02, 0.95))

    def _sigmas(pair: Tuple[float, float]) -> Tuple[float, float]:
        return (
            float(min(pair[0] * render.noise_scale, 1.5)),
            float(min(pair[1] * render.noise_scale, 1.5)),
        )

    lo, hi = cfg.headroom_range
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo) * render.capacity_spread
    return replace(
        cfg,
        loading_shared_cpu=_load(cfg.loading_shared_cpu),
        loading_group_cpu=_load(cfg.loading_group_cpu),
        loading_shared_ram=_load(cfg.loading_shared_ram),
        loading_pair=_load(cfg.loading_pair),
        loading_jitter=float(min(cfg.loading_jitter * render.noise_scale, 0.4)),
        cpu_cool_lognorm_sigma_range=_sigmas(cfg.cpu_cool_lognorm_sigma_range),
        ram_cool_lognorm_sigma_range=_sigmas(cfg.ram_cool_lognorm_sigma_range),
        cpu_hot_box_fraction=float(
            np.clip(cfg.cpu_hot_box_fraction * render.culprit_share_scale, 0.0, 1.0)
        ),
        ram_hot_box_fraction=float(
            np.clip(cfg.ram_hot_box_fraction * render.culprit_share_scale, 0.0, 1.0)
        ),
        headroom_range=(float(max(0.5, mid - half)), float(mid + half)),
    )


def _derive_config(
    base: FleetConfig, archetype: str, render: RenderSpec
) -> FleetConfig:
    """The FleetConfig one archetype renders under (render first, then truth)."""
    cfg = _apply_render(base, render)
    overrides = dict(ARCHETYPES[archetype].overrides)
    return replace(cfg, **overrides) if overrides else cfg


def _cohort_boundaries(spec: ScenarioSpec, n_boxes: int) -> np.ndarray:
    weights = np.array([c.weight for c in spec.cohorts], dtype=float)
    edges = np.round(np.cumsum(weights) / weights.sum() * n_boxes).astype(int)
    edges[-1] = n_boxes
    return edges


def _cohort_of(spec: ScenarioSpec, box_index: int, n_boxes: int) -> Tuple[int, CohortSpec]:
    """Deterministic contiguous-stripe cohort assignment by box index."""
    if not 0 <= box_index < n_boxes:
        raise ValueError(f"box_index {box_index} out of range [0, {n_boxes})")
    edges = _cohort_boundaries(spec, n_boxes)
    idx = int(np.searchsorted(edges, box_index, side="right"))
    idx = min(idx, len(spec.cohorts) - 1)
    return idx, spec.cohorts[idx]


def _arch_salt(archetype: str) -> int:
    digest = hashlib.blake2b(archetype.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def _envelope(
    archetype: str, cfg: FleetConfig, box_index: int, phase: int, n_vms: int
) -> Optional[np.ndarray]:
    """The archetype's (n_vms, n_windows) usage envelope for one box.

    Drawn from a dedicated stream — seeded by the fleet seed, the box
    index, the archetype and the regime phase — so the core generator's
    draws are untouched and pre-/post-shift envelopes are independent.
    """
    builder = ARCHETYPES[archetype].envelope
    if builder is None:
        return None
    rng = np.random.default_rng(
        np.random.SeedSequence(
            (cfg.seed, box_index, _ENVELOPE_SALT, _arch_salt(archetype), phase)
        )
    )
    return builder(rng, cfg.n_windows, cfg.windows_per_day, n_vms)


#: How strongly the CPU envelope carries over to RAM (memory is stickier
#: than compute, so regime changes express mostly on CPU).
_RAM_ENVELOPE_WEIGHT = 0.35


def _apply_envelope(box: BoxTrace, env: np.ndarray, cfg: FleetConfig) -> np.ndarray:
    """The box's usage matrix with the envelope multiplied in."""
    cpu = np.clip(box.usage_matrix(Resource.CPU) * env, 0.0, cfg.cpu_usage_cap)
    ram_factor = 1.0 + _RAM_ENVELOPE_WEIGHT * (env - 1.0)
    ram = np.clip(box.usage_matrix(Resource.RAM) * ram_factor, 0.0, cfg.ram_usage_cap)
    return np.concatenate([cpu, ram])


def _switch_window(cfg: FleetConfig, shift: RegimeShift, cohort_index: int) -> int:
    if shift.at_fraction is not None:
        fraction = shift.at_fraction
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence((cfg.seed, _SHIFT_SALT, cohort_index))
        )
        fraction = float(rng.uniform(0.35, 0.65))
    return int(np.clip(round(fraction * cfg.n_windows), 1, cfg.n_windows - 1))


class _BoxPlan:
    """How one box of a scenario renders: its cohort and the configs to draw."""

    def __init__(self, box_index: int, spec: ScenarioSpec, cfg: FleetConfig) -> None:
        self.box_index = box_index
        self.cohort_index, self.cohort = _cohort_of(spec, box_index, cfg.n_boxes)
        self.configs = [_derive_config(cfg, self.cohort.archetype, spec.render)]
        if self.cohort.shift is not None:
            self.configs.append(
                _derive_config(cfg, self.cohort.shift.archetype, spec.render)
            )

    def finish(self, boxes: List[BoxTrace], spec: ScenarioSpec, cfg: FleetConfig) -> BoxTrace:
        """Apply the envelope(s) to the rendered box(es) and splice a shift."""
        box = boxes[0]
        usage = box.usage
        env = _envelope(self.cohort.archetype, cfg, self.box_index, 0, box.n_vms)
        if env is not None:
            usage = _apply_envelope(box, env, self.configs[0])

        if self.cohort.shift is not None:
            post = boxes[1]
            if post.n_vms != box.n_vms:  # pragma: no cover - guarded by overrides
                raise RuntimeError(
                    f"regime shift on box {self.box_index} changed the VM count "
                    f"({box.n_vms} -> {post.n_vms}); archetype overrides must "
                    f"not perturb the pre-capacity RNG stream"
                )
            post_usage = post.usage
            post_env = _envelope(
                self.cohort.shift.archetype, cfg, self.box_index, 1, post.n_vms
            )
            if post_env is not None:
                post_usage = _apply_envelope(post, post_env, self.configs[1])
            switch = _switch_window(cfg, self.cohort.shift, self.cohort_index)
            usage = np.concatenate(
                [usage[:, :switch], post_usage[:, switch:]], axis=1
            )

        return replace(box, usage=usage, scenario_fp=spec.fingerprint())


def render_boxes(
    indices: Iterable[int], spec: ScenarioSpec, cfg: Optional[FleetConfig] = None
) -> Iterator[BoxTrace]:
    """Render boxes of a scenario in index order, block by block.

    The identity scenario renders through the calibrated generator as is.
    Otherwise the cohort's archetype renders each box (config overrides +
    usage envelope), and a cohort with a :class:`RegimeShift` renders
    *both* archetypes from the same seed -- in the same render block --
    and splices them at the seeded switch window; the override
    restrictions guarantee the two renders agree on VM identities and
    capacities, so only the workload statistics change mid-trace.  Every
    box goes through :func:`repro.trace.generator.generate_box_groups`,
    so a box's bytes do not depend on which other boxes share its block.
    """
    cfg = cfg or FleetConfig()
    if spec.is_identity:
        groups = ([(index, cfg, None)] for index in indices)
        for (box,) in generate_box_groups(groups):
            yield box
        return
    plans = [_BoxPlan(index, spec, cfg) for index in indices]
    groups = ([(plan.box_index, c, None) for c in plan.configs] for plan in plans)
    for plan, boxes in zip(plans, generate_box_groups(groups)):
        yield plan.finish(boxes, spec, cfg)


def render_box(
    box_index: int, spec: ScenarioSpec, cfg: Optional[FleetConfig] = None
) -> BoxTrace:
    """Render one box of a scenario: a one-box call of :func:`render_boxes`."""
    return next(render_boxes([box_index], spec, cfg))


def render_fleet(
    spec: ScenarioSpec,
    cfg: Optional[FleetConfig] = None,
    name: Optional[str] = None,
) -> FleetTrace:
    """Render a full fleet from a scenario spec (span ``trace.render``).

    Honours the ``REPRO_FORBID_FLEET_GENERATION`` worker guard exactly
    like :func:`repro.trace.generator.generate_fleet`: scenario rendering
    is fleet-scale data synthesis and must happen in the parent, never in
    a pool worker resolving shard refs.
    """
    check_generation_allowed()
    cfg = cfg or FleetConfig()
    with obs.span("trace.render"):
        boxes = list(render_boxes(range(cfg.n_boxes), spec, cfg))
    fleet = FleetTrace(boxes=boxes, name=name or spec.name)
    if not spec.is_identity:
        fleet.scenario_fp = spec.fingerprint()
    return fleet
