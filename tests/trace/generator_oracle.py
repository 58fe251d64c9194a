"""The per-box synthetic generator, kept as the block renderer's oracle.

``repro.trace.generator`` renders a fleet in two phases: every RNG draw of
a box first, then the diurnal/AR(1) factor series of a whole block of
boxes as 2-D arrays.  This module is the one-box-at-a-time generator that
design replaced, copied verbatim (its AR(1) recurrence and diurnal shape
included), so tests can prove the block renderer produces the same bytes
and leaves the caller's RNG in the same state.  ``render_box`` replays the
scenario engine's envelope and regime-shift splice on top of it, one VM's
series at a time.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

from repro.trace.generator import _GHZ_PER_CORE, _RAM_MENU, _VCPU_MENU, FleetConfig
from repro.trace.model import BoxTrace
from repro.trace.scenario import (
    _RAM_ENVELOPE_WEIGHT,
    ScenarioSpec,
    _cohort_of,
    _derive_config,
    _envelope,
    _switch_window,
)
from repro.trace.workloads import bursts


def diurnal(
    n_windows: int,
    windows_per_day: int,
    amplitude: float = 1.0,
    phase: float = 0.0,
    sharpness: float = 1.0,
) -> np.ndarray:
    """Return a daily periodic signal in ``[-amplitude, amplitude]``.

    ``sharpness > 1`` squeezes the peak (business-hour spikes); ``phase`` is
    in fractions of a day.
    """
    if n_windows <= 0 or windows_per_day <= 0:
        raise ValueError("n_windows and windows_per_day must be positive")
    t = np.arange(n_windows) / windows_per_day
    base = np.sin(2.0 * np.pi * (t - phase))
    if sharpness != 1.0:
        base = np.sign(base) * np.abs(base) ** sharpness
    return amplitude * base


def ar1_noise(
    rng: np.random.Generator,
    n_windows: int,
    phi: float = 0.8,
    sigma: float = 1.0,
) -> np.ndarray:
    """Return a stationary AR(1) series ``x_t = phi x_{t-1} + eps_t``.

    The series is started from its stationary distribution so there is no
    warm-up transient.  The recurrence runs on Python floats: one
    multiply-then-add per step in IEEE double, the same arithmetic as
    ``scipy.signal.lfilter([1], [1, -phi], ...)`` and bit-identical to it
    (pinned by tests/trace/test_workloads.py), without importing scipy.
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be positive, got {n_windows}")
    if not -1.0 < phi < 1.0:
        raise ValueError(f"phi must be in (-1, 1) for stationarity, got {phi}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    eps = rng.normal(0.0, sigma, size=n_windows)
    x0 = rng.normal(0.0, sigma / np.sqrt(max(1e-12, 1.0 - phi * phi)))
    x = float(x0)
    out = [x]
    for e in eps[1:].tolist():
        x = phi * x + e
        out.append(x)
    return np.array(out)


def _unit_variance(signal: np.ndarray) -> np.ndarray:
    std = signal.std()
    if std <= 1e-12:
        return np.zeros_like(signal)
    return (signal - signal.mean()) / std


def _box_factor(rng: np.random.Generator, cfg: FleetConfig) -> np.ndarray:
    """A unit-variance box-level activity factor: diurnal + AR(1).

    The diurnal share dominates: production usage repeats day over day,
    which is what makes one-day-ahead prediction tractable at all (the
    paper trains for 5 days and predicts the 6th).
    """
    shape = diurnal(
        cfg.n_windows,
        cfg.windows_per_day,
        amplitude=1.0,
        phase=rng.uniform(0.0, 1.0),
        sharpness=rng.uniform(1.0, 2.0),
    )
    noise = ar1_noise(rng, cfg.n_windows, phi=rng.uniform(0.75, 0.92), sigma=1.0)
    mix = rng.uniform(0.6, 0.9)
    return _unit_variance(mix * _unit_variance(shape) + (1 - mix) * _unit_variance(noise))


def _idio_factor(rng: np.random.Generator, cfg: FleetConfig, slow: bool) -> np.ndarray:
    """Per-VM factor: its own repeatable daily pattern plus AR(1) wander."""
    if slow:
        # RAM-like: an almost-static level (memory is sticky day over day)
        # plus a mild repeatable daily pattern — tomorrow looks like today,
        # which is why the paper's RAM predictions (and hence RAM resizing)
        # work so well.
        phi = rng.uniform(0.985, 0.998)
        periodic_weight = rng.uniform(0.35, 0.65)
    else:
        phi = rng.uniform(0.6, 0.9)
        periodic_weight = rng.uniform(0.55, 0.85)
    shape = diurnal(
        cfg.n_windows,
        cfg.windows_per_day,
        amplitude=1.0,
        phase=rng.uniform(0.0, 1.0),
        sharpness=rng.uniform(1.0, 2.5),
    )
    noise = ar1_noise(rng, cfg.n_windows, phi=phi, sigma=1.0)
    return _unit_variance(
        periodic_weight * _unit_variance(shape)
        + (1 - periodic_weight) * _unit_variance(noise)
    )


def _jitter(rng: np.random.Generator, center: float, cfg: FleetConfig) -> float:
    return float(
        np.clip(center + rng.uniform(-cfg.loading_jitter, cfg.loading_jitter), 0.05, 0.95)
    )


def generate_box(
    box_index: int,
    cfg: FleetConfig,
    rng: Optional[np.random.Generator] = None,
) -> BoxTrace:
    """Generate one box trace.

    ``rng`` defaults to a generator derived from ``cfg.seed`` and
    ``box_index``, so individual boxes can be regenerated independently of
    the rest of the fleet.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, box_index)))

    m = int(
        np.clip(
            rng.poisson(cfg.mean_vms_per_box),
            cfg.min_vms_per_box,
            cfg.max_vms_per_box,
        )
    )
    n_windows = cfg.n_windows

    shared = _box_factor(rng, cfg)
    n_groups = max(1, min(m // 3, 3))
    group_factors = [_box_factor(rng, cfg) for _ in range(n_groups)]
    group_of = rng.integers(0, n_groups, size=m)

    # Capacities first: culprit selection is size-weighted below.
    vcpus = rng.choice(_VCPU_MENU, size=m)
    ghz = rng.uniform(*_GHZ_PER_CORE, size=m)
    cpu_capacities = vcpus * ghz
    ram_capacities = rng.choice(_RAM_MENU, size=m)

    cpu_hot_box = rng.random() < cfg.cpu_hot_box_fraction
    ram_hot_box = rng.random() < cfg.ram_hot_box_fraction
    n_cpu_hot = (
        1 + int(rng.random() < cfg.cpu_second_hot_probability) if cpu_hot_box else 0
    )
    n_ram_hot = (
        1 + int(rng.random() < cfg.ram_second_hot_probability) if ram_hot_box else 0
    )
    # Culprits tend to be the *large* VMs (busy databases and app servers):
    # selection probability grows with the square of the capacity.  This is
    # what makes max-min fairness — which fills small VMs first — leave the
    # heavy hitters under-provisioned on capacity-bound boxes (Fig. 8/10).
    cpu_weights = cpu_capacities**2 / (cpu_capacities**2).sum()
    ram_weights = ram_capacities**2 / (ram_capacities**2).sum()
    cpu_hot_vms = set(
        rng.choice(m, size=min(n_cpu_hot, m), replace=False, p=cpu_weights).tolist()
    )
    ram_hot_vms = set(
        rng.choice(m, size=min(n_ram_hot, m), replace=False, p=ram_weights).tolist()
    )

    # Load-balanced replica set: 2-3 cool VMs sharing one workload factor.
    replica_set: set = set()
    cool_vm_ids = [i for i in range(m) if i not in cpu_hot_vms]
    if len(cool_vm_ids) >= 3 and rng.random() < cfg.replica_probability:
        size = int(rng.integers(2, 4))
        replica_set = set(
            rng.choice(cool_vm_ids, size=min(size, len(cool_vm_ids)), replace=False).tolist()
        )
    replica_factor = _box_factor(rng, cfg)
    replica_mu = rng.uniform(*cfg.cpu_cool_mu_range)

    # Box-level backup/batch windows: the times of day at which co-located
    # VMs spike together (heights and participation vary per VM).
    spike_anchors = rng.integers(0, cfg.windows_per_day, size=cfg.cpu_spikes_per_day)
    n_days = int(np.ceil(n_windows / cfg.windows_per_day))

    def _vm_spike_trains() -> Tuple[np.ndarray, np.ndarray]:
        cpu_spikes = np.zeros(n_windows)
        ram_spikes = np.zeros(n_windows)
        for anchor in spike_anchors:
            if rng.random() >= cfg.spike_participation:
                continue
            height = rng.uniform(*cfg.cpu_spike_height_range)
            paired = rng.random() < cfg.spike_pair_probability
            ram_frac = rng.uniform(*cfg.ram_spike_height_fraction)
            # Scheduled jobs are regular: same start slot and duration every
            # day, only the height varies.  (Random day-to-day time jitter
            # would make spikes look unpredictable to any one-day-ahead
            # model, which real cron jobs are not.)
            duration = int(rng.integers(1, 3))
            for day in range(n_days):
                start = day * cfg.windows_per_day + int(anchor)
                if not 0 <= start < n_windows:
                    continue
                stop = min(start + duration, n_windows)
                day_height = height * rng.uniform(0.85, 1.15)
                cpu_spikes[start:stop] = np.maximum(cpu_spikes[start:stop], day_height)
                if paired:
                    ram_spikes[start:stop] = np.maximum(
                        ram_spikes[start:stop], day_height * ram_frac
                    )
        return cpu_spikes, ram_spikes

    cpu_rows: List[np.ndarray] = []
    ram_rows: List[np.ndarray] = []
    for i in range(m):
        # --- factor loadings -------------------------------------------------
        is_replica = i in replica_set
        if is_replica:
            # Replicas ride the shared replica workload almost entirely.
            a = _jitter(rng, 0.20, cfg)
            b = float(
                np.clip(cfg.replica_loading + rng.uniform(-0.04, 0.04), 0.5, 0.95)
            )
            c = float(np.sqrt(max(0.02, 1.0 - a * a - b * b)))
            group_signal = replica_factor
        else:
            a = _jitter(rng, cfg.loading_shared_cpu, cfg)  # CPU on shared
            b = _jitter(rng, cfg.loading_group_cpu, cfg)  # CPU on group
            c = float(np.sqrt(max(0.05, 1.0 - a * a - b * b)))  # CPU idio
            group_signal = group_factors[group_of[i]]

        u = _idio_factor(rng, cfg, slow=False)  # CPU idiosyncratic
        v = _idio_factor(rng, cfg, slow=True)  # RAM idiosyncratic
        cpu_z = a * shared + b * group_signal + c * u

        if rng.random() < cfg.strong_pair_fraction:
            # Request-driven memory: RAM tracks this VM's CPU directly.
            g = rng.uniform(*cfg.strong_pair_loading_range)
            ram_z = g * cpu_z + float(np.sqrt(max(0.02, 1.0 - g * g))) * v
        else:
            d = _jitter(rng, cfg.loading_shared_ram, cfg)  # RAM on shared
            f = _jitter(rng, cfg.loading_pair, cfg)  # RAM on CPU-idio
            h = float(np.sqrt(max(0.05, 1.0 - d * d - f * f)))  # RAM idio
            ram_z = d * shared + f * u + h * v

        # --- levels -----------------------------------------------------------
        if i in cpu_hot_vms:
            # Culprit VMs split into "pinned" (persistently at or beyond
            # their entitlement, carrying tickets even at the 80% threshold)
            # and diurnal hot spots — this mix keeps Fig. 2b's decay flat.
            if rng.random() < cfg.cpu_pinned_fraction:
                cpu_mu = rng.uniform(*cfg.cpu_pinned_mu_range)
                cpu_sigma = rng.uniform(*cfg.cpu_pinned_sigma_range)
            else:
                cpu_mu = rng.uniform(*cfg.cpu_hot_mu_range)
                cpu_sigma = rng.uniform(*cfg.cpu_hot_sigma_range)
            cpu_usage = cpu_mu + cpu_sigma * cpu_z
        else:
            # Cool VMs: log-normal shape (low typical level) topped by
            # box-shared scheduled spikes that define the daily peak.  The
            # tail parameter is capped so the continuous part essentially
            # never crosses the lowest ticket threshold on its own.
            if is_replica:
                cpu_mu = replica_mu * rng.uniform(0.85, 1.15)
            else:
                cpu_mu = rng.uniform(*cfg.cpu_cool_mu_range)
            s = rng.uniform(*cfg.cpu_cool_lognorm_sigma_range)
            s = min(s, float(np.log(55.0 / cpu_mu)) / 3.2)
            cpu_usage = cpu_mu * np.exp(s * cpu_z)
        cpu_usage = cpu_usage + bursts(
            rng,
            n_windows,
            rate_per_window=cfg.burst_rate,
            amplitude=cfg.burst_amplitude,
        )
        if i in ram_hot_vms:
            if rng.random() < cfg.ram_pinned_fraction:
                ram_mu = rng.uniform(*cfg.ram_pinned_mu_range)
                ram_sigma = rng.uniform(*cfg.ram_pinned_sigma_range)
            else:
                ram_mu = rng.uniform(*cfg.ram_hot_mu_range)
                ram_sigma = rng.uniform(*cfg.ram_hot_sigma_range)
            ram_usage = ram_mu + ram_sigma * ram_z
        else:
            ram_mu = rng.uniform(*cfg.ram_cool_mu_range)
            s = rng.uniform(*cfg.ram_cool_lognorm_sigma_range)
            s = min(s, float(np.log(55.0 / ram_mu)) / 3.2)
            ram_usage = ram_mu * np.exp(s * ram_z)
        if i not in cpu_hot_vms or i not in ram_hot_vms:
            cpu_spikes, ram_spikes = _vm_spike_trains()
            if i not in cpu_hot_vms:
                cpu_usage = cpu_usage + cpu_spikes
            if i not in ram_hot_vms:
                ram_usage = ram_usage + ram_spikes

        cpu_rows.append(np.clip(cpu_usage, 0.0, cfg.cpu_usage_cap))
        ram_rows.append(np.clip(ram_usage, 0.0, cfg.ram_usage_cap))

    headroom_cpu = rng.uniform(*cfg.headroom_range)
    headroom_ram = rng.uniform(*cfg.headroom_range)
    cpu_caps = [float(cpu_capacities[i]) for i in range(m)]
    ram_caps = [float(ram_capacities[i]) for i in range(m)]
    box = BoxTrace(
        box_id=f"box{box_index:05d}",
        cpu_capacity=sum(cpu_caps) * headroom_cpu,
        ram_capacity=sum(ram_caps) * headroom_ram,
        vm_ids=[f"box{box_index:05d}-vm{i:03d}" for i in range(m)],
        vm_cpu_capacities=cpu_caps,
        vm_ram_capacities=ram_caps,
        usage=np.vstack(cpu_rows + ram_rows),
        interval_minutes=cfg.interval_minutes,
    )
    return box


def generate_fleet_boxes(cfg: FleetConfig) -> List[BoxTrace]:
    """Every box of ``cfg``'s fleet, one box at a time."""
    return [generate_box(b, cfg) for b in range(cfg.n_boxes)]


def apply_envelope(box: BoxTrace, env: np.ndarray, cfg: FleetConfig) -> BoxTrace:
    """Multiply a usage envelope into the box, one VM's series at a time."""
    m = box.n_vms
    cpu_rows, ram_rows = [], []
    for i in range(m):
        factor = env[i]
        cpu_rows.append(np.clip(box.usage[i] * factor, 0.0, cfg.cpu_usage_cap))
        ram_factor = 1.0 + _RAM_ENVELOPE_WEIGHT * (factor - 1.0)
        ram_rows.append(np.clip(box.usage[m + i] * ram_factor, 0.0, cfg.ram_usage_cap))
    return replace(box, usage=np.vstack(cpu_rows + ram_rows))


def render_box(
    box_index: int, spec: ScenarioSpec, cfg: Optional[FleetConfig] = None
) -> BoxTrace:
    """The scenario engine's one-box render on top of the per-box generator."""
    cfg = cfg or FleetConfig()
    if spec.is_identity:
        return generate_box(box_index, cfg)

    cohort_index, cohort = _cohort_of(spec, box_index, cfg.n_boxes)
    pre_cfg = _derive_config(cfg, cohort.archetype, spec.render)
    box = generate_box(box_index, pre_cfg)
    env = _envelope(cohort.archetype, cfg, box_index, 0, box.n_vms)
    if env is not None:
        box = apply_envelope(box, env, pre_cfg)

    if cohort.shift is not None:
        post_cfg = _derive_config(cfg, cohort.shift.archetype, spec.render)
        post = generate_box(box_index, post_cfg)
        post_env = _envelope(
            cohort.shift.archetype, cfg, box_index, 1, post.n_vms
        )
        if post_env is not None:
            post = apply_envelope(post, post_env, post_cfg)
        switch = _switch_window(cfg, cohort.shift, cohort_index)
        # Splice series by series: each VM's CPU row, then each RAM row.
        rows = [
            np.concatenate([pre_row[:switch], post_row[switch:]])
            for pre_row, post_row in zip(box.usage, post.usage)
        ]
        box = replace(box, usage=np.vstack(rows))

    return replace(box, scenario_fp=spec.fingerprint())
