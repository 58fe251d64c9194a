"""Workload signal primitives used by the synthetic trace generator.

Production usage series mix a handful of recognizable components: diurnal
cycles, slowly wandering baselines, short bursts, and measurement noise
(see the paper's Fig. 1 and its references [5], [6]).  Each primitive here
produces a zero-centered or non-negative component; the generator composes
them per VM with box-level shared factors to induce the spatial correlation
structure of Section II-B.

All primitives are deterministic functions of the supplied
``numpy.random.Generator`` so fleet generation is reproducible from a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "diurnal",
    "diurnal_rows",
    "ar1_noise",
    "ar1_draws",
    "ar1_rows",
    "bursts",
    "daily_spikes",
    "alternating_load",
    "linear_ramp",
    "weekly",
]


def diurnal(
    n_windows: int,
    windows_per_day: int,
    phase: float = 0.0,
    sharpness: float = 1.0,
) -> np.ndarray:
    """Return a daily periodic signal in ``[-1, 1]``.

    ``sharpness > 1`` squeezes the peak (business-hour spikes); ``phase`` is
    in fractions of a day.  A one-row call of :func:`diurnal_rows`.
    """
    return diurnal_rows(n_windows, windows_per_day, [phase], [sharpness])[0]


def diurnal_rows(
    n_windows: int,
    windows_per_day: int,
    phase: "np.ndarray | list[float]",
    sharpness: "np.ndarray | list[float]",
) -> np.ndarray:
    """Return one unit-amplitude :func:`diurnal` shape per ``(phase, sharpness)`` row.

    The ``(rows, n_windows)`` result is computed as single 2-D ``sin`` and
    ``power`` calls.  Every op is elementwise (in-place products only swap
    commutative operands), so each row has the bytes of its own 1-D
    computation (pinned by tests/trace/test_generator_oracle.py).
    """
    if n_windows <= 0 or windows_per_day <= 0:
        raise ValueError("n_windows and windows_per_day must be positive")
    phase = np.asarray(phase, dtype=float)[:, None]
    sharpness = np.asarray(sharpness, dtype=float)[:, None]
    base = np.arange(n_windows) / windows_per_day - phase
    base *= 2.0 * np.pi
    np.sin(base, out=base)
    sharp = sharpness != 1.0
    if sharp.any():
        # sign(base) * |base| ** sharpness, in place where the row is sharp.
        shaped = np.abs(base)
        np.power(shaped, sharpness, out=shaped)
        shaped *= np.sign(base)
        np.copyto(base, shaped, where=sharp)
    return base


def ar1_noise(
    rng: np.random.Generator,
    n_windows: int,
    phi: float = 0.8,
    sigma: float = 1.0,
) -> np.ndarray:
    """Return a stationary AR(1) series ``x_t = phi x_{t-1} + eps_t``.

    The series is started from its stationary distribution so there is no
    warm-up transient.  A one-row call of :func:`ar1_rows` on the draws of
    :func:`ar1_draws`: one multiply-then-add per step in IEEE double, the
    same arithmetic as ``scipy.signal.lfilter([1], [1, -phi], ...)`` and
    bit-identical to it (pinned by tests/trace/test_workloads.py), without
    importing scipy.
    """
    eps, x0 = ar1_draws(rng, n_windows, phi, sigma)
    return ar1_rows(np.array([phi]), np.array([x0]), eps[None, :])[0]


def ar1_draws(
    rng: np.random.Generator, n_windows: int, phi: float, sigma: float = 1.0
) -> "tuple[np.ndarray, float]":
    """Draw an AR(1) series' innovations and stationary start ``(eps, x0)``.

    ``eps[0]`` is drawn but unused, so the stream consumption is that of
    :func:`ar1_noise`; the recurrence itself is :func:`ar1_rows`.
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be positive, got {n_windows}")
    if not -1.0 < phi < 1.0:
        raise ValueError(f"phi must be in (-1, 1) for stationarity, got {phi}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    eps = rng.normal(0.0, sigma, size=n_windows)
    x0 = rng.normal(0.0, sigma / np.sqrt(max(1e-12, 1.0 - phi * phi)))
    return eps, float(x0)


def ar1_rows(phi: np.ndarray, x0: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Run one AR(1) recurrence per row: ``x[r, t] = phi[r] x[r, t-1] + eps[r, t]``.

    ``x[r, 0] = x0[r]``.  The rows advance together, one vector multiply
    then one vector add per time step; each is the same rounded IEEE op a
    scalar loop makes, so every row has the bytes of its own serial
    recurrence.
    """
    out = np.array(eps, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"eps must be (rows, n_windows), got shape {out.shape}")
    out[:, 0] = x0
    step = np.empty(out.shape[0])
    columns = list(out.T)  # strided views, one per time step
    for prev, cur in zip(columns, columns[1:]):
        np.multiply(phi, prev, out=step)
        np.add(step, cur, out=cur)
    return out


def bursts(
    rng: np.random.Generator,
    n_windows: int,
    rate_per_window: float = 0.01,
    mean_duration: float = 3.0,
    amplitude: float = 30.0,
) -> np.ndarray:
    """Return a non-negative burst train (transient load spikes).

    Burst starts arrive as a Bernoulli process; each burst holds an
    exponential-tailed amplitude for a geometric number of windows.
    """
    if rate_per_window < 0:
        raise ValueError("rate_per_window must be non-negative")
    out = np.zeros(n_windows)
    starts = np.flatnonzero(rng.random(n_windows) < rate_per_window)
    for start in starts:
        duration = 1 + int(rng.geometric(1.0 / max(1.0, mean_duration)) - 1)
        height = rng.exponential(amplitude)
        out[start : start + duration] = np.maximum(
            out[start : start + duration], height
        )
    return out


def daily_spikes(
    rng: np.random.Generator,
    n_windows: int,
    windows_per_day: int,
    spikes_per_day: int = 2,
    height_range: "tuple[float, float]" = (18.0, 48.0),
    max_duration: int = 2,
) -> np.ndarray:
    """Return a non-negative train of short scheduled spikes.

    Models cron jobs, backups and batch windows: each day gets
    ``spikes_per_day`` short plateaus at jittered times of day.  These
    spikes are what give lightly loaded production VMs their large
    peak-to-typical usage ratios.
    """
    if spikes_per_day < 0:
        raise ValueError("spikes_per_day must be non-negative")
    if max_duration < 1:
        raise ValueError("max_duration must be >= 1")
    out = np.zeros(n_windows)
    if spikes_per_day == 0:
        return out
    n_days = int(np.ceil(n_windows / windows_per_day))
    # A stable time-of-day anchor per spike slot, jittered day to day —
    # scheduled jobs run at roughly the same hour every day.
    anchors = rng.integers(0, windows_per_day, size=spikes_per_day)
    for day in range(n_days):
        for anchor in anchors:
            jitter = int(rng.integers(-2, 3))
            start = day * windows_per_day + int(anchor) + jitter
            if not 0 <= start < n_windows:
                continue
            duration = int(rng.integers(1, max_duration + 1))
            height = rng.uniform(*height_range)
            out[start : start + duration] = np.maximum(
                out[start : start + duration], height
            )
    return out


def linear_ramp(
    n_windows: int,
    start: float = 1.0,
    stop: float = 1.0,
) -> np.ndarray:
    """Return a deterministic linear ramp from ``start`` to ``stop``.

    Models slow organic growth (or decay) of a service's load over the
    trace — the "slow ramp" workload archetype.  With one window the ramp
    degenerates to ``start``.
    """
    if n_windows <= 0:
        raise ValueError("n_windows must be positive")
    if n_windows == 1:
        return np.array([float(start)])
    return np.linspace(float(start), float(stop), n_windows)


def weekly(n_windows: int, windows_per_day: int) -> np.ndarray:
    """Return a 0/1 mask that is 1 on weekend days and 0 on weekdays.

    The trace starts on a Monday (day-of-week 0), and Saturday/Sunday
    (days 5 and 6) are flagged.  The mask is what lets a weekend-heavy
    archetype modulate its load on a weekly period the purely daily
    primitives cannot express.
    """
    if n_windows <= 0 or windows_per_day <= 0:
        raise ValueError("n_windows and windows_per_day must be positive")
    day_of_week = (np.arange(n_windows) // windows_per_day) % 7
    return np.isin(day_of_week, np.asarray((5, 6))).astype(float)


def alternating_load(
    n_windows: int,
    windows_per_phase: int,
    low: float,
    high: float,
    start_low: bool = True,
) -> np.ndarray:
    """Return a square-wave load series alternating between two intensities.

    This reproduces the MediaWiki testbed's generator: "requests alternating
    between low and high intensity periods, each lasting one hour".
    """
    if windows_per_phase <= 0:
        raise ValueError("windows_per_phase must be positive")
    if low > high:
        raise ValueError(f"low ({low}) must not exceed high ({high})")
    phase_index = (np.arange(n_windows) // windows_per_phase) % 2
    first, second = (low, high) if start_low else (high, low)
    return np.where(phase_index == 0, first, second).astype(float)
