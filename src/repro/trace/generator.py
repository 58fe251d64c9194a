"""Calibrated synthetic fleet generator.

The paper's trace is proprietary; this generator is the documented
substitution (see DESIGN.md).  It produces per-box co-located VM CPU/RAM
usage series from an explicit factor model whose loadings are chosen so the
fleet reproduces the paper's published aggregates:

* **Ticket statistics (Fig. 2).**  A tunable share of boxes hosts one or two
  heavily loaded "culprit" VMs; the culprit mean-usage distribution is wide
  so ticket counts decay slowly as the threshold rises from 60% to 80%
  (the paper's 39/33/29 CPU tickets per box).  RAM is over-provisioned:
  fewer boxes with RAM tickets, and RAM hot spots rarely clear 80%.
* **Spatial correlation (Fig. 3).**  Each VM's standardized CPU signal is
  ``a*S + b*G + c*U`` (box factor, group factor, idiosyncratic factor) and
  its RAM signal is ``d*S + f*U + h*V``.  Sharing ``U`` between a VM's CPU
  and RAM yields the strong inter-pair correlation (paper mean 0.62), while
  ``a, d`` control the weaker intra-CPU/intra-RAM/inter-all couplings
  (paper means 0.26 / 0.24 / 0.30).
* **Consolidation level**: on average 10 VMs per box, heterogeneous VM and
  box capacities, boxes lowly utilized (capacity headroom), all as reported
  in Section II.

Every draw flows through one ``numpy.random.Generator`` — a fleet is fully
reproducible from ``FleetConfig.seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.model import (
    FORBID_GENERATION_ENV_VAR,
    BoxTrace,
    FleetTrace,
    generation_forbidden,
)
from repro.trace.workloads import ar1_draws, ar1_rows, bursts, diurnal_rows

__all__ = [
    "FleetConfig",
    "FORBID_GENERATION_ENV_VAR",
    "check_generation_allowed",
    "ROW_BUDGET",
    "generate_fleet",
    "generate_box",
    "generate_box_groups",
]

# FORBID_GENERATION_ENV_VAR (canonically defined in repro.trace.model, which
# also enforces the materialization half of the guard): when set to anything
# but a falsy spelling (0/false/off/no), :func:`generate_fleet` raises.  The
# parallel execution engine ships shard descriptors or pickled ``BoxTrace``
# objects to its pool workers; a worker that falls back to regenerating a
# fleet would silently multiply the dominant data-synthesis cost by the
# worker count.  Tests set this variable around parallel runs to prove
# workers never do.


def check_generation_allowed() -> None:
    """Raise when the worker guard forbids fleet-scale data synthesis."""
    if generation_forbidden():
        raise RuntimeError(
            f"fleet generation is forbidden ({FORBID_GENERATION_ENV_VAR} is set): "
            "pool workers must operate on shard descriptors or pickled BoxTrace "
            "objects shipped from the parent process, never regenerate fleets"
        )


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of the synthetic fleet.  Defaults reproduce the paper's aggregates.

    Attributes
    ----------
    n_boxes:
        Number of physical boxes.
    mean_vms_per_box / min_vms_per_box / max_vms_per_box:
        Consolidation level (paper: ~10 VMs per box on average).
    days / windows_per_day:
        Trace length; the paper uses 7 days of 15-minute windows (96/day).
    seed:
        Root seed for the fleet's random generator.
    cpu_hot_box_fraction / ram_hot_box_fraction:
        Probability that a box hosts CPU (RAM) culprit VMs at all.
    cpu_hot_mu_range / ram_hot_mu_range:
        Mean-usage range of culprit VMs (wide, so ticket counts decay slowly
        with the threshold as in Fig. 2b).
    loading_* :
        Centers of the factor-model loadings; see the module docstring.
    headroom_range:
        Box capacity = sum of VM capacities x U(headroom) — data centers are
        lowly utilized, which is what makes resizing so effective (Fig. 8).
    """

    n_boxes: int = 100
    mean_vms_per_box: float = 10.0
    min_vms_per_box: int = 3
    max_vms_per_box: int = 20
    days: int = 7
    windows_per_day: int = 96
    interval_minutes: int = 15
    seed: int = 20160628

    cpu_hot_box_fraction: float = 0.45
    cpu_second_hot_probability: float = 0.35
    cpu_pinned_fraction: float = 0.45
    #: Pinned culprits run past their entitlement (uncapped LPAR semantics):
    #: wide distributions with means near or above 100% keep ticket counts
    #: high across all three thresholds (flat Fig. 2b decay), give
    #: peak-sized allocations real ticket relief (stingy's Fig. 8 gains),
    #: and make their zero-ticket capacity targets large enough to exhaust
    #: the box budget (max-min fairness's Fig. 8/10 shortfall).
    cpu_pinned_mu_range: Tuple[float, float] = (85.0, 120.0)
    cpu_pinned_sigma_range: Tuple[float, float] = (22.0, 40.0)
    cpu_hot_mu_range: Tuple[float, float] = (48.0, 90.0)
    cpu_hot_sigma_range: Tuple[float, float] = (10.0, 20.0)
    #: Cool VMs are log-normal-shaped: a low typical level with a heavy
    #: right tail (peak-to-median of ~3-9x), which is how production VMs
    #: actually look and what keeps peak-sized allocations nearly ticket-free.
    cpu_cool_mu_range: Tuple[float, float] = (2.0, 10.0)
    cpu_cool_lognorm_sigma_range: Tuple[float, float] = (0.5, 0.8)
    #: Scheduled-job spikes on cool VMs (cron/backup plateaus).  They set the
    #: cool VMs' daily peaks well above typical usage while (mostly) staying
    #: under the ticket threshold, so peak-sized allocations stay nearly
    #: ticket-free.  Spike *times* are box-shared backup windows — VMs of a
    #: box spike together, which both matches operational reality and
    #: contributes to the intra-box spatial correlation of Fig. 3.
    cpu_spikes_per_day: int = 2
    cpu_spike_height_range: Tuple[float, float] = (14.0, 38.0)
    spike_participation: float = 0.8
    #: Probability that a VM's CPU spike is accompanied by a RAM spike (the
    #: job consumes both), driving the same-VM inter-pair correlation.
    spike_pair_probability: float = 0.7

    ram_hot_box_fraction: float = 0.36
    ram_second_hot_probability: float = 0.15
    ram_pinned_fraction: float = 0.30
    ram_pinned_mu_range: Tuple[float, float] = (75.0, 110.0)
    ram_pinned_sigma_range: Tuple[float, float] = (15.0, 25.0)
    ram_hot_mu_range: Tuple[float, float] = (52.0, 70.0)
    ram_hot_sigma_range: Tuple[float, float] = (4.0, 8.0)
    ram_cool_mu_range: Tuple[float, float] = (4.0, 12.0)
    ram_cool_lognorm_sigma_range: Tuple[float, float] = (0.35, 0.55)
    ram_spike_height_fraction: Tuple[float, float] = (0.3, 0.7)

    loading_shared_cpu: float = 0.46
    loading_group_cpu: float = 0.35
    loading_shared_ram: float = 0.52
    loading_pair: float = 0.48
    loading_jitter: float = 0.10
    #: Some VMs' RAM tracks their CPU almost one-to-one (request-driven
    #: memory).  These strong inter-pair links (rho >= 0.7) are what lets
    #: CBC absorb RAM series behind their own VM's CPU signature — the
    #: paper's Fig. 5 observation that CBC signatures are mostly CPU.
    strong_pair_fraction: float = 0.35
    strong_pair_loading_range: Tuple[float, float] = (0.74, 0.90)
    #: Load-balanced replica sets: a box may host 2-3 near-identical VMs
    #: behind a balancer, giving a heavy tail of very strong intra-CPU
    #: correlations (rho ~ 0.85) on top of the modest typical levels.
    replica_probability: float = 0.55
    replica_loading: float = 0.90

    burst_rate: float = 0.004
    burst_amplitude: float = 15.0
    #: Box capacity relative to the sum of VM capacities.  Values below 1
    #: model overcommitted boxes ("aggressively multiplexed"): the virtual
    #: budget C the resizing problem may distribute is scarcer than the sum
    #: of configured sizes, which is what makes max-min fairness punish
    #: large VMs on a subset of boxes (Figs. 8 and 10).
    headroom_range: Tuple[float, float] = (1.00, 1.30)

    #: Usage clipping ceilings (percent of allocated capacity).  CPU usage on
    #: uncapped/overcommitted VMs can run well past the entitlement; RAM less
    #: so (ballooning/swap accounting).  See trace.model.MAX_USAGE_PCT.
    cpu_usage_cap: float = 300.0
    ram_usage_cap: float = 150.0

    def __post_init__(self) -> None:
        if self.n_boxes < 1:
            raise ValueError("n_boxes must be >= 1")
        if not self.min_vms_per_box >= 1:
            raise ValueError("min_vms_per_box must be >= 1")
        if self.min_vms_per_box > self.max_vms_per_box:
            raise ValueError("min_vms_per_box must not exceed max_vms_per_box")
        if self.days < 1 or self.windows_per_day < 2:
            raise ValueError("trace must span at least one day of >= 2 windows")
        for name in ("cpu_hot_box_fraction", "ram_hot_box_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def n_windows(self) -> int:
        return self.days * self.windows_per_day


# Discrete menus of realistic virtual capacities.
_VCPU_MENU = np.array([1, 2, 2, 4, 4, 8, 16])  # virtual cores
_GHZ_PER_CORE = (2.2, 3.6)
_RAM_MENU = np.array([2.0, 4.0, 4.0, 8.0, 8.0, 16.0, 32.0, 64.0])  # GB


#: Factor series (one diurnal shape plus one AR(1) wander each) computed
#: together in a render block.  A block closes at the first box boundary at
#: or past this many rows, so the renderer's working set -- a few
#: ``(rows, n_windows)`` float64 arrays, ~0.5-0.8 MB each at 7 days of
#: 15-minute windows -- is the same for 10 boxes or 6,000.
ROW_BUDGET = 96

#: One render request: the box index, the config it renders under, and the
#: generator to draw from (``None``: the box's own ``(seed, index)`` stream).
BoxRequest = Tuple[int, FleetConfig, Optional[np.random.Generator]]


def _unit_variance_rows(rows: np.ndarray) -> np.ndarray:
    """Standardize every row to zero mean and unit variance, in place.

    Row reductions over a C-contiguous array give each row the bytes of its
    own 1-D ``std``/``mean``; a (near-)constant row becomes zeros.
    """
    std = rows.std(axis=1)
    flat = std <= 1e-12
    rows -= rows.mean(axis=1)[:, None]
    rows /= np.where(flat, 1.0, std)[:, None]
    rows[flat] = 0.0
    return rows


class _FactorRows:
    """Draw-phase record of a block's factor series, in row order.

    Row ``r`` stands for ``unit(w * unit(diurnal) + (1 - w) * unit(ar1))``
    with its own phase, sharpness, AR(1) coefficient, innovations, start
    and weight ``w``; :meth:`resolve` computes every row at once.
    """

    def __init__(self) -> None:
        self.phase: List[float] = []
        self.sharpness: List[float] = []
        self.phi: List[float] = []
        self.eps: List[np.ndarray] = []
        self.x0: List[float] = []
        self.weight: List[float] = []

    def __len__(self) -> int:
        return len(self.phi)

    def add(
        self,
        rng: np.random.Generator,
        cfg: FleetConfig,
        phase: float,
        sharpness: float,
        phi: float,
    ) -> int:
        """Draw a row's AR(1) innovations and start; returns the row index.

        The caller draws the row's weight right after (its place in the
        stream differs between box and per-VM factors) and appends it.
        """
        eps, x0 = ar1_draws(rng, cfg.n_windows, phi)
        self.phase.append(phase)
        self.sharpness.append(sharpness)
        self.phi.append(phi)
        self.eps.append(eps)
        self.x0.append(x0)
        return len(self.phi) - 1

    def resolve(self, n_windows: int, windows_per_day: int) -> np.ndarray:
        """Compute every recorded row: the ``(rows, n_windows)`` factor matrix."""
        noise = _unit_variance_rows(
            ar1_rows(np.array(self.phi), np.array(self.x0), self.eps)
        )
        self.eps.clear()  # the recurrence copied them; free before the shapes
        shape = _unit_variance_rows(
            diurnal_rows(n_windows, windows_per_day, self.phase, self.sharpness)
        )
        # w * shape + (1 - w) * noise; the in-place products swap operands only.
        weight = np.array(self.weight)[:, None]
        shape *= weight
        noise *= 1 - weight
        shape += noise
        return _unit_variance_rows(shape)


def _draw_box_factor(
    rng: np.random.Generator, cfg: FleetConfig, rows: _FactorRows
) -> int:
    """Draw a unit-variance box-level activity factor: diurnal + AR(1).

    The diurnal share dominates: production usage repeats day over day,
    which is what makes one-day-ahead prediction tractable at all (the
    paper trains for 5 days and predicts the 6th).
    """
    phase = rng.uniform(0.0, 1.0)
    sharpness = rng.uniform(1.0, 2.0)
    row = rows.add(rng, cfg, phase, sharpness, phi=rng.uniform(0.75, 0.92))
    rows.weight.append(rng.uniform(0.6, 0.9))
    return row


def _draw_idio_factor(
    rng: np.random.Generator, cfg: FleetConfig, slow: bool, rows: _FactorRows
) -> int:
    """Draw a per-VM factor: its own repeatable daily pattern plus AR(1) wander."""
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
    phase = rng.uniform(0.0, 1.0)
    sharpness = rng.uniform(1.0, 2.5)
    row = rows.add(rng, cfg, phase, sharpness, phi)
    rows.weight.append(periodic_weight)
    return row


def _clamp(value: float, low: float, high: float) -> float:
    """``float(np.clip(value, low, high))`` for a finite scalar, without NumPy."""
    return min(max(value, low), high)


def _jitter(rng: np.random.Generator, center: float, cfg: FleetConfig) -> float:
    return _clamp(
        center + rng.uniform(-cfg.loading_jitter, cfg.loading_jitter), 0.05, 0.95
    )


#: Per-VM draws, one column each: factor rows (``signal`` is the group or
#: replica factor), CPU loadings ``a, b, c``, the RAM mix (``g, k`` for a
#: strong pair, else ``d, f, h``), and each resource's hot flag and level.
_VM_FIELDS = (
    "signal", "u", "v", "a", "b", "c", "strong", "g", "k", "d", "f", "h",
    "cpu_hot", "cpu_mu", "cpu_scale", "ram_hot", "ram_mu", "ram_scale",
)


@dataclass
class _BoxDraw:
    """Every draw of one box: factor-row indices and per-VM scalars.

    ``vm`` holds one column per :data:`_VM_FIELDS` entry, in VM order, so
    :meth:`assemble` can replay the level, burst and spike arithmetic for
    all VMs of the box as 2-D operations.  Unused coefficients (a
    strong-pair VM's ``d, f, h``, a hot VM's log-normal tail) hold 0 and
    are never read.
    """

    box_index: int
    cfg: FleetConfig
    shared: int  # factor row of the box-level factor
    cpu_capacities: np.ndarray
    ram_capacities: np.ndarray
    vm: Dict[str, list]
    bursts: List[np.ndarray]
    #: ``(vm, anchor, duration, paired, ram_frac, day_heights)`` per train.
    spikes: List[tuple]
    headroom_cpu: float
    headroom_ram: float

    @property
    def m(self) -> int:
        return len(self.cpu_capacities)

    def assemble(self, factors: np.ndarray) -> BoxTrace:
        """Replay the box's usage arithmetic on the resolved factor rows."""
        cfg = self.cfg
        col = {key: np.array(values) for key, values in self.vm.items()}
        shared = factors[self.shared]
        u = factors[col["u"]]
        v = factors[col["v"]]
        cpu_z = (
            col["a"][:, None] * shared
            + col["b"][:, None] * factors[col["signal"]]
            + col["c"][:, None] * u
        )
        ram_z = np.empty_like(cpu_z)
        strong = col["strong"]
        ram_z[strong] = (
            col["g"][strong, None] * cpu_z[strong]
            + col["k"][strong, None] * v[strong]
        )
        loose = ~strong
        ram_z[loose] = (
            col["d"][loose, None] * shared
            + col["f"][loose, None] * u[loose]
            + col["h"][loose, None] * v[loose]
        )
        cpu_hot, ram_hot = col["cpu_hot"], col["ram_hot"]
        cpu = _levels(cpu_z, cpu_hot, col["cpu_mu"], col["cpu_scale"])
        cpu += np.array(self.bursts)
        ram = _levels(ram_z, ram_hot, col["ram_mu"], col["ram_scale"])
        # Every VM that is not hot on a resource drew a spike train, so the
        # trains add to exactly the rows the per-VM recipe adds them to.
        cpu_spikes, ram_spikes = _spike_rows(self)
        cpu[~cpu_hot] += cpu_spikes[~cpu_hot]
        ram[~ram_hot] += ram_spikes[~ram_hot]
        cpu = np.clip(cpu, 0.0, cfg.cpu_usage_cap)
        ram = np.clip(ram, 0.0, cfg.ram_usage_cap)

        box_id = f"box{self.box_index:05d}"
        cpu_caps = tuple(float(c) for c in self.cpu_capacities)
        ram_caps = tuple(float(c) for c in self.ram_capacities)
        return BoxTrace(
            box_id=box_id,
            cpu_capacity=sum(cpu_caps) * self.headroom_cpu,
            ram_capacity=sum(ram_caps) * self.headroom_ram,
            vm_ids=tuple(f"{box_id}-vm{i:03d}" for i in range(self.m)),
            vm_cpu_capacities=cpu_caps,
            vm_ram_capacities=ram_caps,
            usage=np.concatenate([cpu, ram]),
            interval_minutes=cfg.interval_minutes,
        )


def _levels(
    z: np.ndarray, hot: np.ndarray, mu: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Usage levels: ``mu + sigma * z`` on hot rows, ``mu * exp(s * z)`` on cool."""
    out = np.empty_like(z)
    out[hot] = mu[hot, None] + scale[hot, None] * z[hot]
    cool = ~hot
    out[cool] = mu[cool, None] * np.exp(scale[cool, None] * z[cool])
    return out


def _draw_spike_trains(
    rng: np.random.Generator,
    cfg: FleetConfig,
    anchors: np.ndarray,
    n_days: int,
    vm_index: int,
) -> List[tuple]:
    """Draw one VM's scheduled-job spike trains (see :attr:`_BoxDraw.spikes`).

    Every ``day * windows_per_day + anchor`` lies inside the trace
    (``n_windows`` is a whole number of days), so each participating
    anchor draws one height factor per day.
    """
    trains = []
    for anchor in anchors:
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
        day_heights = height * rng.uniform(0.85, 1.15, size=n_days)
        trains.append((vm_index, int(anchor), duration, paired, ram_frac, day_heights))
    return trains


def _spike_rows(draw: "_BoxDraw") -> Tuple[np.ndarray, np.ndarray]:
    """A box's ``(m, n_windows)`` CPU and RAM spike trains.

    Each window holds the tallest spike landing on it (``maximum.at`` is
    exact and order-free); a two-window spike on the trace's last slot is
    cut short.
    """
    cfg, m = draw.cfg, draw.m
    n_windows = cfg.n_windows
    cpu = np.zeros((m, n_windows))
    ram = np.zeros((m, n_windows))
    if not draw.spikes:
        return cpu, ram
    vm, anchor, duration, paired, ram_frac, heights = (
        np.array(column) for column in zip(*draw.spikes)
    )
    windows = anchor[:, None] + np.arange(heights.shape[1]) * cfg.windows_per_day
    flat = vm[:, None] * n_windows + windows
    ram_heights = heights * ram_frac[:, None]
    for step, lands in (
        (0, np.ones(windows.shape, dtype=bool)),
        (1, (duration[:, None] == 2) & (windows + 1 < n_windows)),
    ):
        np.maximum.at(cpu.reshape(-1), flat[lands] + step, heights[lands])
        lands &= paired[:, None]
        np.maximum.at(ram.reshape(-1), flat[lands] + step, ram_heights[lands])
    return cpu, ram


def _draw_box(
    box_index: int,
    cfg: FleetConfig,
    rng: Optional[np.random.Generator],
    rows: _FactorRows,
) -> _BoxDraw:
    """The draw phase of one box: every RNG call, in the recipe's order.

    No draw depends on a generated series value (the one data-dependent
    clamp reads a drawn mean), so the factor series are only recorded in
    ``rows`` here and computed later, a whole block at a time.
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

    shared = _draw_box_factor(rng, cfg, rows)
    n_groups = max(1, min(m // 3, 3))
    group_rows = [_draw_box_factor(rng, cfg, rows) for _ in range(n_groups)]
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
    replica_row = _draw_box_factor(rng, cfg, rows)
    replica_mu = rng.uniform(*cfg.cpu_cool_mu_range)

    # Box-level backup/batch windows: the times of day at which co-located
    # VMs spike together (heights and participation vary per VM).
    spike_anchors = rng.integers(0, cfg.windows_per_day, size=cfg.cpu_spikes_per_day)
    n_days = int(np.ceil(n_windows / cfg.windows_per_day))

    vm: Dict[str, list] = {key: [] for key in _VM_FIELDS}
    burst_trains: List[np.ndarray] = []
    spikes: List[tuple] = []
    for i in range(m):
        # --- factor loadings -------------------------------------------------
        if i in replica_set:
            # Replicas ride the shared replica workload almost entirely.
            a = _jitter(rng, 0.20, cfg)
            b = _clamp(cfg.replica_loading + rng.uniform(-0.04, 0.04), 0.5, 0.95)
            c = math.sqrt(max(0.02, 1.0 - a * a - b * b))
            vm["signal"].append(replica_row)
        else:
            a = _jitter(rng, cfg.loading_shared_cpu, cfg)  # CPU on shared
            b = _jitter(rng, cfg.loading_group_cpu, cfg)  # CPU on group
            c = math.sqrt(max(0.05, 1.0 - a * a - b * b))  # CPU idio
            vm["signal"].append(group_rows[group_of[i]])
        vm["a"].append(a)
        vm["b"].append(b)
        vm["c"].append(c)

        vm["u"].append(_draw_idio_factor(rng, cfg, False, rows))  # CPU idio
        vm["v"].append(_draw_idio_factor(rng, cfg, True, rows))  # RAM idio

        # RAM signal: ``g * cpu_z + k * v`` for request-driven memory that
        # tracks this VM's CPU directly, else ``d * S + f * u + h * v``.
        strong = rng.random() < cfg.strong_pair_fraction
        if strong:
            g = rng.uniform(*cfg.strong_pair_loading_range)
            k = math.sqrt(max(0.02, 1.0 - g * g))
            d = f = h = 0.0
        else:
            g = k = 0.0
            d = _jitter(rng, cfg.loading_shared_ram, cfg)  # RAM on shared
            f = _jitter(rng, cfg.loading_pair, cfg)  # RAM on CPU-idio
            h = math.sqrt(max(0.05, 1.0 - d * d - f * f))  # RAM idio
        for key, value in (("strong", strong), ("g", g), ("k", k), ("d", d), ("f", f), ("h", h)):
            vm[key].append(value)

        # --- levels -----------------------------------------------------------
        cpu_hot = i in cpu_hot_vms
        if cpu_hot:
            # Culprit VMs split into "pinned" (persistently at or beyond
            # their entitlement, carrying tickets even at the 80% threshold)
            # and diurnal hot spots — this mix keeps Fig. 2b's decay flat.
            if rng.random() < cfg.cpu_pinned_fraction:
                cpu_mu = rng.uniform(*cfg.cpu_pinned_mu_range)
                cpu_scale = rng.uniform(*cfg.cpu_pinned_sigma_range)
            else:
                cpu_mu = rng.uniform(*cfg.cpu_hot_mu_range)
                cpu_scale = rng.uniform(*cfg.cpu_hot_sigma_range)
        else:
            # Cool VMs: log-normal shape (low typical level) topped by
            # box-shared scheduled spikes that define the daily peak.  The
            # tail parameter is capped so the continuous part essentially
            # never crosses the lowest ticket threshold on its own.
            if i in replica_set:
                cpu_mu = replica_mu * rng.uniform(0.85, 1.15)
            else:
                cpu_mu = rng.uniform(*cfg.cpu_cool_mu_range)
            s = rng.uniform(*cfg.cpu_cool_lognorm_sigma_range)
            cpu_scale = min(s, float(np.log(55.0 / cpu_mu)) / 3.2)
        burst_trains.append(
            bursts(
                rng,
                n_windows,
                rate_per_window=cfg.burst_rate,
                amplitude=cfg.burst_amplitude,
            )
        )
        ram_hot = i in ram_hot_vms
        if ram_hot:
            if rng.random() < cfg.ram_pinned_fraction:
                ram_mu = rng.uniform(*cfg.ram_pinned_mu_range)
                ram_scale = rng.uniform(*cfg.ram_pinned_sigma_range)
            else:
                ram_mu = rng.uniform(*cfg.ram_hot_mu_range)
                ram_scale = rng.uniform(*cfg.ram_hot_sigma_range)
        else:
            ram_mu = rng.uniform(*cfg.ram_cool_mu_range)
            s = rng.uniform(*cfg.ram_cool_lognorm_sigma_range)
            ram_scale = min(s, float(np.log(55.0 / ram_mu)) / 3.2)
        for key, value in (
            ("cpu_hot", cpu_hot), ("cpu_mu", cpu_mu), ("cpu_scale", cpu_scale),
            ("ram_hot", ram_hot), ("ram_mu", ram_mu), ("ram_scale", ram_scale),
        ):
            vm[key].append(value)
        if not cpu_hot or not ram_hot:
            spikes += _draw_spike_trains(rng, cfg, spike_anchors, n_days, i)

    headroom_cpu = rng.uniform(*cfg.headroom_range)
    headroom_ram = rng.uniform(*cfg.headroom_range)
    return _BoxDraw(
        box_index, cfg, shared, cpu_capacities, ram_capacities, vm,
        burst_trains, spikes, headroom_cpu, headroom_ram,
    )


def _render_block(drawn: List[List[_BoxDraw]], rows: _FactorRows) -> Iterator[List[BoxTrace]]:
    """The compute phase of one block: resolve its factor rows, then its boxes."""
    geometry = {(d.cfg.n_windows, d.cfg.windows_per_day) for group in drawn for d in group}
    if len(geometry) != 1:
        raise ValueError(
            f"a render block needs one trace geometry, got {sorted(geometry)}"
        )
    factors = rows.resolve(*geometry.pop())
    for group in drawn:
        yield [d.assemble(factors) for d in group]


def generate_box_groups(
    groups: Iterable[Sequence[BoxRequest]],
) -> Iterator[List[BoxTrace]]:
    """Render groups of boxes block by block, yielding each group's boxes.

    A group is a sequence of ``(box_index, cfg, rng)`` requests that render
    in the same block (the scenario engine's regime shift renders one box
    under two configs and splices them).  Each request draws exactly what
    :func:`generate_box` draws, in the same order; a block closes at the
    first group boundary at or past :data:`ROW_BUDGET` factor rows, and
    its factor series are then computed as 2-D arrays.  Every box's bytes
    are independent of where the block boundaries fall.
    """
    rows = _FactorRows()
    drawn: List[List[_BoxDraw]] = []
    for group in groups:
        drawn.append([_draw_box(index, cfg, rng, rows) for index, cfg, rng in group])
        if len(rows) >= ROW_BUDGET:
            yield from _render_block(drawn, rows)
            rows, drawn = _FactorRows(), []
    if drawn:
        yield from _render_block(drawn, rows)


def generate_box(box_index: int, cfg: FleetConfig) -> BoxTrace:
    """Generate one box trace: a one-box call of :func:`generate_box_groups`.

    The box draws from a generator derived from ``cfg.seed`` and
    ``box_index``, so individual boxes can be regenerated independently of
    the rest of the fleet.
    """
    (box,) = next(generate_box_groups([[(box_index, cfg, None)]]))
    return box


def generate_fleet(
    cfg: Optional[FleetConfig] = None,
    name: str = "synthetic",
    scenario=None,
) -> FleetTrace:
    """Generate a full fleet trace from a :class:`FleetConfig`.

    ``scenario`` (a :class:`repro.trace.scenario.ScenarioSpec`) renders
    the fleet through the scenario engine; ``None`` — or the identity
    ``paper-fig2`` spec — takes the calibrated path below, bit for bit.
    """
    check_generation_allowed()
    cfg = cfg or FleetConfig()
    if scenario is not None and not scenario.is_identity:
        from repro.trace.scenario import render_fleet

        return render_fleet(
            scenario, cfg, name=scenario.name if name == "synthetic" else name
        )
    groups = ([(b, cfg, None)] for b in range(cfg.n_boxes))
    boxes = [box for (box,) in generate_box_groups(groups)]
    return FleetTrace(boxes=boxes, name=name)
