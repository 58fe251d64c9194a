"""Original-vs-resized testbed runs (Figs. 12 and 13).

The experiment mirrors Section V-B: both MediaWiki deployments serve an
alternating low/high load for several hours.  The *original* run keeps the
operators' static CPU limits; the *resized* run lets ATM re-split each
node's CPU between its co-located VMs every resizing window, using
seasonal predictions of each VM's measured demand (the monitoring system
only sees usage up to the enforced quota, so predictions are driven by the
censored demand — exactly what a real deployment observes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.resizing.evaluate import ResizingAlgorithm, size_box_resource
from repro.testbed.cluster import NodeSpec, TestbedCluster, VMInstance
from repro.testbed.mediawiki import (
    WikiDeployment,
    wiki_one_spec,
    wiki_two_spec,
)
from repro.tickets.policy import TicketPolicy
from repro.trace.model import Resource

__all__ = ["TestbedConfig", "ExperimentResult", "build_cluster", "run_testbed_experiment"]


@dataclass(frozen=True)
class TestbedConfig:
    """Testbed experiment parameters (defaults follow the paper)."""

    __test__ = False  # not a pytest test class despite the name

    duration_windows: int = 24      # 6 hours of 15-minute windows
    resize_every: int = 4           # resizing window = 1 hour
    warmup_windows: int = 0         # resizing may act from the start ...
    profile_first: bool = True      # ... because a profiling cycle runs first
    threshold_pct: float = 60.0
    epsilon_pct: float = 5.0
    #: Operators' conservative static quota per VM (GHz) — the "original"
    #: configuration the paper compares against.
    initial_limit_ghz: float = 3.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.duration_windows < 1:
            raise ValueError("duration_windows must be >= 1")
        if self.resize_every < 1:
            raise ValueError("resize_every must be >= 1")
        if self.warmup_windows < 0:
            raise ValueError("warmup_windows must be >= 0")


def build_cluster(
    initial_limit_ghz: float = 3.0,
) -> Tuple[TestbedCluster, WikiDeployment, WikiDeployment]:
    """Build the Fig. 11 topology: 3 hosting nodes, 11 tier VMs.

    Initial CPU limits are the operators' conservative static quotas
    (``initial_limit_ghz`` per VM) — each VM nominally has 2 vCPUs, but the
    enforced cgroups share is what the monitoring reports usage against.
    """
    spec_one = wiki_one_spec()
    spec_two = wiki_two_spec()
    nodes = [NodeSpec("node2"), NodeSpec("node3"), NodeSpec("node4")]
    placement = {
        "node2": [
            ("w1-apache-1", spec_one.name, "apache"),
            ("w1-apache-2", spec_one.name, "apache"),
            ("w1-memcached-1", spec_one.name, "memcached"),
        ],
        "node3": [
            ("w1-apache-3", spec_one.name, "apache"),
            ("w1-apache-4", spec_one.name, "apache"),
            ("w1-memcached-2", spec_one.name, "memcached"),
        ],
        "node4": [
            ("w1-mysql-1", spec_one.name, "mysql"),
            ("w2-apache-1", spec_two.name, "apache"),
            ("w2-apache-2", spec_two.name, "apache"),
            ("w2-memcached-1", spec_two.name, "memcached"),
            ("w2-mysql-1", spec_two.name, "mysql"),
        ],
    }
    vms: List[VMInstance] = []
    for node in nodes:
        entries = placement[node.name]
        # Each VM nominally gets 4 GiB; on the denser node the balloon
        # driver trims shares so the host's 16 GiB is never oversubscribed.
        ram_share = min(4.0, node.ram_gb / len(entries))
        for vm_id, wiki, tier in entries:
            vms.append(
                VMInstance(
                    vm_id=vm_id,
                    wiki=wiki,
                    tier=tier,
                    node=node.name,
                    cpu_limit=initial_limit_ghz,
                    ram_limit=ram_share,
                )
            )
    cluster = TestbedCluster(nodes, vms)
    return (
        cluster,
        WikiDeployment(spec_one, cluster),
        WikiDeployment(spec_two, cluster),
    )


@dataclass
class ExperimentResult:
    """Everything one testbed run produces."""

    resizing: bool
    usage_pct: Dict[str, np.ndarray]            # vm_id -> series
    limits: Dict[str, np.ndarray]               # vm_id -> enforced limit series
    throughput: Dict[str, np.ndarray]           # wiki -> series (rps)
    response_time: Dict[str, np.ndarray]        # wiki -> series (seconds)
    threshold_pct: float

    def tickets(self, vm_id: Optional[str] = None) -> int:
        """Ticket count (usage above threshold), total or per VM."""
        if vm_id is not None:
            return int((self.usage_pct[vm_id] > self.threshold_pct).sum())
        return int(
            sum((series > self.threshold_pct).sum() for series in self.usage_pct.values())
        )

    def mean_throughput(self, wiki: str) -> float:
        return float(self.throughput[wiki].mean())

    def mean_response_time(self, wiki: str) -> float:
        """Request-weighted mean response time (seconds)."""
        tput = self.throughput[wiki]
        rt = self.response_time[wiki]
        total = tput.sum()
        if total <= 0:
            return float(rt.mean())
        return float((rt * tput).sum() / total)


def _seasonal_prediction(
    measured: np.ndarray, horizon: int, period: int
) -> np.ndarray:
    """Seasonal-naive forecast of the next ``horizon`` windows per VM.

    ATM's framework accepts any temporal model; the testbed controller uses
    the cheapest seasonal model because the load alternates with a known
    period — what matters here is the resizing, not the forecaster.
    """
    t = measured.shape[1]
    if t >= period:
        base = measured[:, t - period :]
    else:  # not enough history: repeat the last window
        base = measured[:, -1:]
    reps = int(np.ceil(horizon / base.shape[1]))
    return np.tile(base, reps)[:, :horizon]


def run_testbed_experiment(
    resizing: bool, config: Optional[TestbedConfig] = None
) -> ExperimentResult:
    """Run one testbed experiment (original or ATM-resized)."""
    cfg = config or TestbedConfig()
    cluster, dep_one, dep_two = build_cluster(initial_limit_ghz=cfg.initial_limit_ghz)
    deployments = (dep_one, dep_two)
    policy = TicketPolicy(threshold_pct=cfg.threshold_pct)

    rng = np.random.default_rng(cfg.seed)
    rates = {
        dep.spec.name: dep.spec.load.rates(cfg.duration_windows, rng)
        for dep in deployments
    }
    period = max(dep.spec.load.period_windows for dep in deployments)

    vm_ids = sorted(cluster.vms)
    usage: Dict[str, List[float]] = {vm_id: [] for vm_id in vm_ids}
    limits: Dict[str, List[float]] = {vm_id: [] for vm_id in vm_ids}
    measured: Dict[str, List[float]] = {vm_id: [] for vm_id in vm_ids}
    throughput: Dict[str, List[float]] = {dep.spec.name: [] for dep in deployments}
    response: Dict[str, List[float]] = {dep.spec.name: [] for dep in deployments}

    if resizing and cfg.profile_first:
        # Profiling cycle: before the measured experiment, ATM observes one
        # full load cycle with each node's capacity split evenly — wide
        # enough limits that demands are seen uncensored.  This plays the
        # role of the 5-day training history in the trace study.
        profile_limits: Dict[str, float] = {}
        for node_name, node in cluster.nodes.items():
            node_vms = cluster.vms_on(node_name)
            for vm in node_vms:
                profile_limits[vm.vm_id] = node.cpu_capacity / len(node_vms)
        original_limits = cluster.cpu_limits()
        cluster.apply_cpu_limits(-period - 1, profile_limits)
        profile_rng = np.random.default_rng(cfg.seed + 1)
        profile_rates = {
            dep.spec.name: dep.spec.load.rates(period, profile_rng)
            for dep in deployments
        }
        for window in range(period):
            demands: Dict[str, float] = {}
            for dep in deployments:
                metrics = dep.step(float(profile_rates[dep.spec.name][window]))
                demands.update(metrics.demands_ghz)
            for vm_id in vm_ids:
                limit = cluster.vms[vm_id].cpu_limit
                measured[vm_id].append(min(demands[vm_id], limit))
        cluster.apply_cpu_limits(-1, original_limits)

    for window in range(cfg.duration_windows):
        if (
            resizing
            and window >= cfg.warmup_windows
            and window % cfg.resize_every == 0
        ):
            _atm_resize(cluster, measured, vm_ids, cfg, policy, period, window)

        demands: Dict[str, float] = {}
        for dep in deployments:
            metrics = dep.step(float(rates[dep.spec.name][window]))
            throughput[dep.spec.name].append(metrics.throughput_rps)
            response[dep.spec.name].append(metrics.response_time_s)
            demands.update(metrics.demands_ghz)
        for vm_id in vm_ids:
            limit = cluster.vms[vm_id].cpu_limit
            observed = min(demands[vm_id], limit)  # cgroups cap what a VM can use
            usage[vm_id].append(100.0 * observed / limit)
            limits[vm_id].append(limit)
            measured[vm_id].append(observed)

    return ExperimentResult(
        resizing=resizing,
        usage_pct={k: np.asarray(v) for k, v in usage.items()},
        limits={k: np.asarray(v) for k, v in limits.items()},
        throughput={k: np.asarray(v) for k, v in throughput.items()},
        response_time={k: np.asarray(v) for k, v in response.items()},
        threshold_pct=cfg.threshold_pct,
    )


def _atm_resize(
    cluster: TestbedCluster,
    measured: Dict[str, List[float]],
    vm_ids: List[str],
    cfg: TestbedConfig,
    policy: TicketPolicy,
    period: int,
    window: int,
) -> None:
    """One ATM resizing actuation across all nodes."""
    for node_name in cluster.nodes:
        node_vms = cluster.vms_on(node_name)
        ids = [vm.vm_id for vm in node_vms]
        history = np.array([measured[vm_id] for vm_id in ids])
        if history.shape[1] < 1:
            continue
        predicted = _seasonal_prediction(history, cfg.resize_every, period)
        current = np.array([vm.cpu_limit for vm in node_vms])
        lookback = min(history.shape[1], period)
        [(sized, allocation)] = size_box_resource(
            node_name,
            Resource.CPU,
            current,
            cluster.nodes[node_name].cpu_capacity,
            policy,
            (ResizingAlgorithm.ATM,),
            eval_demands=predicted,
            epsilon_pct=cfg.epsilon_pct,
            lower_bounds=history[:, -lookback:].max(axis=1),
        )
        if sized.feasible:
            cluster.apply_cpu_limits(window, dict(zip(ids, allocation)))
