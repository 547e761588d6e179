"""Closed-form model of co-located tenants degrading each other.

Each tenant slows down according to the pressure its neighbors put on
the four shared node resources, weighted by its own sensitivity. Per
resource, pressure below a threshold is free; beyond it the tenant's
normalized performance shrinks hyperbolically. Resources compose
multiplicatively, so a workload squeezed on two fronts is hurt more
than on either alone. A tenant alone on its node keeps a slowdown of
exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    InterferenceProfile,
    JsonRecord,
    NodeConstants,
    ResourceSpec,
    SharedResource,
)

DEFAULT_GAMMA = 0.5


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of the simulated cluster and the degradation constants."""

    nodes: int = 7
    node_cores: int = 96
    node_memory_gb: int = 256
    constants: NodeConstants = NodeConstants()
    gamma: float = DEFAULT_GAMMA
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.node_cores < 1 or self.node_memory_gb < 1:
            raise ValueError("node capacity must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.theta is not None and self.theta < 0:
            raise ValueError("theta must be non-negative")

    @property
    def pressure_threshold(self) -> float:
        # Default: a quarter of the pressure scale is absorbed for free.
        if self.theta is not None:
            return self.theta
        return self.constants.levels / 4.0


Tenant = tuple[int | str, int, ResourceSpec, InterferenceProfile]


@dataclass(frozen=True)
class SlowdownEntry(JsonRecord):
    workload_id: int | str
    node_id: int
    sd: float


@dataclass(frozen=True)
class SlowdownReport(JsonRecord):
    entries: tuple[SlowdownEntry, ...]
    p_sys: float
    unfairness: float


def degradation_factor(pressure: float, sensitivity: float, gamma: float,
                       theta: float, levels: int) -> float:
    """Share of solo performance retained under external pressure.

    Equals 1 when pressure stays at or below theta; decreases toward 0
    as pressure or sensitivity grow. Never reaches 0.
    """
    if sensitivity < 0 or pressure < 0:
        raise ValueError("pressure and sensitivity must be non-negative")
    excess = max(0.0, pressure - theta)
    return 1.0 / (1.0 + gamma * sensitivity * excess / levels ** 2)


def compute_metrics(sds: Sequence[float]) -> tuple[float, float]:
    """System performance (sum of slowdowns) and unfairness (relative
    spread between the worst and best tenant)."""
    if not sds:
        raise ValueError("sds must be non-empty")
    if any(sd <= 0 for sd in sds):
        raise ValueError("slowdowns must be positive")
    worst = min(sds)
    best = max(sds)
    return float(sum(sds)), (best - worst) / best


def simulate_colocated(tenants: Sequence[Tenant],
                       cluster: ClusterSpec = ClusterSpec()) -> SlowdownReport:
    """Slowdown of every tenant given the full assignment.

    Each tenant sees the summed pressure of its node neighbors, itself
    excluded: a workload does not interfere with its own measurement
    baseline. That is its node's total pressure minus its own, exact
    in ints. Raises on unknown nodes or overcommitted capacity.
    """
    if not tenants:
        raise ValueError("tenants must be non-empty")
    if len({t[0] for t in tenants}) != len(tenants):
        raise ValueError("workload ids must be unique")
    by_node: dict[int, list[Tenant]] = {}
    for tenant in tenants:
        workload_id, node_id, spec, _ = tenant
        if not 0 <= node_id < cluster.nodes:
            raise ValueError(f"unknown node {node_id} for workload {workload_id!r}")
        by_node.setdefault(node_id, []).append(tenant)
    total_pressure: dict[int, list[int]] = {}
    for node_id, group in by_node.items():
        cores = sum(spec.cores for _, _, spec, _ in group)
        mem = sum(spec.memory_gb for _, _, spec, _ in group)
        if cores > cluster.node_cores or mem > cluster.node_memory_gb:
            raise ValueError(f"node {node_id} is overcommitted")
        total_pressure[node_id] = [sum(profile.get(resource).pressure
                                       for _, _, _, profile in group)
                                   for resource in SharedResource]

    theta = cluster.pressure_threshold
    levels = cluster.constants.levels
    entries = []
    for workload_id, node_id, spec, profile in tenants:
        sd = 1.0
        for resource, total in zip(SharedResource, total_pressure[node_id]):
            own = profile.get(resource)
            sd *= degradation_factor(total - own.pressure, own.sensitivity,
                                     cluster.gamma, theta, levels)
        entries.append(SlowdownEntry(workload_id, node_id, sd))

    p_sys, unfairness = compute_metrics([e.sd for e in entries])
    return SlowdownReport(entries=tuple(entries), p_sys=p_sys, unfairness=unfairness)
