"""Closed-form model of co-located tenants degrading each other.

Each tenant slows down according to the pressure its neighbors put on
the four shared node resources, weighted by its own sensitivity. Per
resource, pressure below a threshold is free; beyond it the tenant's
normalized performance shrinks hyperbolically. Resources compose
multiplicatively, so a workload squeezed on two fronts is hurt more
than on either alone. A tenant alone on its node keeps a slowdown of
exactly 1.

simulate_colocated works on arrays. It reads each tenant's fields
once, takes node totals with one int64 scatter-add and each tenant's
external pressure as its node's total minus its own, and applies
degradation_factor once, elementwise, over all tenants and resources.
The slowdowns are bit-identical to the scalar formula applied one
tenant and resource at a time. The report holds one SlowdownEntry per
tenant, in tenant order: an immutable NamedTuple of workload_id,
node_id and sd, which encodes through the shared record codec.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

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
        for name in ("nodes", "node_cores", "node_memory_gb"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.node_cores < 1 or self.node_memory_gb < 1:
            raise ValueError("node capacity must be positive")
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be finite and positive, got {self.gamma!r}")
        if self.theta is not None and not (math.isfinite(self.theta) and self.theta >= 0):
            raise ValueError(f"theta must be finite and non-negative, got {self.theta!r}")

    @property
    def pressure_threshold(self) -> float:
        # Default: a quarter of the pressure scale is absorbed for free.
        if self.theta is not None:
            return self.theta
        return self.constants.levels / 4.0


Tenant = tuple[int | str, int, ResourceSpec, InterferenceProfile]


class _Entry(NamedTuple):
    workload_id: int | str
    node_id: int
    sd: float


class SlowdownEntry(_Entry, JsonRecord):
    """One tenant's slowdown: a tuple record with the codec of a JsonRecord."""

    __slots__ = ()


# Builds an entry from a (workload_id, node_id, sd) tuple without the
# generated __new__'s Python frame: half the cost per entry.
_entry = functools.partial(tuple.__new__, SlowdownEntry)


@dataclass(frozen=True)
class SlowdownReport(JsonRecord):
    entries: tuple[SlowdownEntry, ...]
    p_sys: float
    unfairness: float


def degradation_factor(pressure: float | np.ndarray, sensitivity: float | np.ndarray,
                       gamma: float, theta: float, levels: int) -> float | np.ndarray:
    """Share of solo performance retained under external pressure.

    Equals 1 when pressure stays at or below theta; decreases toward 0
    as pressure or sensitivity grow. Never reaches 0. Elementwise on
    arrays of pressures and sensitivities; on two scalars it returns
    a float.
    """
    pressure, sensitivity = np.asarray(pressure), np.asarray(sensitivity)
    if (sensitivity < 0).any() or (pressure < 0).any():
        raise ValueError("pressure and sensitivity must be non-negative")
    excess = np.maximum(0.0, pressure - theta)
    factor = 1.0 / (1.0 + gamma * sensitivity * excess / levels ** 2)
    return factor if factor.ndim else float(factor)


def compute_metrics(sds: Sequence[float]) -> tuple[float, float]:
    """System performance (sum of slowdowns) and unfairness (relative
    spread between the worst and best tenant)."""
    if not sds:
        raise ValueError("sds must be non-empty")
    values = np.asarray(sds, dtype=float)
    if not ((values > 0) & (values < np.inf)).all():  # NaN fails too
        raise ValueError("slowdowns must be positive and finite")
    worst, best = values.min(), values.max()
    return float(sum(sds)), float((best - worst) / best)


def simulate_colocated(tenants: Sequence[Tenant],
                       cluster: ClusterSpec = ClusterSpec()) -> SlowdownReport:
    """Slowdown of every tenant given the full assignment.

    Each tenant sees the summed pressure of its node neighbors, itself
    excluded: a workload does not interfere with its own measurement
    baseline. That is its node's total pressure minus its own, exact
    in int64. All tenants and resources go through degradation_factor
    as one (tenants x resources) array, and each tenant's four factors
    multiply left to right into its slowdown. Raises naming the first
    tenant on an unknown node, else the first overcommitted node in
    tenant order.
    """
    if not tenants:
        raise ValueError("tenants must be non-empty")
    ids, node_ids, specs, profiles = zip(*tenants)
    if len(set(ids)) != len(ids):
        raise ValueError("workload ids must be unique")
    n = len(tenants)
    node = np.fromiter(node_ids, np.int64, n)
    unknown = np.flatnonzero((node < 0) | (node >= cluster.nodes))
    if len(unknown):
        i = unknown[0]
        raise ValueError(f"unknown node {node_ids[i]} for workload {ids[i]!r}")
    # Sizes are summed as floats: exact below 2**53, and no size overflows them.
    cores = np.bincount(node, [s.cores for s in specs], cluster.nodes)
    memory = np.bincount(node, [s.memory_gb for s in specs], cluster.nodes)
    over = (cores > cluster.node_cores) | (memory > cluster.node_memory_gb)
    if over.any():
        k = node[np.flatnonzero(over[node])[0]]
        raise ValueError(f"node {k} is overcommitted: {int(cores[k])} of "
                         f"{cluster.node_cores} cores, {int(memory[k])} of "
                         f"{cluster.node_memory_gb} GB")

    packed = np.frombuffer(b"".join([p.packed_levels for p in profiles]),
                           np.int64).reshape(n, 2, len(SharedResource))
    pressure, sensitivity = packed[:, 0], packed[:, 1]
    total = np.zeros((cluster.nodes, len(SharedResource)), dtype=np.int64)
    np.add.at(total, node, pressure)
    factor = degradation_factor(total[node] - pressure, sensitivity, cluster.gamma,
                                cluster.pressure_threshold, cluster.constants.levels)
    sds = (factor[:, 0] * factor[:, 1] * factor[:, 2] * factor[:, 3]).tolist()
    p_sys, unfairness = compute_metrics(sds)
    return SlowdownReport(entries=tuple(map(_entry, zip(ids, node_ids, sds))),
                          p_sys=p_sys, unfairness=unfairness)
