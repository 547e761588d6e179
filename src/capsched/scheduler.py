"""Contention-aware placement of workloads onto shared nodes.

Each candidate node is scored by combining the interference profiles
of the tenants it would hold after the placement: per shared resource,
the worst-case sensitivity among tenants is multiplied by the summed
pressure, amplified geometrically so crowded resources dominate. The
score trades that risk against how full the node would be, steering
placements toward nodes that are busy but calm. A least-requested
baseline policy is included for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import (
    CapacityExhaustedError,
    InterferenceProfile,
    ResourceSpec,
    SharedResource,
    decode,
)

DEFAULT_NODE_CORES = 96
DEFAULT_NODE_MEMORY_GB = 256
DEFAULT_SCALER = 1.1

POLICY_URSA = "ursa"
POLICY_LRP = "lrp"

# The JSON fields of one tenant request, in the order of place()'s
# (workload_id, spec, profile) tuples. A workload id is an int or a
# string, as the file gives it.
REQUEST_FIELDS = {"workload_id": int | str, "spec": ResourceSpec,
                  "profile": InterferenceProfile}


@dataclass
class NodeState:
    """Mutable view of one node: capacity, committed resources, tenants."""

    node_id: int
    capacity: ResourceSpec = ResourceSpec(DEFAULT_NODE_CORES, DEFAULT_NODE_MEMORY_GB)
    used_cores: int = 0
    used_memory_gb: int = 0
    deployed: list[tuple[str, ResourceSpec, InterferenceProfile]] = field(
        default_factory=list)

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if self.used_cores < 0 or self.used_memory_gb < 0:
            raise ValueError("used resources must be non-negative")
        if (self.used_cores > self.capacity.cores
                or self.used_memory_gb > self.capacity.memory_gb):
            raise ValueError("used resources exceed capacity")

    @property
    def free_cores(self) -> int:
        return self.capacity.cores - self.used_cores

    @property
    def free_memory_gb(self) -> int:
        return self.capacity.memory_gb - self.used_memory_gb

    def fits(self, spec: ResourceSpec) -> bool:
        return spec.cores <= self.free_cores and spec.memory_gb <= self.free_memory_gb

    def sum_pressure(self, resource: SharedResource) -> int:
        return sum(profile.get(resource).pressure for _, _, profile in self.deployed)

    def max_sensitivity(self, resource: SharedResource) -> int:
        # An empty node has nothing that could be hurt.
        if not self.deployed:
            return 0
        return max(profile.get(resource).sensitivity for _, _, profile in self.deployed)

    def add(self, workload_id: str, spec: ResourceSpec,
            profile: InterferenceProfile) -> None:
        if not self.fits(spec):
            raise CapacityExhaustedError(
                f"workload {workload_id!r} does not fit on node {self.node_id}")
        self.used_cores += spec.cores
        self.used_memory_gb += spec.memory_gb
        self.deployed.append((workload_id, spec, profile))

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "capacity": self.capacity.to_json(),
            "used_cores": self.used_cores,
            "used_memory_gb": self.used_memory_gb,
            "deployed": [
                {"workload_id": wid, "spec": spec.to_json(),
                 "profile": profile.to_json()}
                for wid, spec, profile in self.deployed
            ],
        }

    @classmethod
    def from_json(cls, data, where: str = "node") -> "NodeState":
        """A node from its JSON form; used_* and deployed may be left out."""
        data = {"used_cores": 0, "used_memory_gb": 0, "deployed": [],
                **decode(dict, data, where)}
        got = decode({"node_id": int, "capacity": ResourceSpec, "used_cores": int,
                      "used_memory_gb": int, "deployed": list}, data, where)
        got["deployed"] = [
            tuple(decode(REQUEST_FIELDS, d, f"{where}.deployed[{i}]").values())
            for i, d in enumerate(got["deployed"])]
        return cls(**got)


@dataclass(frozen=True)
class ScheduleConfig:
    policy: str = POLICY_URSA
    scaler: float = DEFAULT_SCALER

    def __post_init__(self) -> None:
        if self.policy not in (POLICY_URSA, POLICY_LRP):
            raise ValueError(f"unknown policy {self.policy!r}")
        if not self.scaler > 1.0:
            raise ValueError("scaler must be > 1")


@dataclass(frozen=True)
class Placement:
    workload_id: str
    node_id: int
    score: float

    def to_json(self) -> dict:
        return {"workload_id": self.workload_id, "node_id": self.node_id,
                "score": self.score}


def contention_risk(node: NodeState, scaler: float = DEFAULT_SCALER,
                    incoming: InterferenceProfile = InterferenceProfile.zero()) -> float:
    """Amplified pressure-sensitivity product summed over shared resources.

    Per resource: (max sensitivity among tenants) * (summed pressure)
    * scaler ** (summed pressure), over the node's tenants plus
    `incoming`. The default zero profile adds nothing to either term,
    so an empty node scores zero.
    """
    if not scaler > 1.0:
        raise ValueError("scaler must be > 1")
    total = 0.0
    for resource in SharedResource:
        ps = incoming.get(resource)
        sum_p = node.sum_pressure(resource) + ps.pressure
        max_s = max(node.max_sensitivity(resource), ps.sensitivity)
        total += max_s * sum_p * scaler ** sum_p
    return total


def score_node(node: NodeState, spec: ResourceSpec, profile: InterferenceProfile,
               config: ScheduleConfig = ScheduleConfig()) -> float:
    """Score the hypothetical state of `node` after placing the workload.

    Lower is better: contention risk of the combined tenant set times
    the node's average utilization fraction, both taken after the
    placement.
    """
    if not node.fits(spec):
        raise CapacityExhaustedError(
            f"spec {spec.key} does not fit on node {node.node_id}")
    risk = contention_risk(node, config.scaler, profile)
    usage_ave = 0.5 * ((node.used_cores + spec.cores) / node.capacity.cores
                       + (node.used_memory_gb + spec.memory_gb)
                       / node.capacity.memory_gb)
    return risk * usage_ave


def _lrp_score(node: NodeState, spec: ResourceSpec) -> float:
    # Least requested: how much of the node's currently free capacity
    # the request would claim, averaged over cores and memory.
    return 0.5 * (spec.cores / node.free_cores
                  + spec.memory_gb / node.free_memory_gb)


def place(requests: Iterable[tuple[str, ResourceSpec, InterferenceProfile]],
          nodes: Sequence[NodeState],
          config: ScheduleConfig = ScheduleConfig()) -> list[Placement]:
    """Place each request in order onto the best feasible node.

    Mutates the chosen node's state after every placement so later
    requests see the updated cluster. Ties break toward the lowest
    node id. Raises CapacityExhaustedError when no node can hold a
    request, and ValueError, before any node is touched, when two
    requests share a workload id.
    """
    if len({n.node_id for n in nodes}) != len(nodes):
        raise ValueError("node ids must be unique")
    requests = list(requests)
    seen = set()
    for workload_id, _, _ in requests:
        if workload_id in seen:
            raise ValueError(f"duplicate workload id {workload_id!r}")
        seen.add(workload_id)
    placements: list[Placement] = []
    for workload_id, spec, profile in requests:
        feasible = [n for n in nodes if n.fits(spec)]
        if not feasible:
            raise CapacityExhaustedError(
                f"no node can hold workload {workload_id!r} ({spec.key})")
        if config.policy == POLICY_URSA:
            scored = [(score_node(n, spec, profile, config), n) for n in feasible]
        else:
            scored = [(_lrp_score(n, spec), n) for n in feasible]
        best_score, best = min(scored, key=lambda sn: (sn[0], sn[1].node_id))
        best.add(workload_id, spec, profile)
        placements.append(Placement(workload_id, best.node_id, best_score))
    return placements
