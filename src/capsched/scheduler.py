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

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CapacityExhaustedError,
    InterferenceProfile,
    ResourceSpec,
    SharedResource,
    decode,
    fields_json,
    reject_unknown_keys,
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


def request_json(workload_id: int | str, spec: ResourceSpec,
                 profile: InterferenceProfile) -> dict:
    """The JSON form of one request, as REQUEST_FIELDS reads it."""
    return {"workload_id": workload_id, "spec": spec.to_json(),
            "profile": profile.to_json()}


@dataclass
class NodeState:
    """Mutable view of one node: capacity, committed resources, tenants.

    Tenants join through add(), which keeps the per-resource summed
    pressure and max sensitivity of `deployed` current, so scoring a
    node never rescans its tenants.
    """

    node_id: int
    capacity: ResourceSpec = ResourceSpec(DEFAULT_NODE_CORES, DEFAULT_NODE_MEMORY_GB)
    used_cores: int = 0
    used_memory_gb: int = 0
    deployed: list[tuple[str, ResourceSpec, InterferenceProfile]] = field(
        default_factory=list)
    _sum_p: list[int] = field(init=False, compare=False, repr=False)
    _max_s: list[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if self.used_cores < 0 or self.used_memory_gb < 0:
            raise ValueError("used resources must be non-negative")
        if (self.used_cores > self.capacity.cores
                or self.used_memory_gb > self.capacity.memory_gb):
            raise ValueError("used resources exceed capacity")
        # used_* may exceed what the tenants hold (capacity taken by
        # something unlisted), never fall short of it.
        if (sum(spec.cores for _, spec, _ in self.deployed) > self.used_cores
                or sum(spec.memory_gb for _, spec, _ in self.deployed)
                > self.used_memory_gb):
            raise ValueError("deployed tenants hold more than the used resources")
        # An empty node has nothing that could be hurt: max sensitivity 0.
        self._sum_p = [0] * len(SharedResource)
        self._max_s = [0] * len(SharedResource)
        for _, _, profile in self.deployed:
            self._count(profile)

    def _count(self, profile: InterferenceProfile) -> None:
        self._sum_p = [a + b for a, b in zip(self._sum_p, profile.pressures)]
        self._max_s = list(map(max, self._max_s, profile.sensitivities))

    @property
    def free_cores(self) -> int:
        return self.capacity.cores - self.used_cores

    @property
    def free_memory_gb(self) -> int:
        return self.capacity.memory_gb - self.used_memory_gb

    def fits(self, spec: ResourceSpec) -> bool:
        return spec.cores <= self.free_cores and spec.memory_gb <= self.free_memory_gb

    def add(self, workload_id: str, spec: ResourceSpec,
            profile: InterferenceProfile) -> None:
        if not self.fits(spec):
            raise CapacityExhaustedError(
                f"workload {workload_id!r} does not fit on node {self.node_id}")
        self.used_cores += spec.cores
        self.used_memory_gb += spec.memory_gb
        self.deployed.append((workload_id, spec, profile))
        self._count(profile)

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "capacity": self.capacity.to_json(),
            "used_cores": self.used_cores,
            "used_memory_gb": self.used_memory_gb,
            "deployed": [request_json(*tenant) for tenant in self.deployed],
        }

    @classmethod
    def from_json(cls, data, where: str = "node") -> "NodeState":
        """A node from its JSON form; used_* and deployed may be left out,
        and any other key is refused."""
        types = {"node_id": int, "capacity": ResourceSpec, "used_cores": int,
                 "used_memory_gb": int, "deployed": list}
        reject_unknown_keys(decode(dict, data, where), types, where)
        data = {"used_cores": 0, "used_memory_gb": 0, "deployed": [], **data}
        got = decode(types, data, where)
        got["deployed"] = [
            tuple(decode(REQUEST_FIELDS, d, f"{where}.deployed[{i}]").values())
            for i, d in enumerate(got["deployed"])]
        try:
            return cls(**got)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


def _check_scaler(scaler: float) -> None:
    if not (math.isfinite(scaler) and scaler > 1.0):
        raise ValueError(f"scaler must be finite and > 1, got {scaler!r}")


@dataclass(frozen=True)
class ScheduleConfig:
    policy: str = POLICY_URSA
    scaler: float = DEFAULT_SCALER

    def __post_init__(self) -> None:
        if self.policy not in (POLICY_URSA, POLICY_LRP):
            raise ValueError(f"unknown policy {self.policy!r}")
        _check_scaler(self.scaler)


@dataclass(frozen=True)
class Placement:
    workload_id: str
    node_id: int
    score: float

    def to_json(self) -> dict:
        return fields_json(self)


# Longest power table; a summed pressure past it is far beyond any
# contention scale, and its power is taken on its own.
_TABLE_SIZE = 1 << 16


def _pow(scaler: float, n: int) -> float:
    try:
        return scaler ** n
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=16)
def _powers(scaler: float, size: int) -> np.ndarray:
    """scaler ** i for i < size, each by Python's pow: numpy's power can
    differ from it by an ulp."""
    return np.array([_pow(scaler, i) for i in range(size)])


def _risk(rows: np.ndarray, incoming: InterferenceProfile, scaler: float) -> np.ndarray:
    """Contention risk of each node row of _rows once `incoming` joins.

    Per resource: max sensitivity * summed pressure * scaler ** summed
    pressure, with the int product taken first; the resource columns
    are added left to right (numpy reduces a row of four in order).
    Raises ValueError naming the first node whose risk is not finite.
    """
    _check_scaler(scaler)
    levels = np.frombuffer(incoming.packed_levels, dtype=np.int64)
    sum_p = rows[:, _SUM_P] + levels[:_LEVELS]
    max_s = np.maximum(rows[:, _MAX_S], levels[_LEVELS:])
    top = int(sum_p.max())
    if top < _TABLE_SIZE:
        # Table sizes are powers of two, so the cache sees few of them.
        powers = _powers(scaler, 1 << max(6, top.bit_length()))[sum_p]
    else:
        beyond = sum_p >= _TABLE_SIZE
        powers = _powers(scaler, _TABLE_SIZE)[np.where(beyond, 0, sum_p)]
        powers[beyond] = [_pow(scaler, int(p)) for p in sum_p[beyond]]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        risk = np.add.reduce((max_s * sum_p) * powers, axis=1)
    if not np.isfinite(risk).all():
        row = int(np.argmin(np.isfinite(risk)))
        summed = ", ".join(f"{r.value} {p}" for r, p in zip(SharedResource, sum_p[row]))
        raise ValueError(f"node {rows[row, _NODE_ID]}: contention risk is not finite "
                         f"at scaler {scaler!r} with summed pressure {summed}")
    return risk


def contention_risk(node: NodeState, scaler: float = DEFAULT_SCALER,
                    incoming: InterferenceProfile = InterferenceProfile.zero()) -> float:
    """Amplified pressure-sensitivity product summed over shared resources.

    Per resource: (max sensitivity among tenants) * (summed pressure)
    * scaler ** (summed pressure), over the node's tenants plus
    `incoming`. The default zero profile adds nothing to either term,
    so an empty node scores zero.
    """
    return float(_risk(_rows([node]), incoming, scaler)[0])


# Columns of the int rows that _rows gathers, one row per node.
_USED, _CAP, _NODE_ID = slice(0, 2), slice(2, 4), 4
_LEVELS = len(SharedResource)
_SUM_P = slice(5, 5 + _LEVELS)
_MAX_S = slice(5 + _LEVELS, 5 + 2 * _LEVELS)


def _rows(nodes: Sequence[NodeState]) -> np.ndarray:
    """Used cores and memory, their capacity, node id, then the summed
    pressures and max sensitivities, as one int row per node. The array
    is column-major, so a reduction across a row's few columns runs as
    a few whole-column steps, not a short loop per row."""
    return np.array([(n.used_cores, n.used_memory_gb, n.capacity.cores,
                      n.capacity.memory_gb, n.node_id, *n._sum_p, *n._max_s)
                     for n in nodes], dtype=np.int64,
                    order="F").reshape(len(nodes), 5 + 2 * _LEVELS)


def _scores(rows: np.ndarray, spec: ResourceSpec, profile: InterferenceProfile,
            scaler: float) -> np.ndarray:
    """score_node of each node row; every row must fit `spec`."""
    taken = rows[:, _USED] + (spec.cores, spec.memory_gb)
    usage_ave = 0.5 * np.add.reduce(taken / rows[:, _CAP], axis=1)
    return _risk(rows, profile, scaler) * usage_ave


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
    return float(_scores(_rows([node]), spec, profile, config.scaler)[0])


def _best_ursa(rows: np.ndarray, spec: ResourceSpec, profile: InterferenceProfile,
               scaler: float) -> tuple[int, float] | None:
    # The lowest score among the rows that fit; ties go to the lowest node id.
    fits = rows[:, _CAP] - rows[:, _USED] >= (spec.cores, spec.memory_gb)
    feasible = np.flatnonzero(np.logical_and.reduce(fits, axis=1))
    if not len(feasible):
        return None
    if len(feasible) < len(rows):
        # Column-major again, as _rows makes it, for _scores' reductions.
        rows = np.asfortranarray(rows[feasible])
    scores = _scores(rows, spec, profile, scaler)
    best = int(np.lexsort((rows[:, _NODE_ID], scores))[0])
    return int(feasible[best]), float(scores[best])


def _best_lrp(nodes: Sequence[NodeState], spec: ResourceSpec) -> tuple[int, float] | None:
    # Least requested: how much of the node's currently free capacity the
    # request would claim, averaged over cores and memory. One pass keeps
    # the lowest (score, node id).
    best, best_key = None, None
    for i, node in enumerate(nodes):
        free_cores, free_memory = node.free_cores, node.free_memory_gb
        if spec.cores <= free_cores and spec.memory_gb <= free_memory:
            key = (0.5 * (spec.cores / free_cores + spec.memory_gb / free_memory),
                   node.node_id)
            if best_key is None or key < best_key:
                best, best_key = i, key
    return None if best is None else (best, best_key[0])


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
    ursa = config.policy == POLICY_URSA
    rows = _rows(nodes) if ursa else None
    placements: list[Placement] = []
    for workload_id, spec, profile in requests:
        best = (_best_ursa(rows, spec, profile, config.scaler) if ursa
                else _best_lrp(nodes, spec))
        if best is None:
            raise CapacityExhaustedError(
                f"no node can hold workload {workload_id!r} ({spec.key})")
        i, score = best
        nodes[i].add(workload_id, spec, profile)
        if ursa:
            rows[i] = _rows([nodes[i]])[0]
        placements.append(Placement(workload_id, nodes[i].node_id, score))
    return placements
