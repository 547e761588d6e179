"""Shared value types for capacity planning and contention-aware scheduling.

The pipeline moves three kinds of data between its stages:

* resource configurations (cores, memory) drawn from a bounded grid,
* scaling surfaces, i.e. tables of relative speedup over that grid,
* interference profiles, i.e. per-shared-resource pressure and
  sensitivity levels on a common 0..N scale.

Everything here is a plain frozen dataclass with explicit JSON
round-tripping so that CLI outputs are stable byte-for-byte across
reruns of the same inputs.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "CapacityExhaustedError",
    "ConfigRegion",
    "InfeasibleError",
    "InterferenceProfile",
    "KmpsTrack",
    "NodeConstants",
    "OutOfRegionError",
    "PressureSensitivity",
    "ResourceSpec",
    "ScalingSurface",
    "SharedResource",
    "SystemIndexVector",
    "INDEX_NAMES",
    "canonical_json",
    "round_half_up",
    "write_json",
]


class OutOfRegionError(ValueError):
    """A resource spec lies outside the configured region bounds."""


class InfeasibleError(RuntimeError):
    """No configuration in the region satisfies the requested target."""

    def __init__(self, message: str, best_speedup: float = 0.0):
        super().__init__(message)
        self.best_speedup = best_speedup


class CapacityExhaustedError(RuntimeError):
    """No node has enough free capacity for a deployment request."""


def round_half_up(x: float) -> int:
    """Round to the nearest integer with ties going up.

    Pressure discretization specifies half-up rounding, which differs
    from Python's bankers rounding: round_half_up(4.5) == 5, not 4.
    """
    return int(math.floor(x + 0.5))


def canonical_json(obj) -> str:
    """Serialize to the one JSON form used for every artifact file."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj))


@dataclass(frozen=True, order=True)
class ResourceSpec:
    """A resource configuration: CPU cores and memory in GB."""

    cores: int
    memory_gb: int

    def __post_init__(self):
        if self.cores < 1 or self.memory_gb < 1:
            raise ValueError(f"spec must be positive, got {self}")

    @property
    def key(self) -> str:
        return f"{self.cores}c{self.memory_gb}g"

    def to_json(self) -> dict:
        return {"cores": self.cores, "memory_gb": self.memory_gb}

    @classmethod
    def from_json(cls, obj: dict) -> "ResourceSpec":
        return cls(cores=int(obj["cores"]), memory_gb=int(obj["memory_gb"]))

    @classmethod
    def parse(cls, text: str) -> "ResourceSpec":
        """Parse '6c8g' or '6,8' into a spec."""
        t = text.strip().lower()
        if "c" in t:
            c, _, m = t.partition("c")
            m = m.rstrip("g")
        else:
            c, _, m = t.partition(",")
        return cls(cores=int(c), memory_gb=int(m))


# Default grid. Cores step by at most 2 so a grid neighbor is never
# more than 2 cores / 4 GB away, and (1c, 2g) is a valid base config.
DEFAULT_CORE_LEVELS = (1, 2, 4, 6, 8, 10, 12)
DEFAULT_MEMORY_LEVELS = (2, 4, 6, 8, 12, 16)


@dataclass(frozen=True)
class ConfigRegion:
    """The bounded grid of configurations a tenant may be assigned.

    Bounds checks (contains) accept any integer spec inside the
    rectangle spanned by the level sets; grid membership is stricter.
    """

    core_levels: tuple[int, ...] = DEFAULT_CORE_LEVELS
    memory_levels_gb: tuple[int, ...] = DEFAULT_MEMORY_LEVELS

    def __post_init__(self):
        for name, levels in (("core_levels", self.core_levels),
                             ("memory_levels_gb", self.memory_levels_gb)):
            if len(levels) < 1:
                raise ValueError(f"{name} must be non-empty")
            if list(levels) != sorted(set(levels)):
                raise ValueError(f"{name} must be strictly increasing: {levels}")
            if levels[0] < 1:
                raise ValueError(f"{name} must be positive: {levels}")

    def specs(self) -> tuple[ResourceSpec, ...]:
        """All grid points, cores-major, ascending."""
        return tuple(ResourceSpec(c, m)
                     for c in self.core_levels for m in self.memory_levels_gb)

    def contains(self, spec: ResourceSpec) -> bool:
        return (self.core_levels[0] <= spec.cores <= self.core_levels[-1]
                and self.memory_levels_gb[0] <= spec.memory_gb <= self.memory_levels_gb[-1])

    def is_grid_point(self, spec: ResourceSpec) -> bool:
        return spec.cores in self.core_levels and spec.memory_gb in self.memory_levels_gb

    def require(self, spec: ResourceSpec) -> None:
        if not self.contains(spec):
            raise OutOfRegionError(f"{spec} outside region "
                                   f"[{self.core_levels[0]}-{self.core_levels[-1]}c, "
                                   f"{self.memory_levels_gb[0]}-{self.memory_levels_gb[-1]}g]")

    @property
    def max_spec(self) -> ResourceSpec:
        return ResourceSpec(self.core_levels[-1], self.memory_levels_gb[-1])

    def to_json(self) -> dict:
        return {"core_levels": list(self.core_levels),
                "memory_levels_gb": list(self.memory_levels_gb)}

    @classmethod
    def from_json(cls, obj: dict) -> "ConfigRegion":
        return cls(core_levels=tuple(int(v) for v in obj["core_levels"]),
                   memory_levels_gb=tuple(int(v) for v in obj["memory_levels_gb"]))


def _bracket(levels: tuple[int, ...], value: float) -> tuple[int, int, float]:
    """Bracketing grid levels and the interpolation weight of the upper one."""
    if value <= levels[0]:
        return levels[0], levels[0], 0.0
    if value >= levels[-1]:
        return levels[-1], levels[-1], 0.0
    for lo, hi in zip(levels, levels[1:]):
        if lo <= value <= hi:
            t = 0.0 if hi == lo else (value - lo) / (hi - lo)
            return lo, hi, t
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class ScalingSurface:
    """Relative speedup of one workload over a config region.

    Values are TPS(spec) / TPS(base_spec), so the entry at base_spec is
    exactly 1.0. Off-grid specs inside the region bounds are evaluated
    by bilinear interpolation between the bracketing grid levels, which
    preserves monotonicity and is exact on grid points.
    """

    region: ConfigRegion
    base_spec: ResourceSpec
    speedups: dict[ResourceSpec, float]

    def __post_init__(self):
        missing = [s for s in self.region.specs() if s not in self.speedups]
        if missing:
            raise ValueError(f"surface missing {len(missing)} grid points, e.g. {missing[0]}")
        if not self.region.is_grid_point(self.base_spec):
            raise ValueError(f"base {self.base_spec} not on grid")
        base = self.speedups[self.base_spec]
        if not math.isclose(base, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"speedup at base must be 1.0, got {base}")
        for s, v in self.speedups.items():
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"speedup at {s.key} must be finite positive, got {v}")

    def speedup_at(self, spec: ResourceSpec) -> float:
        self.region.require(spec)
        got = self.speedups.get(spec)
        if got is not None:
            return got
        c0, c1, tc = _bracket(self.region.core_levels, spec.cores)
        m0, m1, tm = _bracket(self.region.memory_levels_gb, spec.memory_gb)
        s = self.speedups
        lo = s[ResourceSpec(c0, m0)] + tm * (s[ResourceSpec(c0, m1)] - s[ResourceSpec(c0, m0)])
        hi = s[ResourceSpec(c1, m0)] + tm * (s[ResourceSpec(c1, m1)] - s[ResourceSpec(c1, m0)])
        return lo + tc * (hi - lo)

    def vector(self) -> np.ndarray:
        """Speedups flattened in the region's canonical spec order."""
        return np.array([self.speedups[s] for s in self.region.specs()], dtype=float)

    @classmethod
    def from_vector(cls, region: ConfigRegion, base_spec: ResourceSpec,
                    values: np.ndarray) -> "ScalingSurface":
        specs = region.specs()
        if len(values) != len(specs):
            raise ValueError(f"expected {len(specs)} values, got {len(values)}")
        return cls(region=region, base_spec=base_spec,
                   speedups={s: float(v) for s, v in zip(specs, values)})

    def rebase(self, new_base: ResourceSpec) -> "ScalingSurface":
        """Re-anchor so the entry at new_base becomes 1.0."""
        anchor = self.speedups[new_base] if new_base in self.speedups else None
        if anchor is None:
            raise ValueError(f"{new_base} not on grid")
        rebased = {s: v / anchor for s, v in self.speedups.items()}
        rebased[new_base] = 1.0
        return ScalingSurface(region=self.region, base_spec=new_base, speedups=rebased)

    def is_monotone(self, tol: float = 1e-9) -> bool:
        """Non-decreasing along both resource axes."""
        cl, ml = self.region.core_levels, self.region.memory_levels_gb
        for i, c in enumerate(cl):
            for j, m in enumerate(ml):
                v = self.speedups[ResourceSpec(c, m)]
                if i + 1 < len(cl) and self.speedups[ResourceSpec(cl[i + 1], m)] < v - tol:
                    return False
                if j + 1 < len(ml) and self.speedups[ResourceSpec(c, ml[j + 1])] < v - tol:
                    return False
        return True

    def to_json(self) -> dict:
        return {"base_spec": self.base_spec.to_json(),
                "speedups": {s.key: v for s, v in sorted(self.speedups.items())}}

    @classmethod
    def from_json(cls, region: ConfigRegion, obj: dict) -> "ScalingSurface":
        speedups = {ResourceSpec.parse(k): float(v) for k, v in obj["speedups"].items()}
        return cls(region=region, base_spec=ResourceSpec.from_json(obj["base_spec"]),
                   speedups=speedups)


@dataclass(frozen=True)
class SystemIndexVector:
    """One observation of the 15 system-level indexes, in a fixed order.

    These are the observable per-workload counters a deployed database
    exposes without any application-level instrumentation.
    """

    ipc: float
    dtlb_store_misses: float
    cache_misses: float
    node_stores: float
    io_read_bytes: float
    io_serviced_read: float
    memory_usage: float
    cpu_usage: float
    page_fault: float
    dtlb_load_misses: float
    cache_references: float
    node_loads: float
    io_write_bytes: float
    io_serviced_write: float
    dirty_memory: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"index {f.name} must be finite non-negative, got {v}")
        if self.cache_misses > self.cache_references + 1e-9:
            raise ValueError("cache_misses cannot exceed cache_references")

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, n) for n in INDEX_NAMES], dtype=float)

    @classmethod
    def from_array(cls, values) -> "SystemIndexVector":
        arr = np.asarray(values, dtype=float)
        if arr.shape != (len(INDEX_NAMES),):
            raise ValueError(f"expected {len(INDEX_NAMES)} values, got shape {arr.shape}")
        return cls(**{n: float(v) for n, v in zip(INDEX_NAMES, arr)})

    def to_json(self) -> dict:
        return {n: getattr(self, n) for n in INDEX_NAMES}

    @classmethod
    def from_json(cls, obj: dict) -> "SystemIndexVector":
        return cls(**{n: float(obj[n]) for n in INDEX_NAMES})


INDEX_NAMES = tuple(f.name for f in fields(SystemIndexVector))


class SharedResource(enum.Enum):
    """Node-level shared resources a co-located tenant can contend on."""

    LLC = "llc"
    MEMORY_BANDWIDTH = "membw"
    DISK = "disk"
    NETWORK = "network"


@dataclass(frozen=True)
class PressureSensitivity:
    """Levels on the common 0..N contention scale.

    pressure: how hard the workload pushes on the resource.
    sensitivity: how much the workload suffers when others push.
    """

    pressure: int
    sensitivity: int

    def __post_init__(self):
        if self.pressure < 0 or self.sensitivity < 0:
            raise ValueError(f"levels must be non-negative, got {self}")


@dataclass(frozen=True)
class InterferenceProfile:
    """Pressure and sensitivity for each shared resource."""

    llc: PressureSensitivity
    membw: PressureSensitivity
    disk: PressureSensitivity
    network: PressureSensitivity

    def get(self, resource: SharedResource) -> PressureSensitivity:
        return getattr(self, resource.value)

    def items(self) -> tuple[tuple[SharedResource, PressureSensitivity], ...]:
        return tuple((r, self.get(r)) for r in SharedResource)

    def to_json(self) -> dict:
        return {r.value: {"pressure": ps.pressure, "sensitivity": ps.sensitivity}
                for r, ps in self.items()}

    @classmethod
    def from_json(cls, obj: dict) -> "InterferenceProfile":
        kw = {}
        for r in SharedResource:
            e = obj[r.value]
            kw[r.value] = PressureSensitivity(int(e["pressure"]), int(e["sensitivity"]))
        return cls(**kw)

    @classmethod
    def zero(cls) -> "InterferenceProfile":
        z = PressureSensitivity(0, 0)
        return cls(llc=z, membw=z, disk=z, network=z)


@dataclass(frozen=True)
class KmpsTrack:
    """Cache misses per kilo-instruction as cache ways shrink.

    values[i] is the kmps measured with (i + 1) ways allocated, so the
    last entry is the full-cache measurement. Misses cannot decrease
    when ways are taken away.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) < 1:
            raise ValueError("track needs at least one way")
        for v in self.values:
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"kmps must be finite non-negative, got {v}")
        for lo_ways, hi_ways in zip(self.values, self.values[1:]):
            if hi_ways > lo_ways + 1e-9:
                raise ValueError("kmps must be non-increasing as ways grow")

    @property
    def ways(self) -> int:
        return len(self.values)

    def at_ways(self, ways: int) -> float:
        if not 1 <= ways <= len(self.values):
            raise ValueError(f"ways must be in 1..{len(self.values)}, got {ways}")
        return self.values[ways - 1]

    def distance(self, other: "KmpsTrack") -> float:
        if other.ways != self.ways:
            raise ValueError("tracks cover different way counts")
        return float(sum((a - b) ** 2 for a, b in zip(self.values, other.values)))

    def to_json(self) -> list:
        return list(self.values)

    @classmethod
    def from_json(cls, obj) -> "KmpsTrack":
        return cls(values=tuple(float(v) for v in obj))


@dataclass(frozen=True)
class NodeConstants:
    """Physical capacities of one node's shared resources.

    Used both to discretize measured usage into pressure levels and to
    parameterize the simulated probe. Bandwidths are GB/s, disk is
    IOPS, the LLC is divided into equal ways.
    """

    phy_membw_gbps: float = 20.0
    phy_network_gbps: float = 25.0
    iops_per_level: float = 1000.0
    llc_ways: int = 11
    levels: int = 20
    kmps_per_level: float = 100.0

    def __post_init__(self):
        if self.levels < 1 or self.llc_ways < 1:
            raise ValueError("levels and llc_ways must be positive")
        for name in ("phy_membw_gbps", "phy_network_gbps", "iops_per_level", "kmps_per_level"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    def to_json(self) -> dict:
        return {"phy_membw_gbps": self.phy_membw_gbps,
                "phy_network_gbps": self.phy_network_gbps,
                "iops_per_level": self.iops_per_level,
                "llc_ways": self.llc_ways,
                "levels": self.levels,
                "kmps_per_level": self.kmps_per_level}

    @classmethod
    def from_json(cls, obj: dict) -> "NodeConstants":
        return cls(phy_membw_gbps=float(obj["phy_membw_gbps"]),
                   phy_network_gbps=float(obj["phy_network_gbps"]),
                   iops_per_level=float(obj["iops_per_level"]),
                   llc_ways=int(obj["llc_ways"]),
                   levels=int(obj["levels"]),
                   kmps_per_level=float(obj["kmps_per_level"]))
