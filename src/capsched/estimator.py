"""Pressure and sensitivity estimation for the four shared node resources.

A tenant that looks cheap on paper can still wreck its neighbors
through the last-level cache, memory bandwidth, disk IOPS or the NIC.
This module quantifies both directions of that risk for one workload
running solo on a probe-equipped node:

* pressure: how hard the workload pushes on a resource, discretized
  onto a 0..N level scale from its measured usage,
* sensitivity: how much the workload suffers when something else
  pushes: the first level of a calibrated stressor at which the
  workload's own usage drops by at least 10%. A bisection over levels
  1..N finds it in at most ceil(log2(N + 1)) stress runs, assuming the
  drop never shrinks as the level rises, which holds for a noise-free
  probe. With a noisy probe the response need not be monotone, so its
  profiles may differ from those of an ascending scan.

The LLC is special cased: pressure comes from matching the workload's
kmps track (kilo LLC misses per second as a function of allocated
cache ways) against reference tracks of calibrated stress programs,
and sensitivity from shrinking the allocation until kmps rises by at
least 10% over the full-cache value.

Only the probe touches a node. `SimulatedProbe` answers from a
ground-truth resource footprint in place of CAT, fio and friends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import (
    InterferenceProfile,
    JsonRecord,
    NodeConstants,
    PressureSensitivity,
    SharedResource,
    decode,
    round_half_up,
)

__all__ = [
    "RATE_FIELDS",
    "ReferenceTracks",
    "ResourceFootprint",
    "SimulatedProbe",
    "build_profile",
    "llc_sensitivity_ways",
    "pressure_level",
    "quantify_llc",
    "quantify_rate",
    "rate_capacity",
    "stress_reference_tracks",
    "ways_to_level",
]

# Relative degradation that counts as "affected" during a sweep.
DEGRADATION_THRESHOLD = 0.10

# Usage lost per stress level beyond a workload's tolerance, in the
# simulated probe. 0.15 > threshold so the first crossing is sharp.
STRESS_DROP_PER_LEVEL = 0.15


@dataclass(frozen=True)
class ResourceFootprint(JsonRecord):
    """Ground truth of how one workload uses the shared resources.

    Usage rates are the values at full activity (largest config);
    deployment at a smaller config scales them down. Sensitivities are
    the generative tolerance levels the estimator is supposed to
    recover. LLC sensitivity is implied by demand_ways and
    demand_slope: shrinking the allocation below demand_ways raises
    kmps by demand_slope per way taken.
    """

    kmps_base: float
    demand_ways: float
    demand_slope: float
    membw_gbps: float
    iops: float
    network_gbps: float
    sens_membw: int
    sens_disk: int
    sens_network: int

    def __post_init__(self):
        for name in ("kmps_base", "demand_ways", "demand_slope",
                     "membw_gbps", "iops", "network_gbps"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("sens_membw", "sens_disk", "sens_network"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def kmps_at(self, ways: float) -> float:
        """Kmps at full activity with the allocation capped at `ways`."""
        return self.kmps_base * (1.0 + self.demand_slope
                                 * max(0.0, self.demand_ways - ways))


# Each rate resource's ResourceFootprint fields: its usage rate at full
# activity and its sensitivity level. The order is the order in which
# build_profile probes them, so noisy probes draw noise in that order.
RATE_FIELDS = {
    SharedResource.MEMORY_BANDWIDTH: ("membw_gbps", "sens_membw"),
    SharedResource.DISK: ("iops", "sens_disk"),
    SharedResource.NETWORK: ("network_gbps", "sens_network"),
}


class SimulatedProbe:
    """Measurement channel to one workload running solo on a node,
    backed by a ground-truth footprint instead of hardware.

    Stress level 0 means no stress. Bandwidth stressors are LLC
    neutral (confined to minimal cache), so stressing one resource
    does not disturb the others' readings.

    activity scales the footprint's usage rates to the spec the
    workload is deployed on (1.0 = full activity). Under stress the
    usage drops linearly once the stress level passes the workload's
    tolerance; the tolerance is levels - sensitivity, so the first
    >=10% drop lands exactly at tolerance + 1.

    noise_sigma adds multiplicative log-normal noise to every reading,
    drawn from a generator seeded by seed. It defaults to off, and then
    no generator is built, so repeated estimates are bit-identical.
    """

    def __init__(self, constants: NodeConstants, footprint: ResourceFootprint,
                 activity: float = 1.0, noise_sigma: float = 0.0, seed: int = 0):
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        if not noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._constants = constants
        self._footprint = footprint
        self._activity = activity
        self._noise_sigma = noise_sigma
        self._rng = (np.random.default_rng(np.random.SeedSequence([seed]))
                     if noise_sigma > 0 else None)

    @property
    def constants(self) -> NodeConstants:
        """Physical capacities of the node behind the probe."""
        return self._constants

    def _noisy(self, value: float) -> float:
        if self._rng is None:
            return value
        return value * float(np.exp(self._noise_sigma * self._rng.standard_normal()))

    def _solo_usage(self, resource: SharedResource) -> float:
        f, a = self._footprint, self._activity
        if resource is SharedResource.LLC:
            return a * f.kmps_at(self._constants.llc_ways)
        return a * getattr(f, RATE_FIELDS[resource][0])

    def _tolerance(self, resource: SharedResource) -> int:
        n = self._constants.levels
        return n - min(getattr(self._footprint, RATE_FIELDS[resource][1]), n)

    def read_usage(self, resource: SharedResource) -> float:
        """Solo usage in native units: kmps, GB/s, IOPS, GB/s."""
        return self._noisy(self._solo_usage(resource))

    def set_llc_ways(self, ways: int) -> float:
        """Restrict the workload to `ways` cache ways, return its kmps."""
        if not 1 <= ways <= self._constants.llc_ways:
            raise ValueError(f"ways must be in 1..{self._constants.llc_ways}, got {ways}")
        return self._noisy(self._activity * self._footprint.kmps_at(ways))

    def apply_stress(self, resource: SharedResource, level: int) -> float:
        """Run the level-`level` stressor, return the workload's usage."""
        if resource is SharedResource.LLC:
            raise ValueError("LLC sensitivity uses set_llc_ways, not a stressor")
        if level < 0:
            raise ValueError("stress level must be non-negative")
        solo = self._solo_usage(resource)
        if level == 0:
            return self._noisy(solo)
        excess = max(0, level - self._tolerance(resource))
        return self._noisy(solo * max(0.0, 1.0 - STRESS_DROP_PER_LEVEL * excess))


@dataclass(frozen=True, eq=False)
class ReferenceTracks:
    """Kmps tracks of the calibrated stress programs, one row per level.

    kmps[i, w - 1] is the kmps of the levels[i] program with w cache
    ways allocated, a read-only float array, so the last column is the
    full-cache reading. Rows are sorted by level at construction, rows
    of one level keeping their order, and no row rises as ways grow.
    """

    levels: tuple[int, ...]
    kmps: np.ndarray

    def __post_init__(self):
        order = sorted(range(len(self.levels)), key=self.levels.__getitem__)
        levels = tuple(self.levels[i] for i in order)
        kmps = np.array(self.kmps, dtype=float)
        if not levels:
            raise ValueError("reference tracks list no levels")
        if kmps.ndim != 2 or len(kmps) != len(levels) or kmps.shape[1] < 1:
            raise ValueError(f"reference tracks need kmps of shape ({len(levels)}, ways), "
                             f"ways >= 1, got {kmps.shape}")
        kmps = kmps[order]
        kmps.setflags(write=False)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "kmps", kmps)
        if levels[0] < 0:
            raise ValueError(f"reference levels must be non-negative, got {levels[0]}")
        bad = ~(np.isfinite(kmps) & (kmps >= 0))
        bad[:, 1:] |= kmps[:, 1:] > kmps[:, :-1] + 1e-9
        if bad.any():
            raise ValueError(f"kmps of level {levels[np.argwhere(bad)[0][0]]} must be finite, "
                             "non-negative and non-increasing as ways grow")

    @property
    def ways(self) -> int:
        return self.kmps.shape[1]

    def nearest_level(self, kmps: Sequence[float]) -> int:
        """Level of the row nearest a kmps track in squared distance.

        kmps[w - 1] is the reading with w ways. Distances sum left to
        right, and ties go to the first (lowest) level, so results are
        deterministic.
        """
        track = np.array(kmps, dtype=float)
        if track.shape != (self.ways,):
            raise ValueError(f"track has shape {track.shape}, the reference "
                             f"tracks cover {self.ways} ways")
        if not (np.isfinite(track) & (track >= 0)).all():
            raise ValueError(f"kmps must be finite non-negative, got {list(kmps)}")
        distance = np.cumsum((self.kmps - track) ** 2, axis=1)[:, -1]
        return self.levels[int(np.argmin(distance))]

    def to_json(self) -> dict:
        return {"schema": "reference-tracks/v1",
                "tracks": [{"level": level, "kmps": row}
                           for level, row in zip(self.levels, self.kmps.tolist())]}

    @classmethod
    def from_json(cls, obj, where: str = "tracks") -> "ReferenceTracks":
        """The table whose JSON form is obj; any fault names where."""
        rows = decode({"schema": Literal["reference-tracks/v1"], "tracks": list},
                      obj, where)["tracks"]
        rows = [decode({"level": int, "kmps": tuple[float, ...]}, row,
                       f"{where}.tracks[{i}]") for i, row in enumerate(rows)]
        ways = sorted({len(row["kmps"]) for row in rows})
        if len(ways) > 1:
            raise ValueError(f"{where}: tracks cover different way counts {ways}")
        try:
            return cls(levels=tuple(row["level"] for row in rows),
                       kmps=[row["kmps"] for row in rows])
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


def stress_reference_tracks(constants: NodeConstants) -> ReferenceTracks:
    """Kmps tracks of the calibrated stress programs, one per level.

    The level-L program misses at L * kmps_per_level with the full
    cache and ramps up as its allocation shrinks below 8 ways. Level 0
    is the idle track. Shape is shared across levels so the matched
    level grows with the measured miss volume.
    """
    shape = [1.0 + 0.08 * max(0.0, 8.0 - ways) for ways in range(1, constants.llc_ways + 1)]
    levels = range(constants.levels + 1)
    return ReferenceTracks(levels=tuple(levels),
                           kmps=np.outer(np.multiply(levels, constants.kmps_per_level),
                                         shape))


def pressure_level(usage: float, physical: float, n_levels: int) -> int:
    """Discretize usage of a shared resource onto 0..n_levels.

    Round-half-up, then clamp: pressure = round(n_levels * usage / physical).
    """
    if physical <= 0:
        raise ValueError("physical capacity must be positive")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if usage < 0:
        raise ValueError("usage must be non-negative")
    return min(n_levels, round_half_up(n_levels * usage / physical))


def llc_sensitivity_ways(kmps: Sequence[float]) -> int:
    """Way count at the first >=10% kmps rise, scanning from full cache down.

    kmps[w - 1] is the reading with w ways. The result is the largest w
    with kmps_w > kmps_full and kmps_w >= (1 + DEGRADATION_THRESHOLD) *
    kmps_full. A flat (or all-zero) track never crosses and scores 0:
    the workload does not care about the cache.
    """
    full = kmps[-1]
    for ways in range(len(kmps) - 1, 0, -1):
        k = kmps[ways - 1]
        if k > full and k >= (1.0 + DEGRADATION_THRESHOLD) * full:
            return ways
    return 0


def ways_to_level(ways: int, llc_ways: int, n_levels: int) -> int:
    """Map a way-count sensitivity onto the shared 0..N level scale."""
    return min(n_levels, round_half_up(ways * n_levels / llc_ways))


def quantify_llc(probe: SimulatedProbe,
                 reference_tracks: ReferenceTracks) -> PressureSensitivity:
    """Pressure from track matching, sensitivity from way shrinking."""
    w = probe.constants.llc_ways
    kmps = [probe.set_llc_ways(ways) for ways in range(w, 0, -1)][::-1]
    pressure = reference_tracks.nearest_level(kmps)
    sensitivity = ways_to_level(llc_sensitivity_ways(kmps), w, probe.constants.levels)
    return PressureSensitivity(pressure=pressure, sensitivity=sensitivity)


def _sweep_sensitivity(probe: SimulatedProbe, resource: SharedResource,
                       n_levels: int, baseline: float) -> int:
    """Bisection stress sweep for the first level with a >=10% drop.

    Returns n_levels - max_unaffected_level, 0 when no level up to
    n_levels crosses. The baseline is the unstressed (level 0) reading
    per the protocol. The search assumes the drop never shrinks as the
    level rises, and then finds the level an ascending scan would, in
    at most ceil(log2(n_levels + 1)) stress runs.
    """
    if baseline <= 0:
        return 0
    lo, hi = 1, n_levels + 1  # first crossing in lo..hi; n_levels + 1: none
    while lo < hi:
        level = (lo + hi) // 2
        usage = probe.apply_stress(resource, level)
        if baseline - usage >= DEGRADATION_THRESHOLD * baseline:
            hi = level
        else:
            lo = level + 1
    return n_levels - (lo - 1)


def rate_capacity(constants: NodeConstants, resource: SharedResource) -> float:
    """Physical capacity a rate resource's usage is discretized against.

    Disk has no bandwidth ceiling of its own; its scale is `levels`
    steps of iops_per_level.
    """
    if resource is SharedResource.MEMORY_BANDWIDTH:
        return constants.phy_membw_gbps
    if resource is SharedResource.DISK:
        return constants.levels * constants.iops_per_level
    if resource is SharedResource.NETWORK:
        return constants.phy_network_gbps
    raise ValueError(f"{resource} is not a rate resource")


def quantify_rate(probe: SimulatedProbe, resource: SharedResource) -> PressureSensitivity:
    """Pressure from solo usage, sensitivity from a bisection stress sweep."""
    constants = probe.constants
    usage = probe.apply_stress(resource, 0)
    pressure = pressure_level(usage, rate_capacity(constants, resource),
                              constants.levels)
    sens = _sweep_sensitivity(probe, resource, constants.levels, usage)
    return PressureSensitivity(pressure=pressure, sensitivity=sens)


def build_profile(probe: SimulatedProbe,
                  reference_tracks: ReferenceTracks) -> InterferenceProfile:
    """Quantify all four resources, one at a time, and assemble the profile.

    LLC pressure is read off reference_tracks, the calibrated stress
    tracks of the probe's node constants; a table of another way count
    is refused before anything is probed.
    """
    if reference_tracks.ways != probe.constants.llc_ways:
        raise ValueError(f"reference tracks cover {reference_tracks.ways} ways, "
                         f"the probe's node has {probe.constants.llc_ways}")
    return InterferenceProfile(
        llc=quantify_llc(probe, reference_tracks),
        **{r.value: quantify_rate(probe, r) for r in RATE_FIELDS})
