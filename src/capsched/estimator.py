"""Pressure and sensitivity estimation for the four shared node resources.

A tenant that looks cheap on paper can still wreck its neighbors
through the last-level cache, memory bandwidth, disk IOPS or the NIC.
This module quantifies both directions of that risk for a batch of
workloads, each running solo on a probe-equipped node of its own:

* pressure: how hard the workload pushes on a resource, discretized
  onto a 0..N level scale from its measured usage,
* sensitivity: how much the workload suffers when something else
  pushes: the first level of a calibrated stressor at which the
  workload's own usage drops by at least 10%. A bisection over levels
  1..N finds it in at most ceil(log2(N + 1)) stress runs, assuming the
  drop never shrinks as the level rises, which holds for a noise-free
  probe. With a noisy probe the response need not be monotone, so its
  profiles may differ from those of an ascending scan.

Every step takes all N workloads of a batch at once: a probe reading
is one array with a row per workload, and the bisections run in
lockstep, each workload keeping its own bounds. A single workload is a
batch of one.

The LLC is special cased: pressure comes from matching the workload's
kmps track (kilo LLC misses per second as a function of allocated
cache ways) against reference tracks of calibrated stress programs,
and sensitivity from shrinking the allocation until kmps rises by at
least 10% over the full-cache value.

Only the probe touches a node. `SimulatedProbe` answers from
ground-truth resource footprints in place of CAT, fio and friends.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
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
    "footprint_table",
    "kmps_tracks",
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

# Kmps tracks that ReferenceTracks.nearest_levels scores at once.
_TRACKS_PER_BLOCK = 64


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


# Each rate resource's ResourceFootprint fields: its usage rate at full
# activity and its sensitivity level. The order is the order in which
# build_profile probes them, so noisy probes draw noise in that order,
# and it is the order of InterferenceProfile's fields after llc.
RATE_FIELDS = {
    SharedResource.MEMORY_BANDWIDTH: ("membw_gbps", "sens_membw"),
    SharedResource.DISK: ("iops", "sens_disk"),
    SharedResource.NETWORK: ("network_gbps", "sens_network"),
}

# Columns of footprint_table by field name; _RATE_COLUMNS and
# _SENS_COLUMNS pick the usage rates and the sensitivities in RATE_FIELDS
# order.
_FOOTPRINT_COLUMN = {f.name: i for i, f in enumerate(fields(ResourceFootprint))}
_RATE_COLUMNS = [_FOOTPRINT_COLUMN[rate] for rate, _ in RATE_FIELDS.values()]
_SENS_COLUMNS = [_FOOTPRINT_COLUMN[sens] for _, sens in RATE_FIELDS.values()]
_RATE_INDEX = {resource: j for j, resource in enumerate(RATE_FIELDS)}


def footprint_table(footprints: Sequence[ResourceFootprint]) -> np.ndarray:
    """The fields of each footprint as one float row, one column per
    ResourceFootprint field in field order."""
    get = attrgetter(*_FOOTPRINT_COLUMN)
    return np.array([get(f) for f in footprints], dtype=float).reshape(-1, len(_FOOTPRINT_COLUMN))


def kmps_tracks(table: np.ndarray, activity: np.ndarray, llc_ways: int) -> np.ndarray:
    """The kmps track of each footprint of table at its activity, one
    row each: column w - 1 holds the reading with the allocation capped
    at w ways.

    Shrinking the allocation below demand_ways raises kmps by
    demand_slope per way taken.
    """
    c = _FOOTPRINT_COLUMN
    short = np.maximum(0.0, table[:, c["demand_ways"], None] - np.arange(1, llc_ways + 1))
    return activity[:, None] * (table[:, c["kmps_base"], None]
                                * (1.0 + table[:, c["demand_slope"], None] * short))


class SimulatedProbe:
    """Measurement channel to N workloads, each running solo on a node
    of the given constants, backed by ground-truth footprints instead of
    hardware. Every reading is an array with one entry per workload.

    Stress level 0 means no stress. Bandwidth stressors are LLC
    neutral (confined to minimal cache), so stressing one resource
    does not disturb the others' readings.

    activities scale each footprint's usage rates to the spec its
    workload is deployed on (1.0 = full activity, the default). Under
    stress the usage drops linearly once the stress level passes the
    workload's tolerance; the tolerance is levels - sensitivity, so the
    first >=10% drop lands exactly at tolerance + 1.

    noise_sigma adds multiplicative log-normal noise to every reading.
    Each workload draws its noise, one value per reading in the order
    of its readings, from a generator of its own seeded by its entry of
    seeds (default 0). It defaults to off, and then no generator is
    built, so repeated estimates are bit-identical.
    """

    def __init__(self, constants: NodeConstants, footprints: Sequence[ResourceFootprint],
                 activities: Sequence[float] | None = None, noise_sigma: float = 0.0,
                 seeds: Sequence[int] | None = None):
        n = len(footprints)
        activity = np.ones(n) if activities is None else np.array(activities, dtype=float)
        seeds = [0] * n if seeds is None else list(seeds)
        if activity.shape != (n,) or len(seeds) != n:
            raise ValueError(f"{n} footprints need as many activities and seeds, "
                             f"got {activity.size} and {len(seeds)}")
        outside = ~((0.0 <= activity) & (activity <= 1.0))
        if outside.any():
            raise ValueError(f"activity must be in [0, 1], got {activity[outside][0]}")
        if not noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
        if min(seeds, default=0) < 0:
            raise ValueError(f"seed must be non-negative, got {min(seeds)}")
        table = footprint_table(footprints)
        self._constants = constants
        self._rows = np.arange(n)
        self._kmps = kmps_tracks(table, activity, constants.llc_ways)
        self._usage = activity[:, None] * table[:, _RATE_COLUMNS]
        self._kmps.setflags(write=False)
        self._usage.setflags(write=False)
        self._tolerance = constants.levels - np.minimum(table[:, _SENS_COLUMNS], constants.levels)
        self._noise_sigma = noise_sigma
        self._rngs = ([np.random.default_rng(np.random.SeedSequence([seed])) for seed in seeds]
                      if noise_sigma > 0 else None)

    @property
    def constants(self) -> NodeConstants:
        """Physical capacities of the nodes behind the probe."""
        return self._constants

    def _noisy(self, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
        if self._rngs is None:
            return values
        z = np.array([self._rngs[i].standard_normal() for i in rows.tolist()])
        return values * np.exp(self._noise_sigma * z)

    def read_usage(self, resource: SharedResource) -> np.ndarray:
        """Solo usage of every workload in native units: kmps, GB/s, IOPS, GB/s."""
        solo = (self._kmps[:, -1] if resource is SharedResource.LLC
                else self._usage[:, _RATE_INDEX[resource]])
        return self._noisy(solo, self._rows)

    def set_llc_ways(self, ways: int) -> np.ndarray:
        """Restrict every workload to `ways` cache ways, return their kmps."""
        if not 1 <= ways <= self._constants.llc_ways:
            raise ValueError(f"ways must be in 1..{self._constants.llc_ways}, got {ways}")
        return self._noisy(self._kmps[:, ways - 1], self._rows)

    def apply_stress(self, resource: SharedResource, level: int | np.ndarray,
                     rows: np.ndarray | None = None) -> np.ndarray:
        """Run the level-`level` stressor beside the workloads of rows
        (default: all), return their usage, one entry per row.

        level is one int or one per row.
        """
        if resource is SharedResource.LLC:
            raise ValueError("LLC sensitivity uses set_llc_ways, not a stressor")
        rows = self._rows if rows is None else np.asarray(rows)
        level = np.asarray(level)
        if (level < 0).any():
            raise ValueError("stress level must be non-negative")
        j = _RATE_INDEX[resource]
        excess = np.maximum(0, level - self._tolerance[rows, j])
        return self._noisy(self._usage[rows, j]
                           * np.maximum(0.0, 1.0 - STRESS_DROP_PER_LEVEL * excess), rows)


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
        object.__setattr__(self, "_level_array", np.array(levels))
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

    def nearest_levels(self, kmps) -> np.ndarray:
        """Level of the row nearest each kmps track in squared distance.

        kmps[i, w - 1] is track i's reading with w ways. Distances sum
        left to right, and ties go to the first (lowest) level, so
        results are deterministic.
        """
        tracks = np.asarray(kmps, dtype=float)
        if tracks.ndim != 2 or tracks.shape[1] != self.ways:
            raise ValueError(f"tracks have shape {tracks.shape}, the reference "
                             f"tracks cover {self.ways} ways")
        good = (tracks >= 0) & (tracks < np.inf)
        if not good.all():
            bad = tracks[~good.all(axis=1)][0]
            raise ValueError(f"kmps must be finite non-negative, got {bad.tolist()}")
        if len(tracks) > _TRACKS_PER_BLOCK:
            # A block of tracks at a time bounds the (tracks x levels x ways)
            # temporaries.
            return np.concatenate([self.nearest_levels(tracks[i:i + _TRACKS_PER_BLOCK])
                                   for i in range(0, len(tracks), _TRACKS_PER_BLOCK)])
        distance = np.square(self.kmps - tracks[:, None, :]).cumsum(axis=2)[:, :, -1]
        return self._level_array[distance.argmin(axis=1)]

    def nearest_level(self, kmps: Sequence[float]) -> int:
        """nearest_levels of one track; kmps[w - 1] is the reading with w ways."""
        track = np.array(kmps, dtype=float)
        if track.shape != (self.ways,):
            raise ValueError(f"track has shape {track.shape}, the reference "
                             f"tracks cover {self.ways} ways")
        return int(self.nearest_levels(track[None])[0])

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


def llc_sensitivity_ways(kmps) -> np.ndarray:
    """Way count at the first >=10% kmps rise, scanning from full cache
    down, for each track along the last axis of kmps.

    kmps[..., w - 1] is the reading with w ways. The result is the
    largest w with kmps_w > kmps_full and kmps_w >= (1 +
    DEGRADATION_THRESHOLD) * kmps_full. A flat (or all-zero) track never
    crosses and scores 0: the workload does not care about the cache.
    """
    kmps = np.asarray(kmps, dtype=float)
    full, short = kmps[..., -1:], kmps[..., :-1]
    crossed = (short > full) & (short >= (1.0 + DEGRADATION_THRESHOLD) * full)
    return np.where(crossed, np.arange(1, kmps.shape[-1]), 0).max(axis=-1, initial=0)


def ways_to_level(ways: int, llc_ways: int, n_levels: int) -> int:
    """Map a way-count sensitivity onto the shared 0..N level scale."""
    return min(n_levels, round_half_up(ways * n_levels / llc_ways))


def quantify_llc(probe: SimulatedProbe,
                 reference_tracks: ReferenceTracks) -> list[PressureSensitivity]:
    """Pressure from track matching, sensitivity from way shrinking, for
    every workload of the probe."""
    constants = probe.constants
    w = constants.llc_ways
    # One reading per way count, from the full cache down; column w - 1
    # holds the reading with w ways.
    kmps = np.column_stack([probe.set_llc_ways(ways) for ways in range(w, 0, -1)][::-1])
    return [PressureSensitivity(pressure, ways_to_level(ways, w, constants.levels))
            for pressure, ways in zip(reference_tracks.nearest_levels(kmps).tolist(),
                                      llc_sensitivity_ways(kmps).tolist())]


def _sweep_sensitivity(probe: SimulatedProbe, resource: SharedResource,
                       n_levels: int, baseline: np.ndarray) -> np.ndarray:
    """Bisection stress sweeps for the first level with a >=10% drop, one
    per workload of the probe, in lockstep.

    Returns n_levels - max_unaffected_level per workload, 0 when no
    level up to n_levels crosses. The baselines are the unstressed
    (level 0) readings per the protocol; a workload whose baseline is
    not positive scores 0 and is never stressed. Each workload keeps its
    own bounds, and each step stresses only the workloads whose search
    is still open. The search assumes the drop never shrinks as the
    level rises, and then finds the level an ascending scan would, in
    at most ceil(log2(n_levels + 1)) stress runs per workload.
    """
    # First crossing in lo..hi; n_levels + 1: none.
    lo = np.where(baseline > 0, 1, n_levels + 1)
    hi = np.full(len(baseline), n_levels + 1)
    while (rows := np.flatnonzero(lo < hi)).size:
        level = (lo[rows] + hi[rows]) // 2
        usage = probe.apply_stress(resource, level, rows)
        base = baseline[rows]
        crossed = base - usage >= DEGRADATION_THRESHOLD * base
        hi[rows[crossed]] = level[crossed]
        lo[rows[~crossed]] = level[~crossed] + 1
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


def quantify_rate(probe: SimulatedProbe,
                  resource: SharedResource) -> list[PressureSensitivity]:
    """Pressure from solo usage, sensitivity from a bisection stress
    sweep, for every workload of the probe."""
    constants = probe.constants
    capacity = rate_capacity(constants, resource)
    usage = probe.apply_stress(resource, 0)
    sens = _sweep_sensitivity(probe, resource, constants.levels, usage)
    return [PressureSensitivity(pressure_level(u, capacity, constants.levels), s)
            for u, s in zip(usage.tolist(), sens.tolist())]


def build_profile(probe: SimulatedProbe,
                  reference_tracks: ReferenceTracks) -> list[InterferenceProfile]:
    """Quantify all four resources, one at a time, and assemble the
    profile of every workload of the probe, in its order.

    LLC pressure is read off reference_tracks, the calibrated stress
    tracks of the probe's node constants; a table of another way count
    is refused before anything is probed.
    """
    if reference_tracks.ways != probe.constants.llc_ways:
        raise ValueError(f"reference tracks cover {reference_tracks.ways} ways, "
                         f"the probe's node has {probe.constants.llc_ways}")
    llc = quantify_llc(probe, reference_tracks)
    rates = [quantify_rate(probe, r) for r in RATE_FIELDS]
    return [InterferenceProfile(*levels) for levels in zip(llc, *rates)]
