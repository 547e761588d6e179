"""The per-tenant estimator and workload code that the batch forms replaced.

Each function and class here is the single-workload version the library
had before its tenant-side steps took a batch of workloads at once,
copied verbatim, so the tests can compare the batch with it by ==. Three
mechanical edits make it run beside the current library: the
ResourceFootprint.kmps_at method is the function _kmps_at here,
ReferenceTracks.nearest_level is the function nearest_level taking the
table as its first argument, and both are called as such.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from capsched.core import (
    INDEX_NAMES,
    ConfigRegion,
    InterferenceProfile,
    NodeConstants,
    OutOfRegionError,
    PressureSensitivity,
    ResourceSpec,
    SharedResource,
    SystemIndexVector,
    round_half_up,
)
from capsched.estimator import (
    DEGRADATION_THRESHOLD,
    RATE_FIELDS,
    STRESS_DROP_PER_LEVEL,
    ReferenceTracks,
    ResourceFootprint,
    rate_capacity,
)
from capsched.workload_synth import (
    _ALPHA_RANGE,
    _BETA_RANGE,
    _MIN_SHAPE_SEPARATION,
    _SAT_C_RANGE,
    _SAT_M_RANGE,
    FAMILIES,
    ArchetypeParams,
    Workload,
    WorkloadArchetype,
    _draw_family_rates,
    _draw_params,
    _jittered_params,
    activity,
    tabulate_surface,
)


def _kmps_at(self: ResourceFootprint, ways: float) -> float:
    """Kmps at full activity with the allocation capped at `ways`."""
    return self.kmps_base * (1.0 + self.demand_slope
                             * max(0.0, self.demand_ways - ways))


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
            return a * _kmps_at(f, self._constants.llc_ways)
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
        return self._noisy(self._activity * _kmps_at(self._footprint, ways))

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


def nearest_level(self: ReferenceTracks, kmps: Sequence[float]) -> int:
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
    pressure = nearest_level(reference_tracks, kmps)
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


def _signature(params: ArchetypeParams, region: ConfigRegion,
               constants: NodeConstants, spec: ResourceSpec) -> np.ndarray:
    f = params.footprint
    c, m = float(spec.cores), float(spec.memory_gb)
    c_lo, c_hi = float(region.core_levels[0]), float(region.core_levels[-1])
    m_lo, m_hi = float(region.memory_levels_gb[0]), float(region.memory_levels_gb[-1])
    # Shape visibility: zero at the region's lower corner, where one
    # core and minimal memory flatten every archetype's behavior.
    v_c = (c - c_lo) / (c_hi - c_lo) if c_hi > c_lo else 0.0
    v_m = (m - m_lo) / (m_hi - m_lo) if m_hi > m_lo else 0.0
    u_c = min(c, params.sat_cores)
    u_m = min(m, params.sat_memory)
    a = activity(params, region, spec)
    kshare = f.kmps_base / (constants.levels * constants.kmps_per_level)
    mshare = f.membw_gbps / constants.phy_membw_gbps
    ishare = f.iops / (constants.levels * constants.iops_per_level)
    rf = params.read_frac
    alpha, beta = params.alpha, params.beta

    values = {
        "ipc": 0.25 + 5.0 * alpha * v_c + 0.4 * beta * v_m,
        "cpu_usage": u_c * (0.40 + 0.60 * alpha * v_c),
        "memory_usage": u_m * (0.45 + 0.55 * beta * v_m),
        "cache_references": a * (25.0 + 150.0 * kshare + 60.0 * mshare),
        "dtlb_load_misses": a * (5.0 + 45.0 * (params.sat_cores / 12.0) * v_c
                                 + 15.0 * kshare),
        "dtlb_store_misses": a * (4.0 + 40.0 * (params.sat_memory / 16.0) * v_m
                                  + 12.0 * (1.0 - rf)),
        "page_fault": a * (1.5 + 45.0 * beta * v_m + 6.0 * mshare),
        "node_loads": a * (3.0 + 50.0 * mshare * rf + 40.0 * beta * v_m),
        "node_stores": a * (2.0 + 35.0 * mshare * (1.0 - rf) + 40.0 * alpha * v_c),
        "dirty_memory": u_m * (18.0 + 160.0 * (1.0 - rf) * beta * v_m
                               + 90.0 * ishare * (1.0 - rf)),
        "io_serviced_read": a * f.iops * rf,
        "io_serviced_write": a * f.iops * (1.0 - rf),
    }
    values["cache_misses"] = values["cache_references"] * min(0.9, 0.06 + 0.5 * kshare)
    values["io_read_bytes"] = values["io_serviced_read"] * 16384.0
    values["io_write_bytes"] = values["io_serviced_write"] * 16384.0
    return np.array([values[name] for name in INDEX_NAMES], dtype=float)


def observe_indexes(workload: Workload, spec: ResourceSpec, noise_sigma: float,
                    constants: NodeConstants) -> SystemIndexVector:
    """Measure the 15 indexes of a workload deployed at spec on a node of
    the given constants.

    Deterministic in (noise_seed, spec): re-observing the same
    deployment yields the same reading, different specs get fresh
    noise. Components stay non-negative and cache_misses is clamped
    under cache_references after noise.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    region = workload.ground_truth_surface.region
    if not region.contains(spec):
        raise OutOfRegionError(f"{spec} outside region")
    vec = _signature(workload.params, region, constants, spec)
    if noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence(
            [workload.noise_seed, spec.cores, spec.memory_gb]))
        vec = vec * np.exp(noise_sigma * rng.standard_normal(len(vec)))
    vec = np.maximum(vec, 0.0)
    named = dict(zip(INDEX_NAMES, vec))
    named["cache_misses"] = min(named["cache_misses"], named["cache_references"])
    return SystemIndexVector(**{k: float(v) for k, v in named.items()})


def true_profile_at(workload: Workload, spec: ResourceSpec,
                    constants: NodeConstants,
                    reference_tracks: ReferenceTracks) -> InterferenceProfile:
    """Ground-truth interference profile at a deployment spec.

    Pressures follow the usage rates scaled by activity at spec; LLC
    pressure is defined as the level of the nearest of reference_tracks,
    the stress tracks of the node constants. Sensitivities are the
    generative levels, except that a resource the workload does not use
    at all cannot be sensitive.
    """
    params = workload.params
    f = params.footprint
    region = workload.ground_truth_surface.region
    a = activity(params, region, spec)
    n = constants.levels
    w = constants.llc_ways
    p_llc = nearest_level(reference_tracks, [a * _kmps_at(f, ways) for ways in range(1, w + 1)])
    if a * f.kmps_base > 0 and f.demand_slope > 0:
        crossing = math.floor(f.demand_ways - DEGRADATION_THRESHOLD / f.demand_slope)
        s_ways = min(w - 1, max(0, crossing))
    else:
        s_ways = 0
    llc = PressureSensitivity(p_llc, ways_to_level(s_ways, w, n))

    rates = {}
    for resource, (rate, sens) in RATE_FIELDS.items():
        usage = a * getattr(f, rate)
        rates[resource.value] = PressureSensitivity(
            pressure_level(usage, rate_capacity(constants, resource), n),
            getattr(f, sens) if usage > 0 else 0)
    return InterferenceProfile(llc=llc, **rates)


def probe_for(workload: Workload, spec: ResourceSpec, constants: NodeConstants,
              noise_sigma: float = 0.0, seed: int = 0) -> SimulatedProbe:
    """Simulated probe for a workload deployed solo at spec."""
    region = workload.ground_truth_surface.region
    return SimulatedProbe(constants, workload.params.footprint,
                          activity=activity(workload.params, region, spec),
                          noise_sigma=noise_sigma, seed=seed)


def _shape_distance(a: ArchetypeParams, b: ArchetypeParams) -> float:
    return max(
        abs(a.alpha - b.alpha) / (_ALPHA_RANGE[1] - _ALPHA_RANGE[0]),
        abs(a.beta - b.beta) / (_BETA_RANGE[1] - _BETA_RANGE[0]),
        abs(a.sat_cores - b.sat_cores) / (_SAT_C_RANGE[1] - _SAT_C_RANGE[0]),
        abs(a.sat_memory - b.sat_memory) / (_SAT_M_RANGE[1] - _SAT_M_RANGE[0]),
    )


def generate_archetypes(count: int, rng_seed: int,
                        constants: NodeConstants) -> list[WorkloadArchetype]:
    """Draw `count` archetypes with pairwise-distinct surface shapes.

    Families rotate round-robin so every resource family is covered,
    each with one shared usage-rate profile. Candidates too close in
    shape space to an accepted archetype are redrawn, keeping surfaces
    distinguishable; the threshold loosens as count grows so large
    sets remain drawable.
    """
    if count < 2:
        raise ValueError("count must be >= 2")
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0]))
    family_rates = {f: _draw_family_rates(rng, f, constants) for f in FAMILIES}
    separation = min(_MIN_SHAPE_SEPARATION, 0.8 * count ** -0.25)
    archetypes: list[WorkloadArchetype] = []
    for archetype_id in range(count):
        family = FAMILIES[archetype_id % len(FAMILIES)]
        for _ in range(5000):
            candidate = _draw_params(rng, family, family_rates[family], constants)
            if all(_shape_distance(candidate, a.params) >= separation
                   for a in archetypes):
                break
        else:
            raise RuntimeError("could not draw a distinct archetype; "
                               "lower count or the separation threshold")
        archetypes.append(WorkloadArchetype(archetype_id, family, candidate))
    return archetypes


def make_workload(archetype: WorkloadArchetype, workload_id: int, noise_seed: int,
                  origin: ResourceSpec, region: ConfigRegion,
                  constants: NodeConstants, base_spec: ResourceSpec,
                  surface_noise: float = 0.0, footprint_noise: float = 0.0, *,
                  reference_tracks: ReferenceTracks) -> Workload:
    """One workload instance of an archetype, deployed at origin.

    Parameter jitter is derived from noise_seed, so the same seed
    reproduces the same instance regardless of how it was drawn; with
    both noises 0 no generator is seeded at all. Its ground-truth
    profile reads LLC pressure off reference_tracks, the stress tracks
    of the node constants.
    """
    if noise_seed < 0:
        raise ValueError(f"noise_seed must be non-negative, got {noise_seed}")
    wrng = (np.random.default_rng(np.random.SeedSequence([noise_seed, 7]))
            if surface_noise != 0 or footprint_noise != 0 else None)
    params = _jittered_params(archetype.params, wrng, surface_noise, footprint_noise)
    surface = tabulate_surface(params, region, base_spec)
    seed_workload = Workload(
        workload_id=workload_id, archetype_id=archetype.archetype_id,
        noise_seed=noise_seed, origin_spec=origin, params=params,
        ground_truth_surface=surface,
        ground_truth_profile=InterferenceProfile.zero())
    profile = true_profile_at(seed_workload, origin, constants, reference_tracks)
    return replace(seed_workload, ground_truth_profile=profile)
