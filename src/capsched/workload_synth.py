"""Synthetic database workloads with known scaling and contention behavior.

Real capacity planning trains on benchmark runs; a desk-scale study
needs the same structure without the hardware. Each archetype here
plays the role of one benchmark variation and owns

* a monotone scaling surface over the config region, from a
  saturating power law: throughput ~ min(cores, sat_c)^alpha *
  min(mem, sat_m)^beta,
* a 15-component system-index signature per configuration, coupled to
  the surface parameters so that near signatures imply near surfaces
  (the premise the surface predictor rests on),
* a ground-truth resource footprint driving the simulated probe and
  the contention simulator.

Workloads are archetype instances with their own seeds. All sampling
is keyed on explicit integer seeds so the same inputs always serialize
to the same bytes.

Index signatures are built from two ingredient groups:

* shape terms, whose influence is gated by how far the observation
  spec sits from the region's lower corner. At (1c, 2g) every workload
  pegs its single core and tiny memory the same way, so these terms
  carry no signal there; at a mid-grid base they separate archetypes
  sharply. This is what makes the choice of observation base matter.
* footprint terms, which follow the archetype's resource family
  (compute, cache, io, network, balanced) at any spec, scaled by how
  active the workload is at that spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import (
    ConfigRegion,
    InterferenceProfile,
    JsonRecord,
    NodeConstants,
    OutOfRegionError,
    PressureSensitivity,
    ResourceSpec,
    ScalingSurface,
    SystemIndexVector,
    INDEX_NAMES,
    decode,
    fields_json,
    read_json,
    write_json,
)
from .estimator import (
    DEGRADATION_THRESHOLD,
    RATE_FIELDS,
    ResourceFootprint,
    ReferenceTracks,
    SimulatedProbe,
    footprint_table,
    kmps_tracks,
    pressure_level,
    rate_capacity,
    stress_reference_tracks,
    ways_to_level,
)

__all__ = [
    "FAMILIES",
    "Workload",
    "WorkloadArchetype",
    "WorkloadSet",
    "activity",
    "generate_archetypes",
    "generate_workloads",
    "make_workload",
    "make_workload_batch",
    "observe_indexes",
    "observe_indexes_batch",
    "probe_for",
    "raw_throughput",
    "tabulate_surface",
    "tps_at",
    "true_profile_at",
    "true_profile_batch",
]

FAMILIES = ("compute", "cache", "io", "network", "balanced")

# Per-family draw ranges for footprints. Rates are fractions of the
# node's physical capacity (or of the level ceiling for kmps/iops);
# sensitivities are inclusive integer level ranges on the 0..20 scale.
# demand/slope shape the kmps track: a workload starts missing once
# its allocation drops below demand_ways, rising by slope per way.
_FAMILY_FOOTPRINTS = {
    # Each family loads one shared resource hard and is fragile on that
    # same resource; everywhere else it is close to silent. Placement
    # quality then hinges on not stacking a family on one node, which a
    # capacity-only policy does by accident.
    "compute": {"membw": (0.00, 0.04), "kmps": (0.2, 0.8), "iops": (0.00, 0.03),
                "net": (0.00, 0.04), "sens_membw": (0, 2), "sens_disk": (0, 2),
                "sens_net": (0, 2), "demand": (1.5, 3.0), "slope": (0.02, 0.06)},
    # The llc track inflates with demand * slope (a starved cache hog
    # thrashes), so cache kmps is budgeted well below the target level.
    "cache": {"membw": (0.02, 0.06), "kmps": (2.0, 3.5), "iops": (0.00, 0.04),
              "net": (0.00, 0.04), "sens_membw": (0, 2), "sens_disk": (0, 2),
              "sens_net": (0, 2), "demand": (7.0, 10.0), "slope": (0.15, 0.30)},
    "io": {"membw": (0.02, 0.06), "kmps": (0.3, 1.0), "iops": (0.45, 0.75),
           "net": (0.02, 0.06), "sens_membw": (0, 3), "sens_disk": (12, 18),
           "sens_net": (0, 3), "demand": (2.0, 4.0), "slope": (0.03, 0.08)},
    "network": {"membw": (0.02, 0.06), "kmps": (0.3, 1.0), "iops": (0.00, 0.04),
                "net": (0.45, 0.75), "sens_membw": (0, 3), "sens_disk": (0, 3),
                "sens_net": (12, 18), "demand": (2.0, 4.0), "slope": (0.03, 0.08)},
    "balanced": {"membw": (0.40, 0.70), "kmps": (0.3, 1.0), "iops": (0.00, 0.04),
                 "net": (0.02, 0.06), "sens_membw": (10, 16), "sens_disk": (0, 3),
                 "sens_net": (0, 3), "demand": (3.0, 6.0), "slope": (0.05, 0.12)},
}

# Surface shape draw ranges and the wider clamp ranges jitter may not
# leave. sat_c >= 2.5 keeps every workload able to pin one full core;
# sat_m >= 3 keeps 2 GB fully used, so the lower corner is uniform.
_ALPHA_RANGE = (0.15, 1.0)
_BETA_RANGE = (0.10, 0.80)
_SAT_C_RANGE = (3.0, 14.0)
_SAT_M_RANGE = (4.0, 18.0)
_ALPHA_CLAMP = (0.05, 1.2)
_BETA_CLAMP = (0.05, 1.0)
_SAT_C_CLAMP = (2.5, 16.0)
_SAT_M_CLAMP = (3.0, 20.0)

# Per-archetype relative jitter applied to the family's usage rates.
# Small against the 0.05 observation noise: at a corner config, where
# the shape terms vanish, family mates stay hard to tell apart.
_RATE_JITTER = 0.03

# Minimum normalized L-inf distance between archetype surface shapes.
# Wide separation keeps index signatures classifiable under the
# default observation noise at a mid-grid base config.
_MIN_SHAPE_SEPARATION = 0.30


@dataclass(frozen=True)
class ArchetypeParams(JsonRecord):
    """Generative parameters shared by an archetype and its workloads."""

    alpha: float
    beta: float
    sat_cores: float
    sat_memory: float
    tps_base: float
    read_frac: float
    footprint: ResourceFootprint

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("curvature parameters must be positive")
        if self.sat_cores < 1 or self.sat_memory < 1:
            raise ValueError("saturation points must be >= 1")
        if self.tps_base <= 0:
            raise ValueError("tps_base must be positive")
        if not 0.0 <= self.read_frac <= 1.0:
            raise ValueError("read_frac must be in [0, 1]")


@dataclass(frozen=True)
class WorkloadArchetype(JsonRecord):
    """One latent scaling behavior, standing in for a benchmark variation."""

    archetype_id: int
    family: str
    params: ArchetypeParams


@dataclass(frozen=True)
class Workload:
    """An archetype instance with its own seed, origin spec and truth."""

    workload_id: int
    archetype_id: int
    noise_seed: int
    origin_spec: ResourceSpec
    params: ArchetypeParams
    ground_truth_surface: ScalingSurface
    ground_truth_profile: InterferenceProfile

    def to_json(self) -> dict:
        return fields_json(self)

    @classmethod
    def from_json(cls, region: ConfigRegion, obj, where: str = "workload") -> "Workload":
        got = decode({"workload_id": int, "archetype_id": int, "noise_seed": int,
                      "origin_spec": ResourceSpec, "params": ArchetypeParams,
                      "ground_truth_surface": dict,
                      "ground_truth_profile": InterferenceProfile}, obj, where)
        got["ground_truth_surface"] = ScalingSurface.from_json(
            region, got["ground_truth_surface"], f"{where}.ground_truth_surface")
        return cls(**got)


def _core_term(params: ArchetypeParams, cores: float) -> float:
    return min(float(cores), params.sat_cores) ** params.alpha


def _memory_term(params: ArchetypeParams, memory_gb: float) -> float:
    return min(float(memory_gb), params.sat_memory) ** params.beta


def raw_throughput(params: ArchetypeParams, cores: float, memory_gb: float) -> float:
    """Unnormalized throughput of the saturating power-law surface, a
    core term times a memory term."""
    return _core_term(params, cores) * _memory_term(params, memory_gb)


def activity(params: ArchetypeParams, region: ConfigRegion, spec: ResourceSpec) -> float:
    """Throughput at spec as a fraction of the largest config's throughput.

    Resource usage rates scale with this: a tenant pushing 10k IOPS at
    full tilt pushes less when a smaller config caps its throughput.
    """
    top = region.max_spec
    return (raw_throughput(params, spec.cores, spec.memory_gb)
            / raw_throughput(params, top.cores, top.memory_gb))


def tabulate_surface(params: ArchetypeParams, region: ConfigRegion,
                     base_spec: ResourceSpec) -> ScalingSurface:
    """The surface over region's grid, 1.0 at base_spec.

    raw_throughput is a core term times a memory term, so the grid is
    the outer product of one term per level, each equal to
    raw_throughput(c, m) / base. The terms stay Python's ** on floats:
    numpy's power may round differently.
    """
    base = raw_throughput(params, base_spec.cores, base_spec.memory_gb)
    core_terms = [_core_term(params, c) for c in region.core_levels]
    memory_terms = [_memory_term(params, m) for m in region.memory_levels_gb]
    return ScalingSurface(region=region, base_spec=base_spec,
                          values=np.multiply.outer(core_terms, memory_terms) / base)


def tps_at(workload: Workload, spec: ResourceSpec) -> float:
    """Ground-truth transactions per second at a spec (off-grid allowed)."""
    p = workload.params
    base = workload.ground_truth_surface.base_spec
    return p.tps_base * (raw_throughput(p, spec.cores, spec.memory_gb)
                         / raw_throughput(p, base.cores, base.memory_gb))


def _signatures(workloads: Sequence[Workload], specs: Sequence[ResourceSpec],
                constants: NodeConstants) -> np.ndarray:
    """The noise-free indexes of each workload deployed at its spec, one
    row each, columns in INDEX_NAMES order."""
    rows = []
    for workload, spec in zip(workloads, specs, strict=True):
        region = workload.ground_truth_surface.region
        if not region.contains(spec):
            raise OutOfRegionError(f"{spec} outside region")
        params, f = workload.params, workload.params.footprint
        c, m = float(spec.cores), float(spec.memory_gb)
        c_lo, c_hi = float(region.core_levels[0]), float(region.core_levels[-1])
        m_lo, m_hi = float(region.memory_levels_gb[0]), float(region.memory_levels_gb[-1])
        # Shape visibility: zero at the region's lower corner, where one
        # core and minimal memory flatten every archetype's behavior.
        v_c = (c - c_lo) / (c_hi - c_lo) if c_hi > c_lo else 0.0
        v_m = (m - m_lo) / (m_hi - m_lo) if m_hi > m_lo else 0.0
        rows.append((c, m, v_c, v_m, activity(params, region, spec), params.alpha,
                     params.beta, params.sat_cores, params.sat_memory, params.read_frac,
                     f.kmps_base, f.membw_gbps, f.iops))
    (c, m, v_c, v_m, a, alpha, beta, sat_cores, sat_memory, rf, kmps_base, membw_gbps,
     iops) = np.array(rows, dtype=float).reshape(-1, 13).T
    u_c = np.minimum(c, sat_cores)
    u_m = np.minimum(m, sat_memory)
    kshare = kmps_base / (constants.levels * constants.kmps_per_level)
    mshare = membw_gbps / constants.phy_membw_gbps
    ishare = iops / (constants.levels * constants.iops_per_level)

    values = {
        "ipc": 0.25 + 5.0 * alpha * v_c + 0.4 * beta * v_m,
        "cpu_usage": u_c * (0.40 + 0.60 * alpha * v_c),
        "memory_usage": u_m * (0.45 + 0.55 * beta * v_m),
        "cache_references": a * (25.0 + 150.0 * kshare + 60.0 * mshare),
        "dtlb_load_misses": a * (5.0 + 45.0 * (sat_cores / 12.0) * v_c
                                 + 15.0 * kshare),
        "dtlb_store_misses": a * (4.0 + 40.0 * (sat_memory / 16.0) * v_m
                                  + 12.0 * (1.0 - rf)),
        "page_fault": a * (1.5 + 45.0 * beta * v_m + 6.0 * mshare),
        "node_loads": a * (3.0 + 50.0 * mshare * rf + 40.0 * beta * v_m),
        "node_stores": a * (2.0 + 35.0 * mshare * (1.0 - rf) + 40.0 * alpha * v_c),
        "dirty_memory": u_m * (18.0 + 160.0 * (1.0 - rf) * beta * v_m
                               + 90.0 * ishare * (1.0 - rf)),
        "io_serviced_read": a * iops * rf,
        "io_serviced_write": a * iops * (1.0 - rf),
    }
    values["cache_misses"] = values["cache_references"] * np.minimum(0.9, 0.06 + 0.5 * kshare)
    values["io_read_bytes"] = values["io_serviced_read"] * 16384.0
    values["io_write_bytes"] = values["io_serviced_write"] * 16384.0
    return np.column_stack([values[name] for name in INDEX_NAMES])


_CACHE_MISSES = INDEX_NAMES.index("cache_misses")
_CACHE_REFERENCES = INDEX_NAMES.index("cache_references")


def observe_indexes_batch(workloads: Sequence[Workload], specs: Sequence[ResourceSpec],
                          noise_sigma: float,
                          constants: NodeConstants) -> list[SystemIndexVector]:
    """Measure the 15 indexes of each workload deployed at its spec on a
    node of the given constants, all in one block.

    Each reading is deterministic in (noise_seed, spec): re-observing
    the same deployment yields the same reading, different specs get
    fresh noise, drawn from a generator of the workload's own.
    Components stay non-negative and cache_misses is clamped under
    cache_references after noise.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    block = _signatures(workloads, specs, constants)
    if noise_sigma > 0:
        z = np.array([np.random.default_rng(np.random.SeedSequence(
            [w.noise_seed, spec.cores, spec.memory_gb])).standard_normal(len(INDEX_NAMES))
            for w, spec in zip(workloads, specs)])
        block = block * np.exp(noise_sigma * z)
    block = np.maximum(block, 0.0)
    block[:, _CACHE_MISSES] = np.minimum(block[:, _CACHE_MISSES], block[:, _CACHE_REFERENCES])
    return [SystemIndexVector(*row) for row in block.tolist()]


def observe_indexes(workload: Workload, spec: ResourceSpec, noise_sigma: float,
                    constants: NodeConstants) -> SystemIndexVector:
    """observe_indexes_batch of one workload."""
    return observe_indexes_batch([workload], [spec], noise_sigma, constants)[0]


def _true_profiles(params: Sequence[ArchetypeParams], activities: Sequence[float],
                   constants: NodeConstants,
                   reference_tracks: ReferenceTracks) -> list[InterferenceProfile]:
    """Ground-truth interference profiles of parameter sets at activities.

    The kmps tracks and their nearest reference levels are one array
    step for all of them; the rest is a few scalar steps each.
    """
    n, w = constants.levels, constants.llc_ways
    footprints = [p.footprint for p in params]
    kmps = kmps_tracks(footprint_table(footprints), np.array(activities, dtype=float), w)
    rate_fields = [(rate, sens, rate_capacity(constants, resource))
                   for resource, (rate, sens) in RATE_FIELDS.items()]
    profiles = []
    for a, f, p_llc in zip(activities, footprints,
                           reference_tracks.nearest_levels(kmps).tolist()):
        if a * f.kmps_base > 0 and f.demand_slope > 0:
            crossing = math.floor(f.demand_ways - DEGRADATION_THRESHOLD / f.demand_slope)
            s_ways = min(w - 1, max(0, crossing))
        else:
            s_ways = 0
        levels = [PressureSensitivity(p_llc, ways_to_level(s_ways, w, n))]
        for rate, sens, capacity in rate_fields:
            usage = a * getattr(f, rate)
            levels.append(PressureSensitivity(pressure_level(usage, capacity, n),
                                              getattr(f, sens) if usage > 0 else 0))
        # RATE_FIELDS follows the profile's field order after llc.
        profiles.append(InterferenceProfile(*levels))
    return profiles


def true_profile_batch(workloads: Sequence[Workload], specs: Sequence[ResourceSpec],
                       constants: NodeConstants,
                       reference_tracks: ReferenceTracks) -> list[InterferenceProfile]:
    """Ground-truth interference profile of each workload at its deployment spec.

    Pressures follow the usage rates scaled by activity at spec; LLC
    pressure is defined as the level of the nearest of reference_tracks,
    the stress tracks of the node constants. Sensitivities are the
    generative levels, except that a resource the workload does not use
    at all cannot be sensitive.
    """
    return _true_profiles([w.params for w in workloads],
                          [activity(w.params, w.ground_truth_surface.region, spec)
                           for w, spec in zip(workloads, specs, strict=True)],
                          constants, reference_tracks)


def true_profile_at(workload: Workload, spec: ResourceSpec,
                    constants: NodeConstants,
                    reference_tracks: ReferenceTracks) -> InterferenceProfile:
    """true_profile_batch of one workload."""
    return true_profile_batch([workload], [spec], constants, reference_tracks)[0]


def probe_for(workloads: Sequence[Workload], specs: Sequence[ResourceSpec],
              constants: NodeConstants, noise_sigma: float = 0.0,
              seeds: Sequence[int] | None = None) -> SimulatedProbe:
    """Simulated probe for each workload deployed solo at its spec."""
    return SimulatedProbe(constants, [w.params.footprint for w in workloads],
                          activities=[activity(w.params, w.ground_truth_surface.region, spec)
                                      for w, spec in zip(workloads, specs, strict=True)],
                          noise_sigma=noise_sigma, seeds=seeds)


def _uniform(rng: np.random.Generator, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    return float(lo + (hi - lo) * rng.random())


def _int_uniform(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    lo, hi = bounds
    return int(rng.integers(lo, hi + 1))


def _draw_family_rates(rng: np.random.Generator, family: str,
                       constants: NodeConstants) -> dict[str, float]:
    """One usage-rate profile per family; archetypes only jitter it."""
    r = _FAMILY_FOOTPRINTS[family]
    return {
        "kmps": _uniform(rng, r["kmps"]) * constants.kmps_per_level,
        "membw": _uniform(rng, r["membw"]) * constants.phy_membw_gbps,
        "iops": _uniform(rng, r["iops"]) * constants.levels * constants.iops_per_level,
        "net": _uniform(rng, r["net"]) * constants.phy_network_gbps,
    }


def _draw_params(rng: np.random.Generator, family: str, rates: dict[str, float],
                 constants: NodeConstants) -> ArchetypeParams:
    r = _FAMILY_FOOTPRINTS[family]
    alpha = _uniform(rng, _ALPHA_RANGE)
    beta = _uniform(rng, _BETA_RANGE)
    sat_c = _uniform(rng, _SAT_C_RANGE)
    sat_m = _uniform(rng, _SAT_M_RANGE)
    read_frac = _uniform(rng, (0.4, 0.9))
    # Peak throughput grows with every shape parameter, so a feature
    # ranking against measured throughput keeps carriers for all four.
    tps_base = (40.0 * (1.0 + 4.0 * alpha + 1.5 * beta)
                * (1.0 + 0.08 * sat_c + 0.05 * sat_m))

    def jittered(rate: float) -> float:
        return rate * float(np.exp(_RATE_JITTER * rng.standard_normal()))

    footprint = ResourceFootprint(
        kmps_base=jittered(rates["kmps"]),
        demand_ways=_uniform(rng, r["demand"]),
        demand_slope=_uniform(rng, r["slope"]),
        membw_gbps=jittered(rates["membw"]),
        iops=jittered(rates["iops"]),
        network_gbps=jittered(rates["net"]),
        sens_membw=_int_uniform(rng, r["sens_membw"]),
        sens_disk=_int_uniform(rng, r["sens_disk"]),
        sens_network=_int_uniform(rng, r["sens_net"]),
    )
    return ArchetypeParams(alpha=alpha, beta=beta, sat_cores=sat_c, sat_memory=sat_m,
                           tps_base=tps_base, read_frac=read_frac, footprint=footprint)


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
    # Accepted (alpha, beta, sat_cores, sat_memory) rows; a shape's
    # distance to another is the largest of its four gaps, each over the
    # span of its draw range.
    shapes = np.empty((count, 4))
    spans = np.array([hi - lo for lo, hi in (_ALPHA_RANGE, _BETA_RANGE,
                                             _SAT_C_RANGE, _SAT_M_RANGE)])
    for archetype_id in range(count):
        family = FAMILIES[archetype_id % len(FAMILIES)]
        for _ in range(5000):
            candidate = _draw_params(rng, family, family_rates[family], constants)
            shape = (candidate.alpha, candidate.beta, candidate.sat_cores,
                     candidate.sat_memory)
            if not archetype_id or (abs(shapes[:archetype_id] - shape) / spans
                                    ).max(axis=1).min() >= separation:
                break
        else:
            raise RuntimeError("could not draw a distinct archetype; "
                               "lower count or the separation threshold")
        shapes[archetype_id] = shape
        archetypes.append(WorkloadArchetype(archetype_id, family, candidate))
    return archetypes


def _clip(value: float, bounds: tuple[float, float]) -> float:
    return min(max(value, bounds[0]), bounds[1])


def _jittered_params(params: ArchetypeParams, rng: np.random.Generator | None,
                     surface_noise: float, footprint_noise: float) -> ArchetypeParams:
    # Without a generator (both noises 0) every factor is exp(0 * z) = 1.0,
    # and the clips still apply.
    def mul(sigma: float) -> float:
        if rng is None:
            return 1.0
        z = rng.standard_normal()
        return float(np.exp(sigma * z))

    f = params.footprint
    jf = ResourceFootprint(
        kmps_base=f.kmps_base * mul(footprint_noise),
        demand_ways=_clip(f.demand_ways * mul(footprint_noise), (0.0, 11.0)),
        demand_slope=_clip(f.demand_slope * mul(footprint_noise), (0.0, 0.6)),
        membw_gbps=f.membw_gbps * mul(footprint_noise),
        iops=f.iops * mul(footprint_noise),
        network_gbps=f.network_gbps * mul(footprint_noise),
        sens_membw=f.sens_membw, sens_disk=f.sens_disk, sens_network=f.sens_network,
    )
    return ArchetypeParams(
        alpha=_clip(params.alpha * mul(surface_noise), _ALPHA_CLAMP),
        beta=_clip(params.beta * mul(surface_noise), _BETA_CLAMP),
        sat_cores=_clip(params.sat_cores * mul(surface_noise), _SAT_C_CLAMP),
        sat_memory=_clip(params.sat_memory * mul(surface_noise), _SAT_M_CLAMP),
        tps_base=params.tps_base * mul(surface_noise),
        read_frac=params.read_frac,
        footprint=jf,
    )


def make_workload_batch(archetypes: Sequence[WorkloadArchetype],
                        workload_ids: Sequence[int], noise_seeds: Sequence[int],
                        origins: Sequence[ResourceSpec], region: ConfigRegion,
                        constants: NodeConstants, base_spec: ResourceSpec,
                        surface_noise: float = 0.0, footprint_noise: float = 0.0, *,
                        reference_tracks: ReferenceTracks) -> list[Workload]:
    """One workload instance of each archetype, deployed at its origin.

    Parameter jitter is derived from the workload's noise_seed, so the
    same seed reproduces the same instance regardless of how it was
    drawn; with both noises 0 no generator is seeded at all. Ground-truth
    profiles read LLC pressure off reference_tracks, the stress tracks
    of the node constants.
    """
    for noise_seed in noise_seeds:
        if noise_seed < 0:
            raise ValueError(f"noise_seed must be non-negative, got {noise_seed}")
    jitter = surface_noise != 0 or footprint_noise != 0
    params = [_jittered_params(
        archetype.params,
        np.random.default_rng(np.random.SeedSequence([noise_seed, 7])) if jitter else None,
        surface_noise, footprint_noise)
        for archetype, noise_seed in zip(archetypes, noise_seeds, strict=True)]
    profiles = _true_profiles(params, [activity(p, region, origin)
                                       for p, origin in zip(params, origins, strict=True)],
                              constants, reference_tracks)
    return [Workload(workload_id=workload_id, archetype_id=archetype.archetype_id,
                     noise_seed=noise_seed, origin_spec=origin, params=p,
                     ground_truth_surface=tabulate_surface(p, region, base_spec),
                     ground_truth_profile=profile)
            for archetype, workload_id, noise_seed, origin, p, profile
            in zip(archetypes, workload_ids, noise_seeds, origins, params, profiles,
                   strict=True)]


def make_workload(archetype: WorkloadArchetype, workload_id: int, noise_seed: int,
                  origin: ResourceSpec, region: ConfigRegion,
                  constants: NodeConstants, base_spec: ResourceSpec,
                  surface_noise: float = 0.0, footprint_noise: float = 0.0, *,
                  reference_tracks: ReferenceTracks) -> Workload:
    """make_workload_batch of one workload."""
    return make_workload_batch([archetype], [workload_id], [noise_seed], [origin], region,
                               constants, base_spec, surface_noise, footprint_noise,
                               reference_tracks=reference_tracks)[0]


def generate_workloads(archetypes: list[WorkloadArchetype], count: int, rng_seed: int,
                       region: ConfigRegion, constants: NodeConstants,
                       base_spec: ResourceSpec,
                       surface_noise: float = 0.0,
                       footprint_noise: float = 0.0) -> list[Workload]:
    """Instantiate workloads round-robin over the archetypes.

    Origin specs are drawn uniformly from the integer rectangle
    spanned by the region (they need not be grid points). Per-workload
    parameter jitter is off by default: workloads of one archetype
    then share the exact surface and footprint, differing only in
    observation noise.
    """
    if not archetypes:
        raise ValueError("archetypes must be non-empty")
    master = np.random.default_rng(np.random.SeedSequence([rng_seed, 1]))
    noise_seeds, origins = [], []
    for _ in range(count):
        noise_seeds.append(int(master.integers(0, 2 ** 62)))
        origins.append(ResourceSpec(
            cores=int(master.integers(region.core_levels[0], region.core_levels[-1] + 1)),
            memory_gb=int(master.integers(region.memory_levels_gb[0],
                                          region.memory_levels_gb[-1] + 1))))
    return make_workload_batch(
        [archetypes[i % len(archetypes)] for i in range(count)], range(count), noise_seeds,
        origins, region, constants, base_spec, surface_noise, footprint_noise,
        reference_tracks=stress_reference_tracks(constants))


@dataclass(frozen=True)
class WorkloadSet:
    """A generated world: region, constants, archetypes and workloads."""

    region: ConfigRegion
    base_spec: ResourceSpec
    constants: NodeConstants
    seed: int
    surface_noise: float
    footprint_noise: float
    archetypes: tuple[WorkloadArchetype, ...]
    workloads: tuple[Workload, ...]

    @classmethod
    def generate(cls, archetype_count: int, workload_count: int, seed: int,
                 region: ConfigRegion = ConfigRegion(),
                 constants: NodeConstants = NodeConstants(),
                 base_spec: ResourceSpec = ResourceSpec(6, 8),
                 surface_noise: float = 0.0,
                 footprint_noise: float = 0.0) -> "WorkloadSet":
        if not region.is_grid_point(base_spec):
            raise ValueError(f"base {base_spec} must be a grid point")
        archetypes = generate_archetypes(archetype_count, seed, constants)
        workloads = generate_workloads(archetypes, workload_count, seed, region,
                                       constants, base_spec, surface_noise,
                                       footprint_noise)
        return cls(region=region, base_spec=base_spec, constants=constants,
                   seed=seed, surface_noise=surface_noise,
                   footprint_noise=footprint_noise,
                   archetypes=tuple(archetypes), workloads=tuple(workloads))

    def workload_by_id(self, workload_id: int) -> Workload:
        for w in self.workloads:
            if w.workload_id == workload_id:
                return w
        raise KeyError(f"no workload {workload_id}")

    def to_json(self) -> dict:
        return {"schema": "workload-set/v1", **fields_json(self)}

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def from_json(cls, obj, where: str = "workload_set") -> "WorkloadSet":
        got = decode({"schema": Literal["workload-set/v1"],
                      "region": ConfigRegion, "base_spec": ResourceSpec,
                      "constants": NodeConstants, "seed": int, "surface_noise": float,
                      "footprint_noise": float,
                      "archetypes": tuple[WorkloadArchetype, ...], "workloads": list},
                     obj, where)
        del got["schema"]
        got["workloads"] = tuple(Workload.from_json(got["region"], w, f"{where}.workloads[{i}]")
                                 for i, w in enumerate(got["workloads"]))
        return cls(**got)

    @classmethod
    def load(cls, path) -> "WorkloadSet":
        return cls.from_json(read_json(path), f"{path}: workload_set")
