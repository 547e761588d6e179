"""Generator invariants: separation, determinism, observation model."""

from dataclasses import replace

import numpy as np
import pytest

from capsched.core import (
    ConfigRegion,
    NodeConstants,
    ResourceSpec,
    SharedResource,
)
from capsched.estimator import stress_reference_tracks
from capsched.workload_synth import (
    activity,
    generate_archetypes,
    generate_workloads,
    make_workload,
    observe_indexes,
    probe_for,
    tps_at,
    true_profile_at,
)
from capsched.workload_synth import _jittered_params

CONSTANTS = NodeConstants()
REGION = ConfigRegion()
BASE = ResourceSpec(6, 8)


def _workloads(count=10, seed=3):
    archetypes = generate_archetypes(5, rng_seed=seed, constants=CONSTANTS)
    return generate_workloads(archetypes, count, rng_seed=seed, region=REGION,
                              constants=CONSTANTS, base_spec=BASE)


def test_archetype_families_rotate():
    archetypes = generate_archetypes(10, rng_seed=1, constants=CONSTANTS)
    families = [a.family for a in archetypes]
    assert len(set(families[:5])) == 5
    assert families[5:] == families[:5]


def test_archetype_shapes_separated():
    archetypes = generate_archetypes(20, rng_seed=0, constants=CONSTANTS)
    # normalized L-inf distance over the four surface shape parameters
    ranges = ((0.15, 1.0), (0.10, 0.80), (3.0, 14.0), (4.0, 18.0))
    threshold = min(0.3, 0.8 * 20 ** -0.25)

    def shape(a):
        return (a.params.alpha, a.params.beta,
                a.params.sat_cores, a.params.sat_memory)

    for i, a in enumerate(archetypes):
        for b in archetypes[i + 1:]:
            dist = max(abs(x - y) / (hi - lo)
                       for x, y, (lo, hi) in zip(shape(a), shape(b), ranges))
            assert dist >= threshold - 1e-12


def test_archetypes_deterministic():
    a = generate_archetypes(8, rng_seed=42, constants=CONSTANTS)
    b = generate_archetypes(8, rng_seed=42, constants=CONSTANTS)
    assert a == b
    c = generate_archetypes(8, rng_seed=43, constants=CONSTANTS)
    assert a != c


def test_workload_surfaces_are_monotone_with_unit_base():
    for w in _workloads(count=25):
        surf = w.ground_truth_surface
        assert surf.speedup_at(surf.base_spec) == 1.0
        assert surf.is_monotone()


def test_make_workload_reproducible():
    archetypes = generate_archetypes(3, rng_seed=9, constants=CONSTANTS)
    kwargs = dict(origin=ResourceSpec(4, 6), region=REGION,
                  constants=CONSTANTS, base_spec=BASE,
                  surface_noise=0.05, footprint_noise=0.05,
                  reference_tracks=stress_reference_tracks(CONSTANTS))
    w1 = make_workload(archetypes[0], 0, 12345, **kwargs)
    w2 = make_workload(archetypes[0], 0, 12345, **kwargs)
    assert w1.params == w2.params
    assert w1.ground_truth_surface == w2.ground_truth_surface
    w3 = make_workload(archetypes[0], 0, 54321, **kwargs)
    assert w3.params != w1.params


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_make_workload_refuses_a_negative_noise_seed_at_any_noise(noise):
    # At zero noise no generator is seeded, so make_workload checks the seed itself.
    archetype = generate_archetypes(2, rng_seed=9, constants=CONSTANTS)[0]
    with pytest.raises(ValueError, match="noise_seed must be non-negative, got -1"):
        make_workload(archetype, 0, -1, ResourceSpec(4, 6), REGION, CONSTANTS, BASE,
                      surface_noise=noise, footprint_noise=noise,
                      reference_tracks=stress_reference_tracks(CONSTANTS))


def test_zero_jitter_without_a_generator_matches_zero_jitter_drawn(default_wset):
    # exp(0 * z) is exactly 1.0, so skipping the draws changes nothing, the
    # clips included: the last archetype's alpha lies outside its clamp.
    params = [a.params for a in default_wset.archetypes]
    params.append(replace(params[0], alpha=1.5, sat_memory=25.0))
    for p in params:
        drawn = _jittered_params(p, np.random.default_rng(1), 0.0, 0.0)
        assert _jittered_params(p, None, 0.0, 0.0) == drawn
    assert drawn.alpha == 1.2 and drawn.sat_memory == 20.0


def test_activity_normalized_at_region_max():
    for w in _workloads(count=10):
        top = activity(w.params, REGION, REGION.max_spec)
        assert top == pytest.approx(1.0)
        for spec in (ResourceSpec(1, 2), ResourceSpec(4, 6), w.origin_spec):
            a = activity(w.params, REGION, spec)
            assert 0.0 < a <= 1.0 + 1e-12


def test_tps_tracks_surface():
    for w in _workloads(count=8):
        base_tps = tps_at(w, w.ground_truth_surface.base_spec)
        for spec in (ResourceSpec(2, 4), ResourceSpec(10, 12)):
            ratio = tps_at(w, spec) / base_tps
            assert ratio == pytest.approx(w.ground_truth_surface.speedup_at(spec))


def test_observation_noise_free_is_deterministic():
    w = _workloads(count=1)[0]
    a = observe_indexes(w, BASE, 0.0, CONSTANTS)
    b = observe_indexes(w, BASE, 0.0, CONSTANTS)
    assert a == b


def test_observation_noise_is_seeded_and_bounded():
    w = _workloads(count=1)[0]
    clean = observe_indexes(w, BASE, 0.0, CONSTANTS)
    noisy1 = observe_indexes(w, BASE, 0.05, CONSTANTS)
    noisy2 = observe_indexes(w, BASE, 0.05, CONSTANTS)
    assert noisy1 == noisy2  # noise keyed off the workload seed and spec
    assert noisy1 != clean
    arr = noisy1.as_array()
    assert np.all(arr >= 0.0)
    assert noisy1.cache_misses <= noisy1.cache_references


def test_observation_io_byte_identity():
    # read/write byte counters are the serviced counts at a fixed block size
    for w in _workloads(count=6):
        vec = observe_indexes(w, BASE, 0.0, CONSTANTS)
        assert vec.io_read_bytes == pytest.approx(vec.io_serviced_read * 16384)
        assert vec.io_write_bytes == pytest.approx(vec.io_serviced_write * 16384)


def test_true_profile_silent_resource_is_insensitive():
    refs = stress_reference_tracks(CONSTANTS)
    for w in _workloads(count=12):
        prof = true_profile_at(w, ResourceSpec(4, 6), CONSTANTS, refs)
        for resource in SharedResource:
            ps = prof.get(resource)
            assert ps.pressure >= 0
            assert ps.sensitivity >= 0
        f = w.params.footprint
        if f.iops == 0.0:
            assert prof.get(SharedResource.DISK).sensitivity == 0


def test_true_profile_pressure_monotone_in_spec():
    refs = stress_reference_tracks(CONSTANTS)
    small, large = ResourceSpec(1, 2), ResourceSpec(12, 16)
    for w in _workloads(count=12):
        lo = true_profile_at(w, small, CONSTANTS, refs)
        hi = true_profile_at(w, large, CONSTANTS, refs)
        for resource in SharedResource:
            assert lo.get(resource).pressure <= hi.get(resource).pressure


def test_probe_reports_activity_scaled_usage():
    w = _workloads(count=1)[0]
    probe = probe_for([w, w], [ResourceSpec(1, 2), ResourceSpec(12, 16)], CONSTANTS)
    for resource in (SharedResource.MEMORY_BANDWIDTH, SharedResource.DISK,
                     SharedResource.NETWORK):
        lo, hi = probe.read_usage(resource)
        assert lo <= hi
