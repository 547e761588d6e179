"""Pressure/sensitivity estimation against the simulated probe."""

import numpy as np
import pytest

from capsched.core import NodeConstants, SharedResource
from capsched.estimator import (
    ReferenceTracks,
    ResourceFootprint,
    SimulatedProbe,
    build_profile,
    llc_sensitivity_ways,
    pressure_level,
    quantify_llc,
    quantify_rate,
    stress_reference_tracks,
    ways_to_level,
)

CONSTANTS = NodeConstants()


def _footprint(**overrides):
    base = dict(kmps_base=0.0, demand_ways=0.0, demand_slope=0.0,
                membw_gbps=0.0, iops=0.0, network_gbps=0.0,
                sens_membw=0, sens_disk=0, sens_network=0)
    base.update(overrides)
    return ResourceFootprint(**base)


def test_pressure_level_rounds_half_up():
    # 20 levels, 4.5 GB/s of 20 GB/s sits exactly between levels 4 and 5
    assert pressure_level(4.5, 20.0, 20) == 5
    assert pressure_level(4.4, 20.0, 20) == 4
    assert pressure_level(0.0, 20.0, 20) == 0
    assert pressure_level(50.0, 20.0, 20) == 20  # clamped at the scale top


def test_pressure_level_validates_inputs():
    with pytest.raises(ValueError):
        pressure_level(1.0, 0.0, 20)
    with pytest.raises(ValueError):
        pressure_level(1.0, 20.0, 0)
    with pytest.raises(ValueError):
        pressure_level(-1.0, 20.0, 20)


def test_ways_to_level_scales_onto_shared_axis():
    assert ways_to_level(11, 11, 20) == 20
    assert ways_to_level(0, 11, 20) == 0
    assert ways_to_level(5, 11, 20) == 9  # round_half_up(100 / 11)


def test_reference_tracks_cover_every_level():
    tracks = stress_reference_tracks(CONSTANTS)
    assert tracks.levels == tuple(range(CONSTANTS.levels + 1))
    assert tracks.kmps.shape == (CONSTANTS.levels + 1, CONSTANTS.llc_ways)
    assert tracks.ways == CONSTANTS.llc_ways
    assert not tracks.kmps[0].any()
    assert np.array_equal(tracks.kmps, stress_reference_tracks(CONSTANTS).kmps)


def test_nearest_level_exact_and_tie_to_lower():
    tracks = stress_reference_tracks(CONSTANTS)
    for level, row in zip(tracks.levels, tracks.kmps):
        assert tracks.nearest_level(row) == level
    dup = ReferenceTracks(levels=(2, 1), kmps=[tracks.kmps[3], tracks.kmps[3]])
    assert dup.nearest_level(tracks.kmps[3]) == 1
    midway = ReferenceTracks(levels=(7, 3), kmps=[[4.0, 2.0], [2.0, 0.0]])
    assert midway.nearest_level([3.0, 1.0]) == 3
    with pytest.raises(ValueError):
        ReferenceTracks(levels=(), kmps=[])


def test_llc_sensitivity_first_crossing_from_full_cache():
    # 10% rise threshold; the jump sits between ways 4 and 5
    values = tuple([1.2] * 4 + [1.0] * 7)
    assert llc_sensitivity_ways(values) == 4
    assert llc_sensitivity_ways((2.0,) * 11) == 0
    assert llc_sensitivity_ways((0.0,) * 11) == 0


def test_quantify_llc_recovers_matching_reference():
    # demand 8 ways at 8% per way reproduces the level-3 stress track
    fp = _footprint(kmps_base=300.0, demand_ways=8.0, demand_slope=0.08)
    probe = SimulatedProbe(CONSTANTS, fp)
    ps = quantify_llc(probe, stress_reference_tracks(CONSTANTS))
    assert ps.pressure == 3
    # first >=10% kmps rise appears at 6 ways; 6/11 of the 20-level scale
    assert ps.sensitivity == ways_to_level(6, 11, 20) == 11


def test_quantify_rate_resources_worked_examples():
    fp = _footprint(membw_gbps=4.5, iops=4500.0, network_gbps=4.4,
                    sens_membw=7, sens_disk=12, sens_network=0)
    probe = SimulatedProbe(CONSTANTS, fp)
    membw = quantify_rate(probe, SharedResource.MEMORY_BANDWIDTH)
    assert (membw.pressure, membw.sensitivity) == (5, 7)
    disk = quantify_rate(probe, SharedResource.DISK)
    assert (disk.pressure, disk.sensitivity) == (5, 12)
    net = quantify_rate(probe, SharedResource.NETWORK)
    assert net.pressure == pressure_level(4.4, 25.0, 20) == 4
    assert net.sensitivity == 0


def test_idle_resource_scores_zero_everywhere():
    probe = SimulatedProbe(CONSTANTS, _footprint(sens_membw=15, sens_disk=15,
                                                 sens_network=15))
    profile = build_profile(probe, stress_reference_tracks(CONSTANTS))
    for resource in SharedResource:
        ps = profile.get(resource)
        assert (ps.pressure, ps.sensitivity) == (0, 0)


def test_sensitivity_recovered_exactly_across_levels():
    for sens in (0, 1, 5, 10, 19, 20):
        fp = _footprint(membw_gbps=6.0, iops=2000.0, network_gbps=3.0,
                        sens_membw=sens, sens_disk=sens, sens_network=sens)
        probe = SimulatedProbe(CONSTANTS, fp)
        for resource in (SharedResource.MEMORY_BANDWIDTH, SharedResource.DISK,
                         SharedResource.NETWORK):
            assert quantify_rate(probe, resource).sensitivity == sens


def test_activity_scales_pressure_not_sensitivity():
    fp = _footprint(membw_gbps=9.0, sens_membw=8)
    membw = SharedResource.MEMORY_BANDWIDTH
    full = quantify_rate(SimulatedProbe(CONSTANTS, fp, activity=1.0), membw)
    half = quantify_rate(SimulatedProbe(CONSTANTS, fp, activity=0.5), membw)
    assert full.pressure == 9
    assert half.pressure == 5  # round_half_up(4.5)
    assert full.sensitivity == half.sensitivity == 8


def test_build_profile_composes_per_resource_estimates():
    fp = _footprint(kmps_base=300.0, demand_ways=8.0, demand_slope=0.08,
                    membw_gbps=4.5, iops=4500.0, network_gbps=4.4,
                    sens_membw=7, sens_disk=12, sens_network=3)
    tracks = stress_reference_tracks(CONSTANTS)
    profile = build_profile(SimulatedProbe(CONSTANTS, fp), tracks)
    assert profile.get(SharedResource.LLC) == quantify_llc(
        SimulatedProbe(CONSTANTS, fp), tracks)
    assert profile.get(SharedResource.MEMORY_BANDWIDTH).pressure == 5
    assert profile.get(SharedResource.DISK).sensitivity == 12
    assert profile.get(SharedResource.NETWORK).sensitivity == 3


def test_probe_validates_inputs():
    fp = _footprint(membw_gbps=1.0)
    with pytest.raises(ValueError):
        SimulatedProbe(CONSTANTS, fp, activity=1.5)
    with pytest.raises(ValueError):
        SimulatedProbe(CONSTANTS, fp, noise_sigma=-0.1)
    probe = SimulatedProbe(CONSTANTS, fp)
    with pytest.raises(ValueError):
        probe.set_llc_ways(0)
    with pytest.raises(ValueError):
        probe.set_llc_ways(CONSTANTS.llc_ways + 1)
    with pytest.raises(ValueError):
        probe.apply_stress(SharedResource.LLC, 1)
    with pytest.raises(ValueError):
        probe.apply_stress(SharedResource.DISK, -1)


def test_noisy_probe_is_seeded():
    fp = _footprint(membw_gbps=5.0, sens_membw=4)
    a = SimulatedProbe(CONSTANTS, fp, noise_sigma=0.02, seed=9)
    b = SimulatedProbe(CONSTANTS, fp, noise_sigma=0.02, seed=9)
    clean = SimulatedProbe(CONSTANTS, fp)
    seq_a = [a.read_usage(SharedResource.MEMORY_BANDWIDTH) for _ in range(4)]
    seq_b = [b.read_usage(SharedResource.MEMORY_BANDWIDTH) for _ in range(4)]
    assert seq_a == seq_b
    assert seq_a != [clean.read_usage(SharedResource.MEMORY_BANDWIDTH)] * 4


def test_reference_tracks_json_roundtrip():
    tracks = stress_reference_tracks(CONSTANTS)
    back = ReferenceTracks.from_json(tracks.to_json())
    assert back.levels == tracks.levels
    assert np.array_equal(back.kmps, tracks.kmps)
    with pytest.raises(ValueError):
        ReferenceTracks.from_json({"schema": "other/v1", "tracks": []})
