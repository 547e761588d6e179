"""Pressure/sensitivity estimation against the simulated probe."""

import inspect
import math

import numpy as np
import pytest

from capsched.core import NodeConstants, ResourceSpec, SharedResource
from capsched.estimator import (
    DEGRADATION_THRESHOLD,
    RATE_FIELDS,
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
from capsched.estimator import _sweep_sensitivity
from capsched.workload_synth import probe_for

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
    probe = SimulatedProbe(CONSTANTS, [fp])
    [ps] = quantify_llc(probe, stress_reference_tracks(CONSTANTS))
    assert ps.pressure == 3
    # first >=10% kmps rise appears at 6 ways; 6/11 of the 20-level scale
    assert ps.sensitivity == ways_to_level(6, 11, 20) == 11


def test_quantify_rate_resources_worked_examples():
    fp = _footprint(membw_gbps=4.5, iops=4500.0, network_gbps=4.4,
                    sens_membw=7, sens_disk=12, sens_network=0)
    probe = SimulatedProbe(CONSTANTS, [fp])
    [membw] = quantify_rate(probe, SharedResource.MEMORY_BANDWIDTH)
    assert (membw.pressure, membw.sensitivity) == (5, 7)
    [disk] = quantify_rate(probe, SharedResource.DISK)
    assert (disk.pressure, disk.sensitivity) == (5, 12)
    [net] = quantify_rate(probe, SharedResource.NETWORK)
    assert net.pressure == pressure_level(4.4, 25.0, 20) == 4
    assert net.sensitivity == 0


def test_idle_resource_scores_zero_everywhere():
    probe = SimulatedProbe(CONSTANTS, [_footprint(sens_membw=15, sens_disk=15,
                                                  sens_network=15)])
    [profile] = build_profile(probe, stress_reference_tracks(CONSTANTS))
    for resource in SharedResource:
        ps = profile.get(resource)
        assert (ps.pressure, ps.sensitivity) == (0, 0)


def test_sensitivity_recovered_exactly_across_levels():
    levels = [0, 1, 5, 10, 19, 20]
    probe = SimulatedProbe(CONSTANTS, [
        _footprint(membw_gbps=6.0, iops=2000.0, network_gbps=3.0,
                   sens_membw=sens, sens_disk=sens, sens_network=sens) for sens in levels])
    for resource in (SharedResource.MEMORY_BANDWIDTH, SharedResource.DISK,
                     SharedResource.NETWORK):
        assert [ps.sensitivity for ps in quantify_rate(probe, resource)] == levels


def test_activity_scales_pressure_not_sensitivity():
    fp = _footprint(membw_gbps=9.0, sens_membw=8)
    membw = SharedResource.MEMORY_BANDWIDTH
    full, half = quantify_rate(SimulatedProbe(CONSTANTS, [fp, fp], activities=[1.0, 0.5]),
                               membw)
    assert full.pressure == 9
    assert half.pressure == 5  # round_half_up(4.5)
    assert full.sensitivity == half.sensitivity == 8


def test_build_profile_composes_per_resource_estimates():
    fp = _footprint(kmps_base=300.0, demand_ways=8.0, demand_slope=0.08,
                    membw_gbps=4.5, iops=4500.0, network_gbps=4.4,
                    sens_membw=7, sens_disk=12, sens_network=3)
    tracks = stress_reference_tracks(CONSTANTS)
    [profile] = build_profile(SimulatedProbe(CONSTANTS, [fp]), tracks)
    assert [profile.get(SharedResource.LLC)] == quantify_llc(
        SimulatedProbe(CONSTANTS, [fp]), tracks)
    assert profile.get(SharedResource.MEMORY_BANDWIDTH).pressure == 5
    assert profile.get(SharedResource.DISK).sensitivity == 12
    assert profile.get(SharedResource.NETWORK).sensitivity == 3


def test_probe_validates_inputs():
    fp = _footprint(membw_gbps=1.0)
    with pytest.raises(ValueError):
        SimulatedProbe(CONSTANTS, [fp], activities=[1.5])
    with pytest.raises(ValueError):
        SimulatedProbe(CONSTANTS, [fp], noise_sigma=-0.1)
    with pytest.raises(ValueError):
        SimulatedProbe(CONSTANTS, [fp], noise_sigma=float("nan"))
    with pytest.raises(ValueError):
        SimulatedProbe(CONSTANTS, [fp, fp], activities=[1.0])
    with pytest.raises(ValueError):
        SimulatedProbe(CONSTANTS, [fp], seeds=[1, 2])
    probe = SimulatedProbe(CONSTANTS, [fp])
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
    a = SimulatedProbe(CONSTANTS, [fp], noise_sigma=0.02, seeds=[9])
    b = SimulatedProbe(CONSTANTS, [fp], noise_sigma=0.02, seeds=[9])
    clean = SimulatedProbe(CONSTANTS, [fp])
    seq_a = [a.read_usage(SharedResource.MEMORY_BANDWIDTH).tolist() for _ in range(4)]
    seq_b = [b.read_usage(SharedResource.MEMORY_BANDWIDTH).tolist() for _ in range(4)]
    assert seq_a == seq_b
    assert seq_a != [clean.read_usage(SharedResource.MEMORY_BANDWIDTH).tolist()] * 4


def test_reference_tracks_json_roundtrip():
    tracks = stress_reference_tracks(CONSTANTS)
    back = ReferenceTracks.from_json(tracks.to_json())
    assert back.levels == tracks.levels
    assert np.array_equal(back.kmps, tracks.kmps)
    with pytest.raises(ValueError):
        ReferenceTracks.from_json({"schema": "other/v1", "tracks": []})


@pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
def test_probe_refuses_a_negative_seed_at_any_noise(noise_sigma):
    # At zero noise no generator is seeded, so the probe checks the seed itself.
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SimulatedProbe(CONSTANTS, [_footprint(membw_gbps=1.0)],
                       noise_sigma=noise_sigma, seeds=[-1])


# --- the bisection sweep against the ascending scan it replaced ---------------

def _ascending_sweep(probe, row, resource, n_levels, baseline):
    """Ascending stress sweep of one row of the probe; first >=10% drop wins.

    Returns n_levels - max_unaffected_level. The baseline is the
    unstressed (level 0) reading per the protocol.
    """
    if baseline <= 0:
        return 0
    max_level = n_levels
    for level in range(1, n_levels + 1):
        [usage] = probe.apply_stress(resource, level, [row])
        if baseline - usage >= DEGRADATION_THRESHOLD * baseline:
            max_level = level - 1
            break
    return n_levels - max_level


class _CountingProbe:
    """A probe whose stress runs are counted per row."""

    def __init__(self, probe, rows):
        self.probe, self.stress_runs = probe, np.zeros(rows, dtype=int)

    def apply_stress(self, resource, level, rows):
        np.add.at(self.stress_runs, rows, 1)
        return self.probe.apply_stress(resource, level, rows)


def _both_sweeps(probe, rows, resource):
    n = probe.constants.levels
    baseline = probe.apply_stress(resource, 0)
    counted = _CountingProbe(probe, rows)
    got = _sweep_sensitivity(counted, resource, n, baseline)
    assert counted.stress_runs.max() <= math.ceil(math.log2(n + 1))
    return got.tolist(), [_ascending_sweep(probe, row, resource, n, b)
                          for row, b in enumerate(baseline.tolist())]


@pytest.mark.parametrize("spec", [ResourceSpec(1, 2), ResourceSpec(6, 8),
                                  ResourceSpec(12, 16)])
def test_bisection_sweep_matches_the_ascending_scan_on_default_workloads(
        spec, default_wset):
    workloads = default_wset.workloads
    probe = probe_for(workloads, [spec] * len(workloads), default_wset.constants)
    for resource in RATE_FIELDS:
        got, want = _both_sweeps(probe, len(workloads), resource)
        assert got == want, resource


@pytest.mark.parametrize("levels", [1, 2, 3, 7, 8, 20, 31])
def test_bisection_sweep_matches_the_ascending_scan_at_every_crossing(levels):
    # sens 0 never crosses, sens `levels` crosses at level 1 and sens 1 at
    # level `levels`; usage 0 is a zero baseline.
    constants = NodeConstants(levels=levels)
    cases = [(sens, usage) for sens in range(levels + 2) for usage in (0.0, 3.0)]
    probe = SimulatedProbe(constants, [
        _footprint(membw_gbps=usage, iops=usage, network_gbps=usage,
                   sens_membw=sens, sens_disk=sens, sens_network=sens)
        for sens, usage in cases])
    expected = [min(sens, levels) if usage else 0 for sens, usage in cases]
    for resource in RATE_FIELDS:
        got, want = _both_sweeps(probe, len(cases), resource)
        assert got == want == expected


# --- probe cost -----------------------------------------------------------------

PROBE_METHODS = ("read_usage", "set_llc_ways", "apply_stress")


def test_probe_methods_are_every_public_method_of_the_probe():
    public = {name for name, value in vars(SimulatedProbe).items()
              if not name.startswith("_") and inspect.isfunction(value)}
    assert public == set(PROBE_METHODS)


def test_a_profile_costs_at_most_29_probe_readings(default_wset, monkeypatch):
    # Per workload: 11 way readings, one level-0 reading per rate resource,
    # and at most ceil(log2(21)) = 5 stress runs per rate resource. A
    # reading is one entry of a probe method's result, so each row of a
    # batch is counted on its own.
    readings = []

    def counted(method):
        def wrapper(self, *args, **kwargs):
            usage = method(self, *args, **kwargs)
            rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
            np.add.at(readings[-1], slice(None) if rows is None else rows, 1)
            return usage
        return wrapper

    for name in PROBE_METHODS:
        monkeypatch.setattr(SimulatedProbe, name, counted(getattr(SimulatedProbe, name)))
    tracks = stress_reference_tracks(default_wset.constants)
    workloads = default_wset.workloads

    def profile(batch):
        readings.append(np.zeros(len(batch), dtype=int))
        build_profile(probe_for(batch, [w.origin_spec for w in batch],
                                default_wset.constants), tracks)
        return readings[-1].tolist()

    batched = [profile(workloads) for _ in range(2)]
    assert batched[0] == batched[1]
    assert max(batched[0]) <= CONSTANTS.llc_ways + 3 + 3 * 5 == 29
    # a workload costs the same in the batch as alone
    assert batched[0] == [n for w in workloads for n in profile([w])]
