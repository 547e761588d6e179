"""The tenant-side steps over a batch against their per-tenant forms.

Observation, ground-truth profiles, probe sweeps, track matching,
workload instantiation and archetype drawing each take a batch of
workloads at once. tenant_oracles holds the per-tenant code they
replaced; every comparison here is exact, because these values reach
the artifacts, which must not change.
"""

from dataclasses import replace

import numpy as np
import pytest

import tenant_oracles as oracle
from capsched import experiment
from capsched.core import NodeConstants, ResourceSpec, SharedResource
from capsched.estimator import (
    ReferenceTracks,
    ResourceFootprint,
    SimulatedProbe,
    build_profile,
    stress_reference_tracks,
)
from capsched.workload_synth import (
    generate_archetypes,
    make_workload_batch,
    observe_indexes_batch,
    probe_for,
    true_profile_batch,
)

SPECS = [None, ResourceSpec(1, 2), ResourceSpec(6, 8), ResourceSpec(12, 16),
         ResourceSpec(3, 5)]  # None: each workload's origin


@pytest.fixture(scope="module", params=["plain", "jittered"])
def world(request, default_config):
    """Every workload of a default world and one colocate trial's tenants,
    without and with surface and footprint jitter."""
    config = default_config
    if request.param == "jittered":
        config = replace(config, surface_noise=0.05, footprint_noise=0.05)
    wset = experiment.build_workload_set(config)
    references = stress_reference_tracks(wset.constants)
    tenants = experiment._draw_tenants(config, wset, 0, references)
    assert len(tenants) == config.tenants_per_trial
    return wset, list(wset.workloads) + tenants, references


def _at(spec, workloads):
    return [spec or w.origin_spec for w in workloads]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("noise_sigma", [0.0, 0.05])
def test_observe_batch_equals_per_tenant_observation(world, spec, noise_sigma):
    wset, workloads, _ = world
    specs = _at(spec, workloads)
    got = observe_indexes_batch(workloads, specs, noise_sigma, wset.constants)
    want = [oracle.observe_indexes(w, s, noise_sigma, wset.constants)
            for w, s in zip(workloads, specs)]
    assert [v.as_array().tobytes() for v in got] == [v.as_array().tobytes() for v in want]
    assert got == want


@pytest.mark.parametrize("spec", SPECS)
def test_true_profile_batch_equals_per_tenant_profiles(world, spec):
    wset, workloads, references = world
    specs = _at(spec, workloads)
    got = true_profile_batch(workloads, specs, wset.constants, references)
    assert got == [oracle.true_profile_at(w, s, wset.constants, references)
                   for w, s in zip(workloads, specs)]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("probe_noise", [0.0, 0.05])
def test_build_profile_batch_equals_per_tenant_profiles(world, spec, probe_noise):
    wset, workloads, references = world
    specs = _at(spec, workloads)
    seeds = [w.noise_seed for w in workloads]
    got = build_profile(probe_for(workloads, specs, wset.constants, noise_sigma=probe_noise,
                                  seeds=seeds), references)
    want = [oracle.build_profile(oracle.probe_for(w, s, wset.constants,
                                                  noise_sigma=probe_noise,
                                                  seed=w.noise_seed), references)
            for w, s in zip(workloads, specs)]
    assert got == want


def test_lockstep_bisection_draws_each_tenants_noise_as_a_sequential_run(world):
    # At probe noise a tenant's readings differ with the order of its draws,
    # so profiling the batch at once and one tenant at a time agree only if
    # every tenant draws in the same order both ways.
    wset, workloads, references = world
    specs = _at(None, workloads)
    batch = build_profile(probe_for(workloads, specs, wset.constants, noise_sigma=0.05,
                                    seeds=[w.noise_seed for w in workloads]), references)
    alone = [p for w, s in zip(workloads, specs)
             for p in build_profile(probe_for([w], [s], wset.constants, noise_sigma=0.05,
                                              seeds=[w.noise_seed]), references)]
    clean = build_profile(probe_for(workloads, specs, wset.constants), references)
    assert batch == alone
    assert batch != clean


def test_noisy_readings_follow_each_rows_own_generator():
    fp = ResourceFootprint(kmps_base=300.0, demand_ways=8.0, demand_slope=0.08,
                           membw_gbps=4.5, iops=4500.0, network_gbps=4.4,
                           sens_membw=7, sens_disk=12, sens_network=3)
    constants = NodeConstants()
    batch = SimulatedProbe(constants, [fp, fp, fp], activities=[1.0, 0.5, 0.25],
                           noise_sigma=0.05, seeds=[3, 4, 5])
    alone = [oracle.SimulatedProbe(constants, fp, activity=a, noise_sigma=0.05, seed=s)
             for a, s in ((1.0, 3), (0.5, 4), (0.25, 5))]
    disk = SharedResource.DISK
    # row 1 sits out the second stress run and takes the third
    for level, rows in ((0, None), (14, [0, 2]), (9, [1]), (20, None)):
        got = batch.apply_stress(disk, level, rows)
        want = [alone[r].apply_stress(disk, level) for r in (rows or range(3))]
        assert got.tolist() == want
    assert batch.set_llc_ways(4).tolist() == [p.set_llc_ways(4) for p in alone]
    assert batch.read_usage(disk).tolist() == [p.read_usage(disk) for p in alone]


def test_nearest_levels_equal_the_per_track_scan():
    rng = np.random.default_rng(16)
    default = stress_reference_tracks(NodeConstants())
    tables = [default] + [
        ReferenceTracks(levels=tuple(int(v) for v in rng.integers(0, 6, n)),
                        kmps=np.sort(rng.uniform(0.0, 50.0, (n, ways)), axis=1)[:, ::-1])
        for n, ways in ((1, 1), (3, 4), (8, 11), (8, 11))]
    for table in tables:
        # several blocks of rows, with repeats and exact rows
        tracks = rng.uniform(0.0, float(table.kmps.max()) + 1.0, (600, table.ways))
        tracks[::7] = table.kmps[rng.integers(0, len(table.levels), len(tracks[::7]))]
        tracks[1::7] = tracks[0::7][:len(tracks[1::7])]
        got = table.nearest_levels(tracks).tolist()
        assert got == [oracle.nearest_level(table, t) for t in tracks.tolist()]
        assert got == [table.nearest_level(t) for t in tracks.tolist()]


def test_nearest_levels_refuses_a_bad_block():
    table = ReferenceTracks(levels=(0,), kmps=[[2.0, 1.0]])
    with pytest.raises(ValueError, match=r"tracks have shape \(2,\), the reference tracks "
                                         "cover 2 ways"):
        table.nearest_levels([1.0, 1.0])
    with pytest.raises(ValueError, match=r"kmps must be finite non-negative, got \[1.0, -1.0\]"):
        table.nearest_levels([[1.0, 1.0], [1.0, -1.0]])


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_make_workload_batch_equals_per_tenant_instances(default_wset, noise):
    wset = default_wset
    rng = np.random.default_rng(3)
    n = 40
    archetypes = [wset.archetypes[int(i)] for i in rng.integers(0, len(wset.archetypes), n)]
    seeds = [int(s) for s in rng.integers(0, 2 ** 62, n)]
    origins = [ResourceSpec(int(c), int(m))
               for c, m in zip(rng.integers(1, 13, n), rng.integers(2, 17, n))]
    references = stress_reference_tracks(wset.constants)
    got = make_workload_batch(archetypes, range(n), seeds, origins, wset.region,
                              wset.constants, wset.base_spec, noise, noise,
                              reference_tracks=references)
    want = [oracle.make_workload(a, i, s, o, wset.region, wset.constants, wset.base_spec,
                                 noise, noise, reference_tracks=references)
            for i, (a, s, o) in enumerate(zip(archetypes, seeds, origins))]
    assert got == want


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("count", [2, 7, 20, 60])
def test_archetype_separation_check_equals_the_pairwise_loop(seed, count):
    constants = NodeConstants()
    assert (generate_archetypes(count, seed, constants)
            == oracle.generate_archetypes(count, seed, constants))


def test_archetype_separation_check_equals_the_pairwise_loop_at_200():
    constants = NodeConstants()
    assert generate_archetypes(200, 1, constants) == oracle.generate_archetypes(200, 1,
                                                                                constants)
