"""Co-location slowdown model and its cluster-level metrics."""

import numpy as np
import pytest

from capsched.core import (
    InterferenceProfile,
    PressureSensitivity,
    ResourceSpec,
)
from capsched.simulator import (
    ClusterSpec,
    SlowdownReport,
    compute_metrics,
    degradation_factor,
    simulate_colocated,
)


def _profile(llc=(0, 0), membw=(0, 0), disk=(0, 0), network=(0, 0)):
    return InterferenceProfile(
        llc=PressureSensitivity(*llc),
        membw=PressureSensitivity(*membw),
        disk=PressureSensitivity(*disk),
        network=PressureSensitivity(*network))


SPEC = ResourceSpec(8, 16)


def test_degradation_factor_worked_example():
    # pressure 15 on a 20-level scale, threshold 5, sensitivity 10:
    # 1 / (1 + 0.5 * 10 * 10 / 400) = 1 / 1.125
    assert degradation_factor(15, 10, 0.5, 5, 20) == pytest.approx(1 / 1.125,
                                                                   abs=1e-15)


def test_degradation_factor_threshold_and_zero_sensitivity():
    assert degradation_factor(5, 10, 0.5, 5, 20) == 1.0
    assert degradation_factor(3, 10, 0.5, 5, 20) == 1.0
    assert degradation_factor(18, 0, 0.5, 5, 20) == 1.0
    with pytest.raises(ValueError):
        degradation_factor(-1, 1, 0.5, 5, 20)
    with pytest.raises(ValueError):
        degradation_factor(1, -1, 0.5, 5, 20)


def test_degradation_factor_monotone_and_bounded():
    prev = 1.0
    for pressure in range(0, 80, 4):
        d = degradation_factor(pressure, 12, 0.5, 5, 20)
        assert 0.0 < d <= 1.0
        assert d <= prev + 1e-15
        prev = d


def test_compute_metrics_worked_examples():
    p_sys, unfairness = compute_metrics([1.0, 1.0, 1.0])
    assert p_sys == 3.0
    assert unfairness == 0.0
    p_sys, unfairness = compute_metrics([0.5, 1.0])
    assert p_sys == 1.5
    assert unfairness == 0.5
    assert compute_metrics([0.8, 0.4, 1.0]) == compute_metrics([1.0, 0.8, 0.4])


def test_compute_metrics_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_metrics([])
    with pytest.raises(ValueError):
        compute_metrics([1.0, 0.0])
    with pytest.raises(ValueError):
        compute_metrics([-0.5])


def test_solo_tenant_keeps_slowdown_one():
    report = simulate_colocated(
        [("only", 0, SPEC, _profile(llc=(9, 9), membw=(9, 9)))],
        ClusterSpec(nodes=1))
    assert report.entries[0].sd == 1.0
    assert report.p_sys == 1.0
    assert report.unfairness == 0.0


def test_neighbors_on_other_nodes_do_not_interact():
    loud = _profile(membw=(20, 0))
    fragile = _profile(membw=(0, 20))
    report = simulate_colocated(
        [("loud", 0, SPEC, loud), ("fragile", 1, SPEC, fragile)],
        ClusterSpec(nodes=2))
    assert all(e.sd == 1.0 for e in report.entries)


def test_colocated_slowdown_matches_closed_form():
    cluster = ClusterSpec(nodes=1)
    loud = _profile(membw=(15, 0))
    fragile = _profile(membw=(0, 10))
    report = simulate_colocated(
        [("loud", 0, SPEC, loud), ("fragile", 0, SPEC, fragile)], cluster)
    by_id = {e.workload_id: e.sd for e in report.entries}
    # fragile feels pressure 15 at sensitivity 10; loud feels nothing
    assert by_id["fragile"] == pytest.approx(1 / 1.125, abs=1e-15)
    assert by_id["loud"] == 1.0
    assert report.p_sys == pytest.approx(1.0 + 1 / 1.125, abs=1e-15)
    assert report.unfairness == pytest.approx(1.0 - 1 / 1.125, abs=1e-15)


def test_resources_compose_multiplicatively():
    cluster = ClusterSpec(nodes=1)
    loud = _profile(membw=(15, 0), disk=(15, 0))
    fragile = _profile(membw=(0, 10), disk=(0, 10))
    report = simulate_colocated(
        [("loud", 0, SPEC, loud), ("fragile", 0, SPEC, fragile)], cluster)
    by_id = {e.workload_id: e.sd for e in report.entries}
    assert by_id["fragile"] == pytest.approx((1 / 1.125) ** 2, abs=1e-15)


def test_adding_pressure_never_helps_anyone():
    rng = np.random.default_rng(3)
    cluster = ClusterSpec(nodes=2)
    for _ in range(25):
        tenants = []
        for i in range(6):
            profile = _profile(
                llc=(int(rng.integers(0, 10)), int(rng.integers(0, 10))),
                membw=(int(rng.integers(0, 10)), int(rng.integers(0, 10))),
                disk=(int(rng.integers(0, 10)), int(rng.integers(0, 10))))
            tenants.append((f"t{i}", int(rng.integers(0, 2)),
                            ResourceSpec(4, 8), profile))
        base = simulate_colocated(tenants, cluster)
        # bump one tenant's llc pressure; everyone else can only get worse
        victim = int(rng.integers(0, 6))
        wid, node, spec, prof = tenants[victim]
        bumped = InterferenceProfile(
            llc=PressureSensitivity(prof.llc.pressure + 5, prof.llc.sensitivity),
            membw=prof.membw, disk=prof.disk, network=prof.network)
        tenants[victim] = (wid, node, spec, bumped)
        after = simulate_colocated(tenants, cluster)
        for e0, e1 in zip(base.entries, after.entries):
            if e0.workload_id == wid:
                assert e1.sd == e0.sd  # own pressure never hurts oneself
            else:
                assert e1.sd <= e0.sd + 1e-15


def test_spreading_hostile_tenants_beats_stacking():
    loud_fragile = _profile(membw=(10, 10))
    quiet = _profile()
    stacked = simulate_colocated(
        [("a", 0, SPEC, loud_fragile), ("b", 0, SPEC, loud_fragile),
         ("c", 1, SPEC, quiet), ("d", 1, SPEC, quiet)],
        ClusterSpec(nodes=2))
    spread = simulate_colocated(
        [("a", 0, SPEC, loud_fragile), ("b", 1, SPEC, loud_fragile),
         ("c", 0, SPEC, quiet), ("d", 1, SPEC, quiet)],
        ClusterSpec(nodes=2))
    assert spread.p_sys > stacked.p_sys
    assert spread.unfairness < stacked.unfairness


def test_simulate_validates_assignment():
    with pytest.raises(ValueError):
        simulate_colocated([], ClusterSpec(nodes=1))
    with pytest.raises(ValueError):
        simulate_colocated([("a", 0, SPEC, _profile()),
                            ("a", 0, SPEC, _profile())], ClusterSpec(nodes=1))
    with pytest.raises(ValueError):
        simulate_colocated([("a", 3, SPEC, _profile())], ClusterSpec(nodes=2))
    big = ResourceSpec(80, 200)
    with pytest.raises(ValueError):
        simulate_colocated([("a", 0, big, _profile()), ("b", 0, big, _profile())],
                           ClusterSpec(nodes=1))


def test_cluster_spec_validation_and_threshold():
    assert ClusterSpec().pressure_threshold == 5.0
    assert ClusterSpec(theta=2.0).pressure_threshold == 2.0
    with pytest.raises(ValueError):
        ClusterSpec(nodes=0)
    with pytest.raises(ValueError):
        ClusterSpec(gamma=0.0)
    with pytest.raises(ValueError):
        ClusterSpec(theta=-1.0)


def test_report_serialization():
    report = simulate_colocated(
        [("a", 0, SPEC, _profile(membw=(15, 0))),
         ("b", 0, SPEC, _profile(membw=(0, 10)))],
        ClusterSpec(nodes=1))
    obj = report.to_json()
    assert {e["workload_id"] for e in obj["entries"]} == {"a", "b"}
    assert obj["p_sys"] == report.p_sys


def _oracle_sds(tenants, cluster):
    # The O(k^2) neighbour loop: every tenant sums its neighbours' pressure.
    sds = []
    for workload_id, node_id, _, profile in tenants:
        sd = 1.0
        for attr in ("llc", "membw", "disk", "network"):
            external = sum(getattr(other, attr).pressure
                           for other_id, other_node, _, other in tenants
                           if other_node == node_id and other_id != workload_id)
            sd *= degradation_factor(external, getattr(profile, attr).sensitivity,
                                     cluster.gamma, cluster.pressure_threshold,
                                     cluster.constants.levels)
        sds.append(sd)
    return sds


def test_simulate_matches_the_neighbour_loop_bit_for_bit():
    rng = np.random.default_rng(616)
    for case in range(150):
        nodes = int(rng.integers(1, 5))
        cluster = ClusterSpec(nodes=nodes, gamma=float(rng.uniform(0.1, 2.0)),
                              theta=None if case % 3 else float(rng.uniform(0, 30)))
        tenants = []
        for i in range(int(rng.integers(1, 40))):
            levels = [(int(p), int(s)) for p, s in rng.integers(0, 21, size=(4, 2))]
            tenants.append((i if case % 2 else f"w{i}", int(rng.integers(0, nodes)),
                            ResourceSpec(1, 1), _profile(*levels)))
        report = simulate_colocated(tenants, cluster)
        want = _oracle_sds(tenants, cluster)
        assert [e.sd for e in report.entries] == want
        assert [e.workload_id for e in report.entries] == [t[0] for t in tenants]
        assert report.p_sys == sum(want)
