"""Co-location slowdown model and its cluster-level metrics."""

import numpy as np
import pytest

from capsched.core import (
    InterferenceProfile,
    PressureSensitivity,
    ResourceSpec,
    SharedResource,
)
from capsched.simulator import (
    ClusterSpec,
    SlowdownEntry,
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


def _oracle_sds(tenants, cluster, factor=degradation_factor):
    # The O(k^2) neighbour loop: every tenant sums its neighbours' pressure.
    sds = []
    for workload_id, node_id, _, profile in tenants:
        sd = 1.0
        for attr in ("llc", "membw", "disk", "network"):
            external = sum(getattr(other, attr).pressure
                           for other_id, other_node, _, other in tenants
                           if other_node == node_id and other_id != workload_id)
            sd *= factor(external, getattr(profile, attr).sensitivity,
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


def _python_factor(pressure, sensitivity, gamma, theta, levels):
    # The formula in scalar Python floats, in the simulator's operation order.
    excess = max(0.0, pressure - theta)
    return 1.0 / (1.0 + gamma * sensitivity * excess / levels ** 2)


def _random_tenants(rng, count, nodes, high, ids=lambda i: i):
    return [(ids(i), int(rng.integers(0, nodes)), ResourceSpec(1, 1),
             _profile(*[(int(p), int(s)) for p, s in rng.integers(0, high + 1, size=(4, 2))]))
            for i in range(count)]


def _assert_matches_the_oracles(tenants, cluster):
    report = simulate_colocated(tenants, cluster)
    got = [e.sd for e in report.entries]
    want = _oracle_sds(tenants, cluster)
    assert got == want
    assert got == _oracle_sds(tenants, cluster, _python_factor)
    assert [(e.workload_id, e.node_id) for e in report.entries] == [t[:2] for t in tenants]
    assert report.p_sys == sum(want)
    worst, best = min(want), max(want)
    assert report.unfairness == (best - worst) / best
    return report


def test_crowded_nodes_match_the_oracles():
    rng = np.random.default_rng(60)
    for nodes in (1, 3):
        tenants = [(wid, i % nodes, spec, profile) for i, (wid, _, spec, profile)
                   in enumerate(_random_tenants(rng, 60 * nodes, nodes, 20))]
        _assert_matches_the_oracles(tenants, ClusterSpec(nodes=nodes, node_cores=200,
                                                         node_memory_gb=200))


def test_levels_up_to_the_cap_sum_exactly_in_int64():
    top = PressureSensitivity.MAX
    rng = np.random.default_rng(31)
    tenants = [(i, i % 2, ResourceSpec(1, 1),
                _profile(*[(int(p), int(s)) for p, s in
                           rng.integers(top - 3, top + 1, size=(4, 2))]))
               for i in range(120)]
    cluster = ClusterSpec(nodes=2, node_cores=100, node_memory_gb=100)
    report = _assert_matches_the_oracles(tenants, cluster)
    # 59 neighbours near 2**31 sum past 2**36, still exact as floats.
    assert all(0.0 < e.sd < 1.0 for e in report.entries)


def test_theta_equal_to_an_external_pressure_leaves_no_excess():
    rng = np.random.default_rng(5)
    tenants = _random_tenants(rng, 12, 2, 10)
    own = tenants[0][3].membw.pressure
    external = sum(t[3].membw.pressure for t in tenants
                   if t[1] == tenants[0][1]) - own
    cluster = ClusterSpec(nodes=2, theta=float(external))
    _assert_matches_the_oracles(tenants, cluster)
    assert degradation_factor(np.array([external]), np.array([7]), cluster.gamma,
                              cluster.theta, cluster.constants.levels).tolist() == [1.0]


def test_single_tenant_nodes_keep_slowdown_one():
    rng = np.random.default_rng(1)
    tenants = _random_tenants(rng, 5, 5, 20)
    tenants = [(wid, i, spec, profile) for i, (wid, _, spec, profile) in enumerate(tenants)]
    report = _assert_matches_the_oracles(tenants, ClusterSpec(nodes=6))
    assert [e.sd for e in report.entries] == [1.0] * 5


def test_int_and_str_workload_ids_mix():
    rng = np.random.default_rng(8)
    tenants = _random_tenants(rng, 30, 2, 20, ids=lambda i: i if i % 3 else f"{i}")
    report = _assert_matches_the_oracles(tenants, ClusterSpec(nodes=2))
    assert [type(e.workload_id) for e in report.entries] == [type(t[0]) for t in tenants]


def test_degradation_factor_is_elementwise_and_scalar_calls_return_floats():
    rng = np.random.default_rng(2)
    pressure = rng.integers(0, 60, size=(50, 4))
    sensitivity = rng.integers(0, 21, size=(50, 4))
    got = degradation_factor(pressure, sensitivity, 0.7, 5.5, 20)
    assert got.shape == (50, 4)
    assert got.tolist() == [[_python_factor(int(p), int(s), 0.7, 5.5, 20)
                             for p, s in zip(prow, srow)]
                            for prow, srow in zip(pressure, sensitivity)]
    scalar = degradation_factor(15, 10, 0.5, 5, 20)
    assert type(scalar) is float and scalar == _python_factor(15, 10, 0.5, 5, 20)
    with pytest.raises(ValueError):
        degradation_factor(np.array([1, -1]), np.array([1, 1]), 0.5, 5, 20)


def test_the_first_tenant_on_an_unknown_node_is_named():
    tenants = [("a", 1, SPEC, _profile()), ("b", 5, SPEC, _profile()),
               ("c", -1, SPEC, _profile())]
    with pytest.raises(ValueError, match=r"^unknown node 5 for workload 'b'$"):
        simulate_colocated(tenants, ClusterSpec(nodes=2))
    # An unknown node is named even after an overcommitted one.
    big = ResourceSpec(80, 8)
    with pytest.raises(ValueError, match=r"^unknown node 2 for workload 7$"):
        simulate_colocated([(1, 0, big, _profile()), (3, 0, big, _profile()),
                            (7, 2, SPEC, _profile())], ClusterSpec(nodes=2))


def test_the_first_overcommitted_node_in_tenant_order_is_named():
    big = ResourceSpec(60, 8)
    fat = ResourceSpec(1, 200)
    tenants = [("a", 2, SPEC, _profile()), ("b", 1, fat, _profile()),
               ("c", 0, big, _profile()), ("d", 0, big, _profile()),
               ("e", 1, fat, _profile())]
    with pytest.raises(ValueError, match=r"^node 1 is overcommitted: "
                                         r"2 of 96 cores, 400 of 256 GB$"):
        simulate_colocated(tenants, ClusterSpec(nodes=3))
    with pytest.raises(ValueError, match=r"^node 0 is overcommitted: "
                                         r"120 of 96 cores, 16 of 256 GB$"):
        simulate_colocated(tenants[2:4], ClusterSpec(nodes=3))


@pytest.mark.parametrize("field", ["gamma", "theta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_cluster_spec_rejects_non_finite_constants(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ClusterSpec(**{field: value})


@pytest.mark.parametrize("field", ["nodes", "node_cores", "node_memory_gb"])
@pytest.mark.parametrize("value", [2.5, 1.0, True, "4", None])
def test_cluster_spec_refuses_non_int_sizes(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
        ClusterSpec(**{field: value})


def test_compute_metrics_refuses_nan():
    for bad in (float("nan"), float("inf"), float("-inf")):
        for sds in ([bad], [1.0, bad], [bad, 1.0]):
            with pytest.raises(ValueError, match="^slowdowns must be positive and finite$"):
                compute_metrics(sds)


def test_entries_are_immutable_tuple_records_in_tenant_order():
    rng = np.random.default_rng(17)
    tenants = _random_tenants(rng, 40, 3, 20, ids=lambda i: i if i % 2 else f"w{i}")
    report = simulate_colocated(tenants, ClusterSpec(nodes=3))
    sds = _oracle_sds(tenants, ClusterSpec(nodes=3))
    assert report.entries == tuple(SlowdownEntry(t[0], t[1], sd)
                                   for t, sd in zip(tenants, sds))
    assert all(type(e) is SlowdownEntry for e in report.entries)
    entry = report.entries[0]
    assert isinstance(entry, tuple)
    assert entry._fields == ("workload_id", "node_id", "sd")
    for field in ("workload_id", "node_id", "sd", "other"):
        with pytest.raises(AttributeError):
            setattr(entry, field, 0)
    assert SlowdownEntry.from_json(entry.to_json()) == entry
    assert type(SlowdownEntry.from_json(entry.to_json())) is SlowdownEntry


def test_profile_positional_levels_follow_shared_resource_order():
    rng = np.random.default_rng(4)
    for _ in range(20):
        profile = _profile(*[(int(p), int(s)) for p, s in rng.integers(0, 99, size=(4, 2))])
        before = profile.to_json()
        assert profile.pressures == tuple(profile.get(r).pressure for r in SharedResource)
        assert profile.sensitivities == tuple(profile.get(r).sensitivity
                                              for r in SharedResource)
        assert np.frombuffer(profile.packed_levels, np.int64).tolist() == [
            *profile.pressures, *profile.sensitivities]
        assert profile.to_json() == before == {
            r.value: {"pressure": profile.get(r).pressure,
                      "sensitivity": profile.get(r).sensitivity} for r in SharedResource}
        twin = InterferenceProfile.from_json(before)
        assert twin == profile and hash(twin) == hash(profile)
