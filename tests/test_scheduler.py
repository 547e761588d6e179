"""Node scoring and placement policies."""

import numpy as np
import pytest

from capsched.core import (
    CapacityExhaustedError,
    InterferenceProfile,
    PressureSensitivity,
    ResourceSpec,
)
from capsched.scheduler import (
    NodeState,
    Placement,
    POLICY_LRP,
    POLICY_URSA,
    ScheduleConfig,
    _MAX_S,
    _SUM_P,
    _rows,
    contention_risk,
    place,
    score_node,
)


def _profile(llc=(0, 0), membw=(0, 0), disk=(0, 0), network=(0, 0)):
    return InterferenceProfile(
        llc=PressureSensitivity(*llc),
        membw=PressureSensitivity(*membw),
        disk=PressureSensitivity(*disk),
        network=PressureSensitivity(*network))


def _node(node_id=0, cores=96, memory=256):
    return NodeState(node_id=node_id, capacity=ResourceSpec(cores, memory))


def test_contention_risk_single_resource_example():
    # two tenants with llc pressures 1 and 2, sensitivities 2 and 1:
    # 2 * 3 * 1.1^3 = 7.986
    node = _node()
    node.add("a", ResourceSpec(8, 16), _profile(llc=(1, 2)))
    node.add("b", ResourceSpec(8, 16), _profile(llc=(2, 1)))
    assert contention_risk(node) == pytest.approx(7.986, abs=1e-12)


def test_contention_risk_sums_resources():
    # llc (max 2, sum 3) plus membw (max 1, sum 5):
    # 7.986 + 5 * 1.1^5 = 16.03855
    node = _node()
    node.add("a", ResourceSpec(8, 16), _profile(llc=(1, 2), membw=(3, 1)))
    node.add("b", ResourceSpec(8, 16), _profile(llc=(2, 1), membw=(2, 1)))
    assert contention_risk(node) == pytest.approx(16.03855, abs=1e-12)
    # an incoming tenant counts as if it were already deployed
    lone = _node()
    lone.add("a", ResourceSpec(8, 16), _profile(llc=(1, 2), membw=(3, 1)))
    incoming = _profile(llc=(2, 1), membw=(2, 1))
    assert contention_risk(lone, incoming=incoming) == contention_risk(node)


def test_contention_risk_empty_node_is_zero():
    assert contention_risk(_node()) == 0.0
    with pytest.raises(ValueError):
        contention_risk(_node(), scaler=1.0)


def test_score_node_weighs_risk_by_post_placement_usage():
    node = _node()
    node.add("a", ResourceSpec(24, 32), _profile(llc=(2, 2), membw=(3, 1)))
    incoming = _profile(llc=(1, 1), membw=(2, 1))
    # combined: llc (sum 3, max 2), membw (sum 5, max 1) -> risk 16.03855;
    # usage after placement (48/96 cores, 64/256 memory) averages 0.375
    score = score_node(node, ResourceSpec(24, 32), incoming)
    assert score == pytest.approx(16.03855 * 0.375, abs=1e-12)


def test_score_node_strictly_penalizes_extra_pressure_and_sensitivity():
    spec = ResourceSpec(8, 16)
    for resource in ("llc", "membw", "disk", "network"):
        base = score_node(_node(), spec, _profile(**{resource: (1, 1)}))
        more_p = score_node(_node(), spec, _profile(**{resource: (2, 1)}))
        more_s = score_node(_node(), spec, _profile(**{resource: (1, 2)}))
        assert more_p > base
        assert more_s > base


def test_score_node_rejects_oversized_spec():
    with pytest.raises(CapacityExhaustedError):
        score_node(_node(cores=4, memory=8), ResourceSpec(8, 8),
                   InterferenceProfile.zero())


def test_ursa_placement_minimizes_node_score():
    quiet = _profile(llc=(1, 1))
    loud = _profile(llc=(8, 14), membw=(6, 10))
    nodes = [_node(0), _node(1)]
    nodes[0].add("noisy", ResourceSpec(8, 16), loud)
    spec = ResourceSpec(8, 16)
    expected = min(
        (score_node(n, spec, loud), n.node_id) for n in nodes)[1]
    [placement] = place([("t", spec, loud)], nodes)
    assert placement.node_id == expected == 1


def test_lrp_placement_claims_least_of_free_capacity():
    # request takes 12.5% of node 0's free share but 25% of node 1's
    nodes = [_node(0, cores=96, memory=256), _node(1, cores=48, memory=128)]
    [placement] = place([("t", ResourceSpec(12, 32), InterferenceProfile.zero())],
                        nodes, ScheduleConfig(policy=POLICY_LRP))
    assert placement.node_id == 0
    assert placement.score == pytest.approx(0.125)


def test_lrp_prefers_emptier_node():
    nodes = [_node(0), _node(1)]
    nodes[0].add("existing", ResourceSpec(48, 128), InterferenceProfile.zero())
    [placement] = place([("t", ResourceSpec(8, 16), InterferenceProfile.zero())],
                        nodes, ScheduleConfig(policy=POLICY_LRP))
    assert placement.node_id == 1


def test_placement_ties_break_to_lowest_node_id():
    for policy in (POLICY_URSA, POLICY_LRP):
        nodes = [_node(3), _node(1), _node(2)]
        [placement] = place([("t", ResourceSpec(8, 16), _profile(llc=(1, 1)))],
                            nodes, ScheduleConfig(policy=policy))
        assert placement.node_id == 1


def test_place_conserves_capacity_accounting():
    rng = np.random.default_rng(17)
    for policy in (POLICY_URSA, POLICY_LRP):
        nodes = [_node(i) for i in range(4)]
        requests = []
        for t in range(30):
            spec = ResourceSpec(int(rng.integers(1, 13)),
                                int(rng.integers(1, 9) * 2))
            profile = _profile(llc=(int(rng.integers(0, 8)), int(rng.integers(0, 8))),
                               membw=(int(rng.integers(0, 8)), int(rng.integers(0, 8))))
            requests.append((f"t{t}", spec, profile))
        placements = place(requests, nodes, ScheduleConfig(policy=policy))
        assert len(placements) == len(requests)
        by_node = {n.node_id: n for n in nodes}
        for n in nodes:
            assert n.used_cores == sum(s.cores for _, s, _ in n.deployed)
            assert n.used_memory_gb == sum(s.memory_gb for _, s, _ in n.deployed)
            assert n.used_cores <= n.capacity.cores
            assert n.used_memory_gb <= n.capacity.memory_gb
        for p, (wid, spec, _) in zip(placements, requests):
            assert p.workload_id == wid
            assert any(d[0] == wid for d in by_node[p.node_id].deployed)


def test_place_raises_when_nothing_fits():
    nodes = [_node(0, cores=8, memory=16)]
    with pytest.raises(CapacityExhaustedError):
        place([("big", ResourceSpec(12, 8), InterferenceProfile.zero())], nodes)
    with pytest.raises(ValueError):
        place([], [_node(0), _node(0)])
    # duplicate workload ids are refused before any node is touched
    nodes = [_node(0), _node(1)]
    twice = [("a", ResourceSpec(8, 16), InterferenceProfile.zero()),
             ("b", ResourceSpec(8, 16), InterferenceProfile.zero()),
             ("a", ResourceSpec(8, 16), InterferenceProfile.zero())]
    with pytest.raises(ValueError, match="duplicate workload id 'a'"):
        place(twice, nodes)
    assert all(n.deployed == [] and n.used_cores == 0 for n in nodes)


def test_node_add_rejects_overflow_and_tracks_free():
    node = _node(cores=16, memory=32)
    node.add("a", ResourceSpec(12, 16), InterferenceProfile.zero())
    assert (node.free_cores, node.free_memory_gb) == (4, 16)
    assert not node.fits(ResourceSpec(8, 8))
    with pytest.raises(CapacityExhaustedError):
        node.add("b", ResourceSpec(8, 8), InterferenceProfile.zero())


def test_node_state_validation():
    with pytest.raises(ValueError):
        NodeState(node_id=-1)
    with pytest.raises(ValueError):
        NodeState(node_id=0, capacity=ResourceSpec(8, 16), used_cores=9)
    with pytest.raises(ValueError, match="deployed tenants hold more"):
        NodeState(node_id=0, capacity=ResourceSpec(8, 16), used_cores=4, used_memory_gb=4,
                  deployed=[("w", ResourceSpec(4, 8), _profile())])


def test_node_state_json_roundtrip():
    node = _node(node_id=5, cores=48, memory=128)
    node.add("w1", ResourceSpec(8, 16), _profile(llc=(3, 2), disk=(4, 1)))
    node.add("w2", ResourceSpec(4, 8), _profile(network=(2, 6)))
    clone = NodeState.from_json(node.to_json())
    assert clone.to_json() == node.to_json()
    # summed pressure, then max sensitivity, per resource: llc, membw, disk, network
    row = _rows([clone])[0]
    assert row[_SUM_P].tolist() == [3, 0, 4, 2]
    assert row[_MAX_S].tolist() == [2, 0, 1, 6]


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(policy="random")
    with pytest.raises(ValueError):
        ScheduleConfig(scaler=0.9)
    assert Placement("w", 2, 1.5).to_json() == {
        "workload_id": "w", "node_id": 2, "score": 1.5}
