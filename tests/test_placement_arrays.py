"""Array placement against the per-node loop it replaced.

The oracle below is the scheduler as it was before node aggregates and
array scoring: every score rescans the node's tenants, every resource
term is added in a Python loop, and each request builds the list of
scored feasible nodes and takes its minimum by (score, node id). The
array code must choose the same nodes and write the same score bytes.
"""

import copy
import json

import numpy as np
import pytest

from capsched.core import (
    CapacityExhaustedError,
    InterferenceProfile,
    PressureSensitivity,
    ResourceSpec,
    SharedResource,
)
from capsched.scheduler import (
    NodeState,
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

ATTRS = ("llc", "membw", "disk", "network")


# --- the oracle: the per-node loop, tenants rescanned on every score ---

def _oracle_sum_pressure(node, resource):
    return sum(profile.get(resource).pressure for _, _, profile in node.deployed)


def _oracle_max_sensitivity(node, resource):
    if not node.deployed:
        return 0
    return max(profile.get(resource).sensitivity for _, _, profile in node.deployed)


def _oracle_contention_risk(node, scaler=1.1, incoming=InterferenceProfile.zero()):
    total = 0.0
    for resource in SharedResource:
        ps = incoming.get(resource)
        sum_p = _oracle_sum_pressure(node, resource) + ps.pressure
        max_s = max(_oracle_max_sensitivity(node, resource), ps.sensitivity)
        total += max_s * sum_p * scaler ** sum_p
    return total


def _oracle_score_node(node, spec, profile, config=ScheduleConfig()):
    if not node.fits(spec):
        raise CapacityExhaustedError(f"spec {spec.key} does not fit")
    risk = _oracle_contention_risk(node, config.scaler, profile)
    usage_ave = 0.5 * ((node.used_cores + spec.cores) / node.capacity.cores
                       + (node.used_memory_gb + spec.memory_gb)
                       / node.capacity.memory_gb)
    return risk * usage_ave


def _oracle_lrp_score(node, spec):
    return 0.5 * (spec.cores / node.free_cores
                  + spec.memory_gb / node.free_memory_gb)


def _oracle_place(requests, nodes, config=ScheduleConfig()):
    placements = []
    for workload_id, spec, profile in requests:
        feasible = [n for n in nodes if n.fits(spec)]
        if not feasible:
            raise CapacityExhaustedError(f"no node can hold {workload_id!r}")
        if config.policy == POLICY_URSA:
            scored = [(_oracle_score_node(n, spec, profile, config), n)
                      for n in feasible]
        else:
            scored = [(_oracle_lrp_score(n, spec), n) for n in feasible]
        best_score, best = min(scored, key=lambda sn: (sn[0], sn[1].node_id))
        best.add(workload_id, spec, profile)
        placements.append((workload_id, best.node_id, best_score))
    return placements


# --- random cases ---

def _profile(rng, top=21):
    vals = rng.integers(0, top, size=8)
    return InterferenceProfile(**{
        attr: PressureSensitivity(int(vals[2 * i]), int(vals[2 * i + 1]))
        for i, attr in enumerate(ATTRS)})


def _spec(rng, cores=13, memory=17):
    return ResourceSpec(int(rng.integers(1, cores)), int(rng.integers(1, memory)))


def _nodes(rng, count, shuffle=True, preload=True):
    """Nodes with gapped ids in a shuffled order and mixed capacities,
    some loaded with tenants through their JSON form."""
    ids = sorted(int(i) for i in rng.choice(10 * count, size=count, replace=False))
    if shuffle:
        ids = [ids[int(i)] for i in rng.permutation(count)]
    nodes = []
    for node_id in ids:
        capacity = ResourceSpec(int(rng.choice([24, 48, 96])),
                                int(rng.choice([64, 128, 256])))
        node = NodeState(node_id=node_id, capacity=capacity)
        if preload:
            for t in range(int(rng.integers(0, 4))):
                spec = _spec(rng, 7, 9)
                if node.fits(spec):
                    node.add(f"pre{node_id}-{t}", spec, _profile(rng))
            node = NodeState.from_json(json.loads(json.dumps(node.to_json())))
        nodes.append(node)
    return nodes


def _requests(rng, count):
    return [(f"r{i}", _spec(rng), _profile(rng)) for i in range(count)]


def _assert_aggregates(node):
    row = _rows([node])[0]
    assert row[_SUM_P].tolist() == [_oracle_sum_pressure(node, r) for r in SharedResource]
    assert row[_MAX_S].tolist() == [_oracle_max_sensitivity(node, r) for r in SharedResource]


def _assert_same_placement(requests, nodes, config, one_per_call=False):
    """place and the oracle choose the same nodes, write the same score
    bytes and leave the same node states."""
    mine, theirs = copy.deepcopy(nodes), copy.deepcopy(nodes)
    want, got = [], []
    want_error = got_error = None
    try:
        want = _oracle_place(requests, theirs, config)
    except CapacityExhaustedError as exc:
        want_error = exc
    try:
        if one_per_call:
            for request in requests:
                got.extend(place([request], mine, config))
        else:
            got = place(requests, mine, config)
    except CapacityExhaustedError as exc:
        got_error = exc
    assert (want_error is None) == (got_error is None)
    if want_error is None:
        assert [(p.workload_id, p.node_id) for p in got] == [w[:2] for w in want]
        assert all(type(p.score) is float for p in got)
        assert ([json.dumps(p.to_json()) for p in got]
                == [json.dumps({"workload_id": w, "node_id": n, "score": s})
                    for w, n, s in want])
    assert [n.to_json() for n in mine] == [n.to_json() for n in theirs]
    for node in mine:
        _assert_aggregates(node)
    return got


@pytest.mark.parametrize("policy", [POLICY_URSA, POLICY_LRP])
@pytest.mark.parametrize("seed", range(6))
def test_place_matches_the_oracle_on_random_clusters(policy, seed):
    rng = np.random.default_rng([808, seed])
    scaler = float(rng.choice([1.1, 1.01, 1.5, 2.0, rng.uniform(1.0001, 1.3)]))
    config = ScheduleConfig(policy=policy, scaler=scaler)
    nodes = _nodes(rng, int(rng.integers(1, 30)))
    requests = _requests(rng, int(rng.integers(1, 120)))
    _assert_same_placement(requests, nodes, config)
    _assert_same_placement(requests, nodes, config, one_per_call=True)


@pytest.mark.parametrize("policy", [POLICY_URSA, POLICY_LRP])
def test_place_one_request_per_call_on_a_wide_cluster(policy):
    # The benchmark's closed loop: one request per call on nodes that
    # persist between calls, in order of id here and shuffled below.
    rng = np.random.default_rng(811)
    requests = [(f"r{i}", _spec(rng, 5, 9), _profile(rng)) for i in range(400)]
    for shuffle in (False, True):
        nodes = _nodes(rng, 60, shuffle=shuffle, preload=shuffle)
        got = _assert_same_placement(requests, nodes, ScheduleConfig(policy=policy),
                                     one_per_call=True)
        assert len(got) == len(requests)


@pytest.mark.parametrize("policy", [POLICY_URSA, POLICY_LRP])
def test_ties_go_to_the_lowest_node_id_not_the_first_listed(policy):
    rng = np.random.default_rng(812)
    for _ in range(40):
        # identical nodes, listed out of id order, with identical tenants
        count = int(rng.integers(2, 12))
        ids = [int(i) for i in rng.permutation(3 * count)[:count]]
        tenants = [(f"t{i}", _spec(rng, 5, 5), _profile(rng, 4))
                   for i in range(int(rng.integers(0, 3)))]
        nodes = [NodeState(node_id=i, capacity=ResourceSpec(48, 128)) for i in ids]
        for node in nodes:
            for t in tenants:
                node.add(*t)
        zero = [(f"z{i}", _spec(rng, 5, 5), InterferenceProfile.zero())
                for i in range(3)]
        requests = [(f"r{i}", _spec(rng, 5, 5), _profile(rng)) for i in range(count)]
        got = _assert_same_placement(zero + requests, nodes,
                                     ScheduleConfig(policy=policy))
        assert got[0].node_id == min(ids)


@pytest.mark.parametrize("policy", [POLICY_URSA, POLICY_LRP])
def test_place_matches_the_oracle_when_nodes_run_out(policy):
    rng = np.random.default_rng(813)
    for _ in range(20):
        nodes = _nodes(rng, int(rng.integers(1, 4)))
        _assert_same_placement(_requests(rng, 60), nodes,
                               ScheduleConfig(policy=policy))


def test_place_matches_the_oracle_on_the_criterion_9_suite():
    # The placement part of tests/test_acceptance.py's criterion-9 suite,
    # drawn from the same generator in the same order.
    rng = np.random.default_rng(909)
    placed_cases = 0
    while placed_cases < 1000:
        nodes = [NodeState(node_id=i, capacity=ResourceSpec(48, 128))
                 for i in range(4)]
        requests = [(f"t{i}", ResourceSpec(int(rng.integers(1, 7)),
                                           int(rng.integers(1, 7) * 2)),
                     _profile(rng)) for i in range(24)]
        policy = "ursa" if placed_cases % 2 else "lrp"
        got = _assert_same_placement(requests, nodes, ScheduleConfig(policy=policy))
        placed_cases += len(got)


def test_score_node_and_contention_risk_match_the_oracle_bytes():
    rng = np.random.default_rng(814)
    for _ in range(500):
        [node] = _nodes(rng, 1)
        scaler = float(rng.uniform(1.0001, 1.6))
        incoming = _profile(rng)
        assert (json.dumps(contention_risk(node, scaler, incoming))
                == json.dumps(_oracle_contention_risk(node, scaler, incoming)))
        assert (json.dumps(contention_risk(node, scaler))
                == json.dumps(_oracle_contention_risk(node, scaler)))
        spec = _spec(rng, 5, 9)
        if node.fits(spec):
            config = ScheduleConfig(scaler=scaler)
            assert (json.dumps(score_node(node, spec, incoming, config))
                    == json.dumps(_oracle_score_node(node, spec, incoming, config)))


def test_aggregates_follow_from_json_and_every_add():
    rng = np.random.default_rng(815)
    for _ in range(200):
        node = NodeState(node_id=0, capacity=ResourceSpec(96, 256))
        _assert_aggregates(node)
        for t in range(int(rng.integers(0, 12))):
            spec = _spec(rng, 9, 17)
            if node.fits(spec):
                node.add(f"t{t}", spec, _profile(rng))
                _assert_aggregates(node)
        clone = NodeState.from_json(node.to_json())
        _assert_aggregates(clone)
        assert clone == node
        assert clone.to_json() == node.to_json()


def test_aggregates_do_not_change_equality_or_json():
    node = NodeState(node_id=3, capacity=ResourceSpec(48, 128))
    node.add("a", ResourceSpec(4, 8), InterferenceProfile(
        llc=PressureSensitivity(3, 5), membw=PressureSensitivity(1, 2),
        disk=PressureSensitivity(0, 0), network=PressureSensitivity(7, 1)))
    assert node.to_json().keys() == {"node_id", "capacity", "used_cores",
                                     "used_memory_gb", "deployed"}
    twin = NodeState(node_id=3, capacity=ResourceSpec(48, 128), used_cores=4,
                     used_memory_gb=8, deployed=list(node.deployed))
    assert twin == node
    assert _rows([twin])[0, _SUM_P].tolist() == [3, 1, 0, 7]
    assert _rows([twin])[0, _MAX_S].tolist() == [5, 2, 0, 1]


# --- scores that are not finite ---

LOUD = InterferenceProfile(**{attr: PressureSensitivity(20, 20) for attr in ATTRS})


def test_overflowing_risk_raises_naming_node_scaler_and_pressure():
    nodes = [NodeState(node_id=4, capacity=ResourceSpec(96, 256))]
    requests = [(i, ResourceSpec(1, 1), LOUD) for i in range(40)]
    with pytest.raises(ValueError) as info:
        place(requests, nodes, ScheduleConfig(scaler=10.0))
    message = str(info.value)
    assert message.startswith("node 4: contention risk is not finite at scaler 10.0")
    assert "llc 320" in message and "network 320" in message
    with pytest.raises(ValueError, match="node 4: contention risk is not finite"):
        contention_risk(nodes[0], 10.0, LOUD)


def test_a_product_that_overflows_past_a_finite_power_raises():
    # 2.02 ** 1000 is finite (about 3e305); 20 * 1000 times it is not.
    node = NodeState(node_id=2, capacity=ResourceSpec(96, 256))
    for i in range(50):
        node.add(i, ResourceSpec(1, 1), LOUD)
    with pytest.raises(ValueError, match="node 2: .* summed pressure llc 1000"):
        contention_risk(node, 2.02)


def test_nodes_that_do_not_fit_are_never_scored():
    full = NodeState(node_id=0, capacity=ResourceSpec(40, 256))
    for i in range(40):
        full.add(f"loud{i}", ResourceSpec(1, 1), LOUD)
    spare = NodeState(node_id=1, capacity=ResourceSpec(8, 16))
    [placement] = place([("t", ResourceSpec(1, 1), LOUD)], [full, spare],
                        ScheduleConfig(scaler=10.0))
    assert placement.node_id == 1


@pytest.mark.parametrize("scaler", [float("inf"), float("nan"), 1.0, 0.5, -2.0])
def test_scaler_must_be_finite_and_above_one(scaler):
    with pytest.raises(ValueError, match="scaler must be finite and > 1"):
        ScheduleConfig(scaler=scaler)
    with pytest.raises(ValueError, match="scaler must be finite and > 1"):
        contention_risk(NodeState(node_id=0), scaler)


def test_levels_are_capped_so_int64_sums_stay_exact():
    top = PressureSensitivity.MAX
    for levels in ((top + 1, 0), (0, top + 1), (10 ** 30, 0), (-1, 0)):
        with pytest.raises(ValueError, match=r"levels must be in \[0, 2147483647\]"):
            PressureSensitivity(*levels)
    node = NodeState(node_id=0)
    loud = InterferenceProfile(**{attr: PressureSensitivity(3, top) for attr in ATTRS})
    node.add("a", ResourceSpec(1, 1), loud)
    assert (json.dumps(contention_risk(node, 1.1, loud))
            == json.dumps(_oracle_contention_risk(node, 1.1, loud)))


@pytest.mark.parametrize("scaler, pressure", [
    (1.00001, 40000), (1.0000001, PressureSensitivity.MAX), (1.1, 70000)])
def test_sums_past_the_power_table_match_the_oracle(scaler, pressure):
    # The longest power table has 2 ** 16 entries; the llc sums lie past it.
    heavy = InterferenceProfile(llc=PressureSensitivity(pressure, 3),
                                membw=PressureSensitivity(5, 2),
                                disk=PressureSensitivity(0, 0),
                                network=PressureSensitivity(1, 1))
    node = NodeState(node_id=1)
    node.add("a", ResourceSpec(1, 1), heavy)
    try:
        want = _oracle_contention_risk(node, scaler, heavy)
    except OverflowError:
        with pytest.raises(ValueError, match=f"llc {2 * pressure}, membw 10"):
            contention_risk(node, scaler, heavy)
    else:
        assert json.dumps(contention_risk(node, scaler, heavy)) == json.dumps(want)
        spec, config = ResourceSpec(1, 1), ScheduleConfig(scaler=scaler)
        assert (json.dumps(score_node(node, spec, heavy, config))
                == json.dumps(_oracle_score_node(node, spec, heavy, config)))
