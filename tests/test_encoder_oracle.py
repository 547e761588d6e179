"""The shared field encoder against the hand-written encoders it replaced.

Each oracle below is a to_json body as it was written out field by field,
and the simulation CSV as SlowdownReport wrote it itself. On the default
world, every artifact through fields_json and the CLI's CSV writer must
serialize to the same bytes as its oracle.
"""

import json

import pytest

from capsched.cli import main
from capsched.core import ResourceSpec, canonical_json
from capsched.experiment import (
    evaluate_validation,
    run_colocation,
    run_scenario1,
    run_scenario2,
)
from capsched.scheduler import POLICY_LRP, POLICY_URSA, NodeState, ScheduleConfig, place
from capsched.simulator import simulate_colocated


# --- the oracles: each type's fields written out by hand ---

def _workload(w):
    return {"workload_id": w.workload_id,
            "archetype_id": w.archetype_id,
            "noise_seed": w.noise_seed,
            "origin_spec": w.origin_spec.to_json(),
            "params": w.params.to_json(),
            "ground_truth_surface": w.ground_truth_surface.to_json(),
            "ground_truth_profile": w.ground_truth_profile.to_json()}


def _workload_set(wset):
    return {"schema": "workload-set/v1",
            "seed": wset.seed,
            "surface_noise": wset.surface_noise,
            "footprint_noise": wset.footprint_noise,
            "region": wset.region.to_json(),
            "base_spec": wset.base_spec.to_json(),
            "constants": wset.constants.to_json(),
            "archetypes": [a.to_json() for a in wset.archetypes],
            "workloads": [_workload(w) for w in wset.workloads]}


def _clustering(c):
    return {"centroids": [s.to_json() for s in c.centroids],
            "assignments": list(c.assignments),
            "cost_history": list(c.cost_history)}


def _mlp(m):
    return {"w1": m.w1.tolist(), "b1": m.b1.tolist(),
            "w2": m.w2.tolist(), "b2": m.b2.tolist()}


def _classifier(c):
    s = c.selection
    return {"base_spec": c.base_spec.to_json(),
            "selection": {"lam": s.lam, "weights": list(s.weights),
                          "selected": list(s.selected)},
            "mean": list(c.mean), "std": list(c.std),
            "model": _mlp(c.model),
            "training_accuracy": c.training_accuracy,
            "epochs": c.epochs, "converged": c.converged}


def _bundle(b):
    return {"schema": "model-bundle/v2",
            "seed": b.seed,
            "region": b.region.to_json(),
            "clustering": _clustering(b.clustering),
            "classifier": _classifier(b.classifier),
            "training_workload_ids": list(b.training_workload_ids),
            "validation_workload_ids": list(b.validation_workload_ids)}


def _placement(p):
    return {"workload_id": p.workload_id, "node_id": p.node_id, "score": p.score}


def _node(n):
    return {"node_id": n.node_id,
            "capacity": n.capacity.to_json(),
            "used_cores": n.used_cores,
            "used_memory_gb": n.used_memory_gb,
            "deployed": [{"workload_id": wid, "spec": spec.to_json(),
                          "profile": profile.to_json()}
                         for wid, spec, profile in n.deployed]}


def _validation(r):
    return {"schema": "validation-report/v1", "base": r.base, "k": r.k,
            "mean_error": r.mean_error, "max_error": r.max_error,
            "rows": list(r.rows)}


def _scenario(r):
    return {"schema": r.schema, "summary": r.summary, "rows": list(r.rows)}


def _simulation(r):
    return {"entries": [{"workload_id": e.workload_id, "node_id": e.node_id, "sd": e.sd}
                        for e in r.entries],
            "p_sys": r.p_sys, "unfairness": r.unfairness}


def _simulation_csv(report):
    lines = ["workload_id,node_id,sd\n"]
    for e in report.entries:
        lines.append(f"{e.workload_id},{e.node_id},{e.sd!r}\n")
    return "".join(lines)


def _same(new, oracle):
    assert canonical_json(new) == canonical_json(oracle)


@pytest.fixture(scope="module")
def placed(default_config, default_wset):
    """Nodes and placements of the default world's workloads under each policy."""
    requests = [(w.workload_id, w.origin_spec, w.ground_truth_profile)
                for w in default_wset.workloads]
    out = {}
    for policy in (POLICY_URSA, POLICY_LRP):
        cap = ResourceSpec(default_config.node_cores, default_config.node_memory_gb)
        nodes = [NodeState(node_id=i, capacity=cap)
                 for i in range(default_config.cluster_nodes)]
        out[policy] = nodes, place(requests, nodes, ScheduleConfig(policy=policy))
    return out


def test_workload_set_matches_its_oracle(default_wset):
    _same(default_wset.to_json(), _workload_set(default_wset))


def test_bundle_clustering_and_classifier_match_their_oracles(default_bundle):
    _same(default_bundle.to_json(), _bundle(default_bundle))
    _same(default_bundle.clustering.to_json(), _clustering(default_bundle.clustering))
    _same(default_bundle.classifier.to_json(), _classifier(default_bundle.classifier))


@pytest.mark.parametrize("policy", [POLICY_URSA, POLICY_LRP])
def test_placements_and_nodes_match_their_oracles(placed, policy):
    nodes, placements = placed[policy]
    assert any(n.deployed for n in nodes)
    for p in placements:
        _same(p.to_json(), _placement(p))
        # placements.jsonl writes the compact sorted form
        assert json.dumps(p.to_json(), sort_keys=True) == json.dumps(_placement(p),
                                                                     sort_keys=True)
    for n in nodes:
        _same(n.to_json(), _node(n))


def test_reports_match_their_oracles(default_config, default_wset, default_bundle):
    validation = evaluate_validation(default_config, default_wset, default_bundle)
    _same(validation.to_json(), _validation(validation))
    for run in (run_scenario1, run_scenario2, run_colocation):
        report = run(default_config, default_wset, default_bundle)
        assert report.rows
        _same(report.to_json(), _scenario(report))


def test_simulation_report_matches_its_oracle(default_config, placed):
    nodes, placements = placed[POLICY_URSA]
    by_id = {wid: (spec, profile) for n in nodes for wid, spec, profile in n.deployed}
    report = simulate_colocated(
        [(p.workload_id if i % 2 else f"w{p.workload_id}", p.node_id, *by_id[p.workload_id])
         for i, p in enumerate(placements)], default_config.cluster_spec)
    assert {type(e.workload_id) for e in report.entries} == {int, str}
    _same(report.to_json(), _simulation(report))


def test_simulation_csv_matches_its_oracle(default_config, default_wset, placed, tmp_path):
    nodes, placements = placed[POLICY_URSA]
    requests = [t for n in nodes for t in n.deployed]
    (tmp_path / "requests.json").write_text(json.dumps({"requests": [
        {"workload_id": wid, "spec": spec.to_json(), "profile": profile.to_json()}
        for wid, spec, profile in requests]}))
    (tmp_path / "placements.jsonl").write_text(
        "".join(json.dumps(p.to_json()) + "\n" for p in placements))
    assert main(["simulate", "--out", str(tmp_path / "out"),
                 "--placements", str(tmp_path / "placements.jsonl"),
                 "--requests", str(tmp_path / "requests.json")]) == 0
    by_id = {wid: (spec, profile) for wid, spec, profile in requests}
    report = simulate_colocated([(p.workload_id, p.node_id, *by_id[p.workload_id])
                                 for p in placements], default_config.cluster_spec)
    assert len(report.entries) == len(default_wset.workloads)
    assert (tmp_path / "out" / "simulation.csv").read_text() == _simulation_csv(report)
