"""Command line surface: every subcommand end to end on a tiny study."""

import contextlib
import io
import json

import pytest

from capsched.cli import main
from capsched.core import canonical_json
from capsched.experiment import ExperimentConfig, build_workload_set
from capsched.workload_synth import observe_indexes

TINY = ExperimentConfig(rng_seed=3, archetype_count=4, workload_count=10,
                        train_count=8, val_count=2, k=4, trials=2,
                        tenants_per_trial=8, cluster_nodes=3,
                        mlp_epochs=200)


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(TINY.to_json()), encoding="utf-8")

    wset = build_workload_set(TINY)
    w = wset.workload_by_id(0)
    vec = observe_indexes(w, TINY.base_spec, TINY.noise_sigma, wset.constants)
    (root / "indexes.json").write_text(
        canonical_json({"indexes": vec.to_json()}), encoding="utf-8")
    return root


def _cfg_args(workdir, sub):
    out = workdir / sub
    return ["--config", str(workdir / "config.json"), "--out", str(out)], out


def test_gen_writes_workload_set(workdir):
    args, out = _cfg_args(workdir, "gen")
    rc, stdout, _ = _run("gen", *args)
    assert rc == 0
    assert "workloads.json" in stdout
    data = json.loads((out / "workloads.json").read_text())
    assert len(data["workloads"]) == TINY.workload_count
    assert len(data["archetypes"]) == TINY.archetype_count


def test_train_writes_bundle_and_validation(workdir):
    gen_out = workdir / "gen" / "workloads.json"
    args, out = _cfg_args(workdir, "train")
    rc, stdout, _ = _run("train", *args, "--workloads", str(gen_out))
    assert rc == 0
    assert "validation error" in stdout
    bundle = json.loads((out / "bundle.json").read_text())
    assert bundle["schema"] == "model-bundle/v1"
    assert bundle["clustering"]["k"] == TINY.k
    report = json.loads((out / "validation.json").read_text())
    assert report["schema"] == "validation-report/v1"
    assert len(report["rows"]) == TINY.val_count


def test_calibrate_writes_reference_tracks(workdir):
    args, out = _cfg_args(workdir, "calibrate")
    rc, _, _ = _run("calibrate", *args)
    assert rc == 0
    tracks = json.loads((out / "reference_tracks.json").read_text())
    assert tracks["schema"] == "reference-tracks/v1"
    assert len(tracks["tracks"]) == 21


def test_estimate_writes_profiles(workdir):
    args, out = _cfg_args(workdir, "estimate")
    rc, stdout, _ = _run(
        "estimate", *args,
        "--workloads", str(workdir / "gen" / "workloads.json"),
        "--tracks", str(workdir / "calibrate" / "reference_tracks.json"))
    assert rc == 0
    profiles = json.loads((out / "profiles.json").read_text())
    assert profiles["schema"] == "profiles/v1"
    assert len(profiles["profiles"]) == TINY.workload_count
    for record in profiles["profiles"]:
        for resource in ("llc", "membw", "disk", "network"):
            assert resource in record["profile"]


def test_plan_recommends_spec(workdir):
    args, out = _cfg_args(workdir, "plan")
    rc, stdout, _ = _run(
        "plan", *args,
        "--bundle", str(workdir / "train" / "bundle.json"),
        "--indexes", str(workdir / "indexes.json"),
        "--policy", "scale-up", "--current", "1c2g", "--target", "1.5")
    assert rc == 0
    assert stdout.startswith("recommended: ")
    plan = json.loads((out / "plan.json").read_text())
    assert plan["schema"] == "plan/v1"
    assert plan["infeasible"] is False
    assert plan["recommended"] is not None
    assert plan["predicted_ratio"] >= 1.5


def test_plan_reports_infeasible_with_exit_2(workdir):
    args, out = _cfg_args(workdir, "plan_infeasible")
    rc, _, stderr = _run(
        "plan", *args,
        "--bundle", str(workdir / "train" / "bundle.json"),
        "--indexes", str(workdir / "indexes.json"),
        "--policy", "scale-up", "--current", "6c8g", "--target", "50")
    assert rc == 2
    assert "infeasible" in stderr
    plan = json.loads((out / "plan.json").read_text())
    assert plan["infeasible"] is True
    assert plan["recommended"] is None
    assert plan["best_speedup"] < 50


def test_plan_rejects_non_object_indexes_with_exit_1(workdir, tmp_path):
    listed = tmp_path / "indexes.json"
    listed.write_text("[1, 2, 3]")
    args, out = _cfg_args(workdir, "plan_listed")
    rc, _, stderr = _run(
        "plan", *args,
        "--bundle", str(workdir / "train" / "bundle.json"),
        "--indexes", str(listed), "--current", "1c2g")
    assert rc == 1
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "JSON object" in stderr
    assert not (out / "plan.json").exists()


def test_schedule_places_every_request(workdir):
    args, out = _cfg_args(workdir, "schedule")
    rc, stdout, _ = _run(
        "schedule", *args,
        "--requests", str(workdir / "estimate" / "profiles.json"),
        "--policy", "ursa")
    assert rc == 0
    lines = (out / "placements.jsonl").read_text().strip().split("\n")
    assert len(lines) == TINY.workload_count
    for line in lines:
        row = json.loads(line)
        assert 0 <= row["node_id"] < TINY.cluster_nodes
        assert row["score"] >= 0.0


def test_schedule_exhausted_cluster_exits_2(workdir, tmp_path):
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps({"count": 1, "cores": 2, "memory_gb": 4}))
    args, _ = _cfg_args(workdir, "schedule_exhausted")
    rc, _, stderr = _run(
        "schedule", *args,
        "--requests", str(workdir / "estimate" / "profiles.json"),
        "--nodes", str(nodes))
    assert rc == 2
    assert "capacity exhausted" in stderr


def test_schedule_rejects_duplicate_ids_with_exit_1(workdir, tmp_path):
    profiles = json.loads((workdir / "estimate" / "profiles.json").read_text())
    profiles["profiles"].append(profiles["profiles"][0])
    requests = tmp_path / "profiles.json"
    requests.write_text(json.dumps(profiles))
    args, out = _cfg_args(workdir, "schedule_duplicate")
    rc, _, stderr = _run("schedule", *args, "--requests", str(requests))
    assert rc == 1
    assert stderr == "error: duplicate workload id 0\n"
    assert not (out / "placements.jsonl").exists()


def test_simulate_scores_placements(workdir):
    args, out = _cfg_args(workdir, "simulate")
    rc, stdout, _ = _run(
        "simulate", *args,
        "--placements", str(workdir / "schedule" / "placements.jsonl"),
        "--requests", str(workdir / "estimate" / "profiles.json"))
    assert rc == 0
    report = json.loads((out / "simulation.json").read_text())
    assert report["schema"] == "simulation-report/v1"
    assert report["p_sys"] > 0.0
    assert len(report["entries"]) == TINY.workload_count
    csv_lines = (out / "simulation.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "workload_id,node_id,sd"
    assert len(csv_lines) == TINY.workload_count + 1


def test_scenario1_emits_report_and_csv(workdir):
    args, out = _cfg_args(workdir, "scenario1")
    rc, stdout, _ = _run("scenario1", *args,
                         "--workloads", str(workdir / "gen" / "workloads.json"))
    assert rc == 0
    assert stdout.startswith("scenario1: ")
    report = json.loads((out / "scenario1.json").read_text())
    assert report["schema"] == "scenario1-report/v1"
    assert report["summary"]["requests"] == TINY.val_count * 2
    assert (out / "scenario1.csv").exists()


def test_scenario2_emits_report_and_csv(workdir):
    args, out = _cfg_args(workdir, "scenario2")
    rc, stdout, _ = _run("scenario2", *args,
                         "--workloads", str(workdir / "gen" / "workloads.json"))
    assert rc == 0
    report = json.loads((out / "scenario2.json").read_text())
    assert report["schema"] == "scenario2-report/v1"
    assert report["summary"]["workloads"] == TINY.val_count
    assert (out / "scenario2.csv").exists()


def test_colocate_emits_trials(workdir):
    args, out = _cfg_args(workdir, "colocate")
    rc, stdout, _ = _run("colocate", *args,
                         "--workloads", str(workdir / "gen" / "workloads.json"))
    assert rc == 0
    report = json.loads((out / "colocation.json").read_text())
    assert report["schema"] == "colocation-report/v1"
    assert report["summary"]["trials"] == TINY.trials
    assert len(report["rows"]) == TINY.trials


def test_sweep_emits_grid(workdir):
    args, out = _cfg_args(workdir, "sweep")
    rc, stdout, _ = _run("sweep", *args,
                         "--workloads", str(workdir / "gen" / "workloads.json"),
                         "--ks", "2,3", "--bases", "6c8g")
    assert rc == 0
    report = json.loads((out / "sweep.json").read_text())
    assert report["schema"] == "sweep-report/v1"
    assert {r["k"] for r in report["rows"]} == {2, 3}
    csv_lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "k,base,mean_error,max_error"


def test_loocv_emits_rounds(tmp_path):
    config = ExperimentConfig(rng_seed=4, archetype_count=3, workload_count=6,
                              train_count=4, val_count=2, k=3, trials=1,
                              tenants_per_trial=4, cluster_nodes=2,
                              mlp_epochs=150)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_json()))
    rc, stdout, _ = _run("loocv", "--config", str(config_path),
                         "--out", str(tmp_path / "out"))
    assert rc == 0
    report = json.loads((tmp_path / "out" / "loocv.json").read_text())
    assert report["schema"] == "loocv-report/v1"
    assert report["summary"]["rounds"] == config.workload_count


def test_seed_override_changes_generated_set(workdir, tmp_path):
    config = str(workdir / "config.json")
    rc1, _, _ = _run("gen", "--config", config, "--seed", "123",
                     "--out", str(tmp_path / "a"))
    rc2, _, _ = _run("gen", "--config", config, "--seed", "124",
                     "--out", str(tmp_path / "b"))
    rc3, _, _ = _run("gen", "--config", config, "--seed", "123",
                     "--out", str(tmp_path / "c"))
    assert rc1 == rc2 == rc3 == 0
    a = (tmp_path / "a" / "workloads.json").read_bytes()
    b = (tmp_path / "b" / "workloads.json").read_bytes()
    c = (tmp_path / "c" / "workloads.json").read_bytes()
    assert a != b
    assert a == c


def test_bad_inputs_exit_1(workdir, tmp_path):
    rc, _, stderr = _run("train", "--config", str(workdir / "config.json"),
                         "--workloads", str(tmp_path / "missing.json"),
                         "--out", str(tmp_path / "x"))
    assert rc == 1
    assert "error:" in stderr

    bad = tmp_path / "bad_config.json"
    bad.write_text(json.dumps({"rng_seed": 1, "not_a_knob": True}))
    rc, _, stderr = _run("gen", "--config", str(bad),
                         "--out", str(tmp_path / "y"))
    assert rc == 1
    assert "unknown config keys" in stderr

    # placements referencing workloads absent from the requests file
    orphan = tmp_path / "orphan.jsonl"
    orphan.write_text('{"workload_id": "ghost", "node_id": 0, "score": 0.0}\n')
    rc, _, stderr = _run(
        "simulate", "--config", str(workdir / "config.json"),
        "--placements", str(orphan),
        "--requests", str(workdir / "estimate" / "profiles.json"),
        "--out", str(tmp_path / "z"))
    assert rc == 1
    assert "ghost" in stderr


def _one_error_line(stderr):
    return stderr.startswith("error: ") and stderr.count("\n") == 1


@pytest.mark.parametrize("override", [
    {"k": "5"}, {"trials": 1.5}, {"epsilon": None}, {"trials": True},
    {"theta": "high"}, {"core_levels": [1, 2.5]}, {"scenario1_origin": [1]},
    {"gamma": -1}, {"cluster_nodes": 0}, [1],
    {"origin_cores": [5, 3]}, {"origin_cores": [1, 40]}, {"origin_memory_gb": [1, 16]},
    {"scenario1_origin": [40, 2]}, {"scenario2_origin": [12, 64]},
])
def test_bad_config_exits_1_before_any_work(override, tmp_path):
    # gen never reads the cluster settings, so a bad gamma or node count
    # is caught only if the config checks them when it is loaded.
    config = ({**TINY.to_json(), **override} if isinstance(override, dict)
              else override)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc, _, stderr = _run("gen", "--config", str(path), "--out", str(tmp_path / "o"))
    assert rc == 1
    assert _one_error_line(stderr), stderr
    assert not (tmp_path / "o" / "workloads.json").exists()


def test_bad_config_names_key_and_type(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": "5"}))
    rc, _, stderr = _run("gen", "--config", str(path), "--out", str(tmp_path))
    assert (rc, stderr) == (1, "error: config key 'k' needs an integer, got \"5\"\n")


@pytest.mark.parametrize("rows, message", [
    ([{"workload_id": 1, "profile": {}}], "request row 0 has no 'spec'"),
    (["w1"], "request row 0 is not a JSON object"),
    ({"requests": {"w1": {}}}, "requests file needs a 'requests' or 'profiles' list"),
])
def test_schedule_rejects_bad_request_rows(rows, message, workdir, tmp_path):
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps(
        {"requests": rows} if isinstance(rows, list) else rows))
    args, out = _cfg_args(workdir, "schedule_bad_rows")
    rc, _, stderr = _run("schedule", *args, "--requests", str(requests))
    assert rc == 1
    assert stderr == f"error: {requests}: {message}\n"


def test_plan_rejects_base_mismatch_naming_both_bases(workdir, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {**TINY.to_json(), "base_cores": 1, "base_memory_gb": 2}))
    rc, _, stderr = _run(
        "plan", "--config", str(config), "--out", str(tmp_path),
        "--bundle", str(workdir / "train" / "bundle.json"),
        "--indexes", str(workdir / "indexes.json"), "--current", "1c2g")
    assert rc == 1
    assert _one_error_line(stderr)
    assert "1c2g" in stderr and "6c8g" in stderr
    assert not (tmp_path / "plan.json").exists()


def test_simulate_reads_the_node_inventory_schedule_used(workdir, tmp_path):
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps({"count": 2, "cores": 400, "memory_gb": 1024}))
    profiles = str(workdir / "estimate" / "profiles.json")
    args, out = _cfg_args(workdir, "inventory")
    rc, _, _ = _run("schedule", *args, "--requests", profiles, "--nodes", str(nodes))
    assert rc == 0
    placements = str(out / "placements.jsonl")
    assert {json.loads(line)["node_id"] for line in open(placements)} == {0, 1}
    rc, _, stderr = _run("simulate", *args, "--placements", placements,
                         "--requests", profiles, "--nodes", str(nodes))
    assert rc == 0, stderr
    report = json.loads((out / "simulation.json").read_text())
    assert len(report["entries"]) == TINY.workload_count


@pytest.mark.parametrize("inventory", [
    {"nodes": [{"node_id": 0, "capacity": {"cores": 96, "memory_gb": 256}},
               {"node_id": 1, "capacity": {"cores": 48, "memory_gb": 256}}]},
    {"nodes": [{"node_id": 0, "capacity": {"cores": 96, "memory_gb": 256},
                "used_cores": 4}]},
    {"count": 0},
])
def test_simulate_rejects_inventory_it_cannot_model(inventory, workdir, tmp_path):
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps(inventory))
    args, out = _cfg_args(workdir, "inventory_bad")
    rc, _, stderr = _run(
        "simulate", *args,
        "--placements", str(workdir / "schedule" / "placements.jsonl"),
        "--requests", str(workdir / "estimate" / "profiles.json"),
        "--nodes", str(nodes))
    assert rc == 1
    assert _one_error_line(stderr) and str(nodes) in stderr
    assert not (out / "simulation.json").exists()


def _classifier(bundle):
    [classifier] = bundle["classifiers"].values()
    return classifier


def _drop_w2_column(bundle):
    for row in _classifier(bundle)["model"]["w2"]:
        row.pop()


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda b: b.update(classifiers=[]),
                 "classifiers must be a JSON object", id="classifiers-list"),
    pytest.param(lambda b: _classifier(b).update(kind="nearest_centroid"),
                 "unknown classifier kind 'nearest_centroid'", id="kind"),
    pytest.param(lambda b: b["selection"]["selected"].pop(),
                 "selection differs", id="top-level-selection"),
    pytest.param(lambda b: _classifier(b)["selection"]["selected"].append(15),
                 "not all in 0..14", id="selected-range"),
    pytest.param(lambda b: _classifier(b)["mean"].pop(),
                 "feature sizes disagree", id="mean"),
    pytest.param(lambda b: _classifier(b)["std"].append(1.0),
                 "feature sizes disagree", id="std"),
    pytest.param(lambda b: _classifier(b)["model"]["w1"].pop(),
                 "feature sizes disagree", id="w1-rows"),
    pytest.param(lambda b: _classifier(b)["model"].update(w1=[1.0]),
                 "w1 has 1 dimensions", id="w1-vector"),
    pytest.param(lambda b: _classifier(b)["model"]["b1"].pop(),
                 "hidden sizes disagree", id="b1"),
    pytest.param(_drop_w2_column, "class sizes disagree", id="w2-columns"),
    pytest.param(lambda b: _classifier(b).update(n_classes=5),
                 "class sizes disagree", id="n-classes"),
    pytest.param(lambda b: b["clustering"]["centroids"].pop(),
                 "class sizes disagree", id="centroids"),
    pytest.param(lambda b: b["clustering"].update(k=5),
                 "class sizes disagree", id="k"),
    pytest.param(lambda b: b["clustering"]["assignments"].pop(),
                 "training sizes disagree", id="assignments"),
])
def test_plan_rejects_inconsistent_bundle(mutate, message, workdir, tmp_path):
    bundle = json.loads((workdir / "train" / "bundle.json").read_text())
    mutate(bundle)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    out = tmp_path / "out"
    rc, _, stderr = _run("plan", "--config", str(workdir / "config.json"),
                         "--out", str(out), "--bundle", str(path),
                         "--indexes", str(workdir / "indexes.json"), "--current", "1c2g")
    assert rc == 1
    assert _one_error_line(stderr) and message in stderr, stderr
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("inventory, message", [
    ({"nodes": [{"node_id": 0}]}, "node row 0 has no 'capacity'"),
    ({"nodes": [{"capacity": {"cores": 96, "memory_gb": 256}}]},
     "node row 0 has no 'node_id'"),
    ({"nodes": ["n0"]}, "node row 0 is not a JSON object"),
    ({"nodes": {"n0": {}}}, "'nodes' must be a list"),
])
def test_schedule_rejects_bad_node_rows(inventory, message, workdir, tmp_path):
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps(inventory))
    out = tmp_path / "out"
    rc, _, stderr = _run("schedule", "--config", str(workdir / "config.json"),
                         "--out", str(out), "--nodes", str(nodes),
                         "--requests", str(workdir / "estimate" / "profiles.json"))
    assert (rc, stderr) == (1, f"error: {nodes}: {message}\n")
    assert not (out / "placements.jsonl").exists()
