"""Command line surface: every subcommand end to end on a tiny study."""

import contextlib
import copy
import hashlib
import io
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from capsched import cli, experiment
from capsched.cli import main
from capsched.core import InterferenceProfile, NodeConstants, canonical_json
from capsched.experiment import ExperimentConfig, build_workload_set
from capsched.workload_synth import WorkloadSet, observe_indexes

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
    assert bundle["schema"] == "model-bundle/v2"
    assert len(bundle["clustering"]["centroids"]) == TINY.k
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
    digest = hashlib.sha256((out / "reference_tracks.json").read_bytes()).hexdigest()
    assert digest == "11abd3d72e85791364ba10a07ec3481e72752fcb77dc64b86ef45dfd545c3ed5"


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


def test_calibrate_reads_the_nodes_of_a_workload_set(workdir, tmp_path):
    # Tracks calibrated on an 8-way world are the ones estimate accepts there.
    w8 = tmp_path / "w8.json"
    WorkloadSet.generate(archetype_count=4, workload_count=10, seed=3,
                         constants=NodeConstants(llc_ways=8)).save(w8)
    rc, stdout, _ = _run("calibrate", "--workloads", str(w8), "--out", str(tmp_path / "cal"))
    assert (rc, stdout) == (0, f"wrote {tmp_path / 'cal' / 'reference_tracks.json'}: "
                               "21 stress levels\n")
    tracks = json.loads((tmp_path / "cal" / "reference_tracks.json").read_text())
    assert {len(row["kmps"]) for row in tracks["tracks"]} == {8}
    rc, _, stderr = _run("estimate", "--config", str(workdir / "config.json"),
                         "--workloads", str(w8), "--out", str(tmp_path / "est"),
                         "--tracks", str(tmp_path / "cal" / "reference_tracks.json"))
    assert (rc, stderr) == (0, "")
    # On a world of default nodes the flag changes nothing.
    rc, _, _ = _run("calibrate", "--workloads", str(workdir / "gen" / "workloads.json"),
                    "--out", str(tmp_path / "default"))
    assert rc == 0
    assert ((tmp_path / "default" / "reference_tracks.json").read_bytes()
            == (workdir / "calibrate" / "reference_tracks.json").read_bytes())


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


def test_plan_rejects_nan_target_as_bad_input(workdir):
    args, out = _cfg_args(workdir, "plan_nan")
    rc, _, stderr = _run(
        "plan", *args,
        "--bundle", str(workdir / "train" / "bundle.json"),
        "--indexes", str(workdir / "indexes.json"),
        "--policy", "scale-up", "--current", "1c2g", "--target", "nan")
    assert (rc, stderr) == (1, "error: scale-up target_speedup must be >= 1, got nan\n")
    assert not (out / "plan.json").exists()


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


def _loud_requests(path, count):
    # every request: 1 core, 1 GB, pressure and sensitivity 20 everywhere
    levels = {"pressure": 20, "sensitivity": 20}
    path.write_text(json.dumps({"requests": [
        {"workload_id": i, "spec": {"cores": 1, "memory_gb": 1},
         "profile": {r: levels for r in ("llc", "membw", "disk", "network")}}
        for i in range(count)]}))
    return str(path)


def test_schedule_refuses_a_scaler_that_is_not_finite(workdir, tmp_path):
    args, out = _cfg_args(workdir, "schedule_inf")
    rc, _, stderr = _run("schedule", *args, "--scaler", "inf", "--requests",
                         _loud_requests(tmp_path / "requests.json", 2))
    assert (rc, stderr) == (1, "error: scaler must be finite and > 1, got inf\n")
    assert not (out / "placements.jsonl").exists()


def test_schedule_exits_1_when_a_risk_overflows(workdir, tmp_path):
    # 10 ** 320 overflows a float: the 16th request on the node reaches it.
    nodes = tmp_path / "nodes.json"
    nodes.write_text(json.dumps({"count": 1, "cores": 96}))
    args, out = _cfg_args(workdir, "schedule_overflow")
    rc, _, stderr = _run("schedule", *args, "--scaler", "10", "--nodes", str(nodes),
                         "--requests", _loud_requests(tmp_path / "requests.json", 40))
    assert (rc, stderr) == (1, "error: node 0: contention risk is not finite at "
                               "scaler 10.0 with summed pressure llc 320, membw 320, "
                               "disk 320, network 320\n")
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
    # repr-formatted floats survive a parse round trip
    for line, entry in zip(csv_lines[1:], report["entries"]):
        assert line.split(",") == [str(entry["workload_id"]), str(entry["node_id"]),
                                   repr(entry["sd"])]
        assert float(line.split(",")[2]) == entry["sd"]


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


@pytest.mark.parametrize("grid, message", [
    (["--ks", ","], "sweep ks must be non-empty"),
    (["--ks", "0"], "sweep k 0 must be in [1, 8], the training workload count"),
    (["--ks", "9"], "sweep k 9 must be in [1, 8], the training workload count"),
    (["--ks", "2,2"], "sweep ks repeat [2]"),
    (["--bases", "3c5g"], "sweep base 3c5g is not a grid point of the region"),
    (["--bases", "40c8g"], "sweep base 40c8g is not a grid point of the region"),
    (["--bases", "1c2g,1c2g"], "sweep bases repeat ['1c2g']"),
])
def test_sweep_checks_its_grid_before_any_fit(grid, message, workdir, tmp_path, monkeypatch):
    observed = []
    monkeypatch.setattr(experiment, "observe_indexes", lambda *a: observed.append(a))
    out = tmp_path / "out"
    rc, _, stderr = _run("sweep", "--config", str(workdir / "config.json"),
                         "--out", str(out), "--ks", "2,3", "--bases", "6c8g", *grid)
    assert (rc, stderr) == (1, f"error: {message}\n")
    assert observed == []
    assert not (out / "sweep.json").exists()


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
    {"gamma": float("nan")}, {"scale_factors": [2.0, float("inf")]},
    {"theta": float("-inf")}, {"noise_sigma": -0.1}, {"surface_noise": -0.1},
    {"footprint_noise": -0.1}, {"probe_noise": -0.1}, {"mlp_epochs": -1},
    {"cost_weight_cores": -1.0}, {"cost_weight_memory": -1.0}, {"archetype_count": 1},
    {"scaler": 0.5}, {"scaler": 1.0}, {"scaler": float("inf")},
    {"epsilon": 1.0}, {"scale_factors": [0.5]},
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
    assert (rc, stderr) == (1, f"error: {path}: config key 'k' needs an integer, "
                               "got \"5\"\n")


@pytest.mark.parametrize("override, message", [
    ({"k": 99}, "k must be in [1, train_count]"),
    ({"k": 3.5}, "config key 'k' needs an integer, got 3.5"),
])
def test_gen_names_the_config_file_in_range_and_type_errors(override, message, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(override))
    rc, _, stderr = _run("gen", "--config", str(path), "--out", str(tmp_path / "o"))
    assert (rc, stderr) == (1, f"error: {path}: {message}\n")
    assert not (tmp_path / "o" / "workloads.json").exists()


def test_train_refuses_a_training_split_too_small_to_cross_validate(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train_count": 2, "val_count": 2, "workload_count": 4,
                                "k": 2, "archetype_count": 2}))
    rc, _, stderr = _run("train", "--config", str(path), "--out", str(tmp_path / "o"))
    assert (rc, stderr) == (1, f"error: {path}: train_count must be >= 3, got 2\n")
    assert not (tmp_path / "o" / "bundle.json").exists()


def _request_row(cores=1, pressure=0):
    levels = {"pressure": 0, "sensitivity": 0}
    return {"workload_id": 1, "spec": {"cores": cores, "memory_gb": 1},
            "profile": {"llc": {**levels, "pressure": pressure}, "membw": levels,
                        "disk": levels, "network": levels}}


@pytest.mark.parametrize("rows, message", [
    ([{"workload_id": 1, "profile": {}}], "request row 0 has no 'spec'"),
    (["w1"], "request row 0 is not a JSON object"),
    ({"requests": {"w1": {}}}, "requests file needs a 'requests' or 'profiles' list"),
    ([_request_row(pressure=-1)], "request row 0.profile.llc: levels must be in "
     "[0, 2147483647], got PressureSensitivity(pressure=-1, sensitivity=0)"),
    ([_request_row(cores=0)], "request row 0.spec: spec must be positive, "
     "got ResourceSpec(cores=0, memory_gb=1)"),
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


def _drop_w2_column(bundle):
    for row in bundle["classifier"]["model"]["w2"]:
        row.pop()


def _plan_with_bundle(bundle, workdir, tmp_path):
    """Run plan on a bundle file holding bundle; (exit code, stderr, its path, out dir)."""
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    out = tmp_path / "out"
    rc, _, stderr = _run("plan", "--config", str(workdir / "config.json"),
                         "--out", str(out), "--bundle", str(path),
                         "--indexes", str(workdir / "indexes.json"), "--current", "1c2g")
    return rc, stderr, path, out


@pytest.mark.parametrize("mutate, message", [
    pytest.param(lambda b: b["classifier"]["selection"]["selected"].append(15),
                 "not all in 0..14", id="selected-range"),
    pytest.param(lambda b: b["classifier"]["mean"].pop(),
                 "feature sizes disagree", id="mean"),
    pytest.param(lambda b: b["classifier"]["std"].append(1.0),
                 "feature sizes disagree", id="std"),
    pytest.param(lambda b: b["classifier"]["model"]["w1"].pop(),
                 "feature sizes disagree", id="w1-rows"),
    pytest.param(lambda b: b["classifier"]["model"].update(w1=[1.0]),
                 "w1 has 1 dimensions", id="w1-vector"),
    pytest.param(lambda b: b["classifier"]["model"]["b1"].pop(),
                 "hidden sizes disagree", id="b1"),
    pytest.param(_drop_w2_column, "class sizes disagree", id="w2-columns"),
    pytest.param(lambda b: b["clustering"]["centroids"].pop(),
                 "class sizes disagree", id="centroids"),
    pytest.param(lambda b: b["clustering"]["assignments"].pop(),
                 "training sizes disagree", id="assignments"),
])
def test_plan_rejects_inconsistent_bundle(mutate, message, workdir, tmp_path):
    bundle = json.loads((workdir / "train" / "bundle.json").read_text())
    mutate(bundle)
    rc, stderr, _, out = _plan_with_bundle(bundle, workdir, tmp_path)
    assert rc == 1
    assert _one_error_line(stderr) and message in stderr, stderr
    assert not (out / "plan.json").exists()


def test_plan_refuses_a_v1_bundle_naming_the_schema(workdir, tmp_path):
    # The v1 layout: the classifier in a map keyed by its base, tagged with
    # its kind and class count, and its selection copied to the top level.
    bundle = json.loads((workdir / "train" / "bundle.json").read_text())
    classifier = bundle.pop("classifier")
    selection = classifier["selection"]
    selection["lambda"] = selection.pop("lam")
    bundle.update(schema="model-bundle/v1", selection=selection, classifiers={
        "6c8g": {**classifier, "kind": "mlp", "n_classes": TINY.k}})
    bundle["clustering"]["k"] = TINY.k
    rc, stderr, path, out = _plan_with_bundle(bundle, workdir, tmp_path)
    assert (rc, stderr) == (1, f'error: {path}: bundle.schema needs "model-bundle/v2", '
                               'got "model-bundle/v1"\n')
    assert not (out / "plan.json").exists()


@pytest.mark.parametrize("inventory, message", [
    ({"nodes": [{"node_id": 0}]}, "node row 0 has no 'capacity'"),
    ({"nodes": [{"capacity": {"cores": 96, "memory_gb": 256}}]},
     "node row 0 has no 'node_id'"),
    ({"nodes": ["n0"]}, "node row 0 is not a JSON object"),
    ({"nodes": {"n0": {}}}, "'nodes' must be a list"),
    ({"nodes": [{"node_id": -1, "capacity": {"cores": 96, "memory_gb": 256}}]},
     "node row 0: node_id must be non-negative"),
    ({"nodes": [{"node_id": 0, "capacity": {"cores": 96, "memory_gb": 256},
                 "used_cores": 97}]},
     "node row 0: used resources exceed capacity"),
    ({"nodes": [{"node_id": 0, "capacity": {"cores": 96, "memory_gb": 256},
                 "deployed": [{"workload_id": i, "spec": {"cores": 90, "memory_gb": 8},
                               "profile": InterferenceProfile.zero().to_json()}
                              for i in (1, 2)]}]},
     "node row 0: deployed tenants hold more than the used resources"),
    ({"nodes": [{"node_id": 0, "capacity": {"cores": 96, "memory_gb": 256},
                 "used_core": 90}]},
     "node row 0 has unknown keys ['used_core']"),
    ({"count": 7, "memory": 64}, "node inventory has unknown keys ['memory']"),
    ({"nodes": [{"node_id": 0, "capacity": {"cores": 96, "memory_gb": 256}}], "count": 1},
     "node inventory has unknown keys ['count']"),
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


def _input(kind, workdir):
    """A valid input of each kind from the tiny run, as a JSON value."""
    if kind == "config":
        return TINY.to_json()
    if kind == "bundle":
        return json.loads((workdir / "train" / "bundle.json").read_text())
    if kind == "workloads":
        return json.loads((workdir / "gen" / "workloads.json").read_text())
    if kind == "requests":
        profiles = json.loads((workdir / "estimate" / "profiles.json").read_text())
        return {"requests": profiles["profiles"]}
    if kind == "tracks":
        return json.loads((workdir / "calibrate" / "reference_tracks.json").read_text())
    if kind == "nodes":
        return {"nodes": [{"node_id": i, "capacity": {"cores": 96, "memory_gb": 256}}
                          for i in range(TINY.cluster_nodes)]}
    assert kind == "counted"
    return {"count": TINY.cluster_nodes, "cores": 96, "memory_gb": 256}


def _read_with(kind, text, workdir, out):
    """Run the command that reads an input of this kind from a file holding text."""
    path = out / f"{kind}.json"
    path.write_text(text, encoding="utf-8")
    config = str(workdir / "config.json")
    argv = {
        "config": ["gen", "--config", str(path)],
        "bundle": ["plan", "--config", config, "--bundle", str(path),
                   "--indexes", str(workdir / "indexes.json"), "--current", "1c2g"],
        "workloads": ["estimate", "--config", config, "--workloads", str(path)],
        "requests": ["schedule", "--config", config, "--requests", str(path)],
        "tracks": ["estimate", "--config", config, "--tracks", str(path),
                   "--workloads", str(workdir / "gen" / "workloads.json")],
    }.get(kind, ["schedule", "--config", config, "--nodes", str(path),
                 "--requests", str(workdir / "estimate" / "profiles.json")])
    rc, _, stderr = _run(*argv, "--out", str(out / "out"))
    return rc, stderr, path


@pytest.mark.parametrize("kind, edit, message", [
    ("requests", lambda d: d["requests"][0].update(spec=5),
     "request row 0.spec needs a JSON object, got 5"),
    ("requests", lambda d: d["requests"][0]["profile"].update(llc=[1]),
     "request row 0.profile.llc needs a JSON object, got [1]"),
    ("nodes", lambda d: d["nodes"][0].update(capacity=5),
     "node row 0.capacity needs a JSON object, got 5"),
    ("bundle", lambda d: d["classifier"].update(mean=3.0),
     "bundle.classifier.mean needs a list, got 3.0"),
    ("bundle", lambda d: d["clustering"]["centroids"].__setitem__(0, {"x": 1}),
     "bundle.clustering.centroids[0] has no 'base_spec'"),
    ("counted", lambda d: d.update(count=3.7),
     "node inventory.count needs an integer, got 3.7"),
    ("counted", lambda d: d.update(count="3"),
     "node inventory.count needs an integer, got \"3\""),
    ("workloads", lambda d: d["constants"].update(levels="20"),
     "workload_set.constants.levels needs an integer, got \"20\""),
    ("workloads", lambda d: d["workloads"][1]["params"].update(alpha=True),
     "workload_set.workloads[1].params.alpha needs a number, got true"),
])
def test_value_of_wrong_json_type_exits_1_naming_it(kind, edit, message, workdir, tmp_path):
    doc = _input(kind, workdir)
    edit(doc)
    rc, stderr, path = _read_with(kind, json.dumps(doc), workdir, tmp_path)
    assert (rc, stderr) == (1, f"error: {path}: {message}\n")


@pytest.mark.parametrize("kind", ["config", "bundle", "nodes"])
def test_truncated_file_is_named(kind, workdir, tmp_path):
    text = canonical_json(_input(kind, workdir))
    rc, stderr, path = _read_with(kind, text[:len(text) // 2], workdir, tmp_path)
    assert rc == 1 and _one_error_line(stderr), stderr
    assert stderr.startswith(f"error: {path}: ")


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "line 2 needs a JSON object, got [1, 2]"),
    ('{"node_id": 0}', "line 2 has no 'workload_id'"),
    ('{"workload_id": 0, "node_id": "1"}', "line 2.node_id needs an integer, got \"1\""),
    ('{"workload_id": 0, "node_id": 1.5}', "line 2.node_id needs an integer, got 1.5"),
    ('{"workload_id": "ghost", "node_id": 0}',
     "line 2: placement for unknown workload 'ghost'"),
    ('{"workload_id": 0, "node_id": 1', "line 2: Expecting ',' delimiter"),
])
def test_simulate_rejects_bad_placement_rows(line, message, workdir, tmp_path):
    first = (workdir / "schedule" / "placements.jsonl").read_text().split("\n")[0]
    placements = tmp_path / "placements.jsonl"
    placements.write_text(f"{first}\n{line}\n")
    rc, _, stderr = _run("simulate", "--config", str(workdir / "config.json"),
                         "--out", str(tmp_path / "out"), "--placements", str(placements),
                         "--requests", str(workdir / "estimate" / "profiles.json"))
    assert rc == 1 and _one_error_line(stderr), stderr
    assert stderr.startswith(f"error: {placements}: {message}")


@pytest.mark.parametrize("case", ["repeated workload", "unknown node"])
def test_simulate_names_the_line_placing_a_workload_twice_or_off_the_inventory(
        case, workdir, tmp_path):
    lines = (workdir / "schedule" / "placements.jsonl").read_text().split("\n")
    first, second = json.loads(lines[0]), json.loads(lines[1])
    if case == "repeated workload":
        bad, message = first, f"workload {first['workload_id']!r} is placed twice"
    else:
        bad = {**second, "node_id": TINY.cluster_nodes}
        message = f"node {TINY.cluster_nodes} is not in the inventory"
    placements = tmp_path / "placements.jsonl"
    placements.write_text(f"{lines[0]}\n{json.dumps(bad)}\n")
    rc, _, stderr = _run("simulate", "--config", str(workdir / "config.json"),
                         "--out", str(tmp_path / "out"), "--placements", str(placements),
                         "--requests", str(workdir / "estimate" / "profiles.json"))
    assert (rc, stderr) == (1, f"error: {placements}: line 2: {message}\n")


def test_simulate_names_the_placements_file_and_the_overload(workdir, tmp_path):
    rows = [{**_request_row(cores=60), "workload_id": wid} for wid in ("a", "b")]
    for row in rows:
        row["spec"]["memory_gb"] = 8
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps({"requests": rows}))
    placements = tmp_path / "placements.jsonl"
    placements.write_text('{"workload_id": "a", "node_id": 0}\n'
                          '{"workload_id": "b", "node_id": 0}\n')
    rc, _, stderr = _run("simulate", "--config", str(workdir / "config.json"),
                         "--out", str(tmp_path / "out"), "--placements", str(placements),
                         "--requests", str(requests))
    assert (rc, stderr) == (1, f"error: {placements}: node 0 is overcommitted: "
                               "120 of 96 cores, 16 of 256 GB\n")
    assert not (tmp_path / "out" / "simulation.json").exists()


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_placements_file_without_placements_exits_1_naming_it(text, workdir, tmp_path):
    placements = tmp_path / "placements.jsonl"
    placements.write_text(text)
    rc, _, stderr = _run("simulate", "--config", str(workdir / "config.json"),
                         "--out", str(tmp_path / "out"), "--placements", str(placements),
                         "--requests", str(workdir / "estimate" / "profiles.json"))
    assert (rc, stderr) == (1, f"error: {placements}: placements file lists no placements\n")
    assert not (tmp_path / "out" / "simulation.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(tracks=[]), "tracks: reference tracks list no levels"),
    (lambda d: [row["kmps"].pop() for row in d["tracks"]],
     "tracks cover 10 ways, the workload set's nodes have 11"),
    (lambda d: d["tracks"][5]["kmps"].pop(),
     "tracks: tracks cover different way counts [10, 11]"),
])
def test_estimate_refuses_a_tracks_file_before_probing(edit, message, workdir, tmp_path,
                                                       monkeypatch):
    doc = json.loads((workdir / "calibrate" / "reference_tracks.json").read_text())
    edit(doc)
    tracks = tmp_path / "tracks.json"
    tracks.write_text(json.dumps(doc))
    probed = []
    monkeypatch.setattr(cli, "probe_for", lambda *a, **k: probed.append(a))
    rc, _, stderr = _run("estimate", "--config", str(workdir / "config.json"),
                         "--out", str(tmp_path / "out"),
                         "--workloads", str(workdir / "gen" / "workloads.json"),
                         "--tracks", str(tracks))
    assert (rc, stderr) == (1, f"error: {tracks}: {message}\n")
    assert probed == []


@pytest.mark.parametrize("spec", ["40c200g", "1c1g"])
def test_estimate_refuses_a_spec_outside_the_region(spec, workdir, tmp_path):
    out = tmp_path / "out"
    rc, _, stderr = _run("estimate", "--config", str(workdir / "config.json"),
                         "--out", str(out), "--spec", spec,
                         "--workloads", str(workdir / "gen" / "workloads.json"))
    cores, memory = spec.rstrip("g").split("c")
    assert rc == 1
    assert _one_error_line(stderr), stderr
    assert f"ResourceSpec(cores={cores}, memory_gb={memory}) outside region" in stderr
    assert not (out / "profiles.json").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--bases", "6c"], "--bases: '6c' is not a spec like 6c8g"),
    (["sweep", "--ks", "3:x"], "--ks: '3:x' is not an integer or a lo:hi range"),
    (["estimate", "--workloads", "gen/workloads.json", "--spec", "6x8"],
     "--spec: '6x8' is not a spec like 6c8g or 6,8"),
    (["plan", "--bundle", "train/bundle.json", "--indexes", "indexes.json",
      "--policy", "scale-up", "--target", "1.5", "--current", "2c"],
     "--current: '2c' is not a spec like 6c8g or 6,8"),
    (["sweep", "--bases", "6,8"], "--bases: '6' is not a spec like 6c8g"),
    (["plan", "--bundle", "train/bundle.json", "--indexes", "indexes.json",
      "--policy", "scale-up", "--target", "1.5", "--current", "6c8gg"],
     "--current: '6c8gg' is not a spec like 6c8g or 6,8"),
])
def test_malformed_flag_value_exits_1_naming_flag_and_value(argv, message, workdir,
                                                            tmp_path):
    argv = [str(workdir / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "out"
    rc, _, stderr = _run(*argv, "--config", str(workdir / "config.json"),
                         "--out", str(out))
    assert (rc, stderr) == (1, f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["schedule", "simulate"])
def test_requests_file_without_requests_exits_1_naming_it(command, workdir, tmp_path):
    requests = tmp_path / "requests.json"
    requests.write_text(json.dumps({"requests": []}))
    out = tmp_path / "out"
    extra = ["--placements", str(workdir / "schedule" / "placements.jsonl")]
    rc, _, stderr = _run(command, "--config", str(workdir / "config.json"),
                         "--out", str(out), "--requests", str(requests),
                         *(extra if command == "simulate" else []))
    assert (rc, stderr) == (1, f"error: {requests}: requests file lists no requests\n")
    assert not out.exists() or not any(out.iterdir())


def _kind(value):
    """The JSON type of a value; an int and a float are both numbers."""
    if isinstance(value, bool):
        return "bool"
    return "number" if isinstance(value, (int, float)) else type(value).__name__


def _paths(doc, path=()):
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield from _paths(child, (*path, key))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text('a"\n', max_size=3),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text("ab", max_size=2), inner, max_size=2),
    max_leaves=4)


@st.composite
def _broken(draw, doc, deletions, root, valid):
    """doc with one value swapped for one of another JSON type, or one key deleted."""
    path = draw(st.sampled_from(list(_paths(doc))[0 if root else 1:]))
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if deletions and path and isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
        return doc
    old = parent[path[-1]] if path else doc
    value = draw(_JSON.filter(lambda v: _kind(v) != _kind(old)))
    assume(not valid(path, value))
    if not path:
        return value
    parent[path[-1]] = value
    return doc


# How each input may be broken. A config and a counted inventory may leave
# out any key, theta may be a number, a workload id may be a string, and a
# requests file may be a bare list of rows, so none of these is a fault.
_BREAKS = {
    "config": dict(deletions=False, root=True,
                   valid=lambda path, value: path == ("theta",) and _kind(value) == "number"),
    "bundle": dict(deletions=True, root=True, valid=lambda path, value: False),
    "requests": dict(deletions=True, root=False,
                     valid=lambda path, value: path[-1] == "workload_id"
                     and isinstance(value, str)),
    "nodes": dict(deletions=True, root=True, valid=lambda path, value: False),
    "counted": dict(deletions=False, root=True, valid=lambda path, value: False),
    "tracks": dict(deletions=True, root=True, valid=lambda path, value: False),
}


@pytest.mark.parametrize("kind", list(_BREAKS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_broken_input_exits_1_with_one_error_line(kind, data, workdir):
    doc = data.draw(_broken(_input(kind, workdir), **_BREAKS[kind]), label="input")
    out = workdir / "broken"
    out.mkdir(exist_ok=True)
    rc, stderr, _ = _read_with(kind, json.dumps(doc), workdir, out)
    assert rc == 1 and _one_error_line(stderr), stderr
