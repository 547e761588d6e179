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
                        sweep_ks=(2, 3), mlp_epochs=200)


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
                              sweep_ks=(2,), mlp_epochs=150)
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
