"""End-to-end study orchestration on a scaled-down configuration."""

import json

import pytest

from capsched.core import ResourceSpec, canonical_json
from capsched.experiment import (
    ExperimentConfig,
    build_workload_set,
    evaluate_validation,
    run_colocation,
    run_hyperparam_sweep,
    run_loocv,
    run_scenario1,
    run_scenario2,
    split_train_val,
    train_bundle,
)


def test_config_json_roundtrip(small_config):
    clone = ExperimentConfig.from_json(small_config.to_json())
    assert clone == small_config
    assert clone.region == small_config.region
    assert clone.base_spec == ResourceSpec(6, 8)


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"rng_seed": 1, "typo_key": 2})
    with pytest.raises(ValueError):
        ExperimentConfig(workload_count=10, train_count=5, val_count=4)
    with pytest.raises(ValueError):
        ExperimentConfig(k=100)
    with pytest.raises(ValueError):
        ExperimentConfig.from_json({"classifier": "mlp"})
    with pytest.raises(ValueError):
        ExperimentConfig(epsilon=1.5)


def test_config_from_file(tmp_path, small_config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config.to_json()))
    assert ExperimentConfig.from_file(path) == small_config


def test_split_is_deterministic_partition(small_config):
    train, val = split_train_val(small_config)
    assert len(train) == small_config.train_count
    assert len(val) == small_config.val_count
    assert set(train) | set(val) == set(range(small_config.workload_count))
    assert set(train) & set(val) == set()
    assert (train, val) == split_train_val(small_config)
    other = ExperimentConfig.from_json({**small_config.to_json(), "rng_seed": 8})
    assert split_train_val(other) != (train, val)


def test_workload_set_generation_is_deterministic(small_config, small_wset):
    again = build_workload_set(small_config)
    assert canonical_json(again.to_json()) == canonical_json(small_wset.to_json())
    assert len(small_wset.workloads) == small_config.workload_count


def test_train_bundle_is_deterministic(small_config, small_wset, small_bundle):
    again = train_bundle(small_config, small_wset)
    assert canonical_json(again.to_json()) == canonical_json(small_bundle.to_json())
    assert small_bundle.clustering.k == small_config.k
    assert len(small_bundle.training_workload_ids) == small_config.train_count
    assert len(small_bundle.validation_workload_ids) == small_config.val_count


def test_bundle_predicts_cluster_centroids(small_config, small_wset, small_bundle):
    from capsched.workload_synth import observe_indexes

    centroids = {canonical_json(c.to_json())
                 for c in small_bundle.clustering.centroids}
    for wid in small_bundle.validation_workload_ids:
        w = small_wset.workload_by_id(wid)
        vec = observe_indexes(w, small_config.base_spec,
                              small_config.noise_sigma, small_wset.constants)
        predicted = small_bundle.predict(vec)
        assert canonical_json(predicted.to_json()) in centroids


def test_validation_report_shape(small_config, small_wset, small_bundle):
    report = evaluate_validation(small_config, small_wset, small_bundle)
    assert report.k == small_config.k
    assert len(report.rows) == small_config.val_count
    errs = [r["error"] for r in report.rows]
    assert all(e >= 0.0 for e in errs)
    assert report.max_error == max(errs)
    assert report.mean_error <= report.max_error
    assert report.to_json()["schema"] == "validation-report/v1"


def test_scenario1_accounting(small_config, small_wset, small_bundle):
    report = run_scenario1(small_config, small_wset, small_bundle)
    s = report.summary
    n_requests = small_config.val_count * len(small_config.scale_factors)
    assert s["requests"] == n_requests
    assert s["feasible"] + s["infeasible"] == n_requests
    assert 0 <= s["optimal"] <= s["feasible"]
    assert 0 <= s["satisfied"] <= s["feasible"]
    for row in report.rows:
        if row["optimal"]:
            assert row["recommended"] == row["oracle"]
            assert row["gap_cores"] == 0 and row["gap_memory_gb"] == 0
        if row["oracle_infeasible"]:
            assert row["best_achievable"] is not None
            assert row["best_achievable"] < row["factor"]


def test_scenario2_savings_accounting(small_config, small_wset, small_bundle):
    report = run_scenario2(small_config, small_wset, small_bundle)
    s = report.summary
    assert s["workloads"] == small_config.val_count
    assert s["preserved"] == small_config.val_count
    t = s["totals"]
    assert t["recommended_cores"] <= t["origin_cores"]
    assert t["recommended_memory_gb"] <= t["origin_memory_gb"]
    assert s["core_reduction_pct"] == pytest.approx(
        100.0 * (1.0 - t["recommended_cores"] / t["origin_cores"]))
    for row in report.rows:
        assert row["retention"] >= (1.0 - small_config.epsilon) * (1.0 - 1e-9)
        cost = lambda c, m: c + 0.25 * m
        assert cost(row["oracle_cores"], row["oracle_memory_gb"]) <= \
            cost(row["recommended_cores"], row["recommended_memory_gb"]) + 1e-9


def test_colocation_trials_are_deterministic(small_config, small_wset, small_bundle):
    a = run_colocation(small_config, small_wset, small_bundle)
    b = run_colocation(small_config, small_wset, small_bundle)
    assert canonical_json(a.to_json()) == canonical_json(b.to_json())
    assert a.summary["trials"] == small_config.trials
    assert a.summary["aborted"] + len(
        [r for r in a.rows if not r["aborted"]]) == small_config.trials
    for row in a.rows:
        if not row["aborted"]:
            assert row["ursa_p_sys"] > 0
            assert row["lrp_p_sys"] > 0
            assert row["p_sys_ratio"] == pytest.approx(
                row["ursa_p_sys"] / row["lrp_p_sys"])


def test_hyperparam_sweep_covers_requested_grid(small_config, small_wset):
    report = run_hyperparam_sweep(small_config, small_wset, ks=(2, 3, 5),
                                  bases=[small_config.base_spec])
    ks = sorted({r["k"] for r in report.rows})
    assert ks == [2, 3, 5]
    assert len(report.rows) == 3
    for row in report.rows:
        assert row["base"] == small_config.base_spec.key
        assert len(row["errors"]) == small_config.val_count
        assert row["mean_error"] >= 0.0
    best = report.summary
    assert best["best_k"] in ks
    assert best["best_mean_error"] == min(r["mean_error"] for r in report.rows)


def test_loocv_runs_every_round():
    config = ExperimentConfig(rng_seed=5, archetype_count=4, workload_count=8,
                              train_count=6, val_count=2, k=3, trials=1,
                              tenants_per_trial=4, cluster_nodes=2,
                              mlp_epochs=200)
    wset = build_workload_set(config)
    report = run_loocv(config, wset)
    assert report.summary["rounds"] == config.workload_count
    held = [r["workload_id"] for r in report.rows]
    assert sorted(held) == list(range(config.workload_count))
    assert report.summary["mean_error"] >= 0.0
    assert report.summary["max_error"] == max(r["error"] for r in report.rows)
