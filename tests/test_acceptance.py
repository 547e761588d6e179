"""Acceptance gates: one test per shipped guarantee.

Each test is a single pass/fail line under pytest -v. Tolerances and
time budgets are pinned here and nowhere else; the per-module suites
cover the finer-grained behavior.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from capsched.cli import main as cli_main
from capsched.core import (
    ConfigRegion,
    InterferenceProfile,
    NodeConstants,
    PressureSensitivity,
    ResourceSpec,
    ScalingSurface,
    canonical_json,
)
from capsched.estimator import (
    build_profile,
    stress_reference_tracks,
)
from capsched.experiment import (
    ExperimentConfig,
    build_workload_set,
    evaluate_validation,
    run_colocation,
    run_hyperparam_sweep,
    run_scenario1,
    run_scenario2,
    train_bundle,
)
from capsched.scheduler import (
    NodeState,
    ScheduleConfig,
    contention_risk,
    place,
    score_node,
)
from capsched.simulator import (
    ClusterSpec,
    compute_metrics,
    simulate_colocated,
)
from capsched.planner import surface_error
from capsched.workload_synth import (
    generate_archetypes,
    generate_workloads,
    observe_indexes,
    probe_for,
)


def _rel_close(a, b, rel=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def _random_profile(rng):
    vals = rng.integers(0, 21, size=8)
    return InterferenceProfile(
        llc=PressureSensitivity(int(vals[0]), int(vals[1])),
        membw=PressureSensitivity(int(vals[2]), int(vals[3])),
        disk=PressureSensitivity(int(vals[4]), int(vals[5])),
        network=PressureSensitivity(int(vals[6]), int(vals[7])))


def _random_node(rng, node_id=0):
    node = NodeState(node_id=node_id, capacity=ResourceSpec(96, 256))
    for i in range(int(rng.integers(0, 5))):
        node.add(f"w{i}", ResourceSpec(int(rng.integers(1, 9)),
                                       int(rng.integers(1, 9) * 2)),
                 _random_profile(rng))
    return node


def _risk_oracle(profiles, scaler):
    # independent reimplementation straight from the combining rule
    total = 0.0
    for attr in ("llc", "membw", "disk", "network"):
        pressures = [getattr(p, attr).pressure for p in profiles]
        sensitivities = [getattr(p, attr).sensitivity for p in profiles]
        sum_p = sum(pressures)
        max_s = max(sensitivities) if sensitivities else 0
        total += max_s * sum_p * scaler ** sum_p
    return total


def test_criterion_1_formula_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    for _ in range(1000):
        node = _random_node(rng)
        got = contention_risk(node)
        want = _risk_oracle([p for _, _, p in node.deployed], 1.1)
        assert _rel_close(got, want)

    for _ in range(1000):
        node = _random_node(rng)
        spec = ResourceSpec(int(rng.integers(1, 9)), int(rng.integers(1, 9) * 2))
        incoming = _random_profile(rng)
        got = score_node(node, spec, incoming)
        combined = [p for _, _, p in node.deployed] + [incoming]
        usage = 0.5 * ((node.used_cores + spec.cores) / 96
                       + (node.used_memory_gb + spec.memory_gb) / 256)
        assert _rel_close(got, _risk_oracle(combined, 1.1) * usage)

    region = ConfigRegion()
    base = ResourceSpec(6, 8)
    specs = region.specs()
    base_idx = specs.index(base)
    for _ in range(1000):
        pred_v = rng.uniform(0.2, 5.0, size=len(specs))
        act_v = rng.uniform(0.2, 5.0, size=len(specs))
        pred_v[base_idx] = act_v[base_idx] = 1.0
        predicted = ScalingSurface.from_vector(region, base, pred_v)
        actual = ScalingSurface.from_vector(region, base, act_v)
        want = sum(abs(p / a - 1.0) for p, a in zip(pred_v, act_v)) / len(specs)
        assert _rel_close(surface_error(predicted, actual), want)

    for _ in range(1000):
        sds = rng.uniform(0.05, 1.0, size=int(rng.integers(1, 60))).tolist()
        p_sys, unfairness = compute_metrics(sds)
        assert _rel_close(p_sys, sum(sds))
        assert _rel_close(unfairness, (max(sds) - min(sds)) / max(sds))

    assert time.perf_counter() - start < 5.0


def test_criterion_2_validation_error(default_config):
    start = time.perf_counter()
    wset = build_workload_set(default_config)
    bundle = train_bundle(default_config, wset)
    report = evaluate_validation(default_config, wset, bundle)
    elapsed = time.perf_counter() - start
    assert report.mean_error <= 0.10
    assert report.max_error <= 0.20
    assert elapsed < 120.0


def test_criterion_3_scale_up_planning(default_config, default_wset,
                                        default_bundle):
    report = run_scenario1(default_config, default_wset, default_bundle)
    s = report.summary
    assert s["feasible"] >= 1
    assert s["optimal"] / s["feasible"] >= 0.75
    assert s["satisfied"] == s["feasible"]
    assert (s["max_gap_cores"] or 0) <= 2
    assert (s["max_gap_memory_gb"] or 0) <= 4


def test_criterion_4_scale_down_planning(default_config, default_wset,
                                         default_bundle):
    report = run_scenario2(default_config, default_wset, default_bundle)
    s = report.summary
    assert s["preserved"] == s["workloads"]
    assert s["core_reduction_pct"] > 0.0
    assert s["memory_reduction_pct"] > 0.0
    assert s["core_excess_over_oracle_pct"] <= 15.0
    assert s["memory_excess_over_oracle_pct"] <= 10.0


def test_criterion_5_estimator_recovery():
    start = time.perf_counter()
    constants = NodeConstants()
    region = ConfigRegion()
    base = ResourceSpec(6, 8)
    archetypes = generate_archetypes(20, rng_seed=77, constants=constants)
    workloads = generate_workloads(archetypes, 100, rng_seed=77, region=region,
                                   constants=constants, base_spec=base)
    tracks = stress_reference_tracks(constants)
    n = constants.levels
    for w in workloads:
        probe = probe_for(w, w.origin_spec, constants)
        recovered = build_profile(probe, tracks)
        truth = w.ground_truth_profile
        for attr in ("llc", "membw", "disk", "network"):
            got = getattr(recovered, attr)
            want = getattr(truth, attr)
            assert abs(got.pressure - want.pressure) <= 1
            assert abs(got.sensitivity - want.sensitivity) <= 1
        # the sweep works back from the highest unaffected stress level,
        # so a used resource's recovered level equals the generative one
        f = w.params.footprint
        for attr, usage, sens in (("membw", f.membw_gbps, f.sens_membw),
                                  ("disk", f.iops, f.sens_disk),
                                  ("network", f.network_gbps, f.sens_network)):
            if usage > 0:
                assert getattr(recovered, attr).sensitivity == min(sens, n)
    assert time.perf_counter() - start < 60.0


def test_criterion_6_colocation_comparison(default_config):
    start = time.perf_counter()
    wset = build_workload_set(default_config)
    bundle = train_bundle(default_config, wset)
    report = run_colocation(default_config, wset, bundle)
    elapsed = time.perf_counter() - start
    s = report.summary
    assert s["aborted"] == 0
    assert s["unfairness_wins"] >= 9
    assert s["mean_unfairness_reduction_pct"] >= 30.0
    assert s["min_p_sys_ratio"] >= 0.98
    assert elapsed < 300.0


def test_criterion_7_cluster_count_sweep(default_config, default_wset):
    base = default_config.base_spec
    report = run_hyperparam_sweep(default_config, default_wset,
                                  ks=range(2, 31), bases=[base])
    by_k = {r["k"]: r for r in report.rows}
    # one standard error of the mean is the allowed non-monotone wiggle
    for k in range(2, 20):
        errors = by_k[k]["errors"]
        sem = float(np.std(errors, ddof=1)) / math.sqrt(len(errors))
        assert by_k[k + 1]["mean_error"] <= by_k[k]["mean_error"] + sem
    err20 = by_k[20]["mean_error"]
    band = max(0.2 * err20, 1e-6)
    for k in range(20, 31):
        assert abs(by_k[k]["mean_error"] - err20) <= band
    corner = run_hyperparam_sweep(default_config, default_wset,
                                  ks=[20], bases=[ResourceSpec(1, 2)])
    assert err20 <= corner.rows[0]["mean_error"]


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(list(argv))
    assert rc == 0, f"{argv} failed rc={rc}: {err.getvalue()}"


def _run_cli_chain(root):
    config = ExperimentConfig(rng_seed=3, archetype_count=4, workload_count=10,
                              train_count=8, val_count=2, k=4, trials=2,
                              tenants_per_trial=8, cluster_nodes=3,
                              mlp_epochs=200)
    cfg = root / "config.json"
    root.mkdir(parents=True, exist_ok=True)
    cfg.write_text(json.dumps(config.to_json()), encoding="utf-8")

    wset = build_workload_set(config)
    vec = observe_indexes(wset.workload_by_id(0), config.base_spec,
                          config.noise_sigma, wset.constants)
    (root / "indexes.json").write_text(
        canonical_json({"indexes": vec.to_json()}), encoding="utf-8")

    c = ["--config", str(cfg)]
    d = lambda name: ["--out", str(root / name)]
    workloads = ["--workloads", str(root / "gen" / "workloads.json")]
    _cli("gen", *c, *d("gen"))
    _cli("train", *c, *d("train"), *workloads)
    _cli("calibrate", *c, *d("calibrate"))
    _cli("estimate", *c, *d("estimate"), *workloads,
         "--tracks", str(root / "calibrate" / "reference_tracks.json"))
    _cli("plan", *c, *d("plan"),
         "--bundle", str(root / "train" / "bundle.json"),
         "--indexes", str(root / "indexes.json"),
         "--policy", "scale-up", "--current", "1c2g", "--target", "1.5")
    _cli("schedule", *c, *d("schedule"),
         "--requests", str(root / "estimate" / "profiles.json"))
    _cli("simulate", *c, *d("simulate"),
         "--placements", str(root / "schedule" / "placements.jsonl"),
         "--requests", str(root / "estimate" / "profiles.json"))
    _cli("scenario1", *c, *d("scenario1"), *workloads)
    _cli("scenario2", *c, *d("scenario2"), *workloads)
    _cli("colocate", *c, *d("colocate"), *workloads)
    _cli("sweep", *c, *d("sweep"), *workloads, "--ks", "2,3", "--bases", "6c8g")
    _cli("loocv", *c, *d("loocv"), *workloads)


def test_criterion_8_cli_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _run_cli_chain(a)
    _run_cli_chain(b)
    artifacts = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert len(artifacts) >= 20
    for rel in artifacts:
        assert (b / rel).is_file(), f"missing {rel} in second run"
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), \
            f"artifact {rel} differs between identical runs"


def test_criterion_9_invariant_suites():
    constants = NodeConstants()
    region = ConfigRegion()
    base = ResourceSpec(6, 8)
    rng = np.random.default_rng(909)

    # 1000 generated scaling surfaces stay monotone with a unit base
    archetypes = generate_archetypes(20, rng_seed=31, constants=constants)
    workloads = generate_workloads(archetypes, 1000, rng_seed=31, region=region,
                                   constants=constants, base_spec=base)
    assert len(workloads) == 1000
    for w in workloads:
        surf = w.ground_truth_surface
        assert surf.speedup_at(base) == 1.0
        assert surf.is_monotone()

    # 1000 placements conserve node capacity accounting
    placed_cases = 0
    while placed_cases < 1000:
        nodes = [NodeState(node_id=i, capacity=ResourceSpec(48, 128))
                 for i in range(4)]
        requests = [(f"t{i}", ResourceSpec(int(rng.integers(1, 7)),
                                           int(rng.integers(1, 7) * 2)),
                     _random_profile(rng)) for i in range(24)]
        policy = "ursa" if placed_cases % 2 else "lrp"
        placements = place(requests, nodes, ScheduleConfig(policy=policy))
        placed_cases += len(placements)
        total = sum(len(n.deployed) for n in nodes)
        assert total == len(requests)
        for n in nodes:
            assert n.used_cores == sum(s.cores for _, s, _ in n.deployed)
            assert n.used_memory_gb == sum(s.memory_gb for _, s, _ in n.deployed)
            assert 0 <= n.used_cores <= n.capacity.cores
            assert 0 <= n.used_memory_gb <= n.capacity.memory_gb

    # 1000 perturbations: more pressure never helps anyone, and a
    # tenant's own emission leaves its own slowdown untouched
    cluster = ClusterSpec(nodes=2, node_cores=96, node_memory_gb=256)
    for case in range(1000):
        tenants = [(f"t{i}", int(rng.integers(0, 2)), ResourceSpec(4, 8),
                    _random_profile(rng))
                   for i in range(int(rng.integers(2, 8)))]
        before = simulate_colocated(tenants, cluster)
        assert all(0.0 < e.sd <= 1.0 for e in before.entries)
        idx = int(rng.integers(0, len(tenants)))
        wid, node, spec, prof = tenants[idx]
        resource = ("llc", "membw", "disk", "network")[case % 4]
        kwargs = {a: getattr(prof, a) for a in ("llc", "membw", "disk", "network")}
        kwargs[resource] = PressureSensitivity(
            kwargs[resource].pressure + int(rng.integers(1, 6)),
            kwargs[resource].sensitivity)
        tenants[idx] = (wid, node, spec, InterferenceProfile(**kwargs))
        after = simulate_colocated(tenants, cluster)
        for e0, e1 in zip(before.entries, after.entries):
            if e0.workload_id == wid:
                assert e1.sd == e0.sd
            else:
                assert e1.sd <= e0.sd + 1e-15
