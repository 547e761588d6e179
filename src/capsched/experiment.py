"""End-to-end studies tying the pipeline together.

Everything here is driven by one ExperimentConfig and is fully
reproducible from its seed: workload generation, the train/validation
split, model fitting, planning studies and the co-location trials all
derive their randomness from tagged child seeds. Reports are plain
data with enough raw per-row fields to recompute every aggregate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_CORE_LEVELS,
    DEFAULT_MEMORY_LEVELS,
    CapacityExhaustedError,
    ConfigRegion,
    InfeasibleError,
    ResourceSpec,
    ScalingSurface,
    SystemIndexVector,
)
from .estimator import build_profile, stress_reference_tracks
from .planner import (
    DEFAULT_COST_WEIGHTS,
    DEFAULT_EPSILON,
    DEFAULT_K,
    MLP_EPOCHS,
    MLP_HIDDEN,
    MLP_STEP,
    FeatureSelection,
    ModelBundle,
    PlanningRequest,
    SurfaceClassifier,
    SurfaceClustering,
    cluster_surfaces,
    plan_capacity,
    select_features_cv,
    spec_cost,
    surface_error,
    train_classifier,
)
from .scheduler import (
    DEFAULT_SCALER,
    NodeState,
    POLICY_LRP,
    POLICY_URSA,
    ScheduleConfig,
    place,
)
from .simulator import ClusterSpec, simulate_colocated
from .workload_synth import (
    Workload,
    WorkloadSet,
    make_workload,
    observe_indexes,
    probe_for,
    tps_at,
    true_profile_at,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Every knob of the desk-scale studies, overridable from JSON."""

    rng_seed: int = 0
    archetype_count: int = 20
    workload_count: int = 55
    train_count: int = 44
    val_count: int = 11
    k: int = DEFAULT_K
    core_levels: tuple[int, ...] = DEFAULT_CORE_LEVELS
    memory_levels_gb: tuple[int, ...] = DEFAULT_MEMORY_LEVELS
    base_cores: int = 6
    base_memory_gb: int = 8
    noise_sigma: float = 0.05
    surface_noise: float = 0.0
    footprint_noise: float = 0.0
    probe_noise: float = 0.0
    classifier: str = "mlp"
    mlp_hidden: int = MLP_HIDDEN
    mlp_step: float = MLP_STEP
    mlp_epochs: int = MLP_EPOCHS
    lasso_folds: int = 5
    cost_weight_cores: float = DEFAULT_COST_WEIGHTS[0]
    cost_weight_memory: float = DEFAULT_COST_WEIGHTS[1]
    epsilon: float = DEFAULT_EPSILON
    scale_factors: tuple[float, ...] = (2.0, 3.0)
    scenario1_origin: tuple[int, int] = (1, 2)
    scenario2_origin: tuple[int, int] = (12, 16)
    trials: int = 10
    tenants_per_trial: int = 56
    cluster_nodes: int = 7
    node_cores: int = 96
    node_memory_gb: int = 256
    gamma: float = 0.5
    theta: float | None = None
    scaler: float = DEFAULT_SCALER
    origin_cores: tuple[int, int] = (1, 12)
    origin_memory_gb: tuple[int, int] = (2, 16)
    sweep_ks: tuple[int, ...] = tuple(range(2, 31))
    sweep_bases: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.train_count + self.val_count != self.workload_count:
            raise ValueError("train_count + val_count must equal workload_count")
        if self.train_count < 2 or self.val_count < 1:
            raise ValueError("need at least 2 training and 1 validation workload")
        if self.k < 1 or self.k > self.train_count:
            raise ValueError("k must be in [1, train_count]")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if self.classifier not in ("mlp", "nearest_centroid"):
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.trials < 1 or self.tenants_per_trial < 1:
            raise ValueError("trials and tenants_per_trial must be >= 1")

    @property
    def region(self) -> ConfigRegion:
        return ConfigRegion(core_levels=tuple(self.core_levels),
                            memory_levels_gb=tuple(self.memory_levels_gb))

    @property
    def base_spec(self) -> ResourceSpec:
        return ResourceSpec(self.base_cores, self.base_memory_gb)

    @property
    def cost_weights(self) -> tuple[float, float]:
        return (self.cost_weight_cores, self.cost_weight_memory)

    @property
    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(nodes=self.cluster_nodes, node_cores=self.node_cores,
                           node_memory_gb=self.node_memory_gb,
                           gamma=self.gamma, theta=self.theta)

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            out[f.name] = value
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        known = {f.name: f for f in fields(cls)}
        unknown = set(obj) - set(known)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {}
        for name, value in obj.items():
            if isinstance(value, list):
                value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def split_train_val(config: ExperimentConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic shuffle of workload ids into train/validation."""
    rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 3]))
    order = [int(i) for i in rng.permutation(config.workload_count)]
    return tuple(order[:config.train_count]), tuple(order[config.train_count:])


def build_workload_set(config: ExperimentConfig) -> WorkloadSet:
    return WorkloadSet.generate(
        archetype_count=config.archetype_count,
        workload_count=config.workload_count,
        seed=config.rng_seed,
        region=config.region,
        base_spec=config.base_spec,
        surface_noise=config.surface_noise,
        footprint_noise=config.footprint_noise)


def _observe(config: ExperimentConfig, wset: WorkloadSet, workload: Workload,
             base: ResourceSpec) -> SystemIndexVector:
    return observe_indexes(workload, base, config.noise_sigma, wset.constants)


@dataclass
class _BaseData:
    """Per-base-config intermediates shared across sweep points."""

    base: ResourceSpec
    selection: FeatureSelection
    train_surfaces: list[ScalingSurface]
    train_obs: list[SystemIndexVector]
    val_surfaces: list[ScalingSurface]
    val_obs: list[SystemIndexVector]


def _prepare_base(config: ExperimentConfig, wset: WorkloadSet,
                  train_ids: Sequence[int], val_ids: Sequence[int],
                  base: ResourceSpec) -> _BaseData:
    train = [wset.workload_by_id(i) for i in train_ids]
    val = [wset.workload_by_id(i) for i in val_ids]
    train_obs = [_observe(config, wset, w, base) for w in train]
    val_obs = [_observe(config, wset, w, base) for w in val]
    samples = [(obs, tps_at(w, base)) for w, obs in zip(train, train_obs)]
    selection = select_features_cv(samples, config.rng_seed,
                                   folds=config.lasso_folds)
    if not selection.selected:
        # A base where nothing survives shrinkage still needs a model;
        # fall back to the unpenalized fit, which keeps every feature.
        from .planner import select_features
        selection = select_features(samples, lam=0.0)
    return _BaseData(
        base=base,
        selection=selection,
        train_surfaces=[w.ground_truth_surface.rebase(base) for w in train],
        train_obs=train_obs,
        val_surfaces=[w.ground_truth_surface.rebase(base) for w in val],
        val_obs=val_obs)


def _cluster_and_classify(config: ExperimentConfig, data: _BaseData,
                          k: int) -> tuple[SurfaceClustering, SurfaceClassifier]:
    """Cluster the training surfaces into k groups, then fit the classifier."""
    clustering = cluster_surfaces(data.train_surfaces, k, config.rng_seed)
    training = list(zip(data.train_obs, clustering.assignments))
    classifier = train_classifier(
        training, data.base, data.selection, kind=config.classifier,
        rng_seed=config.rng_seed, n_classes=clustering.k,
        hidden=config.mlp_hidden, step=config.mlp_step,
        epochs=config.mlp_epochs)
    return clustering, classifier


def _fit_point(config: ExperimentConfig, data: _BaseData, k: int) -> list[float]:
    """Cluster + classify at one (k, base) point; per-workload errors."""
    clustering, classifier = _cluster_and_classify(config, data, k)
    errors = []
    for obs, actual in zip(data.val_obs, data.val_surfaces):
        predicted = clustering.centroids[classifier.predict(obs)]
        errors.append(surface_error(predicted, actual))
    return errors


def train_bundle(config: ExperimentConfig,
                 wset: WorkloadSet | None = None) -> ModelBundle:
    """Fit the full offline model at the configured base config.

    Feature selection, clustering and the one classifier all happen at
    config.base_spec, so the bundle predicts only for workloads
    observed there.
    """
    if wset is None:
        wset = build_workload_set(config)
    train_ids, val_ids = split_train_val(config)
    data = _prepare_base(config, wset, train_ids, val_ids, config.base_spec)
    clustering, classifier = _cluster_and_classify(config, data, config.k)
    return ModelBundle(region=wset.region, selection=data.selection,
                       clustering=clustering,
                       classifiers={config.base_spec.key: classifier},
                       training_workload_ids=tuple(train_ids),
                       validation_workload_ids=tuple(val_ids),
                       seed=config.rng_seed)


@dataclass(frozen=True)
class ValidationReport:
    base: str
    k: int
    rows: tuple[dict, ...]
    mean_error: float
    max_error: float

    def to_json(self) -> dict:
        return {"schema": "validation-report/v1", "base": self.base, "k": self.k,
                "mean_error": self.mean_error, "max_error": self.max_error,
                "rows": list(self.rows)}


def evaluate_validation(config: ExperimentConfig,
                        wset: WorkloadSet | None = None,
                        bundle: ModelBundle | None = None) -> ValidationReport:
    """Surface prediction error on the held-out workloads."""
    if wset is None:
        wset = build_workload_set(config)
    if bundle is None:
        bundle = train_bundle(config, wset)
    base = config.base_spec
    rows = []
    errors = []
    for wid in bundle.validation_workload_ids:
        w = wset.workload_by_id(wid)
        predicted = bundle.predict(base, _observe(config, wset, w, base))
        err = surface_error(predicted, w.ground_truth_surface.rebase(base))
        errors.append(err)
        rows.append({"workload_id": wid, "error": err,
                     "archetype_id": w.archetype_id})
    return ValidationReport(base=base.key, k=bundle.clustering.k,
                            rows=tuple(rows),
                            mean_error=float(np.mean(errors)),
                            max_error=float(np.max(errors)))


def _plan_or_none(request: PlanningRequest,
                  surface: ScalingSurface) -> tuple[ResourceSpec | None, float]:
    try:
        return plan_capacity(request, surface), 1.0
    except InfeasibleError as exc:
        return None, exc.best_speedup


@dataclass(frozen=True)
class ScenarioReport:
    schema: str
    rows: tuple[dict, ...]
    summary: dict

    def to_json(self) -> dict:
        return {"schema": self.schema, "summary": self.summary,
                "rows": list(self.rows)}


def run_scenario1(config: ExperimentConfig,
                  wset: WorkloadSet | None = None,
                  bundle: ModelBundle | None = None) -> ScenarioReport:
    """Scale-up planning for tenants outgrowing a small origin spec.

    Each validation workload sits at the scenario origin and asks for
    2x and 3x its current throughput. Recommendations come from the
    predicted surface; oracle answers and satisfaction checks use the
    ground truth. Requests the truth itself cannot satisfy are
    recorded as infeasible rather than failed.
    """
    if wset is None:
        wset = build_workload_set(config)
    if bundle is None:
        bundle = train_bundle(config, wset)
    origin = ResourceSpec(*config.scenario1_origin)
    wset.region.require(origin)
    rows = []
    for wid in bundle.validation_workload_ids:
        w = wset.workload_by_id(wid)
        predicted = bundle.predict(config.base_spec,
                                   _observe(config, wset, w, config.base_spec))
        truth = w.ground_truth_surface
        for factor in config.scale_factors:
            request = PlanningRequest(policy="scale-up", current_spec=origin,
                                      target_speedup=float(factor),
                                      cost_weights=config.cost_weights)
            oracle, oracle_best = _plan_or_none(request, truth)
            rec, rec_best = _plan_or_none(request, predicted)
            true_current = truth.speedup_at(origin)
            achieved = (truth.speedup_at(rec) / true_current) if rec else None
            satisfied = (achieved is not None
                         and achieved >= factor * (1.0 - 1e-9))
            row = {
                "workload_id": wid,
                "factor": float(factor),
                "origin": origin.key,
                "recommended": rec.key if rec else None,
                "oracle": oracle.key if oracle else None,
                "oracle_infeasible": oracle is None,
                "predicted_infeasible": rec is None,
                "predicted_current": predicted.speedup_at(origin),
                "true_current": true_current,
                "achieved_ratio": achieved,
                "satisfied": satisfied,
                "optimal": rec is not None and oracle is not None and rec == oracle,
                "gap_cores": (rec.cores - oracle.cores) if rec and oracle else None,
                "gap_memory_gb": (rec.memory_gb - oracle.memory_gb)
                                 if rec and oracle else None,
                "recommended_cost": spec_cost(rec, config.cost_weights) if rec else None,
                "oracle_cost": spec_cost(oracle, config.cost_weights) if oracle else None,
                "best_achievable": oracle_best if oracle is None else None,
            }
            rows.append(row)
    feasible = [r for r in rows if not r["oracle_infeasible"]]
    n_feasible = len(feasible)
    n_optimal = sum(r["optimal"] for r in feasible)
    n_satisfied = sum(r["satisfied"] for r in feasible)
    gaps_c = [r["gap_cores"] for r in feasible if r["gap_cores"] is not None]
    gaps_m = [r["gap_memory_gb"] for r in feasible if r["gap_memory_gb"] is not None]
    summary = {
        "requests": len(rows),
        "feasible": n_feasible,
        "infeasible": len(rows) - n_feasible,
        "optimal": n_optimal,
        "optimal_rate": n_optimal / n_feasible if n_feasible else None,
        "satisfied": n_satisfied,
        "satisfied_rate": n_satisfied / n_feasible if n_feasible else None,
        "max_gap_cores": max(gaps_c) if gaps_c else None,
        "max_gap_memory_gb": max(gaps_m) if gaps_m else None,
    }
    return ScenarioReport(schema="scenario1-report/v1", rows=tuple(rows),
                          summary=summary)


def run_scenario2(config: ExperimentConfig,
                  wset: WorkloadSet | None = None,
                  bundle: ModelBundle | None = None) -> ScenarioReport:
    """Scale-down planning for tenants parked on an oversized spec.

    Each validation workload sits at the scenario origin; the planner
    hunts the cheapest spec keeping ground-truth performance within
    epsilon of the origin's. Aggregate savings and the overshoot
    against the oracle plan are reported.
    """
    if wset is None:
        wset = build_workload_set(config)
    if bundle is None:
        bundle = train_bundle(config, wset)
    origin = ResourceSpec(*config.scenario2_origin)
    wset.region.require(origin)
    rows = []
    for wid in bundle.validation_workload_ids:
        w = wset.workload_by_id(wid)
        predicted = bundle.predict(config.base_spec,
                                   _observe(config, wset, w, config.base_spec))
        truth = w.ground_truth_surface
        request = PlanningRequest(policy="scale-down", current_spec=origin,
                                  performance_tolerance=config.epsilon,
                                  cost_weights=config.cost_weights)
        rec = plan_capacity(request, predicted)
        oracle = plan_capacity(request, truth)
        true_current = truth.speedup_at(origin)
        retention = truth.speedup_at(rec) / true_current
        rows.append({
            "workload_id": wid,
            "origin": origin.key,
            "recommended": rec.key,
            "oracle": oracle.key,
            "retention": retention,
            "preserved": retention >= (1.0 - config.epsilon) * (1.0 - 1e-9),
            "origin_cores": origin.cores,
            "origin_memory_gb": origin.memory_gb,
            "recommended_cores": rec.cores,
            "recommended_memory_gb": rec.memory_gb,
            "oracle_cores": oracle.cores,
            "oracle_memory_gb": oracle.memory_gb,
            "recommended_cost": spec_cost(rec, config.cost_weights),
            "origin_cost": spec_cost(origin, config.cost_weights),
            "oracle_cost": spec_cost(oracle, config.cost_weights),
        })
    total = {
        "origin_cores": sum(r["origin_cores"] for r in rows),
        "origin_memory_gb": sum(r["origin_memory_gb"] for r in rows),
        "recommended_cores": sum(r["recommended_cores"] for r in rows),
        "recommended_memory_gb": sum(r["recommended_memory_gb"] for r in rows),
        "oracle_cores": sum(r["oracle_cores"] for r in rows),
        "oracle_memory_gb": sum(r["oracle_memory_gb"] for r in rows),
    }
    summary = {
        "workloads": len(rows),
        "preserved": sum(r["preserved"] for r in rows),
        "preserved_rate": sum(r["preserved"] for r in rows) / len(rows),
        "totals": total,
        "core_reduction_pct": 100.0 * (1.0 - total["recommended_cores"]
                                       / total["origin_cores"]),
        "memory_reduction_pct": 100.0 * (1.0 - total["recommended_memory_gb"]
                                         / total["origin_memory_gb"]),
        "core_excess_over_oracle_pct": 100.0 * (total["recommended_cores"]
                                                / total["oracle_cores"] - 1.0),
        "memory_excess_over_oracle_pct": 100.0 * (total["recommended_memory_gb"]
                                                  / total["oracle_memory_gb"] - 1.0),
    }
    return ScenarioReport(schema="scenario2-report/v1", rows=tuple(rows),
                          summary=summary)


def _draw_tenants(config: ExperimentConfig, wset: WorkloadSet,
                  trial: int) -> list[Workload]:
    rng = np.random.default_rng(
        np.random.SeedSequence([config.rng_seed, 19, trial]))
    references = stress_reference_tracks(wset.constants)
    # Tenants are instances of the workload set, so the archetype mix is
    # near-uniform: every archetype appears floor(T/A) or ceil(T/A)
    # times. Arrival order, origin specs, and jitter stay random.
    n_arch = len(wset.archetypes)
    picks = list(range(n_arch)) * (config.tenants_per_trial // n_arch)
    remainder = config.tenants_per_trial - len(picks)
    if remainder:
        extra = rng.permutation(n_arch)[:remainder]
        picks.extend(int(i) for i in extra)
    order = rng.permutation(len(picks))
    tenants = []
    for j in range(config.tenants_per_trial):
        archetype = wset.archetypes[picks[int(order[j])]]
        noise_seed = int(rng.integers(0, 2 ** 62))
        origin = ResourceSpec(
            cores=int(rng.integers(config.origin_cores[0],
                                   config.origin_cores[1] + 1)),
            memory_gb=int(rng.integers(config.origin_memory_gb[0],
                                       config.origin_memory_gb[1] + 1)))
        tenants.append(make_workload(
            archetype, j, noise_seed, origin, wset.region, wset.constants,
            wset.base_spec, config.surface_noise, config.footprint_noise,
            references))
    return tenants


def _fresh_nodes(config: ExperimentConfig) -> list[NodeState]:
    cap = ResourceSpec(config.node_cores, config.node_memory_gb)
    return [NodeState(node_id=i, capacity=cap) for i in range(config.cluster_nodes)]


def run_colocation(config: ExperimentConfig,
                   wset: WorkloadSet | None = None,
                   bundle: ModelBundle | None = None) -> ScenarioReport:
    """Head-to-head cluster trials of the two placement pipelines.

    Per trial, one tenant batch is drawn and handed to both arms. The
    contention-aware arm first right-sizes every tenant within epsilon,
    quantifies its interference profile with probe sweeps at the
    recommended spec, then places by risk score. The baseline keeps
    the requested specs and places by least requested capacity. Both
    deployments run through the same degradation model with
    ground-truth profiles.
    """
    if wset is None:
        wset = build_workload_set(config)
    if bundle is None:
        bundle = train_bundle(config, wset)
    references = stress_reference_tracks(wset.constants)
    rows = []
    for trial in range(config.trials):
        tenants = _draw_tenants(config, wset, trial)
        row: dict = {"trial": trial, "aborted": False, "abort_reason": None}
        try:
            ursa_requests = []
            ursa_specs: dict[str, ResourceSpec] = {}
            for w in tenants:
                sid = f"t{trial}-w{w.workload_id:02d}"
                predicted = bundle.predict(
                    config.base_spec, _observe(config, wset, w, config.base_spec))
                request = PlanningRequest(policy="scale-down",
                                          current_spec=w.origin_spec,
                                          performance_tolerance=config.epsilon,
                                          cost_weights=config.cost_weights)
                rec = plan_capacity(request, predicted)
                probe = probe_for(w, rec, wset.constants,
                                  noise_sigma=config.probe_noise,
                                  seed=w.noise_seed)
                profile = build_profile(probe, references)
                ursa_requests.append((sid, rec, profile))
                ursa_specs[sid] = rec
            ursa_placements = place(ursa_requests, _fresh_nodes(config),
                                    ScheduleConfig(policy=POLICY_URSA,
                                                   scaler=config.scaler))
            lrp_requests = [(f"t{trial}-w{w.workload_id:02d}", w.origin_spec,
                             w.ground_truth_profile) for w in tenants]
            lrp_placements = place(lrp_requests, _fresh_nodes(config),
                                   ScheduleConfig(policy=POLICY_LRP,
                                                  scaler=config.scaler))
        except CapacityExhaustedError as exc:
            row["aborted"] = True
            row["abort_reason"] = str(exc)
            rows.append(row)
            continue

        by_id = {f"t{trial}-w{w.workload_id:02d}": w for w in tenants}
        ursa_tenants = []
        for p in ursa_placements:
            w = by_id[p.workload_id]
            spec = ursa_specs[p.workload_id]
            ursa_tenants.append((p.workload_id, p.node_id, spec,
                                 true_profile_at(w, spec, wset.constants,
                                                 references)))
        lrp_tenants = [(p.workload_id, p.node_id, by_id[p.workload_id].origin_spec,
                        by_id[p.workload_id].ground_truth_profile)
                       for p in lrp_placements]
        ursa_report = simulate_colocated(ursa_tenants, config.cluster_spec)
        lrp_report = simulate_colocated(lrp_tenants, config.cluster_spec)
        row.update({
            "ursa_p_sys": ursa_report.p_sys,
            "ursa_unfairness": ursa_report.unfairness,
            "lrp_p_sys": lrp_report.p_sys,
            "lrp_unfairness": lrp_report.unfairness,
            "p_sys_ratio": ursa_report.p_sys / lrp_report.p_sys,
            "unfairness_reduction_pct":
                100.0 * (1.0 - ursa_report.unfairness / lrp_report.unfairness)
                if lrp_report.unfairness > 0 else None,
        })
        rows.append(row)

    done = [r for r in rows if not r["aborted"]]
    wins = sum(r["ursa_unfairness"] < r["lrp_unfairness"] for r in done)
    reductions = [r["unfairness_reduction_pct"] for r in done
                  if r["unfairness_reduction_pct"] is not None]
    summary = {
        "trials": len(rows),
        "aborted": len(rows) - len(done),
        "unfairness_wins": wins,
        "mean_unfairness_reduction_pct":
            float(np.mean(reductions)) if reductions else None,
        "min_p_sys_ratio": min((r["p_sys_ratio"] for r in done), default=None),
        "mean_p_sys_ratio":
            float(np.mean([r["p_sys_ratio"] for r in done])) if done else None,
    }
    return ScenarioReport(schema="colocation-report/v1", rows=tuple(rows),
                          summary=summary)


def run_hyperparam_sweep(config: ExperimentConfig,
                         wset: WorkloadSet | None = None,
                         ks: Sequence[int] | None = None,
                         bases: Sequence[ResourceSpec] | None = None) -> ScenarioReport:
    """Validation error across cluster counts and base configs.

    The feature selection and observations are computed once per base,
    then every k refits the clustering and classifier. Rows carry the
    per-workload errors so any aggregate can be recomputed.
    """
    if wset is None:
        wset = build_workload_set(config)
    train_ids, val_ids = split_train_val(config)
    if ks is None:
        ks = [k for k in config.sweep_ks if k <= len(train_ids)]
    if bases is None:
        if config.sweep_bases is not None:
            bases = [ResourceSpec(*b) for b in config.sweep_bases]
        else:
            bases = wset.region.specs()
    rows = []
    for base in bases:
        data = _prepare_base(config, wset, train_ids, val_ids, base)
        for k in ks:
            errors = _fit_point(config, data, int(k))
            rows.append({
                "k": int(k),
                "base": base.key,
                "mean_error": float(np.mean(errors)),
                "max_error": float(np.max(errors)),
                "errors": [float(e) for e in errors],
            })
    best = min(rows, key=lambda r: (r["mean_error"], r["k"], r["base"]))
    summary = {"points": len(rows), "best_k": best["k"], "best_base": best["base"],
               "best_mean_error": best["mean_error"]}
    return ScenarioReport(schema="sweep-report/v1", rows=tuple(rows),
                          summary=summary)


def run_loocv(config: ExperimentConfig,
              wset: WorkloadSet | None = None) -> ScenarioReport:
    """Leave-one-out error of the full pipeline over every workload."""
    if wset is None:
        wset = build_workload_set(config)
    all_ids = [w.workload_id for w in wset.workloads]
    rows = []
    for held in all_ids:
        train_ids = [i for i in all_ids if i != held]
        data = _prepare_base(config, wset, train_ids, [held], config.base_spec)
        k = min(config.k, len(train_ids))
        errors = _fit_point(config, data, k)
        rows.append({"workload_id": held, "error": errors[0],
                     "archetype_id": wset.workload_by_id(held).archetype_id})
    errs = [r["error"] for r in rows]
    summary = {"rounds": len(rows), "mean_error": float(np.mean(errs)),
               "max_error": float(np.max(errs))}
    return ScenarioReport(schema="loocv-report/v1", rows=tuple(rows),
                          summary=summary)
