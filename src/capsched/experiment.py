"""End-to-end studies tying the pipeline together.

Everything here is driven by one ExperimentConfig and is fully
reproducible from its seed: workload generation, the train/validation
split, model fitting, planning studies and the co-location trials all
derive their randomness from tagged child seeds. Reports are plain
data with enough raw per-row fields to recompute every aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence, get_type_hints

import numpy as np

from .core import (
    DEFAULT_CORE_LEVELS,
    DEFAULT_MEMORY_LEVELS,
    CapacityExhaustedError,
    ConfigRegion,
    InfeasibleError,
    InterferenceProfile,
    JsonRecord,
    ResourceSpec,
    ScalingSurface,
    SystemIndexVector,
    decode,
    fields_json,
    read_json,
)
from .estimator import ReferenceTracks, build_profile, stress_reference_tracks
from .planner import (
    DEFAULT_COST_WEIGHTS,
    DEFAULT_EPSILON,
    DEFAULT_K,
    MLP_EPOCHS,
    FeatureSelection,
    ModelBundle,
    PlanningRequest,
    cluster_surfaces,
    plan_capacity,
    plan_capacity_batch,
    select_features,
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
from .simulator import ClusterSpec, SlowdownReport, simulate_colocated
from .workload_synth import (
    Workload,
    WorkloadSet,
    make_workload_batch,
    observe_indexes_batch,
    probe_for,
    tps_at,
    true_profile_batch,
)


@dataclass(frozen=True)
class ExperimentConfig(JsonRecord):
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
    mlp_epochs: int = MLP_EPOCHS
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

    def __post_init__(self) -> None:
        if self.train_count + self.val_count != self.workload_count:
            raise ValueError("train_count + val_count must equal workload_count")
        if self.k < 1 or self.k > self.train_count:
            raise ValueError("k must be in [1, train_count]")
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not all(1.0 <= f < math.inf for f in self.scale_factors):
            raise ValueError(f"scale_factors must each be finite and >= 1, "
                             f"got {list(self.scale_factors)}")
        # train_count >= 3 leaves every Lasso cross-validation fold two
        # training samples.
        for name, low in (("train_count", 3), ("val_count", 1),
                          ("trials", 1), ("tenants_per_trial", 1), ("mlp_epochs", 1),
                          ("archetype_count", 2), ("noise_sigma", 0), ("surface_noise", 0),
                          ("footprint_noise", 0), ("probe_noise", 0),
                          ("cost_weight_cores", 0), ("cost_weight_memory", 0)):
            value = getattr(self, name)
            if not value >= low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            if value == math.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("scenario1_origin", "scenario2_origin", "origin_cores",
                     "origin_memory_gb"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} must be a pair")
        # Build the derived objects now, so their own checks run here.
        region, _, _ = self.region, self.base_spec, self.cluster_spec
        ScheduleConfig(scaler=self.scaler)
        for name, levels in (("origin_cores", region.core_levels),
                             ("origin_memory_gb", region.memory_levels_gb)):
            lo, hi = getattr(self, name)
            if not levels[0] <= lo <= hi <= levels[-1]:
                raise ValueError(f"{name} needs {levels[0]} <= lo <= hi <= "
                                 f"{levels[-1]}, got {[lo, hi]}")
        for name in ("scenario1_origin", "scenario2_origin"):
            origin = ResourceSpec(*getattr(self, name))
            if not region.contains(origin):
                raise ValueError(f"{name} {origin.key} lies outside the region")

    @cached_property
    def region(self) -> ConfigRegion:
        return ConfigRegion(core_levels=tuple(self.core_levels),
                            memory_levels_gb=tuple(self.memory_levels_gb))

    @cached_property
    def base_spec(self) -> ResourceSpec:
        return ResourceSpec(self.base_cores, self.base_memory_gb)

    @property
    def cost_weights(self) -> tuple[float, float]:
        return (self.cost_weight_cores, self.cost_weight_memory)

    @cached_property
    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(nodes=self.cluster_nodes, node_cores=self.node_cores,
                           node_memory_gb=self.node_memory_gb,
                           gamma=self.gamma, theta=self.theta)

    @classmethod
    def from_json(cls, obj) -> "ExperimentConfig":
        """Config from a JSON object of overrides; a key left out keeps its default."""
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        hints = get_type_hints(cls)
        unknown = set(obj) - set(hints)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{name: decode(hints[name], value, f"config key {name!r}")
                      for name, value in obj.items()})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Config from a JSON file; any fault in its values names the file."""
        obj = read_json(path)
        try:
            return cls.from_json(obj)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


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


@dataclass(frozen=True)
class _Seen:
    """A workload as the planner sees it at one base config."""

    indexes: SystemIndexVector
    tps: float
    surface: ScalingSurface


def _observe(config: ExperimentConfig, wset: WorkloadSet, ids: Sequence[int],
             base: ResourceSpec) -> dict[int, _Seen]:
    """Each workload of ids observed at base, with its true TPS there and
    its ground-truth surface rebased there.

    A reading is deterministic in (workload, spec), so a study observes
    each workload once, all of them in one batch, and shares the reading
    across its fits.
    """
    workloads = [wset.workload_by_id(i) for i in ids]
    readings = observe_indexes_batch(workloads, [base] * len(workloads), config.noise_sigma,
                                     wset.constants)
    return {i: _Seen(indexes, tps_at(w, base), w.ground_truth_surface.rebase(base))
            for i, w, indexes in zip(ids, workloads, readings)}


@dataclass
class _BaseData:
    """The training side at one base config, shared by every k fitted there."""

    base: ResourceSpec
    train_ids: tuple[int, ...]
    selection: FeatureSelection
    train: list[_Seen]


def _prepare_base(config: ExperimentConfig, train_ids: Sequence[int],
                  base: ResourceSpec, seen: dict[int, _Seen]) -> _BaseData:
    train = [seen[i] for i in train_ids]
    samples = [(s.indexes, s.tps) for s in train]
    selection = select_features_cv(samples, config.rng_seed)
    if not selection.selected:
        # A base where nothing survives shrinkage still needs a model;
        # fall back to the unpenalized fit, which keeps every feature.
        selection = select_features(samples, lam=0.0)
    return _BaseData(base=base, train_ids=tuple(train_ids), selection=selection,
                     train=train)


def _fit(config: ExperimentConfig, wset: WorkloadSet, data: _BaseData, k: int,
         val_ids: Sequence[int]) -> ModelBundle:
    """Cluster the training surfaces into k groups and fit the classifier."""
    clustering = cluster_surfaces([s.surface for s in data.train], k, config.rng_seed)
    classifier = train_classifier(
        zip([s.indexes for s in data.train], clustering.assignments), data.base,
        data.selection, rng_seed=config.rng_seed, n_classes=clustering.k,
        epochs=config.mlp_epochs)
    return ModelBundle(region=wset.region, clustering=clustering, classifier=classifier,
                       training_workload_ids=data.train_ids,
                       validation_workload_ids=tuple(val_ids), seed=config.rng_seed)


def train_bundle(config: ExperimentConfig, wset: WorkloadSet) -> ModelBundle:
    """Fit the full offline model on wset at the configured base config.

    Feature selection, clustering and the one classifier all happen at
    config.base_spec, which becomes bundle.base_spec: the bundle
    predicts only for workloads observed there.
    """
    train_ids, val_ids = split_train_val(config)
    base = config.base_spec
    data = _prepare_base(config, train_ids, base, _observe(config, wset, train_ids, base))
    return _fit(config, wset, data, config.k, val_ids)


@dataclass(frozen=True)
class ValidationReport:
    base: str
    k: int
    rows: tuple[dict, ...]
    mean_error: float
    max_error: float

    def to_json(self) -> dict:
        return {"schema": "validation-report/v1", **fields_json(self)}


def evaluate_validation(config: ExperimentConfig, wset: WorkloadSet,
                        bundle: ModelBundle) -> ValidationReport:
    """Surface prediction error of bundle on its held-out workloads."""
    return _validate(wset, bundle, _observe(config, wset, bundle.validation_workload_ids,
                                            bundle.base_spec))


def _validate(wset: WorkloadSet, bundle: ModelBundle,
              seen: dict[int, _Seen]) -> ValidationReport:
    """evaluate_validation on workloads already observed at the bundle's base."""
    base = bundle.base_spec
    rows = []
    errors = []
    for wid in bundle.validation_workload_ids:
        err = surface_error(bundle.predict(seen[wid].indexes), seen[wid].surface)
        errors.append(err)
        rows.append({"workload_id": wid, "error": err,
                     "archetype_id": wset.workload_by_id(wid).archetype_id})
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
        return fields_json(self)


def run_scenario1(config: ExperimentConfig, wset: WorkloadSet,
                  bundle: ModelBundle) -> ScenarioReport:
    """Scale-up planning for tenants outgrowing a small origin spec.

    Each of the bundle's validation workloads, taken from wset, sits at
    the scenario origin and asks for 2x and 3x its current throughput.
    Recommendations come from the surface the bundle predicts; oracle
    answers and satisfaction checks use the ground truth. Requests the
    truth itself cannot satisfy are recorded as infeasible rather than
    failed.
    """
    origin = ResourceSpec(*config.scenario1_origin)
    wset.region.require(origin)
    seen = _observe(config, wset, bundle.validation_workload_ids, bundle.base_spec)
    rows = []
    for wid in bundle.validation_workload_ids:
        predicted = bundle.predict(seen[wid].indexes)
        truth = wset.workload_by_id(wid).ground_truth_surface
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


def run_scenario2(config: ExperimentConfig, wset: WorkloadSet,
                  bundle: ModelBundle) -> ScenarioReport:
    """Scale-down planning for tenants parked on an oversized spec.

    Each of the bundle's validation workloads, taken from wset, sits at
    the scenario origin; the planner hunts, on the surface the bundle
    predicts, the cheapest spec keeping ground-truth performance within
    epsilon of the origin's. Aggregate savings and the overshoot
    against the oracle plan are reported.
    """
    origin = ResourceSpec(*config.scenario2_origin)
    wset.region.require(origin)
    seen = _observe(config, wset, bundle.validation_workload_ids, bundle.base_spec)
    rows = []
    for wid in bundle.validation_workload_ids:
        predicted = bundle.predict(seen[wid].indexes)
        truth = wset.workload_by_id(wid).ground_truth_surface
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


def _draw_tenants(config: ExperimentConfig, wset: WorkloadSet, trial: int,
                  references: ReferenceTracks) -> list[Workload]:
    """One trial's tenants: instances of wset's archetypes, jittered as
    wset's workloads are, at origin specs drawn from the config's ranges."""
    rng = np.random.default_rng(
        np.random.SeedSequence([config.rng_seed, 19, trial]))
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
    archetypes, noise_seeds, origins = [], [], []
    for j in range(config.tenants_per_trial):
        archetypes.append(wset.archetypes[picks[int(order[j])]])
        noise_seeds.append(int(rng.integers(0, 2 ** 62)))
        origins.append(ResourceSpec(
            cores=int(rng.integers(config.origin_cores[0],
                                   config.origin_cores[1] + 1)),
            memory_gb=int(rng.integers(config.origin_memory_gb[0],
                                       config.origin_memory_gb[1] + 1))))
    return make_workload_batch(
        archetypes, range(config.tenants_per_trial), noise_seeds, origins, wset.region,
        wset.constants, wset.base_spec, wset.surface_noise, wset.footprint_noise,
        reference_tracks=references)


def run_colocation(config: ExperimentConfig, wset: WorkloadSet,
                   bundle: ModelBundle) -> ScenarioReport:
    """Head-to-head cluster trials of the two placement pipelines.

    Per trial, one tenant batch is drawn from wset's archetypes, with
    wset's jitter, and handed to both arms. The contention-aware arm
    first right-sizes every tenant within epsilon on the surface the
    bundle predicts, quantifies its interference profile with probe
    sweeps at the recommended spec, then places by risk score. The
    baseline keeps the requested specs and places by least requested
    capacity. Each arm is placed on fresh nodes and simulated by the
    same routine: the degradation model with ground-truth profiles, on
    the cluster of the config with wset's node constants.
    """
    references = stress_reference_tracks(wset.constants)
    cluster = replace(config.cluster_spec, constants=wset.constants)
    capacity = ResourceSpec(config.node_cores, config.node_memory_gb)

    def _deploy(policy: str, ids: Sequence[str],
                arm: Sequence[tuple[ResourceSpec, InterferenceProfile,
                                    InterferenceProfile]]) -> SlowdownReport:
        # arm holds (spec, the profile placement sees, the true profile)
        # for each tenant of ids; place returns placements in request
        # order, so each pairs with its tenant by position.
        nodes = [NodeState(node_id=i, capacity=capacity)
                 for i in range(config.cluster_nodes)]
        placements = place([(i, spec, seen) for i, (spec, seen, _) in zip(ids, arm)],
                           nodes, ScheduleConfig(policy=policy, scaler=config.scaler))
        return simulate_colocated([(p.workload_id, p.node_id, spec, truth)
                                   for p, (spec, _, truth) in zip(placements, arm)],
                                  cluster)

    rows = []
    for trial in range(config.trials):
        tenants = _draw_tenants(config, wset, trial, references)
        ids = [f"t{trial}-w{w.workload_id:02d}" for w in tenants]
        row: dict = {"trial": trial, "aborted": False, "abort_reason": None}
        try:
            seen = observe_indexes_batch(tenants, [bundle.base_spec] * len(tenants),
                                         config.noise_sigma, wset.constants)
            specs = plan_capacity_batch(
                [PlanningRequest(policy="scale-down", current_spec=w.origin_spec,
                                 performance_tolerance=config.epsilon,
                                 cost_weights=config.cost_weights) for w in tenants],
                bundle.predict_batch(seen))
            probe = probe_for(tenants, specs, wset.constants, noise_sigma=config.probe_noise,
                              seeds=[w.noise_seed for w in tenants])
            ursa_arm = zip(specs, build_profile(probe, references),
                           true_profile_batch(tenants, specs, wset.constants, references))
            ursa = _deploy(POLICY_URSA, ids, list(ursa_arm))
            lrp = _deploy(POLICY_LRP, ids, [(w.origin_spec, w.ground_truth_profile,
                                             w.ground_truth_profile) for w in tenants])
        except CapacityExhaustedError as exc:
            row["aborted"] = True
            row["abort_reason"] = str(exc)
            rows.append(row)
            continue
        row.update({
            "ursa_p_sys": ursa.p_sys,
            "ursa_unfairness": ursa.unfairness,
            "lrp_p_sys": lrp.p_sys,
            "lrp_unfairness": lrp.unfairness,
            "p_sys_ratio": ursa.p_sys / lrp.p_sys,
            "unfairness_reduction_pct":
                100.0 * (1.0 - ursa.unfairness / lrp.unfairness)
                if lrp.unfairness > 0 else None,
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


def run_hyperparam_sweep(config: ExperimentConfig, wset: WorkloadSet,
                         ks: Sequence[int] | None = None,
                         bases: Sequence[ResourceSpec] | None = None) -> ScenarioReport:
    """Validation error on wset across cluster counts and base configs.

    ks defaults to 2..min(30, training workloads), bases to every spec
    of the region. The grid is checked before any fit: each list must be
    non-empty and without repeats, every k in [1, training workloads]
    and every base a grid point of the region. The observations and
    feature selection are computed once per base, then every k refits
    the clustering and classifier. Rows carry the per-workload errors so
    any aggregate can be recomputed; the summary counts the classifier
    fits that stopped at the mlp_epochs cap without converging.
    """
    train_ids, val_ids = split_train_val(config)
    ks = [int(k) for k in (range(2, min(30, len(train_ids)) + 1) if ks is None else ks)]
    bases = list(wset.region.specs() if bases is None else bases)
    for name, values in (("ks", ks), ("bases", [b.key for b in bases])):
        if not values:
            raise ValueError(f"sweep {name} must be non-empty")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"sweep {name} repeat {repeated}")
    for k in ks:
        if not 1 <= k <= len(train_ids):
            raise ValueError(f"sweep k {k} must be in [1, {len(train_ids)}], "
                             "the training workload count")
    for base in bases:
        if not wset.region.is_grid_point(base):
            raise ValueError(f"sweep base {base.key} is not a grid point of the region")
    rows = []
    capped = 0
    for base in bases:
        seen = _observe(config, wset, train_ids + val_ids, base)
        data = _prepare_base(config, train_ids, base, seen)
        for k in ks:
            bundle = _fit(config, wset, data, k, val_ids)
            capped += not bundle.classifier.converged
            report = _validate(wset, bundle, seen)
            rows.append({
                "k": k,
                "base": base.key,
                "mean_error": report.mean_error,
                "max_error": report.max_error,
                "errors": [r["error"] for r in report.rows],
            })
    best = min(rows, key=lambda r: (r["mean_error"], r["k"], r["base"]))
    summary = {"points": len(rows), "best_k": best["k"], "best_base": best["base"],
               "best_mean_error": best["mean_error"], "capped_fits": capped}
    return ScenarioReport(schema="sweep-report/v1", rows=tuple(rows),
                          summary=summary)


def run_loocv(config: ExperimentConfig, wset: WorkloadSet) -> ScenarioReport:
    """Leave-one-out error of the full pipeline over every workload of wset.

    Every workload is observed once, and each round fits on the
    readings of all but its held-out one. The summary counts the
    classifier fits that stopped at the mlp_epochs cap without
    converging.
    """
    all_ids = [w.workload_id for w in wset.workloads]
    base = config.base_spec
    seen = _observe(config, wset, all_ids, base)
    rows = []
    capped = 0
    for held in all_ids:
        train_ids = [i for i in all_ids if i != held]
        data = _prepare_base(config, train_ids, base, seen)
        bundle = _fit(config, wset, data, min(config.k, len(train_ids)), [held])
        capped += not bundle.classifier.converged
        rows.extend(_validate(wset, bundle, seen).rows)
    errs = [r["error"] for r in rows]
    summary = {"rounds": len(rows), "mean_error": float(np.mean(errs)),
               "max_error": float(np.max(errs)), "capped_fits": capped}
    return ScenarioReport(schema="loocv-report/v1", rows=tuple(rows),
                          summary=summary)
