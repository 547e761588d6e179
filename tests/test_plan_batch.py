"""Batch prediction and batch planning against the per-tenant code they replaced.

The oracles below are the planner as it was when a colocation trial
predicted and planned one tenant at a time: the classifier's forward
pass on one (1 x features) row, and the plan scan over one surface. The
batch forms must give the same classes, the same logit bytes, the same
specs and the same InfeasibleError, for every request of a batch.
"""

import itertools
import math

import numpy as np
import pytest

from capsched import experiment
from capsched.core import ConfigRegion, InfeasibleError, ResourceSpec, ScalingSurface
from capsched.planner import (
    PlanningRequest,
    plan_capacity,
    plan_capacity_batch,
    predict_surface_batch,
)
from capsched.workload_synth import observe_indexes_batch


# --- the oracles: one tenant at a time ---

def _oracle_features(clf, indexes):
    raw = indexes.as_array()
    selected, mean, std = clf._scaling
    return (raw[selected] - mean) / std


def _oracle_logits(clf, indexes):
    _, logits = clf.model._forward(_oracle_features(clf, indexes)[None, :])
    return logits[0]


def _oracle_plan(request, surface):
    current = surface.speedup_at(request.current_spec)
    if request.policy == "scale-up":
        threshold = request.target_speedup * current
    else:
        threshold = (1.0 - request.performance_tolerance) * current
    feasible = np.flatnonzero(surface.values >= threshold)
    if not len(feasible):
        best_ratio = surface.values.max().item() / current
        raise InfeasibleError(
            f"no spec reaches {threshold / current:.3f}x of current; "
            f"best achievable is {best_ratio:.3f}x", best_speedup=best_ratio)
    cores, memory = surface.region.core_levels, surface.region.memory_levels_gb
    w_cores, w_memory = request.cost_weights
    cost = np.add.outer(np.multiply(w_cores, cores), np.multiply(w_memory, memory))
    i, j = divmod(int(feasible[np.argmin(cost.ravel()[feasible])]), len(memory))
    return ResourceSpec(cores[i], memory[j])


# --- batch prediction ---

LARGE = experiment.ExperimentConfig(rng_seed=1, archetype_count=200, workload_count=550,
                                    train_count=440, val_count=110)


@pytest.fixture(scope="module")
def large_world():
    wset = experiment.build_workload_set(LARGE)
    return LARGE, wset, experiment.train_bundle(LARGE, wset)


def _assert_batch_forward_is_the_one_row_forward(config, wset, bundle):
    clf = bundle.classifier
    workloads = list(wset.workloads)
    seen = observe_indexes_batch(workloads, [bundle.base_spec] * len(workloads),
                                 config.noise_sigma, wset.constants)
    want = np.stack([_oracle_logits(clf, v) for v in seen])
    _, logits = clf.model._forward(clf._features(seen)[:, None, :])
    assert logits.shape == (len(seen), 1, clf.n_classes)
    assert logits[:, 0].tobytes() == want.tobytes()
    classes = np.argmax(want, axis=1).tolist()
    assert clf.predict_batch(seen).tolist() == classes
    assert [clf.predict(v) for v in seen] == classes
    centroids = bundle.clustering.centroids
    assert bundle.predict_batch(seen) == [centroids[c] for c in classes]
    assert all(s is centroids[c] for s, c in zip(bundle.predict_batch(seen), classes))


def test_batch_forward_is_the_one_row_forward_on_the_default_world(
        default_config, default_wset, default_bundle):
    _assert_batch_forward_is_the_one_row_forward(default_config, default_wset,
                                                 default_bundle)


def test_batch_forward_is_the_one_row_forward_on_the_large_world(large_world):
    _assert_batch_forward_is_the_one_row_forward(*large_world)


def test_empty_batches_predict_and_plan_nothing(default_bundle):
    assert default_bundle.classifier.predict_batch([]).tolist() == []
    assert predict_surface_batch(default_bundle.classifier, default_bundle.clustering,
                                 []) == []
    assert plan_capacity_batch([], []) == []


# --- batch planning ---

def _origins(region):
    """Every integer spec of the region: grid points and off-grid ones."""
    return [ResourceSpec(c, m)
            for c in range(region.core_levels[0], region.core_levels[-1] + 1)
            for m in range(region.memory_levels_gb[0], region.memory_levels_gb[-1] + 1)]


def _outcome(request, surface):
    try:
        return _oracle_plan(request, surface)
    except InfeasibleError as exc:
        return exc


def _assert_batch_matches_scan(requests, surfaces):
    want = [_outcome(r, s) for r, s in zip(requests, surfaces)]
    failed = [w for w in want if isinstance(w, InfeasibleError)]
    if failed:
        with pytest.raises(InfeasibleError) as info:
            plan_capacity_batch(requests, surfaces)
        assert str(info.value) == str(failed[0])
        assert info.value.best_speedup == failed[0].best_speedup
    else:
        assert plan_capacity_batch(requests, surfaces) == want
    planned = [(r, s, w) for r, s, w in zip(requests, surfaces, want)
               if not isinstance(w, InfeasibleError)]
    if planned:
        kept_requests, kept_surfaces, kept_specs = zip(*planned)
        assert plan_capacity_batch(kept_requests, kept_surfaces) == list(kept_specs)
    for request, surface, w in zip(requests, surfaces, want):
        if isinstance(w, InfeasibleError):
            with pytest.raises(InfeasibleError) as info:
                plan_capacity(request, surface)
            assert str(info.value) == str(w)
        else:
            assert plan_capacity(request, surface) == w
    return want


WEIGHTS = [(1.0, 0.25), (0.0, 1.0), (1.0, 0.0), (0.3, 0.7), (2, 1)]


@pytest.mark.parametrize("policy, levels", [
    ("scale-down", (0.0, 0.05, 0.3)),
    ("scale-up", (1.0, 1.5, 3.0, 50.0)),
])
def test_batch_plan_is_the_per_request_scan_on_every_centroid(default_bundle,
                                                              policy, levels):
    centroids = default_bundle.clustering.centroids
    origins = _origins(default_bundle.region)
    infeasible = 0
    for level in levels:
        requests, surfaces = [], []
        for (k, surface), origin in itertools.product(enumerate(centroids), origins):
            weights = WEIGHTS[(k + origin.cores * origin.memory_gb) % len(WEIGHTS)]
            if policy == "scale-up":
                request = PlanningRequest(policy=policy, current_spec=origin,
                                          target_speedup=level, cost_weights=weights)
            else:
                request = PlanningRequest(policy=policy, current_spec=origin,
                                          performance_tolerance=level, cost_weights=weights)
            requests.append(request)
            surfaces.append(surface)
        want = _assert_batch_matches_scan(requests, surfaces)
        infeasible += sum(isinstance(w, InfeasibleError) for w in want)
    # Scale-up at 50x is out of reach everywhere; scale-down never is.
    assert (infeasible > 0) == (policy == "scale-up")


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
def test_a_cost_that_overflows_takes_the_first_feasible_spec(default_bundle):
    # 1e308 cores cost inf from 2 cores up: every spec meeting a 3x target
    # costs inf, and the scan takes the first of them, as the masked
    # argmin must too.
    surfaces = default_bundle.clustering.centroids
    requests = [PlanningRequest(policy="scale-up", current_spec=ResourceSpec(1, 2),
                                target_speedup=t, cost_weights=(1e308, 0.25))
                for t in (1.0, 1.2, 3.0)]
    pairs = [(r, s) for r in requests for s in surfaces
             if not isinstance(_outcome(r, s), InfeasibleError)]
    want = _assert_batch_matches_scan(*zip(*pairs))
    assert any(w.cores > 1 for w in want)


def test_the_first_infeasible_request_in_order_raises(default_bundle):
    surface = default_bundle.clustering.centroids[0]
    ok = PlanningRequest(policy="scale-down", current_spec=ResourceSpec(6, 8))
    far = [PlanningRequest(policy="scale-up", current_spec=ResourceSpec(c, 16),
                           target_speedup=40.0) for c in (1, 12)]
    requests = [ok, far[1], ok, far[0]]
    with pytest.raises(InfeasibleError) as info:
        plan_capacity_batch(requests, [surface] * len(requests))
    with pytest.raises(InfeasibleError) as first:
        _oracle_plan(far[1], surface)
    assert str(info.value) == str(first.value)


def test_batch_plan_checks_its_shape(default_bundle):
    request = PlanningRequest(policy="scale-down", current_spec=ResourceSpec(6, 8))
    surface = default_bundle.clustering.centroids[0]
    with pytest.raises(ValueError, match="2 requests but 1 surfaces"):
        plan_capacity_batch([request, request], [surface])
    narrow = ConfigRegion(core_levels=(1, 2, 4, 6, 8))
    region_surface = ScalingSurface(narrow, surface.base_spec,
                                    surface.values[:len(narrow.core_levels)])
    with pytest.raises(ValueError, match="surfaces must share one region"):
        plan_capacity_batch([request, request], [surface, region_surface])


# --- cost weights must be finite ---

@pytest.mark.parametrize("weights, name", [((math.inf, 1.0), "cores"),
                                           ((1.0, math.inf), "memory")])
def test_planning_request_refuses_an_infinite_cost_weight(weights, name):
    message = f"^cost weight for {name} must be finite, got inf$"
    with pytest.raises(ValueError, match=message):
        PlanningRequest(policy="scale-down", current_spec=ResourceSpec(6, 8),
                        cost_weights=weights)


@pytest.mark.parametrize("name", ["cost_weight_cores", "cost_weight_memory"])
def test_experiment_config_refuses_an_infinite_cost_weight(name):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
        experiment.ExperimentConfig(**{name: math.inf})
