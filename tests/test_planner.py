"""Planner pipeline: feature selection, clustering, classification, sizing."""

import numpy as np
import pytest

from capsched.core import (
    ConfigRegion,
    InfeasibleError,
    ResourceSpec,
    ScalingSurface,
    SystemIndexVector,
    canonical_json,
)
from capsched.planner import (
    FeatureSelection,
    PlanningRequest,
    cluster_surfaces,
    lambda_grid,
    ModelBundle,
    plan_capacity,
    predict_surface,
    select_features,
    select_features_cv,
    spec_cost,
    surface_error,
    train_classifier,
)

REGION = ConfigRegion()
BASE = ResourceSpec(6, 8)


def _hadamard(n):
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def _orthonormal_samples(beta_true):
    # 16x16 Hadamard, drop the constant column: 15 orthogonal +-1 columns
    # with X'X = n*I. Shifting each column by a constant keeps the
    # standardized design equal to the Hadamard block (vectors must be
    # non-negative, and cache_references must dominate cache_misses), so
    # the lasso solution reduces to per-coordinate soft thresholding.
    h = _hadamard(16)[:, 1:]
    offsets = np.full(15, 2.0)
    offsets[10] = 10.0  # cache_references
    x = h + offsets
    # targets must be positive; the constant is removed by centering
    y = h @ beta_true + np.abs(beta_true).sum() + 1.0
    return [(SystemIndexVector.from_array(row), float(t)) for row, t in zip(x, y)]


def test_lasso_matches_soft_threshold_oracle():
    beta_true = np.zeros(15)
    beta_true[[0, 3, 7, 12]] = [2.0, -1.5, 0.8, 0.3]
    samples = _orthonormal_samples(beta_true)
    for lam in (0.1, 0.5, 1.0):
        sel = select_features(samples, lam)
        expected = np.sign(beta_true) * np.maximum(np.abs(beta_true) - lam, 0.0)
        assert np.allclose(sel.weights, expected, atol=1e-9)
        assert sel.selected == tuple(np.nonzero(np.abs(expected) > 1e-9)[0])


def test_lasso_zero_lambda_recovers_least_squares():
    beta_true = np.zeros(15)
    beta_true[[1, 4]] = [1.2, -0.7]
    sel = select_features(_orthonormal_samples(beta_true), 0.0)
    assert np.allclose(sel.weights, beta_true, atol=1e-9)
    assert sel.names == ("dtlb_store_misses", "io_read_bytes")


def test_lasso_large_lambda_empties_support():
    beta_true = np.zeros(15)
    beta_true[2] = 3.0
    sel = select_features(_orthonormal_samples(beta_true), 1e6)
    assert sel.selected == ()
    with pytest.raises(ValueError):
        select_features(_orthonormal_samples(beta_true), -0.5)


def test_cv_selection_is_deterministic_and_on_grid():
    rng = np.random.default_rng(5)
    beta_true = np.zeros(15)
    beta_true[[0, 5, 9]] = [4.0, -3.0, 2.0]
    samples = []
    for _ in range(40):
        row = np.abs(rng.normal(size=15))
        row[10] += row[2] + 1.0  # cache_references must dominate cache_misses
        vec = SystemIndexVector.from_array(row)
        samples.append((vec, float(vec.as_array() @ beta_true) + 100.0))
    a = select_features_cv(samples, rng_seed=11)
    b = select_features_cv(samples, rng_seed=11)
    assert a == b
    assert any(abs(a.lam - g) < 1e-12 for g in lambda_grid())
    assert set((0, 5, 9)) <= set(a.selected)


def _surfaces(wset, n=None):
    workloads = wset.workloads[:n] if n else wset.workloads
    return [w.ground_truth_surface for w in workloads]


def test_kmeans_cost_history_non_increasing(small_wset):
    clustering = cluster_surfaces(_surfaces(small_wset), k=4, rng_seed=3)
    hist = clustering.cost_history
    assert len(hist) >= 1
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_kmeans_reaches_assignment_fixpoint(small_wset):
    surfaces = _surfaces(small_wset)
    clustering = cluster_surfaces(surfaces, k=4, rng_seed=3)
    x = np.stack([s.vector() for s in surfaces])
    centers = np.stack([c.vector() for c in clustering.centroids])
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), np.array(clustering.assignments))


def test_kmeans_deterministic_and_validates_k(small_wset):
    surfaces = _surfaces(small_wset)
    a = cluster_surfaces(surfaces, k=4, rng_seed=9)
    b = cluster_surfaces(surfaces, k=4, rng_seed=9)
    assert a == b
    with pytest.raises(ValueError):
        cluster_surfaces(surfaces, k=0, rng_seed=1)
    with pytest.raises(ValueError):
        cluster_surfaces(surfaces, k=len(surfaces) + 1, rng_seed=1)


def test_kmeans_k1_centroid_is_mean(small_wset):
    surfaces = _surfaces(small_wset, n=6)
    clustering = cluster_surfaces(surfaces, k=1, rng_seed=0)
    mean = np.stack([s.vector() for s in surfaces]).mean(axis=0)
    assert np.allclose(clustering.centroids[0].vector(), mean)
    assert clustering.assignments == (0,) * 6


def _blob_training(rng_seed=0, per_class=12):
    # three well-separated clusters in index space
    rng = np.random.default_rng(rng_seed)
    centers = np.full((3, 15), 100.0)
    centers[:, 2] = 50.0    # cache_misses stays under cache_references
    centers[:, 10] = 500.0
    centers[0, 0] += 400.0
    centers[1, 5] += 400.0
    centers[2, 9] += 400.0
    training = []
    for cls, center in enumerate(centers):
        for _ in range(per_class):
            row = center + rng.normal(scale=5.0, size=15)
            training.append((SystemIndexVector.from_array(np.abs(row)), cls))
    return training


_FULL_SELECTION = FeatureSelection(lam=0.0, weights=(1.0,) * 15,
                                   selected=tuple(range(15)))


def test_mlp_fits_separable_clusters():
    training = _blob_training()
    clf = train_classifier(training, BASE, _FULL_SELECTION,
                           rng_seed=4, epochs=300)
    assert clf.training_accuracy == 1.0
    for vec, cls in training:
        assert clf.predict(vec) == cls


def test_classifier_roundtrip_preserves_predictions():
    training = _blob_training()
    clf = train_classifier(training, BASE, _FULL_SELECTION,
                           rng_seed=4, epochs=300)
    clone = type(clf).from_json(clf.to_json())
    for vec, _ in training:
        assert clone.predict(vec) == clf.predict(vec)
    assert canonical_json(clone.to_json()) == canonical_json(clf.to_json())


def test_classifier_from_json_rejects_unknown_kind():
    clf = train_classifier(_blob_training(), BASE, _FULL_SELECTION)
    obj = clf.to_json()
    assert obj["kind"] == "mlp"
    obj["kind"] = "nearest_centroid"
    with pytest.raises(ValueError, match="unknown classifier kind 'nearest_centroid'"):
        type(clf).from_json(obj)


def test_train_classifier_validates_inputs():
    training = _blob_training()
    with pytest.raises(ValueError):
        train_classifier([], BASE, _FULL_SELECTION)
    empty = FeatureSelection(lam=1.0, weights=(0.0,) * 15, selected=())
    with pytest.raises(ValueError):
        train_classifier(training, BASE, empty)


def test_predict_surface_rejects_class_count_mismatch(small_wset):
    clustering = cluster_surfaces(_surfaces(small_wset), k=4, rng_seed=3)
    clf = train_classifier(_blob_training(), BASE, _FULL_SELECTION)
    assert clf.n_classes == 3
    with pytest.raises(ValueError):
        predict_surface(clf, clustering, _blob_training()[0][0])


def _flat(value):
    return ScalingSurface(region=REGION, base_spec=BASE,
                          speedups={s: value for s in REGION.specs()})


def test_surface_error_mean_relative_deviation():
    actual = _flat(1.0)
    assert surface_error(actual, actual) == 0.0
    # +25% on exactly half the grid (base excluded) averages to 12.5%
    specs = REGION.specs()
    base_idx = specs.index(BASE)
    bumped = [i for i in range(len(specs)) if i != base_idx][: len(specs) // 2]
    values = np.ones(len(specs))
    values[bumped] = 1.25
    mixed = ScalingSurface.from_vector(REGION, BASE, values)
    assert surface_error(mixed, actual) == pytest.approx(0.125)


def test_surface_error_rejects_mismatched_grids():
    other = ScalingSurface(region=REGION, base_spec=ResourceSpec(2, 4),
                           speedups={s: 1.0 for s in REGION.specs()})
    with pytest.raises(ValueError):
        surface_error(other, _flat(1.0))


def test_spec_cost_weighting():
    assert spec_cost(ResourceSpec(6, 8), (1.0, 0.25)) == pytest.approx(8.0)
    assert spec_cost(ResourceSpec(2, 16), (0.0, 1.0)) == pytest.approx(16.0)


def _monotone_surface(rng):
    # random positive increments along both axes keep the grid monotone
    cores = REGION.core_levels
    mems = REGION.memory_levels_gb
    grid = np.ones((len(cores), len(mems)))
    for i in range(len(cores)):
        for j in range(len(mems)):
            prev_c = grid[i - 1, j] if i else 1.0
            prev_m = grid[i, j - 1] if j else 1.0
            grid[i, j] = max(prev_c, prev_m) + rng.uniform(0.0, 0.4)
    speedups = {ResourceSpec(c, m): float(grid[i, j])
                for i, c in enumerate(cores) for j, m in enumerate(mems)}
    base_value = speedups[BASE]
    speedups = {s: v / base_value for s, v in speedups.items()}
    return ScalingSurface(region=REGION, base_spec=BASE, speedups=speedups)


def _brute_force_plan(request, surface):
    current = surface.speedup_at(request.current_spec)
    if request.policy == "scale-up":
        threshold = request.target_speedup * current
    else:
        threshold = (1.0 - request.performance_tolerance) * current
    feasible = [s for s in REGION.specs() if surface.speedups[s] >= threshold]
    if not feasible:
        return None
    return min(feasible, key=lambda s: (spec_cost(s, request.cost_weights),
                                        s.cores, s.memory_gb))


def test_plan_capacity_matches_exhaustive_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        surface = _monotone_surface(rng)
        current = ResourceSpec(int(rng.choice(REGION.core_levels)),
                               int(rng.choice(REGION.memory_levels_gb)))
        if rng.random() < 0.5:
            request = PlanningRequest(policy="scale-up", current_spec=current,
                                      target_speedup=float(rng.uniform(1.0, 3.0)))
        else:
            request = PlanningRequest(policy="scale-down", current_spec=current,
                                      performance_tolerance=float(rng.uniform(0.0, 0.2)))
        expected = _brute_force_plan(request, surface)
        if expected is None:
            with pytest.raises(InfeasibleError):
                plan_capacity(request, surface)
        else:
            assert plan_capacity(request, surface) == expected


def test_plan_capacity_tie_breaks_toward_fewer_cores():
    # flat surface: everything qualifies, cores priced at zero makes many
    # specs share the cheapest cost, so the core count must decide
    surface = _flat(1.0)
    request = PlanningRequest(policy="scale-down", current_spec=ResourceSpec(12, 16),
                              performance_tolerance=0.0,
                              cost_weights=(0.0, 1.0))
    assert plan_capacity(request, surface) == ResourceSpec(1, 2)


def test_plan_capacity_infeasible_reports_best_speedup():
    surface = _flat(1.0)
    request = PlanningRequest(policy="scale-up", current_spec=BASE,
                              target_speedup=5.0)
    with pytest.raises(InfeasibleError) as exc:
        plan_capacity(request, surface)
    assert exc.value.best_speedup == pytest.approx(1.0)


def test_planning_request_validation():
    with pytest.raises(ValueError):
        PlanningRequest(policy="sideways", current_spec=BASE)
    with pytest.raises(ValueError):
        PlanningRequest(policy="scale-up", current_spec=BASE, target_speedup=0.5)
    with pytest.raises(ValueError):
        PlanningRequest(policy="scale-down", current_spec=BASE,
                        performance_tolerance=1.0)


def test_model_bundle_roundtrip(small_bundle, tmp_path):
    path = tmp_path / "bundle.json"
    small_bundle.save(path)
    reloaded = ModelBundle.load(path)
    assert canonical_json(reloaded.to_json()) == canonical_json(small_bundle.to_json())
    reloaded.save(tmp_path / "bundle2.json")
    assert (tmp_path / "bundle.json").read_bytes() == (tmp_path / "bundle2.json").read_bytes()


def test_model_bundle_rejects_foreign_schema(tmp_path):
    with pytest.raises(ValueError):
        ModelBundle.from_json({"schema": "something-else"})


def test_model_bundle_file_keys_its_one_classifier_by_base(small_bundle):
    obj = small_bundle.to_json()
    assert list(obj["classifiers"]) == [small_bundle.base_spec.key]
    assert small_bundle.base_spec == small_bundle.classifier.base_spec


@pytest.mark.parametrize("keys", [[], ["6c8g", "1c2g"], ["1c2g"]])
def test_model_bundle_rejects_other_than_one_classifier_keyed_by_base(
        small_bundle, keys):
    obj = small_bundle.to_json()
    [classifier] = obj["classifiers"].values()
    obj["classifiers"] = {key: classifier for key in keys}
    with pytest.raises(ValueError, match="one classifier, keyed by its base"):
        ModelBundle.from_json(obj)
