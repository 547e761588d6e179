"""Planner pipeline: feature selection, clustering, classification, sizing."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import index_vector

from capsched import experiment, planner
from capsched.core import (
    ConfigRegion,
    InfeasibleError,
    ResourceSpec,
    ScalingSurface,
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
from capsched.workload_synth import observe_indexes_batch

REGION = ConfigRegion()
BASE = ResourceSpec(6, 8)
SHAPE = (len(REGION.core_levels), len(REGION.memory_levels_gb))


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
    return [(index_vector(row), float(t)) for row, t in zip(x, y)]


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


def _random_problem(seed, n, p=15, collinear=False, constant=False, duplicate=False):
    """Raw design and targets: scaled, shifted normal columns, sparse truth."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * rng.uniform(0.5, 20.0, p) + rng.uniform(0.0, 50.0, p)
    if collinear:
        x[:, 3] = x[:, 1] + 2.0 * x[:, 2]
        x[:, 9] = -0.5 * x[:, 4]
    if duplicate:
        x[:, 11] = x[:, 6]
    if constant:
        x[:, 7] = 0.1  # its mean and std round away from 0.1 and 0
    beta = rng.normal(size=p) * (rng.random(p) < 0.6)
    y = x @ beta + rng.normal(scale=2.0, size=n) + 100.0
    return x, y


_PATH_LAMS = np.append(lambda_grid(), 0.0)


@pytest.mark.parametrize("shape", [
    dict(n=40), dict(n=40, collinear=True), dict(n=40, constant=True, duplicate=True),
    dict(n=8), dict(n=10, collinear=True, constant=True), dict(n=14, duplicate=True),
])
def test_lasso_path_meets_kkt_conditions(shape):
    for seed in range(10):
        x, y = _random_problem(seed, **shape)
        gram, corr, *_ = planner._gram(x, y)
        path = planner._lasso_path(gram, corr, _PATH_LAMS)
        for lam, beta in zip(_PATH_LAMS, path):
            residual = corr - gram @ beta
            assert np.all(np.abs(residual) <= lam + 1e-9)
            on = beta != 0
            assert np.allclose(residual[on], lam * np.sign(beta[on]), rtol=0, atol=1e-9)
            # The active columns stay independent, so at most rank-many.
            assert np.count_nonzero(beta) <= min(len(y) - 1, len(beta))
        if shape.get("constant"):
            assert not path[:, 7].any()
        if shape.get("duplicate"):
            # Twin columns tie at every event; the lower index takes it.
            assert not path[:, 11].any()


def _reference_cd(gram, corr, lam):
    """Gram-form coordinate descent that stops only when no coefficient moves."""
    beta = np.zeros(len(corr))
    for _ in range(200_000):
        step = 0.0
        for j in np.flatnonzero(np.diag(gram)):
            rho = corr[j] - gram[j] @ beta + gram[j, j] * beta[j]
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / gram[j, j]
            step = max(step, abs(new - beta[j]))
            beta[j] = new
        if step <= 1e-13:
            return beta
    raise AssertionError(f"reference coordinate descent did not converge at {lam}")


@pytest.mark.parametrize("seed, n, p, lams", [
    (0, 30, 8, lambda_grid()), (1, 30, 8, lambda_grid()), (2, 60, 15, lambda_grid()),
    (3, 12, 15, lambda_grid()[6:]), (4, 12, 15, lambda_grid()[6:]),
])
def test_lasso_path_matches_converged_coordinate_descent(seed, n, p, lams):
    x, y = _random_problem(seed, n, p)
    xs, _, _ = planner._standardize(x)
    yc = y - y.mean()
    gram, corr, *_ = planner._gram(x, y)
    for lam, beta in zip(lams, planner._lasso_path(gram, corr, lams)):
        reference = _reference_cd(gram, corr, lam)

        def objective(b):
            return 0.5 * np.sum((yc - xs @ b) ** 2) / n + lam * np.abs(b).sum()

        assert objective(beta) == pytest.approx(objective(reference), rel=1e-9, abs=0)
        assert np.array_equal(np.abs(beta) > 1e-9, np.abs(reference) > 1e-9)


def test_lasso_path_is_empty_from_lambda_max():
    x, y = _random_problem(5, 40)
    gram, corr, *_ = planner._gram(x, y)
    lam_max = np.abs(corr).max()
    path = planner._lasso_path(gram, corr, [2 * lam_max, lam_max, 0.999 * lam_max])
    assert not path[:2].any()
    assert np.flatnonzero(path[2]).tolist() == [int(np.argmax(np.abs(corr)))]
    assert not select_features(_orthonormal_samples(np.zeros(15)), 0.0).selected


def test_lasso_path_raises_at_its_knot_cap(monkeypatch):
    x, y = _random_problem(6, 40)
    gram, corr, *_ = planner._gram(x, y)
    monkeypatch.setattr(planner, "LASSO_MAX_KNOTS", 2)
    with pytest.raises(RuntimeError, match="did not reach lambda=0 in 2 knots"):
        planner._lasso_path(gram, corr, [0.0])


def test_lasso_without_penalty_interpolates_when_samples_are_few():
    # n < p: the path stops growing at rank n - 1 and lam = 0 fits exactly.
    x, y = _random_problem(7, 6)
    samples = [(index_vector(np.abs(row)), float(t))
               for row, t in zip(x, y)]
    sel = select_features(samples, 0.0)
    assert sel == select_features(samples, 0.0)
    assert len(sel.selected) == 5
    xs, _, _ = planner._standardize(np.abs(x))
    fit = xs @ np.array(sel.weights) + y.mean()
    assert np.allclose(fit, y, rtol=0, atol=1e-8)


def test_cv_refuses_samples_that_no_fold_can_validate():
    samples = _orthonormal_samples(np.eye(15)[0])
    with pytest.raises(ValueError, match="at least 3 samples, got 2"):
        select_features_cv(samples[:2], rng_seed=0)
    assert select_features_cv(samples[:3], rng_seed=0).lam in lambda_grid()


def test_cv_selection_is_deterministic_and_on_grid():
    rng = np.random.default_rng(5)
    beta_true = np.zeros(15)
    beta_true[[0, 5, 9]] = [4.0, -3.0, 2.0]
    samples = []
    for _ in range(40):
        row = np.abs(rng.normal(size=15))
        row[10] += row[2] + 1.0  # cache_references must dominate cache_misses
        vec = index_vector(row)
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
    x = np.stack([s.values.ravel() for s in surfaces])
    centers = np.stack([c.values.ravel() for c in clustering.centroids])
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


def test_kmeans_raises_when_it_reaches_the_iteration_cap(small_wset, monkeypatch):
    monkeypatch.setattr(planner, "KMEANS_MAX_ITER", 1)
    with pytest.raises(RuntimeError, match="k=4 .* in 1 iterations"):
        cluster_surfaces(_surfaces(small_wset), k=4, rng_seed=3)


def test_kmeans_k1_centroid_is_mean(small_wset):
    surfaces = _surfaces(small_wset, n=6)
    clustering = cluster_surfaces(surfaces, k=1, rng_seed=0)
    mean = np.stack([s.values for s in surfaces]).mean(axis=0)
    assert np.allclose(clustering.centroids[0].values, mean)
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
            training.append((index_vector(np.abs(row)), cls))
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


def _rule_terms(clf, training):
    """Mean cross-entropy and accuracy of clf on training, recomputed."""
    x = clf._features([vec for vec, _ in training])
    y = np.array([cls for _, cls in training])
    m = clf.model
    logits = 1.0 / (1.0 + np.exp(-(x @ m.w1 + m.b1))) @ m.w2 + m.b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -log_p[np.arange(len(y)), y].mean(), np.mean(logits.argmax(axis=1) == y)


def test_converged_fit_stops_at_the_first_epoch_meeting_the_rule():
    training = _blob_training()
    clf = train_classifier(training, BASE, _FULL_SELECTION, rng_seed=4)
    assert clf.converged and 1 < clf.epochs < planner.MLP_EPOCHS
    loss, accuracy = _rule_terms(clf, training)
    assert loss < planner.MLP_TARGET_LOSS
    assert accuracy >= planner.MLP_TARGET_ACCURACY == clf.training_accuracy
    # Capped one epoch short, the same descent has not met the rule yet;
    # capped later, it stops where it did.
    short = train_classifier(training, BASE, _FULL_SELECTION, rng_seed=4,
                             epochs=clf.epochs - 1)
    assert (short.epochs, short.converged) == (clf.epochs - 1, False)
    loss, accuracy = _rule_terms(short, training)
    assert not (loss < planner.MLP_TARGET_LOSS and accuracy >= planner.MLP_TARGET_ACCURACY)
    exact = train_classifier(training, BASE, _FULL_SELECTION, rng_seed=4,
                             epochs=clf.epochs)
    assert canonical_json(exact.to_json()) == canonical_json(clf.to_json())


def test_one_epoch_cap_reports_no_convergence():
    clf = train_classifier(_blob_training(), BASE, _FULL_SELECTION, rng_seed=4, epochs=1)
    assert (clf.epochs, clf.converged) == (1, False)
    assert type(clf).from_json(clf.to_json()).converged is False


def test_fits_from_one_seed_are_byte_identical():
    training = _blob_training()
    a, b = (train_classifier(training, BASE, _FULL_SELECTION, rng_seed=9)
            for _ in range(2))
    for name in ("w1", "b1", "w2", "b2"):
        assert getattr(a.model, name).tobytes() == getattr(b.model, name).tobytes()
    assert (a.epochs, a.converged) == (b.epochs, b.converged)


def test_loocv_observes_each_workload_once(monkeypatch, default_config, default_wset):
    observed = []

    def counting(workloads, *args, **kwargs):
        observed.extend(w.workload_id for w in workloads)
        return observe_indexes_batch(workloads, *args, **kwargs)

    monkeypatch.setattr(experiment, "observe_indexes_batch", counting)
    report = experiment.run_loocv(default_config, default_wset)
    assert len(observed) == len(default_wset.workloads) == 55
    assert sorted(observed) == sorted(w.workload_id for w in default_wset.workloads)
    assert report.summary["capped_fits"] == 0


def test_loocv_matches_rounds_that_observe_afresh(small_config, small_wset):
    # The reference observes every round's workloads anew, as each
    # round once did; the shared readings must give identical rows.
    ids = [w.workload_id for w in small_wset.workloads]
    base = small_config.base_spec
    rows = []
    for held in ids:
        train_ids = [i for i in ids if i != held]
        seen = experiment._observe(small_config, small_wset, train_ids, base)
        data = experiment._prepare_base(small_config, train_ids, base, seen)
        bundle = experiment._fit(small_config, small_wset, data, small_config.k, [held])
        rows.extend(experiment.evaluate_validation(small_config, small_wset, bundle).rows)
    report = experiment.run_loocv(small_config, small_wset)
    assert canonical_json(list(report.rows)) == canonical_json(rows)


def test_classifier_roundtrip_preserves_predictions():
    training = _blob_training()
    clf = train_classifier(training, BASE, _FULL_SELECTION,
                           rng_seed=4, epochs=300)
    clone = type(clf).from_json(clf.to_json())
    for vec, _ in training:
        assert clone.predict(vec) == clf.predict(vec)
    assert canonical_json(clone.to_json()) == canonical_json(clf.to_json())


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


def _grid(values, base=BASE):
    return ScalingSurface(region=REGION, base_spec=base, values=np.reshape(values, SHAPE))


def _flat(value):
    return _grid(np.full(SHAPE, value))


def test_surface_error_mean_relative_deviation():
    actual = _flat(1.0)
    assert surface_error(actual, actual) == 0.0
    # +25% on exactly half the grid (base excluded) averages to 12.5%
    specs = REGION.specs()
    base_idx = specs.index(BASE)
    bumped = [i for i in range(len(specs)) if i != base_idx][: len(specs) // 2]
    values = np.ones(len(specs))
    values[bumped] = 1.25
    mixed = _grid(values)
    assert surface_error(mixed, actual) == pytest.approx(0.125)


def test_surface_error_rejects_mismatched_grids():
    other = _grid(np.ones(SHAPE), base=ResourceSpec(2, 4))
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
    return _grid(grid / grid[cores.index(BASE.cores), mems.index(BASE.memory_gb)])


def _brute_force_plan(request, surface):
    current = surface.speedup_at(request.current_spec)
    if request.policy == "scale-up":
        threshold = request.target_speedup * current
    else:
        threshold = (1.0 - request.performance_tolerance) * current
    feasible = [s for s in REGION.specs() if surface.speedup_at(s) >= threshold]
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


def _drop_last(values):
    return values[:-1]


def _mlp_without_first(model, name):
    arrays = {n: getattr(model, n) for n in ("w1", "b1", "w2", "b2")}
    arrays[name] = arrays[name][1:]
    return planner._Mlp(**arrays)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda c: replace(c, mean=_drop_last(c.mean)),
                 "feature sizes disagree", id="mean"),
    pytest.param(lambda c: replace(c, std=_drop_last(c.std)),
                 "feature sizes disagree", id="std"),
    pytest.param(lambda c: replace(c, selection=replace(
        c.selection, selected=c.selection.selected[1:])),
                 "feature sizes disagree", id="selected"),
    pytest.param(lambda c: replace(c, model=_mlp_without_first(c.model, "b1")),
                 "hidden sizes disagree", id="b1"),
    pytest.param(lambda c: replace(c, model=_mlp_without_first(c.model, "b2")),
                 "class sizes disagree", id="b2"),
    pytest.param(lambda c: replace(c, selection=replace(c.selection, selected=(0, 15))),
                 r"selected indexes \[0, 15\] are not all in 0..14", id="selected-range"),
])
def test_classifier_built_in_memory_checks_its_sizes(small_bundle, edit, message):
    with pytest.raises(ValueError, match=message):
        edit(small_bundle.classifier)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda b: replace(b, clustering=replace(
        b.clustering, centroids=_drop_last(b.clustering.centroids))),
                 "class sizes disagree: classes 5, centroids 4", id="centroids"),
    pytest.param(lambda b: replace(b, training_workload_ids=_drop_last(
        b.training_workload_ids)),
                 "training sizes disagree: assignments 12, training workload ids 11",
                 id="assignments"),
])
def test_model_bundle_built_in_memory_checks_its_sizes(small_bundle, edit, message):
    with pytest.raises(ValueError, match=message):
        edit(small_bundle)
