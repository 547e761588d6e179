"""Scaling-surface prediction and just-enough capacity planning.

The planning pipeline turns one observation of a workload's system
indexes into a concrete resource recommendation:

1. Lasso regression over (index vector, measured TPS) pairs picks the
   indexes that actually carry performance signal.
2. K-means groups the training workloads' scaling surfaces; each
   cluster's centroid surface is the representative for its members.
3. An MLP maps selected, standardized index features, observed at the
   bundle's base config, to a cluster id.
4. The predicted surface is scanned exhaustively for the cheapest
   grid config meeting a scale-up target or a scale-down tolerance.

Everything is deterministic given explicit seeds and serializes to a
single JSON bundle. Training at desk scale takes a few seconds, nearly
all of it in the Lasso cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigRegion,
    InfeasibleError,
    ResourceSpec,
    ScalingSurface,
    SystemIndexVector,
    INDEX_NAMES,
    write_json,
)

__all__ = [
    "DEFAULT_COST_WEIGHTS",
    "DEFAULT_EPSILON",
    "DEFAULT_K",
    "FeatureSelection",
    "ModelBundle",
    "PlanningRequest",
    "SurfaceClassifier",
    "SurfaceClustering",
    "cluster_surfaces",
    "lambda_grid",
    "plan_capacity",
    "predict_surface",
    "select_features",
    "select_features_cv",
    "spec_cost",
    "surface_error",
    "train_classifier",
]

DEFAULT_K = 20
DEFAULT_EPSILON = 0.05
DEFAULT_COST_WEIGHTS = (1.0, 0.25)

MLP_HIDDEN = 32
MLP_EPOCHS = 500
# Full-batch descent needs a step this large to fit 20 classes from
# 44 samples within the epoch budget; see the classifier tests.
MLP_STEP = 0.5


def lambda_grid() -> np.ndarray:
    """Log grid 1e-4 .. 1e1 searched by cross-validation."""
    return np.logspace(-4.0, 1.0, 11)


def _as_matrix(samples) -> tuple[np.ndarray, np.ndarray]:
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    x = np.array([vec.as_array() for vec, _ in samples], dtype=float)
    y = np.array([float(t) for _, t in samples], dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("samples contain non-finite values")
    if np.any(y <= 0):
        raise ValueError("performance scalars must be positive")
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    return x, y


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (x - mean) / std, mean, std


def _soft_threshold(value: float, threshold: float) -> float:
    if value > threshold:
        return value - threshold
    if value < -threshold:
        return value + threshold
    return 0.0


def _coordinate_descent(xs: np.ndarray, yc: np.ndarray, lam: float,
                        tol: float, max_iter: int = 100000) -> np.ndarray:
    """Lasso on standardized columns: min (1/2n)||yc - xs b||^2 + lam ||b||_1.

    With unit-variance columns each coordinate update is a plain soft
    threshold. Stops when no coefficient moves more than tol relative
    to the largest coefficient, or when a full sweep no longer lowers
    the objective by a tol fraction. The objective check matters on
    underdetermined data, where coefficients can drift along a
    near-null space long after the fit itself has converged.
    """
    n, p = xs.shape
    col_scale = (xs * xs).sum(axis=0) / n  # 1.0 for non-constant columns
    beta = np.zeros(p)
    residual = yc.copy()
    obj0 = 0.5 * float(yc @ yc) / n
    prev_obj = obj0
    for _ in range(max_iter):
        max_step = 0.0
        for j in range(p):
            if col_scale[j] == 0.0:
                continue
            old = beta[j]
            rho = (xs[:, j] @ residual) / n + col_scale[j] * old
            new = _soft_threshold(rho, lam) / col_scale[j]
            if new != old:
                residual += xs[:, j] * (old - new)
                beta[j] = new
                max_step = max(max_step, abs(new - old))
        scale = max(1.0, float(np.max(np.abs(beta))) if p else 1.0)
        if max_step <= tol * scale:
            break
        obj = 0.5 * float(residual @ residual) / n + lam * float(np.abs(beta).sum())
        if prev_obj - obj <= tol * max(1.0, obj0):
            break
        prev_obj = obj
    return beta


@dataclass(frozen=True)
class FeatureSelection:
    """Lasso outcome: regularization weight, coefficients, support.

    Weights live in standardized-feature space. selected holds the
    index positions whose coefficient magnitude exceeds 1e-9.
    """

    lam: float
    weights: tuple[float, ...]
    selected: tuple[int, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(INDEX_NAMES[i] for i in self.selected)

    def to_json(self) -> dict:
        return {"lambda": self.lam, "weights": list(self.weights),
                "selected": list(self.selected)}

    @classmethod
    def from_json(cls, obj: dict) -> "FeatureSelection":
        return cls(lam=float(obj["lambda"]),
                   weights=tuple(float(v) for v in obj["weights"]),
                   selected=tuple(int(v) for v in obj["selected"]))


def select_features(samples, lam: float, tol: float = 1e-6) -> FeatureSelection:
    """Fit the standardized Lasso and keep the nonzero support.

    lam = 0 degenerates to ordinary least squares, so every feature
    survives on full-rank data. Large enough lam empties the support.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    x, y = _as_matrix(samples)
    xs, _, _ = _standardize(x)
    yc = y - y.mean()
    beta = _coordinate_descent(xs, yc, lam, tol)
    selected = tuple(int(j) for j in range(len(beta)) if abs(beta[j]) > 1e-9)
    return FeatureSelection(lam=float(lam), weights=tuple(float(b) for b in beta),
                            selected=selected)


def select_features_cv(samples, rng_seed: int, folds: int = 5,
                       tol: float = 1e-6) -> FeatureSelection:
    """Pick lambda by k-fold cross-validation, then refit on all samples.

    Ties in validation error go to the larger lambda (sparser model).
    """
    x, y = _as_matrix(samples)
    n = len(y)
    folds = min(folds, n)
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 11]))
    order = rng.permutation(n)
    fold_of = np.zeros(n, dtype=int)
    for pos, idx in enumerate(order):
        fold_of[idx] = pos % folds
    best_lam, best_mse = None, None
    for lam in lambda_grid():
        errors = []
        for f in range(folds):
            train, val = fold_of != f, fold_of == f
            if not val.any() or train.sum() < 2:
                continue
            xs, mean, std = _standardize(x[train])
            yc_mean = y[train].mean()
            beta = _coordinate_descent(xs, y[train] - yc_mean, float(lam), tol)
            pred = ((x[val] - mean) / std) @ beta + yc_mean
            errors.append(float(np.mean((pred - y[val]) ** 2)))
        mse = float(np.mean(errors))
        if best_mse is None or mse < best_mse - 1e-12 or (
                abs(mse - best_mse) <= 1e-12 and lam > best_lam):
            best_lam, best_mse = float(lam), mse
    return select_features(samples, best_lam, tol)


@dataclass(frozen=True)
class SurfaceClustering:
    """K-means result over flattened speedup vectors.

    assignments[i] is the cluster of the i-th input surface; callers
    keep their own workload_id order. cost_history records the
    objective after every assignment step (non-increasing).
    """

    k: int
    centroids: tuple[ScalingSurface, ...]
    assignments: tuple[int, ...]
    cost_history: tuple[float, ...]

    def to_json(self) -> dict:
        return {"k": self.k,
                "centroids": [c.to_json() for c in self.centroids],
                "assignments": list(self.assignments),
                "cost_history": list(self.cost_history)}

    @classmethod
    def from_json(cls, region: ConfigRegion, obj: dict) -> "SurfaceClustering":
        return cls(k=int(obj["k"]),
                   centroids=tuple(ScalingSurface.from_json(region, c)
                                   for c in obj["centroids"]),
                   assignments=tuple(int(a) for a in obj["assignments"]),
                   cost_history=tuple(float(c) for c in obj["cost_history"]))


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    chosen = {first}
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # All remaining points coincide with a center; take the
            # lowest-index unchosen point for determinism.
            idx = next(i for i in range(n) if i not in chosen)
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        chosen.add(idx)
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def cluster_surfaces(surfaces, k: int, rng_seed: int,
                     max_iter: int = 300) -> SurfaceClustering:
    """Lloyd's K-means with k-means++ seeding on surface vectors.

    Runs to an assignment fixpoint (or max_iter), breaking distance
    ties toward the lower cluster index. A cluster emptied during an
    update is reseeded with the point farthest from its own centroid.
    """
    surfaces = list(surfaces)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(surfaces):
        raise ValueError(f"k={k} exceeds surface count {len(surfaces)}")
    region, base = surfaces[0].region, surfaces[0].base_spec
    for s in surfaces[1:]:
        if s.region != region or s.base_spec != base:
            raise ValueError("surfaces must share one region and base spec")
    x = np.stack([s.vector() for s in surfaces])
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 13]))
    centers = _kmeanspp_init(x, k, rng)

    assignments = None
    history: list[float] = []
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(len(x)), new_assign].sum()))
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        own = d2[np.arange(len(x)), assignments]
        for j in range(k):
            members = assignments == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
            else:
                centers[j] = x[int(np.argmax(own))]
    centroids = tuple(ScalingSurface.from_vector(region, base, c) for c in centers)
    return SurfaceClustering(k=k, centroids=centroids,
                             assignments=tuple(int(a) for a in assignments),
                             cost_history=tuple(history))


class _Mlp:
    """One-hidden-layer perceptron, logistic units, softmax output."""

    def __init__(self, w1, b1, w2, b2):
        self.w1, self.b1, self.w2, self.b2 = w1, b1, w2, b2

    @classmethod
    def init(cls, n_in: int, n_hidden: int, n_out: int,
             rng: np.random.Generator) -> "_Mlp":
        lim1 = math.sqrt(6.0 / (n_in + n_hidden))
        lim2 = math.sqrt(6.0 / (n_hidden + n_out))
        return cls(rng.uniform(-lim1, lim1, (n_in, n_hidden)), np.zeros(n_hidden),
                   rng.uniform(-lim2, lim2, (n_hidden, n_out)), np.zeros(n_out))

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = 1.0 / (1.0 + np.exp(-(x @ self.w1 + self.b1)))
        logits = h @ self.w2 + self.b2
        return h, logits

    def train(self, x: np.ndarray, y: np.ndarray, step: float, epochs: int) -> None:
        n, k = x.shape[0], self.b2.shape[0]
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0
        for _ in range(epochs):
            h, logits = self._forward(x)
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            dz = (p - onehot) / n
            dw2 = h.T @ dz
            db2 = dz.sum(axis=0)
            dh = dz @ self.w2.T
            da = dh * h * (1.0 - h)
            dw1 = x.T @ da
            db1 = da.sum(axis=0)
            self.w2 -= step * dw2
            self.b2 -= step * db2
            self.w1 -= step * dw1
            self.b1 -= step * db1

    def predict(self, x: np.ndarray) -> np.ndarray:
        _, logits = self._forward(x)
        return np.argmax(logits, axis=1)

    def to_json(self) -> dict:
        return {"w1": self.w1.tolist(), "b1": self.b1.tolist(),
                "w2": self.w2.tolist(), "b2": self.b2.tolist()}

    @classmethod
    def from_json(cls, obj: dict) -> "_Mlp":
        arrays = {name: np.array(obj[name], dtype=float)
                  for name in ("w1", "b1", "w2", "b2")}
        for name, array in arrays.items():
            if array.ndim != (2 if name.startswith("w") else 1):
                raise ValueError(f"classifier {name} has {array.ndim} dimensions")
        return cls(**arrays)


@dataclass(frozen=True)
class SurfaceClassifier:
    """Maps an index observation at base_spec to a cluster id.

    Normalization statistics come from the training set only; only the
    selected feature positions are used.
    """

    base_spec: ResourceSpec
    selection: FeatureSelection
    mean: tuple[float, ...]
    std: tuple[float, ...]
    n_classes: int
    model: _Mlp
    training_accuracy: float

    def _features(self, indexes: SystemIndexVector) -> np.ndarray:
        raw = indexes.as_array()
        if not np.all(np.isfinite(raw)):
            raise ValueError("index vector contains non-finite values")
        sub = raw[list(self.selection.selected)]
        return (sub - np.array(self.mean)) / np.array(self.std)

    def predict(self, indexes: SystemIndexVector) -> int:
        feats = self._features(indexes)[None, :]
        return int(self.model.predict(feats)[0])

    def to_json(self) -> dict:
        return {"base_spec": self.base_spec.to_json(), "kind": "mlp",
                "selection": self.selection.to_json(),
                "mean": list(self.mean), "std": list(self.std),
                "n_classes": self.n_classes, "model": self.model.to_json(),
                "training_accuracy": self.training_accuracy}

    @classmethod
    def from_json(cls, obj: dict) -> "SurfaceClassifier":
        """Load a classifier, checking its sizes against one another."""
        if obj["kind"] != "mlp":
            raise ValueError(f"unknown classifier kind {obj['kind']!r}")
        clf = cls(base_spec=ResourceSpec.from_json(obj["base_spec"]),
                  selection=FeatureSelection.from_json(obj["selection"]),
                  mean=tuple(float(v) for v in obj["mean"]),
                  std=tuple(float(v) for v in obj["std"]),
                  n_classes=int(obj["n_classes"]), model=_Mlp.from_json(obj["model"]),
                  training_accuracy=float(obj["training_accuracy"]))
        selected, m = clf.selection.selected, clf.model
        if not all(0 <= i < len(INDEX_NAMES) for i in selected):
            raise ValueError(f"selected indexes {list(selected)} are not all in "
                             f"0..{len(INDEX_NAMES) - 1}")
        _same_sizes("feature", selected=len(selected), mean=len(clf.mean),
                    std=len(clf.std), w1_rows=m.w1.shape[0])
        _same_sizes("hidden", w1_columns=m.w1.shape[1], b1=len(m.b1),
                    w2_rows=m.w2.shape[0])
        _same_sizes("class", w2_columns=m.w2.shape[1], b2=len(m.b2),
                    n_classes=clf.n_classes)
        return clf


def _same_sizes(what: str, **sizes: int) -> None:
    """Raise ValueError naming every size unless all are equal."""
    if len(set(sizes.values())) > 1:
        listed = ", ".join(f"{name.replace('_', ' ')} {n}" for name, n in sizes.items())
        raise ValueError(f"model bundle {what} sizes disagree: {listed}")


def train_classifier(training, base_spec: ResourceSpec,
                     selection: FeatureSelection, rng_seed: int = 0,
                     n_classes: int | None = None,
                     epochs: int = MLP_EPOCHS) -> SurfaceClassifier:
    """Fit the MLP cluster-id classifier on selected, standardized features."""
    training = list(training)
    if not training:
        raise ValueError("training set must be non-empty")
    if not selection.selected:
        raise ValueError("feature selection is empty")
    labels = np.array([int(c) for _, c in training])
    if labels.min() < 0:
        raise ValueError("cluster ids must be non-negative")
    k = int(labels.max()) + 1 if n_classes is None else int(n_classes)
    if labels.max() >= k:
        raise ValueError("cluster id out of range")
    raw = np.stack([vec.as_array() for vec, _ in training])
    x, mean, std = _standardize(raw[:, list(selection.selected)])
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 17]))
    model = _Mlp.init(x.shape[1], MLP_HIDDEN, k, rng)
    model.train(x, labels, step=MLP_STEP, epochs=epochs)
    accuracy = float(np.mean(model.predict(x) == labels))
    return SurfaceClassifier(base_spec=base_spec, selection=selection,
                             mean=tuple(float(v) for v in mean),
                             std=tuple(float(v) for v in std),
                             n_classes=k, model=model, training_accuracy=accuracy)


def predict_surface(classifier: SurfaceClassifier, clustering: SurfaceClustering,
                    indexes: SystemIndexVector) -> ScalingSurface:
    """Centroid surface of the predicted cluster, unmodified."""
    if classifier.n_classes != clustering.k:
        raise ValueError(f"classifier has {classifier.n_classes} classes, "
                         f"clustering has k={clustering.k}")
    return clustering.centroids[classifier.predict(indexes)]


def surface_error(predicted: ScalingSurface, actual: ScalingSurface) -> float:
    """Mean absolute relative speedup error over the grid.

    err = sum_i |predicted_i / actual_i - 1| / N_conf. Asymmetric by
    definition: the actual surface sits in the denominator.
    """
    if predicted.region != actual.region or predicted.base_spec != actual.base_spec:
        raise ValueError("surfaces must share region and base spec")
    total = 0.0
    specs = predicted.region.specs()
    for spec in specs:
        a = actual.speedups[spec]
        if a == 0:
            raise ValueError("actual speedup of 0 is not meaningful")
        total += abs(predicted.speedups[spec] / a - 1.0)
    return total / len(specs)


@dataclass(frozen=True)
class PlanningRequest:
    """What the tenant asks for, and how cost is weighed."""

    policy: str
    current_spec: ResourceSpec
    target_speedup: float = 1.0
    performance_tolerance: float = DEFAULT_EPSILON
    cost_weights: tuple[float, float] = DEFAULT_COST_WEIGHTS

    def __post_init__(self):
        if self.policy not in ("scale-up", "scale-down"):
            raise ValueError(f"policy must be scale-up or scale-down, got {self.policy!r}")
        if self.policy == "scale-up" and self.target_speedup < 1.0:
            raise ValueError("scale-up target_speedup must be >= 1")
        if not 0.0 <= self.performance_tolerance < 1.0:
            raise ValueError("performance_tolerance must be in [0, 1)")
        if self.cost_weights[0] < 0 or self.cost_weights[1] < 0:
            raise ValueError("cost weights must be non-negative")


def spec_cost(spec: ResourceSpec, weights: tuple[float, float]) -> float:
    return weights[0] * spec.cores + weights[1] * spec.memory_gb


def plan_capacity(request: PlanningRequest, surface: ScalingSurface) -> ResourceSpec:
    """Cheapest grid spec meeting the request on the given surface.

    Scale-up: speedup(spec) / speedup(current) >= target_speedup.
    Scale-down: speedup(spec) >= (1 - tolerance) * speedup(current).
    Exhaustive scan; ties go to lower cost, then fewer cores, then
    less memory. Raises InfeasibleError when even the best spec falls
    short, carrying the best achievable speedup ratio.
    """
    current = surface.speedup_at(request.current_spec)
    if request.policy == "scale-up":
        threshold = request.target_speedup * current
    else:
        threshold = (1.0 - request.performance_tolerance) * current
    best = None
    best_ratio = 0.0
    for spec in surface.region.specs():
        s = surface.speedups[spec]
        best_ratio = max(best_ratio, s / current)
        if s >= threshold:
            key = (spec_cost(spec, request.cost_weights), spec.cores, spec.memory_gb)
            if best is None or key < best[0]:
                best = (key, spec)
    if best is None:
        raise InfeasibleError(
            f"no spec reaches {threshold / current:.3f}x of current; "
            f"best achievable is {best_ratio:.3f}x", best_speedup=best_ratio)
    return best[1]


@dataclass(frozen=True)
class ModelBundle:
    """Everything the planner learned, in one serializable unit.

    The one classifier maps indexes observed at its base config,
    base_spec, to a cluster of the clustering, whose assignments follow
    training_workload_ids order. The file keeps the classifier in a
    one-entry map keyed by that base ('6c8g'), and a copy of its
    feature selection at the top level.
    """

    region: ConfigRegion
    clustering: SurfaceClustering
    classifier: SurfaceClassifier
    training_workload_ids: tuple[int, ...]
    validation_workload_ids: tuple[int, ...]
    seed: int

    @property
    def base_spec(self) -> ResourceSpec:
        return self.classifier.base_spec

    @property
    def selection(self) -> FeatureSelection:
        return self.classifier.selection

    def predict(self, indexes: SystemIndexVector) -> ScalingSurface:
        return predict_surface(self.classifier, self.clustering, indexes)

    def to_json(self) -> dict:
        return {"schema": "model-bundle/v1",
                "seed": self.seed,
                "region": self.region.to_json(),
                "selection": self.selection.to_json(),
                "clustering": self.clustering.to_json(),
                "classifiers": {self.base_spec.key: self.classifier.to_json()},
                "training_workload_ids": list(self.training_workload_ids),
                "validation_workload_ids": list(self.validation_workload_ids)}

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def from_json(cls, obj: dict) -> "ModelBundle":
        """Load a bundle, checking that its parts agree in size."""
        schema = obj.get("schema") if isinstance(obj, dict) else None
        if schema != "model-bundle/v1":
            raise ValueError(f"not a model bundle file: schema={schema!r}")
        if not isinstance(obj["classifiers"], dict):
            raise ValueError("bundle classifiers must be a JSON object")
        keys = list(obj["classifiers"])
        classifiers = [SurfaceClassifier.from_json(c) for c in obj["classifiers"].values()]
        if len(keys) != 1 or keys[0] != classifiers[0].base_spec.key:
            raise ValueError("a model bundle holds one classifier, keyed by its base; found "
                             f"keys {keys} for bases {[c.base_spec.key for c in classifiers]}")
        if FeatureSelection.from_json(obj["selection"]) != classifiers[0].selection:
            raise ValueError("bundle selection differs from its classifier's")
        region = ConfigRegion.from_json(obj["region"])
        clustering = SurfaceClustering.from_json(region, obj["clustering"])
        train_ids = tuple(int(i) for i in obj["training_workload_ids"])
        _same_sizes("class", n_classes=classifiers[0].n_classes, k=clustering.k,
                    centroids=len(clustering.centroids))
        _same_sizes("training", assignments=len(clustering.assignments),
                    training_workload_ids=len(train_ids))
        return cls(region=region, clustering=clustering, classifier=classifiers[0],
                   training_workload_ids=train_ids,
                   validation_workload_ids=tuple(int(i) for i in obj["validation_workload_ids"]),
                   seed=int(obj["seed"]))

    @classmethod
    def load(cls, path) -> "ModelBundle":
        import json
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
