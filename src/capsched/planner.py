"""Scaling-surface prediction and just-enough capacity planning.

The planning pipeline turns one observation of a workload's system
indexes into a concrete resource recommendation:

1. Lasso regression over (index vector, measured TPS) pairs picks the
   indexes that actually carry performance signal. The Lasso is solved
   exactly by homotopy: the cross-validation folds' paths and the
   full-sample path step their knots together in one walk.
2. K-means groups the training workloads' scaling surfaces; each
   cluster's centroid surface is the representative for its members.
3. An MLP maps selected, standardized index features, observed at the
   bundle's base config, to a cluster id.
4. The predicted surface is scanned exhaustively for the cheapest
   grid config meeting a scale-up target or a scale-down tolerance.

Everything is deterministic given explicit seeds and serializes to a
single JSON bundle. Training at desk scale takes well under a second:
the Lasso paths and the MLP's full-batch Adam epochs, which stop once
the fit classifies every training sample right with a small loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import (
    ConfigRegion,
    InfeasibleError,
    JsonRecord,
    ResourceSpec,
    ScalingSurface,
    SystemIndexVector,
    INDEX_NAMES,
    decode,
    fields_json,
    read_json,
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
    "plan_capacity_batch",
    "predict_surface",
    "predict_surface_batch",
    "select_features",
    "select_features_cv",
    "spec_cost",
    "surface_error",
    "train_classifier",
]

DEFAULT_K = 20
DEFAULT_EPSILON = 0.05
DEFAULT_COST_WEIGHTS = (1.0, 0.25)

# A Lasso path over the 15 indexes has about 30 knots; the cap catches
# a path that cycles, and a stacked walk applies it to each of its
# paths. A column whose part outside the active columns is below this
# fraction of its own norm counts as their combination.
LASSO_MAX_KNOTS = 1000
_DEPENDENT_TOL = 1e-9
# Cross-validation folds that choose the Lasso lambda.
CV_FOLDS = 5

# Lloyd's loop takes about 20 steps on the worlds studied; the cap catches a bug.
KMEANS_MAX_ITER = 300

MLP_HIDDEN = 32
# The cap on full-batch epochs; the default world's fits stop after
# about 60, the 550-workload world's after about 370.
MLP_EPOCHS = 500
# Adam's learning rate; the moment decays and epsilon are those of
# Kingma & Ba, "Adam: A Method for Stochastic Optimization" (ICLR 2015).
MLP_STEP = 0.05
_ADAM_BETAS = (0.9, 0.999)
_ADAM_EPS = 1e-8
# A fit stops at the first epoch whose weights reach this training
# accuracy with mean cross-entropy below this loss. A loss of 0.05
# stopped early enough to miss held-out workloads that 0.01 gets right.
MLP_TARGET_ACCURACY = 1.0
MLP_TARGET_LOSS = 0.01


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
    # A constant column standardizes to exact zeros, whatever rounding
    # is left in its mean and std.
    constant = np.all(x == x[0], axis=0)
    mean = np.where(constant, x[0], mean)
    std = np.where(constant, 1.0, std)
    return (x - mean) / std, mean, std


def _gram(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Lasso statistics of one sample: G = XsᵀXs/n and c = Xsᵀyc/n.

    Xs is x standardized and yc is y centred; the mean, std and y mean
    come back with them, to map new rows onto the same scale.
    """
    xs, mean, std = _standardize(x)
    y_mean = y.mean()
    n = len(y)
    return xs.T @ xs / n, xs.T @ (y - y_mean) / n, mean, std, y_mean


def _lasso_paths(grams: np.ndarray, corrs: np.ndarray, lams) -> np.ndarray:
    """Exact Lasso coefficients of F paths at every lam of lams, (F × lams × p).

    Minimizes ½bᵀGb − cᵀb + lam·‖b‖₁, which on G = XsᵀXs/n and
    c = Xsᵀyc/n is (1/2n)‖yc − Xs·b‖² + lam·‖b‖₁ up to a constant. This
    is the homotopy (LARS-Lasso) method: from lam_max = max|c|, where b
    is zero, the solution is linear in lam between knots, each knot a
    column joining the active set (its correlation c − Gb reaches ±lam)
    or leaving it (its coefficient reaches zero). Every segment solves
    its active block afresh, and the rows of lams it spans are read off
    that linear piece.

    Path f has G = grams[f] and c = corrs[f]. The F paths step
    together: each pass takes one knot on every path that has not yet
    reached min(lams), with one stacked solve and one stacked product
    per active-set size among them, and does the event bookkeeping on
    (F × p) arrays. Each element's arithmetic is that of a path walked
    alone, so a path's rows do not depend on the others, and its knots
    do not depend on lams before it ends.

    A column with a zero on G's diagonal never joins, nor does one that
    is a combination of the active columns, so when n < p the active set
    stops growing at the rank of the centred data and lam = 0 ends at
    that set's least-squares fit. Events within 1e-12·lam_max of one
    another count as one, and the lowest column index goes first.
    Raises RuntimeError when a path has not reached min(lams) in
    LASSO_MAX_KNOTS knots, which only a cycling path does.
    """
    lams = np.asarray(lams, dtype=float)
    n_paths, p = corrs.shape
    out = np.zeros((n_paths, len(lams), p))
    diags = np.diagonal(grams, axis1=1, axis2=2)
    dependent = _DEPENDENT_TOL * diags
    lam = np.max(np.abs(corrs), axis=1, initial=0.0)
    lam_end = float(lams.min())
    pending = lams < lam[:, None]
    live = np.flatnonzero(pending.any(axis=1)).tolist()
    tie = 1e-12 * lam
    on = np.zeros((n_paths, p), dtype=bool)
    sizes = [0] * n_paths
    # Row j of path f's system is (c_j, sign_j, G_j); the active rows
    # are its right-hand side.
    system = np.concatenate((corrs[:, :, None], np.zeros((n_paths, p, 1)), grams), axis=2)
    signs = system[:, :, 1]
    # Each path's segment: b(l) = u − l·d over its active columns (stale
    # and unused elsewhere), its correlations' residual and slope, and
    # outside.
    ud = np.zeros((n_paths, p, 2))
    u, d = ud[:, :, 0], ud[:, :, 1]
    residual, slope, outside = np.zeros((3, n_paths, p))
    for _ in range(LASSO_MAX_KNOTS):
        if not live:
            return out
        groups: dict[int, list[int]] = {}
        for f in live:
            groups.setdefault(sizes[f], []).append(f)
        for m, members in groups.items():
            g = np.array(members)
            active = np.nonzero(on[g])[1].reshape(len(g), m)
            rhs = system[g[:, None], active]
            rows = rhs[:, :, 2:]
            # W = G_AA⁻¹·G_A writes every column in terms of the active ones.
            solved = np.linalg.solve(
                grams[g[:, None, None], active[:, :, None], active[:, None, :]], rhs)
            w = solved[:, :, 2:]
            beta = solved[:, :, 0] - lam[g, None] * solved[:, :, 1]
            residual[g] = corrs[g] - (beta[:, None, :] @ rows)[:, 0]
            slope[g] = (rhs[:, None, :, 1] @ w)[:, 0]
            # Zero for an active column, a zero-variance one, or a combination
            # of the active ones: none of these can join.
            outside[g] = diags[g] - np.einsum("gij,gij->gj", rows, w)
            ud[g[:, None], active] = solved[:, :, :2]
        # As lam falls by t, an inactive correlation r moves by −t·slope
        # and reaches +lam at t = (lam − r)/(1 − slope), −lam at
        # t = (lam + r)/(1 + slope); an active b moves by t·d and
        # reaches zero at t = −b/d. Rows of ended paths are stale, and
        # their take is empty.
        lam_col = lam[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(slope < 1, np.maximum(lam_col - residual, 0) / (1 - slope), np.inf)
            down = np.where(slope > -1, np.maximum(lam_col + residual, 0) / (1 + slope),
                            np.inf)
            drop = np.where(signs * d < 0,
                            np.maximum(signs * (u - lam_col * d), 0) / np.abs(d), np.inf)
        event = np.where(on, drop, np.where(outside > dependent, np.minimum(up, down), np.inf))
        step = event.min(axis=1)
        low = np.maximum(lam - step, lam_end)
        take = pending & (lams >= low[:, None])
        if take.any():
            np.copyto(out, u[:, None, :] - lams[:, None] * d[:, None, :],
                      where=take[:, :, None] & on[:, None, :])
            pending &= ~take
        live = [f for f in live if low[f] != lam_end]
        lam = low
        hit = np.argmax(event <= (step + tie)[:, None], axis=1)
        for f in live:
            j = hit[f]
            if on[f, j]:
                on[f, j], signs[f, j] = False, 0.0
                sizes[f] -= 1
            else:
                on[f, j], signs[f, j] = True, 1.0 if up[f, j] <= down[f, j] else -1.0
                sizes[f] += 1
    if not live:
        return out
    raise RuntimeError(f"Lasso path did not reach lambda={lam_end:g} "
                       f"in {LASSO_MAX_KNOTS} knots")


@dataclass(frozen=True)
class FeatureSelection(JsonRecord):
    """Lasso outcome: regularization weight, coefficients, support.

    Weights live in standardized-feature space. selected holds the
    index positions whose coefficient magnitude exceeds 1e-9.
    """

    lam: float
    weights: tuple[float, ...]
    selected: tuple[int, ...]

    def __post_init__(self):
        if not all(0 <= i < len(INDEX_NAMES) for i in self.selected):
            raise ValueError(f"selected indexes {list(self.selected)} are not all in "
                             f"0..{len(INDEX_NAMES) - 1}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(INDEX_NAMES[i] for i in self.selected)


def _selection(lam: float, beta: np.ndarray) -> FeatureSelection:
    selected = tuple(int(j) for j in range(len(beta)) if abs(beta[j]) > 1e-9)
    return FeatureSelection(lam=float(lam), weights=tuple(float(b) for b in beta),
                            selected=selected)


def select_features(samples, lam: float) -> FeatureSelection:
    """Fit the standardized Lasso and keep the nonzero support.

    lam = 0 degenerates to ordinary least squares, so every feature
    survives on full-rank data. Large enough lam empties the support.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    x, y = _as_matrix(samples)
    gram, corr, _, _, _ = _gram(x, y)
    return _selection(lam, _lasso_paths(gram[None], corr[None], [lam])[0, 0])


def select_features_cv(samples, rng_seed: int) -> FeatureSelection:
    """Pick lambda by CV_FOLDS-fold cross-validation, then refit on all samples.

    One walk steps the fold paths and the full-sample path together over
    the whole grid. The refit is the full-sample path's row at the chosen
    lambda, which is what select_features fits there. Ties in validation
    error go to the larger lambda (sparser model). Raises ValueError when
    no fold has both a validation sample and two training samples.
    """
    x, y = _as_matrix(samples)
    n = len(y)
    folds = min(CV_FOLDS, n)
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 11]))
    order = rng.permutation(n)
    fold_of = np.zeros(n, dtype=int)
    for pos, idx in enumerate(order):
        fold_of[idx] = pos % folds
    fits = []
    for f in range(folds):
        train, val = fold_of != f, fold_of == f
        if val.any() and train.sum() >= 2:
            fits.append((val, _gram(x[train], y[train])))
    if not fits:
        raise ValueError(f"cross-validation needs at least 3 samples, got {n}")
    # The last path is the full sample's; zip below stops before it.
    stats = [fit for _, fit in fits] + [_gram(x, y)]
    grid = lambda_grid()
    paths = _lasso_paths(np.stack([s[0] for s in stats]), np.stack([s[1] for s in stats]),
                         grid)
    errors = []
    for (val, (_, _, mean, std, y_mean)), betas in zip(fits, paths):
        pred = ((x[val] - mean) / std) @ betas.T + y_mean
        errors.append(np.mean((pred - y[val][:, None]) ** 2, axis=0))
    best, best_mse = None, None
    for i, mse in enumerate(np.mean(errors, axis=0)):
        mse = float(mse)
        if best_mse is None or mse < best_mse - 1e-12 or (
                abs(mse - best_mse) <= 1e-12 and grid[i] > grid[best]):
            best, best_mse = i, mse
    return _selection(grid[best], paths[-1, best])


@dataclass(frozen=True)
class SurfaceClustering:
    """K-means result over flattened speedup vectors.

    assignments[i] is the cluster of the i-th input surface; callers
    keep their own workload_id order. cost_history records the
    objective after every assignment step (non-increasing up to
    rounding). A cluster with no members keeps the centroid it had
    (see cluster_surfaces).
    """

    centroids: tuple[ScalingSurface, ...]
    assignments: tuple[int, ...]
    cost_history: tuple[float, ...]

    @property
    def k(self) -> int:
        return len(self.centroids)

    def to_json(self) -> dict:
        return fields_json(self)

    @classmethod
    def from_json(cls, region: ConfigRegion, obj,
                  where: str = "clustering") -> "SurfaceClustering":
        got = decode({"centroids": list, "assignments": tuple[int, ...],
                      "cost_history": tuple[float, ...]}, obj, where)
        got["centroids"] = tuple(
            ScalingSurface.from_json(region, c, f"{where}.centroids[{i}]")
            for i, c in enumerate(got["centroids"]))
        return cls(**got)


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


def cluster_surfaces(surfaces, k: int, rng_seed: int) -> SurfaceClustering:
    """Lloyd's K-means with k-means++ seeding on flattened surface grids.

    Runs to an assignment fixpoint, breaking distance ties toward the
    lower cluster index, and raises RuntimeError if that takes more than
    KMEANS_MAX_ITER assignment steps. A cluster with no members keeps
    its centroid.

    A k above the number of distinct surfaces is allowed: k-means++
    seeds the surplus clusters on copies of surfaces already chosen,
    and as ties go to the lower index they end empty. Each keeps its
    k-means++ seed, unless rounding in the mean of the cluster it
    copies let it hold that cluster's members for one step; it then
    ends at that cluster's centroid.
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
    x = np.stack([s.values.ravel() for s in surfaces])
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 13]))
    centers = _kmeanspp_init(x, k, rng)

    assignments = None
    history: list[float] = []
    for _ in range(KMEANS_MAX_ITER):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(len(x)), new_assign].sum()))
        if assignments is not None and np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for j in range(k):
            members = assignments == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
    else:
        raise RuntimeError(f"k-means with k={k} did not reach a fixpoint "
                           f"in {KMEANS_MAX_ITER} iterations")
    shape = surfaces[0].values.shape
    centroids = tuple(ScalingSurface(region, base, c.reshape(shape)) for c in centers)
    return SurfaceClustering(centroids=centroids,
                             assignments=tuple(int(a) for a in assignments),
                             cost_history=tuple(history))


_MLP_ARRAYS = ("w1", "b1", "w2", "b2")


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

    def train(self, x: np.ndarray, y: np.ndarray, epochs: int) -> tuple[int, bool]:
        """Fit by full-batch Adam, at most epochs updates.

        Every epoch first checks the current weights: training accuracy
        at least MLP_TARGET_ACCURACY and mean cross-entropy below
        MLP_TARGET_LOSS end the fit. Returns the number of updates made
        and whether the weights left meet that rule. The weights,
        gradients and both moments each live in one flat buffer, so an
        update is a few array operations, not a few per weight array.
        """
        n = x.shape[0]
        rows = np.arange(n)
        arrays = (self.w1, self.b1, self.w2, self.b2)
        params = np.concatenate([a.ravel() for a in arrays])
        grads = np.empty_like(params)
        self.w1, self.b1, self.w2, self.b2 = _views(params, arrays)
        g_w1, g_b1, g_w2, g_b2 = _views(grads, arrays)
        mean, square = np.zeros_like(params), np.zeros_like(params)
        beta1, beta2 = _ADAM_BETAS
        for epoch in range(epochs + 1):
            h, logits = self._forward(x)
            hits = np.argmax(logits, axis=1) == y
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            total = p.sum(axis=1)
            loss = np.mean(np.log(total) - logits[rows, y])
            met = bool(loss < MLP_TARGET_LOSS and hits.mean() >= MLP_TARGET_ACCURACY)
            if met or epoch == epochs:
                return epoch, met
            # Softmax cross-entropy gradient, back through the logistic layer.
            dz = p / total[:, None]
            dz[rows, y] -= 1.0
            dz /= n
            np.matmul(h.T, dz, out=g_w2)
            dz.sum(axis=0, out=g_b2)
            da = dz @ self.w2.T
            da *= h * (1.0 - h)
            np.matmul(x.T, da, out=g_w1)
            da.sum(axis=0, out=g_b1)
            mean *= beta1
            mean += (1.0 - beta1) * grads
            square *= beta2
            square += (1.0 - beta2) * grads * grads
            t = epoch + 1
            params -= (MLP_STEP / (1.0 - beta1 ** t)) * mean / (
                np.sqrt(square / (1.0 - beta2 ** t)) + _ADAM_EPS)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """The class of each row along x's last axis."""
        _, logits = self._forward(x)
        return np.argmax(logits, axis=-1)

    def __eq__(self, other):
        return isinstance(other, _Mlp) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _MLP_ARRAYS)

    def to_json(self) -> dict:
        return {name: getattr(self, name).tolist() for name in _MLP_ARRAYS}

    @classmethod
    def from_json(cls, obj, where: str = "model") -> "_Mlp":
        arrays = decode(dict.fromkeys(_MLP_ARRAYS, list), obj, where)
        for name, value in arrays.items():
            # Weights are matrices, biases vectors; the shape is checked
            # before the numbers, so a flat w1 is named as such.
            ndim = np.ndim(np.array(value, dtype=object))
            if ndim != (2 if name.startswith("w") else 1):
                raise ValueError(f"{where}.{name} has {ndim} dimensions")
            tp = tuple[tuple[float, ...], ...] if ndim == 2 else tuple[float, ...]
            arrays[name] = np.array(decode(tp, value, f"{where}.{name}"), dtype=float)
        return cls(**arrays)


def _views(flat: np.ndarray, like) -> list[np.ndarray]:
    """Consecutive pieces of flat shaped like the arrays of like, sharing its memory."""
    pieces = np.split(flat, np.cumsum([a.size for a in like])[:-1])
    return [piece.reshape(a.shape) for piece, a in zip(pieces, like)]


@dataclass(frozen=True)
class SurfaceClassifier(JsonRecord):
    """Maps an index observation at base_spec to one of n_classes cluster ids.

    Normalization statistics come from the training set only; only the
    selected feature positions are used. epochs is the number of Adam
    updates the fit made, and converged whether its weights meet the
    stopping rule; a fit that ran out of epochs has converged False.
    """

    base_spec: ResourceSpec
    selection: FeatureSelection
    mean: tuple[float, ...]
    std: tuple[float, ...]
    model: _Mlp
    training_accuracy: float
    epochs: int
    converged: bool

    def __post_init__(self):
        m = self.model
        _same_sizes("feature", selected=len(self.selection.selected), mean=len(self.mean),
                    std=len(self.std), w1_rows=m.w1.shape[0])
        _same_sizes("hidden", w1_columns=m.w1.shape[1], b1=len(m.b1),
                    w2_rows=m.w2.shape[0])
        _same_sizes("class", w2_columns=m.w2.shape[1], b2=len(m.b2))
        # The selection and statistics as arrays, once, for _features; not
        # fields, so equality and the JSON form stay the fields' alone.
        object.__setattr__(self, "_scaling", (np.array(self.selection.selected, dtype=int),
                                              np.array(self.mean), np.array(self.std)))

    @property
    def n_classes(self) -> int:
        return self.model.w2.shape[1]

    def _features(self, vectors) -> np.ndarray:
        raw = np.array([v.as_array() for v in vectors]).reshape(-1, len(INDEX_NAMES))
        if not np.isfinite(raw).all():
            raise ValueError("index vector contains non-finite values")
        selected, mean, std = self._scaling
        # take keeps each row contiguous, as a lone row is; raw[:, selected]
        # would lay the block out column by column.
        return (raw.take(selected, axis=1) - mean) / std

    def predict_batch(self, vectors) -> np.ndarray:
        """The class of each index vector of vectors, as one int array.

        The forward pass runs on an (n, 1, features) stack of contiguous
        rows: numpy's matmul takes each one-row slice as it takes a lone
        (1, features) row, so every logit has the bits that row alone
        would get, which an (n, features) block does not promise.
        """
        return self.model.predict(self._features(vectors)[:, None, :])[:, 0]

    def predict(self, indexes: SystemIndexVector) -> int:
        return int(self.predict_batch([indexes])[0])


def _same_sizes(what: str, **sizes: int) -> None:
    """Raise ValueError naming every size unless all are equal."""
    if len(set(sizes.values())) > 1:
        listed = ", ".join(f"{name.replace('_', ' ')} {n}" for name, n in sizes.items())
        raise ValueError(f"{what} sizes disagree: {listed}")


def train_classifier(training, base_spec: ResourceSpec,
                     selection: FeatureSelection, rng_seed: int = 0,
                     n_classes: int | None = None,
                     epochs: int = MLP_EPOCHS) -> SurfaceClassifier:
    """Fit the MLP cluster-id classifier on selected, standardized features.

    epochs caps the fit, which stops earlier once it meets the rule of
    MLP_TARGET_ACCURACY and MLP_TARGET_LOSS.
    """
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
    epochs_run, converged = model.train(x, labels, epochs)
    accuracy = float(np.mean(model.predict(x) == labels))
    return SurfaceClassifier(base_spec=base_spec, selection=selection,
                             mean=tuple(float(v) for v in mean),
                             std=tuple(float(v) for v in std),
                             model=model, training_accuracy=accuracy,
                             epochs=epochs_run, converged=converged)


def predict_surface_batch(classifier: SurfaceClassifier, clustering: SurfaceClustering,
                          vectors) -> list[ScalingSurface]:
    """Centroid surface of each index vector's predicted cluster, unmodified."""
    if classifier.n_classes != clustering.k:
        raise ValueError(f"classifier has {classifier.n_classes} classes, "
                         f"clustering has k={clustering.k}")
    centroids = clustering.centroids
    return [centroids[c] for c in classifier.predict_batch(vectors).tolist()]


def predict_surface(classifier: SurfaceClassifier, clustering: SurfaceClustering,
                    indexes: SystemIndexVector) -> ScalingSurface:
    """Centroid surface of the predicted cluster, unmodified."""
    return predict_surface_batch(classifier, clustering, [indexes])[0]


def surface_error(predicted: ScalingSurface, actual: ScalingSurface) -> float:
    """Mean absolute relative speedup error over the grid.

    err = sum_i |predicted_i / actual_i - 1| / N_conf. Asymmetric by
    definition: the actual surface sits in the denominator.
    """
    if predicted.region != actual.region or predicted.base_spec != actual.base_spec:
        raise ValueError("surfaces must share region and base spec")
    ratios = np.abs(predicted.values / actual.values - 1.0)
    # cumsum adds left to right in grid order; np.sum would add pairwise.
    return np.cumsum(ratios).item(-1) / ratios.size


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
        if self.policy == "scale-up" and not self.target_speedup >= 1.0:
            raise ValueError("scale-up target_speedup must be >= 1, "
                             f"got {self.target_speedup}")
        if not 0.0 <= self.performance_tolerance < 1.0:
            raise ValueError("performance_tolerance must be in [0, 1)")
        if not (self.cost_weights[0] >= 0 and self.cost_weights[1] >= 0):
            raise ValueError("cost weights must be non-negative")
        for name, weight in zip(("cores", "memory"), self.cost_weights):
            if not math.isfinite(weight):
                raise ValueError(f"cost weight for {name} must be finite, got {weight}")


def spec_cost(spec: ResourceSpec, weights: tuple[float, float]) -> float:
    return weights[0] * spec.cores + weights[1] * spec.memory_gb


def plan_capacity_batch(requests, surfaces) -> list[ResourceSpec]:
    """Cheapest grid spec meeting each request on its surface.

    Scale-up: speedup(spec) / speedup(current) >= target_speedup.
    Scale-down: speedup(spec) >= (1 - tolerance) * speedup(current).
    One (requests x grid) feasibility mask and one masked argmin over
    each request's cost grid; ties go to lower cost, then fewer cores,
    then less memory. The surfaces share one region. Every current spec
    is read before feasibility is checked; then the first request that
    even its best spec falls short of raises InfeasibleError, carrying
    the best achievable speedup ratio.
    """
    requests, surfaces = list(requests), list(surfaces)
    if len(requests) != len(surfaces):
        raise ValueError(f"{len(requests)} requests but {len(surfaces)} surfaces")
    if not requests:
        return []
    region = surfaces[0].region
    if any(s.region != region for s in surfaces):
        raise ValueError("surfaces must share one region")
    currents = [s.speedup_at(r.current_spec) for r, s in zip(requests, surfaces)]
    thresholds = [r.target_speedup * c if r.policy == "scale-up"
                  else (1.0 - r.performance_tolerance) * c
                  for r, c in zip(requests, currents)]
    values = np.stack([s.values for s in surfaces]).reshape(len(surfaces), -1)
    feasible = values >= np.array(thresholds)[:, None]
    reachable = feasible.any(axis=1)
    if not reachable.all():
        row = int(np.argmin(reachable))
        current, threshold = currents[row], thresholds[row]
        best_ratio = values[row].max().item() / current
        raise InfeasibleError(
            f"no spec reaches {threshold / current:.3f}x of current; "
            f"best achievable is {best_ratio:.3f}x", best_speedup=best_ratio)
    cores, memory = region.core_levels, region.memory_levels_gb
    weights = np.array([r.cost_weights for r in requests], dtype=float)
    cost = (np.multiply(weights[:, :1], cores)[:, :, None]
            + np.multiply(weights[:, 1:], memory)[:, None, :]).reshape(len(requests), -1)
    # The first cheapest feasible entry, cores-major, has the fewest cores,
    # then the least memory. A cost that overflows to inf ties with the
    # masked entries, so a row whose every feasible cost is inf takes its
    # first feasible entry.
    best = np.argmin(np.where(feasible, cost, np.inf), axis=1)
    rows = np.arange(len(requests))
    best = np.where(feasible[rows, best], best, np.argmax(feasible, axis=1))
    return [ResourceSpec(cores[k // len(memory)], memory[k % len(memory)])
            for k in best.tolist()]


def plan_capacity(request: PlanningRequest, surface: ScalingSurface) -> ResourceSpec:
    """Cheapest grid spec meeting the request on the given surface; see
    plan_capacity_batch."""
    return plan_capacity_batch([request], [surface])[0]


@dataclass(frozen=True)
class ModelBundle:
    """Everything the planner learned, in one serializable unit.

    The one classifier maps indexes observed at its base config,
    base_spec, to a cluster of the clustering, whose assignments follow
    training_workload_ids order. Every size that two parts share is
    checked at construction, and the file states each field once.
    """

    seed: int
    region: ConfigRegion
    clustering: SurfaceClustering
    classifier: SurfaceClassifier
    training_workload_ids: tuple[int, ...]
    validation_workload_ids: tuple[int, ...]

    def __post_init__(self):
        _same_sizes("class", classes=self.classifier.n_classes,
                    centroids=self.clustering.k)
        _same_sizes("training", assignments=len(self.clustering.assignments),
                    training_workload_ids=len(self.training_workload_ids))

    @property
    def base_spec(self) -> ResourceSpec:
        return self.classifier.base_spec

    @property
    def selection(self) -> FeatureSelection:
        return self.classifier.selection

    def predict_batch(self, vectors) -> list[ScalingSurface]:
        return predict_surface_batch(self.classifier, self.clustering, vectors)

    def predict(self, indexes: SystemIndexVector) -> ScalingSurface:
        return predict_surface(self.classifier, self.clustering, indexes)

    def to_json(self) -> dict:
        return {"schema": "model-bundle/v2", **fields_json(self)}

    def save(self, path) -> None:
        write_json(path, self.to_json())

    @classmethod
    def from_json(cls, obj, where: str = "bundle") -> "ModelBundle":
        """Load a bundle; its clustering's centroids lie on the bundle's region."""
        got = decode({"schema": Literal["model-bundle/v2"], "seed": int,
                      "region": ConfigRegion, "clustering": dict,
                      "classifier": SurfaceClassifier,
                      "training_workload_ids": tuple[int, ...],
                      "validation_workload_ids": tuple[int, ...]}, obj, where)
        del got["schema"]
        got["clustering"] = SurfaceClustering.from_json(
            got["region"], got["clustering"], f"{where}.clustering")
        try:
            return cls(**got)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    @classmethod
    def load(cls, path) -> "ModelBundle":
        return cls.from_json(read_json(path), f"{path}: bundle")
