"""The single-path Lasso homotopy and the cross-validation that the stacked walk replaced.

_lasso_path is the planner's one-path walk, and select_features_cv its
cross-validation that walked each fold alone and then refit with
select_features, as they were before every path of a cross-validation
stepped its knots together. Both are copied verbatim but for reading the
planner's constants and helpers from the planner module, so the tests
can compare the stacked walk with them bit for bit.
"""

from __future__ import annotations

import numpy as np

from capsched import planner


def _lasso_path(gram: np.ndarray, corr: np.ndarray, lams) -> np.ndarray:
    """Exact Lasso coefficients at every lam of lams, one row each.

    Minimizes ½bᵀGb − cᵀb + lam·‖b‖₁, which on G = XsᵀXs/n and
    c = Xsᵀyc/n is (1/2n)‖yc − Xs·b‖² + lam·‖b‖₁ up to a constant. This
    is the homotopy (LARS-Lasso) method: from lam_max = max|c|, where b
    is zero, the solution is linear in lam between knots, each knot a
    column joining the active set (its correlation c − Gb reaches ±lam)
    or leaving it (its coefficient reaches zero). Every segment solves
    its active block afresh, and the rows of lams it spans are read off
    that linear piece.

    A column with a zero on G's diagonal never joins, nor does one that
    is a combination of the active columns, so when n < p the active set
    stops growing at the rank of the centred data and lam = 0 ends at
    that set's least-squares fit. Events within 1e-12·lam_max of one
    another count as one, and the lowest column index goes first.
    Raises RuntimeError after LASSO_MAX_KNOTS knots, which only a
    cycling path reaches.
    """
    lams = np.asarray(lams, dtype=float)
    p = len(corr)
    out = np.zeros((len(lams), p))
    diag = np.diag(gram)
    lam = float(np.max(np.abs(corr), initial=0.0))
    lam_end = float(lams.min())
    pending = lams < lam
    if not pending.any():
        return out
    tie = 1e-12 * lam
    on = np.zeros(p, dtype=bool)
    signs = np.zeros(p)
    for _ in range(planner.LASSO_MAX_KNOTS):
        active = np.flatnonzero(on)
        rows = gram[active]
        # On this segment b_A(l) = u − l·d, and W = G_AA⁻¹·G_A writes
        # every column in terms of the active ones.
        solved = np.linalg.solve(rows[:, active], np.column_stack(
            (corr[active], signs[active], rows)))
        u, d, w = solved[:, 0], solved[:, 1], solved[:, 2:]
        beta = u - lam * d
        residual = corr - beta @ rows
        slope = signs[active] @ w
        # Zero for an active column, a zero-variance one, or a combination
        # of the active ones: none of these can join.
        outside = diag - np.einsum("ij,ij->j", rows, w)
        # As lam falls by t, an inactive correlation r moves by −t·slope
        # and reaches +lam at t = (lam − r)/(1 − slope), −lam at
        # t = (lam + r)/(1 + slope); an active b moves by t·d and
        # reaches zero at t = −b/d.
        with np.errstate(divide="ignore", invalid="ignore"):
            up = np.where(slope < 1, np.maximum(lam - residual, 0) / (1 - slope), np.inf)
            down = np.where(slope > -1, np.maximum(lam + residual, 0) / (1 + slope),
                            np.inf)
            drop = np.where(signs[active] * d < 0,
                            np.maximum(signs[active] * beta, 0) / np.abs(d), np.inf)
        event = np.where(outside > planner._DEPENDENT_TOL * diag, np.minimum(up, down), np.inf)
        event[active] = drop
        step = float(event.min())
        low = max(lam - step, lam_end)
        take = pending & (lams >= low)
        out[np.ix_(take, active)] = u - np.outer(lams[take], d)
        pending &= ~take
        if low == lam_end:
            return out
        lam = low
        j = int(np.flatnonzero(event <= step + tie)[0])
        if on[j]:
            on[j], signs[j] = False, 0.0
        else:
            on[j], signs[j] = True, 1.0 if up[j] <= down[j] else -1.0
    raise RuntimeError(f"Lasso path did not reach lambda={lam_end:g} "
                       f"in {planner.LASSO_MAX_KNOTS} knots")


def select_features_cv(samples, rng_seed: int) -> planner.FeatureSelection:
    """Pick lambda by CV_FOLDS-fold cross-validation, then refit on all samples.

    Each fold fits one Lasso path over the whole grid. Ties in
    validation error go to the larger lambda (sparser model). Raises
    ValueError when no fold has both a validation sample and two
    training samples.
    """
    x, y = planner._as_matrix(samples)
    n = len(y)
    folds = min(planner.CV_FOLDS, n)
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 11]))
    order = rng.permutation(n)
    fold_of = np.zeros(n, dtype=int)
    for pos, idx in enumerate(order):
        fold_of[idx] = pos % folds
    grid = planner.lambda_grid()
    errors = []
    for f in range(folds):
        train, val = fold_of != f, fold_of == f
        if not val.any() or train.sum() < 2:
            continue
        gram, corr, mean, std, y_mean = planner._gram(x[train], y[train])
        betas = _lasso_path(gram, corr, grid)
        pred = ((x[val] - mean) / std) @ betas.T + y_mean
        errors.append(np.mean((pred - y[val][:, None]) ** 2, axis=0))
    if not errors:
        raise ValueError(f"cross-validation needs at least 3 samples, got {n}")
    best_lam, best_mse = None, None
    for lam, mse in zip(grid, np.mean(errors, axis=0)):
        mse = float(mse)
        if best_mse is None or mse < best_mse - 1e-12 or (
                abs(mse - best_mse) <= 1e-12 and lam > best_lam):
            best_lam, best_mse = float(lam), mse
    return planner.select_features(samples, best_lam)
