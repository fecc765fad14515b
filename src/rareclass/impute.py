"""Missing-value imputation: simple column strategies, nearest-neighbour
averaging, and iterative chained-equation regression.

Each imputer, called (params, table, *, n_train), fills the whole table and
fits only on its first n_train rows: fill values, donor pools, regressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .data import ColumnStats, Dataset, column_stats, is_count

__all__ = [
    "SimpleImputePlan",
    "KnnImputeParams",
    "MiceParams",
    "ImputeError",
    "assign_simple_strategies",
    "fit_simple_plan",
    "fit_skew_refined_plan",
    "simple_impute",
    "knn_impute",
    "mice_impute",
]

SIMPLE_STRATEGIES = ("mean", "median", "most_frequent", "forward", "backward",
                     "linear_interpolation")
MICE_RIDGE = 1e-8       # added to the diagonal of every column's regression system


class ImputeError(ValueError):
    pass


@dataclass
class SimpleImputePlan:
    """Per-column strategy with fill values fitted on training rows."""

    strategies: dict            # column_id -> strategy name
    fill_values: dict = field(default_factory=dict)   # column_id -> fitted value

    def override(self, column_id: int, strategy: str) -> None:
        if strategy not in SIMPLE_STRATEGIES:
            raise ImputeError(f"unknown strategy {strategy!r}")
        self.strategies[int(column_id)] = strategy


@dataclass(frozen=True)
class KnnImputeParams:
    k: int = 5

    def __post_init__(self):
        if not is_count(self.k):
            raise ImputeError(f"k must be an integer >= 1, got {self.k!r}")


@dataclass(frozen=True)
class MiceParams:
    n_iterations: int = 5
    initial_fill: str = "mean"          # mean | median
    seed: int = 0
    noise_mode: str = "deterministic_prediction"  # or gaussian_residual_draw

    def __post_init__(self):
        if not is_count(self.n_iterations):
            raise ImputeError(f"n_iterations must be an integer >= 1, got {self.n_iterations!r}")
        if self.initial_fill not in ("mean", "median"):
            raise ImputeError("initial_fill must be mean or median")
        if self.noise_mode not in ("deterministic_prediction", "gaussian_residual_draw"):
            raise ImputeError(f"unknown noise_mode {self.noise_mode!r}")


def assign_simple_strategies(train_stats: list[ColumnStats], skew_threshold: float = 1.0) -> SimpleImputePlan:
    """Median for columns with |skewness| strictly above the threshold,
    mean otherwise."""
    strategies = {}
    for s in train_stats:
        skew = s.skewness if s.skewness is not None else 0.0
        strategies[s.column_id] = "median" if abs(skew) > skew_threshold else "mean"
    return SimpleImputePlan(strategies)


def _check_n_train(d: Dataset, n_train: int) -> None:
    if not 1 <= n_train <= d.n_rows:
        raise ImputeError(f"n_train must be in [1, {d.n_rows}], got {n_train}")


def _train_stats(d: Dataset, n_train: int) -> list[ColumnStats]:
    """column_stats of d's first n_train rows; no column may be all missing."""
    _check_n_train(d, n_train)
    stats = column_stats(d.take_rows(np.arange(n_train)))
    for s in stats:
        if s.mean is None:
            raise ImputeError(f"column {s.column_id} entirely missing in training data")
    return stats


def fit_simple_plan(plan: SimpleImputePlan, train: Dataset) -> SimpleImputePlan:
    """Fit fill values on the training rows for every column of the plan."""
    fills = {}
    for j, s in enumerate(_train_stats(train, train.n_rows)):
        if s.column_id not in plan.strategies:
            raise ImputeError(f"plan does not cover column {s.column_id}")
        strat = plan.strategies[s.column_id]
        if strat == "most_frequent":
            col = train.features.values[:, j]
            vals, counts = np.unique(col[~np.isnan(col)], return_counts=True)
            fills[s.column_id] = float(vals[np.argmax(counts)])
        else:
            # the mean is also the boundary fallback of the order-based strategies
            fills[s.column_id] = s.median if strat == "median" else s.mean
    return SimpleImputePlan(dict(plan.strategies), fills)


def fit_skew_refined_plan(train: Dataset, skew_threshold: float = 1.0,
                          overrides: dict | None = None) -> SimpleImputePlan:
    """Assign strategies by skewness, apply the overrides and fit on the
    training rows, with one bounded refinement pass: a mean or median
    column whose skewness changes sign once filled toggles once between
    mean and median, and the plan is refitted."""
    overrides = overrides or {}
    stats = column_stats(train)
    plan = assign_simple_strategies(stats, skew_threshold)
    for cid, strat in overrides.items():
        plan.override(cid, strat)
    plan = fit_simple_plan(plan, train)
    filled = simple_impute(plan, train, n_train=train.n_rows)
    after = {s.column_id: s.skewness for s in column_stats(filled)}
    toggled = False
    for s in stats:
        strat = plan.strategies[s.column_id]
        if (s.column_id not in overrides and s.skewness is not None
                and strat in ("mean", "median") and s.skewness * after[s.column_id] < 0):
            plan.override(s.column_id, "median" if strat == "mean" else "mean")
            toggled = True
    return fit_simple_plan(plan, train) if toggled else plan


def _fill_ordered(col: np.ndarray, strategy: str, fallback: float) -> np.ndarray:
    """Forward / backward / linear interpolation over row order.  A forward
    fill's leading gap takes the next present value; a backward fill's
    trailing gap and an interpolation's edges take the fallback."""
    present = ~np.isnan(col)
    if not present.any():
        return np.full_like(col, fallback)
    n, idx = len(col), np.arange(len(col))
    prev = np.maximum.accumulate(np.where(present, idx, -1))          # -1: leading gap
    nxt = np.minimum.accumulate(np.where(present, idx, n)[::-1])[::-1]   # n: trailing gap
    if strategy == "forward":
        return col[np.where(prev >= 0, prev, nxt)]
    if strategy == "backward":
        out = col[np.minimum(nxt, n - 1)]
    elif strategy == "linear_interpolation":
        out = col.copy()
        out[~present] = np.interp(idx[~present], idx[present], col[present])
        out[prev < 0] = fallback
    else:
        raise ImputeError(f"unknown ordered strategy {strategy!r}")
    out[nxt == n] = fallback
    return out


def simple_impute(plan: SimpleImputePlan, d: Dataset, *, n_train: int) -> Dataset:
    """Fill every missing cell per the plan; present cells are untouched.  The
    order-based strategies fill rows [:n_train] and [n_train:] apart."""
    if not plan.fill_values:
        raise ImputeError("plan has no fitted fill values; call fit_simple_plan first")
    _check_n_train(d, n_train)
    v = d.features.values.copy()
    for j, cid in enumerate(d.column_ids.tolist()):
        if cid not in plan.strategies:
            raise ImputeError(f"plan does not cover column {cid}")
        strat, fill, col = plan.strategies[cid], plan.fill_values[cid], v[:, j]
        if strat in ("mean", "median", "most_frequent"):
            col[np.isnan(col)] = fill
        else:
            for part in (col[:n_train], col[n_train:]):
                part[:] = _fill_ordered(part, strat, fill)
    return d.with_values(v)


def _knn_fill_row(row: np.ndarray, tv0: np.ndarray, tp: np.ndarray, col_means: list,
                  k: int) -> np.ndarray:
    """row with its missing cells filled in place, from the training rows
    and itself alone (a pmap item).  tp marks the training rows' present
    cells and tv0 holds their values, 0 where missing."""
    missing = np.isnan(row)
    rp = ~missing
    shared = tp[:, rp]                               # (n_train, n_shared_candidates)
    diff = tv0[:, rp] - np.where(shared, row[rp], 0.0)
    diff[~shared] = 0.0
    cnt = shared.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        dist = np.sqrt((diff ** 2).sum(axis=1) / cnt)
    dist[cnt == 0] = np.inf
    order = np.argsort(dist, kind="stable")
    order = order[np.isfinite(dist[order])]
    for j in np.nonzero(missing)[0]:
        donors = order[tp[order, j]][:k]             # present in column j: tv0 is tv there
        row[j] = tv0[donors, j].mean() if len(donors) == k else col_means[j]
    return row


def knn_impute(p: KnnImputeParams, d: Dataset, *, n_train: int) -> Dataset:
    """Fill each missing cell of d with the mean of the column's values
    among the k nearest of d's first n_train rows (the training rows).

    Distance is Euclidean over mutually present features, normalised by the
    shared-feature count.  Neighbours missing the needed column are skipped
    in favour of the next nearest; with no eligible neighbour the column's
    training mean is used.

    What runs where: each row with a missing cell is one `pmap` item.  A
    row's fill reads only the training rows and that row, so the result is
    the same at any worker count.
    """
    col_means = [s.mean for s in _train_stats(d, n_train)]
    tv = d.features.values[:n_train]
    tp = ~np.isnan(tv)
    short = tp.sum(axis=0) < p.k
    if short.any():
        cid = int(d.column_ids[np.nonzero(short)[0][0]])
        raise ImputeError(f"column {cid} has fewer than k={p.k} present training rows")

    out = d.features.values.copy()
    tv0 = np.where(tp, tv, 0.0)
    todo = np.flatnonzero(np.isnan(out).any(axis=1))
    for i, row in zip(todo, parallel.pmap(_knn_fill_row, [(out[i], tv0, tp, col_means, p.k)
                                                         for i in todo])):
        out[i] = row
    return d.with_values(out)


def mice_impute(p: MiceParams, d: Dataset, *, n_train: int) -> Dataset:
    """Chained-equation imputation (van Buuren & Groothuis-Oudshoorn 2011):
    iteratively regress each incomplete column on all others and refill its
    missing entries in every row of d.

    Regressions are ridge-damped least squares fitted where the column is
    observed in d's first n_train rows (the training rows), whose returned
    fills are the ones those fits saw.  gaussian_residual_draw mode adds
    seeded noise of scale sqrt(v'Cv / n_obs), v = insert(-beta, j, 1),
    from one stream for the training rows and one for the rest, so the
    training fills depend on the training rows alone; the default is the
    deterministic fitted mean.

    The fitting rows are kept as Z = training rows minus their initial
    fills, with S = Z'Z and the column sums of Z.  Column j's system C takes
    out the k_j rows where j is missing and centres with n_obs * mu mu',
    or, where n_obs <= k_j, is built from the n_obs centred observed rows;
    after its fill, row and column j of S are fresh dot products.  A step
    costs O(min(k_j, n_obs) * p^2 + n * p) plus the solve, not O(n * p^2).
    """
    if d.n_cols < 2:
        raise ImputeError("chained-equation imputation needs at least 2 columns")

    fills = np.array([s.median if p.initial_fill == "median" else s.mean
                      for s in _train_stats(d, n_train)])
    state = d.features.values.copy()
    orig_missing = np.isnan(state)
    np.copyto(state, fills, where=orig_missing)

    n_cols = state.shape[1]
    incomplete = [j for j in range(n_cols) if orig_missing[:, j].any()]
    n_obs = n_train - orig_missing[:n_train].sum(axis=0)
    for j in incomplete:
        if n_obs[j] < 2:
            raise ImputeError(f"column {int(d.column_ids[j])} has fewer than 2 "
                              "observed training rows")

    Z = state[:n_train] - fills
    S = Z.T @ Z
    sums = Z.sum(axis=0)
    fit_rng, target_rng = (np.random.default_rng([p.seed, k]) for k in (0, 1))

    for _ in range(p.n_iterations):
        for j in incomplete:
            rows = np.flatnonzero(orig_missing[:, j])
            k = int(np.searchsorted(rows, n_train))     # rows[:k] are fitting rows
            if k < n_obs[j]:
                Zm = Z[rows[:k]]
                mu = (sums - Zm.sum(axis=0)) / n_obs[j]   # mean of Z over observed rows
                C = S - Zm.T @ Zm
                C -= n_obs[j] * mu[:, None] * mu
            else:
                # no more observed rows than missing ones: centring them
                # directly is cheaper, and it does not cancel S down to a
                # spread that is small beside it
                Zo = Z[np.flatnonzero(~orig_missing[:n_train, j])]
                mu = Zo.mean(axis=0)
                Zo = Zo - mu
                C = Zo.T @ Zo
            # a column constant on the observed rows (a regressor filled
            # there, say) is left with the rounding of the downdate or of
            # its mean; zero its row and column, so its weight is 0.  The
            # cut sits at that rounding level, not above it: a regressor
            # that varies a little on the observed rows keeps its weight
            flat = np.diagonal(C) <= 1e-13 * np.diagonal(S)
            C[flat] = 0.0
            C[:, flat] = 0.0
            gram = np.delete(np.delete(C, j, 0), j, 1)
            gram.flat[::n_cols] += MICE_RIDGE                # diagonal of the (p-1)x(p-1) system
            means = mu + fills
            Xm, ym = np.delete(means, j), means[j]
            try:
                beta = np.linalg.solve(gram, np.delete(C[j], j))
            except np.linalg.LinAlgError:
                # singular even after damping: column-mean refill this sweep
                state[rows, j] = ym
            else:
                # one row-wise sum over a C-ordered operand: each row's
                # prediction is the same bits whatever other rows share the
                # batch (a matrix product would not be)
                pred = (np.ascontiguousarray(np.delete(state[rows], j, 1) - Xm) * beta).sum(axis=1) + ym
                if p.noise_mode == "gaussian_residual_draw":
                    # the residual sum of squares over the observed training
                    # rows; a near-exact fit can cancel to just below 0
                    v = np.insert(-beta, j, 1.0)
                    sigma = float(np.sqrt(max(v @ C @ v, 0.0) / n_obs[j]))
                    pred[:k] += fit_rng.normal(0.0, sigma, size=k)
                    pred[k:] += target_rng.normal(0.0, sigma, size=len(pred) - k)
                state[rows, j] = pred
            if k:     # S's bits must not follow which target cells are missing
                Z[rows[:k], j] = state[rows[:k], j] - fills[j]
                S[:, j] = S[j] = Z[:, j] @ Z
                sums[j] = Z[:, j].sum()

    return d.with_values(state)
