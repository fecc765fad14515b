"""Missing-value imputation: simple column strategies, nearest-neighbour
averaging, and iterative chained-equation regression.

All fitted quantities (fill values, neighbour pools, regression
coefficients) come from the training partition only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ColumnStats, Dataset, column_stats

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
        if self.k < 1:
            raise ImputeError("k must be >= 1")


@dataclass(frozen=True)
class MiceParams:
    n_iterations: int = 5
    initial_fill: str = "mean"          # mean | median
    seed: int = 0
    noise_mode: str = "deterministic_prediction"  # or gaussian_residual_draw
    ridge: float = 1e-8

    def __post_init__(self):
        if self.n_iterations < 1:
            raise ImputeError("n_iterations must be >= 1")
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


def _train_stats(train: Dataset) -> list[ColumnStats]:
    """column_stats of the training rows, none of them all missing."""
    stats = column_stats(train)
    for s in stats:
        if s.mean is None:
            raise ImputeError(f"column {s.column_id} entirely missing in training data")
    return stats


def fit_simple_plan(plan: SimpleImputePlan, train: Dataset) -> SimpleImputePlan:
    """Fit fill values on the training rows for every column of the plan."""
    fills = {}
    for j, s in enumerate(_train_stats(train)):
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
    after = {s.column_id: s.skewness for s in column_stats(simple_impute(plan, train))}
    toggled = False
    for s in stats:
        strat = plan.strategies[s.column_id]
        if (s.column_id not in overrides and s.skewness is not None
                and strat in ("mean", "median") and s.skewness * after[s.column_id] < 0):
            plan.override(s.column_id, "median" if strat == "mean" else "mean")
            toggled = True
    return fit_simple_plan(plan, train) if toggled else plan


def _fill_ordered(col: np.ndarray, strategy: str, fallback: float) -> np.ndarray:
    """Forward / backward / linear interpolation over row order."""
    out = col.copy()
    present = ~np.isnan(out)
    if not present.any():
        out[:] = fallback
        return out
    idx = np.arange(len(out))
    if strategy == "forward":
        # last present value at or before each row
        last = np.where(present, idx, -1)
        last = np.maximum.accumulate(last)
        filled = np.where(last >= 0, out[np.maximum(last, 0)], np.nan)
        out = np.where(present, out, filled)
        # leading gap: backward fill, then mean
        still = np.isnan(out)
        if still.any():
            out = _fill_ordered(out, "backward", fallback)
    elif strategy == "backward":
        nxt = np.where(present, idx, len(out))
        nxt = np.minimum.accumulate(nxt[::-1])[::-1]
        filled = np.where(nxt < len(out), out[np.minimum(nxt, len(out) - 1)], np.nan)
        out = np.where(present, out, filled)
        still = np.isnan(out)
        if still.any():
            out[still] = fallback
    elif strategy == "linear_interpolation":
        out[~present] = np.interp(idx[~present], idx[present], out[present])
        # np.interp extends flat at the edges; replace pure extrapolation with mean
        first, last = idx[present][0], idx[present][-1]
        edge = (~present) & ((idx < first) | (idx > last))
        out[edge] = fallback
    else:
        raise ImputeError(f"unknown ordered strategy {strategy!r}")
    return out


def simple_impute(plan: SimpleImputePlan, d: Dataset) -> Dataset:
    """Fill every missing cell per the plan. Present cells are untouched."""
    if not plan.fill_values:
        raise ImputeError("plan has no fitted fill values; call fit_simple_plan first")
    v = d.features.values.copy()
    for j, cid in enumerate(d.column_ids):
        cid = int(cid)
        if cid not in plan.strategies:
            raise ImputeError(f"plan does not cover column {cid}")
        strat = plan.strategies[cid]
        fill = plan.fill_values[cid]
        col = v[:, j]
        missing = np.isnan(col)
        if not missing.any():
            continue
        if strat in ("mean", "median", "most_frequent"):
            col[missing] = fill
        else:
            col[:] = _fill_ordered(col, strat, fill)
    return d.with_values(v)


def knn_impute(p: KnnImputeParams, train: Dataset, target: Dataset) -> Dataset:
    """Fill each missing cell with the mean of the column's values among the
    k nearest training rows.

    Distance is Euclidean over mutually present features, normalised by the
    shared-feature count.  Neighbours missing the needed column are skipped
    in favour of the next nearest; with no eligible neighbour the column's
    training mean is used.
    """
    if not np.array_equal(train.column_ids, target.column_ids):
        raise ImputeError("train and target column ids differ")
    col_means = [s.mean for s in _train_stats(train)]
    tv = train.features.values
    tp = ~np.isnan(tv)
    short = tp.sum(axis=0) < p.k
    if short.any():
        cid = int(train.column_ids[np.nonzero(short)[0][0]])
        raise ImputeError(f"column {cid} has fewer than k={p.k} present training rows")

    out = target.features.values.copy()
    tv0 = np.where(tp, tv, 0.0)
    for r in range(target.n_rows):
        row = out[r]
        missing = np.isnan(row)
        if not missing.any():
            continue
        rp = ~missing
        if rp.any():
            shared = tp[:, rp]                       # (n_train, n_shared_candidates)
            diff = tv0[:, rp] - np.where(shared, row[rp], 0.0)
            diff[~shared] = 0.0
            cnt = shared.sum(axis=1)
            with np.errstate(invalid="ignore", divide="ignore"):
                dist = np.sqrt((diff ** 2).sum(axis=1) / cnt)
            dist[cnt == 0] = np.inf
        else:
            dist = np.full(train.n_rows, np.inf)
        order = np.argsort(dist, kind="stable")
        order = order[np.isfinite(dist[order])]
        for j in np.nonzero(missing)[0]:
            donors = order[tp[order, j]][: p.k]
            out[r, j] = tv[donors, j].mean() if len(donors) == p.k else col_means[j]
    return target.with_values(out)


def mice_impute(p: MiceParams, train: Dataset, target: Dataset) -> Dataset:
    """Chained-equation imputation: iteratively regress each incomplete
    column on all others and refill its missing entries.

    Regressions are ridge-damped least squares fitted on training rows where
    the column is observed.  gaussian_residual_draw mode adds seeded noise
    with the training residual scale; the default is the deterministic
    fitted mean.
    """
    if not np.array_equal(train.column_ids, target.column_ids):
        raise ImputeError("train and target column ids differ")
    if train.n_cols < 2:
        raise ImputeError("chained-equation imputation needs at least 2 columns")

    fills = [s.median if p.initial_fill == "median" else s.mean for s in _train_stats(train)]
    n_train = train.n_rows
    state = np.vstack([train.features.values, target.features.values])
    orig_missing = np.isnan(state)
    np.copyto(state, fills, where=orig_missing)

    rng = np.random.default_rng(p.seed)
    n_cols = state.shape[1]
    incomplete = [j for j in range(n_cols) if orig_missing[:, j].any()]

    for _ in range(p.n_iterations):
        for j in incomplete:
            others = [c for c in range(n_cols) if c != j]
            obs = np.flatnonzero(~orig_missing[:n_train, j])    # observed training rows
            if len(obs) < 2:
                raise ImputeError(f"column index {j} has fewer than 2 observed training rows")
            Xc = state[obs][:, others]
            y = state[obs, j]
            Xm, ym = Xc.mean(axis=0), y.mean()
            Xc -= Xm
            yc = y - ym
            gram = Xc.T @ Xc + p.ridge * np.eye(len(others))
            miss = orig_missing[:, j]
            try:
                beta = np.linalg.solve(gram, Xc.T @ yc)
            except np.linalg.LinAlgError:
                # singular even after damping: column-mean refill this sweep
                state[miss, j] = ym
                continue
            # one row-wise sum over a C-ordered operand: each row's prediction
            # is the same bits whatever other rows share the batch (a matrix
            # product, or the F-ordered fancy-index result, would not be)
            pred = (np.ascontiguousarray(state[miss][:, others] - Xm) * beta).sum(axis=1) + ym
            if p.noise_mode == "gaussian_residual_draw":
                resid = yc - Xc @ beta
                sigma = float(np.sqrt((resid ** 2).mean()))
                pred = pred + rng.normal(0.0, sigma, size=len(pred))
            state[miss, j] = pred

    return target.with_values(state[n_train:])
