"""Vote-based feature selection.

A roster of selectors each nominates a feature subset from the training
partition; a feature enters the final set when at least `threshold`
selectors chose it.  Estimator-backed selectors train with the minority
class up-weighted so the vote is biased toward rare-class signal.
"""

from __future__ import annotations

import functools
import hashlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import models
from .data import Dataset, FeatureMatrix
from .metrics import confusion, metric_set
from .parallel import pmap
from .preprocess import stratified_kfold

__all__ = [
    "SelectorDecision",
    "FeatureVoteLedger",
    "FeatselError",
    "select_f_score",
    "select_mutual_info",
    "select_lasso",
    "select_boruta",
    "select_rfe",
    "select_sfs",
    "vote",
    "ROSTERS",
    "run_roster",
    "run_default_roster",
]


class FeatselError(ValueError):
    pass


@dataclass(frozen=True)
class SelectorDecision:
    name: str
    selected: tuple                  # column ids
    scores: dict = field(default_factory=dict)   # column_id -> score
    universe: tuple = ()             # all column ids the selector considered
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FeatureVoteLedger:
    votes: dict                      # column_id -> vote count
    contributors: dict               # column_id -> tuple of selector names
    threshold: int
    selected: tuple

    def max_vote_features(self) -> tuple:
        if not self.votes:
            return ()
        top = max(self.votes.values())
        return tuple(sorted(c for c, v in self.votes.items() if v == top))

    def to_csv(self) -> str:
        lines = ["column_id,votes,contributors"]
        order = sorted(self.votes, key=lambda c: (-self.votes[c], c))
        for c in order:
            names = ";".join(self.contributors[c])
            lines.append(f"{c},{self.votes[c]},{names}")
        return "\n".join(lines) + "\n"


def _check(train: Dataset, n_keep: int | None = None):
    """Imputed training data with both classes, and a budget, if given,
    within the columns."""
    if np.isnan(train.features.values).any():
        raise FeatselError("training data must be imputed before feature selection")
    counts = np.bincount(train.labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise FeatselError("both classes required")
    if n_keep is not None and not 1 <= n_keep <= train.n_cols:
        raise FeatselError(f"n_keep must be in [1, {train.n_cols}], got {n_keep}")


def _decision(name: str, train: Dataset, selected, scores=(), **diagnostics) -> SelectorDecision:
    """A selector's decision over all of `train`'s columns; `scores` holds
    one score per column, in column order."""
    ids = train.column_ids.tolist()
    return SelectorDecision(name, tuple(int(c) for c in selected),
                            scores=dict(zip(ids, scores)), universe=tuple(ids),
                            diagnostics=diagnostics)


def _minority_weight(labels: np.ndarray) -> float:
    counts = np.bincount(labels, minlength=2)
    return counts[0] / counts[1]


def _top_by_score(column_ids, score: np.ndarray, n_keep: int) -> np.ndarray:
    # descending score, ties to the lower column id
    return column_ids[np.lexsort((column_ids, -score))[:n_keep]]


def select_f_score(train: Dataset, n_keep: int) -> SelectorDecision:
    """One-way ANOVA F statistic of each column between the two classes."""
    _check(train, n_keep)
    X = train.features.values
    y = train.labels
    n = len(y)
    grand = X.mean(axis=0)
    g0, g1 = X[y == 0], X[y == 1]
    n0, n1 = len(g0), len(g1)
    m0, m1 = g0.mean(axis=0), g1.mean(axis=0)
    ssb = n0 * (m0 - grand) ** 2 + n1 * (m1 - grand) ** 2
    ssw = ((g0 - m0) ** 2).sum(axis=0) + ((g1 - m1) ** 2).sum(axis=0)
    msb = ssb / 1.0                      # k - 1 = 1
    msw = ssw / (n - 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        f_vals = msb / msw
    zero_within = msw <= 0
    f_vals[zero_within & (np.abs(m0 - m1) > 0)] = np.inf
    f_vals[zero_within & (np.abs(m0 - m1) == 0)] = 0.0
    return _decision("f_score", train, _top_by_score(train.column_ids, f_vals, n_keep),
                     f_vals.tolist())


def _mutual_info_column(col: np.ndarray, y: np.ndarray, n_bins: int) -> float:
    edges = np.quantile(col, np.linspace(0, 1, n_bins + 1)[1:-1])
    edges = np.unique(edges)
    bins = np.searchsorted(edges, col, side="right")
    n = len(y)
    joint = np.bincount(bins * 2 + y, minlength=2 * len(edges) + 2).reshape(-1, 2)
    p_bin, p_cls = joint.sum(axis=1) / n, joint.sum(axis=0) / n
    mi = 0.0
    # bins ascending, class 0 before class 1, empty cells skipped
    for b, cls in zip(*np.nonzero(joint)):
        pij = joint[b, cls] / n
        mi += pij * math.log(pij / (p_bin[b] * p_cls[cls]))
    return max(mi, 0.0)


def select_mutual_info(train: Dataset, n_keep: int, n_bins: int = 8) -> SelectorDecision:
    """Plug-in mutual information with the label after equal-frequency
    discretization of each column."""
    _check(train, n_keep)
    if n_bins < 2:
        raise FeatselError("n_bins must be >= 2")
    X = train.features.values
    mi = np.array([_mutual_info_column(X[:, j], train.labels, n_bins)
                   for j in range(train.n_cols)])
    return _decision(f"mutual_info_{n_bins}", train,
                     _top_by_score(train.column_ids, mi, n_keep), mi.tolist())


LASSO_TOL, LASSO_MAX_SWEEPS = 1e-7, 10_000     # stop at a sweep moving no weight by tol


def select_lasso(train: Dataset, lam: float) -> SelectorDecision:
    """L1-regularized least squares on the +/-1 label, solved by cyclic
    coordinate descent on internally standardized columns.

    Objective: (1/2n) ||y - Xw||^2 + lam * ||w||_1.  Selected features are
    the nonzero coefficients.
    """
    _check(train)
    if lam < 0:
        raise FeatselError("lambda must be >= 0")
    X = train.features.values
    y = np.where(train.labels == 1, 1.0, -1.0)
    y = y - y.mean()
    n, p = X.shape
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    live = sd > 0
    Z = np.zeros_like(X)
    Z[:, live] = (X[:, live] - mu[live]) / sd[live]

    w = np.zeros(p)
    r = y.copy()                    # residual y - Zw
    objective = []

    def obj() -> float:
        return float((r @ r) / (2 * n) + lam * np.abs(w).sum())

    objective.append(obj())
    for _ in range(LASSO_MAX_SWEEPS):
        delta = 0.0
        for j in range(p):
            if not live[j]:
                continue
            zj = Z[:, j]
            rho = (zj @ r) / n + w[j]          # since mean(zj^2) == 1
            new = math.copysign(max(abs(rho) - lam, 0.0), rho)
            if new != w[j]:
                r += zj * (w[j] - new)
                delta = max(delta, abs(new - w[j]))
                w[j] = new
        objective.append(obj())
        if delta < LASSO_TOL:
            break

    grad, wl = -(Z.T @ r)[live] / n, w[live]
    kkt = float(np.max(np.where(wl != 0, np.abs(grad + lam * np.sign(wl)), np.abs(grad) - lam),
                       initial=0.0))

    return _decision(f"lasso_{lam:g}", train, train.column_ids[w != 0], np.abs(w).tolist(),
                     objective_trace=objective, kkt_residual=kkt, n_sweeps=len(objective) - 1)


BORUTA_ALPHA, BORUTA_MAX_DEPTH = 0.05, 5       # binomial test level, shadow forest depth
BORUTA_ROUNDS, BORUTA_TREES = 20, 40            # shadow rounds, trees per shadow forest


def _boruta_round(train: Dataset, seed: int, it: int, n_trees: int) -> np.ndarray:
    """One shadow round, seeded by its index (a pmap task): which real
    columns beat the best shadow column's importance."""
    X, p = train.features.values, train.n_cols
    rng = np.random.default_rng([seed, it])
    shadows = np.empty_like(X)
    for j in range(p):
        shadows[:, j] = rng.permutation(X[:, j])
    both = Dataset(FeatureMatrix(np.hstack([X, shadows]), np.arange(2 * p)), train.labels)
    spec = models.ModelSpec("random_forest",
                            {"n_trees": n_trees, "max_depth": BORUTA_MAX_DEPTH, "min_leaf": 5},
                            seed=int(rng.integers(2 ** 31)))
    imp = models.train(spec, both, class_weight=_minority_weight(train.labels)).state["importance"]
    real, shadow = imp[:p], imp[p:]
    return real > shadow.max()


def _half_binom_mass(n: int, ks) -> float:
    """P(X in ks) for X ~ Binomial(n, 1/2), exactly rounded."""
    return sum(math.comb(n, k) for k in ks) / 2 ** n


def select_boruta(train: Dataset, seed: int = 0) -> SelectorDecision:
    """Shadow-feature wrapper: each round pits random-forest importances
    against per-column permuted copies; a binomial test over rounds
    classifies features as confirmed, rejected, or tentative.  Only
    confirmed features are selected."""
    _check(train)
    n, n_trees = BORUTA_ROUNDS, BORUTA_TREES     # read here, so a patch reaches the workers
    hits = np.zeros(train.n_cols, dtype=np.int64)
    for beat in pmap(_boruta_round, [(train, seed, it, n_trees) for it in range(n)]):
        hits += beat

    confirmed, rejected, tentative = [], [], []
    for j, cid in enumerate(train.column_ids):
        h = int(hits[j])
        if _half_binom_mass(n, range(h, n + 1)) < BORUTA_ALPHA:     # P(X >= h)
            confirmed.append(int(cid))
        elif _half_binom_mass(n, range(h + 1)) < BORUTA_ALPHA:      # P(X <= h)
            rejected.append(int(cid))
        else:
            tentative.append(int(cid))
    return _decision("boruta", train, confirmed, hits.tolist(), rejected=tuple(rejected),
                     tentative=tuple(tentative), max_iterations=n,
                     alpha=BORUTA_ALPHA)


# estimator name -> (model family, hyperparameters) of the selector's fits;
# RFE's SVM takes c = 0.1 because at c = 1 it kept the signal columns of
# TestRfe's 120-row problems in 16 of 20 seeds, against 20 of 20 at c <= 0.1
_RFE_ESTIMATORS = {
    "logistic": ("logistic", {"l2": 1e-3}),
    "linear_svm": ("linear_svm", {"c": 0.1}),
    "forest": ("random_forest", {"n_trees": 30, "max_depth": 4, "min_leaf": 5}),
}
_SFS_ESTIMATORS = {
    "boosted_trees": ("gradient_boosting",
                      {"n_rounds": 15, "max_depth": 2, "shrinkage": 0.3, "min_leaf": 2}),
    "linear_svm": ("linear_svm", {}),
}
SFS_FOLDS = 2           # cross-validation folds scoring each candidate subset


def _estimator_spec(table: dict, estimator: str, seed: int) -> models.ModelSpec:
    if estimator not in table:
        raise FeatselError(f"estimator must be one of {tuple(table)}")
    family, hp = table[estimator]
    return models.ModelSpec(family, hp, seed=seed)


def select_rfe(train: Dataset, estimator: str, n_keep: int, seed: int = 0) -> SelectorDecision:
    """Recursive elimination: refit, drop the single weakest feature (ties
    drop the higher column id), repeat until n_keep remain.  Features are
    ranked by |coefficient|, or by split gain for the forest."""
    _check(train, n_keep)
    spec = _estimator_spec(_RFE_ESTIMATORS, estimator, seed)
    current = train
    elimination_order = []
    while current.n_cols > n_keep:
        m = models.train(spec, current, class_weight=_minority_weight(train.labels))
        score = (m.state["importance"] if spec.family == "random_forest"
                 else np.abs(m.state["weights"]))
        # weakest feature; tie -> higher column id dropped
        drop = int(current.column_ids[np.lexsort((-current.column_ids, score))[0]])
        elimination_order.append(drop)
        keep = [int(c) for c in current.column_ids if int(c) != drop]
        current = current.select_columns(keep)
    return _decision(f"rfe_{estimator}", train, current.column_ids,
                     elimination_order=tuple(elimination_order))


def _cv_balanced_accuracy(train: Dataset, col_ids, spec: models.ModelSpec,
                          folds: np.ndarray) -> float:
    """Mean balanced accuracy over the folds of one SFS candidate subset
    (a pmap task)."""
    cw = _minority_weight(train.labels)
    sub = train.select_columns(col_ids)
    scores = []
    for f in range(int(folds.max()) + 1):
        tr = np.nonzero(folds != f)[0]
        va = np.nonzero(folds == f)[0]
        m = models.train(spec, sub.take_rows(tr), class_weight=cw)
        s = models.predict_scores(m, sub.features.take_rows(va))
        ms = metric_set(confusion(sub.labels[va], s, 0.5))
        scores.append(ms.balanced_accuracy)
    return float(np.mean(scores))


def select_sfs(train: Dataset, estimator: str, n_keep: int, seed: int = 0) -> SelectorDecision:
    """Greedy forward selection by mean cross-validated balanced accuracy;
    score ties go to the lowest column id."""
    _check(train, n_keep)
    spec = _estimator_spec(_SFS_ESTIMATORS, estimator, seed)
    folds = stratified_kfold(train, SFS_FOLDS, seed)
    chosen: list[int] = []
    remaining = train.column_ids.tolist()
    while len(chosen) < n_keep:
        scores = pmap(_cv_balanced_accuracy,
                      [(train, chosen + [c], spec, folds) for c in remaining])
        _, best = max(zip(scores, remaining), key=lambda sc: (sc[0], -sc[1]))
        chosen.append(best)
        remaining.remove(best)

    return _decision(f"sfs_{estimator}_forward", train, sorted(chosen), cv_folds=SFS_FOLDS)


def vote(decisions: list[SelectorDecision], threshold: int) -> FeatureVoteLedger:
    """Aggregate selector decisions: a feature is selected when at least
    `threshold` selectors chose it."""
    if not decisions:
        raise FeatselError("at least one decision required")
    if threshold < 1:
        raise FeatselError("threshold must be >= 1")
    if threshold > len(decisions):
        warnings.warn(f"threshold {threshold} exceeds the {len(decisions)} selectors run; "
                      "selection is empty")
    chosen = [set(d.selected) for d in decisions]      # O(1) membership per column
    universe = sorted(set().union(*(d.universe for d in decisions), *chosen))
    contributors = {c: tuple(d.name for d, picked in zip(decisions, chosen) if c in picked)
                    for c in universe}
    votes = {c: len(names) for c, names in contributors.items()}
    return FeatureVoteLedger(votes, contributors, threshold,
                             tuple(c for c in universe if votes[c] >= threshold))


ROSTERS = ("default", "fast", "none")


def run_roster(roster: str, train: Dataset, master_seed: int = 0,
               n_keep: int | None = None) -> list[SelectorDecision]:
    """Run the named roster on the training partition: `default` (the 12
    voters of run_default_roster), `fast` (the F score, 8-bin mutual
    information and lasso at 0.01) or `none` (no selector, so no vote).
    The per-selector budget `n_keep` defaults to half the columns."""
    if roster not in ROSTERS:
        raise FeatselError(f"unknown selector roster {roster!r}")
    if roster == "none":
        return []
    if n_keep is None:
        n_keep = max(1, train.n_cols // 2)
    if roster == "default":
        return run_default_roster(train, master_seed, n_keep)
    return [select_f_score(train, n_keep), select_mutual_info(train, n_keep, n_bins=8),
            select_lasso(train, lam=0.01)]


def _selector_seed(master_seed: int, name: str) -> int:
    """A wrapper selector's seed, the same in every process (unlike the
    built-in hash under PYTHONHASHSEED).  The name enters as the first
    eight bytes of its sha256, so every byte of it counts."""
    key = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "little")
    return int(np.random.default_rng([master_seed, key]).integers(2 ** 31))


def run_default_roster(train: Dataset, master_seed: int, n_keep: int) -> list[SelectorDecision]:
    """The default 12-voter roster; `n_keep` is the budget of each selector
    that takes one.

    Filter selectors at three granularities (mutual information at 4/8/16
    bins), two coordinate-descent L1 strengths, a shadow-feature wrapper,
    recursive elimination under three estimators, and sequential selection
    under two.  Sequential selection keeps at most 20, because its cost
    grows with the square of its budget.
    """
    _check(train, n_keep)
    sfs_n_keep = min(20, n_keep)

    seed_for = functools.partial(_selector_seed, master_seed)
    return [
        select_f_score(train, n_keep),
        select_mutual_info(train, n_keep, n_bins=4),
        select_mutual_info(train, n_keep, n_bins=8),
        select_mutual_info(train, n_keep, n_bins=16),
        select_lasso(train, lam=0.005),
        select_lasso(train, lam=0.02),
        select_boruta(train, seed=seed_for("boruta")),
        select_rfe(train, "logistic", n_keep, seed=seed_for("rfe_logistic")),
        select_rfe(train, "linear_svm", n_keep, seed=seed_for("rfe_linear_svm")),
        select_rfe(train, "forest", n_keep, seed=seed_for("rfe_forest")),
        select_sfs(train, "boosted_trees", sfs_n_keep, seed=seed_for("sfs_boosted_trees")),
        select_sfs(train, "linear_svm", sfs_n_keep, seed=seed_for("sfs_linear_svm")),
    ]
