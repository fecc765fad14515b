"""Six binary classifiers with a uniform train / score contract.

Families: logistic and linear_svm (L2-regularized log-loss and squared
hinge, each solved by Newton's method in `linear`), decision_tree,
random_forest, gradient_boosting (first-order residual trees with Newton
leaves), and regularized_boosting (second-order trees with leaf L2 and a
split gain penalty).  Scores are in [0, 1]; thresholding at 0.5 gives hard
labels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .. import parallel
from ..data import Dataset, FeatureMatrix
from . import linear, trees
from .linear import TrainingDiverged, sigmoid
from .trees import Tree

__all__ = [
    "FAMILIES",
    "ModelSpec",
    "TrainedModel",
    "ModelError",
    "TrainingDiverged",
    "train",
    "train_all",
    "predict_scores",
]

FAMILIES = ("logistic", "linear_svm", "decision_tree", "random_forest",
            "gradient_boosting", "regularized_boosting")

DEFAULT_HYPERPARAMS = {
    "logistic": {"l2": 1e-4},
    "linear_svm": {"c": 1.0},
    "decision_tree": {"max_depth": 6, "min_leaf": 5},
    "random_forest": {"n_trees": 200, "max_depth": 6, "min_leaf": 5},
    "gradient_boosting": {"n_rounds": 200, "shrinkage": 0.1, "max_depth": 3, "min_leaf": 5},
    "regularized_boosting": {"n_rounds": 200, "shrinkage": 0.1, "max_depth": 3,
                             "min_leaf": 5, "leaf_l2": 1.0, "gamma": 0.0},
}

_WHOLE_FITS = ("decision_tree", "gradient_boosting", "regularized_boosting")

_POSITIVE_INT = {"max_depth", "min_leaf", "n_trees", "n_rounds"}
_NONNEGATIVE = {"l2", "leaf_l2", "gamma"}
_POSITIVE = {"c", "shrinkage"}      # at 0 the SVM has no data term; boosting stays at the prior


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelSpec:
    family: str
    hyperparams: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ModelError(f"unknown model family {self.family!r}")
        merged = dict(DEFAULT_HYPERPARAMS[self.family])
        for k, v in self.hyperparams.items():
            if k not in merged:
                raise ModelError(f"unknown hyperparameter {k!r} for {self.family}")
            merged[k] = v
        for k, v in merged.items():
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ModelError(f"{k} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise ModelError(f"{k} must be finite")
            if k in _POSITIVE_INT:
                if int(v) != v or v < (0 if k == "n_rounds" else 1):
                    raise ModelError(f"{k} must be a positive integer")
                merged[k] = int(v)               # an integral float such as 1e2 counts
            if k in _NONNEGATIVE and v < 0:
                raise ModelError(f"{k} must be >= 0")
            if k in _POSITIVE and v <= 0:
                raise ModelError(f"{k} must be > 0")
        object.__setattr__(self, "hyperparams", merged)


@dataclass(frozen=True)
class TrainedModel:
    spec: ModelSpec
    column_ids: np.ndarray
    state: dict                 # family-specific learned state
    loss_trace: tuple = ()


def _check_trainable(d: Dataset):
    if np.isnan(d.features.values).any():
        raise ModelError("training data contains missing cells; impute first")
    counts = np.bincount(d.labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise ModelError("training set must contain both classes")


def _sample_weights(y: np.ndarray, class_weight: float | None) -> np.ndarray:
    sw = np.ones(len(y))
    if class_weight is not None:
        sw[y == 1] = class_weight
    return sw


def _prior_logodds(y: np.ndarray, sw: np.ndarray) -> float:
    p = float((sw * y).sum() / sw.sum())
    p = min(max(p, 1e-12), 1 - 1e-12)
    return math.log(p / (1 - p))


def _forest_tree(X, ranks, y, sw, seed: int, max_depth: int, min_leaf: int, n_subsample: int,
                 t: int) -> Tree:
    """Random-forest tree t, grown on a bootstrap sample seeded by [seed, t]."""
    rng = np.random.default_rng([seed, t])
    boot = rng.integers(0, len(X), size=len(X))
    return trees.build_gini_tree(X[boot], ranks[boot], y[boot], sw[boot], max_depth, min_leaf,
                                 rng=rng, n_subsample=n_subsample)


def train_all(specs, train_set: Dataset) -> list[TrainedModel]:
    """Fit each spec's family on one training set at unit row weights; the models
    come back in spec order, the same as `[train(s, train_set) for s in specs]`.

    Every model is one `train` call.  What runs where: the decision tree
    and the boosting families go to `pmap` first, as one map of whole fits,
    few enough that each is its own task.  Then every other spec is fit in
    the calling process, in spec order: a linear family there, a forest by
    handing its trees to `pmap` as a map of their own.  Linear families
    alone start no pool.
    """
    _check_trainable(train_set)
    specs = list(specs)
    whole = iter(parallel.pmap(train, [(s, train_set) for s in specs if s.family in _WHOLE_FITS]))
    return [next(whole) if s.family in _WHOLE_FITS else train(s, train_set) for s in specs]


def train(spec: ModelSpec, train_set: Dataset, class_weight: float | None = None) -> TrainedModel:
    """Fit one model family on an imputed, scaled training set.

    class_weight multiplies the minority-class sample weight; with an
    integer weight it is equivalent to duplicating each minority row that
    many times.  Every model the package makes comes from here.  A random
    forest's trees go to `pmap`, one tree per item, and their gains are
    added in tree order, so the model is the same at any worker count;
    every other family is fit here, in the calling process.
    """
    _check_trainable(train_set)
    X = train_set.features.values
    y = train_set.labels.astype(np.float64)
    sw = _sample_weights(train_set.labels, class_weight)
    hp = spec.hyperparams
    fam = spec.family
    state: dict
    trace: list = []

    if fam == "logistic":
        w, b, trace = linear.train_logistic(X, y, sw, hp["l2"])
        state = {"weights": w, "bias": b}
    elif fam == "linear_svm":
        w, b, trace = linear.train_linear_svm(X, y, sw, hp["c"])
        state = {"weights": w, "bias": b}
    elif fam == "decision_tree":
        tree = trees.build_gini_tree(X, trees.column_ranks(X), train_set.labels, sw,
                                     hp["max_depth"], hp["min_leaf"])
        state = {"tree": tree}
    elif fam == "random_forest":
        args = (X, trees.column_ranks(X), train_set.labels, sw, spec.seed, hp["max_depth"],
                hp["min_leaf"], max(1, int(round(math.sqrt(X.shape[1])))))
        forest = parallel.pmap(_forest_tree, [(*args, t) for t in range(hp["n_trees"])])
        importance = np.zeros(train_set.n_cols)
        for tree in forest:
            trees.add_gains(importance, tree)
        state = {"trees": forest, "importance": importance}
    else:                                   # the two boosting families
        ranks = trees.column_ranks(X)
        depth, leaf = hp["max_depth"], hp["min_leaf"]
        if fam == "gradient_boosting":
            def fit_round(p, fitted):
                return trees.build_variance_tree(X, ranks, y - p, sw, p * (1 - p), depth, leaf,
                                                 fitted=fitted)
        else:
            def fit_round(p, fitted):
                return trees.build_second_order_tree(X, ranks, p - y, p * (1 - p), sw, depth,
                                                     leaf, hp["leaf_l2"], hp["gamma"],
                                                     fitted=fitted)
        base = _prior_logodds(y, sw)
        f = np.full(len(y), base)
        ensemble = []
        # overflow goes unwarned: a non-finite loss raises TrainingDiverged
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(hp["n_rounds"]):
                trace.append(linear.log_loss(f, y, sw))
                if not np.isfinite(trace[-1]):
                    raise TrainingDiverged(f"{fam.replace('_', ' ')} diverged", trace)
                fitted = np.empty(len(y))           # each training row's leaf value
                ensemble.append(fit_round(sigmoid(f), fitted))
                f = f + hp["shrinkage"] * fitted
            trace.append(linear.log_loss(f, y, sw))
        state = {"base": base, "shrinkage": hp["shrinkage"], "trees": ensemble}

    return TrainedModel(spec, train_set.column_ids.copy(), state, tuple(trace))


def predict_scores(m: TrainedModel, rows: FeatureMatrix) -> np.ndarray:
    """Per-row score in [0, 1]: sigmoid outputs for margin/boosting models,
    leaf or vote fractions for trees and forests."""
    if not np.array_equal(m.column_ids, rows.column_ids):
        raise ModelError("column ids do not match the training columns")
    X = rows.values
    fam = m.spec.family
    if fam in ("logistic", "linear_svm"):
        return sigmoid(X @ m.state["weights"] + m.state["bias"])
    if fam == "decision_tree":
        return m.state["tree"].apply(X)
    if fam == "random_forest":
        votes = np.zeros(len(X))
        for tree in m.state["trees"]:
            votes += tree.apply(X)
        return votes / len(m.state["trees"])
    # boosting families
    f = np.full(len(X), m.state["base"])
    for tree in m.state["trees"]:
        f += m.state["shrinkage"] * tree.apply(X)
    return sigmoid(f)
