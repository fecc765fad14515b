"""Six binary classifiers with a uniform train / score contract.

Families: logistic, linear_svm, decision_tree, random_forest,
gradient_boosting (first-order residual trees with Newton leaves), and
regularized_boosting (second-order trees with leaf L2 and a split gain
penalty).  Scores are in [0, 1]; thresholding at 0.5 gives hard labels.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..data import Dataset, FeatureMatrix
from ..parallel import pmap
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
    "predict_scores",
    "feature_importances",
    "model_to_json",
    "model_from_json",
]

FAMILIES = ("logistic", "linear_svm", "decision_tree", "random_forest",
            "gradient_boosting", "regularized_boosting")

DEFAULT_HYPERPARAMS = {
    "logistic": {"learning_rate": 0.1, "epochs": 500, "l2": 1e-4},
    "linear_svm": {"c": 1.0, "learning_rate": 0.01, "epochs": 500},
    "decision_tree": {"max_depth": 6, "min_leaf": 5},
    "random_forest": {"n_trees": 200, "max_depth": 6, "min_leaf": 5},
    "gradient_boosting": {"n_rounds": 200, "shrinkage": 0.1, "max_depth": 3, "min_leaf": 5},
    "regularized_boosting": {"n_rounds": 200, "shrinkage": 0.1, "max_depth": 3,
                             "min_leaf": 5, "leaf_l2": 1.0, "gamma": 0.0},
}

_POSITIVE_INT = {"epochs", "max_depth", "min_leaf", "n_trees", "n_rounds"}
_NONNEGATIVE = {"learning_rate", "l2", "c", "shrinkage", "leaf_l2", "gamma"}


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
            if k in _POSITIVE_INT:
                if int(v) != v or v < (0 if k == "n_rounds" else 1):
                    raise ModelError(f"{k} must be a positive integer")
                merged[k] = int(v)               # an integral float such as 1e2 counts
            if k in _NONNEGATIVE and v < 0:
                raise ModelError(f"{k} must be >= 0")
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


def _forest_tree(X, ranks, y, sw, seed: int, t: int, max_depth: int, min_leaf: int,
                 n_subsample: int) -> Tree:
    """One bootstrapped random-forest tree, seeded by its index (a pmap task)."""
    rng = np.random.default_rng([seed, t])
    boot = rng.integers(0, len(X), size=len(X))
    return trees.build_gini_tree(X[boot], ranks[boot], y[boot], sw[boot], max_depth,
                                 min_leaf, rng=rng, n_subsample=n_subsample)


def train(spec: ModelSpec, train_set: Dataset, class_weight: float | None = None) -> TrainedModel:
    """Fit one model family on an imputed, scaled training set.

    class_weight multiplies the minority-class sample weight; with an
    integer weight it is equivalent to duplicating each minority row that
    many times.
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
        w, b, trace = linear.train_logistic(X, y, sw, hp["learning_rate"], hp["epochs"], hp["l2"])
        state = {"weights": w, "bias": b}
    elif fam == "linear_svm":
        w, b, trace = linear.train_linear_svm(X, y, sw, hp["c"], hp["learning_rate"], hp["epochs"])
        state = {"weights": w, "bias": b}
    elif fam == "decision_tree":
        tree = trees.build_gini_tree(X, trees.column_ranks(X), train_set.labels, sw,
                                     hp["max_depth"], hp["min_leaf"])
        state = {"tree": tree}
    elif fam == "random_forest":
        sub = max(1, int(round(math.sqrt(X.shape[1]))))
        ranks = trees.column_ranks(X)
        forest = pmap(_forest_tree, [(X, ranks, train_set.labels, sw, spec.seed, t,
                                      hp["max_depth"], hp["min_leaf"], sub)
                                     for t in range(hp["n_trees"])])
        importance = np.zeros(X.shape[1])
        for tree in forest:                 # in tree order, as one loop would add them
            trees.add_gains(importance, tree)
        state = {"trees": forest, "importance": importance}
    elif fam in ("gradient_boosting", "regularized_boosting"):
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
        for _ in range(hp["n_rounds"]):
            trace.append(linear.log_loss(f, y, sw))
            if not np.isfinite(trace[-1]):
                raise TrainingDiverged(f"{fam.replace('_', ' ')} diverged", trace)
            fitted = np.empty(len(y))           # each training row's leaf value
            ensemble.append(fit_round(sigmoid(f), fitted))
            f = f + hp["shrinkage"] * fitted
        trace.append(linear.log_loss(f, y, sw))
        state = {"base": base, "shrinkage": hp["shrinkage"], "trees": ensemble}
    else:  # pragma: no cover
        raise ModelError(fam)

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


def feature_importances(m: TrainedModel) -> np.ndarray:
    """Impurity-gain importances, normalised to sum 1 (tree families only)."""
    fam = m.spec.family
    if fam == "random_forest":
        imp = m.state["importance"].copy()
    elif fam == "decision_tree":
        t = m.state["tree"]
        if len(t.gain) != len(t.feature):
            raise ModelError("a decision tree loaded from JSON has no split gains")
        imp = np.zeros(len(m.column_ids))
        trees.add_gains(imp, t)
    else:
        raise ModelError(f"no importances for family {fam}")
    s = imp.sum()
    return imp / s if s > 0 else imp


# ---------------------------------------------------------------------------
# serialization: versioned text dump, exact float round-trip via hex encoding

_FORMAT_VERSION = 1


def _hex_list(a) -> list:
    return [float(v).hex() for v in np.asarray(a, dtype=np.float64).ravel()]


def _unhex(lst) -> np.ndarray:
    return np.array([float.fromhex(v) for v in lst])


def _tree_to_obj(t: Tree) -> dict:
    return {"feature": list(map(int, t.feature)), "threshold": _hex_list(t.threshold),
            "left": list(map(int, t.left)), "right": list(map(int, t.right)),
            "value": _hex_list(t.value)}


def _tree_from_obj(o: dict) -> Tree:
    return Tree(list(o["feature"]), list(_unhex(o["threshold"])),
                list(o["left"]), list(o["right"]), list(_unhex(o["value"])))


def _encode(v):
    if isinstance(v, Tree):
        return _tree_to_obj(v)
    if isinstance(v, list):                        # a list of trees
        return [_tree_to_obj(t) for t in v]
    if isinstance(v, np.ndarray):
        return _hex_list(v)
    return float(v).hex()


# state key -> decoder of its encoded value
_DECODERS = {
    "weights": _unhex, "importance": _unhex,
    "bias": float.fromhex, "base": float.fromhex, "shrinkage": float.fromhex,
    "tree": _tree_from_obj, "trees": lambda objs: [_tree_from_obj(o) for o in objs],
}


def model_to_json(m: TrainedModel) -> str:
    return json.dumps({
        "format_version": _FORMAT_VERSION,
        "family": m.spec.family,
        "hyperparams": m.spec.hyperparams,
        "seed": m.spec.seed,
        "column_ids": [int(c) for c in m.column_ids],
        "loss_trace": _hex_list(m.loss_trace),
        "state": {k: _encode(v) for k, v in m.state.items()},
    })


def model_from_json(text: str) -> TrainedModel:
    obj = json.loads(text)
    if obj.get("format_version") != _FORMAT_VERSION:
        raise ModelError(f"unsupported model format version {obj.get('format_version')}")
    spec = ModelSpec(obj["family"], obj["hyperparams"], obj["seed"])
    state = {k: _DECODERS[k](v) for k, v in obj["state"].items()}
    return TrainedModel(spec, np.array(obj["column_ids"], dtype=np.int64), state,
                        tuple(_unhex(obj["loss_trace"])))
