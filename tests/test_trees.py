"""The rank-sorted split kernel against a per-column reference search, and
golden digests of the tree families' models."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass import models
from rareclass.data import Dataset, FeatureMatrix
from rareclass.models import trees
from rareclass.models.trees import GAIN_TOL
from rareclass.synth import make_imbalanced
from model_checks import model_bytes

# ---------------------------------------------------------------------------
# reference: at every node, a stable argsort of each candidate column's values


class _Gini:
    def __init__(self, y, w):
        self.y, self.w = y, w

    def leaf(self, idx):
        wy = self.w[idx] * (self.y[idx] == 1)
        w1, wt = wy.sum(), self.w[idx].sum()
        tot = w1 + (wt - w1)
        parent = 0.0 if tot <= 0 else tot * (1.0 - (w1 / tot) ** 2 - ((wt - w1) / tot) ** 2)
        return (w1 / wt if wt > 0 else 0.0), (None if parent <= GAIN_TOL else parent), (wt, w1)

    def gain(self, rows, pos, parent, totals):
        wt, w1 = totals
        sw = self.w[rows]
        cw, cw1 = np.cumsum(sw), np.cumsum(sw * (self.y[rows] == 1))
        wl, wl1 = cw[pos], cw1[pos]
        wr, wr1 = wt - wl, w1 - wl1
        child = (wl - wl1 ** 2 / wl - (wl - wl1) ** 2 / wl
                 + wr - wr1 ** 2 / wr - (wr - wr1) ** 2 / wr)
        return parent - child


class _Variance:
    def __init__(self, target, w, hess):
        self.target, self.w, self.hess = target, w, hess

    def leaf(self, idx):
        w = self.w[idx]
        sw, swr, swh = w.sum(), (w * self.target[idx]).sum(), (w * self.hess[idx]).sum()
        return (swr / swh if swh > 1e-12 else 0.0), (swr ** 2 / sw if sw > 0 else 0.0), (sw, swr)

    def gain(self, rows, pos, parent, totals):
        sw, swr = totals
        ws = self.w[rows]
        wl, sl = np.cumsum(ws)[pos], np.cumsum(ws * self.target[rows])[pos]
        return sl ** 2 / wl + (swr - sl) ** 2 / (sw - wl) - parent


class _SecondOrder:
    def __init__(self, grad, hess, w, l2, gamma):
        self.grad, self.hess, self.w, self.l2, self.gamma = grad, hess, w, l2, gamma

    def leaf(self, idx):
        G, H = (self.w[idx] * self.grad[idx]).sum(), (self.w[idx] * self.hess[idx]).sum()
        return -G / (H + self.l2), G ** 2 / (H + self.l2), (G, H)

    def gain(self, rows, pos, parent, totals):
        G, H = totals
        ws = self.w[rows]
        gl, hl = np.cumsum(ws * self.grad[rows])[pos], np.cumsum(ws * self.hess[rows])[pos]
        return 0.5 * (gl ** 2 / (hl + self.l2) + (G - gl) ** 2 / (H - hl + self.l2)
                      - parent) - self.gamma


def _reference_tree(X, crit, max_depth, min_leaf, rng=None, n_subsample=None):
    feature, threshold, left, right, value = [], [], [], [], []
    importance = np.zeros(X.shape[1])
    all_cols = np.arange(X.shape[1])

    def grow(idx, depth):
        node = len(feature)
        feature.append(-1), threshold.append(0.0), left.append(-1), right.append(-1)
        leaf, parent, totals = crit.leaf(idx)
        value.append(leaf)
        if depth >= max_depth or len(idx) < 2 * min_leaf or parent is None:
            return node
        cols = all_cols
        if n_subsample is not None and n_subsample < len(all_cols):
            cols = np.sort(rng.choice(all_cols, size=n_subsample, replace=False))
        best = (GAIN_TOL, -1, 0.0)
        for j in cols:
            order = np.argsort(X[idx, j], kind="stable")
            vs = X[idx, j][order]
            pos = np.nonzero(vs[:-1] != vs[1:])[0]
            pos = pos[(pos + 1 >= min_leaf) & (len(vs) - pos - 1 >= min_leaf)]
            if not len(pos):
                continue
            gain = crit.gain(idx[order], pos, parent, totals)
            k = int(np.argmax(gain))
            if gain[k] > best[0]:
                best = (float(gain[k]), int(j), float((vs[pos[k]] + vs[pos[k] + 1]) / 2.0))
        gain, j, thr = best
        if j < 0:
            return node
        importance[j] += gain
        feature[node], threshold[node] = j, thr
        go_left = X[idx, j] <= thr
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    with np.errstate(all="ignore"):
        grow(np.arange(len(X)), 0)
    tree = trees.Tree(feature, threshold, left, right, value, np.zeros(len(feature)))
    return tree, importance


def _hexed(t: trees.Tree):
    return (list(map(int, t.feature)), [float(v).hex() for v in t.threshold],
            list(map(int, t.left)), list(map(int, t.right)),
            [float(v).hex() for v in t.value])


def _column(rng, n, kind):
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "constant":
        return np.full(n, 0.3)
    if kind == "signed_zero":
        return rng.choice(np.array([-0.0, 0.0, 1.0]), size=n)
    return rng.integers(0, int(kind), size=n) * 0.7        # a few tied levels


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 60), n_cols=st.integers(1, 5),
       minority_weight=st.sampled_from([1.0, 3.0, 2.5, 1 / 3, 13.7]),
       leaf_frac=st.floats(0.0, 1.0), max_depth=st.integers(1, 5),
       mode=st.sampled_from(["gini", "forest", "variance", "second_order"]),
       leaf_l2=st.sampled_from([0.0, 1.0]), gamma=st.sampled_from([0.0, 0.05]))
def test_kernel_matches_per_column_reference(seed, n, n_cols, minority_weight, leaf_frac,
                                             max_depth, mode, leaf_l2, gamma):
    rng = np.random.default_rng(seed)
    kinds = rng.choice(["continuous", "constant", "signed_zero", "2", "3"], size=n_cols)
    X = np.column_stack([_column(rng, n, k) for k in kinds])
    y = (rng.random(n) < 0.3).astype(np.int64)
    w = np.where(y == 1, minority_weight, 1.0)
    min_leaf = 1 + int(leaf_frac * (max(1, n // 2) - 1))      # 1 .. n/2
    ranks = trees.column_ranks(X)

    if mode in ("gini", "forest"):
        if mode == "forest":
            boot = rng.integers(0, n, size=n)
            X, ranks, y, w = X[boot], ranks[boot], y[boot], w[boot]
        sub = int(rng.integers(1, n_cols + 1)) if mode == "forest" else None
        imp = np.zeros(n_cols)
        got = trees.build_gini_tree(X, ranks, y, w, max_depth, min_leaf,
                                    rng=np.random.default_rng(seed), n_subsample=sub)
        trees.add_gains(imp, got)
        want, want_imp = _reference_tree(X, _Gini(y, w), max_depth, min_leaf,
                                         rng=np.random.default_rng(seed), n_subsample=sub)
        assert [v.hex() for v in imp] == [v.hex() for v in want_imp]
    else:
        f = rng.normal(0, 2, size=n)
        f[rng.random(n) < 0.2] = 800.0                     # saturated: hessian exactly 0
        p = 1.0 / (1.0 + np.exp(-f))
        hess = p * (1 - p)
        if mode == "variance":
            got = trees.build_variance_tree(X, ranks, y - p, w, hess, max_depth, min_leaf)
            crit = _Variance(y - p, w, hess)
        else:
            with np.errstate(all="ignore"):
                got = trees.build_second_order_tree(X, ranks, p - y, hess, w, max_depth,
                                                    min_leaf, leaf_l2, gamma)
            crit = _SecondOrder(p - y, hess, w, leaf_l2, gamma)
        want, _ = _reference_tree(X, crit, max_depth, min_leaf)
    assert _hexed(got) == _hexed(want)


def test_column_ranks_are_dense_and_order_preserving():
    X = np.array([[2.0, -0.0], [1.0, 0.0], [2.0, 5.0], [-3.0, -1.0]])
    ranks = trees.column_ranks(X)
    assert ranks.dtype == np.uint16
    assert ranks.T.tolist() == [[2, 1, 2, 0], [1, 1, 2, 0]]


# ---------------------------------------------------------------------------
# golden digests of model_bytes: the same models as the model-text digests
# taken before the kernel was vectorised, now with each tree's gains

GOLDEN = {
    "decision_tree": ({}, "cfd5ff795a990f5bda6bc718322ee1f87ddcb83315db86583831337e8a0a4d91"),
    "random_forest": ({"n_trees": 12},
                      "1a3e1ac87a4482089a897afaeb84265fc12d0feb1524c22f6b6ae64c2bb66488"),
    "gradient_boosting": ({"n_rounds": 25},
                          "3ee6687dc5599215c6da76cd2a5dd54eeb307d435f9ec0e334dae9d3182adcc4"),
    "regularized_boosting": ({"n_rounds": 25},
                             "87e3482ef497068a308e8539b002c6f969d48f6c6bf5c93a737f8c6f83f029b2"),
}


@pytest.fixture(scope="module")
def tied_dataset():
    d = make_imbalanced(n_rows=240, n_informative=4, n_noise=6, missing_fraction=0.0, seed=11)
    X = d.features.values.copy()
    X[:, ::2] = np.round(X[:, ::2], 1)                     # ties in every other column
    return Dataset(FeatureMatrix(X, d.column_ids), d.labels)


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_tree_family_json_is_unchanged(tied_dataset, family):
    hyperparams, digest = GOLDEN[family]
    m = models.train(models.ModelSpec(family, hyperparams, seed=3), tied_dataset,
                     class_weight=2.5)
    assert hashlib.sha256(model_bytes(m)).hexdigest() == digest


@pytest.mark.parametrize("kind", ["variance", "second_order"])
def test_fitted_rows_are_the_leaf_values_apply_gives(tied_dataset, kind):
    X, y = tied_dataset.features.values, tied_dataset.labels.astype(float)
    p = np.full(len(y), 0.2)
    w = np.where(y == 1, 2.5, 1.0)
    fitted = np.empty(len(y))
    if kind == "variance":
        tree = trees.build_variance_tree(X, trees.column_ranks(X), y - p, w, p * (1 - p), 3, 5,
                                         fitted=fitted)
    else:
        tree = trees.build_second_order_tree(X, trees.column_ranks(X), p - y, p * (1 - p), w,
                                             3, 5, 1.0, 0.0, fitted=fitted)
    assert len(tree.feature) > 1
    assert fitted.tobytes() == tree.apply(X).tobytes()


# ---------------------------------------------------------------------------
# the array layout: six node arrays of fixed dtypes, one entry per node

_DTYPES = {"feature": np.int64, "threshold": np.float64, "left": np.int64,
           "right": np.int64, "value": np.float64, "gain": np.float64}


def _check_layout(tree: trees.Tree):
    n = len(tree.feature)
    for name, dtype in _DTYPES.items():
        a = getattr(tree, name)
        assert isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == (n,), name
    # every node but the root is one child of one split: the node count the
    # benchmark's models.tree_nodes adds up is len(feature)
    split = tree.feature >= 0
    assert n == 1 + 2 * split.sum()
    assert sorted(np.concatenate([tree.left[split], tree.right[split]])) == list(range(1, n))
    assert (tree.left[~split] == -1).all() and (tree.right[~split] == -1).all()
    assert (tree.gain[~split] == 0.0).all()


def _loop_gains(importance, tree):
    """Forest importance as the node-order Python loop adds it."""
    for j, g in zip(tree.feature.tolist(), tree.gain.tolist()):
        if j >= 0:
            importance[j] += g


def test_builders_keep_the_array_layout(tied_dataset):
    X, y = tied_dataset.features.values, tied_dataset.labels
    ranks, p = trees.column_ranks(X), np.full(len(y), 0.2)
    w = np.where(y == 1, 2.5, 1.0)
    built = [trees.build_gini_tree(X, ranks, y, w, 5, 3),
             trees.build_gini_tree(X, ranks, y, w, 5, 3, rng=np.random.default_rng(1),
                                   n_subsample=3),
             trees.build_variance_tree(X, ranks, y - p, w, p * (1 - p), 3, 5),
             trees.build_second_order_tree(X, ranks, p - y, p * (1 - p), w, 3, 5, 1.0, 0.0)]
    for tree in built:
        _check_layout(tree)
        assert (tree.gain[tree.feature >= 0] > GAIN_TOL).all()


def test_forest_importance_adds_gains_as_the_node_order_loop():
    d = make_imbalanced(n_rows=300, n_informative=4, n_noise=8, missing_fraction=0.0, seed=2)
    m = models.train(models.ModelSpec("random_forest", {"n_trees": 20}, seed=5), d,
                     class_weight=3.0)
    want = np.zeros(d.n_cols)
    for tree in m.state["trees"]:
        _loop_gains(want, tree)
    assert m.state["importance"].tobytes() == want.tobytes()
    assert (m.state["importance"] > 0).sum() > 1
