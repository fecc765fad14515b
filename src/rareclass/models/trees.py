"""Binary tree builders shared by the tree, forest, and boosting learners.

A `Tree` is six parallel numpy arrays indexed by node, root first:
`feature`, `left` and `right` as int64, and `threshold`, `value` and
`gain` as float64.  feature == -1 marks a leaf, whose children are -1.
Thresholds sit at midpoints of adjacent distinct values; rows with
x <= threshold go left.  `gain` holds each split's gain (0.0 at leaves)
for the forest importances.  `_grow` collects nodes in Python lists and
freezes them into the arrays once, when the tree is complete.

All three builders run one kernel, `_grow`, which differs per criterion
only in its per-row weighted stats, its leaf formula and its split gain.
Each builder takes `ranks`, the per-column dense ranks from
`column_ranks`, of the same rows as `X` in the same order: equal values
share a rank and ranks keep the order of values, so a stable sort of
ranks orders a node's rows exactly as a stable sort of their values
would.  Ranks taken on a full matrix stay valid for any row subset, so a
forest passes `ranks[boot]` with `X[boot]`, and boosting reuses one rank
matrix for every round.

At each node the kernel sorts the candidate columns' ranks in one call,
takes prefix sums of the stats in that order, and scores every boundary
between distinct values that leaves at least `min_leaf` rows per side.
A split must gain more than GAIN_TOL.  Ties on gain break to the lowest
column position, then the lowest threshold, and a column with a NaN gain
at any of its boundaries is skipped.  Node totals are 1-D (pairwise)
sums over the node's rows in row order, and each prefix sum adds the same
floats in the same order as a column-by-column scan would, so trees are
bit-identical to that scan's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAIN_TOL = 1e-12


@dataclass
class Tree:
    feature: np.ndarray      # per node: column position, or -1 for leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray        # leaf payload (class-1 fraction or boosting weight)
    gain: np.ndarray         # split gain, 0.0 at leaves

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.gain = np.asarray(self.gain, dtype=np.float64)

    def apply(self, X: np.ndarray) -> np.ndarray:
        feat, thr = self.feature, self.threshold
        node_of = np.zeros(len(X), dtype=np.int64)
        while True:
            inner = np.nonzero(feat[node_of] >= 0)[0]
            if not len(inner):
                break
            nodes = node_of[inner]
            go_left = X[inner, feat[nodes]] <= thr[nodes]
            node_of[inner] = np.where(go_left, self.left[nodes], self.right[nodes])
        return self.value[node_of]


def column_ranks(X: np.ndarray) -> np.ndarray:
    """Per-column dense ranks of X (0 for each column's smallest value),
    as uint16 when fewer than 65536 rows, else uint32."""
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    dense = np.zeros(X.shape, dtype=np.uint16 if len(X) < 65536 else np.uint32)
    np.cumsum(xs[1:] != xs[:-1], axis=0, dtype=dense.dtype, out=dense[1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=0)
    return ranks


def add_gains(importance: np.ndarray, tree: Tree) -> None:
    """Add each split's gain to its column's importance in node order, which
    is the order the splits were made in."""
    split = tree.feature >= 0
    np.add.at(importance, tree.feature[split], tree.gain[split])   # unbuffered, in index order


def _grow(X: np.ndarray, ranks: np.ndarray, stats: np.ndarray, node_fn, gain_fn,
          max_depth: int, min_leaf: int, rng=None, n_subsample: int | None = None,
          fitted: np.ndarray | None = None) -> Tree:
    """Grow one tree depth first.

    stats holds one row of per-row weighted stats per quantity; the first
    two rows are the ones the split gain needs.  node_fn(totals) returns
    (leaf value, parent score), with parent None when the node must not
    split.  gain_fn(left, totals, parent) scores left-side prefix sums of
    shape (2, columns, positions).  n_subsample draws that many columns
    per split with rng (forest mode), in the same depth-first pre-order as
    the nodes are created.  fitted, if given, receives each row's leaf value.
    """
    feature, threshold, left, right, value, gains = [], [], [], [], [], []
    ranks_t = np.ascontiguousarray(ranks.T)            # one row of ranks per column
    n, all_cols = len(X), np.arange(X.shape[1])
    subsample = n_subsample is not None and n_subsample < len(all_cols)
    split_stats = stats[:2]

    def grow(idx: np.ndarray, depth: int) -> int:
        node = len(feature)
        totals = [np.add.reduce(row) for row in stats.take(idx, axis=1)]
        leaf, parent = node_fn(totals)
        feature.append(-1), threshold.append(0.0), left.append(-1), right.append(-1)
        value.append(leaf), gains.append(0.0)
        if fitted is not None:
            fitted[idx] = leaf                          # children overwrite
        m = len(idx)
        if depth >= max_depth or m < 2 * min_leaf or parent is None:
            return node

        if subsample:
            cols = np.sort(rng.choice(all_cols, size=n_subsample, replace=False))
            r = ranks_t[cols].take(idx, axis=1)
        else:
            cols = all_cols
            r = ranks_t.take(idx, axis=1)
        rows = idx.take(r.argsort(axis=1, kind="stable"))   # per column, sorted
        rs = ranks_t.take(rows + (cols * n)[:, None])
        # a split after sorted position p leaves p + 1 rows on the left
        lo, hi = min_leaf - 1, m - min_leaf
        distinct = rs[:, lo + 1:hi + 1] != rs[:, lo:hi]
        prefix = split_stats.take(rows[:, :hi], axis=1).cumsum(axis=2)[:, :, lo:]
        gain = np.where(distinct, gain_fn(prefix, totals, parent), -np.inf)
        best = gain.max(axis=1)                        # per column; NaN if any is NaN
        best = np.where(best > GAIN_TOL, best, -np.inf)
        c = int(best.argmax())                         # first max: lowest column
        if best[c] == -np.inf:
            return node

        j, p = int(cols[c]), lo + int(gain[c].argmax())   # first max: lowest threshold
        thr = float((X[rows[c, p], j] + X[rows[c, p + 1], j]) / 2.0)
        gains[node], feature[node], threshold[node] = float(best[c]), j, thr
        go_left = X[:, j].take(idx) <= thr
        left[node] = grow(idx[go_left], depth + 1)
        right[node] = grow(idx[~go_left], depth + 1)
        return node

    with np.errstate(invalid="ignore", divide="ignore"):
        grow(np.arange(len(X)), 0)
    return Tree(feature, threshold, left, right, value, gains)


def _gini_sum(w1: float, w0: float) -> float:
    tot = w1 + w0
    if tot <= 0:
        return 0.0
    return tot * (1.0 - (w1 / tot) ** 2 - (w0 / tot) ** 2)


def build_gini_tree(X: np.ndarray, ranks: np.ndarray, y: np.ndarray, w: np.ndarray,
                    max_depth: int, min_leaf: int, rng=None,
                    n_subsample: int | None = None) -> Tree:
    """CART with weighted Gini impurity; leaves hold the class-1 weight
    fraction.  n_subsample draws that many columns per split with the given
    rng (forest mode)."""
    def node(t):
        wt, w1 = t
        parent = _gini_sum(w1, wt - w1)
        return (w1 / wt if wt > 0 else 0.0), (None if parent <= GAIN_TOL else parent)

    def gain(left, t, parent):
        (wl, wl1), (wt, w1) = left, t
        wr, wr1 = wt - wl, w1 - wl1
        child = (wl - wl1 ** 2 / wl - (wl - wl1) ** 2 / wl
                 + wr - wr1 ** 2 / wr - (wr - wr1) ** 2 / wr)
        return parent - child

    stats = np.stack([w, w * (y == 1)])
    return _grow(X, ranks, stats, node, gain, max_depth, min_leaf, rng, n_subsample)


def build_variance_tree(X: np.ndarray, ranks: np.ndarray, target: np.ndarray,
                        w: np.ndarray, hess: np.ndarray, max_depth: int,
                        min_leaf: int, fitted: np.ndarray | None = None) -> Tree:
    """Regression tree on a gradient target with squared-error splits and
    one-step Newton leaf values (sum of weighted residuals over sum of
    weighted hessians).  fitted, if given, receives each row's leaf value."""
    def node(t):
        sw, swr, swh = t
        return (swr / swh if swh > 1e-12 else 0.0), (swr ** 2 / sw if sw > 0 else 0.0)

    def gain(left, t, parent):
        (wl, sl), (sw, swr) = left, t[:2]
        wr, sr = sw - wl, swr - sl
        return sl ** 2 / wl + sr ** 2 / wr - parent

    stats = np.stack([w, w * target, w * hess])
    return _grow(X, ranks, stats, node, gain, max_depth, min_leaf, fitted=fitted)


def build_second_order_tree(X: np.ndarray, ranks: np.ndarray, grad: np.ndarray,
                            hess: np.ndarray, w: np.ndarray, max_depth: int,
                            min_leaf: int, leaf_l2: float, gamma: float,
                            fitted: np.ndarray | None = None) -> Tree:
    """Gradient/hessian tree: split gain 0.5 * (GL^2/(HL+l2) + GR^2/(HR+l2)
    - G^2/(H+l2)) - gamma; leaf weight -G/(H+l2).  fitted, if given,
    receives each row's leaf value."""
    def node(t):
        G, H = t
        return -G / (H + leaf_l2), G ** 2 / (H + leaf_l2)

    def gain(left, t, parent):
        (gl, hl), (G, H) = left, t
        gr, hr = G - gl, H - hl
        return 0.5 * (gl ** 2 / (hl + leaf_l2) + gr ** 2 / (hr + leaf_l2) - parent) - gamma

    stats = np.stack([w * grad, w * hess])
    return _grow(X, ranks, stats, node, gain, max_depth, min_leaf, fitted=fitted)
