"""Confusion-matrix metrics and ROC/AUC for binary rare-class evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConfusionMatrix",
    "MetricSet",
    "RocCurve",
    "MetricError",
    "confusion",
    "metric_set",
    "roc_curve",
]


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class MetricSet:
    balanced_accuracy: float
    precision: float
    recall: float
    far: float
    precision_defined: bool = True


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float

    def to_csv(self) -> str:
        # repr of a Python float: the shortest text that parses back to the
        # same value (a numpy scalar's repr reads "np.float64(...)")
        lines = ["fpr,tpr,threshold"]
        for f, t, th in zip(self.fpr, self.tpr, self.thresholds):
            lines.append(f"{float(f)!r},{float(t)!r},{float(th)!r}")
        return "\n".join(lines) + "\n"


def confusion(labels, scores, threshold: float) -> ConfusionMatrix:
    """Counts with 'predict positive iff score >= threshold'."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise MetricError("labels and scores length mismatch")
    if len(y) == 0:
        raise MetricError("empty inputs")
    pred = s >= threshold
    pos = y == 1
    return ConfusionMatrix(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
        tn=int(np.sum(~pred & ~pos)),
    )


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def metric_set(c: ConfusionMatrix) -> MetricSet:
    """Precision, recall, false-alarm rate, and balanced accuracy.

    Zero-denominator ratios are reported as 0 rather than omitted; an
    undefined precision, the one the report marks, clears its flag.
    """
    recall = _ratio(c.tp, c.tp + c.fn)
    far = _ratio(c.fp, c.fp + c.tn)
    ba = (recall + (1.0 - far)) / 2.0
    return MetricSet(ba, _ratio(c.tp, c.tp + c.fp), recall, far, c.tp + c.fp > 0)


def roc_curve(labels, scores) -> RocCurve:
    """Threshold sweep over descending distinct scores; tied scores form a
    single step; area by trapezoidal integration (equivalent to rank-based
    pairwise counting with half credit for ties)."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    if y.shape != s.shape:
        raise MetricError("labels and scores length mismatch")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("roc_curve requires both classes")

    order = np.argsort(-s, kind="stable")
    ys, ss = y[order], s[order]
    # group tied scores: indices of the last element of each distinct value
    distinct = np.nonzero(np.diff(ss))[0]
    group_ends = np.concatenate([distinct, [len(ss) - 1]])
    tps = np.cumsum(ys == 1)[group_ends]
    fps = np.cumsum(ys == 0)[group_ends]

    tpr = np.concatenate([[0.0], tps / n_pos])
    fpr = np.concatenate([[0.0], fps / n_neg])
    thresholds = np.concatenate([[np.inf], ss[group_ends]])
    auc = float(np.trapezoid(tpr, fpr))
    return RocCurve(fpr, tpr, thresholds, auc)
