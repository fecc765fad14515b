"""Column pruning, midrange-offset linear scaling, and stratified splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# column_stats is not called here; benchmarks/spans.py traces it under this module name
from .data import ColumnStats, Dataset, column_stats, correlation_matrix

__all__ = [
    "DropLog",
    "ScalerParams",
    "SplitPlan",
    "PreprocessError",
    "drop_high_missing",
    "drop_constant",
    "drop_correlated",
    "fit_scaler",
    "apply_scaler",
    "stratified_split",
    "stratified_kfold",
]


class PreprocessError(ValueError):
    pass


@dataclass(frozen=True)
class DropEntry:
    column_id: int
    reason: str                      # high_missing | constant | correlated
    parameter: float | None
    kept_partner: int | None = None  # retained column for correlated drops


@dataclass(frozen=True)
class DropLog:
    entries: tuple

    def to_csv(self) -> str:
        lines = ["column_id,reason,threshold,kept_partner"]
        for e in self.entries:
            thr = "" if e.parameter is None else f"{e.parameter:g}"
            partner = "" if e.kept_partner is None else str(e.kept_partner)
            lines.append(f"{e.column_id},{e.reason},{thr},{partner}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScalerParams:
    """Per-column min/max/average fitted on training rows only."""

    column_ids: np.ndarray
    min_x: np.ndarray
    max_x: np.ndarray
    ave_x: np.ndarray


@dataclass(frozen=True)
class SplitPlan:
    train_row_indices: np.ndarray
    test_row_indices: np.ndarray


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def drop_high_missing(stats: list[ColumnStats], threshold: float) -> tuple[list[int], DropLog]:
    """Ids of the columns missing at most the threshold, and the log of the
    rest; `stats` is column_stats of the training rows."""
    if not 0 < threshold <= 1:
        raise PreprocessError("threshold must be in (0, 1]")
    removed = [s.column_id for s in stats if s.missing_fraction > threshold]
    kept = [s.column_id for s in stats if s.missing_fraction <= threshold]
    if not kept:
        raise PreprocessError("no features remain after high-missing pruning")
    return kept, DropLog(tuple(DropEntry(c, "high_missing", threshold) for c in removed))


def drop_constant(stats: list[ColumnStats]) -> tuple[list[int], DropLog]:
    """Ids of the non-constant columns, and the log of the rest; all-missing
    columns are dropped under the same reason since they carry no signal either."""
    removed = [s.column_id for s in stats if s.is_constant or s.missing_fraction >= 1.0]
    kept = [s.column_id for s in stats if not (s.is_constant or s.missing_fraction >= 1.0)]
    if not kept:
        raise PreprocessError("no features remain after constant pruning")
    return kept, DropLog(tuple(DropEntry(c, "constant", None) for c in removed))


def drop_correlated(d: Dataset, threshold: float) -> tuple[Dataset, DropLog]:
    """Greedy correlation pruning in ascending column-id order.

    For every pair with |r| > threshold the higher column id is removed and
    its retained partner logged.  Correlations are pairwise-complete, so the
    greedy pass over the full matrix leaves no surviving pair above the
    threshold.
    """
    if not 0 < threshold < 1:
        raise PreprocessError("threshold must be in (0, 1)")
    r, ids = correlation_matrix(d), d.column_ids
    alive = np.ones(len(ids), dtype=bool)
    entries = []
    for i in np.argsort(ids, kind="stable"):
        if not alive[i]:
            continue
        # NaN correlations compare False
        hit = np.flatnonzero(alive & (ids > ids[i]) & (np.abs(r[i]) > threshold))
        alive[hit] = False
        entries.extend(DropEntry(int(c), "correlated", threshold, kept_partner=int(ids[i]))
                       for c in np.sort(ids[hit]))
    kept = ids[alive]
    if not len(kept):
        raise PreprocessError("no features remain after correlation pruning")
    return d.select_columns(kept), DropLog(tuple(entries))


def fit_scaler(stats: list[ColumnStats]) -> ScalerParams:
    """Per-column min, max, and average over present training values, from
    column_stats of the training rows."""
    for s in stats:
        if s.min is None or s.min == s.max:
            raise PreprocessError(f"cannot scale constant or empty column {s.column_id}")
    return ScalerParams(np.array([s.column_id for s in stats]), np.array([s.min for s in stats]),
                        np.array([s.max for s in stats]), np.array([s.mean for s in stats]))


def apply_scaler(p: ScalerParams, d: Dataset) -> Dataset:
    """x -> 0.5 + (x - ave) / (max - min), applied to present cells only.

    No clamping: outputs may leave [0, 1] when the column average is not the
    midrange, or on out-of-range test values.
    """
    pos = {int(c): k for k, c in enumerate(p.column_ids)}
    try:
        idx = np.array([pos[int(c)] for c in d.column_ids])
    except KeyError as e:
        raise PreprocessError(f"scaler has no parameters for column {e.args[0]}") from None
    ave = p.ave_x[idx]
    rng = p.max_x[idx] - p.min_x[idx]
    t = d.features.values - ave      # one n x p result; t + 0.5 is 0.5 + t bit for bit
    t /= rng
    t += 0.5
    return d.with_values(t)


def _class_shuffles(labels: np.ndarray, seed: int) -> dict[int, np.ndarray]:
    rng = np.random.default_rng(seed)
    out = {}
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        out[cls] = rng.permutation(idx)
    return out


def stratified_split(d: Dataset, test_fraction: float, seed: int) -> SplitPlan:
    """Per-class seeded shuffle; per-class test count rounds half-up.  A
    class left with no test row or no training row is an error."""
    if not 0 < test_fraction < 1:
        raise PreprocessError("test_fraction must be in (0, 1)")
    counts = np.bincount(d.labels, minlength=2)
    shuffled = _class_shuffles(d.labels, seed)
    test_parts, train_parts = [], []
    for cls in (0, 1):
        n_test = _round_half_up(counts[cls] * test_fraction)
        if not 0 < n_test < counts[cls]:
            raise PreprocessError(f"class {cls} has {counts[cls]} rows; test_fraction {test_fraction:g}"
                                  f" leaves {n_test} to test and {counts[cls] - n_test} to training")
        test_parts.append(shuffled[cls][:n_test])
        train_parts.append(shuffled[cls][n_test:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return SplitPlan(train, test)


def stratified_kfold(d: Dataset, k: int, seed: int) -> np.ndarray:
    """Each row's fold id in 0..k-1, dealt round-robin per class after a seeded shuffle."""
    if k < 2:
        raise PreprocessError("k must be >= 2")
    counts = np.bincount(d.labels, minlength=2)
    if min(counts[0], counts[1]) < k:
        raise PreprocessError(f"minority class has fewer than k={k} members")
    shuffled = _class_shuffles(d.labels, seed)
    folds = np.empty(d.n_rows, dtype=np.int64)
    for cls in (0, 1):
        idx = shuffled[cls]
        folds[idx] = np.arange(len(idx)) % k
    return folds
