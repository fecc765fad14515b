"""Column pruning, midrange-offset linear scaling, and stratified splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, column_stats, correlation_matrix

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

    @property
    def removed_column_ids(self) -> list[int]:
        return [e.column_id for e in self.entries]

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
    seed: int
    fold_assignments: np.ndarray | None = None

    def fold(self, fold_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(train, test) row indices for one cross-validation fold."""
        if self.fold_assignments is None:
            raise PreprocessError("plan has no fold assignments")
        test = np.nonzero(self.fold_assignments == fold_id)[0]
        train = np.nonzero(self.fold_assignments != fold_id)[0]
        return train, test


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def drop_high_missing(d: Dataset, threshold: float) -> tuple[Dataset, DropLog]:
    """Remove columns whose missing fraction strictly exceeds the threshold."""
    if not 0 < threshold <= 1:
        raise PreprocessError("threshold must be in (0, 1]")
    stats = column_stats(d)
    removed = [s.column_id for s in stats if s.missing_fraction > threshold]
    kept = [s.column_id for s in stats if s.missing_fraction <= threshold]
    if not kept:
        raise PreprocessError("no features remain after high-missing pruning")
    log = DropLog(tuple(DropEntry(c, "high_missing", threshold) for c in removed))
    return d.select_columns(kept), log


def drop_constant(d: Dataset) -> tuple[Dataset, DropLog]:
    """Remove constant columns; all-missing columns are dropped under the
    same reason since they carry no signal either."""
    stats = column_stats(d)
    removed = [s.column_id for s in stats if s.is_constant or s.missing_fraction >= 1.0]
    kept = [s.column_id for s in stats if not (s.is_constant or s.missing_fraction >= 1.0)]
    if not kept:
        raise PreprocessError("no features remain after constant pruning")
    log = DropLog(tuple(DropEntry(c, "constant", None) for c in removed))
    return d.select_columns(kept), log


def drop_correlated(d: Dataset, threshold: float) -> tuple[Dataset, DropLog]:
    """Greedy correlation pruning in ascending column-id order.

    For every pair with |r| > threshold the higher column id is removed and
    its retained partner logged.  Correlations are pairwise-complete, so the
    greedy pass over the full matrix leaves no surviving pair above the
    threshold.
    """
    if not 0 < threshold < 1:
        raise PreprocessError("threshold must be in (0, 1)")
    r = correlation_matrix(d)
    order = np.argsort(d.column_ids, kind="stable")
    alive = {int(c): True for c in d.column_ids}
    entries = []
    for ii in order:
        ci = int(d.column_ids[ii])
        if not alive[ci]:
            continue
        for jj in order:
            cj = int(d.column_ids[jj])
            if cj <= ci or not alive[cj]:
                continue
            rij = r[ii, jj]
            if np.isfinite(rij) and abs(rij) > threshold:
                alive[cj] = False
                entries.append(DropEntry(cj, "correlated", threshold, kept_partner=ci))
    kept = [c for c in d.column_ids if alive[int(c)]]
    if not kept:
        raise PreprocessError("no features remain after correlation pruning")
    return d.select_columns(kept), DropLog(tuple(entries))


def fit_scaler(train: Dataset) -> ScalerParams:
    """Per-column min, max, and average over present training values."""
    stats = column_stats(train)
    for s in stats:
        if s.min is None or s.min == s.max:
            raise PreprocessError(f"cannot scale constant or empty column {s.column_id}")
    return ScalerParams(train.column_ids.copy(), np.array([s.min for s in stats]),
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
    return d.with_values(0.5 + (d.features.values - ave) / rng)


def _class_shuffles(labels: np.ndarray, seed: int) -> dict[int, np.ndarray]:
    rng = np.random.default_rng(seed)
    out = {}
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        out[cls] = rng.permutation(idx)
    return out


def stratified_split(d: Dataset, test_fraction: float, seed: int) -> SplitPlan:
    """Per-class seeded shuffle; per-class test count rounds half-up."""
    if not 0 < test_fraction < 1:
        raise PreprocessError("test_fraction must be in (0, 1)")
    counts = np.bincount(d.labels, minlength=2)
    if counts[0] < 2 or counts[1] < 2:
        raise PreprocessError("each class needs at least 2 members to split")
    shuffled = _class_shuffles(d.labels, seed)
    test_parts, train_parts = [], []
    for cls in (0, 1):
        n_test = _round_half_up(counts[cls] * test_fraction)
        test_parts.append(shuffled[cls][:n_test])
        train_parts.append(shuffled[cls][n_test:])
    train = np.sort(np.concatenate(train_parts))
    test = np.sort(np.concatenate(test_parts))
    return SplitPlan(train, test, seed)


def stratified_kfold(d: Dataset, k: int, seed: int) -> SplitPlan:
    """Round-robin fold assignment per class after a seeded shuffle."""
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
    train, test = np.nonzero(folds != 0)[0], np.nonzero(folds == 0)[0]
    return SplitPlan(train, test, seed, fold_assignments=folds)
