"""Training-set rebalancing: synthetic minority interpolation, random
majority under-sampling, and the combined over/under strategy."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, FeatureMatrix, is_count

__all__ = [
    "SmoteParams",
    "ResamplePlan",
    "SyntheticRecord",
    "ResampleError",
    "smote",
    "random_undersample",
    "combined_resample",
]


class ResampleError(ValueError):
    pass


@dataclass(frozen=True)
class SmoteParams:
    target_ratio: float          # minority/majority after oversampling
    k_neighbors: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.target_ratio <= 1:
            raise ResampleError("target_ratio must be in (0, 1]")
        if not is_count(self.k_neighbors):
            raise ResampleError(f"k_neighbors must be an integer >= 1, got {self.k_neighbors!r}")


@dataclass(frozen=True)
class SyntheticRecord:
    output_row: int      # row index in the resampled dataset
    parent_row: int      # x_i row index in the input dataset
    neighbor_row: int    # x_j row index in the input dataset
    lam: float


@dataclass(frozen=True)
class ResamplePlan:
    strategy: str                       # smote_only | under_only | combined
    over_ratio: float | None
    under_ratio: float | None
    counts_before: tuple                # (majority, minority)
    counts_after: tuple
    synthetic_records: tuple = ()

    def to_csv(self) -> str:
        lines = [
            "field,value",
            f"strategy,{self.strategy}",
            f"over_ratio,{'' if self.over_ratio is None else f'{self.over_ratio:g}'}",
            f"under_ratio,{'' if self.under_ratio is None else f'{self.under_ratio:g}'}",
            f"majority_before,{self.counts_before[0]}",
            f"minority_before,{self.counts_before[1]}",
            f"majority_after,{self.counts_after[0]}",
            f"minority_after,{self.counts_after[1]}",
            "",
            "output_row,parent_row,neighbor_row,lambda",
        ]
        for s in self.synthetic_records:
            lines.append(f"{s.output_row},{s.parent_row},{s.neighbor_row},{s.lam!r}")
        return "\n".join(lines) + "\n"


def _class_counts(labels: np.ndarray) -> tuple[int, int]:
    c = np.bincount(labels, minlength=2)
    return int(c[0]), int(c[1])


def smote(train: Dataset, p: SmoteParams) -> tuple[Dataset, ResamplePlan]:
    """Append interpolated minority rows until minority = floor(target_ratio
    * majority).

    Each synthetic row is x_i + lam * (x_j - x_i) with x_i a seeded-random
    minority row, x_j one of its k nearest minority neighbours, and a single
    lam ~ U(0, 1) shared across features.  Randomness comes from per-row
    substreams of (seed, output index), so output is independent of any
    parallel execution order.
    """
    v = train.features.values
    if np.isnan(v).any():
        raise ResampleError("training data must be fully imputed before resampling")
    n_maj, n_min = _class_counts(train.labels)
    if n_min <= p.k_neighbors:
        raise ResampleError(f"minority count {n_min} must exceed k_neighbors {p.k_neighbors}")

    target = int(np.floor(p.target_ratio * n_maj))
    n_new = target - n_min
    plan_base = dict(strategy="smote_only", over_ratio=p.target_ratio, under_ratio=None,
                     counts_before=(n_maj, n_min))
    if n_new <= 0:
        return train, ResamplePlan(**plan_base, counts_after=(n_maj, n_min))

    min_idx = np.nonzero(train.labels == 1)[0]
    minority = v[min_idx]
    # pairwise distances among minority rows; k nearest excluding self
    sq = (minority ** 2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (minority @ minority.T)
    np.fill_diagonal(d2, np.inf)
    neighbor_table = np.argsort(d2, axis=1, kind="stable")[:, : p.k_neighbors]

    new_rows = np.empty((n_new, train.n_cols))
    records = []
    for out_i in range(n_new):
        rng = np.random.default_rng([p.seed, out_i])
        i_local = int(rng.integers(0, n_min))
        j_local = int(neighbor_table[i_local, rng.integers(0, p.k_neighbors)])
        lam = float(rng.uniform())
        xi, xj = minority[i_local], minority[j_local]
        new_rows[out_i] = xi + lam * (xj - xi)
        records.append(SyntheticRecord(train.n_rows + out_i,
                                       int(min_idx[i_local]), int(min_idx[j_local]), lam))

    values = np.vstack([v, new_rows])
    labels = np.concatenate([train.labels, np.ones(n_new, dtype=np.int64)])
    out = Dataset(FeatureMatrix(values, train.column_ids.copy()), labels)
    plan = ResamplePlan(**plan_base, counts_after=(n_maj, target),
                        synthetic_records=tuple(records))
    return out, plan


def random_undersample(train: Dataset, target_ratio: float,
                       seed: int) -> tuple[Dataset, ResamplePlan]:
    """Reduce the majority class to floor(minority / target_ratio) rows by
    seeded sampling without replacement. Minority rows are untouched."""
    if not 0 < target_ratio <= 1:
        raise ResampleError("target_ratio must be in (0, 1]")
    n_maj, n_min = _class_counts(train.labels)
    if n_min == 0:
        raise ResampleError("no minority rows present")
    target_maj = int(np.floor(n_min / target_ratio))

    if target_maj >= n_maj:
        warnings.warn("target_ratio does not require removing any majority rows")
        return train, ResamplePlan("under_only", None, target_ratio,
                                   (n_maj, n_min), (n_maj, n_min))

    rng = np.random.default_rng(seed)
    maj_idx = np.nonzero(train.labels == 0)[0]
    keep_maj = np.sort(rng.choice(maj_idx, size=target_maj, replace=False))
    keep = np.sort(np.concatenate([keep_maj, np.nonzero(train.labels == 1)[0]]))
    plan = ResamplePlan("under_only", None, target_ratio, (n_maj, n_min), (target_maj, n_min))
    return train.take_rows(keep), plan


def combined_resample(train: Dataset, over_ratio: float, under_ratio: float,
                      k_neighbors: int = 5, seed: int = 0) -> tuple[Dataset, ResamplePlan]:
    """Oversample the minority to over_ratio, then under-sample the majority
    to under_ratio. With 1:14 input and ratios 0.4/0.8 the final balance is
    about 4:5."""
    over, plan1 = smote(train, SmoteParams(over_ratio, k_neighbors, seed))
    out, plan2 = random_undersample(over, under_ratio, seed + 1)
    # only majority rows are removed, all of them ahead of the synthetic
    # rows at the end, so each synthetic row moves up by the removed count
    removed = over.n_rows - out.n_rows
    records = tuple(replace(s, output_row=s.output_row - removed)
                    for s in plan1.synthetic_records)
    plan = ResamplePlan(
        strategy="combined",
        over_ratio=over_ratio,
        under_ratio=under_ratio,
        counts_before=plan1.counts_before,
        counts_after=plan2.counts_after,
        synthetic_records=records,
    )
    return out, plan
