"""Synthetic imbalanced sensor-style data for demos and tests.

Generates a wide table with a handful of informative columns, noise
columns, optional constant / duplicated / high-missing columns, and a
missing-cell mask, mimicking the structure of real fab sensor dumps."""

from __future__ import annotations

import numpy as np

from .data import Dataset, FeatureMatrix


def make_imbalanced(n_rows: int = 400, n_informative: int = 5, n_noise: int = 15,
                    positive_fraction: float = 0.1, missing_fraction: float = 0.04,
                    n_constant: int = 0, n_duplicate: int = 0, n_high_missing: int = 0,
                    class_separation: float = 1.5, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    n_pos = max(2, int(round(n_rows * positive_fraction)))
    y = np.zeros(n_rows, dtype=np.int64)
    y[rng.choice(n_rows, size=n_pos, replace=False)] = 1

    cols = []
    for _ in range(n_informative):
        shift = class_separation * rng.uniform(0.5, 1.5)
        col = rng.normal(0, 1, n_rows) + shift * y
        cols.append(col)
    for _ in range(n_noise):
        cols.append(rng.normal(0, 1, n_rows))
    for _ in range(n_constant):
        cols.append(np.full(n_rows, rng.uniform(-5, 5)))
    for _ in range(n_duplicate):
        src = rng.integers(0, n_informative + n_noise)
        cols.append(cols[src] + rng.normal(0, 1e-9, n_rows))

    X = np.column_stack(cols)
    if missing_fraction > 0:
        mask = rng.random(X.shape) < missing_fraction
        X[mask] = np.nan
    for _ in range(n_high_missing):
        col = rng.normal(0, 1, n_rows)
        hole = rng.random(n_rows) < 0.8
        col[hole] = np.nan
        X = np.column_stack([X, col])

    return Dataset(FeatureMatrix(X, np.arange(X.shape[1])), y)


def write_secom_like(d: Dataset, data_path, labels_path, seed: int = 0) -> None:
    """Serialize a dataset in the whitespace/NaN sensor file format with a
    matching labels file.  Each cell is written with 4 decimals, or as
    `NaN` when missing; the file is streamed one row per line, each line
    formatted by one `%` call on that row alone."""
    rng = np.random.default_rng(seed)
    line = " ".join(["%.4f"] * d.n_cols) + "\n"
    with open(data_path, "w") as fh:
        # "%.4f" writes any NaN as "nan", and no other cell holds "nan"
        fh.writelines((line % tuple(row.tolist())).replace("nan", "NaN")
                      for row in d.features.values)
    with open(labels_path, "w") as fh:
        for i, label in enumerate(d.labels):
            stamp = f"19/07/2008 {rng.integers(0, 24):02d}:{rng.integers(0, 60):02d}:00"
            fh.write(f"{1 if label == 1 else -1} {stamp}\n")
