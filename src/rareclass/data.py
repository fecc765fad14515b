"""Dataset loading and per-column exploratory statistics.

Feature matrices are dense float64 arrays with NaN marking missing cells.
Column identifiers are the original 0-based column indices and are preserved
unchanged through any downstream pruning.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureMatrix",
    "Dataset",
    "ColumnStats",
    "DataError",
    "load_secom",
    "load_delimited",
    "column_stats",
    "correlation_matrix",
    "is_count",
]


# cells `load_delimited` reads as missing
_MISSING_TOKENS = frozenset(("", "NaN", "NA"))


class DataError(ValueError):
    """Raised for malformed or inconsistent input files."""


def is_count(v) -> bool:
    """An integer >= 1 and not a bool, such as a neighbour or iteration count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense table of optional reals. NaN encodes a missing cell."""

    values: np.ndarray       # (n_rows, n_cols) float64
    column_ids: np.ndarray   # (n_cols,) int64, stable original indices

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        c = np.asarray(self.column_ids, dtype=np.int64)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "column_ids", c)
        if v.ndim != 2:
            raise DataError("feature values must be 2-dimensional")
        if c.shape != (v.shape[1],):
            raise DataError("column_ids length must match number of columns")
        if len(np.unique(c)) != len(c):
            raise DataError("column_ids must be unique")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    @property
    def present(self) -> np.ndarray:
        """Boolean mask of present (non-missing) cells."""
        return ~np.isnan(self.values)

    def select_columns(self, keep_ids) -> "FeatureMatrix":
        """Subset to the given column ids, preserving their identifiers."""
        pos = {c: k for k, c in enumerate(self.column_ids.tolist())}
        try:
            idx = [pos[c] for c in np.asarray(keep_ids, dtype=np.int64).tolist()]
        except KeyError as e:
            raise KeyError(f"unknown column id {e.args[0]}") from None
        return FeatureMatrix(self.values[:, idx], self.column_ids[idx])

    def take_rows(self, row_idx) -> "FeatureMatrix":
        idx = np.asarray(row_idx, dtype=np.int64)
        return FeatureMatrix(self.values[idx], self.column_ids.copy())


@dataclass(frozen=True)
class Dataset:
    """FeatureMatrix plus binary labels (1 = fail/minority positive class)."""

    features: FeatureMatrix
    labels: np.ndarray                    # (n_rows,) int64 in {0, 1}

    def __post_init__(self):
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", y)
        if y.shape != (self.features.n_rows,):
            raise DataError("labels length must equal number of rows")
        if not np.isin(y, (0, 1)).all():
            raise DataError("labels must be binary 0/1")

    @property
    def n_rows(self) -> int:
        return self.features.n_rows

    @property
    def n_cols(self) -> int:
        return self.features.n_cols

    @property
    def column_ids(self) -> np.ndarray:
        return self.features.column_ids

    def with_values(self, values: np.ndarray) -> "Dataset":
        return Dataset(FeatureMatrix(values, self.features.column_ids.copy()), self.labels.copy())

    def select_columns(self, keep_ids) -> "Dataset":
        return Dataset(self.features.select_columns(keep_ids), self.labels.copy())

    def take_rows(self, row_idx) -> "Dataset":
        idx = np.asarray(row_idx, dtype=np.int64)
        return Dataset(self.features.take_rows(idx), self.labels[idx])


@dataclass(frozen=True)
class ColumnStats:
    column_id: int
    missing_fraction: float
    mean: float | None
    median: float | None
    skewness: float | None
    min: float | None
    max: float | None
    is_constant: bool


def _parse_float(token: str, path: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataError(f"{path}:{line_no}: unparseable numeric token {token!r}") from None


def _tokenize_secom(fh, path) -> np.ndarray:
    """Parse the sensor file one token at a time; slow, but every error
    names the file and line."""
    rows = []
    for line_no, line in enumerate(fh, 1):
        if not line.strip():
            continue
        rows.append([_parse_float(t, str(path), line_no) for t in line.split()])
    if not rows:
        raise DataError(f"empty input: {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{path}: inconsistent column counts {sorted(widths)}")
    return np.array(rows, dtype=np.float64)


def load_secom(data_path, labels_path) -> Dataset:
    """Load the whitespace-separated sensor file and its labels file.

    The data file uses the literal token "NaN" for missing cells.  Each
    labels line starts with -1 (pass) or 1 (fail); trailing tokens (a
    timestamp) are ignored.

    numpy's C reader parses the data file, converting each cell with the
    same routine as `float()`.  A file it rejects (a bad cell, ragged
    rows) or finds empty is parsed again by the token loop, so every file
    loads to the loop's bits or raises the loop's DataError.
    """
    with open(data_path) as fh:
        try:
            with warnings.catch_warnings():
                # an empty file: the token loop raises for it
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:                   # a bad cell or ragged rows
            values = np.empty((0, 0))
        if not values.shape[0]:
            fh.seek(0)
            values = _tokenize_secom(fh, data_path)

    labels = []
    with open(labels_path) as fh:
        for line_no, line in enumerate(fh, 1):
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] not in ("-1", "1"):
                raise DataError(f"{labels_path}:{line_no}: label must be -1 or 1, got {tokens[0]!r}")
            labels.append(0 if tokens[0] == "-1" else 1)
    if not labels:
        raise DataError(f"empty input: {labels_path}")
    if len(labels) != len(values):
        raise DataError(f"row-count mismatch: {len(values)} data rows vs {len(labels)} labels")
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1])), np.array(labels))


def load_delimited(path, label_column: str, delimiter: str = ",") -> Dataset:
    """Load a delimited text file with a header row.  An empty, `NA` or
    `NaN` cell is missing.  The file is parsed one cell at a time, so every
    error names the file and, for a row, its line in the file.

    The label column must hold exactly two distinct values; the less
    frequent one becomes class 1.  A frequency tie is broken by mapping the
    lexicographically larger value to class 1.
    """
    with open(path) as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise DataError(f"empty input: {path}")
    header = lines[0][1].split(delimiter)
    if label_column not in header:
        raise DataError(f"label column {label_column!r} not found in header")
    label_pos = header.index(label_column)

    raw_labels = []
    rows = []
    for line_no, line in lines[1:]:
        tokens = line.split(delimiter)
        if len(tokens) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} fields, got {len(tokens)}")
        raw_labels.append(tokens[label_pos].strip())
        row = []
        for i, tok in enumerate(tokens):
            if i == label_pos:
                continue
            tok = tok.strip()
            row.append(math.nan if tok in _MISSING_TOKENS else _parse_float(tok, str(path), line_no))
        rows.append(row)
    if not rows:
        raise DataError(f"empty input: {path}")
    values = np.array(rows, dtype=np.float64)

    distinct = sorted(set(raw_labels))
    if len(distinct) != 2:
        raise DataError(f"label column must have exactly 2 distinct values, got {len(distinct)}")
    counts = {v: raw_labels.count(v) for v in distinct}
    # minority value -> positive class; lexicographic tie-break
    positive = distinct[1] if counts[distinct[0]] == counts[distinct[1]] else min(distinct, key=lambda v: counts[v])
    labels = np.array([1 if v == positive else 0 for v in raw_labels])
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1])), labels)


def _skewness(x: np.ndarray) -> float:
    """Fisher population skewness; 0 for constant or n < 3 samples."""
    if len(x) < 3:
        return 0.0
    d = x - x.mean()
    d2 = d * d
    m2 = d2.mean()
    if m2 <= 0:
        return 0.0
    return float((d2 * d).mean() / m2 ** 1.5)


def column_stats(d: Dataset) -> list[ColumnStats]:
    """Per-column summary over present values only.

    An all-missing column reports missing_fraction 1.0 with absent moments
    and is_constant False.
    """
    out = []
    v = d.features.values
    for j, cid in enumerate(d.column_ids):
        col = v[:, j]
        present = col[~np.isnan(col)]
        miss = 1.0 - len(present) / len(col) if len(col) else 1.0
        if len(present) == 0:
            out.append(ColumnStats(int(cid), 1.0, None, None, None, None, None, False))
            continue
        constant = bool(np.all(present == present[0]))
        out.append(ColumnStats(
            column_id=int(cid),
            missing_fraction=float(miss),
            mean=float(present.mean()),
            median=float(np.median(present)),
            skewness=_skewness(present),
            min=float(present.min()),
            max=float(present.max()),
            is_constant=constant,
        ))
    return out


def correlation_matrix(d: Dataset) -> np.ndarray:
    """Pairwise-complete Pearson correlations.

    Entry (i, j) uses only rows where both columns are present.  Pairs with
    fewer than 2 shared rows or zero variance on the shared rows are NaN.
    A variance counts as zero when the centred sum of squares is at most
    1e-12 of the uncentred one, a cut that does not depend on the column's
    units.  The result is exactly symmetric with unit diagonal for
    non-degenerate columns.
    """
    v = d.features.values
    missing = np.isnan(v)
    m = (~missing).astype(np.float64)
    x = np.where(missing, 0.0, v)
    del missing                      # each n x p temporary is freed once it is last read

    sx = x.T @ m                     # sx[i,j] = sum of col i over rows where j present
    sxy = x.T @ x
    sxx = np.multiply(x, x, out=x).T @ m
    del x
    n = m.T @ m                      # shared present counts
    del m                            # the p x p arithmetic below holds no n x p array

    with np.errstate(invalid="ignore", divide="ignore"):
        cov = sxy - sx * sx.T / n
        var_i = sxx - sx ** 2 / n
        denom = np.sqrt(var_i * var_i.T)
        r = cov / denom

    flat = var_i <= 1e-12 * sxx      # relative to the column's own scale
    bad = (n < 2) | flat | flat.T
    r[bad] = np.nan
    r = np.clip(r, -1.0, 1.0)
    r = (r + r.T) / 2.0              # enforce exact symmetry
    np.fill_diagonal(r, np.where(np.diag(bad), np.nan, 1.0))
    return r
