"""Scaling and imputation depend only on training rows.

Property 1: what the training partition turns into is the same bits when
the test rows are changed, added or dropped; for MICE in both noise modes.
Property 2 (kNN and deterministic MICE, which fill train then test as one
table fitted on its first n_train rows): the training rows of that call
equal the training partition filled alone, and each test row equals that
row filled alone after the training rows, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass import impute, pipeline
from rareclass.config import PipelineConfig
from rareclass.data import Dataset, FeatureMatrix
from rareclass.preprocess import SplitPlan

FULL_ROWS = 3       # training rows with no missing cell, so every fit is defined


def _dataset(values):
    labels = np.zeros(len(values), dtype=int)
    labels[::3] = 1
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1]) * 7 + 2), labels)


def _rows(rng, n_rows, n_cols, missing, full=0):
    v = rng.normal(size=(n_rows, n_cols)) * rng.uniform(0.1, 50.0, size=n_cols)
    holes = rng.random(v.shape) < missing
    holes[:full] = False
    v[holes] = np.nan
    return v


@st.composite
def partitions(draw):
    """A training and a test partition, and a second test partition that
    changes, extends or shrinks the first."""
    # a row-wise sum of eight or more terms is where summation order shows
    n_cols = draw(st.integers(2, 14))
    n_train = draw(st.integers(FULL_ROWS + 1, 20))
    n_test = draw(st.integers(1, 6))
    missing = draw(st.sampled_from([0.05, 0.15, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    train = _rows(rng, n_train, n_cols, missing, full=FULL_ROWS)
    test = _rows(rng, n_test, n_cols, missing)
    change = draw(st.sampled_from(["changed", "added", "dropped"]))
    if change == "changed":
        other = _rows(rng, n_test, n_cols, missing)
    elif change == "added":
        other = np.vstack([test, _rows(rng, draw(st.integers(1, 4)), n_cols, missing)])
    else:
        other = test[np.sort(rng.permutation(n_test)[:draw(st.integers(0, n_test - 1))])]
    return _dataset(train), _dataset(test), _dataset(other)


def _scaled_train(train, test):
    n = train.n_rows + test.n_rows
    res = pipeline.PipelineResult(
        pruned=_dataset(np.vstack([train.features.values, test.features.values])),
        split=SplitPlan(np.arange(train.n_rows), np.arange(train.n_rows, n)))
    pipeline._scale(PipelineConfig(), res)
    return res.train_set


IMPUTE_CONFIGS = {
    "simple": {"impute_method": "simple"},
    "knn": {"impute_method": "knn", "knn_k": 2},
    "mice": {"impute_method": "mice", "mice_iterations": 2},
    "mice_gaussian": {"impute_method": "mice", "mice_iterations": 2,
                      "mice_noise_mode": "gaussian_residual_draw"},
}


def _imputed_train(method, train, test):
    cfg = PipelineConfig(**IMPUTE_CONFIGS[method])
    res = pipeline.PipelineResult(train_set=train, test_set=test)
    pipeline._impute(cfg, res)
    return res.train_set


def _same(a: Dataset, b: Dataset) -> bool:
    return (np.array_equal(a.features.values, b.features.values, equal_nan=True)
            and np.array_equal(a.column_ids, b.column_ids)
            and np.array_equal(a.labels, b.labels))


@settings(max_examples=60, deadline=None)
@given(partitions())
def test_scaled_training_rows_ignore_the_test_rows(parts):
    train, test, other = parts
    assert _same(_scaled_train(train, test), _scaled_train(train, other))


@settings(max_examples=60, deadline=None)
@given(partitions(), st.sampled_from(sorted(IMPUTE_CONFIGS)))
def test_imputed_training_rows_ignore_the_test_rows(parts, method):
    train, test, other = parts
    assert _same(_imputed_train(method, train, test), _imputed_train(method, train, other))


FILLS = {
    "knn": (impute.knn_impute, impute.KnnImputeParams(k=2)),
    "mice": (impute.mice_impute, impute.MiceParams(n_iterations=3)),
}


@pytest.mark.parametrize("method", sorted(FILLS))
@settings(max_examples=100, deadline=None)
@given(parts=partitions())
def test_one_pass_equals_two(parts, method):
    train, test, _ = parts
    fill, p = FILLS[method]
    n = train.n_rows
    tv = train.features.values
    one = fill(p, _dataset(np.vstack([tv, test.features.values])), n_train=n).features.values
    assert np.array_equal(one[:n], fill(p, train, n_train=n).features.values)
    for r, row in enumerate(test.features.values):
        alone = fill(p, _dataset(np.vstack([tv, row])), n_train=n).features.values
        assert np.array_equal(one[n + r], alone[n])
