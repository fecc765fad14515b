"""Pruning, scaling and imputation depend only on training rows.

Property 1: which columns prune keeps, with its drops.csv text, and what
the training partition turns into, are the same bits when the test rows
are changed, added or dropped; for MICE in both noise modes.
Property 2 (kNN and deterministic MICE, which fill train then test as one
table fitted on its first n_train rows): the training rows of that call
equal the training partition filled alone, and each test row equals that
row filled alone after the training rows, bit for bit.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass import impute, models, pipeline
from rareclass.config import PipelineConfig
from rareclass.data import Dataset, FeatureMatrix
from rareclass.preprocess import SplitPlan, stratified_split
from rareclass.synth import make_imbalanced, write_secom_like
from model_checks import model_bytes

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


def _plant(rng, train, *tests):
    """Append four columns that only their training rows make prunable:
    constant there, present on one training row, missing on every training
    row, and an exact linear image of column 0.  Their test rows are
    present and spread far wider."""
    n = len(train)
    one_present = np.full(n, np.nan)
    one_present[0] = 1.0
    planted = np.column_stack([np.full(n, 3.0), one_present, np.full(n, np.nan),
                               2.0 * train[:, 0] + 1.0])
    return [np.hstack([train, planted])] + [
        np.hstack([t, rng.normal(size=(len(t), 4)) * 1e3]) for t in tests]


@st.composite
def partitions(draw, planted=False):
    """A training and a test partition, and a second test partition that
    changes, extends or shrinks the first; with `planted`, `_plant`'s
    columns are appended to all three."""
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
    if planted:
        train, test, other = _plant(rng, train, test, other)
    return _dataset(train), _dataset(test), _dataset(other)


def _pruned(train, test, cfg=PipelineConfig()):
    """The result of the prune stage on the training rows then the test rows."""
    n = train.n_rows + test.n_rows
    res = pipeline.PipelineResult(
        raw=_dataset(np.vstack([train.features.values, test.features.values])),
        split=SplitPlan(np.arange(train.n_rows), np.arange(train.n_rows, n)))
    pipeline._prune(cfg, res)
    return res


def _kept_and_drops(train, test, threshold):
    res = _pruned(train, test, PipelineConfig(missing_drop_threshold=threshold))
    with tempfile.TemporaryDirectory() as out:
        pipeline.emit_report(res.report, out, result=res)
        return res.train_set.column_ids.tolist(), (Path(out) / "drops.csv").read_text()


def _scaled_train(train, test):
    res = _pruned(train, test)
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
@given(partitions(planted=True), st.sampled_from([0.5, 1.0]))
def test_pruned_columns_ignore_the_test_rows(parts, threshold):
    train, test, other = parts
    kept, drops = _kept_and_drops(train, test, threshold)
    assert not set(kept) & set(train.column_ids[-4:].tolist())
    assert (kept, drops) == _kept_and_drops(train, other, threshold)


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


def test_test_row_values_never_reach_a_fitted_artifact(tmp_path):
    # two fixtures that differ only in the feature values of the test
    # rows; the labels, and so the split, are the same
    d = make_imbalanced(n_rows=300, n_informative=4, n_noise=8, positive_fraction=0.15,
                        missing_fraction=0.05, n_constant=1, n_duplicate=1,
                        n_high_missing=1, seed=0)
    test = stratified_split(d, PipelineConfig().test_fraction, 0).test_row_indices
    values = d.features.values.copy()
    values[test] = np.random.default_rng(1).normal(size=(len(test), d.n_cols))
    runs = []
    for name, v in (("a", d.features.values), ("b", values)):
        paths = str(tmp_path / f"{name}.data"), str(tmp_path / f"{name}_labels.data")
        write_secom_like(Dataset(FeatureMatrix(v, d.column_ids), d.labels), *paths)
        cfg = pipeline.scenario_config(3, 0, *paths, out_dir=tmp_path / name, roster="fast")
        res = pipeline.run_pipeline(cfg)
        pipeline.emit_report(res.report, cfg.out_dir, result=res)
        runs.append((res, tmp_path / name))
    (a, out_a), (b, out_b) = runs
    assert not np.array_equal(a.test_set.features.values, b.test_set.features.values)
    assert set(a.trained) == set(models.FAMILIES)
    for name in ("drops.csv", "votes.csv", "resample_plan.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    for fam in a.trained:
        assert model_bytes(a.trained[fam]) == model_bytes(b.trained[fam]), fam
