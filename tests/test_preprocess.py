import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass.data import Dataset, FeatureMatrix, column_stats, correlation_matrix
from rareclass.preprocess import (DropEntry, DropLog, PreprocessError, apply_scaler,
                                  drop_constant, drop_correlated, drop_high_missing,
                                  fit_scaler, stratified_kfold, stratified_split)


def _ds(values, labels=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = np.zeros(len(values), dtype=int)
        labels[: max(1, len(values) // 3)] = 1
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1])), labels)


def _removed(log):
    return [e.column_id for e in log.entries]


def _narrowed(drop, d, *args):
    """A column-statistics drop applied to d: the kept columns of d, and the log."""
    kept, log = drop(column_stats(d), *args)
    return d.select_columns(kept), log


class TestDrops:
    def test_high_missing_direct(self):
        v = np.array([[1, np.nan], [2, np.nan], [3, np.nan], [4, 1.0]])
        d = _ds(v)
        kept, log = drop_high_missing(column_stats(d), 0.5)
        assert _removed(log) == [1]
        assert kept == [0]

    def test_vacuous_threshold(self, messy_imbalanced):
        kept, log = drop_high_missing(column_stats(messy_imbalanced), 1.0)
        assert _removed(log) == []
        assert kept == list(messy_imbalanced.column_ids)

    def test_constant_and_all_missing_dropped(self):
        v = np.array([[1.0, 7.0, np.nan], [2.0, 7.0, np.nan], [3.0, 7.0, np.nan]])
        d = _ds(v)
        kept, log = drop_constant(column_stats(d))
        assert kept == [0]
        assert sorted(_removed(log)) == [1, 2]
        assert all(e.reason == "constant" for e in log.entries)

    def test_constant_identity_when_none(self, clean_imbalanced):
        kept, log = drop_constant(column_stats(clean_imbalanced))
        assert _removed(log) == []
        assert kept == list(clean_imbalanced.column_ids)

    def test_single_constant_column_errors(self):
        d = _ds(np.array([[3.0], [3.0], [3.0]]))
        with pytest.raises(PreprocessError, match="no features remain"):
            drop_constant(column_stats(d))

    def test_duplicate_column_keeps_earlier(self):
        x = np.array([1.0, 2.0, 5.0, 9.0])
        d = _ds(np.column_stack([x, x * 2]))
        out, log = drop_correlated(d, 0.7)
        assert list(out.column_ids) == [0]
        assert log.entries[0].kept_partner == 0

    def test_orthogonal_columns_identity(self):
        v = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        out, log = drop_correlated(_ds(v), 0.7)
        assert _removed(log) == []

    def test_no_surviving_pair_above_threshold(self, messy_imbalanced):
        d, _ = _narrowed(drop_high_missing, messy_imbalanced, 0.5)
        d, _ = _narrowed(drop_constant, d)
        out, _ = drop_correlated(d, 0.7)
        r = correlation_matrix(out)
        np.fill_diagonal(r, 0.0)
        assert np.nanmax(np.abs(r)) <= 0.7

    def test_pruning_idempotent(self, messy_imbalanced):
        d1, _ = _narrowed(drop_high_missing, messy_imbalanced, 0.5)
        d2, log = _narrowed(drop_high_missing, d1, 0.5)
        assert _removed(log) == []
        c1, _ = _narrowed(drop_constant, d1)
        c2, log = _narrowed(drop_constant, c1)
        assert _removed(log) == []
        r1, _ = drop_correlated(c1, 0.7)
        r2, log = drop_correlated(r1, 0.7)
        assert _removed(log) == []


class TestScaler:
    def test_fit_simple(self):
        p = fit_scaler(column_stats(_ds(np.array([[0.0], [1.0], [2.0]]))))
        assert p.min_x[0] == 0 and p.max_x[0] == 2 and p.ave_x[0] == 1

    def test_constant_column_errors_with_name(self):
        with pytest.raises(PreprocessError, match="column 0"):
            fit_scaler(column_stats(_ds(np.array([[4.0], [4.0]]))))

    def test_fit_ignores_missing(self):
        p = fit_scaler(column_stats(_ds(np.array([[0.0], [np.nan], [2.0]]))))
        assert p.ave_x[0] == 1.0

    def test_symmetric_case(self):
        d = _ds(np.array([[0.0], [1.0], [2.0]]))
        out = apply_scaler(fit_scaler(column_stats(d)), d)
        assert list(out.features.values[:, 0]) == [0.0, 0.5, 1.0]

    def test_output_can_exceed_unit_interval(self):
        d = _ds(np.array([[0.0], [0.0], [0.0], [4.0]]))
        out = apply_scaler(fit_scaler(column_stats(d)), d)
        assert list(out.features.values[:, 0]) == [0.25, 0.25, 0.25, 1.25]

    def test_extrapolation_not_clamped(self):
        train = _ds(np.array([[1.0], [2.0], [3.0]]))
        p = fit_scaler(column_stats(train))
        test = _ds(np.array([[0.0], [1.0]]))
        out = apply_scaler(p, test)
        assert out.features.values[0, 0] < out.features.values[1, 0]
        assert out.features.values[0, 0] == 0.5 + (0.0 - 2.0) / 2.0

    def test_train_range_maps_to_unit_width(self, clean_imbalanced):
        p = fit_scaler(column_stats(clean_imbalanced))
        out = apply_scaler(p, clean_imbalanced)
        v = out.features.values
        widths = np.nanmax(v, axis=0) - np.nanmin(v, axis=0)
        assert np.allclose(widths, 1.0)

    def test_missing_cells_stay_missing(self):
        train = _ds(np.array([[1.0], [2.0], [np.nan]]))
        out = apply_scaler(fit_scaler(column_stats(train)), train)
        assert np.isnan(out.features.values[2, 0])

    def test_unknown_column_rejected(self):
        p = fit_scaler(column_stats(_ds(np.array([[1.0], [2.0]]))))
        other = Dataset(FeatureMatrix(np.array([[1.0]]), [5]), np.array([0]))
        with pytest.raises(PreprocessError, match="column 5"):
            apply_scaler(p, other)


class TestSplits:
    def test_counts_1567_104(self):
        labels = np.zeros(1567, dtype=int)
        labels[:104] = 1
        d = _ds(np.arange(1567, dtype=float).reshape(-1, 1), labels)
        plan = stratified_split(d, 0.3, seed=0)
        assert len(plan.test_row_indices) == 470
        assert labels[plan.test_row_indices].sum() == 31

    def test_determinism(self, clean_imbalanced):
        a = stratified_split(clean_imbalanced, 0.3, seed=9)
        b = stratified_split(clean_imbalanced, 0.3, seed=9)
        assert np.array_equal(a.train_row_indices, b.train_row_indices)
        assert np.array_equal(a.test_row_indices, b.test_row_indices)

    def test_partition_property(self, clean_imbalanced):
        plan = stratified_split(clean_imbalanced, 0.3, seed=1)
        union = np.sort(np.concatenate([plan.train_row_indices, plan.test_row_indices]))
        assert np.array_equal(union, np.arange(clean_imbalanced.n_rows))

    def test_single_class_rejected(self):
        d = Dataset(FeatureMatrix(np.zeros((5, 1)), [0]), np.zeros(5, dtype=int))
        with pytest.raises(PreprocessError):
            stratified_split(d, 0.3, 0)

    def test_test_count_within_one_of_round(self, clean_imbalanced):
        for frac in (0.1, 0.25, 0.3, 0.5):
            plan = stratified_split(clean_imbalanced, frac, seed=2)
            n_pos = int(clean_imbalanced.labels.sum())
            got = int(clean_imbalanced.labels[plan.test_row_indices].sum())
            assert abs(got - round(n_pos * frac)) <= 1


class TestKFold:
    def test_fold_balance_104_positives(self):
        labels = np.zeros(600, dtype=int)
        labels[:104] = 1
        d = _ds(np.arange(600, dtype=float).reshape(-1, 1), labels)
        folds = stratified_kfold(d, 5, seed=0)
        per_fold = [labels[folds == f].sum() for f in range(5)]
        assert sorted(per_fold) == [20, 21, 21, 21, 21]

    def test_partition(self, clean_imbalanced):
        folds = stratified_kfold(clean_imbalanced, 5, seed=3)
        assert set(folds) == set(range(5))
        covered = np.concatenate([np.nonzero(folds == f)[0] for f in range(5)])
        assert len(covered) == clean_imbalanced.n_rows
        assert len(np.unique(covered)) == clean_imbalanced.n_rows

    def test_minority_below_k_rejected(self):
        labels = np.zeros(30, dtype=int)
        labels[:3] = 1
        d = _ds(np.arange(30, dtype=float).reshape(-1, 1), labels)
        with pytest.raises(PreprocessError):
            stratified_kfold(d, 5, seed=0)


def _reference_drop_correlated(d, threshold):
    """The O(p^2) pair walk in ascending column-id order: (kept ids, log)."""
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
    return [int(c) for c in d.column_ids if alive[int(c)]], DropLog(tuple(entries))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40), n_cols=st.integers(1, 10),
       threshold=st.sampled_from([0.05, 0.3, 0.7, 0.95]))
def test_drop_correlated_matches_the_pair_walk(seed, n, n_cols, threshold):
    # near-copies, exact and negated copies, tied levels, constant and
    # all-missing columns (NaN correlations), missing cells, shuffled ids
    rng = np.random.default_rng(seed)
    cols = [rng.normal(size=n)]
    for kind in rng.choice(["noise", "near", "copy", "negated", "levels", "constant",
                            "empty"], size=n_cols - 1):
        base = cols[int(rng.integers(len(cols)))]
        cols.append({"noise": lambda: rng.normal(size=n),
                     "near": lambda: base + rng.normal(0, 0.5, size=n),
                     "copy": lambda: base.copy(),
                     "negated": lambda: -2.0 * base,
                     "levels": lambda: rng.integers(0, 2, size=n) * 1.0,
                     "constant": lambda: np.full(n, 4.0),
                     "empty": lambda: np.full(n, np.nan)}[kind]())
    v = np.column_stack(cols)
    v[rng.random(v.shape) < 0.1] = np.nan
    d = Dataset(FeatureMatrix(v, rng.permutation(2 * n_cols)[:n_cols]),
                np.arange(n) % 2)
    out, log = drop_correlated(d, threshold)
    kept, want = _reference_drop_correlated(d, threshold)
    assert [int(c) for c in out.column_ids] == kept
    assert log.to_csv() == want.to_csv()
