import numpy as np
import pytest

from rareclass.data import ColumnStats, Dataset, FeatureMatrix, column_stats
from rareclass.impute import (ImputeError, KnnImputeParams, MiceParams,
                              assign_simple_strategies, fit_simple_plan,
                              fit_skew_refined_plan, knn_impute, mice_impute,
                              simple_impute)


def _ds(values, labels=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = np.zeros(len(values), dtype=int)
        labels[: max(1, len(values) // 3)] = 1
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1])), labels)


def _stat(cid, skew):
    return ColumnStats(cid, 0.0, 0.0, 0.0, 1.0, skew, 0.0, 1.0, 5, False)


class TestStrategyAssignment:
    def test_skewed_gets_median(self):
        plan = assign_simple_strategies([_stat(0, 3.2)], skew_threshold=1.0)
        assert plan.strategies[0] == "median"

    def test_near_gaussian_gets_mean(self):
        plan = assign_simple_strategies([_stat(0, 0.1)], skew_threshold=1.0)
        assert plan.strategies[0] == "mean"

    def test_threshold_is_strict(self):
        plan = assign_simple_strategies([_stat(0, 1.0)], skew_threshold=1.0)
        assert plan.strategies[0] == "mean"

    def test_override(self):
        plan = assign_simple_strategies([_stat(0, 0.0)])
        plan.override(0, "forward")
        assert plan.strategies[0] == "forward"


class TestSkewRefinement:
    # [0, 2, 2, 4, 4] has skewness -0.34, so at threshold 0.2 it is filled
    # with its median 2; with four median fills the skewness is +0.015,
    # so the column toggles to its mean 2.4
    FLIPS = [0.0, 2.0, 2.0, 4.0, 4.0, np.nan, np.nan, np.nan, np.nan]

    def _train(self):
        steady = [1.0, 2.0, 3.0, 4.0, 5.0, np.nan, 3.0, 2.0, 4.0]    # skewness 0
        return _ds(np.column_stack([self.FLIPS, self.FLIPS, steady]))

    def test_sign_flip_toggles_median_to_mean(self):
        train = self._train()
        first = assign_simple_strategies(column_stats(train), 0.2)
        assert first.strategies[0] == "median"
        plan = fit_skew_refined_plan(train, skew_threshold=0.2)
        assert plan.strategies == {0: "mean", 1: "mean", 2: "mean"}
        assert plan.fill_values[0] == pytest.approx(2.4)
        out = simple_impute(plan, train).features.values
        assert np.allclose(out[5:, 0], 2.4)

    def test_override_is_never_toggled(self):
        plan = fit_skew_refined_plan(self._train(), skew_threshold=0.2,
                                     overrides={1: "median"})
        assert plan.strategies[0] == "mean"
        assert plan.strategies[1] == "median" and plan.fill_values[1] == 2.0

    def test_no_flip_keeps_the_first_plan(self):
        train = self._train()
        plan = fit_skew_refined_plan(train, skew_threshold=1.0)
        first = fit_simple_plan(assign_simple_strategies(column_stats(train), 1.0), train)
        assert plan == first


class TestSimpleImpute:
    def test_mean_fill(self):
        d = _ds([[1.0], [np.nan], [3.0]])
        plan = fit_simple_plan(assign_simple_strategies(column_stats(d)), d)
        out = simple_impute(plan, d)
        assert list(out.features.values[:, 0]) == [1.0, 2.0, 3.0]

    def test_median_robust_to_outlier(self):
        d = _ds([[1.0], [1.0], [1.0], [100.0], [np.nan]])
        plan = assign_simple_strategies(column_stats(d))
        plan.override(0, "median")
        out = simple_impute(fit_simple_plan(plan, d), d)
        assert out.features.values[4, 0] == 1.0

    def test_forward_fill_boundary_falls_back(self):
        d = _ds([[np.nan], [2.0], [np.nan], [4.0]])
        plan = assign_simple_strategies(column_stats(d))
        plan.override(0, "forward")
        out = simple_impute(fit_simple_plan(plan, d), d)
        # leading gap takes the next value (backward fallback); interior forward
        assert list(out.features.values[:, 0]) == [2.0, 2.0, 2.0, 4.0]

    def test_linear_interpolation(self):
        d = _ds([[0.0], [np.nan], [np.nan], [3.0]])
        plan = assign_simple_strategies(column_stats(d))
        plan.override(0, "linear_interpolation")
        out = simple_impute(fit_simple_plan(plan, d), d)
        assert list(out.features.values[:, 0]) == [0.0, 1.0, 2.0, 3.0]

    def test_most_frequent(self):
        d = _ds([[7.0], [7.0], [9.0], [np.nan]])
        plan = assign_simple_strategies(column_stats(d))
        plan.override(0, "most_frequent")
        out = simple_impute(fit_simple_plan(plan, d), d)
        assert out.features.values[3, 0] == 7.0

    def test_all_missing_training_column_errors(self):
        d = _ds([[np.nan], [np.nan]])
        plan = assign_simple_strategies(column_stats(d))
        with pytest.raises(ImputeError, match="entirely missing"):
            fit_simple_plan(plan, d)

    def test_present_cells_bit_identical(self, messy_imbalanced):
        d = messy_imbalanced
        plan = fit_simple_plan(assign_simple_strategies(column_stats(d)), d)
        out = simple_impute(plan, d)
        mask = d.features.present
        assert np.array_equal(out.features.values[mask], d.features.values[mask])
        assert not np.isnan(out.features.values).any()


class TestKnnImpute:
    def test_k1_copies_nearest(self):
        train = _ds([[0.0, 0.0], [10.0, 5.0], [0.1, 1.0]])
        target = _ds([[0.05, np.nan]])
        out = knn_impute(KnnImputeParams(k=1), train, target)
        assert out.features.values[0, 1] == 0.0   # row 0 is nearest

    def test_matches_bruteforce_oracle(self):
        # oracle: exhaustive pairwise distances over mutually present features
        rng = np.random.default_rng(5)
        tv = rng.normal(size=(4, 3))
        train = _ds(tv)
        target_v = np.array([[0.2, np.nan, -0.3]])
        target = _ds(target_v)
        k = 2
        present = [0, 2]
        dists = [np.sqrt(((tv[i, present] - target_v[0, present]) ** 2).mean())
                 for i in range(4)]
        nearest = np.argsort(dists, kind="stable")[:k]
        expected = tv[nearest, 1].mean()
        out = knn_impute(KnnImputeParams(k=k), train, target)
        assert out.features.values[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_all_missing_row_falls_back_to_column_means(self):
        train = _ds([[1.0, 4.0], [3.0, 8.0], [5.0, 0.0]])
        target = _ds([[np.nan, np.nan]])
        out = knn_impute(KnnImputeParams(k=2), train, target)
        assert out.features.values[0, 0] == pytest.approx(3.0)
        assert out.features.values[0, 1] == pytest.approx(4.0)

    def test_k_equals_n_train_equals_mean_imputation(self):
        rng = np.random.default_rng(8)
        tv = rng.normal(size=(6, 3))
        train = _ds(tv)
        target_v = tv.copy()
        target_v[1, 2] = np.nan
        target = _ds(target_v)
        out = knn_impute(KnnImputeParams(k=6), train, target)
        assert out.features.values[1, 2] == pytest.approx(tv[:, 2].mean())

    def test_insufficient_present_rows_rejected(self):
        train = _ds([[1.0], [np.nan], [np.nan]])
        with pytest.raises(ImputeError, match="fewer than k"):
            knn_impute(KnnImputeParams(k=2), train, train)

    def test_train_only_dependence(self, messy_imbalanced):
        from rareclass.preprocess import stratified_split
        d = messy_imbalanced
        keep = [s.column_id for s in column_stats(d)
                if s.missing_fraction < 0.5 and not s.is_constant]
        d = d.select_columns(keep)
        plan = stratified_split(d, 0.3, seed=0)
        train = d.take_rows(plan.train_row_indices)
        test = d.take_rows(plan.test_row_indices)
        out1 = knn_impute(KnnImputeParams(k=3), train, test.take_rows([0, 1, 2]))
        out2 = knn_impute(KnnImputeParams(k=3), train, test)
        assert np.array_equal(out1.features.values, out2.features.values[:3])


class TestMiceImpute:
    def test_no_missing_is_identity(self):
        d = _ds(np.arange(12, dtype=float).reshape(4, 3))
        out = mice_impute(MiceParams(3), d, d)
        assert np.array_equal(out.features.values, d.features.values)

    def test_exact_linear_relation_recovered(self):
        x = np.linspace(0, 1, 12)
        v = np.column_stack([x, 3.0 * x + 1.0])
        v[5, 1] = np.nan
        d = _ds(v)
        out = mice_impute(MiceParams(3, noise_mode="deterministic_prediction"), d, d)
        assert out.features.values[5, 1] == pytest.approx(3.0 * x[5] + 1.0, abs=1e-6)

    def test_one_sweep_equals_regression_oracle(self):
        # oracle: single least-squares pass from mean-initialized predictors
        rng = np.random.default_rng(2)
        v = rng.normal(size=(15, 3))
        v[4, 0] = np.nan
        d = _ds(v)

        filled = v.copy()
        col0 = v[:, 0]
        filled[4, 0] = col0[~np.isnan(col0)].mean()
        obs = ~np.isnan(v[:, 0])
        X, y = filled[obs][:, 1:], filled[obs, 0]
        Xc, yc = X - X.mean(axis=0), y - y.mean()
        beta = np.linalg.solve(Xc.T @ Xc + 1e-8 * np.eye(2), Xc.T @ yc)
        expected = (filled[4, 1:] - X.mean(axis=0)) @ beta + y.mean()

        out = mice_impute(MiceParams(n_iterations=1), d, d)
        assert out.features.values[4, 0] == pytest.approx(expected, abs=1e-10)

    def test_median_initial_fill(self):
        # two incomplete columns: the fill of column 1's hole enters the
        # regression for column 0, and that column is skewed enough that
        # its median and mean differ
        rng = np.random.default_rng(3)
        v = rng.normal(size=(15, 3))
        v[:, 1] = np.exp(2.0 * v[:, 1])
        v[4, 0] = np.nan
        v[9, 1] = np.nan
        d = _ds(v)

        filled = v.copy()
        for j, i in ((0, 4), (1, 9)):
            col = v[:, j]
            filled[i, j] = np.median(col[~np.isnan(col)])
        obs = ~np.isnan(v[:, 0])
        X, y = filled[obs][:, 1:], filled[obs, 0]
        Xc, yc = X - X.mean(axis=0), y - y.mean()
        beta = np.linalg.solve(Xc.T @ Xc + 1e-8 * np.eye(2), Xc.T @ yc)
        expected = (filled[4, 1:] - X.mean(axis=0)) @ beta + y.mean()

        median = mice_impute(MiceParams(n_iterations=1, initial_fill="median"), d, d)
        mean = mice_impute(MiceParams(n_iterations=1, initial_fill="mean"), d, d)
        assert median.features.values[4, 0] == pytest.approx(expected, abs=1e-10)
        assert abs(median.features.values[4, 0] - mean.features.values[4, 0]) > 1e-3

    def test_seeded_gaussian_mode_reproducible(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(20, 4))
        v[rng.random(v.shape) < 0.1] = np.nan
        d = _ds(v)
        p = MiceParams(4, seed=9, noise_mode="gaussian_residual_draw")
        a = mice_impute(p, d, d)
        b = mice_impute(p, d, d)
        assert np.array_equal(a.features.values, b.features.values)

    def test_prediction_independent_of_batch(self):
        # twelve columns, so each prediction sums eleven terms, where the
        # order of summation shows in the last bits.  The training rows
        # are complete in columns 6-11, so a test row alone is the only
        # row a column's prediction covers, and together it shares the
        # batch with the other test rows missing that column
        rng = np.random.default_rng(11)
        v = rng.normal(size=(60, 12)) @ rng.normal(size=(12, 12))
        holes = rng.random(v.shape) < 0.3
        holes[:40, 6:] = False
        v[holes] = np.nan
        train, test = _ds(v[:40]), _ds(v[40:])
        p = MiceParams(3)
        both = mice_impute(p, train, _ds(v)).features.values
        alone = [mice_impute(p, train, test.take_rows([r])).features.values[0]
                 for r in range(test.n_rows)]
        assert np.array_equal(both[:40], mice_impute(p, train, train).features.values)
        assert np.array_equal(both[40:], np.array(alone))

    def test_present_cells_untouched(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(25, 4))
        v[rng.random(v.shape) < 0.15] = np.nan
        d = _ds(v)
        out = mice_impute(MiceParams(3), d, d)
        mask = d.features.present
        assert np.array_equal(out.features.values[mask], d.features.values[mask])
        assert not np.isnan(out.features.values).any()
