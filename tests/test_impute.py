from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareclass import impute, parallel
from rareclass.data import ColumnStats, Dataset, FeatureMatrix, column_stats
from rareclass.impute import (ImputeError, _fill_ordered, KnnImputeParams, MiceParams,
                              assign_simple_strategies, fit_simple_plan,
                              fit_skew_refined_plan, knn_impute, mice_impute,
                              simple_impute)


def _ds(values, labels=None, column_ids=None):
    values = np.asarray(values, dtype=float)
    if labels is None:
        labels = np.zeros(len(values), dtype=int)
        labels[: max(1, len(values) // 3)] = 1
    if column_ids is None:
        column_ids = np.arange(values.shape[1])
    return Dataset(FeatureMatrix(values, np.asarray(column_ids)), labels)


def _stack(train, target):
    """The training rows then the target rows, as one table."""
    return Dataset(FeatureMatrix(np.vstack([train.features.values, target.features.values]),
                                 train.column_ids),
                   np.concatenate([train.labels, target.labels]))


def _stat(cid, skew):
    return ColumnStats(cid, 0.0, 0.0, 0.0, skew, 0.0, 1.0, False)


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
        out = simple_impute(plan, train, n_train=train.n_rows).features.values
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
        out = simple_impute(plan, d, n_train=d.n_rows)
        assert list(out.features.values[:, 0]) == [1.0, 2.0, 3.0]

    def test_median_robust_to_outlier(self):
        d = _ds([[1.0], [1.0], [1.0], [100.0], [np.nan]])
        plan = assign_simple_strategies(column_stats(d))
        plan.override(0, "median")
        out = simple_impute(fit_simple_plan(plan, d), d, n_train=d.n_rows)
        assert out.features.values[4, 0] == 1.0

    def test_forward_fill_boundary_falls_back(self):
        d = _ds([[np.nan], [2.0], [np.nan], [4.0]])
        plan = assign_simple_strategies(column_stats(d))
        plan.override(0, "forward")
        out = simple_impute(fit_simple_plan(plan, d), d, n_train=d.n_rows)
        # leading gap takes the next value (backward fallback); interior forward
        assert list(out.features.values[:, 0]) == [2.0, 2.0, 2.0, 4.0]

    def test_linear_interpolation(self):
        d = _ds([[0.0], [np.nan], [np.nan], [3.0]])
        plan = assign_simple_strategies(column_stats(d))
        plan.override(0, "linear_interpolation")
        out = simple_impute(fit_simple_plan(plan, d), d, n_train=d.n_rows)
        assert list(out.features.values[:, 0]) == [0.0, 1.0, 2.0, 3.0]

    def test_most_frequent(self):
        d = _ds([[7.0], [7.0], [9.0], [np.nan]])
        plan = assign_simple_strategies(column_stats(d))
        plan.override(0, "most_frequent")
        out = simple_impute(fit_simple_plan(plan, d), d, n_train=d.n_rows)
        assert out.features.values[3, 0] == 7.0

    def test_all_missing_training_column_errors(self):
        d = _ds([[np.nan], [np.nan]])
        plan = assign_simple_strategies(column_stats(d))
        with pytest.raises(ImputeError, match="entirely missing"):
            fit_simple_plan(plan, d)

    def test_present_cells_bit_identical(self, messy_imbalanced):
        d = messy_imbalanced
        plan = fit_simple_plan(assign_simple_strategies(column_stats(d)), d)
        out = simple_impute(plan, d, n_train=d.n_rows)
        mask = d.features.present
        assert np.array_equal(out.features.values[mask], d.features.values[mask])
        assert not np.isnan(out.features.values).any()


class TestKnnImpute:
    def test_k1_copies_nearest(self):
        d = _ds([[0.0, 0.0], [10.0, 5.0], [0.1, 1.0], [0.05, np.nan]])
        out = knn_impute(KnnImputeParams(k=1), d, n_train=3)
        assert out.features.values[3, 1] == 0.0   # row 0 is nearest

    def test_matches_bruteforce_oracle(self):
        # oracle: exhaustive pairwise distances over mutually present features
        rng = np.random.default_rng(5)
        tv = rng.normal(size=(4, 3))
        target_v = np.array([[0.2, np.nan, -0.3]])
        d = _ds(np.vstack([tv, target_v]))
        k = 2
        present = [0, 2]
        dists = [np.sqrt(((tv[i, present] - target_v[0, present]) ** 2).mean())
                 for i in range(4)]
        nearest = np.argsort(dists, kind="stable")[:k]
        expected = tv[nearest, 1].mean()
        out = knn_impute(KnnImputeParams(k=k), d, n_train=4)
        assert out.features.values[4, 1] == pytest.approx(expected, abs=1e-12)

    def test_all_missing_row_falls_back_to_column_means(self):
        d = _ds([[1.0, 4.0], [3.0, 8.0], [5.0, 0.0], [np.nan, np.nan]])
        out = knn_impute(KnnImputeParams(k=2), d, n_train=3)
        assert out.features.values[3, 0] == pytest.approx(3.0)
        assert out.features.values[3, 1] == pytest.approx(4.0)

    def test_k_equals_n_train_equals_mean_imputation(self):
        rng = np.random.default_rng(8)
        tv = rng.normal(size=(6, 3))
        target_v = tv.copy()
        target_v[1, 2] = np.nan
        out = knn_impute(KnnImputeParams(k=6), _ds(np.vstack([tv, target_v])), n_train=6)
        assert out.features.values[7, 2] == pytest.approx(tv[:, 2].mean())

    def test_insufficient_present_rows_rejected(self):
        train = _ds([[1.0], [np.nan], [np.nan]])
        with pytest.raises(ImputeError, match="fewer than k"):
            knn_impute(KnnImputeParams(k=2), train, n_train=3)

    def test_train_only_dependence(self, messy_imbalanced):
        from rareclass.preprocess import stratified_split
        d = messy_imbalanced
        keep = [s.column_id for s in column_stats(d)
                if s.missing_fraction < 0.5 and not s.is_constant]
        d = d.select_columns(keep)
        plan = stratified_split(d, 0.3, seed=0)
        train = d.take_rows(plan.train_row_indices)
        test = d.take_rows(plan.test_row_indices)
        n = train.n_rows
        out1 = knn_impute(KnnImputeParams(k=3), _stack(train, test.take_rows([0, 1, 2])), n_train=n)
        out2 = knn_impute(KnnImputeParams(k=3), _stack(train, test), n_train=n)
        assert np.array_equal(out1.features.values, out2.features.values[:n + 3])


def _reference_knn(k, d, n_train):
    """knn_impute as one loop over every row, before rows were cut into
    blocks of pool tasks."""
    col_means = [s.mean for s in column_stats(d.take_rows(np.arange(n_train)))]
    tv = d.features.values[:n_train]
    tp = ~np.isnan(tv)
    out = d.features.values.copy()
    tv0 = np.where(tp, tv, 0.0)
    for r in range(d.n_rows):
        row = out[r]
        missing = np.isnan(row)
        if not missing.any():
            continue
        rp = ~missing
        shared = tp[:, rp]
        diff = tv0[:, rp] - np.where(shared, row[rp], 0.0)
        diff[~shared] = 0.0
        cnt = shared.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            dist = np.sqrt((diff ** 2).sum(axis=1) / cnt)
        dist[cnt == 0] = np.inf
        order = np.argsort(dist, kind="stable")
        order = order[np.isfinite(dist[order])]
        for j in np.nonzero(missing)[0]:
            donors = order[tp[order, j]][:k]
            out[r, j] = tv[donors, j].mean() if len(donors) == k else col_means[j]
    return out


@st.composite
def knn_problems(draw):
    """A table of few distinct values (exact distance ties) with many
    missing cells: duplicated training rows, target rows with a single
    present cell, and cells with fewer eligible donors than k, which fall
    back to the column mean.  Every column keeps k present training rows."""
    k = draw(st.integers(1, 3))
    n_train, n_target = draw(st.integers(k, 10)), draw(st.integers(0, 6))
    n_cols = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    v = rng.choice(np.array([-1.0, 0.0, 0.5, 2.0]), size=(n_train + n_target, n_cols))
    holes = rng.random(v.shape) < draw(st.sampled_from([0.1, 0.4, 0.7]))
    for r in range(n_train, n_train + n_target):
        if draw(st.booleans()):                     # one present cell
            holes[r] = True
            holes[r, rng.integers(n_cols)] = False
    if draw(st.booleans()):                         # duplicated training rows
        half = n_train // 2
        v[half:2 * half], holes[half:2 * half] = v[:half], holes[:half]
    for j in range(n_cols):
        if (~holes[:n_train, j]).sum() < k:
            holes[rng.choice(n_train, size=k, replace=False), j] = False
    v[holes] = np.nan
    return k, _ds(v), n_train


@settings(max_examples=150, deadline=None)
@given(knn_problems())
def test_knn_matches_the_row_by_row_reference_at_one_and_two_workers(problem):
    k, d, n_train = problem
    ref = _reference_knn(k, d, n_train).tobytes()
    with pytest.MonkeyPatch.context() as mp:
        for n in (1, 2):
            mp.setattr(parallel, "workers", lambda n=n: n)
            got = knn_impute(KnnImputeParams(k=k), d, n_train=n_train).features.values
            assert got.tobytes() == ref


class TestMiceImpute:
    def test_no_missing_is_identity(self):
        d = _ds(np.arange(12, dtype=float).reshape(4, 3))
        out = mice_impute(MiceParams(3), d, n_train=d.n_rows)
        assert np.array_equal(out.features.values, d.features.values)

    def test_exact_linear_relation_recovered(self):
        x = np.linspace(0, 1, 12)
        v = np.column_stack([x, 3.0 * x + 1.0])
        v[5, 1] = np.nan
        d = _ds(v)
        out = mice_impute(MiceParams(3, noise_mode="deterministic_prediction"), d, n_train=d.n_rows)
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

        out = mice_impute(MiceParams(n_iterations=1), d, n_train=d.n_rows)
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

        median = mice_impute(MiceParams(n_iterations=1, initial_fill="median"), d, n_train=d.n_rows)
        mean = mice_impute(MiceParams(n_iterations=1, initial_fill="mean"), d, n_train=d.n_rows)
        assert median.features.values[4, 0] == pytest.approx(expected, abs=1e-10)
        assert abs(median.features.values[4, 0] - mean.features.values[4, 0]) > 1e-3

    def test_seeded_gaussian_mode_reproducible(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=(20, 4))
        v[rng.random(v.shape) < 0.1] = np.nan
        d = _ds(v)
        p = MiceParams(4, seed=9, noise_mode="gaussian_residual_draw")
        a = mice_impute(p, d, n_train=d.n_rows)
        b = mice_impute(p, d, n_train=d.n_rows)
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
        p = MiceParams(3)
        both = mice_impute(p, _ds(v), n_train=40).features.values
        alone = [mice_impute(p, _ds(v[np.r_[:40, r]]), n_train=40).features.values[40]
                 for r in range(40, 60)]
        assert np.array_equal(both[:40], mice_impute(p, _ds(v[:40]), n_train=40).features.values)
        assert np.array_equal(both[40:], np.array(alone))

    def test_present_cells_untouched(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=(25, 4))
        v[rng.random(v.shape) < 0.15] = np.nan
        d = _ds(v)
        out = mice_impute(MiceParams(3), d, n_train=d.n_rows)
        mask = d.features.present
        assert np.array_equal(out.features.values[mask], d.features.values[mask])
        assert not np.isnan(out.features.values).any()

    def test_one_observed_training_row_rejected_before_any_sweep(self, monkeypatch):
        v = np.arange(24, dtype=float).reshape(8, 3) % 5
        v[[1, 4], 0] = np.nan
        v[1:, 2] = np.nan                  # one observed training row
        solves = []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a))
        with pytest.raises(ImputeError, match="column 12 has fewer than 2 observed training rows"):
            mice_impute(MiceParams(2), _ds(v, column_ids=[10, 11, 12]), n_train=8)
        assert solves == []

    def test_gaussian_fits_ignore_the_target_rows(self, monkeypatch):
        # the regressions see the fitting rows' noise only, and the
        # training fills returned are the ones they saw; the targets
        # differ in how many cells they miss, which moved that noise's
        # stream when both drew from one
        rng = np.random.default_rng(12)
        v = rng.normal(size=(30, 4)) @ rng.normal(size=(4, 4))
        train = v[:24].copy()
        train[rng.random(train.shape) < 0.2] = np.nan
        train[0] = v[0]
        few, many = v[24:].copy(), v[24:].copy()
        few[0, 1] = np.nan
        many[rng.random(many.shape) < 0.5] = np.nan
        solve = np.linalg.solve
        p = MiceParams(3, seed=4, noise_mode="gaussian_residual_draw")
        systems, fills = [], []
        for target in (few, many):
            seen = []
            monkeypatch.setattr(np.linalg, "solve",
                                lambda a, b, seen=seen: seen.append((a.copy(), b.copy())) or solve(a, b))
            fills.append(mice_impute(p, _ds(np.vstack([train, target])), n_train=24).features.values)
            systems.append(seen)
        assert len(systems[0]) == len(systems[1]) == 3 * 4
        for (a0, b0), (a1, b1) in zip(*systems):
            assert np.array_equal(a0, a1) and np.array_equal(b0, b1)
        assert np.array_equal(fills[0][:24], fills[1][:24])

    def test_ridge_free_singular_system_refills_the_mean(self, monkeypatch):
        # column 1 is constant on the rows where column 0 is observed, so
        # with no ridge column 0's system is singular; the values are small
        # integers, so the reference's direct centring is exact too
        v = np.array([[1, 2, 1], [2, 2, 3], [4, 2, 2], [3, 2, 5], [5, 2, 4], [9, 2, 6],
                      [np.nan, 6, 2], [np.nan, 6, 3]], dtype=float)
        solve, failed = np.linalg.solve, []

        def recording(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                failed.append(a)
                raise

        monkeypatch.setattr(np.linalg, "solve", recording)
        p = MiceParams(2)
        with mock.patch.object(impute, "MICE_RIDGE", 0.0):
            got = mice_impute(p, _ds(v), n_train=8).features.values
            assert len(failed) == 2                     # one per sweep
            assert list(got[6:, 0]) == [4.0, 4.0]       # the observed mean
            assert np.array_equal(got, _reference_mice(p, _ds(v), 8))


    def test_regressor_constant_on_the_observed_rows_gets_no_weight(self):
        # column 1 is observed on two rows, both missing column 0, so on
        # the rows that fit column 0 it is its fill: column 0 is refilled
        # with its mean, which differs from its median fill, and is then
        # constant on the two rows that fit column 1
        rng = np.random.default_rng(21)
        v = rng.normal(size=(21, 2)) * [0.3, 2.0] + [92.6, 24.0]
        v[[7, 10, 14, 15, 16], 0] = np.nan
        v[np.setdiff1d(np.arange(21), [10, 16]), 1] = np.nan
        d = _ds(v)
        got = mice_impute(MiceParams(2, initial_fill="median"), d, n_train=d.n_rows).features.values
        for j in (0, 1):
            holes = np.isnan(v[:, j])
            assert np.allclose(got[holes, j], np.nanmean(v[:, j]), rtol=1e-14, atol=0)

    def test_regressor_that_varies_a_little_on_the_observed_rows_keeps_its_weight(self):
        # column 0 is observed on two rows, where column 1 differs by 1e-4
        # while it spreads over tens elsewhere: its centred variance there
        # (5e-9) is far below S's diagonal, yet well above the cut at
        # 1e-13 of it, so at ridge 1 it still moves column 0's fills
        rng = np.random.default_rng(5)
        v = np.column_stack([np.full(30, np.nan), 50.0 + 10.0 * rng.normal(size=30)])
        v[:2] = [[10.0, 50.0], [20.0, 50.0001]]
        v[-3:, 1] = [80.0, 20.0, 65.0]
        p = MiceParams(1)
        with mock.patch.object(impute, "MICE_RIDGE", 1.0):
            got = mice_impute(p, _ds(v), n_train=27).features.values
            ref = _reference_mice(p, _ds(v), 27)
        assert np.all(np.abs(got[27:, 0] - 15.0) > 1e-3)
        assert np.all(np.abs(got - ref) <= 1e-9 * np.nanmax(np.abs(v), axis=0))

    def test_two_observed_rows_close_in_their_regressor_match_the_reference(self):
        # column 0 is observed on rows 1 and 15; row 15 misses column 1, so
        # there column 1 is its fill, 1e-3 from row 1's value.  The centred
        # spread of column 1 on those rows (5e-7) is about 1e-8 of S's diagonal:
        # taken out of S it would keep only a few digits of it
        rng = np.random.default_rng(3)
        v = np.column_stack([np.full(25, np.nan), 52.7 + 1.2 * rng.normal(size=25)])
        v[[15, 17, 19], 1] = np.nan
        others = np.setdiff1d(np.flatnonzero(~np.isnan(v[:23, 1])), [1])
        v[1, 1] = (len(others) + 1) * 1e-3 / len(others) + v[others, 1].mean()
        v[[1, 15, 23], 0] = [17.3, 18.8, 21.6]
        p = MiceParams(1)
        got = mice_impute(p, _ds(v), n_train=23).features.values
        ref = _reference_mice(p, _ds(v), 23)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref).max(axis=0))

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_scale_of_a_near_exact_linear_column(self, monkeypatch, seed):
        # column 1 is its regressor times 3 to 1e-11 of its spread, so
        # v'Cv, the residual sum of squares behind the noise scale
        # sqrt(v'Cv / n_obs), cancels to the rounding of C.  Its three terms
        # (C_jj, -2 beta C_ij, beta^2 C_ii) are each about C_jj and carry a
        # few ulps of C's downdate: the scale stays finite and within
        # 4 sqrt(eps * C_jj / n_obs) of the one taken from the rows (up to
        # 2.2x that root over 300 seeds)
        rng = np.random.default_rng(seed)
        x = 7.0 + 40.0 * rng.normal(size=50)
        v = np.column_stack([x, 3.0 * x + 1.0 + 1e-9 * rng.normal(size=50)])
        v[[3, 17, 30, 44], 1] = np.nan
        scales, betas = [], []
        default_rng, solve = np.random.default_rng, np.linalg.solve

        class Recording:
            def __init__(self, seed):
                self.gen = default_rng(seed)

            def normal(self, loc, scale, size):
                scales.append(scale)
                return self.gen.normal(loc, scale, size)

        monkeypatch.setattr(np.random, "default_rng", Recording)
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: betas.append(solve(a, b)) or betas[-1])
        p = MiceParams(1, seed=seed, noise_mode="gaussian_residual_draw")
        mice_impute(p, _ds(v), n_train=40)
        (beta,) = betas
        assert len(scales) == 2 and scales[0] == scales[1]
        obs = ~np.isnan(v[:40, 1])
        X, y = v[:40][obs, 0], v[:40][obs, 1]
        direct = np.sqrt(np.mean(((y - y.mean()) - (X - X.mean()) * beta[0]) ** 2))
        c_jj = np.sum((y - y.mean()) ** 2)
        assert np.isfinite(scales[0])
        assert abs(scales[0] - direct) <= 4.0 * np.sqrt(np.finfo(float).eps * c_jj / obs.sum())


@pytest.mark.parametrize("method", ["knn", "mice", "simple"])
def test_n_train_must_lie_within_the_table(method):
    rng = np.random.default_rng(14)
    v = rng.normal(size=(9, 3))
    v[rng.random(v.shape) < 0.2] = np.nan
    v[:3] = rng.normal(size=(3, 3))
    d = _ds(v)
    fill, p = {"knn": (knn_impute, KnnImputeParams(k=2)), "mice": (mice_impute, MiceParams(2)),
               "simple": (simple_impute,
                          fit_simple_plan(assign_simple_strategies(column_stats(d)), d))}[method]
    for n_train in (0, d.n_rows + 1):
        with pytest.raises(ImputeError, match=f"n_train must be in \\[1, 9\\], got {n_train}"):
            fill(p, d, n_train=n_train)
    with pytest.raises(TypeError):
        fill(p, d, d.n_rows)                # keyword only
    # every row is a training row: the table is filled from itself
    out = fill(p, d, n_train=d.n_rows).features.values
    assert not np.isnan(out).any()
    assert np.array_equal(out[d.features.present], v[d.features.present])


# ---------------------------------------------------------------------------
# reference: every column step rebuilds its centred ridge system from the
# observed training rows


def _reference_mice(p, d, n_train):
    stats = column_stats(d.take_rows(np.arange(n_train)))
    fills = [s.median if p.initial_fill == "median" else s.mean for s in stats]
    state = d.features.values.copy()
    missing = np.isnan(state)
    np.copyto(state, fills, where=missing)
    n_cols = state.shape[1]
    for _ in range(p.n_iterations):
        for j in [j for j in range(n_cols) if missing[:, j].any()]:
            others = [c for c in range(n_cols) if c != j]
            obs = np.flatnonzero(~missing[:n_train, j])
            X, y = state[obs][:, others], state[obs, j]
            Xm, ym = X.mean(axis=0), y.mean()
            Xc, yc = X - Xm, y - ym
            try:
                beta = np.linalg.solve(Xc.T @ Xc + impute.MICE_RIDGE * np.eye(n_cols - 1),
                                       Xc.T @ yc)
            except np.linalg.LinAlgError:
                state[missing[:, j], j] = ym
                continue
            state[missing[:, j], j] = (state[missing[:, j]][:, others] - Xm) @ beta + ym
    return state


@st.composite
def mice_problems(draw):
    """One table of training and target rows, the training row count and
    the ridge to patch in.  The table has correlated columns with offsets,
    some columns fully observed, one column observed exactly where another
    is missing, and one observed on exactly two training rows.

    The last two only where every system stays well posed.  With two
    observed rows and more than one regressor a system is singular but for
    the ridge; so is the second of two complementary columns, whose
    regressors include the first one's fills, a linear function of the
    others on exactly the rows that fit it.  At ridge 1e-8 two solvers
    exact in theory then agree only to rounding times |Z'Z| / ridge."""
    p = MiceParams(draw(st.integers(1, 3)), initial_fill=draw(st.sampled_from(["mean", "median"])))
    ridge = draw(st.sampled_from([1e-8, 1.0]))
    n_cols = draw(st.integers(2, 7))
    n_train = draw(st.integers(2 * n_cols + 4, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = np.eye(n_cols) + 0.5 * rng.normal(size=(n_cols, n_cols))
    v = (rng.normal(size=(n_train + draw(st.integers(1, 6)), n_cols)) @ mix
         * rng.uniform(0.5, 5.0, size=n_cols) + rng.uniform(-100.0, 100.0, size=n_cols))
    holes = rng.random(v.shape) < draw(st.sampled_from([0.05, 0.15, 0.3]))
    holes[:, rng.random(n_cols) < draw(st.sampled_from([0.0, 0.3]))] = False   # fully observed
    holes[:n_cols + 2] = False      # enough observed rows for every regression
    well_posed = ridge == 1.0
    if n_cols >= 3 and well_posed and draw(st.booleans()):
        # in the first sweep column b is constant (its fill) on the rows
        # that fit column a
        a, b = rng.choice(n_cols, size=2, replace=False)
        holes[:n_train, a] = False
        holes[rng.permutation(n_train)[:n_train // 2], a] = True
        holes[:n_train, b] = ~holes[:n_train, a]
    if (well_posed or n_cols == 2) and draw(st.booleans()):
        j = draw(st.integers(0, n_cols - 1))
        holes[:n_train, j] = True
        holes[rng.choice(n_train, size=2, replace=False), j] = False
    v[holes] = np.nan
    return p, _ds(v), n_train, ridge


@settings(max_examples=200, deadline=None)
@given(mice_problems())
def test_mice_matches_the_per_column_reference(problem):
    p, d, n_train, ridge = problem
    with mock.patch.object(impute, "MICE_RIDGE", ridge):     # not a fixture: once per example
        got = mice_impute(p, d, n_train=n_train).features.values
        ref = _reference_mice(p, d, n_train)
    # relative to the column's magnitude over the training and target rows:
    # a prediction sums terms of that size, so a value near 0 carries their
    # rounding
    assert np.all(np.abs(got - ref) <= 1e-9 * np.abs(ref).max(axis=0))


def _reference_fill_ordered(col, strategy, fallback):
    """Forward fill falls through to a recursive backward fill."""
    out = col.copy()
    present = ~np.isnan(out)
    if not present.any():
        out[:] = fallback
        return out
    idx = np.arange(len(out))
    if strategy == "forward":
        last = np.maximum.accumulate(np.where(present, idx, -1))
        filled = np.where(last >= 0, out[np.maximum(last, 0)], np.nan)
        out = np.where(present, out, filled)
        if np.isnan(out).any():
            out = _reference_fill_ordered(out, "backward", fallback)
    elif strategy == "backward":
        nxt = np.minimum.accumulate(np.where(present, idx, len(out))[::-1])[::-1]
        filled = np.where(nxt < len(out), out[np.minimum(nxt, len(out) - 1)], np.nan)
        out = np.where(present, out, filled)
        out[np.isnan(out)] = fallback
    else:
        out[~present] = np.interp(idx[~present], idx[present], out[present])
        first, last = idx[present][0], idx[present][-1]
        out[(~present) & ((idx < first) | (idx > last))] = fallback
    return out


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
       missing=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       strategy=st.sampled_from(["forward", "backward", "linear_interpolation"]),
       edges=st.sampled_from(["none", "leading", "trailing", "both"]))
def test_fill_ordered_matches_the_recursive_reference(seed, n, missing, strategy, edges):
    rng = np.random.default_rng(seed)
    # signed zeros and tied levels among continuous values
    col = np.where(rng.random(n) < 0.5, rng.choice(np.array([-0.0, 0.0, 1.5, 1e300]), size=n),
                   rng.normal(size=n))
    col[rng.random(n) < missing] = np.nan
    if edges in ("leading", "both"):
        col[:max(1, n // 3)] = np.nan
    if edges in ("trailing", "both"):
        col[n - max(1, n // 3):] = np.nan
    got = _fill_ordered(col.copy(), strategy, -7.5)
    assert got.tobytes() == _reference_fill_ordered(col.copy(), strategy, -7.5).tobytes()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_train=st.integers(3, 20), n_test=st.integers(1, 20),
       run=st.integers(1, 6), strategy=st.sampled_from(impute.SIMPLE_STRATEGIES))
def test_one_stacked_fill_is_the_two_partitions_filled_apart(seed, n_train, n_test, run,
                                                             strategy):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_train + n_test, 3))
    v[rng.random(v.shape) < 0.3] = np.nan
    # a run of missing cells at both ends of each partition
    for lo, hi in ((0, n_train), (n_train, n_train + n_test)):
        k = max(1, min(run, (hi - lo) // 2))
        v[lo:lo + k] = v[hi - k:hi] = np.nan
    v[n_train // 2, np.isnan(v[:n_train]).all(axis=0)] = 1.0       # no all-missing training column
    d = _ds(v)
    train, test = d.take_rows(np.arange(n_train)), d.take_rows(np.arange(n_train, d.n_rows))
    plan = assign_simple_strategies(column_stats(train))
    for cid in plan.strategies:
        plan.override(cid, strategy)
    plan = fit_simple_plan(plan, train)
    got = simple_impute(plan, d, n_train=n_train).features.values
    apart = [simple_impute(plan, part, n_train=part.n_rows).features.values
             for part in (train, test)]
    assert not np.isnan(got).any()
    assert got.tobytes() == np.vstack(apart).tobytes()
