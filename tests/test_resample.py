import numpy as np
import pytest

from rareclass.data import Dataset, FeatureMatrix
from rareclass.resample import (ResampleError, SmoteParams, combined_resample,
                                random_undersample, smote)


def _imbalanced(n_min, n_maj, n_cols=4, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_min + n_maj, n_cols))
    y = np.concatenate([np.ones(n_min, dtype=int), np.zeros(n_maj, dtype=int)])
    perm = rng.permutation(len(y))
    return Dataset(FeatureMatrix(v[perm], np.arange(n_cols)), y[perm])


class TestSmote:
    def test_target_count(self):
        d = _imbalanced(73, 1024)
        out, plan = smote(d, SmoteParams(0.7, 5, seed=1))
        assert plan.counts_after == (1024, 716)  # floor(0.7 * 1024)
        assert int(out.labels.sum()) == 716

    def test_synthetic_rows_satisfy_interpolation(self):
        d = _imbalanced(20, 100)
        out, plan = smote(d, SmoteParams(0.5, 3, seed=2))
        v_in, v_out = d.features.values, out.features.values
        for rec in plan.synthetic_records:
            xi, xj = v_in[rec.parent_row], v_in[rec.neighbor_row]
            expected = xi + rec.lam * (xj - xi)
            assert np.allclose(v_out[rec.output_row], expected, atol=1e-12)

    def test_bounding_box_property(self):
        d = _imbalanced(15, 80)
        out, plan = smote(d, SmoteParams(1.0, 4, seed=3))
        v_in, v_out = d.features.values, out.features.values
        for rec in plan.synthetic_records:
            lo = np.minimum(v_in[rec.parent_row], v_in[rec.neighbor_row])
            hi = np.maximum(v_in[rec.parent_row], v_in[rec.neighbor_row])
            row = v_out[rec.output_row]
            assert (row >= lo - 1e-12).all() and (row <= hi + 1e-12).all()

    def test_original_rows_preserved_and_flagged(self):
        d = _imbalanced(12, 60)
        out, plan = smote(d, SmoteParams(0.8, 3, seed=4))
        n = d.n_rows
        assert np.array_equal(out.features.values[:n], d.features.values)
        # synthetic output rows start at the input row count
        assert [r.output_row for r in plan.synthetic_records] == list(range(n, out.n_rows))

    def test_target_already_met_returns_input(self):
        d = _imbalanced(50, 60)
        out, plan = smote(d, SmoteParams(0.5, 5, seed=5))
        assert out is d
        assert plan.counts_after == (60, 50)

    def test_minority_not_above_k_rejected(self):
        d = _imbalanced(5, 50)
        with pytest.raises(ResampleError, match="k_neighbors"):
            smote(d, SmoteParams(0.5, 5))

    def test_unimputed_data_rejected(self):
        d = _imbalanced(10, 40)
        v = d.features.values.copy()
        v[0, 0] = np.nan
        d = Dataset(FeatureMatrix(v, d.column_ids), d.labels)
        with pytest.raises(ResampleError, match="imputed"):
            smote(d, SmoteParams(0.5, 3))

    def test_determinism(self):
        d = _imbalanced(20, 100)
        a, _ = smote(d, SmoteParams(0.6, 5, seed=7))
        b, _ = smote(d, SmoteParams(0.6, 5, seed=7))
        assert np.array_equal(a.features.values, b.features.values)


class TestUndersample:
    def test_full_balance(self):
        d = _imbalanced(10, 100)
        out, plan = random_undersample(d, 1.0, seed=0)
        assert plan.counts_after == (10, 10)

    def test_derived_count(self):
        d = _imbalanced(40, 100)
        out, plan = random_undersample(d, 0.8, seed=1)
        assert plan.counts_after == (50, 40)  # floor(40 / 0.8)

    def test_nothing_to_remove_warns_identity(self):
        d = _imbalanced(40, 50)
        with pytest.warns(UserWarning):
            out, plan = random_undersample(d, 0.5, seed=2)
        assert out.n_rows == d.n_rows

    def test_minority_untouched(self):
        d = _imbalanced(15, 90)
        out, _ = random_undersample(d, 1.0, seed=3)
        assert int(out.labels.sum()) == 15


class TestCombined:
    def test_one_to_fourteen_becomes_four_to_five(self):
        d = _imbalanced(73, 1022)   # 1:14
        out, plan = combined_resample(d, 0.4, 0.8, seed=0)
        maj, mino = plan.counts_after
        # 4:5 within one sample of exact
        assert abs(mino / maj - 0.8) < 0.01
        assert plan.strategy == "combined"

    def test_fully_balanced(self):
        d = _imbalanced(30, 200)
        # oversampling to 1:1 already balances, so undersampling removes nothing
        with pytest.warns(UserWarning, match="does not require removing"):
            out, plan = combined_resample(d, 1.0, 1.0, seed=1)
        maj, mino = plan.counts_after
        assert maj == mino

    def test_over_only_matches_smote(self):
        # under_ratio equal to the achieved ratio removes nothing, so the
        # combined strategy degenerates to oversampling alone
        d = _imbalanced(25, 150)
        a, _ = smote(d, SmoteParams(0.7, 5, seed=4))
        with pytest.warns(UserWarning):
            c, plan = combined_resample(d, 0.7, 0.7, seed=4)
        assert np.array_equal(a.features.values, c.features.values)

    def test_records_point_at_their_synthetic_rows(self):
        d = _imbalanced(70, 980, seed=1)   # 1:14
        out, plan = combined_resample(d, 0.4, 0.8, seed=1)
        assert out.n_rows < d.n_rows + len(plan.synthetic_records)   # rows were removed
        v_in, v_out = d.features.values, out.features.values
        for rec in plan.synthetic_records:
            xi, xj = v_in[rec.parent_row], v_in[rec.neighbor_row]
            assert np.array_equal(v_out[rec.output_row], xi + rec.lam * (xj - xi))
        # undersampling removes majority rows only, so the synthetic rows
        # stay the last ones
        n_new = len(plan.synthetic_records)
        assert [r.output_row for r in plan.synthetic_records] == \
            list(range(out.n_rows - n_new, out.n_rows))

    def test_synthetic_flags_survive_undersampling(self):
        d = _imbalanced(20, 200)
        out, plan = combined_resample(d, 0.5, 0.9, seed=5)
        rows = [r.output_row for r in plan.synthetic_records]
        assert rows and len(set(rows)) == len(rows)
        assert max(rows) < out.n_rows
        # every synthetic row is minority
        assert (out.labels[rows] == 1).all()
