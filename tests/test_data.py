import numpy as np
import pytest

from rareclass.data import (DataError, Dataset, FeatureMatrix, column_stats,
                            correlation_matrix, load_delimited, load_secom)


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadSecom:
    def test_basic_load(self, tmp_path):
        data = _write(tmp_path / "d.txt", "1.0 2.0 NaN\n4.0 NaN 6.0\n")
        labels = _write(tmp_path / "l.txt", "-1 19/07/2008 11:55:00\n1 19/07/2008 12:32:00\n")
        d = load_secom(data, labels)
        assert d.n_rows == 2 and d.n_cols == 3
        assert list(d.labels) == [0, 1]
        assert np.isnan(d.features.values[0, 2])
        assert np.isnan(d.features.values[1, 1])
        assert d.features.values[1, 2] == 6.0

    def test_empty_data_file(self, tmp_path):
        data = _write(tmp_path / "d.txt", "")
        labels = _write(tmp_path / "l.txt", "-1 x\n")
        with pytest.raises(DataError, match="empty input"):
            load_secom(data, labels)

    def test_row_count_mismatch(self, tmp_path):
        data = _write(tmp_path / "d.txt", "\n".join("1.0 2.0" for _ in range(10)) + "\n")
        labels = _write(tmp_path / "l.txt", "\n".join("-1 ts" for _ in range(9)) + "\n")
        with pytest.raises(DataError, match="row-count mismatch"):
            load_secom(data, labels)

    def test_unparseable_token(self, tmp_path):
        data = _write(tmp_path / "d.txt", "1.0 oops\n")
        labels = _write(tmp_path / "l.txt", "-1 ts\n")
        with pytest.raises(DataError, match="unparseable"):
            load_secom(data, labels)

    def test_timestamped_label_lines_load_as_labels(self, tmp_path):
        data = _write(tmp_path / "d.txt", "1.0\n2.0\n")
        labels = _write(tmp_path / "l.txt", "-1 19/07/2008 11:55:00\n1 20/07/2008 00:01:00\n")
        d = load_secom(data, labels)
        assert list(d.labels) == [0, 1]


class TestLoadDelimited:
    def test_minority_maps_to_positive(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,b,cls\n1,2,A\n3,4,A\n5,6,A\n7,8,B\n")
        d = load_delimited(p, "cls")
        assert list(d.labels) == [0, 0, 0, 1]

    def test_three_label_values_rejected(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,cls\n1,A\n2,B\n3,C\n")
        with pytest.raises(DataError, match="exactly 2 distinct"):
            load_delimited(p, "cls")

    def test_missing_label_column(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,b\n1,2\n")
        with pytest.raises(DataError, match="not found"):
            load_delimited(p, "nope")

    def test_all_missing_features(self, tmp_path):
        p = _write(tmp_path / "f.csv", "a,b,cls\nNaN,,A\n,NaN,A\nNaN,,B\n")
        d = load_delimited(p, "cls")
        stats = column_stats(d)
        assert all(s.missing_fraction == 1.0 for s in stats)


class TestColumnStats:
    def test_constant_column(self):
        d = Dataset(FeatureMatrix(np.array([[5.0], [5.0], [5.0], [5.0]]), [0]),
                    np.array([0, 0, 1, 1]))
        s = column_stats(d)[0]
        assert s.is_constant and s.skewness == 0.0

    def test_with_missing(self):
        d = Dataset(FeatureMatrix(np.array([[1.0], [2.0], [3.0], [np.nan]]), [0]),
                    np.array([0, 0, 1, 1]))
        s = column_stats(d)[0]
        assert s.missing_fraction == 0.25
        assert s.mean == 2.0 and s.median == 2.0

    def test_all_missing_column(self):
        d = Dataset(FeatureMatrix(np.full((3, 1), np.nan), [0]), np.array([0, 1, 1]))
        s = column_stats(d)[0]
        assert s.missing_fraction == 1.0
        assert not s.is_constant
        assert s.mean is None and s.median is None

    def test_skewness_sign(self):
        right_skewed = np.array([[1.0], [1.0], [1.0], [1.0], [100.0]])
        d = Dataset(FeatureMatrix(right_skewed, [0]), np.array([0, 0, 0, 1, 1]))
        assert column_stats(d)[0].skewness > 1.0


class TestCorrelationMatrix:
    def test_diagonal_and_negation(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 9.0])
        values = np.column_stack([x, -x])
        d = Dataset(FeatureMatrix(values, [0, 1]), np.array([0, 0, 0, 1, 1]))
        r = correlation_matrix(d)
        assert r[0, 0] == 1.0 and r[1, 1] == 1.0
        assert r[0, 1] == pytest.approx(-1.0)

    def test_matches_hand_pearson_on_5_points(self):
        # oracle: direct Pearson evaluation
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 7.0])
        expected = (((x - x.mean()) * (y - y.mean())).sum()
                    / np.sqrt(((x - x.mean()) ** 2).sum() * ((y - y.mean()) ** 2).sum()))
        d = Dataset(FeatureMatrix(np.column_stack([x, y]), [0, 1]), np.array([0, 0, 0, 1, 1]))
        r = correlation_matrix(d)
        assert r[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_pairwise_complete_and_symmetry(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(40, 6))
        v[rng.random(v.shape) < 0.2] = np.nan
        y = (rng.random(40) < 0.3).astype(int)
        y[:2] = [0, 1]
        d = Dataset(FeatureMatrix(v, np.arange(6)), y)
        r = correlation_matrix(d)
        finite = np.isfinite(r)
        assert (finite == finite.T).all()
        assert np.nanmax(np.abs(r - r.T)) <= 1e-12

    def test_degenerate_pair_absent(self):
        v = np.array([[1.0, np.nan], [2.0, 3.0], [3.0, np.nan]])
        d = Dataset(FeatureMatrix(v, [0, 1]), np.array([0, 1, 1]))
        r = correlation_matrix(d)
        assert np.isnan(r[0, 1])  # only one shared row


class TestFeatureMatrixInvariants:
    def test_column_ids_survive_selection(self, messy_imbalanced):
        d = messy_imbalanced
        sub = d.select_columns([3, 7, 11])
        assert list(sub.column_ids) == [3, 7, 11]
        assert set(sub.column_ids) <= set(d.column_ids)

    def test_selection_by_unknown_id_raises(self):
        m = FeatureMatrix(np.zeros((2, 3)), [5, 2, 9])
        assert m.select_columns([9, 5]).values.shape == (2, 2)
        with pytest.raises(KeyError, match="unknown column id 4"):
            m.select_columns([9, 4])

    def test_unique_column_ids_enforced(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.zeros((2, 2)), [1, 1])
