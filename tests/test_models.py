import numpy as np
import pytest

from rareclass.data import Dataset, FeatureMatrix
from model_checks import gradient_check
from rareclass.models import (FAMILIES, ModelError, ModelSpec, TrainingDiverged,
                              feature_importances, model_from_json,
                              model_to_json, predict_scores, train)
from rareclass.models.linear import logistic_loss_grad


def _ds(values, labels):
    values = np.asarray(values, dtype=float)
    return Dataset(FeatureMatrix(values, np.arange(values.shape[1])),
                   np.asarray(labels, dtype=int))


def _separable(n=60, seed=0):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.4).astype(int)
    y[:2] = [0, 1]
    x = rng.normal(size=(n, 3)) + 4.0 * y[:, None]
    return _ds(x, y)


def _xor():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    y = np.array([0, 1, 1, 0] * 10)
    return _ds(x, y)


def _and_data():
    # y = x0 AND x1: needs two levels, but unlike xor the greedy first
    # split already has positive gain
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 10)
    y = np.array([0, 0, 0, 1] * 10)
    return _ds(x, y)


def _accuracy(model, d, threshold=0.5):
    s = predict_scores(model, d.features)
    return float(((s >= threshold).astype(int) == d.labels).mean())


class TestLinearModels:
    def test_logistic_separable_perfect(self):
        d = _separable()
        m = train(ModelSpec("logistic", {"epochs": 2000, "learning_rate": 0.5}), d)
        assert _accuracy(m, d) == 1.0

    def test_svm_separable_perfect(self):
        d = _separable()
        m = train(ModelSpec("linear_svm", {"epochs": 2000}), d)
        assert _accuracy(m, d) == 1.0

    def test_logistic_loss_monotone_envelope(self):
        d = _separable()
        m = train(ModelSpec("logistic"), d)
        trace = np.array(m.loss_trace)
        assert len(trace) > 10
        # full-batch gradient descent with a sane step: final well below start
        assert trace[-1] < trace[0]
        assert (np.diff(trace) <= 1e-10).all()

    def test_gradient_check_logistic(self):
        d = _separable(seed=3)
        assert gradient_check(ModelSpec("logistic"), d) < 1e-5

    def test_gradient_check_svm(self):
        d = _separable(seed=4)
        assert gradient_check(ModelSpec("linear_svm"), d) < 1e-4

    def test_gradient_check_tree_rejected(self):
        with pytest.raises(ModelError):
            gradient_check(ModelSpec("decision_tree"), _separable())

    def test_class_weight_equals_duplication_gradient(self):
        # weighting the minority by 3 must equal literally repeating its rows
        # three times, up to the 1/n loss normalisation
        d = _separable(n=30, seed=5)
        X, y = d.features.values, d.labels.astype(float)
        w = np.where(y == 1, 3.0, 1.0)
        Xd = np.concatenate([X] + [X[y == 1]] * 2)
        yd = np.concatenate([y] + [y[y == 1]] * 2)
        params = np.random.default_rng(0).normal(size=X.shape[1] + 1)
        _, g_w = logistic_loss_grad(params, X, y, w, l2=0.0)
        _, g_d = logistic_loss_grad(params, Xd, yd, np.ones(len(yd)), l2=0.0)
        assert np.allclose(g_w * w.sum(), g_d * len(yd), atol=1e-10)

    def test_divergence_raises_with_trace(self):
        d = _separable()
        with pytest.raises(TrainingDiverged) as exc:
            train(ModelSpec("logistic", {"learning_rate": 1e6, "epochs": 200}), d)
        assert len(exc.value.loss_trace) >= 1


class TestTrees:
    def test_and_needs_depth_two(self):
        d = _and_data()
        shallow = train(ModelSpec("decision_tree", {"max_depth": 1, "min_leaf": 1}), d)
        deep = train(ModelSpec("decision_tree", {"max_depth": 2, "min_leaf": 1}), d)
        assert _accuracy(shallow, d) <= 0.75
        assert _accuracy(deep, d) == 1.0

    def test_pure_node_stops(self):
        d = _ds([[0.0], [1.0], [2.0], [3.0]], [0, 0, 1, 1])
        m = train(ModelSpec("decision_tree", {"max_depth": 6, "min_leaf": 1}), d)
        t = m.state["tree"]
        assert sum(f < 0 for f in t.feature) == 2  # exactly two leaves

    def test_forest_of_one_tree_without_subsampling(self):
        # a forest restricted to one bootstrap-free tree behaves like CART
        d = _separable(n=80, seed=1)
        tree = train(ModelSpec("decision_tree", {"min_leaf": 2}), d)
        assert _accuracy(tree, d) >= 0.95

    def test_forest_beats_single_stump_on_xor(self):
        d = _xor()
        forest = train(ModelSpec("random_forest",
                                 {"n_trees": 30, "max_depth": 3, "min_leaf": 1}), d)
        assert _accuracy(forest, d) >= 0.9

    def test_forest_determinism(self):
        d = _separable(n=50, seed=2)
        spec = ModelSpec("random_forest", {"n_trees": 20}, seed=7)
        a = predict_scores(train(spec, d), d.features)
        b = predict_scores(train(spec, d), d.features)
        assert np.array_equal(a, b)

    def test_importances_sum_to_one_and_find_signal(self):
        rng = np.random.default_rng(11)
        y = (rng.random(120) < 0.3).astype(int)
        y[:2] = [0, 1]
        x = rng.normal(size=(120, 5))
        x[:, 2] += 3.0 * y
        d = _ds(x, y)
        m = train(ModelSpec("random_forest", {"n_trees": 40}), d)
        imp = feature_importances(m)
        assert imp.sum() == pytest.approx(1.0)
        assert imp.argmax() == 2

    def test_decision_tree_importances_are_normalised_gains(self):
        rng = np.random.default_rng(4)
        y = (rng.random(150) < 0.3).astype(int)
        x = rng.normal(size=(150, 4))
        x[:, 1] += 2.0 * y
        x[:, 3] += 0.7 * y
        m = train(ModelSpec("decision_tree", {"max_depth": 4, "min_leaf": 3}), _ds(x, y))
        t = m.state["tree"]
        gains = np.zeros(4)
        for j, g in zip(t.feature, t.gain):
            if j >= 0:
                gains[j] += g
        assert np.count_nonzero(gains) >= 2
        assert np.allclose(feature_importances(m), gains / gains.sum(), rtol=0, atol=1e-15)

    def test_importances_of_a_loaded_decision_tree_rejected(self):
        m = model_from_json(model_to_json(train(ModelSpec("decision_tree"), _separable())))
        with pytest.raises(ModelError, match="split gains"):
            feature_importances(m)

    def test_importances_rejected_for_linear(self):
        with pytest.raises(ModelError):
            feature_importances(train(ModelSpec("logistic"), _separable()))


class TestBoosting:
    def test_zero_rounds_predicts_prior(self):
        d = _separable()
        m = train(ModelSpec("gradient_boosting", {"n_rounds": 0}), d)
        s = predict_scores(m, d.features)
        prior = d.labels.mean()
        assert np.allclose(s, prior, atol=1e-12)

    def test_boosting_fits_and(self):
        d = _and_data()
        m = train(ModelSpec("gradient_boosting",
                            {"n_rounds": 50, "max_depth": 2, "min_leaf": 1}), d)
        assert _accuracy(m, d) == 1.0

    def test_regularized_variant_fits_and(self):
        d = _and_data()
        m = train(ModelSpec("regularized_boosting",
                            {"n_rounds": 50, "max_depth": 2, "min_leaf": 1,
                             "leaf_l2": 0.5}), d)
        assert _accuracy(m, d) == 1.0

    def test_heavy_leaf_penalty_shrinks_scores_toward_prior(self):
        d = _separable(n=60, seed=8)
        light = train(ModelSpec("regularized_boosting",
                                {"n_rounds": 20, "leaf_l2": 0.01}), d)
        heavy = train(ModelSpec("regularized_boosting",
                                {"n_rounds": 20, "leaf_l2": 1e6}), d)
        prior = d.labels.mean()
        sl = predict_scores(light, d.features)
        sh = predict_scores(heavy, d.features)
        assert np.abs(sh - prior).mean() < np.abs(sl - prior).mean()

    def test_training_loss_decreases(self):
        d = _separable(n=70, seed=9)
        m = train(ModelSpec("gradient_boosting", {"n_rounds": 30}), d)
        trace = np.array(m.loss_trace)
        assert trace[-1] < trace[0]


class TestSpecAndSerialization:
    def test_unknown_family(self):
        with pytest.raises(ModelError):
            ModelSpec("perceptron")

    def test_unknown_hyperparam(self):
        with pytest.raises(ModelError):
            ModelSpec("logistic", {"momentum": 0.9})

    def test_defaults_merged(self):
        spec = ModelSpec("random_forest", {"n_trees": 10})
        assert spec.hyperparams["max_depth"] == 6

    def test_integral_float_counts_from_a_config_train(self, tmp_path):
        # an INI value such as 1e1 loads as the float 10.0
        from rareclass.config import load_config
        path = tmp_path / "c.ini"
        path.write_text("[model.logistic]\nepochs = 5.0\n"
                        "[model.random_forest]\nn_trees = 1e1\nmax_depth = 3.0\n"
                        "[model.gradient_boosting]\nn_rounds = 4e0\n")
        cfg = load_config(str(path))
        assert cfg.model_overrides["random_forest"]["n_trees"] == 10.0
        d = _separable(n=40, seed=3)
        for fam, hp in cfg.model_overrides.items():
            spec = ModelSpec(fam, hp)
            assert all(type(spec.hyperparams[k]) is int for k in hp)
            m = train(spec, d)
            assert model_from_json(model_to_json(m)).spec == spec
        assert len(train(ModelSpec("random_forest", cfg.model_overrides["random_forest"]),
                         d).state["trees"]) == 10

    def test_non_integral_count_rejected(self):
        with pytest.raises(ModelError, match="positive integer"):
            ModelSpec("random_forest", {"n_trees": 10.5})

    def test_missing_cells_rejected(self):
        d = _ds([[np.nan], [1.0], [2.0]], [0, 1, 0])
        with pytest.raises(ModelError, match="impute"):
            train(ModelSpec("logistic"), d)

    def test_single_class_rejected(self):
        d = _ds([[0.0], [1.0]], [1, 1])
        with pytest.raises(ModelError):
            train(ModelSpec("decision_tree"), d)

    def test_column_mismatch_at_predict(self):
        d = _separable()
        m = train(ModelSpec("logistic"), d)
        other = FeatureMatrix(np.zeros((2, 3)), [7, 8, 9])
        with pytest.raises(ModelError, match="column"):
            predict_scores(m, other)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_roundtrip_exact_scores(self, family):
        d = _separable(n=40, seed=13)
        hp = {"n_trees": 5} if family == "random_forest" else \
             {"n_rounds": 5} if family.endswith("boosting") else {}
        m = train(ModelSpec(family, hp), d)
        m2 = model_from_json(model_to_json(m))
        a = predict_scores(m, d.features)
        b = predict_scores(m2, d.features)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_json_roundtrip_is_a_fixed_point(self, family):
        hp = {"n_trees": 3} if family == "random_forest" else \
             {"n_rounds": 3} if family.endswith("boosting") else {}
        text = model_to_json(train(ModelSpec(family, hp), _separable(n=40, seed=13)))
        assert model_to_json(model_from_json(text)) == text

    def test_bad_format_version(self):
        d = _separable(n=30)
        text = model_to_json(train(ModelSpec("logistic"), d))
        broken = text.replace('"format_version": 1', '"format_version": 99')
        with pytest.raises(ModelError, match="version"):
            model_from_json(broken)
