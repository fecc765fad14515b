import pytest

from rareclass.config import ConfigError, PipelineConfig, load_config


def _write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return str(p)


class TestDefaults:
    def test_defaults_valid(self):
        PipelineConfig().validate()

    def test_digest_stable(self):
        assert PipelineConfig().digest() == PipelineConfig().digest()

    def test_digest_sensitive_to_any_field(self):
        a = PipelineConfig()
        b = PipelineConfig(seed=1)
        c = PipelineConfig(over_ratio=0.6)
        assert len({a.digest(), b.digest(), c.digest()}) == 3


class TestValidation:
    @pytest.mark.parametrize("kw", [
        {"loader": "parquet"},
        {"missing_drop_threshold": 0.0},
        {"correlation_threshold": 1.0},
        {"split_mode": "loocv"},
        {"test_fraction": 1.0},
        {"impute_method": "hot_deck"},
        {"roster": "everything"},
        {"scenario": "adasyn"},
        {"over_ratio": 1.5},
        {"under_ratio": 0.0},
        {"vote_threshold": 0},
        {"model_families": ("logistic", "perceptron")},
        {"knn_k": 0},
        {"mice_iterations": 0},
        {"mice_initial_fill": "mode"},
        {"mice_noise_mode": "gausian"},
        {"model_overrides": {"logistic": {"epochs": 1.5}}},
        {"model_overrides": {"random_forest": {"max_depth": 0}}},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            PipelineConfig(**kw).validate()


class TestLoadFile:
    def test_full_file(self, tmp_path):
        # every key load_config knows; float keys are partly written as
        # integers so the digest also pins each parsed value's type
        cfg = load_config(_write(tmp_path, """
[data]
loader = delimited
data_path = d.txt
labels_path = l.txt
label_column = pass_fail
delimiter = |

[preprocess]
missing_drop_threshold = 0.4
correlation_threshold = 0.8

[split]
mode = kfold
test_fraction = 0.25
k = 4

[impute]
method = mice
k = 6
iterations = 7
initial_fill = median
noise_mode = gaussian_residual_draw
skew_threshold = 2
overrides = 3:median, 9:forward

[featsel]
roster = fast
vote_threshold = 2
n_keep = 10

[resample]
scenario = combined
over_ratio = 0.4
under_ratio = 1
k_neighbors = 3

[models]
families = logistic, random_forest

[model.logistic]
epochs = 50
learning_rate = 0.2

[run]
seed = 11
out_dir = results
"""))
        assert cfg.loader == "delimited"
        assert cfg.label_column == "pass_fail" and cfg.delimiter == "|"
        assert cfg.missing_drop_threshold == 0.4
        assert cfg.split_mode == "kfold" and cfg.k_folds == 4
        assert cfg.test_fraction == 0.25
        assert cfg.impute_method == "mice" and cfg.mice_iterations == 7
        assert cfg.knn_k == 6 and cfg.mice_initial_fill == "median"
        assert cfg.mice_noise_mode == "gaussian_residual_draw"
        assert cfg.skew_threshold == 2.0 and isinstance(cfg.skew_threshold, float)
        assert cfg.impute_overrides == {3: "median", 9: "forward"}
        assert cfg.roster == "fast" and cfg.featsel_n_keep == 10
        assert cfg.scenario == "combined" and cfg.smote_k_neighbors == 3
        assert cfg.under_ratio == 1.0 and isinstance(cfg.under_ratio, float)
        assert cfg.model_families == ("logistic", "random_forest")
        assert cfg.model_overrides["logistic"] == {"epochs": 50, "learning_rate": 0.2}
        assert cfg.seed == 11 and cfg.out_dir == "results"
        assert cfg.digest() == "68c5c3bc349f9ff9"

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="section"):
            load_config(_write(tmp_path, "[tuning]\ntrials = 5\n"))

    def test_override_for_unknown_family(self, tmp_path):
        # a misspelt family would be ignored by training yet change the digest
        with pytest.raises(ConfigError, match=r"\[model\.logistc\]"):
            load_config(_write(tmp_path, "[models]\nfamilies = logistic\n"
                                         "[model.logistc]\nepochs = 5\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(_write(tmp_path, "[split]\nholdout = 0.2\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))

    @pytest.mark.parametrize("section, text", [
        ("model.logistic", "[model.logistic]\nepochs = 1.5\n"),
        ("model.logistic", "[model.logistic]\nepoch = 5\n"),
        ("model.linear_svm", "[model.linear_svm]\nc = -1\n"),
        ("impute", "[impute]\nnoise_mode = gausian\n"),
        ("impute", "[impute]\nmethod = mice\niterations = 0\n"),
        ("impute", "[impute]\nk = 0\n"),
    ])
    def test_stage_parameters_checked_at_load(self, tmp_path, section, text):
        # each would otherwise fail only in its stage, after the stages before it
        with pytest.raises(ConfigError, match=rf"\[{section}\]"):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("where, text", [
        (r"\[impute\] k:", "[impute]\nk = five\n"),
        (r"\[impute\] overrides:", "[impute]\noverrides = 3-median\n"),
        (r"\[model\.logistic\] learning_rate:", "[model.logistic]\nlearning_rate = fast\n"),
    ], ids=["int", "overrides", "model"])
    def test_unparseable_value_names_section_and_key(self, tmp_path, where, text):
        with pytest.raises(ConfigError, match=where):
            load_config(_write(tmp_path, text))

    def test_invalid_value_caught_at_load(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            load_config(_write(tmp_path, "[resample]\nscenario = adasyn\n"))
