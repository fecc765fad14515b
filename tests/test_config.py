import dataclasses
import re
from collections import Counter
from pathlib import Path

import pytest

from rareclass import impute, resample
from rareclass.cli import main
from rareclass.config import CONFIG_KEYS, INI_KEYS, ConfigError, PipelineConfig, load_config
from rareclass.models import ModelError, ModelSpec


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
        {"model_families": ()},
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
        {"model_overrides": {"gradient_boosting": {"n_rounds": 1.5}}},
        {"model_overrides": {"random_forest": {"max_depth": 0}}},
        {"featsel_n_keep": 0},
        {"featsel_n_keep": -3},
        {"smote_k_neighbors": 0},
        {"impute_overrides": {3: "bogus"}},
        {"model_families": ("logistic", "logistic")},
        {"seed": -1},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ConfigError):
            PipelineConfig(**kw).validate()

    @pytest.mark.parametrize("where, kw", [
        (r"\[model\.logistic\]: l2 ", {"model_overrides": {"logistic": {"l2": "0.1"}}}),
        (r"\[impute\] k: ", {"knn_k": "5"}),
        (r"\[featsel\] vote_threshold: ", {"vote_threshold": "3"}),
        (r"\[impute\] k: ", {"knn_k": 2.5}),
        (r"\[impute\] k: ", {"knn_k": 5.0}),
        (r"\[impute\] iterations: ", {"mice_iterations": 2.5}),
    ], ids=["model_str", "k_str", "vote_threshold_str", "k_fraction", "k_float",
            "iterations_fraction"])
    def test_wrong_type_set_in_code_names_section_and_key(self, where, kw):
        # a str raised a bare TypeError here, and a float k or iteration
        # count failed only in the impute stage
        with pytest.raises(ConfigError, match=where):
            PipelineConfig(**kw).validate()

    @pytest.mark.parametrize("build, error", [
        (lambda: ModelSpec("random_forest", {"n_trees": True}), ModelError),
        (lambda: ModelSpec("logistic", {"l2": True}), ModelError),
        (lambda: impute.KnnImputeParams(k=2.5), impute.ImputeError),
        (lambda: impute.KnnImputeParams(k=True), impute.ImputeError),
        (lambda: impute.KnnImputeParams(k=5.0), impute.ImputeError),
        (lambda: impute.MiceParams(n_iterations=2.5), impute.ImputeError),
        (lambda: impute.MiceParams(n_iterations=True), impute.ImputeError),
        (lambda: resample.SmoteParams(0.5, k_neighbors=2.5), resample.ResampleError),
        (lambda: resample.SmoteParams(0.5, k_neighbors=True), resample.ResampleError),
    ], ids=["n_trees_bool", "l2_bool", "k_fraction", "k_bool", "k_float",
            "iterations_fraction", "iterations_bool", "k_neighbors_fraction",
            "k_neighbors_bool"])
    def test_parameter_objects_reject_what_validate_rejects(self, build, error):
        # a bool fitted a one-tree forest or was kept as an l2 of True, and
        # a fractional count built, then failed in the stage with a TypeError
        with pytest.raises(error):
            build()


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
test_fraction = 0.25

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
l2 = 0.001

[model.random_forest]
n_trees = 50

[run]
seed = 11
out_dir = results
"""))
        assert cfg.loader == "delimited"
        assert cfg.label_column == "pass_fail" and cfg.delimiter == "|"
        assert cfg.missing_drop_threshold == 0.4
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
        assert cfg.model_overrides == {"logistic": {"l2": 0.001}, "random_forest": {"n_trees": 50}}
        assert isinstance(cfg.model_overrides["random_forest"]["n_trees"], float)
        assert cfg.seed == 11 and cfg.out_dir == "results"
        assert cfg.digest() == "1a4af9a4d55f16a2"

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="section"):
            load_config(_write(tmp_path, "[tuning]\ntrials = 5\n"))

    def test_override_for_unknown_family(self, tmp_path):
        # a misspelt family would be ignored by training yet change the digest
        with pytest.raises(ConfigError, match=r"\[model\.logistc\]"):
            load_config(_write(tmp_path, "[models]\nfamilies = logistic\n"
                                         "[model.logistc]\nl2 = 0.5\n"))

    def test_unknown_key(self, tmp_path):
        # mode and k were the keys of the deleted fold-0 k-fold split
        for key in ("holdout", "mode", "k"):
            with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[split\]"):
                load_config(_write(tmp_path, f"[split]\n{key} = 0.2\n"))

    @pytest.mark.parametrize("family", ["logistic", "linear_svm"])
    @pytest.mark.parametrize("key", ["epochs", "learning_rate"])
    def test_deleted_step_key_fails_at_load(self, tmp_path, family, key):
        # the linear families are solved by Newton's method, with no step knobs
        with pytest.raises(ConfigError, match=rf"\[model\.{family}\]: unknown hyperparameter "
                                              rf"'{key}'"):
            load_config(_write(tmp_path, f"[model.{family}]\n{key} = 50\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))

    @pytest.mark.parametrize("text", [
        "seed = 1\n",                                   # no section header
        "[run]\nseed = 1\n[run]\nseed = 2\n",            # a section twice
        "[run]\nseed = 1\nseed = 2\n",                   # a key twice
        "[run]\nout_dir = out%x\n",                     # a bare %, raised by interpolation
    ], ids=["no_section", "duplicate_section", "duplicate_key", "bare_percent"])
    def test_malformed_file_names_the_file(self, tmp_path, text):
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)}: "):
            load_config(path)

    def test_malformed_file_fails_on_the_command_line_without_a_traceback(self, tmp_path,
                                                                          capsys):
        path = _write(tmp_path, "seed = 1\n")
        assert main(["evaluate", "--config", path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: File contains no section")

    def test_escaped_percent_is_a_literal(self, tmp_path):
        assert load_config(_write(tmp_path, "[run]\nout_dir = out%%x\n")).out_dir == "out%x"

    @pytest.mark.parametrize("section, text", [
        ("model.logistic", "[model.logistic]\nl2 = -1\n"),
        ("model.logistic", "[model.logistic]\nepoch = 5\n"),
        ("model.linear_svm", "[model.linear_svm]\nc = -1\n"),
        ("model.linear_svm", "[model.linear_svm]\nc = 0\n"),      # scored every row 0.5
        ("model.gradient_boosting", "[model.gradient_boosting]\nshrinkage = 0\n"),
        ("model.regularized_boosting", "[model.regularized_boosting]\nshrinkage = 0\n"),
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
        (r"\[model\.logistic\] l2:", "[model.logistic]\nl2 = fast\n"),
    ], ids=["int", "overrides", "model"])
    def test_unparseable_value_names_section_and_key(self, tmp_path, where, text):
        with pytest.raises(ConfigError, match=where):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("where, text", [
        (r"\[featsel\] n_keep", "[featsel]\nroster = fast\nn_keep = 0\n"),
        (r"\[featsel\] n_keep", "[featsel]\nn_keep = -1\n"),
        (r"\[resample\].*k_neighbors", "[resample]\nscenario = smote\nk_neighbors = 0\n"),
        (r"\[impute\] overrides.*'bogus'", "[impute]\nmethod = simple\noverrides = 3:bogus\n"),
        (r"\[impute\] overrides.*'bogus'", "[impute]\nmethod = mice\noverrides = 3:bogus\n"),
        (r"\[models\] families: must be .*, got ''$", "[models]\nfamilies =\n"),
    ], ids=["n_keep_zero", "n_keep_negative", "k_neighbors", "override_simple",
            "override_mice", "families_empty"])
    def test_late_failing_value_rejected_at_load(self, tmp_path, where, text):
        # each failed only in its stage, after imputation or the whole
        # roster, or (an override under knn or mice) never
        with pytest.raises(ConfigError, match=where):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("where, text", [
        (r"\[model\.random_forest\]: n_trees must be finite",
         "[model.random_forest]\nn_trees = 1e400\n"),
        (r"\[model\.gradient_boosting\]: shrinkage must be finite",
         "[model.gradient_boosting]\nshrinkage = 1e400\n"),
    ], ids=["count", "rate"])
    def test_non_finite_hyperparameter_rejected_at_load(self, tmp_path, where, text):
        # 1e400 loads as inf: a count raised a bare OverflowError, and a
        # rate failed only in the train stage, after the whole roster
        with pytest.raises(ConfigError, match=where):
            load_config(_write(tmp_path, text))

    @pytest.mark.parametrize("family, key, spellings", [
        ("linear_svm", "c", ("1", "1.0", "1e0")),
        ("random_forest", "n_trees", ("50", "50.0", "5e1")),
    ], ids=["rate", "count"])
    def test_one_value_in_any_spelling_has_one_digest(self, tmp_path, family, key, spellings):
        # an integer spelling was read as an int and digested apart
        digests = {load_config(_write(tmp_path, f"[model.{family}]\n{key} = {v}\n")).digest()
                   for v in spellings}
        assert len(digests) == 1

    def test_a_config_built_in_code_digests_as_loaded(self, tmp_path):
        # load_config reads each model value as a float; an int built in code
        # was digested apart from it
        loaded = load_config(_write(tmp_path, "[model.linear_svm]\nc = 1\n")).digest()
        assert {PipelineConfig(model_overrides={"linear_svm": {"c": v}}).digest()
                for v in (1, 1.0)} == {loaded}
        # and the families as a tuple; a list was digested apart from it
        loaded = load_config(_write(tmp_path, "[models]\nfamilies = logistic, linear_svm\n"))
        assert {PipelineConfig(model_families=v(["logistic", "linear_svm"])).digest()
                for v in (list, tuple)} == {loaded.digest()}

    def test_section_and_key_order_leave_the_digest(self, tmp_path):
        # the override dicts were digested in file order, so two files that
        # differ only in order wrote different report.txt bytes
        sections = ["[model.decision_tree]\nmax_depth = 4\nmin_leaf = 3\n",
                    "[model.random_forest]\nn_trees = 50\nmax_depth = 5\nmin_leaf = 2\n"]
        permuted = ["[model.random_forest]\nmin_leaf = 2\nn_trees = 50\nmax_depth = 5\n",
                    "[model.decision_tree]\nmin_leaf = 3\nmax_depth = 4\n"]
        a = load_config(_write(tmp_path, "[impute]\noverrides = 3:median, 9:forward\n"
                                         + "".join(sections)))
        b = load_config(_write(tmp_path, "[impute]\noverrides = 9:forward, 3:median\n"
                                         + "".join(permuted)))
        assert list(a.model_overrides) != list(b.model_overrides)
        assert list(a.impute_overrides) != list(b.impute_overrides)
        assert a == b and a.digest() == b.digest()

    @pytest.mark.parametrize("roster, voters", [("fast", 3), ("default", 12)])
    def test_vote_threshold_above_the_roster_fails_at_load(self, tmp_path, roster, voters):
        # it failed only in the select stage, after the whole roster had run
        def load(threshold):
            return load_config(_write(tmp_path, f"[featsel]\nroster = {roster}\n"
                                                f"vote_threshold = {threshold}\n"))
        assert load(voters).vote_threshold == voters
        with pytest.raises(ConfigError, match=rf"^\[featsel\] vote_threshold: must be "
                                              rf"<= {voters} .*, got {voters + 1}$"):
            load(voters + 1)

    def test_roster_none_takes_any_vote_threshold(self, tmp_path):
        # no selector runs, so no vote is held
        cfg = load_config(_write(tmp_path, "[featsel]\nroster = none\nvote_threshold = 13\n"))
        assert cfg.vote_threshold == 13

    def test_invalid_value_caught_at_load(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            load_config(_write(tmp_path, "[resample]\nscenario = adasyn\n"))


# section -> INI key -> PipelineConfig field, as the hand-written table read
# before the keys were declared on their fields
INI_SURFACE = {
    "data": {"loader": "loader", "data_path": "data_path", "labels_path": "labels_path",
             "label_column": "label_column", "delimiter": "delimiter"},
    "preprocess": {"missing_drop_threshold": "missing_drop_threshold",
                   "correlation_threshold": "correlation_threshold"},
    "split": {"test_fraction": "test_fraction"},
    "impute": {"method": "impute_method", "k": "knn_k", "iterations": "mice_iterations",
               "initial_fill": "mice_initial_fill", "noise_mode": "mice_noise_mode",
               "skew_threshold": "skew_threshold", "overrides": "impute_overrides"},
    "featsel": {"roster": "roster", "vote_threshold": "vote_threshold",
                "n_keep": "featsel_n_keep"},
    "resample": {"scenario": "scenario", "over_ratio": "over_ratio",
                 "under_ratio": "under_ratio", "k_neighbors": "smote_k_neighbors"},
    "models": {"families": "model_families"},
    "run": {"seed": "seed", "out_dir": "out_dir"},
}

# (section, key) -> a value that breaks the key's declared rule, written as
# the INI text whose parsed value the error repeats
BAD_VALUES = {
    ("data", "loader"): "parquet",
    ("data", "delimiter"): "",
    ("preprocess", "missing_drop_threshold"): "0.0",
    ("preprocess", "correlation_threshold"): "1.0",
    ("split", "test_fraction"): "1.0",
    ("impute", "method"): "hot_deck",
    ("impute", "skew_threshold"): "nan",
    ("featsel", "roster"): "everything",
    ("featsel", "vote_threshold"): "0",
    ("featsel", "n_keep"): "0",
    ("resample", "scenario"): "adasyn",
    ("resample", "over_ratio"): "1.5",
    ("resample", "under_ratio"): "0.0",
    ("models", "families"): "logistic, logistic",
    ("run", "seed"): "-1",
}

RULED = sorted((k.section, k.key) for k in INI_KEYS.values() if k.holds is not None)


class TestIniSurface:
    def test_lookup_is_the_hand_written_table(self):
        assert CONFIG_KEYS == INI_SURFACE

    def test_every_field_but_the_overrides_has_one_key(self):
        per_field = Counter(name for keys in CONFIG_KEYS.values() for name in keys.values())
        assert per_field == Counter(f.name for f in dataclasses.fields(PipelineConfig)
                                    if f.name != "model_overrides")

    def test_default_digest_unchanged(self):
        assert PipelineConfig().digest() == "392f5c29812e3319"

    def test_every_rule_has_a_bad_value(self):
        assert sorted(BAD_VALUES) == RULED

    @pytest.mark.parametrize("section, key", RULED, ids=[f"{s}.{k}" for s, k in RULED])
    def test_rule_enforced_at_load(self, tmp_path, section, key):
        assert (section, key) in BAD_VALUES, f"no bad value for [{section}] {key}"
        bad = BAD_VALUES[section, key]
        with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: must be .*, "
                                              rf"got '?{re.escape(bad)}'?$"):
            load_config(_write(tmp_path, f"[{section}]\n{key} = {bad}\n"))

    def test_negative_seed_fails_before_any_stage(self, tmp_path, capsys):
        # absent data files: a stage that ran would fail on them instead
        assert main(["reproduce", "--scenario", "3", "--seed", "-1", "--out", str(tmp_path),
                     "--data", str(tmp_path / "absent.data"),
                     "--labels", str(tmp_path / "absent.labels")]) == 1
        assert capsys.readouterr().err == "error: [run] seed: must be >= 0, got -1\n"

    def test_readme_table_lists_the_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = [line.split("|")[1:3] for line in readme.splitlines() if line.startswith("| `[")]
        table = {section.strip(" `[]"): set(re.findall(r"`([^`]+)`", keys))
                 for section, keys in rows}
        assert table == {**{s: set(keys) for s, keys in CONFIG_KEYS.items()},
                         "model.<family>": set()}
