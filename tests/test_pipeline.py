import argparse
import hashlib
import importlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from rareclass.cli import build_parser, main
from rareclass.config import ConfigError, PipelineConfig, load_config
from rareclass.data import Dataset, FeatureMatrix, load_secom
from rareclass.pipeline import (STAGES, PipelineError, emit_report, reproduce,
                                run_pipeline, scenario_config, write_drops)
from rareclass.synth import make_imbalanced, write_secom_like


@pytest.fixture(scope="module")
def sensor_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sensors")
    d = make_imbalanced(n_rows=260, n_informative=4, n_noise=10,
                        positive_fraction=0.12, missing_fraction=0.05,
                        n_constant=2, n_duplicate=2, n_high_missing=2,
                        class_separation=2.5, seed=0)
    data, labels = str(root / "s.data"), str(root / "s_labels.data")
    write_secom_like(d, data, labels)
    return data, labels


def _cfg(sensor_files, **kw):
    data, labels = sensor_files
    base = dict(data_path=data, labels_path=labels, roster="fast",
                featsel_n_keep=7, vote_threshold=2,
                model_families=("logistic", "decision_tree"),
                model_overrides={"logistic": {"l2": 1e-3}})
    base.update(kw)
    return PipelineConfig(**base)


class TestRunPipeline:
    def test_full_run_produces_report(self, sensor_files):
        res = run_pipeline(_cfg(sensor_files))
        r = res.report
        assert set(r.model_results) == {"logistic", "decision_tree"}
        assert r.leakage_hash_at_split == r.leakage_hash_at_eval
        assert set(r.stage_timings) == set(STAGES)
        pc = r.prune_counts
        # constant + duplicate + high-missing columns were planted
        assert pc["high_missing"] >= 2
        assert pc["constant"] >= 2
        assert pc["correlated"] >= 2
        assert pc["surviving"] >= 10

    def test_missing_stats_both_interpretations(self, sensor_files):
        r = run_pipeline(_cfg(sensor_files)).report
        ms = r.missing_stats["before_prune"]
        assert 0 < ms["missing_fraction_all_cells"] < 0.2
        assert ms["missing_fraction_affected_columns"] >= ms["missing_fraction_all_cells"]

    def test_unset_n_keep_keeps_half_the_columns(self, sensor_files):
        res = run_pipeline(_cfg(sensor_files, featsel_n_keep=None), stop_after="select")
        half = max(1, len(res.scaler.column_ids) // 2)
        assert [len(d.selected) for d in res.decisions[:2]] == [half, half]

    def test_stop_after_prune_skips_training(self, sensor_files):
        res = run_pipeline(_cfg(sensor_files), stop_after="prune")
        assert res.pruned is not None
        assert res.trained == {} and res.report is None

    def test_unknown_stage(self, sensor_files):
        with pytest.raises(ConfigError):
            run_pipeline(_cfg(sensor_files), stop_after="deploy")

    def test_deterministic_reports(self, sensor_files):
        from rareclass.pipeline import format_report_table
        a = run_pipeline(_cfg(sensor_files, seed=3)).report
        b = run_pipeline(_cfg(sensor_files, seed=3)).report
        assert format_report_table(a) == format_report_table(b)
        for fam in a.model_results:
            assert a.model_results[fam].roc.to_csv() == b.model_results[fam].roc.to_csv()

    def test_load_failure_is_stage_named(self, sensor_files):
        cfg = _cfg(sensor_files, data_path="/nonexistent/file")
        with pytest.raises(PipelineError, match="stage load") as exc:
            run_pipeline(cfg)
        assert exc.value.stage == "load"

    # stage -> (module, attribute the stage calls, config overrides)
    FAULTS = {
        "load": ("pipeline", "load_secom", {}),
        "eda": ("pipeline", "_missing_stats", {}),
        "prune": ("preprocess", "drop_constant", {}),
        "split": ("preprocess", "stratified_split", {}),
        "scale": ("preprocess", "fit_scaler", {}),
        "impute": ("impute", "knn_impute", {}),
        "select": ("featsel", "vote", {}),
        "resample": ("resample", "smote", {"scenario": "smote"}),
        "train": ("models", "train", {}),
        "evaluate": ("models", "predict_scores", {}),
    }

    @pytest.mark.parametrize("stage", STAGES)
    def test_every_stage_error_is_stage_named(self, sensor_files, monkeypatch, stage):
        module, attr, kw = self.FAULTS[stage]
        injected = LookupError(f"injected into {attr}")

        def fail(*args, **kwargs):
            raise injected

        monkeypatch.setattr(importlib.import_module(f"rareclass.{module}"), attr, fail)
        with pytest.raises(PipelineError, match=f"stage {stage}:") as exc:
            run_pipeline(_cfg(sensor_files, **kw))
        assert exc.value.stage == stage
        assert exc.value.__cause__ is injected

    def test_one_column_stats_pass_per_dataset(self, sensor_files, monkeypatch):
        seen = []
        for name in ("pipeline", "preprocess"):
            module = importlib.import_module(f"rareclass.{name}")
            real = module.column_stats
            monkeypatch.setattr(module, "column_stats",
                                lambda d, real=real: seen.append(d) or real(d))
        res = run_pipeline(_cfg(sensor_files), stop_after="scale")
        # one pass over the raw training rows serves prune and scale
        assert len(seen) == 1
        train = res.split.train_row_indices
        assert np.array_equal(seen[0].column_ids, res.raw.column_ids)
        assert np.array_equal(seen[0].features.values, res.raw.features.values[train],
                              equal_nan=True)

    def test_leakage_hashes_are_the_scored_rows(self, sensor_files):
        res = run_pipeline(_cfg(sensor_files))
        r = res.report
        # both hashes cover exactly the split's raw test rows, the rows scored
        test = res.split.test_row_indices
        h = hashlib.sha256(res.raw.features.values[test].tobytes())
        h.update(res.raw.labels[test].tobytes())
        assert r.leakage_hash_at_eval == h.hexdigest()
        assert r.leakage_hash_at_split == r.leakage_hash_at_eval
        assert np.array_equal(res.test_set.labels, res.raw.labels[test])

    def test_roster_none_keeps_all_columns(self, sensor_files):
        res = run_pipeline(_cfg(sensor_files, roster="none"))
        assert res.ledger is None
        assert res.train_set.n_cols == res.pruned.n_cols

    def test_a_vote_that_keeps_no_column_fails_the_select_stage(self, tmp_path):
        # on noise alone, the F score and mutual information keep one
        # column each, and not the same one, so no column has all 3 votes
        d = make_imbalanced(n_rows=200, n_informative=0, n_noise=8, positive_fraction=0.15,
                            missing_fraction=0.05, seed=1)
        data, labels = str(tmp_path / "s.data"), str(tmp_path / "s_labels.data")
        write_secom_like(d, data, labels)
        cfg = PipelineConfig(data_path=data, labels_path=labels, roster="fast",
                             featsel_n_keep=1, vote_threshold=3)
        with pytest.raises(PipelineError, match="stage select: vote threshold 3 keeps no column; "
                                                "the top vote count is 2") as exc:
            run_pipeline(cfg, stop_after="select")
        assert exc.value.stage == "select"

    def test_delimited_file_gives_the_secom_run(self, sensor_files, tmp_path):
        # the same cells as a CSV: a header, the label column third, and
        # missing cells spelt as empty or NA
        data, labels = sensor_files
        rows = [line.split() for line in Path(data).read_text().splitlines()]
        classes = ["fail" if line.split()[0] == "1" else "pass"
                   for line in Path(labels).read_text().splitlines()]
        spell = iter(["", "NA"] * sum(r.count("NaN") for r in rows))
        names = [f"s{j}" for j in range(len(rows[0]))]
        lines = [",".join(names[:2] + ["yield"] + names[2:])]
        for r, cls in zip(rows, classes):
            cells = [next(spell) if t == "NaN" else t for t in r]
            lines.append(",".join(cells[:2] + [cls] + cells[2:]))
        (tmp_path / "s.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "run.ini").write_text(
            f"[data]\nloader = delimited\ndata_path = {tmp_path / 's.csv'}\n"
            "label_column = yield\n[featsel]\nroster = fast\nn_keep = 7\n"
            "vote_threshold = 2\n[models]\nfamilies = logistic, decision_tree\n"
            "[model.logistic]\nl2 = 0.001\n")
        got = run_pipeline(load_config(tmp_path / "run.ini")).report.model_results
        want = run_pipeline(_cfg(sensor_files)).report.model_results
        assert {f: r.auc for f, r in got.items()} == {f: r.auc for f, r in want.items()}

    def test_tab_delimited_file_loads(self, tmp_path):
        # configparser strips a literal tab, so the INI text spells it \t;
        # read as two characters, it failed with the label not in the header
        (tmp_path / "s.tsv").write_text("a\tb\tcls\n1.5\tNaN\tpass\n2.5\t3\tfail\n"
                                        "0.5\t1\tpass\n")
        (tmp_path / "run.ini").write_text(
            f"[data]\nloader = delimited\ndata_path = {tmp_path / 's.tsv'}\n"
            "label_column = cls\ndelimiter = \\t\n")
        raw = run_pipeline(load_config(tmp_path / "run.ini"), stop_after="load").raw
        assert raw.labels.tolist() == [0, 1, 0]
        assert np.array_equal(raw.features.values, [[1.5, np.nan], [2.5, 3.0], [0.5, 1.0]],
                              equal_nan=True)

    def test_override_of_a_column_not_in_the_data_fails_the_impute_stage(self, sensor_files):
        # it landed in the plan and filled nothing; an override of a column
        # that pruning dropped is still ignored
        pruned = run_pipeline(_cfg(sensor_files), stop_after="prune").drop_logs
        dropped = pruned["constant"].entries[0].column_id
        ok = _cfg(sensor_files, impute_method="simple", impute_overrides={dropped: "median"})
        assert dropped not in run_pipeline(ok, stop_after="impute").train_set.column_ids
        bad = _cfg(sensor_files, impute_method="simple",
                   impute_overrides={9999: "median", dropped: "median", 9998: "forward"})
        with pytest.raises(PipelineError, match=r"stage impute: \[impute\] overrides name "
                                                r"columns not in the data: \[9998, 9999\]$"):
            run_pipeline(bad, stop_after="impute")

    def test_column_constant_on_the_training_rows_leaves_both_partitions(
            self, sensor_files, tmp_path):
        d = load_secom(*sensor_files)
        test_rows = run_pipeline(_cfg(sensor_files), stop_after="split").split.test_row_indices
        col = np.full(d.n_rows, 3.0)
        col[test_rows] = np.random.default_rng(0).uniform(0.0, 1.0, len(test_rows))
        extra = d.n_cols
        paths = str(tmp_path / "s.data"), str(tmp_path / "s_labels.data")
        write_secom_like(Dataset(FeatureMatrix(np.column_stack([d.features.values, col]),
                                               np.arange(extra + 1)), d.labels), *paths)
        res = run_pipeline(_cfg(paths), stop_after="scale")
        assert extra in [e.column_id for e in res.drop_logs["constant"].entries]
        assert f"\n{extra},constant,,\n" in write_drops(res.drop_logs, tmp_path).read_text()
        assert extra not in res.pruned.column_ids
        assert extra not in res.train_set.column_ids
        assert extra not in res.test_set.column_ids
        assert res.train_set.n_cols == res.test_set.n_cols == res.pruned.n_cols

    @pytest.mark.parametrize("fraction, n_test", [(0.004, 0), (0.99, 32)])
    def test_a_class_missing_from_a_partition_fails_the_split_stage(
            self, tmp_path, fraction, n_test):
        d = make_imbalanced(n_rows=400, positive_fraction=0.08, seed=0)
        assert d.labels.sum() == 32
        paths = str(tmp_path / "s.data"), str(tmp_path / "s_labels.data")
        write_secom_like(d, *paths)
        with pytest.raises(PipelineError, match=f"stage split: class 1 has 32 rows; test_fraction "
                                                f"{fraction:g} leaves {n_test} to test and "
                                                f"{32 - n_test} to training") as exc:
            run_pipeline(_cfg(paths, test_fraction=fraction))
        assert exc.value.stage == "split"

    def test_smote_scenario_resamples_train_only(self, sensor_files):
        res = run_pipeline(_cfg(sensor_files, scenario="smote", over_ratio=0.7))
        n_min = int(res.resampled_train.labels.sum())
        n_maj = res.resampled_train.n_rows - n_min
        assert n_min == int(0.7 * n_maj)
        # test partition untouched
        assert res.test_set.n_rows == len(res.split.test_row_indices)


class TestScenarios:
    def test_unknown_id_rejected_before_work(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario id"):
            scenario_config(4, 0, "d", "l")

    def test_ids_map_to_strategies(self):
        assert scenario_config(1, 0, "d", "l").scenario == "none"
        c2 = scenario_config(2, 0, "d", "l")
        assert (c2.scenario, c2.over_ratio) == ("smote", 0.7)
        c3 = scenario_config(3, 0, "d", "l")
        assert (c3.scenario, c3.over_ratio, c3.under_ratio) == ("combined", 0.4, 0.8)

    def test_reproduce_writes_artifacts(self, sensor_files, tmp_path):
        data, labels = sensor_files
        out = tmp_path / "run3"
        report = reproduce(3, 0, out, data, labels, roster="fast")
        names = {p.name for p in out.iterdir()}
        assert "report.txt" in names
        assert "votes.csv" in names and "drops.csv" in names
        assert "resample_plan.csv" in names
        for fam in report.model_results:
            assert f"roc_{fam}.csv" in names and f"roc_{fam}.svg" in names
        text = (out / "report.txt").read_text()
        assert "Balanced Accuracy" in text and "reference targets" in text

    def test_reproduce_deterministic_bytes(self, sensor_files, tmp_path):
        data, labels = sensor_files
        out1, out2 = tmp_path / "a", tmp_path / "b"
        reproduce(2, 5, out1, data, labels, roster="fast")
        reproduce(2, 5, out2, data, labels, roster="fast")
        for p in sorted(out1.iterdir()):
            assert p.read_bytes() == (out2 / p.name).read_bytes()


def _artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


class TestGoldenBytes:
    """Report artifacts of fixed (config, seed) runs are pinned to sha256
    digests; a change to what a run writes must re-baseline them on purpose."""

    GOLDEN = {
        "scenario_1": "728600932f21c4a833b144aae96c9a06e2f30dd8fca8769095747eee15248714",
        "scenario_2": "f218fca26494ec63c35e49567a4de13c60d82f2a469266a5d22d989fe5df1a6b",
        "scenario_3": "a4e7cc8ef6405e153c7f26374780c848d52171713802152d19bde48f48f7d34e",
        "simple": "adde2380fca4c393fc0c544380603fe9fb87acad3077ab057797861588fa0a41",
        "mice": "888ef5041e4f9ec08a509c42f18aa4b592d25bc92f57a1ea2355c8b7b95420c8",
        # the only golden run under the 12-voter roster: it pins the bytes
        # of the 4- and 16-bin filters, both lasso strengths, Boruta, RFE
        # and SFS
        "scenario_3_default": "437c698667b33e5d93f1e22e018b8a6173a25fc0a76f9374b6083409439678c1",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_artifact_digest(self, sensor_files, tmp_path, monkeypatch, case):
        # relative paths: the config digest in report.txt includes them
        monkeypatch.chdir(tmp_path)
        shutil.copy(sensor_files[0], "s.data")
        shutil.copy(sensor_files[1], "s_labels.data")
        rel = ("s.data", "s_labels.data")
        out = Path("out")
        if case.startswith("scenario_"):
            _, sid, *roster = case.split("_")
            reproduce(int(sid), 0, out, *rel, roster=roster[0] if roster else "fast")
        else:
            res = run_pipeline(_cfg(rel, impute_method=case))
            emit_report(res.report, out, result=res)
        assert _artifact_digest(out) == self.GOLDEN[case]


class TestEmitReport:
    def test_roc_csv_header(self, sensor_files, tmp_path):
        res = run_pipeline(_cfg(sensor_files))
        files = [f for f in emit_report(res.report, tmp_path / "csv", result=res)
                 if Path(f).name.startswith("roc_") and f.endswith(".csv")]
        assert len(files) == len(res.report.model_results)
        for f in files:
            first = Path(f).read_text().splitlines()[0]
            assert first == "fpr,tpr,threshold"

    def test_roc_csv_cells_are_plain_floats(self, sensor_files, tmp_path):
        res = run_pipeline(_cfg(sensor_files))
        files = [f for f in emit_report(res.report, tmp_path / "csv", result=res)
                 if Path(f).name.startswith("roc_") and f.endswith(".csv")]
        for f, mr in zip(files, res.report.model_results.values()):
            rows = [line.split(",") for line in Path(f).read_text().splitlines()[1:]]
            got = np.array([[float(cell) for cell in row] for row in rows])
            want = np.column_stack([mr.roc.fpr, mr.roc.tpr, mr.roc.thresholds])
            assert np.array_equal(got, want)

    def test_svg_is_wellformed(self, sensor_files, tmp_path):
        import xml.etree.ElementTree as ET
        res = run_pipeline(_cfg(sensor_files))
        files = [f for f in emit_report(res.report, tmp_path / "svg", result=res) if f.endswith(".svg")]
        assert len(files) == len(res.report.model_results)
        for f in files:
            ET.parse(f)  # raises on malformed xml


class TestCli:
    def test_eda_smoke(self, sensor_files, capsys):
        data, labels = sensor_files
        assert main(["eda", data, labels]) == 0
        out = capsys.readouterr().out
        assert "rows: 260" in out and "constant columns" in out

    def test_evaluate_with_config(self, sensor_files, tmp_path, capsys):
        data, labels = sensor_files
        ini = tmp_path / "run.ini"
        ini.write_text(f"""
[data]
data_path = {data}
labels_path = {labels}

[featsel]
roster = fast
vote_threshold = 2
n_keep = 7

[models]
families = logistic

[run]
out_dir = {tmp_path / 'out'}
""")
        assert main(["evaluate", "--config", str(ini)]) == 0
        assert (tmp_path / "out" / "report.txt").exists()

    def test_preprocess_writes_drop_log(self, sensor_files, tmp_path):
        data, labels = sensor_files
        ini = tmp_path / "p.ini"
        ini.write_text(f"[data]\ndata_path = {data}\nlabels_path = {labels}\n"
                       "[featsel]\nroster = fast\n[models]\nfamilies = logistic\n"
                       f"[run]\nout_dir = {tmp_path / 'pout'}\n")
        assert main(["preprocess", "--config", str(ini)]) == 0
        drops = (tmp_path / "pout" / "drops.csv").read_bytes()
        assert drops.startswith(b"column_id,reason")
        # a full run writes the same drop log
        (tmp_path / "pout" / "drops.csv").unlink()
        assert main(["evaluate", "--config", str(ini)]) == 0
        assert (tmp_path / "pout" / "drops.csv").read_bytes() == drops

    def _ini(self, sensor_files, tmp_path, roster="fast"):
        data, labels = sensor_files
        ini = tmp_path / f"{roster}.ini"
        ini.write_text(f"[data]\ndata_path = {data}\nlabels_path = {labels}\n"
                       f"[featsel]\nroster = {roster}\nvote_threshold = 2\nn_keep = 7\n"
                       "[models]\nfamilies = logistic, decision_tree\n"
                       "[model.logistic]\nl2 = 0.001\n"
                       f"[run]\nout_dir = {tmp_path / roster}\n")
        return str(ini), tmp_path / roster

    def test_select_writes_the_evaluate_ledger(self, sensor_files, tmp_path, capsys):
        ini, out = self._ini(sensor_files, tmp_path)
        assert main(["select", "--config", ini]) == 0
        assert "features selected at threshold 2; ledger in" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == ["votes.csv"]
        votes = (out / "votes.csv").read_bytes()
        assert votes.startswith(b"column_id,")
        (out / "votes.csv").unlink()
        assert main(["evaluate", "--config", ini]) == 0
        assert (out / "votes.csv").read_bytes() == votes

    def test_select_without_a_roster(self, sensor_files, tmp_path, capsys):
        ini, out = self._ini(sensor_files, tmp_path, roster="none")
        assert main(["select", "--config", ini]) == 0
        assert "selector roster is 'none'; nothing to vote on" in capsys.readouterr().out
        assert not (out / "votes.csv").exists()

    def test_readme_lists_exactly_the_subcommands(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        documented = [line.split()[1] for line in block.splitlines()
                      if line.startswith("rareclass ")]
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert documented == list(sub.choices) == ["eda", "preprocess", "select", "evaluate",
                                                   "reproduce"]

    def test_train_is_not_a_subcommand(self, tmp_path, capsys):
        # it wrote a model file that nothing read
        ini = tmp_path / "run.ini"
        ini.write_text("[models]\nfamilies = logistic\n")
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(ini)])
        assert exc.value.code == 2
        assert "invalid choice: 'train'" in capsys.readouterr().err

    def test_reproduce_cli(self, sensor_files, tmp_path, capsys):
        data, labels = sensor_files
        rc = main(["reproduce", "--scenario", "1", "--seed", "0",
                   "--out", str(tmp_path / "r1"), "--data", data,
                   "--labels", labels, "--roster", "fast"])
        assert rc == 0
        assert "Model" in capsys.readouterr().out

    def test_bad_config_returns_one(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[resample]\nscenario = adasyn\n")
        assert main(["evaluate", "--config", str(ini)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_hyperparameter_returns_one(self, tmp_path, capsys):
        ini = tmp_path / "inf.ini"
        ini.write_text("[model.random_forest]\nn_trees = 1e400\n")
        assert main(["evaluate", "--config", str(ini)]) == 1
        assert "error: [model.random_forest]: n_trees must be finite" in capsys.readouterr().err

    def test_missing_data_returns_one(self, tmp_path, capsys):
        ini = tmp_path / "m.ini"
        ini.write_text("[data]\ndata_path = /nope\nlabels_path = /nope2\n")
        assert main(["evaluate", "--config", str(ini)]) == 1
        assert "stage load" in capsys.readouterr().err
