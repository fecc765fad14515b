import hashlib
import importlib
import shutil
from pathlib import Path

import numpy as np
import pytest

from rareclass.cli import main
from rareclass.config import ConfigError, PipelineConfig
from rareclass.pipeline import (STAGES, PipelineError, emit_report, reproduce,
                                run_pipeline, scenario_config)
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
                model_overrides={"logistic": {"epochs": 100}})
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

    def test_kfold_mode(self, sensor_files):
        res = run_pipeline(_cfg(sensor_files, split_mode="kfold", k_folds=4))
        assert res.report is not None

    def test_roster_none_keeps_all_columns(self, sensor_files):
        res = run_pipeline(_cfg(sensor_files, roster="none"))
        assert res.ledger is None
        assert res.train_set.n_cols == res.pruned.n_cols

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
        "scenario_1": "25602824c73b9ec93a8b1104c6fdd1b4ba02b114e0bacb7eead544d7bd3f2ce1",
        "scenario_2": "00d10527a144ff1d1f19abf27369d01eab786b33bf2a31c14e1b0f3e05585868",
        "scenario_3": "86231d81e0b04084ab126c6c50a173a85054b690fa6e759e745a8a7641266b2d",
        "simple": "b8443fea1d776babb563aa6aef2e07cec76006b0825c33c0a867b23cbe8730f8",
        "mice": "5b6297b5513fd6313dac8d0f3831d037f36ffc3dce79714d63d62a591550ebaa",
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
            reproduce(int(case[-1]), 0, out, *rel, roster="fast")
        else:
            res = run_pipeline(_cfg(rel, impute_method=case))
            emit_report(res.report, out, result=res)
        assert _artifact_digest(out) == self.GOLDEN[case]


class TestEmitReport:
    def test_roc_csv_header(self, sensor_files, tmp_path):
        res = run_pipeline(_cfg(sensor_files))
        files = [f for f in emit_report(res.report, tmp_path / "csv")
                 if Path(f).name.startswith("roc_") and f.endswith(".csv")]
        assert len(files) == len(res.report.model_results)
        for f in files:
            first = Path(f).read_text().splitlines()[0]
            assert first == "fpr,tpr,threshold"

    def test_roc_csv_cells_are_plain_floats(self, sensor_files, tmp_path):
        res = run_pipeline(_cfg(sensor_files))
        files = [f for f in emit_report(res.report, tmp_path / "csv")
                 if Path(f).name.startswith("roc_") and f.endswith(".csv")]
        for f, mr in zip(files, res.report.model_results.values()):
            rows = [line.split(",") for line in Path(f).read_text().splitlines()[1:]]
            got = np.array([[float(cell) for cell in row] for row in rows])
            want = np.column_stack([mr.roc.fpr, mr.roc.tpr, mr.roc.thresholds])
            assert np.array_equal(got, want)

    def test_svg_is_wellformed(self, sensor_files, tmp_path):
        import xml.etree.ElementTree as ET
        res = run_pipeline(_cfg(sensor_files))
        files = [f for f in emit_report(res.report, tmp_path / "svg") if f.endswith(".svg")]
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
                       "[model.logistic]\nepochs = 100\n"
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

    def test_train_writes_one_model_per_family(self, sensor_files, tmp_path, capsys):
        from rareclass.models import model_from_json
        ini, out = self._ini(sensor_files, tmp_path)
        assert main(["train", "--config", ini]) == 0
        printed = capsys.readouterr().out
        names = sorted(p.name for p in out.iterdir())
        assert names == ["model_decision_tree.json", "model_logistic.json"]
        for fam in ("logistic", "decision_tree"):
            assert f"trained {fam} -> {out / f'model_{fam}.json'}" in printed
            m = model_from_json((out / f"model_{fam}.json").read_text())
            assert m.spec.family == fam

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

    def test_missing_data_returns_one(self, tmp_path, capsys):
        ini = tmp_path / "m.ini"
        ini.write_text("[data]\ndata_path = /nope\nlabels_path = /nope2\n")
        assert main(["evaluate", "--config", str(ini)]) == 1
        assert "stage load" in capsys.readouterr().err
