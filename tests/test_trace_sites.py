"""The benchmark's tracer wraps module attributes of the package by name
(`benchmarks/spans.py` SITES).  A renamed or inlined function would zero
its per-layer metric without failing anything, so each site must resolve,
and the pipeline must still call through the sites it is traced at."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from rareclass.config import PipelineConfig
from rareclass.pipeline import reproduce, run_pipeline
from rareclass.synth import make_imbalanced, write_secom_like

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _sites():
    return _spans().SITES


def test_every_traced_site_resolves():
    sites = _sites()
    assert len(sites) == 34
    missing = [f"{module}.{attr}" for module, attr, *_ in sites
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_spans_fire_on_a_run(tmp_path):
    d = make_imbalanced(n_rows=200, n_informative=3, n_noise=5, positive_fraction=0.15,
                        missing_fraction=0.05, seed=0)
    data, labels = str(tmp_path / "s.data"), str(tmp_path / "s_labels.data")
    write_secom_like(d, data, labels)
    spans = _spans()
    with spans.installed(spans.Tracer()) as tracer:
        reproduce(3, 0, tmp_path / "out", data, labels, roster="fast")
    recorded = {name for name, *_ in tracer.spans}
    expected = {"data.load_secom", "data.column_stats", "preprocess.prune",
                "preprocess.split", "preprocess.scale", "impute.knn",
                "featsel.vote", "resample.smote", "resample.undersample",
                "models.predict", "metrics.roc_curve", "pipeline.emit_report"}
    assert tracer.missing == []
    assert expected <= recorded


def test_the_train_stage_forest_is_a_traced_fit(tmp_path):
    # the fast roster fits no forest, so this span can only come from the
    # train stage's forest going through the wrapped models.train
    d = make_imbalanced(n_rows=120, n_informative=3, n_noise=4, positive_fraction=0.2,
                        missing_fraction=0.0, seed=2)
    data, labels = str(tmp_path / "s.data"), str(tmp_path / "s_labels.data")
    write_secom_like(d, data, labels)
    spans = _spans()
    with spans.installed(spans.Tracer()) as tracer:
        reproduce(3, 0, tmp_path / "out", data, labels, roster="fast")
    assert "models.train.random_forest" in {name for name, *_ in tracer.spans}


def test_default_roster_spans_fire(tmp_path):
    # the roster and every selector are traced where the pipeline reaches
    # them: through featsel's module globals, not through function objects
    # captured at import, which the tracer's wrappers never replace
    d = make_imbalanced(n_rows=90, n_informative=2, n_noise=3, positive_fraction=0.2,
                        missing_fraction=0.0, seed=0)
    data, labels = str(tmp_path / "s.data"), str(tmp_path / "s_labels.data")
    write_secom_like(d, data, labels)
    spans = _spans()
    with spans.installed(spans.Tracer()) as tracer:
        reproduce(3, 0, tmp_path / "out", data, labels, roster="default")
    recorded = {name for name, *_ in tracer.spans}
    selectors = {f"featsel.{s}" for s in spans.SELECTORS if s != "lasso_0.01"}
    assert len(selectors) == 12
    assert {"featsel.roster"} | selectors <= recorded


def test_mice_spans_fire(tmp_path):
    # the benchmark's s2 workload imputes with MICE; its span and its
    # count of filled cells must come from the traced call
    d = make_imbalanced(n_rows=120, n_informative=3, n_noise=4, positive_fraction=0.2,
                        missing_fraction=0.08, seed=1)
    data, labels = str(tmp_path / "s.data"), str(tmp_path / "s_labels.data")
    write_secom_like(d, data, labels)
    cfg = PipelineConfig(data_path=data, labels_path=labels, impute_method="mice",
                         roster="fast", vote_threshold=2, model_families=("logistic",))
    scaled = run_pipeline(cfg, stop_after="scale")
    holes = sum(int(np.isnan(p.features.values).sum())
                for p in (scaled.train_set, scaled.test_set))
    assert holes > 0
    spans = _spans()
    with spans.installed(spans.Tracer()) as tracer:
        run_pipeline(cfg)
    assert "impute.mice" in {name for name, *_ in tracer.spans}
    assert tracer.missing == []
    assert tracer.counts["impute.cells_filled"] == holes
