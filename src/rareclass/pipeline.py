"""End-to-end orchestration: load -> explore -> split -> prune -> scale ->
impute -> select -> resample -> train -> evaluate, with a leakage guard on
the untouched test partition and deterministic report emission."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import featsel, impute, models, parallel, preprocess, resample
from .config import PipelineConfig, ConfigError
from .data import Dataset, FeatureMatrix, column_stats, load_delimited, load_secom
from .metrics import ConfusionMatrix, MetricSet, RocCurve, confusion, metric_set, roc_curve

__all__ = [
    "PipelineError",
    "ModelResult",
    "EvalReport",
    "run_pipeline",
    "SCENARIOS",
    "reproduce",
    "emit_report",
]

REFERENCE_TARGETS = {"recall": 0.96, "auc": 0.95, "precision": 0.66}


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):           # pickle both arguments, e.g. out of a worker
        return type(self), (self.stage, self.cause)


@dataclass
class ModelResult:
    confusion: ConfusionMatrix
    metrics: MetricSet
    roc: RocCurve

    @property
    def auc(self) -> float:
        return self.roc.auc


@dataclass
class EvalReport:
    model_results: dict               # family -> ModelResult
    config_digest: str
    seed: int
    stage_timings: dict
    prune_counts: dict
    missing_stats: dict
    vote_summary: dict
    resample_summary: dict
    leakage_hash_at_split: str
    leakage_hash_at_eval: str


@dataclass
class PipelineResult:
    """The one state object the stages fill in order; `report` is filled
    at completion.  `train_set` and `test_set` hold the partitions as
    prune, scale, impute and select replace them."""
    raw: Dataset = None
    missing_stats: dict = field(default_factory=dict)    # before_prune, after_prune; all rows
    split: preprocess.SplitPlan = None
    hash_at_split: str = None
    drop_logs: dict = field(default_factory=dict)
    train_stats: list = field(default_factory=list)     # column_stats of prune's train_set
    scaler: preprocess.ScalerParams = None
    train_set: Dataset = None
    test_set: Dataset = None
    decisions: list = field(default_factory=list)
    ledger: featsel.FeatureVoteLedger = None
    resampled_train: Dataset = None
    resample_plan: resample.ResamplePlan = None
    trained: dict = field(default_factory=dict)
    report: EvalReport = None


def _hash_rows(d: Dataset, idx: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(d.features.values[idx])     # C-ordered: hashed in place, no bytes copy
    h.update(d.labels[idx])
    return h.hexdigest()


def _missing_stats(d: Dataset) -> dict:
    present = d.features.present
    cells_missing = 1.0 - present.mean()
    col_missing = 1.0 - present.mean(axis=0)
    affected = col_missing > 0
    over_affected = (col_missing[affected].mean() if affected.any() else 0.0)
    return {
        "missing_fraction_all_cells": float(cells_missing),
        "missing_fraction_affected_columns": float(over_affected),
        "n_affected_columns": int(affected.sum()),
    }


# Each stage is fn(cfg, res): it reads and fills fields of the one
# PipelineResult.

def _load(cfg: PipelineConfig, res: PipelineResult) -> None:
    if cfg.loader == "secom":
        res.raw = load_secom(cfg.data_path, cfg.labels_path)
    else:
        res.raw = load_delimited(cfg.data_path, cfg.label_column, cfg.delimiter)


def _eda(cfg: PipelineConfig, res: PipelineResult) -> None:
    res.missing_stats["before_prune"] = _missing_stats(res.raw)


def _split(cfg: PipelineConfig, res: PipelineResult) -> None:
    res.split = preprocess.stratified_split(res.raw, cfg.test_fraction, cfg.seed)
    res.hash_at_split = _hash_rows(res.raw, res.split.test_row_indices)


def _prune(cfg: PipelineConfig, res: PipelineResult) -> None:
    """Decide the columns on the raw training rows; one column_stats pass serves prune and scale."""
    train = res.raw.take_rows(res.split.train_row_indices)
    stats = {s.column_id: s for s in column_stats(train)}
    kept, log_m = preprocess.drop_high_missing(list(stats.values()), cfg.missing_drop_threshold)
    kept, log_c = preprocess.drop_constant([stats[c] for c in kept])
    d = train.select_columns(kept)
    del train                        # raw width: not held through the correlation workspace
    d, log_r = preprocess.drop_correlated(d, cfg.correlation_threshold)
    res.drop_logs = {"high_missing": log_m, "constant": log_c, "correlated": log_r}
    pruned = res.raw.select_columns(d.column_ids)    # every row: dead when prune returns
    res.missing_stats["after_prune"] = _missing_stats(pruned)
    res.train_set, res.test_set = d, pruned.take_rows(res.split.test_row_indices)
    res.train_stats = [stats[int(c)] for c in d.column_ids]


def _scale(cfg: PipelineConfig, res: PipelineResult) -> None:
    """Scale by prune's training statistics; prune left no constant or empty column."""
    res.scaler = preprocess.fit_scaler(res.train_stats)
    res.train_set = preprocess.apply_scaler(res.scaler, res.train_set)
    res.test_set = preprocess.apply_scaler(res.scaler, res.test_set)


def _impute(cfg: PipelineConfig, res: PipelineResult) -> None:
    if cfg.impute_method == "simple":
        # an override of a column the data lacks is an error; of a pruned one, ignored
        absent = [c for c in sorted(cfg.impute_overrides) if c not in res.raw.column_ids]
        if absent:
            raise impute.ImputeError(f"[impute] overrides name columns not in the data: {absent}")
        fill, p = impute.simple_impute, impute.fit_skew_refined_plan(
            res.train_set, cfg.skew_threshold, cfg.impute_overrides)
    elif cfg.impute_method == "knn":
        fill, p = impute.knn_impute, impute.KnnImputeParams(k=cfg.knn_k)
    else:
        fill, p = impute.mice_impute, impute.MiceParams(
            n_iterations=cfg.mice_iterations, initial_fill=cfg.mice_initial_fill,
            seed=cfg.seed, noise_mode=cfg.mice_noise_mode)
    # one pass fills both; every fit comes from the first n_train rows.  The
    # fill copies its input: the partitions go before it, the stacked input after
    train, test, n_train = res.train_set, res.test_set, res.train_set.n_rows
    both = Dataset(FeatureMatrix(np.vstack([train.features.values, test.features.values]),
                                 train.column_ids),
                   np.concatenate([train.labels, test.labels]))
    del train, test
    res.train_set = res.test_set = None
    filled = fill(p, both, n_train=n_train)
    del both
    res.train_set = filled.take_rows(np.arange(n_train))
    res.test_set = filled.take_rows(np.arange(n_train, filled.n_rows))


def _select(cfg: PipelineConfig, res: PipelineResult) -> None:
    res.decisions = featsel.run_roster(cfg.roster, res.train_set, cfg.seed, cfg.featsel_n_keep)
    if res.decisions:
        res.ledger = featsel.vote(res.decisions, cfg.vote_threshold)
        if not res.ledger.selected:
            raise featsel.FeatselError(f"vote threshold {cfg.vote_threshold} keeps no column; "
                                       f"the top vote count is {max(res.ledger.votes.values())}")
        keep = list(res.ledger.selected)
        res.train_set = res.train_set.select_columns(keep)
        res.test_set = res.test_set.select_columns(keep)


def _resample(cfg: PipelineConfig, res: PipelineResult) -> None:
    if cfg.scenario == "smote":
        res.resampled_train, res.resample_plan = resample.smote(
            res.train_set, resample.SmoteParams(cfg.over_ratio, cfg.smote_k_neighbors, cfg.seed))
    elif cfg.scenario == "combined":
        res.resampled_train, res.resample_plan = resample.combined_resample(
            res.train_set, cfg.over_ratio, cfg.under_ratio, cfg.smote_k_neighbors, cfg.seed)
    else:
        res.resampled_train = res.train_set


def _train(cfg: PipelineConfig, res: PipelineResult) -> None:
    specs = [models.ModelSpec(fam, cfg.model_overrides.get(fam, {}), seed=cfg.seed)
             for fam in cfg.model_families]
    res.trained = dict(zip(cfg.model_families, models.train_all(specs, res.resampled_train)))


def _evaluate(cfg: PipelineConfig, res: PipelineResult) -> None:
    hash_at_eval = _hash_rows(res.raw, res.split.test_row_indices)
    if hash_at_eval != res.hash_at_split:
        raise RuntimeError("leakage guard tripped: test partition changed")
    results = {}
    for fam, m in res.trained.items():
        scores = models.predict_scores(m, res.test_set.features)
        c = confusion(res.test_set.labels, scores, 0.5)
        results[fam] = ModelResult(c, metric_set(c), roc_curve(res.test_set.labels, scores))
    res.report = EvalReport(
        model_results=results,
        config_digest=cfg.digest(),
        seed=cfg.seed,
        stage_timings={},                # set once every stage is timed
        prune_counts={**{reason: len(log.entries) for reason, log in res.drop_logs.items()},
                      "surviving": len(res.train_stats)},
        missing_stats=res.missing_stats,
        vote_summary=_vote_summary(res.ledger),
        resample_summary=_resample_summary(res.resample_plan),
        leakage_hash_at_split=res.hash_at_split,
        leakage_hash_at_eval=hash_at_eval,
    )


_STAGE_TABLE = (("load", _load), ("eda", _eda), ("split", _split), ("prune", _prune),
                ("scale", _scale), ("impute", _impute), ("select", _select),
                ("resample", _resample), ("train", _train), ("evaluate", _evaluate))
STAGES = tuple(name for name, _ in _STAGE_TABLE)


def run_pipeline(cfg: PipelineConfig, stop_after: str = "evaluate") -> PipelineResult:
    """Execute the pipeline stages in order on one PipelineResult, stopping
    after `stop_after`.  A failing stage raises PipelineError naming it; a
    full run's stage times are in `res.report.stage_timings`."""
    cfg.validate()
    if stop_after not in STAGES:
        raise ConfigError(f"unknown stage {stop_after!r}")
    res, timings = PipelineResult(), {}
    threads = parallel.set_blas_threads(1)      # the same bytes at any BLAS thread count
    try:
        for name, stage in _STAGE_TABLE[:STAGES.index(stop_after) + 1]:
            t0 = time.perf_counter()
            try:
                stage(cfg, res)
            except Exception as e:
                raise PipelineError(name, e) from e
            timings[name] = time.perf_counter() - t0
    finally:
        parallel.set_blas_threads(threads)
    if res.report is not None:
        res.report.stage_timings = timings
    return res


def _vote_summary(ledger) -> dict:
    if ledger is None:
        return {}
    voted = sum(1 for v in ledger.votes.values() if v >= 1)
    return {
        "n_selected": len(ledger.selected),
        "n_voted": voted,
        "n_zero_votes": len(ledger.votes) - voted,
        "threshold": ledger.threshold,
        "max_vote_features": list(ledger.max_vote_features()),
    }


def _resample_summary(plan) -> dict:
    if plan is None:
        return {}
    return {
        "strategy": plan.strategy,
        "over_ratio": plan.over_ratio,
        "under_ratio": plan.under_ratio,
        "counts_before": list(plan.counts_before),
        "counts_after": list(plan.counts_after),
    }


# the three fixed testing scenarios: id -> the resampling fields it sets
SCENARIOS = {
    1: {"scenario": "none"},
    2: {"scenario": "smote", "over_ratio": 0.7},
    3: {"scenario": "combined", "over_ratio": 0.4, "under_ratio": 0.8},
}


def scenario_config(scenario_id: int, seed: int, data_path, labels_path,
                    out_dir="out", roster="default") -> PipelineConfig:
    if scenario_id not in SCENARIOS:
        raise ConfigError(f"unknown scenario id {scenario_id}; expected one of "
                          f"{sorted(SCENARIOS)}")
    return PipelineConfig(data_path=str(data_path), labels_path=str(labels_path),
                          seed=seed, out_dir=str(out_dir), roster=roster,
                          **SCENARIOS[scenario_id])


def reproduce(scenario_id: int, seed: int, out_dir, data_path, labels_path,
              roster: str = "default") -> EvalReport:
    """Run one of the three fixed testing scenarios and write all report
    artifacts to out_dir."""
    cfg = scenario_config(scenario_id, seed, data_path, labels_path, out_dir, roster)
    res = run_pipeline(cfg)
    emit_report(res.report, out_dir, result=res)
    return res.report


# ---------------------------------------------------------------------------
# report emission

def _roc_svg(roc: RocCurve, title: str) -> str:
    w, h, pad = 480, 480, 50
    def px(x): return pad + x * (w - 2 * pad)
    def py(y): return h - pad - y * (h - 2 * pad)
    pts = " ".join(f"{px(f):.2f},{py(t):.2f}" for f, t in zip(roc.fpr, roc.tpr))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(1)}" y2="{py(0)}" stroke="black"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(0)}" y2="{py(1)}" stroke="black"/>',
        f'<line x1="{px(0)}" y1="{py(0)}" x2="{px(1)}" y2="{py(1)}" stroke="#bbbbbb" stroke-dasharray="4"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f5fa6" stroke-width="2"/>',
        f'<text x="{w/2:.0f}" y="24" text-anchor="middle" font-family="sans-serif" font-size="14">{title}</text>',
        f'<text x="{w/2:.0f}" y="{h-10}" text-anchor="middle" font-family="sans-serif" font-size="12">False Positive Rate</text>',
        f'<text x="14" y="{h/2:.0f}" text-anchor="middle" font-family="sans-serif" font-size="12" transform="rotate(-90 14 {h/2:.0f})">True Positive Rate</text>',
        f'<text x="{px(0.62):.0f}" y="{py(0.08):.0f}" font-family="sans-serif" font-size="13">AUC = {roc.auc:.3f}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def format_report_table(r: EvalReport) -> str:
    lines = []
    lines.append(f"{'Model':<22}{'Balanced Accuracy':>19}{'Precision':>11}{'Recall':>9}{'FAR':>7}{'AUC':>7}")
    for fam, mr in r.model_results.items():
        m = mr.metrics
        prec = f"{m.precision:.2f}" + ("" if m.precision_defined else "*")
        lines.append(f"{fam:<22}{m.balanced_accuracy:>19.2f}{prec:>11}"
                     f"{m.recall:>9.2f}{m.far:>7.2f}{mr.auc:>7.2f}")
    return "\n".join(lines)


def _report_text(r: EvalReport) -> str:
    lines = [format_report_table(r), ""]
    lines.append(f"config digest: {r.config_digest}   seed: {r.seed}")
    pc = r.prune_counts
    lines.append(f"pruning: {pc['high_missing']} high-missing, {pc['constant']} constant, "
                 f"{pc['correlated']} correlated dropped; {pc['surviving']} columns survive")
    ms = r.missing_stats
    lines.append(
        "missing cells: "
        f"{ms['before_prune']['missing_fraction_all_cells']*100:.2f}% before pruning, "
        f"{ms['after_prune']['missing_fraction_all_cells']*100:.2f}% after")
    if r.vote_summary:
        vs = r.vote_summary
        lines.append(f"feature votes: {vs['n_selected']} selected at threshold "
                     f"{vs['threshold']}, {vs['n_voted']} with >=1 vote, "
                     f"{vs['n_zero_votes']} with none; top features {vs['max_vote_features']}")
    if r.resample_summary:
        rs = r.resample_summary
        lines.append(f"resampling: {rs['strategy']} over={rs['over_ratio']} "
                     f"under={rs['under_ratio']} counts {rs['counts_before']} -> "
                     f"{rs['counts_after']}")
    lines.append("")
    lines.append("Stretch reference targets from the published study (not gates): "
                 f"recall {REFERENCE_TARGETS['recall']:.2f}, "
                 f"AUC {REFERENCE_TARGETS['auc']:.2f}, "
                 f"precision {REFERENCE_TARGETS['precision']:.2f}")
    return "\n".join(lines) + "\n"


def emit_report(r: EvalReport | None, out_dir, result: PipelineResult) -> list[str]:
    """Write every artifact of the stages `result` ran and return the paths
    written: report.txt and the per-model ROC tables and plots when there is
    a report `r`, then votes.csv, drops.csv and resample_plan.csv when the
    select, prune and resample stages made them.  Any artifact an earlier
    run left in out_dir is removed first, so the directory holds this run's
    alone; no other file is touched."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("report.txt", "votes.csv", "drops.csv", "resample_plan.csv",
                 *(f"roc_{f}.{ext}" for f in models.FAMILIES for ext in ("csv", "svg"))):
        (out / name).unlink(missing_ok=True)
    written = []

    def put(name: str, text: str) -> None:
        (out / name).write_text(text)
        written.append(str(out / name))

    if r is not None:
        put("report.txt", _report_text(r))
        for fam, mr in r.model_results.items():
            put(f"roc_{fam}.csv", mr.roc.to_csv())
        for fam, mr in r.model_results.items():
            put(f"roc_{fam}.svg", _roc_svg(mr.roc, f"ROC: {fam}"))
    if result.ledger is not None:
        put("votes.csv", result.ledger.to_csv())
    if result.drop_logs:
        put("drops.csv", preprocess.DropLog(
            tuple(e for log in result.drop_logs.values() for e in log.entries)).to_csv())
    if result.resample_plan is not None:
        put("resample_plan.csv", result.resample_plan.to_csv())
    return written
