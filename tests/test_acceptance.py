"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line.  Criteria that need the canonical SECOM files skip with a
download hint when the files are absent (see conftest.require_secom)."""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import require_secom
from model_checks import gradient_check
from rareclass.data import Dataset, FeatureMatrix, load_secom
from rareclass.featsel import run_default_roster, vote
from rareclass.metrics import ConfusionMatrix, metric_set, roc_curve
from rareclass.models import ModelSpec
from rareclass.pipeline import reproduce, run_pipeline, scenario_config
from rareclass.preprocess import (drop_constant, drop_correlated,
                                  drop_high_missing, stratified_split)
from rareclass.resample import SmoteParams, combined_resample, smote
from rareclass.synth import make_imbalanced, write_secom_like


def _verdict(n: int, desc: str, ok: bool, detail: str = ""):
    line = f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _imbalanced(n_min, n_maj, n_cols=8, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_min + n_maj, n_cols))
    y = np.concatenate([np.ones(n_min, dtype=int), np.zeros(n_maj, dtype=int)])
    return Dataset(FeatureMatrix(v, np.arange(n_cols)), y)


def test_criterion_01_preprocessing_exact():
    data, labels = require_secom()
    t0 = time.perf_counter()
    d = load_secom(data, labels)
    d1, log_m = drop_high_missing(d, 0.5)
    _, log_c = drop_constant(d1)
    elapsed = time.perf_counter() - t0
    ok = (len(log_m.entries) == 28 and len(log_c.entries) == 116
          and elapsed < 5.0)
    _verdict(1, "high-missing drop = 28, constant drop = 116, < 5 s", ok,
             f"{len(log_m.entries)}/{len(log_c.entries)} in {elapsed:.2f}s")


def test_criterion_02_correlation_pruning_banded():
    data, labels = require_secom()
    d = load_secom(data, labels)
    d, _ = drop_high_missing(d, 0.5)
    d, _ = drop_constant(d)
    d, _ = drop_correlated(d, 0.7)
    ok = abs(d.n_cols - 204) <= 10
    _verdict(2, "correlation pruning leaves 204 +/- 10 columns", ok,
             f"{d.n_cols} columns")


def test_criterion_03_vote_ledger_banded():
    data, labels = require_secom()
    # roster "none" hands back the imputed training partition with every
    # column intact, so the roster below sees the full universe
    cfg = scenario_config(1, 0, data, labels, roster="none")
    t0 = time.perf_counter()
    res = run_pipeline(cfg, stop_after="select")
    train = res.train_set
    decisions = run_default_roster(train, master_seed=0)
    ledger = vote(decisions, 3)
    elapsed = time.perf_counter() - t0
    n_sel = len(ledger.selected)
    n_voted = sum(1 for v in ledger.votes.values() if v >= 1)
    ok = (abs(n_sel - 81) <= 12 and abs(n_voted - 183) <= 25
          and elapsed < 300.0)
    _verdict(3, "vote ledger: 81 +/- 12 selected, 183 +/- 25 voted, < 5 min",
             ok, f"{n_sel} selected, {n_voted} voted in {elapsed:.0f}s")


def test_criterion_04_resampling_arithmetic_property():
    rng = np.random.default_rng(44)
    ok = True
    detail = ""
    for trial in range(50):
        n_min = int(rng.integers(20, 61))
        d = _imbalanced(n_min, 14 * n_min, seed=int(rng.integers(1 << 30)))
        out, plan = combined_resample(d, 0.4, 0.8, seed=trial)
        maj, mino = plan.counts_after
        if abs(mino - 0.8 * maj) > 0.8 + 1e-9:
            ok = False
            detail = f"trial {trial}: {mino}:{maj}"
            break
    _verdict(4, "combined 0.4/0.8 turns any 1:14 set into 4:5 within one sample",
             ok, detail)


def test_criterion_05_auc_oracle_equivalence():
    def mann_whitney(labels, scores):
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        return wins / (len(pos) * len(neg))

    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(4, 51))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0], labels[1] = 0, 1
        scores = np.round(rng.random(n), 1)
        worst = max(worst, abs(roc_curve(labels, scores).auc
                               - mann_whitney(labels, scores)))
    _verdict(5, "trapezoid AUC == Mann-Whitney statistic on 200 vectors",
             worst < 1e-9, f"max |diff| = {worst:.2e}")


def test_criterion_06_gradient_checks():
    rng = np.random.default_rng(66)
    worst = 0.0
    for i in range(20):
        n, p = int(rng.integers(20, 60)), int(rng.integers(2, 8))
        d = _imbalanced(n // 3, n - n // 3, n_cols=p, seed=int(rng.integers(1 << 30)))
        family = "logistic" if i % 2 == 0 else "linear_svm"
        worst = max(worst, gradient_check(ModelSpec(family, seed=i), d))
    _verdict(6, "logistic and hinge gradients match finite differences < 1e-5",
             worst < 1e-5, f"max rel err = {worst:.2e}")


def test_criterion_07_scenario_trend():
    data, labels = require_secom()
    recalls = {1: [], 3: []}
    best_auc = []
    for seed in range(5):
        for sc in (1, 3):
            cfg = scenario_config(sc, seed, data, labels)
            report = run_pipeline(cfg).report
            recalls[sc].append(
                report.model_results["regularized_boosting"].metrics.recall)
            if sc == 3:
                best_auc.append(max(mr.auc for mr in report.model_results.values()))
    r1, r3 = np.mean(recalls[1]), np.mean(recalls[3])
    ok = r3 > r1 and np.mean(best_auc) >= 0.70
    _verdict(7, "mean recall(III) > recall(I) and best AUC(III) >= 0.70 over 5 seeds",
             ok, f"recall {r1:.2f} -> {r3:.2f}, AUC {np.mean(best_auc):.2f}")


def test_criterion_08_leakage_and_determinism(tmp_path):
    d = make_imbalanced(n_rows=240, n_informative=4, n_noise=10,
                        positive_fraction=0.12, missing_fraction=0.05,
                        n_constant=1, n_duplicate=1, class_separation=2.5, seed=1)
    data, labels = str(tmp_path / "s.data"), str(tmp_path / "s_labels.data")
    write_secom_like(d, data, labels)

    out1, out2, out3 = (tmp_path / x for x in ("r1", "r2", "r3"))
    rep1 = reproduce(2, 7, out1, data, labels, roster="fast")
    rep2 = reproduce(2, 7, out2, data, labels, roster="fast")

    hash_ok = (rep1.leakage_hash_at_split == rep1.leakage_hash_at_eval)
    bytes_ok = all(p.read_bytes() == (out2 / p.name).read_bytes()
                   for p in sorted(out1.iterdir()))

    # same run under a pinned single-thread BLAS environment
    script = (
        "from rareclass.pipeline import reproduce\n"
        f"reproduce(2, 7, {str(out3)!r}, {data!r}, {labels!r}, roster='fast')\n"
    )
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
    threads_ok = all(p.read_bytes() == (out3 / p.name).read_bytes()
                     for p in sorted(out1.iterdir()))

    _verdict(8, "leakage hash invariant, byte-identical and thread-independent reports",
             hash_ok and bytes_ok and threads_ok,
             f"hash={hash_ok} bytes={bytes_ok} threads={threads_ok}")


def test_criterion_09_smote_geometry_at_scale():
    d = _imbalanced(500, 10500, n_cols=20, seed=9)
    t0 = time.perf_counter()
    out, plan = smote(d, SmoteParams(target_ratio=1.0, k_neighbors=5, seed=9))
    v_in, v_out = d.features.values, out.features.values
    recs = plan.synthetic_records
    parents = np.array([r.parent_row for r in recs])
    neighbors = np.array([r.neighbor_row for r in recs])
    lams = np.array([r.lam for r in recs])
    rows = np.array([r.output_row for r in recs])
    xi, xj = v_in[parents], v_in[neighbors]
    expected = xi + lams[:, None] * (xj - xi)
    produced = v_out[rows]
    interp_ok = np.allclose(produced, expected, atol=1e-12)
    lo, hi = np.minimum(xi, xj), np.maximum(xi, xj)
    box_ok = bool(((produced >= lo - 1e-12) & (produced <= hi + 1e-12)).all())
    elapsed = time.perf_counter() - t0
    ok = len(recs) == 10000 and interp_ok and box_ok and elapsed < 10.0
    _verdict(9, "10,000 synthetic rows: interpolation + bounding box in < 10 s",
             ok, f"{len(recs)} rows in {elapsed:.2f}s")


def test_criterion_10_metric_identities():
    m = metric_set(ConfusionMatrix(tp=8, fp=1, fn=2, tn=89))
    hand_ok = (round(m.precision, 3) == 0.889 and round(m.recall, 3) == 0.8
               and round(m.far, 3) == 0.011 and round(m.balanced_accuracy, 3) == 0.894)
    z = metric_set(ConfusionMatrix(tp=0, fp=0, fn=5, tn=95))
    degen_ok = (z.recall == 0.0 and z.precision == 0.0 and not z.precision_defined)
    _verdict(10, "hand-arithmetic metric example and all-negative degenerate case",
             hand_ok and degen_ok)


def test_criterion_11_end_to_end_runtime(tmp_path):
    data, labels = require_secom()
    t0 = time.perf_counter()
    reproduce(3, 0, tmp_path / "secom_run", data, labels)
    elapsed = time.perf_counter() - t0
    _verdict(11, "reproduce scenario 3 on SECOM in under 10 minutes",
             elapsed < 600.0, f"{elapsed:.0f}s")


class TestScenarioTrendSynthetic:
    """Companion to criterion 7 runnable without the canonical files: the
    same trend on synthetic imbalanced data."""

    def test_resampling_helps_rare_class_recall(self, tmp_path):
        d = make_imbalanced(n_rows=420, n_informative=5, n_noise=12,
                            positive_fraction=0.07, missing_fraction=0.03,
                            class_separation=1.6, seed=21)
        data, labels = str(tmp_path / "s.data"), str(tmp_path / "sl.data")
        write_secom_like(d, data, labels)
        rec = {1: [], 3: []}
        for seed in range(3):
            for sc in (1, 3):
                cfg = scenario_config(sc, seed, data, labels, roster="fast")
                report = run_pipeline(cfg).report
                rec[sc].append(
                    report.model_results["regularized_boosting"].metrics.recall)
        assert np.mean(rec[3]) >= np.mean(rec[1])
