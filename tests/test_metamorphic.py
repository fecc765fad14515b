"""Metamorphic relations of the whole pipeline.

Scaling one raw column by a power of two is exact in floating point, and
every stage after the scaler reads the min-max scaled column, which is
the same bits at any such scale.  Prune reads the raw training rows, but
only through scale-free figures (missing fraction, constancy, |r|, whose
zero-variance cut is relative to the column's own sum of squares).  So
the run must write every artifact byte for byte as before; only the
leakage hashes of the raw test rows may change, and they are not
written.

Appending an exact copy of a surviving column gives the copy |r| = 1 with
its original, so the correlation prune drops it and no later stage sees
it: only `drops.csv` gains its line, and the report only its pruning and
pre-prune missing-cell figures.

The dataset is handed to the pipeline in memory, since
`write_secom_like` rounds each cell to 4 decimals.
"""

import dataclasses
import functools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rareclass import pipeline
from rareclass.data import Dataset, FeatureMatrix
from rareclass.synth import make_imbalanced

# columns 0-3 informative, 4-9 noise, 10 constant, 11-12 near-copies of
# earlier columns, 13 missing on about 80% of the rows
RAW = make_imbalanced(n_rows=300, n_informative=4, n_noise=6, positive_fraction=0.1,
                      missing_fraction=0.05, n_constant=1, n_duplicate=2, n_high_missing=1,
                      seed=4)


def _scaled(column: int, k: int) -> Dataset:
    values = RAW.features.values.copy()
    values[:, column] *= 2.0 ** k
    return Dataset(FeatureMatrix(values, RAW.features.column_ids), RAW.labels)


def _run(d: Dataset, method: str, scenario: int, roster: str) -> tuple:
    """The artifacts of one run on `d`, by file name, and its report."""
    cfg = dataclasses.replace(
        pipeline.scenario_config(scenario, 0, "s.data", "s_labels.data", roster=roster),
        impute_method=method)
    with mock.patch.object(pipeline, "load_secom", lambda *_: d), \
            tempfile.TemporaryDirectory() as out:
        res = pipeline.run_pipeline(cfg)
        pipeline.emit_report(res.report, out, result=res)
        return {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}, res.report


@functools.cache
def _unscaled_run(method: str, scenario: int, roster: str) -> tuple:
    return _run(RAW, method, scenario, roster)


def _check_scale_is_invisible(column: int, k: int, method: str, scenario: int, roster: str):
    want, before = _unscaled_run(method, scenario, roster)
    got, after = _run(_scaled(column, k), method, scenario, roster)
    assert after.leakage_hash_at_split != before.leakage_hash_at_split
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


@settings(max_examples=12, deadline=None)
@given(st.integers(0, RAW.n_cols - 1), st.sampled_from([-3, -2, -1, 1, 2, 3]),
       st.sampled_from(["simple", "knn", "mice"]), st.sampled_from([1, 2, 3]))
@example(11, -3, "knn", 3)          # a near-copy shrunk: |cov| drops under 0.7, |r| does not
@example(0, 3, "mice", 2)
@example(11, -26, "knn", 3)         # sums of squares far below 1: |r| must not read NaN
@example(12, -26, "knn", 3)
def test_a_power_of_two_column_scale_changes_no_artifact(column, k, method, scenario):
    _check_scale_is_invisible(column, k, method, scenario, "fast")


def test_the_default_roster_sees_no_power_of_two_column_scale():
    _check_scale_is_invisible(2, -2, "knn", 3, "default")


def _with_copy(column: int) -> Dataset:
    """RAW with an exact copy of `column` appended as a new last column."""
    values = RAW.features.values
    return Dataset(FeatureMatrix(np.column_stack([values, values[:, column]]),
                                 np.append(RAW.features.column_ids, RAW.n_cols)), RAW.labels)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 9), st.sampled_from(["simple", "knn", "mice"]), st.sampled_from([1, 2, 3]))
def test_an_appended_column_copy_changes_only_the_prune_records(column, method, scenario):
    want, before = _unscaled_run(method, scenario, "fast")
    got, after = _run(_with_copy(column), method, scenario, "fast")
    assert sorted(got) == sorted(want)
    assert [name for name in want
            if got[name] != want[name] and name not in ("drops.csv", "report.txt")] == []
    # columns 0-9 all survive prune, so the copy's partner is its original
    copy_line = f"{RAW.n_cols},correlated,0.7,{column}"
    drops = got["drops.csv"].decode().splitlines()
    assert drops.count(copy_line) == 1
    assert [ln for ln in drops if ln != copy_line] == want["drops.csv"].decode().splitlines()
    assert after.prune_counts == {**before.prune_counts,
                                  "correlated": before.prune_counts["correlated"] + 1}
    assert after.missing_stats["after_prune"] == before.missing_stats["after_prune"]
    lines, old = got["report.txt"].decode().splitlines(), want["report.txt"].decode().splitlines()
    assert len(lines) == len(old)
    assert {a.split(":")[0] for a, b in zip(lines, old) if a != b} <= {"pruning", "missing cells"}
