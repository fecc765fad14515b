"""Each family's defaults give a non-degenerate classifier on rare-class
data: on fixtures shaped like the two benchmark workloads, every family
ranks the test rows better than chance and predicts at least one positive,
and the linear SVM ranks about as well as logistic regression.  The
fixtures have about half SECOM's rows, so the six runs take about 10 s."""

import dataclasses

import pytest

from rareclass.pipeline import run_pipeline, scenario_config
from rareclass.synth import make_imbalanced, write_secom_like

N_ROWS = 800
# the column counts and pipeline calls of benchmarks/run.py's
# s3-default-narrow and s2-mice-linear workloads
SHAPES = {
    "s3-default-narrow": dict(n_noise=4, n_constant=4, n_duplicate=4, n_high_missing=1),
    "s2-mice-linear": dict(n_noise=150, n_constant=76, n_duplicate=130, n_high_missing=18),
}


def _config(shape, seed, data, labels):
    if shape == "s3-default-narrow":
        return scenario_config(3, seed, data, labels)
    return dataclasses.replace(scenario_config(2, seed, data, labels, roster="fast"),
                               impute_method="mice", model_families=("logistic", "linear_svm"))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_family_ranks_and_predicts_positives(tmp_path, shape, seed):
    d = make_imbalanced(n_rows=N_ROWS, n_informative=12, positive_fraction=104 / 1567,
                        missing_fraction=0.045, class_separation=0.6, seed=seed,
                        **SHAPES[shape])
    data, labels = tmp_path / "x.data", tmp_path / "x.labels"
    write_secom_like(d, data, labels, seed=seed)
    results = run_pipeline(_config(shape, seed, data, labels)).report.model_results
    for family, r in results.items():
        assert r.auc > 0.6, f"{family}: AUC {r.auc:.3f}"
        assert r.confusion.tp + r.confusion.fp >= 1, f"{family} predicts no positive"
    gap = results["linear_svm"].auc - results["logistic"].auc
    assert abs(gap) <= 0.03, f"linear_svm AUC is {gap:+.3f} from logistic's"
