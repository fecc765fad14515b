"""The worker pool: the same bytes at any worker count and any BLAS thread
count, no nested pools, no pool where nothing runs in parallel, and worker
exceptions that reach the caller intact."""

import glob
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from rareclass import featsel, models, parallel, preprocess
from rareclass.models import trees
from rareclass.config import PipelineConfig
from rareclass.models import TrainingDiverged
from rareclass.pipeline import PipelineError, reproduce, run_pipeline
from rareclass.synth import make_imbalanced, write_secom_like
from conftest import src_env
from model_checks import model_bytes, tree_bytes


@pytest.fixture(scope="module")
def data():
    return make_imbalanced(n_rows=200, n_informative=3, n_noise=5, missing_fraction=0.0,
                           seed=5)


def _at_one_and_two_workers(monkeypatch, run):
    out = []
    for n in (1, 2):
        monkeypatch.setattr(parallel, "workers", lambda n=n: n)
        out.append(run())
    assert parallel._pool is not None and parallel._pool[0] == 2
    return out


def test_forest_is_the_same_at_any_worker_count(data, monkeypatch):
    spec = models.ModelSpec("random_forest", {"n_trees": 16, "max_depth": 4}, seed=7)
    one, two = _at_one_and_two_workers(
        monkeypatch, lambda: model_bytes(models.train(spec, data, class_weight=3.0)))
    assert one == two


# every family, small enough that a fit takes milliseconds
SMALL = {"logistic": {"l2": 1e-3}, "linear_svm": {"c": 0.1},
         "decision_tree": {"max_depth": 4},
         "random_forest": {"n_trees": 12, "max_depth": 4},
         "gradient_boosting": {"n_rounds": 15},
         "regularized_boosting": {"n_rounds": 15, "gamma": 0.01}}


def test_families_fit_together_as_they_fit_one_by_one(data, monkeypatch):
    specs = [models.ModelSpec(f, SMALL[f], seed=7) for f in models.FAMILIES]

    def run():
        together = [model_bytes(m) for m in models.train_all(specs, data)]
        alone = [model_bytes(models.train(s, data)) for s in specs]
        assert together == alone
        return together
    one, two = _at_one_and_two_workers(monkeypatch, run)
    assert one == two


def test_train_all_fits_every_spec_by_one_train_call(data, monkeypatch):
    # the forest too: each model train_all returns is what one call of
    # models.train made for that spec
    monkeypatch.setattr(parallel, "workers", lambda: 1)
    specs = [models.ModelSpec(f, SMALL[f], seed=7) for f in models.FAMILIES]
    fit, calls = models.train, []

    def counted(spec, *args):
        calls.append((spec, fit(spec, *args)))
        return calls[-1][1]
    monkeypatch.setattr(models, "train", counted)
    out = models.train_all(specs, data)
    assert len(calls) == len(specs) == 6
    calls.sort(key=lambda call: specs.index(call[0]))
    assert [s for s, _ in calls] == specs
    assert all(m is made for m, (_, made) in zip(out, calls))


@pytest.mark.parametrize("families", [models.FAMILIES, ("random_forest",)],
                         ids=["six_families", "lone_forest"])
def test_no_train_all_task_holds_two_whole_fits(data, monkeypatch, families):
    # pmap runs one item per task below 8 * workers() items, so the whole
    # fits must go out as a map of their own, apart from any forest's trees
    hp = dict(SMALL, random_forest={"n_trees": 200, "max_depth": 2})
    specs = [models.ModelSpec(f, hp[f], seed=7) for f in families]
    maps = []

    def inline(fn, items):
        items = list(items)
        maps.append((fn, len(items)))
        return [fn(*args) for args in items]
    monkeypatch.setattr(parallel, "pmap", inline)
    models.train_all(specs, data)
    whole = sum(f in models._WHOLE_FITS for f in families)
    assert maps[0] == (models.train, whole) and whole < 8 * 2
    assert maps[1:] == [(models._forest_tree, 200)]


def test_a_forest_is_the_same_in_one_tree_block_or_many(data):
    X = data.features.values
    args = (X, trees.column_ranks(X), data.labels, np.where(data.labels == 1, 3.0, 1.0), 7,
            4, 5, 3)
    one = [tree_bytes(models._forest_tree(*args, t)) for t in range(10)]
    blocks = {b: [tree_bytes(models._forest_tree(*args, t)) for t in b]
              for b in (range(4, 10), range(1, 4), range(0, 1))}
    many = [t for b in sorted(blocks, key=lambda b: b.start) for t in blocks[b]]
    assert one == many and len(set(one)) == 10


def test_selector_decisions_are_the_same_at_any_worker_count(data, monkeypatch):
    monkeypatch.setattr(featsel, "BORUTA_ROUNDS", 6)
    monkeypatch.setattr(featsel, "BORUTA_TREES", 8)

    def run():
        return repr((featsel.select_boruta(data, seed=3),
                     featsel.select_sfs(data, "boosted_trees", 3, seed=4)))
    one, two = _at_one_and_two_workers(monkeypatch, run)
    assert one == two


def test_roster_votes_are_the_same_at_any_worker_count(data, monkeypatch):
    def run():
        return featsel.vote(featsel.run_roster("default", data, master_seed=2), 3).to_csv()
    one, two = _at_one_and_two_workers(monkeypatch, run)
    assert one == two


def test_reproduce_artifacts_are_the_same_at_any_worker_count(tmp_path, monkeypatch):
    d = make_imbalanced(n_rows=200, n_informative=3, n_noise=4, missing_fraction=0.03, seed=4)
    write_secom_like(d, tmp_path / "x.data", tmp_path / "x.labels", seed=4)

    def run():
        out = tmp_path / f"workers{parallel.workers()}"
        report = reproduce(3, 1, out, tmp_path / "x.data", tmp_path / "x.labels")
        assert sorted(report.model_results) == sorted(models.FAMILIES)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    one, two = _at_one_and_two_workers(monkeypatch, run)
    assert len(one) == 16 and one == two       # report, 3 csv ledgers, 6 roc csv + svg


def test_artifacts_are_the_same_at_one_and_two_blas_threads(tmp_path):
    # the s2-mice-linear benchmark's shape: wide enough that a multi-threaded
    # OpenBLAS splits the row sums of MICE's and Newton's products, which
    # changes their rounding
    d = make_imbalanced(n_rows=1567, n_informative=12, n_noise=150, n_constant=76,
                        n_duplicate=130, n_high_missing=18, positive_fraction=104 / 1567,
                        missing_fraction=0.045, class_separation=0.6, seed=0)
    assert d.features.values.shape == (1567, 386)
    write_secom_like(d, tmp_path / "s.data", tmp_path / "s.labels", seed=0)
    (tmp_path / "run.ini").write_text(
        "[data]\ndata_path = s.data\nlabels_path = s.labels\n[impute]\nmethod = mice\n"
        "[featsel]\nroster = fast\n[resample]\nscenario = smote\nover_ratio = 0.7\n"
        "[models]\nfamilies = logistic,linear_svm\n[run]\nout_dir = out\n")
    runs = []
    for threads in ("1", "2"):
        # the same relative paths each time: the config digest in report.txt holds them
        subprocess.run([sys.executable, "-m", "rareclass.cli", "evaluate", "--config", "run.ini"],
                       cwd=tmp_path, env=src_env(OPENBLAS_NUM_THREADS=threads), check=True,
                       capture_output=True)
        runs.append({p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()})
    assert sorted(runs[0]) == sorted(runs[1]) and len(runs[0]) == 8   # 4 ledgers, 2 roc csv + svg
    assert [name for name in sorted(runs[0]) if runs[0][name] != runs[1][name]] == []


def test_a_run_holds_blas_at_one_thread_and_gives_the_count_back(monkeypatch, tmp_path):
    calls = parallel._blas_threads()
    if not calls:
        pytest.skip("numpy's BLAS offers no thread control")
    set_threads, get_threads = calls
    d = make_imbalanced(n_rows=120, n_informative=3, n_noise=3, seed=3)
    write_secom_like(d, tmp_path / "x.data", tmp_path / "x.labels", seed=3)
    cfg = PipelineConfig(data_path=str(tmp_path / "x.data"),
                         labels_path=str(tmp_path / "x.labels"), roster="none")
    seen, split = [], preprocess.stratified_split
    monkeypatch.setattr(preprocess, "stratified_split",
                        lambda *args: seen.append(get_threads()) or split(*args))
    before = get_threads()
    try:
        set_threads(2)
        run_pipeline(cfg, stop_after="split")
        assert (seen, get_threads()) == ([1], 2)
    finally:
        set_threads(before)


def test_a_blas_without_thread_control_is_named_once_on_stderr(monkeypatch, capsys):
    monkeypatch.setattr(parallel, "_blas", None)
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert [parallel.set_blas_threads(1), parallel.set_blas_threads(3)] == [1, 3]
    err = capsys.readouterr().err
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert err.count("\n") == 1 and f"BLAS ({name} " in err and parallel._blas == ()


# a pool forked before any run, in a fresh interpreter; "none" hides the
# bundled OpenBLAS, as a numpy built on another BLAS would
FRESH_POOL = """
import glob, json, os, sys
from rareclass import parallel
if sys.argv[1] == "none":
    glob.glob = lambda pattern: []
def threads(_):
    calls = parallel._blas_threads()
    return os.getpid(), calls[1]() if calls else None
seen = parallel.pmap(threads, [(i,) for i in range(8)])
print(json.dumps([threads(0), seen]))
"""


def _fresh_pool(blas):
    proc = subprocess.run([sys.executable, "-c", FRESH_POOL, blas],
                          env=src_env(OPENBLAS_NUM_THREADS="2"), check=True,
                          capture_output=True, text=True)
    return json.loads(proc.stdout), proc.stderr


def test_pool_workers_start_at_one_blas_thread():
    if parallel.workers() < 2 or not parallel._blas_threads():
        pytest.skip("needs two CPUs and numpy's BLAS thread control")
    ((main, main_threads), seen), _ = _fresh_pool("bundled")
    assert all(pid != main for pid, _ in seen)
    assert (main_threads, [n for _, n in seen]) == (2, [1] * 8)


def test_a_blas_without_thread_control_is_named_once_by_a_pool():
    if parallel.workers() < 2:
        pytest.skip("needs two CPUs")
    ((main, _), seen), err = _fresh_pool("none")
    assert all(pid != main for pid, _ in seen)
    assert err.count("thread control") == 1


def _pid(_):
    return os.getpid()


def _pid_and_inner_pids(_):
    return os.getpid(), parallel.pmap(_pid, [(0,), (1,), (2,)])


def test_pmap_inside_a_worker_runs_inline(monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    results = parallel.pmap(_pid_and_inner_pids, [(i,) for i in range(4)])
    assert all(pid != os.getpid() for pid, _ in results)          # ran in workers
    assert all(inner == [pid] * 3 for pid, inner in results)      # nested: inline


class _RecordingPool:
    """Stands in for the executor: cuts items into tasks as
    ProcessPoolExecutor.map does, records each task's size, and runs the
    tasks last to first."""

    def __init__(self):
        self.tasks = []

    def map(self, fn, *iterables, chunksize=1):
        items = list(zip(*iterables))
        chunks = [items[i:i + chunksize] for i in range(0, len(items), chunksize)]
        self.tasks.append([len(c) for c in chunks])
        done = {i: [fn(*args) for args in chunks[i]] for i in reversed(range(len(chunks)))}
        return [r for i in range(len(chunks)) for r in done[i]]


def _square(x):
    return x * x


def test_pmap_alone_groups_items_into_tasks(monkeypatch):
    pool = _RecordingPool()
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", (2, pool))
    assert parallel.pmap(_square, [(i,) for i in range(3)]) == [0, 1, 4]
    assert parallel.pmap(_square, [(i,) for i in range(200)]) == [i * i for i in range(200)]
    assert pool.tasks == [[1, 1, 1], [25] * 8]      # below 8 * workers: one item per task


def _row_dot(a, i):
    return a[i] @ a[i + 1]


def test_a_pooled_map_over_one_shared_array_equals_the_loop(monkeypatch):
    a = np.random.default_rng(0).normal(size=(41, 50))
    items = [(a, i) for i in range(40)]
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    assert parallel.pmap(_row_dot, items) == [_row_dot(*args) for args in items]
    assert parallel._pool is not None and parallel._pool[0] == 2


def test_fast_linear_run_starts_no_pool(tmp_path, monkeypatch):
    d = make_imbalanced(n_rows=200, n_informative=3, n_noise=6, missing_fraction=0.05,
                        seed=1)
    write_secom_like(d, tmp_path / "x.data", tmp_path / "x.labels", seed=1)
    cfg = PipelineConfig(data_path=str(tmp_path / "x.data"),
                         labels_path=str(tmp_path / "x.labels"), impute_method="mice",
                         roster="fast", scenario="smote",
                         model_families=("logistic", "linear_svm"))
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    monkeypatch.setattr(parallel, "_pool", None)
    assert run_pipeline(cfg).report is not None
    assert parallel._pool is None


@pytest.mark.parametrize("exc", [TrainingDiverged("boosting diverged", [0.69, float("inf")]),
                                 PipelineError("train", ValueError("bad value"))])
def test_exceptions_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc) and str(back) == str(exc)
    assert repr(vars(back)) == repr(vars(exc))


def test_divergence_in_a_worker_reaches_the_caller(data, monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    # the spec is built in the caller, so the workers see the patched table
    family, hp = featsel._SFS_ESTIMATORS["boosted_trees"]
    monkeypatch.setitem(featsel._SFS_ESTIMATORS, "boosted_trees",
                        (family, {**hp, "shrinkage": 1e308}))
    with pytest.raises(TrainingDiverged, match="gradient boosting") as exc:
        featsel.select_sfs(data, "boosted_trees", 1)
    trace = exc.value.loss_trace
    assert len(trace) >= 2 and np.isfinite(trace[0]) and not np.isfinite(trace[-1])
    assert os.getpid() not in parallel.pmap(_pid, [(0,), (1,)])   # the pool still works


def test_divergence_in_the_train_map_reaches_the_caller(tmp_path, monkeypatch):
    d = make_imbalanced(n_rows=200, n_informative=3, n_noise=4, missing_fraction=0.03, seed=2)
    write_secom_like(d, tmp_path / "x.data", tmp_path / "x.labels", seed=2)
    cfg = PipelineConfig(data_path=str(tmp_path / "x.data"),
                         labels_path=str(tmp_path / "x.labels"), roster="none",
                         model_families=("logistic", "decision_tree", "gradient_boosting",
                                         "random_forest"),
                         model_overrides={"gradient_boosting": {"shrinkage": 1e308},
                                          "random_forest": {"n_trees": 8}})
    monkeypatch.setattr(parallel, "workers", lambda: 2)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(cfg)
    assert exc.value.stage == "train"
    cause = exc.value.cause
    assert type(cause) is TrainingDiverged and "gradient boosting" in str(cause)
    trace = cause.loss_trace
    assert len(trace) >= 2 and np.isfinite(trace[0]) and not np.isfinite(trace[-1])
    assert parallel._pool is not None and parallel._pool[0] == 2
    assert os.getpid() not in parallel.pmap(_pid, [(0,), (1,)])   # the pool still works
