"""Span recorder for the benchmark's traced run.

The program is not changed to be traced.  Each wrapper is installed on the
module attribute through which rareclass looks the function up at call
time, and removed again afterwards:

- `rareclass.pipeline` imports `load_secom`, `column_stats`, `roc_curve`
  and calls `emit_report` by name, so those wrappers go on that module;
  `rareclass.preprocess` imports `column_stats` and `correlation_matrix`
  by name as well.
- the pipeline calls `preprocess.*`, `impute.*`, `featsel.*` and
  `models.train` as module attributes; `featsel` calls `models.train` /
  `models.predict_scores` the same way, and `run_default_roster` reads the
  `select_*` globals of `rareclass.featsel` at call time.
- `rareclass.models` calls `trees.build_*` as attributes of
  `rareclass.models.trees`; `rareclass.featsel` imports `stratified_kfold`
  by name.

Spans are kept in memory as `[name, start, end, parent]` (parent is the
index of the enclosing span, or -1) and written out when the run ends.
Counters are taken at the same boundaries from arguments and results.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

# Every selector name the `fast` and `default` rosters produce; a selector
# span is named from the `SelectorDecision.name` it returns.
SELECTORS = ("f_score", "mutual_info_4", "mutual_info_8", "mutual_info_16",
             "lasso_0.005", "lasso_0.01", "lasso_0.02", "boruta",
             "rfe_logistic", "rfe_linear_svm", "rfe_forest",
             "sfs_boosted_trees_forward", "sfs_linear_svm_forward")

FAMILIES = ("logistic", "linear_svm", "decision_tree", "random_forest",
            "gradient_boosting", "regularized_boosting")

STAGES = ("load", "eda", "prune", "split", "scale", "impute", "select",
          "resample", "train", "evaluate")

COUNTS = ("models.tree_builds", "models.tree_nodes", "models.fits",
          "featsel.model_fits", "featsel.n_selected", "impute.cells_filled",
          "preprocess.columns_dropped", "resample.synthetic_rows")


class Tracer:
    """In-memory spans and counters of one traced call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)
        self.missing: list[str] = []        # install sites absent from the program
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield i
        finally:
            self.end(i)

    def has_ancestor(self, i: int, prefix: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0].startswith(prefix):
                return True
            p = self.spans[p][3]
        return False

    def self_times(self) -> list[float]:
        """Per span: duration minus the part of it its children cover."""
        children = defaultdict(list)
        for _, s, e, parent in self.spans:
            if parent >= 0:
                children[parent].append((s, e))
        out = []
        for i, (_, s, e, _) in enumerate(self.spans):
            covered, reach = 0.0, s
            for cs, ce in sorted(children[i]):
                cs, ce = max(cs, reach), min(ce, e)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            out.append((e - s) - covered)
        return out

    def outer_total(self, match) -> float:
        """Summed duration of spans whose name satisfies `match`, skipping
        those nested inside another matching span."""
        total = 0.0
        for i, (name, s, e, _) in enumerate(self.spans):
            if not match(name):
                continue
            p = self.spans[i][3]
            while p >= 0 and not match(self.spans[p][0]):
                p = self.spans[p][3]
            if p < 0:
                total += e - s
        return total

    def to_json(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p, "self": st}
                          for (n, s, e, p), st in zip(self.spans, self.self_times())],
                "counts": dict(self.counts), "missing_sites": list(self.missing)}


# -- counters, run after the wrapped call returns --------------------------

def _count_dropped(t, i, args, out):
    t.counts["preprocess.columns_dropped"] += len(out[1].entries)


def _count_filled(t, i, args, out):
    t.counts["impute.cells_filled"] += int(out.features.present.sum()
                                           - args[-1].features.present.sum())


def _name_selector(t, i, args, out):
    t.spans[i][0] = "featsel." + out.name


def _count_selected(t, i, args, out):
    t.counts["featsel.n_selected"] = len(out.selected)


def _count_fit(t, i, args, out):
    t.counts["models.fits"] += 1
    if t.has_ancestor(i, "featsel."):
        t.counts["featsel.model_fits"] += 1


def _count_tree(t, i, args, out):
    t.counts["models.tree_builds"] += 1
    t.counts["models.tree_nodes"] += len(out.feature)


def _count_synthetic(t, i, args, out):
    t.counts["resample.synthetic_rows"] += len(out[1].synthetic_records)


def _family_span(args):
    return "models.train." + args[0].family


# (module, attribute, span name or name-from-args, counter)
SITES = (
    ("rareclass.pipeline", "load_secom", "data.load_secom", None),
    ("rareclass.pipeline", "column_stats", "data.column_stats", None),
    ("rareclass.preprocess", "column_stats", "data.column_stats", None),
    ("rareclass.preprocess", "correlation_matrix", "data.correlation_matrix", None),
    ("rareclass.preprocess", "drop_high_missing", "preprocess.prune", _count_dropped),
    ("rareclass.preprocess", "drop_constant", "preprocess.prune", _count_dropped),
    ("rareclass.preprocess", "drop_correlated", "preprocess.prune", _count_dropped),
    ("rareclass.preprocess", "fit_scaler", "preprocess.scale", None),
    ("rareclass.preprocess", "apply_scaler", "preprocess.scale", None),
    ("rareclass.preprocess", "stratified_split", "preprocess.split", None),
    ("rareclass.preprocess", "stratified_kfold", "preprocess.split", None),
    ("rareclass.featsel", "stratified_kfold", "preprocess.split", None),
    ("rareclass.impute", "knn_impute", "impute.knn", _count_filled),
    ("rareclass.impute", "mice_impute", "impute.mice", _count_filled),
    ("rareclass.impute", "assign_simple_strategies", "impute.simple", None),
    ("rareclass.impute", "fit_simple_plan", "impute.simple", None),
    ("rareclass.impute", "simple_impute", "impute.simple", _count_filled),
    ("rareclass.featsel", "run_default_roster", "featsel.roster", None),
    ("rareclass.featsel", "select_f_score", "featsel.selector", _name_selector),
    ("rareclass.featsel", "select_mutual_info", "featsel.selector", _name_selector),
    ("rareclass.featsel", "select_lasso", "featsel.selector", _name_selector),
    ("rareclass.featsel", "select_boruta", "featsel.selector", _name_selector),
    ("rareclass.featsel", "select_rfe", "featsel.selector", _name_selector),
    ("rareclass.featsel", "select_sfs", "featsel.selector", _name_selector),
    ("rareclass.featsel", "vote", "featsel.vote", _count_selected),
    ("rareclass.models", "train", _family_span, _count_fit),
    ("rareclass.models", "predict_scores", "models.predict", None),
    ("rareclass.models.trees", "build_gini_tree", "models.trees.gini", _count_tree),
    ("rareclass.models.trees", "build_variance_tree", "models.trees.variance", _count_tree),
    ("rareclass.models.trees", "build_second_order_tree", "models.trees.second_order",
     _count_tree),
    ("rareclass.resample", "smote", "resample.smote", _count_synthetic),
    ("rareclass.resample", "random_undersample", "resample.undersample", None),
    ("rareclass.pipeline", "roc_curve", "metrics.roc_curve", None),
    ("rareclass.pipeline", "emit_report", "pipeline.emit_report", None),
)


def _wrap(tracer: Tracer, fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.begin(name(args) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        if counter is not None:
            counter(tracer, i, args, out)
        return out
    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every site in SITES while the block runs.  A site the program
    no longer has is recorded in `tracer.missing`; its metrics read 0."""
    saved = []
    try:
        for module, attr, name, counter in SITES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                tracer.missing.append(f"{module}.{attr}")
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, name, counter))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# spans timed one metric each: "<span>_s"
TIMED_SPANS = (
    "models.trees.gini", "models.trees.variance", "models.trees.second_order",
    *(f"models.train.{f}" for f in FAMILIES),
    "models.predict",
    *(f"featsel.{s}" for s in SELECTORS),
    "featsel.vote",
    "impute.knn", "impute.mice", "impute.simple",
    "data.load_secom", "data.column_stats", "data.correlation_matrix",
    "preprocess.prune", "preprocess.scale", "preprocess.split",
    "resample.smote", "resample.undersample",
    "metrics.roc_curve", "pipeline.emit_report",
)

# per-layer time metric -> predicate over span names; its value is the
# summed duration of the outermost matching spans
LAYER_TIMES = {
    "models.tree_build_s": lambda n: n.startswith("models.trees."),
    "featsel.roster_s": lambda n: n.startswith("featsel.") and n != "featsel.vote",
    **{f"{span}_s": (lambda n, span=span: n == span) for span in TIMED_SPANS},
}

# every per-layer metric the traced run prints, in order, with its unit
LAYER_METRICS = (
    [(name, "s") for name in LAYER_TIMES]
    + [(name, "count") for name in COUNTS]
    + [(f"pipeline.stage.{s}_s", "s") for s in STAGES]
    + [("trace.overhead_s", "s")]
)


def layer_values(tracer: Tracer, stage_timings: dict) -> dict:
    """Per-layer metric values of one traced call, except trace.overhead_s."""
    values = {name: tracer.outer_total(match) for name, match in LAYER_TIMES.items()}
    values.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    values.update({f"pipeline.stage.{s}_s": float(stage_timings.get(s, 0.0)) for s in STAGES})
    return values
