"""End-to-end benchmark of the rareclass pipeline on SECOM-shaped data.

Run from the repository root:

    python3 benchmarks/run.py --workload s2-mice-linear --seed 0 --seconds 40 --trace 0

The fixture (a `.data`/`.labels` file pair) is generated from `--seed` with
`rareclass.synth` and written under `.bench_work/`; the pipeline receives
only those files.  One call of a workload runs from `load_secom` up to the
last report artifact written.  Calls repeat until `--seconds` have passed
(at least two with `--trace 0`).

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
run makes untraced calls, then traced calls, and prints the per-layer
metrics, writing every span to `.bench_work/trace-<workload>-seed<n>.json`.
Every call is checked: it must not raise, its leakage hashes must agree,
every AUC must be finite in [0, 1], and the sha256 over its artifacts must
equal that of the run's first call.  The last line of standard output is a
JSON object; the exit code is 1 if any call failed a check, and 2 if the
program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent

# BLAS runs single-threaded so that timings do not depend on how many
# cores the host lends the process; MICE's solves otherwise spread over
# every core.  Set here, before numpy loads, never in the package.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# set-up (a fresh interpreter importing the package, then generating and
# writing the fixture) is repeated and its median reported
SETUP_REPEATS = 3
POSITIVE_FRACTION = 104 / 1567          # SECOM: 104 failures in 1567 runs


@dataclass(frozen=True)
class Workload:
    """One SECOM-shaped fixture and the pipeline call made on it."""
    columns: dict                       # make_imbalanced column counts
    scenario: int                       # reproduce() scenario id
    roster: str
    n_rows: int = 1567
    n_informative: int = 12
    impute: str | None = None           # set: the `rareclass evaluate` path
    families: tuple = ()


# Column counts are scaled down from the ROADMAP Baseline (1567x586) so that
# a call takes seconds, not minutes, while the layer that dominates each
# workload stays the same; see NOTES.md.
WORKLOADS = {
    # few large fits: 601 tree builds on ~920 rows; kNN imputation second.
    # Not in BENCHMARK.json: on a shared 2-vCPU host its wall time spread by
    # up to 24% over ten seeds at the run length three workloads allow, and
    # its layers are measured on the other two (NOTES.md)
    "s3-fast-wide": Workload(
        dict(n_noise=24, n_constant=29, n_duplicate=50, n_high_missing=7),
        scenario=3, roster="fast", n_informative=24),
    # many small fits: the 12-voter roster's forests and boosted-tree SFS
    "s3-default-narrow": Workload(
        dict(n_noise=4, n_constant=4, n_duplicate=4, n_high_missing=1),
        scenario=3, roster="default"),
    # chained-ridge imputation (BLAS solves) and no tree at all
    "s2-mice-linear": Workload(
        dict(n_noise=150, n_constant=76, n_duplicate=130, n_high_missing=18),
        scenario=2, roster="fast", impute="mice", families=("logistic", "linear_svm")),
    # the full ROADMAP Baseline fixture; too slow for the repeated runs, kept
    # to reconcile against the Baseline numbers
    "baseline-wide": Workload(
        dict(n_noise=230, n_constant=116, n_duplicate=200, n_high_missing=28),
        scenario=3, roster="fast"),
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("auc_mean", "ratio"), ("balanced_accuracy_mean", "ratio"))


@dataclass
class Fixture:
    seed: int
    data: Path
    labels: Path
    config: Path | None
    shape: tuple


@dataclass
class Call:
    wall: float
    digest: str = ""
    report: object = None
    problems: list = field(default_factory=list)
    tracer: object = None


def make_fixture(wl: Workload, seed: int, work: Path) -> Fixture:
    """Generate the workload's data from its seed, check its shape, and
    write it in the SECOM file format (plus an INI config when the
    workload runs through `rareclass evaluate`)."""
    from rareclass import pipeline, synth

    d = synth.make_imbalanced(n_rows=wl.n_rows, n_informative=wl.n_informative,
                              positive_fraction=POSITIVE_FRACTION, missing_fraction=0.045,
                              class_separation=0.6, seed=seed, **wl.columns)
    shape = (wl.n_rows, wl.n_informative + sum(wl.columns.values()))
    positives = max(2, round(wl.n_rows * POSITIVE_FRACTION))
    if d.features.values.shape != shape or int(d.labels.sum()) != positives:
        raise RuntimeError(f"fixture is {d.features.values.shape} with {int(d.labels.sum())} "
                           f"positives; expected {shape} with {positives}")
    work.mkdir(parents=True, exist_ok=True)
    fx = Fixture(seed, work / "fixture.data", work / "fixture.labels", None, shape)
    synth.write_secom_like(d, fx.data, fx.labels, seed=seed)
    if wl.impute is not None:
        sc = pipeline.scenario_config(wl.scenario, seed, fx.data, fx.labels)
        fx.config = work / "run.ini"
        fx.config.write_text(
            f"[data]\ndata_path = {fx.data}\nlabels_path = {fx.labels}\n"
            f"[impute]\nmethod = {wl.impute}\n"
            f"[featsel]\nroster = {wl.roster}\n"
            f"[resample]\nscenario = {sc.scenario}\nover_ratio = {sc.over_ratio}\n"
            f"under_ratio = {sc.under_ratio}\n"
            f"[models]\nfamilies = {','.join(wl.families)}\n"
            f"[run]\nseed = {seed}\nout_dir = {work / 'out'}\n")
    return fx


def invoke(wl: Workload, fx: Fixture, out: Path):
    """One call of the workload through the public API; returns the report."""
    from rareclass import config, pipeline

    if fx.config is None:
        return pipeline.reproduce(wl.scenario, fx.seed, out, fx.data, fx.labels,
                                  roster=wl.roster)
    cfg = config.load_config(fx.config)         # what `rareclass evaluate` does
    res = pipeline.run_pipeline(cfg)
    pipeline.emit_report(res.report, cfg.out_dir, result=res)
    return res.report


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def check(report) -> list[str]:
    problems = []
    if report.leakage_hash_at_split != report.leakage_hash_at_eval:
        problems.append("leakage hash changed between split and evaluation")
    for fam, mr in report.model_results.items():
        if not 0.0 <= mr.auc <= 1.0:        # also false for nan
            problems.append(f"{fam}: AUC {mr.auc} is not finite in [0, 1]")
    return problems


def one_call(wl: Workload, fx: Fixture, out: Path, tracer=None) -> Call:
    shutil.rmtree(out, ignore_errors=True)
    installed = spans.installed(tracer) if tracer else contextlib.nullcontext()
    root = tracer.span("pipeline.call") if tracer else contextlib.nullcontext()
    try:
        with installed:
            t0 = time.perf_counter()
            with root:
                report = invoke(wl, fx, out)
            wall = time.perf_counter() - t0
    except Exception:
        traceback.print_exc()
        return Call(float("nan"), problems=["raised " + traceback.format_exc(limit=1)])
    return Call(wall, artifact_digest(out), report, check(report), tracer)


def run_calls(wl: Workload, fx: Fixture, out: Path, budget: float, min_calls: int,
              reference: list, traced: bool = False) -> list[Call]:
    """Call the workload until `budget` seconds have passed, at least
    `min_calls` times.  `reference` holds the digest every call must
    reproduce; the first successful call sets it."""
    calls: list[Call] = []
    t0 = time.perf_counter()
    while True:
        c = one_call(wl, fx, out, spans.Tracer() if traced else None)
        calls.append(c)
        if c.report is None:
            break
        if not reference:
            reference.append(c.digest)
        elif c.digest != reference[0]:
            c.problems.append(f"artifact digest {c.digest[:16]} differs from "
                              f"{reference[0][:16]}")
        if len(calls) >= min_calls and time.perf_counter() - t0 >= budget:
            break
    return calls


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "machine": platform.machine()}


def end_to_end(calls: list[Call], setup_s: float) -> dict:
    ok = [c for c in calls if c.report is not None]
    models = ok[0].report.model_results.values() if ok else ()
    values = {
        "wall_s": statistics.median(c.wall for c in ok) if ok else None,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "auc_mean": statistics.fmean(m.auc for m in models) if ok else None,
        "balanced_accuracy_mean":
            statistics.fmean(m.metrics.balanced_accuracy for m in models) if ok else None,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END if values[name] is not None}


def per_layer(untraced: list[Call], traced: list[Call], trace_file: Path, about: dict) -> dict:
    ok = [c for c in traced if c.report is not None]
    base = [c.wall for c in untraced if c.report is not None]
    if not ok or not base:
        return {}
    per_call = [spans.layer_values(c.tracer, c.report.stage_timings) for c in ok]
    values = {name: statistics.median(v[name] for v in per_call)
              for name, _ in spans.LAYER_METRICS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = statistics.median(c.wall for c in ok) - statistics.median(base)
    trace_file.write_text(json.dumps({**about, "untraced_walls": base,
                                      "calls": [c.tracer.to_json() for c in ok]}))
    covered = values["pipeline.emit_report_s"] + sum(
        values[f"pipeline.stage.{s}_s"] for s in spans.STAGES)
    print(f"stages + emit_report: {covered:.4f} s traced; untraced wall "
          f"{statistics.median(base):.4f} s; trace overhead {values['trace.overhead_s']:.4f} s")
    if ok[0].tracer.missing:
        print("not traced (absent from the program): " + ", ".join(ok[0].tracer.missing))
    return {name: {"value": values[name], "unit": unit} for name, unit in spans.LAYER_METRICS}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rareclass" / "__init__.py").is_file():
        print(f"benchmark: no rareclass sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import rareclass
    if Path(rareclass.__file__).resolve().parent != (src / "rareclass").resolve():
        print(f"benchmark: imported rareclass from {rareclass.__file__}, not {src}",
              file=sys.stderr)
        return 2

    # Paths given to the program are relative to the checkout, so that the
    # config digest in report.txt, and with it the artifact digest, is the
    # same in every checkout.
    os.chdir(ROOT)
    wl = WORKLOADS[args.workload]
    bench_dir = Path(".bench_work")
    work = bench_dir / f"{args.workload}-seed{args.seed}"
    env = environment()
    print("env: " + json.dumps(env))
    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import rareclass"], check=True,
                           env={**os.environ, "PYTHONPATH": "src"})
            fx = make_fixture(wl, args.seed, work)
            setup.append(time.perf_counter() - t0)
        setup_s = statistics.median(setup)
        reference: list = []
        out = work / "out"
        if args.trace:
            untraced = run_calls(wl, fx, out, args.seconds / 2, 1, reference)
            traced = run_calls(wl, fx, out, args.seconds / 2, 1, reference, traced=True)
            calls = untraced + traced
            metrics = per_layer(untraced, traced,
                                bench_dir / f"trace-{args.workload}-seed{args.seed}.json",
                                {"workload": args.workload, "seed": args.seed, "env": env})
        else:
            calls = run_calls(wl, fx, out, args.seconds, 2, reference)
            metrics = end_to_end(calls, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [c for c in calls if c.problems]
    ok = [c for c in calls if c.report is not None]
    if ok:
        r = ok[0].report
        print(f"workload {args.workload} seed {args.seed}: fixture {fx.shape[0]}x{fx.shape[1]}, "
              f"{r.prune_counts['surviving']} columns after pruning, "
              f"{r.vote_summary.get('n_selected', 'all')} selected")
    print(f"digest: {reference[0] if reference else 'none'}")
    print("call walls (s): " + ", ".join(f"{c.wall:.4f}" for c in calls)
          + (" (untraced, then traced)" if args.trace else ""))
    for c in failed:
        print("FAILED: " + "; ".join(c.problems))
    print(f"runs_failed = {len(failed)}/{len(calls)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(calls),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
