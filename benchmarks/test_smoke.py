"""Smoke test of the benchmark itself, on tiny fixtures.

    python3 -m pytest benchmarks/test_smoke.py

Every workload is shrunk to a 240-row fixture and run through the real
entry point in a child process, traced and untraced.
"""

from __future__ import annotations

import functools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEED = 3

TINY = """
import dataclasses, sys
import run
for name, wl in list(run.WORKLOADS.items()):
    run.WORKLOADS[name] = dataclasses.replace(
        wl, n_rows=240, n_informative=4,
        columns=dict(n_noise=4, n_constant=1, n_duplicate=1, n_high_missing=1))
{patch}
sys.exit(run.main(sys.argv[1:]))
"""


@functools.cache
def bench(workload: str, trace: int, patch: str = "") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", TINY.format(patch=patch), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace)],
        cwd=HERE, capture_output=True, text=True, timeout=600)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == list(spans.LAYER_METRICS)
    assert set(WORKLOADS) <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert f"{m['name']} = " in proc.stdout
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert "runs_failed = 0/" in proc.stdout and "digest: " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_are_nonnegative(workload):
    assert bench(workload, 1).returncode == 0
    trace = json.loads((ROOT / ".bench_work" / f"trace-{workload}-seed{SEED}.json").read_text())
    assert trace["calls"]
    for call in trace["calls"]:
        recorded = call["spans"]
        assert [s["name"] for s in recorded if s["parent"] < 0] == ["pipeline.call"]
        for s in recorded:
            assert s["start"] <= s["end"]
            assert s["self"] >= -1e-9          # float rounding only
            if s["parent"] >= 0:
                p = recorded[s["parent"]]
                assert p["start"] <= s["start"] and s["end"] <= p["end"]
        assert call["counts"]["models.fits"] >= 2


def test_a_failed_check_fails_the_run():
    # artifacts that differ between calls of one seed
    patch = ("import itertools; n = itertools.count()\n"
             "run.artifact_digest = lambda out: str(next(n))")
    proc = bench(WORKLOADS[-1], 0, patch)
    assert proc.returncode == 1
    out = result(proc)
    assert out["correct"] is False and out["failed"] >= 1


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
