"""The benchmark's tracer wraps module attributes of the package by name
(`benchmarks/spans.py` SITES).  A renamed or inlined function would zero
its per-layer metric without failing anything, so each site must resolve."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _sites():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SITES


def test_every_traced_site_resolves():
    sites = _sites()
    assert len(sites) == 34
    missing = [f"{module}.{attr}" for module, attr, *_ in sites
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
