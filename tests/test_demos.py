"""Every script under demos/ runs to completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert list(scratch.iterdir()) == []        # temporary files are removed
