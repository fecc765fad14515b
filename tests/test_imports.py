import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_package_and_cli_import_no_heavy_dependency():
    # the package needs numpy alone; a stray import of one of these would
    # add seconds to every CLI start and to the benchmark's setup_s.  The
    # pool modules load only when `parallel.pmap` first starts a pool.
    modules = ("scipy", "pandas", "matplotlib", "multiprocessing", "concurrent.futures")
    script = ("import sys, rareclass, rareclass.cli\n"
              f"print(' '.join(m for m in {modules!r} if m in sys.modules))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
