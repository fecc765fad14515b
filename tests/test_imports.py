import importlib
import os
import pkgutil
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


def test_every_public_name_resolves():
    # only `from ... import *` reads __all__, so a stale entry fails nowhere else
    import rareclass
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(rareclass.__path__, "rareclass.")]
    public = {m.__name__: m.__all__ for m in modules if hasattr(m, "__all__")}
    assert "rareclass.models" in public and "rareclass.featsel" in public
    stale = [f"{name}.{attr}" for name, attrs in public.items()
             for attr in attrs if not hasattr(sys.modules[name], attr)]
    assert stale == []


def test_package_defines_no_name_but_its_version():
    # each name has one import path, through its module; the package only
    # loads the modules, so `import rareclass` still costs what it did
    import types
    import rareclass
    own = [name for name, value in vars(rareclass).items()
           if not name.startswith("__") and not isinstance(value, types.ModuleType)]
    assert own == []
