"""Importing the package stays light: it loads no scipy subpackage that
the library does not use."""

import os
import subprocess
import sys
from pathlib import Path

import imddsim

HEAVY = ("scipy.signal", "scipy.optimize", "scipy.constants", "scipy.stats",
         "scipy.interpolate")

PROBE = "import sys, imddsim; print(*[m for m in sys.argv[1:] if m in sys.modules])"


def test_import_loads_no_heavy_scipy_module():
    src = str(Path(imddsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE, *HEAVY], check=True,
                         capture_output=True, text=True, env=env).stdout
    loaded = out.split()
    assert loaded == [], f"import imddsim loads {', '.join(loaded)}"
