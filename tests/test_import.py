"""Importing the package stays light: it loads no scipy module at all, and
it loads the numpy submodules a run uses, so the first run does not."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import imddsim

PROBE = ("import sys, imddsim; "
         "print(*[m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]); "
         "print(*[m for m in sys.argv[1:] if m not in sys.modules])")

# numpy 2 loads these on first use
EAGER = ("numpy.fft", "numpy.random")


@pytest.fixture(scope="module")
def fresh_import() -> tuple[list[str], list[str]]:
    """(scipy modules loaded, ``EAGER`` modules not loaded) after ``import
    imddsim`` in a new interpreter."""
    src = str(Path(imddsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", PROBE, *EAGER], check=True,
                         capture_output=True, text=True, env=env).stdout
    scipy_loaded, eager_missing = out.split("\n")[:2]
    return scipy_loaded.split(), eager_missing.split()


def test_import_loads_no_heavy_scipy_module(fresh_import):
    # all of scipy counts as heavy: the library needs numpy only
    loaded, _ = fresh_import
    assert loaded == [], f"import imddsim loads {', '.join(loaded)}"


def test_import_loads_lazy_numpy_submodules(fresh_import):
    _, missing = fresh_import
    assert missing == [], f"import imddsim leaves {', '.join(missing)} to the first run"
