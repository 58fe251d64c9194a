"""The runtime import graph is NumPy plus the standard library.

scipy is a test-only oracle (``pip install -e .[test]``); no ``repro``
module may import it.  The checks run in a fresh interpreter because other
tests in this process import scipy (and ``numpy.ma``) for their
cross-checks.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = """
import importlib, pkgutil, sys
import repro, repro.cli
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
leaked = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(len(names))
print(" ".join(leaked))
"""

_MCKP_PROBE = """
import sys
import numpy as np
from repro.resizing.mckp import build_mckp
from repro.resizing.problem import ResizingProblem
demands = np.random.default_rng(0).uniform(0.0, 10.0, size=(4, 48)).round(1)
instance = build_mckp(ResizingProblem(demands=demands, capacity=40.0), epsilon=0.5)
print(instance.n_vms, "numpy.ma" in sys.modules)
"""


def _run_probe(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return proc.stdout


def test_no_repro_module_imports_scipy():
    n_modules, leaked = _run_probe(_PROBE).splitlines()
    assert int(n_modules) > 50, n_modules  # the walk really found the package
    assert leaked == "", f"scipy imported by repro: {leaked}"


def test_build_mckp_does_not_import_numpy_ma():
    # np.unique imports numpy.ma lazily (~16 ms per process on NumPy 2.x).
    assert _run_probe(_MCKP_PROBE).split() == ["4", "False"]
