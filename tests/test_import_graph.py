"""The runtime import graph is NumPy plus the standard library.

scipy is a test-only oracle (``pip install -e .[test]``); no ``repro``
module may import it.  The check runs in a fresh interpreter because other
tests in this process import scipy for their cross-checks.
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


def test_no_repro_module_imports_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    n_modules, leaked = proc.stdout.splitlines()
    assert int(n_modules) > 50, proc.stdout  # the walk really found the package
    assert leaked == "", f"scipy imported by repro: {leaked}"
