"""Package-level contracts."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_submodule():
    # the package is a namespace with a version; the API lives in the
    # submodules, so importing it must not pull in numpy or any of them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = ("import sys, ruledstrata; print(ruledstrata.__version__); "
            "print(sorted(m for m in sys.modules if m == 'numpy' "
            "or m.startswith('ruledstrata.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["0.1.0", "[]"]
