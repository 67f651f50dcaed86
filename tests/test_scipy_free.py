"""The Kloosterman and measure layers are closed forms: importing them
loads no scipy module, so commands that use only them skip its import."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_kloosterman_and_measures_import_no_scipy():
    code = ("import sys, specsum.kloosterman, specsum.measures\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout == "[]\n"
