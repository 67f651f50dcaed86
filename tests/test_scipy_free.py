"""The Kloosterman, measure, test-function and Bessel layers load no scipy
module, so commands that use only them skip its import: the first three
are closed forms, and the Bessel layer has its own log-gamma."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_scipy(*modules):
    """The scipy modules loaded by importing modules in a fresh interpreter."""
    code = (f"import sys, {', '.join(modules)}\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.split()


def test_kloosterman_and_measures_import_no_scipy():
    assert loaded_scipy("specsum.kloosterman", "specsum.measures") == []


def test_testfunctions_import_no_scipy():
    assert loaded_scipy("specsum.testfunctions") == []


def test_besseltransform_imports_no_scipy():
    assert loaded_scipy("specsum.besseltransform") == []


def test_bessel_layer_imports_no_scipy_integrate():
    # nor any other scipy module: all that the benchmark worker imports for
    # its library workloads
    assert loaded_scipy("specsum.besseltransform", "specsum.testfunctions",
                        "specsum.numberfield", "specsum.kloosterman") == []
