"""No module of specsum loads scipy, so no command pays for its import.
The Kloosterman, measure and test-function layers are closed forms, the
Bessel layer has its own log-gamma, and the region volumes and the
families table use the fixed rules of specsum.quadrature.  scipy is a test
dependency only: the tests keep scipy.special.jv and scipy.integrate.quad
as oracles."""

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


def test_cli_asymptotics_and_regions_import_no_scipy():
    # each in its own interpreter, so that none hides another's import
    for module in ("specsum.cli", "specsum.asymptotics", "specsum.regions"):
        assert loaded_scipy(module) == [], module
