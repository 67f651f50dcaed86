"""No module of specsum loads scipy or mpmath, so no command pays for
their import.  The Kloosterman, measure and test-function layers are
closed forms, the Bessel layer has its own log-gamma and computes its
extended-precision fallback on Python integers, and the region volumes and
the families table use the fixed rules of specsum.quadrature.  scipy is a
test dependency only: the tests keep scipy.special.jv and
scipy.integrate.quad as oracles.  mpmath is the tests' high-precision
oracle, and testfunctions.local_comparison imports it on its complementary
branch, which no command reaches.  Nor does the Monte Carlo oracle load a
worker-pool module: its second share of blocks runs in a plain thread."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# what the benchmark worker imports for its library workloads
WORKER = ("specsum.besseltransform", "specsum.testfunctions",
          "specsum.numberfield", "specsum.kloosterman")


def loaded(package, modules, run=""):
    """The modules of package loaded by importing modules, and then running
    the code run, in a fresh interpreter."""
    code = (f"import sys, {', '.join(modules)}\n{run}\n"
            f"print(*sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r}))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return out.stdout.split()


def loaded_scipy(*modules):
    """The scipy modules loaded by importing modules in a fresh interpreter."""
    return loaded("scipy", modules)


def test_kloosterman_and_measures_import_no_scipy():
    assert loaded_scipy("specsum.kloosterman", "specsum.measures") == []


def test_testfunctions_import_no_scipy():
    assert loaded_scipy("specsum.testfunctions") == []


def test_besseltransform_imports_no_scipy():
    assert loaded_scipy("specsum.besseltransform") == []


def test_bessel_layer_imports_no_scipy_integrate():
    # nor any other scipy module: all that the benchmark worker imports for
    # its library workloads
    assert loaded_scipy(*WORKER) == []


def test_cli_asymptotics_and_regions_import_no_scipy():
    # each in its own interpreter, so that none hides another's import
    for module in ("specsum.cli", "specsum.asymptotics", "specsum.regions"):
        assert loaded_scipy(module) == [], module


def test_cli_and_worker_import_no_mpmath():
    assert loaded("mpmath", ["specsum.cli"]) == []
    assert loaded("mpmath", WORKER) == []


def test_extended_fallback_loads_no_mpmath():
    # both points take the extended-precision series (the second through
    # the reflection); the assertion runs in the fresh interpreter
    run = ("import specsum.besseltransform as bt\n"
           "calls, inner = [], bt._series_extended\n"
           "bt._series_extended = lambda mu, x: calls.append(mu) or inner(mu, x)\n"
           "bt.bessel_j_err(0.6 + 40j, 20.0)\n"
           "bt.bessel_j_err(-50.5, 8.0)\n"
           "assert calls == [0.6 + 40j, -50.5], calls")
    assert loaded("mpmath", ["specsum.besseltransform"], run) == []


def test_two_share_monte_carlo_loads_no_pool_module():
    # the helper thread is a threading.Thread: no concurrent.futures or
    # multiprocessing import, which would raise each command's memory
    run = ("from specsum.regions import family\n"
           "family('simplex', n=2).instance(4.5).mc_nv1(2 * 10 ** 5)")
    for package in ("concurrent", "multiprocessing"):
        assert loaded(package, ["specsum.cli"], run) == [], package
