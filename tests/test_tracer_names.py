"""The benchmark's tracer (perfbench/tracer.py) wraps specsum functions and
methods by name when `perfbench/run.py --trace 1` installs it.  A rename in
the library would break that install silently, so these checks read the
tracer's name tables (without installing it) and resolve every name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import specsum.numberfield as numberfield
import specsum.regions as regions

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_functions_resolve(tracer):
    for name, (modname, path) in tracer.FUNCTIONS.items():
        mod = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            # install() wraps the method the class itself defines
            assert attr in vars(getattr(mod, owner_name)), name
        else:
            assert callable(getattr(mod, attr, None)), name


def test_ring_methods_resolve(tracer):
    for meth in tracer.RING_METHODS:
        assert callable(vars(numberfield.ResidueRing).get(meth)), meth


def test_every_region_family_has_a_traced_volume_method(tracer):
    classes = [regions.RegionInstance] + [
        c for c in vars(regions).values()
        if isinstance(c, type) and issubclass(c, regions.RegionFamily)
        and c is not regions.RegionFamily]
    assert len(classes) > 2
    for cls in classes:
        # defined on cls or inherited from a concrete base (install() wraps
        # it there); RegionFamily itself defines none
        bases = [k for k in cls.__mro__
                 if k not in (regions.RegionFamily, object)]
        assert any(attr.endswith(tracer.REGION_METHOD_SUFFIXES)
                   and callable(fn)
                   for k in bases for attr, fn in vars(k).items()), cls
