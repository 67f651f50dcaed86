"""The benchmark's tracer (perfbench/tracer.py) wraps specsum functions and
methods by name when `perfbench/run.py --trace 1` installs it, and the
benchmark's worker (perfbench/worker.py) reads fields of the results.  A
rename in the library would break either silently, so these checks read the
tracer's name tables (without installing it) and resolve every name, and
check that the results carry the fields the benchmark reads."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import specsum.numberfield as numberfield
import specsum.regions as regions
from specsum.besseltransform import transform_axis, transform_contour
from specsum.kloosterman import ksum
from specsum.measures import monte_carlo_measure
from specsum.testfunctions import gaussian_phi

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


def test_results_carry_the_fields_perfbench_reads():
    F = numberfield.make_field(1)
    level = numberfield.IdealLattice.ring_of_integers(F)
    res = ksum(F, level, None, F.one(), lambda t: 1.0, 3.0, 1.0)
    for attr in ("partial_sum", "tail_estimate", "terms_used"):  # worker
        assert hasattr(res, attr), attr
    mc = monte_carlo_measure([(0, 1)], lambda x: x[:, 0] < 0.5, None, 10)
    assert hasattr(mc, "detail")  # the tracer's measures.monte_carlo span
    phi = gaussian_phi(10.0, 25.0)
    for transform in (transform_axis, transform_contour):
        res = transform(phi, 0, 1, 0.5)
        for attr in ("value", "error"):  # worker
            assert hasattr(res, attr), (transform.__name__, attr)
