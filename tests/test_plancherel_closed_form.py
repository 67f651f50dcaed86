"""The Plancherel mass in closed form against mpmath at 30 digits.

npl and pl_lambda (weight 1) integrate the density through its
antiderivative, written with the dilogarithm; their declared error is a
rounding bound, so it must cover the distance to an mpmath quadrature of
the density, and to that value rounded to a double.  The intervals are
drawn from a fixed seed: left ends 0, uniform in [0, 5] or uniform in
[0, 200], widths log-uniform in [1e-3, 2e3].
"""

import json
import math
import random

import mpmath
import numpy as np
import pytest

from specsum.cli import dispatch
from specsum.measures import dilog, npl, pl_lambda
from specsum.regions import imaginary_box


def _intervals(seed, n=60):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        lo = rng.choice((0.0, rng.uniform(0, 5), rng.uniform(0, 200)))
        out.append((lo, lo + 10 ** rng.uniform(-3, math.log10(2e3))))
    return out


def _mass(parity, a, b):
    """2 x integral of the density over [a, b] (mpf endpoints), by mpmath
    quadrature split where the density bends."""
    if parity == 0:
        f = lambda t: t * mpmath.tanh(mpmath.pi * t)
    else:
        f = lambda t: t * mpmath.coth(mpmath.pi * t) if t else 1 / mpmath.pi
    pts = [a] + [x for x in (0.5, 1, 2, 4) if a < x < b] + [b]
    return 2 * mpmath.quad(f, pts)


def _covers(res, ref):
    """The error covers the distance to ref and to ref rounded to a double."""
    return (abs(res.value - ref) <= res.error
            and abs(res.value - float(ref)) <= res.error)


@pytest.mark.parametrize("parity", [0, 1])
def test_npl_sweep(parity):
    bad = []
    with mpmath.workdps(30):
        for a, b in _intervals(10 + parity):
            res = npl(imaginary_box([(a, b)], [parity]))
            ref = _mass(parity, mpmath.mpf(a), mpmath.mpf(b))
            if not (_covers(res, ref) and res.error <= 1e-11 * res.value):
                bad.append((a, b, res.value, res.error, float(ref)))
            assert res.method == "closed-form"
    assert not bad


@pytest.mark.parametrize("parity", [0, 1])
def test_pl_lambda_sweep(parity):
    bad = []
    with mpmath.workdps(30):
        for lo, hi in _intervals(20 + parity):
            res = pl_lambda(parity, lo, hi)
            # u = sqrt(lambda - 1/4) from the exact endpoints; the only
            # discrete point at lambda >= 0 is b = 2 (parity 0) at 0
            u0, u1 = (mpmath.sqrt(max(mpmath.mpf(x) - 0.25, 0)) for x in (lo, hi))
            ref = _mass(parity, u0, u1) + (parity == 0 and lo == 0)
            if not (_covers(res, ref) and res.error <= 1e-11 * res.value):
                bad.append((lo, hi, res.value, res.error, float(ref)))
            assert res.method == "closed-form"
    assert not bad


@pytest.mark.parametrize("argv,exact", [
    (["--kind", "npl", "--region", "i[0,1265]:1"], 1265 ** 2 + 1 / 6),
    (["--kind", "npl", "--region", "i[0,1265]"], 1265 ** 2 - 1 / 12),
    (["--kind", "pl", "--parity", "1", "--lo", "0", "--hi", "1600000"],
     1599999.75 + 1 / 6),
])
def test_wide_intervals_keep_the_bump(argv, exact, capsys):
    # quad stepped over the bump of area 1/24 or 1/12 near 0 on these
    assert dispatch(["measure", *argv]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - exact) <= 1e-15 * exact
    assert abs(out["value"] - exact) <= out["error"] <= 1e-14 * exact
    assert out["method"] == "closed-form"


def test_dilog_matches_polylog():
    # the power series on its domain |z| <= 1/2
    grid = np.concatenate([np.linspace(-0.5, 0.5, 401),
                           [-0.4999999, 0.4999999, 1e-300, -1e-20]])
    for z in grid.tolist():
        ref = mpmath.polylog(2, z)
        assert abs(dilog(z) - ref) <= 8 * 2.0 ** -52 * abs(ref), z
