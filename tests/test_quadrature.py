"""The fixed rules of specsum.quadrature, and the six volumes that use them.

Each rule is exact where its theory says so (Gauss-Legendre on polynomials
of degree up to 2n - 1, the trapezoidal rule on a trigonometric polynomial
over one period), and its declared error covers an mpmath value where it
is not.  At each site in regions and asymptotics the declared error covers
scipy.integrate.quad, run tight (quad's own error estimate added), and the
exact value where there is one."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from test_regions import _strip_volume

import specsum.besseltransform as besseltransform
import specsum.quadrature as quadrature
from specsum.asymptotics import (
    FAMILY_GRIDS,
    _slant_value,
    _sphere_value,
    _weyl2_value,
    field_prefactor,
)
from specsum.measures import (
    pl_lambda,
    plancherel_density,
    plancherel_mass,
    power_integral,
)
from specsum.numberfield import QuadField
from specsum.quadrature import gauss_legendre, trapezoid
from specsum.regions import family


def tight_quad(f, a, b):
    """(value, error) of scipy's quad at 1e-13 relative."""
    return quad(f, a, b, epsabs=0, epsrel=1e-13, limit=500)


class TestRules:
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 16, 32])
    def test_gauss_legendre_exact_on_polynomials(self, n):
        # degree n - 1, below which G_{n/2} is exact too, so the declared
        # error is the rounding; and G_n alone up to degree 2n - 1
        rng = random.Random(n)
        for degree in (n - 1, 2 * n - 1):
            coef = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                    for _ in range(degree + 1)]
            a = Fraction(rng.randint(-20, 0), 4)
            b = Fraction(rng.randint(1, 20), 4)
            exact = sum(c * (b ** (j + 1) - a ** (j + 1)) / (j + 1)
                        for j, c in enumerate(coef))
            fc = [float(c) for c in coef]
            v, e = gauss_legendre(lambda x: math.fsum(c * x ** j for j, c in
                                                      enumerate(fc)),
                                  float(a), float(b), n)
            scale = sum(abs(float(c)) * max(abs(float(a)), abs(float(b))) ** j
                        for j, c in enumerate(coef)) * float(b - a)
            assert abs(Fraction(v) - exact) <= 1e-14 * scale
            if degree < n:
                assert abs(Fraction(v) - exact) <= e <= 1e-14 * scale

    def test_trapezoid_exact_on_trigonometric_polynomial(self):
        # degree 5 over one period: 16 steps, and the 8 of T_2h, are exact
        theta = np.linspace(0.0, 2 * math.pi, 17)
        g = 3 + np.cos(theta) - 2 * np.sin(2 * theta) + 0.5 * np.cos(5 * theta) \
            + np.sin(3 * theta) * np.cos(2 * theta)
        v, e = trapezoid(theta, g)
        assert v == pytest.approx(6 * math.pi, rel=1e-15)
        assert abs(v - 6 * math.pi) <= e < 1e-13

    def test_declared_errors_cover_mpmath(self):
        # Runge's function: poles at +-i/5, a small Bernstein ellipse
        for n in (8, 16, 32, 64):
            v, e = gauss_legendre(lambda x: 1 / (1 + 25 * x * x), -1.0, 1.0, n)
            assert abs(v - 0.4 * math.atan(5)) <= e
        v, e = gauss_legendre(lambda x: math.exp(x) * math.cos(3 * x), 0.0, 2.0, 32)
        with mpmath.workdps(30):
            want = mpmath.quad(lambda x: mpmath.exp(x) * mpmath.cos(3 * x),
                               [0, 2])
        assert abs(v - want) <= e < 1e-12
        # exp(cos) over a period is 2 pi I_0(1), geometric in the steps
        for steps in (4, 8, 16, 32):
            theta = np.linspace(0.0, 2 * math.pi, steps + 1)
            v, e = trapezoid(theta, np.exp(np.cos(theta)))
            with mpmath.workdps(30):
                assert abs(v - 2 * mpmath.pi * mpmath.besseli(0, 1)) <= e

    def test_value_errors_add_to_the_declared_error(self):
        theta = np.linspace(0.0, 2 * math.pi, 9)
        g = np.full(9, 2.0)
        assert trapezoid(theta, g, np.full(9, 1e-3))[1] == pytest.approx(
            2 * math.pi * 1e-3 + 1e-15 * 4 * math.pi)

    def test_one_trapezoid_and_only_numpy(self):
        assert not hasattr(besseltransform, "_trapezoid")
        assert besseltransform.trapezoid is quadrature.trapezoid
        tree = ast.parse(Path(quadrature.__file__).read_text())
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                    for a in n.names} | \
            {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        assert imported == {"__future__", "math", "functools", "numpy"}


class TestRegionSites:
    @pytest.mark.parametrize("a, b, c, t", [
        (1, 0, 1, 5), (2, -1, 3, 1000), (0.001, 0, 100, 1777),
        (3.7, -2.5, 9.1, 12345.6)])
    def test_strip(self, a, b, c, t):
        res = family("slanted-strip", a=a, b=b, c=c).quadrature_nv1(t)
        q, qe = tight_quad(lambda x: x * (c - b) * (2 * a * x + b + c) / 2,
                           t, 2 * t)
        assert abs(res.value - q) <= res.error + qe
        assert abs(Fraction(res.value) - _strip_volume(a, b, c, t)) <= res.error

    def test_sphere(self):
        # the benchmark's check: the double 2 pi r^2 m1 m2 within the error
        rng = random.Random(3)
        for _ in range(2000):
            m1, m2 = rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0)
            r = rng.uniform(0.5, 1.5)
            res = family("sphere", m=[m1, m2], r=r).quadrature_nv1()
            assert 0 < res.error <= 3e-15 * res.value
            assert abs(res.value - 2 * math.pi * r * r * m1 * m2) <= res.error
        m1, m2, r = 5.0, 6.0, 1.5
        res = family("sphere", m=[m1, m2], r=r).quadrature_nv1()
        with mpmath.workdps(30):
            exact = 2 * mpmath.pi * mpmath.mpf(r) ** 2 * m1 * m2
        assert abs(res.value - exact) <= res.error

        def integrand(t1):
            h = math.sqrt(max(r * r - (t1 - m1) ** 2, 0.0))
            return t1 * 2 * m2 * h

        q, qe = tight_quad(integrand, m1 - r, m1 + r)
        assert abs(res.value - 2 * q) <= res.error + 2 * qe

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, -3.0])
    def test_sector(self, c):
        sec = family("sector", p=1.0, q=2.0, alpha=0.75)
        e = (c - 1) / 2
        for t in (2.5, 100.0, 1e6):
            res = sec.quadrature_vc(c, t)
            q, qe = tight_quad(
                lambda l1: 0.25 * (l1 - 0.25) ** e
                * power_integral(l1 - 0.25, 2 * l1 - 0.25, e), *sec._resolve(t))
            assert abs(res.value - q) <= res.error + qe
            if c == 1.0:  # refined_vc is exact there
                ref = sec.refined_vc(c, t)
                assert abs(res.value - ref.value) <= res.error + ref.error


F5 = QuadField(5)


class TestTableSites:
    def test_weyl2(self):
        # quad split at the kink u = sqrt(t - 1/2) of the last place's mass
        pf = field_prefactor(F5)
        for t in FAMILY_GRIDS["weyl2"]:
            v, e = _weyl2_value(F5, t)

            def first(u):
                return 2 * plancherel_density(0, u) \
                    * pl_lambda(0, 0.0, t - (0.25 + u * u)).value

            k, K = math.sqrt(t - 0.5), math.sqrt(t - 0.25)
            (q1, e1), (q2, e2) = tight_quad(first, 0, k), tight_quad(first, k, K)
            q = pf * (q1 + q2 + pl_lambda(0, 0.0, t).value)
            assert abs(v - q) <= e + pf * (e1 + e2)
            assert 0 < e <= 1e-14 * v

    def test_slant(self):
        # for x >= 1000 the density is x and the mass of [x, x + 1] is
        # x + 1/2, to within e^(-6000)
        pf = field_prefactor(F5)
        for t in FAMILY_GRIDS["slant"]:
            v, e = _slant_value(F5, t)
            q, qe = tight_quad(lambda x: plancherel_density(0, x)
                               * plancherel_mass(0, x, x + 1.0)[0], t, 2 * t)
            assert abs(v - 4 * pf * q) <= e + 4 * pf * qe
            T = Fraction(t)
            exact = 4 * Fraction(pf) * (Fraction(7, 3) * T ** 3 + Fraction(3, 4) * T ** 2)
            assert abs(Fraction(v) - exact) <= e

    def test_sphere(self):
        # for t >= 100 the density is x to within e^(-600), and the integral
        # of x y over the unit disc around (t, 2t) is 2 pi t^2
        pf = field_prefactor(F5)
        for t in FAMILY_GRIDS["sphere"]:
            v, e = _sphere_value(F5, t)

            def ray(s):
                return quad(lambda th: plancherel_density(0, t + s * math.cos(th))
                            * plancherel_density(0, 2 * t + s * math.sin(th)) * s,
                            0, 2 * math.pi, epsabs=0, epsrel=1e-13)[0]

            q, qe = tight_quad(ray, 0.0, 1.0)
            assert abs(v - 8 * pf * q) <= e + 8 * pf * qe
            assert abs(v - 8 * pf * 2 * math.pi * t * t) <= e
