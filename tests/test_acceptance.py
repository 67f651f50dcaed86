"""End-to-end acceptance checks: ground truths, cross-validations, and the
pipeline demonstrations, each with an explicit runtime budget."""

import cmath
import math
import time
from math import gcd

import numpy as np
import pytest

from specsum.asymptotics import (
    choose_U,
    choose_eps,
    count,
    error_budget,
    family_asymptotic_table,
    hypercube_budget_sweep,
    main_term,
    synth_spectrum,
)
from specsum.besseltransform import bessel_j, transform_axis, transform_contour
from specsum.kloosterman import (
    IdealLattice,
    kloosterman_sum,
    ksum,
    trivial_character,
)
from specsum.measures import nv_1
from specsum.numberfield import make_field
from specsum.regions import (
    bluntness_deficit,
    family,
    imaginary_box,
    shell_growth_constant,
    shells,
)
from specsum.testfunctions import (
    gaussian_phi,
    local_comparison,
    phi_p,
    smoothing_discrepancy_bound,
)

F1 = make_field(1)
F2 = make_field(2)
F5 = make_field(5)


def _brute_rational_sum(c: int) -> complex:
    total = 0.0 + 0.0j
    for x in range(1, c):
        if gcd(x, c) != 1:
            continue
        xbar = pow(x, -1, c)
        total += cmath.exp(2j * math.pi * (x + xbar) / c)
    return total


def _small_norm_elements(F, bound):
    out = []
    for a in range(-6, 7):
        for b in range(-6, 7):
            c = F.element(a, b) if F.d == 2 else F.element(a)
            n = abs(int(c.norm()))
            if 1 < n <= bound:
                out.append(c)
    return out


class TestCriterion1Kloosterman:
    def test_ground_truth_and_bounds(self):
        start = time.time()
        for c in range(2, 51):
            ce = F1.element(c)
            chi = trivial_character(F1, IdealLattice.principal(ce))
            S = kloosterman_sum(F1, chi, F1.one(), F1.one(), ce)
            ref = _brute_rational_sum(c)
            assert abs(S - ref) < 1e-9
            assert abs(S.imag) <= 1e-10
        chi3 = trivial_character(F1, IdealLattice.principal(F1.element(3)))
        chi4 = trivial_character(F1, IdealLattice.principal(F1.element(4)))
        assert kloosterman_sum(F1, chi3, F1.one(), F1.one(),
                               F1.element(3)).real == pytest.approx(-1.0)
        assert kloosterman_sum(F1, chi4, F1.one(), F1.one(),
                               F1.element(4)).real == pytest.approx(-2.0)
        for F in (F1, F2, F5):
            if F.d == 1:
                cs = [F.element(n) for n in range(2, 201)][:40]
            else:
                cs = _small_norm_elements(F, 200)
            for c in cs:
                chi = trivial_character(F, IdealLattice.principal(c))
                S = kloosterman_sum(F, chi, F.one(), F.one(), c)
                assert abs(S) <= abs(int(c.norm())) + 1e-9
        assert time.time() - start < 10.0


class TestCriterion2Volumes:
    def test_closed_form_vs_monte_carlo(self):
        start = time.time()
        for n, Y in ((2, 4.5), (3, 6.0)):
            fam = family("simplex", n=n)
            closed = fam.closed_form_nv1(Y)
            mc = fam.instance(Y).mc_nv1(10 ** 6, seed=2)
            assert abs(mc.value - closed.value) <= mc.error  # 3 * stderr
        sph = family("sphere", m=[10.0, 20.0], r=1.0)
        closed = sph.closed_form_nv1()
        assert closed.value == pytest.approx(400 * math.pi)
        mc = sph.instance().mc_nv1(10 ** 6, seed=2)
        assert abs(mc.value - closed.value) <= mc.error
        sec = family("sector", p=1.0, q=2.0, alpha=0.75)
        qv = sec.quadrature_vc(1.0, 1e4).value
        lead = sec.refined_vc(1.0, 1e4).value
        assert abs(qv / lead - 1) < 0.02
        strip = family("slanted-strip", a=1.0, b=0.0, c=1.0)
        qv = strip.quadrature_nv1(1e3).value
        lead = strip.closed_form_nv1(1e3).value  # (7/3) a (c-b) t^3
        assert lead == pytest.approx(7.0 / 3.0 * 1e9)
        assert abs(qv / lead - 1) < 0.02
        assert time.time() - start < 60.0


class TestCriterion3ConstantTable:
    def test_fitted_constants(self):
        start = time.time()
        grids = {
            "weyl1": np.geomspace(100, 1000, 5),
            "weyl2": np.geomspace(100, 1000, 5),
            "slant": np.geomspace(1000, 10000, 5),
            "sphere": np.geomspace(100, 1000, 5),
            "sector": np.geomspace(1e6, 1e7, 5),
        }
        for name, grid in grids.items():
            row = family_asymptotic_table(name, F5, grid)
            assert row["rel_deviation"] < 0.03, row
        holo = family_asymptotic_table("holo", F5, [1, 2, 3])
        assert holo["rel_deviation"] < 1e-12
        assert time.time() - start < 120.0


class TestCriterion4Bessel:
    def test_recurrence_transforms_small_t(self):
        start = time.time()
        for n in range(1, 21):
            for x in (1.0, 10.0, 30.0):
                res = bessel_j(n - 1, x) + bessel_j(n + 1, x) \
                    - 2 * n / x * bessel_j(n, x)
                assert abs(res) <= 1e-9
        for phi in (gaussian_phi(10.0, 25.0), phi_p(1.0, a=3.0)):
            for parity in (0, 1):
                for t in (0.1, 1.0, 10.0):
                    a = transform_axis(phi, parity, 1, t)
                    c = transform_contour(phi, parity, 1, t)
                    assert abs(a.value - c.value) <= a.error + c.error
        f = phi_p(0.32, a=2.1, tau=0.3)
        ts = np.geomspace(1e-4, 1e-2, 10)
        for parity in (0, 1):
            vals = [abs(transform_contour(f, parity, 1, float(t)).value)
                    for t in ts]
            slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
            assert slope == pytest.approx(0.6, abs=0.05)
        assert time.time() - start < 60.0


class TestCriterion5LocalComparison:
    def test_grid_bounds(self):
        start = time.time()
        for U in (25.0, 100.0, 400.0):
            for al in (0.3, 0.5, 1.0):
                for q in (2.0, 10.0, 50.0):
                    I, J = local_comparison(U, (q, "principal"), al)
                    bound = 10 * math.exp(-U * al * al)
                    assert abs(I - 1) <= bound
                    assert 0 <= J <= bound
        for x in (0.01, 0.05, 0.1, 0.11):
            I, _ = local_comparison(100.0, (x, "complementary"), 0.3)
            assert I == 0.0
        assert time.time() - start < 30.0


class TestCriterion6SmoothingSlope:
    def test_envelope_slope(self):
        Us = [1e2, 1e3, 1e4]
        vals = [smoothing_discrepancy_bound(10.0, U) for U in Us]
        slope = np.polyfit(np.log(Us), np.log(vals), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


class TestCriterion7ParameterSelection:
    def test_identity_admissibility_budget(self):
        for m in (math.exp(-10), math.exp(-100), 1e-200):
            U = choose_U(m, 0.5, 1)
            eps = choose_eps(m, U)
            assert U * eps * eps == pytest.approx(
                0.5 * math.log(abs(math.log(m))), abs=1e-12)
        t0 = 0.5 * 0.3 ** 2 * 1.01
        C = imaginary_box([(50, 60)])
        with pytest.raises(ValueError, match="U"):
            error_budget(C, None, t0, 1.0, 0.2, F1)
        with pytest.raises(ValueError, match="eps"):
            error_budget(C, None, t0, 100.0, 0.5, F1)
        grid = [10 ** (8.5 + k) for k in range(5)]
        budgets = hypercube_budget_sweep(F5, grid)
        ratios = np.array([[pc / b.main_term for pc in b.pieces]
                           for b in budgets])
        assert np.all(ratios[-1] < 0.1)
        assert np.all(np.diff(ratios, axis=0) < 0)


class TestCriterion8Shells:
    @pytest.mark.parametrize("region", [
        imaginary_box([(2, 5)]),
        imaginary_box([(2, 5), (3, 6)]),
    ])
    def test_nesting_and_growth(self, region):
        for c in (0.1, 0.3):
            ss = shells(region, c)
            for f_in, f_mid, f_out in zip(ss.inner.factors, region.factors,
                                          ss.outer.factors):
                if f_in.im:
                    assert f_mid.im[0][0] <= f_in.im[0][0]
                    assert f_in.im[0][1] <= f_mid.im[0][1]
                assert f_out.im[0][0] <= f_mid.im[0][0]
                assert f_mid.im[0][1] <= f_out.im[0][1]
            assert ss.nv1_inner <= nv_1(region).value <= ss.nv1_outer
        eps = 0.1
        R, _ = shell_growth_constant(region.d)
        outer = [nv_1(region).value] + [shells(region, eps * n).nv1_outer
                                        for n in range(1, 12)]
        rings = [outer[n + 1] - outer[n] for n in range(11)]
        for n in range(10):
            assert rings[n + 1] <= R * rings[n]

    def test_sphere_ring_growth(self):
        sph = family("sphere", m=[10.0, 10.0], r=2.0)
        eps = 0.1
        R, _ = shell_growth_constant(2)
        outer = [sph.closed_form_nv1().value] + \
                [sph.shells(eps * n).nv1_outer for n in range(1, 12)]
        rings = [outer[n + 1] - outer[n] for n in range(11)]
        for n in range(10):
            assert rings[n + 1] <= R * rings[n]

    def test_bluntness(self):
        for box in (imaginary_box([(2, 5)]),
                    imaginary_box([(2, 2.5), (3, 6)]),
                    imaginary_box([(1, 1.1), (1, 1.1)])):
            assert bluntness_deficit(box, 0.1) >= 0.99


class TestCriterion9Pipeline:
    def test_synthetic_spectrum(self):
        fam = family("hypercube", a=[lambda t: t, lambda t: t], sigma=0.3)
        region = fam.instance(500.0).product
        spec = synth_spectrum(F5, region, seed=7)
        mt = main_term(region, F5)
        assert mt == pytest.approx(1e4, rel=0.1)
        assert 0.9 <= count(spec, region=region) / mt <= 1.1
        left = imaginary_box([(500, 500.15), (500, 500.3)])
        right = imaginary_box([(500.15, 500.3), (500, 500.3)])
        assert count(spec, region=left) + count(spec, region=right) == \
            count(spec, region=region)
        sub = imaginary_box([(500.05, 500.25), (500, 500.3)])
        assert count(spec, region=sub) <= count(spec, region=region)

    def test_kseries_cauchy(self):
        Zs = IdealLattice.ring_of_integers(F1)
        f = lambda t: math.prod(min(abs(tj) ** 0.6, 1.0) for tj in t)
        results = {T: ksum(F1, Zs, None, F1.element(1), f, T, 1.0, tau=0.3)
                   for T in (20.0, 40.0, 80.0)}
        for Ta in (20.0, 40.0):
            for Tb in (40.0, 80.0):
                if Tb <= Ta:
                    continue
                diff = abs(results[Tb].partial_sum - results[Ta].partial_sum)
                assert diff <= results[Ta].tail_estimate
