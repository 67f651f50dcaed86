import math
from fractions import Fraction

import mpmath
import pytest

from specsum.measures import nv_1
from specsum.regions import (
    PlaceFactor,
    ProductRegion,
    bluntness_deficit,
    discrete_singleton,
    family,
    imaginary_box,
    shell_growth_constant,
    shells,
    unit_ball_volume,
)


class TestShells:
    def test_interval_example(self):
        # i[2,5] fattened/shrunk by 0.5
        C = imaginary_box([(2, 5)])
        ss = shells(C, 0.5)
        assert ss.outer.factors[0].im == ((1.5, 5.5),)
        assert ss.inner.factors[0].im == ((2.5, 4.5),)
        assert ss.nv1_outer == pytest.approx((5.5 ** 2 - 1.5 ** 2) / 2)
        assert ss.nv1_ring == pytest.approx(7.0)

    def test_outer_dips_into_complementary(self):
        C = imaginary_box([(0.05, 2)])
        ss = shells(C, 0.1)
        f = ss.outer.factors[0]
        assert f.im == ((0.0, 2.1),)
        assert f.re == ((0.0, pytest.approx(0.05)),)

    def test_outer_complementary_clipped_at_nu_theta(self):
        ss = shells(imaginary_box([(0.05, 2)]), 0.5)
        f = ss.outer.factors[0]
        assert f.re == ((0.0, pytest.approx(1 / 9)),)

    def test_inner_can_be_empty(self):
        ss = shells(imaginary_box([(2, 2.5)]), 0.3)
        assert ss.nv1_inner == 0.0

    def test_nesting_on_grid(self):
        C = imaginary_box([(2, 5), (3, 6)])
        ss = shells(C, 0.4)

        def member(region, pt):
            return all(any(a - 1e-12 <= x <= b + 1e-12 for a, b in f.im)
                       for f, x in zip(region.factors, pt))

        for i in range(6):
            for j in range(6):
                pt = (2 + 3 * i / 5, 3 + 3 * j / 5)
                assert member(ss.outer, pt)
                if member(ss.inner, pt):
                    assert member(C, pt)

    def test_growth_constant(self):
        R1, D1 = shell_growth_constant(1)
        assert R1 == pytest.approx(3 * (1 + math.exp(-1)))
        R2, D2 = shell_growth_constant(2)
        assert R2 == pytest.approx(R1 ** 2)
        assert D2 == pytest.approx(math.log(R2))

    @pytest.mark.parametrize("region", [
        imaginary_box([(2, 5)]),
        imaginary_box([(2, 5), (3, 6)]),
    ])
    def test_ring_growth_bounded(self, region):
        eps = 0.1
        R, _ = shell_growth_constant(region.d)
        outer = [nv_1(region).value] + [shells(region, eps * n).nv1_outer
                                        for n in range(1, 12)]
        rings = [outer[n + 1] - outer[n] for n in range(11)]
        for n in range(10):
            assert rings[n + 1] <= R * rings[n]

    def test_sphere_ring_growth_bounded(self):
        sph = family("sphere", m=[10, 10], r=2)
        eps = 0.1
        R, _ = shell_growth_constant(2)
        outer = [sph.closed_form_nv1().value] + \
                [sph.shells(eps * n).nv1_outer for n in range(1, 12)]
        rings = [outer[n + 1] - outer[n] for n in range(11)]
        for n in range(10):
            assert rings[n + 1] <= R * rings[n]


class TestBluntness:
    def test_box_with_fat_sides_certified(self):
        C = imaginary_box([(2, 5), (3, 6)])
        assert bluntness_deficit(C, 0.5) >= 0.99

    def test_thin_slab_deficient(self):
        # width eps/10 gives windows filled to about 1/5
        C = imaginary_box([(2, 2.05)])
        assert bluntness_deficit(C, 0.5) == pytest.approx(0.2, rel=1e-6)

    def test_side_exactly_eps(self):
        C = imaginary_box([(2, 2.5)])
        assert bluntness_deficit(C, 0.5) >= 0.99


def _grid_bluntness(region, eps):
    """The former estimate: 9 evenly spaced nu per place, beta = eps k/4."""
    intervals = [f.im[0] for f in region.factors]
    worst = math.inf
    for beta in [eps * k / 4.0 for k in range(1, 5)]:
        half = beta / 2.0
        prod = 1.0
        for a, b in intervals:
            place_worst = math.inf
            for i in range(9):
                nu = a + (b - a) * i / 8
                length = min(nu + half, b) - max(nu - half, a)
                place_worst = min(place_worst, min(1.0, length / half))
            prod *= place_worst
        worst = min(worst, prod)
    return worst


class TestBluntnessClosedForm:
    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 2.0])
    def test_matches_grid(self, eps):
        sides = [1e-4, 0.003, 0.05, 0.25, 0.5, 1.0, 3.0, 40.0]
        starts = [1.0, 2.5, 17.0]
        for a1 in starts:
            for s1 in sides:
                for s2 in sides:
                    box = imaginary_box([(a1, a1 + s1), (3.0, 3.0 + s2)])
                    assert bluntness_deficit(box, eps) == pytest.approx(
                        _grid_bluntness(box, eps), rel=1e-9, abs=0)

    def test_degenerate_and_non_box(self):
        assert bluntness_deficit(imaginary_box([(2.0, 2.0)]), 0.5) is None
        with pytest.raises(ValueError):
            bluntness_deficit(ProductRegion((PlaceFactor(disc=(1.5,)),)), 0.5)


def _strip_volume(a, b, c, t):
    """Exact volume (c-b)(7a t^3/3 + 3(b+c) t^2/4) of the slanted strip, in
    rationals."""
    a, b, c, t = (Fraction(v) for v in (a, b, c, t))
    return (c - b) * (Fraction(7, 3) * a * t ** 3
                      + Fraction(3, 4) * (b + c) * t ** 2)


class TestFamilies:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            family("torus")

    def test_box(self):
        fam = family("box", a=[lambda t: t, 2.0], b=[lambda t: 2 * t, 3.0])
        inst = fam.instance(5.0)
        assert nv_1(inst.product).value == pytest.approx(
            ((100 - 25) / 2) * ((9 - 4) / 2))
        assert fam.closed_form_nv1(5.0).value == pytest.approx(37.5 * 2.5)

    def test_box_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            family("box", a=[2.0], b=[1.0]).instance()

    def test_hypercube(self):
        fam = family("hypercube", a=[lambda t: t, lambda t: 2 * t], sigma=0.5)
        v = fam.closed_form_nv1(10.0).value
        # integral of u over [10,10.5] times integral over [20,20.5]
        assert v == pytest.approx((10.5 ** 2 - 100) / 2 * (20.5 ** 2 - 400) / 2)

    def test_singleton(self):
        fam = family("singleton", points=[2.0, 1.5], parities=[1, 0])
        assert fam.closed_form_nv1().value == pytest.approx(3.0)
        reg = fam.instance().product
        assert reg.factors[0].disc == (2.0,)

    def test_box_needs_one_entry_per_place(self):
        for kw in ({"a": [1.0, 2.0], "b": [3.0]},
                   {"a": [1.0], "b": [3.0], "parities": [0, 1]}):
            with pytest.raises(ValueError, match="per place"):
                family("box", **kw)

    def test_singleton_checked_at_construction(self):
        with pytest.raises(ValueError, match="one parity per point"):
            family("singleton", points=[1.5, 2.0], parities=[0])
        with pytest.raises(ValueError, match="parity must be 0 or 1"):
            family("singleton", points=[1.5], parities=[2])
        with pytest.raises(ValueError, match="not admissible"):
            family("singleton", points=[2.0], parities=[0])

    def test_sphere_shell_outside_domain_rejected(self):
        # the outer ball of radius r + c must keep m_j >= r + c + 1
        sph = family("sphere", m=[10.0, 10.0], r=2.0)
        assert sph.shells(1.1).nv1_outer > sph.closed_form_nv1().value
        with pytest.raises(ValueError, match="m_j >= r \\+ 1"):
            sph.shells(7.5)

    def test_singleton_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            discrete_singleton([1.25], parities=[0])

    def test_sphere_closed_equals_quadrature(self):
        sph = family("sphere", m=[10, 20], r=1)
        assert sph.closed_form_nv1().value == pytest.approx(400 * math.pi)
        assert sph.quadrature_nv1().value == pytest.approx(400 * math.pi, rel=1e-9)
        line = family("sphere", m=[10], r=1)  # d = 1: the interval i[9, 11]
        assert line.quadrature_nv1().value == pytest.approx(
            line.closed_form_nv1().value, rel=1e-15)

    def test_sphere_monte_carlo(self):
        sph = family("sphere", m=[10, 20], r=1)
        mc = sph.instance().mc_nv1(200000, seed=11)
        assert abs(mc.value - 400 * math.pi) <= mc.error

    def test_sphere_domain(self):
        with pytest.raises(ValueError):
            family("sphere", m=[2, 10], r=2).instance()

    def test_unit_ball_volumes(self):
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)

    def test_sector_quadrature_vs_refined(self):
        sec = family("sector", p=1.0, q=2.0, alpha=0.75)
        for t in (100.0, 1000.0):
            q = sec.quadrature_vc(1.0, t).value
            r = sec.refined_vc(1.0, t).value
            assert q == pytest.approx(r, rel=1e-9)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_sector_quadrature_against_mpmath(self, c):
        # the volume as a nested mpmath quad of both weights at 20 digits;
        # on these smooth weights Gauss-Legendre of degree 4 agrees with
        # tanh-sinh at 30 digits to 1e-21 relative, at a tenth of the cost
        sec = family("sector", p=1.0, q=2.0, alpha=0.75)
        for t in (10.0, 1e3, 1e6):
            lo, hi = sec._resolve(t)
            with mpmath.workdps(20):
                e = (mpmath.mpf(c) - 1) / 2

                def w(l):
                    return (l - mpmath.mpf(0.25)) ** e / 2

                def gl(f, a, b):
                    return mpmath.quad(f, [a, b], method="gauss-legendre",
                                       maxdegree=4)

                want = gl(lambda l1: w(l1) * gl(w, sec.p * l1, sec.q * l1),
                          lo, hi)
            got = sec.quadrature_vc(c, t)
            assert abs(got.value - want) <= 1e-14 * want, t

    def test_sector_leading_term_ratio_improves(self):
        sec = family("sector", p=1.0, q=2.0, alpha=0.75)
        errs = [abs(sec.quadrature_vc(1.0, t).value /
                    sec.closed_form_vc(1.0, t).value - 1)
                for t in (100.0, 10000.0)]
        assert errs[1] < errs[0]

    def test_sector_errors_bound_the_exact_volume(self):
        # refined_vc is exact at c = 1 and bounded off it; the leading term's
        # error adds its distance to refined_vc
        sec = family("sector", p=1.0, q=2.0, alpha=0.75)
        for c in (0.5, 1.0, 2.0):
            for t in (10.0, 100.0, 1e4):
                exact = sec.quadrature_vc(c, t)
                for res in (sec.refined_vc(c, t), sec.closed_form_vc(c, t)):
                    assert abs(res.value - exact.value) <= res.error + exact.error
        lead = sec.closed_form_vc(1.0, 100.0)
        assert lead.method == "leading term"
        assert lead.error == pytest.approx(
            sec.refined_vc(1.0, 100.0).value - lead.value, rel=1e-12)

    def test_sector_domain(self):
        with pytest.raises(ValueError):
            family("sector", p=2.0, q=1.0, alpha=0.75)
        with pytest.raises(ValueError):
            family("sector", p=1.0, q=2.0, alpha=1.5)
        # t < 1.25 (1 + 1/p) = 2.5: every volume method rejects the t that
        # instance rejects, and accepts the boundary
        sec = family("sector", p=1.0, q=2.0, alpha=0.5)
        for method in (sec.instance, sec.closed_form_nv1,
                       lambda t: sec.closed_form_vc(1.0, t),
                       lambda t: sec.refined_vc(1.0, t),
                       lambda t: sec.quadrature_vc(1.0, t)):
            with pytest.raises(ValueError, match="t too small"):
                method(2.4)
            method(2.5)

    def test_sector_mc(self):
        sec = family("sector", p=1.0, q=2.0, alpha=0.75)
        inst = sec.instance(50.0)
        mc = inst.mc_nv1(200000, seed=12)
        assert abs(mc.value - sec.quadrature_vc(1.0, 50.0).value) <= mc.error

    def test_slant_quadrature_matches_elementary(self):
        fam = family("slanted-strip", a=1.0, b=0.0, c=1.0)
        t = 10.0
        # integral of x*((x+1)^2 - x^2)/2 = x(2x+1)/2 over [10, 20]
        exact = (2 * (20 ** 3 - 10 ** 3) / 3 + (400 - 100) / 2) / 2
        assert fam.quadrature_nv1(t).value == pytest.approx(exact, rel=1e-10)

    def test_slant_leading_term(self):
        fam = family("slanted-strip", a=1.0, b=0.0, c=1.0)
        t = 1000.0
        assert fam.quadrature_nv1(t).value == pytest.approx(
            fam.closed_form_nv1(t).value, rel=0.02)

    def test_slant_leading_term_error_is_the_remainder(self):
        # (0.001, 0, 100) at t = 1000 has a remainder 30 times the value
        for a, b, c in ((1, 0, 1), (2, -1, 3), (0.5, 1, 1.5), (0.001, 0, 100)):
            fam = family("slanted-strip", a=a, b=b, c=c)
            for t in ((5, 10, 1000) if a >= 0.5 else (1000, 1777)):
                lead = fam.closed_form_nv1(float(t))
                exact = _strip_volume(a, b, c, t)
                assert lead.method == "leading term"
                assert abs(Fraction(lead.value) - exact) <= lead.error
                assert lead.error == pytest.approx(
                    float(exact - Fraction(lead.value)), rel=1e-9)

    @pytest.mark.parametrize("a, b, c, t", [
        (1, 0, 1, 5), (2, -1, 3, 1000), (0.5, 1, 1.5, 1000),
        (0.001, 0, 100, 1777), (3.7, -2.5, 9.1, 12345.6)])
    def test_slant_quadrature_error_covers_exact_volume(self, a, b, c, t):
        # at large t the integrand must not difference two squares of the
        # strip's edges, whose rounding quad's estimate does not see
        res = family("slanted-strip", a=a, b=b, c=c).quadrature_nv1(t)
        assert abs(Fraction(res.value) - _strip_volume(a, b, c, t)) <= res.error

    def test_slant_mc(self):
        fam = family("slanted-strip", a=1.0, b=0.0, c=1.0)
        mc = fam.instance(5.0).mc_nv1(200000, seed=13)
        assert abs(mc.value - fam.quadrature_nv1(5.0).value) <= mc.error

    def test_slant_domain(self):
        with pytest.raises(ValueError):
            family("slanted-strip", a=-1.0, b=0.0, c=1.0)
        with pytest.raises(ValueError):
            family("slanted-strip", a=1.0, b=1.0, c=0.0)
        # the strip needs t >= 1 and a t + b >= 1
        fam = family("slanted-strip", a=1.0, b=-1.0, c=1.0)
        for method in (fam.instance, fam.closed_form_nv1, fam.quadrature_nv1):
            for t in (0.1, 1.5):
                with pytest.raises(ValueError, match="strip must lie"):
                    method(t)
            method(2.0)

    def test_simplex_closed_form_values(self):
        assert family("simplex", n=2).closed_form_nv1(4.5).value == pytest.approx(0.5)
        assert family("simplex", n=1).closed_form_nv1(3.25).value == pytest.approx(1.0)
        assert family("simplex", n=2).closed_form_nv1(2.0).value == 0.0

    def test_simplex_mc(self):
        for n, Y in ((2, 4.5), (3, 6.0)):
            fam = family("simplex", n=n)
            mc = fam.instance(Y).mc_nv1(300000, seed=14)
            assert abs(mc.value - fam.closed_form_nv1(Y).value) <= mc.error
