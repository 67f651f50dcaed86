import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from specsum.measures import nu_theta, plancherel_density
from specsum.testfunctions import (
    _density_slope_bound,
    gaussian_phi,
    gaussian_tail,
    local_comparison,
    phi_p,
    smoothing_discrepancy_bound,
)


class TestGaussian:
    def test_peak_value(self):
        g = gaussian_phi(10.0, 100.0)
        assert g(10j).real >= math.sqrt(100 / math.pi)

    def test_even(self):
        g = gaussian_phi(3.0, 50.0)
        for z in (2j, 0.1 + 5j, 0.25 - 1j):
            assert g(-z) == pytest.approx(g(z), abs=1e-12)

    def test_unit_mass_on_axis(self):
        g = gaussian_phi(10.0, 100.0)
        v, _ = quad(lambda t: g(1j * t).real, 0, 20, limit=200)
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_vanishes_at_discrete_points(self):
        g = gaussian_phi(5.0, 30.0)
        for b in (2, 3, 4, 9):
            assert g((b - 1) / 2.0 + 0j) == 0.0

    def test_vanishes_off_strip(self):
        g = gaussian_phi(5.0, 30.0)
        assert g(0.4 + 1j) == 0.0

    def test_rejects_small_q(self):
        with pytest.raises(ValueError):
            gaussian_phi(0.5, 100.0)

    def test_rejects_small_U(self):
        with pytest.raises(ValueError):
            gaussian_phi(2.0, 0.5)

    @pytest.mark.parametrize("U", [math.inf, math.nan])
    def test_rejects_non_finite_U(self, U):
        # the rule's step 0.15 / sqrt(U) would be 0 at U = inf
        with pytest.raises(ValueError, match="U must be finite"):
            gaussian_phi(2.0, U)


class TestPhiP:
    def test_at_zero(self):
        assert phi_p(1.0, a=3.0)(0) == pytest.approx(1.0)
        assert phi_p(2.0, a=3.0)(0) == pytest.approx(1 / 8)

    def test_positive_on_axes(self):
        f = phi_p(1.0, a=3.0)
        for z in (0, 0.29 + 0j, 5j, 100j, 2.0 + 0j):
            assert f(complex(z)).real > 0
            assert abs(f(complex(z)).imag) < 1e-12

    def test_decay_exponent_fit(self):
        f = phi_p(1.0, a=3.0)
        ts = np.geomspace(10, 1e3, 20)
        slope = np.polyfit(np.log(ts), np.log([abs(f(1j * t)) for t in ts]), 1)[0]
        assert slope == pytest.approx(-3.0, abs=0.05)

    def test_rejects_p_below_tau(self):
        with pytest.raises(ValueError):
            phi_p(0.2, a=3.0, tau=0.3)


class TestValidator:
    @pytest.mark.parametrize("tau,a", [(0.3, 3.0), (0.45, 6.0)])
    def test_constructions_pass(self, tau, a):
        # sampled defining conditions on the strip: evenness, Cauchy-Riemann
        # agreement of difference quotients, and a finite sup
        h = 1e-6
        pts = [complex(r, s) for r in (0.0, tau / 2) for s in (0.5, 2.0, 7.0)]
        for f in (gaussian_phi(3.0, 25.0, tau=tau, a=a),
                  phi_p(1.0, a=a, tau=tau)):
            for z in pts:
                assert abs(f(-z) - f(z)) <= 1e-10, f.provenance
                dx = (f(z + h) - f(z - h)) / (2 * h)
                dy = (f(z + 1j * h) - f(z - 1j * h)) / (2j * h)
                scale = max(abs(dx), abs(dy), 1.0)
                assert abs(dx - dy) / scale <= 1e-4, f.provenance
                assert math.isfinite(abs(f(z)))


class TestGaussianTail:
    def test_total_mass(self):
        assert gaussian_tail(0.0, 0) == pytest.approx(math.sqrt(math.pi) / 2)

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_quadrature_oracle(self, l):
        for b in (0.0, 0.7, 1.5, 3.0):
            v, _ = quad(lambda x: x ** l * math.exp(-x * x), b, b + 40)
            assert gaussian_tail(b, l) == pytest.approx(v, rel=1e-9)

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_bound_constant_below_two(self, l):
        for b in np.linspace(1, 5, 30):
            assert gaussian_tail(b, l) <= 2 * b ** (l - 1) * math.exp(-b * b)


class TestLocalComparison:
    def test_grid_bounds(self):
        for U in (25.0, 100.0, 400.0):
            for al in (0.3, 0.5, 1.0):
                for q in (2.0, 10.0, 50.0):
                    I, J = local_comparison(U, (q, "principal"), al)
                    bound = 10 * math.exp(-U * al * al)
                    assert abs(I - 1) <= bound
                    assert 0 <= J <= bound

    def test_total_mass_split(self):
        U, q = 100.0, 10.0
        for al in (0.3, 0.5):
            I, J = local_comparison(U, (q, "principal"), al)
            assert I + J == pytest.approx(1.0, abs=1e-10)

    def test_complementary_identically_zero(self):
        for x in (0.01, 0.05, 0.11):
            I, J = local_comparison(100.0, (x, "complementary"), 0.3)
            assert I == 0.0
            assert J <= math.exp(-100 * 0.09)

    def test_complementary_against_mpmath(self):
        # J = int_1^b 2 sqrt(U/pi) e^{U(x^2-t^2)} cos(2Utx) dt, b = 1 + 40/sqrt(U),
        # by 40-digit quadrature; at larger U the integral is too small for
        # the quadrature's absolute tolerance
        for U in (7.5, 25.0):
            for x in (0.01, 0.05, nu_theta()):
                _, J = local_comparison(U, (x, "complementary"), 0.4)
                with mpmath.workdps(40):
                    pref = 2 * mpmath.sqrt(U / mpmath.pi)
                    want = mpmath.quad(
                        lambda t: pref * mpmath.exp(U * (x * x - t * t))
                        * mpmath.cos(2 * U * t * x),
                        mpmath.linspace(1, 1 + 40 / mpmath.sqrt(U), 40))
                assert abs(J - want) <= 1e-14 * abs(want)

    def test_small_nu_inner_region(self):
        # nu below i[1+alpha): I = O(1), J still exponentially small
        I, J = local_comparison(100.0, (1.1, "principal"), 0.5)
        assert 0 <= I <= 1 + 1e-12
        assert J <= 10 * math.exp(-100 * 0.25)

    def test_alpha_floor(self):
        with pytest.raises(ValueError):
            local_comparison(100.0, (5.0, "principal"), 0.05)


def gaussian_pairing(q, U, parity=0):
    """2 int_0^inf g(it) density_parity(t) dt for g = gaussian_phi(q, U).

    g vanishes at the discrete points and is below e^-1600 past 40/sqrt(U)
    from q, so the integral over [0, q + 40/sqrt(U)] is the whole pairing.
    """
    g = gaussian_phi(q, U)
    w = 40 / math.sqrt(U)
    return 2 * float(mpmath.quad(
        lambda t: (g(1j * float(t)).real
                   * plancherel_density(parity, float(t))),
        [0, max(q - w, 0.0), q, q + w]))


class TestSmoothingComparison:
    def test_pairing_matches_density(self):
        for q in (5.0, 10.0):
            assert gaussian_pairing(q, 400.0) == pytest.approx(
                2 * plancherel_density(0, q), abs=1e-8)

    def test_pairing_parity_one(self):
        assert gaussian_pairing(10.0, 400.0, parity=1) == pytest.approx(
            2 * plancherel_density(1, 10.0), abs=1e-8)

    def test_envelope_slope(self):
        Us = [1e2, 1e3, 1e4]
        vals = [smoothing_discrepancy_bound(10.0, U) for U in Us]
        slope = np.polyfit(np.log(Us), np.log(vals), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_envelope_dominates_raw_difference(self):
        for U in (1e2, 1e3):
            raw = abs(gaussian_pairing(10.0, U) - 2 * plancherel_density(0, 10.0))
            assert raw <= smoothing_discrepancy_bound(10.0, U)

    def test_slope_bound_is_the_exact_sup(self):
        # d/dt [t tanh(pi t)] peaks at x*/pi, x* the root of x tanh x = 1,
        # with value x*; d/dt [t coth(pi t)] rises towards 1
        def slope(parity, t):
            f = mpmath.tanh if parity == 0 else mpmath.coth
            return mpmath.diff(lambda s: s * f(mpmath.pi * s), t)

        with mpmath.workdps(30):
            x = mpmath.findroot(lambda x: x * mpmath.tanh(x) - 1, 1.2)
            M0, M1 = _density_slope_bound(0), _density_slope_bound(1)
            assert x <= M0 <= x + 1e-15
            assert abs(slope(0, x / mpmath.pi) - x) <= mpmath.mpf(10) ** -25
            assert M1 == 1
            for t in mpmath.linspace(0.01, 12, 200):
                assert slope(0, t) <= M0 and slope(1, t) < M1
            assert slope(1, 12) > 1 - 1e-12

    def test_envelope_preconditions(self):
        with pytest.raises(ValueError):
            smoothing_discrepancy_bound(10.0, 2.0)
        with pytest.raises(ValueError):
            smoothing_discrepancy_bound(0.5, 100.0)
        with pytest.raises(ValueError, match="parity"):
            smoothing_discrepancy_bound(10.0, 25.0, parity=2)
