import cmath
import json
import math
import random
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from specsum import besseltransform
from specsum.besseltransform import (
    PrecisionError,
    bessel_j,
    bessel_j_err,
    transform_axis,
    transform_contour,
)
from specsum.measures import MeasureResult
from specsum.testfunctions import LocalTestFunction, gaussian_phi, phi_p


class TestBesselJ:
    def test_reference_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 1.0).real == pytest.approx(0.4400505857449335, abs=1e-12)
        assert bessel_j(3, 0.0) == 0.0

    def test_against_scipy_real_orders(self):
        for n in range(0, 21):
            for x in (0.5, 1.0, 5.0, 15.0, 30.0):
                assert bessel_j(n, x).real == pytest.approx(jv(n, x), abs=1e-10)

    def test_recurrence_residual(self):
        # J_{n-1} + J_{n+1} = (2n/x) J_n
        for n in range(1, 20):
            for x in (1.0, 10.0, 30.0):
                res = bessel_j(n - 1, x) + bessel_j(n + 1, x) \
                    - 2 * n / x * bessel_j(n, x)
                assert abs(res) <= 1e-9

    def test_against_mpmath_imaginary_orders(self):
        for y in (0.5, 2.0, 10.0):
            for x in (0.3, 1.0, 8.0):
                ref = complex(mpmath.besselj(2j * y, x))
                assert bessel_j(2j * y, x) == pytest.approx(ref, abs=1e-10)

    def test_continuity_in_order(self):
        for mu0 in (3.0, 0.0, 2j):
            base = bessel_j(mu0, 2.5)
            near = bessel_j(mu0 + 1e-7, 2.5)
            assert abs(base - near) < 1e-5

    def test_negative_integer_order_reflection(self):
        # J_{-n} = (-1)^n J_n; exercises the reciprocal-gamma zero handling
        for n in (1, 2, 5):
            assert bessel_j(-n, 3.0) == pytest.approx(
                (-1) ** n * bessel_j(n, 3.0), abs=1e-12)

    def test_declared_error_honest(self):
        for mu in (0, 7, 1j):
            for x in (1.0, 20.0, 30.0):
                v, e = bessel_j_err(mu, x)
                assert abs(v - complex(mpmath.besselj(mu, x))) <= max(e, 1e-12)

    @pytest.mark.parametrize("case", [False, True, "array"])
    def test_declared_error_bounds_true_error(self, case):
        # orders 2 nu on the transforms' contours (Re nu = 0.3, Im nu up to
        # the axis height 65; 2 nu = 0.6 + 13.24i is where the leading
        # term's rounding once went undeclared) and the discrete-series
        # orders, at the default atol (case False) and at the transforms'
        # atol (True), which is scaled by the cosh(pi y) that divides J out
        # again; "array" is the transforms' series over all orders at once,
        # at the scaled atol, which must also agree with the scalar series.
        # A double cannot hold J to better than half an ulp, so the true
        # error may exceed atol by that much where |J| is huge.
        orders = [0.6 + 2j * y for y in (0, 0.1, 0.5, 2, 5, 6.62, 10, 20,
                                         40, 65)]
        orders += [complex(n) for n in range(21)]
        # user orders that take the log-gamma's reflection (Re mu < -1/2)
        # and a large non-integer real part
        orders += [-50.5, -3.5 + 2j, 60.25]
        atols = [1e-10 * math.cosh(math.pi * mu.imag / 2) if case else 1e-10
                 for mu in orders]
        for x in (1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 8.0, 15.0, 30.0):
            if case == "array":
                got = zip(*besseltransform._bessel_j_nodes(
                    np.array(orders), x, np.array(atols)))
            else:
                got = (bessel_j_err(mu, x, **({"atol": atol} if case else {}))
                       for mu, atol in zip(orders, atols))
            for mu, atol, (v, e) in zip(orders, atols, got):
                with mpmath.workdps(40):
                    ref = mpmath.besselj(mpmath.mpc(mu), mpmath.mpf(x))
                    true = float(abs(mpmath.mpc(v) - ref))
                assert true <= e, (mu, x)
                assert true <= atol + 2.3e-16 * float(abs(ref)), (mu, x)
                if case == "array":
                    sv, se = bessel_j_err(mu, x, atol=atol)
                    assert abs(v - sv) <= e + se, (mu, x)

    def test_rejects_beyond_window(self):
        with pytest.raises(ValueError):
            bessel_j(0, 2e3)
        with pytest.raises(ValueError):
            bessel_j(300j, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)

    def test_leading_term_beyond_double_range(self):
        # (x/2)^mu and 1/Gamma(mu+1) over- and underflow apart, not together
        assert bessel_j_err(5000, 100.0) == (0j, 0.0)
        with pytest.raises(ValueError, match="beyond the range"):
            bessel_j_err(-300.5, 1.0)

    def test_j_beyond_double_range(self, fallback_calls):
        # L just inside the range of a double, but L S, S > 1, beyond it
        with pytest.raises(ValueError, match="J or its error beyond"):
            bessel_j_err(-170.5, 1.9204487796839393)
        assert fallback_calls == [(-170.5, 1.9204487796839393)]

    def test_fails_loudly_on_cancellation(self, fallback_calls):
        # beyond the doubled budget of the extended-precision series
        with pytest.raises(PrecisionError, match="doubled budget"):
            bessel_j(0, 200.0)
        assert fallback_calls == [(0j, 200.0)]


def _lead_points(seed=20):
    """(mu, x) for the leading term (x/2)^mu / Gamma(mu+1), seeded: the
    transforms' orders 2iy (axis) and 2 tau + 2ix (contour) up to the
    imaginary window 260, the discrete series' integer orders, negative
    non-integer real parts (the reflection), small orders (the shift) and
    large real parts; x
    log-uniform over the supported (1e-4, 1e3), or over (mu/2, 1e3) for
    the large real parts, whose term underflows at smaller x."""
    rng = random.Random(seed)
    im = 2 * besseltransform._IM_CAP

    def x():
        return 10 ** rng.uniform(-4, 3)

    points = [(complex(0, rng.uniform(0, im)), x()) for _ in range(1500)]
    points += [(complex(rng.uniform(0.5, 1), rng.uniform(0, im)), x())
               for _ in range(1500)]
    points += [(complex(n), x()) for n in range(1, 62) for _ in range(25)]
    points += [(complex(-rng.uniform(0, 60), rng.uniform(-20, 20) * (i % 2)),
                x()) for i in range(1000)]
    points += [(complex(rng.uniform(-0.5, 10), rng.uniform(-9, 9) * (i % 2)),
                x()) for i in range(500)]
    for i in range(1000):  # x from mu/2 on, where the term is not all 0
        re = rng.uniform(60, 1800)
        points.append((complex(re, rng.uniform(-im, im) * (i % 2)),
                       re / 2 * (2e3 / re) ** rng.random()))
    return points


@pytest.fixture(scope="module")
def lead_refs():
    """Each point with its leading term at 40 digits."""
    refs = []
    with mpmath.workdps(40):
        for mu, x in _lead_points():
            m = mpmath.mpc(mu)
            refs.append((mu, x, (mpmath.mpf(x) / 2) ** m * mpmath.rgamma(m + 1)))
    return refs


class TestLogGamma:
    """The leading term exp(mu log(x/2) - ln Gamma(mu+1)) of both series
    against mpmath: within half of the relative error _declared_error allows
    it, plus one subnormal ulp where it underflows."""

    @staticmethod
    def check(mu, x, got, ref):
        rel = besseltransform._lead_rel(mu, math.log(x / 2))
        with mpmath.workdps(40):
            assert abs(mpmath.mpc(got) - ref) <= rel / 2 * abs(ref) + 5e-324, \
                (mu, x)

    def test_scalar(self, lead_refs):
        assert len(lead_refs) >= 6000
        beyond = 0
        for mu, x, ref in lead_refs:
            lead = mu * math.log(x / 2) - besseltransform._log_gamma(mu + 1)
            if abs(ref) > sys.float_info.max:
                beyond += 1
                assert lead.real > besseltransform._LOG_MAX, (mu, x)
                with pytest.raises(ValueError, match="beyond the range"):
                    bessel_j_err(mu, x)
                continue
            self.check(mu, x, cmath.exp(lead), ref)
        assert 0 < beyond < 100

    def test_array(self, lead_refs):
        rows = [r for r in lead_refs if abs(r[2]) <= sys.float_info.max]
        mu = np.array([r[0] for r in rows])
        log_half = np.log(np.array([r[1] for r in rows]) / 2)
        got = np.exp(mu * log_half - besseltransform._log_gamma_nodes(mu + 1))
        for (m, x, ref), g in zip(rows, got):
            self.check(m, x, complex(g), ref)

    def test_reflection_past_sin_overflow(self):
        # sin(pi z) overflows a double beyond |Im z| of about 226
        for mu in (-3.5 + 250j, -3.5 - 250j, -0.7 + 240j, -20.25 + 230j):
            got = cmath.exp(-besseltransform._log_gamma(mu + 1))
            with mpmath.workdps(40):
                self.check(mu, 2.0, got, mpmath.rgamma(mpmath.mpc(mu) + 1))


@pytest.fixture(scope="module")
def gauss():
    return gaussian_phi(10.0, 25.0)


@pytest.fixture(scope="module")
def power():
    return phi_p(1.0, a=3.0)


class TestTransforms:
    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_axis_contour_agree_gaussian(self, gauss, parity, t):
        a = transform_axis(gauss, parity, 1, t)
        c = transform_contour(gauss, parity, 1, t)
        assert abs(a.value - c.value) <= a.error + c.error

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_axis_contour_agree_power(self, power, parity, t):
        a = transform_axis(power, parity, 1, t)
        c = transform_contour(power, parity, 1, t)
        assert abs(a.value - c.value) <= a.error + c.error

    def test_cross_check_is_informative(self):
        # a value of order 1e-10: unless both errors are far below it, the
        # agreement of the two formulas shows nothing
        phi = phi_p(2.0, a=8.0)
        a = transform_axis(phi, 1, 1, 2.1e-4)
        c = transform_contour(phi, 1, 1, 2.1e-4)
        assert abs(a.value - c.value) <= a.error + c.error
        assert a.error + c.error < abs(a.value) / 10

    def test_parity_zero_even_in_t(self, gauss):
        v1 = transform_axis(gauss, 0, 1, 2.0).value
        v2 = transform_axis(gauss, 0, 1, -2.0).value
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_parity_one_odd_in_t(self, gauss):
        v1 = transform_axis(gauss, 1, 1, 2.0).value
        v2 = transform_axis(gauss, 1, 1, -2.0).value
        assert v1 == pytest.approx(-v2, abs=1e-12)

    def test_parity_one_sign_flip(self, gauss):
        v1 = transform_axis(gauss, 1, 1, 2.0).value
        v2 = transform_axis(gauss, 1, -1, 2.0).value
        assert v1 == pytest.approx(-v2, abs=1e-12)

    def test_parity_one_imaginary_parity_zero_real(self, power):
        v0 = transform_axis(power, 0, 1, 3.0).value
        v1 = transform_axis(power, 1, 1, 3.0).value
        assert abs(v0.imag) < 1e-12
        assert abs(v1.real) < 1e-12

    def test_discrete_only_input_exact(self):
        # a function supported on the single discrete point q = 2 (b = 5)
        d = LocalTestFunction(lambda nu: float(nu in (2, -2)), 0.3, 3.0,
                              "delta")
        for t in (0.5, 3.0):
            got = transform_axis(d, 1, 1, t)
            want = -1j * 4 * bessel_j(4, t)
            assert got.value == pytest.approx(want, abs=1e-12)

    def test_contour_rejects_untagged(self):
        d = LocalTestFunction(lambda nu: float(nu in (2, -2)), 0.3, 3.0,
                              "delta")
        with pytest.raises(ValueError):
            transform_contour(d, 1, 1, 1.0)

    def test_rejects_t_zero(self, gauss):
        with pytest.raises(ValueError):
            transform_axis(gauss, 0, 1, 0.0)
        with pytest.raises(ValueError):
            transform_contour(gauss, 0, 1, 0.0)

    def test_result_fields(self, gauss):
        r = transform_axis(gauss, 0, 1, 1.0)
        assert isinstance(r, MeasureResult)
        assert r.method == "axis"
        assert r.error >= 0
        assert transform_contour(gauss, 0, 1, 1.0).method == "contour"


def _mp_transform(phi, formula, parity, t):
    """The transform, by mpmath Gauss-Legendre quadrature at 30 digits of
    its integrand over the same range as the library's rule, plus the
    discrete sum with mpmath's J.  The panels are short enough for 24 nodes
    each: 2/sqrt(U) about a gaussian's bump; H/26 for phi_p, and below H/26
    halving towards 0 down to d/8, d being the distance from the line of
    integration to the nearest singularity.  A gaussian's panels cover only
    q +- 10/sqrt(U): beyond them its integrand is below e^{U tau^2 - 100} of
    its peak."""
    tau = phi.tau if formula == "contour" else 0.0
    nodes = besseltransform._nodes(phi, parity, tau)
    lo, H = float(nodes[0]), float(nodes[-1])
    with mpmath.workdps(30):
        if phi.provenance == "gaussian":
            q, U = phi.params["q"], phi.params["U"]
            root_u = math.sqrt(U)
            pts = [min(max(lo, q + k / root_u), H) for k in range(-10, 11, 2)]
            c, iq = mpmath.sqrt(U / mpmath.pi), mpmath.mpc(0, q)

            def f(nu):
                return c * (mpmath.exp(U * (iq - nu) ** 2)
                            + mpmath.exp(U * (iq + nu) ** 2))
        else:
            p, a = phi.params["p"], mpmath.mpf(phi.a)
            d = min((1 + parity) / 2, p) - tau  # to the nearest singularity
            pts = sorted({*np.linspace(0.0, H, 27),
                          *(d * 2.0 ** k for k in range(-3, 6)
                            if d * 2.0 ** k < H / 26)})

            def f(nu):
                return (p * p - nu * nu) ** (-a / 2)

        def axis(y):
            if y == 0:
                return 2 * f(0).real * mpmath.besselj(0, t) / mpmath.pi \
                    if parity else 0
            J = mpmath.besselj(2j * y, t)
            if parity == 0:
                return -2 * y * f(1j * y).real * J.imag \
                    / mpmath.cosh(mpmath.pi * y)
            return 2 * y * f(1j * y).real * J.real / mpmath.sinh(mpmath.pi * y)

        def contour(x):
            nu = tau + 1j * x
            return 2 * (f(nu) * nu * mpmath.besselj(2 * nu, t)
                        / mpmath.cos(mpmath.pi * (nu - parity / 2))).real

        value = mpmath.quad(axis if formula == "axis" else contour, pts,
                            method="gauss-legendre", maxdegree=4)
        value += sum((-1) ** (b // 2) * (b - 1) * phi((b - 1) / 2).real
                     * mpmath.besselj(b - 1, t)
                     for b in range(2 + parity, 61, 2))
        return complex(value) * (-1j) ** parity


def _error_cases():
    """gaussians on a default and on a near-edge strip (tau = 0.49, 0.01
    from the parity-0 contour's pole), the ill-conditioned gaussian contour
    at U = 400 (|phi| reaches e^{U tau^2} = e^{36} there, so the value is a
    cancellation of integrand values near 1e17), and phi_p(2, a=8), each
    formula at both parities somewhere (the gaussian axis at parity 1 has
    the node nu = 0, where the integrand takes its limit); t is drawn
    log-uniformly from [0.1, 5], seeded."""
    rng = random.Random(16)
    cases = [("U90", gaussian_phi(2.5, 90.0), "contour", 1),
             ("U90-tau0.49", gaussian_phi(2.5, 90.0, tau=0.49), "axis", 0),
             ("U90-tau0.49", gaussian_phi(2.5, 90.0, tau=0.49), "contour", 0),
             ("U400", gaussian_phi(2.5, 400.0), "contour", 0),
             ("phi_p", phi_p(2.0, a=8.0), "axis", 1),
             ("phi_p", phi_p(2.0, a=8.0), "contour", 1),
             ("U90", gaussian_phi(2.5, 90.0), "axis", 1),
             ("phi_p", phi_p(2.0, a=8.0), "axis", 0)]
    return [pytest.param(phi, formula, parity, 0.1 * 50 ** rng.random(),
                         id=f"{name}-{formula}-{parity}")
            for name, phi, formula, parity in cases]


class TestTransformError:
    """The declared error of both formulas covers the distance to mpmath
    quadrature at 30 digits (_mp_transform), on _error_cases."""

    @pytest.mark.parametrize("phi, formula, parity, t", _error_cases())
    def test_error_covers_mpmath(self, phi, formula, parity, t):
        transform = transform_axis if formula == "axis" else transform_contour
        got = transform(phi, parity, 1, t)
        assert abs(got.value - _mp_transform(phi, formula, parity, t)) \
            <= got.error


class TestNearSingularity:
    """The contour's step shrinks as tau or p nears a singularity of the
    integrand, within a bounded number of steps; beyond it, ValueError."""

    @pytest.mark.parametrize("phi, parity", [
        (phi_p(0.30000001), 0),                 # branch point 1e-8 away
        (phi_p(0.30000001), 1),
        (gaussian_phi(1.0, 25.0, tau=0.49999), 0),  # pole 1e-5 away
    ])
    def test_too_close_is_rejected_at_once(self, phi, parity):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 32768"):
            transform_contour(phi, parity, 1, 1.0)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("parity", [0, 1])
    def test_closest_accepted_is_fast_and_covered(self, parity):
        # p = 0.3 + 65 * 8 / 32000: just inside the bound on phi_p's [0, 65]
        phi = phi_p(0.31625, a=8.0)
        start = time.perf_counter()
        got = transform_contour(phi, parity, 1, 1.0)
        assert time.perf_counter() - start < 1.0
        assert len(besseltransform._nodes(phi, parity, phi.tau)) > 32000
        assert abs(got.value - _mp_transform(phi, "contour", parity, 1.0)) \
            <= got.error


class TestSmallT:
    def test_exponent_fit_near_contour_singularity(self):
        # decay like |t|^{2 tau} is realized by a test function whose
        # singularity sits just beyond the contour Re nu = tau
        f = phi_p(0.32, a=2.1, tau=0.3)
        ts = np.geomspace(1e-4, 1e-2, 10)
        for parity in (0, 1):
            vals = [abs(transform_contour(f, parity, 1, float(t)).value)
                    for t in ts]
            slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
            assert slope == pytest.approx(2 * 0.3, abs=0.05)

    def test_gaussian_bounded_by_power_envelope(self):
        # the gaussian transform decays at least as fast as |t|^{2 tau}
        g = gaussian_phi(10.0, 25.0)
        ts = np.geomspace(1e-4, 10.0, 12)
        vals = np.array([abs(transform_contour(g, 0, 1, float(t)).value)
                         for t in ts])
        assert np.all(np.isfinite(vals)) and np.any(vals > 0)
        small = (ts < 1) & (vals > 0)
        slope = np.polyfit(np.log(ts[small]), np.log(vals[small]), 1)[0]
        assert slope >= 2 * 0.3 - 0.05


class TestParityAndSign:
    @pytest.mark.parametrize("transform", [transform_axis, transform_contour])
    @pytest.mark.parametrize("parity, eta", [(2, 1), (-1, 1), (1, 5),
                                             (0, 0), (1, -2)])
    def test_rejected(self, transform, parity, eta):
        with pytest.raises(ValueError):
            transform(gaussian_phi(10, 25), parity, eta, 0.5)

    def test_eta_is_a_sign(self):
        phi = gaussian_phi(10, 25)
        plus = transform_axis(phi, 1, 1, 0.5).value
        assert transform_axis(phi, 1, -1, 0.5).value == -plus


# --------------------------------------------------------------------------
# the extended-precision series
# --------------------------------------------------------------------------

FALLBACK = Path(__file__).resolve().parent / "data" / "bessel_fallback.json"


def fallback_candidates():
    """Seeded points from the bessel-transforms workload's ranges (orders
    0.6 + 2iy with y in [0.25, 30] at x in [0.01, 30], integer orders 0-9 at
    x in [11, 25]) and orders below -1 that are not integers."""
    rng = random.Random(15)
    pts = [(complex(0.6, 2 * rng.uniform(0.25, 30.0)), rng.uniform(0.01, 30.0))
           for _ in range(40)]
    pts += [(complex(rng.randrange(10)), rng.uniform(11.0, 25.0))
            for _ in range(20)]
    pts += [(complex(mu), rng.uniform(11.0, 25.0))
            for mu in (-1.5, -3.7 + 0.2j, -5.5) for _ in range(2)]
    return pts


def _record_calls(monkeypatch):
    """Wrap the extended-precision series; returns the list of the
    arguments of its calls."""
    calls = []
    inner = besseltransform._series_extended

    def counted(mu, x):
        calls.append((mu, x))
        return inner(mu, x)

    monkeypatch.setattr(besseltransform, "_series_extended", counted)
    return calls


@pytest.fixture
def fallback_calls(monkeypatch):
    return _record_calls(monkeypatch)


def _row(mu, x, v, e):
    return {"order": [repr(mu.real), repr(mu.imag)], "x": repr(x),
            "value": [repr(v.real), repr(v.imag)], "error": repr(e)}


# read at collection; the file is absent only while it is being generated
ROWS = json.loads(FALLBACK.read_text()) if FALLBACK.exists() else []


class TestExtendedSeries:
    """The fallback series, replayed on the points of
    tests/data/bessel_fallback.json, which holds every candidate above that
    reaches it, with the value and error the series gave when the file was
    written.  Regenerate (only on a deliberate change of output) with

        PYTHONPATH=src python tests/test_besseltransform.py
    """

    def test_rows_cover_the_ranges(self):
        orders = {complex(float(r["order"][0]), float(r["order"][1]))
                  for r in ROWS}
        assert len(ROWS) >= 50
        assert {-1.5, -3.7 + 0.2j, -5.5} <= orders
        assert any(mu.imag > 50 for mu in orders)

    @pytest.mark.parametrize("row", ROWS, ids=lambda r: f"{r['order']}@{r['x']}")
    def test_row(self, row, fallback_calls):
        mu = complex(float(row["order"][0]), float(row["order"][1]))
        x = float(row["x"])
        v, e = bessel_j_err(mu, x)
        assert fallback_calls == [(mu, x)]
        assert _row(mu, x, v, e) == row
        with mpmath.workdps(60):
            ref = mpmath.besselj(mpmath.mpc(mu), mpmath.mpf(x))
            assert float(abs(mpmath.mpc(v) - ref)) <= e


def sweep_points(seed=23):
    """Seeded (mu, x) over bessel_j_err's use: the workload's orders
    0.6 + 2iy with y in [0.25, 30] at x in [0.01, 30], integer orders 0-9 at
    x up to 25, non-integer orders below -1 (real and complex), and
    |Im mu| up to 260 at small x, where |J| reaches 1e174."""
    rng = random.Random(seed)
    pts = [(complex(0.6, 2 * rng.uniform(0.25, 30.0)), rng.uniform(0.01, 30.0))
           for _ in range(2500)]
    pts += [(complex(rng.randrange(10)), rng.uniform(0.05, 25.0))
            for _ in range(1000)]
    pts += [(complex(-rng.uniform(1.0, 12.0), rng.uniform(-5, 5) * (i % 2)),
             rng.uniform(0.05, 25.0)) for i in range(1000)]
    pts += [(complex(rng.uniform(0, 1), rng.uniform(-260, 260)),
             10 ** rng.uniform(-4, 0)) for _ in range(1500)]
    return pts


class TestSweep:
    """bessel_j_err against mpmath.besselj at 60 digits on sweep_points, on
    both paths: the double-precision series and the extended one, whose
    value is J correctly rounded."""

    def test_error_covers_mpmath(self, fallback_calls):
        pts = sweep_points()
        assert len(pts) >= 6000
        extended = 0
        for mu, x in pts:
            fallback_calls.clear()
            v, e = bessel_j_err(mu, x)
            with mpmath.workdps(60):
                ref = mpmath.besselj(mpmath.mpc(mu), mpmath.mpf(x))
                assert float(abs(mpmath.mpc(v) - ref)) <= e, (mu, x)
            if fallback_calls:
                extended += 1
                assert v == complex(ref), (mu, x)
        assert extended > 1000 and len(pts) - extended > 500

    def test_leading_term_branch_does_not_matter(self, fallback_calls):
        # _log_gamma and mpmath.loggamma differ by -4 pi i at mu + 1 here:
        # the extended series takes only e^A from the latter
        mu, x = -5.5 + 0.3j, 19.0
        with mpmath.workdps(30):
            gap = complex(mpmath.loggamma(mpmath.mpc(mu) + 1)) \
                - besseltransform._log_gamma(mu + 1)
        assert round(gap.imag / (2 * math.pi)) == -2
        v, _ = bessel_j_err(mu, x)
        assert fallback_calls == [(mu, x)]
        with mpmath.workdps(60):
            assert v == complex(mpmath.besselj(mpmath.mpc(mu), x))


def lead_points(seed=31):
    """Seeded (mu, x) for the fixed-point leading term: real orders, the
    workload's 0.6 + 2iy, complex orders with |Im mu| up to 260, reflected
    orders (Re mu < -1/2, real and complex, and near the poles, where
    t = mu + 1 - n is small), with x from 1e-2 to 1e3."""
    rng = random.Random(seed)
    orders = [complex(rng.uniform(0.0, 40.0)) for _ in range(60)]
    orders += [complex(0.6, 2 * rng.uniform(0.25, 30.0)) for _ in range(60)]
    orders += [complex(rng.uniform(-0.5, 40.0), rng.uniform(-260, 260))
               for _ in range(80)]
    orders += [complex(-rng.uniform(0.5, 60.0),
                       rng.uniform(-260, 260) * (i % 2)) for i in range(120)]
    orders += [-50.5, -3.5 + 2j, -3 + 1e-30j, -7.0000000001, -2 - 1e-9j,
               -0.5 + 0j, 0.5 + 24j, -24.5 + 0.25j]
    return [(complex(mu), 10 ** rng.uniform(-2, 3)) for mu in orders]


class TestLeadingTerm:
    """The extended series' leading term L = (x/2)^mu / Gamma(mu+1), in
    fixed point on Python integers, against mpmath at 60 digits."""

    def test_constants(self):
        with mpmath.workdps(60):
            for value, const in ((mpmath.ln2, besseltransform._LN2_192),
                                 (mpmath.pi, besseltransform._PI_192),
                                 (mpmath.log(2 * mpmath.pi) / 2,
                                  besseltransform._HALF_LOG_2PI_192)):
                assert abs(value * 2 ** 192 - const) <= 0.5

    def test_stirling_table(self):
        # B_2k / (2k (2k - 1)) exactly; the double series takes float() of
        # the first eight
        table = besseltransform._STIRLING
        with mpmath.workdps(60):
            for k, c in enumerate(table, 1):
                ref = mpmath.bernoulli(2 * k) / (2 * k * (2 * k - 1))
                assert abs(mpmath.mpf(c.numerator) / c.denominator - ref) \
                    <= 1e-55 * abs(ref)
        assert [besseltransform._B1, besseltransform._B2, besseltransform._B3,
                besseltransform._B4, besseltransform._B5, besseltransform._B6,
                besseltransform._B7, besseltransform._B8] == \
            [c.numerator / c.denominator for c in table[:8]]

    def test_against_mpmath(self):
        # within the 4e-36 that _leading declares
        pts = lead_points()
        assert len(pts) >= 320
        for mu, x in pts:
            a, b, e, den = besseltransform._leading(
                *besseltransform._dyadic(mu), x)
            with mpmath.workdps(60):
                got = mpmath.mpc(a, b) * mpmath.ldexp(1, e) / den
                m = mpmath.mpc(mu)
                ref = (mpmath.mpf(x) / 2) ** m * mpmath.rgamma(m + 1)
                if not mu.imag:
                    assert b == 0
                    ref = ref.real
                assert abs(got - ref) <= 4e-36 * abs(ref), (mu, x)


class TestArrayPhi:
    """The constructions' evaluators take numpy arrays: an array call equals
    the scalar calls bit for bit, across the strip's edge |Re nu| = tau
    (tau + 1e-12 is still on it) and at nu = 0."""

    @pytest.mark.parametrize("phi", [gaussian_phi(2.5, 90.0), phi_p(2.0, a=8.0)],
                             ids=["gaussian", "phi_p"])
    def test_array_equals_scalar(self, phi):
        tau = phi.tau
        nus = [0j] + [complex(sign * (tau + d), y) for sign in (1, -1)
                      for d in (-1e-12, 0.0, 1e-12, 3e-12) for y in (0, 2.5, 3)]
        values = phi(np.array(nus))
        assert values.dtype == complex and values.shape == (len(nus),)
        assert values.tolist() == [phi(nu) for nu in nus]
        for nu, val in zip(nus, values.tolist()):
            if abs(nu.real) > tau + 1e-12 and phi.provenance == "gaussian":
                assert val == 0
            else:
                assert val != 0

    def test_gaussian_matches_its_scalar_formula(self):
        # the numpy evaluator reproduces the cmath one, so no gaussian
        # transform moved when the transforms began to call it on arrays
        q, U = 2.5, 90.0
        phi = gaussian_phi(q, U)
        rng = random.Random(4)
        nus = [complex(rng.uniform(-0.3, 0.3), rng.uniform(0, 10))
               for _ in range(2000)]
        pref = math.sqrt(U / math.pi)
        want = [pref * (cmath.exp(U * (1j * q - nu) ** 2)
                        + cmath.exp(U * (1j * q + nu) ** 2)) for nu in nus]
        assert phi(np.array(nus)).tolist() == want


if __name__ == "__main__":
    from moved import report

    def decoded(row):
        return {"value": [float(v) for v in row["value"]],
                "error": float(row["error"])}

    rows = []
    with pytest.MonkeyPatch.context() as mp:
        calls = _record_calls(mp)
        for mu, x in fallback_candidates():
            calls.clear()
            v, e = bessel_j_err(mu, x)
            if calls:
                rows.append(_row(mu, x, v, e))
    old = {(tuple(r["order"]), r["x"]): r for r in ROWS}
    for row in rows:
        key = (tuple(row["order"]), row["x"])
        if key in old:
            report(f"J_{complex(*map(float, row['order']))}({row['x']})",
                   decoded(old[key]), decoded(row))
        else:
            print(f"new row: {row}")
    FALLBACK.write_text(json.dumps(rows, indent=1) + "\n")
