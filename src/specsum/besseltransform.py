"""Bessel functions of complex order and Bessel transforms of test functions.

bessel_j uses the ascending power series only (DLMF 10.2.2), with a
cancellation budget that fails loudly instead of returning silently wrong
values; this covers the small-to-moderate arguments the Kloosterman series
produces.  Its leading term (x/2)^mu / Gamma(mu+1) is one exp of
mu log(x/2) - ln Gamma(mu+1), so neither factor can overflow on its own;
ln Gamma is the module's own (_log_gamma): Stirling's series with eight
terms and a remainder below 6e-16 (DLMF 5.11(ii)), after the recurrence
to |z| >= 10 and the reflection for Re z < 1/2, so the module imports no
scipy.  The series is summed in double precision and falls back to an
extended-precision series when the declared double-precision error exceeds
an absolute tolerance `atol` (1e-10 by default), whether the terms cancel
or only the double leading term's rounding times a large |J| misses it:
there the leading term is e^A with A from mpmath.loggamma at 30 digits,
and its ratios to that term are summed exactly in fixed point on Python
integers, so the value is J correctly rounded.

Both transforms are one rule on the line Re nu = shift (_transform):
shift 0 is the spectral axis (plus the discrete-series sum) and shift tau
the shifted contour, whose form scales explicitly like |t|^{2 tau} and is
preferred for small |t|.  The integrand is even and analytic in a strip
about the line, where the trapezoidal rule converges geometrically in 1/h
(Trefethen & Weideman, SIAM Review 56, 2014), so each transform is one
trapezoidal rule on [lo, H] with half weights at both ends (_nodes,
quadrature.trapezoid).  Its step shrinks as the line nears a singularity
of the integrand, and a rule that would need more than _MAX_STEPS steps is
rejected.  Its nodes are known at once, and J is evaluated at all of them
as one numpy array (_bessel_j_nodes).  The declared error is
|T_h - T_2h| + 1e-15 sum w|g| (rounding and cancellation) + sum w|c| e
(the nodes' Bessel errors e, times the factor c the integrand multiplies J
by) + the tail beyond H, which each formula bounds its own way.  Point
values (bessel_j_err, and the discrete sum) stay on the scalar series: for
one order the array machinery costs about 16 times as much.

|J_{2 nu}(t)| grows like e^{pi |Im nu|} and the integrand divides that
growth out again by cos(pi(nu - parity/2)); each node asks for
atol = 1e-10 times that divisor, so the error J adds to the integrand is
about 1e-10 times the factor J is multiplied by there, and the series stays
in double precision wherever it can deliver that.
"""

from __future__ import annotations

import cmath
import math
import sys

import mpmath
import numpy as np

from .measures import MeasureResult, check_parity
from .quadrature import trapezoid
from .testfunctions import CONSTRUCTIONS, LocalTestFunction


class PrecisionError(ArithmeticError):
    """Requested evaluation exceeds the floating-point cancellation budget."""


_CANCELLATION_BUDGET = 1e13
_X_CAP = 1e3
_IM_CAP = 130.0
_ATOL = 1e-10  # default absolute accuracy of a point value
_SERIES_TOL = 1e-13  # stop summing once a term is this small relative to the sum
_SERIES_BITS = 200  # least bits of each term of the extended-precision series


# ln Gamma by Stirling's series (DLMF 5.11.1): the coefficients
# B_2k / (2k (2k - 1)) of w^(1 - 2k), k = 1, ..., 8
_B1, _B2, _B3, _B4, _B5, _B6, _B7, _B8 = (
    1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
    -3617 / 122400)
_HALF_LOG_2PI = 0.5 * math.log(2 * math.pi)
_LOG_PI = math.log(math.pi)
_SHIFT = 10  # |z| below which z is shifted to z + _SHIFT first
# the leading term (x/2)^mu / Gamma(mu + 1) is formed as one exp of its log
_LOG_MAX = math.log(sys.float_info.max)
_BEYOND_DOUBLE = ("leading term (x/2)^mu / Gamma(mu+1) beyond the range of a "
                  "double")


def _stirling(z, shift, log, ratio):
    """ln Gamma(z) for Re z >= 1/2, up to a multiple of 2 pi i, from
    Stirling's series at w = z + shift, |w| >= _SHIFT:

        ln Gamma(z) = ln Gamma(w) - log prod_{k < shift} (z + k)
                    = (z - 1/2) (log w - 1) - (shift + 1/2) + ln(2 pi)/2
                      + sum_{k <= 8} B_2k / (2k (2k - 1) w^(2k-1))
                      - log ratio,

    with ratio = prod_{k < shift} (z + k) / w (1 for shift 0).  z is a
    real or complex number or an array of complex numbers, log the matching
    logarithm, and shift 0 or _SHIFT (an array of those for an array z).

    Remainder: at most sec^18(ph(w)/2) times the first neglected term
    B_18 / (306 w^17) (DLMF 5.11(ii)); with Re w >= 1/2 and |w| >= 10,
    sec^2(ph(w)/2) = 2|w| / (|w| + Re w) <= 1.91, so below 6e-16.

    Rounding: the computed w is z + shift + d, and with (z - 1/2) log w in
    place of (w - shift - 1/2) log w the formula subtracts d log w, the
    first-order correction of ln Gamma(w) for d (psi(w) ~ log w).  So the
    rest of it is (z - 1/2) - w, formed exactly as
    (z - (w - shift)) - (shift + 1/2): w - shift and the difference are
    exact (Sterbenz).  Writing (z - 1/2) log w - w as (z - 1/2)(log w - 1)
    + that saves one rounding at the size of |z log w|.
    """
    w = z + shift
    r = 1 / w
    r2 = r * r
    series = ((((((((_B8 * r2 + _B7) * r2 + _B6) * r2 + _B5) * r2 + _B4) * r2
                 + _B3) * r2 + _B2) * r2 + _B1) * r)
    return (z - 0.5) * (log(w) - 1) + ((z - (w - shift)) - (shift + 0.5)) \
        - log(ratio) + _HALF_LOG_2PI + series


def _rising_ratio(z, w):
    """prod_{k < _SHIFT} (z + k) / w for w = z + _SHIFT, from the five pairs
    (z + k)(z + 9 - k) = q + k (9 - k), q = z (z + 9)."""
    q, w2 = z * (z + 9), w * w
    return q * (q + 8) * (q + 14) * (q + 18) * (q + 20) \
        / (w2 * w2 * (w2 * w2) * w2)


def _log_gamma(z: complex):
    """ln Gamma(z) up to a multiple of 2 pi i (only its exponential is
    used) for one complex z off the poles: _stirling, after the reflection
    Gamma(z) Gamma(1 - z) = pi / sin(pi z) (DLMF 5.5.3) where Re z < 1/2 and
    the shift Gamma(z + 10) = Gamma(z) prod_{k < 10} (z + k) (DLMF 5.5.1)
    where |z| < 10.  A real z >= 1/2 takes real arithmetic."""
    if z.real < 0.5:
        # sin(pi z) = (-1)^n sin(pi t), t = z - n exactly, n nearest Re z
        n = round(z.real)
        t = complex(z.real - n, z.imag)
        if abs(t.imag) < 7:
            log_sin = cmath.log(cmath.sin(math.pi * t))
        else:  # sin overflows; it is e^{pi |y|} / 2 to within e^{-44}
            log_sin = complex(math.pi * abs(t.imag) - math.log(2.0),
                              math.copysign(math.pi * (0.5 - t.real), t.imag))
        return _LOG_PI - log_sin - 1j * math.pi * (n % 2) - _log_gamma(1 - z)
    log = cmath.log
    if not z.imag:
        z, log = z.real, math.log
    if abs(z) >= _SHIFT:
        return _stirling(z, 0, log, 1.0)
    return _stirling(z, _SHIFT, log, _rising_ratio(z, z + _SHIFT))


def _log_gamma_nodes(z):
    """_log_gamma at an array of orders: the same series, with the shift
    masked to the entries with |z| < 10; entries with Re z < 1/2 (none
    on the transforms' lines) go through _log_gamma one by one."""
    left = z.real < 0.5
    small = np.abs(z) < _SHIFT
    shift = _SHIFT * small
    ratio = np.where(small, _rising_ratio(z, z + shift), 1.0)
    out = _stirling(z, shift, np.log, ratio)
    for i in np.flatnonzero(left):
        out[i] = _log_gamma(complex(z[i]))
    return out


def _lead_rel(mu, log_half):
    """Relative error declared for the leading term (x/2)^mu / Gamma(mu+1),
    which the double series forms as exp(mu log(x/2) - _log_gamma(mu + 1)).
    The argument of that exp carries about |mu log(x/2)| ulps from its first
    part and a few ulps of |ln Gamma(mu + 1)|, about |mu log mu|, from the
    second; Stirling's remainder adds below 6e-16.  Against 40-digit mpmath
    the term is within 0.46 of this bound on 20,000 orders mu = 2iy and
    2 tau + 2iy with |mu| from 100 to 260, the worst case (scipy's
    reciprocal gamma reached 0.47 there), and within half of it on every
    point of tests/test_besseltransform.py's sweep."""
    return 1e-16 * (40 * (1 + abs(mu + 1)) + 5 * abs(mu * log_half))


def _series_extended(mu: complex, x: float):
    """The same ascending series to about 30 digits, for the cancellation
    regime x beyond roughly 15 and for the large |J| whose double leading
    term's rounding alone misses atol: the leading term
    L = (x/2)^mu / Gamma(mu+1) is e^A, A = mu log(x/2) - ln Gamma(mu+1) at
    30 digits (mpmath.loggamma, whose branch does not matter to e^A), and
    the ratios to it are summed exactly in fixed point on Python integers
    (the method of mpmath's hypsum; Brent & Zimmermann, Modern Computer
    Arithmetic, ch. 4).

    Each ratio s_k = term_k / L is held as (a + ib) / 2^scale, s_0 = 1, and
    s_{k+1} = -s_k h^2 / ((k+1)(mu+k+1)) is formed exactly from mu and
    h^2 = x^2/4 as rationals (a double is one), with one floor division per
    component.  The sum S stops at the first k > x whose next ratio is below
    1e-30 |S|.  It raises PrecisionError after 2,000 terms, and where
    max_mag / |total| exceeds the doubled cancellation budget, max_mag being
    the largest |term|.  The declared error is max_mag 1e-34 + 1e-15 |total|.

    Why that error covers it: before each division the numerators are
    shifted left, and scale raised with them, until the quotient keeps at
    least _SERIES_BITS bits, so each step rounds s_{k+1} by at most
    2^(2 - _SERIES_BITS) relative to itself.  Later ratios are exact, so
    they carry that rounding forward unchanged in relative size, and after
    at most 2,000 steps each s_k is within 2,000 * 2^(2 - _SERIES_BITS),
    about 5e-57, of its exact value relative to itself.  The sum of at most
    2,000 terms is then within 1e-53 max_mag of exact: inside max_mag 1e-34.
    Past k > x the ratios shrink at least geometrically, so the terms left
    out add about 1e-30 |total|.  A is within 1e-25 of exact (both of its
    parts are below 2e4 wherever L is a double), and the products with L
    are rounded to 30 digits: together below 1e-24 |total|.  The result is
    J correctly rounded but for that 1e-24, and the final rounding to a
    double, half an ulp per part, is inside 1e-15 |total|.
    """
    # mu = (p + iq) / den and h^2 = num / (den hden) exactly, so that
    # s_{k+1} = -s_k num (p_k - iq) / ((k+1)(p_k^2 + q^2) hden) with
    # p_k = p + (k+1) den
    p, pden = mu.real.as_integer_ratio()
    q, qden = mu.imag.as_integer_ratio()
    den = max(pden, qden)  # both powers of two
    p, q = p * (den // pden), q * (den // qden)
    xnum, xden = x.as_integer_ratio()
    num, hden = xnum * xnum * den, 4 * xden * xden
    tol = 10 ** 60  # |s_{k+1}| < 1e-30 |S|, squared
    scale = _SERIES_BITS
    a, b = 1 << scale, 0  # s_k
    sa = sb = 0  # s_0 + ... + s_k
    mag2, peak = a * a, 0  # |s_k|^2, max |s_j|^2 over j < k
    for k in range(2000):
        sa += a
        sb += b
        peak = max(peak, mag2)
        pk = p + (k + 1) * den
        d = (k + 1) * (pk * pk + q * q) * hden
        ra, rb = -(a * pk + b * q) * num, (a * q - b * pk) * num
        shift = _SERIES_BITS + d.bit_length() \
            - max(ra.bit_length(), rb.bit_length())
        if shift > 0:
            ra, rb, sa, sb = ra << shift, rb << shift, sa << shift, \
                sb << shift
            peak <<= 2 * shift
            scale += shift
        a, b = ra // d, rb // d
        mag2 = a * a + b * b
        if k > x and tol * mag2 < sa * sa + sb * sb:
            break
    else:
        raise PrecisionError("extended-precision series did not converge")
    # max_mag / |total| = sqrt(peak) / |S|, the leading term cancelling
    if peak > int(_CANCELLATION_BUDGET ** 2) ** 2 * (sa * sa + sb * sb) \
            and (sa or sb):
        raise PrecisionError("cancellation exceeds doubled budget")
    with mpmath.workdps(30):
        log_gamma = mpmath.loggamma(mpmath.mpc(mpmath.mpf(mu.real) + 1,
                                               mu.imag))
        log_half = mpmath.log(x / 2)
        size = mpmath.exp(mu.real * log_half - log_gamma.real)  # |L|
        arg = mu.imag * log_half - log_gamma.imag
        lr = size * mpmath.cos(arg)
        # a real order's arg is a multiple of pi: L is real
        li = size * mpmath.sin(arg) if mu.imag else 0
        sr, si = mpmath.mpf((sa, -scale)), mpmath.mpf((sb, -scale))
        total = complex(float(lr * sr - li * si), float(lr * si + li * sr))
        max_mag = float(size * mpmath.sqrt(mpmath.mpf((peak, -2 * scale))))
    return total, max_mag * 1e-34 + 1e-15 * abs(total)


def bessel_j_err(mu: complex, x: float, *, atol: float = _ATOL):
    """J_mu(x) by the ascending series, with a declared error bound.

    Returns (value, error).  Falls back to the extended-precision series
    when the declared error of the double-precision sum exceeds `atol`, so
    the error is at most `atol` (or, where |J| is too large for a double to
    hold it to `atol`, about 1e-15 |J|, the value being J correctly rounded
    but for 1e-24 |J|).  The declared error covers the
    truncated tail, the rounding of the summation and of the recurrence,
    and the relative rounding of the leading term (x/2)^mu / Gamma(mu+1),
    which every later term inherits.  Raises PrecisionError when even the
    doubled cancellation budget is exceeded, and rejects (ValueError)
    arguments outside the supported window rather than extrapolating, and
    orders whose leading term is beyond the range of a double.
    """
    mu = complex(mu)
    if mu.imag == 0 and mu.real < 0 and mu.real == int(mu.real):
        # J_{-n} = (-1)^n J_n; avoids the leading run of zero terms from
        # reciprocal-gamma zeros swallowing the series
        n = int(-mu.real)
        v, e = bessel_j_err(complex(n), x, atol=atol)
        return (-1) ** n * v, e
    if x <= 0:
        if x == 0:
            return (1.0 + 0.0j, 0.0) if mu == 0 else (0.0j, 0.0)
        raise ValueError("x must be nonnegative")
    if x > _X_CAP:
        raise ValueError(f"argument {x} beyond supported window {_X_CAP}")
    if abs(mu.imag) > 2 * _IM_CAP:
        raise ValueError("order imaginary part beyond supported window")
    half = x / 2.0
    h2 = half * half
    log_half = cmath.log(half)
    total = 0.0j
    comp = 0.0j  # Kahan compensation
    max_mag = 0.0
    abs_sum = 0.0
    lead = mu * log_half - _log_gamma(mu + 1)  # log of the leading term
    if lead.real > _LOG_MAX:
        raise ValueError(_BEYOND_DOUBLE)
    term = cmath.exp(lead)
    k = 0
    while True:
        y = term - comp
        t_new = total + y
        comp = (t_new - total) - y
        total = t_new
        mag = abs(term)
        if mag > max_mag:
            max_mag = mag
        abs_sum += mag
        mk = mu + (k + 1)
        ratio = h2 / ((k + 1) * abs(mk))
        if mag < _SERIES_TOL * max(abs(total), 1e-300) and ratio < 0.5:
            tail = mag * ratio / (1 - ratio)
            break
        if k > 500:
            raise PrecisionError("series did not converge within 500 terms")
        term = term * -h2 / ((k + 1) * mk)
        k += 1
    err = _declared_error(mu, log_half, tail, max_mag, k + 1, abs_sum)
    if err > atol:
        return _series_extended(mu, x)
    if abs(total) > 0 and max_mag / abs(total) > _CANCELLATION_BUDGET:
        raise PrecisionError(
            f"cancellation {max_mag / abs(total):.1e} exceeds budget at x={x}")
    return total, err


def _declared_error(mu, log_half, tail, max_mag, terms, abs_sum):
    """Declared error of the double-precision series, for one order or an
    array of them: the truncated tail, an ulp of the largest term per term
    summed (the rounding of the summation and of the recurrence), and the
    relative rounding of the leading term, which every later term inherits
    (_lead_rel)."""
    return tail + max_mag * 1e-16 * terms + _lead_rel(mu, log_half) * abs_sum


def _bessel_j_nodes(mu, x: float, atol):
    """J_mu(x) at an array of orders mu and one x > 0, with declared errors:
    bessel_j_err's double-precision series run over all orders at once.
    Each order stops by the scalar stopping rule and is declared the same
    error; each whose error exceeds its own entry of `atol` is recomputed by
    the extended-precision series.  Raises the PrecisionErrors of
    bessel_j_err.  Unlike bessel_j_err it checks only x against _X_CAP: it
    assumes x > 0, no negative integer order and |Im mu| <= 2 _IM_CAP, as
    the transforms guarantee.

    The transforms call it with every node of their rule at once.  Point
    values keep the scalar bessel_j_err: on one order that stays in double
    precision the array machinery costs 120-290 us against the scalar
    series' 7-19 us.
    """
    if x > _X_CAP:
        raise ValueError(f"argument {x} beyond supported window {_X_CAP}")
    half = x / 2.0
    h2 = half * half
    log_half = math.log(half)
    n = len(mu)
    value, err, peak = np.zeros(n, complex), np.zeros(n), np.zeros(n)
    live = np.arange(n)  # the orders still summing, and their state
    m = mu
    lead = m * log_half - _log_gamma_nodes(m + 1)
    if (lead.real > _LOG_MAX).any():
        raise ValueError(_BEYOND_DOUBLE)
    term = np.exp(lead)
    total, comp = np.zeros(n, complex), np.zeros(n, complex)
    max_mag, abs_sum = np.zeros(n), np.zeros(n)
    k = 0
    while True:
        y = term - comp
        t_new = total + y
        comp = (t_new - total) - y
        total = t_new
        mag = np.abs(term)
        max_mag = np.maximum(max_mag, mag)
        abs_sum += mag
        mk = m + (k + 1)
        ratio = h2 / ((k + 1) * np.abs(mk))
        done = (mag < _SERIES_TOL * np.maximum(np.abs(total), 1e-300)) \
            & (ratio < 0.5)
        if done.any():
            i = live[done]
            value[i], peak[i] = total[done], max_mag[done]
            err[i] = _declared_error(
                m[done], log_half, mag[done] * ratio[done] / (1 - ratio[done]),
                max_mag[done], k + 1, abs_sum[done])
            keep = ~done
            live, m, mk, term, total, comp, max_mag, abs_sum = (
                a[keep] for a in (live, m, mk, term, total, comp, max_mag,
                                  abs_sum))
            if not len(live):
                break
        if k > 500:
            raise PrecisionError("series did not converge within 500 terms")
        term = term * -h2 / ((k + 1) * mk)
        k += 1
    extended = err > atol
    for i in np.flatnonzero(extended):
        value[i], err[i] = _series_extended(complex(mu[i]), x)
    size = np.abs(value)
    over = ~extended & (peak > _CANCELLATION_BUDGET * size) & (size > 0)
    if over.any():
        i = np.flatnonzero(over)[0]
        raise PrecisionError(f"cancellation {peak[i] / size[i]:.1e} exceeds "
                             f"budget at x={x}")
    return value, err


def bessel_j(mu: complex, x: float, *, atol: float = _ATOL) -> complex:
    """J_mu(x) to absolute accuracy `atol`; see bessel_j_err."""
    return bessel_j_err(mu, x, atol=atol)[0]


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------

def _discrete_sum(phi: LocalTestFunction, parity: int, t_abs: float) -> complex:
    """sum over the discrete series b = 2 + parity, 4 + parity, ..., 60 of
    (-1)^{floor(b/2)} (b-1) phi((b-1)/2) J_{b-1}."""
    total = 0.0j
    bs = np.arange(2 + parity, 61, 2)
    for b, val in zip(bs.tolist(), phi((bs - 1) / 2.0).tolist()):
        if val != 0:
            total += (-1) ** (b // 2) * (b - 1) * val * bessel_j(b - 1, t_abs)
    return total


def _window(phi: LocalTestFunction):
    """(lo, H): the range [lo, H] of both transform integrals.  A gaussian's
    is its bump at q plus and minus 40 / sqrt(U), cut below at 0 and above
    at the cap that keeps the Bessel order 2 nu in the supported window;
    any other phi's is [0, cap].

    Raises ValueError for a gaussian with q + 6 / sqrt(U) past the cap,
    which would cut its bump where it is still above e^{-36} of its peak.
    """
    cap = _IM_CAP / 2
    if phi.provenance != "gaussian":
        return 0.0, cap
    q, U = phi.params["q"], phi.params["U"]
    if q + 6 / math.sqrt(U) > cap:
        raise ValueError(f"gaussian centre |q| = {q} is too near the order "
                         f"window: needs |q| + 6/sqrt(U) <= {cap}")
    reach = 40 / math.sqrt(U)
    H = min(q + reach, cap)
    return min(max(0.0, q - reach), H), H


_MAX_STEPS = 2 ** 15


def _nodes(phi: LocalTestFunction, parity: int, shift: float):
    """Nodes of the trapezoidal rule on _window's [lo, H], an even number of
    steps h, on the line Re nu = shift (0 for the axis, tau for the
    contour).

    h is at most an eighth of the distance d from the line to the nearest
    singularity of the integrand: a zero of the denominator at
    Re nu = (1 + parity)/2 (the zero at nu = 0 is cancelled by the factor
    nu), or phi_p's branch point at nu = p, both level with the node 0.
    The rule's error falls like e^{-2 pi d / h}, and that of the rule on
    every other node, which trapezoid declares, like e^{-pi d / h}.
    Within that, h = 0.15 / sqrt(U) for a gaussian and 0.05 for any other
    phi.

    Raises ValueError where that needs more than _MAX_STEPS steps, which
    bounds the cost of a transform.  On the axis d > 1/4, so at most 2,080
    steps; the contour takes more as tau or p nears a singularity:
    phi_p(0.32, tau=0.3) takes 26,000 steps, a gaussian at tau = 0.49 and
    U = 90 about 6,700.
    """
    lo, H = _window(phi)
    d = min((1 + parity) / 2, phi.params.get("p", math.inf)) - shift
    if phi.provenance == "gaussian":
        step = min(0.15 / math.sqrt(phi.params["U"]), d / 8)
    else:
        step = min(0.05, d / 8)
    steps = max(2, 2 * math.ceil((H - lo) / (2 * step)))
    if steps > _MAX_STEPS:
        raise ValueError(
            f"tau or p too close to a singularity of the integrand: the line "
            f"Re nu = {shift:g} lies {d:.3g} from it, and the rule would need "
            f"{steps} steps, more than {_MAX_STEPS}")
    return np.linspace(lo, H, steps + 1)


def _transform(phi: LocalTestFunction, parity: int, eta: int, t: float,
               shift: float):
    """(value, error) of both transforms on the line Re nu = shift:

        (-i eta sign t)^parity [ 2 int_lo^H Re[ phi(nu) nu J_{2nu}(|t|)
                                    / cos(pi(nu - parity/2)) ] dx + discrete ],

    nu = shift + ix, by the trapezoidal rule of _nodes, each J asked for
    atol = 1e-10 |cos(...)|.  At nu = 0 (parity 1 on the axis only),
    nu / cos(pi(nu - 1/2)) = nu / sin(pi nu) takes its limit 1/pi and J_0
    the default atol.  The error is twice trapezoid's; the tail beyond H is
    left to each formula.
    """
    check_parity(parity)
    if eta not in (1, -1):
        raise ValueError("eta must be 1 or -1")
    if t == 0:
        raise ValueError("t must be nonzero")
    t_abs = abs(t)
    x = _nodes(phi, parity, shift)
    nu = shift + 1j * x
    denom = np.cos(np.pi * (nu - parity / 2.0))
    coef = phi(nu) * nu / denom
    atol = _ATOL * np.abs(denom)
    if parity and nu[0] == 0:
        coef[0], atol[0] = phi(0) / np.pi, _ATOL
    J, J_err = _bessel_j_nodes(2 * nu, t_abs, atol)
    v, e = trapezoid(x, (coef * J).real, np.abs(coef) * J_err)
    pref = (-1j * eta * math.copysign(1.0, t)) ** parity
    return pref * (2 * v + _discrete_sum(phi, parity, t_abs)), 2 * e


def transform_axis(phi: LocalTestFunction, parity: int, eta: int,
                   t: float) -> MeasureResult:
    """Transform by integration along the spectral axis plus the discrete sum.

    parity 0:  -2 int_0^inf y phi(iy) Im J_{2iy}(|t|) / cosh(pi y) dy + discrete
    parity 1:  -i eta sign(t) [ int_0^inf 2 y phi(iy) Re J_{2iy}(|t|)/sinh(pi y) dy
                                + discrete ],
    the real reductions of the contour-free defining formulas (the y -> -y
    halves combine by evenness; the y=0 limit of the parity-1 integrand is
    2 phi(0) J_0(|t|)/pi): _transform on the line Re nu = 0, where phi is
    real.  Any phi is accepted.  The declared error is _transform's plus
    the tail beyond H.
    """
    value, err = _transform(phi, parity, eta, t, 0.0)
    tail = 1e-14
    if phi.provenance != "gaussian":
        # the integrand is bounded by 2|phi(iy)| y (the Bessel growth e^{pi y}
        # is cancelled by the cosh/sinh denominator), so the tail beyond H is
        # at most 2K (1+H)^{2-a}/(a-2) with K the decay constant
        H = _window(phi)[1]
        y = np.geomspace(1, 60, 40)
        K = np.max(np.abs(phi(1j * y)) * (1 + y) ** phi.a)
        tail = 2 * K * (1 + H) ** (2 - phi.a) / (phi.a - 2)
    return MeasureResult(value, err + tail, "axis")


def transform_contour(phi: LocalTestFunction, parity: int, eta: int,
                      t: float) -> MeasureResult:
    """Transform via the shifted contour Re nu = tau: _transform on that
    line, using the reflection symmetry of the full contour for
    real-symmetric phi; the contour stays left of the poles at
    nu = (b-1)/2, so the discrete-series sum is added separately.  The
    integrand carries the explicit factor |t|^{2 tau}, which makes this
    form accurate for small |t|.  Checked against direct complex
    quadrature of the defining axis integrals.

    Needs a construction-tagged holomorphic phi.  The declared error is
    _transform's plus twice the tail beyond H.
    """
    if phi.provenance not in CONSTRUCTIONS:
        raise ValueError("contour formula needs a construction-tagged "
                         "holomorphic test function")
    tau = phi.tau
    value, err = _transform(phi, parity, eta, t, tau)
    tail = 0.0
    if phi.provenance != "gaussian":
        # tail bound: decay of phi against the polynomially-bounded remainder
        # of J/cos after the exponential factors cancel
        H = _window(phi)[1]
        x = np.geomspace(1, H, 40)
        K = np.max(np.abs(phi(tau + 1j * x)) * (1 + x) ** phi.a)
        net = phi.a - 1.5 + 2 * tau  # integrand ~ x^{1 - a - 2 tau - 1/2}
        tail = 2 * abs(t) ** (2 * tau) * K * H ** (1 - net) / max(net - 1, 0.1)
    return MeasureResult(value, err + 2 * tail, "contour")
