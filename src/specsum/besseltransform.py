"""Bessel functions of complex order and Bessel transforms of test functions.

bessel_j uses the ascending power series only (DLMF 10.2.2), with a
cancellation budget that fails loudly instead of returning silently wrong
values; this covers the small-to-moderate arguments the Kloosterman series
produces.  Its leading term (x/2)^mu / Gamma(mu+1) is one exp of
mu log(x/2) - ln Gamma(mu+1), so neither factor can overflow on its own;
ln Gamma is the module's own (_log_gamma): Stirling's series with eight
terms and a remainder below 6e-16 (DLMF 5.11(ii)), after the recurrence
to |z| >= 10 and the reflection for Re z < 1/2.  The series is summed in
double precision and falls back to an extended-precision series when the
declared double-precision error exceeds an absolute tolerance `atol`
(1e-10 by default), whether the terms cancel or only the double leading
term's rounding times a large |J| misses it.  There everything is fixed
point on Python integers (Brent & Zimmermann, Modern Computer Arithmetic,
ch. 4): the leading term (_leading, to 4e-36 relative) by the same
recurrence, reflection and Stirling's series, with twenty terms at
|w| >= 24, and its ratios to that term summed exactly; their product is
rounded once, so the value is J correctly rounded.  The module imports
neither scipy nor mpmath.

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
from fractions import Fraction

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
# B_2k / (2k (2k - 1)) of w^(1 - 2k), k = 1, ..., 20, exactly; the double
# series takes the first eight, the fixed-point one all twenty
_STIRLING = tuple(Fraction(n, d) for n, d in (
    (1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
    (1, 156), (-3617, 122400), (43867, 244188), (-174611, 125400),
    (77683, 5796), (-236364091, 1506960), (657931, 300),
    (-3392780147, 93960), (1723168255201, 2492028),
    (-7709321041217, 505920), (151628697551, 396),
    (-26315271553053477373, 2418179400), (154210205991661, 444),
    (-261082718496449122051, 21106800)))
_B1, _B2, _B3, _B4, _B5, _B6, _B7, _B8 = map(float, _STIRLING[:8])
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


# --------------------------------------------------------------------------
# the extended series' leading term, in fixed point on Python integers
# --------------------------------------------------------------------------

_BITS = 136  # fraction bits of the fixed-point leading term
_SQUARINGS = 10  # _exp divides its reduced argument by 2^10
_W_MIN = 24  # Stirling's series at |w| >= 24, after the recurrence
# ln 2, pi and ln(2 pi)/2 rounded to _CONST_BITS fraction bits
_CONST_BITS = 192
_LN2_192 = 0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62e
_PI_192 = 0x3243f6a8885a308d313198a2e03707344a4093822299f31d0
_HALF_LOG_2PI_192 = 0xeb3f8e4325f5a53494bc900144192023cfb08f8d13458b4e
_HALF_LOG_2PI_FIX = _HALF_LOG_2PI_192 >> (_CONST_BITS - _BITS)
_LOG_PI_FIX = (2 * _HALF_LOG_2PI_192 - _LN2_192) >> (_CONST_BITS - _BITS)
_STIRLING_FIX = tuple(round(c * 2 ** _BITS) for c in _STIRLING)


def _scale(v: int, c: int) -> int:
    """v / 2^c, rounded down where c > 0."""
    return v >> c if c >= 0 else v << -c


def _cmul(ar: int, ai: int, br: int, bi: int):
    """(ar + i ai)(br + i bi), exactly."""
    return ar * br - ai * bi, ar * bi + ai * br


def _exp(ar: int, ai: int, bits: int):
    """e^a for a = (ar + i ai) / 2^bits, as (er, ei, e) with
    e^a = (er + i ei) 2^e and |er + i ei| within a factor 2^(1/2) of
    2^(bits + 10).

    a is reduced by n ln 2 and m 2 pi (the constants at 192 bits, so the
    reduction errs by below 2^-180 for |a| < 2^12), the rest divided by
    2^10 and summed by Taylor's series until a term is below
    2^-(bits + 10), and the sum squared 10 times, all at bits + 10
    fraction bits.  Each step floors once there, and the squarings
    multiply the sum's relative error by 2^10, so e^a is within about
    2^(6 - bits) of itself, relative.
    """
    one = 1 << bits
    n, m = round(ar / one / math.log(2)), round(ai / one / math.tau)
    c = _CONST_BITS - bits
    r, th = ar - _scale(n * _LN2_192, c), ai - _scale(m * _PI_192, c - 1)
    p = bits + _SQUARINGS  # (r + i th) / 2^p is the reduced a / 2^10
    er, ei = (1 << p) + r, th
    tr, ti, k = r, th, 2
    while not (-2 < tr < 2 and -2 < ti < 2):
        tr, ti = ((tr * r - ti * th) >> p) // k, ((tr * th + ti * r) >> p) // k
        er += tr
        ei += ti
        k += 1
    for _ in range(_SQUARINGS):
        er, ei = ((er + ei) * (er - ei)) >> p, (er * ei) >> (p - 1)
    return er, ei, n - p


def _log(wr: int, wi: int, bits: int):
    """The principal log w of w = (wr + i wi) / 2^bits != 0, at bits
    fraction bits: the double estimate l = cmath.log(w) corrected by
    log(1 + eps) = eps - eps^2/2, eps = w e^-l - 1.  |eps| is a few ulps
    of |l|, below 2^-45 for |w| < 2^12, so eps^3 is below 2^-135."""
    one = 1 << bits
    est = cmath.log(complex(wr / one, wi / one))
    lr, li = int(math.ldexp(est.real, bits)), int(math.ldexp(est.imag, bits))
    er, ei, e = _exp(-lr, -li, bits)
    sr, si = _cmul(wr, wi, er, ei)
    sr, si = _scale(sr, -e) - one, _scale(si, -e)  # eps
    return (lr + sr - ((sr * sr - si * si) >> (bits + 1)),
            li + si - ((sr * si) >> bits))


def _log_gamma_fix(wr: int, wi: int):
    """ln Gamma(w), up to a multiple of 2 pi i, for w = (wr + i wi) / 2^136
    with Re w >= 1/2 and |w| >= _W_MIN, at 136 fraction bits, by
    Stirling's series (DLMF 5.11.1):

        (w - 1/2) log w - w + ln(2 pi)/2
            + sum_{k <= 20} B_2k / (2k (2k - 1) w^(2k - 1)).

    The remainder is at most sec^42(ph(w)/2) <= 2^21 times the first
    neglected term, B_42 / (42 * 41 w^41) (DLMF 5.11(ii)): below 3e-36 at
    |w| = 24 on the imaginary axis.  The products round by a few units of
    2^-136 times |w| < 2^10, below 2^-120 in all.
    """
    F = _BITS
    lr, li = _log(wr, wi, F)
    norm = wr * wr + wi * wi
    rr, ri = (wr << 2 * F) // norm, (-wi << 2 * F) // norm  # 1/w
    qr, qi = (rr * rr - ri * ri) >> F, (rr * ri) >> (F - 1)  # 1/w^2
    sr, si = _STIRLING_FIX[-1], 0
    for c in reversed(_STIRLING_FIX[:-1]):
        sr, si = ((sr * qr - si * qi) >> F) + c, (sr * qi + si * qr) >> F
    sr, si = _cmul(sr, si, rr, ri)
    hr, hi = _cmul(wr - (1 << (F - 1)), wi, lr, li)  # (w - 1/2) log w
    return ((hr + sr) >> F) - wr + _HALF_LOG_2PI_FIX, ((hi + si) >> F) - wi


def _sin_pi(tr: int, ti: int, d: int):
    """sin(pi t) for t = (tr + i ti) / 2^d != 0 with |Re t| <= 1/2, as
    (ar, ai, gr, gi, e): sin(pi t) = e^a (gr + i gi) 2^e, a at 136
    fraction bits, from

        sin(pi t) = sigma e^(-i sigma pi t) (e^u - 1) / (2i),
        u = 2 i sigma pi t,

    sigma the sign of Im t (+1 at 0), so that |e^u| <= 1: a is
    -i sigma pi t, and e^u - 1 is formed at log2(1/|t|) more fraction
    bits than a, which its cancellation costs, so it is within about
    2^-130 of itself, relative."""
    sigma = 1 if ti >= 0 else -1
    fs = _BITS + max(0, -math.frexp(abs(complex(tr / (1 << d),
                                                ti / (1 << d))))[1])
    c = d + _CONST_BITS - fs
    spi = sigma * _PI_192
    xr, xi = _scale(spi * tr, c), _scale(spi * ti, c)  # sigma pi t
    er, ei, e = _exp(-2 * xi, 2 * xr, fs)  # e^u, u = 2i (xr + i xi)
    gr, gi = _scale(er, -e - fs) - (1 << fs), _scale(ei, -e - fs)
    c = fs - _BITS
    return _scale(xi, c), -_scale(xr, c), sigma * gi, -sigma * gr, -fs - 1


def _leading(p: int, q: int, d: int, x: float):
    """The leading term L = (x/2)^mu / Gamma(mu+1) for mu = (p + iq) / 2^d
    and x > 0, as (a, b, e, den) with L = (a + ib) 2^e / den: a, b and den
    integers, den > 0.  L is within 4e-36 of itself, relative.

    z = mu + 1 is formed exactly.  Where Re z >= 1/2, the recurrence
    Gamma(w) = Gamma(z) prod_{k < s} (z + k) (DLMF 5.5.1), w = z + s, with
    s the least shift to Re w >= _W_MIN where |z| < _W_MIN, gives

        L = e^A prod_{k < s} (z + k),  A = mu log(x/2) - ln Gamma(w),

    the product exact.  Where Re z < 1/2, the reflection
    1/Gamma(z) = (-1)^n sin(pi t) Gamma(1 - z) / pi (DLMF 5.5.3), with n
    the integer nearest Re z and t = z - n exact, gives L from Gamma(1 - z)
    by the same recurrence, the product now dividing, and sin(pi t) from
    _sin_pi, whose exponent joins A.  log(x/2) is the double estimate
    corrected as in _log, and e^A is one _exp; so A errs by below 2^-120
    and Stirling's remainder, and e^A by about 2^-130 more.  A real order
    has a real L: the imaginary part, rounding only, is dropped.
    """
    F = _BITS
    one = 1 << d
    zr, zi = p + one, q  # z = mu + 1 = (zr + i zi) / 2^d
    m, k = math.frexp(x / 2)
    lx = _log(int(math.ldexp(m, F)), 0, F)[0] \
        + ((k * _LN2_192) >> (_CONST_BITS - F))  # log(x/2)
    ar, ai = (_scale(p, d - F) * lx) >> F, (_scale(q, d - F) * lx) >> F
    reflect = 2 * zr < one
    gr, gi, e = 1, 0, 0  # the factor of L besides e^A and the product
    if reflect:
        n = (zr + (one >> 1)) >> d
        sr, si, gr, gi, e = _sin_pi(zr - (n << d), zi, d)
        if n % 2:
            gr, gi = -gr, -gi
        ar, ai = ar + sr - _LOG_PI_FIX, ai + si
        zr, zi = one - zr, -zi
    s = 0
    if zr * zr + zi * zi < (_W_MIN * one) ** 2:
        s = -((zr - _W_MIN * one) >> d)  # ceil(_W_MIN - Re z)
    pr, pi = 1, 0  # prod_{k < s} (z + k), times 2^(d s)
    for j in range(s):
        pr, pi = _cmul(pr, pi, zr + j * one, zi)
    lr, li = _log_gamma_fix(_scale(zr + s * one, d - F), _scale(zi, d - F))
    if reflect:
        er, ei, ee = _exp(ar + lr, ai + li, F)
        pi, e, den = -pi, e + d * s, pr * pr + pi * pi
    else:
        er, ei, ee = _exp(ar - lr, ai - li, F)
        e, den = e - d * s, 1
    a, b = _cmul(*_cmul(er, ei, gr, gi), pr, pi)
    return a, b if q else 0, e + ee, den


def _dyadic(mu: complex):
    """(p, q, d) with mu = (p + iq) / 2^d exactly."""
    p, pden = mu.real.as_integer_ratio()
    q, qden = mu.imag.as_integer_ratio()
    den = max(pden, qden)  # both powers of two
    return p * (den // pden), q * (den // qden), den.bit_length() - 1


def _quotient(num: int, e: int, den: int) -> float:
    """num 2^e / den, correctly rounded to a double (int / int is).
    Raises ValueError beyond the range of a double."""
    try:
        return (num << e) / den if e >= 0 else num / (den << -e)
    except OverflowError:
        raise ValueError("J or its error beyond the range of a double") \
            from None


def _series_extended(mu: complex, x: float):
    """The same ascending series to about 30 digits, for the cancellation
    regime x beyond roughly 15 and for the large |J| whose double leading
    term's rounding alone misses atol: the leading term
    L = (x/2)^mu / Gamma(mu+1) comes from _leading, and the ratios to it
    are summed exactly in fixed point on Python integers (the method of
    mpmath's hypsum; Brent & Zimmermann, Modern Computer Arithmetic,
    ch. 4).

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
    out add about 1e-30 |total|.  L is within 4e-36 of itself, relative,
    and L S is formed exactly on integers and rounded once to a double per
    part (int / int rounds correctly), as is max_mag.  So the result is J
    correctly rounded but for max_mag 1e-53 + 1e-30 |total|, at most
    1e-27 |total| at the doubled budget, and that rounding, half an ulp per
    part, is inside 1e-15 |total|.  A J or max_mag beyond the range of a
    double raises ValueError.
    """
    # mu = (p + iq) / den and h^2 = num / (den hden) exactly, so that
    # s_{k+1} = -s_k num (p_k - iq) / ((k+1)(p_k^2 + q^2) hden) with
    # p_k = p + (k+1) den
    p, q, exp2 = _dyadic(mu)
    den = 1 << exp2
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
    lr, li, e, lden = _leading(p, q, exp2, x)
    e -= scale
    total = complex(_quotient(lr * sa - li * sb, e, lden),
                    _quotient(lr * sb + li * sa, e, lden))
    max_mag = _quotient(math.isqrt((lr * lr + li * li) * peak), e, lden)
    return total, max_mag * 1e-34 + 1e-15 * abs(total)


def bessel_j_err(mu: complex, x: float, *, atol: float = _ATOL):
    """J_mu(x) by the ascending series, with a declared error bound.

    Returns (value, error).  Falls back to the extended-precision series
    when the declared error of the double-precision sum exceeds `atol`, so
    the error is at most `atol` (or, where |J| is too large for a double to
    hold it to `atol`, about 1e-15 |J|, the value being J correctly rounded
    but for 1e-27 |J|).  The declared error covers the
    truncated tail, the rounding of the summation and of the recurrence,
    and the relative rounding of the leading term (x/2)^mu / Gamma(mu+1),
    which every later term inherits.  Raises PrecisionError when even the
    doubled cancellation budget is exceeded, and rejects (ValueError)
    arguments outside the supported window rather than extrapolating, and
    orders whose leading term, J or error is beyond the range of a
    double.
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


def _window(phi: LocalTestFunction, shift: float = 0.0):
    """(lo, H): the range [lo, H] of both transform integrals.  A gaussian's
    is its bump at q plus and minus 40 / sqrt(U), cut below at 0 and above
    at the cap that keeps the Bessel order 2 nu in the supported window;
    any other phi's is [0, cap].

    Raises ValueError for a gaussian with q + 6 / sqrt(U) past the cap,
    which would cut its bump where it is still above e^{-36} of its peak,
    and for one whose peak on the line Re nu = shift, about
    sqrt(U/pi) e^{U shift^2}, is beyond the range of a double.
    """
    cap = _IM_CAP / 2
    if phi.provenance != "gaussian":
        return 0.0, cap
    q, U = phi.params["q"], phi.params["U"]
    if q + 6 / math.sqrt(U) > cap:
        raise ValueError(f"gaussian centre |q| = {q} is too near the order "
                         f"window: needs |q| + 6/sqrt(U) <= {cap}")
    if U * shift * shift + 0.5 * math.log(U / math.pi) > _LOG_MAX:
        raise ValueError(f"gaussian peak sqrt(U/pi) e^(U tau^2) on the line "
                         f"Re nu = {shift:g} beyond the range of a double: "
                         f"needs U tau^2 + log sqrt(U/pi) <= {_LOG_MAX:.2f}")
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
    lo, H = _window(phi, shift)
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
    left to each formula.  Raises ValueError where the weight phi(nu) nu /
    cos(...), formed left to right, leaves the range of a double.
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
    with np.errstate(over="ignore", invalid="ignore"):
        coef = phi(nu) * nu / denom
    atol = _ATOL * np.abs(denom)
    if parity and nu[0] == 0:
        coef[0], atol[0] = phi(0) / np.pi, _ATOL
    if not np.isfinite(coef).all():
        raise ValueError(f"phi(nu) nu / cos(pi(nu - parity/2)) on the line "
                         f"Re nu = {shift:g} beyond the range of a double")
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
