"""Bessel functions of complex order and Bessel transforms of test functions.

A point value J_mu(x) comes from one of two methods in double precision,
each with a derived error bound, which is promised to be at most
1e-10 max(1, |J|): absolute where |J| <= 1, relative beyond.  Where
|J| > 1 the value itself is good to about the leading term's rounding
(_lead_rel, at most 2.4e-12 for |mu| <= 262 and x >= 1e-4); the
declared bound is worst case and may be larger.
  - The ascending series (DLMF 10.2.2), whose leading term
    (x/2)^mu / Gamma(mu+1) is one exp of mu log(x/2) - ln Gamma(mu+1), so
    neither factor can overflow on its own.  ln Gamma is the module's own
    (_log_gamma): Stirling's series with eight terms and a remainder below
    6e-16 (DLMF 5.11(ii)), after the recurrence to |z| >= 10 and the
    reflection for Re z < 1/2.  It serves small and moderate x, and large
    |Im mu| at any x.
  - Miller's backward recurrence (_miller) where the series cancels (x
    beyond about 15 for small |mu|), normalised by Neumann's sum, or where
    that cancels too (|Im mu| above about 3 at large x) by the series at a
    higher order (_miller_series).  Its bound covers the normalisation's
    rounding and cancellation, the truncation at its start index, and the
    leading term's rounding.
Where neither meets the promise (|Im mu| above about 3 with x above about
350, where the second normalisation would take too many steps), the input
is refused with ValueError.  The module imports neither scipy nor mpmath.

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
one order the array machinery costs about 16 times as much.  Nodes whose
series misses its tolerance go to the scalar recurrence one by one.

|J_{2 nu}(t)| grows like e^{pi |Im nu|} and the integrand divides that
growth out again by cos(pi(nu - parity/2)); each node asks for
atol = 1e-10 times that divisor, so the error J adds to the integrand is
about 1e-10 times the factor J is multiplied by there.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .measures import MeasureResult, check_parity
from .quadrature import trapezoid
from .testfunctions import CONSTRUCTIONS, LocalTestFunction

_X_CAP = 1e3
_IM_CAP = 130.0
_RE_CAP = 1e4  # |Re mu| above it: |J| at x <= _X_CAP under- or overflows
_ATOL = 1e-10  # absolute accuracy of a point value, relative where |J| > 1
_SERIES_TOL = 1e-13  # stop summing once a term is this small relative to the sum
_STEP_ULPS = 2.0 ** -52  # rounding declared per step of the recurrence
_BIG, _SMALL = 2.0 ** 300, 2.0 ** -300  # the recurrence rescales beyond them
_SERIES = "ascending series"


# ln Gamma by Stirling's series (DLMF 5.11.1): the coefficients
# B_2k / (2k (2k - 1)) of w^(1 - 2k), k = 1, ..., 8, correctly rounded
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
    which the series and the recurrence form as
    exp(mu log(x/2) - _log_gamma(mu + 1)).
    The argument of that exp carries about |mu log(x/2)| ulps from its first
    part and a few ulps of |ln Gamma(mu + 1)|, about |mu log mu|, from the
    second; Stirling's remainder adds below 6e-16.  Against 40-digit mpmath
    the term is within 0.46 of this bound on 20,000 orders mu = 2iy and
    2 tau + 2iy with |mu| from 100 to 260, the worst case (scipy's
    reciprocal gamma reached 0.47 there), and within half of it on every
    point of tests/test_besseltransform.py's sweep."""
    return 1e-16 * (40 * (1 + abs(mu + 1)) + 5 * abs(mu * log_half))


def bessel_j_err(mu: complex, x: float):
    """(value, error) of J_mu(x); see bessel_j_point."""
    return bessel_j_point(mu, x)[:2]


def bessel_j_point(mu: complex, x: float):
    """J_mu(x), with a declared error bound and the method that served it.

    Returns (value, error, method), the error at most 1e-10 max(1, |J|):
    absolute where |J| <= 1 and relative beyond, where a double's leading
    term alone rounds by _lead_rel |J| (at most 2.4e-12 |J| for
    |mu| <= 262 and x >= 1e-4), about the accuracy the value reaches
    there.  The ascending series in double precision answers where its
    declared error meets that; elsewhere Miller's backward recurrence does
    (_miller), and where neither can, the input is refused (ValueError),
    as is a mu or x that is not finite, an order outside |Re mu| <= 10^4,
    |Im mu| <= 260, an x outside [0, 1000], and an order whose leading
    term, J or error is beyond the range of a double.
    The series' error covers the truncated tail, the rounding of the
    summation and of the term recurrence, and the relative rounding of the
    leading term (x/2)^mu / Gamma(mu+1), which every later term inherits.
    """
    mu = complex(mu)
    for name, v in (("order", mu), ("argument", x)):
        if not cmath.isfinite(v):
            raise ValueError(f"{name} {v} is not finite")
    if abs(mu.real) > _RE_CAP:
        raise ValueError(f"order real part {mu.real} beyond supported "
                         f"window {_RE_CAP}")
    if abs(mu.imag) > 2 * _IM_CAP:
        raise ValueError("order imaginary part beyond supported window")
    if mu.imag == 0 and mu.real < 0 and mu.real == int(mu.real):
        # J_{-n} = (-1)^n J_n; avoids the leading run of zero terms from
        # reciprocal-gamma zeros swallowing the series
        n = int(-mu.real)
        v, e, method = bessel_j_point(complex(n), x)
        return (-1) ** n * v, e, method
    if x <= 0:
        if x == 0:
            return (1.0 + 0.0j if mu == 0 else 0.0j), 0.0, _SERIES
        raise ValueError("x must be nonnegative")
    if x > _X_CAP:
        raise ValueError(f"argument {x} beyond supported window {_X_CAP}")
    half = x / 2.0
    log_half = cmath.log(half)
    lead = mu * log_half - _log_gamma(mu + 1)  # log of the leading term
    if lead.real > _LOG_MAX:
        raise ValueError(_BEYOND_DOUBLE)
    total, *rest = _series(cmath.exp(lead), mu, half * half)
    err = _declared_error(mu, log_half, *rest)
    if err <= _ATOL * max(1.0, abs(total)) < math.inf:
        return total, err, _SERIES
    return (*_miller(mu, x, _ATOL), "backward recurrence")


def _series(term, mu, h2):
    """The ascending series at the order mu from its leading term `term`,
    h2 = (x/2)^2, summed with Kahan's compensation until a term is below
    _SERIES_TOL of the sum and the ratios below 1/2: (sum, tail, largest
    |term|, terms, sum |term|), the tail bounded by the geometric series of
    the last ratio, or inf where 502 terms do not reach that."""
    total = comp = 0j
    max_mag = abs_sum = 0.0
    for k in range(502):
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
            return total, mag * ratio / (1 - ratio), max_mag, k + 1, abs_sum
        term = term * -h2 / ((k + 1) * mk)
    return total, math.inf, max_mag, 502, abs_sum


def _declared_error(mu, log_half, tail, max_mag, terms, abs_sum):
    """Declared error of the double-precision series, for one order or an
    array of them: the truncated tail, an ulp of the largest term per term
    summed (the rounding of the summation and of the recurrence), and the
    relative rounding of the leading term, which every later term inherits
    (_lead_rel)."""
    return tail + max_mag * 1e-16 * terms + _lead_rel(mu, log_half) * abs_sum


def _miller(mu: complex, x: float, atol: float):
    """J_mu(x) and its declared error by Miller's backward recurrence (DLMF
    3.6(iii); Gil, Segura & Temme, Numerical Methods for Special Functions,
    SIAM 2007, ch. 4), for 0 < x <= 1000 and a mu off the negative integers.
    Where that error exceeds max(atol, 1e-10 |J|), or J is not finite, it
    returns _miller_series, which normalises the same recurrence by the
    series at a higher order, or raises ValueError.

    With nu = mu + m, m the least integer >= 0 with Re nu >= 0, and an even
    N > max(x, |nu|) + x, f_k runs down from f_{N+1} = 0, f_N = 1 by

        f_{k-1} = a_k f_k - f_{k+1},  a_k = 2 (nu + k) / x  (DLMF 10.6.1),

    to k = -m, so f_k ~ J_{nu+k}(x): J is the recurrence's minimal solution,
    which the downward direction favours.  Neumann's sum (DLMF 10.23.15)

        (x/2)^nu / Gamma(nu+1) = sum_j c_j J_{nu+2j},  c_0 = 1,
        c_j = (nu + 2j) d_j,  d_j = (nu+1)_{j-1} / j!,

    normalises them: J_mu = f_{-m} L / S with L the leading term, from
    _log_gamma, and S = sum_j c_j f_{2j}.  d_j runs down too, by
    d_{j-1} = d_j j / (nu + j - 1), so nothing divides by nu, and
    (nu + 2j) f_{2j} is (x/2) a_{2j} f_{2j}, a product the recurrence forms.
    Normalising at mu itself fails where Re mu < 0 (at mu = -50.5, x = 60
    every digit is lost), so below nu the recurrence only carries on.  f, d
    and the sums are rescaled by powers of two, so nothing over- or
    underflows.

    The declared error is |J| times _lead_rel, plus |L / S| times
      - rounding: 2^-52 per step (n = N + m + 4 steps, with the final
        products) of f_{-m}'s neighbourhood, |f_{-m}| + 2 |a_{1-m} f_{1-m}|,
        which bounds the operands of its last step, and of the normalising
        sum's terms, sum_j |c_j f_{2j}| times |f_{-m} / S|;
      - truncation: the exact sequence with f_N = 1 is F = f + R h, where
        R = J_{nu+N+1} / J_{nu+N} and h solves the same recurrence from
        h_{N+1} = 1, h_N = 0, which runs alongside f.  So the computed J
        is off by exactly (L / S) R (f_{-m} v - h_{-m}) / (1 + R v),
        v = S(h) / S(f).  Every |a_k| beyond N is at least
        alpha = 2 (N + 1 - |nu|) / x > 2, so |R| <= r, the root below 1 of
        r^2 - alpha r + 1 (the continued fraction R_k = 1 / (a_k - R_{k+1})),
        and the term is bounded by r (|f_{-m} v - h_{-m}| plus its rounding)
        / (1 - r |v|).
    Against mpmath at 40 digits the true error stays below 0.4 of this.
    """
    m = max(0, math.ceil(-mu.real))
    nu = mu + m
    N = 2 * math.ceil((max(x, abs(nu)) + x) / 2) + 20
    c = 2.0 / x
    c2, nuc = 2 * c, nu * c
    f, f1, h, h1 = 1 + 0j, 0j, 0j, 1 + 0j  # f_k, f_{k+1}, and h's
    d, s, sh, s_abs = 1 + 0j, 0j, 0j, 0.0  # d_j; sums of d_j a_{2j} f_{2j}
    top = abs(nuc + N * c)  # the top term's |d a_N f_N|, rescaled with s
    for j in range(N // 2, 0, -1):  # two steps, from k = 2j to 2j - 2
        a = nuc + j * c2
        p, q = a * f, a * h
        t = d * p
        s += t
        sh += d * q
        s_abs += abs(t)
        a -= c
        f, f1 = a * (p - f1) - f, p - f1
        h, h1 = a * (q - h1) - h, q - h1
        if j > 1:
            d = d * j / (nu + (j - 1))
            if abs(d) < _SMALL:
                d, s, sh, s_abs, top = (
                    v * _BIG for v in (d, s, sh, s_abs, top))
        if abs(f) > _BIG:
            f, f1, h, h1, s, sh, s_abs, top = (
                v * _SMALL for v in (f, f1, h, h1, s, sh, s_abs, top))
    half = 0.5 * x
    S, Sh = d * f + half * s, d * h + half * sh
    S_abs, top = abs(d * f) + half * s_abs, half * top
    for k in range(0, -m, -1):  # on down to mu
        a = nuc + k * c
        f, f1, h, h1 = a * f - f1, f, a * h - h1, h
        if abs(f) > _BIG:
            f, f1, h, h1, S, Sh, S_abs, top = (
                v * _SMALL for v in (f, f1, h, h1, S, Sh, S_abs, top))
    log_half = math.log(half)
    lead = nu * log_half - _log_gamma(nu + 1)
    if lead.real > _LOG_MAX:
        raise ValueError(_BEYOND_DOUBLE)
    size = abs(S)
    if not size:
        return _miller_series(mu, x, atol, "completely")
    scale = cmath.exp(lead) * d / S
    value = f * scale
    eps = (N + m + 4) * _STEP_ULPS  # steps, with the final products
    alpha = (N + 1 - abs(nu)) * c
    r = 1 / (alpha / 2 + math.sqrt(alpha * alpha / 4 - 1))
    # |c_{j+1} / c_j| for j >= N/2, times r^2 >= |F_{2j+2} / F_{2j}|
    q = r * r * (1 + 2 / (N - abs(nu))) * (abs(nu) + N / 2) / (N / 2 + 1)
    tail = top * q / (1 - q) / size if q < 1 else math.inf
    v = Sh / S
    fv = f * v
    off = tail + eps * S_abs / size  # S's relative error but for R S(h)
    room = 1 - r * abs(v) - off
    bound = (eps * (abs(f) + 2 * abs((nuc + (1 - m) * c) * f1)
                    + r * (abs(fv) + abs(h)))
             + r * abs(fv - h) + abs(f) * off) / room if room > 0 else math.inf
    err = abs(scale) * bound + abs(value) * _lead_rel(nu, log_half)
    if not (cmath.isfinite(value) and err <= max(atol, _ATOL * abs(value))):
        return _miller_series(mu, x, atol, f"{S_abs / size:.1e}-fold, and "
                                           f"it declares {err:.1e}")
    return value, err


_MAX_RUN = 2 ** 14  # steps of the series-normalised recurrence at most
_LN2 = math.log(2.0)
_TINY = 2.0 ** -1074  # a subnormal J's rounding


def _miller_series(mu: complex, x: float, atol: float, cancels: str):
    """_miller's recurrence normalised instead by the ascending series at
    the order nu + K, K the least even integer >= x^2/8, whose ratios of
    consecutive terms are at most 2/k, so it cannot cancel much.  Its
    leading term is L P, L that of nu and P = prod_{k<=K} (x/2)/(nu+k), so
    J_mu = L P S f_{-m} / f_K with S the series over its leading term; f
    and P are rescaled by powers of two, their exponents kept apart.
    Raises ValueError where the error exceeds max(atol, 1e-10 |J|), where
    the run would take more than _MAX_RUN steps (x above about 350), and
    where J leaves the range of a double; `cancels` says how Neumann's sum
    failed.

    The declared error is |J| s / (1 - s), which bounds the product of the
    factors (1 + s_i) beyond first order, s the sum of
      - _lead_rel for L, and S's error as the series declares it;
      - 2^-52 times 5 per factor of P (the roundings of w = nu + k, |w|^2,
        (x/2) / |w|^2 and its product by the conjugate of w) and 4 for the
        final products;
      - 2^-52 per step of the neighbourhoods of f_{-m} and f_K, as in
        _miller;
      - truncation: with F = f + R h as in _miller, F_{-m} / F_K is
        f_{-m} / f_K times 1 + R (v_{-m} - v_K) / (1 + R v_K), v = h / f,
        so off by at most r (|v_{-m} - v_K| plus its rounding)
        / (1 - r |v_K|).
    """
    m = max(0, math.ceil(-mu.real))
    nu = mu + m
    half = 0.5 * x
    K = 2 * math.ceil(half * half / 4)
    N = K + 2 * math.ceil((max(x, abs(nu)) + x) / 2) + 20
    if N > _MAX_RUN:
        raise ValueError(_refusal(mu, x, cancels, f"normalising by the series "
                                  f"instead would take {N} steps"))
    c = 2.0 / x
    nuc = nu * c
    f, f1, h, h1 = 1 + 0j, 0j, 0j, 1 + 0j  # f_k, f_{k+1}, and h's
    shifts = 0  # rescalings of f since f_K
    for k in range(N, -m, -1):  # from f_k, f_{k+1} to f_{k-1}
        a = nuc + k * c
        f, f1, h, h1 = a * f - f1, f, a * h - h1, h
        if k == K + 1:
            fK, hK, near_K, shifts = f, h, abs(f) + 2 * abs(a * f1), 0
        if abs(f) > _BIG:
            f, f1, h, h1 = (v * _SMALL for v in (f, f1, h, h1))
            shifts += 1
    P = 1 + 0j
    for k in range(1, K + 1):
        w = nu + k
        t = half / (w.real * w.real + w.imag * w.imag)
        P *= complex(w.real * t, -w.imag * t)
        if abs(P) < _SMALL:
            P *= _BIG
            shifts -= 1
    S, tail, max_mag, terms, _ = _series(1 + 0j, nu + K, half * half)
    log_half = math.log(half)
    lead = nu * log_half - _log_gamma(nu + 1)
    z = P * S * (f / fK)
    if not (z and -_LOG_MAX < lead.real < _LOG_MAX):
        raise ValueError(_refusal(mu, x, cancels, "the series normalisation "
                                  "underflows"))
    e2 = math.frexp(abs(z))[1]
    z = complex(math.ldexp(z.real, -e2), math.ldexp(z.imag, -e2))
    e2 += 300 * shifts
    if lead.real + (e2 + 1) * _LN2 > _LOG_MAX:
        raise ValueError("J or its error beyond the range of a double")
    value = cmath.exp(lead) * z
    value = complex(math.ldexp(value.real, e2), math.ldexp(value.imag, e2))
    eps_m, eps_K = (N + m + 4) * _STEP_ULPS, (N - K + 2) * _STEP_ULPS
    alpha = (N + 1 - abs(nu)) * c
    r = 1 / (alpha / 2 + math.sqrt(alpha * alpha / 4 - 1))
    v_m, v_K = h / f, hK / fK
    room = 1 - r * abs(v_K)
    s = (_lead_rel(nu, log_half) + (5 * K + 4) * _STEP_ULPS
         + (tail + max_mag * 1e-16 * terms) / abs(S)
         + eps_m * (1 + 2 * abs((nuc + (1 - m) * c) * f1 / f))
         + eps_K * near_K / abs(fK))
    s += r * (abs(v_m - v_K) + eps_m * abs(v_m) + eps_K * abs(v_K)) / room \
        if room > 0 else math.inf
    err = abs(value) * s / (1 - s) + _TINY if s < 1 else math.inf
    if not err <= max(atol, _ATOL * abs(value)):
        raise ValueError(_refusal(mu, x, cancels, f"normalised by the series "
                                  f"at order nu + {K} it declares {err:.1e}"))
    return value, err


def _refusal(mu, x, cancels, instead):
    return (f"J_{mu}({x}) is beyond what double precision serves here: the "
            f"series and the backward recurrence both miss the tolerance "
            f"(the recurrence's normalising sum cancels {cancels}; "
            f"{instead})")


def _bessel_j_nodes(mu, x: float, atol):
    """J_mu(x) at an array of orders mu and one x > 0, with declared errors:
    bessel_j_err's double-precision series run over all orders at once.
    Each order stops by the scalar stopping rule and is declared the same
    error; each whose error exceeds its own entry of `atol` (and
    1e-10 |J|) is recomputed by _miller, whose ValueError it raises.
    Unlike bessel_j_err it checks only x against _X_CAP: it assumes x > 0,
    no negative integer order and |Im mu| <= 2 _IM_CAP, as the transforms
    guarantee.  The transforms call it with every node of their rule at
    once; point values keep the scalar series (see the module docstring).
    """
    if x > _X_CAP:
        raise ValueError(f"argument {x} beyond supported window {_X_CAP}")
    half = x / 2.0
    h2 = half * half
    log_half = math.log(half)
    n = len(mu)
    value, err = np.zeros(n, complex), np.full(n, math.inf)
    live = np.arange(n)  # the orders still summing, and their state
    m = mu
    lead = m * log_half - _log_gamma_nodes(m + 1)
    if (lead.real > _LOG_MAX).any():
        raise ValueError(_BEYOND_DOUBLE)
    term = np.exp(lead)
    total, comp = np.zeros(n, complex), np.zeros(n, complex)
    max_mag, abs_sum = np.zeros(n), np.zeros(n)
    for k in range(502):  # orders still summing after that keep err = inf
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
            value[i] = total[done]
            err[i] = _declared_error(
                m[done], log_half, mag[done] * ratio[done] / (1 - ratio[done]),
                max_mag[done], k + 1, abs_sum[done])
            keep = ~done
            live, m, mk, term, total, comp, max_mag, abs_sum = (
                a[keep] for a in (live, m, mk, term, total, comp, max_mag,
                                  abs_sum))
            if not len(live):
                break
        term = term * -h2 / ((k + 1) * mk)
    missed = ~(err <= np.maximum(atol, _ATOL * np.abs(value)))
    for i in np.flatnonzero(missed | ~np.isfinite(value)):
        value[i], err[i] = _miller(complex(mu[i]), x, atol[i])
    return value, err


def bessel_j(mu: complex, x: float) -> complex:
    """J_mu(x) to 1e-10 max(1, |J|); see bessel_j_point."""
    return bessel_j_err(mu, x)[0]


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
    _ATOL.  The error is twice trapezoid's; the tail beyond H is left to
    each formula.  Raises ValueError for a t that is 0 or not finite, and
    where the weight phi(nu) nu / cos(...), formed left to right, leaves
    the range of a double.
    """
    check_parity(parity)
    if eta not in (1, -1):
        raise ValueError("eta must be 1 or -1")
    if t == 0 or not math.isfinite(t):
        raise ValueError(f"t must be finite and nonzero, got {t}")
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
