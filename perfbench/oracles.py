"""Reference values the benchmark checks specsum's outputs against.

Everything here is independent of specsum's code paths: Kloosterman sums by
brute force in integer arithmetic, Bessel functions from mpmath at 40
digits, and measures and volumes from mpmath quadrature or elementary
geometry.  None of this runs inside a timed region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np


def field_constants(m: int):
    """(s, t) with w^2 = s w + t for the integral basis (1, w) of Q(sqrt m)."""
    if m == 1:
        return 0, 0
    return (1, (m - 1) // 4) if m % 4 == 1 else (0, m)


def omega_embeddings(m: int):
    if m == 1:
        return (1.0,)
    r = math.sqrt(m)
    return ((1 + r) / 2, (1 - r) / 2) if m % 4 == 1 else (r, -r)


def norm(m: int, x: int, y: int) -> int:
    if m == 1:
        return x
    s, t = field_constants(m)
    return x * x + s * x * y - t * y * y


def trace_dual_element(m: int, x: int, y: int):
    """(x + y w) / (2w - s) in rational coordinates: an element of O'."""
    if m == 1:
        return Fraction(x), Fraction(0)
    s, t = field_constants(m)
    disc = s * s + 4 * t
    return Fraction(-s * x + 2 * t * y, disc), Fraction(2 * x + s * y, disc)


def principal_hnf(m: int, x: int, y: int):
    """Integer row HNF (a, b, d) of the lattice spanned by c and c*w."""
    s, t = field_constants(m)
    a1, b1, a2, b2 = x, y, t * y, x + s * y
    while a2:
        q = a1 // a2
        a1, b1, a2, b2 = a2, b2, a1 - q * a2, b1 - q * b2
    if a1 < 0:
        a1, b1 = -a1, -b1
    d = abs(b2)
    return a1, b1 % d, d


def level_generator(m: int, c: tuple) -> tuple:
    """The element specsum's CLI uses for the character of level (c): the
    first u*b1 + v*b2, u and v in -6..6, over the HNF basis b1 = a + b w,
    b2 = d w of (c), that generates (c) again."""
    a, b, d = principal_hnf(m, *c)
    for u in range(-6, 7):
        for v in range(-6, 7):
            g = (u * a, u * b + v * d)
            if g != (0, 0) and principal_hnf(m, *g) == (a, b, d):
                return g
    return None


def box_points(m: int, box: float):
    """Nonzero integral c = x + y w with |sigma_j(c)| <= box at every place."""
    tol = 1e-12
    if m == 1:
        n = int(math.floor(box + tol))
        return [(k, 0) for k in range(1, n + 1)] + [(-k, 0) for k in range(1, n + 1)]
    w1, w2 = omega_embeddings(m)
    vmax = int(math.floor(2 * box / abs(w1 - w2) + 1))
    out = []
    for y in range(-vmax, vmax + 1):
        lo = max(-box - y * w1, -box - y * w2)
        hi = min(box - y * w1, box - y * w2)
        for x in range(math.floor(lo) - 1, math.ceil(hi) + 2):
            if (x, y) == (0, 0):
                continue
            if abs(x + y * w1) <= box + tol and abs(x + y * w2) <= box + tol:
                out.append((x, y))
    return out


@lru_cache(maxsize=None)
def kloosterman(m: int, c: tuple, r: tuple, rp: tuple) -> complex:
    """S(r, r'; c) for the trivial character, by brute force.

    c = (x, y) integral; r, rp = pairs of Fractions in O'.  Inverses come
    from the full multiplication table of O/(c); the phase trace is an exact
    integer numerator over one common denominator.
    """
    x, y = c
    n_c = abs(norm(m, x, y))
    if n_c == 1:
        return 1.0 + 0.0j
    s, t = field_constants(m)
    den_r = math.lcm(*(v.denominator for v in r + rp))
    R = [int(v * den_r) for v in r]
    RP = [int(v * den_r) for v in rp]
    if m == 1:
        units = np.array([a for a in range(n_c) if math.gcd(a, n_c) == 1],
                         dtype=np.int64)
        inv = np.array([pow(int(a), -1, n_c) for a in units], dtype=np.int64)
        num = R[0] * units + RP[0] * inv
        den = den_r * x
        return _phase_sum(num, den)
    a, b, d = principal_hnf(m, x, y)
    ii, jj = np.meshgrid(np.arange(a, dtype=np.int64),
                         np.arange(d, dtype=np.int64), indexing="xy")
    ii, jj = ii.ravel(), jj.ravel()

    def reduce_index(X, Y):
        q = X // a
        return (X - q * a) + a * ((Y - q * b) % d)

    X = ii[:, None] * ii[None, :] + t * jj[:, None] * jj[None, :]
    Y = ii[:, None] * jj[None, :] + jj[:, None] * ii[None, :] \
        + s * jj[:, None] * jj[None, :]
    prod = reduce_index(X, Y)
    one = reduce_index(np.int64(1), np.int64(0))
    k, l = np.nonzero(prod == one)
    # r*u + r'*v with u = (ii[k], jj[k]) and its inverse v = (ii[l], jj[l]),
    # then times conj(c), then the trace, all over den_r * N(c)
    P = R[0] * ii[k] + t * R[1] * jj[k] + RP[0] * ii[l] + t * RP[1] * jj[l]
    Q = R[0] * jj[k] + R[1] * ii[k] + s * R[1] * jj[k] \
        + RP[0] * jj[l] + RP[1] * ii[l] + s * RP[1] * jj[l]
    C1, C2 = x + s * y, -y
    U = P * C1 + t * Q * C2
    V = P * C2 + Q * C1 + s * Q * C2
    num = 2 * U + s * V
    return _phase_sum(num, den_r * norm(m, x, y))


def _phase_sum(num, den):
    if den < 0:
        num, den = -num, -den
    frac = np.mod(num, den).astype(float) / den
    return complex(np.exp(2j * np.pi * frac).sum())


def ksum_partial(m: int, r: tuple, box: float, tau: float = 0.3):
    """Brute-force partial sum of the Kloosterman series over the box, with
    the weight f(t) = prod_j min(|t_j|^{2 tau}, 1) the benchmark passes.

    Returns (value, sum of |term| majorants by the trivial bound, count)."""
    wv = omega_embeddings(m)
    r_emb = [abs(float(r[0]) + float(r[1]) * w) for w in wv] if m != 1 \
        else [abs(float(r[0]))]
    total, majorant = 0.0j, 0.0
    pts = box_points(m, box)
    for x, y in pts:
        emb = [x + y * w for w in wv] if m != 1 else [float(x)]
        f = math.prod(min(abs(4 * math.pi * rv / cv) ** (2 * tau), 1.0)
                      for rv, cv in zip(r_emb, emb))
        n_c = abs(norm(m, x, y))
        total += kloosterman(m, (x, y), r, r) / n_c * f
        majorant += f
    return total, majorant, len(pts)


@lru_cache(maxsize=None)
def bessel_j(mu_re: float, mu_im: float, x: float):
    """J_mu(x) at 40 digits as (hi, lo): hi is the nearest complex double
    and lo the remainder, so |v - J| = |(v - hi) - lo| keeps the digits
    below the last bit of hi."""
    with mpmath.workdps(40):
        ref = mpmath.besselj(mpmath.mpc(mu_re, mu_im), mpmath.mpf(x))
        hi = complex(ref)
        return hi, complex(ref - hi)


def nv_interval(b: float, lo: float, hi: float) -> float:
    """Reference measure of i[lo, hi]: weight 1 below 1, t^b above."""
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        if lo < 1:
            total += min(hi, 1) - lo
        if hi > 1:
            total += mpmath.quad(lambda t: t ** b, [max(lo, 1), hi])
        return float(total)


def npl_interval(parity: int, lo: float, hi: float) -> float:
    with mpmath.workdps(30):
        if parity == 0:
            g = lambda t: t * mpmath.tanh(mpmath.pi * t)
        else:
            g = lambda t: t * mpmath.coth(mpmath.pi * t)
        return float(2 * mpmath.quad(g, [lo, hi]))


def pl_interval(parity: int, lo: float, hi: float) -> float:
    """Continuous Plancherel mass of [lo, hi] in lambda, lo > 1/4."""
    with mpmath.workdps(30):
        th = mpmath.tanh if parity == 0 else mpmath.coth
        return float(mpmath.quad(
            lambda lam: th(mpmath.pi * mpmath.sqrt(lam - 0.25)), [lo, hi]))


def simplex2_volume(Y: float) -> float:
    """nv1 of {l1, l2 >= 5/4, l1 + l2 <= Y}: triangle area times density 1/4."""
    side = max(Y - 2.5, 0.0)
    return side * side / 2 / 4


def sphere2_volume(m1: float, m2: float, r: float) -> float:
    """Twice the integral of t1 t2 over the disc: area times centroid product."""
    return 2 * math.pi * r * r * m1 * m2
