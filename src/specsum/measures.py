"""Spectral measures: Plancherel density, reference measures, Monte Carlo.

All measures act on per-place factors of product regions in the spectral
set (0, infinity) union i[0, infinity).  Imaginary intervals i[a,b] are
stored as real pairs (a, b); real intervals live in (0, nu_theta] where
nu_theta = sqrt(1/4 - lambda_star) = 1/9 bounds the exceptional spectral
parameters (lambda_star = 77/324 is fixed); discrete points are positive
half-integers or integers matching the place parity 0 or 1: the discrete
series b = 2 + parity, 4 + parity, ... at nu = (b-1)/2.

The lambda-coordinate is lambda = 1/4 - nu^2.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

# the fixed exceptional-eigenvalue bound lambda_star = 77/324, which gives
# nu_theta = sqrt(1/4 - lambda_star) = 1/9
LAMBDA_STAR_DEFAULT = 77.0 / 324.0


def nu_theta() -> float:
    """Upper bound 1/9 of the complementary-series branch."""
    return math.sqrt(0.25 - LAMBDA_STAR_DEFAULT)


def check_parity(parity: int) -> None:
    """Reject a place parity outside {0, 1}."""
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")


def check_interval(a: float, b: float) -> None:
    """Reject an imaginary interval i[a, b] unless 0 <= a <= b."""
    if not 0 <= a <= b:
        raise ValueError(f"interval [{a}, {b}] needs 0 <= a <= b")


def discrete_series(parity: int, lam_min: float):
    """Yield (b, lambda_b) with lambda_b = (b/2)(1 - b/2) for the discrete
    series b = 2 + parity, 4 + parity, ..., while lambda_b >= lam_min."""
    b = 2 + parity
    while (lam := (b / 2.0) * (1 - b / 2.0)) >= lam_min:
        yield b, lam
        b += 2


@dataclass
class MeasureResult:
    """A value with its error: a measure, a volume or a Bessel transform."""

    value: float  # complex for a Bessel transform
    error: float
    method: str  # e.g. closed-form, quadrature, monte-carlo, axis, contour
    detail: int = 0  # Monte Carlo sample count, else 0


def _combine(results, method):
    """Product of per-place MeasureResults with first-order error propagation."""
    value = 1.0
    for r in results:
        value *= r.value
    err = 0.0
    for r in results:
        rest = 1.0
        for s in results:
            if s is not r:
                rest *= abs(s.value)
        err += r.error * rest
    return MeasureResult(value, err, method)


# --------------------------------------------------------------------------
# Plancherel density in the nu coordinate
# --------------------------------------------------------------------------

def plancherel_density(parity: int, t: float) -> float:
    """Continuous Plancherel weight at nu = it (t >= 0)."""
    t = abs(t)
    if parity == 0:
        return t * math.tanh(math.pi * t)
    check_parity(parity)
    if t == 0:
        return 1.0 / math.pi
    return t / math.tanh(math.pi * t)


def dilog(z: float) -> float:
    """Li_2(z) = sum_k z^k / k^2 (DLMF 25.12.1) in double precision for
    |z| <= 1/2, by its power series; the antiderivative below calls it with
    |z| <= exp(-pi/2) < 0.21."""
    total, power, k = 0.0, z, 1
    while total + (term := power / (k * k)) != total:
        total += term
        power *= z
        k += 1
    return total


def _tanh_series(n: int):
    """t_0, ..., t_{n-1} of tanh z = sum_k t_k z^(2k+1): t_0 = 1 and, from
    tanh' = 1 - tanh^2, (2k+1) t_k = -sum_{i+j=k-1} t_i t_j."""
    t = [1.0]
    for k in range(1, n):
        t.append(-sum(t[i] * t[k - 1 - i] for i in range(k)) / (2 * k + 1))
    return t


# Below _SERIES_X the antiderivative of the density is its Taylor series,
# where the closed form would cancel its constant against the dilogarithm.
# From the series of tanh and z coth z = 2z coth 2z - z tanh z,
# P(x) = parity x/pi + sum_{n>=1} t_{n-1} pi^(2n-1) x^(2n+1)
#                                 / ((4^n - 1)^parity (2n+1)).
# Below x = 1/4 the terms fall by 4x^2 < 1/4 (parity 0) or x^2 a step, so
# 29 of them reach double precision.
_SERIES_X = 0.25
_SERIES = [[t * math.pi ** (2 * n - 1) / ((4 ** n - 1) ** parity * (2 * n + 1))
            for n, t in enumerate(_tanh_series(29), 1)] for parity in (0, 1)]


def _antiderivative(parity: int, x: float):
    """P(x) = integral of plancherel_density over [0, x], x >= 0, as
    (rest, size): P = x^2/2 + rest at and above _SERIES_X, P = rest below,
    and size bounds the terms of rest, weighted by how far rounding in
    exp(-2 pi x) carries.

    Closed form (DLMF 25.12), q = exp(-2 pi x):
    parity 0: x^2/2 - 1/24 + (x/pi) log(1 + q) - Li_2(-q) / (2 pi^2);
    parity 1: x^2/2 + 1/12 + (x/pi) log(1 - q) - Li_2(q) / (2 pi^2).
    """
    if x < _SERIES_X:
        x2, rest = x * x, 0.0
        for c in reversed(_SERIES[parity]):
            rest = rest * x2 + c
        rest = x * (parity / math.pi + x2 * rest)
        return rest, abs(rest)
    sign = 1 - 2 * parity
    q = math.exp(-2 * math.pi * x)
    log_term = x / math.pi * math.log1p(sign * q)
    li2_term = dilog(-sign * q) / (2 * math.pi ** 2)
    const = -1 / 24 if parity == 0 else 1 / 12
    size = abs(const) + (abs(log_term) + abs(li2_term)) * (1 + 2 * math.pi * x)
    return const + log_term - li2_term, size


def _mass(parity: int, a: float, b: float, half_diff: float, half_top: float):
    """(value, error) of P(b) - P(a), 0 <= a <= b, given (b^2 - a^2)/2 and
    b^2/2 to a few ulps; error bounds the rounding of the formula."""
    rest_a, size_a = _antiderivative(parity, a)
    rest_b, size_b = _antiderivative(parity, b)
    # with a on the closed-form branch b is there too, and the squares are
    # differenced without cancelling
    line = half_diff if a >= _SERIES_X else half_top if b >= _SERIES_X else 0.0
    value = line + (rest_b - rest_a)
    return value, 8 * 2.0 ** -52 * (abs(line) + size_a + size_b)


def plancherel_mass(parity: int, a: float, b: float):
    """(value, error) of the integral of plancherel_density over [a, b],
    0 <= a <= b, as P(b) - P(a) with P in closed form."""
    check_parity(parity)
    check_interval(a, b)
    return _mass(parity, a, b, (b - a) * (b + a) / 2, b * b / 2)


def discrete_admissible(parity: int, beta: float) -> bool:
    """True iff beta lies in (parity+1)/2 + N0 (the discrete-series points),
    to within 1e-9."""
    base = (parity + 1) / 2.0
    if beta < base - 1e-9:
        return False
    k = round(beta - base)
    return abs(beta - base - k) <= 1e-9


def npl_factor(factor) -> MeasureResult:
    """One-place Plancherel measure: 2*integral + 2*sum over the factor."""
    parity = factor.parity
    total = 0.0
    err = 0.0
    for a, b in factor.im:
        v, e = plancherel_mass(parity, a, b)
        total += 2 * v
        err += 2 * e
    # real (complementary) intervals carry zero Plancherel mass; a discrete
    # point weighs |beta|, and each sum with it rounds by up to half an ulp
    for beta in factor.disc:
        total += 2 * abs(beta)
        err += 2.0 ** -53 * abs(total)
    return MeasureResult(total, err, "closed-form")


def npl(region) -> MeasureResult:
    return _combine([npl_factor(f) for f in region.factors], "closed-form")


# --------------------------------------------------------------------------
# reference measures nv_b
# --------------------------------------------------------------------------

def power_integral(lo: float, hi: float, b: float) -> float:
    """integral of t^b over [lo, hi], 1 <= lo < hi."""
    if b == -1:
        return math.log(hi / lo)
    if (hi - lo) < 0.1 * lo or abs(b + 1) * math.log(hi / lo) <= 0.1:
        # stable form for relatively thin intervals and for b near -1, where
        # the naive difference of powers loses digits to cancellation
        return lo ** (b + 1) * math.expm1((b + 1) * math.log1p((hi - lo) / lo)) \
            / (b + 1)
    return (hi ** (b + 1) - lo ** (b + 1)) / (b + 1)


def nv_b_factor(b: float, factor) -> MeasureResult:
    """One-place reference measure with weight p(q)^b.

    p(q) = 1 on (0, nu_theta] and i[0,1), |q| elsewhere; the base measure is
    dt on the imaginary axis, dx on the complementary interval, and counting
    measure on the discrete points.  PlaceFactor has checked the intervals.
    """
    return _nv_b_place(b, factor.im, factor.re, factor.disc)


def _nv_b_place(b: float, im, re, disc) -> MeasureResult:
    total = 0.0
    for a, hi in im:
        flat_hi = min(hi, 1.0)
        if flat_hi > a:
            total += flat_hi - a
        lo = max(a, 1.0)
        if hi > lo:
            total += power_integral(lo, hi, b)
    for lo, hi in re:
        total += hi - lo
    for beta in disc:
        total += abs(beta) ** b
    return MeasureResult(total, 1e-14 * abs(total), "closed-form")


def nv_b(b: float, region) -> MeasureResult:
    return _combine([nv_b_factor(b, f) for f in region.factors], "closed-form")


def nv_1(region) -> MeasureResult:
    return nv_b(1.0, region)


# --------------------------------------------------------------------------
# measures in the lambda coordinate
# --------------------------------------------------------------------------

def pl_lambda(parity: int, lam_lo: float, lam_hi: float) -> MeasureResult:
    """Plancherel measure pl_parity of [lam_lo, lam_hi].

    Continuous part: tanh (parity 0) or coth (parity 1) of pi*sqrt(lambda-1/4)
    over the interval's intersection with (1/4, infinity).  Under
    lambda = 1/4 + u^2 it is 2(P(u1) - P(u0)) in closed form (_mass), with
    the u^2/2 parts taken from lambda - 1/4 rather than from the rounded u.
    Its error adds to the formula's rounding the shift from the rounded
    endpoints: u is off by under 2^-52 u, and |d rest/du| < 1/2.  Discrete
    part: weights (b-1) at lambda = (b/2)(1-b/2) for the discrete series of
    the parity, restricted to the interval.
    """
    check_parity(parity)
    if not (math.isfinite(lam_lo) and math.isfinite(lam_hi)):
        raise ValueError("interval must be bounded")
    total = 0.0
    err = 0.0
    lo = max(lam_lo, 0.25)
    if lam_hi > lo:
        u0 = math.sqrt(lo - 0.25)
        u1 = math.sqrt(lam_hi - 0.25)
        v, e = _mass(parity, u0, u1, (lam_hi - lo) / 2, (lam_hi - 0.25) / 2)
        total += 2 * v
        err += 2 * e + 2.0 ** -52 * (u0 + u1)
    for b, lam_b in discrete_series(parity, lam_lo - 1e-12):
        if lam_b <= lam_hi + 1e-12:
            total += b - 1
            err += 2.0 ** -53 * abs(total)  # the sum's rounding
    return MeasureResult(total, err, "closed-form")


def V_b_lambda_factor(b: float, intervals) -> MeasureResult:
    """One-place reference measure in the lambda coordinate.

    intervals: list of (lo, hi) in lambda-space, clipped to [lambda_star, inf).
    Weight (1/2)(lambda-1/4)^{(b-1)/2} above 5/4, (1/2)|lambda-1/4|^{-1/2}
    on [lambda_star, 5/4].  This is nv_b_factor's measure under
    lambda = 1/4 + t^2 (1/4 - x^2 below 1/4), so each interval is mapped to
    nu and measured there.  The mapped endpoints are rounded square roots,
    each off by up to 2^-52 of itself, and moving an endpoint t by dt moves
    the measure by about p(t)^b dt; the error counts this twice over, so on
    an interval thin against lambda it is far above 1e-14 relative.
    """
    im, re = [], []
    for lo, hi in intervals:
        lo = max(lo, LAMBDA_STAR_DEFAULT)
        if hi <= lo:
            continue
        if hi > 0.25:
            im.append((math.sqrt(max(lo, 0.25) - 0.25), math.sqrt(hi - 0.25)))
        if lo < 0.25:
            re.append((math.sqrt(0.25 - min(hi, 0.25)), math.sqrt(0.25 - lo)))
    res = _nv_b_place(b, im, re, ())
    rounding = 2.0 ** -51 * sum(t * max(t, 1.0) ** b
                                for pair in im + re for t in pair)
    return MeasureResult(res.value, res.error + rounding, res.method)


# --------------------------------------------------------------------------
# Monte-Carlo oracle
# --------------------------------------------------------------------------

# sample rows drawn at a time by the Monte Carlo oracle, and trials by the
# synthetic-spectrum sampler
_BLOCK = 1 << 16


def monte_carlo_measure(bbox, membership, weight=None, n_samples: int = 10 ** 5,
                        seed: int = 0, multiplicity: float = 1.0) -> MeasureResult:
    """Unbiased MC estimate of integral of weight over the region.

    bbox: list of (lo, hi) per coordinate; membership: vectorized predicate
    on an (n, d) array; weight: vectorized function on the same array (1 if
    None), finite and >= 0.  Both must act row by row, and may run on two
    threads at once, on disjoint blocks, not in row order.  Deterministic per
    seed; error is 3 times the standard error.  A box whose volume times
    multiplicity a double cannot hold is refused before any draw, and a
    block whose mean it cannot hold at the merge, at the first such block in
    row order.

    The samples are drawn _BLOCK rows at a time: consecutive blocks of
    gen.random((k, d)) are the doubles of one (n, d) draw in the same row
    order, each scaled to lo + (hi - lo) u as rng.uniform(lows, highs, size)
    does.  The B blocks fall into two shares: blocks [0, h), h = ceil(B/2),
    run in the calling thread and blocks [h, B) in one helper thread, which
    is joined before the merge (an exception in it is raised here); for
    n <= _BLOCK there is one block and no thread.  Each share draws from its
    own default_rng(seed), advanced past the d doubles of each row before its
    first (PCG64 jumps ahead in O(log n) steps, and gen.random takes one
    64-bit output per double), so every block holds the doubles of the one
    draw whichever share fills it.  Each share reuses one draw buffer of
    min(_BLOCK, n) rows and one buffer of as many values for the block's
    weighted indicator, all made before either share runs, so that the peak
    memory does not depend on how the shares overlap in time.  The block's
    mean m_b and centred sum of squares M2_b, numpy's reductions of that
    buffer, are stored, and the stored moments merge in block order into
    (mean, M2) by the update of Chan, Golub & LeVeque (Amer. Statist. 37,
    1983): with d = m_b - mean and share = k / (seen + k), mean += d share
    and M2 += M2_b + seen share d^2.  So (value, error) are the same doubles
    for any split of the blocks, and as the first block has seen = 0 and
    share = 1, for n <= _BLOCK they are the doubles of vals.mean() and
    vals.std(ddof=1) over one array of the n values.
    """
    if n_samples < 2:
        raise ValueError("Monte Carlo needs at least 2 samples")
    bbox = [(float(lo), float(hi)) for lo, hi in bbox]
    vol = 1.0
    for lo, hi in bbox:
        if hi <= lo:
            raise ValueError("degenerate bounding box")
        vol *= hi - lo
    scale = vol * multiplicity
    if not math.isfinite(scale):
        raise ValueError("Monte Carlo box volume beyond the range of a double")
    starts = range(0, n_samples, _BLOCK)
    moments = [None] * len(starts)  # (k, m_b, M2_b) of each block
    half = -(-len(starts) // 2)
    shares = 1 if half == len(starts) else 2
    rows = min(_BLOCK, n_samples)
    draws, bufs = np.empty((shares, rows, len(bbox))), np.empty((shares, rows))
    stop = threading.Event()

    def run(first, last, draw, buf):
        gen = np.random.default_rng(seed)
        gen.bit_generator.advance(starts[first] * len(bbox))
        for b in range(first, last):
            if stop.is_set():
                return
            k = min(_BLOCK, n_samples - starts[b])
            x = gen.random(out=draw[:k])
            for col, (lo, hi) in zip(x.T, bbox):
                col *= hi - lo
                col += lo
            v = buf[:k]
            inside = np.asarray(membership(x), dtype=bool)
            # quiet: an inf or nan mean is refused, an inf M2 gives an inf error
            with np.errstate(over="ignore", invalid="ignore"):
                # True w = w and False w = 0 for finite w >= 0: the np.where values
                np.multiply(inside, 1.0 if weight is None else weight(x), out=v)
                v *= scale
                m_b = float(v.sum()) / k
                v -= m_b
                moments[b] = k, m_b, float(np.square(v, out=v).sum())

    if shares == 1:
        run(0, half, draws[0], bufs[0])
    else:
        failed = []

        def helper():
            try:
                run(half, len(starts), draws[1], bufs[1])
            except BaseException as exc:  # raised in the caller after the join
                failed.append(exc)

        thread = threading.Thread(target=helper)
        thread.start()
        try:
            run(0, half, draws[0], bufs[0])
        except BaseException:
            stop.set()  # the caller's blocks come first in row order
            raise
        finally:
            thread.join()
        if failed:
            raise failed[0]
    mean = m2 = 0.0
    for seen, (k, m_b, m2_b) in zip(starts, moments):
        if not math.isfinite(m_b):
            raise ValueError("Monte Carlo weight beyond the range of a double")
        d, share = m_b - mean, k / (seen + k)
        mean += d * share
        m2 += m2_b + seen * share * d * d
    stderr = math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)
    return MeasureResult(mean, 3 * stderr, "monte-carlo", n_samples)
