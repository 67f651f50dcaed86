"""Error budgets, smoothing-parameter selection, main-term asymptotics for
the special region families, and a synthetic-spectrum counting pipeline.

The budget machinery quantifies how well the weighted spectral count over a
product region C = C+ x C- is approximated by the main term
(2 sqrt|D_F| / (2 pi)^d) * pl(C): the error splits into a Kloosterman piece,
a test-function-tail (smoothing) piece, a boundary-shell piece, and a
Plancherel-smoothing piece of size U^{-1/2}.

The families table integrates the Plancherel density over each family's
region by the fixed rules of specsum.quadrature, each with a declared
error (_weyl2_value, _slant_value, _sphere_value and the sector's
quadrature_vc).
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .measures import (
    _BLOCK,
    npl,
    nv_b,
    pl_lambda,
    plancherel_density,
    plancherel_mass,
)
from .numberfield import QuadField
from .quadrature import gauss_legendre, trapezoid
from .regions import (
    HypercubeFamily,
    ProductRegion,
    SectorFamily,
    discrete_singleton,
    shell_growth_constant,
    shells,
    unit_ball_volume,
)


def field_prefactor(F: QuadField) -> float:
    """2 sqrt|D_F| / (2 pi)^d, the constant in front of the main term."""
    return 2 * math.sqrt(abs(F.discriminant)) / (2 * math.pi) ** F.d


# --------------------------------------------------------------------------
# the choice of U, eps
# --------------------------------------------------------------------------

def _nv(b, region):
    return 1.0 if region is None else nv_b(b, region).value


class PreAsymptoticError(ValueError):
    """m_rho is too large for the smoothing parameters to be admissible."""


def choose_U(m: float, t0: float, n_qplus: int) -> float:
    """U = (|log m| - (1/2) log|log m|) / (t0 |Q+|).

    Requires m < 1/e so |log m| > 1.  The admissibility floor U > D e^2 is
    error_budget's check.
    """
    if n_qplus < 1:
        raise ValueError("Q+ must be nonempty to choose U")
    if not 0 < m < math.exp(-1):
        raise PreAsymptoticError(
            f"m_rho={m:.3g} not below the 1/e threshold")
    L = abs(math.log(m))
    return (L - 0.5 * math.log(L)) / (t0 * n_qplus)


def choose_eps(m: float, U: float) -> float:
    """eps = sqrt(log|log m| / (2U)); satisfies U eps^2 = (1/2) log|log m|
    exactly."""
    if not 0 < m < math.exp(-1):
        raise PreAsymptoticError(
            f"m_rho={m:.3g} not below the 1/e threshold")
    if U <= 0:
        raise ValueError("U must be positive")
    return math.sqrt(math.log(abs(math.log(m))) / (2 * U))


# --------------------------------------------------------------------------
# error budget
# --------------------------------------------------------------------------

# The decay parameters of the Kloosterman piece, fixed by the test
# functions' strip half-width tau = 0.3 and delta = 0.01: rho = rho1 +
# (1 - rho1) delta with rho1 = 3/2 - 0.45 - tau (0.45 the exponent split in
# the large-nu Bessel estimate), and A = 3 - 2 delta, as the doubles those
# expressions give.
RHO = 0.7525
A = 2.98


@dataclass
class ErrorBudget:
    main_term: float
    kloosterman_piece: float
    smoothing_piece: float
    boundary_piece: float
    plancherel_piece: float  # the U^{-1/2} Plancherel-smoothing piece
    U: float
    eps: float

    @property
    def pieces(self):
        return (self.kloosterman_piece, self.smoothing_piece,
                self.boundary_piece, self.plancherel_piece)

    @property
    def total_error(self):
        return sum(self.pieces)

    @property
    def ratio(self):
        return self.total_error / self.main_term if self.main_term else math.inf


def main_term(region, F: QuadField) -> float:
    """(2 sqrt|D_F| / (2 pi)^d) * pl(region); 0 for an empty region."""
    if region is None:
        return 0.0
    return field_prefactor(F) * npl(region).value


def error_budget(c_plus, c_minus, t0: float, U: float, eps: float,
                 F: QuadField) -> ErrorBudget:
    """The four-piece error bound for the count over C = C+ x C-, plus the
    main term, at the smoothing scale t0 and the decay parameters RHO and
    A, which tau = 0.3 and delta = 0.01 fix (see their comment).  With Q+
    empty the whole budget collapses to nv_{-A}(C-)."""
    combined = ProductRegion(
        tuple(getattr(c_plus, "factors", ())) +
        tuple(getattr(c_minus, "factors", ())))
    main = main_term(combined, F)
    if c_plus is None or c_plus.d == 0:
        return ErrorBudget(main, _nv(-A, c_minus), 0.0, 0.0, 0.0,
                           U, eps)
    n_plus = c_plus.d
    _, D = shell_growth_constant(n_plus)
    if not U > D * math.e ** 2:
        raise ValueError(f"admissibility violated: U={U:.6g} <= D e^2 = "
                         f"{D * math.e ** 2:.6g}")
    lo, hi = math.sqrt(D / U), math.exp(-1)
    if not lo <= eps <= hi:
        raise ValueError(f"admissibility violated: eps={eps:.6g} outside "
                         f"[sqrt(D/U), 1/e] = [{lo:.6g}, {hi:.6g}]")
    nv1_c = _nv(1.0, c_plus) * _nv(1.0, c_minus)
    kloosterman = math.exp(t0 * U * n_plus) \
        * _nv(RHO, c_plus) * _nv(-A, c_minus)
    smoothing = math.exp(-U * eps * eps) * nv1_c
    boundary = shells(c_plus, 2 * eps).nv1_ring * _nv(1.0, c_minus)
    plancherel_smoothing = nv1_c / math.sqrt(U)
    return ErrorBudget(main, kloosterman, smoothing, boundary,
                       plancherel_smoothing, U, eps)


def hypercube_budget_sweep(F: QuadField, t_grid, sigma: float = 40.0):
    """Error budgets along a grid for the hypercube family a_j(t) = t.

    The canonical choices choose_U/choose_eps make every piece o(main), but
    only at scales t far beyond double precision (the decay is a power of
    log t).  The proposition holds for ANY admissible (U, eps), so the
    schedules here pick admissible values for which all four pieces are
    small and decreasing at representable t: a small smoothing scale
    t0 = 0.005 keeps the Kloosterman piece subdominant, U = 600 + 15k grows
    slowly (shrinking the U^{-1/2} piece while U eps^2 still grows), and
    eps = 0.082 - 0.0008k shrinks slowly (shrinking the boundary shell),
    at the k-th grid point.

    HypercubeFamily refuses a t at which the double side (t + sigma) - t
    is off from sigma by more than 1e-3 of it.
    """
    fam = HypercubeFamily([lambda t: t] * F.d, sigma)
    return [error_budget(fam.instance(t).product, None, 0.005,
                         600.0 + 15.0 * k, 0.082 - 0.0008 * k, F)
            for k, t in enumerate(t_grid)]


# --------------------------------------------------------------------------
# asymptotic-constant table for the special families
# --------------------------------------------------------------------------

def _loglog_fit(ts, vals, exponent=None):
    """Fit vals ~ const * t^exponent; if exponent is None, fit both."""
    lt, lv = np.log(ts), np.log(vals)
    if exponent is None:
        slope, intercept = np.polyfit(lt, lv, 1)
        return math.exp(intercept), float(slope)
    intercept = float(np.mean(lv - exponent * lt))
    return math.exp(intercept), float(exponent)


def _weyl1_value(F, t):
    # lambda box [-t, t]^d at a single fixed parity per place
    v = pl_lambda(0, -t, t).value
    return field_prefactor(F) * math.prod([v] * F.d)


def _weyl2_value(F, t):
    """(value, error) of the main term of the simplex {lambda_j >= 0,
    sum <= t}.  The last place's mass M(r) = pl_lambda(0, 0, r) is a closed
    form; over Q(sqrt m) the first place integrates it over
    lambda = 1/4 + u^2 (d lambda = 2u du), plus its one discrete point,
    b = 2 at lambda = 0, of weight 1.

    Above u = k = sqrt(t - 1/2) the rest r = t - 1/4 - u^2 is at most 1/4
    and M(r) = 1, so that piece is pl_lambda(0, t - 1/4, t).  Below it,
    u = k sin(theta) turns the edge (k^2 - u^2)^(3/2) of M into
    1 + 2P(k cos(theta)), P(w) the mass of [0, w], smooth in theta.  Near
    either end tanh(pi u) or the exponential part of P bends on a scale
    1/k, which theta = (pi/4)(1 + tanh((pi/2) sinh(s))) spreads out
    (Takahasi & Mori, 1974): the trapezoidal rule in s on [-3, 3], which
    leaves out the last 4e-14 of theta at either end, where the
    integrand vanishes.
    """
    last = pl_lambda(0, 0.0, t)
    if F.d == 1:
        return field_prefactor(F) * last.value, field_prefactor(F) * last.error
    top = pl_lambda(0, max(t - 0.25, 0.25), t)
    k = math.sqrt(max(t - 0.5, 0.0))
    s = np.linspace(-3.0, 3.0, 193)
    sh = np.pi / 2 * np.sinh(s)
    theta = (np.pi / 4 * (1 + np.tanh(sh))).tolist()
    dtheta = np.pi ** 2 / 8 * np.cosh(s) / np.cosh(sh) ** 2
    g = [2 * plancherel_density(0, k * math.sin(x))
         * (1 + 2 * plancherel_mass(0, 0.0, k * math.cos(x))[0])
         * k * math.cos(x) for x in theta]
    v, e = trapezoid(s, np.array(g) * dtheta)
    return field_prefactor(F) * (v + top.value + last.value), \
        field_prefactor(F) * (e + top.error + last.error)


def _slant_value(F, t):
    """(value, error) of the main term of the strip between the lines
    y = x and y = x + 1 over x in [t, 2t], by 4-point Gauss-Legendre
    against 2-point (both exact where the density is x to double
    precision, x >= 6)."""
    def inner(x):
        return plancherel_density(0, x) * plancherel_mass(0, x, x + 1.0)[0]

    v, e = gauss_legendre(inner, t, 2 * t, 4)
    return field_prefactor(F) * 4 * v, field_prefactor(F) * 4 * e


def _sphere_value(F, t):
    """(value, error) of the main term of the unit ball around (t, 2t),
    counted with multiplicity 2 per place and the sign choices 2^d: in
    polar coordinates (s, theta) the trapezoidal rule of 16 steps over the
    period in theta, of 4-point Gauss-Legendre in s against 2-point, whose
    errors add to the trapezoidal rule's."""
    m1, m2 = t, 2 * t

    def ray(th):
        c, d = math.cos(th), math.sin(th)
        return gauss_legendre(lambda s: plancherel_density(0, m1 + s * c)
                              * plancherel_density(0, m2 + s * d) * s,
                              0.0, 1.0, 4)

    theta = np.linspace(0.0, 2 * math.pi, 17)
    v, e = trapezoid(theta, *np.array([ray(th) for th in theta.tolist()]).T)
    scale = field_prefactor(F) * 2 ** F.d * 2
    return scale * v, scale * e


# rows whose regions have two places (the quadratic case): they need F.d == 2
TWO_PLACE_ROWS = frozenset({"slant", "sphere", "sector", "rectquad"})
# t grid of each row of the families table
FAMILY_GRIDS = {
    "weyl1": np.geomspace(100, 1000, 5),
    "weyl2": np.geomspace(100, 1000, 5),
    "slant": np.geomspace(1000, 10000, 5),
    "sphere": np.geomspace(100, 1000, 5),
    "sector": np.geomspace(1e6, 1e7, 5),
    "rectquad": np.geomspace(1e4, 1e5, 5),
    "holo": [1.0, 2.0, 3.0],
}


def family_asymptotic_table(name: str, F: QuadField, t_grid) -> dict:
    """Fitted (constant, exponent) of the main term along the grid, against
    the closed-form leading asymptotics.

    Rows: weyl1, weyl2, slant, sphere, sector, rectquad, holo; those in
    TWO_PLACE_ROWS need a quadratic field.  The sector row compares the
    reference measure V_1 (no field factor); holo is an exact algebraic
    identity at the discrete point (2, 3.5), one coordinate per place (2
    over Q).
    """
    t_grid = list(t_grid)
    if len(t_grid) < 3:
        raise ValueError("need at least 3 grid points")
    if name in TWO_PLACE_ROWS and F.d != 2:
        raise ValueError(f"family row {name!r} needs a quadratic field")
    d, sqD = F.d, math.sqrt(abs(F.discriminant))
    if name == "weyl1":
        vals = [_weyl1_value(F, t) for t in t_grid]
        target_c, target_e = 2 * sqD / math.pi ** d, float(d)
    elif name == "weyl2":
        vals = [_weyl2_value(F, t)[0] for t in t_grid]
        target_c = 2 * sqD / (math.factorial(d) * (2 * math.pi) ** d)
        target_e = float(d)
    elif name == "slant":
        vals = [_slant_value(F, t)[0] for t in t_grid]
        target_c, target_e = 14 / (3 * math.pi ** 2) * sqD, 3.0
    elif name == "sphere":
        vals = [_sphere_value(F, t)[0] for t in t_grid]
        # m = (t, 2t): prod m_j = 2 t^2
        target_c = 4 * sqD * unit_ball_volume(d) * (1 / math.pi) ** d * 2
        target_e = float(d)
    elif name == "sector":
        sec = SectorFamily(p=1.0, q=2.0, alpha=0.75)
        vals = [sec.quadrature_vc(1.0, t).value for t in t_grid]
        target_c, target_e = 0.25, 1.75
    elif name == "rectquad":
        # continuous mass of [5/4, 37/4] at the first place
        v1 = pl_lambda(0, 1.25, 9.25).value
        vals = [field_prefactor(F) * v1 * pl_lambda(0, 0.0, math.sqrt(t)).value
                for t in t_grid]
        target_c, target_e = sqD / (2 * math.pi ** 2) * v1, 0.5
    elif name == "holo":
        # singleton discrete spectrum: main term is exactly
        # 2 sqrt|D_F| / pi^d * prod p_j
        ps = [2.0, 3.5][:d]
        region = discrete_singleton(ps)
        value = main_term(region, F)
        target = 2 * sqD / math.pi ** d * math.prod(ps)
        return {"family": name, "value": value, "target": target,
                "rel_deviation": abs(value / target - 1),
                "exponent": None, "target_exponent": None}
    else:
        raise ValueError(f"unknown family row {name!r}")
    const, exponent = _loglog_fit(t_grid, vals)
    const_at_e, _ = _loglog_fit(t_grid, vals, exponent=target_e)
    return {
        "family": name,
        "constant": const,
        "exponent": exponent,
        "constant_at_target_exponent": const_at_e,
        "target": target_c,
        "target_exponent": target_e,
        "rel_deviation": abs(const_at_e / target_c - 1),
        "values": vals,
    }


# --------------------------------------------------------------------------
# synthetic spectrum
# --------------------------------------------------------------------------

class SyntheticSpectrum:
    """Poisson-sampled stand-in for the cuspidal spectrum: points are
    per-place spectral parameters on the positive imaginary axis, weights
    are the |c^r|^2 surrogates.

    The points are kept as one (n, d) array, coords; `points` gives them as
    a tuple of d-tuples of floats (|nu_j| on the axis).  A tuple per point
    would be a tracked object each, and tens of thousands of them set off
    a full collection of the garbage collector.
    """

    def __init__(self, points, weights, parities):
        self.coords = np.array(points, dtype=float).reshape(len(points),
                                                            len(parities))
        self.weights, self.parities = tuple(weights), tuple(parities)

    @property
    def points(self):
        return tuple(zip(*self.coords.T.tolist()))

    def __len__(self):
        return len(self.coords)

    def __eq__(self, other):
        return isinstance(other, SyntheticSpectrum) \
            and np.array_equal(self.coords, other.coords) \
            and self.weights == other.weights \
            and self.parities == other.parities


MAX_SYNTH_POINTS = 10 ** 6  # regions expecting more points are refused


def _doubles(gen):
    """The doubles of gen.random() in blocks of 2 _BLOCK (measures' block
    size): the (u1, u2) pairs of _BLOCK trials."""
    while True:
        yield gen.random(2 * _BLOCK)


def synth_spectrum(F: QuadField, region, seed: int = 0,
                   weight_law: str = "unit") -> SyntheticSpectrum:
    """Poisson point process on a product of imaginary intervals with
    intensity equal to the main-term density (field prefactor times the
    Plancherel density, doubled per place for the two signs).

    Each coordinate is rejection-sampled against the flat majorant dmax of
    the density on its interval [a, b]: a trial takes two doubles u1, u2 and
    accepts y = a + (b - a) u1 when dmax u2 <= density(y), the arithmetic of
    rng.uniform(a, b) and rng.uniform(0, dmax).  The trials fill the places
    of a point in turn, so the place of a trial depends on the rejections
    before it.

    The trials of a block are decided in numpy by a squeeze (Devroye,
    Non-Uniform Random Variate Generation, II.3): the density increases on
    [0, inf) and a >= 0, so density(y) >= density(a) for every y in [a, b],
    and a trial with dmax u2 <= density(a) (1 - 1e-12) is accepted without
    evaluating the density; the 1e-12 margin covers the few-ulp rounding of
    the density, which may break monotonicity between nearby points.  The
    other trials are decided exactly, in order, by plancherel_density, each
    rejection shifting the places of the trials after it.  The accepted y
    and the number of doubles used are those of the trial-by-trial loop.

    weight_law: "unit" (all weights 1) or "lognormal" (mean-1 multiplicative
    noise), seeded and deterministic.
    """
    intervals, parities = [], []
    for f in region.factors:
        if len(f.im) != 1 or f.re or f.disc:
            raise ValueError("synthetic sampling needs a product of single "
                             "imaginary intervals")
        intervals.append(f.im[0])
        parities.append(f.parity)
    expected = main_term(region, F)
    if not math.isfinite(expected) or expected <= 0:
        raise ValueError("region must carry positive finite Plancherel mass")
    if expected > MAX_SYNTH_POINTS:
        raise ValueError(f"region expects {expected:.4g} points, above "
                         f"{MAX_SYNTH_POINTS}")
    rng = default_rng(seed)
    n = rng.poisson(expected)
    # The doubles come in blocks from a copy of the generator, which is then
    # advanced past the ones used, so the weights below are drawn from the
    # same stream.
    d = len(intervals)
    lows = np.array([[a] for a, _ in intervals])
    widths = np.array([[b - a] for a, b in intervals])
    dmax = np.array([[max(plancherel_density(par, a), plancherel_density(par, b))]
                     for (a, b), par in zip(intervals, parities)])
    floor = np.array([[plancherel_density(par, a) * (1 - 1e-12)]
                      for (a, _), par in zip(intervals, parities)])
    draw = _doubles(copy.deepcopy(rng))
    accepted, trials, left = [], 0, n * d
    while left:
        u = next(draw)
        size = len(u) // 2
        y = lows + widths * u[0::2]  # y and dmax u2 of each trial at each place
        du = dmax * u[1::2]
        over = du > floor
        # with no rejection, trial k is at place (k + shift) % d; per shift,
        # the trials the squeeze leaves open
        open_ = []
        for shift in range(d):
            mask = np.empty(size, dtype=bool)
            for q in range(d):
                mask[(q - shift) % d::d] = over[q, (q - shift) % d::d]
            open_.append(np.flatnonzero(mask).tolist())
        first = shift = (n * d - left) % d
        k, rejected = 0, []
        while left and k < size:
            # the trials k, ..., j - 1 are accepted; j is open, or the end
            todo = open_[shift]
            i = bisect_left(todo, k)
            j = min(todo[i] if i < len(todo) else size, k + left)
            left -= j - k
            k = j
            if not left or j == size:
                break
            q = (j + shift) % d
            if du.item(q, j) <= plancherel_density(parities[q], y.item(q, j)):
                left -= 1
            else:
                rejected.append(j)
                shift = (shift - 1) % d
            k = j + 1
        trials += k
        keep = np.delete(np.arange(k), rejected)
        accepted.append(y[(first + np.arange(len(keep))) % d, keep])
    rng.bit_generator.advance(2 * trials)
    ys = np.concatenate(accepted) if accepted else np.empty(0)
    if weight_law == "unit":
        weights = (1.0,) * int(n)
    elif weight_law == "lognormal":
        s = 0.5
        weights = tuple(rng.lognormal(mean=-s * s / 2, sigma=s, size=n))
    else:
        raise ValueError(f"unknown weight law {weight_law!r}")
    return SyntheticSpectrum(ys.reshape(-1, d), weights, parities)


def count(spectrum: SyntheticSpectrum, region) -> float:
    """Weighted count of the spectrum points inside a region: a point is
    inside when each coordinate lies in some interval of its factor (to
    1e-12).  The weights are added strictly in order (np.add.accumulate;
    np.sum would add pairwise)."""
    inside = np.ones(len(spectrum), dtype=bool)
    for y, factor in zip(spectrum.coords.T, region.factors):
        hit = np.zeros(len(spectrum), dtype=bool)
        for lo, hi in factor.im:
            hit |= (lo - 1e-12 <= y) & (y <= hi + 1e-12)
        inside &= hit
    w = np.array(spectrum.weights, dtype=float)[inside]
    return float(np.add.accumulate(w)[-1]) if len(w) else 0.0
