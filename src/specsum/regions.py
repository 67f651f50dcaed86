"""Spectral-space geometry: shells, bluntness, region families.

Points live per place on the two branches i[0, infinity) (principal) and
(0, nu_theta] (complementary), plus the discrete points (b-1)/2.  For shell
arithmetic the two branches are flattened isometrically onto the real line:
i t -> t >= 0 and x -> -x in [-nu_theta, 0).  On the chart the branch
distance |q - nu| / |q| + |nu| becomes plain |u - u'|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    MeasureResult,
    check_interval,
    check_parity,
    discrete_admissible,
    monte_carlo_measure,
    nu_theta,
    nv_b,
    power_integral,
)
from .quadrature import gauss_legendre, trapezoid


# --------------------------------------------------------------------------
# product regions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaceFactor:
    """One place of a product region.

    im: imaginary-axis intervals (a, b) meaning i[a, b], 0 <= a <= b
    re: complementary intervals (a, b), 0 <= a <= b <= nu_theta
    disc: discrete points beta, admissible at the parity

    Each is checked here, once, so the measures need not clip or skip.
    """

    parity: int = 0
    im: tuple = ()
    re: tuple = ()
    disc: tuple = ()

    def __post_init__(self):
        check_parity(self.parity)
        for a, b in self.im:
            check_interval(a, b)
        for a, b in self.re:
            if not 0 <= a <= b <= nu_theta():
                raise ValueError(f"complementary interval [{a}, {b}] needs "
                                 f"0 <= a <= b <= nu_theta = 1/9")
        for beta in self.disc:
            if not discrete_admissible(self.parity, beta):
                raise ValueError(f"point {beta} not admissible for parity "
                                 f"{self.parity}")


@dataclass(frozen=True)
class ProductRegion:
    factors: tuple

    @property
    def d(self):
        return len(self.factors)


def imaginary_box(intervals, parities=None) -> ProductRegion:
    if parities is None:
        parities = [0] * len(intervals)
    return ProductRegion(tuple(PlaceFactor(parity=p, im=((float(a), float(b)),))
                               for (a, b), p in zip(intervals, parities)))


def discrete_singleton(points, parities=None) -> ProductRegion:
    if parities is None:
        parities = [1 if round(2 * p) % 2 == 0 else 0 for p in points]
    return ProductRegion(tuple(PlaceFactor(parity=par, disc=(float(p),))
                               for p, par in zip(points, parities)))


# --------------------------------------------------------------------------
# bluntness
# --------------------------------------------------------------------------

def bluntness_deficit(region, eps: float):
    """Bluntness constant w of a box of imaginary intervals.

    The worst ratio, over nu in the box and beta in (0, eps], of the measure
    of A(nu, beta) within the box to the half-window volume (beta/2)^d, each
    per-place ratio capped at 1.  The worst window sits at an end of a side
    and the worst beta is eps, so w = prod_j min(1, 2 s_j / eps) exactly,
    with s_j the side at place j; a thin slab scores (width)/(eps/2).
    """
    if not isinstance(region, ProductRegion):
        raise ValueError("bluntness_deficit expects a ProductRegion")
    intervals = []
    for f in region.factors:
        if len(f.im) != 1 or f.re or f.disc:
            raise ValueError("bluntness is computed for imaginary boxes")
        intervals.append(f.im[0])
    if any(b <= a for a, b in intervals):
        return None  # empty or degenerate: undefined
    return math.prod(min(1.0, 2 * (b - a) / eps) for a, b in intervals)


# --------------------------------------------------------------------------
# shells
# --------------------------------------------------------------------------

def shell_growth_constant(n: int):
    """R(n) = (3(1+1/e))^n and D = log R."""
    if n < 1:
        raise ValueError("need at least one place")
    R = (3.0 * (1.0 + math.exp(-1.0))) ** n
    return R, math.log(R)


def _fatten_factor(f: PlaceFactor, delta: float) -> PlaceFactor:
    """Fatten a single-interval imaginary factor by delta on the chart."""
    (a, b), = f.im
    lo, hi = a - delta, b + delta
    im = ((max(lo, 0.0), hi),)
    re = ()
    if lo < 0:
        re = ((0.0, min(-lo, nu_theta())),)
    return PlaceFactor(parity=f.parity, im=im, re=re)


def _shrink_factor(f: PlaceFactor, delta: float) -> PlaceFactor:
    (a, b), = f.im
    lo, hi = a + delta, b - delta
    if hi <= lo:
        return PlaceFactor(parity=f.parity, im=())
    return PlaceFactor(parity=f.parity, im=((lo, hi),))


@dataclass
class ShellSet:
    outer: object  # C+(c)
    inner: object  # C+(-c)
    nv1_outer: float
    nv1_inner: float

    @property
    def nv1_ring(self):
        return self.nv1_outer - self.nv1_inner


def shells(region, c: float) -> ShellSet:
    """C+(c), C+(-c) and the reference measure of the ring C+[c].

    For products of imaginary intervals the fattening/shrinking is exact
    interval arithmetic on the flattened chart; spheres are handled
    radially in their own family code.
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    if not isinstance(region, ProductRegion):
        raise ValueError("shells() expects a ProductRegion")
    outer = ProductRegion(tuple(_fatten_factor(f, c) for f in region.factors))
    inner = ProductRegion(tuple(_shrink_factor(f, c) for f in region.factors))
    return ShellSet(outer, inner, nv_b(1.0, outer).value, nv_b(1.0, inner).value)


# --------------------------------------------------------------------------
# parametric families
# --------------------------------------------------------------------------

def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1)


@dataclass
class RegionInstance:
    """A concrete region at fixed t, ready for measuring.

    space: 'nu' (coordinates are the imaginary parts t_j >= 0) or 'lambda'.
    product: ProductRegion when the region factorizes, else None.
    membership/bbox/weight/multiplicity drive Monte Carlo; weight is the
    reference-measure density in the given coordinates.  The families'
    quadrature methods integrate in their own coordinates instead, by the
    fixed rules of specsum.quadrature.
    """

    space: str
    product: ProductRegion = None
    bbox: list = None
    membership: object = None
    multiplicity: float = 1.0

    def weight(self, x):
        if self.space == "nu":
            return np.prod(np.maximum(np.abs(x), 1.0), axis=-1)
        return 0.5 ** x.shape[1]  # lambda >= 5/4 assumed

    def mc_nv1(self, n_samples=10 ** 5, seed=0) -> MeasureResult:
        if self.membership is None:
            raise ValueError("no membership predicate; use nv_b on the product")
        return monte_carlo_measure(self.bbox, self.membership, self.weight,
                                   n_samples, seed, self.multiplicity)


def _at(values, t):
    """Entries that are callables of t evaluated at t; constants as given."""
    return [f(t) if callable(f) else f for f in values]


class RegionFamily:
    """Base of the families: each gives instance(t) and closed_form_nv1(t).

    Constant parameters are checked once, at construction.  Where the domain
    depends on t, every volume method reads it through one _resolve(t).
    """


class BoxFamily(RegionFamily):
    """C_t = prod_j i[a_j(t), b_j(t)] with callables or constants."""

    def __init__(self, a, b, parities=None):
        parities = parities or [0] * len(a)
        if not len(a) == len(b) == len(parities):
            raise ValueError("box needs one a_j, b_j and parity per place")
        self.a, self.b, self.parities = a, b, parities

    def _resolve(self, t):
        a, b = _at(self.a, t), _at(self.b, t)
        if any(x < 1 or y < x for x, y in zip(a, b)):
            raise ValueError("box needs 1 <= a_j <= b_j")
        return a, b

    def instance(self, t=None) -> RegionInstance:
        a, b = self._resolve(t)
        return RegionInstance("nu", product=imaginary_box(list(zip(a, b)), self.parities))

    def closed_form_nv1(self, t=None) -> MeasureResult:
        return nv_b(1.0, self.instance(t).product)


def _side_end(a, sigma):
    """a + sigma, refusing an a at which the double side (a + sigma) - a is
    off from sigma by more than 1e-3 of it: the box there is not the one
    asked for (at a = 1e17 the side 40 rounds to 32, from 1e18 on to 0)."""
    b = a + sigma
    if not abs((b - a) - sigma) <= 1e-3 * abs(sigma):
        raise ValueError(f"a={a:.6g} too large for side {sigma:g}: "
                         f"a + sigma - a is {b - a:g} in doubles")
    return b


class HypercubeFamily(BoxFamily):
    """prod_j i[a_j(t), a_j(t) + sigma], each side checked by _side_end."""

    def __init__(self, a, sigma, parities=None):
        b = [(lambda t, f=f: _side_end(f(t), sigma)) if callable(f)
             else _side_end(f, sigma) for f in a]
        super().__init__(a, b, parities)


class SingletonFamily(RegionFamily):
    """Discrete product point at constant points p_j of the given parities."""

    def __init__(self, points, parities):
        if len(points) != len(parities):
            raise ValueError("singleton needs one parity per point")
        self.product = discrete_singleton(points, parities)

    def instance(self, t=None) -> RegionInstance:
        return RegionInstance("nu", product=self.product)

    def closed_form_nv1(self, t=None) -> MeasureResult:
        v = math.prod(f.disc[0] for f in self.product.factors)
        return MeasureResult(v, 0.0, "closed-form")


class SphereFamily(RegionFamily):
    """Ball of constant radius r around constant (|m_j|), principal coordinates.

    Counted with multiplicity 2 (the region together with its reflected
    copy under the global sign flip), which is the convention under which
    the closed form 2 v_n r^n prod |m_j| and the spectral-density constant
    for floating spheres are exact.  Requires |m_j| >= r + 1.
    """

    def __init__(self, m, r):
        if r <= 0:
            raise ValueError("radius must be positive")
        if any(mj < r + 1 for mj in m):
            raise ValueError("sphere requires m_j >= r + 1")
        self.m, self.r = m, r

    def instance(self, t=None) -> RegionInstance:
        m, r = self.m, self.r
        m_arr = np.array(m)

        def member(x):
            return np.sum((x - m_arr) ** 2, axis=-1) <= r * r

        bbox = [(mj - r, mj + r) for mj in m]
        return RegionInstance("nu", bbox=bbox, membership=member, multiplicity=2.0)

    def closed_form_nv1(self, t=None) -> MeasureResult:
        n = len(self.m)
        v = 2.0 * unit_ball_volume(n) * self.r ** n
        for mj in self.m:
            v *= mj
        return MeasureResult(v, 0.0, "closed-form")

    def quadrature_nv1(self, t=None) -> MeasureResult:
        """The doubled integral of t1 t2 over the ball, for d <= 2.

        Under t1 = m1 + r sin(theta) the chord over t1 has half-length
        h = r cos(theta), t2 integrates over it to 2 m2 h, and dt1 is
        h dtheta.  One period of theta sweeps the disc twice, which is the
        multiplicity 2.  The integrand 2 m2 h^2 (m1 + r sin(theta)) is a
        trigonometric polynomial of degree 3, on which the trapezoidal rule
        of 8 steps, and that of 4, is exact: the error is the rounding,
        with 2^-50 of each value for its own.
        """
        m, r = self.m, self.r
        if len(m) == 1:
            v = ((m[0] + r) ** 2 - (m[0] - r) ** 2) / 2.0
            return MeasureResult(2 * v, 0.0, "quadrature")
        if len(m) != 2:
            raise ValueError("quadrature implemented for d <= 2")
        m1, m2 = m
        theta = np.linspace(0.0, 2 * math.pi, 9)
        h = r * np.cos(theta)
        g = 2 * m2 * h * h * (m1 + r * np.sin(theta))
        v, e = trapezoid(theta, g, 2.0 ** -50 * np.abs(g))
        return MeasureResult(v, e, "quadrature")

    def shells(self, c: float) -> ShellSet:
        """Radial shells: C+(c) = ball(r+c), C+(-c) = ball(r-c)."""
        outer = SphereFamily(self.m, self.r + c)
        inner = SphereFamily(self.m, self.r - c) if self.r - c > 0 else None
        return ShellSet(outer, inner, outer.closed_form_nv1().value,
                        inner.closed_form_nv1().value if inner else 0.0)


class SectorFamily(RegionFamily):
    """{(l1, l2): t <= l1 <= t + t^alpha, p*l1 <= l2 <= q*l1} in lambda space.

    Both bounds on l2 are proportional to l1, so the region is a genuine
    angular sector in the (l1, l2) quadrant.
    """

    def __init__(self, p, q, alpha):
        if not (0 < p < q):
            raise ValueError("need 0 < p < q")
        if not (0 < alpha <= 1):
            raise ValueError("need 0 < alpha <= 1")
        self.p, self.q, self.alpha = p, q, alpha

    def _resolve(self, t):
        """The l1 range [t, t + t^alpha], for t >= 1.25(1 + 1/p)."""
        if t < 1.25 * (1 + 1 / self.p):
            raise ValueError("t too small for the sector family")
        return t, t + t ** self.alpha

    def _angular(self, c):
        # leading coefficient of l1^c in (l1 weight) x (integral over l2)
        return (1.0 / (2 * (c + 1))) * (self.q ** ((c + 1) / 2) - self.p ** ((c + 1) / 2))

    def instance(self, t) -> RegionInstance:
        lo, hi = self._resolve(t)
        p, q = self.p, self.q

        def member(x):
            l1, l2 = x[..., 0], x[..., 1]
            return (l1 >= lo) & (l1 <= hi) & (l2 >= p * l1) & (l2 <= q * l1)

        return RegionInstance("lambda", bbox=[(lo, hi), (p * lo, q * hi)],
                              membership=member)

    def closed_form_nv1(self, t) -> MeasureResult:
        # leading asymptotic of the c=1 reference volume
        return self.closed_form_vc(1.0, t)

    def closed_form_vc(self, c: float, t: float) -> MeasureResult:
        """The leading term angular(c) t^{c+alpha}; its error is the distance
        to refined_vc plus that one's error (the exact remainder at c = 1)."""
        self._resolve(t)
        v = self._angular(c) * t ** (c + self.alpha)
        refined = self.refined_vc(c, t)
        return MeasureResult(v, abs(refined.value - v) + refined.error,
                             "leading term")

    def refined_vc(self, c: float, t: float) -> MeasureResult:
        """Same direct computation with the l1 integral kept exact.

        Identical leading term to closed_form_vc; the pure power t^{c+alpha}
        under-reports the exact volume by about (c/2) t^{alpha-1}, which at
        moderate t dwarfs every other correction.  The weights (l - 1/4)^e,
        e = (c-1)/2, are taken as l^e, exact at c = 1; with l >= L0 = min(1, p)
        lo on the region their product is off by a factor between 1 and
        (1 - 1/(4 L0))^(c-1).  The error adds that to the rounding.
        """
        lo, hi = self._resolve(t)
        angular = self._angular(c)
        v = angular * (hi ** (c + 1) - lo ** (c + 1)) / (c + 1)
        L0 = min(1, self.p) * lo
        shift = abs(math.expm1((c - 1) * math.log1p(-0.25 / L0)))
        rounding = (abs(c + 1) + 8) * 2.0 ** -52 * angular \
            * (hi ** (c + 1) + lo ** (c + 1)) / (c + 1)
        return MeasureResult(v, v * shift + rounding, "closed-form")

    def quadrature_vc(self, c: float, t: float) -> MeasureResult:
        """The reference volume with weight (1/2)(l - 1/4)^{(c-1)/2} per
        place: the l2 integral in closed form, l1 by 16-point
        Gauss-Legendre against 8-point.  The integrand is singular at
        l1 = 1/4 and 1/(4p) only, which _resolve keeps at least 2.6 of the
        interval's half-lengths from its centre, so the n-point rule's
        error falls like 5^(-2n) at least."""
        p, q, expo = self.p, self.q, (c - 1) / 2.0

        def inner(l1):
            # p l1 - 1/4 >= 1 on the domain that _resolve admits
            v = 0.5 * power_integral(p * l1 - 0.25, q * l1 - 0.25, expo)
            return 0.5 * (l1 - 0.25) ** expo * v

        v, e = gauss_legendre(inner, *self._resolve(t), 16)
        return MeasureResult(v, e, "quadrature")


class SlantedStripFamily(RegionFamily):
    """{i(x, y): t <= x <= 2t, a x + b <= y <= a x + c} in nu space."""

    def __init__(self, a, b, c):
        if a <= 0 or c <= b:
            raise ValueError("need a > 0 and c > b")
        self.a, self.b, self.c = a, b, c

    def _resolve(self, t):
        """The x range [t, 2t], for a strip inside (i[1, inf))^2."""
        if self.a * t + self.b < 1 or t < 1:
            raise ValueError("strip must lie in (i[1,inf))^2")
        return t, 2 * t

    def instance(self, t) -> RegionInstance:
        lo, hi = self._resolve(t)
        a, b, c = self.a, self.b, self.c

        def member(x):
            x1, x2 = x[..., 0], x[..., 1]
            return (x1 >= lo) & (x1 <= hi) & (x2 >= a * x1 + b) & (x2 <= a * x1 + c)

        bbox = [(lo, hi), (a * lo + b, a * hi + c)]
        return RegionInstance("nu", bbox=bbox, membership=member)

    def closed_form_nv1(self, t) -> MeasureResult:
        """The leading term (7/3) a (c-b) t^3 of the exact volume
        (c-b)(7a t^3/3 + 3(b+c) t^2/4); the error is the remainder plus
        the rounding of both terms."""
        self._resolve(t)
        a, b, c = self.a, self.b, self.c
        v = (7.0 / 3.0) * a * (c - b) * t ** 3
        remainder = abs(0.75 * (c - b) * (b + c) * t * t)
        return MeasureResult(v, remainder + 2.0 ** -50 * (abs(v) + remainder),
                             "leading term")

    def quadrature_nv1(self, t) -> MeasureResult:
        """The volume by 4-point Gauss-Legendre against 2-point, both
        exact on the quadratic integrand: the error is the rounding."""
        a, b, c = self.a, self.b, self.c

        def integrand(x):
            # x ((ax + c)^2 - (ax + b)^2) / 2, factored so that no two
            # large squares cancel
            return x * (c - b) * (2 * a * x + b + c) / 2.0

        v, e = gauss_legendre(integrand, *self._resolve(t), 4)
        return MeasureResult(v, e, "quadrature")


class SimplexFamily(RegionFamily):
    """W_n(Y) = {lambda in [5/4, inf)^n : sum lambda_j <= Y}."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("n >= 1")
        self.n = n

    def instance(self, Y) -> RegionInstance:
        n = self.n

        def member(x):
            inside = x[:, 0] >= 1.25
            total = x[:, 0]
            for j in range(1, n):
                inside &= x[:, j] >= 1.25
                total = total + x[:, j]
            return inside & (total <= Y)

        hi = max(Y - 1.25 * (n - 1), 1.25 + 1e-9)
        bbox = [(1.25, hi)] * n
        return RegionInstance("lambda", bbox=bbox, membership=member)

    def closed_form_nv1(self, Y) -> MeasureResult:
        n = self.n
        v = max(Y - 1.25 * n, 0.0) ** n / (2 ** n * math.factorial(n))
        return MeasureResult(v, 0.0, "closed-form")


_FAMILIES = {
    "box": BoxFamily,
    "hypercube": HypercubeFamily,
    "singleton": SingletonFamily,
    "sphere": SphereFamily,
    "sector": SectorFamily,
    "slanted-strip": SlantedStripFamily,
    "simplex": SimplexFamily,
}


def family(name: str, **params) -> RegionFamily:
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}")
    return _FAMILIES[name](**params)
