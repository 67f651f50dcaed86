"""Local test functions on the spectral strip, norms, and comparison integrals.

A local test function is even, holomorphic on the strip |Re z| <= tau with
tau in (1/4, 1/2), decays like (1+|z|)^{-a} with a > 2, and is additionally
defined at the discrete points (b-1)/2, b >= 2, b = parity mod 2.  Three
concrete constructions are provided: a sharp Gaussian centered at an
imaginary point q, an inverse-power window, and a Gaussian smoothing of a
compactly supported function of the eigenvalue lambda = 1/4 - nu^2.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .measures import (
    MeasureResult,
    check_parity,
    discrete_admissible,
    nu_theta,
    plancherel_density,
)

_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(64)


@dataclass
class LocalTestFunction:
    evaluator: object
    tau: float
    a: float
    parity: int
    provenance: str  # gaussian | delta | phi_p | lambda-smoothed | user
    params: dict = field(default_factory=dict)

    def __call__(self, nu):
        return self.evaluator(complex(nu))

    def __post_init__(self):
        if not (0.25 < self.tau < 0.5):
            raise ValueError("tau must lie in (1/4, 1/2)")
        if self.a <= 2:
            raise ValueError("decay exponent a must exceed 2")
        check_parity(self.parity)


@dataclass
class TestFunctionProduct:
    __test__ = False  # not a test case, despite the name
    factors: tuple

    def __call__(self, nu_vec):
        out = 1.0 + 0.0j
        for f, nu in zip(self.factors, nu_vec):
            out *= f(nu)
        return out


def _on_strip(nu: complex, tau: float) -> bool:
    return abs(nu.real) <= tau + 1e-12


def gaussian_phi(q_abs: float, U: float, tau: float = 0.3, a: float = 3.0,
                 parity: int = 0) -> LocalTestFunction:
    """Sharp Gaussian centered at the imaginary point q = i|q|, |q| >= 1.

    sqrt(U/pi)(e^{U(q-nu)^2} + e^{U(q+nu)^2}) on the strip, 0 elsewhere.
    With q imaginary and nu = it the exponents are -U(t -+ |q|)^2, so the
    function decays on the spectral axis; off the axis it can grow like
    e^{U tau^2}, which downstream estimates compensate for explicitly.
    All discrete points (b-1)/2 >= 1/2 > tau lie off the strip, so the
    function vanishes there.
    """
    if q_abs < 1:
        raise ValueError("gaussian test function requires |q| >= 1")
    if U < 1:
        raise ValueError("U must be at least 1")
    q = 1j * q_abs
    pref = math.sqrt(U / math.pi)

    def ev(nu: complex) -> complex:
        if not _on_strip(nu, tau):
            return 0.0
        return pref * (cmath.exp(U * (q - nu) ** 2) + cmath.exp(U * (q + nu) ** 2))

    return LocalTestFunction(ev, tau, a, parity, "gaussian",
                             {"q": q_abs, "U": U})


def delta_at_discrete(q: float, parity: int, tau: float = 0.3,
                      a: float = 3.0) -> LocalTestFunction:
    """Indicator of the single discrete point pair {q, -q}."""
    if not discrete_admissible(parity, abs(q)):
        raise ValueError(f"{q} is not an admissible discrete point "
                         f"for parity {parity}")

    def ev(nu: complex) -> complex:
        if abs(nu.imag) < 1e-12 and abs(abs(nu.real) - abs(q)) < 1e-12:
            return 1.0
        return 0.0

    return LocalTestFunction(ev, tau, a, parity, "delta", {"q": q})


def phi_p(p: float, a: float = 3.0, tau: float = 0.3,
          parity: int = 0) -> LocalTestFunction:
    """(p^2 - nu^2)^{-a/2} on the strip, (p^2 + nu^2)^{-a/2} elsewhere."""
    if p <= tau:
        raise ValueError("need p > tau so the strip factor stays positive")

    def ev(nu: complex) -> complex:
        if _on_strip(nu, tau):
            return (p * p - nu * nu) ** (-a / 2.0)
        return (p * p + nu * nu) ** (-a / 2.0)

    return LocalTestFunction(ev, tau, a, parity, "phi_p", {"p": p})


def lambda_smoothed(f, support, T: float, tau: float = 0.3, a: float = 3.0,
                    parity: int = 0) -> LocalTestFunction:
    """Gaussian smoothing sqrt(T/pi) int e^{-T(lambda-1/4+nu^2)^2} f(lambda) dlambda.

    f must be supported in the bounded interval `support`.  The smoothed
    function is entire in nu.  For nu on the axes the center 1/4 - nu^2 is
    real and 64-node Gauss-Hermite quadrature in y = sqrt(T)(lambda-center)
    is used; for complex centers the integral is evaluated adaptively over
    the support.
    """
    lo, hi = support
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise ValueError("f must come with a bounded support interval")
    if T < 4:
        raise ValueError("need T >= 4")
    sqT = math.sqrt(T)

    def ev(nu: complex) -> complex:
        center = 0.25 - nu * nu
        if abs(center.imag) < 1e-12:
            c = center.real
            lams = c + _GH_NODES / sqT
            vals = np.array([f(l) if lo <= l <= hi else 0.0 for l in lams])
            return float(np.dot(_GH_WEIGHTS, vals) / math.sqrt(math.pi))
        pref = math.sqrt(T / math.pi)
        with warnings.catch_warnings():
            # the oscillatory complex-center integrand triggers harmless
            # roundoff warnings at machine-precision scales
            warnings.simplefilter("ignore", IntegrationWarning)
            re, _ = quad(lambda l: (pref * cmath.exp(-T * (l - center) ** 2) * f(l)).real,
                         lo, hi, limit=200)
            im, _ = quad(lambda l: (pref * cmath.exp(-T * (l - center) ** 2) * f(l)).imag,
                         lo, hi, limit=200)
        return re + 1j * im

    return LocalTestFunction(ev, tau, a, parity, "lambda-smoothed",
                             {"T": T, "support": (lo, hi)})


# --------------------------------------------------------------------------
# norm and validation
# --------------------------------------------------------------------------

def _strip_sup(phi: LocalTestFunction) -> float:
    """max of |phi(z)|(1+|z|)^a over a grid of the right half-strip."""
    hs = [0.0] + list(np.geomspace(1e-3, 1e3, 60))
    zs = [complex(r, h) for r in (0.0, phi.tau / 2, phi.tau) for h in hs]
    return max(abs(phi(z)) * (1 + abs(z)) ** phi.a for z in zs)


def norm_N(phi: LocalTestFunction) -> float:
    """sup over the right half-strip of |phi(nu)|(1+|nu|)^a plus the
    discrete sum of b^a |phi((b-1)/2)| over the discrete series, b <= 200."""
    disc = 0.0
    for b in range(2 + phi.parity, 201, 2):
        disc += b ** phi.a * abs(phi((b - 1) / 2.0))
    return _strip_sup(phi) + disc


def validate_test_function(phi: LocalTestFunction) -> dict:
    """Sampled checks of the defining conditions.

    evenness: |phi(-z) - phi(z)| on strip samples; holomorphy: agreement of
    horizontal and vertical difference quotients (Cauchy-Riemann);
    decay constant: fitted K with |phi| <= K(1+|z|)^{-a} on the samples.
    """
    h = 1e-6
    pts = [complex(r, s) for r in (0.0, phi.tau / 2) for s in (0.5, 2.0, 7.0)]
    even_err = max(abs(phi(-z) - phi(z)) for z in pts)
    cr_err = 0.0
    for z in pts:
        dx = (phi(z + h) - phi(z - h)) / (2 * h)
        dy = (phi(z + 1j * h) - phi(z - 1j * h)) / (2j * h)
        scale = max(abs(dx), abs(dy), 1.0)
        cr_err = max(cr_err, abs(dx - dy) / scale)
    K = _strip_sup(phi)
    return {
        "even_ok": even_err <= 1e-10,
        "holomorphic_ok": cr_err <= 1e-4,
        "decay_K": K,
        "even_err": even_err,
        "cr_err": cr_err,
    }


# --------------------------------------------------------------------------
# Gaussian tail helper
# --------------------------------------------------------------------------

def gaussian_tail(b: float, l: int) -> float:
    """Exact integral of x^l e^{-x^2} over [b, infinity) for l in {0,1,2}."""
    if b < 0:
        raise ValueError("b must be nonnegative")
    if l == 0:
        return math.sqrt(math.pi) / 2 * math.erfc(b)
    if l == 1:
        return math.exp(-b * b) / 2
    if l == 2:
        return b * math.exp(-b * b) / 2 + math.sqrt(math.pi) / 4 * math.erfc(b)
    raise ValueError("l must be 0, 1 or 2")


# --------------------------------------------------------------------------
# local comparison integrals
# --------------------------------------------------------------------------

def _gauss_window(U: float, t0: float, lo: float, hi: float) -> float:
    """Integral of sqrt(U/pi)(e^{-U(t-t0)^2} + e^{-U(t+t0)^2}) over [lo, hi]."""
    if hi <= lo:
        return 0.0
    s = math.sqrt(U)

    def anti(x, c):
        return 0.5 * math.erf(s * (x - c))

    return (anti(hi, t0) - anti(lo, t0)) + (anti(hi, -t0) - anti(lo, -t0))


def local_comparison(U: float, nu, alpha: float):
    """(I_alpha, J_alpha): mass of the Gaussian family q -> phi(q, nu) over
    q = it, t in [1, infinity), split by branch distance dist(q, nu) <= alpha.

    nu is (value, branch) with branch 'principal' (nu = i*value) or
    'complementary' (nu = value in (0, nu_theta]).  Closed erf forms on the
    principal branch keep full precision at e^{-U alpha^2} scales.
    """
    if alpha < 1 / math.sqrt(U):
        raise ValueError("need alpha >= U^{-1/2}")
    value, branch = nu
    if branch == "principal":
        t0 = abs(value)
        lo, hi = max(1.0, t0 - alpha), t0 + alpha
        I = _gauss_window(U, t0, lo, hi)
        # exact complement: [1, lo] plus [hi, infinity)
        J = _gauss_window(U, t0, 1.0, lo) + \
            (0.5 * math.erfc(math.sqrt(U) * (hi - t0)) +
             0.5 * math.erfc(math.sqrt(U) * (hi + t0)))
        return I, J
    if branch == "complementary":
        x = abs(value)
        if x > nu_theta() + 1e-12:
            raise ValueError("complementary point beyond nu_theta")
        # dist(it, x) = t + x >= 1 > alpha for alpha <= e^{-1}: I empty
        I = 0.0
        pref = 2 * math.sqrt(U / math.pi)

        def g(t):
            return pref * math.exp(U * (x * x - t * t)) * math.cos(2 * U * t * x)

        J, _ = quad(g, 1.0, 1.0 + 40 / math.sqrt(U), limit=200)
        return I, J
    raise ValueError(f"unknown branch {branch!r}")


# --------------------------------------------------------------------------
# Plancherel pairing and the smoothing comparison
# --------------------------------------------------------------------------

def plancherel_pairing(phi: LocalTestFunction) -> MeasureResult:
    """2 * integral of phi(it) against the spectral density plus twice the
    discrete sum over admissible points."""
    par = phi.parity
    breakpoints = None
    if phi.provenance == "gaussian":
        q, U = phi.params["q"], phi.params["U"]
        w = 40 / math.sqrt(U)
        height = q + w
        breakpoints = [max(q - w, 0.0), q]  # resolve the sharp bump
    else:
        height = 200.0
    v, e = quad(lambda t: (phi(1j * t) * plancherel_density(par, t)).real,
                0.0, height, limit=400, points=breakpoints)
    total = 2 * v
    err = 2 * e
    b = 2 + par
    while (b - 1) / 2.0 <= height:
        beta = (b - 1) / 2.0
        total += 2 * beta * abs(phi(beta))
        b += 2
    return MeasureResult(total, err, "quadrature")


def _density_slope_bound(parity: int) -> float:
    """sup over t >= 0 of |d/dt (spectral density)|, evaluated on a grid."""
    ts = np.linspace(1e-3, 30, 4000)
    h = 1e-5
    vals = [abs(plancherel_density(parity, t + h) -
                plancherel_density(parity, t - h)) / (2 * h) for t in ts]
    return max(vals)


def smoothing_discrepancy_bound(q_abs: float, U: float, parity: int = 0) -> float:
    """Certified envelope for |pairing(gaussian(q,U)) - 2*density(q)|.

    Follows the comparison argument: split the Gaussian integral at
    b = sqrt(log|q| + (1/2)log U), bound the inner part by the density's
    slope times U^{-1/2}|x| and the tails by the exact Gaussian tail
    integrals.  Leading behavior U^{-1/2}.  Requires U >= e^2, |q| >= 1.
    """
    if U < math.e ** 2:
        raise ValueError("need U >= e^2")
    if q_abs < 1:
        raise ValueError("need |q| >= 1")
    b = math.sqrt(math.log(q_abs) + 0.5 * math.log(U))
    b = max(b, 1.0)
    M = _density_slope_bound(parity)
    inner = M / math.sqrt(U) * 2 * (0.5 - gaussian_tail(b, 1))  # int |x|e^{-x^2}
    # tails: density(q + x/sqrt(U)) <= density(q) + M(|x|/sqrt(U)); density ~ |q|
    dq = plancherel_density(parity, q_abs)
    tail = 2 * (dq + 1) * gaussian_tail(b, 0) + \
        2 * M / math.sqrt(U) * gaussian_tail(b, 1)
    return (2 / math.sqrt(math.pi)) * (inner + tail)
