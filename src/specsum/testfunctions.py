"""Local test functions on the spectral strip and comparison integrals.

A local test function is even, holomorphic on the strip |Re z| <= tau with
tau in (1/4, 1/2), decays like (1+|z|)^{-a} with a > 2, and is additionally
defined at the discrete points (b-1)/2, b >= 2, b = parity mod 2.  Two
concrete constructions are provided: a sharp Gaussian centered at an
imaginary point q and an inverse-power window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import check_parity, nu_theta, plancherel_density


# the constructions' tags: holomorphic, with evaluators that take arrays
CONSTRUCTIONS = ("gaussian", "phi_p")


@dataclass
class LocalTestFunction:
    evaluator: object
    tau: float
    a: float
    provenance: str  # a construction's tag; any other tag has no contour form
    params: dict = field(default_factory=dict)

    def __call__(self, nu):
        """phi at a complex number, or elementwise at a numpy array: one
        call of a construction's evaluator, any other's once per entry."""
        if self.provenance in CONSTRUCTIONS:
            values = self.evaluator(np.asarray(nu, complex))
            return values if np.ndim(nu) else complex(values)
        if np.ndim(nu):
            return np.array([self.evaluator(v)
                             for v in np.asarray(nu, complex).tolist()], complex)
        return self.evaluator(complex(nu))

    def __post_init__(self):
        if not (0.25 < self.tau < 0.5):
            raise ValueError("tau must lie in (1/4, 1/2)")
        if self.a <= 2:
            raise ValueError("decay exponent a must exceed 2")


def _on_strip(nu, tau: float):
    return np.abs(nu.real) <= tau + 1e-12


def _square(z):
    """z^2 from the parts of z, as Python's complex z ** 2 forms it: numpy's
    complex square can round an entry of a long array differently from the
    same value alone."""
    return z.real * z.real - z.imag * z.imag + 2j * (z.real * z.imag)


def gaussian_phi(q_abs: float, U: float, tau: float = 0.3,
                 a: float = 3.0) -> LocalTestFunction:
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

    def ev(nu):
        on = _on_strip(nu, tau)
        nu = np.where(on, nu, 0)  # off the strip exp could overflow
        return np.where(on, pref * (np.exp(U * _square(q - nu))
                                    + np.exp(U * _square(q + nu))), 0.0)

    return LocalTestFunction(ev, tau, a, "gaussian", {"q": q_abs, "U": U})


def phi_p(p: float, a: float = 3.0, tau: float = 0.3) -> LocalTestFunction:
    """(p^2 - nu^2)^{-a/2} on the strip, (p^2 + nu^2)^{-a/2} elsewhere."""
    if p <= tau:
        raise ValueError("need p > tau so the strip factor stays positive")

    def ev(nu):
        sq = _square(nu)
        return np.where(_on_strip(nu, tau), p * p - sq, p * p + sq) \
            ** (-a / 2.0)

    return LocalTestFunction(ev, tau, a, "phi_p", {"p": p})


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
        # dist(it, x) = t + x >= 1 > alpha for alpha <= e^{-1}: I empty.
        # J = int_1^b 2 sqrt(U/pi) e^{U(x^2-t^2)} cos(2Utx) dt, b = 1 + 40/sqrt(U);
        # the integrand is 2 sqrt(U/pi) Re e^{-U(t-ix)^2}, so in closed form
        # J = Re[erfc(sqrt(U)(1-ix)) - erfc(sqrt(U)(b-ix))]
        import mpmath  # here, so that no import of specsum loads it

        s = math.sqrt(U)
        b = 1.0 + 40 / s
        J = mpmath.erfc(mpmath.mpc(s, -s * x)) - mpmath.erfc(mpmath.mpc(s * b, -s * x))
        return 0.0, float(J.real)
    raise ValueError(f"unknown branch {branch!r}")


# --------------------------------------------------------------------------
# the smoothing comparison
# --------------------------------------------------------------------------

def _density_slope_bound(parity: int) -> float:
    """sup over t >= 0 of |d/dt (spectral density)|, rounded up to a double.

    With x = pi t, d/dt [t tanh(pi t)] = tanh x + x sech^2 x, whose
    derivative 2 sech^2 x (1 - x tanh x) vanishes only at the root x* of
    x tanh x = 1, where the slope equals x* = 1.19967864025773383...
    d/dt [t coth(pi t)] = coth x - x csch^2 x rises from 0 towards 1 and
    never reaches it.
    """
    check_parity(parity)
    return 1.199678640257734 if parity == 0 else 1.0


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
