"""Every `error` a command declares as a bound covers an independent oracle.

For each command family, admissible inputs are drawn with a derandomized
hypothesis strategy, the command runs through `cli.dispatch`, and
|value - oracle| <= error is asserted.  The first family is `kloosterman`,
with |N(c)| from 2 to 5,000, past the 1,235 up to which a running sum of
the terms was a proven bound; `math.fsum` makes 1e-13 |N(c)| one for every
norm.  Its oracle shares no code with the library: residues from the HNF's
pivot, units and inverses by the extended Euclidean algorithm in O (Z,
Z[sqrt2] and Z[(1 + sqrt5)/2] are norm-Euclidean), exact rational phases
and a 30-digit mpmath sum of their cosines.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import mpmath
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from specsum.cli import dispatch

# name -> (s, t) with w^2 = s w + t, and a Z-basis of the trace dual O' as
# coordinates over (1, w): Z over Q, (2w)^-1 O over Q(sqrt2) and
# (2w - 1)^-1 O over Q(sqrt5)
FIELDS = {
    "Q": ((0, 0), [(1, 0)]),
    "Q(sqrt2)": ((0, 2), [(Fraction(1, 2), 0), (0, Fraction(1, 4))]),
    "Q(sqrt5)": ((1, 1), [(Fraction(-1, 5), Fraction(2, 5)),
                          (Fraction(2, 5), Fraction(1, 5))]),
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def _spec(v):
    return ",".join(str(Fraction(x)) for x in v)


class Ring:
    """Integer arithmetic in O = Z[w], w^2 = s w + t; over Q, s = t = 0 and
    every element has y = 0."""

    def __init__(self, s, t):
        self.s, self.t = s, t

    def mul(self, p, q):
        return (p[0] * q[0] + self.t * p[1] * q[1],
                p[0] * q[1] + p[1] * q[0] + self.s * p[1] * q[1])

    def add(self, p, q):
        return p[0] + q[0], p[1] + q[1]

    def sub(self, p, q):
        return p[0] - q[0], p[1] - q[1]

    def conj(self, p):
        return p[0] + self.s * p[1], -p[1]

    def norm(self, p):
        """x^2 + s x y - t y^2: over Q the square of the element."""
        return p[0] * p[0] + self.s * p[0] * p[1] - self.t * p[1] * p[1]

    def nearest_quotient(self, p, q):
        """p/q rounded to the nearest coordinates: the remainder
        p - q (p/q rounded) has |norm| at most |N(q)|/2 in these fields."""
        (u, v), n = self.mul(p, self.conj(q)), self.norm(q)
        if n < 0:
            u, v, n = -u, -v, -n
        return (2 * u + n) // (2 * n), (2 * v + n) // (2 * n)

    def inverse_mod(self, alpha, c):
        """alpha^-1 mod (c) by the extended Euclidean algorithm, or None
        when alpha is not a unit mod (c)."""
        r0, r1, s0, s1 = c, alpha, (0, 0), (1, 0)  # s_i alpha = r_i mod c
        while r1 != (0, 0):
            q = self.nearest_quotient(r0, r1)
            r0, r1 = r1, self.sub(r0, self.mul(q, r1))
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
        n = self.norm(r0)  # r0 generates (alpha, c)
        if abs(n) != 1:
            return None
        return self.mul(s0, self.mul(self.conj(r0), (n, 0)))


def oracle(field, c, r, rp):
    """S(r, r'; c) at 30 digits, from the definition."""
    (s, t), _ = FIELDS[field]
    O = Ring(s, t)
    n = O.norm(c)
    # residues i + j w, 0 <= i < a, 0 <= j < d: a is the gcd of the first
    # coordinates of (c) = <c, c w>, a d = |N(c)|
    if field == "Q":
        a, d = abs(c[0]), 1
    else:
        a = math.gcd(c[0], t * c[1])
        d = abs(n) // a
    e = math.lcm(*(Fraction(v).denominator for v in r + rp))
    g = tuple(int(v * e) for v in r)
    h = tuple(int(v * e) for v in rp)
    with mpmath.workdps(30):
        terms = []
        for i in range(a):
            for j in range(d):
                inv = O.inverse_mod((i, j), c)
                if inv is None:
                    continue
                num = O.mul(O.add(O.mul(g, (i, j)), O.mul(h, inv)), O.conj(c))
                # Tr((r a + r' a~) / c) = Tr(num) / (e N(c))
                tr = num[0] if field == "Q" else 2 * num[0] + s * num[1]
                k = Fraction(tr, e * n) % 1
                terms.append(mpmath.cospi(2 * mpmath.mpf(k.numerator)
                                          / k.denominator))
        return mpmath.fsum(terms)


@st.composite
def kloosterman_commands(draw):
    """(field, c, r, r') with 2 <= |N(c)| <= 5,000 and r, r' in O'."""
    field = draw(st.sampled_from(sorted(FIELDS)))
    (s, t), basis = FIELDS[field]
    # the band past |N(c)| = 1,235 comes first, where hypothesis draws most
    band = draw(st.sampled_from([(1236, 5000), (41, 1235), (2, 40)]))
    sign = draw(st.sampled_from([1, -1]))
    if field == "Q":
        c = (sign * draw(st.integers(*band)), 0)
    else:  # |N(c)| is about x^2 for |y| <= 4
        lo, hi = (math.isqrt(v) for v in band)
        c = (sign * draw(st.integers(lo, hi)), draw(st.integers(-4, 4)))
    assume(band[0] <= abs(Ring(s, t).norm(c) if c[1] else c[0]) <= band[1])

    def dual_element():
        coef = [draw(st.integers(-3, 3)) for _ in basis]
        return tuple(sum(u * Fraction(b[k]) for u, b in zip(coef, basis))
                     for k in (0, 1))

    return field, c, dual_element(), dual_element()


class TestKloosterman:
    @settings(max_examples=45)
    @given(kloosterman_commands())
    @example(("Q", (4999, 0), (1, 0), (2, 0)))
    @example(("Q(sqrt2)", (70, 1), (Fraction(1, 2), Fraction(1, 4)),
              (1, Fraction(-3, 4))))
    @example(("Q(sqrt5)", (-70, -1), (Fraction(1, 5), Fraction(3, 5)),
              (Fraction(2, 5), Fraction(1, 5))))
    def test_error_covers_oracle(self, case):
        field, c, r, rp = case
        coords = slice(0, 1) if field == "Q" else slice(0, 2)
        code, out, err = run(["kloosterman", "--field", field,
                              f"--c={_spec(c[coords])}", f"--r={_spec(r[coords])}",
                              f"--rp={_spec(rp[coords])}"])
        assert code == 0, err
        res = json.loads(out)
        re_, im = res["value"]
        assert im == 0.0
        with mpmath.workdps(30):
            assert abs(re_ - oracle(field, c, r, rp)) <= res["error"]
