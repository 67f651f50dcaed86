"""Exact arithmetic in Q and real quadratic fields.

Fields are Q (encoded by m=1) or Q(sqrt m) for squarefree m > 1.  Elements
are integers (p, q, e) for (p + q w)/e over the integral basis (1, w), where
w = sqrt(m) for m = 2, 3 mod 4 and w = (1+sqrt(m))/2 for m = 1 mod 4, and
lattices one integer HNF over a denominator.  Floating point only appears
in the embeddings, which is where the analysis layers plug in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def _is_squarefree(m: int) -> bool:
    if m <= 0:
        return False
    d = 2
    while d * d <= m:
        if m % (d * d) == 0:
            return False
        d += 1
    return True


class QuadField:
    """Q (m=1) or the real quadratic field Q(sqrt m), m squarefree.

    w satisfies w^2 = s*w + t with (s, t) = (0, m) or (1, (m-1)/4), so
    conjugation is w -> s - w and the norm of x + y*w is x^2 + s x y - t y^2.
    """

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1 or not _is_squarefree(m):
            raise ValueError(f"m must be a squarefree positive integer, got {m!r}")
        self.m = m
        if m == 1:
            self.d = 1
            self.discriminant = 1
            self.s, self.t = 0, 0  # y is always 0 over Q: w folds to 1
        else:
            self.d = 2
            if m % 4 == 1:
                self.discriminant = m
                self.s, self.t = 1, (m - 1) // 4
            else:
                self.discriminant = 4 * m
                self.s, self.t = 0, m
        self._sqrt_m = math.sqrt(m)

    @property
    def omega_values(self):
        """Real values of w under the d embeddings."""
        if self.d == 1:
            return (1.0,)
        if self.m % 4 == 1:
            return ((1 + self._sqrt_m) / 2, (1 - self._sqrt_m) / 2)
        return (self._sqrt_m, -self._sqrt_m)

    def __repr__(self):
        return "Q" if self.d == 1 else f"Q(sqrt {self.m})"

    def __eq__(self, other):
        return isinstance(other, QuadField) and self.m == other.m

    def __hash__(self):
        return hash(("QuadField", self.m))

    # element constructors -------------------------------------------------
    def element(self, x, y=0) -> "FieldElement":
        (p, a), (q, b) = Fraction(x).as_integer_ratio(), Fraction(y).as_integer_ratio()
        return FieldElement(self, p * b, q * a, a * b)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def omega(self) -> "FieldElement":
        return FieldElement(self, 0, 1)

    def norm_form(self, x: int, y: int) -> int:
        """N(x + y w) = x^2 + s x y - t y^2; x over Q, where w folds to 1."""
        return x if self.d == 1 else x * x + self.s * x * y - self.t * y * y


@dataclass(frozen=True)
class FieldElement:
    """(p + q w)/e with e > 0, gcd(p, q, e) = 1 and q = 0 over Q: one tuple
    per element, so equal elements compare and hash equal (Cohen, GTM 138)."""
    field: QuadField
    p: int
    q: int = 0
    e: int = 1

    def __post_init__(self):
        p, q, e = self.p, self.q, self.e
        if self.field.d == 1:  # q w = q folds into p
            p, q = p + q, 0
        g = math.gcd(p, q, e) if e > 0 else -math.gcd(p, q, e)
        if g != 1 or q != self.q:
            for k, v in zip("pqe", (p // g, q // g, e // g)):
                object.__setattr__(self, k, v)

    # the rational coordinates over (1, w), as read-only views
    x = property(lambda self: Fraction(self.p, self.e))
    y = property(lambda self: Fraction(self.q, self.e))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        return self.field.element(other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.p * o.e + o.p * self.e,
                            self.q * o.e + o.q * self.e, self.e * o.e)

    __radd__ = __add__

    def __mul__(self, other):
        o = self._coerce(other)
        F = self.field
        # (p1 + q1 w)(p2 + q2 w) with w^2 = s w + t
        return FieldElement(F, self.p * o.p + F.t * self.q * o.q,
                            self.p * o.q + self.q * o.p + F.s * self.q * o.q,
                            self.e * o.e)

    __rmul__ = __mul__

    def conjugate(self) -> "FieldElement":
        return FieldElement(self.field, self.p + self.field.s * self.q,
                            -self.q, self.e)

    def norm(self) -> Fraction:
        F = self.field
        return Fraction(F.norm_form(self.p, self.q), self.e ** F.d)

    def trace(self) -> Fraction:
        F = self.field
        return Fraction(self.p if F.d == 1 else 2 * self.p + F.s * self.q, self.e)

    def inverse(self) -> "FieldElement":
        """e conj(p + q w) / N(p + q w); e / p over Q."""
        F, p, q, e = self.field, self.p, self.q, self.e
        n = F.norm_form(p, q)
        if n == 0:
            raise ZeroDivisionError("zero element")
        return FieldElement(F, e if F.d == 1 else e * (p + F.s * q), -e * q, n)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_integral(self) -> bool:
        return self.e == 1

    def embeddings(self):
        """The d real embedding values p/e + (q/e) w_j."""
        p, q, e = self.p, self.q, self.e
        return tuple(p / e + q / e * w for w in self.field.omega_values)

    def __repr__(self):
        return str(self.x) if self.q == 0 else f"{self.x}+{self.y}*w"


def make_field(m: int) -> QuadField:
    return QuadField(m)


# --------------------------------------------------------------------------
# Lattices (fractional ideals as rank-d Z-modules in HNF over (1, w))
# --------------------------------------------------------------------------

def _hnf_2x2_int(a1, b1, a2, b2):
    """Row HNF (a, b, d) of the integer matrix [[a1, b1], [a2, b2]] of rank
    2: rows [[a, b], [0, d]] with a > 0, d > 0 and 0 <= b < d."""
    # make the second row of form (0, d): euclid on the first column
    while a2 != 0:
        q = a1 // a2
        a1, b1, a2, b2 = a2, b2, a1 - q * a2, b1 - q * b2
    if a1 < 0:
        a1, b1 = -a1, -b1
    if b2 < 0:
        b2 = -b2
    if a1 == 0 or b2 == 0:
        raise ValueError("matrix not of full rank")
    return a1, b1 % b2, b2


def _principal_hnf(c: FieldElement):
    """The hnf (a, b, d, e) of the ideal (c), c != 0, reduced as in
    IdealLattice: c = (x + y w)/e, and gcd(a, b, d) = gcd(x, y) is prime to
    e.  The rows of e c and e c w = t y + (x + s y) w go through
    _hnf_2x2_int, and the index a d is checked against |N(e c)|."""
    F, x, y, e = c.field, c.p, c.q, c.e
    if c.is_zero():
        raise ValueError("zero generator")
    if F.d == 1:
        return abs(x), 0, 1, e
    a, b, d = _hnf_2x2_int(x, y, F.t * y, x + F.s * y)
    n = abs(F.norm_form(x, y))
    if a * d != n:
        raise RuntimeError(f"HNF of ({c!r}) has index {Fraction(a * d, e * e)}, "
                           f"not |N(c)| = {Fraction(n, e * e)}")
    return a, b, d, e


class IdealLattice:
    """A rank-d Z-lattice in the field, stored as one integer HNF over (1, w).

    hnf = (a, b, d, e) means the rows [[a, b], [0, d]] / e, with a, d, e > 0,
    0 <= b < d and gcd(a, b, d, e) = 1: one hnf per lattice (Cohen, GTM 138,
    4.7).  Over Q the lattice is (a/e) Z, with b = 0 and d = 1.  Integral
    ideals have e = 1, fractional ones (e.g. the trace dual of O) e > 1.
    """

    def __init__(self, field: QuadField, basis_rows):
        """The lattice of rational rows over (1, w): [[g]] over Q, else two."""
        if field.d == 1:
            g = abs(Fraction(basis_rows[0][0]))
            if g == 0:
                raise ValueError("degenerate lattice")
            a, b, d, e = g.numerator, 0, 1, g.denominator
        else:
            # the rows times e, the lcm of their denominators, have content
            # prime to e, and row operations keep it: gcd(a, b, d, e) = 1
            e = math.lcm(*(v.denominator for r in basis_rows for v in r))
            a, b, d = _hnf_2x2_int(*(v.numerator * (e // v.denominator)
                                     for r in basis_rows for v in r))
        self.field = field
        self.hnf = (a, b, d, e)

    @classmethod
    def _of_hnf(cls, field: QuadField, a, b, d, e):
        """The lattice of an hnf that is already reduced as above."""
        L = cls.__new__(cls)
        L.field, L.hnf = field, (a, b, d, e)
        return L

    @classmethod
    def ring_of_integers(cls, field: QuadField):
        return cls._of_hnf(field, 1, 0, 1, 1)

    @classmethod
    def principal(cls, c: FieldElement):
        return cls._of_hnf(c.field, *_principal_hnf(c))

    @property
    def rows(self):
        """The HNF rows as Fractions, [[a/e]] over Q (a read-only view)."""
        a, b, d, e = self.hnf
        if self.field.d == 1:
            return [[Fraction(a, e)]]
        return [[Fraction(a, e), Fraction(b, e)], [Fraction(0), Fraction(d, e)]]

    def basis_elements(self):
        return tuple(self.field.element(*r) for r in self.rows)

    def contains(self, x: FieldElement) -> bool:
        """x = (p + q w)/f = u (a + b w)/e + v (d w)/e with u, v integers."""
        a, b, d, e = self.hnf
        u, r = divmod(x.p * e, x.e * a)
        return r == 0 and (x.q * e - u * b * x.e) % (x.e * d) == 0

    def covolume(self) -> float:
        """Absolute determinant of the embedding matrix of the basis: for
        the HNF basis (a + b w, d w) it is a d |w - w'| = N(I) sqrt|D_F|."""
        return float(self.norm_index()) * math.sqrt(self.field.discriminant)

    def norm_index(self) -> Fraction:
        """Index in O as a (possibly fractional) determinant ratio."""
        a, _, d, e = self.hnf
        return Fraction(a * d, e ** self.field.d)

    def __eq__(self, other):
        return (isinstance(other, IdealLattice) and self.field == other.field
                and self.hnf == other.hnf)

    def __hash__(self):
        return hash((self.field, self.hnf))

    def __repr__(self):
        return f"IdealLattice({self.field}, {self.rows})"

    def lattice_points_in_box(self, bounds):
        """All nonzero lattice points x with |sigma_j(x)| <= T_j for each j.

        bounds: scalar or per-place sequence of positive reals.
        """
        F = self.field
        if not hasattr(bounds, "__len__"):
            bounds = [bounds] * F.d
        if any(T <= 0 for T in bounds):
            raise ValueError("box bounds must be positive")
        out = []
        a, b, d, e = self.hnf
        if F.d == 1:
            n, m = Fraction(bounds[0]).as_integer_ratio()  # k a/e <= n/m
            for k in range(1, n * e // (m * a) + 1):
                out.extend([FieldElement(F, k * a, 0, e),
                            FieldElement(F, -k * a, 0, e)])
            return out
        # embeddings of the basis (a + b w)/e and (d w)/e
        e1 = tuple(a / e + b / e * w for w in F.omega_values)
        e2 = tuple(d / e * w for w in F.omega_values)
        # loop bounds from Cramer: |u| <= (T1|e2_2| + T2|e2_1|)/|det| etc.
        det = abs(e1[0] * e2[1] - e1[1] * e2[0])
        umax = int(math.floor((bounds[0] * abs(e2[1]) + bounds[1] * abs(e2[0])) / det + 1e-9))
        vmax = int(math.floor((bounds[0] * abs(e1[1]) + bounds[1] * abs(e1[0])) / det + 1e-9))
        tol = 1e-12
        for u in range(-umax, umax + 1):
            for v in range(-vmax, vmax + 1):
                if u == 0 and v == 0:
                    continue
                s0 = u * e1[0] + v * e2[0]
                s1 = u * e1[1] + v * e2[1]
                if abs(s0) <= bounds[0] + tol and abs(s1) <= bounds[1] + tol:
                    out.append(FieldElement(F, u * a, u * b + v * d, e))
        return out


# --------------------------------------------------------------------------
# Residue rings O/I
# --------------------------------------------------------------------------

MAX_NORM = 10 ** 6  # residue rings are tabulated, so larger norms are refused


class ResidueRing:
    """The finite ring O/I of an integral ideal I, with explicit representatives.

    Representatives are i + j*w with 0 <= i < a, 0 <= j < d where I has the
    integer HNF (a, b, d, 1), rows [[a, b], [0, d]] (b = 0 and d = 1 over
    Q); there are a*d = N(I) of them.  The integer pair (i, j) is the key of
    a residue.  The unit keys and their inverses are tabulated on the first
    query, in O(N(I)) integer steps.  residue_ring makes one per ideal, on a
    cache miss; the check that I is an ideal of O (closed under
    multiplication by w) is done on the integer HNF.
    """

    def __init__(self, I: IdealLattice):
        a, b, d, e = I.hnf
        if e != 1:
            raise ValueError("modulus must be integral")
        # x + y w lies in I iff a | x and d | y - (x/a) b; test the products
        # (a + b w) w = t b + (a + s b) w and (d w) w = t d + s d w (over Q,
        # s = t = 0 and d = 1 pass)
        s, t = I.field.s, I.field.t
        for x, y in ((t * b, a + s * b), (t * d, s * d)):
            if x % a or (y - x // a * b) % d:
                raise ValueError("modulus lattice is not an ideal of O")
        self.field = I.field
        self.lattice = I
        self._a, self._b, self._d = a, b, d
        self.size = a * d
        self._inv = None

    def reduce_pair(self, i: int, j: int):
        """Key of i + j*w mod I: reduce i with (a, b), then j with (0, d)."""
        q = i // self._a
        return i - q * self._a, (j - q * self._b) % self._d

    def key(self, x: FieldElement):
        if not x.is_integral():
            raise ValueError("can only reduce integral elements")
        return self.reduce_pair(x.p, x.q)

    def _build(self):
        """{unit key: inverse key} in sorted key order.  i + j*w is a unit iff
        the 2x2 minors of the rows (i, j), (i, j)*w, (a, b), (0, d) are
        coprime.  Its inverse is conj(x) N(x)^-1 mod e, e the least positive
        integer in I, for a shift x by u*(a, b) + v*(0, d), 0 <= u, v < e,
        with N(x) prime to e: one exists by CRT, as I + P = O for each prime
        P above e that does not divide I.  Each inverse found also gives
        those of x~, -x and -x~ (x~ the inverse), recorded for their turn."""
        a, b, d = self._a, self._b, self._d
        s, t = self.field.s, self.field.t
        e = a * d // math.gcd(b, d)
        inv, ahead = {}, {}
        for i in range(a):
            for j in range(d):
                if (i, j) in ahead:
                    inv[(i, j)] = ahead.pop((i, j))
                    continue
                n = i * i + s * i * j - t * j * j
                if math.gcd(n, i * b - j * a, i * d, j * t * b - (i + j * s) * a,
                            j * t * d, a * d) != 1:
                    continue
                for k in range(e * e):
                    u, v = divmod(k, e)
                    x, y = i + u * a, j + u * b + v * d
                    n = x * x + s * x * y - t * y * y
                    if math.gcd(n, e) == 1:
                        break
                else:
                    raise RuntimeError(f"no representative of unit ({i}, {j}) "
                                       f"has norm prime to {e}")
                n_inv = pow(n, -1, e)
                inv[(i, j)] = k = self.reduce_pair((x + s * y) * n_inv, -y * n_inv)
                m, m_k = self.reduce_pair(-i, -j), self.reduce_pair(-k[0], -k[1])
                ahead[k], ahead[m], ahead[m_k] = (i, j), m_k, m
        return inv

    def unit_inverses(self) -> dict:
        """{key of a unit: key of its inverse}, in sorted key order."""
        if self._inv is None:
            # builds start in a query that perfbench/tracer.py times: units,
            # inverse_mod or is_invertible
            self.is_invertible(self.field.one())
        return self._inv

    def is_invertible(self, a: FieldElement) -> bool:
        if self._inv is None:
            self._inv = self._build()
        return self.key(a) in self._inv

    def inverse_mod(self, a: FieldElement) -> FieldElement:
        k = self.key(a)
        inv = self.unit_inverses()
        if k not in inv:
            raise ValueError(f"{a!r} is not invertible mod {self.lattice!r}")
        return self.field.element(*inv[k])

    def units(self):
        F = self.field
        return [F.element(i, j) for i, j in self.unit_inverses()]


@lru_cache(maxsize=4096)
def _residue_ring_cached(F: QuadField, a: int, b: int, d: int) -> ResidueRing:
    return ResidueRing(IdealLattice._of_hnf(F, a, b, d, 1))


def residue_ring(F: QuadField, c) -> ResidueRing:
    """O/I for an integral ideal I, or for I = (c) when c is an element or an
    int.

    The ring is looked up by the integer HNF (a, b, d) of I: the lattice's
    own, or found with no rational arithmetic for an integral element, so
    associate moduli and the lattice of (c) share one ring.  A norm above
    MAX_NORM, and then a modulus that is not integral, are refused before
    any ring is built; the ring is made on a cache miss only.
    """
    if isinstance(c, IdealLattice):
        a, b, d, e = c.hnf
    else:
        if not isinstance(c, FieldElement):
            c = F.element(c)
        a, b, d, e = _principal_hnf(c)
    F = c.field
    if a * d > MAX_NORM * e ** F.d:
        raise ValueError(f"modulus norm {Fraction(a * d, e ** F.d)} is above "
                         f"{MAX_NORM}, too large to tabulate")
    if e != 1:
        raise ValueError("modulus must be integral")
    return _residue_ring_cached(F, a, b, d)
