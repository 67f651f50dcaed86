"""The Kloosterman path works in Python integers where it once worked in
Fractions: the four phase coefficients of kloosterman_sum, the HNF of a
principal ideal, the points of a lattice in a box, and the residue-ring
lookup.  Each is checked for equality with the Fraction formula it
replaced, written out below, over Q, Q(sqrt 2), Q(sqrt 3), Q(sqrt 5) and
Q(sqrt 13), for signed generators (negative norms included) and for r, r'
with denominators.  The ring lookup is checked to give one ring per ideal:
for c, for the lattice of (c) and for every associate of c.  The element
format itself, integers (p, q, e) for (p + q w)/e, is checked against
arithmetic on Fraction pairs (x, y)."""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from specsum.kloosterman import _phase_coefficients
from specsum.numberfield import (
    FieldElement,
    IdealLattice,
    _principal_hnf,
    make_field,
    residue_ring,
)

FIELDS = [make_field(m) for m in (1, 2, 3, 5, 13)]
Q, F2 = FIELDS[0], FIELDS[1]


def fraction_phase_coefficients(F, r, rp, c):
    """Tr(g x / c) for g in (r, r'), x in (1, w) in Fractions, then over
    the lcm of their denominators."""
    cinv = c.inverse()
    coeffs = [(g * x).trace() for g in (r * cinv, rp * cinv)
              for x in (F.one(), F.omega())]
    den = math.lcm(*(q.denominator for q in coeffs))
    return (*(q.numerator * (den // q.denominator) for q in coeffs), den)


def fraction_hnf_2x2(rows):
    den = 1
    for r in rows:
        for v in r:
            den = math.lcm(den, Fraction(v).denominator)
    (a1, b1), (a2, b2) = ([int(Fraction(v) * den) for v in r] for r in rows)
    while a2 != 0:
        q = a1 // a2
        a1, b1, a2, b2 = a2, b2, a1 - q * a2, b1 - q * b2
    if a1 < 0:
        a1, b1 = -a1, -b1
    b2 = abs(b2)
    b1 %= b2
    return [[Fraction(a1, den), Fraction(b1, den)], [Fraction(0), Fraction(b2, den)]]


def fraction_principal_rows(c):
    """HNF of the rows c and c*w, with c*w formed as a field product."""
    F = c.field
    if F.d == 1:
        return [[abs(c.x)]]
    cw = c * F.omega()
    return fraction_hnf_2x2([[c.x, c.y], [cw.x, cw.y]])


def fraction_lattice_points(L, bounds):
    """The box enumeration with each point formed as u*b1 + v*b2."""
    F = L.field
    if F.d == 1:
        g = L.rows[0][0]
        out = []
        for k in range(1, int(math.floor(Fraction(bounds[0]) / g)) + 1):
            out.extend([F.element(k * g), F.element(-k * g)])
        return out
    b1, b2 = (F.element(*L.rows[0]), F.element(*L.rows[1]))
    e1, e2 = b1.embeddings(), b2.embeddings()
    det = abs(e1[0] * e2[1] - e1[1] * e2[0])
    umax = int(math.floor((bounds[0] * abs(e2[1]) + bounds[1] * abs(e2[0])) / det + 1e-9))
    vmax = int(math.floor((bounds[0] * abs(e1[1]) + bounds[1] * abs(e1[0])) / det + 1e-9))
    out = []
    for u in range(-umax, umax + 1):
        for v in range(-vmax, vmax + 1):
            if u == 0 and v == 0:
                continue
            s0 = u * e1[0] + v * e2[0]
            s1 = u * e1[1] + v * e2[1]
            if abs(s0) <= bounds[0] + 1e-12 and abs(s1) <= bounds[1] + 1e-12:
                out.append(u * b1 + v * b2)
    return out


def rationals(bound=30, den=12):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, den))


def elements(F, coord, nonzero=False):
    """x + y w with coordinates drawn from coord (y = 0 over Q)."""
    xs = st.builds(F.element, coord, coord if F.d == 2 else st.just(0))
    return xs.filter(lambda c: not c.is_zero()) if nonzero else xs


@st.composite
def phase_cases(draw):
    """(F, r, r', c): integral c != 0 of either sign of norm, r and r' with
    denominators."""
    F = draw(st.sampled_from(FIELDS))
    c = draw(elements(F, st.integers(-40, 40), nonzero=True))
    r, rp = (draw(elements(F, rationals())) for _ in range(2))
    return F, r, rp, c


class TestPhaseCoefficients:
    @settings(max_examples=300)
    @given(phase_cases())
    # c = 1 + w has norm -1 in Q(sqrt 2), c = -3 is negative over Q
    @example((F2, F2.element(Fraction(1, 4), Fraction(-3, 8)),
              F2.element(Fraction(5, 6), 1), F2.element(1, 1)))
    @example((Q, Q.element(Fraction(7, 10)), Q.element(Fraction(-1, 3)),
              Q.element(-3)))
    @example((F2, F2.element(0), F2.element(0), F2.element(3, -2)))
    def test_equal_to_fraction_traces(self, case):
        F, r, rp, c = case
        assert _phase_coefficients(F, r, rp, c) == \
            fraction_phase_coefficients(F, r, rp, c)


class TestPrincipalRows:
    @settings(max_examples=300)
    @given(st.sampled_from(FIELDS).flatmap(
        lambda F: elements(F, rationals(60, 6), nonzero=True)))
    @example(F2.element(1, 1))
    @example(F2.element(-7, 5))
    def test_equal_to_fraction_hnf(self, c):
        assert IdealLattice.principal(c).rows == fraction_principal_rows(c)


class TestLatticePointsInBox:
    @settings(max_examples=150)
    @given(st.sampled_from(FIELDS).flatmap(
               lambda F: elements(F, rationals(12, 4), nonzero=True)),
           st.floats(0.5, 25.0), st.floats(0.5, 25.0))
    @example(F2.element(1, 1), 7.0, 3.5)
    def test_equal_to_fraction_sums_in_order(self, c, T1, T2):
        L = IdealLattice.principal(c)
        bounds = [T1, T2][:c.field.d]
        assert L.lattice_points_in_box(bounds) == fraction_lattice_points(L, bounds)


# a fundamental unit x + y w of each quadratic field
UNITS = {2: (1, 1), 3: (2, 1), 5: (0, 1), 13: (1, 1)}


@st.composite
def ring_moduli(draw):
    """(F, c): integral c != 0 with |N(c)| <= 10^4, of either sign of norm."""
    F = draw(st.sampled_from(FIELDS))
    coord = st.integers(-10 ** 4, 10 ** 4) if F.d == 1 else st.integers(-70, 70)
    c = draw(elements(F, coord, nonzero=True).filter(
        lambda c: abs(c.norm()) <= 10 ** 4))
    return F, c


class TestResidueRingLookup:
    @settings(max_examples=300)
    @given(ring_moduli())
    @example((F2, F2.element(1, 1)))
    @example((F2, F2.element(-7, 5)))
    def test_integer_hnf_is_the_fraction_hnf(self, case):
        F, c = case
        a, b, d, e = _principal_hnf(c)
        rows = [[a]] if F.d == 1 else [[a, b], [0, d]]
        assert e == 1
        assert rows == fraction_principal_rows(c)
        assert rows == IdealLattice.principal(c).rows

    @settings(max_examples=200)
    @given(ring_moduli())
    @example((Q, Q.element(-12)))
    @example((F2, F2.element(3, -2)))
    def test_element_and_lattice_share_one_ring(self, case):
        F, c = case
        R = residue_ring(F, c)
        assert R is residue_ring(F, IdealLattice.principal(c))
        assert R.lattice == IdealLattice.principal(c)
        assert R.size == abs(c.norm())

    @settings(max_examples=200)
    @given(ring_moduli(), st.integers(-3, 3), st.sampled_from((1, -1)))
    @example((F2, F2.element(9, 1)), 1, 1)
    def test_associates_share_one_ring(self, case, k, sign):
        F, c = case
        u = F.element(*UNITS[F.m]) if F.d == 2 else F.one()
        uk = u.inverse() if k < 0 else u
        assoc = c * sign
        for _ in range(abs(k)):
            assoc = assoc * uk
        assert residue_ring(F, assoc) is residue_ring(F, c)


# --------------------------------------------------------------------------
# the element format: (p + q w)/e against Fraction pairs (x, y)
# --------------------------------------------------------------------------

def pair(F, x, y):
    """The Fraction pair of x + y w, with y w = y folded into x over Q."""
    return (x + y, Fraction(0)) if F.d == 1 else (x, y)


def pair_mul(F, a, b):
    (x1, y1), (x2, y2) = a, b
    return pair(F, x1 * x2 + F.t * y1 * y2, x1 * y2 + y1 * x2 + F.s * y1 * y2)


def pair_norm(F, a):
    x, y = a
    return x if F.d == 1 else x * x + F.s * x * y - F.t * y * y


def pair_contains(L, a):
    """x = u (a + b w)/e + v (d w)/e solved in Fractions (rows of L)."""
    rows = L.rows
    u = a[0] / rows[0][0]
    if L.field.d == 1:
        return u.denominator == 1
    return (u.denominator == 1
            and ((a[1] - u * rows[0][1]) / rows[1][1]).denominator == 1)


def assert_format(z):
    assert all(type(v) is int for v in (z.p, z.q, z.e))
    assert z.e > 0 and math.gcd(z.p, z.q, z.e) == 1
    assert z.field.d == 2 or z.q == 0


@st.composite
def element_pairs(draw, n=2):
    """(F, [(x, y)...]): n rational coordinate pairs, drawn as given (y
    nonzero over Q too, where F.element folds it)."""
    F = draw(st.sampled_from(FIELDS))
    return F, [(draw(rationals()), draw(rationals())) for _ in range(n)]


class TestElementFormat:
    @settings(max_examples=300)
    @given(element_pairs())
    @example((F2, [(Fraction(1, 4), Fraction(-3, 8)), (Fraction(5, 6), 1)]))
    @example((Q, [(Fraction(7, 10), Fraction(1, 3)), (Fraction(-2), 0)]))
    def test_arithmetic_matches_fraction_pairs(self, case):
        F, ((x1, y1), (x2, y2)) = case
        a, b = F.element(x1, y1), F.element(x2, y2)
        pa, pb = pair(F, x1, y1), pair(F, x2, y2)
        assert (a.x, a.y) == pa
        assert ((a + b).x, (a + b).y) == pair(F, pa[0] + pb[0], pa[1] + pb[1])
        assert ((a * b).x, (a * b).y) == pair_mul(F, pa, pb)
        conj = a.conjugate()
        assert (conj.x, conj.y) == pair(F, pa[0] + F.s * pa[1], -pa[1])
        n = pair_norm(F, pa)
        assert a.norm() == n
        assert a.trace() == (pa[0] if F.d == 1 else 2 * pa[0] + F.s * pa[1])
        if n == 0:
            return
        inv = a.inverse()
        want = (1 / pa[0], Fraction(0)) if F.d == 1 else \
            ((pa[0] + F.s * pa[1]) / n, -pa[1] / n)
        assert (inv.x, inv.y) == want
        assert a * inv == F.one()

    @settings(max_examples=300)
    @given(element_pairs(3), st.integers(-6, 6))
    def test_format_invariant(self, case, k):
        F, ((x1, y1), (x2, y2), (x3, y3)) = case
        a, b, c = F.element(x1, y1), F.element(x2, y2), F.element(x3, y3)
        made = [a, b, a + b, a * b, a * c + b * k, a.conjugate(), a + a * -1,
                b * 0, F.one(), F.omega()]
        made += [z.inverse() for z in made if not z.is_zero()]
        for z in made:
            assert_format(z)
        assert (a + a * -1).is_zero() and (a + a * -1) == F.element(0)

    @settings(max_examples=200)
    @given(element_pairs(), st.integers(1, 9), st.sampled_from((1, -1)))
    @example((Q, [(Fraction(1, 2), 0), (0, 0)]), 2, 1)
    def test_equal_values_compare_and_hash_equal(self, case, k, sign):
        F, ((x, y), _) = case
        a = F.element(x, y)
        # the same value from an unreduced integer triple of either sign,
        # from strings such as '2/4', from a product with (k/3)(3/k), and
        # over Q with part of x moved to y
        others = [FieldElement(F, sign * k * a.p, sign * k * a.q, sign * k * a.e),
                  F.element(f"{2 * x.numerator}/{2 * x.denominator}", str(y)),
                  a * F.element(Fraction(k, 3)) * F.element(Fraction(3, k))]
        if F.d == 1:
            others.append(F.element(x - 1, y + 1))
        for b in others:
            assert b == a and hash(b) == hash(a)
            assert (b.p, b.q, b.e) == (a.p, a.q, a.e)
        assert F.element(Fraction(2, 4)) == F.element(Fraction(1, 2))
        assert hash(F.element(Fraction(2, 4))) == hash(F.element(Fraction(1, 2)))

    @settings(max_examples=200)
    @given(element_pairs(1))
    @example((F2, [(Fraction(-1, 2), Fraction(3, 4))]))
    @example((F2, [(Fraction(0), Fraction(-2))]))
    @example((Q, [(Fraction(5, 3), Fraction(1, 3))]))
    def test_repr_is_the_fraction_pair_repr(self, case):
        F, [(x, y)] = case
        px, py = pair(F, x, y)
        want = str(px) if py == 0 else f"{px}+{py}*w"
        assert repr(F.element(x, y)) == want

    @settings(max_examples=300)
    @given(element_pairs(2))
    @example((FIELDS[3], [(Fraction(1, 5), Fraction(2, 5)), (Fraction(1, 5), 0)]))
    @example((F2, [(Fraction(1, 2), 0), (Fraction(1, 4), Fraction(1, 2))]))
    def test_contains_matches_fraction_solve(self, case):
        F, ((x, y), (gx, gy)) = case
        g = F.element(gx, gy)
        if g.is_zero():
            g = F.one()
        # a principal lattice with a denominator, O, and the trace dual O'
        lattices = [IdealLattice.principal(g), IdealLattice.ring_of_integers(F)]
        if F.d == 2:
            lattices.append(IdealLattice.principal(F.element(-F.s, 2).inverse()))
        a = F.element(x, y)
        for L in lattices:
            assert L.contains(a) == pair_contains(L, pair(F, x, y))
            assert all(L.contains(z) for z in L.basis_elements())
