import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum.numberfield import (
    IdealLattice,
    make_field,
    residue_ring,
)

Q = make_field(1)
F2 = make_field(2)
F5 = make_field(5)


def brute_discriminant(s, t):
    # discriminant of x^2 - s x - t
    return s * s + 4 * t


class TestMakeField:
    def test_rational_field(self):
        assert Q.d == 1
        assert Q.discriminant == 1

    def test_disc_5(self):
        # minimal polynomial of (1+sqrt5)/2 is x^2 - x - 1
        assert F5.discriminant == brute_discriminant(1, 1) == 5

    def test_disc_2(self):
        # x^2 - 2
        assert F2.discriminant == brute_discriminant(0, 2) == 8

    def test_rejects_bad_m(self):
        for m in (0, -3, 4, 12, 18):
            with pytest.raises(ValueError):
                make_field(m)


class TestEmbeddings:
    def test_sqrt2(self):
        vals = F2.element(0, 1).embeddings()
        assert vals == pytest.approx((math.sqrt(2), -math.sqrt(2)))

    def test_golden_ratio(self):
        vals = F5.omega().embeddings()
        assert vals == pytest.approx(((1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2))

    def test_rational(self):
        assert Q.element(3).embeddings() == (3.0,)

    def test_product_of_embeddings_is_norm(self):
        x = F5.element(Fraction(3, 2), Fraction(-7, 3))
        prod = 1.0
        for v in x.embeddings():
            prod *= v
        assert prod == pytest.approx(float(x.norm()), rel=1e-12)


class TestTraceNorm:
    def test_omega5(self):
        # w^2 = w + 1 so trace 1, norm -1
        w = F5.omega()
        assert (w.trace(), w.norm()) == (1, -1)

    def test_sqrt2(self):
        w = F2.element(0, 1)
        assert (w.trace(), w.norm()) == (0, -2)

    def test_rational(self):
        x = Q.element(7)
        assert (x.trace(), x.norm()) == (7, 7)

    @given(st.integers(-20, 20), st.integers(-20, 20),
           st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_multiplicativity(self, ax, ay, bx, by):
        a = F5.element(ax, ay)
        b = F5.element(bx, by)
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()


class TestInverseDifferent:
    @staticmethod
    def trace_dual(F):
        # O' = (2w - s)^-1 O, with Z-basis (2w - s)^-1 (1, w), as explicit rows
        g = F.element(-F.s, 2).inverse()
        gw = g * F.omega()
        return IdealLattice(F, [[g.x, g.y], [gw.x, gw.y]])

    @pytest.mark.parametrize("F", [F2, F5])
    def test_brute_force_maximality(self, F):
        # oracle: O' is exactly the set of x = (i + j w)/D (denominator D =
        # disc) with Tr(x) and Tr(x w) integral; compare lattices directly.
        D = F.discriminant
        OD = self.trace_dual(F)
        w = F.omega()
        for i in range(-2 * D, 2 * D + 1):
            for j in range(-2 * D, 2 * D + 1):
                x = F.element(Fraction(i, D), Fraction(j, D))
                dual = (x.trace().denominator == 1
                        and (x * w).trace().denominator == 1)
                assert dual == OD.contains(x)

    @pytest.mark.parametrize("F", [F2, F5])
    def test_scaling_breaks_duality(self, F):
        # enlarging O' by any prime dividing the discriminant leaves the
        # trace-dual property violated somewhere
        OD = self.trace_dual(F)
        p = [q for q in (2, 3, 5, 7, 11, 13) if F.discriminant % q == 0][0]
        bigger = IdealLattice(F, [[x / p for x in row] for row in OD.rows])
        bad = [g for g in bigger.basis_elements()
               if (g.trace().denominator != 1
                   or (g * F.omega()).trace().denominator != 1)]
        assert bad


class TestResidueRing:
    def test_mod4_over_Q(self):
        R = residue_ring(Q, 4)
        assert R.size == 4
        assert sorted(int(u.x) for u in R.units()) == [1, 3]
        assert R.inverse_mod(Q.element(3)) == Q.element(3)

    def test_inert_2_in_F5(self):
        R = residue_ring(F5, F5.element(2))
        assert R.size == 4
        # 2 is inert in Q(sqrt5): residue field F_4, all 3 nonzero classes units
        assert len(R.units()) == 3

    def test_sqrt2_modulus(self):
        R = residue_ring(F2, F2.element(0, 1))
        assert R.size == 2
        assert len(R.units()) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            residue_ring(Q, 0)

    def test_inverse_of_noninvertible(self):
        R = residue_ring(Q, 4)
        with pytest.raises(ValueError):
            R.inverse_mod(Q.element(2))

    @pytest.mark.parametrize("F", [Q, F2, F5])
    def test_sizes_match_norm(self, F):
        count = 0
        for x in range(-7, 8):
            for y in range(-7, 8):
                c = F.element(x, y)
                if c.is_zero():
                    continue
                n = abs(c.norm())
                if n > 200:
                    continue
                R = residue_ring(F, c)
                assert R.size == n
                count += 1
        assert count > 10

    def test_inverse_property(self):
        R = residue_ring(F2, F2.element(1, 2))  # 1 + 2 sqrt2, norm -7
        one = R.key(F2.one())
        for u in R.units():
            assert R.key(u * R.inverse_mod(u)) == one

    def test_one_ring_per_ideal(self):
        # 1 + w is a unit of Q(sqrt2), so c and (1 + w) c generate one ideal
        c = F2.element(9, 1)
        R = residue_ring(F2, c)
        assert R is residue_ring(F2, F2.element(1, 1) * c)
        assert R is residue_ring(F2, IdealLattice.principal(c))
        assert R.size == 79

    def test_rejects_lattices_that_are_not_integral_ideals(self):
        # Z + 2wZ is not closed under multiplication by w, and the trace
        # dual O' = (1/2)Z + (w/4)Z is not integral
        for L in (IdealLattice(F2, [[1, 0], [0, 2]]),
                  IdealLattice(F2, [[Fraction(1, 2), 0],
                                    [0, Fraction(1, 4)]])):
            with pytest.raises(ValueError):
                residue_ring(F2, L)


class TestLatticePoints:
    def test_integers_in_interval(self):
        Z = IdealLattice.ring_of_integers(Q)
        pts = sorted(float(p.x) for p in Z.lattice_points_in_box(2.5))
        assert pts == [-2.0, -1.0, 1.0, 2.0]

    def test_even_integers_small_box(self):
        L = IdealLattice.principal(Q.element(2))
        assert L.lattice_points_in_box(1.5) == []

    def test_sqrt2_box(self):
        O = IdealLattice.ring_of_integers(F2)
        pts = O.lattice_points_in_box([1.5, 1.5])
        got = sorted((float(p.x), float(p.y)) for p in pts)
        assert got == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]

    def test_against_naive_enumeration(self):
        O = IdealLattice.ring_of_integers(F5)
        T = 6.0
        fast = {(p.x, p.y) for p in O.lattice_points_in_box([T, T])}
        naive = set()
        for x in range(-20, 21):
            for y in range(-20, 21):
                if x == y == 0:
                    continue
                e = F5.element(x, y)
                if all(abs(v) <= T for v in e.embeddings()):
                    naive.add((e.x, e.y))
        assert fast == naive


def _mp_covolume(L):
    """|det| of the embedding matrix of L's basis at 30 digits."""
    F = L.field

    def emb(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(30):
        if F.d == 1:
            return abs(emb(L.rows[0][0]))
        r = mpmath.sqrt(F.m)
        ws = ((1 + r) / 2, (1 - r) / 2) if F.m % 4 == 1 else (r, -r)
        M = mpmath.matrix([[emb(x) + emb(y) * w for w in ws] for x, y in L.rows])
        return abs(mpmath.det(M))


class TestCovolume:
    @pytest.mark.parametrize("m", [1, 2, 5, 13])
    def test_against_mpmath_determinant(self, m):
        F = make_field(m)
        gens = [(1, 0), (3, 0), (2, 1), (5, 3), (7, -2), (Fraction(1, 2), 4)]
        lattices = [IdealLattice.ring_of_integers(F)] + \
            [IdealLattice.principal(F.element(x, y if F.d == 2 else 0))
             for x, y in gens]
        for L in lattices:
            want = _mp_covolume(L)
            assert abs(L.covolume() - want) <= 4e-16 * want, L


class TestHNFCanonical:
    def test_equality_of_generators(self):
        # (3, 3w) and (3w, 3w^2) generate the same ideal (3)
        a = IdealLattice.principal(F5.element(3))
        b = IdealLattice.principal(F5.element(3) * F5.omega() * F5.omega().inverse())
        assert a == b

    def test_index_equals_norm(self):
        for x, y in [(3, 0), (1, 2), (0, 1), (2, 1)]:
            c = F2.element(x, y)
            if c.is_zero():
                continue
            L = IdealLattice.principal(c)
            assert L.norm_index() == abs(c.norm())


def bases_of(c):
    """Rational bases of the ideal (c) over (1, w), none of them in HNF:
    the rows c, c w; the two swapped with one negated; and a unimodular mix
    of them.  Over Q: c and -c."""
    F = c.field
    if F.d == 1:
        return [[[c.x]], [[-c.x]]]
    cw = c * F.omega()
    g, gw = [c.x, c.y], [cw.x, cw.y]
    return [[g, gw], [[-v for v in gw], g],
            [[2 * u + v for u, v in zip(g, gw)], [u + v for u, v in zip(g, gw)]]]


# integral generators, of either sign of norm, over Q, Q(sqrt 2), Q(sqrt 5)
GENERATORS = [Q.element(6), Q.element(-10), F2.element(3, -2),
              F2.element(1, 1), F2.element(4, 2), F5.element(2),
              F5.element(3, 1), F5.element(-1, 4)]


class TestOneLatticePerIdeal:
    """Every basis of a lattice reduces to one stored HNF, so one ideal is
    one lattice (equal, of equal hash) and has one residue ring."""

    @pytest.mark.parametrize("c", GENERATORS, ids=repr)
    def test_every_basis_is_the_principal_lattice(self, c):
        F, P = c.field, IdealLattice.principal(c)
        for rows in bases_of(c):
            L = IdealLattice(F, rows)
            assert L == P and hash(L) == hash(P)
            assert residue_ring(F, L) is residue_ring(F, c)

    @pytest.mark.parametrize("c", GENERATORS, ids=repr)
    @pytest.mark.parametrize("k", [2, 3, 12])
    def test_scaled_basis_is_the_fractional_ideal(self, c, k):
        P = IdealLattice.principal(c * Fraction(1, k))
        for rows in bases_of(c):
            L = IdealLattice(c.field, [[v / k for v in r] for r in rows])
            assert L == P and hash(L) == hash(P)

    @pytest.mark.parametrize("F", [Q, F2, F5], ids=repr)
    def test_half_the_ring_of_integers(self, F):
        half = Fraction(1, 2)
        L = IdealLattice(F, [[half]] if F.d == 1 else [[half, 0], [0, half]])
        P = IdealLattice.principal(F.element(half))
        assert L == P and hash(L) == hash(P)
        assert L.hnf == (1, 0, 1, 2) and L.rows == P.rows
        assert L != IdealLattice.ring_of_integers(F)
        with pytest.raises(ValueError, match="integral"):
            residue_ring(F, L)

    @pytest.mark.parametrize("F", [F2, F5], ids=repr)
    def test_rows_not_in_hnf(self, F):
        # (6, 8) - 3 (2, 4) = (0, -4), and 4 = 0 mod 4: Z 2 + Z 4w
        L = IdealLattice(F, [[2, 4], [6, 8]])
        assert L == IdealLattice(F, [[2, 0], [0, 4]])
        assert hash(L) == hash(IdealLattice(F, [[-2, 0], [2, 4]]))
        assert L.hnf == (2, 0, 4, 1)

    def test_negative_generator_over_Q(self):
        L = IdealLattice(Q, [[Fraction(-6)]])
        assert L == IdealLattice.principal(Q.element(6))
        assert residue_ring(Q, L) is residue_ring(Q, 6)

    @pytest.mark.parametrize("F, g, norm", [
        (Q, Fraction(10 ** 7, 3), "10000000/3"),
        (F2, Fraction(2001, 2), "4004001/4")])
    def test_norm_check_of_a_fractional_modulus(self, F, g, norm):
        # N((g)) = (a d) / e^d: g over Q, g^2 over Q(sqrt 2), above MAX_NORM
        # whether the modulus is a lattice or an element
        for c in (IdealLattice.principal(F.element(g)), F.element(g)):
            with pytest.raises(ValueError, match=f"modulus norm {norm} is above"):
                residue_ring(F, c)
