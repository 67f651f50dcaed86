import cmath
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specsum.kloosterman import (
    _tail_integrals,
    kloosterman_sum,
    ksum,
    trivial_bound,
    trivial_character,
)
from specsum.numberfield import (
    MAX_NORM,
    IdealLattice,
    make_field,
    residue_ring,
)

Q = make_field(1)
F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def brute_S(r, rp, c):
    """Classical Kloosterman sum over Z by direct summation."""
    s = 0j
    for a in range(1, c):
        if math.gcd(a, c) != 1:
            continue
        at = pow(a, -1, c)
        s += cmath.exp(2j * math.pi * (r * a + rp * at) / c)
    return s


def brute_unit_inverses(F, I):
    """{unit key: inverse key} of O/I by trying every pair of representatives
    i + j w (0 <= i < a, 0 <= j < d for the HNF rows (a, b), (0, d))."""
    a = int(I.rows[0][0])
    b, d = (0, 1) if F.d == 1 else (int(I.rows[0][1]), int(I.rows[1][1]))

    def in_I(x, y):
        return x % a == 0 and (y - (x // a) * b) % d == 0

    reps = [(i, j) for i in range(a) for j in range(d)]
    inv = {}
    for i1, j1 in reps:
        for i2, j2 in reps:
            # (i1 + j1 w)(i2 + j2 w) - 1 with w^2 = s w + t
            if in_I(i1 * i2 + F.t * j1 * j2 - 1, i1 * j2 + j1 * i2 + F.s * j1 * j2):
                inv[(i1, j1)] = (i2, j2)
                break
    return inv


def brute_kloosterman(F, r, rp, c, inv):
    """S(r, r'; c) with an exact Fraction trace per term."""
    cinv = c.inverse()
    total = 0j
    for (i, j), (it, jt) in inv.items():
        tr = ((r * F.element(i, j) + rp * F.element(it, jt)) * cinv).trace()
        total += cmath.exp(2j * math.pi * float(tr - math.floor(tr)))
    return total


@st.composite
def modulus_cases(draw):
    """(F, g, h, r, r') with 0 < |N(g h)| <= 400 and r, r' in O'."""
    F = draw(st.sampled_from([Q, F2, F3, F5]))
    if F.d == 1:
        g, h = (F.element(draw(st.integers(-20, 20))) for _ in range(2))
    else:
        g, h = (F.element(draw(st.integers(-6, 6)), draw(st.integers(-4, 4)))
                for _ in range(2))
    assume(0 < abs((g * h).norm()) <= 400)
    # O' is Z over Q, else (2w - s)^-1 O, with Z-basis (2w - s)^-1 (1, w)
    dual = F.one() if F.d == 1 else F.element(-F.s, 2).inverse()
    basis = (dual,) if F.d == 1 else (dual, dual * F.omega())
    r, rp = (sum((draw(st.integers(-3, 3)) * e for e in basis), F.element(0))
             for _ in range(2))
    return F, g, h, r, rp


class TestBruteForceOracle:
    @settings(max_examples=100)
    @given(modulus_cases())
    def test_units_inverses_and_sums(self, case):
        F, g, h, r, rp = case
        c = g * h
        R = residue_ring(F, c)
        inv = brute_unit_inverses(F, R.lattice)
        assert R.unit_inverses() == inv
        assert [R.key(u) for u in R.units()] == sorted(inv)
        assert all(R.key(R.inverse_mod(F.element(*k))) == v for k, v in inv.items())
        S = brute_kloosterman(F, r, rp, c, inv) if R.size > 1 else 1
        assert abs(kloosterman_sum(F, None, r, rp, c) - S) <= 1e-9
        if abs(h.norm()) > 1:
            # the level (g) is strictly larger than (c)
            chi = trivial_character(F, IdealLattice.principal(g))
            assert abs(kloosterman_sum(F, chi, r, rp, c) - S) <= 1e-9


def integral_ideals(F, nmax):
    """The residue ring of every integral ideal of norm <= nmax: each HNF
    (a, b, d) with a d <= nmax, 0 <= b < d, that is an ideal of O."""
    rings = []
    for a in range(1, nmax + 1):
        for d in range(1, (nmax // a if F.d == 2 else 1) + 1):
            for b in range(d):
                L = IdealLattice(F, [[a]] if F.d == 1 else [[a, b], [0, d]])
                try:
                    rings.append(residue_ring(F, L))
                except ValueError:  # not closed under multiplication by w
                    pass
    return rings


class TestRingTableOrder:
    """The table's order is the summation order, which sets the output
    bytes; dict == ignores it."""

    @pytest.mark.parametrize("F", [Q, F2, F5])
    def test_every_ideal_up_to_norm_200(self, F):
        rings = integral_ideals(F, 200)
        for R in rings:
            want = sorted(brute_unit_inverses(F, R.lattice).items())
            assert list(R.unit_inverses().items()) == want, R.lattice
        # c | 2, where -a = a, and units that are their own inverse but
        # not +-1 are among them
        two = [R for R in rings if R.size > 1 and R.lattice.contains(F.element(2))]
        assert two and all(R.reduce_pair(-i, -j) == (i, j) for R in two
                           for i, j in R.unit_inverses())
        assert any(k == v and k not in (R.key(F.one()), R.key(F.element(-1)))
                   for R in rings for k, v in R.unit_inverses().items())


class TestCharacters:
    def test_trivial(self):
        I = IdealLattice.principal(Q.element(4))
        chi = trivial_character(Q, I)
        assert chi.level is I
        # the units 1 and 3 mod 4, each weighed by 1: e(2/4) + e(6/4)
        S = kloosterman_sum(Q, chi, Q.element(1), Q.element(1), Q.element(4))
        assert S == pytest.approx(-2, abs=1e-12)

    def test_rejects_level_with_no_residue_ring(self):
        with pytest.raises(ValueError, match="integral"):
            trivial_character(Q, IdealLattice.principal(Q.element(Fraction(1, 2))))
        with pytest.raises(ValueError, match="too large"):
            trivial_character(Q, IdealLattice.principal(Q.element(MAX_NORM + 1)))


class TestKloostermanSums:
    def test_S113(self):
        v = kloosterman_sum(Q, None, Q.element(1), Q.element(1), Q.element(3))
        assert v == pytest.approx(-1, abs=1e-10)

    def test_S114(self):
        v = kloosterman_sum(Q, None, Q.element(1), Q.element(1), Q.element(4))
        assert v == pytest.approx(-2, abs=1e-10)

    def test_unit_modulus_convention(self):
        assert kloosterman_sum(Q, None, Q.element(1), Q.element(1), Q.element(1)) == 1

    @pytest.mark.parametrize("c", range(2, 30))
    def test_brute_force_oracle(self, c):
        v = kloosterman_sum(Q, None, Q.element(2), Q.element(3), Q.element(c))
        assert v == pytest.approx(brute_S(2, 3, c), abs=1e-10)

    def test_rejects_zero_modulus(self):
        with pytest.raises(ValueError):
            kloosterman_sum(Q, None, Q.element(1), Q.element(1), Q.element(0))

    def test_rejects_modulus_norm_above_limit(self):
        with pytest.raises(ValueError, match="too large"):
            kloosterman_sum(Q, None, Q.element(1), Q.element(1),
                            Q.element(MAX_NORM + 1))

    def test_rejects_c_outside_level(self):
        I = IdealLattice.principal(Q.element(4))
        chi = trivial_character(Q, I)
        with pytest.raises(ValueError):
            kloosterman_sum(Q, chi, Q.element(1), Q.element(1), Q.element(3))

    def test_reality_trivial_character(self):
        r = F2.element(Fraction(1, 2))  # w / (2w), in O'
        for x in range(-4, 5):
            for y in range(-4, 5):
                c = F2.element(x, y)
                if c.is_zero() or abs(c.norm()) > 60:
                    continue
                S = kloosterman_sum(F2, None, r, r, c)
                assert abs(S.imag) <= 1e-10

    def test_trivial_bound_holds(self):
        # (1 + w) / (2w - 1), in O'
        r = F5.element(Fraction(1, 5), Fraction(3, 5))
        for x in range(-4, 5):
            for y in range(-4, 5):
                c = F5.element(x, y)
                if c.is_zero() or abs(c.norm()) > 100:
                    continue
                S = kloosterman_sum(F5, None, r, r, c)
                assert abs(S) <= trivial_bound(F5, c) + 1e-9

    def test_representative_independence(self):
        # recompute with residue representatives shifted by c*u
        from specsum.numberfield import residue_ring

        c = F5.element(1, 2)
        # (1 + w) / (2w - 1), in O'
        r = F5.element(Fraction(1, 5), Fraction(3, 5))
        S = kloosterman_sum(F5, None, r, r, c)
        R = residue_ring(F5, c)
        cinv = c.inverse()
        total = 0j
        for a in R.units():
            at = R.inverse_mod(a)
            a_shift = a + c * F5.element(3, -1)
            at_shift = at + c * F5.element(-2, 5)
            tr = ((r * a_shift + r * at_shift) * cinv).trace()
            frac = tr - math.floor(tr)
            total += cmath.exp(2j * math.pi * float(frac))
        assert total == pytest.approx(S, abs=1e-12)

    def test_conjugation_symmetry(self):
        r = Q.element(2)
        rp = Q.element(5)
        for c in (3, 7, 12):
            S = kloosterman_sum(Q, None, r, rp, Q.element(c))
            S2 = kloosterman_sum(Q, None, r * -1, rp * -1, Q.element(c))
            assert S.conjugate() == pytest.approx(S2, abs=1e-12)


# r != r' in O' for each field: O' = Z over Q, (2w)^-1 O = <w/4, 1/2> over
# Q(sqrt2), and (2w - 1)^-1 O = <(2w - 1)/5, (2 + w)/5> over Q(sqrt5)
_R_PAIRS = [
    (Q, Q.element(2), Q.element(5)),
    (F2, F2.element(Fraction(1, 2), Fraction(1, 4)),
     F2.element(1, Fraction(-3, 4))),
    (F5, F5.element(Fraction(1, 5), Fraction(3, 5)),
     F5.element(Fraction(2, 5), Fraction(1, 5))),
]


def _moduli(F, nmax=300):
    ys = range(-6, 7) if F.d == 2 else [0]
    return [c for c in (F.element(x, y) for x in range(-20, 21) for y in ys)
            if not c.is_zero() and abs(c.norm()) <= nmax]


class TestSymmetries:
    """a -> -a conjugates each term, so S is real and S(-c) = S(c)."""

    @pytest.mark.parametrize("F, r, rp", _R_PAIRS)
    def test_imaginary_part_is_zero(self, F, r, rp):
        for c in _moduli(F):
            assert kloosterman_sum(F, None, r, rp, c).imag == 0.0

    @pytest.mark.parametrize("F, r, rp", _R_PAIRS)
    def test_negated_modulus(self, F, r, rp):
        for c in _moduli(F):
            S, S_neg = (kloosterman_sum(F, None, r, rp, g) for g in (c, c * -1))
            assert abs(S - S_neg) <= 1e-12 * abs(c.norm())


class TestBounds:
    def test_trivial_bound_values(self):
        assert trivial_bound(Q, Q.element(3)) == 3
        assert trivial_bound(F2, F2.element(0, 1)) == 2
        assert trivial_bound(F5, F5.element(2)) == 4


def _tail_integrals_mp(a, T, tau):
    """(full, tail) of _tail_integrals at 30 digits: mpmath quad over the
    finite pieces of g, plus the power tail a^{2tau} x^{-1/2-2tau} beyond
    a, which is analytic (mpmath's quad of it out to infinity is not
    accurate enough)."""
    with mpmath.workdps(30):
        a, T, tau = mpmath.mpf(a), mpmath.mpf(T), mpmath.mpf(tau)
        e = 2 * tau - mpmath.mpf(0.5)

        def beyond(x):  # integral of g over (x, inf), x >= a
            return a ** (2 * tau) * x ** -e / e

        full = mpmath.quad(lambda x: x ** -0.5, [0, a]) + beyond(a)
        if T < a:
            tail = mpmath.quad(lambda x: x ** -0.5, [T, a]) + beyond(a)
        else:
            tail = beyond(T)
        return 2 * full, 2 * tail


class TestKSeries:
    @pytest.mark.parametrize("a", [0.3, 1.0, 4 * math.pi, 4 * math.pi * math.sqrt(5),
                                   4 * math.pi * 7.3])
    def test_tail_integrals_against_mpmath(self, a):
        for T in (0.5, 5.0, 15.0, 75.0):
            for tau in (0.3, 0.5, 0.75, 1.0):
                got = _tail_integrals(a, T, tau)
                want = _tail_integrals_mp(a, T, tau)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-14 * abs(w), (a, T, tau)

    def test_zero_function(self):
        res = ksum(Q, IdealLattice.ring_of_integers(Q), None, Q.element(1),
                   lambda t: 0.0, 20, 0.0)
        assert res.partial_sum == 0
        assert res.tail_estimate == 0

    def test_cauchy_within_tails(self):
        f = lambda t: min(abs(t[0]) ** 0.6, 1.0)
        Zs = IdealLattice.ring_of_integers(Q)
        results = {T: ksum(Q, Zs, None, Q.element(1), f, T, 1.0, tau=0.3)
                   for T in (10, 20, 40)}
        for T in (10, 20):
            diff = abs(results[T].partial_sum - results[40].partial_sum)
            assert diff <= results[T].tail_estimate

    def test_tail_monotone_in_box(self):
        f = lambda t: min(abs(t[0]) ** 0.6, 1.0)
        Zs = IdealLattice.ring_of_integers(Q)
        tails = [ksum(Q, Zs, None, Q.element(1), f, T, 1.0, tau=0.3).tail_estimate
                 for T in (10, 20, 40)]
        assert tails[0] >= tails[1] >= tails[2]

    @pytest.mark.parametrize("F", [F2, F5])
    def test_quadratic_field_against_brute_force(self, F):
        tau, box = 0.3, 6.0
        f = lambda t: math.prod(min(abs(tj) ** (2 * tau), 1.0) for tj in t)
        O = IdealLattice.ring_of_integers(F)
        res = ksum(F, O, None, F.one(), f, box, 1.0, tau=tau)
        pts = O.lattice_points_in_box(box)
        want = 0j
        for c in pts:
            R = residue_ring(F, c)
            S = brute_kloosterman(F, F.one(), F.one(), c,
                                  brute_unit_inverses(F, R.lattice)) \
                if R.size > 1 else 1
            want += S / float(abs(c.norm())) * f(
                [4 * math.pi / abs(v) for v in c.embeddings()])
        assert res.terms_used == len(pts) > 0
        assert abs(res.partial_sum - want) <= 1e-9
        # |r_j| = 1 at both places: tail = 8/covol * 2 * tail_int * full_int
        full, tail = _tail_integrals(4 * math.pi, box, tau)
        assert res.tail_estimate == pytest.approx(
            16 * full * tail / O.covolume(), rel=1e-12)

    @pytest.mark.parametrize("tau", [0.25, 0.2, 0.0])
    def test_rejects_tau_at_most_quarter(self, tau):
        # the tail exponent 1/2 + 2 tau must exceed 1
        with pytest.raises(ValueError, match="tau"):
            ksum(Q, IdealLattice.ring_of_integers(Q), None, Q.element(1),
                 lambda t: 1.0, 10, 1.0, tau=tau)

    @pytest.mark.parametrize("F, I, level", [
        (Q, (1,), (2,)),
        (Q, (6,), (4,)),
        (F5, (2, 0), (3, 0)),
        (F5, (2, 0), (3, 1)),
    ])
    def test_rejects_level_not_containing_I(self, F, I, level):
        # each modulus lies in I, so I must lie in the level of chi; the
        # check is made once, before any sum
        I = IdealLattice.principal(F.element(*I))
        chi = trivial_character(F, IdealLattice.principal(F.element(*level)))
        with pytest.raises(ValueError, match="level ideal"):
            ksum(F, I, chi, F.one(), lambda t: 1.0, 9.0, 1.0)

    @pytest.mark.parametrize("F, I, level", [(Q, 12, 4), (F5, 6, 2), (F5, 2, 2)])
    def test_level_containing_I_is_the_sum_without_chi(self, F, I, level):
        I = IdealLattice.principal(F.element(I))
        chi = trivial_character(F, IdealLattice.principal(F.element(level)))
        f = lambda t: math.prod(min(abs(v) ** 0.6, 1.0) for v in t)
        assert ksum(F, I, chi, F.one(), f, 30.0, 1.0) == \
            ksum(F, I, None, F.one(), f, 30.0, 1.0)

    @pytest.mark.parametrize("tau", [0.75, 1.0])
    def test_tau_above_half(self, tau):
        f = lambda t: min(abs(t[0]) ** (2 * tau), 1.0)
        res = ksum(Q, IdealLattice.ring_of_integers(Q), None, Q.element(1),
                   f, 10, 1.0, tau=tau)
        assert 0 < res.tail_estimate < math.inf

    @pytest.mark.parametrize("F, level, r, box", [
        (Q, 1, Q.element(3), 40.0),
        (F2, 1, F2.element(Fraction(1, 2), Fraction(1, 4)), 9.0),
        (F5, 1, F5.element(Fraction(1, 5), Fraction(3, 5)), 9.0),
        (F5, 2, F5.one(), 12.0),
    ])
    def test_against_per_point_loop(self, F, level, r, box):
        """ksum sums each +-c pair once; a loop over every point agrees,
        with a weight that is not even, and the tail is the closed form
        below bit for bit."""
        tau, K_f = 0.3, 2.5

        def f(t):  # |f| <= 2.5 prod_j min(|t_j|^{2 tau}, 1); sin is odd
            return math.prod(min(abs(v) ** (2 * tau), 1.0) * (1.5 + math.sin(v))
                             for v in t)

        I = IdealLattice.principal(F.element(level))
        chi = trivial_character(F, I)
        res = ksum(F, I, chi, r, f, box, K_f, tau=tau)
        r_emb = [abs(v) for v in r.embeddings()]
        terms = [kloosterman_sum(F, chi, r, r, c) / float(abs(c.norm()))
                 * f(tuple(4 * math.pi * rv / v
                           for rv, v in zip(r_emb, c.embeddings())))
                 for c in I.lattice_points_in_box([box] * F.d)]
        assert abs(res.partial_sum - sum(terms)) <= 1e-12 * sum(map(abs, terms))
        assert res.terms_used == len(terms)
        ints = [_tail_integrals(4 * math.pi * rv, box, tau) for rv in r_emb]
        tail = sum(ta * math.prod(fu for k, (fu, _) in enumerate(ints) if k != j)
                   for j, (_, ta) in enumerate(ints))
        assert res.tail_estimate == 8.0 * K_f / I.covolume() * tail
