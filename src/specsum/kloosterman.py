"""Kloosterman sums over Q and real quadratic fields, and their series.

S_chi(r, r'; c) = sum over invertible a mod (c) of
    chi(a) * exp(2 pi i Tr((r a + r' a~)/c)),   a a~ = 1 mod (c),
with r, r' in the trace dual O' and c in the level ideal I.  The phase trace
is an exact integer numerator k over one common denominator, reduced mod it
before one cosine: a -> -a conjugates each term, so S is real and
S(r, r'; -c) = S(r, r'; c) (Iwaniec & Kowalski, Analytic Number Theory, 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numberfield import (
    FieldElement,
    IdealLattice,
    QuadField,
    residue_ring,
)


class CharacterModI:
    """The trivial character of (O/I)^*, the only one supported."""

    def __init__(self, I: IdealLattice):
        self.level = I


def trivial_character(F: QuadField, I: IdealLattice) -> CharacterModI:
    residue_ring(F, I)  # rejects a non-integral level or one above MAX_NORM
    return CharacterModI(I)


# --------------------------------------------------------------------------
# the sums
# --------------------------------------------------------------------------

def _phase_coefficients(F: QuadField, r: FieldElement, rp: FieldElement,
                        c: FieldElement):
    """(p1, p2, p3, p4, den): Tr(r/c), Tr(r w/c), Tr(r'/c), Tr(r' w/c) as
    integers over their least common denominator den > 0, for integral c.

    All in Python integers: r = (g1 + g2 w)/e and r' = (h1 + h2 w)/e over
    e = e(r) e(r'), and with g c~ = u + v w for g in (g1 + g2 w, h1 + h2 w),
    g/c = (u + v w)/(e N(c)), where Tr(u + v w) = 2u + s v and
    Tr((u + v w) w) = 2t v + s(u + s v).  Over Q, w folds to 1 and
    g/c = g1/(e c), so both traces are g1.  The reduced tuple is unique, so
    any common denominator e gives the same one.
    """
    e, cx, cy = r.e * rp.e, c.p, c.q
    gs = ((r.p * rp.e, r.q * rp.e), (rp.p * r.e, rp.q * r.e))
    D = e * F.norm_form(cx, cy)
    nums = []
    if F.d == 1:
        for g1, _ in gs:
            nums += [g1, g1]
    else:
        s, t = F.s, F.t
        for g1, g2 in gs:
            # (g1 + g2 w)(cx + s cy - cy w) with w^2 = s w + t
            u = g1 * (cx + s * cy) - t * g2 * cy
            v = g2 * cx - g1 * cy
            nums += [2 * u + s * v, 2 * t * v + s * (u + s * v)]
    # the lcm of the reduced denominators n/D is |D| / gcd(D, n...)
    g = math.gcd(D, *nums)
    sign = 1 if D > 0 else -1
    return (*(sign * n // g for n in nums), abs(D) // g)


def kloosterman_sum(F: QuadField, chi, r: FieldElement, rp: FieldElement,
                    c: FieldElement) -> complex:
    """S_chi(r, r'; c) with exact rational phases, as complex(S, 0.0).

    Only the trivial character is supported: chi is None or a
    trivial_character, whose level ideal c must lie in; it weighs every
    unit by 1, so S is the sum of the cosines of the phases, added by
    math.fsum, which rounds once.  c must be nonzero.  The four phase
    coefficients are formed from the integer numerators of r c~ and r' c~
    over e(r) e(r') N(c), with no rational arithmetic.
    """
    if c.is_zero():
        raise ValueError("c must be nonzero")
    if chi is not None and not chi.level.contains(c):
        raise ValueError("c must lie in the level ideal of chi")
    R = residue_ring(F, c)
    if R.size == 1:
        # unit modulus: empty twisted sum over the trivial ring; classical
        # convention S(m, n; 1) = 1
        return 1.0 + 0.0j
    # Tr(r a / c) + Tr(r' a~ / c) is linear in the keys (i, j) of a and
    # (i~, j~) of a~: k/den with k = i p1 + j p2 + i~ p3 + j~ p4 mod den,
    # p1..p4 = Tr(r/c), Tr(r w/c), Tr(r'/c), Tr(r' w/c) over den
    p1, p2, p3, p4, den = _phase_coefficients(F, r, rp, c)
    return complex(math.fsum(
        math.cos(2 * math.pi * ((i * p1 + j * p2 + it * p3 + jt * p4) % den / den))
        for (i, j), (it, jt) in R.unit_inverses().items()), 0.0)


def trivial_bound(F: QuadField, c: FieldElement) -> float:
    """|S_chi(r, r'; c)| <= |N(c)|."""
    return float(abs(c.norm()))


# --------------------------------------------------------------------------
# the Kloosterman series
# --------------------------------------------------------------------------

@dataclass
class KSeriesResult:
    partial_sum: complex
    tail_estimate: float
    terms_used: int


def _tail_integrals(a_j: float, T: float, tau: float):
    """(full, tail) integrals of g(x) = |x|^{-1/2} min((a_j/|x|)^{2tau}, 1)
    over |x| in (0, inf) and |x| > T respectively (both halves).

    g is x^{-1/2} below a_j and a_j^{2tau} x^{-1/2-2tau} above, so with
    e = 2tau - 1/2 > 0 both are closed forms: full = 2 sqrt(a_j) (2 + 1/e),
    and the tail is full - 4 sqrt(T) for T < a_j, else 2 a_j^{2tau} T^{-e}/e.
    """
    e = 2 * tau - 0.5
    full = 2 * math.sqrt(a_j) * (2 + 1 / e)
    if T < a_j:
        return full, full - 4 * math.sqrt(T)
    return full, 2 * a_j ** (2 * tau) * T ** -e / e


def ksum(F: QuadField, I: IdealLattice, chi, r: FieldElement, f,
         box: float, K_f: float, tau: float = 0.3) -> KSeriesResult:
    """Partial sum of sum_{c in I, c != 0} |N(c)|^{-1} S_chi(r,r;c) f(4 pi |r| / c)
    over the box max_j |sigma_j(c)| <= box, with a tail estimate.

    The box is symmetric and S(r, r; -c) = S(r, r; c), so only the c with
    coordinates (x, y) > (0, 0) as tuples are summed, each with
    f(t_c) + f(-t_c): t_{-c} = -t_c exactly, and f need not be even.

    The caller certifies |f(t)| <= K_f prod_j min(|t_j|^{2 tau}, 1).  The
    tail uses square-root cancellation in the Kloosterman sum (the shape
    |S| <= |N(c)|^{1/2}, constant 1, times a safety factor 8) because the
    trivial bound |S| <= |N(c)| gives a divergent majorant at 2 tau < 1.
    With it each term is bounded by prod_j g_j(c_j),
        g_j(x) = |x|^{-1/2} min((4 pi |r_j| / |x|)^{2 tau}, 1),
    and the sum over lattice points outside the box is compared with the
    integral of prod g_j over {max_j |x_j| > T} divided by the covolume:
        tail <= 8 * K_f / covol * sum_j [tailint_j(T) * prod_{k != j} fullint_k].
    """
    for name, v in (("box", box), ("tau", tau)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if tau <= 0.25:  # the tail integrand decays like |x|^{-1/2 - 2 tau}
        raise ValueError("tau must exceed 1/4 for the tail to converge")
    r_emb = [abs(v) for v in r.embeddings()]
    if any(v == 0 for v in r_emb):
        raise ValueError("r must be nonzero at every place")
    # each c below lies in I: checking I stands for a check per modulus
    if chi is not None and not all(map(chi.level.contains, I.basis_elements())):
        raise ValueError("c must lie in the level ideal of chi")
    pts = I.lattice_points_in_box([box] * F.d)
    # the tail before the sums, so that one beyond a double costs no sum
    try:
        ints = [_tail_integrals(4 * math.pi * rv, box, tau) for rv in r_emb]
        tail = 8.0 * K_f / I.covolume() * sum(
            ta * math.prod(fu for k, (fu, _) in enumerate(ints) if k != j)
            for j, (_, ta) in enumerate(ints))
    except OverflowError:  # a_j^{2 tau} beyond a double
        tail = math.inf
    if not math.isfinite(tail):
        raise ValueError(f"tail estimate at tau={tau} beyond the range of a double")
    wv = F.omega_values
    total = 0.0 + 0.0j
    for c in pts:
        # c is integral (kloosterman_sum refuses it otherwise): norm and
        # embeddings from its integer coordinates
        x, y = c.p, c.q
        if (x, y) < (0, 0):  # -c is summed with c: S(r, r; -c) = S(r, r; c)
            continue
        S = kloosterman_sum(F, None, r, r, c)
        t_c = tuple(4 * math.pi * rv / (x + y * w) for rv, w in zip(r_emb, wv))
        n = F.norm_form(x, y)
        total += S / float(abs(n)) * (f(t_c) + f(tuple(-v for v in t_c)))
    return KSeriesResult(total, tail, len(pts))
