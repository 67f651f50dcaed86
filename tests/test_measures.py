import math
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import measures
from specsum.measures import (
    LAMBDA_STAR_DEFAULT,
    V_b_lambda_factor,
    discrete_admissible,
    discrete_series,
    monte_carlo_measure,
    npl,
    nu_theta,
    nv_1,
    nv_b_factor,
    pl_lambda,
    plancherel_density,
)
from specsum.regions import PlaceFactor, ProductRegion, family, imaginary_box


def _midpoint(f, a, b, n=200000):
    xs = np.linspace(a, b, n + 1)[:-1] + (b - a) / (2 * n)
    return float(np.mean([f(x) for x in xs]) * (b - a))


class TestPlancherelDensity:
    def test_even_vanishes_at_zero(self):
        assert plancherel_density(0, 0.0) == 0.0

    def test_odd_value_at_zero(self):
        assert plancherel_density(1, 0.0) == pytest.approx(1 / math.pi)

    def test_large_t_both_parities_linear(self):
        for par in (0, 1):
            assert plancherel_density(par, 30.0) == pytest.approx(30.0, rel=1e-12)

    def test_rejects_parity_outside_0_1(self):
        for par in (2, 7, -1):
            with pytest.raises(ValueError, match="parity"):
                plancherel_density(par, 0.5)

    @given(st.floats(0.01, 50))
    def test_odd_dominates_even(self, t):
        assert plancherel_density(1, t) >= plancherel_density(0, t)

    def test_discrete_admissible(self):
        assert discrete_admissible(1, 1.0)
        assert discrete_admissible(1, 2.0)
        assert not discrete_admissible(1, 1.5)
        assert discrete_admissible(0, 0.5)
        assert discrete_admissible(0, 2.5)
        assert not discrete_admissible(0, 1.0)

    def test_discrete_weight(self):
        # npl weighs an admissible point by |beta|; an inadmissible one is
        # rejected when its factor is built
        disc = ProductRegion((PlaceFactor(parity=0, disc=(2.5,)),))
        assert npl(disc).value == 2 * 2.5
        with pytest.raises(ValueError, match="not admissible for parity 0"):
            PlaceFactor(parity=0, disc=(2.0,))


class TestNpl:
    def test_high_interval_doubles_length_times_t(self):
        # 2 * integral of ~t over [10, 11]
        r = imaginary_box([(10, 11)])
        assert npl(r).value == pytest.approx(2 * 10.5, rel=1e-6)

    def test_discrete_point(self):
        r = ProductRegion((PlaceFactor(parity=0, disc=(2.5,)),))
        assert npl(r).value == pytest.approx(5.0)

    def test_complementary_interval_massless(self):
        r = ProductRegion((PlaceFactor(parity=0, re=((0.0, 0.1),)),))
        assert npl(r).value == 0.0

    def test_product_of_places(self):
        r = imaginary_box([(10, 11), (20, 21)])
        assert npl(r).value == pytest.approx(4 * 10.5 * 20.5, rel=1e-5)

    def test_quadrature_oracle_small_interval(self):
        # midpoint-rule oracle on [0, 1] for parity 0
        ts = np.linspace(0, 1, 20001)[:-1] + 0.5 / 20000
        oracle = 2 * np.mean(ts * np.tanh(np.pi * ts))
        r = imaginary_box([(0, 1)])
        assert npl(r).value == pytest.approx(oracle, rel=1e-6)


class TestReferenceMeasure:
    def test_unit_interval(self):
        assert nv_1(imaginary_box([(0, 1)])).value == pytest.approx(1.0)

    def test_interval_above_one(self):
        # integral of t over [1, 2]
        assert nv_1(imaginary_box([(1, 2)])).value == pytest.approx(1.5)

    def test_straddling_interval(self):
        # [0.5, 2]: flat part 0.5 plus integral of t over [1, 2]
        assert nv_1(imaginary_box([(0.5, 2)])).value == pytest.approx(0.5 + 1.5)

    def test_b_weight(self):
        # b = 2 over i[1, 2]: integral of t^2
        f = PlaceFactor(im=((1, 2),))
        assert nv_b_factor(2.0, f).value == pytest.approx(7 / 3)

    def test_complementary_branch_flat(self):
        f = PlaceFactor(re=((0.0, nu_theta()),))
        assert nv_b_factor(5.0, f).value == pytest.approx(nu_theta())

    @pytest.mark.parametrize("a, b", [(0.0, 10.0), (0.5, 0.3), (-1.0, 0.05),
                                      (0.05, 5.0)])
    def test_complementary_outside_branch_rejected(self, a, b):
        with pytest.raises(ValueError, match="0 <= a <= b <= nu_theta"):
            PlaceFactor(re=((a, b),))

    def test_discrete_points(self):
        f = PlaceFactor(parity=1, disc=(1.0, 3.0))
        assert nv_b_factor(2.0, f).value == pytest.approx(1 + 9)

    def test_product(self):
        r = imaginary_box([(1, 2), (1, 3)])
        assert nv_1(r).value == pytest.approx(1.5 * 4.0)

    @given(st.floats(1.0, 5.0), st.floats(0.1, 3.0))
    @settings(max_examples=30)
    def test_monotone_in_interval(self, a, w):
        small = nv_1(imaginary_box([(a, a + w)])).value
        big = nv_1(imaginary_box([(a, a + w + 0.5)])).value
        assert big > small

    @pytest.mark.parametrize("b", [
        -1.0, -1 + 9e-15, -1 - 9e-15, -1 + 1e-12, -1 + 1e-10, -1 + 1e-8,
        -1 + 1e-4, -1 - 1e-4, -1.1, -0.9, -0.5,
    ])
    def test_error_bound_b_near_minus_one(self, b):
        # int_1^100 t^b dt at 40 digits: the difference of powers cancels
        # when b is near -1
        with mpmath.workdps(40):
            exact = mpmath.quad(lambda t: t ** mpmath.mpf(b), [1, 10, 100])
            got = nv_b_factor(b, PlaceFactor(im=((1.0, 100.0),)))
            assert abs(got.value - exact) <= got.error


def _piecewise_V_b(b, intervals):
    """The former V_b_lambda_factor: the antiderivative in lambda, piece by
    piece on [lambda_star, 5/4] and above 5/4."""
    total = 0.0
    for lo, hi in intervals:
        lo = max(lo, LAMBDA_STAR_DEFAULT)
        if hi <= lo:
            continue
        m_lo, m_hi = lo, min(hi, 1.25)
        if m_hi > m_lo:
            def A(x):
                return math.copysign(math.sqrt(abs(x - 0.25)), x - 0.25)

            total += A(m_hi) - A(m_lo)
        u_lo, u_hi = max(lo, 1.25), hi
        if u_hi > u_lo:
            p = (b - 1) / 2.0
            if abs(p + 1) < 1e-14:
                total += 0.5 * (math.log(u_hi - 0.25) - math.log(u_lo - 0.25))
            else:
                total += 0.5 * ((u_hi - 0.25) ** (p + 1)
                                - (u_lo - 0.25) ** (p + 1)) / (p + 1)
    return total


class TestLambdaMeasures:
    def test_middle_band_identity(self):
        # flat-weight mass of [lambda_*, 5/4] equals 1 + nu_theta
        v = V_b_lambda_factor(1.0, [(LAMBDA_STAR_DEFAULT, 1.25)])
        assert v.value == pytest.approx(1.0 + nu_theta(), rel=1e-12)

    def test_upper_range_b1(self):
        # (1/2) * length above 5/4
        v = V_b_lambda_factor(1.0, [(1.25, 3.25)])
        assert v.value == pytest.approx(1.0)

    def test_upper_range_matches_nu_change_of_variables(self):
        # lambda in [5/4, 10] <-> t in [1, sqrt(39)/2]; V_1 = nv_1 there
        hi = math.sqrt(10 - 0.25)
        v_nu = nv_1(imaginary_box([(1.0, hi)])).value
        v_lam = V_b_lambda_factor(1.0, [(1.25, 10.0)]).value
        assert v_lam == pytest.approx(v_nu, rel=1e-12)

    def test_product(self):
        # the measure of a product region is the product over its places
        v = [V_b_lambda_factor(1.0, iv) for iv in ([(1.25, 3.25)], [(1.25, 5.25)])]
        assert v[0].value * v[1].value == pytest.approx(1.0 * 2.0)

    @pytest.mark.parametrize("b", [-3.0, -1.0, 0.5, 1.0, 2.0])
    def test_matches_piecewise_antiderivative(self, b):
        # intervals straddle lambda_star, 1/4 and 5/4; the thin ones are
        # 1e-3 wide relative to lambda, since below about 1e-5 both forms
        # lose digits to the rounding of their endpoints
        lam_star = LAMBDA_STAR_DEFAULT
        cases = [[(0.2, 0.3)], [(lam_star, 0.25)], [(0.24, 1.25)],
                 [(0.25, 2.0)], [(1.0, 1.5)], [(1.25, 1.26)],
                 [(1.3, 40.0)], [(0.1, 9.0), (2.0, 3.0)],
                 [(1.249, 1.251)], [(0.2499, 0.2501)], [(2.0, 2.002)],
                 [(3.0, 2.0)], [(0.0, 0.2)]]
        for intervals in cases:
            got = V_b_lambda_factor(b, intervals).value
            want = _piecewise_V_b(b, intervals)
            assert got == pytest.approx(want, rel=1e-10, abs=0), intervals

    @pytest.mark.parametrize("b, lo, hi", [
        (0.5, 5.0, 5.0 + 1e-6), (2.0, 1.25, 1.2500001),
        (1.0, 1.25, 1.26), (-1.0, 7.0, 7.0 + 1e-9), (-3.0, 1.3, 40.0),
        (2.0, 1e6, 1e6 + 1e-7), (5.0, 1.2, 1.3),
    ])
    def test_error_bounds_thin_intervals(self, b, lo, hi):
        # exact measure of the float endpoints at 40 digits: flat weight for
        # t <= 1, t^b above, with lambda = 1/4 + t^2
        with mpmath.workdps(40):
            t_lo = mpmath.sqrt(mpmath.mpf(lo) - 0.25)
            t_hi = mpmath.sqrt(mpmath.mpf(hi) - 0.25)
            one = mpmath.mpf(1)
            exact = max(min(t_hi, one) - t_lo, 0)
            top = max(t_lo, one)
            if t_hi > top:
                exact += mpmath.quad(lambda t: t ** b, [top, t_hi])
            got = V_b_lambda_factor(b, [(lo, hi)])
            assert abs(got.value - exact) <= got.error

    def test_pl_even_weyl(self):
        # pl_0[0, 100]: continuous part is the tanh integral after the
        # substitution lambda = 1/4 + u^2; the only even discrete point in
        # range is b = 2 at lambda = 0, weight 1
        res = pl_lambda(0, 0.0, 100.0)
        u1 = math.sqrt(100 - 0.25)
        ref = _midpoint(lambda u: math.tanh(math.pi * u) * 2 * u, 0.0, u1)
        assert res.value == pytest.approx(ref + 1.0, rel=1e-6)

    def test_pl_odd_no_endpoint_blowup(self):
        # coth singularity at lambda = 1/4 is integrable after substitution
        res = pl_lambda(1, 0.25, 0.26)
        assert math.isfinite(res.value)
        assert res.value > 0

    def test_pl_discrete_weights(self):
        # only the discrete point at lambda = 1/4 - ((b-1)/2)^2
        lam3 = (3 / 2) * (1 - 3 / 2)  # b = 3
        res = pl_lambda(1, lam3 - 1e-6, lam3 + 1e-6)
        assert res.value == pytest.approx(2.0, abs=1e-6)


class TestMonteCarlo:
    def test_quarter_circle(self):
        res = monte_carlo_measure(
            [(0, 1), (0, 1)],
            lambda x: np.sum(x * x, axis=-1) <= 1.0,
            None, 200000, seed=3)
        assert abs(res.value - math.pi / 4) <= res.error

    def test_weighted(self):
        res = monte_carlo_measure(
            [(0, 1)], lambda x: np.full(x.shape[0], True),
            lambda x: x[:, 0] ** 2, 100000, seed=4)
        assert abs(res.value - 1 / 3) <= res.error

    def test_deterministic(self):
        args = ([(0, 1)], lambda x: x[:, 0] < 0.5, None, 1000, 7)
        assert monte_carlo_measure(*args).value == monte_carlo_measure(*args).value

    @pytest.mark.parametrize("n", [1, 0, -5])
    def test_needs_two_samples(self, n):
        with pytest.raises(ValueError, match="at least 2 samples"):
            monte_carlo_measure([(0, 1)], lambda x: x[:, 0] < 0.5, None, n)

    def test_multiplicity(self):
        one = monte_carlo_measure([(0, 1)], lambda x: x[:, 0] < 0.5,
                                  None, 1000, 7)
        two = monte_carlo_measure([(0, 1)], lambda x: x[:, 0] < 0.5,
                                  None, 1000, 7, multiplicity=2.0)
        assert two.value == pytest.approx(2 * one.value)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_measure([(1, 1)], lambda x: x[:, 0] < 2, None, 10, 0)

    def test_result_fields(self):
        res = monte_carlo_measure([(0, 1)], lambda x: x[:, 0] < 0.5,
                                  None, 1000, 0)
        assert res.method == "monte-carlo"
        assert res.detail == 1000
        assert res.error >= 0

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3)),
                    min_size=1, max_size=3),
           st.integers(2, 300), st.integers(0, 2 ** 32),
           st.sampled_from([1, 7, measures._BLOCK]))
    def test_draw_is_the_uniform_formula(self, boxes, n, seed, block):
        """The samples, over all blocks, are bit for bit the doubles
        rng.uniform(lows, highs, size) gives: lo + (hi - lo) u, u drawn in
        row order.  The blocks are compared as a multiset, since the two
        shares call membership in no fixed order."""
        bbox = [(lo, lo + width) for lo, width in boxes]
        seen = []

        def membership(x):
            seen.append(x.copy())
            return np.ones(len(x), dtype=bool)

        with mock.patch.object(measures, "_BLOCK", block):
            monte_carlo_measure(bbox, membership, None, n, seed)
        lows, highs = (np.array(v) for v in zip(*bbox))
        want = np.random.default_rng(seed).uniform(lows, highs,
                                                   size=(n, len(bbox)))
        assert len(seen) == -(-n // block)
        assert sorted(b.tobytes() for b in seen) == sorted(
            want[i:i + block].tobytes() for i in range(0, n, block))

    @pytest.mark.parametrize("n", [2, 7, 8, 14, 15, 21, 2997])
    def test_split_is_the_sequential_merge(self, n):
        """(value, error) are bit for bit a sequential merge of the blocks
        in row order, whichever share computed each block: one block, an
        odd block count, equal and unequal shares, a last block of one
        row."""
        inst = family("simplex", n=2).instance(4.5)
        bbox, seed, block = inst.bbox, 11, 7
        lows, highs = (np.array(v) for v in zip(*bbox))
        scale = math.prod(hi - lo for lo, hi in bbox) * inst.multiplicity
        with mock.patch.object(measures, "_BLOCK", block):
            res = monte_carlo_measure(bbox, inst.membership, inst.weight, n,
                                      seed, inst.multiplicity)
        x = np.random.default_rng(seed).uniform(lows, highs, size=(n, 2))
        mean = m2 = 0.0
        for seen in range(0, n, block):
            xb = x[seen:seen + block]
            vals = np.where(inst.membership(xb), inst.weight(xb), 0.0) * scale
            k = len(vals)
            m_b = float(vals.sum()) / k
            m2_b = float(np.square(vals - m_b).sum())
            d, share = m_b - mean, k / (seen + k)
            mean += d * share
            m2 += m2_b + seen * share * d * d
        error = 3 * (math.sqrt(m2 / (n - 1)) / math.sqrt(n))
        assert (res.value, res.error) == (mean, error)

    @staticmethod
    def _blocks(n, seed, block=7):
        """The row blocks of the draw of (0, 1)^2, as bytes."""
        x = np.random.default_rng(seed).random((n, 2))
        return [x[i:i + block].tobytes() for i in range(0, n, block)]

    @pytest.mark.parametrize("bad", [1, 3])
    def test_error_in_either_share_is_raised_and_no_thread_is_left(self, bad):
        """Four blocks of 7: the caller's share is blocks 0, 1 and the
        helper thread's blocks 2, 3."""
        target = self._blocks(28, 5)[bad]

        def member(x):
            if x.tobytes() == target:
                raise KeyError("bad block")
            return x[:, 0] < 0.5

        threads = threading.active_count()
        with mock.patch.object(measures, "_BLOCK", 7), \
                pytest.raises(KeyError, match="bad block"):
            monte_carlo_measure([(0, 1), (0, 1)], member, None, 28, 5)
        assert threading.active_count() == threads

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [0, 1, 2, 3])
    def test_non_finite_weight_in_either_share_is_refused(self, bad):
        target = self._blocks(28, 5)[bad]

        def weight(x):
            return np.full(len(x), np.inf if x.tobytes() == target else 1.0)

        with mock.patch.object(measures, "_BLOCK", 7), \
                pytest.raises(ValueError, match="Monte Carlo weight beyond "
                                                "the range of a double"):
            monte_carlo_measure([(0, 1), (0, 1)], lambda x: x[:, 0] < 2,
                                weight, 28, 5)

    @pytest.mark.parametrize("block", [1, 7, measures._BLOCK])
    @pytest.mark.parametrize("case", ["unweighted", "lambda", "nu"])
    def test_value_is_the_single_array_formula(self, block, case):
        """(value, error) is the mean and 3 standard errors of the weighted
        indicator written out over one full draw.  In one block (n <= block)
        it is numpy's vals.mean() and vals.std(ddof=1) bit for bit; merged
        across blocks it is within 1e-13 of the exact moments of the same
        doubles.  n = 7 * 428 + 1 leaves a last block of one row."""
        if case == "unweighted":
            bbox, mult, weight = [(-1.0, 2.0), (0.5, 3.0)], 1.0, None

            def member(x):
                return x[:, 0] ** 2 + x[:, 1] <= 2.5
        else:
            inst = (family("simplex", n=2).instance(4.5) if case == "lambda"
                    else family("sphere", m=[3.0, 5.0], r=1.2).instance())
            bbox, member, weight, mult = (inst.bbox, inst.membership,
                                          inst.weight, inst.multiplicity)
        lows, highs = (np.array(v) for v in zip(*bbox))
        vol = math.prod(hi - lo for lo, hi in bbox)
        seed = 11
        for n in (2, 7 * 428 + 1):
            with mock.patch.object(measures, "_BLOCK", block):
                res = monte_carlo_measure(bbox, member, weight, n, seed, mult)
            x = np.random.default_rng(seed).uniform(lows, highs, size=(n, 2))
            w = 1.0 if weight is None else weight(x)
            vals = np.where(member(x), w, 0.0) * (vol * mult)
            assert res.detail == n
            if n <= block:
                assert (res.value, res.error) == (
                    float(vals.mean()),
                    3 * float(vals.std(ddof=1) / math.sqrt(n)))
                continue
            exact = [Fraction(v) for v in vals.tolist()]
            mean = sum(exact) / n
            var = sum((v - mean) ** 2 for v in exact) / (n - 1)
            error = 3 * math.sqrt(var / n)
            assert abs(Fraction(res.value) - mean) <= 1e-13 * mean
            assert abs(res.error - error) <= 1e-13 * error

    def test_memory_does_not_grow_with_samples(self):
        """The samples are held one block at a time: the traced peak at
        2 x 10^6 samples is under 5 MB (one array of the values would be
        16 MB) and within 1 MB of the peak at 2 x 10^5."""
        inst = family("simplex", n=2).instance(4.5)
        peaks = []
        for n in (2 * 10 ** 5, 2 * 10 ** 6):
            tracemalloc.start()
            try:
                inst.mc_nv1(n, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        small, large = peaks
        assert large <= 5e6
        assert abs(large - small) <= 1e6

    @pytest.mark.parametrize("bbox, mult", [
        ([(1.25, 1e308), (1.25, 1e308)], 1.0),
        ([(0.0, 2e300), (0.0, 2e300)], 1.0),
        ([(0.0, 1e300)], 1e10),
    ])
    def test_overflowing_box_is_refused_before_any_draw(self, bbox, mult):
        def member(x):
            raise AssertionError("no sample may be drawn")

        with pytest.raises(ValueError, match="beyond the range of a double"):
            monte_carlo_measure(bbox, member, None, 100, 0, mult)


class TestDiscreteSeries:
    def test_walk_starts_at_two_plus_parity(self):
        assert list(discrete_series(0, -6.0)) == [(2, 0.0), (4, -2.0),
                                                  (6, -6.0)]
        assert list(discrete_series(1, -6.0)) == [(3, -0.75), (5, -3.75)]
        assert list(discrete_series(0, 0.1)) == []

    @pytest.mark.parametrize("parity", [2, -1, 3])
    def test_parity_outside_zero_one_rejected(self, parity):
        with pytest.raises(ValueError, match="parity"):
            pl_lambda(parity, 0.2, 30.0)
        with pytest.raises(ValueError, match="parity"):
            PlaceFactor(parity=parity, im=((1.0, 2.0),))
