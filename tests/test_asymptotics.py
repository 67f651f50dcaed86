import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import asymptotics
from specsum.asymptotics import (
    AnalysisParams,
    ErrorBudget,
    MAX_SYNTH_POINTS,
    PreAsymptoticError,
    SyntheticSpectrum,
    choose_U,
    choose_eps,
    count,
    error_budget,
    family_asymptotic_table,
    field_prefactor,
    hypercube_budget_sweep,
    main_term,
    synth_spectrum,
)
from specsum.measures import plancherel_density
from specsum.numberfield import make_field
from specsum.regions import (
    PlaceFactor,
    ProductRegion,
    discrete_singleton,
    family,
    imaginary_box,
    shell_growth_constant,
)

F5 = make_field(5)
FQ = make_field(1)
F2 = make_field(2)


class TestAnalysisParams:
    def test_defaults(self):
        p = AnalysisParams()
        assert p.tau == 0.3
        assert p.t0 == pytest.approx(0.5 * 0.09 * 1.01)
        assert p.rho == pytest.approx(0.75 + 0.25 * 0.01)
        assert p.A == pytest.approx(2.98)
        assert 1 - p.tau < p.rho < 1

    @pytest.mark.parametrize("kw", [
        {"tau": 0.2}, {"tau": 0.5}, {"tau": 0.25}, {"delta": 0.0},
        {"t0": -1.0}, {"rho": 0.5}, {"rho": 1.0}, {"A": 2.0},
    ])
    def test_rejections(self, kw):
        with pytest.raises(ValueError):
            AnalysisParams(**kw)


class TestParameterChoice:
    def test_reference_values(self):
        m = math.exp(-100)
        U = choose_U(m, 0.5, 1)
        eps = choose_eps(m, U)
        assert U == pytest.approx(195.39483, abs=1e-4)
        assert eps == pytest.approx(0.108553, abs=1e-5)

    def test_exact_identity(self):
        for m in (math.exp(-10), math.exp(-100), 1e-200):
            U = choose_U(m, 0.5, 2)
            eps = choose_eps(m, U)
            assert U * eps * eps == pytest.approx(
                0.5 * math.log(abs(math.log(m))), abs=1e-12)

    def test_monotonicity(self):
        ms = [math.exp(-20), math.exp(-100), math.exp(-500)]
        Us = [choose_U(m, 0.5, 1) for m in ms]
        epss = [choose_eps(m, U) for m, U in zip(ms, Us)]
        products = [U * e * e for U, e in zip(Us, epss)]
        assert Us == sorted(Us)
        assert epss == sorted(epss, reverse=True)
        assert products == sorted(products)

    def test_pre_asymptotic_threshold_reported(self):
        with pytest.raises(PreAsymptoticError, match="1/e threshold"):
            choose_U(0.9, 0.5, 1)
        # a U below the floor D e^2 is error_budget's to reject
        U = choose_U(math.exp(-2), 0.5, 1)
        with pytest.raises(ValueError, match="admissibility violated: U"):
            error_budget(imaginary_box([(50, 60)]), None, AnalysisParams(),
                         U, 0.2, FQ)


class TestErrorBudget:
    def test_q_plus_empty_singleton(self):
        p = AnalysisParams()
        Cm = discrete_singleton([2.5, 4.5], parities=[0, 0])
        b = error_budget(None, Cm, p, 100.0, 0.2, F5)
        assert b.kloosterman_piece == pytest.approx((2.5 * 4.5) ** (-p.A))
        assert b.smoothing_piece == 0.0
        # main term matches the exact discrete identity
        assert b.main_term == pytest.approx(
            2 * math.sqrt(5) / math.pi ** 2 * 2.5 * 4.5, rel=1e-12)
        assert b.ratio < 1e-3

    def test_eps_lower_bound_identity(self):
        # e^{-U eps^2} at eps = sqrt(D/U) equals 1/R exactly
        p = AnalysisParams()
        C = imaginary_box([(50, 60)])
        R, D = shell_growth_constant(1)
        U = 30 * D
        eps = math.sqrt(D / U)
        b = error_budget(C, None, p, U, eps, FQ)
        nv1 = ((60 ** 2 - 50 ** 2) / 2)
        assert b.smoothing_piece == pytest.approx(nv1 / R, rel=1e-10)

    def test_admissibility_named(self):
        p = AnalysisParams()
        C = imaginary_box([(50, 60)])
        with pytest.raises(ValueError, match="U"):
            error_budget(C, None, p, 1.0, 0.2, FQ)
        with pytest.raises(ValueError, match="eps"):
            error_budget(C, None, p, 100.0, 0.5, FQ)

    def test_hypercube_sweep_pieces_small_and_decreasing(self):
        budgets = hypercube_budget_sweep(
            F5, [10 ** (8.5 + k) for k in range(5)])
        ratios = np.array([[pc / b.main_term for pc in b.pieces]
                           for b in budgets])
        assert np.all(ratios[-1] < 0.1)
        assert np.all(np.diff(ratios, axis=0) < 0)

    def test_side_lost_to_rounding_refused(self):
        # in doubles 1e17 + 40 is 1e17 + 32, and 1e18 + 40 is 1e18
        for t in (1e17, 1e18):
            with pytest.raises(ValueError, match="too large for side 40"):
                hypercube_budget_sweep(FQ, [3e12, t])
        # the README grid's largest t keeps its side to 1.3e-5
        assert hypercube_budget_sweep(FQ, [3e12])[0].main_term > 0

    def test_budget_fields(self):
        b = hypercube_budget_sweep(F5, [1e9])[0]
        assert isinstance(b, ErrorBudget)
        assert b.total_error == pytest.approx(sum(b.pieces))
        assert b.U > 0 and 0 < b.eps < 1


@pytest.fixture(scope="module")
def setup():
    fam = family("hypercube", a=[lambda t: t, lambda t: t], sigma=0.3)
    reg = fam.instance(500.0).product
    spec = synth_spectrum(F5, reg, seed=7)
    return reg, spec


class TestMainTerm:
    def test_empty(self):
        assert main_term(None, F5) == 0.0

    def test_prefactor(self):
        assert field_prefactor(F5) == pytest.approx(
            2 * math.sqrt(5) / (2 * math.pi) ** 2)
        assert field_prefactor(FQ) == pytest.approx(1 / math.pi)

    def test_holo_identity_exact(self):
        row = family_asymptotic_table("holo", F5, [1, 2, 3],
                                      points=[2.0, 3.5])
        assert row["rel_deviation"] < 1e-12

    def test_weyl1_fit(self):
        row = family_asymptotic_table("weyl1", F5,
                                      np.geomspace(100, 1000, 5))
        assert row["exponent"] == pytest.approx(2.0, abs=0.05)
        assert row["rel_deviation"] < 0.03

    def test_unknown_row(self):
        with pytest.raises(ValueError):
            family_asymptotic_table("torus", F5, [1, 2, 3])

    def test_one_place_field(self):
        # over Q the holo point has one coordinate, and the two-place rows
        # are rejected rather than fitted against a one-place target
        row = family_asymptotic_table("holo", FQ, [1, 2, 3], points=[2.0])
        assert row["rel_deviation"] < 1e-12
        with pytest.raises(ValueError, match="one point per place"):
            family_asymptotic_table("holo", FQ, [1, 2, 3], points=[2.0, 3.5])
        for name in ("slant", "sphere", "sector", "rectquad"):
            with pytest.raises(ValueError, match="needs a quadratic field"):
                family_asymptotic_table(name, FQ, [1, 2, 3])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            family_asymptotic_table("weyl1", F5, [10, 100])


class TestSynthetic:
    def test_count_close_to_main_term(self, setup):
        reg, spec = setup
        mt = main_term(reg, F5)
        assert mt == pytest.approx(1e4, rel=0.1)
        assert 0.9 <= count(spec, region=reg) / mt <= 1.1

    def test_exact_additivity(self, setup):
        reg, spec = setup
        left = imaginary_box([(500, 500.15), (500, 500.3)])
        right = imaginary_box([(500.15, 500.3), (500, 500.3)])
        assert count(spec, region=left) + count(spec, region=right) == \
            count(spec, region=reg)

    def test_exact_monotonicity(self, setup):
        reg, spec = setup
        sub = imaginary_box([(500.1, 500.2), (500, 500.25)])
        assert count(spec, region=sub) <= count(spec, region=reg)

    def test_deterministic(self, setup):
        reg, _ = setup
        a = synth_spectrum(F5, reg, seed=3)
        b = synth_spectrum(F5, reg, seed=3)
        assert a.points == b.points and a.weights == b.weights

    def test_points_kept_as_one_array(self, setup):
        # the tuples are built only when asked for, and give back the array
        _, spec = setup
        assert spec.coords.shape == (len(spec), 2)
        assert spec.points == tuple(map(tuple, spec.coords.tolist()))
        assert SyntheticSpectrum(spec.points, spec.weights, spec.parities) \
            == spec
        empty = SyntheticSpectrum((), (), (0, 0))
        assert len(empty) == 0 and empty.points == () and empty != spec

    def test_empty_spectrum_counts_zero(self, setup):
        reg, spec = setup
        off = imaginary_box([(10, 11), (10, 11)])
        assert count(spec, region=off) == 0.0

    def test_lognormal_weights_mean_one(self):
        reg = imaginary_box([(100, 101)])
        spec = synth_spectrum(FQ, reg, seed=1, weight_law="lognormal")
        assert np.mean(spec.weights) == pytest.approx(1.0, abs=0.2)

    def test_rejects_unsupported_regions(self):
        with pytest.raises(ValueError):
            synth_spectrum(F5, discrete_singleton([2.0, 3.0],
                                                  parities=[1, 1]), seed=0)


def _scalar_synth_spectrum(F, region, seed, weight_law):
    """The sampler as a scalar loop: two rng.uniform calls per trial."""
    intervals = [f.im[0] for f in region.factors]
    parities = [f.parity for f in region.factors]
    rng = np.random.default_rng(seed)
    n = rng.poisson(main_term(region, F))
    pts = []
    for _ in range(n):
        coord = []
        for (a, b), par in zip(intervals, parities):
            dmax = max(plancherel_density(par, a), plancherel_density(par, b))
            while True:
                y = rng.uniform(a, b)
                if rng.uniform(0, dmax) <= plancherel_density(par, y):
                    coord.append(y)
                    break
        pts.append(tuple(coord))
    if weight_law == "unit":
        weights = tuple(1.0 for _ in range(n))
    else:
        weights = tuple(rng.lognormal(mean=-0.125, sigma=0.5, size=n))
    return SyntheticSpectrum(tuple(pts), weights, tuple(parities))


def _scalar_count(spectrum, region):
    """count(region=...) as a loop over points and intervals."""
    total = 0.0
    for pt, w in zip(spectrum.points, spectrum.weights):
        if all(any(lo - 1e-12 <= y <= hi + 1e-12 for lo, hi in f.im)
               for y, f in zip(pt, region.factors)):
            total += w
    return total


class TestBlockSampler:
    """The block-drawn sampler and the vectorized count reproduce the scalar
    loops bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           F=st.sampled_from([FQ, F2, F5]),
           a=st.floats(0.0, 60.0),
           sigma=st.floats(0.01, 1.0),
           parity=st.integers(0, 1),
           weight_law=st.sampled_from(["unit", "lognormal"]),
           block=st.sampled_from([1, 7, 1 << 16]))
    def test_matches_scalar_loop(self, seed, F, a, sigma, parity, weight_law,
                                 block):
        reg = imaginary_box([(a, a + sigma)] * F.d, [parity] * F.d)
        with mock.patch.object(asymptotics, "_BLOCK", block):
            got = synth_spectrum(F, reg, seed=seed, weight_law=weight_law)
        want = _scalar_synth_spectrum(F, reg, seed, weight_law)
        assert got == want

    def test_places_with_different_intervals(self):
        reg = imaginary_box([(0.0, 3.0), (40.0, 40.5)], [1, 0])
        for law in ("unit", "lognormal"):
            assert synth_spectrum(F2, reg, seed=5, weight_law=law) == \
                _scalar_synth_spectrum(F2, reg, 5, law)

    @pytest.mark.parametrize("block", [1, 7])
    def test_places_with_different_intervals_across_blocks(self, block):
        # blocks of 1 and 7 trials start mid-point, and after a rejection
        # has shifted the places
        reg = imaginary_box([(0.0, 3.0), (40.0, 40.5)], [1, 0])
        with mock.patch.object(asymptotics, "_BLOCK", block):
            got = synth_spectrum(F2, reg, seed=5)
        assert got == _scalar_synth_spectrum(F2, reg, 5, "unit")

    def test_count_matches_scalar_loop(self):
        reg = imaginary_box([(60.0, 61.0), (60.0, 61.0)])
        spec = synth_spectrum(F5, reg, seed=2, weight_law="lognormal")
        assert len(spec) > 100
        gaps = PlaceFactor(im=((60.0, 60.2), (60.5, 60.6), (60.9, 61.0)))
        sub = imaginary_box([(60.25, 60.75), (60.1, 60.9)])
        regions = [
            reg, sub,
            ProductRegion((gaps, reg.factors[1])),
            ProductRegion((gaps, gaps)),
            ProductRegion((gaps,)),  # zip stops at the shorter side
            imaginary_box([(10.0, 11.0), (60.0, 61.0)]),
            # endpoints at a sampled coordinate, inside the 1e-12 slack
            imaginary_box([(spec.points[0][0] + 5e-13, 61.0),
                           (60.0, spec.points[0][1] - 5e-13)]),
        ]
        for r in regions:
            assert count(spec, region=r) == _scalar_count(spec, r)

    def test_squeeze_spares_density_calls(self):
        """Far from 0 the squeeze settles nearly every trial: the density is
        evaluated for under 1% of them (there are at least n d trials)."""
        reg = family("hypercube", a=[lambda t: t] * 2,
                     sigma=0.3).instance(1019.7).product
        with mock.patch.object(asymptotics, "plancherel_density",
                               wraps=plancherel_density) as density:
            spec = synth_spectrum(F5, reg, seed=7)
        assert len(spec) > 40000
        assert density.call_count <= 0.01 * 2 * len(spec)

    def test_oversized_region_rejected_before_sampling(self):
        reg = imaginary_box([(1e5, 1e5 + 0.3)] * 2)
        assert main_term(reg, F5) > MAX_SYNTH_POINTS
        with mock.patch.object(asymptotics, "_doubles") as draw:
            with pytest.raises(ValueError, match="above 1000000"):
                synth_spectrum(F5, reg, seed=0)
        draw.assert_not_called()
