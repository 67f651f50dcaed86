import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest

import specsum.cli
from specsum.asymptotics import FAMILY_GRIDS
from specsum.cli import (
    build_parser,
    dispatch,
    parse_element,
    parse_field,
    parse_grid,
    parse_phi,
    parse_region,
)
from specsum.kloosterman import kloosterman_sum, trivial_character
from specsum.numberfield import IdealLattice, _residue_ring_cached


def run(capsys, *argv):
    rc = dispatch(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def assert_rejected(rc, out, err):
    """Exit 2 with nothing on stdout, and no Python internals on stderr."""
    assert (rc, out) == (2, "")
    for leak in ("NoneType", "object has no attribute", "Fraction("):
        assert leak not in err


def run_json(capsys, *argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    return json.loads(out)


class TestParsers:
    def test_field_specs(self):
        assert parse_field("Q").d == 1
        assert parse_field("5").discriminant == 5
        assert parse_field("Q(sqrt2)").discriminant == 8

    def test_region_roundtrip(self):
        r = parse_region("i[1,2]:1xd[2.5]xr[0,1/9]")
        assert r.factors[0].parity == 1
        assert r.factors[0].im == ((1.0, 2.0),)
        assert r.factors[1].disc == (2.5,)
        assert r.factors[2].re == ((0.0, 1 / 9),)

    def test_region_rejects_garbage(self):
        for bad in ("z[1,2]", "i[1]", "i[1,2,3]", "d[1,2]", "i(1,2)"):
            with pytest.raises(ValueError):
                parse_region(bad)

    def test_grid(self):
        g = parse_grid("1:100:3")
        assert g == pytest.approx([1.0, 10.0, 100.0])
        with pytest.raises(ValueError):
            parse_grid("1:100:1")

    def test_phi_specs(self):
        g = parse_phi("gaussian:q=10i,U=25")
        p = parse_phi("phi_p:p=1,a=3")
        assert callable(g) and callable(p)
        with pytest.raises(ValueError):
            parse_phi("mystery:x=1")


class TestExamples:
    def test_simplex_volume(self, capsys):
        out = run_json(capsys, "region-volume", "--family", "simplex",
                       "--n", "2", "--Y", "4.5", "--method", "closed")
        assert out["value"] == 0.5
        assert out["method"] == "closed-form"

    def test_kloosterman_c3(self, capsys):
        out = run_json(capsys, "kloosterman", "--field", "Q", "--c", "3",
                       "--r", "1", "--rp", "1", "--chi", "trivial")
        assert out["value"][0] == pytest.approx(-1.0, abs=1e-10)
        assert abs(out["value"][1]) < 1e-10
        assert out["trivial_bound"] == 3.0

    @pytest.mark.parametrize("field,c", [("Q", "12"), ("Q(sqrt2)", "9,1"),
                                         ("Q(sqrt5)", "10,1")])
    def test_kloosterman_matches_library(self, capsys, field, c):
        out = run_json(capsys, "kloosterman", "--field", field, f"--c={c}",
                       "--r=1")
        F = parse_field(field)
        S = kloosterman_sum(F, None, F.one(), F.one(), parse_element(F, c))
        assert out["value"] == [S.real, S.imag]

    # levels strictly larger than (c): over Q(sqrt2), c = 3 + 6w = 3(1 + 2w)
    # has norm -63 and lies in the level (3)
    @pytest.mark.parametrize("field,c,level", [("Q", "12", "4"),
                                               ("Q(sqrt2)", "3,6", "3")])
    def test_kloosterman_level_larger_than_c(self, capsys, field, c, level):
        out = run_json(capsys, "kloosterman", "--field", field, f"--c={c}",
                       "--r=1", f"--level={level}")
        F = parse_field(field)
        I = IdealLattice.principal(parse_element(F, level))
        assert I.norm_index() < abs(parse_element(F, c).norm())
        chi = trivial_character(F, I)
        S = kloosterman_sum(F, chi, F.one(), F.one(), parse_element(F, c))
        assert out["value"] == [S.real, S.imag]

    def test_measure_nv(self, capsys):
        out = run_json(capsys, "measure", "--kind", "nv", "--b", "1",
                       "--region", "i[1,2]")
        assert out["value"] == pytest.approx(1.5)

    def test_measure_npl(self, capsys):
        # 2 int_1^2 t coth(pi t) dt at parity 1, times 2 * 1.5 at d[1.5]
        out = run_json(capsys, "measure", "--kind", "npl",
                       "--region", "i[1,2]:1xd[1.5]")
        cont = 2 * mpmath.quad(lambda t: t * mpmath.coth(mpmath.pi * t), [1, 2])
        assert out["value"] == pytest.approx(float(cont) * 3.0, rel=1e-12)
        assert out["method"] == "closed-form"

    def test_bessel_both_formulas_agree(self, capsys):
        out = run_json(capsys, "bessel", "--phi", "gaussian:q=10i,U=25",
                       "--parity", "0", "--eta", "1", "--t", "0.5",
                       "--formula", "both")
        ax, co = out["axis"], out["contour"]
        assert abs(ax["value"][0] - co["value"][0]) <= \
            ax["error"] + co["error"]
        assert ax["value"][1] == pytest.approx(0.0, abs=1e-10)

    def test_bessel_j_evaluation(self, capsys):
        out = run_json(capsys, "bessel", "--order", "1", "--x", "1.0")
        assert out["value"][0] == pytest.approx(0.4400505857449335)

    def test_ksum_runs(self, capsys):
        out = run_json(capsys, "ksum", "--field", "Q", "--level", "4",
                       "--r", "1", "--box", "20")
        assert out["terms"] > 0
        assert out["error"] > 0

    def test_ksum_weight_at_a_large_t_does_not_overflow(self, capsys):
        # c = w^7 has |sigma_2(c)| = 0.034, so t_2 = 365 and t_2^{2 tau}
        # is beyond a double at tau = 70, though the tail is not: the
        # weight takes min(|t|, 1) before the power and answers
        out = run_json(capsys, "ksum", "--field", "Q(sqrt5)", "--level", "1",
                       "--r", "1", "--tau", "70", "--box", "30")
        assert out["terms"] == 1610 and 0 < out["error"] < 1e-50

    def test_budget_rows(self, capsys):
        out = run_json(capsys, "budget", "--t-grid", "3e8:3e9:2")
        rows = out["rows"]
        assert len(rows) == 2
        for row in rows:
            assert set(row["pieces"]) == {"kloosterman", "smoothing",
                                          "boundary", "plancherel"}
            assert all(p / row["value"] < 0.1
                       for p in row["pieces"].values())

    def test_families_csv(self, capsys):
        rc, out, _ = run(capsys, "families", "--report", "csv",
                         "--rows", "holo,sphere")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("family,")
        assert len(lines) == 3
        assert float(lines[2].split(",")[-1]) < 0.03  # sphere deviation

    def test_families_json(self, capsys):
        out = run_json(capsys, "families", "--rows", "weyl1")
        row = out["rows"][0]
        assert row["family"] == "weyl1"
        assert row["rel_deviation"] < 0.03

    def test_families_over_q_has_one_place_rows(self, capsys):
        out = run_json(capsys, "families", "--field", "Q")
        assert [r["family"] for r in out["rows"]] == ["weyl1", "weyl2", "holo"]
        for row in out["rows"]:
            assert row["rel_deviation"] < 0.05, row["family"]

    @pytest.mark.parametrize("row", ["slant", "sphere", "sector", "rectquad"])
    def test_families_two_place_row_over_q_rejected(self, capsys, row):
        rc, out, err = run(capsys, "families", "--field", "Q", "--rows", row)
        assert_rejected(rc, out, err)
        assert "needs a quadratic field" in err

    def test_families_quadratic_field_keeps_every_row(self, capsys):
        out = run_json(capsys, "families", "--field", "Q(sqrt2)")
        assert [r["family"] for r in out["rows"]] == \
            list(FAMILY_GRIDS)

    def test_synth_count(self, capsys):
        out = run_json(capsys, "synth-count", "--a", "200", "--seed", "3")
        assert 0.9 <= out["ratio"] <= 1.1

    def test_synth_count_empty_spectrum(self, capsys):
        out = run_json(capsys, "synth-count", "--a", "2", "--seed", "1")
        assert out["points"] == 0 and out["value"] == 0.0

    def test_check_suites_pass(self, capsys):
        for suite in ("kloosterman-small", "identities", "all"):
            out = run_json(capsys, "check", suite)
            assert out["pass"] is True


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        a = run(capsys, "synth-count", "--seed", "11")
        b = run(capsys, "synth-count", "--seed", "11")
        assert a == b

    def test_mc_seed_controls_output(self, capsys):
        args = ("region-volume", "--family", "sphere", "--m", "10,20",
                "--r", "2", "--method", "mc", "--samples", "5000")
        a = run(capsys, *args, "--seed", "1")
        b = run(capsys, *args, "--seed", "1")
        c = run(capsys, *args, "--seed", "2")
        assert a == b
        assert a != c


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        rc, _, err = run(capsys, "frobnicate")
        assert rc == 2
        assert "usage" in err

    def test_bad_region_spec(self, capsys):
        rc, _, err = run(capsys, "measure", "--kind", "nv",
                         "--region", "z[1,2]")
        assert rc == 2
        assert "rejected" in err

    def test_unknown_check_suite(self, capsys):
        rc, _, _ = run(capsys, "check", "nonsense")
        assert rc == 2

    def test_nontrivial_character_rejected(self, capsys):
        rc, _, _ = run(capsys, "kloosterman", "--c", "3", "--r", "1",
                       "--chi", "legendre")
        assert rc == 2

    def test_precision_failure_is_exit_one(self, capsys):
        rc, _, err = run(capsys, "bessel", "--order", "0", "--x", "200")
        assert rc == 1
        assert "precision" in err

    def test_modulus_norm_above_limit(self, capsys):
        # rejected before any residue ring is built (or a unit tabulated)
        before = _residue_ring_cached.cache_info().misses
        rc, out, err = run(capsys, "kloosterman", "--field", "Q",
                           "--c", "100000000", "--r", "1")
        assert (rc, out) == (2, "")
        assert "too large" in err
        assert _residue_ring_cached.cache_info().misses == before

    def test_quadratic_modulus_norm_above_limit(self, capsys):
        # N(1001 + sqrt2) = 1001^2 - 2 = 1001999: refused from the integer
        # HNF, before any residue ring is built
        before = _residue_ring_cached.cache_info().misses
        rc, out, err = run(capsys, "kloosterman", "--field", "Q(sqrt2)",
                           "--c=1001,1", "--r", "1")
        assert_rejected(rc, out, err)
        assert "too large" in err
        assert _residue_ring_cached.cache_info().misses == before

    @pytest.mark.parametrize("field, c", [("Q", "1/2"), ("Q(sqrt2)", "3/2,1")])
    def test_non_integral_modulus(self, capsys, field, c):
        before = _residue_ring_cached.cache_info().misses
        rc, out, err = run(capsys, "kloosterman", "--field", field, f"--c={c}",
                           "--r", "1")
        assert_rejected(rc, out, err)
        assert "modulus must be integral" in err
        assert _residue_ring_cached.cache_info().misses == before

    def test_unknown_family_row(self, capsys):
        rc, _, _ = run(capsys, "families", "--rows", "torus")
        assert rc == 2


class TestBadInput:
    def test_phi_rejects_unknown_keys(self):
        for spec in ("gaussian:q=5i,UU=3", "phi_p:P=2", "gaussian:p=2",
                     "phi_p:q=3i"):
            with pytest.raises(ValueError, match="unknown key"):
                parse_phi(spec)
        assert parse_phi("gaussian:q=5i,U=9,tau=0.35,a=4").params == \
            {"q": 5.0, "U": 9.0}
        assert parse_phi("phi_p:p=2,a=4,tau=0.35").params == {"p": 2.0}

    @pytest.mark.parametrize("argv, message", [
        (["bessel", "--phi", "gaussian:q=10i,U=25", "--parity", "2",
          "--eta", "1", "--t", "0.5", "--formula", "contour"], "parity"),
        (["bessel", "--phi", "gaussian:q=10i,U=25", "--parity", "1",
          "--eta", "5", "--t", "0.5", "--formula", "both"], "eta"),
        (["measure", "--kind", "pl", "--parity", "2", "--lo", "0.2",
          "--hi", "30"], "parity"),
        (["measure", "--kind", "npl", "--region", "i[1,2]:2"], "parity"),
        (["measure", "--kind", "npl", "--region", "i[1,2]:-1"], "parity"),
        (["bessel", "--phi", "gaussian:q=5i,UU=3", "--t", "0.5"], "UU"),
        (["bessel", "--phi", "phi_p:P=2", "--t", "0.5"], "P"),
        (["region-volume", "--family", "box", "--a-list", "1,2",
          "--b-list", "3,4", "--method", "quadrature"],
         "family box has no --method quadrature"),
        (["region-volume", "--family", "hypercube", "--a-list", "1,2",
          "--sigma", "1", "--method", "quadrature"],
         "family hypercube has no --method quadrature"),
        (["region-volume", "--family", "singleton", "--points", "1.5",
          "--parities", "0", "--method", "quadrature"],
         "family singleton has no --method quadrature"),
        (["region-volume", "--family", "sector", "--p", "1", "--q", "2",
          "--alpha", "0.5", "--t", "100", "--method", "quadrature"],
         "family sector has no --method quadrature"),
        (["region-volume", "--family", "simplex", "--n", "2", "--Y", "4.5",
          "--method", "quadrature"],
         "family simplex has no --method quadrature"),
        (["kloosterman", "--c", "1/0", "--r", "1"],
         "zero denominator in '1/0'"),
        (["kloosterman", "--c", "3", "--r", "1", "--rp", "2/0"],
         "zero denominator in '2/0'"),
        (["ksum", "--level", "1/0"], "zero denominator"),
        (["measure", "--kind", "nv", "--region", "i[1,1/0]"],
         "zero denominator"),
        (["ksum", "--tau", "0.25"], "tau must exceed 1/4"),
        (["ksum", "--tau", "0.2", "--box", "10"], "tau must exceed 1/4"),
        (["ksum", "--K", "-1", "--box", "10"], "unrecognized arguments: --K"),
        (["region-volume", "--family", "simplex", "--n", "2", "--Y", "4.5",
          "--method", "mc", "--samples", "0"], "at least 2 samples"),
        (["region-volume", "--family", "simplex", "--n", "2", "--Y", "4.5",
          "--method", "mc", "--samples", "-5"], "at least 2 samples"),
        (["region-volume", "--family", "box", "--a-list", "1,2",
          "--b-list", "3"], "one a_j, b_j and parity per place"),
        (["region-volume", "--family", "singleton", "--points", "1.5,2",
          "--parities", "0"], "one parity per point"),
        (["region-volume", "--family", "singleton", "--points", "1.5",
          "--parities", "2"], "parity must be 0 or 1"),
        (["region-volume", "--family", "sector", "--p", "1", "--q", "2",
          "--alpha", "0.5", "--t", "1"], "t too small for the sector family"),
        (["region-volume", "--family", "slanted-strip", "--a", "1", "--b",
          "0", "--c", "1", "--t", "0.1", "--method", "closed"],
         "strip must lie in"),
        (["region-volume", "--family", "slanted-strip", "--a", "1", "--b",
          "0", "--c", "1", "--t", "0.1", "--method", "quadrature"],
         "strip must lie in"),
        (["synth-count", "--a", "1e5"], "points, above 1000000"),
        (["region-volume", "--family", "singleton", "--points", "2.5",
          "--parities", "0", "--method", "mc"], "no membership predicate"),
        (["kloosterman", "--field", "Q(sqrt5)", "--c", "1,2,3", "--r", "1"],
         "wrong arity for Q(sqrt 5)"),
        (["measure", "--kind", "npl", "--region", "i[2,1]"],
         "needs 0 <= a <= b"),
        (["measure", "--kind", "npl", "--region", "i[-1,2]:1"],
         "needs 0 <= a <= b"),
        (["measure", "--kind", "nv", "--region", "i[2,1]"],
         "interval [2.0, 1.0] needs 0 <= a <= b"),
        (["measure", "--kind", "nv", "--region", "i[-1,2]"],
         "interval [-1.0, 2.0] needs 0 <= a <= b"),
        (["measure", "--kind", "nv", "--region", "r[0.5,0.3]"],
         "complementary interval [0.5, 0.3] needs 0 <= a <= b <= nu_theta"),
        (["measure", "--kind", "npl", "--region", "r[-1,0.05]"],
         "complementary interval [-1.0, 0.05] needs 0 <= a <= b <= nu_theta"),
        (["measure", "--kind", "nv", "--region", "r[0.05,5]"],
         "complementary interval [0.05, 5.0] needs 0 <= a <= b <= nu_theta"),
        (["measure", "--kind", "npl", "--region", "d[1]"],
         "point 1.0 not admissible for parity 0"),
        (["measure", "--kind", "nv", "--region", "d[1.7]"],
         "point 1.7 not admissible for parity 0"),
        (["measure", "--kind", "npl", "--region", "i[0,1e200]"],
         "result beyond the range of a double"),
        (["region-volume", "--family", "simplex", "--n", "2", "--Y", "1e200",
          "--method", "closed"], "result beyond the range of a double"),
        (["region-volume", "--family", "sphere", "--m", "1e200,1e200", "--r",
          "1e199", "--method", "closed"], "result beyond the range of a double"),
        (["bessel", "--phi", "phi_p:p=0.30000001", "--parity", "0", "--eta",
          "1", "--t", "1", "--formula", "contour"], "more than 32768"),
        (["bessel", "--phi", "gaussian:q=70i,U=25", "--parity", "0", "--eta",
          "1", "--t", "0.5", "--formula", "both"], "too near the order window"),
        (["budget", "--field", "Q", "--t-grid", "1e17:1e18:2"],
         "too large for side 40"),
        (["region-volume", "--family", "hypercube", "--a-list", "1e17",
          "--sigma", "40", "--method", "closed"], "too large for side 40"),
        (["region-volume", "--family", "hypercube", "--a-list", "1e18",
          "--sigma", "40", "--method", "closed"], "too large for side 40"),
        (["bessel", "--order=-300.5", "--x", "1"],
         "beyond the range of a double"),
        (["synth-count", "--family", "box"],
         "unrecognized arguments: --family box"),
        (["bessel", "--phi", "gaussian:q=20i,U=9000", "--parity", "0",
          "--eta", "1", "--t", "0.5", "--formula", "contour"],
         "on the line Re nu = 0.3 beyond the range of a double"),
        (["bessel", "--order=-170.5", "--x", "1.9204487796839393"],
         "J or its error beyond the range of a double"),
        (["bessel", "--phi", "gaussian:q=20i,U=7830", "--parity", "1",
          "--eta", "1", "--t", "0.5", "--formula", "contour"],
         "cos(pi(nu - parity/2)) on the line Re nu = 0.3 beyond the range "
         "of a double"),
        (["kloosterman", "--c", "10000000/3", "--r", "1"],
         "modulus norm 10000000/3 is above 1000000"),
        (["region-volume", "--family", "simplex", "--n", "2", "--Y", "1e308",
          "--method", "mc", "--samples", "100"],
         "Monte Carlo box volume beyond the range of a double"),
        (["region-volume", "--family", "sphere", "--m", "1e300,1e300", "--r",
          "1e300", "--method", "mc", "--samples", "100"],
         "Monte Carlo box volume beyond the range of a double"),
        (["ksum", "--field", "Q", "--level", "1", "--r", "1", "--tau", "400",
          "--box", "20"], "tail estimate at tau=400.0 beyond the range"),
        (["ksum", "--field", "Q", "--level", "1", "--r", "1", "--tau", "inf"],
         "tau must be finite, got inf"),
        (["ksum", "--field", "Q", "--level", "1", "--r", "1", "--tau", "nan"],
         "tau must be finite, got nan"),
        (["ksum", "--field", "Q", "--level", "1", "--r", "1", "--box", "inf"],
         "box must be finite, got inf"),
        (["ksum", "--field", "Q", "--level", "1", "--r", "1", "--box", "nan"],
         "box must be finite, got nan"),
        (["region-volume", "--family", "sphere", "--m", "1e160,1e160", "--r",
          "1e150", "--method", "mc", "--samples", "100"],
         "Monte Carlo weight beyond the range of a double"),
        (["budget", "--field", "Q", "--t-grid", "1:2"],
         "grid '1:2' is not lo:hi:n"),
        (["budget", "--field", "Q", "--t-grid", "1:2:1e9"],
         "grid '1:2:1e9' is not lo:hi:n"),
        (["ksum", "--field", "Q", "--level", "1", "--r", "1", "--box",
          "1e300", "--tau", "0.3"], "is above 1000000, too large to tabulate"),
        (["ksum", "--field", "Q(sqrt5)", "--level", "1", "--r", "1", "--box",
          "1e6", "--tau", "0.3"], "is above 1000000, too large to tabulate"),
        (["budget", "--field", "Q", "--t-grid", "1:2:1000000000"],
         "grid of 1000000000 points, above 10000"),
    ])
    def test_out_of_range_input_is_exit_two(self, capsys, argv, message):
        rc, out, err = run(capsys, *argv)
        assert_rejected(rc, out, err)
        assert message in err

    def test_gaussian_contour_overflow_is_refused_before_any_work(
            self, capsys):
        # e^{U tau^2} = e^810 on the contour: one message, and no numpy
        # overflow warning, as none of the transform is computed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "bessel", "--phi",
                               "gaussian:q=20i,U=9000", "--parity", "0",
                               "--eta", "1", "--t", "0.5", "--formula",
                               "contour")
        assert_rejected(rc, out, err)
        assert err.count("\n") == 1 and "U tau^2" in err

    @pytest.mark.parametrize("argv", [
        ["--family", "simplex", "--n", "2", "--Y", "1e308"],
        ["--family", "sphere", "--m", "1e300,1e300", "--r", "1e300"],
    ])
    def test_monte_carlo_box_overflow_is_refused_before_any_draw(
            self, capsys, argv):
        # the box volume is inf: one message, and no numpy overflow or
        # invalid-value warning, as no sample is drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "region-volume", *argv, "--method",
                               "mc", "--samples", "100")
        assert_rejected(rc, out, err)
        assert err.count("\n") == 1 and "Monte Carlo box volume" in err

    @pytest.mark.parametrize("argv, message", [
        # the weight overflows: an inf or nan block mean
        (["--m", "1e160,1e160", "--r", "1e150"], "Monte Carlo weight"),
        # the weights are doubles, their centred squares are not
        (["--m", "1e70,1e70", "--r", "1e69"], "range of a double"),
    ])
    def test_monte_carlo_weight_overflow_is_one_message(self, capsys, argv,
                                                         message):
        # one message, and no numpy overflow or invalid-value warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "region-volume", "--family", "sphere",
                               *argv, "--method", "mc", "--samples", "100")
        assert_rejected(rc, out, err)
        assert err.count("\n") == 1 and message in err

    def test_contour_weight_overflow_is_one_message(self, capsys):
        # U tau^2 + log sqrt(U/pi) = 708.6 passes _window's check, but
        # phi(nu) nu overflows before the division by cos: one message, and
        # no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run(capsys, "bessel", "--phi",
                               "gaussian:q=20i,U=7830", "--parity", "1",
                               "--eta", "1", "--t", "0.5", "--formula",
                               "contour")
        assert_rejected(rc, out, err)
        assert err.count("\n") == 1 and "range of a double" in err

    @pytest.mark.parametrize("argv, flag", [
        (["measure", "--kind", "nv"], "--region"),
        (["measure", "--kind", "npl"], "--region"),
        (["measure", "--kind", "pl"], "--lo"),
        (["measure", "--kind", "pl", "--lo", "1"], "--hi"),
        (["bessel", "--t", "0.5"], "--phi"),
        (["bessel", "--phi", "gaussian:q=10i,U=25"], "--t"),
        (["bessel", "--order", "1"], "--x"),
        (["region-volume", "--family", "simplex", "--Y", "3"], "--n"),
        (["region-volume", "--family", "simplex", "--n", "2"], "--Y"),
        (["region-volume", "--family", "sphere", "--r", "1"], "--m"),
        (["region-volume", "--family", "sphere", "--m", "5,6"], "--r"),
        (["region-volume", "--family", "sector", "--q", "2", "--alpha",
          "0.5", "--t", "100"], "--p"),
        (["region-volume", "--family", "sector", "--p", "1", "--alpha",
          "0.5", "--t", "100"], "--q"),
        (["region-volume", "--family", "sector", "--p", "1", "--q", "2",
          "--t", "100"], "--alpha"),
        (["region-volume", "--family", "sector", "--p", "1", "--q", "2",
          "--alpha", "0.5"], "--t"),
        (["region-volume", "--family", "slanted-strip", "--b", "0", "--c",
          "1", "--t", "5"], "--a"),
        (["region-volume", "--family", "slanted-strip", "--a", "1", "--c",
          "1", "--t", "5"], "--b"),
        (["region-volume", "--family", "slanted-strip", "--a", "1", "--b",
          "0", "--t", "5"], "--c"),
        (["region-volume", "--family", "slanted-strip", "--a", "1", "--b",
          "0", "--c", "1"], "--t"),
        (["region-volume", "--family", "box", "--b-list", "3,4"], "--a-list"),
        (["region-volume", "--family", "box", "--a-list", "1,2"], "--b-list"),
        (["region-volume", "--family", "hypercube", "--sigma", "1"],
         "--a-list"),
        (["region-volume", "--family", "hypercube", "--a-list", "1,2"],
         "--sigma"),
        (["region-volume", "--family", "singleton", "--parities", "0"],
         "--points"),
        (["region-volume", "--family", "singleton", "--points", "1.5"],
         "--parities"),
    ])
    def test_missing_flag_is_named(self, capsys, argv, flag):
        rc, out, err = run(capsys, *argv)
        assert_rejected(rc, out, err)
        assert err == f"input rejected: {argv[0]} needs {flag}\n"

    def test_internal_error_is_not_input_rejection(self, monkeypatch):
        # a bug inside a command must surface with its traceback, not exit 2
        def broken(*args):
            raise TypeError("internal bug")

        monkeypatch.setattr(specsum.cli, "kloosterman_sum", broken)
        with pytest.raises(TypeError, match="internal bug"):
            dispatch(["kloosterman", "--c", "3", "--r", "1"])

    def test_non_finite_output_is_an_internal_fault(self, monkeypatch,
                                                    capsys):
        # emit refuses NaN (allow_nan=False): a bug, not bad input
        monkeypatch.setattr(specsum.cli, "kloosterman_sum",
                            lambda *args: complex("nan"))
        with pytest.raises(RuntimeError, match="non-finite"):
            dispatch(["kloosterman", "--c", "3", "--r", "1"])
        assert capsys.readouterr().out == ""

    def test_non_finite_output_exits_one_with_a_traceback(self):
        # the same fault through the program's entry point
        code = ("import specsum.cli as cli\n"
                "cli.kloosterman_sum = lambda *args: complex('nan')\n"
                "cli.main(['kloosterman', '--c', '3', '--r', '1'])\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 1 and out.stdout == ""
        assert "Traceback" in out.stderr and "non-finite" in out.stderr
        assert "input rejected" not in out.stderr


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_commands_parse():
    """Every specsum command in the README's sh blocks parses (not run), so
    dropping a flag the README uses fails here."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("specsum ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
