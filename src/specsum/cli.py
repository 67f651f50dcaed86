"""Command-line front end: argument parsing, JSON/CSV serialization, and
dispatch into the library modules.

Every numeric output carries {value, error, method}.  Exit codes: 0 on
success, 1 on numeric-precision failure, 2 on input rejection (a
ValueError); any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .asymptotics import (
    FAMILY_GRIDS,
    TWO_PLACE_ROWS,
    choose_U,
    choose_eps,
    count,
    family_asymptotic_table,
    hypercube_budget_sweep,
    main_term,
    synth_spectrum,
)
from .besseltransform import (
    PrecisionError,
    bessel_j_err,
    transform_axis,
    transform_contour,
)
from .kloosterman import kloosterman_sum, ksum, trivial_bound, trivial_character
from .measures import (LAMBDA_STAR_DEFAULT, V_b_lambda_factor, npl, nu_theta,
                       nv_b, pl_lambda)
from .numberfield import IdealLattice, QuadField, make_field
from .regions import PlaceFactor, ProductRegion, family
from .testfunctions import gaussian_phi, phi_p


# --------------------------------------------------------------------------
# parsing helpers
# --------------------------------------------------------------------------

def parse_field(spec: str) -> QuadField:
    s = spec.strip().replace(" ", "")
    if s in ("Q", "q", "1"):
        return make_field(1)
    for pre, post in (("Q(sqrt", ")"), ("Qsqrt", "")):
        if s.startswith(pre) and s.endswith(post):
            body = s[len(pre):len(s) - len(post)] if post else s[len(pre):]
            return make_field(int(body))
    return make_field(int(s))


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_element(F: QuadField, spec: str):
    parts = [_fraction(p) for p in str(spec).split(",")]
    if len(parts) > F.d:
        raise ValueError(f"element spec {spec!r} has wrong arity for {F}")
    return F.element(*parts)


def parse_region(spec: str) -> ProductRegion:
    """Compact region syntax: factors joined by 'x'; each factor is
    i[a,b] (imaginary interval), r[a,b] (complementary interval), or
    d[p] (discrete point), with an optional :parity suffix."""
    factors = []
    for tok in spec.replace(" ", "").split("x"):
        parity = 0
        if ":" in tok:
            tok, par = tok.rsplit(":", 1)
            parity = int(par)
        if len(tok) < 4 or tok[1] != "[" or not tok.endswith("]"):
            raise ValueError(f"bad region factor {tok!r}")
        kind, body = tok[0], tok[2:-1]
        vals = [float(_fraction(v)) for v in body.split(",")]
        if kind == "i" and len(vals) == 2:
            factors.append(PlaceFactor(parity=parity, im=((vals[0], vals[1]),)))
        elif kind == "r" and len(vals) == 2:
            factors.append(PlaceFactor(parity=parity, re=((vals[0], vals[1]),)))
        elif kind == "d" and len(vals) == 1:
            factors.append(PlaceFactor(parity=parity, disc=(vals[0],)))
        else:
            raise ValueError(f"bad region factor {tok!r}")
    return ProductRegion(tuple(factors))


def parse_grid(spec: str):
    """'lo:hi:n' -> n geometrically spaced points."""
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ValueError(f"grid {spec!r} is not lo:hi:n") from None
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    return [float(v) for v in np.geomspace(lo, hi, n)]


_PHI_KEYS = {"gaussian": {"q", "U", "tau", "a"}, "phi_p": {"p", "a", "tau"}}


def parse_phi(spec: str):
    name, _, body = spec.partition(":")
    kw = {}
    for item in filter(None, body.split(",")):
        k, _, v = item.partition("=")
        kw[k] = float(v.rstrip("i").rstrip("j")) if v else 0.0
    if name not in _PHI_KEYS:
        raise ValueError(f"unknown test function {name!r}")
    unknown = sorted(set(kw) - _PHI_KEYS[name])
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)} for {name}; "
                         f"expected {', '.join(sorted(_PHI_KEYS[name]))}")
    if name == "gaussian":
        return gaussian_phi(kw.get("q", 10.0), kw.get("U", 25.0),
                            tau=kw.get("tau", 0.3), a=kw.get("a", 3.0))
    return phi_p(kw.get("p", 1.0), a=kw.get("a", 3.0), tau=kw.get("tau", 0.3))


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)}")


def emit(obj, stream=None):
    """Print obj as JSON without NaN or Infinity (RFC 8259).  measure_dict
    rejects out-of-window input first, so such a number is an internal
    fault: RuntimeError, which dispatch does not turn into exit 2."""
    try:
        text = json.dumps(obj, sort_keys=True, default=_json_default,
                          allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"non-finite number in output: {exc}") from exc
    print(text, file=stream or sys.stdout)


_BEYOND_DOUBLE = "result beyond the range of a double"


def measure_dict(res) -> dict:
    """A result's JSON fields.  A value or error that a double cannot hold
    comes from input out of window, so it is rejected (exit 2)."""
    if not (cmath.isfinite(res.value) and math.isfinite(res.error)):
        raise ValueError(_BEYOND_DOUBLE)
    return {"value": res.value, "error": res.error, "method": res.method}


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def cmd_kloosterman(args) -> int:
    F = parse_field(args.field)
    c = parse_element(F, args.c)
    r = parse_element(F, args.r)
    rp = parse_element(F, args.rp if args.rp is not None else args.r)
    if args.chi != "trivial":
        raise ValueError("only the trivial character is supported here")
    level = IdealLattice.principal(parse_element(F, args.level)) \
        if args.level else IdealLattice.principal(c)
    chi = trivial_character(F, level)
    S = kloosterman_sum(F, chi, r, rp, c)
    bound = trivial_bound(F, c)
    # The sum has at most N = |N(c)| terms cos(2 pi k/den), k and den
    # integers.  k/den is correctly rounded (u = 2^-53 relative), 2 pi rounds
    # by under u and the product by u, so the angle is off by under
    # 3u 2 pi = 2.1e-15, and cos adds an ulp: each term is within 2.3e-15 of
    # its exact value.  fsum rounds their sum once, by under u N, so the
    # error is under 2.5e-15 N: 1e-13 N bounds it for every N to MAX_NORM.
    emit({"value": complex(S), "error": 1e-13 * bound,
          "method": "exact-phase brute force", "trivial_bound": bound})
    return 0


def cmd_ksum(args) -> int:
    F = parse_field(args.field)
    level = IdealLattice.principal(parse_element(F, args.level))
    chi = trivial_character(F, level)
    r = parse_element(F, args.r)
    tau = args.tau

    def f(t):
        # min(|t|^{2 tau}, 1), with no power of a |t| above 1 to overflow
        return math.prod(min(abs(tj), 1.0) ** (2 * tau) for tj in t)

    # |f(t)| <= prod_j min(|t_j|^{2 tau}, 1) holds with K_f = 1 exactly
    res = ksum(F, level, chi, r, f, box=args.box, K_f=1.0, tau=tau)
    emit({"value": complex(res.partial_sum), "error": res.tail_estimate,
          "method": "partial sum + square-root-cancellation tail",
          "terms": res.terms_used, "truncation": args.box})
    return 0


def _require(args, *flags):
    """Reject a command that lacks one of its required flags, naming it."""
    for flag in flags:
        if getattr(args, flag) is None:
            raise ValueError(f"{args.command} needs "
                             f"--{flag.replace('_', '-')}")


def cmd_measure(args) -> int:
    if args.kind == "pl":
        _require(args, "lo", "hi")
        res = pl_lambda(args.parity, args.lo, args.hi)
    else:
        _require(args, "region")
        region = parse_region(args.region)
        # argparse admits no other kind
        res = npl(region) if args.kind == "npl" else nv_b(args.b, region)
    emit(measure_dict(res))
    return 0


# region-volume family -> its required flags: the constructor's, then the
# one that fixes the family's parameter (--Y for simplex, --t otherwise)
_FAMILY_FLAGS = {
    "simplex": ("n", "Y"),
    "sphere": ("m", "r"),
    "sector": ("p", "q", "alpha", "t"),
    "slanted-strip": ("a", "b", "c", "t"),
    "box": ("a_list", "b_list"),
    "hypercube": ("a_list", "sigma"),
    "singleton": ("points", "parities"),
}
# comma-separated flags -> the type of their entries
_LIST_FLAGS = {"m": float, "a_list": float, "b_list": float,
               "points": float, "parities": int}


def cmd_region_volume(args) -> int:
    flags = _FAMILY_FLAGS.get(args.family, ())
    _require(args, *flags)
    kw = {}
    for flag in flags:
        value = getattr(args, flag)
        if flag in _LIST_FLAGS:
            value = [_LIST_FLAGS[flag](v) for v in value.split(",")]
        if flag not in ("t", "Y"):
            kw[flag.removesuffix("_list")] = value
    fam = family(args.family, **kw)
    t = args.Y if args.family == "simplex" else args.t
    try:
        if args.method == "closed":
            res = fam.closed_form_nv1(t)
        elif args.method == "quadrature":
            if not hasattr(fam, "quadrature_nv1"):
                raise ValueError(
                    f"family {args.family} has no --method quadrature")
            res = fam.quadrature_nv1(t)
        else:  # mc; argparse admits no other method
            res = fam.instance(t).mc_nv1(args.samples, seed=args.seed)
    except OverflowError:  # a power of a huge side or radius
        raise ValueError(_BEYOND_DOUBLE) from None
    emit(measure_dict(res))
    return 0


def cmd_bessel(args) -> int:
    if args.order is not None:
        _require(args, "x")
        v, e = bessel_j_err(complex(args.order), args.x)
        emit({"value": v, "error": e, "method": "ascending series"})
        return 0
    _require(args, "phi", "t")
    phi = parse_phi(args.phi)
    out = {}
    for name, transform in (("axis", transform_axis),
                            ("contour", transform_contour)):
        if args.formula in (name, "both"):
            out[name] = measure_dict(
                transform(phi, args.parity, args.eta, args.t))
    emit(out)
    return 0


def cmd_budget(args) -> int:
    F = parse_field(args.field)
    grid = parse_grid(args.t_grid)
    budgets = hypercube_budget_sweep(F, grid, sigma=args.sigma)
    rows = [{"t": t, "value": b.main_term, "error": b.total_error,
             "method": "error-budget",
             "pieces": {"kloosterman": b.kloosterman_piece,
                        "smoothing": b.smoothing_piece,
                        "boundary": b.boundary_piece,
                        "plancherel": b.plancherel_piece},
             "U": b.U, "eps": b.eps, "ratio": b.ratio}
            for t, b in zip(grid, budgets)]
    emit({"rows": rows})
    return 0


def cmd_families(args) -> int:
    F = parse_field(args.field)
    names = args.rows.split(",") if args.rows else \
        [n for n in FAMILY_GRIDS if F.d == 2 or n not in TWO_PLACE_ROWS]
    rows = []
    for name in names:
        if name not in FAMILY_GRIDS:
            raise ValueError(f"unknown family row {name!r}")
        rows.append(family_asymptotic_table(name, F, FAMILY_GRIDS[name]))
    if args.report == "csv":
        print("family,constant,exponent,target,target_exponent,rel_deviation")
        for r in rows:
            const = r.get("constant_at_target_exponent", r.get("value"))
            print(f"{r['family']},{const},{r['exponent']},"
                  f"{r['target']},{r['target_exponent']},"
                  f"{r['rel_deviation']}")
    else:
        emit({"rows": [{k: v for k, v in r.items() if k != "values"}
                       for r in rows]})
    return 0


def cmd_synth_count(args) -> int:
    F = parse_field(args.field)
    fam = family("hypercube", a=[lambda t: t] * F.d, sigma=args.sigma)
    region = fam.instance(args.a).product
    spec = synth_spectrum(F, region, seed=args.seed,
                          weight_law=args.weight_law)
    mt = main_term(region, F)
    c = count(spec, region=region)
    emit({"value": c, "error": 3 * math.sqrt(max(mt, 1.0)),
          "method": "poisson-synthetic", "main_term": mt,
          "ratio": c / mt, "points": len(spec), "seed": args.seed})
    return 0


# --------------------------------------------------------------------------
# check suites
# --------------------------------------------------------------------------

def _suite_kloosterman_small() -> dict:
    F = make_field(1)
    checks = {}
    for cval, want in ((3, -1.0), (4, -2.0)):
        c = F.element(cval)
        chi = trivial_character(F, IdealLattice.principal(c))
        S = kloosterman_sum(F, chi, F.one(), F.one(), c)
        checks[f"S(1,1;{cval})"] = abs(S - want) < 1e-10
    F2 = make_field(2)
    c = F2.element(3)
    chi = trivial_character(F2, IdealLattice.principal(c))
    S = kloosterman_sum(F2, chi, F2.one(), F2.one(), c)
    checks["bound Q(sqrt2) c=3"] = abs(S) <= trivial_bound(F2, c) + 1e-9
    return checks


def _suite_identities() -> dict:
    checks = {}
    F5 = make_field(5)
    row = family_asymptotic_table("holo", F5, [1, 2, 3])
    checks["holomorphic main-term identity"] = row["rel_deviation"] < 1e-12
    m = math.exp(-100)
    U = choose_U(m, 0.5, 1)
    eps = choose_eps(m, U)
    checks["U eps^2 identity"] = abs(
        U * eps * eps - 0.5 * math.log(100)) < 1e-12
    v = V_b_lambda_factor(1.0, [(LAMBDA_STAR_DEFAULT, 1.25)]).value
    checks["middle-band mass"] = abs(v - (1 + nu_theta())) < 1e-10
    checks["simplex W_2(4.5)"] = abs(
        family("simplex", n=2).closed_form_nv1(4.5).value - 0.5) < 1e-12
    return checks


def cmd_check(args) -> int:
    suites = {"kloosterman-small": _suite_kloosterman_small,
              "identities": _suite_identities}
    if args.suite == "all":
        names = list(suites)
    elif args.suite in suites:
        names = [args.suite]
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    report, ok = {}, True
    for name in names:
        checks = suites[name]()
        report[name] = checks
        ok &= all(checks.values())
    emit({"pass": ok, "suites": report})
    return 0 if ok else 1


# --------------------------------------------------------------------------
# parser / dispatch
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="specsum")
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kloosterman")
    k.add_argument("--field", default="Q")
    k.add_argument("--c", required=True)
    k.add_argument("--r", required=True)
    k.add_argument("--rp")
    k.add_argument("--chi", default="trivial")
    k.add_argument("--level")
    k.set_defaults(func=cmd_kloosterman)

    ks = sub.add_parser("ksum")
    ks.add_argument("--field", default="Q")
    ks.add_argument("--level", default="1")
    ks.add_argument("--r", default="1")
    ks.add_argument("--box", type=float, default=30.0)
    ks.add_argument("--tau", type=float, default=0.3)
    ks.set_defaults(func=cmd_ksum)

    m = sub.add_parser("measure")
    m.add_argument("--kind", required=True, choices=["npl", "nv", "pl"])
    m.add_argument("--b", type=float, default=1.0)
    m.add_argument("--region")
    m.add_argument("--parity", type=int, default=0)
    m.add_argument("--lo", type=float)
    m.add_argument("--hi", type=float)
    m.set_defaults(func=cmd_measure)

    rv = sub.add_parser("region-volume")
    rv.add_argument("--family", required=True)
    rv.add_argument("--method", default="closed",
                    choices=["closed", "quadrature", "mc"])
    rv.add_argument("--n", type=int)
    rv.add_argument("--Y", type=float)
    rv.add_argument("--t", type=float)
    rv.add_argument("--m")
    rv.add_argument("--r", type=float)
    rv.add_argument("--p", type=float)
    rv.add_argument("--q", type=float)
    rv.add_argument("--alpha", type=float)
    rv.add_argument("--a", type=float)
    rv.add_argument("--b", type=float)
    rv.add_argument("--c", type=float)
    rv.add_argument("--a-list", dest="a_list")
    rv.add_argument("--b-list", dest="b_list")
    rv.add_argument("--sigma", type=float)
    rv.add_argument("--points")
    rv.add_argument("--parities")
    rv.add_argument("--samples", type=int, default=10 ** 5)
    rv.add_argument("--seed", type=int, default=0)
    rv.set_defaults(func=cmd_region_volume)

    b = sub.add_parser("bessel")
    b.add_argument("--phi")
    b.add_argument("--parity", type=int, default=0)
    b.add_argument("--eta", type=int, default=1)
    b.add_argument("--t", type=float)
    b.add_argument("--formula", default="both",
                   choices=["axis", "contour", "both"])
    b.add_argument("--order")
    b.add_argument("--x", type=float)
    b.set_defaults(func=cmd_bessel)

    bu = sub.add_parser("budget")
    bu.add_argument("--field", default="Q(sqrt5)")
    bu.add_argument("--t-grid", dest="t_grid", default="3e8:3e12:5")
    bu.add_argument("--sigma", type=float, default=40.0)
    bu.set_defaults(func=cmd_budget)

    fa = sub.add_parser("families")
    fa.add_argument("--field", default="Q(sqrt5)")
    fa.add_argument("--report", default="json", choices=["json", "csv"])
    fa.add_argument("--rows")
    fa.set_defaults(func=cmd_families)

    sc = sub.add_parser("synth-count")
    sc.add_argument("--field", default="Q(sqrt5)")
    sc.add_argument("--a", type=float, default=500.0)
    sc.add_argument("--sigma", type=float, default=0.3)
    sc.add_argument("--weight-law", dest="weight_law", default="unit")
    sc.add_argument("--seed", type=int, default=0)
    sc.set_defaults(func=cmd_synth_count)

    ch = sub.add_parser("check")
    ch.add_argument("suite")
    ch.add_argument("--quick", action="store_true")
    ch.set_defaults(func=cmd_check)

    return p


# built once, at import, so that a command only parses (argparse's first
# message lookup also imports locale)
_PARSER = build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PrecisionError as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"input rejected: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
