"""Seeded job lists for the three workloads, and the input properties
measured from them.

A job is a JSON-able dict.  One pass runs a workload's whole job list once,
in order, in a fresh process; the list depends only on the seed.  Draws use
stratified (and, where a cost depends on the draw, antithetic) sampling so
that the cost of a pass moves little from seed to seed while the inputs do.

Why each workload:

* ksum-sweep -- Kloosterman series at nested boxes T, 1.25T, 1.5T, like the
  acceptance pipeline check.  numberfield (the O(N^2) Fraction inverse
  table over Q(sqrt2) and Q(sqrt5)) and kloosterman (per-term Fraction
  trace and phase over Q) do nearly all the work; besseltransform does
  none.  Inner boxes repeat the moduli of outer ones, so about half the
  kloosterman_sum calls reuse an element already seen: a cache change shows
  here.
* bessel-transforms -- transform_axis and transform_contour of gaussian_phi
  and phi_p over both parities, plus one grid of bessel_j_err point values.
  besseltransform and testfunctions do all the work, numberfield none.
  Transforms mostly take the mpmath fallback while integer-order point
  values stay on the double path, so a change to either path shows.
* cli-readme -- the README commands and seeded variants, each in a fresh
  process (a fork of one that has imported specsum.cli, so the import is
  set-up): argument parsing, JSON output, and cli, measures, regions and
  asymptotics, which run only here.  Moduli are never reused inside a
  process, so a cache-only Kloosterman change should show no change here,
  while a faster ring build still does.
"""

from __future__ import annotations

import random
from collections import Counter

from oracles import box_points, norm, principal_hnf, trace_dual_element

WORKLOADS = ("ksum-sweep", "bessel-transforms", "cli-readme")

# field m -> base box T; boxes T, 1.25T, 1.5T.  The boxes are fixed and the
# seed draws r, so the moduli, and the cost of a pass, are the same for
# every seed; a ksum pass costs about 4 s on a 2-core VM.  The Q box makes
# its 1.5T job cost about what the two quadratic 1.5T jobs cost, so the
# job p90 falls inside that cluster of three, not on the edge of one.
KSUM_BOXES = {2: 5.0, 5: 5.0, 1: 75.0}
KSUM_SCALES = (1.0, 1.25, 1.5)
KSUM_TAU = 0.3

# t for gaussian transforms; above t ~ 12 every Bessel call of a gaussian
# transform drops into the mpmath series and one axis + contour pair takes
# 5-6 s, more than a pass can hold.  Grid points reach x = 30.
T_RANGE = (1e-2, 6.0)
X_RANGE = (1e-2, 30.0)
GAUSSIAN_T_STRATA = 9
GRID_POINTS = 120  # per grid job of integer orders
COMPLEX_GRID_JOBS = 6  # of GRID_POINTS / 2 points each


def _frac_str(v):
    return f"{v.numerator}/{v.denominator}"


def _nonzero_dual(rng, m):
    """Seeded r in the trace dual O', nonzero at every place."""
    while True:
        if m == 1:
            x, y = rng.choice((1, 2, 3)) * rng.choice((1, -1)), 0
        else:
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
        if norm(m, x, y) != 0:
            return trace_dual_element(m, x, y)


def ksum_sweep(seed: int):
    rng = random.Random(seed)
    jobs = []
    for m, base in KSUM_BOXES.items():
        r = _nonzero_dual(rng, m)
        for k in KSUM_SCALES:
            jobs.append({"kind": "ksum", "m": m, "r": [_frac_str(v) for v in r],
                         "box": base * k, "tau": KSUM_TAU})
    return jobs


def _log_uniform(lo, hi, u):
    return lo * (hi / lo) ** u


def _strata(rng, lo, hi, n):
    """One log-uniform draw in each of n equal log-width strata of [lo, hi]."""
    return [_log_uniform(lo, hi, (i + rng.random()) / n) for i in range(n)]


def bessel_transforms(seed: int):
    rng = random.Random(seed)
    jobs = []
    q, U = rng.uniform(2.4, 2.6), rng.uniform(85.0, 95.0)
    # both parities in every stratum of t, at mirrored positions u and 1 - u
    # (antithetic): the cost of a transform grows with t, and the set of
    # costs then moves little between seeds
    for i in range(GAUSSIAN_T_STRATA):
        u = rng.random()
        for parity, v in ((0, u), (1, 1 - u)):
            t = _log_uniform(*T_RANGE, (i + v) / GAUSSIAN_T_STRATA)
            for kind in ("axis", "contour"):
                jobs.append({"kind": kind, "phi": ["gaussian", q, U],
                             "parity": parity, "eta": 1, "t": t})
    # point values: one job of integer orders (double path) and six of
    # orders 0.6 + 2iy (mostly the mpmath fallback once y is past a few
    # units).  The six cost about what the dearest gaussian transforms
    # cost, so with the two phi_p jobs above them the job p90 falls inside
    # that cluster, not on the edge of one.
    jobs.append({"kind": "grid", "points": [
        [float(i % 10), 0.0, x]
        for i, x in enumerate(_strata(rng, 0.05, 25.0, GRID_POINTS))]})
    n = COMPLEX_GRID_JOBS * GRID_POINTS // 2
    ys = _strata(rng, 0.25, 30.0, n)
    xs = rng.sample(_strata(rng, *X_RANGE, n), n)
    for k in range(COMPLEX_GRID_JOBS):
        jobs.append({"kind": "grid", "points": [
            [0.6, 2 * y, x] for y, x in zip(ys[k::COMPLEX_GRID_JOBS],
                                            xs[k::COMPLEX_GRID_JOBS])]})
    # phi_p: at t near 3e-4 both declared errors exceed the value by an
    # order of magnitude or more.  The pair takes about 0.6 s (mpmath all
    # along the axis; smaller a costs more, a = 3.75 about 6.5 s), so one
    # pair per pass, in narrow parameter ranges so the pass cost moves
    # little between seeds.
    p, a = rng.uniform(1.95, 2.05), rng.uniform(7.9, 8.1)
    t = _log_uniform(2e-4, 4e-4, rng.random())
    for kind in ("axis", "contour"):
        jobs.append({"kind": kind, "phi": ["phi_p", p, a], "parity": 1,
                     "eta": 1, "t": t})
    return jobs


# --------------------------------------------------------------------------
# cli-readme
# --------------------------------------------------------------------------

# field m -> two moduli x + y w generating conjugate ideals, |N(c)| = 98
# and 109.  A command's cost depends on c itself, not only on |N(c)| (at
# norm 142, -12 + w costs half what 12 + w costs), so the moduli are fixed
# and the seed draws r and the order.
QUADRATIC_MODULI = {2: ((10, 1), (10, -1)), 5: ((10, 1), (11, -1))}
# field m -> the r (as coordinates in the trace dual) a command may draw.
# Over Q(sqrt5) a command's cost moves by up to 20% with r, so r is fixed.
QUADRATIC_R = {2: ((1, 0), (0, 1), (1, 1)), 5: ((0, 1),)}


FIELD_SPEC = {1: "Q", 2: "Q(sqrt2)", 5: "Q(sqrt5)"}


def cli_readme(seed: int):
    rng = random.Random(seed)
    jobs = []

    def add(argv, check, expect=0, **extra):
        jobs.append({"kind": "cli", "argv": argv, "expect": expect,
                     "check": check, **extra})

    # the README examples, verbatim
    add(["region-volume", "--family", "simplex", "--n", "2", "--Y", "4.5",
         "--method", "closed"], "simplex", Y=4.5)
    add(["kloosterman", "--field", "Q", "--c", "3", "--r", "1", "--rp", "1",
         "--chi", "trivial"], "kloosterman", m=1, c=[3, 0], r=["1/1", "0/1"])
    add(["measure", "--kind", "nv", "--b", "1", "--region", "i[1,2]"],
        "nv", b=1.0, lo=1.0, hi=2.0)
    add(["budget", "--field", "Q(sqrt5)", "--t-grid", "3e8:3e12:5"], "budget")
    add(["families", "--field", "Q(sqrt5)", "--report", "csv"], "families")
    add(["synth-count", "--a", "500", "--seed", "7"], "synth")
    add(["check", "all", "--quick"], "check")

    # seeded variants, in ranges narrow enough that a command's cost moves
    # little between seeds.  Light commands, and a 2 x 10^6-sample Monte
    # Carlo volume (about 0.27 s):
    Y = round(rng.uniform(4.0, 6.0), 3)
    mc = (["region-volume", "--family", "simplex", "--n", "2", "--Y", str(Y),
           "--method", "mc", "--samples", "2000000", "--seed", str(seed)],
          "simplex")
    add(*mc, Y=Y)
    m1, m2 = round(rng.uniform(3.0, 8.0), 3), round(rng.uniform(3.0, 8.0), 3)
    rad = round(rng.uniform(0.5, 1.5), 3)
    add(["region-volume", "--family", "sphere", "--m", f"{m1},{m2}", "--r",
         str(rad), "--method", "quadrature"], "sphere", m=[m1, m2], rad=rad)
    lo = round(rng.uniform(1.0, 3.0), 3)
    hi = round(lo + rng.uniform(0.5, 3.0), 3)
    if rng.random() < 0.5:
        add(["measure", "--kind", "npl", "--region", f"i[{lo},{hi}]"],
            "npl", lo=lo, hi=hi)
    else:
        add(["measure", "--kind", "pl", "--parity", "0", "--lo", str(lo),
             "--hi", str(hi)], "pl", lo=lo, hi=hi)
    n, x = rng.randint(0, 6), round(rng.uniform(0.5, 20.0), 4)
    add(["bessel", "--order", str(n), "--x", str(x)], "bessel-order",
        mu=[float(n), 0.0], x=x)

    # mid-cost commands.  The synth-count of a = 500, the three families
    # tables and the two Monte Carlo volumes (0.17-0.27 s, in that order)
    # hold the job p50, among the tables: ten commands are cheaper and
    # seven dearer
    for field in rng.sample(["Q(sqrt2)", "Q(sqrt3)"], 2):
        add(["families", "--field", field, "--report", "csv"], "families")
    # the synthetic spectrum's seed moves the cost by up to 30%, so it is
    # fixed and the seed draws a
    a = round(rng.uniform(975, 1025), 1)
    add(["synth-count", "--a", str(a), "--seed", "7"], "synth")
    q, U = round(rng.uniform(9.0, 10.0), 3), round(rng.uniform(22.0, 28.0), 3)
    t = round(_log_uniform(0.2, 0.8, rng.random()), 4)
    add(["bessel", "--phi", f"gaussian:q={q}i,U={U}", "--parity",
         str(seed % 2), "--eta", "1", "--t", str(t), "--formula", "both"],
        "bessel-both")
    box, g = round(rng.uniform(70.0, 75.0), 2), rng.choice((1, 2, 3))
    add(["ksum", "--field", "Q", "--box", str(box), "--r", str(g)], "ksum",
        m=1, box=box, r=[f"{g}/1", "0/1"])

    # Kloosterman sums over real quadratic fields; a modulus never repeats.
    # --flag=value keeps a leading minus sign from reading as an option.
    # With the synth-count and bessel commands above these are the six
    # slowest commands, of similar cost, so the job p90 falls among them.
    for m in (2, 5):
        for c in rng.sample(QUADRATIC_MODULI[m], 2):
            r = trace_dual_element(m, *rng.choice(QUADRATIC_R[m]))
            add(["kloosterman", "--field", FIELD_SPEC[m], f"--c={c[0]},{c[1]}",
                 f"--r={r[0]},{r[1]}"], "kloosterman",
                m=m, c=list(c), r=[_frac_str(v) for v in r])

    # malformed or out-of-window input: exit 2
    rejects = [
        ["bessel", "--order", "1", "--x", str(round(rng.uniform(1.5e3, 5e3), 1))],
        ["kloosterman", "--field", f"Q(sqrt{rng.choice((4, 8, 9, 12))})",
         "--c", "3", "--r", "1"],
        ["measure", "--kind", "nv", "--region", f"q[1,{rng.randint(2, 5)}]"],
    ]
    for argv in rng.sample(rejects, 2):
        add(argv, "reject", expect=2)

    # the same seeded command again: its output bytes must repeat
    add(*mc, Y=Y)
    return jobs


GENERATORS = {"ksum-sweep": ksum_sweep, "bessel-transforms": bessel_transforms,
              "cli-readme": cli_readme}


# --------------------------------------------------------------------------
# input properties
# --------------------------------------------------------------------------

def _moduli_stats(moduli):
    """moduli: (m, x, y) in call order.  Reuse shares count calls whose
    element, or whose ideal (HNF rows of (c)), was seen earlier."""
    norms = [abs(norm(m, x, y)) for m, x, y in moduli]
    seen_el, seen_id = set(), set()
    el_reuse = id_reuse = 0
    for m, x, y in moduli:
        el = (m, x, y)
        ideal = (m, principal_hnf(m, x, y))
        el_reuse += el in seen_el
        id_reuse += ideal in seen_id
        seen_el.add(el)
        seen_id.add(ideal)
    k = len(moduli)
    return {"moduli": k,
            "sum_norm": sum(norms), "sum_norm_sq": sum(v * v for v in norms),
            "max_norm": max(norms, default=0),
            "element_reuse_share": el_reuse / k if k else 0.0,
            "ideal_reuse_share": id_reuse / k if k else 0.0}


def ksum_moduli(jobs):
    """The moduli ksum passes to kloosterman_sum, in call order."""
    out = []
    for j in jobs:
        if j["kind"] == "ksum":
            out.extend((j["m"], x, y) for x, y in box_points(j["m"], j["box"]))
    return out


def input_properties(workload, jobs):
    if workload == "ksum-sweep":
        return {"kloosterman_sum_moduli": _moduli_stats(ksum_moduli(jobs)),
                "boxes": [[j["m"], j["box"]] for j in jobs]}
    if workload == "bessel-transforms":
        tr = [j for j in jobs if j["kind"] in ("axis", "contour")]
        grid = [pt for j in jobs if j["kind"] == "grid" for pt in j["points"]]
        return {"transforms": [[j["phi"][0], j["kind"], j["parity"], j["t"]]
                               for j in tr],
                "grid_orders": [[p[0], p[1]] for p in grid],
                "grid_x": [p[2] for p in grid]}
    mods = [(j["m"], *j["c"]) for j in jobs if j["check"] == "kloosterman"]
    return {"command_mix": dict(Counter(j["argv"][0] for j in jobs)),
            "expected_exit2": sum(j["expect"] == 2 for j in jobs),
            "kloosterman_moduli": _moduli_stats(mods)}
