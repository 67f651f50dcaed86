"""Output checks.  No check runs inside a timed region.

Each ``check_*_pass`` function returns one verdict per job of a pass:

* ``ok``: the job ran, exited as expected and its answer meets the stated
  accuracy against the oracle (a failed job otherwise);
* ``bounds``: one boolean per comparison whose declared error should cover
  the distance to an oracle, to a cross-formula result, or to a larger box;
* ``results``: (|value|, error) of every answer that declares an error
  (except answers whose true value is zero).
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import oracles

# stated accuracy of an answer against its oracle
BESSEL_REL = 1e-8
BESSEL_ABS = 1e-12
KLOOSTERMAN_REL = 1e-9  # relative to the trivial bound sum
MEASURE_REL = 1e-8


class Verdict:
    def __init__(self):
        self.ok = True
        self.why = None
        self.bounds = []
        self.results = []

    def fail(self, why):
        if self.ok:
            self.ok, self.why = False, why

    def require(self, cond, why):
        if not cond:
            self.fail(why)

    def answer(self, value, error, ref=None, within=None, ref_lo=0.0):
        """Record an answer; with a ref (plus ref_lo, the part of the oracle
        value below its last bit), check that the declared error covers the
        distance and, with `within`, the stated accuracy.  An answer whose
        true value is zero at the stated accuracy (a vanishing Kloosterman
        sum) has no informative error bar, so it is not counted in results."""
        if ref is None or within is None or abs(ref) > within:
            self.results.append((abs(value), error))
        if ref is not None:
            dist = abs((value - ref) - ref_lo)
            self.bounds.append(dist <= error)
            if within is not None:
                self.require(dist <= within, f"|{value} - {ref}| > {within}")


def _rationals(coords):
    return tuple(Fraction(v) for v in coords)


def _bessel_within(ref):
    return BESSEL_REL * abs(ref) + BESSEL_ABS


# --------------------------------------------------------------------------
# library workloads
# --------------------------------------------------------------------------

def check_ksum_pass(jobs, outs):
    verdicts = [Verdict() for _ in jobs]
    for j, o, v in zip(jobs, outs, verdicts):
        if o["err"]:
            v.fail(o["err"])
            continue
        re_, im, tail, terms = o["out"]
        value = complex(re_, im)
        r = _rationals(j["r"])
        ref, majorant, count = oracles.ksum_partial(j["m"], r, j["box"], j["tau"])
        v.require(terms == count, f"{terms} terms, oracle has {count}")
        v.require(abs(im) <= KLOOSTERMAN_REL * majorant, "Im of partial sum")
        v.require(abs(value) <= majorant * (1 + 1e-12), "trivial bound")
        v.require(math.isfinite(tail) and tail > 0, "tail estimate")
        v.answer(value, tail)
        v.require(abs(value - ref) <= KLOOSTERMAN_REL * majorant + 1e-12,
                  f"partial sum {value} vs brute force {ref}")
    # Cauchy check: a larger box moves the partial sum by at most the tail
    for a, (ja, oa) in enumerate(zip(jobs, outs)):
        for jb, ob in zip(jobs[a + 1:], outs[a + 1:]):
            if oa["err"] or ob["err"] or ja["m"] != jb["m"] or ja["r"] != jb["r"]:
                continue
            if jb["box"] > ja["box"]:
                d = abs(complex(*oa["out"][:2]) - complex(*ob["out"][:2]))
                verdicts[a].bounds.append(d <= oa["out"][2])
    return verdicts


def check_bessel_pass(jobs, outs):
    verdicts = [Verdict() for _ in jobs]
    for i, (j, o, v) in enumerate(zip(jobs, outs, verdicts)):
        if o["err"]:
            v.fail(o["err"])
            continue
        if j["kind"] == "grid":
            for (mu_re, mu_im, x), (vr, vi, e) in zip(j["points"], o["out"]):
                ref, lo = oracles.bessel_j(mu_re, mu_im, x)
                v.answer(complex(vr, vi), e, ref, _bessel_within(ref), lo)
            continue
        v.results.append((abs(complex(o["out"][0], o["out"][1])), o["out"][2]))
        if j["kind"] == "contour":
            continue
        # axis and contour at the same (phi, parity, t) must agree within
        # err_a + err_c; the verdict is shared by both jobs
        c, oc = jobs[i + 1], outs[i + 1]
        if c["kind"] != "contour" or c["t"] != j["t"]:
            raise ValueError("each axis job must be followed by its contour job")
        if oc["err"]:
            continue
        d = abs(complex(*o["out"][:2]) - complex(*oc["out"][:2]))
        agree = d <= o["out"][2] + oc["out"][2]
        v.bounds.append(agree)
        for w in (v, verdicts[i + 1]):
            w.require(agree, f"axis and contour differ by {d:.3e} at t={j['t']}")
    return verdicts


# --------------------------------------------------------------------------
# cli-readme
# --------------------------------------------------------------------------

def _value(obj):
    v = obj["value"]
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _check_cli(job, o, v):
    kind = job["check"]
    if o["rc"] != job["expect"]:
        v.fail(f"exit {o['rc']}, expected {job['expect']}: {o['stderr'][-300:]}")
        return
    if kind == "reject":
        v.require(o["stdout"] == "", "output on rejected input")
        return
    if kind == "families":
        rows = list(csv.DictReader(io.StringIO(o["stdout"])))
        v.require(len(rows) == 7, f"{len(rows)} family rows")
        for row in rows:
            dev = float(row["rel_deviation"])
            v.require(math.isfinite(dev) and dev <= 0.05,
                      f"{row['family']} deviates by {dev}")
        return
    out = json.loads(o["stdout"])
    if kind == "check":
        v.require(out["pass"] is True, "self-check failed")
    elif kind == "budget":
        v.require(len(out["rows"]) == 5, "budget rows")
        for row in out["rows"]:
            pieces = sum(row["pieces"].values())
            v.require(math.isclose(row["error"], pieces, rel_tol=1e-9),
                      "budget error is not the sum of its pieces")
            v.answer(complex(row["value"]), row["error"])
    elif kind == "bessel-both":
        a, c = out["axis"], out["contour"]
        d = abs(_value(a) - _value(c))
        agree = d <= a["error"] + c["error"]
        v.require(agree, f"axis and contour differ by {d:.3e}")
        v.bounds.append(agree)
        v.results += [(abs(_value(a)), a["error"]), (abs(_value(c)), c["error"])]
    elif kind == "synth":
        v.require(out["value"] == out["points"], "count is not the point count")
        v.require(0.9 <= out["ratio"] <= 1.1, f"count ratio {out['ratio']}")
        v.answer(_value(out), out["error"], complex(out["main_term"]))
    elif kind == "kloosterman":
        r = _rationals(job["r"])
        ref = oracles.kloosterman(job["m"], tuple(job["c"]), r, r)
        bound = out["trivial_bound"]
        value = _value(out)
        v.require(abs(value) <= bound * (1 + 1e-12), "trivial bound")
        v.require(abs(value.imag) <= KLOOSTERMAN_REL * bound, "Im S for r = r'")
        v.answer(value, out["error"], ref, KLOOSTERMAN_REL * bound)
    elif kind == "ksum":
        ref, majorant, count = oracles.ksum_partial(
            1, _rationals(job["r"]), job["box"])
        v.require(out["terms"] == count, "term count")
        v.answer(_value(out), out["error"], ref, KLOOSTERMAN_REL * majorant + 1e-12)
    elif kind == "bessel-order":
        ref, lo = oracles.bessel_j(*job["mu"], job["x"])
        v.answer(_value(out), out["error"], ref, _bessel_within(ref), lo)
    else:
        if kind == "simplex":
            ref = oracles.simplex2_volume(job["Y"])
        elif kind == "sphere":
            ref = oracles.sphere2_volume(*job["m"], job["rad"])
        elif kind == "nv":
            ref = oracles.nv_interval(job["b"], job["lo"], job["hi"])
        elif kind == "npl":
            ref = oracles.npl_interval(0, job["lo"], job["hi"])
        elif kind == "pl":
            ref = oracles.pl_interval(0, job["lo"], job["hi"])
        else:
            raise ValueError(f"no check for {kind!r}")
        # Monte Carlo declares 3 standard errors; accept up to 6
        within = 2 * out["error"] if out["method"] == "monte-carlo" \
            else MEASURE_REL * max(abs(ref), 1.0)
        v.answer(_value(out), out["error"], ref, within)


def check_cli_pass(jobs, outs):
    verdicts = []
    for j, o in zip(jobs, outs):
        v = Verdict()
        if o.get("err"):
            v.fail(o["err"])
        else:
            try:
                _check_cli(j, o, v)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                v.fail(f"unreadable output: {type(exc).__name__}: {exc}")
        verdicts.append(v)
    return verdicts


CHECKS = {"ksum-sweep": check_ksum_pass, "bessel-transforms": check_bessel_pass,
          "cli-readme": check_cli_pass}
