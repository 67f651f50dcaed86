"""Outside-in tracer: wraps public specsum functions by module attribute.

Nothing inside ``src/specsum`` knows about this module.  ``install`` swaps
each traced function for a wrapper in every loaded specsum module that holds
it (``from .x import f`` copies the reference), so calls made between library
modules are seen as well as calls made by the benchmark.

A span is ``[name, start, end, parent, job, extra]``: perf_counter times,
the index of the enclosing span (-1 at top level), the job id set by the
runner, and one number some spans carry (ring size, points returned, ...).
Spans stay in memory; the runner ships them to the parent process when the
pass ends, and ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import wraps
from operator import attrgetter

_clock = time.perf_counter

# span name -> (module, attribute path); a dotted path names a method
FUNCTIONS = {
    "numberfield.residue_ring": ("specsum.numberfield", "residue_ring"),
    "numberfield.lattice_enum": ("specsum.numberfield",
                                 "IdealLattice.lattice_points_in_box"),
    "kloosterman.sum": ("specsum.kloosterman", "kloosterman_sum"),
    "kloosterman.ksum": ("specsum.kloosterman", "ksum"),
    "kloosterman.character": ("specsum.kloosterman", "trivial_character"),
    "besseltransform.bessel": ("specsum.besseltransform", "bessel_j_err"),
    "besseltransform.axis": ("specsum.besseltransform", "transform_axis"),
    "besseltransform.contour": ("specsum.besseltransform", "transform_contour"),
    "testfunctions.phi": ("specsum.testfunctions", "LocalTestFunction.__call__"),
    "measures.npl": ("specsum.measures", "npl"),
    "measures.nv_b": ("specsum.measures", "nv_b"),
    "measures.pl_lambda": ("specsum.measures", "pl_lambda"),
    "measures.V_b_lambda_factor": ("specsum.measures", "V_b_lambda_factor"),
    "measures.monte_carlo": ("specsum.measures", "monte_carlo_measure"),
    "regions.family": ("specsum.regions", "family"),
    "asymptotics.synth": ("specsum.asymptotics", "synth_spectrum"),
    "asymptotics.family_table": ("specsum.asymptotics", "family_asymptotic_table"),
    "asymptotics.budget": ("specsum.asymptotics", "hypercube_budget_sweep"),
    "cli.dispatch": ("specsum.cli", "dispatch"),
}

# ResidueRing methods whose first call on an instance builds its tables
RING_METHODS = ("units", "inverse_mod", "is_invertible")

# region-family methods that compute a volume
REGION_METHOD_SUFFIXES = ("_nv1", "_vc")


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = -1
        self.terms = 0  # inverse_mod calls made inside kloosterman_sum
        self._stack = []
        self._rings_seen = set()
        self._rings_returned = set()
        self._keep = []  # rings stay referenced so their ids stay unique

    def _open(self, name, extra=None):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.job, extra]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = _clock()
        return span

    def _close(self, span):
        self._stack.pop()
        span[2] = _clock()

    def wrap(self, name, fn, extra=None):
        """Wrapper recording a span; extra(result) gives span[5]."""

        @wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if extra is not None:
                span[5] = extra(out)
            return out

        return traced

    def wrap_ring_method(self, fn):
        """The first call on an instance is a ring build, recorded as a span;
        later calls are lookups, not recorded (an inverse_mod lookup inside a
        Kloosterman sum counts one term)."""
        counts_terms = fn.__name__ == "inverse_mod"

        @wraps(fn)
        def traced(ring, *args, **kwargs):
            if counts_terms and self._in("kloosterman.sum"):
                self.terms += 1
            if id(ring) in self._rings_seen:
                return fn(ring, *args, **kwargs)
            self._rings_seen.add(id(ring))
            self._keep.append(ring)
            span = self._open("numberfield.ring_build", ring.size)
            try:
                return fn(ring, *args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _in(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    def ring_reuse(self, ring):
        """1 when residue_ring returns a ring object it returned before."""
        reused = id(ring) in self._rings_returned
        self._rings_returned.add(id(ring))
        self._keep.append(ring)
        return int(reused)


def _replace_everywhere(orig, new):
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("specsum"):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, new)


def install(tracer):
    """Wrap every traced entry point of the loaded specsum modules."""
    import importlib

    extras = {"numberfield.residue_ring": tracer.ring_reuse,
              "numberfield.lattice_enum": len,
              "measures.monte_carlo": attrgetter("detail"),
              "asymptotics.synth": len}
    for name, (modname, path) in FUNCTIONS.items():
        mod = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(mod, owner_name)
            setattr(owner, attr, tracer.wrap(name, vars(owner)[attr],
                                             extras.get(name)))
        else:
            orig = getattr(mod, attr)
            _replace_everywhere(orig, tracer.wrap(name, orig, extras.get(name)))

    nf = importlib.import_module("specsum.numberfield")
    for meth in RING_METHODS:
        setattr(nf.ResidueRing, meth,
                tracer.wrap_ring_method(vars(nf.ResidueRing)[meth]))

    regions = importlib.import_module("specsum.regions")
    classes = [regions.RegionInstance] + [
        c for c in vars(regions).values()
        if isinstance(c, type) and issubclass(c, regions.RegionFamily)]
    for cls in classes:
        for attr, fn in list(vars(cls).items()):
            if callable(fn) and attr.endswith(REGION_METHOD_SUFFIXES):
                setattr(cls, attr, tracer.wrap("regions." + attr, fn))


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------

def self_times(spans):
    """Duration of each span minus the part of it that its children cover.

    Children are clipped to the parent's interval and merged, so
    overlapping or out-of-range child spans are not subtracted twice.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        ivs = sorted((max(spans[c][1], start), min(spans[c][2], end))
                     for c in children[i])
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in ivs:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(end - start - covered, 0.0))
    return out


def outermost(spans, prefix):
    """Indices of spans named with prefix that have no ancestor so named."""
    out = []
    for i, s in enumerate(spans):
        if not s[0].startswith(prefix):
            continue
        p = s[3]
        while p >= 0 and not spans[p][0].startswith(prefix):
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


# name -> unit; every per-layer metric the benchmark reports
LAYER_METRICS = {
    "numberfield.ring_builds": "count",
    "numberfield.ring_build_s": "s",
    "numberfield.ring_residues": "count",
    "numberfield.residue_ring_calls": "count",
    "numberfield.residue_ring_reuse_share": "ratio",
    "numberfield.lattice_enum_s": "s",
    "numberfield.lattice_points": "count",
    "kloosterman.sum_calls": "count",
    "kloosterman.sum_self_s": "s",
    "kloosterman.terms": "count",
    "kloosterman.term_us": "us",
    "kloosterman.character_calls": "count",
    "kloosterman.character_self_s": "s",
    "kloosterman.ksum_self_s": "s",
    "besseltransform.bessel_calls": "count",
    "besseltransform.bessel_s": "s",
    "besseltransform.bessel_call_p50_us": "us",
    "besseltransform.bessel_call_p90_us": "us",
    "besseltransform.bessel_calls_per_transform": "calls/transform",
    "besseltransform.axis_self_s": "s",
    "besseltransform.contour_self_s": "s",
    "testfunctions.phi_calls": "count",
    "testfunctions.phi_s": "s",
    "measures.calls": "count",
    "measures.s": "s",
    "measures.mc_samples": "count",
    "regions.calls": "count",
    "regions.self_s": "s",
    "asymptotics.synth_s": "s",
    "asymptotics.synth_points": "count",
    "asymptotics.synth_us_per_point": "us/point",
    "asymptotics.family_table_s": "s",
    "asymptotics.budget_s": "s",
    "cli.spawn_import_s": "s",
    "cli.dispatch_self_s": "s",
    "cli.exit2_count": "count",
    "trace.overhead_frac": "ratio",
}


def quantile(values, q):
    """q-th percentile (inclusive method); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, terms):
    """Per-layer totals for one pass (spans of that pass only).

    Returns every LAYER_METRICS name except the ones the runner fills in
    (cli.spawn_import_s, cli.exit2_count, trace.overhead_frac)."""
    selft = self_times(spans)

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def dur(i):
        return spans[i][2] - spans[i][1]

    builds = named("numberfield.ring_build")
    rr = named("numberfield.residue_ring")
    lat = named("numberfield.lattice_enum")
    ksums = named("kloosterman.sum")
    chars = named("kloosterman.character")
    kser = named("kloosterman.ksum")
    bessel = outermost(spans, "besseltransform.bessel")
    axis = named("besseltransform.axis")
    contour = named("besseltransform.contour")
    in_transform = [i for i in bessel if _has_ancestor(spans, i, (
        "besseltransform.axis", "besseltransform.contour"))]
    phi = outermost(spans, "testfunctions.phi")
    meas = outermost(spans, "measures.")
    mc = named("measures.monte_carlo")
    reg = [i for i, s in enumerate(spans) if s[0].startswith("regions.")]
    synth = named("asymptotics.synth")
    dispatch = named("cli.dispatch")

    bessel_us = [dur(i) * 1e6 for i in bessel]
    ksum_self = sum(selft[i] for i in ksums)
    synth_s = sum(dur(i) for i in synth)
    synth_pts = sum(spans[i][5] for i in synth)
    n_transforms = len(axis) + len(contour)
    return {
        "numberfield.ring_builds": len(builds),
        "numberfield.ring_build_s": sum(dur(i) for i in builds),
        "numberfield.ring_residues": sum(spans[i][5] for i in builds),
        "numberfield.residue_ring_calls": len(rr),
        "numberfield.residue_ring_reuse_share":
            sum(spans[i][5] for i in rr) / len(rr) if rr else 0.0,
        "numberfield.lattice_enum_s": sum(selft[i] for i in lat),
        "numberfield.lattice_points": sum(spans[i][5] for i in lat),
        "kloosterman.sum_calls": len(ksums),
        "kloosterman.sum_self_s": ksum_self,
        "kloosterman.terms": terms,
        "kloosterman.term_us": ksum_self / terms * 1e6 if terms else 0.0,
        "kloosterman.character_calls": len(chars),
        "kloosterman.character_self_s": sum(selft[i] for i in chars),
        "kloosterman.ksum_self_s": sum(selft[i] for i in kser),
        "besseltransform.bessel_calls": len(bessel),
        "besseltransform.bessel_s": sum(bessel_us) / 1e6,
        "besseltransform.bessel_call_p50_us": quantile(bessel_us, 50),
        "besseltransform.bessel_call_p90_us": quantile(bessel_us, 90),
        "besseltransform.bessel_calls_per_transform":
            len(in_transform) / n_transforms if n_transforms else 0.0,
        "besseltransform.axis_self_s": sum(selft[i] for i in axis),
        "besseltransform.contour_self_s": sum(selft[i] for i in contour),
        "testfunctions.phi_calls": len(phi),
        "testfunctions.phi_s": sum(dur(i) for i in phi),
        "measures.calls": len(meas),
        "measures.s": sum(dur(i) for i in meas),
        "measures.mc_samples": sum(spans[i][5] for i in mc),
        "regions.calls": len(reg),
        "regions.self_s": sum(selft[i] for i in reg),
        "asymptotics.synth_s": synth_s,
        "asymptotics.synth_points": synth_pts,
        "asymptotics.synth_us_per_point":
            synth_s / synth_pts * 1e6 if synth_pts else 0.0,
        "asymptotics.family_table_s":
            sum(dur(i) for i in named("asymptotics.family_table")),
        "asymptotics.budget_s": sum(dur(i) for i in named("asymptotics.budget")),
        "cli.dispatch_self_s": sum(selft[i] for i in dispatch),
    }


def _has_ancestor(spans, i, names):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][3]
    return False
