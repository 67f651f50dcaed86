"""Worker for every workload.

    python3 worker.py <tick fd> <go fd> <workload>

Started as a fresh interpreter, it imports specsum (for cli-readme,
specsum.cli, as the `specsum` command does) and prints one line
``{"ready": true}``; the parent's clock from spawn to that line is one
set-up sample.  Each request line on stdin is one pass: the worker forks,
the child runs the pass's jobs in order and sends the result back, and
exits.  A pass therefore starts with specsum imported but every lru_cache
empty, as in a user's new session.  A CLI command runs in a fork of its
own, so each one starts as a fresh `specsum` process whose import is done.
The worker starts no threads (BLAS and OpenMP are pinned to one thread by
the parent), so forking it is safe.

After each job the child writes one byte to <tick fd> and waits for one
byte on <go fd>, so the parent can time its reference kernel between jobs
while nothing else of the benchmark runs.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

# called through module attributes, so the tracer's wrappers are seen
import specsum.besseltransform as besseltransform
import specsum.kloosterman as kloosterman
import specsum.numberfield as numberfield
import specsum.testfunctions as testfunctions


def _element(F, coords):
    return F.element(*(Fraction(v) for v in coords[:F.d]))


def _phi(spec):
    name, x, y = spec
    if name == "gaussian":
        return testfunctions.gaussian_phi(x, y)
    return testfunctions.phi_p(x, a=y)


def run_job(job):
    """Run one job through the library; returns a JSON-able result."""
    kind = job["kind"]
    if kind == "ksum":
        F = numberfield.make_field(job["m"])
        tau = job["tau"]

        def f(t):
            return math.prod(min(abs(tj) ** (2 * tau), 1.0) for tj in t)

        level = numberfield.IdealLattice.ring_of_integers(F)
        res = kloosterman.ksum(F, level, None, _element(F, job["r"]), f,
                               job["box"], 1.0, tau=tau)
        return [res.partial_sum.real, res.partial_sum.imag,
                res.tail_estimate, res.terms_used]
    if kind in ("axis", "contour"):
        transform = besseltransform.transform_axis if kind == "axis" \
            else besseltransform.transform_contour
        res = transform(_phi(job["phi"]), job["parity"], job["eta"], job["t"])
        v = complex(res.value)
        return [v.real, v.imag, res.error]
    if kind == "grid":
        out = []
        for mu_re, mu_im, x in job["points"]:
            v, e = besseltransform.bessel_j_err(complex(mu_re, mu_im), x)
            out.append([v.real, v.imag, e])
        return out
    raise ValueError(f"unknown job kind {kind!r}")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_command(argv, tracer):
    """Run one CLI command in a forked child, as `specsum <argv>` would run
    once its import is done.  Returns the exit code, the output, the time
    from dispatch to output written, the child's peak RSS and its spans."""
    import specsum.cli as cli

    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.dispatch(argv)
        except SystemExit as exc:  # argparse rejects input with exit 2
            code = exc.code
        except Exception:  # an uncaught error ends the process with 1
            err.write(traceback.format_exc())
            code = 1
        dt = time.perf_counter() - t0
        if code is None or isinstance(code, str):
            code = 0 if code is None else 1
        report = {"dt": dt, "rc": code, "stdout": out.getvalue(),
                  "stderr": err.getvalue(), "peak_rss_mb": _peak_rss_mb()}
        if tracer is not None:
            report["spans"], report["terms"] = tracer.spans, tracer.terms
        with os.fdopen(wfd, "wb") as fh:
            fh.write(json.dumps(report).encode())
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else None


def run_pass(jobs, trace, tick_fd, go_fd):
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        if job["kind"] == "cli":
            result = run_command(job["argv"], tracer)
            results.append(result or {"dt": 0.0, "err": "command process died"})
        else:
            t0 = time.perf_counter()
            try:
                out, err = run_job(job), None
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            results.append({"dt": time.perf_counter() - t0, "out": out, "err": err})
        os.write(tick_fd, b"t")
        if not os.read(go_fd, 1):
            raise RuntimeError("benchmark parent went away")
    payload = {"jobs": results,
               "peak_rss_mb": max([_peak_rss_mb()] + [r.get("peak_rss_mb", 0)
                                                      for r in results])}
    if tracer is not None:
        payload["spans"] = tracer.spans
        payload["terms"] = tracer.terms
    return payload


def _serve_pass(request, tick_fd, go_fd):
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            payload = run_pass(request["jobs"], request["trace"], tick_fd, go_fd)
        except BaseException:
            payload = {"error": traceback.format_exc()}
        with os.fdopen(wfd, "wb") as out:
            out.write(json.dumps(payload).encode())
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as inp:
        data = inp.read()
    os.waitpid(pid, 0)
    return data.decode() or json.dumps({"error": "pass process died"})


def main():
    tick_fd, go_fd = int(sys.argv[1]), int(sys.argv[2])
    if sys.argv[3] == "cli-readme":
        import specsum.cli  # noqa: F401
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        sys.stdout.write(_serve_pass(json.loads(line), tick_fd, go_fd) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
