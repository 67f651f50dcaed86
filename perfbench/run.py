"""specsum benchmark: time to an answer of stated accuracy.

    python3 perfbench/run.py --workload ksum-sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the repository root (the program is the source tree under src/).
Each workload is a closed loop with one client: one job at a time, the next
sent when the previous one finishes.  A pass runs the workload's fixed job
list once in a fresh process; passes repeat until the next one would end
after --seconds (at least one runs).  Outputs are checked against oracles
after the window closes.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics from the traced ones.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

Times are in reference seconds.  The host's speed drifts (by up to 2x over
minutes on a shared 2-vCPU VM), so between every two jobs, and around every
process start, this process times a fixed slice of pure-Python arithmetic
(`reference_slice`) while no job runs, and each job's wall time is scaled
by REF_S over the mean of the two slices around it: the time the job would
take on a host where a slice takes REF_S.  This process never imports
specsum, so a change to specsum cannot change the slices.  The unscaled
times are kept in the --out record.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}

# name -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "ok_frac": "ratio",
    "bound_ok_frac": "ratio",
    "uninformative_frac": "ratio",
    "peak_rss_mb": "MB",
}


# a reference slice takes about REF_S on the 2-vCPU VM the bounds were set on
REF_S = 0.010
REF_N = 20000


def reference_slice():
    """Wall time of a fixed mix of integer, float and Fraction arithmetic."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        s, x, f = 0, 1.0, Fraction(0)
        for i in range(1, REF_N):
            s = (s * 31 + i * i) % 1000003
            x = x * 1.0000001 + (i & 7)
            if i % 16 == 0:
                f += Fraction(i % 97, i % 89 + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def scaled(dt, before, after):
    """dt in reference seconds, from the slices timed just before and after."""
    return dt * 2 * REF_S / (before + after)


def child_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions,
            "thread_pinning": PINNED}


# --------------------------------------------------------------------------
# a worker process, forked per pass
# --------------------------------------------------------------------------

class Worker:
    def __init__(self, env, workload):
        self.tick_r, tick_w = os.pipe()
        go_r, self.go_w = os.pipe()
        before = reference_slice()
        t0 = time.perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(tick_w), str(go_r),
                 workload],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                text=True, pass_fds=(tick_w, go_r))
        finally:
            os.close(tick_w)
            os.close(go_r)
        line = self.proc.stdout.readline()
        self.setup_raw_s = time.perf_counter() - t0
        if not line or not json.loads(line).get("ready"):
            self.close()
            raise RuntimeError("worker failed to start")
        self.setup_s = scaled(self.setup_raw_s, before, reference_slice())

    def run_pass(self, jobs, trace):
        """Run one pass; a reference slice is timed before the first job and
        after each job, while the pass process waits for the go byte."""
        ref = [reference_slice()]
        self.proc.stdin.write(json.dumps({"jobs": jobs, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        out = self.proc.stdout.fileno()
        while out not in select.select([self.tick_r, out], [], [])[0]:
            os.read(self.tick_r, 1)
            ref.append(reference_slice())
            os.write(self.go_w, b"g")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited during a pass")
        payload = json.loads(line)
        if "error" in payload:
            raise RuntimeError(payload["error"])
        payload["ref"] = ref
        return payload

    def close(self):
        try:
            self.proc.stdin.close()
        finally:
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            os.close(self.tick_r)
            os.close(self.go_w)


def _scale_jobs(jobs, pairs):
    """Give each job result its time in reference seconds ("sdt"), from the
    (before, after) reference slices of each job."""
    for r, (before, after) in zip(jobs, pairs):
        r["sdt"] = scaled(r["dt"], before, after)
    return sum(r["sdt"] for r in jobs)


def run_passes(workload, jobs, seconds, trace, env):
    setups = []
    worker = None
    for _ in range(SETUP_SAMPLES):
        if worker is not None:
            worker.close()
        worker = Worker(env, workload)
        setups.append([worker.setup_s, worker.setup_raw_s])
    passes = []
    try:
        for traced in _schedule(seconds, trace, passes):
            t0 = time.perf_counter()
            p = worker.run_pass(jobs, traced)
            results = [dict(r, err=r.get("err")) for r in p["jobs"]]
            passes.append({"traced": traced, "wall_s": time.perf_counter() - t0,
                           "solve_s": _scale_jobs(results, zip(p["ref"], p["ref"][1:])),
                           "raw_s": sum(r["dt"] for r in results), "ref": p["ref"],
                           "peak_rss_mb": p["peak_rss_mb"], "jobs": results,
                           "spans": p.get("spans"), "terms": p.get("terms")})
    finally:
        worker.close()
    return setups, passes


def _schedule(seconds, trace, passes):
    """Yield traced-or-not for each pass: untraced only, or alternating
    untraced and traced; stop when the next pass would end after `seconds`,
    once at least one pass (with trace, one of each) has run."""
    start = time.perf_counter()
    while True:
        n = len(passes)
        if n >= (2 if trace else 1):
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["wall_s"] > seconds:
                return
        yield bool(trace) and n % 2 == 1


def _merge_spans(pass_jobs):
    """Concatenate the spans of a pass's child processes into one list."""
    spans, terms = [], 0
    for i, r in enumerate(pass_jobs):
        off = len(spans)
        for s in r.get("spans") or []:
            spans.append([s[0], s[1], s[2], s[3] + off if s[3] >= 0 else -1, i, s[5]])
        terms += r.get("terms") or 0
    return spans, terms


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def evaluate(workload, jobs, passes):
    """Check every pass; returns (attempted, failed, bounds, results, notes)."""
    attempted = failed = 0
    bounds, results, notes = [], [], []
    first_stdout = {}
    for p in passes:
        verdicts = checks.CHECKS[workload](jobs, p["jobs"])
        for i, (r, v) in enumerate(zip(p["jobs"], verdicts)):
            if "stdout" in r and r.get("err") is None:
                # same seeded command, same bytes
                prev = first_stdout.setdefault(tuple(jobs[i]["argv"]), r["stdout"])
                v.require(prev == r["stdout"], "output bytes differ between passes")
            attempted += 1
            if not v.ok:
                failed += 1
                notes.append(f"job {i} ({jobs[i].get('argv', jobs[i]['kind'])}): {v.why}")
            bounds += v.bounds
            results += v.results
    return attempted, failed, bounds, results, notes


def end_to_end(setups, passes, attempted, failed, bounds, results):
    """The end-to-end metrics (times in reference seconds) and the same
    times unscaled."""
    plain = [p for p in passes if not p["traced"]]
    job_s = [r["sdt"] for p in plain for r in p["jobs"]]
    raw_job_s = [r["dt"] for p in plain for r in p["jobs"]]
    uninformative = sum(1 for value, error in results if not error < value)
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "solve_s": statistics.median(p["solve_s"] for p in plain),
        "job_p50_s": tracing.quantile(job_s, 50),
        "job_p90_s": tracing.quantile(job_s, 90),
        "ok_frac": 1 - failed / attempted,
        "bound_ok_frac": sum(bounds) / len(bounds) if bounds else 1.0,
        "uninformative_frac": uninformative / len(results) if results else 0.0,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    unscaled = {
        "setup_s": statistics.median(raw for _, raw in setups),
        "solve_s": statistics.median(p["raw_s"] for p in plain),
        "job_p50_s": tracing.quantile(raw_job_s, 50),
        "job_p90_s": tracing.quantile(raw_job_s, 90),
        "reference_slice_s": statistics.median(
            t for p in passes for t in p["ref"]),
    }
    return metrics, unscaled, len(job_s)


def per_layer(workload, jobs, passes, imports, props):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for p in traced:
        if workload == "cli-readme":
            spans, terms = _merge_spans(p["jobs"])
        else:
            spans, terms = p["spans"], p["terms"]
        m = tracing.layer_metrics(spans, terms)
        m["cli.exit2_count"] = sum(1 for r in p["jobs"] if r.get("rc") == 2)
        per_pass.append((m, spans))
    metrics = {k: statistics.median(m[k] for m, _ in per_pass)
               for k in per_pass[0][0]}
    metrics["cli.spawn_import_s"] = \
        statistics.median(s for s, _ in imports) if imports else 0.0
    metrics["trace.overhead_frac"] = (
        statistics.median(p["solve_s"] for p in traced)
        / statistics.median(p["solve_s"] for p in plain) - 1)
    return metrics, sanity_facts(workload, jobs, per_pass, metrics, props)


def sanity_facts(workload, jobs, per_pass, metrics, props):
    """Facts read from the code that the trace must show."""
    facts = {}
    if workload == "ksum-sweep":
        want = props["kloosterman_sum_moduli"]["element_reuse_share"]
        facts["residue_ring_reuse_share == element_reuse_share of inputs"] = \
            abs(metrics["numberfield.residue_ring_reuse_share"] - want) < 1e-12
        facts["no besseltransform calls"] = metrics["besseltransform.bessel_calls"] == 0
    elif workload == "bessel-transforms":
        facts["no numberfield ring builds"] = metrics["numberfield.ring_builds"] == 0
    else:
        # the level generator's element and c are different residue_ring
        # cache keys, so a command builds two rings unless they coincide
        ok = True
        for i, j in enumerate(jobs):
            if j["check"] != "kloosterman" or j["m"] == 1:
                continue
            want = 1 if oracles.level_generator(j["m"], tuple(j["c"])) == \
                tuple(j["c"]) else 2
            for _, spans in per_pass:
                ok &= want == sum(1 for s in spans
                                  if s[4] == i and s[0] == "numberfield.ring_build")
        facts["two ring builds per quadratic kloosterman command "
              "(one where the level generator is c itself)"] = ok
    return facts


# --------------------------------------------------------------------------

def run_workload(workload, seed, seconds, trace):
    jobs = workloads.GENERATORS[workload](seed)
    props = workloads.input_properties(workload, jobs)
    env = child_env()
    setups, passes = run_passes(workload, jobs, seconds, trace, env)
    imports = setups if workload == "cli-readme" else []
    attempted, failed, bounds, results, notes = evaluate(workload, jobs, passes)
    e2e, unscaled, n_jobs = end_to_end(setups, passes, attempted, failed,
                                       bounds, results)
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine_facts(), "inputs": props,
              "samples": {"passes": sum(not p["traced"] for p in passes),
                          "traced_passes": sum(p["traced"] for p in passes),
                          "jobs_per_pass": len(jobs), "timed_jobs": n_jobs,
                          "setup_samples": len(setups),
                          "bound_checks": len(bounds), "results": len(results)},
              "reference": {"REF_S": REF_S, "REF_N": REF_N},
              "pass_s": [[p["traced"], p["solve_s"], p["raw_s"]] for p in passes],
              "job_s": [[r["sdt"] for r in p["jobs"]] for p in passes],
              "job_raw_s": [[r["dt"] for r in p["jobs"]] for p in passes],
              "reference_slices_s": [p["ref"] for p in passes],
              "setup_samples_s": setups,
              "failures": notes[:20], "end_to_end": e2e, "unscaled": unscaled}
    if trace:
        layers, facts = per_layer(workload, jobs, passes, imports, props)
        detail["per_layer"], detail["sanity"] = layers, facts
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in tracing.LAYER_METRICS.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    return summary, detail


def report(summary, detail):
    s = detail["samples"]
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
          f"{s['passes']} passes (+{s['traced_passes']} traced) x "
          f"{s['jobs_per_pass']} jobs, {s['timed_jobs']} timed jobs, "
          f"{s['setup_samples']} set-up samples")
    for name, m in summary["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    if not detail["trace"]:
        print("# unscaled: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in detail["unscaled"].items()))
    for fact, ok in detail.get("sanity", {}).items():
        print(f"sanity: {fact}: {'ok' if ok else 'VIOLATED'}")
    for note in detail["failures"]:
        print(f"failed: {note}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record (inputs, machine, "
                                  "samples, sanity facts) as JSON to this file")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "specsum" / "__init__.py").is_file():
        print(f"specsum sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for name in names:
        summary, detail = run_workload(name, args.seed, args.seconds, args.trace)
        report(summary, detail)
        records[name] = {"summary": summary, "detail": detail}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records if len(names) > 1 else records[names[0]], fh,
                      indent=1, sort_keys=True)
    if len(names) == 1:
        print(json.dumps(records[names[0]]["summary"]))
    else:
        print(json.dumps({n: r["summary"] for n, r in records.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
