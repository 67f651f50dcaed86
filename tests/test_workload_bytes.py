"""Same seed, same bytes, over every job of the benchmark's workloads.

Each job of perfbench's three workloads at seeds 1 and 2 is run in-process
and the sha256 of its output is compared with tests/data/workload_bytes.json:
for a library job the JSON of `perfbench/worker.run_job`'s result (or of
the error it raised), for a CLI job its exit code, stdout and stderr from
`cli.dispatch`.  The benchmark's files are read, never changed.

A change that moves outputs on purpose, or changes perfbench/workloads.py,
regenerates the file, and its diff names the jobs that moved:

    PYTHONPATH=src python tests/test_workload_bytes.py
"""

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

from specsum.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "workload_bytes.json"
SEEDS = (1, 2)

sys.path.insert(0, str(ROOT / "perfbench"))
import worker  # noqa: E402
import workloads  # noqa: E402


def label(job):
    """The job's argv or spec, in one line (a grid by its size and first
    point)."""
    if job["kind"] == "cli":
        return shlex.join(job["argv"])
    if job["kind"] == "grid":
        pts = job["points"]
        return json.dumps({"kind": "grid", "points": len(pts),
                           "first": pts[0]})
    return json.dumps(job, sort_keys=True)


def output(job):
    if job["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(list(job["argv"]))
        return json.dumps([code, out.getvalue(), err.getvalue()])
    try:
        return json.dumps(worker.run_job(job))
    except Exception as exc:  # a failing job's message is its output
        return json.dumps({"err": f"{type(exc).__name__}: {exc}"})


def records():
    return [{"workload": w, "seed": seed, "job": i, "spec": label(job),
             "sha256": hashlib.sha256(output(job).encode()).hexdigest()}
            for w in workloads.WORKLOADS for seed in SEEDS
            for i, job in enumerate(workloads.GENERATORS[w](seed))]


def test_every_workload_output_is_pinned():
    pinned = json.loads(DATA.read_text())
    got = records()
    assert [(r["workload"], r["seed"], r["spec"]) for r in got] == \
        [(r["workload"], r["seed"], r["spec"]) for r in pinned], \
        "the job lists changed; regenerate the file"
    moved = [f"{r['workload']} seed {r['seed']} job {r['job']}: {r['spec']}"
             for r, p in zip(got, pinned) if r["sha256"] != p["sha256"]]
    assert not moved, "outputs moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    # one record per line, so a diff of the file names the jobs that moved
    lines = ",\n".join(json.dumps(r) for r in records())
    DATA.write_text(f"[\n{lines}\n]\n")
