"""Replay pinned CLI commands and compare stdout, stderr and exit code byte
for byte with tests/data/cli_bytes.json.

A change that alters one of these outputs on purpose regenerates the file:

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from specsum.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data" / "cli_bytes.json"


def _readme_commands():
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.splitlines() if line.startswith("specsum ")]


_MC = ["--method", "mc", "--samples", "20000", "--seed", "3"]
# one valid command per region-volume family and method
_FAMILY = {
    "simplex": ["--n", "2", "--Y", "4.5"],
    "sphere": ["--m", "5,6", "--r", "1.5"],
    "sector": ["--p", "1", "--q", "2", "--alpha", "0.75", "--t", "100"],
    "slanted-strip": ["--a", "1", "--b", "0", "--c", "1", "--t", "5"],
    "box": ["--a-list", "1,2.5", "--b-list", "3,4"],
    "hypercube": ["--a-list", "2,5", "--sigma", "0.5"],
    "singleton": ["--points", "1.5,2", "--parities", "0,1"],
}
_METHODS = {
    "simplex": ("closed", "mc"),
    "sphere": ("closed", "quadrature", "mc"),
    "sector": ("closed", "mc"),
    "slanted-strip": ("closed", "quadrature", "mc"),
    "box": ("closed",),
    "hypercube": ("closed",),
    "singleton": ("closed",),
}


def commands():
    out = _readme_commands()
    for name, flags in _FAMILY.items():
        for method in _METHODS[name]:
            argv = ["region-volume", "--family", name, *flags,
                    *(_MC if method == "mc" else ["--method", method])]
            if argv not in out:
                out.append(argv)
    out.append(["families", "--field", "Q(sqrt3)"])
    out.append(["check", "all"])
    out.extend(_SYNTH)
    out.extend(_MEASURE)
    out.extend(_RESULTS)
    return out


# synthetic counts: a large unit-weight run, lognormal weights, the field Q,
# and a region too small to hold a point
_SYNTH = [
    ["synth-count", "--a", "1019.7", "--seed", "7"],
    ["synth-count", "--a", "500", "--seed", "7", "--weight-law", "lognormal"],
    ["synth-count", "--field", "Q", "--a", "800", "--seed", "11"],
    ["synth-count", "--a", "2", "--seed", "1"],
]

# Plancherel measures across discrete points of both parities, and the
# families table over Q (one-place rows only, holo at its default point)
_MEASURE = [
    ["measure", "--kind", "pl", "--parity", "0", "--lo", "-30", "--hi", "40"],
    ["measure", "--kind", "pl", "--parity", "1", "--lo", "-30", "--hi", "40"],
    ["measure", "--kind", "npl", "--region", "i[0,2.5]:1xd[1.5]"],
    ["families", "--field", "Q"],
]


# the Kloosterman series over one and two places, Kloosterman sums at a
# level strictly larger than (c) and over Q(sqrt5), each transform formula
# alone, and point values of J on the double-precision and the
# extended-precision series
_RESULTS = [
    ["ksum", "--field", "Q", "--box", "15"],
    ["ksum", "--field", "Q(sqrt5)", "--box", "15"],
    ["kloosterman", "--field", "Q", "--c", "12", "--r", "1", "--level", "4"],
    ["kloosterman", "--field", "Q(sqrt2)", "--c=3,6", "--r=1", "--level=3"],
    ["kloosterman", "--field", "Q(sqrt5)", "--c=4,1", "--r=1"],
    ["bessel", "--phi", "phi_p:p=1,a=3", "--parity", "1", "--eta", "-1",
     "--t", "3", "--formula", "axis"],
    ["bessel", "--phi", "phi_p:p=1,a=3", "--parity", "1", "--eta", "-1",
     "--t", "3", "--formula", "contour"],
    ["bessel", "--order", "2", "--x", "5"],
    ["bessel", "--order", "3", "--x", "20"],
]


def run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dispatch(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


# read at collection; the file is absent only while it is being generated
PINNED = json.loads(DATA.read_text()) if DATA.exists() else []


def test_pinned_commands_are_current():
    assert [r["argv"] for r in json.loads(DATA.read_text())] == commands()


@pytest.mark.parametrize("record", PINNED, ids=lambda r: " ".join(r["argv"]))
def test_output_bytes(record):
    assert run(record["argv"]) == record


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number (RFC 8259)")


def test_json_outputs_hold_no_nan_or_infinity():
    outputs = [r["stdout"] for r in PINNED if r["stdout"].startswith("{")]
    assert len(outputs) > 10
    for out in outputs:
        json.loads(out, parse_constant=_reject_constant)


def _decoded(record):
    try:
        return json.loads(record["stdout"])
    except ValueError:  # a csv report, or an error on stderr
        return record


if __name__ == "__main__":
    from moved import report

    new = [run(a) for a in commands()]
    old = {shlex.join(r["argv"]): r for r in PINNED}
    for record in new:
        label = shlex.join(record["argv"])
        if label in old and old[label] != record:
            report(label, _decoded(old[label]), _decoded(record))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(new, indent=1) + "\n")
