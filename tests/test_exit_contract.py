"""The exit-code contract at the edges of a double.

Each flag of the README commands whose value reads as a number, and of
three more commands, is set in turn to nan, inf, -inf, +-1e308, 0 and
1e-308, and the command is run through cli.dispatch in-process.  nan must
be refused (exit 2).  Any other value may succeed (0) or be refused (2);
no exception may escape, and a call still running after LIMIT seconds
fails.  Numbers that a flag's own type does not parse (inside a region, a
test function, a comma list or an element) and that no double holds must
be refused with one message.
"""

import contextlib
import io
import signal

import pytest
from test_cli_bytes import _readme_commands

from specsum.cli import dispatch

VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "1e-308")
LIMIT = 10  # seconds per command


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _cases():
    commands = _readme_commands() + [
        ["bessel", "--order", "1", "--x", "2"],
        ["ksum", "--field", "Q", "--box", "10", "--r", "1"],
        ["measure", "--kind", "pl", "--lo", "1", "--hi", "2"],
    ]
    for argv in commands:
        for i, flag in enumerate(argv[:-1]):
            if flag.startswith("--") and _is_number(argv[i + 1]):
                for value in VALUES:
                    # --flag=value, so that argparse reads -inf as a value
                    yield argv[:i] + [f"{flag}={value}"] + argv[i + 2:]


class _Hang(BaseException):
    """Raised by the alarm; no handler in the package catches it."""


def _alarm(signum, frame):
    raise _Hang(f"still running after {LIMIT} s")


def _dispatch(argv):
    """(exit code, stdout, stderr) of argv, under the alarm."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(LIMIT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dispatch(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", list(_cases()), ids=" ".join)
def test_extreme_number_keeps_the_exit_contract(argv):
    rc, _, err = _dispatch(argv)
    if any(a.endswith("=nan") for a in argv):
        assert rc == 2, err
    else:
        assert rc in (0, 2), err


GAUSSIAN = ["bessel", "--parity", "0", "--eta", "1", "--t", "1", "--formula",
            "axis", "--phi"]


@pytest.mark.parametrize("argv", [
    GAUSSIAN + ["gaussian:q=10i,U=inf"],
    GAUSSIAN + ["gaussian:q=10i,U=1e400"],
    ["measure", "--kind", "nv", "--b", "1", "--region", "i[1,1e400]"],
    ["region-volume", "--family", "box", "--a-list", "1,1e400", "--b-list",
     "2,1e401"],
    ["ksum", "--field", "Q", "--box", "10", "--r=1e400"],
    ["ksum", "--field", "Q", "--box", "10", "--r=-1e400"],
], ids=" ".join)
def test_number_beyond_a_double_inside_a_flag_is_refused(argv):
    rc, out, err = _dispatch(argv)
    assert (rc, out) == (2, "")
    assert err.startswith("input rejected:") and err.count("\n") == 1, err
